//! The workspace's transcendental functions: `exp`, `tanh`, `sigmoid`,
//! `ln`, `sin`, `cos` on `f32`, written out in IEEE `+ − × ÷`, comparisons
//! and bit casts — no libm call, no `mul_add`, no intrinsics — so the same
//! input gives the same bits on every host that runs the same binary, and
//! on every x86-64-v3 build of this source. Beside them, the rule that
//! keeps subnormals out of state that outlives an update:
//! [`flush_subnormal`].
//!
//! Each function has a scalar form and a `_slice` form that applies it in
//! place. The slice form is the scalar form in a loop: the scalar bodies
//! are branch-free (selects, no early return, no float → int cast), which
//! is what lets LLVM turn that loop into eight-lane (`sin`/`cos`: four-lane,
//! they work in `f64`) vector code, and IEEE arithmetic without fast-math
//! flags is what makes the vector lanes agree with the scalar form **bit
//! for bit** at every length and offset (`tests/math.rs` holds them to it).
//!
//! # Accuracy
//!
//! Error against the `f64` reference, in units in the last place of the
//! `f32` result. *Budget* is what `tests/math.rs` enforces, on a sampled
//! grid in the default suite and on every finite `f32` of the domain in
//! its `--ignored` exhaustive run; *measured* is that run's maximum.
//!
//! | function  | domain        | budget | measured | neighbouring floats   |
//! |-----------|---------------|-------:|---------:|-----------------------|
//! | `exp`     | every `f32`   | 2      | 0.99     | never decreases       |
//! | `ln`      | every `f32`   | 2      | 0.83     | never decreases       |
//! | `tanh`    | every `f32`   | 2      | 1.33     | never decreases       |
//! | `sigmoid` | every `f32`   | 4      | 2.40     | one-ulp dips; monotone on a 10⁻⁴ grid |
//! | `sin`     | `|x| ≤ 2²⁰`   | 2      | 0.50     |                       |
//! | `cos`     | `|x| ≤ 2²⁰`   | 2      | 0.50     |                       |
//!
//! `sin`/`cos` reduce their argument in `f64` against a two-part π/2, exact
//! for `|x| ≤ 2²⁰`. The largest argument a call site forms is the MHEALTH
//! generator's third harmonic, `3·θ + 0.7 ≈ 6·10³` at the end of a default
//! 8 192-step walking session; absolute error stays below `6·10⁻⁸` (half an
//! ulp of 1) over the whole domain. Beyond `2²⁰` an `f32` no longer
//! resolves a quarter turn and the result is NaN rather than a wrong phase.
//!
//! # Special values
//!
//! | input        | `exp` | `ln`  | `tanh` | `sigmoid` | `sin`/`cos` |
//! |--------------|-------|-------|--------|-----------|-------------|
//! | NaN          | NaN   | NaN   | NaN    | NaN       | NaN         |
//! | `+∞`         | `+∞`  | `+∞`  | `1`    | `1`       | NaN         |
//! | `−∞`         | `0`   | NaN   | `−1`   | `0`       | NaN         |
//! | `−0.0`       | `1`   | `−∞`  | `−0.0` | `0.5`     | `−0.0` / `1`|
//! | `x < 0`      |       | NaN   |        |           |             |
//!
//! `exp` overflows to `+∞` above `88.72284` and underflows through the
//! subnormals to `0` below `−103.97`; `ln` takes subnormal arguments;
//! `|tanh| ≤ 1` and `0 ≤ sigmoid ≤ 1` on every input.
//!
//! # Subnormals
//!
//! The functions above take and return subnormals like any other float.
//! State that *persists* — an optimiser moment, a gradient row on its way
//! into one — is a different matter: a value that decays geometrically
//! reaches the subnormal range and stays there (`0.9 × 4 ulp` rounds back to
//! `4 ulp`), and every arithmetic instruction that meets one traps to
//! microcode, ≈ 150 cycles on the Xeons this runs on. [`flush_subnormal`]
//! is the rule such state is stored under: `|x| < 2⁻¹²⁶` becomes a zero of
//! the same sign, everything else — NaN and ±∞ included — is returned as
//! it came. It is an integer mask and a select, so the flush itself never
//! touches a subnormal with floating-point hardware, and it is a defined
//! function of the value, not a processor mode: no MXCSR write, the same
//! bits on every host and thread.

/// `1.5 · 2²³`: adding it to `|t| < 2²²` rounds `t` to the nearest integer
/// (ties to even) in the low mantissa bits — a float → int conversion made
/// of one IEEE addition, with no cast to saturate.
const ROUND_F32: f32 = 12_582_912.0;
/// `1.5 · 2⁵²`, the same for `f64`.
const ROUND_F64: f64 = 6_755_399_441_055_744.0;

/// `x` held to `[lo, hi]` with NaN passed through — `x.max(lo).min(hi)`
/// would turn a NaN into `lo`, and a NaN logit into a probability.
#[inline(always)]
fn clamp_keep_nan(x: f32, lo: f32, hi: f32) -> f32 {
    let x = if x < lo { lo } else { x };
    if x > hi {
        hi
    } else {
        x
    }
}

/// `2^k` for `−126 ≤ k ≤ 127`, by writing the exponent field (any other
/// `k` — a NaN argument leaves one — gives an unspecified float).
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits(((k + 127) << 23) as u32)
}

/// The reduction and polynomial of [`exp`]: `(e^r, k)` with
/// `x = k·ln 2 + r`, `|r| ≤ ½ ln 2` (two-part `ln 2`, so `r` is exact to
/// working precision) and `e^r` as `1 + r + r²·P(r)`, `P` the degree-5
/// Cephes `expf` polynomial. Needs `|x| < 2²¹`.
#[inline(always)]
fn exp_reduced(x: f32) -> (f32, i32) {
    // ln 2 = LN2_HI + LN2_LO; LN2_HI has 9 significant bits, so k·LN2_HI
    // is exact for every |k| < 2¹⁵.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let t = x * std::f32::consts::LOG2_E + ROUND_F32;
    let kf = t - ROUND_F32;
    let k = t.to_bits() as i32 - ROUND_F32.to_bits() as i32;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let p = 1.987_569_1e-4;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_6e-1;
    let p = p * r + 0.5;
    ((p * (r * r) + r) + 1.0, k)
}

/// `e^x`. The power of two is applied in two halves, so a result below
/// `2⁻¹²⁶` rounds once, into the subnormals.
#[inline]
pub fn exp(x: f32) -> f32 {
    // e^−104 < 2⁻¹⁵⁰ rounds to 0 and e^89 > f32::MAX rounds to +∞: beyond
    // the clamp nothing changes, inside it k stays within [−150, 128].
    let (e, k) = exp_reduced(clamp_keep_nan(x, -104.0, 89.0));
    let half = k >> 1;
    (e * pow2(half)) * pow2(k - half)
}

/// `ln x` — the fdlibm/musl `logf` scheme: `x = 2^k · m` with
/// `m ∈ [√½, √2)`, `f = m − 1`, `s = f / (2 + f)`, and
/// `ln m = f − f²/2 + s·(f²/2 + R(s²))` with `k·ln 2` added in two parts.
#[inline]
pub fn ln(x: f32) -> f32 {
    const LN2_HI: f32 = 6.931_381e-1;
    const LN2_LO: f32 = 9.058_001e-6;
    const LG1: f32 = 0.666_666_6;
    const LG2: f32 = 0.400_009_72;
    const LG3: f32 = 0.284_987_87;
    const LG4: f32 = 0.242_790_79;
    /// Bits of `√½`, rounded down.
    const SQRT_HALF: u32 = 0x3f35_04f3;
    const ONE: u32 = 0x3f80_0000;
    // Subnormals are scaled into the normal range first (2²⁵ is exact).
    let tiny = x < f32::MIN_POSITIVE;
    let scaled = if tiny { x * 33_554_432.0 } else { x };
    let bias = if tiny { -25 } else { 0 };
    // Adding 1 − √½ to the bits moves the exponent boundary from 1 to √½:
    // the field above bit 23 is then k + 127 and the rest is m − √½.
    let ix = scaled.to_bits().wrapping_add(ONE - SQRT_HALF);
    let k = ((ix >> 23) as i32) - 127 + bias;
    let m = f32::from_bits((ix & 0x007f_ffff) + SQRT_HALF);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * LG4);
    let t2 = z * (LG1 + w * LG3);
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let dk = k as f32;
    let main = s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI;
    if x > 0.0 && x < f32::INFINITY {
        main
    } else if x == 0.0 {
        f32::NEG_INFINITY
    } else if x == f32::INFINITY {
        f32::INFINITY
    } else {
        f32::NAN
    }
}

/// `tanh x`, odd by construction. Below `|x| = 0.625` an odd polynomial
/// `x + x³·P(x²)` (`P` a degree-5 Chebyshev fit of `(tanh x / x − 1) / x²`);
/// above it `1 − 2 / (e^{2|x|} + 1)`, whose error shrinks with the term
/// being subtracted: the flat tail rises float by float to exactly `±1`,
/// where a single rational over the whole range jitters by a few ulps.
#[inline]
pub fn tanh(x: f32) -> f32 {
    const SPLIT: f32 = 0.625;
    // tanh is 1 to f32 precision from 9.02 on.
    let a = clamp_keep_nan(x.abs(), 0.0, 10.0);
    let z = a * a;
    let p = 2.292_744_8e-3;
    let p = p * z - 8.343_945e-3;
    let p = p * z + 2.176_891_8e-2;
    let p = p * z - 5.395_925_8e-2;
    let p = p * z + 1.333_330_4e-1;
    let p = p * z - 3.333_333_4e-1;
    let small = a + a * (z * p);
    let (e, k) = exp_reduced(2.0 * a);
    let large = 1.0 - 2.0 / (e * pow2(k) + 1.0);
    let magnitude = if a < SPLIT { small } else { large };
    f32::from_bits(magnitude.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// The logistic sigmoid `1 / (1 + e^−x)`, from one `e^−|x|`: the positive
/// half divides 1, the negative half divides the exponential, so neither
/// tail loses its leading digits and the result never leaves `[0, 1]`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let e = exp(-x.abs());
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Largest `|x|` [`sin`] and [`cos`] answer: `2²⁰`.
pub const SIN_COS_MAX: f32 = 1_048_576.0;

/// The quarter-turn reduction shared by [`sin`] and [`cos`]: returns
/// `(sin r, cos r, n)` with `x = n·π/2 + r`, `|r| ≤ π/4`, all in `f64`.
#[inline(always)]
fn quarter_turn(x: f32) -> (f64, f64, u64) {
    // π/2 = PIO2_HI + PIO2_LO (fdlibm's pio2_1 / pio2_1t): the high part
    // has 33 significant bits, so n·PIO2_HI is exact for |n| < 2²⁰.
    const PIO2_HI: f64 = 1.570_796_326_734_125_6;
    const PIO2_LO: f64 = 6.077_100_506_506_192e-11;
    // fdlibm's __kernel_sin / __kernel_cos coefficients on |r| ≤ π/4.
    const S1: f64 = -0.166_666_666_666_666_32;
    const S2: f64 = 0.008_333_333_333_322_49;
    const S3: f64 = -0.000_198_412_698_298_579_5;
    const S4: f64 = 2.755_731_370_707_006_8e-6;
    const S5: f64 = -2.505_076_025_340_686_3e-8;
    const S6: f64 = 1.589_690_995_211_55e-10;
    const C1: f64 = 0.041_666_666_666_666_6;
    const C2: f64 = -0.001_388_888_888_887_411;
    const C3: f64 = 2.480_158_728_947_673e-5;
    const C4: f64 = -2.755_731_435_139_066_3e-7;
    const C5: f64 = 2.087_572_321_298_175e-9;
    const C6: f64 = -1.135_964_755_778_819_5e-11;
    let x = f64::from(x);
    let t = x * std::f64::consts::FRAC_2_PI + ROUND_F64;
    let n = t - ROUND_F64;
    let r = (x - n * PIO2_HI) - n * PIO2_LO;
    let z = r * r;
    let s = S6 * z + S5;
    let s = s * z + S4;
    let s = s * z + S3;
    let s = s * z + S2;
    let s = s * z + S1;
    let c = C6 * z + C5;
    let c = c * z + C4;
    let c = c * z + C3;
    let c = c * z + C2;
    let c = c * z + C1;
    // r·(1 + …), not r + r·…: −0.0 stays −0.0.
    (r * (1.0 + z * s), (1.0 - 0.5 * z) + (z * z) * c, t.to_bits())
}

/// Picks `±sin r` / `±cos r` by quadrant `n mod 4` and rounds to `f32`;
/// NaN outside `|x| ≤ 2²⁰`.
#[inline(always)]
fn by_quadrant(x: f32, sin_r: f64, cos_r: f64, n: u64) -> f32 {
    let v = if n & 1 == 0 { sin_r } else { cos_r };
    let v = f64::from_bits(v.to_bits() ^ ((n & 2) << 62));
    if x.abs() <= SIN_COS_MAX {
        v as f32
    } else {
        f32::NAN
    }
}

/// `sin x` for `|x| ≤ 2²⁰` ([`SIN_COS_MAX`]); NaN beyond, and for ±∞.
#[inline]
pub fn sin(x: f32) -> f32 {
    let (s, c, n) = quarter_turn(x);
    by_quadrant(x, s, c, n)
}

/// `cos x` for `|x| ≤ 2²⁰` ([`SIN_COS_MAX`]); NaN beyond, and for ±∞.
#[inline]
pub fn cos(x: f32) -> f32 {
    let (s, c, n) = quarter_turn(x);
    by_quadrant(x, s, c, n.wrapping_add(1))
}

/// `x`, or a zero of `x`'s sign when `|x| < f32::MIN_POSITIVE` (see the
/// module docs, "Subnormals"). Idempotent; `±0`, NaN and `±∞` pass through.
#[inline]
pub fn flush_subnormal(x: f32) -> f32 {
    const SIGN: u32 = 0x8000_0000;
    let bits = x.to_bits();
    // A zero exponent field: ±0 or a subnormal, compared as integers.
    if bits & !SIGN < f32::MIN_POSITIVE.to_bits() {
        f32::from_bits(bits & SIGN)
    } else {
        x
    }
}

macro_rules! slice_forms {
    ($($(#[$doc:meta])* $slice:ident => $scalar:ident;)*) => {$(
        $(#[$doc])*
        pub fn $slice(xs: &mut [f32]) {
            for x in xs {
                *x = $scalar(*x);
            }
        }
    )*};
}

slice_forms! {
    /// [`exp`] of every element, in place; the same bits as the scalar form.
    exp_slice => exp;
    /// [`ln`] of every element, in place; the same bits as the scalar form.
    ln_slice => ln;
    /// [`tanh`] of every element, in place; the same bits as the scalar form.
    tanh_slice => tanh;
    /// [`sigmoid`] of every element, in place; the same bits as the scalar form.
    sigmoid_slice => sigmoid;
    /// [`sin`] of every element, in place; the same bits as the scalar form.
    sin_slice => sin;
    /// [`cos`] of every element, in place; the same bits as the scalar form.
    cos_slice => cos;
    /// [`flush_subnormal`] of every element, in place; the same bits as the
    /// scalar form.
    flush_subnormal_slice => flush_subnormal;
}
