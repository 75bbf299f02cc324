//! Span instrumentation, split by clock domain:
//!
//! * **Virtual-clock spans** ([`vspan`] / [`vinstant`]) carry simulator
//!   time. They are deterministic — identical runs record identical
//!   events — and export as Chrome-trace JSON ([`export_chrome_trace`])
//!   loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`. Each named track becomes one trace thread.
//! * **Wall-clock spans** ([`WallSpan`]) measure real elapsed time and
//!   aggregate into a *sidecar* store ([`wall_stats`]) that is rendered
//!   to stderr / BENCH json only — never into the deterministic registry
//!   or stdout, so byte-stable outputs stay byte-stable.
//!
//! Virtual-event capture is further gated by [`set_trace_capture`] so the
//! per-event cost (a mutex push) is only paid when a trace was requested.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::ENABLED;

/// Per-track retained-event cap. Tracks drop (and count) events beyond
/// this bound; since per-track recording order is deterministic, the
/// retained prefix — and therefore the exported trace — stays
/// deterministic too.
pub(crate) const TRACK_EVENT_CAP: usize = 1 << 18;

#[derive(Debug)]
struct VEvent {
    name: String,
    ts_us: f64,
    /// `Some` for complete spans (`ph:"X"`), `None` for instants.
    dur_us: Option<f64>,
}

#[derive(Debug, Default)]
struct Track {
    events: Vec<VEvent>,
    dropped: u64,
}

static TRACE: Mutex<BTreeMap<String, Track>> = Mutex::new(BTreeMap::new());
static CAPTURE: AtomicBool = AtomicBool::new(false);

fn with_trace<R>(f: impl FnOnce(&mut BTreeMap<String, Track>) -> R) -> R {
    let mut guard = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Turns virtual-event capture on or off (off by default; forced off
/// when telemetry is disabled).
pub fn set_trace_capture(on: bool) {
    if ENABLED {
        CAPTURE.store(on, Ordering::SeqCst);
    }
}

/// True when virtual events are being captured. Instrumentation sites
/// should guard on this before building track/event strings.
#[inline]
pub fn trace_capture_enabled() -> bool {
    ENABLED && CAPTURE.load(Ordering::Relaxed)
}

fn push_event(track: &str, ev: VEvent) {
    with_trace(|tracks| {
        // The key is allocated once per track, not once per event.
        let t = match tracks.get_mut(track) {
            Some(t) => t,
            None => tracks.entry(track.to_string()).or_default(),
        };
        if t.events.len() < TRACK_EVENT_CAP {
            t.events.push(ev);
        } else {
            t.dropped += 1;
        }
    });
}

/// Records a complete virtual-clock span on `track` (ms of virtual time).
/// No-op unless capture is on.
pub fn vspan(track: &str, name: &str, start_ms: f64, dur_ms: f64) {
    if trace_capture_enabled() {
        push_event(
            track,
            VEvent {
                name: name.to_string(),
                ts_us: start_ms * 1000.0,
                dur_us: Some(dur_ms.max(0.0) * 1000.0),
            },
        );
    }
}

/// Records an instantaneous virtual-clock event on `track`. No-op unless
/// capture is on.
pub fn vinstant(track: &str, name: &str, t_ms: f64) {
    if trace_capture_enabled() {
        push_event(track, VEvent { name: name.to_string(), ts_us: t_ms * 1000.0, dur_us: None });
    }
}

/// Discards all captured virtual events.
pub fn clear_trace() {
    with_trace(|tracks| tracks.clear());
}

/// Exports the captured virtual events as Chrome-trace JSON (the
/// `traceEvents` array format Perfetto and `chrome://tracing` load).
/// Tracks are emitted in name order as trace threads; events within a
/// track are stably sorted by timestamp, so the output is byte-identical
/// for identical captures regardless of recording interleaving.
pub fn export_chrome_trace() -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    with_trace(|tracks| {
        for (tid, (track, t)) in tracks.iter_mut().enumerate() {
            if tid > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
            let tid = tid.to_string();
            out.push_str(&tid);
            out.push_str(",\"args\":{\"name\":\"");
            push_escaped(&mut out, track);
            out.push_str("\"}}");
            t.events
                .sort_by(|a, b| a.ts_us.partial_cmp(&b.ts_us).unwrap_or(std::cmp::Ordering::Equal));
            // The fixed pieces are pushed, not formatted: a `write!` of the
            // whole event cost more than its two floats, and a trace runs
            // to millions of events.
            for ev in &t.events {
                out.push_str(",\n{\"name\":\"");
                push_escaped(&mut out, &ev.name);
                let _ = match ev.dur_us {
                    Some(dur) => {
                        write!(out, "\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{dur:.3},", ev.ts_us)
                    }
                    None => write!(out, "\",\"ph\":\"i\",\"ts\":{:.3},\"s\":\"t\",", ev.ts_us),
                };
                out.push_str("\"pid\":0,\"tid\":");
                out.push_str(&tid);
                out.push_str(",\"cat\":\"virtual\"}");
            }
            if t.dropped > 0 {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"[{} events dropped at track cap]\",\"ph\":\"i\",\
                     \"ts\":0.000,\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"cat\":\"virtual\"}}",
                    t.dropped
                );
            }
        }
    });
    out.push_str("\n]}\n");
    out
}

/// Appends `s` to `out` escaped as JSON string content.
fn push_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return out.push_str(s);
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Aggregated sidecar statistic (wall-clock span or alloc-phase counts).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SidecarStat {
    /// Number of recorded spans / phases.
    pub count: u64,
    /// Total across recordings (ns for wall spans, allocations for
    /// alloc phases).
    pub total: u64,
    /// Largest single recording.
    pub max: u64,
}

static SIDECAR: Mutex<BTreeMap<String, SidecarStat>> = Mutex::new(BTreeMap::new());

fn with_sidecar<R>(f: impl FnOnce(&mut BTreeMap<String, SidecarStat>) -> R) -> R {
    let mut guard = SIDECAR.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Folds one observation into a named sidecar stat. No-op when disabled.
pub fn sidecar_add(name: &str, value: u64) {
    if ENABLED {
        with_sidecar(|m| {
            let s = m.entry(name.to_string()).or_default();
            s.count += 1;
            s.total += value;
            s.max = s.max.max(value);
        });
    }
}

/// All sidecar stats, sorted by name.
pub fn wall_stats() -> Vec<(String, SidecarStat)> {
    with_sidecar(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
}

/// Clears the sidecar store.
pub fn clear_wall_stats() {
    with_sidecar(|m| m.clear());
}

/// Renders the sidecar stats as an aligned text block (stderr-friendly;
/// wall-span totals print as milliseconds, alloc phases as counts).
pub fn wall_stats_text() -> String {
    let stats = wall_stats();
    let mut out = String::new();
    for (name, s) in &stats {
        if name.starts_with("alloc.") {
            let _ =
                writeln!(out, "  {name:<28} n={:<8} allocs={:<12} max={}", s.count, s.total, s.max);
        } else {
            let _ = writeln!(
                out,
                "  {name:<28} n={:<8} total={:.3} ms  mean={:.1} us  max={:.1} us",
                s.count,
                s.total as f64 / 1e6,
                if s.count == 0 { 0.0 } else { s.total as f64 / s.count as f64 / 1e3 },
                s.max as f64 / 1e3
            );
        }
    }
    out
}

/// RAII wall-clock timer: measures from construction to drop and folds
/// the elapsed nanoseconds into the sidecar store under `name`. When
/// telemetry is disabled, construction takes no timestamp and drop does
/// nothing.
#[must_use = "a WallSpan measures until it is dropped"]
pub struct WallSpan {
    name: &'static str,
    start: Option<Instant>,
}

impl WallSpan {
    /// Starts timing `name` (no-op when telemetry is disabled).
    pub fn new(name: &'static str) -> Self {
        Self { name, start: if ENABLED { Some(Instant::now()) } else { None } }
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            sidecar_add(self.name, ns);
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    /// One test per binary-global store (capture flag, trace map, sidecar
    /// map) — a single `#[test]` so concurrent tests cannot disturb them.
    #[test]
    fn trace_and_sidecar_roundtrip() {
        // Capture off: events are discarded.
        clear_trace();
        set_trace_capture(false);
        vspan("t0", "ignored", 0.0, 1.0);
        assert!(!export_chrome_trace().contains("ignored"));

        // Capture on: spans and instants land on named tracks, export is
        // deterministic and track-ordered.
        set_trace_capture(true);
        vspan("b.track", "serve", 2.0, 3.5);
        vinstant("a.track", "barrier", 1.0);
        vspan("a.track", "advance", 0.0, 1.0);
        let json = export_chrome_trace();
        let json2 = export_chrome_trace();
        assert_eq!(json, json2);
        let a = json.find("a.track").unwrap();
        let b = json.find("b.track").unwrap();
        assert!(a < b, "tracks must export in name order");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":2000.000"));
        set_trace_capture(false);
        clear_trace();

        // Wall spans aggregate into the sidecar store.
        clear_wall_stats();
        {
            let _s = WallSpan::new("unit.span");
        }
        {
            let _s = WallSpan::new("unit.span");
        }
        sidecar_add("alloc.unit", 42);
        let stats = wall_stats();
        let span = stats.iter().find(|(n, _)| n == "unit.span").unwrap();
        assert_eq!(span.1.count, 2);
        let text = wall_stats_text();
        assert!(text.contains("alloc.unit"));
        assert!(text.contains("allocs=42"));
        clear_wall_stats();
    }
}
