//! `perf --compare A.json B.json`: for every workload × end-to-end
//! metric, both values, the relative delta with its base, the metric's
//! bound, and a verdict. Run on two result files of one commit it is the
//! benchmark's A/A check; run on a parent and a change it is the
//! no-regression table a performance PR pastes.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::names::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound and
    /// the quartile ranges overlap: the runs cannot tell.
    Unresolved,
}

/// Judges `b` against the baseline `a`.
pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse_by =
        if metric.higher_is_better { a.value - b.value } else { b.value - a.value } / a.value.abs();
    let wide = a.spread() > metric.bound || b.spread() > metric.bound;
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if wide && overlap {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

fn untraced_record<'a>(doc: &'a Value, workload: &str) -> Option<&'a Value> {
    doc.get("records")?.as_arr().iter().find(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("trace").and_then(Value::as_f64) == Some(0.0)
    })
}

fn summary_of(record: &Value, metric: &str) -> Option<Summary> {
    let m = record.get("metrics")?.get(metric)?;
    let field = |name: &str| m.get(name).and_then(Value::as_f64);
    Some(Summary {
        value: field("value")?,
        q1: field("q1")?,
        q3: field("q3")?,
        n: field("n")? as usize,
    })
}

/// Renders the comparison table and counts the `regressed` rows.
pub fn compare(a: &Value, b: &Value) -> (String, usize) {
    let mut out = String::new();
    let mut regressed = 0;
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for workload in WORKLOADS {
        let (Some(ra), Some(rb)) = (untraced_record(a, workload), untraced_record(b, workload))
        else {
            let _ = writeln!(out, "{workload:<14} (no untraced record on both sides)");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary_of(ra, metric.name), summary_of(rb, metric.name))
            else {
                let _ = writeln!(out, "{workload:<14} {:<14} (missing)", metric.name);
                continue;
            };
            let v = verdict(metric, &sa, &sb);
            regressed += (v == Verdict::Regressed) as usize;
            let _ = writeln!(
                out,
                "{workload:<14} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>5.0}%  {}",
                metric.name,
                sa.value,
                sb.value,
                // Relative to A's value.
                (sb.value - sa.value) / sa.value * 100.0,
                metric.bound * 100.0,
                match v {
                    Verdict::Within => "within",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Simulated-time results are exact for a seed: any difference is a
        // change of the model, good or bad, and is shown, not judged.
        let same_seed = ra.get("seed") == rb.get("seed");
        let state = match (same_seed, ra.get("digest") == rb.get("digest")) {
            (false, _) => "seeds differ, not comparable",
            (true, true) => "identical",
            (true, false) => "CHANGED",
        };
        let _ = writeln!(out, "{workload:<14} simulated results: {state}");
        if same_seed && ra.get("digest") != rb.get("digest") {
            for (name, va) in ra.get("sim").map(Value::fields).unwrap_or_default() {
                let vb = rb.get("sim").and_then(|s| s.get(name));
                let show = |v: Option<&Value>| {
                    v.and_then(Value::as_f64).map_or("-".to_string(), |v| format!("{v:.6}"))
                };
                let _ =
                    writeln!(out, "{workload:<14}   {name}: {} -> {}", show(Some(va)), show(vb));
            }
        }
    }
    (out, regressed)
}

/// Loads two result files and prints the table; `Ok(true)` when no row
/// regressed.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare(&load(path_a)?, &load(path_b)?);
    print!("{table}");
    println!("A = {path_a}, B = {path_b}; delta is relative to A; {regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Summary {
        Summary { value, q1, q3, n: 9 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = &END_TO_END[1]; // windows_per_s: higher is better, 25 %
        assert!(rate.higher_is_better && rate.bound == 0.25);
        let base = s(100.0, 99.0, 101.0);
        assert_eq!(verdict(rate, &base, &s(80.0, 79.0, 81.0)), Verdict::Within);
        assert_eq!(verdict(rate, &base, &s(70.0, 69.0, 71.0)), Verdict::Regressed);
        assert_eq!(verdict(rate, &base, &s(150.0, 149.0, 151.0)), Verdict::Within);
        // Spread wider than the bound and overlapping: cannot tell.
        assert_eq!(verdict(rate, &base, &s(70.0, 55.0, 100.0)), Verdict::Unresolved);
        // Wide but clear of the baseline's quartiles: still a regression.
        assert_eq!(verdict(rate, &base, &s(40.0, 30.0, 50.0)), Verdict::Regressed);

        let setup = &END_TO_END[0]; // setup_s: lower is better
        assert!(!setup.higher_is_better);
        let base = s(1.0, 0.99, 1.01);
        assert_eq!(verdict(setup, &base, &s(1.5, 1.49, 1.51)), Verdict::Regressed);
        assert_eq!(verdict(setup, &base, &s(0.5, 0.49, 0.51)), Verdict::Within);
    }
}
