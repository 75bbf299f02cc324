//! Integration and property tests for the discrete-event fleet simulator:
//! determinism (rerun identity, event insertion-order invariance) and
//! conservation across randomly generated scenarios, one-shard plans run
//! closed (each handled event's outcomes heard before the next) and larger
//! ones through the barrier loop in `reference/stepped.rs`.

mod common;
mod reference;

use proptest::prelude::*;

use common::{run_closed, scenario_from};
use hec_sim::fleet::{
    CohortSpec, FleetEngine, FleetReport, FleetScale, FleetScenario, JobEvent, RouteCtx, RoutePlan,
    ShardPlan,
};
use hec_sim::EventQueue;
use hec_telemetry::GeomHist;
use reference::stepped::run_stepped;

/// Runs `sc` to completion on the serial engine under its own routing
/// plans.
fn run(sc: &FleetScenario) -> FleetReport {
    let mut engine = FleetEngine::new(sc);
    let mut route = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
    engine.advance_until(f64::INFINITY, &mut route, &mut |_, _| {});
    engine.report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Popping an [`EventQueue`] yields the same time-ordered sequence
    /// whatever order distinct-time events were inserted in.
    #[test]
    fn event_queue_pop_order_invariant_to_insertion_order(
        raw in proptest::collection::vec(0usize..10_000, 40),
        rot in 1usize..39,
    ) {
        // Distinct times by construction (dedup), payload = the time
        // itself so the full (time, payload) stream must match.
        let mut times: Vec<usize> = raw;
        times.sort_unstable();
        times.dedup();

        let mut forward = EventQueue::new();
        for &t in &times {
            forward.schedule(t as f64, t);
        }
        let mut rotated = EventQueue::new();
        let pivot = rot.min(times.len());
        for &t in times[pivot..].iter().chain(&times[..pivot]) {
            rotated.schedule(t as f64, t);
        }
        let mut reversed = EventQueue::new();
        for &t in times.iter().rev() {
            reversed.schedule(t as f64, t);
        }

        let drain = |mut q: EventQueue<usize>| {
            let mut out = Vec::new();
            while let Some(ev) = q.pop() {
                out.push(ev);
            }
            out
        };
        let a = drain(forward);
        prop_assert_eq!(&a, &drain(rotated));
        prop_assert_eq!(&a, &drain(reversed));
    }

    /// Any small random scenario conserves windows (emitted = served +
    /// dropped, per layer and in total) and reruns byte-identically.
    #[test]
    fn random_scenarios_conserve_windows_and_rerun_identically(
        devices in 1u32..40,
        windows in 1u32..8,
        period_ms in 1.0f64..500.0,
        w0 in 0.05f64..1.0,
        w1 in 0.05f64..1.0,
        w2 in 0.05f64..1.0,
        queue_capacity in 1usize..64,
        batch_max in 1usize..6,
    ) {
        let sc = scenario_from(devices, windows, period_ms, [w0, w1, w2], queue_capacity, batch_max);
        let a = run(&sc);
        prop_assert_eq!(a.emitted, sc.total_windows());
        prop_assert_eq!(a.served + a.dropped, a.emitted);
        for layer in &a.layers {
            prop_assert_eq!(
                layer.served + layer.dropped_queue + layer.dropped_link,
                layer.offered,
                "layer {} leaks windows", layer.layer
            );
        }
        let b = run(&sc);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_text(), b.to_text());
        prop_assert_eq!(a.layers_csv(), b.layers_csv());
    }

    /// Heterogeneous cohorts (mixed payloads, speeds, rates) conserve
    /// totals however the cohort list is ordered: scenario-level device
    /// and window totals are order-invariant, and every ordering's
    /// simulation accounts for exactly `total_windows` emissions with
    /// served + dropped conservation per layer.
    #[test]
    fn cohort_totals_invariant_to_ordering(
        d0 in 1u32..25, d1 in 1u32..25, d2 in 1u32..25,
        w0 in 1u32..6, w1 in 1u32..6, w2 in 1u32..6,
        p0 in 2.0f64..300.0, p1 in 2.0f64..300.0, p2 in 2.0f64..300.0,
        speed in 0.25f64..4.0,
        payload in 64usize..4096,
        rot in 0usize..3,
    ) {
        let mut base = FleetScenario::light_load(FleetScale::Quick);
        base.name = "hetero".into();
        base.cloud_bandwidth_mbps = Some(4.0);
        base.trace_interval_ms = 25.0;
        let mut cohorts = vec![
            CohortSpec::uniform(d0, w0, p0, 0.0, RoutePlan::Mixture([0.5, 0.3, 0.2])),
            CohortSpec {
                local_speed: speed,
                ..CohortSpec::uniform(d1, w1, p1, 10.0, RoutePlan::Fixed(0))
            },
            CohortSpec {
                payload_bytes: Some(payload),
                ..CohortSpec::uniform(d2, w2, p2, 5.0, RoutePlan::Fixed(2))
            },
        ];
        let mut sc = base.clone();
        sc.cohorts = cohorts.clone();
        let devices = sc.total_devices();
        let windows = sc.total_windows();

        cohorts.rotate_left(rot);
        let mut rotated = base.clone();
        rotated.cohorts = cohorts;
        prop_assert_eq!(rotated.total_devices(), devices);
        prop_assert_eq!(rotated.total_windows(), windows);

        for scenario in [&sc, &rotated] {
            let report = run(scenario);
            prop_assert_eq!(report.emitted, windows);
            prop_assert_eq!(report.served + report.dropped, report.emitted);
            for layer in &report.layers {
                prop_assert_eq!(
                    layer.served + layer.dropped_queue + layer.dropped_link,
                    layer.offered,
                    "layer {} leaks windows", layer.layer
                );
            }
        }
    }
}

/// The named quick scenarios rerun byte-identically, including their CSV
/// renderings (the CI smoke job diffs exactly these strings).
#[test]
fn named_quick_scenarios_are_reproducible() {
    for name in FleetScenario::NAMES {
        let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a, b, "{name} diverged between reruns");
        assert_eq!(a.to_text(), b.to_text(), "{name} text diverged");
        assert_eq!(a.trace_csv(), b.trace_csv(), "{name} trace diverged");
    }
}

/// The saturation scenarios show load-dependent latency relative to the
/// light one — the whole point of the discrete-event model.
#[test]
fn saturated_scenarios_have_higher_tail_latency_than_light_load() {
    let light = run(&FleetScenario::light_load(FleetScale::Quick));
    let edge = run(&FleetScenario::edge_saturated(FleetScale::Quick));
    let cloud = run(&FleetScenario::cloud_link_constrained(FleetScale::Quick));

    assert_eq!(light.dropped, 0, "light load must not shed");
    assert!(edge.layers[1].p99_ms > 2.0 * light.layers[1].p99_ms);
    assert!(edge.layers[1].utilization > 0.9);
    assert!(edge.layers[1].dropped_queue > 0);
    assert!(cloud.layers[2].p99_ms > 2.0 * light.layers[2].p99_ms);
    assert!(cloud.layers[2].dropped_link > 0);
    assert!(cloud.layers[2].link_utilization.unwrap() > 0.9);
}

/// The flash crowd is visible in the queue-depth trace: some sample
/// during the burst shows a much deeper edge queue than the steady state
/// before it.
#[test]
fn flash_crowd_spikes_the_queue_trace() {
    let sc = FleetScenario::flash_crowd(FleetScale::Quick);
    let burst_start = sc.cohorts[1].start_ms;
    let report = run(&sc);
    let edge_depth_before: usize = report
        .trace
        .iter()
        .filter(|s| s.t_ms < burst_start)
        .map(|s| s.queue_depth[1])
        .max()
        .unwrap_or(0);
    let edge_depth_during: usize = report
        .trace
        .iter()
        .filter(|s| s.t_ms >= burst_start)
        .map(|s| s.queue_depth[1])
        .max()
        .unwrap_or(0);
    assert!(
        edge_depth_during > 10 * edge_depth_before.max(1),
        "no spike: before {edge_depth_before}, during {edge_depth_during}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`GeomHist::quantile`] is monotone in `q` and every quantile of
    /// a non-empty histogram lies within `[min, max]` of the recorded
    /// samples (clamped at the bin edges by construction).
    #[test]
    fn latency_hist_quantiles_are_monotone_and_bounded(
        samples in proptest::collection::vec(0.0f64..50_000.0, 1..200),
        qs in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let mut hist = GeomHist::new();
        for &ms in &samples {
            hist.record(ms);
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(0.0f64, f64::max);

        let mut qs = qs;
        qs.extend_from_slice(&[0.0, 0.5, 0.99, 1.0]);
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = hist.quantile(q);
            prop_assert!(v >= prev, "quantile not monotone: q={q}, {v} < {prev}");
            prop_assert!(
                (lo..=hi).contains(&v),
                "quantile({q}) = {v} outside [{lo}, {hi}]"
            );
            prev = v;
        }
    }

    /// Merging histograms is exactly equivalent to recording the
    /// concatenated sample streams — counts, mean, and every quantile —
    /// including merges where either (or both) side is empty.
    #[test]
    fn latency_hist_quantiles_are_preserved_under_merge(
        left in proptest::collection::vec(0.0f64..50_000.0, 0..120),
        right in proptest::collection::vec(0.0f64..50_000.0, 0..120),
    ) {
        let build = |samples: &[f64]| {
            let mut h = GeomHist::new();
            for &ms in samples {
                h.record(ms);
            }
            h
        };
        let mut merged = build(&left);
        merged.merge(&build(&right));

        let mut combined: Vec<f64> = left.clone();
        combined.extend_from_slice(&right);
        let direct = build(&combined);

        // Bins, counts and extremes merge exactly, so every quantile is
        // bit-identical to recording the concatenated stream. (The mean's
        // running f64 sum is only reassociated by merging, so it may
        // differ in the last ulp.)
        prop_assert_eq!(merged.count(), (left.len() + right.len()) as u64);
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert_eq!(merged.max().to_bits(), direct.max().to_bits());
        prop_assert!((merged.mean() - direct.mean()).abs() <= 1e-9 * direct.mean().abs());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(
                merged.quantile(q).to_bits(),
                direct.quantile(q).to_bits(),
                "quantile({}) diverged after merge", q
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`GeomHist::merge`] is associative and commutative over an
    /// arbitrary partition of a sample stream into shard histograms —
    /// merging the parts in any order or grouping renders every byte
    /// identically, including when some parts are empty. (Samples are
    /// drawn on a 0.25 ms lattice so the running f64 sums are exact and
    /// the claim holds bit-for-bit, not just to rounding.)
    #[test]
    fn latency_hist_merge_order_never_changes_rendered_bytes(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u32..200_000, 0..60),
            2..6,
        ),
        rot in 1usize..5,
    ) {
        let build = |quarters: &[u32]| {
            let mut h = GeomHist::new();
            for &q in quarters {
                h.record(f64::from(q) * 0.25);
            }
            h
        };
        let hists: Vec<GeomHist> = parts.iter().map(|p| build(p)).collect();
        // Any fixed rendering: if the histograms are bit-equal these
        // strings are byte-equal, which is what the shard report relies
        // on when it merges per-shard histograms into one summary line.
        let render = |h: &GeomHist| {
            format!(
                "n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
                h.count(), h.mean(), h.quantile(0.5), h.quantile(0.99), h.max()
            )
        };

        // Left fold in shard order (what the report merge does).
        let fold = |order: &[&GeomHist]| {
            let mut acc = GeomHist::new();
            for h in order {
                acc.merge(h);
            }
            acc
        };
        let in_order: Vec<&GeomHist> = hists.iter().collect();
        let mut rotated = in_order.clone();
        rotated.rotate_left(rot.min(hists.len() - 1));
        let reversed: Vec<&GeomHist> = hists.iter().rev().collect();

        let a = fold(&in_order);
        prop_assert_eq!(&fold(&rotated), &a, "rotation changed the merge");
        prop_assert_eq!(&fold(&reversed), &a, "reversal changed the merge");

        // Right-associated grouping: h0 + (h1 + (h2 + ...)).
        let mut right = GeomHist::new();
        for h in hists.iter().rev() {
            let mut tail = h.clone();
            tail.merge(&right);
            right = tail;
        }
        prop_assert_eq!(&right, &a, "reassociation changed the merge");

        // And the whole partition collapses to the unpartitioned stream.
        let all: Vec<u32> = parts.iter().flatten().copied().collect();
        let direct = build(&all);
        prop_assert_eq!(&direct, &a, "partitioning changed the histogram");
        prop_assert_eq!(render(&direct), render(&a));
    }

    /// Any small random scenario, partitioned into any shard count,
    /// conserves windows, reruns byte-identically, and at one shard — run
    /// closed through its one shard engine — is byte-identical to the
    /// serial engine: the invariants `repro_fleet --shards` and the CI
    /// shard-smoke job depend on.
    #[test]
    fn random_scenarios_shard_deterministically_and_conserve_windows(
        devices in 1u32..40,
        windows in 1u32..8,
        period_ms in 1.0f64..500.0,
        w0 in 0.05f64..1.0,
        w1 in 0.05f64..1.0,
        w2 in 0.05f64..1.0,
        queue_capacity in 1usize..64,
        batch_max in 1usize..6,
        shards in 1usize..6,
    ) {
        let sc = scenario_from(devices, windows, period_ms, [w0, w1, w2], queue_capacity, batch_max);
        let sharded = |shards: usize| {
            let plan = ShardPlan::new(&sc, shards);
            let mut router = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
            if shards > 1 {
                return run_stepped(&plan, &mut router).1;
            }
            run_closed(&sc).1
        };

        let a = sharded(shards);
        prop_assert_eq!(a.emitted, sc.total_windows());
        prop_assert_eq!(a.served + a.dropped, a.emitted);
        for layer in &a.layers {
            prop_assert_eq!(
                layer.served + layer.dropped_queue + layer.dropped_link,
                layer.offered,
                "layer {} leaks windows at {} shards", layer.layer, shards
            );
        }

        let b = sharded(shards);
        prop_assert_eq!(&a, &b, "sharded rerun diverged");
        prop_assert_eq!(a.to_text(), b.to_text());
        prop_assert_eq!(a.layers_csv(), b.layers_csv());
        prop_assert_eq!(a.trace_csv(), b.trace_csv());

        let serial = run(&sc);
        let one = sharded(1);
        prop_assert_eq!(&one, &serial, "one shard is not the serial engine");
        prop_assert_eq!(one.to_text(), serial.to_text());
    }
}

/// Empty-histogram merges: an empty side is the identity, and the
/// empty-empty merge stays a well-formed empty histogram.
#[test]
fn latency_hist_empty_merges_are_identities() {
    let mut filled = GeomHist::new();
    for ms in [3.0, 97.5, 1200.0] {
        filled.record(ms);
    }

    let mut left_empty = GeomHist::new();
    left_empty.merge(&filled);
    assert_eq!(left_empty, filled, "empty.merge(h) must equal h");

    let mut right_empty = filled.clone();
    right_empty.merge(&GeomHist::new());
    assert_eq!(right_empty, filled, "h.merge(empty) must leave h unchanged");

    let mut both = GeomHist::new();
    both.merge(&GeomHist::new());
    assert_eq!(both, GeomHist::new());
    assert_eq!(both.count(), 0);
    assert_eq!(both.quantile(0.5), 0.0);
    // And the merged-empty histogram still records correctly afterwards.
    both.record(7.0);
    assert_eq!(both.count(), 1);
    assert!(both.quantile(1.0) <= both.max());
}

/// A named quick scenario's merged outcome stream and report at `shards`
/// shards, under its own routing plans.
fn stepped(sc: &FleetScenario, shards: usize) -> (Vec<JobEvent>, FleetReport) {
    let plan = ShardPlan::new(sc, shards);
    run_stepped(&plan, &mut |ctx| sc.planned_layer(ctx.cohort, ctx.seq))
}

#[test]
fn sharded_runs_conserve_windows_and_are_deterministic() {
    for shards in [2usize, 3, 7] {
        for name in FleetScenario::NAMES {
            let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
            let (ev_a, rep_a) = stepped(&sc, shards);
            let (ev_b, rep_b) = stepped(&sc, shards);
            assert_eq!(ev_a, ev_b, "{name}/{shards}: outcome stream not deterministic");
            assert_eq!(rep_a, rep_b, "{name}/{shards}: report not deterministic");
            assert_eq!(rep_a.emitted, sc.total_windows(), "{name}/{shards}");
            assert_eq!(rep_a.served + rep_a.dropped, rep_a.emitted, "{name}/{shards}");
        }
    }
}

#[test]
fn global_ids_and_seqs_are_unique_and_dense() {
    let sc = FleetScenario::flash_crowd(FleetScale::Quick);
    let plan = ShardPlan::new(&sc, 4);
    let total = sc.total_windows();
    let mut seen_seq = vec![false; total as usize];
    let devices = sc.total_devices();
    let mut router = |ctx: &RouteCtx| {
        assert!((ctx.device as u64) < devices, "device {} out of range", ctx.device);
        assert!(ctx.seq < total, "seq {} out of range", ctx.seq);
        assert!(!seen_seq[ctx.seq as usize], "seq {} routed twice", ctx.seq);
        seen_seq[ctx.seq as usize] = true;
        sc.planned_layer(ctx.cohort, ctx.seq)
    };
    run_stepped(&plan, &mut router);
    assert!(seen_seq.iter().all(|&b| b), "not every window was routed");
}

#[test]
fn merged_outcomes_are_time_ordered_within_windows() {
    // The merged stream must visit shards deterministically; outcome
    // seqs of a Fixed(0) run arrive grouped by emission time.
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.cohorts[0].route = RoutePlan::Fixed(0);
    let (outcomes, report) = stepped(&sc, 3);
    assert_eq!(outcomes.len() as u64, report.emitted);
}

#[test]
fn more_shards_than_devices_still_completes() {
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.cohorts[0].devices = 3;
    let (outcomes, report) = stepped(&sc, 8);
    assert_eq!(report.emitted, sc.total_windows());
    assert_eq!(outcomes.len() as u64, report.served + report.dropped);
}
