//! Streaming-aggregation and fast-forward properties: the PR's three-way
//! byte-identity contract.
//!
//! * Streaming summaries are byte-identical for any worker count (exact
//!   commutative merges).
//! * A checkpointed split run — including a serialise/parse round-trip of
//!   the checkpoint — equals a single run byte-for-byte.
//! * Fast-forward on vs off yields byte-identical per-device reports for
//!   random workload mixtures (peripheral energy and forced shutdowns
//!   included in the comparison, since they're `DeviceReport` fields).
//! * A device's report does not depend on fleet size or executor chunking.

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, simulate_device, stream_fleet_with,
    FleetCheckpoint, Scenario,
};
use cinder_sim::SimDuration;
use proptest::prelude::*;

fn quick(seed: u64, devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(180),
        ..Scenario::mixed("stream-prop", seed, devices)
    }
}

#[test]
fn streaming_is_worker_invariant() {
    let scenario = Scenario {
        horizon: SimDuration::from_secs(600),
        ..Scenario::all_workloads("stream-workers", 41, 22)
    };
    let one = stream_fleet_with(&scenario, 1);
    for threads in [2usize, 4] {
        let sharded = stream_fleet_with(&scenario, threads);
        assert_eq!(one.summary, sharded.summary, "{threads} workers");
        assert_eq!(one.to_json(), sharded.to_json(), "{threads} workers");
        assert_eq!(
            one.histograms_csv(),
            sharded.histograms_csv(),
            "{threads} workers"
        );
    }
}

#[test]
fn streaming_totals_match_the_retained_report() {
    let scenario = Scenario {
        horizon: SimDuration::from_secs(600),
        ..Scenario::all_workloads("stream-vs-retained", 17, 18)
    };
    let retained = run_fleet_with(&scenario, 3).summary();
    let streamed = stream_fleet_with(&scenario, 3).summary;
    assert_eq!(retained.devices, streamed.devices);
    // Both paths fold devices through the same exact integer totals.
    assert_eq!(retained.totals, streamed.totals);
    // Every distribution's min and max are exact in both paths.
    let view = streamed.fleet_summary();
    let pairs = [
        (&retained.lifetime_h, &view.lifetime_h),
        (&retained.avg_power_mw, &view.avg_power_mw),
        (&retained.radio_activations, &view.radio_activations),
        (&retained.starved_s, &view.starved_s),
        (&retained.offload_latency_s, &view.offload_latency_s),
    ];
    for (exact, estimated) in pairs {
        let bounds = |s: &Option<cinder_sim::Summary>| s.as_ref().map(|s| (s.min, s.max));
        assert_eq!(bounds(exact), bounds(estimated));
    }
    let lt_retained = retained.lifetime_h.expect("non-empty fleet");
    let lt_streamed = streamed.lifetime_h.summary().expect("non-empty fleet");
    // min/max/mean are exact in both paths.
    assert_eq!(lt_retained.min, lt_streamed.min);
    assert_eq!(lt_retained.max, lt_streamed.max);
    assert!((lt_retained.mean - lt_streamed.mean).abs() < 1e-5);
    // Percentiles are histogram estimates: within one bin of exact, and
    // inside the exact envelope.
    let bin_h = 1_000.0 / 256.0;
    assert!((lt_retained.p50 - lt_streamed.p50).abs() <= bin_h);
    assert!((lt_retained.p99 - lt_streamed.p99).abs() <= bin_h);
    assert!(lt_streamed.p50 >= lt_streamed.min && lt_streamed.p99 <= lt_streamed.max);
}

#[test]
fn split_run_equals_single_run_byte_for_byte() {
    let scenario = quick(23, 20);
    let single = stream_fleet_with(&scenario, 1).to_json();
    for split in [0u64, 7, 16, 20] {
        // Checkpoint after `split` devices, push through the text format,
        // resume in a "fresh process".
        let cp = checkpoint_fleet(&scenario, split, 2);
        let revived = FleetCheckpoint::from_text(&cp.to_text()).expect("round-trip");
        assert_eq!(revived, cp, "split at {split}");
        let resumed = resume_fleet(&revived, &scenario, 3).expect("identity matches");
        assert_eq!(resumed.to_json(), single, "split at {split}");
        assert_eq!(
            resumed.summary,
            stream_fleet_with(&scenario, 1).summary,
            "split at {split}"
        );
    }
}

/// Satellite: per-device jitter depends only on (fleet seed, device id) —
/// device `i`'s report is byte-identical whether it sits in a fleet of 6
/// or 40, and wherever executor chunk boundaries fall.
#[test]
fn device_report_is_independent_of_fleet_size_and_chunking() {
    let big = quick(99, 40);
    let small = quick(99, 6);
    // Same (seed, id) ⇒ same spec, regardless of scenario.devices.
    for id in 0..6u64 {
        assert_eq!(big.spec_for(id), small.spec_for(id), "device {id}");
    }
    // The executor's chunked, multi-worker run reproduces the solo
    // simulation of each device bit-for-bit (chunk size is 16, so a
    // 40-device fleet exercises interior and ragged chunk boundaries).
    let report = run_fleet_with(&big, 4);
    for id in [0usize, 5, 15, 16, 31, 39] {
        assert_eq!(
            report.devices[id],
            simulate_device(&big.spec_for(id as u64)),
            "device {id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: the `steady_vs_stepped` differential — random workload
    /// mixtures simulate byte-identically with fast-forward on and off.
    #[test]
    fn steady_vs_stepped(
        seed in 0u64..1_000,
        devices in 3u32..8,
        family in 0usize..5,
        long in any::<bool>(),
    ) {
        let horizon_s = if long { 480u64 } else { 240 };
        let base = match family {
            0 => Scenario::mixed("diff", seed, devices),
            1 => Scenario::all_workloads("diff", seed, devices),
            2 => Scenario::peripheral_heavy("diff", seed, devices),
            3 => Scenario::steady_heavy("diff", seed, devices),
            _ => Scenario::policy_heavy("diff", seed, devices),
        };
        let scenario = Scenario {
            horizon: SimDuration::from_secs(horizon_s),
            ..base
        };
        for spec in scenario.specs() {
            let mut on = spec.clone();
            on.fast_forward = true;
            let mut off = spec;
            off.fast_forward = false;
            let fast = simulate_device(&on);
            let stepped = simulate_device(&off);
            // Full struct equality: peripheral energy and forced-shutdown
            // counters are fields of the report.
            prop_assert_eq!(fast, stepped, "device {}", on.id);
        }
    }

    /// Streaming worker-invariance across random fleets (the quick
    /// proptest companion to the fixed-scenario test above).
    #[test]
    fn streaming_worker_invariance(
        seed in 0u64..1_000,
        devices in 4u32..16,
        threads in 2usize..6,
    ) {
        let scenario = quick(seed, devices);
        let a = stream_fleet_with(&scenario, 1);
        let b = stream_fleet_with(&scenario, threads);
        prop_assert_eq!(a.summary.clone(), b.summary.clone());
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}
