//! Fault-engine fleet properties: injected faults must ride the
//! determinism contract unchanged.
//!
//! * `fault_heavy` fleets are byte-identical across 1/2/4 workers, in both
//!   the retained and the streaming path, with nonzero fault telemetry.
//! * Fast-forward on vs off yields byte-identical per-device reports with
//!   flaps, crashes, and respawns landing mid-run.
//! * A checkpointed split run under faults equals a single run
//!   byte-for-byte through the v4 text format.
//! * Corrupted checkpoints — flipped bits, truncation, empty files — are
//!   rejected with named errors before any accumulator is trusted.
//! * Adding a fault config to a scenario must not perturb the per-device
//!   RNG draws (battery, jitter, kernel seed are drawn before the config
//!   is copied in).
//! * A killed offloader's in-flight requests settle deterministically in
//!   the offload counters, fast-forwarded or stepped.

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, simulate_device, stream_fleet_with,
    FaultConfig, FleetCheckpoint, Scenario,
};
use cinder_sim::SimDuration;
use proptest::prelude::*;

fn quick(seed: u64, devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(1_800),
        ..Scenario::fault_heavy("fault-prop", seed, devices)
    }
}

#[test]
fn fault_fleet_is_worker_invariant_with_live_faults() {
    let scenario = quick(41, 16);
    let retained_one = run_fleet_with(&scenario, 1);
    let streamed_one = stream_fleet_with(&scenario, 1);
    let summary = retained_one.summary();
    assert!(
        summary.totals.link_flaps() > 0,
        "{}",
        retained_one.to_json()
    );
    assert!(
        summary.totals.link_down_us() > 0,
        "{}",
        retained_one.to_json()
    );
    assert!(summary.totals.crashes() > 0, "{}", retained_one.to_json());
    assert!(
        summary.totals.restarts() > 0,
        "killed programs must come back: {}",
        retained_one.to_json()
    );
    assert!(
        summary.totals.retries() > 0,
        "outages and flaps must trigger backoff: {}",
        retained_one.to_json()
    );
    assert!(
        summary.totals.fade_j() > 0.0,
        "aged batteries must fade: {}",
        retained_one.to_json()
    );
    for threads in [2usize, 4] {
        let retained = run_fleet_with(&scenario, threads);
        assert_eq!(retained_one, retained, "{threads} workers (retained)");
        assert_eq!(
            retained_one.to_csv(),
            retained.to_csv(),
            "{threads} workers (CSV)"
        );
        let streamed = stream_fleet_with(&scenario, threads);
        assert_eq!(
            streamed_one.summary, streamed.summary,
            "{threads} workers (streamed)"
        );
        assert_eq!(
            streamed_one.to_json(),
            streamed.to_json(),
            "{threads} workers (JSON)"
        );
    }
    // The streaming path folds devices through the same exact totals as
    // the retained path, fault ledger and fade included (its percentiles
    // are estimates, so whole-JSON equality across paths is not expected).
    let s = &streamed_one.summary;
    assert_eq!(s.devices, summary.devices);
    assert_eq!(s.totals, summary.totals);
}

#[test]
fn split_run_equals_single_run_under_faults() {
    let scenario = quick(47, 18);
    let single = stream_fleet_with(&scenario, 1).to_json();
    for split in [0u64, 5, 16, 18] {
        let cp = checkpoint_fleet(&scenario, split, 2);
        let revived = FleetCheckpoint::from_text(&cp.to_text()).expect("round-trip");
        assert_eq!(revived, cp, "split at {split}");
        let resumed = resume_fleet(&revived, &scenario, 3).expect("identity matches");
        assert_eq!(resumed.to_json(), single, "split at {split}");
    }
}

#[test]
fn corrupted_checkpoints_are_rejected_by_name() {
    let scenario = quick(3, 6);
    let text = checkpoint_fleet(&scenario, 4, 2).to_text();

    // Empty file: not a checkpoint at all.
    let err = FleetCheckpoint::from_text("").unwrap_err();
    assert!(err.contains("not a cinder-fleet checkpoint"), "{err}");

    // One flipped hex digit in the stored checksum.
    let sum_at = text.rfind("checksum ").unwrap() + "checksum ".len();
    let swap = if text.as_bytes()[sum_at] == b'0' {
        "1"
    } else {
        "0"
    };
    let mut bad_sum = text.clone();
    bad_sum.replace_range(sum_at..sum_at + 1, swap);
    let err = FleetCheckpoint::from_text(&bad_sum).unwrap_err();
    assert!(err.contains("checksum mismatch"), "{err}");

    // One flipped bit in the body.
    let field_at = text.find("next_device ").unwrap() + "next_device ".len();
    let digit = text.as_bytes()[field_at];
    let swap = if digit == b'0' { "1" } else { "0" };
    let mut bad_body = text.clone();
    bad_body.replace_range(field_at..field_at + 1, swap);
    let err = FleetCheckpoint::from_text(&bad_body).unwrap_err();
    assert!(err.contains("checksum mismatch"), "{err}");

    // Truncation anywhere before the checksum line loses it.
    let truncated = &text[..text.len() / 2];
    let err = FleetCheckpoint::from_text(truncated).unwrap_err();
    assert!(err.contains("missing its checksum"), "{err}");
}

#[test]
fn fault_config_does_not_perturb_device_draws() {
    let with = quick(71, 12);
    let without = Scenario {
        faults: None,
        ..with.clone()
    };
    for id in 0..12u64 {
        let mut a = with.spec_for(id);
        let b = without.spec_for(id);
        assert!(a.faults.is_some() && b.faults.is_none());
        a.faults = None;
        assert_eq!(a, b, "device {id}: fault config leaked into the draws");
    }
}

/// The satellite regression: a killed offloader abandons in-flight
/// requests, and they must settle in the offload counters identically
/// whether the span was fast-forwarded or stepped. Accepted requests never
/// leak: each is completed, timed out, or still pending at the horizon.
#[test]
fn killed_offloaders_settle_their_requests() {
    let scenario = quick(29, 16);
    let mut saw_crashed_offloader = false;
    for spec in scenario.specs() {
        let mut on = spec.clone();
        on.fast_forward = true;
        let mut off = spec;
        off.fast_forward = false;
        let a = simulate_device(&on);
        let b = simulate_device(&off);
        assert_eq!(a, b, "device {}", on.id);
        if a.crashes > 0 && a.offload_attempts > 0 {
            saw_crashed_offloader = true;
            assert!(
                a.offload_completed + a.offload_timed_out <= a.offload_accepted,
                "settled requests exceed accepted: {a:?}"
            );
        }
    }
    assert!(
        saw_crashed_offloader,
        "the mixture must kill at least one offloading device"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole's determinism clause: random fault-heavy fleets
    /// simulate byte-identically with fast-forward on and off, and stream
    /// byte-identically across worker counts.
    #[test]
    fn faults_steady_vs_stepped_and_worker_counts(
        seed in 0u64..1_000,
        devices in 3u32..8,
        threads in 2usize..5,
    ) {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(600),
            ..Scenario::fault_heavy("fault-diff", seed, devices)
        };
        for spec in scenario.specs() {
            let mut on = spec.clone();
            on.fast_forward = true;
            let mut off = spec;
            off.fast_forward = false;
            prop_assert_eq!(simulate_device(&on), simulate_device(&off));
        }
        let a = stream_fleet_with(&scenario, 1);
        let b = stream_fleet_with(&scenario, threads);
        prop_assert_eq!(a.summary.clone(), b.summary.clone());
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    /// Turning intensity up never breaks purity: the same scenario with
    /// faults stripped is byte-identical to one built without them.
    #[test]
    fn fault_free_devices_ignore_the_config(seed in 0u64..1_000) {
        let faulty = Scenario {
            faults: Some(FaultConfig::heavy(seed ^ 0xfa)),
            horizon: SimDuration::from_secs(300),
            ..Scenario::mixed("purity", seed, 6)
        };
        let clean = Scenario { faults: None, ..faulty.clone() };
        for id in 0..6u64 {
            let mut spec = faulty.spec_for(id);
            spec.faults = None;
            prop_assert_eq!(simulate_device(&spec), simulate_device(&clean.spec_for(id)));
        }
    }
}
