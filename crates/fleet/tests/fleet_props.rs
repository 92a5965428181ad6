//! Fleet-level property tests: the determinism contract of `cinder-fleet`.
//!
//! * Same fleet seed ⇒ byte-identical aggregate report — for *any* worker
//!   thread count (the sharded executor must not leak scheduling into
//!   results).
//! * Different fleet seeds ⇒ different fleets.
//! * The §9 data-plan scenario counts quota-exhausted devices coherently.

use cinder_fleet::{run_fleet_with, DataPlan, Scenario, Workload};
use cinder_sim::SimDuration;
use proptest::prelude::*;

/// A small but non-trivial fleet (short horizon keeps cases fast).
fn quick_scenario(seed: u64, devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(180),
        ..Scenario::mixed("prop", seed, devices)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn thread_count_never_changes_the_report(
        seed in 0u64..1_000,
        devices in 6u32..24,
        threads in 2usize..8,
    ) {
        let scenario = quick_scenario(seed, devices);
        let single = run_fleet_with(&scenario, 1);
        let sharded = run_fleet_with(&scenario, threads);
        prop_assert_eq!(single.devices.clone(), sharded.devices.clone());
        prop_assert_eq!(single.to_csv(), sharded.to_csv());
        prop_assert_eq!(single.to_json(), sharded.to_json());
    }

    #[test]
    fn same_seed_same_fleet(seed in 0u64..1_000) {
        let a = run_fleet_with(&quick_scenario(seed, 8), 2);
        let b = run_fleet_with(&quick_scenario(seed, 8), 3);
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_differ(seed in 0u64..1_000) {
        let a = run_fleet_with(&quick_scenario(seed, 8), 2);
        let b = run_fleet_with(&quick_scenario(seed + 1, 8), 2);
        prop_assert_ne!(a.to_csv(), b.to_csv());
    }
}

/// The §9 study end-to-end with in-kernel accounting: a 5 MB plan survives
/// an hour of polling (no send ever blocks on bytes), a starvation plan
/// does not, and the aggregate count matches a per-device recount.
#[test]
fn data_plan_fleet_counts_exhausted_devices() {
    let generous = Scenario {
        horizon: SimDuration::from_secs(3_600),
        ..Scenario::data_plan("plan-5mb", 77, 12, 5_000_000)
    };
    let report = run_fleet_with(&generous, 4);
    let summary = report.summary();
    assert_eq!(summary.totals.quota_exhausted(), 0, "{}", report.to_json());
    assert_eq!(
        summary.totals.bytes_blocked_sends(),
        0,
        "no send should block"
    );
    assert!(
        report.devices.iter().all(|d| d.quota_remaining_bytes > 0),
        "every device should retain plan bytes"
    );

    let tiny = Scenario {
        horizon: SimDuration::from_secs(3_600),
        ..Scenario::data_plan("plan-tiny", 77, 12, 40_000)
    };
    let report = run_fleet_with(&tiny, 4);
    let summary = report.summary();
    let recount = report.devices.iter().filter(|d| d.quota_exhausted).count();
    assert_eq!(summary.totals.quota_exhausted(), recount as u64);
    assert!(
        summary.totals.quota_exhausted() >= 6,
        "a 40 KB plan must die within the hour on most devices: {}",
        report.to_json()
    );
    assert!(
        summary.totals.bytes_blocked_sends() >= u128::from(summary.totals.quota_exhausted()),
        "every exhausted device held at least one send in the kernel"
    );
}

/// The plan-exhausted-mid-hour scenario the offline replay could not
/// express: exhaustion mid-run *changes device behaviour* — held sends
/// never reach the radio, so exhausted devices complete fewer polls and
/// move fewer bytes than the same fleet without a plan.
#[test]
fn mid_hour_exhaustion_throttles_the_fleet_online() {
    let horizon = SimDuration::from_secs(3_600);
    let capped = Scenario {
        horizon,
        ..Scenario::plan_exhausted_mid_hour("plan-mid-hour", 21, 10)
    };
    let free = Scenario {
        data_plan: None,
        ..capped.clone()
    };
    let capped_report = run_fleet_with(&capped, 4);
    let free_report = run_fleet_with(&free, 4);
    let summary = capped_report.summary();
    assert!(
        summary.totals.quota_exhausted() >= 8,
        "a half-hour plan must die mid-run on nearly every device: {}",
        capped_report.to_json()
    );
    let capped_ops: u64 = capped_report.devices.iter().map(|d| d.ops).sum();
    let free_ops: u64 = free_report.devices.iter().map(|d| d.ops).sum();
    assert!(
        capped_ops < free_ops * 3 / 4,
        "online exhaustion must cut fleet-wide polls: {capped_ops} vs {free_ops}"
    );
    let capped_bytes: u64 = capped_report.devices.iter().map(|d| d.net_bytes).sum();
    let free_bytes: u64 = free_report.devices.iter().map(|d| d.net_bytes).sum();
    assert!(
        capped_bytes < free_bytes,
        "held sends never reach the radio: {capped_bytes} vs {free_bytes}"
    );
    // The remaining balances are small (below one poll pair) but the plan
    // never goes materially negative: only reply bytes may overdraw.
    for d in capped_report.devices.iter().filter(|d| d.quota_exhausted) {
        assert!(
            d.quota_remaining_bytes < 13_500,
            "exhausted device retains less than one poll pair: {d:?}"
        );
    }
}

/// The acceptance sweep for the peripheral refactor: a scenario mixing
/// *every* workload tag — the paper's §5/§6 studies plus `navigator` and
/// `screen-on` — yields byte-identical fleet reports at 1, 2, and 4
/// workers, with the peripheral drains and forced shutdowns inside the
/// comparison.
#[test]
fn all_workload_tags_are_thread_invariant() {
    let scenario = Scenario {
        horizon: SimDuration::from_secs(900),
        ..Scenario::all_workloads("all-tags", 33, 20)
    };
    let tags: std::collections::BTreeSet<&str> =
        scenario.specs().iter().map(|d| d.workload.tag()).collect();
    assert_eq!(tags.len(), Workload::ALL.len(), "mixture misses a tag");
    let single = run_fleet_with(&scenario, 1);
    for threads in [2usize, 4] {
        let sharded = run_fleet_with(&scenario, threads);
        assert_eq!(single.devices, sharded.devices, "{threads} workers");
        assert_eq!(single.to_csv(), sharded.to_csv(), "{threads} workers");
        assert_eq!(single.to_json(), sharded.to_json(), "{threads} workers");
    }
    let summary = single.summary();
    assert!(
        summary.totals.peripheral_energy_j() > 100.0,
        "peripheral devices must burn real energy: {}",
        single.to_json()
    );
}

/// Peripheral telemetry has the right structure: navigators burn GPS (and
/// no backlight), screen-on browsers the reverse, and a rate-starved
/// peripheral fleet records forced shutdowns.
#[test]
fn peripheral_telemetry_reflects_workload_structure() {
    let scenario = Scenario {
        horizon: SimDuration::from_secs(1_800),
        ..Scenario::peripheral_heavy("periph", 19, 20)
    };
    let report = run_fleet_with(&scenario, 4);
    for d in &report.devices {
        match Workload::from_tag(d.workload) {
            Some(Workload::Navigator) => {
                assert!(d.gps_energy_uj > 0, "{d:?}");
                assert_eq!(d.backlight_energy_uj, 0, "{d:?}");
                assert!(d.ops > 0, "a navigator completes fixes: {d:?}");
            }
            Some(Workload::ScreenOn) => {
                assert!(d.backlight_energy_uj > 0, "{d:?}");
                assert_eq!(d.gps_energy_uj, 0, "{d:?}");
                assert!(d.ops > 0, "a browser renders pages: {d:?}");
            }
            _ => {
                assert_eq!(d.backlight_energy_uj + d.gps_energy_uj, 0, "{d:?}");
            }
        }
    }
    // The summary's totals match a per-device recount exactly.
    let summary = report.summary();
    let recount: u64 = report
        .devices
        .iter()
        .map(|d| d.backlight_shutdowns + d.gps_shutdowns)
        .sum();
    assert_eq!(summary.totals.forced_shutdowns(), u128::from(recount));
}

/// Mixture landmarks survive aggregation: coop pollers activate the radio
/// less often than uncoop ones on average, and spinners starve.
#[test]
fn aggregate_telemetry_reflects_workload_structure() {
    let scenario = Scenario {
        horizon: SimDuration::from_secs(1_800),
        ..Scenario::mixed("structure", 5, 30)
    };
    let report = run_fleet_with(&scenario, 4);
    let mean = |tag: &str, f: &dyn Fn(&cinder_fleet::DeviceReport) -> f64| -> f64 {
        let xs: Vec<f64> = report
            .devices
            .iter()
            .filter(|d| d.workload == tag)
            .map(f)
            .collect();
        assert!(!xs.is_empty(), "no {tag} devices in the mixture");
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let coop = mean(Workload::Pollers { coop: true }.tag(), &|d| {
        d.radio_activations as f64
    });
    let uncoop = mean(Workload::Pollers { coop: false }.tag(), &|d| {
        d.radio_activations as f64
    });
    assert!(
        coop < uncoop,
        "pooling must reduce mean activations: coop {coop} vs uncoop {uncoop}"
    );
    let spinner_starved = mean(Workload::Spinner.tag(), &|d| d.starved_s);
    assert!(
        spinner_starved > 200.0,
        "throttled hogs must starve: {spinner_starved}"
    );
}

/// `DataPlan` devices account their quotas in-kernel identically no matter
/// how the executor shards them.
#[test]
fn quota_accounting_is_thread_invariant() {
    let scenario = Scenario {
        horizon: SimDuration::from_secs(1_200),
        ..Scenario::data_plan("plan-shard", 13, 10, 60_000)
    };
    let a = run_fleet_with(&scenario, 1);
    let b = run_fleet_with(&scenario, 5);
    assert_eq!(a.devices, b.devices);
    assert_eq!(
        a.devices
            .iter()
            .map(|d| d.quota_remaining_bytes)
            .sum::<i64>(),
        b.devices
            .iter()
            .map(|d| d.quota_remaining_bytes)
            .sum::<i64>()
    );
    let _ = DataPlan { bytes: 0 }; // type is part of the public surface
}
