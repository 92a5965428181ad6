//! The fleet determinism contract over the kernel's throttle-wait regime,
//! at the tier-1 gate: fault-heavy devices spend most of their time with a
//! Ready thread their reserve cannot fund (taps turned down by the policy,
//! refills swept into the netd pool), which is exactly where the
//! throttle-wait fast paths jump. Reports must not depend on them.

use cinder::fleet::{run_fleet_with, simulate_device, DeviceSpec, Scenario};
use cinder::sim::SimDuration;

/// Sixteen devices for half an hour: a few seconds in a debug build.
fn scenarios() -> [Scenario; 2] {
    let short = |mut s: Scenario| {
        s.horizon = SimDuration::from_secs(30 * 60);
        s
    };
    [
        short(Scenario::fault_heavy("throttle-fault-heavy", 2033, 16)),
        short(Scenario::all_workloads("throttle-all-workloads", 2026, 16)),
    ]
}

#[test]
fn device_reports_identical_with_fast_forward_on_and_off() {
    for scenario in scenarios() {
        let mut starved_s = 0.0;
        for spec in scenario.specs() {
            assert!(spec.fast_forward, "fleet scenarios default to fast-forward");
            let fast = simulate_device(&spec);
            let stepped = simulate_device(&DeviceSpec {
                fast_forward: false,
                ..spec.clone()
            });
            assert_eq!(fast, stepped, "{} device {}", scenario.name, spec.id);
            starved_s += fast.starved_s;
        }
        assert!(
            starved_s > 60.0,
            "{} must exercise throttle-wait (starved {starved_s} s)",
            scenario.name
        );
    }
}

#[test]
fn fleet_csv_identical_on_one_and_two_workers() {
    for scenario in scenarios() {
        let one = run_fleet_with(&scenario, 1).to_csv();
        let two = run_fleet_with(&scenario, 2).to_csv();
        assert_eq!(one, two, "{}", scenario.name);
    }
}
