//! Policy smoke run: one device's presence trace and pure policy
//! decision, then a small policy-heavy fleet under the user-aware
//! lifetime-target controller.
//!
//! ```text
//! cargo run --release --example policy_smoke
//! ```
//!
//! The single-device pass shows the two halves of the engine as plain
//! values: a presence trace generated from a seed (a pure function — the
//! same seed always yields the same user) and a `decide` call over
//! synthetic observables. The fleet pass runs the same population with
//! the policy on and off, spot-checks the determinism contract, and
//! prints what the controller bought: lifetime-target hits and joules.

use cinder::fleet::{run_fleet_with, PolicyConfig, PolicyVariant, PresenceTrace, Scenario};
use cinder::policy::{Policy, PolicyInputs, UserAwarePolicy};
use cinder::sim::{Energy, SimDuration, SimTime};

const HORIZON: SimDuration = SimDuration::from_secs(3_600);

fn main() {
    // --- The user model: a pure function of (seed, horizon).
    let trace = PresenceTrace::generate(7, HORIZON);
    let by_state = trace.seconds_by_state(HORIZON);
    println!(
        "presence(seed 7): active {} s, ambient {} s, away {} s, asleep {} s",
        by_state[0], by_state[1], by_state[2], by_state[3]
    );
    assert_eq!(
        by_state,
        PresenceTrace::generate(7, HORIZON).seconds_by_state(HORIZON),
        "the same seed must always describe the same user"
    );

    // --- The controller: a pure decision over plain observables.
    // Half the battery burned in a sixth of the target window — the
    // sustainable rate is well under the observed average, so the engine
    // throttles everything to the same ratio.
    let policy = UserAwarePolicy::new(HORIZON);
    let inputs = PolicyInputs {
        now: SimTime::from_secs(600),
        horizon: HORIZON,
        presence: trace.state_at(SimTime::from_secs(600)),
        battery_level: Energy::from_joules(300),
        battery_capacity: Energy::from_joules(600),
        taps: &[],
        backlight_enabled: true,
        backlight_drive_ppm: 1_000_000,
        offload_completed: 0,
    };
    let actions = policy.decide(&inputs);
    let cap = actions.backlight_cap_ppm.expect("the engine always caps");
    println!(
        "decision at 600 s (300/600 J left): backlight cap {:.1}% of full drive",
        cap as f64 / 1e4
    );
    assert!(cap < 1_000_000, "overdraw must throttle the backlight");

    // --- The fleet pass: the same population with the controller on and
    // off, byte-identical at any worker count.
    let on = Scenario {
        horizon: HORIZON,
        ..Scenario::policy_heavy("policy-smoke", 42, 60)
    };
    let off = Scenario {
        policy: Some(PolicyConfig::new(PolicyVariant::None, HORIZON)),
        ..on.clone()
    };
    let report = run_fleet_with(&on, 4);
    assert_eq!(
        report.to_json(),
        run_fleet_with(&on, 1).to_json(),
        "policy fleet must not depend on the worker count"
    );
    let aware = report.summary();
    let none = run_fleet_with(&off, 4).summary();
    println!(
        "fleet: {} devices — user-aware hits {}/{} lifetime targets vs {}/{} without \
         a policy ({:.1} kJ vs {:.1} kJ, {} re-rates, {} demotions)",
        on.devices,
        aware.totals.lifetime_target_hits(),
        aware.devices,
        none.totals.lifetime_target_hits(),
        none.devices,
        aware.totals.fleet_energy_j() / 1e3,
        none.totals.fleet_energy_j() / 1e3,
        aware.totals.policy_rerates(),
        aware.totals.policy_demotions()
    );
    assert!(aware.totals.lifetime_target_hits() > none.totals.lifetime_target_hits());
    assert!(aware.totals.fleet_energy_j() < none.totals.fleet_energy_j());
    println!("policy smoke: OK");
}
