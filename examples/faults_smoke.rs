//! Fault smoke run: one device's fault schedule and retry ladder as plain
//! values, then a small fault-heavy fleet under the calibrated storm.
//!
//! ```text
//! cargo run --release --example faults_smoke
//! ```
//!
//! The single-device pass shows the engine's two pure halves: a
//! [`FaultPlan`] generated from a seed (the same seed always yields the
//! same flaps and crash instants, quantum-aligned) and a [`RetryPolicy`]
//! backoff ladder walked by hand. The fleet pass runs the calibrated
//! fault storm, spot-checks the determinism contract, and prints the
//! fault ledger: flaps, link-down time, crashes and respawns, retries
//! spent and exhausted, battery fade.

use cinder::fleet::{run_fleet_with, FaultConfig, FaultPlan, RetryPolicy, Scenario};
use cinder::sim::{SimDuration, SimTime};

const HORIZON: SimDuration = SimDuration::from_secs(3_600);
const QUANTUM: SimDuration = SimDuration::from_millis(10);

fn main() {
    // --- The fault schedule: a pure function of (seed, quantum, horizon,
    // config). The same seed always describes the same storm.
    let config = FaultConfig::heavy(7);
    let plan = FaultPlan::generate(7, QUANTUM, HORIZON, &config);
    println!(
        "plan(seed 7): {} link flaps ({:.1} s down), {} crashes over {:.0} s",
        plan.flaps.len(),
        plan.link_down_us(HORIZON) as f64 / 1e6,
        plan.crashes.len(),
        HORIZON.as_secs_f64()
    );
    assert_eq!(
        plan,
        FaultPlan::generate(7, QUANTUM, HORIZON, &config),
        "the same seed must always describe the same storm"
    );
    assert!(!plan.flaps.is_empty() && !plan.crashes.is_empty());

    // --- The retry ladder: bounded exponential backoff with a deadline,
    // every attempt aligned to the scheduler quantum.
    let retry: RetryPolicy = config.retry.expect("the heavy profile retries");
    let started = SimTime::from_secs(10);
    let mut now = started;
    let mut failed = 1;
    print!("retry ladder from t=10 s:");
    while let Some(at) = retry.next_attempt_at(started, now, failed, QUANTUM) {
        print!(" attempt {} at {:.2} s", failed + 1, at.as_secs_f64());
        now = at;
        failed += 1;
    }
    println!(" — then give up ({} attempts max)", retry.max_attempts);
    assert!(failed <= retry.max_attempts, "the ladder is bounded");

    // --- The fleet pass: the calibrated storm over an offloading,
    // policy-controlled mixture, byte-identical at any worker count.
    let scenario = Scenario {
        horizon: HORIZON,
        ..Scenario::fault_heavy("faults-smoke", 42, 60)
    };
    let report = run_fleet_with(&scenario, 4);
    assert_eq!(
        report.to_json(),
        run_fleet_with(&scenario, 1).to_json(),
        "fault fleet must not depend on the worker count"
    );
    let s = report.summary();
    println!(
        "fleet: {} devices — {} flaps ({:.0} s down), {} crashes / {} restarts, \
         {} retries ({} exhausted), {:.0} J fade, {}/{} lifetime targets hit",
        s.devices,
        s.totals.link_flaps(),
        s.totals.link_down_us() as f64 / 1e6,
        s.totals.crashes(),
        s.totals.restarts(),
        s.totals.retries(),
        s.totals.retries_exhausted(),
        s.totals.fade_j(),
        s.totals.lifetime_target_hits(),
        s.devices
    );
    assert!(s.totals.link_flaps() > 0 && s.totals.crashes() > 0 && s.totals.restarts() > 0);
    assert!(s.totals.retries() > 0, "the resilience layer must engage");
    assert!(s.totals.fade_j() > 0.0, "batteries must age");
    println!("faults smoke: OK");
}
