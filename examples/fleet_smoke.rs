//! Fleet smoke run: a 200-device population for one simulated hour,
//! sharded across workers, with the aggregate report printed and the
//! determinism contract spot-checked.
//!
//! ```text
//! cargo run --release --example fleet_smoke                    # §5/§6 mixture
//! cargo run --release --example fleet_smoke -- peripheral-mix  # + navigator/screen-on
//! ```
//!
//! `peripheral-mix` runs the all-tags mixture (every paper workload plus
//! the reserve-gated peripheral workloads) and additionally checks that
//! the peripheral telemetry is live.

use cinder::fleet::{run_fleet, run_fleet_with, Scenario};
use cinder::sim::SimDuration;

fn main() {
    let peripheral_mix = std::env::args().nth(1).as_deref() == Some("peripheral-mix");
    let base = if peripheral_mix {
        Scenario::all_workloads("fleet-smoke-peripheral", 42, 200)
    } else {
        Scenario::mixed("fleet-smoke", 42, 200)
    };
    let scenario = Scenario {
        horizon: SimDuration::from_secs(3_600),
        ..base
    };
    println!(
        "fleet: {} devices, {:.0} s horizon, seed {}",
        scenario.devices,
        scenario.horizon.as_secs_f64(),
        scenario.seed
    );

    let start = std::time::Instant::now();
    let report = run_fleet(&scenario);
    let wall = start.elapsed().as_secs_f64();

    // The contract the property tests enforce, spot-checked live: a
    // different worker count produces the identical report.
    let single = run_fleet_with(&scenario, 1);
    assert_eq!(
        report.to_json(),
        single.to_json(),
        "aggregate report must not depend on the worker count"
    );

    print!("{}", report.to_json());
    let summary = report.summary();
    if peripheral_mix {
        assert!(
            summary.totals.peripheral_energy_j() > 0.0,
            "the peripheral mixture must burn backlight/GPS energy"
        );
        println!(
            "peripherals: {:.1} kJ drained, {} forced shutdowns across the fleet",
            summary.totals.peripheral_energy_j() / 1e3,
            summary.totals.forced_shutdowns()
        );
    }
    let lifetime = summary.lifetime_h.expect("non-empty fleet");
    println!("lifetime histogram (hours):");
    for (lo, count) in report.lifetime_histogram(8) {
        println!("  {:>6.2} h | {}", lo, "#".repeat(count.min(60)));
    }
    println!(
        "{} simulated device-hours in {wall:.2} s wall ({:.0}x real time); \
         p50 lifetime {:.2} h, p99 {:.2} h",
        scenario.devices,
        scenario.devices as f64 * scenario.horizon.as_secs_f64() / wall,
        lifetime.p50,
        lifetime.p99,
    );

    // CSV artefacts land next to the experiment outputs.
    let dir = std::path::PathBuf::from("target/experiments");
    match report.write_csv_dir(&dir) {
        Ok(()) => println!("(per-device CSVs written to {})", dir.display()),
        Err(e) => eprintln!("warning: could not write CSVs: {e}"),
    }
}
