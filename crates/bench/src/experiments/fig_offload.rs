//! `fig-offload`: the cloud-offload economy's saturation feedback loop.
//!
//! Sweeps the shared backend's capacity against a fixed mean-field load
//! (50,000 devices shipping an item every 300 s). At each point the
//! precomputed [`BackendTrace`] yields the backend-side latency
//! distribution and the fraction of population demand that offloaded,
//! and an offload-heavy fleet run against that same trace prices the
//! economy in joules per request.
//!
//! The loop the figure shows: as capacity shrinks, the latency estimate
//! climbs toward the deadline, the admission gate tapers demand, and
//! break-even prices devices back to local compute — p99 rises, the
//! offload fraction falls, and the joules-per-request price drifts from
//! "cheap radio round trip" toward "nobody offloads".

use cinder_fleet::{run_fleet_with, Scenario};
use cinder_offload::{BackendTrace, OffloadProfile};
use cinder_sim::SimDuration;

use crate::output::ExperimentOutput;

/// One simulated hour, matching the fleet acceptance horizon.
const HORIZON: SimDuration = SimDuration::from_secs(3_600);

/// Mean-field population behind the shared backend. 50k devices at one
/// request per 300 s offer ~167 req/s; with 50 ms service quanta the
/// sweep's small capacities sit well under that and saturate.
const LOAD_DEVICES: u64 = 50_000;

/// Capacity sweep, widest first.
const CAPACITIES: [u32; 6] = [32, 16, 8, 4, 2, 1];

/// Devices in the priced fleet at each point (small: the trace, not the
/// fleet, carries the population).
const FLEET_DEVICES: u32 = 24;

fn profile(capacity: u32) -> OffloadProfile {
    OffloadProfile {
        capacity,
        load_devices: LOAD_DEVICES,
        ..OffloadProfile::default()
    }
}

/// One sweep point: backend-side shape plus the fleet-side price.
struct Point {
    capacity: u32,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    fraction_ppm: u64,
    joules_per_request: f64,
    completed: u128,
    rejected: u128,
    timed_out: u128,
}

fn sweep_point(capacity: u32) -> Point {
    let profile = profile(capacity);
    let trace = BackendTrace::build(profile, HORIZON);
    let scenario = Scenario {
        horizon: HORIZON,
        offload: Some(profile),
        ..Scenario::offload_heavy("fig-offload", 2_030, FLEET_DEVICES, capacity)
    };
    let totals = run_fleet_with(&scenario, 4).summary().totals;
    Point {
        capacity,
        p50_ms: trace.latency_percentile(0.50).as_secs_f64() * 1e3,
        p90_ms: trace.latency_percentile(0.90).as_secs_f64() * 1e3,
        p99_ms: trace.latency_percentile(0.99).as_secs_f64() * 1e3,
        fraction_ppm: trace.offload_fraction_ppm(),
        joules_per_request: totals.joules_per_request(),
        completed: totals.offload_completed(),
        rejected: totals.offload_rejected(),
        timed_out: totals.offload_timed_out(),
    }
}

/// Runs the capacity sweep and emits one row per point.
pub fn run() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig-offload",
        "cloud-offload economy: backend capacity vs latency, offload fraction, J/request",
    );
    out.row(format!(
        "shared backend: {LOAD_DEVICES} mean-field devices, 300 s cadence, 50 ms service quanta; \
         fleet of {FLEET_DEVICES} offload-heavy devices priced per point"
    ));
    let points: Vec<Point> = CAPACITIES.iter().map(|&c| sweep_point(c)).collect();
    for p in &points {
        out.row(format!(
            "capacity {:>2}: p50 {:>8.1} ms  p90 {:>8.1} ms  p99 {:>8.1} ms  \
             offload {:>5.1}%  {:>6.2} J/req  ({} completed, {} rejected, {} timed out)",
            p.capacity,
            p.p50_ms,
            p.p90_ms,
            p.p99_ms,
            p.fraction_ppm as f64 / 10_000.0,
            p.joules_per_request,
            p.completed,
            p.rejected,
            p.timed_out,
        ));
    }
    for p in &points {
        let c = p.capacity;
        out.metric(&format!("cap{c}_p99_ms"), format!("{:.3}", p.p99_ms));
        out.metric(&format!("cap{c}_offload_ppm"), p.fraction_ppm);
        out.metric(
            &format!("cap{c}_joules_per_request"),
            format!("{:.4}", p.joules_per_request),
        );
        out.metric(&format!("cap{c}_completed"), p.completed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The feedback loop is the figure: shrinking capacity raises p99 and
    /// drops the offload fraction, and the priced fleet follows the gate.
    #[test]
    fn capacity_sweep_shows_the_feedback_loop() {
        let wide = sweep_point(CAPACITIES[0]);
        let narrow = sweep_point(*CAPACITIES.last().unwrap());
        assert!(
            narrow.p99_ms > wide.p99_ms * 2.0,
            "saturation must blow up p99: {} vs {} ms",
            narrow.p99_ms,
            wide.p99_ms
        );
        assert!(
            narrow.fraction_ppm < wide.fraction_ppm / 2,
            "the gate must taper demand: {} vs {} ppm",
            narrow.fraction_ppm,
            wide.fraction_ppm
        );
        assert!(
            narrow.completed < wide.completed,
            "the fleet must follow the gate local: {} vs {}",
            narrow.completed,
            wide.completed
        );
        // A responsive backend prices a request at a real radio cost.
        assert!(wide.joules_per_request > 0.0);
        // Percentiles are ordered at every point.
        for p in [&wide, &narrow] {
            assert!(p.p50_ms <= p.p90_ms && p.p90_ms <= p.p99_ms);
        }
    }
}
