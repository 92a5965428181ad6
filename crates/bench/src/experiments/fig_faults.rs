//! `fig-faults`: resilience under an injected-fault intensity sweep.
//!
//! Runs the same `fault_heavy` population — identical seeds, batteries,
//! jitter, presence traces — at four fault intensities: fault-free, half
//! the paper-calibrated storm, the storm itself, and twice it. Intensity
//! scales the *frequency* knobs (shorter mean link up-times, shorter mean
//! crash intervals, proportionally faster battery aging) while leaving
//! each fault's shape alone, so the sweep isolates how the resilience
//! layer — bounded-backoff retries, kill/respawn supervision, fade-aware
//! re-planning — degrades. The rows report lifetime-target hit fractions,
//! joules per completed offload request, and the raw fault ledger (flaps,
//! link-down time, crashes/restarts, retries spent and exhausted, fade),
//! so the figure shows the cost of each extra decade of chaos.

use cinder_fleet::{run_fleet_with, FaultConfig, Scenario};
use cinder_sim::SimDuration;

use crate::output::ExperimentOutput;

/// One simulated hour, matching the fleet acceptance horizon.
const HORIZON: SimDuration = SimDuration::from_secs(3_600);

/// Fleet size (shared across the four runs).
const DEVICES: u32 = 40;

/// Fault intensity in ppm of the calibrated heavy profile; `None` is the
/// fault-free baseline.
const INTENSITIES: [Option<u64>; 4] = [None, Some(500_000), Some(1_000_000), Some(2_000_000)];

/// One intensity's fleet-wide outcome.
struct Outcome {
    tag: String,
    hit_fraction: f64,
    completed: u128,
    joules_per_request: f64,
    link_flaps: u128,
    link_down_s: f64,
    crashes: u128,
    restarts: u128,
    retries: u128,
    retries_exhausted: u128,
    fade_j: f64,
}

fn run_intensity(intensity: Option<u64>) -> Outcome {
    // Same name+seed at every intensity: the population is identical, only
    // the fault schedule layered on top differs.
    let scenario = Scenario {
        horizon: HORIZON,
        faults: intensity.map(|ppm| FaultConfig::heavy(4_077).with_intensity(ppm)),
        ..Scenario::fault_heavy("fig-faults", 4_077, DEVICES)
    };
    let report = run_fleet_with(&scenario, 4);
    let s = report.summary();
    let t = &s.totals;
    Outcome {
        tag: match intensity {
            None => "fault-free".into(),
            Some(ppm) => format!("{:.1}x", ppm as f64 / 1e6),
        },
        hit_fraction: t.lifetime_target_hits() as f64 / s.devices as f64,
        completed: t.offload_completed(),
        joules_per_request: t.joules_per_request(),
        link_flaps: t.link_flaps(),
        link_down_s: t.link_down_us() as f64 / 1e6,
        crashes: t.crashes(),
        restarts: t.restarts(),
        retries: t.retries(),
        retries_exhausted: t.retries_exhausted(),
        fade_j: t.fade_j(),
    }
}

/// Runs the intensity sweep and emits one row per intensity.
pub fn run() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig-faults",
        "fault-intensity sweep: resilience cost in target hits, J/request, and the fault ledger",
    );
    out.row(format!(
        "{DEVICES} fault-heavy devices, {:.0} s horizon; identical population at \
         each intensity (1.0x = calibrated storm)",
        HORIZON.as_secs_f64(),
    ));
    let outcomes: Vec<Outcome> = INTENSITIES.into_iter().map(run_intensity).collect();
    for o in &outcomes {
        out.row(format!(
            "{:>10}: target hit {:>5.1}%  {:>3} completed @ {:>7.1} J/req  \
             {:>3} flaps ({:>7.1} s down)  {:>2} crashes / {:>2} restarts  \
             {:>3} retries ({:>2} exhausted)  fade {:>6.1} J",
            o.tag,
            o.hit_fraction * 100.0,
            o.completed,
            o.joules_per_request,
            o.link_flaps,
            o.link_down_s,
            o.crashes,
            o.restarts,
            o.retries,
            o.retries_exhausted,
            o.fade_j,
        ));
    }
    for o in &outcomes {
        let t = o.tag.replace('.', "_");
        out.metric(
            &format!("{t}_hit_ppm"),
            (o.hit_fraction * 1e6).round() as u64,
        );
        out.metric(&format!("{t}_completed"), o.completed);
        out.metric(
            &format!("{t}_j_per_request"),
            format!("{:.3}", o.joules_per_request),
        );
        out.metric(&format!("{t}_link_flaps"), o.link_flaps);
        out.metric(&format!("{t}_crashes"), o.crashes);
        out.metric(&format!("{t}_retries"), o.retries);
        out.metric(&format!("{t}_fade_j"), format!("{:.3}", o.fade_j));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's shape: chaos scales with intensity (more flaps, more
    /// crashes, more fade), the resilience layer visibly works (every
    /// crash is respawned, retries engage once faults are live), and the
    /// degradation is graceful — the faulted fleet still completes
    /// offloads rather than collapsing.
    #[test]
    fn fault_intensity_degrades_gracefully() {
        let quiet = run_intensity(None);
        let calm = run_intensity(Some(500_000));
        let storm = run_intensity(Some(1_000_000));
        let wild = run_intensity(Some(2_000_000));

        // The baseline is actually fault-free.
        assert_eq!(quiet.link_flaps + quiet.crashes + quiet.retries, 0);
        assert_eq!(quiet.fade_j, 0.0);

        // Chaos is monotone in intensity.
        assert!(calm.link_flaps < storm.link_flaps);
        assert!(storm.link_flaps < wild.link_flaps);
        assert!(calm.link_down_s < wild.link_down_s);
        assert!(calm.crashes <= storm.crashes && storm.crashes < wild.crashes);
        assert!(calm.fade_j < storm.fade_j && storm.fade_j < wild.fade_j);

        // The resilience layer is visibly engaged: every kill respawned
        // (except ones whose restart delay crosses the horizon), retries
        // spent once faults are live.
        for o in [&calm, &storm, &wild] {
            assert!(
                o.restarts <= o.crashes && o.crashes - o.restarts <= u128::from(DEVICES / 10),
                "{}: kills without respawn: {} crashes vs {} restarts",
                o.tag,
                o.crashes,
                o.restarts
            );
            assert!(o.restarts > 0, "{}: nothing ever respawned", o.tag);
            assert!(o.retries > 0, "{}: no retries under faults", o.tag);
            assert!(
                o.completed > 0,
                "{}: the fleet must not collapse outright",
                o.tag
            );
        }

        // Degradation shows up as abandoned work, not collapse: retries
        // and exhaustion climb with intensity, yet completions never dry
        // up — respawned offloaders re-enter their duty cycle, so the
        // faulted fleet can even out-complete the quiet one.
        assert!(calm.retries < storm.retries && storm.retries < wild.retries);
        assert!(calm.retries_exhausted < wild.retries_exhausted);
        assert!(quiet.completed > 0 && storm.completed > 0);
    }
}
