//! `fig-policy`: user-aware policy head-to-head on one fleet population.
//!
//! Runs the same `policy_heavy` population — identical seeds, batteries,
//! jitter, presence traces — under three policies and compares who makes
//! the lifetime target (§5.4's question, asked fleet-wide): the
//! policy-free baseline, a presence-blind static low-battery saver, and
//! the user-aware lifetime-target controller. Batteries are sized so the
//! nominal workload *cannot* last the hour: the baseline and the static
//! saver (which only reacts below 20% charge, long after the budget is
//! spent) miss the target across most of the fleet, while the user-aware
//! controller solves the sustainable rate at every tick and throttles to
//! it from the start. The rows report lifetime percentiles, target-hit
//! fractions, and joules by subsystem (CPU / backlight / GPS / rest), so
//! the figure also shows *where* the controller claws the energy back.

use cinder_fleet::{run_fleet_with, PolicyConfig, PolicyVariant, Scenario};
use cinder_sim::SimDuration;

use crate::output::ExperimentOutput;

/// One simulated hour, matching the fleet acceptance horizon.
const HORIZON: SimDuration = SimDuration::from_secs(3_600);

/// The lifetime target every policy is judged against: survive the hour.
const TARGET: SimDuration = SimDuration::from_secs(3_600);

/// Fleet size (shared across the three runs).
const DEVICES: u32 = 60;

/// One policy's fleet-wide outcome.
struct Outcome {
    tag: &'static str,
    hit_fraction: f64,
    p50_lifetime_h: f64,
    p90_lifetime_h: f64,
    total_j: f64,
    cpu_j: f64,
    backlight_j: f64,
    gps_j: f64,
    rerates: u128,
    demotions: u128,
}

fn run_variant(variant: PolicyVariant) -> Outcome {
    // Same name+seed for every variant: the population (and each device's
    // presence trace) is identical, only the policy differs. Even the
    // baseline carries a `Variant::None` config so the target verdict and
    // presence telemetry are computed for it too.
    let scenario = Scenario {
        horizon: HORIZON,
        policy: Some(PolicyConfig::new(variant, TARGET)),
        ..Scenario::policy_heavy("fig-policy", 4_010, DEVICES)
    };
    let report = run_fleet_with(&scenario, 4);
    let summary = report.summary();
    let lifetime = summary.lifetime_h.expect("non-empty fleet");
    let sum_j = |f: &dyn Fn(&cinder_fleet::DeviceReport) -> i64| -> f64 {
        report.devices.iter().map(|d| f(d) as f64 / 1e6).sum()
    };
    Outcome {
        tag: variant.tag(),
        hit_fraction: summary.totals.lifetime_target_hits() as f64 / summary.devices as f64,
        p50_lifetime_h: lifetime.p50,
        p90_lifetime_h: lifetime.p90,
        total_j: summary.totals.fleet_energy_j(),
        cpu_j: sum_j(&|d| d.cpu_energy_uj),
        backlight_j: sum_j(&|d| d.backlight_energy_uj),
        gps_j: sum_j(&|d| d.gps_energy_uj),
        rerates: summary.totals.policy_rerates(),
        demotions: summary.totals.policy_demotions(),
    }
}

/// Runs the three-way comparison and emits one row per policy.
pub fn run() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig-policy",
        "user-aware policy head-to-head: lifetime-target hit rates and joules by subsystem",
    );
    out.row(format!(
        "{DEVICES} policy-heavy devices, {:.0} s horizon, target: last {:.0} s; \
         identical population under each policy",
        HORIZON.as_secs_f64(),
        TARGET.as_secs_f64(),
    ));
    let outcomes: Vec<Outcome> = [
        PolicyVariant::None,
        PolicyVariant::Static,
        PolicyVariant::UserAware,
    ]
    .into_iter()
    .map(run_variant)
    .collect();
    for o in &outcomes {
        out.row(format!(
            "{:>10}: target hit {:>5.1}%  lifetime p50 {:>5.2} h  p90 {:>5.2} h  \
             energy {:>7.1} J (cpu {:>6.1}, backlight {:>6.1}, gps {:>6.1})  \
             {} re-rates, {} demotions",
            o.tag,
            o.hit_fraction * 100.0,
            o.p50_lifetime_h,
            o.p90_lifetime_h,
            o.total_j,
            o.cpu_j,
            o.backlight_j,
            o.gps_j,
            o.rerates,
            o.demotions,
        ));
    }
    for o in &outcomes {
        let t = o.tag;
        out.metric(
            &format!("{t}_hit_ppm"),
            (o.hit_fraction * 1e6).round() as u64,
        );
        out.metric(
            &format!("{t}_p50_lifetime_h"),
            format!("{:.4}", o.p50_lifetime_h),
        );
        out.metric(
            &format!("{t}_p90_lifetime_h"),
            format!("{:.4}", o.p90_lifetime_h),
        );
        out.metric(&format!("{t}_total_j"), format!("{:.3}", o.total_j));
        out.metric(&format!("{t}_backlight_j"), format!("{:.3}", o.backlight_j));
        out.metric(&format!("{t}_rerates"), o.rerates);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's shape: the user-aware controller makes the target
    /// almost everywhere; the presence-blind static saver reacts too late
    /// and misses across most of the fleet; the baseline misses hardest.
    #[test]
    fn user_aware_hits_the_target_where_static_misses() {
        let none = run_variant(PolicyVariant::None);
        let stat = run_variant(PolicyVariant::Static);
        let aware = run_variant(PolicyVariant::UserAware);
        assert!(
            aware.hit_fraction >= 0.9,
            "user-aware must make the target fleet-wide: {:.3}",
            aware.hit_fraction
        );
        assert!(
            stat.hit_fraction <= 0.5,
            "the static saver reacts too late to save the hour: {:.3}",
            stat.hit_fraction
        );
        assert!(none.hit_fraction <= stat.hit_fraction);
        // The controller's savings are real energy, led by the backlight.
        assert!(aware.total_j < stat.total_j && stat.total_j <= none.total_j);
        assert!(aware.backlight_j < none.backlight_j);
        // It acts continuously (re-rates), not just at a threshold.
        assert!(aware.rerates > stat.rerates);
        assert!(aware.demotions > 0);
    }
}
