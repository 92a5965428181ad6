//! The aggregator: fleet percentiles, histograms, and CSV/JSON export.
//!
//! Per-device [`DeviceReport`]s roll up into a [`FleetSummary`] —
//! p50/p90/p99 battery lifetime, tail power, radio and starvation
//! distributions, quota exhaustion counts — and export as CSV (one row per
//! device, plus [`cinder_sim::trace`] series over the device index) and a
//! deterministic JSON summary. All writers propagate [`io::Result`] so a
//! read-only output directory is a diagnosable error, not a panic.

use std::fmt::{Display, Write as _};
use std::fs;
use std::io;
use std::path::Path;

use cinder_sim::{json_string, Series, SimDuration, SimTime, Summary, TraceSet};

use crate::device::DeviceReport;
use crate::scenario::Scenario;
use crate::totals::FleetTotals;

/// A finished fleet run: ordered per-device telemetry plus scenario
/// identity.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scenario name.
    pub scenario: String,
    /// The fleet seed the run used.
    pub seed: u64,
    /// Per-device horizon.
    pub horizon: SimDuration,
    /// Per-device telemetry; element `i` is device `i`.
    pub devices: Vec<DeviceReport>,
}

/// The fleet aggregate both JSON reports render: exact totals plus five
/// distributions. The retained report's percentiles are exact; a
/// streamed run's are histogram estimates (its min/max/mean are exact).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Device count.
    pub devices: u64,
    /// Exact fleet-wide totals (see [`crate::totals`]).
    pub totals: FleetTotals,
    /// Projected battery lifetime distribution, hours.
    pub lifetime_h: Option<Summary>,
    /// Average platform power distribution, milliwatts (its p99 is the
    /// fleet's tail power).
    pub avg_power_mw: Option<Summary>,
    /// Radio activation count distribution.
    pub radio_activations: Option<Summary>,
    /// Starvation time distribution, seconds.
    pub starved_s: Option<Summary>,
    /// Per-device mean offload request latency distribution, seconds
    /// (devices with at least one completed offload).
    pub offload_latency_s: Option<Summary>,
}

/// What device `d` contributes to each [`FleetSummary`] distribution, in
/// field order; `None` where it contributes nothing (no completed
/// offload, so no mean latency).
pub(crate) fn distribution_samples(d: &DeviceReport, horizon: SimDuration) -> [Option<f64>; 5] {
    [
        Some(d.lifetime_h),
        Some(avg_power_mw(d, horizon)),
        Some(d.radio_activations as f64),
        Some(d.starved_s),
        (d.offload_completed > 0)
            .then(|| d.offload_latency_us as f64 / d.offload_completed as f64 / 1e6),
    ]
}

/// Average platform power of device `d` over `horizon`, milliwatts.
fn avg_power_mw(d: &DeviceReport, horizon: SimDuration) -> f64 {
    d.total_energy_uj as f64 / horizon.as_secs_f64() / 1_000.0
}

impl FleetReport {
    /// Assembles a report from rows already in device-id order.
    pub fn new(scenario: &Scenario, devices: Vec<DeviceReport>) -> FleetReport {
        FleetReport {
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            horizon: scenario.horizon,
            devices,
        }
    }

    /// The aggregate: every row folded through [`FleetTotals::observe`],
    /// plus exact percentiles of each distribution.
    pub fn summary(&self) -> FleetSummary {
        let mut totals = FleetTotals::default();
        let mut samples: [Vec<f64>; 5] = Default::default();
        for d in &self.devices {
            totals.observe(d);
            for (column, v) in samples
                .iter_mut()
                .zip(distribution_samples(d, self.horizon))
            {
                column.extend(v);
            }
        }
        let [lifetime_h, avg_power_mw, radio_activations, starved_s, offload_latency_s] =
            samples.map(|column| Summary::from_values(&column));
        FleetSummary {
            devices: self.devices.len() as u64,
            totals,
            lifetime_h,
            avg_power_mw,
            radio_activations,
            starved_s,
            offload_latency_s,
        }
    }

    /// A fixed-width histogram of projected lifetimes: `bins` buckets over
    /// `[min, max]`, returned as `(bucket_low_h, count)`.
    pub fn lifetime_histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        let finite: Vec<f64> = self
            .devices
            .iter()
            .map(|d| d.lifetime_h)
            .filter(|l| l.is_finite())
            .collect();
        let (Some(&min), Some(&max)) = (
            finite.iter().min_by(|a, b| a.total_cmp(b)),
            finite.iter().max_by(|a, b| a.total_cmp(b)),
        ) else {
            return Vec::new();
        };
        let bins = bins.max(1);
        let width = ((max - min) / bins as f64).max(f64::EPSILON);
        let mut hist = vec![0usize; bins];
        for l in &finite {
            let i = (((l - min) / width) as usize).min(bins - 1);
            hist[i] += 1;
        }
        hist.into_iter()
            .enumerate()
            .map(|(i, count)| (min + i as f64 * width, count))
            .collect()
    }

    /// Per-device CSV: one row per device, ordered by id.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "device,workload,battery_uj,battery_remaining_uj,total_energy_uj,cpu_energy_uj,\
             backlight_energy_uj,gps_energy_uj,backlight_shutdowns,gps_shutdowns,\
             lifetime_h,avg_power_mw,radio_activations,radio_active_s,net_bytes,ops,starved_s,\
             debt_reserves,quota_exhausted,quota_remaining_bytes,bytes_blocked_sends,\
             offload_attempts,offload_accepted,offload_completed,offload_rejected,\
             offload_timed_out,offload_latency_us,policy_rerates,policy_demotions,\
             presence_active_s,presence_ambient_s,presence_away_s,presence_asleep_s,\
             lifetime_target_hit,link_flaps,link_down_us,flap_lost_bytes,crashes,restarts,\
             retries,retries_exhausted,fade_uj\n",
        );
        for d in &self.devices {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{},{:.6},{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                d.id,
                d.workload,
                d.battery_capacity_uj,
                d.battery_remaining_uj,
                d.total_energy_uj,
                d.cpu_energy_uj,
                d.backlight_energy_uj,
                d.gps_energy_uj,
                d.backlight_shutdowns,
                d.gps_shutdowns,
                d.lifetime_h,
                avg_power_mw(d, self.horizon),
                d.radio_activations,
                d.radio_active_s,
                d.net_bytes,
                d.ops,
                d.starved_s,
                d.debt_reserves,
                d.quota_exhausted,
                d.quota_remaining_bytes,
                d.bytes_blocked_sends,
                d.offload_attempts,
                d.offload_accepted,
                d.offload_completed,
                d.offload_rejected,
                d.offload_timed_out,
                d.offload_latency_us,
                d.policy_rerates,
                d.policy_demotions,
                d.presence_active_s,
                d.presence_ambient_s,
                d.presence_away_s,
                d.presence_asleep_s,
                d.lifetime_target_hit,
                d.link_flaps,
                d.link_down_us,
                d.flap_lost_bytes,
                d.crashes,
                d.restarts,
                d.retries,
                d.retries_exhausted,
                d.fade_uj,
            );
        }
        out
    }

    /// Fleet-wide series over the *device index* (the trace machinery's
    /// time axis doubles as an ordinal axis: device `i` sits at `i`
    /// seconds), exportable through [`TraceSet::write_csv_dir`].
    pub fn trace_set(&self) -> TraceSet {
        let mut ts = TraceSet::new();
        let mut lifetime = Series::new("lifetime_by_device", "h");
        let mut power = Series::new("avg_power_by_device", "mW");
        let mut starved = Series::new("starved_by_device", "s");
        for d in &self.devices {
            let at = SimTime::from_secs(d.id);
            lifetime.push(at, d.lifetime_h);
            power.push(at, avg_power_mw(d, self.horizon));
            starved.push(at, d.starved_s);
        }
        ts.insert(lifetime);
        ts.insert(power);
        ts.insert(starved);
        ts
    }

    /// Writes the per-device CSV and the trace series under `dir`,
    /// prefixed with the scenario name.
    pub fn write_csv_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(
            dir.join(format!("{}_devices.csv", self.scenario)),
            self.to_csv(),
        )?;
        self.trace_set().write_csv_dir(dir, &self.scenario)
    }

    /// A deterministic JSON rendering of the aggregate summary (fixed key
    /// order, fixed float precision): the artefact the scale benchmark and
    /// CI compare byte-for-byte across thread counts.
    pub fn to_json(&self) -> String {
        self.summary()
            .to_json(&self.scenario, self.seed, self.horizon)
    }

    /// Writes [`FleetReport::to_json`] to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json())
    }
}

impl FleetSummary {
    /// The one JSON rendering of a fleet aggregate, retained or streamed
    /// (fixed key order, fixed float precision).
    pub(crate) fn to_json(&self, scenario: &str, seed: u64, horizon: SimDuration) -> String {
        let t = &self.totals;
        let mut out = String::from("{\n");
        let mut put = |key: &str, value: &dyn Display| {
            let _ = writeln!(out, "  \"{key}\": {value},");
        };
        put("scenario", &json_string(scenario));
        put("seed", &seed);
        put("devices", &self.devices);
        put("horizon_s", &format_args!("{:.3}", horizon.as_secs_f64()));
        put("fleet_energy_j", &format_args!("{:.6}", t.fleet_energy_j()));
        put("lifetime_h", &summary_json(&self.lifetime_h));
        put("avg_power_mw", &summary_json(&self.avg_power_mw));
        put("radio_activations", &summary_json(&self.radio_activations));
        put("starved_s", &summary_json(&self.starved_s));
        put("quota_exhausted", &t.quota_exhausted());
        put("bytes_blocked_sends", &t.bytes_blocked_sends());
        put(
            "peripheral_energy_j",
            &format_args!("{:.6}", t.peripheral_energy_j()),
        );
        put("forced_shutdowns", &t.forced_shutdowns());
        put("offload_attempts", &t.offload_attempts());
        put("offload_accepted", &t.offload_accepted());
        put("offload_completed", &t.offload_completed());
        put("offload_rejected", &t.offload_rejected());
        put("offload_timed_out", &t.offload_timed_out());
        put("offload_latency_s", &summary_json(&self.offload_latency_s));
        put(
            "joules_per_request",
            &format_args!("{:.6}", t.joules_per_request()),
        );
        put("policy_rerates", &t.policy_rerates());
        put("policy_demotions", &t.policy_demotions());
        put("lifetime_target_hits", &t.lifetime_target_hits());
        let [active, ambient, away, asleep] = t.presence_s();
        put(
            "presence_s",
            &format_args!("[{active}, {ambient}, {away}, {asleep}]"),
        );
        put("link_flaps", &t.link_flaps());
        put("link_down_us", &t.link_down_us());
        put("flap_lost_bytes", &t.flap_lost_bytes());
        put("crashes", &t.crashes());
        put("restarts", &t.restarts());
        put("retries", &t.retries());
        put("retries_exhausted", &t.retries_exhausted());
        put("fade_j", &format_args!("{:.6}", t.fade_j()));
        put("devices_in_debt", &t.devices_in_debt());
        // The last key takes no trailing comma.
        out.truncate(out.len() - ",\n".len());
        out.push_str("\n}\n");
        out
    }
}

/// A distribution block: `null`, or its min/percentiles/max/mean.
fn summary_json(sum: &Option<Summary>) -> String {
    match sum {
        None => "null".to_string(),
        Some(s) => format!(
            "{{ \"min\": {:.6}, \"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6}, \
             \"max\": {:.6}, \"mean\": {:.6} }}",
            s.min, s.p50, s.p90, s.p99, s.max, s.mean
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;

    fn device(id: u64, lifetime_h: f64, energy_uj: i64) -> DeviceReport {
        DeviceReport {
            id,
            workload: Workload::Spinner.tag(),
            battery_capacity_uj: 15_000_000_000,
            battery_remaining_uj: 14_000_000_000,
            total_energy_uj: energy_uj,
            cpu_energy_uj: energy_uj / 10,
            backlight_energy_uj: id as i64 * 1_000_000,
            gps_energy_uj: 500_000,
            backlight_shutdowns: u64::from(id == 3),
            gps_shutdowns: u64::from(id == 3) * 2,
            lifetime_h,
            radio_activations: id,
            radio_active_s: 1.0,
            net_bytes: 100,
            ops: 3,
            starved_s: id as f64,
            debt_reserves: u32::from(id % 2 == 0),
            quota_exhausted: id == 1,
            quota_remaining_bytes: 0,
            bytes_blocked_sends: u64::from(id == 1) * 3,
            offload_attempts: id * 2,
            offload_accepted: id,
            offload_completed: id / 2,
            offload_rejected: id,
            offload_timed_out: id - id / 2,
            offload_latency_us: id / 2 * 600_000,
            policy_rerates: id * 3,
            policy_demotions: id,
            presence_active_s: 100,
            presence_ambient_s: 200,
            presence_away_s: 300,
            presence_asleep_s: 400,
            lifetime_target_hit: id >= 5,
            link_flaps: id,
            link_down_us: id * 1_000_000,
            flap_lost_bytes: id * 10,
            crashes: u64::from(id % 3 == 0),
            restarts: u64::from(id % 3 == 0),
            retries: id * 2,
            retries_exhausted: id / 4,
            fade_uj: 1_500_000,
        }
    }

    fn report() -> FleetReport {
        FleetReport {
            scenario: "unit".into(),
            seed: 9,
            horizon: SimDuration::from_secs(3_600),
            devices: (0..10)
                .map(|i| device(i, 4.0 + i as f64, 2_500_000_000))
                .collect(),
        }
    }

    #[test]
    fn summary_aggregates_distributions() {
        let s = report().summary();
        assert_eq!(s.devices, 10);
        let lifetime = s.lifetime_h.unwrap();
        assert_eq!(lifetime.min, 4.0);
        assert_eq!(lifetime.max, 13.0);
        assert_eq!(s.totals.quota_exhausted(), 1);
        assert_eq!(s.totals.bytes_blocked_sends(), 3);
        assert_eq!(s.totals.devices_in_debt(), 5);
        // Σ (id × 1 J) + 10 × 0.5 J of GPS.
        assert!((s.totals.peripheral_energy_j() - 50.0).abs() < 1e-9);
        assert_eq!(s.totals.forced_shutdowns(), 3);
        // 2500 J × 10 devices.
        assert!((s.totals.fleet_energy_j() - 25_000.0).abs() < 1e-9);
        // 2.5 MJ over 3600 s ≈ 694.4 mW for every device.
        let power = s.avg_power_mw.unwrap();
        assert!((power.mean - 694.444).abs() < 0.01, "{}", power.mean);
        // Offload totals: Σ 2id, Σ id, Σ id/2 over ids 0..10.
        assert_eq!(s.totals.offload_attempts(), 90);
        assert_eq!(s.totals.offload_accepted(), 45);
        assert_eq!(s.totals.offload_completed(), 20);
        assert_eq!(s.totals.offload_rejected(), 45);
        assert_eq!(s.totals.offload_timed_out(), 25);
        // Every completing device's mean latency is exactly 0.6 s.
        let lat = s.offload_latency_s.unwrap();
        assert!((lat.mean - 0.6).abs() < 1e-9, "{}", lat.mean);
        // 9 offloading devices × 2500 J over 20 completions.
        assert!((s.totals.joules_per_request() - 9.0 * 2_500.0 / 20.0).abs() < 1e-6);
        // Policy telemetry: Σ 3id, Σ id over ids 0..10; 5 devices hit.
        assert_eq!(s.totals.policy_rerates(), 135);
        assert_eq!(s.totals.policy_demotions(), 45);
        assert_eq!(s.totals.lifetime_target_hits(), 5);
        assert_eq!(s.totals.presence_s(), [1_000, 2_000, 3_000, 4_000]);
        // Fault telemetry: Σ id, Σ id × 1 s, Σ 10id; ids 0/3/6/9 crash.
        assert_eq!(s.totals.link_flaps(), 45);
        assert_eq!(s.totals.link_down_us(), 45_000_000);
        assert_eq!(s.totals.flap_lost_bytes(), 450);
        assert_eq!(s.totals.crashes(), 4);
        assert_eq!(s.totals.restarts(), 4);
        assert_eq!(s.totals.retries(), 90);
        assert_eq!(s.totals.retries_exhausted(), 8);
        // 1.5 J of fade per device.
        assert!(
            (s.totals.fade_j() - 15.0).abs() < 1e-9,
            "{}",
            s.totals.fade_j()
        );
    }

    #[test]
    fn histogram_covers_all_finite_devices() {
        let h = report().lifetime_histogram(5);
        assert_eq!(h.len(), 5);
        assert_eq!(h.iter().map(|&(_, c)| c).sum::<usize>(), 10);
        assert_eq!(h[0].0, 4.0);
    }

    #[test]
    fn histogram_of_empty_fleet_is_empty() {
        let empty = FleetReport {
            devices: Vec::new(),
            ..report()
        };
        assert!(empty.lifetime_histogram(4).is_empty());
        assert_eq!(empty.summary().lifetime_h, None);
    }

    #[test]
    fn csv_has_one_row_per_device() {
        let csv = report().to_csv();
        assert_eq!(csv.lines().count(), 11); // header + 10 devices
        assert!(csv.starts_with("device,workload,"));
        assert!(csv.contains(",spinner,"));
    }

    #[test]
    fn json_is_deterministic_and_parses_shape() {
        let a = report().to_json();
        let b = report().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"p99\""));
        assert!(a.contains("\"quota_exhausted\": 1"));
        assert!(a.trim_end().ends_with('}'));
    }

    #[test]
    fn write_csv_dir_round_trips() {
        let dir = std::env::temp_dir().join(format!("cinder_fleet_test_{}", std::process::id()));
        report().write_csv_dir(&dir).unwrap();
        let devices = fs::read_to_string(dir.join("unit_devices.csv")).unwrap();
        assert!(devices.starts_with("device,workload,"));
        let series = fs::read_to_string(dir.join("unit_lifetime_by_device.csv")).unwrap();
        assert!(series.starts_with("time_s,lifetime_by_device_h"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
