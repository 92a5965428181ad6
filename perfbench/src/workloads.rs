//! The three fleet workloads, the path each runs through the fleet engine,
//! and the checks on what one chunk of it returned.

use std::hint::black_box;

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, stream_fleet_span, FleetCheckpoint, Scenario,
    StreamReport,
};

use crate::ledger::Ledger;

/// How a workload drives the fleet engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `run_fleet_with` on one worker, then the per-device CSV and JSON.
    Retained,
    /// `stream_fleet_span` on one worker, then the streamed JSON.
    Streamed,
    /// `checkpoint_fleet` halfway, through checkpoint text and back, then
    /// `resume_fleet` and the streamed JSON.
    CheckpointSplit,
}

/// One benchmark workload.
pub struct BenchWorkload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// Devices in one chunk of the timed fleet (about 0.15 CPU-s of work).
    pub chunk_devices: u32,
    /// Devices re-simulated with fast-forward off per run.
    pub ff_sample: u64,
    /// How the fleet is run.
    pub path: Path,
    /// Builds a chunk's scenario from `(name, seed, devices)`.
    scenario: fn(&str, u64, u32) -> Scenario,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [BenchWorkload; 3] = [
    BenchWorkload {
        name: "all_apps_hour",
        default_seed: 2026,
        chunk_devices: 44,
        ff_sample: 100,
        path: Path::Retained,
        scenario: Scenario::all_workloads,
    },
    BenchWorkload {
        name: "fault_storm_hour",
        default_seed: 2033,
        chunk_devices: 30,
        ff_sample: 100,
        path: Path::Streamed,
        scenario: Scenario::fault_heavy,
    },
    BenchWorkload {
        name: "drained_day",
        default_seed: 2030,
        chunk_devices: 40,
        ff_sample: 40,
        path: Path::CheckpointSplit,
        scenario: Scenario::steady_heavy,
    },
];

/// What one run of a chunk returned, kept for the checks that follow it.
pub enum RoundOutput {
    /// The retained report's renderings.
    Retained { csv: String, json: String },
    /// The streamed report.
    Streamed(Box<StreamReport>),
    /// The checkpoint split.
    Split(Box<SplitOutput>),
}

/// The checkpoint before and after its text round trip, and the resumed
/// report.
pub struct SplitOutput {
    checkpoint: FleetCheckpoint,
    restored: Result<FleetCheckpoint, String>,
    report: Result<StreamReport, String>,
}

impl BenchWorkload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static BenchWorkload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The fleet of `devices` devices under `seed`.
    pub fn scenario(&self, seed: u64, devices: u32) -> Scenario {
        (self.scenario)(self.name, seed, devices)
    }

    /// Fleet seed of chunk `chunk` in a run seeded `seed`: chunk 0 is the
    /// seed itself, later chunks are fresh fleets derived from it.
    pub fn chunk_seed(seed: u64, chunk: u64) -> u64 {
        seed.wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Simulated device-hours in a fleet.
    pub fn device_hours(scenario: &Scenario) -> f64 {
        f64::from(scenario.devices) * scenario.horizon.as_secs_f64() / 3_600.0
    }

    /// The timed work of one chunk: simulate its whole fleet on one worker
    /// and render what a user of this path reads.
    pub fn run(&self, scenario: &Scenario) -> RoundOutput {
        let devices = u64::from(scenario.devices);
        match self.path {
            Path::Retained => {
                let report = run_fleet_with(scenario, 1);
                RoundOutput::Retained {
                    csv: report.to_csv(),
                    json: report.to_json(),
                }
            }
            Path::Streamed => {
                let report = StreamReport {
                    scenario: scenario.name.clone(),
                    seed: scenario.seed,
                    horizon: scenario.horizon,
                    summary: stream_fleet_span(scenario, 0, devices, 1),
                };
                black_box(report.to_json());
                RoundOutput::Streamed(Box::new(report))
            }
            Path::CheckpointSplit => {
                let checkpoint = checkpoint_fleet(scenario, devices / 2, 1);
                let restored = FleetCheckpoint::from_text(&checkpoint.to_text());
                let report = restored
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|cp| resume_fleet(cp, scenario, 1));
                if let Ok(report) = &report {
                    black_box(report.to_json());
                }
                RoundOutput::Split(Box::new(SplitOutput {
                    checkpoint,
                    restored,
                    report,
                }))
            }
        }
    }

    /// Checks one run of a chunk (`round` in the ledger) against its fleet:
    /// every device present once, in id order, under its own workload tag.
    pub fn check_round(
        &self,
        scenario: &Scenario,
        output: &RoundOutput,
        round: u64,
        ledger: &mut Ledger,
    ) {
        let devices = u64::from(scenario.devices);
        ledger.check_range(round, 0..devices);
        let whole = |ledger: &mut Ledger, why: String| ledger.fail_range(round, 0..devices, &why);
        match output {
            RoundOutput::Retained { csv, json } => {
                if !(json.trim_start().starts_with('{') && json.trim_end().ends_with('}')) {
                    whole(ledger, "retained JSON is not an object".into());
                }
                let table = match CsvTable::parse(csv) {
                    Ok(table) => table,
                    Err(why) => return whole(ledger, why),
                };
                if table.rows.len() as u64 != devices {
                    return whole(
                        ledger,
                        format!("CSV has {} rows for {devices} devices", table.rows.len()),
                    );
                }
                for (id, row) in (0..devices).zip(&table.rows) {
                    let tag = scenario.spec_for(id).workload.tag();
                    if table.get(row, "device") != Some(&id.to_string())
                        || table.get(row, "workload").map(String::as_str) != Some(tag)
                    {
                        ledger.fail(round, id, "CSV row is not this device");
                    }
                }
            }
            RoundOutput::Streamed(report) => {
                if report.summary.devices != devices {
                    whole(
                        ledger,
                        format!(
                            "stream folded {} of {devices} devices",
                            report.summary.devices
                        ),
                    );
                }
            }
            RoundOutput::Split(split) => {
                let SplitOutput {
                    checkpoint,
                    restored,
                    report,
                } = split.as_ref();
                if restored.as_ref() != Ok(checkpoint) {
                    whole(ledger, "checkpoint text round trip changed it".into());
                }
                match report {
                    Ok(r) if r.summary.devices == devices => {}
                    Ok(r) => whole(
                        ledger,
                        format!("resume folded {} of {devices} devices", r.summary.devices),
                    ),
                    Err(why) => whole(ledger, format!("resume failed: {why}")),
                }
            }
        }
    }
}

/// A parsed per-device CSV: header names and rows of raw fields.
pub struct CsvTable {
    header: Vec<String>,
    /// One row of fields per device.
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Splits `csv` into a header and rows of the header's width.
    pub fn parse(csv: &str) -> Result<CsvTable, String> {
        let mut lines = csv.lines();
        let split = |line: &str| line.split(',').map(str::to_string).collect::<Vec<_>>();
        let header = split(lines.next().ok_or("CSV is empty")?);
        let rows: Vec<Vec<String>> = lines.map(split).collect();
        match rows.iter().position(|r| r.len() != header.len()) {
            Some(i) => Err(format!("CSV row {i} does not match the header's width")),
            None => Ok(CsvTable { header, rows }),
        }
    }

    /// The field of `row` under column `name`.
    pub fn get<'a>(&self, row: &'a [String], name: &str) -> Option<&'a String> {
        self.header
            .iter()
            .position(|h| h == name)
            .and_then(|i| row.get(i))
    }
}
