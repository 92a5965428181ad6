//! Output checks that run outside the timed region: fast-forward against
//! stepping, one worker against two, and checkpoint/resume against one
//! pass.

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, simulate_device, stream_fleet_span,
    FleetCheckpoint,
};

use crate::clock::measure;
use crate::ledger::{catch, Ledger};
use crate::workloads::{BenchWorkload, CsvTable, Path};

/// Devices in the fleet run on one and on two workers.
const WORKER_SUBSET: u32 = 32;

/// Columns of the retained CSV compared with a re-simulated device.
const CSV_COLUMNS: [&str; 6] = [
    "battery_remaining_uj",
    "total_energy_uj",
    "ops",
    "offload_attempts",
    "link_flaps",
    "crashes",
];

/// On-CPU seconds of the sampled devices, with fast-forward on and off.
#[derive(Debug, Default)]
pub struct FfSample {
    /// Per device, fast-forward on.
    pub ff_cpu_s: Vec<f64>,
    /// Per device, stepped.
    pub stepped_cpu_s: Vec<f64>,
    /// Simulated device-hours of the sample.
    pub device_hours: f64,
}

/// Re-simulates the first devices of `seed`'s fleet (whose first devices
/// are chunk 0, round 0) with fast-forward on and off; the two reports
/// must be identical. When round 0's retained CSV is given, its rows must
/// carry the same values.
pub fn ff_differential(
    workload: &BenchWorkload,
    seed: u64,
    csv: Option<&CsvTable>,
    ledger: &mut Ledger,
) -> FfSample {
    let scenario = workload.scenario(seed, workload.chunk_devices);
    let mut sample = FfSample::default();
    for id in 0..workload.ff_sample {
        ledger.check_range(0, id..id + 1);
        let spec = scenario.spec_for(id);
        let stepped_spec = cinder_fleet::DeviceSpec {
            fast_forward: false,
            ..spec.clone()
        };
        let (ff, ff_time) = measure(|| catch(|| simulate_device(&spec)));
        let (stepped, stepped_time) = measure(|| catch(|| simulate_device(&stepped_spec)));
        let (ff, stepped) = match (ff, stepped) {
            (Ok(ff), Ok(stepped)) => (ff, stepped),
            (Err(why), _) | (_, Err(why)) => {
                ledger.fail(0, id, &format!("device panicked: {why}"));
                continue;
            }
        };
        sample.ff_cpu_s.push(ff_time.cpu_s);
        sample.stepped_cpu_s.push(stepped_time.cpu_s);
        sample.device_hours += spec.horizon.as_secs_f64() / 3_600.0;
        if ff != stepped {
            ledger.fail(0, id, "fast-forward report differs from stepping");
        }
        let Some(table) = csv else { continue };
        // The CSV covers chunk 0 only; its row count is checked per round.
        let Some(row) = table.rows.get(id as usize) else {
            continue;
        };
        let expected = [
            ff.battery_remaining_uj.to_string(),
            ff.total_energy_uj.to_string(),
            ff.ops.to_string(),
            ff.offload_attempts.to_string(),
            ff.link_flaps.to_string(),
            ff.crashes.to_string(),
        ];
        for (column, want) in CSV_COLUMNS.iter().zip(&expected) {
            if table.get(row, column) != Some(want) {
                ledger.fail(
                    0,
                    id,
                    &format!("fleet CSV {column} differs from the device"),
                );
            }
        }
    }
    sample
}

/// Runs the first devices of the run's seed on one worker and on two
/// (the outputs must be byte-identical) and, for the checkpoint path, split
/// at a checkpoint (the result must equal one pass).
pub fn fleet_identity(workload: &BenchWorkload, seed: u64, ledger: &mut Ledger) {
    let scenario = workload.scenario(seed, WORKER_SUBSET);
    let devices = u64::from(WORKER_SUBSET);
    ledger.check_range(0, 0..devices);
    let verdict = catch(|| -> Result<(), String> {
        if workload.path == Path::Retained {
            let one = run_fleet_with(&scenario, 1);
            let two = run_fleet_with(&scenario, 2);
            if one.to_csv() != two.to_csv() || one.to_json() != two.to_json() {
                return Err("two workers changed the retained report".into());
            }
            return Ok(());
        }
        let one = stream_fleet_span(&scenario, 0, devices, 1);
        if stream_fleet_span(&scenario, 0, devices, 2) != one {
            return Err("two workers changed the streamed summary".into());
        }
        if workload.path == Path::CheckpointSplit {
            let text = checkpoint_fleet(&scenario, devices / 2, 1).to_text();
            let resumed = resume_fleet(&FleetCheckpoint::from_text(&text)?, &scenario, 1)?;
            if resumed.summary != one {
                return Err("checkpoint/resume differs from one pass".into());
            }
        }
        Ok(())
    });
    if let Err(why) = verdict.and_then(|v| v) {
        ledger.fail_range(0, 0..devices, &why);
    }
}
