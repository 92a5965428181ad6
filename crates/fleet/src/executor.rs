//! The sharded executor: devices across `std::thread` workers.
//!
//! Devices are partitioned into fixed-size chunks; workers *steal* the next
//! unclaimed chunk off a shared atomic cursor, so a worker stuck on an
//! expensive device (a spinner stepping every quantum) never idles its
//! siblings. Each worker returns its finished chunks tagged with their
//! first device id; the chunks are then laid out in id order, so the
//! assembled report is ordered by device id and the aggregate output is
//! byte-identical no matter how many workers ran — the determinism
//! contract the property tests pin down.
//!
//! No external dependencies: plain scoped threads and one atomic.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::device::DeviceReport;
use crate::report::FleetReport;
use crate::scenario::Scenario;

/// Devices claimed per steal. Big enough to amortise the cursor bump,
/// small enough to balance tail latency across workers.
const CHUNK: usize = 16;

/// Runs the fleet on all available cores (`std::thread::available_parallelism`).
pub fn run_fleet(scenario: &Scenario) -> FleetReport {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_fleet_with(scenario, threads)
}

/// Runs the fleet on exactly `threads` workers (0 is treated as 1).
///
/// The report is byte-identical for every `threads` value.
pub fn run_fleet_with(scenario: &Scenario, threads: usize) -> FleetReport {
    let specs = scenario.specs();
    let threads = threads.max(1).min(specs.len().max(1));
    let cursor = AtomicUsize::new(0);

    let mut chunks: Vec<(usize, Vec<DeviceReport>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Per-worker extraction scratch lives across every
                    // chunk this worker steals: allocated once, not per
                    // device.
                    let mut scratch = crate::device::DeviceScratch::default();
                    let mut done = Vec::new();
                    loop {
                        let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= specs.len() {
                            break;
                        }
                        let end = (start + CHUNK).min(specs.len());
                        let rows = specs[start..end]
                            .iter()
                            .map(|spec| crate::device::simulate_device_with(spec, &mut scratch))
                            .collect();
                        done.push((start, rows));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let devices = chunks.into_iter().flat_map(|(_, rows)| rows).collect();
    FleetReport::new(scenario, devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_sim::SimDuration;

    fn quick(devices: u32) -> Scenario {
        Scenario {
            horizon: SimDuration::from_secs(120),
            ..Scenario::mixed("exec", 21, devices)
        }
    }

    #[test]
    fn results_are_ordered_by_device_id() {
        let report = run_fleet_with(&quick(24), 3);
        let ids: Vec<u64> = report.devices.iter().map(|d| d.id).collect();
        assert_eq!(ids, (0..24).collect::<Vec<u64>>());
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let scenario = quick(33); // not a multiple of the chunk size
        let one = run_fleet_with(&scenario, 1);
        let four = run_fleet_with(&scenario, 4);
        let many = run_fleet_with(&scenario, 16);
        assert_eq!(one.devices, four.devices);
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.to_csv(), four.to_csv());
    }

    #[test]
    fn zero_threads_means_one() {
        let scenario = quick(4);
        assert_eq!(
            run_fleet_with(&scenario, 0).devices,
            run_fleet_with(&scenario, 1).devices
        );
    }

    #[test]
    fn empty_fleet_is_fine() {
        let report = run_fleet_with(&quick(0), 4);
        assert!(report.devices.is_empty());
    }
}
