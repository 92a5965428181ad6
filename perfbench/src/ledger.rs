//! Which devices were checked and which failed, and the run's printed
//! result.

use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Failure reasons printed to stderr before the rest are only counted.
const REASONS_SHOWN: usize = 20;

/// A device is `(round, id)`: the id within the fleet of that round.
type Device = (u64, u64);

/// Devices checked and devices that failed a check.
#[derive(Default)]
pub struct Ledger {
    checked: BTreeSet<Device>,
    failed: BTreeSet<Device>,
}

impl Ledger {
    /// Marks devices `ids` of `round` as checked.
    pub fn check_range(&mut self, round: u64, ids: Range<u64>) {
        self.checked.extend(ids.map(|id| (round, id)));
    }

    /// Records that device `id` of `round` failed a check.
    pub fn fail(&mut self, round: u64, id: u64, why: &str) {
        self.checked.insert((round, id));
        if self.failed.insert((round, id)) && self.failed.len() <= REASONS_SHOWN {
            eprintln!("check failed: round {round} device {id}: {why}");
        }
    }

    /// Records that every device in `ids` failed, for a check that can
    /// only fail a fleet as a whole.
    pub fn fail_range(&mut self, round: u64, ids: Range<u64>, why: &str) {
        for id in ids {
            self.fail(round, id, why);
        }
    }

    /// Devices checked.
    pub fn attempted(&self) -> usize {
        self.checked.len()
    }

    /// Devices that failed at least one check.
    pub fn failed(&self) -> usize {
        self.failed.len()
    }
}

/// Runs `f`, turning a panic into an error carrying its message, so a
/// device that trips an assertion counts as a failure instead of ending
/// the run.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic without a message".to_string())
    })
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Prints the metrics as a table, then the result object as the last line
/// of standard output.
pub fn print_result(ledger: &Ledger, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no infinities; a non-finite measurement is a bug in
            // the benchmark, reported rather than hidden.
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed() == 0 && ledger.attempted() > 0,
        ledger.attempted(),
        ledger.failed(),
        body.join(", ")
    );
}
