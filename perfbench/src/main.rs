//! Fleet benchmark for the Cinder reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <all_apps_hour|fault_storm_hour|drained_day> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it runs whole fleets on one worker for `S` seconds and
//! reports the end-to-end metrics; with `--trace 1` it drives devices one
//! by one through the traced driver for `S` seconds (and at least
//! [`TRACE_MIN_DEVICES`]) and reports the per-layer metrics. Either way it
//! then checks the outputs. The last line of standard output is one JSON
//! object; `README.md` beside this package defines every metric.

mod checks;
mod clock;
mod ledger;
mod stats;
mod traced;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use cinder_fleet::{
    run_fleet_with, simulate_device, FleetCheckpoint, StreamReport, StreamSummary, Workload,
};

use clock::{measure, span, Elapsed};
use ledger::{catch, print_result, Ledger, Metric};
use workloads::{BenchWorkload, CsvTable, Path, RoundOutput, WORKLOADS};

/// Chunks in a timed run's fleet; each pass runs every chunk once.
const CHUNKS: u64 = 12;
/// Passes run even when `--seconds` is used up sooner.
const MIN_PASSES: u64 = 3;
/// Devices the traced pass drives at least, so that p99 has ten devices
/// above it.
const TRACE_MIN_DEVICES: u64 = 1_000;
/// Repetitions of each sub-millisecond rendering call timed in the
/// traced pass; the median is reported.
const RENDER_REPS: usize = 31;

/// Parsed command line.
struct Args {
    workload: &'static BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        BenchWorkload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed: seed.unwrap_or(workload.default_seed),
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "{why}\nusage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        traced_run(&args, &mut ledger)
    } else {
        timed_run(&args, &mut ledger)
    };
    print_result(&ledger, &metrics);
    ExitCode::SUCCESS
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `values`, or 0 when nothing was measured (the run is then
/// reported incorrect anyway).
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// The untraced run: a fleet of [`CHUNKS`] chunks, each a small fleet of
/// its own, run on one worker pass after pass until `--seconds` of wall
/// time are measured. Every pass does the same work, so the passes differ
/// only by the host's noise, and the median pass is reported.
fn timed_run(args: &Args, ledger: &mut Ledger) -> Vec<Metric> {
    let w = args.workload;
    let set_up = || -> Vec<_> {
        (0..CHUNKS)
            .map(|c| {
                let scenario = w.scenario(BenchWorkload::chunk_seed(args.seed, c), w.chunk_devices);
                black_box(scenario.specs());
                scenario
            })
            .collect()
    };
    let chunks = set_up();
    let hours: f64 = chunks.iter().map(BenchWorkload::device_hours).sum();
    let (mut setup_s, mut per_cpu_s, mut per_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut measured_s, mut passes, mut base_csv) = (0.0, 0, None);
    while passes < MIN_PASSES || measured_s < args.seconds {
        setup_s.push(measure(set_up).1.wall_s);
        let mut pass = Some(Elapsed::default());
        for (c, scenario) in (0..).zip(&chunks) {
            let round = passes * CHUNKS + c;
            let (output, elapsed) = measure(|| catch(|| w.run(scenario)));
            measured_s += elapsed.wall_s;
            let output = match output {
                Ok(output) => output,
                Err(why) => {
                    let devices = 0..u64::from(scenario.devices);
                    ledger.fail_range(round, devices, &format!("chunk panicked: {why}"));
                    pass = None;
                    continue;
                }
            };
            pass = pass.map(|p| p + elapsed);
            w.check_round(scenario, &output, round, ledger);
            if let (0, RoundOutput::Retained { csv, .. }) = (round, output) {
                base_csv = CsvTable::parse(&csv).ok();
            }
        }
        if let Some(pass) = pass {
            per_cpu_s.push(hours / pass.cpu_s);
            per_wall_s.push(hours / pass.wall_s);
        }
        passes += 1;
    }
    let peak_rss = clock::peak_rss_mib();

    if !per_cpu_s.is_empty() {
        let [q1, q2, q3] = stats::quartiles(&per_cpu_s);
        eprintln!(
            "{}: {passes} passes over {CHUNKS} × {} devices in {measured_s:.2} s; \
             device-h/CPU-s quartiles {q1:.1} / {q2:.1} / {q3:.1}",
            w.name, w.chunk_devices
        );
    }
    checks::ff_differential(w, args.seed, base_csv.as_ref(), ledger);
    checks::fleet_identity(w, args.seed, ledger);

    vec![
        metric(
            "device_hours_per_cpu_s",
            median_or_zero(&per_cpu_s),
            "device-h/s",
        ),
        metric(
            "device_hours_per_s",
            median_or_zero(&per_wall_s),
            "device-h/s",
        ),
        metric("setup_s", median_or_zero(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ]
}

/// Per-device CPU time of the untraced driver, by workload tag.
#[derive(Default)]
struct TagCost {
    devices: u64,
    cpu_ms: f64,
}

/// Median microseconds of `reps` calls of `f`.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: devices one by one, untraced then traced, per-layer
/// metrics.
fn traced_run(args: &Args, ledger: &mut Ledger) -> Vec<Metric> {
    let w = args.workload;
    let scenario = w.scenario(args.seed, w.chunk_devices);
    let mut spans = traced::Spans::default();
    let mut summary = StreamSummary::new(scenario.horizon);
    let (mut observe_ns, mut build_ns, mut builds) = (0u64, 0u64, 0u64);
    let (mut untraced_cpu_s, mut traced_cpu_s) = (0.0, 0.0);
    let mut device_cpu_ms = Vec::new();
    let mut tags: Vec<(&str, TagCost)> = Workload::ALL
        .iter()
        .map(|w| (w.tag(), TagCost::default()))
        .collect();
    let mut mismatched = 0u64;

    let started = Instant::now();
    let mut id = 0;
    while id < TRACE_MIN_DEVICES || started.elapsed().as_secs_f64() < args.seconds {
        ledger.check_range(0, id..id + 1);
        let spec = scenario.spec_for(id);
        let (report, untraced) = measure(|| catch(|| simulate_device(&spec)));
        let (state, traced) = measure(|| catch(|| traced::drive(&spec, &mut spans)));
        id += 1;
        let (report, state) = match (report, state) {
            (Ok(report), Ok(state)) => (report, state),
            (Err(why), _) | (_, Err(why)) => {
                ledger.fail(0, id - 1, &format!("device panicked: {why}"));
                continue;
            }
        };
        untraced_cpu_s += untraced.cpu_s;
        traced_cpu_s += traced.cpu_s;
        device_cpu_ms.push(untraced.cpu_s * 1e3);
        if let Some((_, cost)) = tags.iter_mut().find(|(tag, _)| *tag == report.workload) {
            cost.devices += 1;
            cost.cpu_ms += untraced.cpu_s * 1e3;
        }
        let wrong = state.mismatches(&report);
        if !wrong.is_empty() {
            mismatched += 1;
            ledger.fail(
                0,
                id - 1,
                &format!("traced end state differs in {}", wrong.join(", ")),
            );
        }
        span(&mut observe_ns, || summary.observe(&report));
        if spec.workload == Workload::Offloader {
            span(&mut build_ns, || black_box(traced::backend_trace(&spec)));
            builds += 1;
        }
    }
    let traced_devices = id;
    if let Some((pct, value)) = stats::tail(&device_cpu_ms) {
        eprintln!(
            "{}: traced {traced_devices} devices in {:.2} s; device CPU p{pct} = {value:.3} ms",
            w.name,
            started.elapsed().as_secs_f64()
        );
    }

    // Stream and checkpoint layers, on the traced devices' summary.
    let merge_us = median_us(RENDER_REPS, || {
        let mut acc = StreamSummary::new(scenario.horizon);
        acc.merge(&summary);
        acc
    });
    let checkpoint = FleetCheckpoint {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        fleet_devices: u32::try_from(traced_devices).expect("traced devices fit a fleet"),
        horizon: scenario.horizon,
        next_device: traced_devices,
        summary: summary.clone(),
    };
    let text = checkpoint.to_text();
    if FleetCheckpoint::from_text(&text).as_ref() != Ok(&checkpoint) {
        ledger.fail_range(
            0,
            0..traced_devices,
            "checkpoint text round trip changed it",
        );
    }
    let to_text_us = median_us(RENDER_REPS, || checkpoint.to_text());
    let from_text_us = median_us(RENDER_REPS, || FleetCheckpoint::from_text(&text));

    // Report layer: the retained path renders chunk 0's per-device CSV and
    // JSON; the streamed paths render the summary's JSON and histograms.
    let spec_us = median_us(RENDER_REPS, || scenario.specs());
    let (to_csv_ms, to_json_ms, csv_bytes) = if w.path == Path::Retained {
        match catch(|| run_fleet_with(&scenario, 1)) {
            Ok(report) => (
                median_us(RENDER_REPS, || report.to_csv()) / 1e3,
                median_us(RENDER_REPS, || report.to_json()) / 1e3,
                report.to_csv().len(),
            ),
            Err(why) => {
                ledger.fail_range(0, 0..u64::from(scenario.devices), &why);
                (0.0, 0.0, 0)
            }
        }
    } else {
        let report = StreamReport {
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            horizon: scenario.horizon,
            summary: summary.clone(),
        };
        (
            median_us(RENDER_REPS, || report.histograms_csv()) / 1e3,
            median_us(RENDER_REPS, || report.to_json()) / 1e3,
            report.histograms_csv().len(),
        )
    };

    let ff = checks::ff_differential(w, args.seed, None, ledger);
    checks::fleet_identity(w, args.seed, ledger);

    let devices = traced_devices as f64;
    let observed = device_cpu_ms.len() as f64;
    let ff_total: f64 = ff.ff_cpu_s.iter().sum();
    let stepped_total: f64 = ff.stepped_cpu_s.iter().sum();
    let ff_slower = ff
        .ff_cpu_s
        .iter()
        .zip(&ff.stepped_cpu_s)
        .filter(|(f, s)| f > s)
        .count();
    let device_ms_total: f64 = device_cpu_ms.iter().sum();
    let p99 = stats::percentile(&device_cpu_ms, 990).unwrap_or(0.0);
    let ns_to_us = |ns: u64| ns as f64 / 1e3;

    let mut metrics = vec![
        metric(
            "kernel.run_span_ns_per_sim_s",
            ratio(spans.run_span_ns as f64, spans.sim_s),
            "ns/sim-s",
        ),
        metric(
            "kernel.run_span_share",
            ratio(spans.run_span_ns as f64, spans.device_ns as f64),
            "ratio",
        ),
        metric("kernel.ff_speedup", ratio(stepped_total, ff_total), "x"),
        metric(
            "kernel.stepped_ms_per_device_hour",
            ratio(stepped_total * 1e3, ff.device_hours),
            "ms/device-h",
        ),
        metric(
            "kernel.ff_slower_frac",
            ratio(ff_slower as f64, ff.ff_cpu_s.len() as f64),
            "ratio",
        ),
        metric(
            "fleet.device.cpu_ms_p50",
            median_or_zero(&device_cpu_ms),
            "ms",
        ),
        metric("fleet.device.cpu_ms_p99", p99, "ms"),
    ];
    for (tag, cost) in &tags {
        metrics.push(metric(
            format!("fleet.device.{tag}.cpu_ms"),
            ratio(cost.cpu_ms, cost.devices as f64),
            "ms",
        ));
        metrics.push(metric(
            format!("fleet.device.{tag}.share"),
            ratio(cost.cpu_ms, device_ms_total),
            "ratio",
        ));
    }
    metrics.extend([
        metric(
            "apps.install_us",
            ratio(ns_to_us(spans.install_ns), spans.installs as f64),
            "us",
        ),
        metric(
            "offload.trace_build_us",
            ratio(ns_to_us(build_ns), builds as f64),
            "us",
        ),
        metric(
            "offload.trace_builds",
            ratio(builds as f64, devices),
            "1/device",
        ),
        metric(
            "policy.apply_us",
            ratio(ns_to_us(spans.policy_apply_ns), spans.policy_applies as f64),
            "us",
        ),
        metric(
            "policy.applies",
            ratio(spans.policy_applies as f64, devices),
            "1/device",
        ),
        metric(
            "faults.apply_us",
            ratio(ns_to_us(spans.fault_apply_ns), spans.fault_applies as f64),
            "us",
        ),
        metric(
            "faults.applies",
            ratio(spans.fault_applies as f64, devices),
            "1/device",
        ),
        metric("fleet.scenario.spec_us", spec_us, "us"),
        metric("fleet.report.to_csv_ms", to_csv_ms, "ms"),
        metric("fleet.report.to_json_ms", to_json_ms, "ms"),
        metric("fleet.report.csv_bytes", csv_bytes as f64, "B"),
        metric(
            "fleet.stream.observe_ns",
            ratio(observe_ns as f64, observed),
            "ns",
        ),
        metric("fleet.stream.merge_us", merge_us, "us"),
        metric("fleet.checkpoint.to_text_us", to_text_us, "us"),
        metric("fleet.checkpoint.from_text_us", from_text_us, "us"),
        metric("fleet.checkpoint.bytes", text.len() as f64, "B"),
        metric(
            "trace.overhead_frac",
            ratio(traced_cpu_s - untraced_cpu_s, untraced_cpu_s),
            "ratio",
        ),
        metric("trace.devices", devices, "count"),
        metric("trace.mismatches", mismatched as f64, "count"),
        metric(
            "checks.failed_frac",
            ratio(ledger.failed() as f64, ledger.attempted() as f64),
            "ratio",
        ),
    ]);
    metrics
}
