//! Streaming fleet aggregation and checkpoint/resume.
//!
//! The retained path ([`crate::executor::run_fleet_with`]) keeps every
//! [`DeviceReport`] — O(devices) memory — because the CSV exporter needs
//! the rows. Fleet-scale studies only need the *aggregate*: percentiles,
//! totals, exhaustion counts. This module folds each finished device into
//! a [`StreamSummary`] and drops the report on the floor, so a
//! million-device run costs O(workers × bins) memory.
//!
//! # Exactness and merge order
//!
//! The summary must be byte-identical for any worker count and any chunk
//! assignment, yet workers steal chunks nondeterministically and merge
//! their local summaries in arbitrary order. Every accumulator is
//! therefore *exactly* commutative and associative:
//!
//! * sums are integers (`i128`/`u128`) — float fields are fixed-pointed
//!   per device (`round(v × scale)`), a deterministic per-device map, so
//!   the integer total is independent of addition order;
//! * histogram bins are `u64` counts;
//! * `min`/`max` over finite `f64`s commute exactly.
//!
//! Means and percentiles are *derived at render time* from the merged
//! state, never accumulated in floating point. Percentiles interpolate
//! the fixed-bin histogram with the same `rank = p/100 × (n−1)`
//! convention as [`cinder_sim::Summary`]; they are estimates with one-bin
//! resolution (exact `min`/`max` bracket them), which is the price of
//! O(bins) memory.
//!
//! # Checkpoint/resume
//!
//! Device `i` draws everything from `root.split(i)`, so the RNG "stream
//! position" of a half-finished fleet *is* the next unsimulated device
//! id. A [`FleetCheckpoint`] is that cursor plus the summary state and
//! the scenario identity, serialised as deterministic text (floats as
//! `f64::to_bits` hex, so round-trips are bit-exact). Resuming replays
//! nothing: `run(0..k)` + checkpoint + `run(k..n)` merges to the same
//! bytes as one `run(0..n)` — a property test pins this down.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cinder_sim::{json_string, SimDuration, Summary};

use crate::device::{DeviceReport, DeviceScratch};
use crate::report::{distribution_samples, FleetSummary};
use crate::scenario::Scenario;
use crate::totals::FleetTotals;

/// Histogram bins per channel. 256 bins over each channel's fixed range
/// gives sub-percent quantile resolution at O(bins) memory.
pub const STREAM_BINS: usize = 256;

/// Devices claimed per steal (mirrors the retained executor's chunking).
const CHUNK: usize = 16;

/// One streamed distribution: exact integer sum + exact min/max + a
/// fixed-bin histogram for quantile estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Fixed-point scale: each observation contributes
    /// `round(v × scale)` to [`Channel::sum_fp`].
    scale: f64,
    /// Inclusive histogram low edge; values below clamp into bin 0.
    lo: f64,
    /// Histogram high edge; values above clamp into the last bin.
    hi: f64,
    /// Finite observations.
    count: u64,
    /// Non-finite observations (excluded from every statistic).
    nonfinite: u64,
    /// Exact fixed-point sum of finite observations.
    sum_fp: i128,
    /// Exact minimum (`+∞` until the first observation).
    min: f64,
    /// Exact maximum (`−∞` until the first observation).
    max: f64,
    /// Per-bin counts; edge bins absorb out-of-range values.
    counts: Vec<u64>,
}

impl Channel {
    fn new(scale: f64, lo: f64, hi: f64) -> Channel {
        assert!(hi > lo, "degenerate channel range [{lo}, {hi}]");
        Channel {
            scale,
            lo,
            hi,
            count: 0,
            nonfinite: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            counts: vec![0; STREAM_BINS],
        }
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Folds one observation in.
    fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.count += 1;
        self.sum_fp += (v * self.scale).round() as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let i = if v <= self.lo {
            0
        } else {
            (((v - self.lo) / self.width()) as usize).min(self.counts.len() - 1)
        };
        self.counts[i] += 1;
    }

    /// Exact merge; the two channels must share a configuration.
    fn merge(&mut self, other: &Channel) {
        assert_eq!(
            (self.scale, self.lo, self.hi, self.counts.len()),
            (other.scale, other.lo, other.hi, other.counts.len()),
            "merging differently-configured channels"
        );
        self.count += other.count;
        self.nonfinite += other.nonfinite;
        self.sum_fp += other.sum_fp;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Histogram-interpolated quantile estimate with the
    /// `rank = p/100 × (n−1)` convention; `None` on an empty channel.
    /// `quantile(0)` is the exact minimum, `quantile(100)` the exact
    /// maximum; interior quantiles are clamped to `[min, max]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!(
            p.is_finite() && (0.0..=100.0).contains(&p),
            "quantile out of range: {p}"
        );
        if self.count == 0 {
            return None;
        }
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 100.0 {
            return Some(self.max);
        }
        let rank = p / 100.0 * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cum as f64;
            cum += c;
            if (cum as f64) > rank {
                // Spread the bin's c items uniformly across its width and
                // read off the in-bin position of the continuous rank.
                let pos = ((rank - before + 0.5) / c as f64).clamp(0.0, 1.0);
                let v = self.lo + (i as f64 + pos) * self.width();
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Exact mean (integer sum ÷ count, descaled once).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_fp as f64 / self.scale / self.count as f64)
    }

    /// Renders the channel in [`cinder_sim::Summary`] shape
    /// (min/max/mean exact, percentiles histogram-estimated).
    pub fn summary(&self) -> Option<Summary> {
        (self.count > 0).then(|| Summary {
            min: self.min,
            p50: self.quantile(50.0).unwrap(),
            p90: self.quantile(90.0).unwrap(),
            p99: self.quantile(99.0).unwrap(),
            max: self.max,
            mean: self.mean().unwrap(),
        })
    }

    /// The histogram as `(bin_low_edge, count)` rows.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = self.width();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as f64 * w, c))
    }

    fn write_text(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "channel {name}");
        let _ = writeln!(
            out,
            "cfg {:016x} {:016x} {:016x}",
            self.scale.to_bits(),
            self.lo.to_bits(),
            self.hi.to_bits()
        );
        let _ = writeln!(out, "count {} {}", self.count, self.nonfinite);
        let _ = writeln!(out, "sum_fp {}", self.sum_fp);
        let _ = writeln!(
            out,
            "minmax {:016x} {:016x}",
            self.min.to_bits(),
            self.max.to_bits()
        );
        let mut counts = String::from("counts");
        for c in &self.counts {
            let _ = write!(counts, " {c}");
        }
        let _ = writeln!(out, "{counts}");
    }

    /// Parses the lines [`Channel::write_text`] wrote into this channel,
    /// which must carry the same configuration (a checkpoint's channels are
    /// checked against the ones this build constructs, so a crafted range
    /// or scale can neither panic nor poison a later merge).
    fn read_text(
        &mut self,
        name: &str,
        mut field: impl FnMut(&str) -> Result<String, String>,
    ) -> Result<(), String> {
        let header = field("channel")?;
        if header != name {
            return Err(format!("expected channel {name}, got {header}"));
        }
        let cfg = parse_bits_row::<3>(&field("cfg")?)?;
        let want = [self.scale, self.lo, self.hi];
        if cfg.map(f64::to_bits) != want.map(f64::to_bits) {
            return Err(format!(
                "channel {name} cfg (scale, lo, hi) = {cfg:?} does not match this \
                 build's {want:?} for the checkpoint's horizon"
            ));
        }
        let count = field("count")?;
        let mut it = count.split(' ');
        self.count = parse_num(it.next().unwrap_or(""))?;
        self.nonfinite = parse_num(it.next().unwrap_or(""))?;
        self.sum_fp = parse_num(&field("sum_fp")?)?;
        [self.min, self.max] = parse_bits_row::<2>(&field("minmax")?)?;
        let counts: Result<Vec<u64>, String> = field("counts")?.split(' ').map(parse_num).collect();
        self.counts = counts?;
        if self.counts.len() != STREAM_BINS {
            return Err(format!("expected {STREAM_BINS} bins for {name}"));
        }
        let binned: u128 = self.counts.iter().map(|&c| u128::from(c)).sum();
        if binned != u128::from(self.count) {
            return Err(format!(
                "channel {name} counts sum to {binned}, not its count {}",
                self.count
            ));
        }
        Ok(())
    }
}

/// The mergeable, checkpointable aggregate of a (partial) fleet run.
///
/// Construct with [`StreamSummary::new`], fold devices in with
/// [`StreamSummary::observe`], combine partial runs with
/// [`StreamSummary::merge`]. All state is exactly commutative (module
/// docs), so any observe/merge order over the same device set yields
/// bit-identical state.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Per-device horizon (fixes the power denominator and the starvation
    /// histogram range).
    horizon: SimDuration,
    /// Devices folded in so far.
    pub devices: u64,
    /// Exact fleet-wide totals.
    pub totals: FleetTotals,
    /// Projected lifetime distribution, hours.
    pub lifetime_h: Channel,
    /// Average platform power distribution, milliwatts.
    pub avg_power_mw: Channel,
    /// Radio activation count distribution.
    pub radio_activations: Channel,
    /// Starvation time distribution, seconds.
    pub starved_s: Channel,
    /// Per-device mean offload request latency, seconds (devices with at
    /// least one completed offload).
    pub offload_latency_s: Channel,
}

impl StreamSummary {
    /// An empty summary for runs over `horizon`.
    ///
    /// Histogram ranges are fixed up front (they must be, for exact
    /// merges): lifetimes 0–1000 h, power 0–5000 mW, activations
    /// 0–20000, starvation 0–horizon. Out-of-range values clamp into the
    /// edge bins — the exact min/max still bracket the distribution, only
    /// the tail quantile estimate coarsens.
    pub fn new(horizon: SimDuration) -> StreamSummary {
        StreamSummary {
            horizon,
            devices: 0,
            totals: FleetTotals::default(),
            // µh fixed point: exact to a microhour per device.
            lifetime_h: Channel::new(1e6, 0.0, 1_000.0),
            avg_power_mw: Channel::new(1e6, 0.0, 5_000.0),
            radio_activations: Channel::new(1.0, 0.0, 20_000.0),
            // starved_s is integer µs rendered as seconds, so the 1e6
            // fixed point recovers the original integer exactly.
            starved_s: Channel::new(1e6, 0.0, horizon.as_secs_f64()),
            // Mean request latencies live well under a minute; the exact
            // min/max still bracket any outlier past the clamp.
            offload_latency_s: Channel::new(1e6, 0.0, 60.0),
        }
    }

    /// Folds one device's report into the summary.
    pub fn observe(&mut self, d: &DeviceReport) {
        self.devices += 1;
        self.totals.observe(d);
        let samples = distribution_samples(d, self.horizon);
        for ((_, ch), v) in self.channels_mut().into_iter().zip(samples) {
            if let Some(v) = v {
                ch.observe(v);
            }
        }
    }

    /// Exact merge of two partial summaries over the same horizon.
    pub fn merge(&mut self, other: &StreamSummary) {
        assert_eq!(self.horizon, other.horizon, "merging different horizons");
        self.devices += other.devices;
        self.totals.merge(&other.totals);
        for ((_, ch), (_, theirs)) in self.channels_mut().into_iter().zip(other.channels()) {
            ch.merge(theirs);
        }
    }

    /// The aggregate in the shape both JSON reports render: exact totals,
    /// exact min/max/mean, histogram-estimated percentiles.
    pub fn fleet_summary(&self) -> FleetSummary {
        let [lifetime_h, avg_power_mw, radio_activations, starved_s, offload_latency_s] =
            self.channels().map(|(_, ch)| ch.summary());
        FleetSummary {
            devices: self.devices,
            totals: self.totals.clone(),
            lifetime_h,
            avg_power_mw,
            radio_activations,
            starved_s,
            offload_latency_s,
        }
    }

    /// The channels with their names, in [`FleetSummary`] distribution
    /// order (also the checkpoint and histogram CSV order).
    fn channels(&self) -> [(&'static str, &Channel); 5] {
        [
            ("lifetime_h", &self.lifetime_h),
            ("avg_power_mw", &self.avg_power_mw),
            ("radio_activations", &self.radio_activations),
            ("starved_s", &self.starved_s),
            ("offload_latency_s", &self.offload_latency_s),
        ]
    }

    /// [`StreamSummary::channels`], mutably.
    fn channels_mut(&mut self) -> [(&'static str, &mut Channel); 5] {
        [
            ("lifetime_h", &mut self.lifetime_h),
            ("avg_power_mw", &mut self.avg_power_mw),
            ("radio_activations", &mut self.radio_activations),
            ("starved_s", &mut self.starved_s),
            ("offload_latency_s", &mut self.offload_latency_s),
        ]
    }

    fn write_text(&self, out: &mut String) {
        let _ = writeln!(out, "horizon_us {}", self.horizon.as_micros());
        let _ = writeln!(out, "observed {}", self.devices);
        self.totals.write_text(out);
        for (name, ch) in self.channels() {
            ch.write_text(name, out);
        }
    }
}

/// A streamed fleet run: scenario identity plus the aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Scenario name.
    pub scenario: String,
    /// Fleet seed.
    pub seed: u64,
    /// Per-device horizon.
    pub horizon: SimDuration,
    /// The aggregate.
    pub summary: StreamSummary,
}

impl StreamReport {
    /// Deterministic JSON through the same renderer as
    /// [`crate::FleetReport::to_json`] (percentiles are the streaming
    /// estimates; totals and min/max/mean are exact).
    pub fn to_json(&self) -> String {
        self.summary
            .fleet_summary()
            .to_json(&self.scenario, self.seed, self.horizon)
    }

    /// The five channel histograms as one deterministic CSV
    /// (`metric,bin_lo,count`, all bins, fixed order).
    pub fn histograms_csv(&self) -> String {
        let mut out = String::from("metric,bin_lo,count\n");
        for (name, ch) in self.summary.channels() {
            for (lo, c) in ch.bins() {
                let _ = writeln!(out, "{name},{lo:.6},{c}");
            }
        }
        out
    }
}

/// A paused streamed run: everything needed to finish it later in a fresh
/// process, serialised by [`FleetCheckpoint::to_text`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Scenario name (identity check on resume).
    pub scenario: String,
    /// Fleet seed (identity check on resume).
    pub seed: u64,
    /// Total fleet size.
    pub fleet_devices: u32,
    /// Per-device horizon.
    pub horizon: SimDuration,
    /// First device id not yet simulated. Because device `i` draws
    /// everything from `root.split(i)` (a pure function of seed and id),
    /// this cursor *is* the per-device RNG stream position.
    pub next_device: u64,
    /// Aggregate over devices `0..next_device`.
    pub summary: StreamSummary,
}

/// The checkpoint format this build reads and writes. v1 predates the
/// offload economy's counters, v2 the policy engine's, v3 the fault
/// layer's; a summary restored through an old layout would silently zero
/// the missing accumulators, so old versions are rejected outright rather
/// than migrated. v4 also appends a `checksum` line (FNV-1a 64 over every
/// preceding byte) so truncated or bit-flipped files are rejected by name.
pub const CHECKPOINT_FORMAT: &str = "cinder-fleet-checkpoint v4";

/// FNV-1a 64-bit over the checkpoint body: cheap, dependency-free, and
/// stable across platforms — integrity against truncation and bit rot,
/// not an adversary.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FleetCheckpoint {
    /// Deterministic text serialisation. Floats travel as `f64::to_bits`
    /// hex, so `from_text(to_text(cp)) == cp` bit-for-bit. The
    /// second-to-last line checksums everything above it.
    pub fn to_text(&self) -> String {
        let mut out = String::from(CHECKPOINT_FORMAT);
        out.push('\n');
        let _ = writeln!(out, "scenario {}", json_string(&self.scenario));
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "fleet_devices {}", self.fleet_devices);
        let _ = writeln!(out, "next_device {}", self.next_device);
        self.summary.write_text(&mut out);
        let sum = fnv1a_64(out.as_bytes());
        let _ = writeln!(out, "checksum {sum:016x}");
        out.push_str("end\n");
        out
    }

    /// Parses [`FleetCheckpoint::to_text`] output. A checkpoint written by
    /// an older format version (v1–v3) is rejected with an error naming
    /// both versions — resuming it through the current layout would
    /// silently drop accumulators — and one whose checksum line is missing
    /// or does not match its body (truncation, bit flips) is rejected
    /// before any field is trusted. A well-formed file that cannot describe
    /// a resumable run is rejected by name too: a zero horizon, `observed`
    /// ≠ `next_device` or a cursor past `fleet_devices`, a channel `cfg`
    /// other than [`StreamSummary::new`]'s for that horizon, or bins that
    /// do not sum to their channel's count.
    pub fn from_text(text: &str) -> Result<FleetCheckpoint, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header != CHECKPOINT_FORMAT {
            return Err(match header.strip_prefix("cinder-fleet-checkpoint ") {
                Some(version) => format!(
                    "checkpoint format {version} is not supported by this build \
                     (expected {CHECKPOINT_FORMAT}); re-run the checkpoint with a \
                     matching build instead of resuming it"
                ),
                None => format!("not a cinder-fleet checkpoint (first line `{header}`)"),
            });
        }
        // Verify integrity before trusting any field. The scenario name is
        // JSON-escaped onto a single line, so the last `\nchecksum ` in the
        // file is always the real checksum line.
        let body_end = text
            .rfind("\nchecksum ")
            .ok_or("checkpoint is missing its checksum line (truncated?)")?
            + 1;
        let stored_hex = text[body_end..]
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("checksum "))
            .unwrap_or("");
        let stored = u64::from_str_radix(stored_hex, 16)
            .map_err(|_| format!("bad checksum `{stored_hex}`"))?;
        let computed = fnv1a_64(&text.as_bytes()[..body_end]);
        if stored != computed {
            return Err(format!(
                "checkpoint checksum mismatch: stored {stored:016x}, computed \
                 {computed:016x} — the file is truncated or corrupted"
            ));
        }
        let mut field = |key: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing {key}"))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("expected `{key} …`, got `{line}`"))
        };
        let scenario = parse_json_string(&field("scenario")?)?;
        let seed = parse_num::<u64>(&field("seed")?)?;
        let fleet_devices = parse_num::<u32>(&field("fleet_devices")?)?;
        let next_device = parse_num::<u64>(&field("next_device")?)?;
        let horizon_us = parse_num::<u64>(&field("horizon_us")?)?;
        if horizon_us == 0 {
            return Err("checkpoint horizon_us is 0; a fleet horizon must be positive".into());
        }
        let horizon = SimDuration::from_micros(horizon_us);

        let mut summary = StreamSummary::new(horizon);
        summary.devices = parse_num(&field("observed")?)?;
        if summary.devices != next_device || next_device > u64::from(fleet_devices) {
            return Err(format!(
                "checkpoint observed {} devices with next_device {next_device} of \
                 fleet_devices {fleet_devices}; a resumable checkpoint has \
                 observed == next_device <= fleet_devices",
                summary.devices
            ));
        }
        summary.totals = FleetTotals::read_text(&mut field)?;
        for (name, ch) in summary.channels_mut() {
            ch.read_text(name, &mut field)?;
        }
        let _ = field("checksum")?;
        if lines.next() != Some("end") {
            return Err("missing end marker".into());
        }
        Ok(FleetCheckpoint {
            scenario,
            seed,
            fleet_devices,
            horizon,
            next_device,
            summary,
        })
    }
}

pub(crate) fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

/// Parses `N` space-separated `f64::to_bits` hex words.
fn parse_bits_row<const N: usize>(s: &str) -> Result<[f64; N], String> {
    let mut out = [0.0; N];
    let mut it = s.split(' ');
    for slot in &mut out {
        let word = it.next().ok_or_else(|| format!("short float row `{s}`"))?;
        let bits = u64::from_str_radix(word, 16).map_err(|_| format!("bad float bits `{word}`"))?;
        *slot = f64::from_bits(bits);
    }
    Ok(out)
}

/// Parses the `json_string` rendering back (enough for names we emit:
/// quoted, with `\"`/`\\`/`\n`/`\t` escapes).
fn parse_json_string(s: &str) -> Result<String, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("bad string `{s}`"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(c @ ('"' | '\\')) => out.push(c),
            other => return Err(format!("bad escape `\\{other:?}`")),
        }
    }
    Ok(out)
}

/// Streams devices `[from, to)` of `scenario` across `threads` workers and
/// returns the merged summary. Memory is O(workers × bins): specs are
/// derived per device (`spec_for`), reports are folded and dropped.
pub fn stream_fleet_span(scenario: &Scenario, from: u64, to: u64, threads: usize) -> StreamSummary {
    let to = to.min(scenario.devices as u64);
    let from = from.min(to);
    let span = (to - from) as usize;
    let threads = threads.max(1).min(span.max(1));
    let cursor = AtomicUsize::new(0);
    let merged = Mutex::new(StreamSummary::new(scenario.horizon));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = DeviceScratch::default();
                let mut local = StreamSummary::new(scenario.horizon);
                loop {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= span {
                        break;
                    }
                    let end = (start + CHUNK).min(span);
                    for id in from + start as u64..from + end as u64 {
                        let spec = scenario.spec_for(id);
                        let report = crate::device::simulate_device_with(&spec, &mut scratch);
                        local.observe(&report);
                    }
                }
                // Merge order across workers is arbitrary; every
                // accumulator is exactly commutative, so the result is
                // byte-identical regardless.
                merged
                    .lock()
                    .expect("no worker panics while holding it")
                    .merge(&local);
            });
        }
    });

    merged.into_inner().expect("workers joined")
}

/// Streams the whole fleet on `threads` workers.
pub fn stream_fleet_with(scenario: &Scenario, threads: usize) -> StreamReport {
    StreamReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        horizon: scenario.horizon,
        summary: stream_fleet_span(scenario, 0, scenario.devices as u64, threads),
    }
}

/// Streams the whole fleet on all available cores.
pub fn stream_fleet(scenario: &Scenario) -> StreamReport {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    stream_fleet_with(scenario, threads)
}

/// Streams devices `0..upto` and packages the paused run as a checkpoint.
pub fn checkpoint_fleet(scenario: &Scenario, upto: u64, threads: usize) -> FleetCheckpoint {
    let upto = upto.min(scenario.devices as u64);
    FleetCheckpoint {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        fleet_devices: scenario.devices,
        horizon: scenario.horizon,
        next_device: upto,
        summary: stream_fleet_span(scenario, 0, upto, threads),
    }
}

/// Finishes a checkpointed run: simulates the remaining devices and merges
/// them into the checkpoint's summary. Errs if `checkpoint` was taken
/// against a different scenario identity.
pub fn resume_fleet(
    checkpoint: &FleetCheckpoint,
    scenario: &Scenario,
    threads: usize,
) -> Result<StreamReport, String> {
    let identity = (
        checkpoint.scenario == scenario.name,
        checkpoint.seed == scenario.seed,
        checkpoint.fleet_devices == scenario.devices,
        checkpoint.horizon == scenario.horizon,
    );
    if identity != (true, true, true, true) {
        return Err(format!(
            "checkpoint is for {}/seed {}/{} devices/{} s, not {}/seed {}/{} devices/{} s",
            checkpoint.scenario,
            checkpoint.seed,
            checkpoint.fleet_devices,
            checkpoint.horizon.as_secs_f64(),
            scenario.name,
            scenario.seed,
            scenario.devices,
            scenario.horizon.as_secs_f64(),
        ));
    }
    let mut summary = checkpoint.summary.clone();
    summary.merge(&stream_fleet_span(
        scenario,
        checkpoint.next_device,
        scenario.devices as u64,
        threads,
    ));
    Ok(StreamReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        horizon: scenario.horizon,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_channel(n: u64) -> Channel {
        // n values spread uniformly over [0, 100).
        let mut ch = Channel::new(1e6, 0.0, 100.0);
        for i in 0..n {
            ch.observe(i as f64 * 100.0 / n as f64);
        }
        ch
    }

    #[test]
    fn channel_quantiles_bracket_and_order() {
        let ch = uniform_channel(1_000);
        let q = |p: f64| ch.quantile(p).unwrap();
        assert_eq!(q(0.0), 0.0);
        assert_eq!(q(100.0), ch.max);
        assert!(q(50.0) < q(90.0) && q(90.0) < q(99.0));
        // One-bin resolution over [0,100) with 256 bins.
        assert!((q(50.0) - 50.0).abs() < 1.0, "{}", q(50.0));
        assert!((q(90.0) - 90.0).abs() < 1.0, "{}", q(90.0));
    }

    #[test]
    fn channel_empty_and_singleton() {
        let empty = Channel::new(1.0, 0.0, 10.0);
        assert_eq!(empty.quantile(50.0), None);
        assert_eq!(empty.summary(), None);
        let mut one = Channel::new(1.0, 0.0, 10.0);
        one.observe(7.0);
        assert_eq!(one.quantile(0.0), Some(7.0));
        assert_eq!(one.quantile(50.0), Some(7.0));
        assert_eq!(one.quantile(100.0), Some(7.0));
        assert_eq!(one.mean(), Some(7.0));
    }

    #[test]
    fn channel_clamps_out_of_range_and_skips_nonfinite() {
        let mut ch = Channel::new(1e6, 0.0, 10.0);
        ch.observe(-5.0);
        ch.observe(50.0);
        ch.observe(f64::INFINITY);
        ch.observe(f64::NAN);
        assert_eq!(ch.count, 2);
        assert_eq!(ch.nonfinite, 2);
        assert_eq!(ch.min, -5.0);
        assert_eq!(ch.max, 50.0);
        assert_eq!(ch.counts[0], 1);
        assert_eq!(ch.counts[STREAM_BINS - 1], 1);
        // Quantiles stay inside the exact envelope despite clamped bins.
        let q = ch.quantile(50.0).unwrap();
        assert!((-5.0..=50.0).contains(&q));
    }

    #[test]
    fn merge_is_exactly_order_independent() {
        let full = uniform_channel(999);
        // Re-observe the same values split across three parts, merged in a
        // different order than observed.
        let mut parts = [
            Channel::new(1e6, 0.0, 100.0),
            Channel::new(1e6, 0.0, 100.0),
            Channel::new(1e6, 0.0, 100.0),
        ];
        for i in 0..999u64 {
            parts[(i % 3) as usize].observe(i as f64 * 100.0 / 999.0);
        }
        let mut merged = parts[2].clone();
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged, full);
    }

    #[test]
    fn checkpoint_text_round_trips_bit_exactly() {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(120),
            ..Scenario::mixed("ckpt \"quoted\"", 7, 6)
        };
        let cp = checkpoint_fleet(&scenario, 4, 2);
        let text = cp.to_text();
        let back = FleetCheckpoint::from_text(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(FleetCheckpoint::from_text("").is_err());
        // Old format versions are named in the error, not silently
        // migrated (their layouts are missing accumulators).
        for old in ["v1", "v2", "v3"] {
            let err = FleetCheckpoint::from_text(&format!("cinder-fleet-checkpoint {old}\nnope"))
                .unwrap_err();
            assert!(err.contains(old) && err.contains("v4"), "{err}");
        }
        assert!(FleetCheckpoint::from_text("cinder-fleet-checkpoint v4\nnope").is_err());
    }

    #[test]
    fn from_text_rejects_corruption() {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("integrity", 3, 4)
        };
        let text = checkpoint_fleet(&scenario, 2, 1).to_text();

        // A single flipped bit anywhere in the body breaks the checksum.
        let target = "seed 3";
        let flipped = text.replacen(target, "seed 7", 1);
        assert_ne!(flipped, text);
        let err = FleetCheckpoint::from_text(&flipped).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // A flipped digit inside the checksum line itself is also caught.
        let sum_at = text.rfind("checksum ").unwrap() + "checksum ".len();
        let digit = text.as_bytes()[sum_at] as char;
        let swap = if digit == '0' { '1' } else { '0' };
        let mut bad_sum = text.clone();
        bad_sum.replace_range(sum_at..sum_at + 1, &swap.to_string());
        let err = FleetCheckpoint::from_text(&bad_sum).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // Truncation loses the checksum line entirely.
        let truncated = &text[..text.rfind("checksum ").unwrap()];
        let err = FleetCheckpoint::from_text(truncated).unwrap_err();
        assert!(err.contains("missing its checksum"), "{err}");
    }

    /// `text` with the first `from` replaced by `to` and the checksum
    /// recomputed: a crafted checkpoint, not a corrupted one.
    fn recheck(text: &str, from: &str, to: &str) -> String {
        let body = text[..text.rfind("checksum ").unwrap()].replacen(from, to, 1);
        assert!(body.contains(to), "`{from}` not found");
        format!("{body}checksum {:016x}\nend\n", fnv1a_64(body.as_bytes()))
    }

    fn eight_device_checkpoint() -> (Scenario, String) {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("crafted", 5, 8)
        };
        let text = checkpoint_fleet(&scenario, 4, 1).to_text();
        (scenario, text)
    }

    /// The first channel's `cfg` line and its three hex words.
    fn first_cfg(text: &str) -> (&str, Vec<&str>) {
        let line = text.lines().find(|l| l.starts_with("cfg ")).unwrap();
        (line, line.split(' ').skip(1).collect())
    }

    #[test]
    fn from_text_rejects_a_degenerate_channel_range() {
        let (_, text) = eight_device_checkpoint();
        let (line, w) = first_cfg(&text);
        let crafted = recheck(&text, line, &format!("cfg {} {} {}", w[0], w[1], w[1]));
        let err = FleetCheckpoint::from_text(&crafted).unwrap_err();
        assert!(err.contains("lifetime_h cfg"), "{err}");
    }

    #[test]
    fn from_text_rejects_a_foreign_channel_scale() {
        let (scenario, text) = eight_device_checkpoint();
        let (line, w) = first_cfg(&text);
        let other = format!("cfg {:016x} {} {}", 1f64.to_bits(), w[1], w[2]);
        let crafted = recheck(&text, line, &other);
        let err = FleetCheckpoint::from_text(&crafted).unwrap_err();
        assert!(err.contains("lifetime_h cfg"), "{err}");
        // The untouched checkpoint still resumes.
        let cp = FleetCheckpoint::from_text(&text).unwrap();
        assert_eq!(resume_fleet(&cp, &scenario, 1).unwrap().summary.devices, 8);
    }

    #[test]
    fn from_text_rejects_an_inconsistent_device_cursor() {
        let (_, text) = eight_device_checkpoint();
        // More devices observed than the cursor has passed: resuming would
        // fold 7 + 4 devices into an 8-device fleet.
        let crafted = recheck(&text, "observed 4", "observed 7");
        let err = FleetCheckpoint::from_text(&crafted).unwrap_err();
        assert!(err.contains("observed 7"), "{err}");
        // A cursor past the end of the fleet.
        let past_end = recheck(&text, "next_device 4", "next_device 9");
        let past_end = recheck(&past_end, "observed 4", "observed 9");
        let err = FleetCheckpoint::from_text(&past_end).unwrap_err();
        assert!(err.contains("fleet_devices 8"), "{err}");
    }

    #[test]
    fn from_text_rejects_a_zero_horizon() {
        let (_, text) = eight_device_checkpoint();
        let crafted = recheck(&text, "horizon_us 60000000", "horizon_us 0");
        let err = FleetCheckpoint::from_text(&crafted).unwrap_err();
        assert!(err.contains("horizon_us"), "{err}");
    }

    #[test]
    fn from_text_rejects_bins_that_disagree_with_their_count() {
        let (_, text) = eight_device_checkpoint();
        let crafted = recheck(&text, "count 4 0", "count 5 0");
        let err = FleetCheckpoint::from_text(&crafted).unwrap_err();
        assert!(err.contains("counts sum to 4, not its count 5"), "{err}");
    }

    #[test]
    fn resume_rejects_identity_mismatch() {
        let a = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("a", 1, 4)
        };
        let b = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("b", 1, 4)
        };
        let cp = checkpoint_fleet(&a, 2, 1);
        assert!(resume_fleet(&cp, &b, 1).is_err());
        assert!(resume_fleet(&cp, &a, 1).is_ok());
    }
}
