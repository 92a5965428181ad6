//! The traced driver: one device rebuilt from the layers' public calls and
//! driven span by span, with the time of every call into a layer added to
//! that layer's total.
//!
//! It follows the fleet's device driver step for step, except that it
//! splits the horizon on a fixed 60 s grid instead of the fleet's own
//! epochs. `Kernel::run_span` gives the same result however a horizon is
//! split, so the end state must equal `simulate_device` on the same spec;
//! [`EndState::mismatches`] checks that it does.

use std::time::Instant;

use cinder_apps::{OffloadSetup, WorkloadEnv};
use cinder_core::SchedulerConfig;
use cinder_faults::FaultPlan;
use cinder_fleet::{DeviceReport, DeviceSpec, FaultRuntime, PolicyRuntime};
use cinder_kernel::{Kernel, KernelConfig, OffloadStats};
use cinder_offload::BackendTrace;
use cinder_sim::{SimDuration, SimTime};

use crate::clock::span;

/// Simulated length of one grid chunk handed to `Kernel::run_span`.
const CHUNK: SimDuration = SimDuration::from_secs(60);

/// Wall nanoseconds and call counts per layer, summed over traced devices.
#[derive(Debug, Default)]
pub struct Spans {
    /// `Kernel::run_span`.
    pub run_span_ns: u64,
    /// `Workload::program`, `WorkloadProgram::configure` and `install`
    /// (`Kernel::new`, called between them, excluded).
    pub install_ns: u64,
    /// Workloads installed.
    pub installs: u64,
    /// `PolicyRuntime::apply`.
    pub policy_apply_ns: u64,
    /// `PolicyRuntime::apply` calls.
    pub policy_applies: u64,
    /// `FaultRuntime::apply`.
    pub fault_apply_ns: u64,
    /// `FaultRuntime::apply` calls.
    pub fault_applies: u64,
    /// Whole traced devices, first call to last.
    pub device_ns: u64,
    /// Simulated seconds driven.
    pub sim_s: f64,
}

/// What the traced driver compares against the fleet's report.
#[derive(Debug)]
pub struct EndState {
    battery_remaining_uj: i64,
    total_energy_uj: i64,
    offload: OffloadStats,
    link_flaps: u64,
    flap_lost_bytes: u64,
    crashes: u64,
    restarts: u64,
}

impl EndState {
    /// Names of the fields on which `report` disagrees with this state.
    pub fn mismatches(&self, report: &DeviceReport) -> Vec<&'static str> {
        let o = &self.offload;
        [
            (
                "battery",
                self.battery_remaining_uj == report.battery_remaining_uj,
            ),
            ("energy", self.total_energy_uj == report.total_energy_uj),
            ("offload_attempts", o.attempts == report.offload_attempts),
            ("offload_accepted", o.accepted == report.offload_accepted),
            ("offload_completed", o.completed == report.offload_completed),
            ("offload_rejected", o.rejected == report.offload_rejected),
            ("offload_timed_out", o.timed_out == report.offload_timed_out),
            (
                "offload_latency",
                o.latency_us_sum == report.offload_latency_us,
            ),
            ("link_flaps", self.link_flaps == report.link_flaps),
            (
                "flap_lost_bytes",
                self.flap_lost_bytes == report.flap_lost_bytes,
            ),
            ("crashes", self.crashes == report.crashes),
            ("restarts", self.restarts == report.restarts),
        ]
        .into_iter()
        .filter_map(|(name, same)| (!same).then_some(name))
        .collect()
    }
}

/// The per-device parameters the fleet driver hands the workload.
fn env_for(spec: &DeviceSpec) -> WorkloadEnv {
    WorkloadEnv {
        rate_scale_ppm: spec.rate_scale_ppm,
        interval_scale_ppm: spec.interval_scale_ppm,
        data_plan_bytes: spec.data_plan.map(|p| p.bytes),
        offload: spec.offload.map(|profile| OffloadSetup {
            profile,
            horizon: spec.horizon,
            outages: spec.faults.and_then(|f| f.outages),
        }),
        faults: spec.faults,
    }
}

/// Builds the shared-backend trace an offloader device's install builds:
/// the offload layer's cost, timed apart from the install that contains it.
pub fn backend_trace(spec: &DeviceSpec) -> BackendTrace {
    let setup = env_for(spec).offload.unwrap_or_else(OffloadSetup::nominal);
    match setup.outages {
        Some(outages) => BackendTrace::build_with_outages(
            setup.profile,
            setup.horizon,
            &FaultPlan::outage_windows(&outages, setup.horizon),
        ),
        None => BackendTrace::build(setup.profile, setup.horizon),
    }
}

/// The first instant on the chunk grid strictly after `now`.
fn next_grid_point(now: SimTime) -> SimTime {
    let chunk = CHUNK.as_micros();
    let at = (now - SimTime::ZERO).as_micros() / chunk + 1;
    SimTime::ZERO + SimDuration::from_micros(at * chunk)
}

/// Drives one device to its horizon, adding each layer's time to `spans`.
pub fn drive(spec: &DeviceSpec, spans: &mut Spans) -> EndState {
    let started = Instant::now();
    let (mut kernel, mut installed) = {
        let mut install_ns = 0;
        let mut kernel_new_ns = 0;
        let built = span(&mut install_ns, || {
            let program = spec.workload.program();
            let mut config = KernelConfig {
                battery: spec.battery,
                seed: spec.seed,
                idle_skip: true,
                fast_forward: spec.fast_forward,
                sched: SchedulerConfig {
                    quantum: spec.quantum,
                    ..SchedulerConfig::default()
                },
                ..KernelConfig::default()
            };
            program.configure(&mut config);
            let mut kernel = span(&mut kernel_new_ns, || Kernel::new(config));
            let installed = program
                .install(&mut kernel, &env_for(spec))
                .expect("root can install the workload topology");
            (kernel, installed)
        });
        spans.install_ns += install_ns - kernel_new_ns;
        spans.installs += 1;
        built
    };

    let mut faults = spec
        .faults
        .filter(|config| config.any_device_faults())
        .map(|config| FaultRuntime::new(config, spec, &mut kernel));
    let mut policy = spec
        .policy
        .map(|config| PolicyRuntime::new(config, spec, &installed));
    if let Some(rt) = policy.as_mut() {
        span(&mut spans.policy_apply_ns, || rt.apply(&mut kernel, spec));
        spans.policy_applies += 1;
    }

    let end = SimTime::ZERO + spec.horizon;
    let mut now = kernel.now();
    while now < end {
        if let Some(frt) = faults.as_mut() {
            span(&mut spans.fault_apply_ns, || {
                frt.apply(&mut kernel, &mut installed.respawns, now)
            });
            spans.fault_applies += 1;
        }
        let mut target = end.min(next_grid_point(now));
        if let Some(rt) = policy.as_ref() {
            target = target.min(rt.next_tick());
        }
        if let Some(boundary) = faults.as_ref().and_then(|frt| frt.next_boundary()) {
            if boundary > now {
                target = target.min(boundary);
            }
        }
        span(&mut spans.run_span_ns, || kernel.run_span(target));
        let landed = kernel.now();
        now = if landed > now { landed } else { target };
        if let Some(rt) = policy.as_mut() {
            if rt.due(now) && now < end {
                span(&mut spans.policy_apply_ns, || rt.apply(&mut kernel, spec));
                spans.policy_applies += 1;
            }
        }
    }
    kernel.run_until(end);

    let battery = kernel
        .graph()
        .reserve(kernel.battery())
        .map(|r| r.balance().as_microjoules())
        .unwrap_or(0);
    let counters = kernel.fault_counters();
    let state = EndState {
        battery_remaining_uj: battery,
        total_energy_uj: kernel.meter().total_energy().as_microjoules(),
        offload: kernel.offload_stats(),
        link_flaps: counters.link_flaps,
        flap_lost_bytes: counters.lost_bytes,
        crashes: faults.as_ref().map_or(0, |frt| frt.crashes),
        restarts: faults.as_ref().map_or(0, |frt| frt.restarts),
    };
    spans.device_ns += started.elapsed().as_nanos() as u64;
    spans.sim_s += spec.horizon.as_secs_f64();
    state
}
