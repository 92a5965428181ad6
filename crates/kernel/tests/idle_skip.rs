//! Differential tests for the idle fast-forward (`KernelConfig::idle_skip`)
//! and the throttle-wait jump `KernelConfig::fast_forward` adds to it.
//!
//! The flags must be a pure wall-clock optimisation: every observable — the
//! meter's integrated energy, every reserve balance, radio statistics,
//! per-thread accounting including throttled time — is bit-identical with
//! and without them, across sleeping workloads, radio episodes, the pooling
//! (netd) stack whose blocked senders must keep being polled, and Ready
//! threads waiting on a tap to fund their next quantum.

use cinder_apps::{PeriodicPoller, PollerLog};
use cinder_core::{Actor, GraphConfig, RateSpec, ReserveId};
use cinder_kernel::{Ctx, FnProgram, Kernel, KernelConfig, Step};
use cinder_label::Label;
use cinder_net::{CoopNetd, UncoopStack};
use cinder_sim::{Energy, Power, SimDuration, SimTime};

/// The `(idle_skip, fast_forward)` settings a throttle-wait case must agree
/// across: the literal loop, the idle skip alone, and both.
const MODES: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

/// Everything observable about a finished run, for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    now_us: u64,
    meter_uj: i64,
    balances: Vec<i64>,
    consumed: Vec<i64>,
    radio_activations: u64,
    radio_tx: u64,
    radio_rx: u64,
    thread_energy: Vec<i64>,
    thread_throttled_us: Vec<u64>,
}

fn fingerprint(k: &Kernel) -> Fingerprint {
    Fingerprint {
        now_us: k.now().as_micros(),
        meter_uj: k.meter().total_energy().as_microjoules(),
        balances: k
            .graph()
            .reserves()
            .map(|(_, r)| r.balance().as_microjoules())
            .collect(),
        consumed: k
            .graph()
            .reserves()
            .map(|(_, r)| r.stats().consumed.as_microjoules())
            .collect(),
        radio_activations: k.arm9().radio().stats().activations,
        radio_tx: k.arm9().radio().stats().tx_bytes,
        radio_rx: k.arm9().radio().stats().rx_bytes,
        thread_energy: k
            .thread_ids()
            .iter()
            .map(|&t| k.thread_consumed(t).as_microjoules())
            .collect(),
        thread_throttled_us: k
            .thread_ids()
            .iter()
            .map(|&t| k.thread_throttled(t).as_micros())
            .collect(),
    }
}

fn config(idle_skip: bool, fast_forward: bool) -> KernelConfig {
    KernelConfig {
        seed: 11,
        idle_skip,
        fast_forward,
        ..KernelConfig::default()
    }
}

fn tapped(k: &mut Kernel, name: &str, uw: u64) -> ReserveId {
    let root = Actor::kernel();
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&root, name, Label::default_label())
        .unwrap();
    k.graph_mut()
        .create_tap(
            &root,
            &format!("{name}-tap"),
            battery,
            r,
            RateSpec::constant(Power::from_microwatts(uw)),
            Label::default_label(),
        )
        .unwrap();
    r
}

fn spinner() -> Box<FnProgram<impl FnMut(&mut Ctx<'_>) -> Step>> {
    Box::new(FnProgram(|_: &mut Ctx<'_>| {
        Step::compute(SimDuration::from_millis(10))
    }))
}

/// Runs `build` under every mode and asserts one outcome for all three.
fn assert_modes_agree<T: PartialEq + std::fmt::Debug>(build: impl Fn(KernelConfig) -> T) -> T {
    let [stepped, skip, ff] = MODES.map(|(skip, ff)| build(config(skip, ff)));
    assert_eq!(stepped, skip, "idle_skip alone diverged from stepping");
    assert_eq!(
        stepped, ff,
        "idle_skip + fast_forward diverged from stepping"
    );
    stepped
}

fn total_throttled(k: &Kernel) -> SimDuration {
    k.thread_ids()
        .iter()
        .fold(SimDuration::ZERO, |a, &t| a + k.thread_throttled(t))
}

/// Sleep-heavy square wave (the shape idle skip accelerates most), with
/// decay ON so the skipped spans also exercise the decay grid.
#[test]
fn square_wave_identical_with_and_without_skip() {
    assert_modes_agree(|cfg| {
        let mut k = Kernel::new(cfg);
        let r = tapped(&mut k, "wave", 200_000);
        let mut computing = false;
        k.spawn_unprivileged(
            "wave",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                computing = !computing;
                if computing {
                    Step::compute(SimDuration::from_millis(300))
                } else {
                    Step::SleepUntil(ctx.now() + SimDuration::from_secs(20))
                }
            })),
            r,
        );
        k.run_until(SimTime::from_secs(400));
        fingerprint(&k)
    });
}

/// Uncooperative pollers: radio ramps, plateaus, and sleep timeouts all
/// land on identical boundaries under the fast-forward.
#[test]
fn uncoop_pollers_identical_with_and_without_skip() {
    assert_modes_agree(|cfg| {
        let mut k = Kernel::new(cfg);
        k.install_net(Box::new(UncoopStack::new()));
        let log = PollerLog::shared();
        let r_rss = tapped(&mut k, "rss", 37_500);
        let r_mail = tapped(&mut k, "mail", 37_500);
        k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), r_rss);
        k.spawn_unprivileged("mail", Box::new(PeriodicPoller::mail(log.clone())), r_mail);
        k.run_until(SimTime::from_secs(600));
        let sends = log.borrow().sends.clone();
        (fingerprint(&k), sends)
    });
}

/// Cooperative netd: blocked senders force per-quantum polling (the stack
/// reports non-idle), so pooling grants land at identical instants.
#[test]
fn coop_netd_identical_with_and_without_skip() {
    let (_, blocked) = assert_modes_agree(|cfg| {
        let mut k = Kernel::new(cfg);
        let netd = CoopNetd::with_defaults(k.graph_mut());
        k.install_net(Box::new(netd));
        let log = PollerLog::shared();
        let r_rss = tapped(&mut k, "rss", 37_500);
        let r_mail = tapped(&mut k, "mail", 37_500);
        k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), r_rss);
        k.spawn_unprivileged("mail", Box::new(PeriodicPoller::mail(log.clone())), r_mail);
        k.run_until(SimTime::from_secs(600));
        let log = log.borrow();
        ((fingerprint(&k), log.sends.clone()), log.blocked_first)
    });
    assert!(blocked >= 2, "scenario must exercise pooling");
}

/// A ready-but-starved thread: its tap may refill the reserve mid-span, so
/// the idle skip alone must not engage while it exists, and fast-forward's
/// throttle-wait jump must land on the refill — the throttled-time
/// accounting agrees exactly either way.
#[test]
fn starved_ready_thread_blocks_skipping_correctly() {
    let throttled = assert_modes_agree(|cfg| {
        let mut k = Kernel::new(cfg);
        // A tap so slow the thread runs one quantum every ~7 s.
        let r = tapped(&mut k, "trickle", 200);
        let t = k.spawn_unprivileged("trickle", spinner(), r);
        k.run_until(SimTime::from_secs(120));
        (fingerprint(&k), k.thread_throttled(t))
    })
    .1;
    assert!(
        throttled > SimDuration::from_secs(60),
        "scenario must exercise starvation ({throttled:?})"
    );
}

/// Sanity: with everything exited, the skip sprints to the horizon and the
/// meter still integrates the idle floor exactly.
#[test]
fn idle_tail_meters_exactly() {
    let mut k = Kernel::new(KernelConfig {
        idle_skip: true,
        graph: GraphConfig {
            decay: None,
            ..GraphConfig::default()
        },
        ..KernelConfig::default()
    });
    let root = Actor::kernel();
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&root, "brief", Label::default_label())
        .unwrap();
    k.graph_mut()
        .transfer(&root, battery, r, Energy::from_joules(1))
        .unwrap();
    let mut done = false;
    k.spawn_unprivileged(
        "brief",
        Box::new(FnProgram(move |_: &mut Ctx<'_>| {
            if done {
                Step::Exit
            } else {
                done = true;
                Step::compute(SimDuration::from_millis(10))
            }
        })),
        r,
    );
    k.run_until(SimTime::from_secs(1_000));
    // 699 mW idle floor for 1000 s + one busy quantum of 137 mW.
    let expected = 699_000 * 1_000 + 137_000 / 100;
    assert_eq!(k.meter().total_energy().as_microjoules(), expected);
}

/// Pooling mode: cooperative netd holds the pollers' sends while Ready
/// spinners starve — one on its own tap slower than its CPU cost, one
/// sharing a blocked sender's reserve, so netd's sweep takes each tick's
/// refill before `pick_next` could see it.
#[test]
fn coop_netd_pooling_with_starved_ready_thread() {
    let (fp, blocked, throttled) = assert_modes_agree(|cfg| {
        let mut k = Kernel::new(cfg);
        let netd = CoopNetd::with_defaults(k.graph_mut());
        k.install_net(Box::new(netd));
        let log = PollerLog::shared();
        let r_rss = tapped(&mut k, "rss", 37_500);
        let r_mail = tapped(&mut k, "mail", 37_500);
        k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), r_rss);
        k.spawn_unprivileged("mail", Box::new(PeriodicPoller::mail(log.clone())), r_mail);
        // 20 mW against a 137 mW quantum: runs about one quantum in seven.
        let r_slow = tapped(&mut k, "slow", 20_000);
        k.spawn_unprivileged("slow", spinner(), r_slow);
        k.spawn_unprivileged("sharer", spinner(), r_mail);
        k.run_until(SimTime::from_secs(600));
        let (sends, blocked) = {
            let log = log.borrow();
            (log.sends.clone(), log.blocked_first)
        };
        ((fingerprint(&k), sends), blocked, total_throttled(&k))
    });
    assert!(blocked >= 2, "scenario must exercise pooling");
    assert!(
        throttled > SimDuration::from_secs(600),
        "scenario must exercise throttle-wait ({throttled:?}, fp {fp:?})"
    );
}

/// A constant tap whose refill repays the deficit in exactly `k` ticks.
/// One quantum costs 1_370 µJ; a 2_740 µW tap refills 274 µJ per 100 ms
/// tick, so from an empty reserve the balance lands on exactly zero (still
/// unfundable) one tick before the thread can run. Starting 1 µJ in debt
/// makes every deficit 1_097 µJ, where the bound's carry slack leaves no
/// spare tick: the jump must land on the very boundary that funds the
/// thread. Off-by-one rates leave a sub-µJ carry instead, and a partner
/// spinner exercises the scheduler's multi-Ready replay.
#[test]
fn constant_tap_deficit_of_exactly_k_ticks() {
    let cases = [
        (2_740, 0, 0),
        (2_740, 1, 0),
        (2_740, 1, 13_700),
        (2_741, 0, 1_370),
        (1_370, 0, 2_739),
        (13_700, 0, 0),
    ];
    for (rate_uw, debt_uj, partner_uw) in cases {
        let throttled = assert_modes_agree(|cfg| {
            let mut k = Kernel::new(KernelConfig {
                graph: GraphConfig {
                    decay: None,
                    ..GraphConfig::default()
                },
                ..cfg
            });
            let r = tapped(&mut k, "exact", rate_uw);
            k.graph_mut()
                .consume_with_debt(&Actor::kernel(), r, Energy::from_microjoules(debt_uj))
                .unwrap();
            k.spawn_unprivileged("exact", spinner(), r);
            if partner_uw > 0 {
                let p = tapped(&mut k, "partner", partner_uw);
                k.spawn_unprivileged("partner", spinner(), p);
            }
            // Off the 500 ms run period, so a boundary skipped too far
            // shifts the run phase into a different final count.
            k.run_until(SimTime::from_millis(90_150));
            (fingerprint(&k), total_throttled(&k))
        })
        .1;
        assert!(
            throttled > SimDuration::from_secs(60),
            "rate {rate_uw} µW must starve ({throttled:?})"
        );
    }
}

/// A Wake event in the middle of a throttle wait: a sleeper on an
/// off-grid period wakes, runs briefly and sleeps again while a starved
/// spinner waits on a slow tap. The event must bound every jump, and the
/// woken thread's quantum must land on the same boundary in every mode.
#[test]
fn wake_event_inside_a_throttle_wait() {
    assert_modes_agree(|cfg| {
        let mut k = Kernel::new(cfg);
        let r = tapped(&mut k, "starved", 1_000);
        k.spawn_unprivileged("starved", spinner(), r);
        let r_sleeper = tapped(&mut k, "sleeper", 500_000);
        let mut computing = false;
        k.spawn_unprivileged(
            "sleeper",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                computing = !computing;
                if computing {
                    Step::compute(SimDuration::from_millis(20))
                } else {
                    Step::SleepUntil(ctx.now() + SimDuration::from_micros(1_234_567))
                }
            })),
            r_sleeper,
        );
        k.run_until(SimTime::from_secs(120));
        fingerprint(&k)
    });
}

/// A proportional inbound tap has no static refill bound, so the jump
/// must refuse and step; the mixed const + proportional feed and the
/// backward proportional tap draining the funder keep the graph live.
#[test]
fn proportional_inbound_tap_is_refused() {
    let throttled = assert_modes_agree(|cfg| {
        let mut k = Kernel::new(cfg);
        let root = Actor::kernel();
        let funder = tapped(&mut k, "funder", 30_000);
        let r = tapped(&mut k, "prop-fed", 2_000);
        k.graph_mut()
            .create_tap(
                &root,
                "prop",
                funder,
                r,
                RateSpec::proportional(0.02),
                Label::default_label(),
            )
            .unwrap();
        let t = k.spawn_unprivileged("prop-fed", spinner(), r);
        k.run_until(SimTime::from_secs(120));
        (fingerprint(&k), k.thread_throttled(t))
    })
    .1;
    assert!(
        throttled > SimDuration::from_secs(30),
        "must starve ({throttled:?})"
    );
}
