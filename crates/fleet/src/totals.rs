//! The telemetry table: every exact fleet total, declared once.
//!
//! Each row of the `fleet_totals!` invocation below names one total,
//! its integer type, what one [`DeviceReport`] adds to it, and what it
//! means. From that row the macro generates the [`FleetTotals`] field and
//! its zero, its share of [`FleetTotals::observe`] and
//! [`FleetTotals::merge`], its checkpoint line (written and parsed in row
//! order), and a getter carrying the same doc comment.
//!
//! The retained report ([`crate::FleetReport::summary`]) and the streamed
//! summary ([`crate::StreamSummary`]) fold devices through the same
//! `observe`, so their totals agree exactly. Sums are `i128`/`u128` and
//! counts `u64`: integer addition is exactly commutative, so any worker
//! count and merge order yields the same bits.
//!
//! A new summed report field touches `DeviceReport`, its extraction in
//! `device.rs`, the CSV in `report.rs`, and one row here (plus a JSON
//! line if it should be rendered).

use std::fmt::Write as _;

use crate::device::DeviceReport;
use crate::stream::parse_num;

macro_rules! fleet_totals {
    ($( $(#[doc = $doc:literal])+ $key:ident: $ty:ty = |$d:ident| $add:expr; )+) => {
        /// Exact fleet-wide totals over a set of devices, one field per
        /// row of the telemetry table (module docs).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct FleetTotals {
            $( $(#[doc = $doc])+ $key: $ty, )+
        }

        impl FleetTotals {
            /// Folds one device's report in.
            pub fn observe(&mut self, report: &DeviceReport) {
                $( self.$key += { let $d = report; <$ty>::from($add) }; )+
            }

            /// Exact merge of another partial total.
            pub fn merge(&mut self, other: &FleetTotals) {
                $( self.$key += other.$key; )+
            }

            /// One `key value` checkpoint line per total, in table order.
            pub(crate) fn write_text(&self, out: &mut String) {
                $( let _ = writeln!(out, concat!(stringify!($key), " {}"), self.$key); )+
            }

            /// Parses the lines [`FleetTotals::write_text`] wrote; `field`
            /// returns the value of the next line, which must carry `key`.
            pub(crate) fn read_text(
                mut field: impl FnMut(&str) -> Result<String, String>,
            ) -> Result<FleetTotals, String> {
                Ok(FleetTotals { $( $key: parse_num(&field(stringify!($key))?)?, )+ })
            }

            $( $(#[doc = $doc])+ pub fn $key(&self) -> $ty { self.$key } )+
        }
    };
}

fleet_totals! {
    /// Σ total platform energy, µJ.
    total_energy_uj: i128 = |d| d.total_energy_uj;
    /// Σ energy drained by reserve-gated peripherals (backlight + GPS), µJ.
    peripheral_energy_uj: i128 = |d| d.backlight_energy_uj + d.gps_energy_uj;
    /// Devices whose §9 data plan ran out (a send blocked on bytes in the
    /// kernel).
    quota_exhausted: u64 = |d| d.quota_exhausted;
    /// Σ sends the kernel held on byte quotas.
    bytes_blocked_sends: u128 = |d| d.bytes_blocked_sends;
    /// Devices holding at least one reserve in debt at the horizon.
    devices_in_debt: u64 = |d| d.debt_reserves > 0;
    /// Σ forced peripheral shutdowns (empty reserve → hardware down).
    forced_shutdowns: u128 = |d| d.backlight_shutdowns + d.gps_shutdowns;
    /// Σ `offload` syscalls.
    offload_attempts: u128 = |d| d.offload_attempts;
    /// Σ offload requests the shared backend admitted.
    offload_accepted: u128 = |d| d.offload_accepted;
    /// Σ offloads completed by a backend response in time.
    offload_completed: u128 = |d| d.offload_completed;
    /// Σ offloads refused up front (backend full, plan uncovered).
    offload_rejected: u128 = |d| d.offload_rejected;
    /// Σ offloads whose deadline fired before the response.
    offload_timed_out: u128 = |d| d.offload_timed_out;
    /// Σ observed request latency over completed offloads, µs.
    offload_latency_us: u128 = |d| d.offload_latency_us;
    /// Σ total platform energy of the devices that attempted offloads, µJ
    /// (the joules-per-request numerator).
    offload_energy_uj: i128 = |d| if d.offload_attempts > 0 { d.total_energy_uj } else { 0 };
    /// Σ tap/drive re-rates the policy engines applied.
    policy_rerates: u128 = |d| d.policy_rerates;
    /// Σ background-demotion edges.
    policy_demotions: u128 = |d| d.policy_demotions;
    /// Devices whose projected lifetime covered the policy's target.
    lifetime_target_hits: u64 = |d| d.lifetime_target_hit;
    /// Σ user-model seconds spent Active.
    presence_active_s: u128 = |d| d.presence_active_s;
    /// Σ user-model seconds spent Ambient.
    presence_ambient_s: u128 = |d| d.presence_ambient_s;
    /// Σ user-model seconds spent Away.
    presence_away_s: u128 = |d| d.presence_away_s;
    /// Σ user-model seconds spent Asleep.
    presence_asleep_s: u128 = |d| d.presence_asleep_s;
    /// Σ radio link flaps the fault injectors landed.
    link_flaps: u128 = |d| d.link_flaps;
    /// Σ exact link-down time, µs.
    link_down_us: u128 = |d| d.link_down_us;
    /// Σ in-flight bytes lost to drop-semantics flaps.
    flap_lost_bytes: u128 = |d| d.flap_lost_bytes;
    /// Σ transient app kills the fault supervisors landed.
    crashes: u128 = |d| d.crashes;
    /// Σ program instances respawned after a crash.
    restarts: u128 = |d| d.restarts;
    /// Σ backoff retries the resilience layers scheduled.
    retries: u128 = |d| d.retries;
    /// Σ work items abandoned after the retry budget ran out.
    retries_exhausted: u128 = |d| d.retries_exhausted;
    /// Σ battery capacity fade the aging taps drained, µJ.
    fade_uj: i128 = |d| d.fade_uj;
}

/// Totals derived from the table, each descaled once from its exact sum.
impl FleetTotals {
    /// Total energy the whole fleet drew, joules.
    pub fn fleet_energy_j(&self) -> f64 {
        self.total_energy_uj as f64 / 1e6
    }

    /// Total reserve-gated peripheral energy, joules.
    pub fn peripheral_energy_j(&self) -> f64 {
        self.peripheral_energy_uj as f64 / 1e6
    }

    /// Joules per completed offload request: the energy of the devices
    /// that attempted offloads over the fleet's completed requests (0 when
    /// nothing completed).
    pub fn joules_per_request(&self) -> f64 {
        if self.offload_completed == 0 {
            0.0
        } else {
            self.offload_energy_uj as f64 / 1e6 / self.offload_completed as f64
        }
    }

    /// Σ user-model seconds per presence state (Active, Ambient, Away,
    /// Asleep).
    pub fn presence_s(&self) -> [u128; 4] {
        [
            self.presence_active_s,
            self.presence_ambient_s,
            self.presence_away_s,
            self.presence_asleep_s,
        ]
    }

    /// Total battery capacity fade, joules.
    pub fn fade_j(&self) -> f64 {
        self.fade_uj as f64 / 1e6
    }
}
