//! Golden hashes of every fleet report rendering, at the tier-1 gate.
//!
//! Each of the nine `Scenario` constructors runs a small fleet (12 devices
//! × 20 min) through the retained path (`to_csv`, `to_json`) and through a
//! streamed checkpoint split (`checkpoint_fleet` → `to_text` → `from_text`
//! → `resume_fleet`: the streamed `to_json`, `histograms_csv` and the
//! checkpoint text itself). The FNV-1a-64 hash of each output is pinned,
//! so any change to a byte of a report — a reordered key, a float printed
//! differently, a total summed another way — fails here by name.
//!
//! To refresh after an intended format change, run
//! `cargo test --test report_golden -- --nocapture` and copy the printed
//! hashes.

use cinder::fleet::{checkpoint_fleet, resume_fleet, run_fleet_with, FleetCheckpoint, Scenario};
use cinder::sim::SimDuration;

/// Devices per golden fleet.
const DEVICES: u32 = 12;
/// Devices folded before the checkpoint.
const SPLIT: u64 = 5;

/// FNV-1a 64-bit: a stable, dependency-free fingerprint.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The nine constructors, each shortened to a 20-minute horizon.
fn scenarios() -> [Scenario; 9] {
    let short = |mut s: Scenario| {
        s.horizon = SimDuration::from_secs(20 * 60);
        s
    };
    [
        short(Scenario::mixed("golden-mixed", 101, DEVICES)),
        short(Scenario::all_workloads("golden-all", 102, DEVICES)),
        short(Scenario::offload_heavy("golden-offload", 103, DEVICES, 4)),
        short(Scenario::peripheral_heavy(
            "golden-peripheral",
            104,
            DEVICES,
        )),
        short(Scenario::steady_heavy("golden-steady", 105, DEVICES)),
        short(Scenario::data_plan("golden-plan", 106, DEVICES, 150_000)),
        short(Scenario::policy_heavy("golden-policy", 107, DEVICES)),
        short(Scenario::fault_heavy("golden-faults", 108, DEVICES)),
        short(Scenario::plan_exhausted_mid_hour(
            "golden-exhausted",
            109,
            DEVICES,
        )),
    ]
}

/// Hashes of `[to_csv, to_json, streamed to_json, histograms_csv,
/// checkpoint text]` for one scenario.
fn hashes(scenario: &Scenario) -> [u64; 5] {
    let retained = run_fleet_with(scenario, 2);
    let text = checkpoint_fleet(scenario, SPLIT, 2).to_text();
    let checkpoint = FleetCheckpoint::from_text(&text).expect("own checkpoint parses");
    let streamed = resume_fleet(&checkpoint, scenario, 2).expect("identity matches");
    [
        retained.to_csv(),
        retained.to_json(),
        streamed.to_json(),
        streamed.histograms_csv(),
        text,
    ]
    .map(|s| fnv1a_64(s.as_bytes()))
}

/// Pinned hashes, in [`scenarios`] order.
const GOLDEN: [[u64; 5]; 9] = [
    [
        0x9f8c6e29d343c6f5,
        0x93ef76e6123baa57,
        0x3b638f68d0e4ac6a,
        0xc7be747f8dcb9ff1,
        0x8ff0188448af34d9,
    ], // golden-mixed
    [
        0x1ba2226ee45bbd45,
        0xe93476e82f89cf1c,
        0x36f3139365285446,
        0x83ccc1914e701c76,
        0xb08a9fa0cda3e31f,
    ], // golden-all
    [
        0xfc3ab7dd82314239,
        0xb3712486e416282c,
        0x0a4c36e0707f5a40,
        0xb38dd67b9da7c18c,
        0xac8ad4dbf713711d,
    ], // golden-offload
    [
        0xa6a6cf759fc1a800,
        0xd1a5de3f401cc7ca,
        0xa96d2c44394e755e,
        0xa9be90f6d0208d8c,
        0x78024fefed5513c2,
    ], // golden-peripheral
    [
        0x9313b8d3ae39bd04,
        0xd73ff223cdb8fea0,
        0x9302d7bde769a7e8,
        0x4e05306100351152,
        0x4a27919536a4e369,
    ], // golden-steady
    [
        0xe9aa8c6725535f52,
        0xcb28dec3bb5a0d9c,
        0x6be4e6ed40ecf539,
        0xfc87e96545e7b870,
        0xae0bf7c33de4152f,
    ], // golden-plan
    [
        0x001f95d2416845b8,
        0xb3aa5f23a4772d6b,
        0xdfbeb4f2f36dda10,
        0x7b1de6d88e37cc3e,
        0x196c3460ea83d5cc,
    ], // golden-policy
    [
        0xa516a91679128c0e,
        0xbc1f800e595bd463,
        0xa66605fe8e219019,
        0x6bc480babc844477,
        0x7b174d4c8044880e,
    ], // golden-faults
    [
        0xaa52fc173e7765a8,
        0x57ba9bea0e39c0ca,
        0x8e7e53df349b6f43,
        0x8aa475a612faf26d,
        0x86a4fa4c428f6a6e,
    ], // golden-exhausted
];

#[test]
fn every_report_rendering_matches_its_golden_hash() {
    const OUTPUTS: [&str; 5] = [
        "to_csv",
        "to_json",
        "streamed to_json",
        "histograms_csv",
        "checkpoint text",
    ];
    let mut wrong = Vec::new();
    for (scenario, golden) in scenarios().iter().zip(GOLDEN) {
        let got = hashes(scenario);
        println!(
            "    [{}], // {}",
            got.map(|h| format!("{h:#018x}")).join(", "),
            scenario.name
        );
        for ((name, want), got) in OUTPUTS.iter().zip(golden).zip(got) {
            if want != got {
                wrong.push(format!(
                    "{} {name}: got {got:#018x}, pinned {want:#018x}",
                    scenario.name
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "golden mismatches:\n{}", wrong.join("\n"));
}
