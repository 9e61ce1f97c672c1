//! Pinned output of one fixed service run. The determinism tests only
//! compare runs with each other, so a change that moved the criteria (or
//! any other decision) identically at every shard and thread count would
//! pass them; this test compares against bytes recorded once.

use anubis_fleetd::{Coordinator, FleetdConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a of the rendered summary followed by the tick JSONL of a
/// 2000-node, 8-shard, 600-tick run at seed 42.
const GOLDEN: u64 = 0xe716_8a6c_c49f_1fed;

#[test]
fn summary_and_jsonl_match_the_pinned_hash() {
    let cfg = FleetdConfig {
        nodes: 2000,
        shards: 8,
        ticks: 600,
        seed: 42,
        ..FleetdConfig::default()
    };
    let mut fleet = Coordinator::new(cfg);
    let mut jsonl = String::new();
    let summary = fleet.run(600, |tick| tick.write_jsonl(&mut jsonl));
    let mut bytes = summary.render().into_bytes();
    bytes.extend_from_slice(jsonl.as_bytes());
    assert_eq!(fnv1a(&bytes), GOLDEN, "got {:#018x}", fnv1a(&bytes));
}
