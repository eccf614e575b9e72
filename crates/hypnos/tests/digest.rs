//! Bit identity of the §8 loop across commits: an FNV-1a digest of two
//! simulated days of hourly Hypnos decisions on the Switch-like fleet,
//! pinned as a constant.
//!
//! The proptests hold `decide` to a reference greedy on small random
//! graphs; this holds the whole decision-hour (observe → `decide` →
//! price → advance) on the 107-router fleet to what it produced when
//! the constant was recorded. A refactor of the path query or of the
//! fleet's executor that is meant to keep decisions must leave it as it
//! is; a change that moves them on purpose updates it and says why.

use fj_hypnos::algorithm::{decide, observe_links};
use fj_hypnos::{sleeping_savings, HypnosConfig};
use fj_isp::{build_fleet, FleetConfig};
use fj_units::SimDuration;

/// Each hour's slept ids in order, the bits of both savings bounds, and
/// the fleet's total wall power after the hour's advance.
const SEC8_DIGEST: u64 = 0x9c7c_e2db_0a69_b6a4;

/// Decision-hours hashed: two days, so both diurnal troughs are in.
const HOURS: usize = 48;

/// Shard counts the hourly advance cycles through: on a multi-core host
/// the fleet's executor is built, replaced and reused along the way.
const SHARDS: [usize; 3] = [2, 1, 4];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn sec8_decisions_match_the_pinned_digest() {
    let config = HypnosConfig::default();
    let mut fleet = build_fleet(&FleetConfig::switch_like(7));
    let mut h = Fnv::new();
    let mut slept_total = 0;
    for hour in 0..HOURS {
        let outcome = decide(&observe_links(&fleet), &config);
        let savings = sleeping_savings(&outcome);
        h.u64(outcome.slept.len() as u64);
        for &id in &outcome.slept {
            h.u64(id as u64);
        }
        h.u64(savings.low_w.to_bits());
        h.u64(savings.high_w.to_bits());
        fleet
            .advance_with_shards(SimDuration::from_hours(1), SHARDS[hour % SHARDS.len()])
            .expect("fleet advances");
        h.u64(fleet.total_wall_power_w().to_bits());
        slept_total += outcome.slept.len();
    }
    assert!(slept_total > 0, "some link slept");
    assert_eq!(
        h.0, SEC8_DIGEST,
        "§8 digest moved: {:#018x} (pinned {SEC8_DIGEST:#018x})",
        h.0
    );
}
