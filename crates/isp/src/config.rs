//! Fleet construction parameters.

use serde::{Deserialize, Serialize};

use fj_units::SimDuration;

/// Parameters describing the fleet to synthesise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// RNG seed for all construction randomness.
    pub seed: u64,
    /// Number of points of presence; routers are spread round-robin.
    pub pops: usize,
    /// `(router model, count)` — the hardware mix.
    pub model_mix: Vec<(String, usize)>,
    /// Target fraction of active interfaces that face other networks
    /// (§8 reports 51 % for Switch).
    pub external_fraction: f64,
    /// Mean utilisation of individual links (the network-wide mean lands
    /// near this; Fig. 1 shows ≈1.3 %).
    pub mean_utilization: f64,
    /// SNMP polling period (the dataset: 5 minutes).
    pub poll_period: SimDuration,
}

impl FleetConfig {
    /// The Switch-like fleet: 107 routers dominated by access hardware
    /// with a 100G+ aggregation core, matching the models of Tables 1/2.
    pub fn switch_like(seed: u64) -> Self {
        Self {
            seed,
            pops: 25,
            model_mix: vec![
                ("ASR-920-24SZ-M".into(), 30),
                ("N540-24Z8Q2C-M".into(), 15),
                ("NCS-55A1-24H".into(), 10),
                ("NCS-55A1-24Q6H-SS".into(), 10),
                ("N540X-8Z16G-SYS-A".into(), 8),
                ("NCS-55A1-48Q6H".into(), 8),
                ("Nexus9336-FX2".into(), 6),
                ("Nexus93108TC-FX3P".into(), 6),
                ("ASR-9001".into(), 6),
                ("8201-32FH".into(), 4),
                ("8201-24H8FH".into(), 4),
            ],
            external_fraction: 0.51,
            mean_utilization: 0.013,
            poll_period: SimDuration::from_mins(5),
        }
    }

    /// A scaled-down fleet for fast tests: same shape, ~1/6 the routers.
    pub fn small(seed: u64) -> Self {
        let mut cfg = Self::switch_like(seed);
        cfg.pops = 5;
        cfg.model_mix = vec![
            ("ASR-920-24SZ-M".into(), 5),
            ("N540-24Z8Q2C-M".into(), 3),
            ("NCS-55A1-24H".into(), 2),
            ("NCS-55A1-24Q6H-SS".into(), 2),
            ("N540X-8Z16G-SYS-A".into(), 1),
            ("Nexus9336-FX2".into(), 1),
            ("ASR-9001".into(), 1),
            ("8201-32FH".into(), 1),
            ("8201-24H8FH".into(), 1),
        ];
        cfg
    }

    /// A census-scale fleet: the Switch mix scaled to 1 000 routers
    /// (every model ×9, remainder on the access workhorse). Exists for
    /// the streaming engine's memory/throughput benches — the scale the
    /// chunked collection's O(routers × chunk) bound is aimed at.
    pub fn census(seed: u64) -> Self {
        Self::census_of(seed, 1000)
    }

    /// The census mix scaled to an arbitrary router count: every model
    /// multiplied by `routers / 107` (the Switch mix size), remainder
    /// on the access workhorse; `routers` below the base mix collapses
    /// onto the workhorse alone.
    pub fn census_of(seed: u64, routers: usize) -> Self {
        let mut cfg = Self::switch_like(seed);
        // 230 PoPs per 1 000 routers, the census density; scaled fleets
        // keep the same routers-per-site ratio.
        cfg.pops = (routers * 230 / 1000).max(1);
        let base = cfg.router_count();
        let scale = routers / base;
        for (_, n) in &mut cfg.model_mix {
            *n *= scale;
        }
        let have = cfg.router_count();
        cfg.model_mix[0].1 += routers.saturating_sub(have);
        cfg
    }

    /// Total router count in the mix.
    pub fn router_count(&self) -> usize {
        self.model_mix.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_like_has_107_routers() {
        assert_eq!(FleetConfig::switch_like(0).router_count(), 107);
    }

    #[test]
    fn small_fleet_is_smaller() {
        let small = FleetConfig::small(0);
        assert!(small.router_count() < 20);
        assert_eq!(small.external_fraction, 0.51);
    }

    #[test]
    fn census_fleet_has_exactly_one_thousand_routers() {
        assert_eq!(FleetConfig::census(0).router_count(), 1000);
    }

    #[test]
    fn census_of_hits_the_requested_scale_exactly() {
        for routers in [50, 107, 1000, 10_000, 50_000] {
            let cfg = FleetConfig::census_of(7, routers);
            assert_eq!(cfg.router_count(), routers, "scale {routers}");
            assert!(cfg.pops >= 1);
        }
        // The 1k shape is the original census: same PoP density.
        assert_eq!(FleetConfig::census_of(0, 1000).pops, 230);
    }

    #[test]
    fn poll_period_is_five_minutes() {
        assert_eq!(
            FleetConfig::switch_like(0).poll_period,
            SimDuration::from_mins(5)
        );
    }
}
