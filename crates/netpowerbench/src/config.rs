//! Derivation configuration.

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use fj_core::{Speed, TransceiverType};
use fj_router_sim::{RouterSpec, SimError};
use fj_traffic::RateSweep;
use fj_units::SimDuration;

use crate::derive::BenchError;

/// Everything a derivation run needs to know.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerivationConfig {
    /// The DUT's hardware spec.
    pub spec: RouterSpec,
    /// Transceiver family to characterise (one per experiment, §5.1).
    pub transceiver: TransceiverType,
    /// Line rate to characterise.
    pub speed: Speed,
    /// Number of cabled interface pairs to use (`N` in Eqs. 7–11).
    pub pairs: usize,
    /// Measurement duration per experiment point. Longer averages more
    /// meter noise away: parameter precision scales with `1/√samples`.
    pub point_duration: SimDuration,
    /// The `(rate, packet size)` grid for Snake experiments.
    pub sweep: RateSweep,
}

impl DerivationConfig {
    /// A configuration using a *representative* DUT: the PSU unit-to-unit
    /// spread is zeroed so the lab unit carries exactly the model-typical
    /// conversion efficiency — the convention under which the published
    /// tables were produced (the paper models the same physical routers
    /// it monitors). Field units then deviate only by their unit spread,
    /// which is part of what the Fig. 4 offsets are made of.
    pub fn new(
        model: &str,
        transceiver: TransceiverType,
        speed: Speed,
        pairs: usize,
        point_duration: SimDuration,
    ) -> Result<Self, SimError> {
        let mut spec = Arc::unwrap_or_clone(RouterSpec::builtin(model)?);
        spec.psu_eff_offset_std = 0.0;
        let sweep = RateSweep::for_line_rate(speed.rate());
        Ok(Self {
            spec,
            transceiver,
            speed,
            pairs,
            point_duration,
            sweep,
        })
    }

    /// A fast configuration for tests and examples: 4 pairs, 8-minute
    /// points. Parameter estimates stay within a few percent of truth for
    /// the watt-scale terms.
    pub fn quick(
        model: &str,
        transceiver: TransceiverType,
        speed: Speed,
    ) -> Result<Self, SimError> {
        Self::new(model, transceiver, speed, 4, SimDuration::from_mins(8))
    }

    /// A thorough configuration: as many pairs as the chassis's first
    /// port group at `speed` holds (capped at 12) and 45-minute points —
    /// comparable to a real lab session and good to ~0.01 W on the static
    /// terms. Errors when no port group at `speed` holds a pair.
    pub fn thorough(
        model: &str,
        transceiver: TransceiverType,
        speed: Speed,
    ) -> Result<Self, BenchError> {
        let mut config = Self::new(model, transceiver, speed, 1, SimDuration::from_mins(45))?;
        // At least one pair, so a group too small for one fails `cabled`.
        config.pairs = first_group(&config.spec, speed).map_or(1, |g| (g.len() / 2).clamp(1, 12));
        config.cabled()?;
        Ok(config)
    }

    /// Interfaces involved (`2 * pairs`).
    pub fn interfaces(&self) -> usize {
        self.pairs * 2
    }

    /// The cabled interfaces: the first `2 * pairs` cages of the first
    /// contiguous group of same-type cages that supports `speed` (on the
    /// Nexus93108TC-FX3P the 100G cages follow 48 RJ45 ports). Errors
    /// when there is no such group or it is too small.
    pub(crate) fn cabled(&self) -> Result<Range<usize>, BenchError> {
        let interfaces = self.interfaces();
        match first_group(&self.spec, self.speed) {
            Some(group) if group.len() >= interfaces => Ok(group.start..group.start + interfaces),
            _ => Err(BenchError::NoPortGroup {
                model: self.spec.model.clone(),
                speed: self.speed,
                interfaces,
            }),
        }
    }
}

/// The first contiguous run of same-type cages that support `speed`.
fn first_group(spec: &RouterSpec, speed: Speed) -> Option<Range<usize>> {
    let start = spec.ports.iter().position(|p| p.speeds.contains(&speed))?;
    let port = spec.ports[start].port;
    let len = spec.ports[start..]
        .iter()
        .take_while(|p| p.port == port && p.speeds.contains(&speed))
        .count();
    Some(start..start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_zeroes_psu_variability() {
        let c =
            DerivationConfig::quick("8201-32FH", TransceiverType::PassiveDac, Speed::G100).unwrap();
        assert_eq!(c.spec.psu_eff_offset_std, 0.0, "unit spread zeroed");
        // The model-typical mean is kept: the lab unit is representative.
        assert_eq!(
            c.spec.psu_eff_offset_mean,
            RouterSpec::builtin("8201-32FH")
                .unwrap()
                .psu_eff_offset_mean
        );
        assert_eq!(c.interfaces(), 8);
    }

    #[test]
    fn thorough_uses_more_pairs() {
        let c = DerivationConfig::thorough("8201-32FH", TransceiverType::PassiveDac, Speed::G100)
            .unwrap();
        assert!(c.pairs > 4);
        assert!(c.interfaces() <= c.spec.port_count());
    }

    #[test]
    fn thorough_cables_the_nexus_100g_cages() {
        // 48 RJ45 ports at 1G/10G come first; the six QSFP28 cages follow.
        let c = DerivationConfig::thorough(
            "Nexus93108TC-FX3P",
            TransceiverType::PassiveDac,
            Speed::G100,
        )
        .unwrap();
        assert_eq!(c.pairs, 3);
        assert_eq!(c.cabled().unwrap(), 48..54);
    }

    #[test]
    fn missing_or_short_port_group_is_a_typed_error() {
        let err =
            DerivationConfig::thorough("Catalyst3560", TransceiverType::PassiveDac, Speed::G100)
                .unwrap_err();
        assert!(
            matches!(err, BenchError::NoPortGroup { interfaces: 2, .. }),
            "{err}"
        );
        // Four quick pairs need eight cages; the Nexus has six at 100G.
        let c = DerivationConfig::quick(
            "Nexus93108TC-FX3P",
            TransceiverType::PassiveDac,
            Speed::G100,
        )
        .unwrap();
        assert!(matches!(
            c.cabled(),
            Err(BenchError::NoPortGroup { interfaces: 8, .. })
        ));
    }

    #[test]
    fn unknown_model_errors() {
        assert!(DerivationConfig::quick("nope", TransceiverType::Lr, Speed::G10).is_err());
    }
}
