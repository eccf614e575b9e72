//! Piecewise-linear PSU efficiency curves.

use std::sync::OnceLock;

use fj_units::Watts;
use serde::{Deserialize, Serialize};

/// Efficiency as a piecewise-linear function of load fraction.
///
/// Load is `P_out / capacity ∈ [0, 1]`; efficiency is `P_out / P_in ∈
/// (0, 1]`. Queries outside the anchored range are clamped to the first /
/// last anchor (flat extrapolation), and all returned efficiencies are
/// clamped into `(0.01, 1.0]` so downstream divisions stay sane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyCurve {
    /// `(load_fraction, efficiency)` anchors, sorted by load.
    points: Vec<(f64, f64)>,
}

impl EfficiencyCurve {
    /// Builds a curve from `(load, efficiency)` anchors.
    ///
    /// # Panics
    /// If fewer than two anchors are given, loads are not strictly
    /// increasing, or any value is non-finite.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two anchors");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "anchor loads must strictly increase");
        }
        assert!(
            points.iter().all(|(l, e)| l.is_finite() && e.is_finite()),
            "anchors must be finite"
        );
        Self { points }
    }

    /// Efficiency at `load` (fraction of capacity), clamped as documented.
    pub fn efficiency_at(&self, load: f64) -> f64 {
        self.efficiency_at_offset(load, NO_OFFSET)
    }

    /// Efficiency at `load` of this curve shifted by `offset`, without
    /// building the shifted copy: bit for bit
    /// `self.with_offset(offset).efficiency_at(load)`.
    pub fn efficiency_at_offset(&self, load: f64, offset: f64) -> f64 {
        self.raw_at(load, offset).clamp(0.01, 1.0)
    }

    /// Interpolates the anchors, each shifted by `offset` first, exactly
    /// as [`EfficiencyCurve::with_offset`] stores them.
    fn raw_at(&self, load: f64, offset: f64) -> f64 {
        let pts = &self.points;
        if load <= pts[0].0 {
            return pts[0].1 + offset;
        }
        for w in pts.windows(2) {
            let (l0, e0) = (w[0].0, w[0].1 + offset);
            let (l1, e1) = (w[1].0, w[1].1 + offset);
            if load <= l1 {
                let f = (load - l0) / (l1 - l0);
                return e0 + f * (e1 - e0);
            }
        }
        // Past the last anchor (including NaN loads): flat extrapolation.
        pts[pts.len() - 1].1 + offset
    }

    /// A copy of this curve with a constant efficiency offset — the paper's
    /// device-specific curve construction: "the efficiency curve of any PSU
    /// is the same as the PFE600 curve plus a constant offset" (§9.3.2).
    pub fn with_offset(&self, offset: f64) -> Self {
        Self {
            points: self.points.iter().map(|&(l, e)| (l, e + offset)).collect(),
        }
    }

    /// The offset that makes this curve pass through `(load, efficiency)`.
    /// Combine with [`EfficiencyCurve::with_offset`] to anchor the PFE600
    /// shape to one observed data point.
    pub fn offset_through(&self, load: f64, efficiency: f64) -> f64 {
        efficiency - self.raw_at(load, NO_OFFSET)
    }

    /// Input power needed to deliver `p_out` from a PSU of `capacity`.
    pub fn input_power(&self, p_out: Watts, capacity: Watts) -> Watts {
        if p_out <= Watts::ZERO {
            return Watts::ZERO;
        }
        let load = p_out / capacity;
        Watts::new(p_out.as_f64() / self.efficiency_at(load))
    }

    /// The anchors, for plotting (Fig. 5).
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// The unshifted curve's offset. `-0.0` is the exact additive identity
/// of IEEE 754 (`x + -0.0 == x` for every `x`, signed zeros and NaN
/// included), so an anchor plus `NO_OFFSET` is the anchor, bit for bit.
const NO_OFFSET: f64 = -0.0;

/// The efficiency curve of the Platinum-rated PFE600-12-054xA — the PSU of
/// the Wedge 100BF-32X — digitised from Fig. 5 of the paper (which redraws
/// the PSU datasheet). Values are approximate but preserve the shape:
/// a sag below 20 % load and a broad optimum around 50–60 %. The very-
/// low-load tail is kept shallow: the Table 4 arithmetic of the paper
/// (over-sizing costs only ≈1 %) implies the effective curve barely
/// collapses below 10 %, so we digitise it accordingly.
///
/// Built once per process: the anchors are compiled in, and the wall-
/// power path of every simulated router reads the curve each poll.
pub fn pfe600() -> &'static EfficiencyCurve {
    static CURVE: OnceLock<EfficiencyCurve> = OnceLock::new();
    CURVE.get_or_init(|| {
        EfficiencyCurve::new(vec![
            (0.02, 0.82),
            (0.05, 0.85),
            (0.10, 0.875),
            (0.15, 0.900),
            (0.20, 0.915),
            (0.30, 0.930),
            (0.40, 0.937),
            (0.50, 0.940),
            (0.60, 0.942),
            (0.70, 0.940),
            (0.80, 0.936),
            (0.90, 0.931),
            (1.00, 0.925),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_anchors() {
        let c = EfficiencyCurve::new(vec![(0.0, 0.5), (1.0, 0.9)]);
        assert!((c.efficiency_at(0.5) - 0.7).abs() < 1e-12);
        assert!((c.efficiency_at(0.25) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_range() {
        let c = EfficiencyCurve::new(vec![(0.1, 0.8), (0.9, 0.9)]);
        assert_eq!(c.efficiency_at(0.0), 0.8);
        assert_eq!(c.efficiency_at(2.0), 0.9);
    }

    #[test]
    fn efficiency_clamped_to_unit_interval() {
        let c = EfficiencyCurve::new(vec![(0.0, 0.9), (1.0, 1.3)]);
        assert_eq!(c.efficiency_at(1.0), 1.0);
        let c = EfficiencyCurve::new(vec![(0.0, -0.5), (1.0, 0.5)]);
        assert_eq!(c.efficiency_at(0.0), 0.01);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_unsorted_anchors() {
        EfficiencyCurve::new(vec![(0.5, 0.9), (0.5, 0.8)]);
    }

    #[test]
    #[should_panic(expected = "two anchors")]
    fn rejects_single_anchor() {
        EfficiencyCurve::new(vec![(0.5, 0.9)]);
    }

    #[test]
    fn pfe600_shape() {
        let c = pfe600();
        // Poor at low load, peaks mid-range, slightly declines at full load.
        assert!(c.efficiency_at(0.05) < 0.88);
        assert!(c.efficiency_at(0.15) < c.efficiency_at(0.5));
        let peak = c.efficiency_at(0.6);
        assert!(peak > 0.94 && peak < 0.95);
        assert!(c.efficiency_at(1.0) < peak);
    }

    #[test]
    fn offset_through_anchors_observed_point() {
        let c = pfe600();
        let off = c.offset_through(0.15, 0.80);
        let shifted = c.with_offset(off);
        assert!((shifted.efficiency_at(0.15) - 0.80).abs() < 1e-9);
        // The whole curve moved by the same amount (where unclamped).
        assert!((shifted.efficiency_at(0.5) - (c.efficiency_at(0.5) + off)).abs() < 1e-9);
    }

    #[test]
    fn input_power_inverts_efficiency() {
        let c = pfe600();
        // 60 W delivered from a 600 W PSU → 10 % load → eff 0.875.
        let p_in = c.input_power(Watts::new(60.0), Watts::new(600.0));
        assert!((p_in.as_f64() - 60.0 / 0.875).abs() < 1e-9);
        assert_eq!(c.input_power(Watts::ZERO, Watts::new(600.0)), Watts::ZERO);
    }

    #[test]
    fn serde_round_trip() {
        let c = pfe600();
        let json = serde_json::to_string(c).unwrap();
        let back: EfficiencyCurve = serde_json::from_str(&json).unwrap();
        assert_eq!(*c, back);
    }
}
