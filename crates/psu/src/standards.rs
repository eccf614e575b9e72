//! The 80 Plus certification standard (§9.1, Fig. 5).
//!
//! Introduced in 2004, 80 Plus certifies PSUs whose conversion efficiency
//! exceeds fixed set points at reference loads. The base level requires
//! ≥80 % at 20/50/100 % load; Bronze through Titanium raise the bar, and
//! Titanium adds a 10 % load requirement — the one that matters most for
//! routers, whose PSUs idle at 10–20 % load.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::curve::{pfe600, EfficiencyCurve};

/// 80 Plus certification levels used in the paper's Tables 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EightyPlus {
    /// ≥82/85/82 % at 20/50/100 % load.
    Bronze,
    /// ≥85/88/85 %.
    Silver,
    /// ≥87/90/87 %.
    Gold,
    /// ≥90/92/89 %.
    Platinum,
    /// ≥90 % at 10 % load, then ≥92/94/90 %.
    Titanium,
}

impl EightyPlus {
    /// All levels, ascending.
    pub const ALL: [EightyPlus; 5] = [
        EightyPlus::Bronze,
        EightyPlus::Silver,
        EightyPlus::Gold,
        EightyPlus::Platinum,
        EightyPlus::Titanium,
    ];

    /// The `(load_fraction, minimum_efficiency)` set points of this level
    /// (115 V internal, the commonly quoted table; Titanium adds 10 %).
    pub fn set_points(self) -> &'static [(f64, f64)] {
        match self {
            EightyPlus::Bronze => &[(0.20, 0.82), (0.50, 0.85), (1.00, 0.82)],
            EightyPlus::Silver => &[(0.20, 0.85), (0.50, 0.88), (1.00, 0.85)],
            EightyPlus::Gold => &[(0.20, 0.87), (0.50, 0.90), (1.00, 0.87)],
            EightyPlus::Platinum => &[(0.20, 0.90), (0.50, 0.92), (1.00, 0.89)],
            EightyPlus::Titanium => &[(0.10, 0.90), (0.20, 0.92), (0.50, 0.94), (1.00, 0.90)],
        }
    }

    /// Whether a PSU with the given efficiency curve meets every set point.
    pub fn certifies(self, curve: &EfficiencyCurve) -> bool {
        self.set_points()
            .iter()
            .all(|&(load, req)| curve.efficiency_at(load) + 1e-12 >= req)
    }

    /// The theoretical curve for this level (§9.3.2): "the efficiency
    /// curve of any PSU is the same as the PFE600 curve plus a constant
    /// offset". We anchor the offset at the 50 % set point — the load
    /// where 80 Plus levels are tightest — and additionally force
    /// Titanium's explicit 10 % requirement. This reading reproduces the
    /// paper's smooth 2→7 % progression; anchoring at the *binding* set
    /// point instead degenerates (Platinum would coincide with the PFE600
    /// itself and Bronze would fall 8 pp below it).
    pub fn certified_curve(self) -> EfficiencyCurve {
        let base = pfe600();
        let mut offset = f64::NEG_INFINITY;
        for &(load, req) in self.set_points() {
            let candidate = req - base.efficiency_at(load);
            if (load - 0.50).abs() < 1e-9 || (load - 0.10).abs() < 1e-9 {
                offset = offset.max(candidate);
            }
        }
        base.with_offset(offset)
    }
}

impl fmt::Display for EightyPlus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EightyPlus::Bronze => "Bronze",
            EightyPlus::Silver => "Silver",
            EightyPlus::Gold => "Gold",
            EightyPlus::Platinum => "Platinum",
            EightyPlus::Titanium => "Titanium",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_by_stringency() {
        // Each level's 50 % set point strictly increases.
        let at_50: Vec<f64> = EightyPlus::ALL
            .iter()
            .map(|l| {
                l.set_points()
                    .iter()
                    .find(|(load, _)| *load == 0.50)
                    .unwrap()
                    .1
            })
            .collect();
        assert!(at_50.windows(2).all(|w| w[0] < w[1]), "{at_50:?}");
    }

    #[test]
    fn certified_levels_monotone_at_router_loads() {
        // Bronze→Titanium curves strictly improve at 12 % load.
        let effs: Vec<f64> = EightyPlus::ALL
            .iter()
            .map(|l| l.certified_curve().efficiency_at(0.12))
            .collect();
        assert!(effs.windows(2).all(|w| w[0] < w[1]), "{effs:?}");
    }

    #[test]
    fn pfe600_is_platinum_but_not_titanium() {
        // Fig. 5: the PFE600 is Platinum-rated; Titanium's 10 % point
        // (90 %) is above the PFE600's ~82.5 % there.
        let c = pfe600();
        assert!(EightyPlus::Platinum.certifies(c));
        assert!(EightyPlus::Gold.certifies(c));
        assert!(EightyPlus::Bronze.certifies(c));
        assert!(!EightyPlus::Titanium.certifies(c));
    }

    #[test]
    fn certified_curves_meet_their_anchor_points() {
        // The 50 % anchor is met exactly by construction (and 10 % for
        // Titanium); the full certification test would require meeting
        // *all* set points, which a "PFE600 + constant offset" curve
        // cannot do for the lower levels (their 20 %/100 % points sit
        // further below the PFE600 shape than the 50 % one).
        for level in EightyPlus::ALL {
            let c = level.certified_curve();
            let req50 = level
                .set_points()
                .iter()
                .find(|(l, _)| (*l - 0.50).abs() < 1e-9)
                .expect("all levels have a 50 % point")
                .1;
            assert!(c.efficiency_at(0.50) + 1e-9 >= req50, "{level}");
        }
        assert!(EightyPlus::Titanium.certified_curve().efficiency_at(0.10) + 1e-9 >= 0.90);
    }

    #[test]
    fn titanium_low_load_requirement_bites() {
        let t = EightyPlus::Titanium.certified_curve();
        // Titanium's 10 % point is its binding constraint on this shape.
        assert!((t.efficiency_at(0.10) - 0.90).abs() < 1e-9);
        // At typical router loads (12 %) Titanium clearly beats Platinum,
        // whose lowest explicit requirement sits at 20 %.
        let p = EightyPlus::Platinum.certified_curve();
        assert!(t.efficiency_at(0.12) > p.efficiency_at(0.12) + 0.02);
    }

    #[test]
    fn lower_levels_never_beat_higher_at_low_load() {
        let loads = [0.05, 0.10, 0.15, 0.20];
        for w in EightyPlus::ALL.windows(2) {
            let (lo, hi) = (w[0].certified_curve(), w[1].certified_curve());
            for &l in &loads {
                assert!(
                    lo.efficiency_at(l) <= hi.efficiency_at(l) + 1e-12,
                    "{:?} beats {:?} at load {l}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(EightyPlus::Bronze.to_string(), "Bronze");
        assert_eq!(EightyPlus::Titanium.to_string(), "Titanium");
    }
}
