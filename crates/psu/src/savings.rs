//! The four PSU what-if estimators of §9.3 (Tables 3 and 4).
//!
//! All estimators share the paper's modelling convention: every PSU's
//! efficiency curve is the PFE600 shape plus a constant offset anchored at
//! that PSU's single observed `(load, efficiency)` point. Savings are
//! reported against the fleet's total measured input power.

use serde::{Deserialize, Serialize};

use crate::curve::{pfe600, EfficiencyCurve};
use crate::observed::{FleetPsuData, PsuObservation};
use crate::standards::EightyPlus;

/// The PSU nameplate capacities present in the dataset (Table 4 columns).
pub const CAPACITY_OPTIONS: [f64; 6] = [250.0, 400.0, 750.0, 1100.0, 2000.0, 2700.0];

/// Outcome of a what-if estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SavingsReport {
    /// Total input power saved, in watts (negative = the change costs power).
    pub saved_w: f64,
    /// Baseline fleet input power the percentage refers to.
    pub baseline_w: f64,
}

impl SavingsReport {
    /// Savings as a percentage of the baseline.
    pub fn percent(&self) -> f64 {
        if self.baseline_w <= 0.0 {
            return 0.0;
        }
        100.0 * self.saved_w / self.baseline_w
    }
}

/// One row of Table 4: a minimum-capacity option and its savings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RightSizingReport {
    /// The resilience factor `k` (2 = survive one PSU failure).
    pub k: f64,
    /// `(minimum capacity option, savings)` per Table 4 column.
    pub rows: Vec<(f64, SavingsReport)>,
}

/// The per-PSU efficiency curve: PFE600 shape anchored at the observation.
fn own_curve(obs: &PsuObservation) -> Option<(EfficiencyCurve, f64, f64)> {
    let eff = obs.efficiency()?;
    let load = obs.load()?;
    if obs.p_out_w <= 0.0 {
        return None;
    }
    let base = pfe600();
    let offset = base.offset_through(load, eff);
    Some((base.with_offset(offset), eff, load))
}

/// §9.3.2 — raise every PSU to at least the certified curve of `level`.
///
/// Each PSU keeps its own (possibly better) efficiency; PSUs already above
/// the standard are untouched.
pub fn uplift_savings(fleet: &FleetPsuData, level: EightyPlus) -> SavingsReport {
    let baseline = fleet.total_input_power_w();
    let std_curve = level.certified_curve();
    let mut saved = 0.0;
    for obs in fleet.usable() {
        let Some((_, eff, load)) = own_curve(obs) else {
            continue;
        };
        let new_eff = eff.max(std_curve.efficiency_at(load));
        if new_eff > eff {
            saved += obs.p_out_w / eff - obs.p_out_w / new_eff;
        }
    }
    SavingsReport {
        saved_w: saved,
        baseline_w: baseline,
    }
}

/// §9.3.3 — re-size every router's PSUs.
///
/// For each router, `l_max` is the largest delivered power among its PSUs
/// and `C` the smallest capacity option with `C ≥ k · l_max`. Every PSU is
/// then resized to `max(C, option)` for each column `option`, and the new
/// input power follows that PSU's own curve at the new load.
pub fn right_sizing_savings(fleet: &FleetPsuData, k: f64) -> RightSizingReport {
    let baseline = fleet.total_input_power_w();
    let mut rows = Vec::with_capacity(CAPACITY_OPTIONS.len());
    for &option in &CAPACITY_OPTIONS {
        let mut saved = 0.0;
        for (_, psus) in fleet.by_router() {
            let l_max = psus.iter().map(|o| o.p_out_w).fold(0.0f64, f64::max);
            let c = CAPACITY_OPTIONS
                .iter()
                .copied()
                .find(|&cap| cap >= k * l_max)
                .unwrap_or(CAPACITY_OPTIONS[CAPACITY_OPTIONS.len() - 1]);
            let new_cap = c.max(option);
            for obs in psus {
                let Some((curve, eff, _)) = own_curve(obs) else {
                    continue;
                };
                let new_eff = curve.efficiency_at(obs.p_out_w / new_cap);
                saved += obs.p_out_w / eff - obs.p_out_w / new_eff;
            }
        }
        rows.push((
            option,
            SavingsReport {
                saved_w: saved,
                baseline_w: baseline,
            },
        ));
    }
    RightSizingReport { k, rows }
}

/// §9.3.4 — concentrate each router's load on a single PSU.
///
/// The carrying PSU runs at roughly twice its previous load (where its
/// curve is better); the second PSU is assumed lossless ("hot stand-by").
/// Among the router's PSUs we let the one with the best anchored curve at
/// the new load carry the power — the choice an operator would make.
pub fn single_psu_savings(fleet: &FleetPsuData) -> SavingsReport {
    single_psu_inner(fleet, None)
}

/// §9.3.5 — single-PSU loading *and* the carrying PSU meets `level`.
pub fn combined_savings(fleet: &FleetPsuData, level: EightyPlus) -> SavingsReport {
    single_psu_inner(fleet, Some(level))
}

fn single_psu_inner(fleet: &FleetPsuData, level: Option<EightyPlus>) -> SavingsReport {
    let baseline = fleet.total_input_power_w();
    let std_curve = level.map(|l| l.certified_curve());
    let mut saved = 0.0;
    for (_, psus) in fleet.by_router() {
        let usable: Vec<_> = psus
            .iter()
            .filter_map(|o| Some((*o, own_curve(o)?)))
            .collect();
        if usable.is_empty() {
            continue;
        }
        let old_in: f64 = usable.iter().map(|(o, (_, eff, _))| o.p_out_w / eff).sum();
        let total_out: f64 = usable.iter().map(|(o, _)| o.p_out_w).sum();
        if total_out <= 0.0 {
            continue;
        }
        // Average over candidate carrying PSUs: operators concentrate
        // load on whichever PSU stays online after the re-cabling, not
        // necessarily the best unit of the pair.
        let new_in = usable
            .iter()
            .map(|(o, (curve, _, _))| {
                let new_load = total_out / o.capacity_w;
                let mut eff = curve.efficiency_at(new_load);
                if let Some(sc) = &std_curve {
                    eff = eff.max(sc.efficiency_at(new_load));
                }
                total_out / eff
            })
            .sum::<f64>()
            / usable.len() as f64;
        saved += old_in - new_in;
    }
    SavingsReport {
        saved_w: saved,
        baseline_w: baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observed::PsuObservation;

    /// Builds a two-PSU router whose PSUs sit at the given load fraction
    /// and efficiency, with 1100 W capacity (a common option).
    fn router(name: &str, load: f64, eff: f64) -> Vec<PsuObservation> {
        let capacity = 1100.0;
        let p_out = load * capacity;
        let p_in = p_out / eff;
        (0..2)
            .map(|slot| PsuObservation {
                router: name.into(),
                router_model: "NCS-55A1-24H".into(),
                slot,
                capacity_w: capacity,
                p_in_w: p_in,
                p_out_w: p_out,
            })
            .collect()
    }

    fn fleet(effs: &[f64]) -> FleetPsuData {
        let mut obs = Vec::new();
        for (i, &e) in effs.iter().enumerate() {
            obs.extend(router(&format!("r{i}"), 0.15, e));
        }
        FleetPsuData::new(obs)
    }

    #[test]
    fn uplift_ordering_across_standards() {
        // Savings must be monotone: Titanium >= Platinum >= ... >= Bronze.
        let f = fleet(&[0.70, 0.80, 0.90]);
        let mut prev = -1.0;
        for level in EightyPlus::ALL {
            let s = uplift_savings(&f, level);
            assert!(s.saved_w >= prev - 1e-9, "{level}: {}", s.saved_w);
            assert!(s.saved_w >= 0.0);
            prev = s.saved_w;
        }
    }

    #[test]
    fn uplift_leaves_efficient_psus_alone() {
        // A PSU already at 99 % at 15 % load beats every certified curve.
        let f = fleet(&[0.99]);
        for level in EightyPlus::ALL {
            let s = uplift_savings(&f, level);
            assert!(s.saved_w.abs() < 1e-9, "{level}: {}", s.saved_w);
        }
    }

    #[test]
    fn uplift_percent_sane() {
        let f = fleet(&[0.65, 0.75, 0.85]);
        let s = uplift_savings(&f, EightyPlus::Titanium);
        assert!(s.percent() > 0.0 && s.percent() < 100.0);
    }

    #[test]
    fn right_sizing_smaller_is_better_at_low_load() {
        // PSUs at 15 % of 1100 W (165 W out): halving capacity raises load
        // into a better region of the curve.
        let f = fleet(&[0.80, 0.80]);
        let rep = right_sizing_savings(&f, 1.0);
        assert_eq!(rep.rows.len(), CAPACITY_OPTIONS.len());
        let s250 = rep.rows[0].1.saved_w;
        let s2700 = rep.rows.last().unwrap().1.saved_w;
        assert!(s250 > 0.0, "downsizing should save: {s250}");
        assert!(s2700 < s250, "upsizing to 2700 W should be worse");
    }

    #[test]
    fn right_sizing_respects_k_floor() {
        // With k = 2 and l_max = 165 W, C must be >= 330 W, i.e. 400 W.
        // The 250 W column must therefore behave like the 400 W column.
        let f = fleet(&[0.80]);
        let rep = right_sizing_savings(&f, 2.0);
        let by_cap: Vec<f64> = rep.rows.iter().map(|(_, s)| s.saved_w).collect();
        assert!((by_cap[0] - by_cap[1]).abs() < 1e-9, "{by_cap:?}");
    }

    #[test]
    fn single_psu_saves_at_low_load() {
        // Two PSUs at 15 % each; one PSU at 30 % sits higher on the curve.
        let f = fleet(&[0.80, 0.85]);
        let s = single_psu_savings(&f);
        assert!(s.saved_w > 0.0);
        assert!(s.percent() > 0.0 && s.percent() < 50.0);
    }

    #[test]
    fn combined_beats_both_individual_measures() {
        let f = fleet(&[0.70, 0.78, 0.86]);
        for level in EightyPlus::ALL {
            let both = combined_savings(&f, level).saved_w;
            let only_std = uplift_savings(&f, level).saved_w;
            let only_one = single_psu_savings(&f).saved_w;
            assert!(both + 1e-9 >= only_std, "{level}");
            assert!(both + 1e-9 >= only_one, "{level}");
        }
    }

    #[test]
    fn empty_fleet_is_all_zeroes() {
        let f = FleetPsuData::default();
        assert_eq!(uplift_savings(&f, EightyPlus::Gold).saved_w, 0.0);
        assert_eq!(single_psu_savings(&f).saved_w, 0.0);
        assert_eq!(uplift_savings(&f, EightyPlus::Gold).percent(), 0.0);
    }
}
