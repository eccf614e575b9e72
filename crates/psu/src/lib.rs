//! Power supply unit (PSU) conversion efficiency — background, data model,
//! and the savings estimators of §9.
//!
//! Every router converts wall power (e.g. 230 V AC) to low-voltage DC; the
//! conversion loses power as a function of the PSU's *load* (delivered
//! power over capacity). Efficiency peaks around 50–60 % load and collapses
//! below 10–20 % — precisely where redundantly-provisioned router PSUs
//! operate (§9.3.1, Fig. 6).
//!
//! The crate provides:
//!
//! * [`EfficiencyCurve`] — piecewise-linear efficiency vs load, with the
//!   digitised PFE600-12-054xA curve of Fig. 5 as the reference shape;
//! * [`EightyPlus`] — the 80 Plus certification levels and their set
//!   points, and the paper's "PFE600 shape + constant offset" construction
//!   of a certified curve;
//! * [`PsuObservation`] / [`observed`] — the snapshot data model (§9.2):
//!   one `(P_in, P_out)` reading per PSU, efficiency capped at 100 % when
//!   sensors misreport;
//! * [`savings`] — the four what-if estimators behind Tables 3 and 4.
//!
//! ```
//! use fj_psu::{pfe600, EightyPlus};
//!
//! let curve = pfe600();
//! assert!(curve.efficiency_at(0.5) > 0.93);      // sweet spot
//! assert!(curve.efficiency_at(0.05) < 0.87);     // sags at low load
//!
//! let titanium = EightyPlus::Titanium.certified_curve();
//! assert!(titanium.efficiency_at(0.10) >= 0.90); // 10 % set point
//! ```

pub mod curve;
pub mod observed;
pub mod savings;
pub mod standards;

pub use curve::{pfe600, EfficiencyCurve};
pub use observed::{FleetPsuData, PsuObservation};
pub use savings::{
    combined_savings, right_sizing_savings, single_psu_savings, uplift_savings, RightSizingReport,
    SavingsReport, CAPACITY_OPTIONS,
};
pub use standards::EightyPlus;
