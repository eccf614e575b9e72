//! Parameter derivation: experiments → regressions → a [`PowerModel`].

use std::fmt;

use serde::{Deserialize, Serialize};

use fj_core::{InterfaceClass, InterfaceParams, PowerModel, Speed};
use fj_router_sim::SimError;
use fj_traffic::ETHERNET_OVERHEAD_BYTES;
use fj_units::{linear_regression, EnergyPerBit, EnergyPerPacket, StatsError, Watts};

use crate::config::DerivationConfig;
use crate::experiments::LabBench;

/// Errors from a derivation run.
#[derive(Debug)]
pub enum BenchError {
    /// The simulator refused a configuration step.
    Sim(SimError),
    /// A regression could not be computed (too few points, degenerate x).
    Stats(StatsError),
    /// The derived model failed an internal sanity check.
    Unphysical(String),
    /// The chassis has no contiguous group of same-type cages at `speed`
    /// large enough for the requested interfaces.
    NoPortGroup {
        /// Router model.
        model: String,
        /// Requested line rate.
        speed: Speed,
        /// Interfaces the derivation needs (`2 * pairs`).
        interfaces: usize,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Sim(e) => write!(f, "simulator error: {e}"),
            BenchError::Stats(e) => write!(f, "regression error: {e}"),
            BenchError::Unphysical(s) => write!(f, "unphysical result: {s}"),
            BenchError::NoPortGroup {
                model,
                speed,
                interfaces,
            } => write!(
                f,
                "{model} has no contiguous group of {interfaces} same-type cages at {speed}"
            ),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<StatsError> for BenchError {
    fn from(e: StatsError) -> Self {
        BenchError::Stats(e)
    }
}

/// Regression diagnostics for one derived model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitDiagnostics {
    /// R² of the `P_Port` regression over the number of enabled ports.
    pub port_r2: f64,
    /// R² of the `P_Trx` regression over the number of up pairs.
    pub trx_r2: f64,
    /// Worst R² among the per-packet-size rate regressions.
    pub worst_alpha_r2: f64,
    /// R² of the `α_L·8(L+Lh)` over `L` regression (Eq. 17).
    pub ebit_r2: f64,
}

/// A derived model plus its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerivedModel {
    /// The model, with one class (the characterised one) populated.
    pub model: PowerModel,
    /// The class that was characterised.
    pub class: InterfaceClass,
    /// Regression quality.
    pub diagnostics: FitDiagnostics,
}

impl DerivedModel {
    /// The derived parameters of the characterised class.
    pub fn params(&self) -> &InterfaceParams {
        // fj-lint: allow(FJ02) — `run` populates exactly this class before
        // constructing the DerivedModel; absence is a programming error.
        self.model.lookup(self.class).expect("class was derived")
    }

    /// A one-screen human-readable summary in the units of Table 2.
    pub fn report(&self) -> String {
        let p = self.params();
        format!(
            "{} {}:\n  P_base   {:8.2} W\n  P_port   {:8.3} W\n  P_trx,in {:8.3} W\n  \
             P_trx,up {:8.3} W\n  E_bit    {:8.1} pJ\n  E_pkt    {:8.1} nJ\n  \
             P_offset {:8.3} W\n  fits: port R²={:.4} trx R²={:.4} rate R²≥{:.4} size R²={:.4}",
            self.model.router_model,
            self.class,
            self.model.p_base.as_f64(),
            p.p_port.as_f64(),
            p.p_trx_in.as_f64(),
            p.p_trx_up.as_f64(),
            p.e_bit.as_picojoules(),
            p.e_pkt.as_nanojoules(),
            p.p_offset.as_f64(),
            self.diagnostics.port_r2,
            self.diagnostics.trx_r2,
            self.diagnostics.worst_alpha_r2,
            self.diagnostics.ebit_r2,
        )
    }
}

/// A full derivation session (§5.2).
pub struct Derivation;

impl Derivation {
    /// Runs every experiment and derives the model parameters.
    pub fn run(config: &DerivationConfig, seed: u64) -> Result<DerivedModel, BenchError> {
        Self::run_with_meter_accuracy(config, seed, 0.005)
    }

    /// [`Derivation::run`] with a custom meter accuracy (ablation).
    pub fn run_with_meter_accuracy(
        config: &DerivationConfig,
        seed: u64,
        accuracy: f64,
    ) -> Result<DerivedModel, BenchError> {
        let mut bench = LabBench::with_meter_accuracy(config.clone(), seed, accuracy)?;
        let n = config.pairs;
        let ifaces = config.interfaces() as f64;

        // --- Static terms -------------------------------------------------
        let p_base = bench.run_base()?;
        let p_idle = bench.run_idle()?;
        // Eq. 8: P_Idle = P_base + 2N · P_trx,in.
        let p_trx_in = (p_idle - p_base) / ifaces;

        // Eq. 9 (regression over the number of enabled ports): the paper
        // regresses over N instead of differencing against P_Idle to avoid
        // accumulating estimation error and to validate linearity.
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for k in 0..=n {
            ys.push(bench.run_port(k)?);
            xs.push(k as f64);
        }
        let port_fit = linear_regression(&xs, &ys)?;
        let p_port = port_fit.slope;

        // Eq. 10: with k pairs fully up, 2k ports are enabled and 2k links
        // trained: slope over k = 2·(P_port + P_trx,up).
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for k in 0..=n {
            ys.push(bench.run_trx(k)?);
            xs.push(k as f64);
        }
        let trx_fit = linear_regression(&xs, &ys)?;
        let p_trx_up = trx_fit.slope / 2.0 - p_port;

        // Reference level for P_offset (Eq. 18): all pairs up, no traffic.
        let p_trx_full = bench.run_trx(n)?;

        // --- Dynamic terms (Eqs. 12–18) ------------------------------------
        let mut alpha_points = Vec::new(); // (L, α_L per interface)
        let mut beta_points = Vec::new(); // β_L (total)
        let mut worst_alpha_r2 = 1.0f64;
        for &size in &config.sweep.packet_sizes {
            let mut rs = Vec::new();
            let mut ps = Vec::new();
            for &rate in &config.sweep.rates {
                ps.push(bench.run_snake(rate, size)?);
                rs.push(rate.as_f64());
            }
            let fit = linear_regression(&rs, &ps)?;
            worst_alpha_r2 = worst_alpha_r2.min(fit.r_squared);
            // α from the total slope: every interface carries the offered
            // rate, so slope_total = ifaces · α_L (footnote 5).
            alpha_points.push((size.as_f64(), fit.slope / ifaces));
            beta_points.push(fit.intercept);
        }

        // Eq. 17: α_L · 8(L + L_header) = 8·E_bit·L + (8·E_bit·Lh + E_pkt).
        let lh = ETHERNET_OVERHEAD_BYTES;
        let ls: Vec<f64> = alpha_points.iter().map(|(l, _)| *l).collect();
        let ys: Vec<f64> = alpha_points
            .iter()
            .map(|(l, a)| a * 8.0 * (l + lh))
            .collect();
        let ebit_fit = linear_regression(&ls, &ys)?;
        let e_bit = ebit_fit.slope / 8.0;
        let e_pkt = ebit_fit.intercept - ebit_fit.slope * lh;

        // Eq. 18: P_offset = β_L − P_Trx, averaged over sizes, per iface.
        let p_offset = beta_points
            .iter()
            .map(|b| (b - p_trx_full) / ifaces)
            .sum::<f64>()
            / beta_points.len() as f64;

        // --- Assemble ------------------------------------------------------
        if !p_base.is_finite() || p_base <= 0.0 {
            return Err(BenchError::Unphysical(format!("P_base = {p_base}")));
        }
        let port = config.spec.ports[bench.cabled().start].port;
        let class = InterfaceClass::new(port, config.transceiver, config.speed);
        let params = InterfaceParams {
            p_port: Watts::new(p_port),
            p_trx_in: Watts::new(p_trx_in),
            p_trx_up: Watts::new(p_trx_up),
            e_bit: EnergyPerBit::new(e_bit),
            e_pkt: EnergyPerPacket::new(e_pkt),
            p_offset: Watts::new(p_offset),
        };
        let mut model = PowerModel::new(config.spec.model.clone(), Watts::new(p_base));
        model
            .add_class(class, params)
            // fj-lint: allow(FJ02) — the model was created empty on the
            // previous line; one insertion cannot hit a duplicate.
            .expect("single class cannot collide");

        Ok(DerivedModel {
            model,
            class,
            diagnostics: FitDiagnostics {
                port_r2: port_fit.r_squared,
                trx_r2: trx_fit.r_squared,
                worst_alpha_r2,
                ebit_r2: ebit_fit.r_squared,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_core::{Speed, TransceiverType};
    use fj_units::SimDuration;

    /// End-to-end: derive the 8201-32FH model and compare with the
    /// published ground truth (Table 2c) programmed into the simulator.
    #[test]
    fn derivation_recovers_8201_parameters() {
        let config = DerivationConfig::new(
            "8201-32FH",
            TransceiverType::PassiveDac,
            Speed::G100,
            4,
            SimDuration::from_mins(10),
        )
        .unwrap();
        let derived = Derivation::run(&config, 21).unwrap();
        let p = derived.params();

        assert!((derived.model.p_base.as_f64() - 253.0).abs() < 0.5);
        assert!(
            (p.p_port.as_f64() - 0.94).abs() < 0.08,
            "P_port {}",
            p.p_port
        );
        assert!(
            (p.p_trx_in.as_f64() - 0.35).abs() < 0.08,
            "P_trx_in {}",
            p.p_trx_in
        );
        assert!(
            (p.p_trx_up.as_f64() - 0.21).abs() < 0.1,
            "P_trx_up {}",
            p.p_trx_up
        );
        assert!(
            (p.e_bit.as_picojoules() - 3.0).abs() < 1.0,
            "E_bit {} pJ",
            p.e_bit.as_picojoules()
        );
        assert!(
            (p.e_pkt.as_nanojoules() - 13.0).abs() < 5.0,
            "E_pkt {} nJ",
            p.e_pkt.as_nanojoules()
        );

        // Fits should be close to perfectly linear.
        assert!(derived.diagnostics.port_r2 > 0.99);
        assert!(derived.diagnostics.trx_r2 > 0.99);
        assert!(derived.diagnostics.worst_alpha_r2 > 0.99);

        let report = derived.report();
        assert!(report.contains("P_base"));
        assert!(report.contains("8201-32FH"));
    }

    /// The Nexus93108TC-FX3P (Table 6b) has its 100G cages after 48 RJ45
    /// ports: the derivation cables and prices those.
    #[test]
    fn derivation_uses_the_nexus_100g_cages() {
        let config = DerivationConfig::new(
            "Nexus93108TC-FX3P",
            TransceiverType::PassiveDac,
            Speed::G100,
            3,
            SimDuration::from_mins(10),
        )
        .unwrap();
        let derived = Derivation::run(&config, 5).unwrap();
        assert_eq!(derived.class.port, fj_core::PortType::Qsfp28);
        let p = derived.params();
        assert!((derived.model.p_base.as_f64() - 147.0).abs() < 0.5);
        assert!(
            (p.p_port.as_f64() - 0.17).abs() < 0.06,
            "P_port {}",
            p.p_port
        );
        assert!(
            (p.p_trx_up.as_f64() - 0.23).abs() < 0.08,
            "P_trx_up {}",
            p.p_trx_up
        );
    }

    /// Same pipeline on a very different device: the Wedge (Table 6a).
    #[test]
    fn derivation_recovers_wedge_parameters() {
        let config = DerivationConfig::new(
            "Wedge100BF-32X",
            TransceiverType::PassiveDac,
            Speed::G100,
            4,
            SimDuration::from_mins(10),
        )
        .unwrap();
        let derived = Derivation::run(&config, 5).unwrap();
        let p = derived.params();
        assert!((derived.model.p_base.as_f64() - 108.0).abs() < 0.3);
        assert!((p.p_port.as_f64() - 0.88).abs() < 0.06);
        assert!(p.p_trx_in.abs().as_f64() < 0.05, "DAC trx_in ≈ 0");
        assert!((p.p_trx_up.as_f64() - 0.69).abs() < 0.08);
        assert!((p.e_bit.as_picojoules() - 1.7).abs() < 0.8);
    }
}
