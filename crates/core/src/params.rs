//! Model parameters: the constant `P_base` plus six terms per interface
//! class, and the [`PowerModel`] container that owns them.

use serde::{Deserialize, Serialize};

use fj_units::{EnergyPerBit, EnergyPerPacket, Watts};

use crate::error::ModelError;
use crate::iface::{InterfaceClass, InterfaceConfig, InterfaceLoad};
use crate::predict::{InterfaceBreakdown, PowerBreakdown};

/// The six per-interface-class parameters of the model (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct InterfaceParams {
    /// Router-side cost of an administratively enabled port.
    pub p_port: Watts,
    /// Transceiver cost paid as soon as the module is plugged in, even
    /// with the port shut down ("down ≠ off", §7).
    pub p_trx_in: Watts,
    /// Additional transceiver cost once the link is up. Can be slightly
    /// negative in practice (Tables 2b, 5) — measurement artefacts the
    /// paper keeps as-is, and so do we.
    pub p_trx_up: Watts,
    /// Energy per forwarded bit.
    pub e_bit: EnergyPerBit,
    /// Energy per processed packet.
    pub e_pkt: EnergyPerPacket,
    /// Traffic-independent jump between "no traffic at all" and "any
    /// traffic" (e.g. SerDes lines waking up).
    pub p_offset: Watts,
}

impl InterfaceParams {
    /// Convenience constructor from the units used in the paper's tables:
    /// watts, watts, watts, picojoules/bit, nanojoules/packet, watts.
    // fj-lint: allow(FJ03) — this constructor is the table-ingestion seam:
    // the paper's Tables 2/6 are raw numbers in fixed units, and turning
    // them into fj-units newtypes is precisely this function's job. The
    // `_w`/`_pj`/`_nj` suffixes carry the unit contract at every call site.
    pub fn from_table(
        p_port_w: f64,
        p_trx_in_w: f64,
        p_trx_up_w: f64,
        e_bit_pj: f64,
        e_pkt_nj: f64,
        p_offset_w: f64,
    ) -> Self {
        Self {
            p_port: Watts::new(p_port_w),
            p_trx_in: Watts::new(p_trx_in_w),
            p_trx_up: Watts::new(p_trx_up_w),
            e_bit: EnergyPerBit::from_picojoules(e_bit_pj),
            e_pkt: EnergyPerPacket::from_nanojoules(e_pkt_nj),
            p_offset: Watts::new(p_offset_w),
        }
    }

    /// Static power of one interface in configuration `cfg`
    /// (Eqs. 3–4 under the crate-level semantics).
    pub fn static_power(&self, cfg: &InterfaceConfig) -> Watts {
        let mut p = Watts::ZERO;
        if cfg.plugged {
            p += self.p_trx_in;
        }
        if cfg.admin_up {
            p += self.p_port;
        }
        if cfg.oper_up {
            p += self.p_trx_up;
        }
        p
    }

    /// Dynamic power of one interface under `load` (Eqs. 5–6). Zero for an
    /// idle interface; otherwise the affine traffic law plus `P_offset`.
    pub fn dynamic_power(&self, load: &InterfaceLoad) -> Watts {
        if load.is_idle() {
            return Watts::ZERO;
        }
        self.e_bit * load.bit_rate + self.e_pkt * load.pkt_rate + self.p_offset
    }
}

/// Parameters for one interface class — the rows of Tables 2 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassParams {
    /// Which port/transceiver/speed combination these parameters cover.
    pub class: InterfaceClass,
    /// The six model terms.
    pub params: InterfaceParams,
}

/// A complete power model for one router model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Router model name, e.g. `"8201-32FH"`.
    pub router_model: String,
    /// Power of the bare chassis: no transceivers, no configuration (Eq. 7).
    pub p_base: Watts,
    /// Per-class parameters, one entry per interface class measured.
    classes: Vec<ClassParams>,
}

impl PowerModel {
    /// Creates a model with no per-class parameters yet.
    pub fn new(router_model: impl Into<String>, p_base: Watts) -> Self {
        Self {
            router_model: router_model.into(),
            p_base,
            classes: Vec::new(),
        }
    }

    /// Adds parameters for an interface class. Fails if the class already
    /// has parameters.
    pub fn add_class(
        &mut self,
        class: InterfaceClass,
        params: InterfaceParams,
    ) -> Result<(), ModelError> {
        if self.lookup(class).is_some() {
            return Err(ModelError::DuplicateClass(class));
        }
        self.classes.push(ClassParams { class, params });
        Ok(())
    }

    /// Builder-style [`PowerModel::add_class`]; panics on duplicates. Meant
    /// for the embedded tables where duplicates are a programming error.
    pub fn with_class(mut self, class: InterfaceClass, params: InterfaceParams) -> Self {
        self.add_class(class, params)
            // fj-lint: allow(FJ02) — documented builder contract: duplicate
            // classes in an embedded table are a data bug to fail loudly on.
            .expect("duplicate class in builder");
        self
    }

    /// Parameters for `class`, if measured.
    pub fn lookup(&self, class: InterfaceClass) -> Option<&InterfaceParams> {
        self.classes
            .iter()
            .find(|cp| cp.class == class)
            .map(|cp| &cp.params)
    }

    /// All measured classes.
    pub fn classes(&self) -> &[ClassParams] {
        &self.classes
    }

    /// Static power `P_sta(C)` (Eq. 2).
    pub fn static_power(&self, configs: &[InterfaceConfig]) -> Result<Watts, ModelError> {
        let mut p = self.p_base;
        for cfg in configs {
            let params = self.params_for(cfg)?;
            p += params.static_power(cfg);
        }
        Ok(p)
    }

    /// Dynamic power `P_dyn(C, L)` (Eq. 5).
    pub fn dynamic_power(
        &self,
        configs: &[InterfaceConfig],
        loads: &[InterfaceLoad],
    ) -> Result<Watts, ModelError> {
        self.check_lengths(configs, loads)?;
        let mut p = Watts::ZERO;
        for (cfg, load) in configs.iter().zip(loads) {
            let params = self.params_for(cfg)?;
            p += params.dynamic_power(load);
        }
        Ok(p)
    }

    /// Total predicted power with a full per-interface breakdown.
    pub fn predict(
        &self,
        configs: &[InterfaceConfig],
        loads: &[InterfaceLoad],
    ) -> Result<PowerBreakdown, ModelError> {
        self.check_lengths(configs, loads)?;
        let mut interfaces = Vec::with_capacity(configs.len());
        for (cfg, load) in configs.iter().zip(loads) {
            let params = self.params_for(cfg)?;
            interfaces.push(InterfaceBreakdown::evaluate(cfg, load, params));
        }
        Ok(PowerBreakdown {
            p_base: self.p_base,
            interfaces,
        })
    }

    /// Total predicted power (Eq. 1) without the breakdown: the same
    /// additions in the same order as `predict(..)?.total()`, so the same
    /// bits, over `(config, load)` pairs streamed from any source. Stops
    /// at the first class the model does not price.
    pub fn predict_total(
        &self,
        items: impl IntoIterator<Item = (InterfaceConfig, InterfaceLoad)>,
    ) -> Result<Watts, ModelError> {
        let interfaces = items
            .into_iter()
            .map(|(cfg, load)| {
                let params = self.params_for(&cfg)?;
                Ok(InterfaceBreakdown::evaluate(&cfg, &load, params).total())
            })
            .sum::<Result<Watts, ModelError>>()?;
        Ok(self.p_base + interfaces)
    }

    /// Predicted total when every interface is idle but configured as given
    /// — convenience for static-only queries.
    pub fn predict_static(&self, configs: &[InterfaceConfig]) -> Result<Watts, ModelError> {
        self.static_power(configs)
    }

    fn params_for(&self, cfg: &InterfaceConfig) -> Result<&InterfaceParams, ModelError> {
        self.lookup(cfg.class)
            .ok_or(ModelError::UnknownClass(cfg.class))
    }

    fn check_lengths(
        &self,
        configs: &[InterfaceConfig],
        loads: &[InterfaceLoad],
    ) -> Result<(), ModelError> {
        if configs.len() != loads.len() {
            return Err(ModelError::ConfigLoadMismatch {
                configs: configs.len(),
                loads: loads.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{PortType, Speed, TransceiverType};
    use fj_units::{Bytes, DataRate};

    fn class100g() -> InterfaceClass {
        InterfaceClass::new(PortType::Qsfp, TransceiverType::PassiveDac, Speed::G100)
    }

    fn model_8201() -> PowerModel {
        // Table 2 (c): 8201-32FH.
        PowerModel::new("8201-32FH", Watts::new(253.0)).with_class(
            class100g(),
            InterfaceParams::from_table(0.94, 0.35, 0.21, 3.0, 13.0, -0.04),
        )
    }

    #[test]
    fn static_power_stages() {
        let m = model_8201();
        let c = class100g();
        let base = m.static_power(&[]).unwrap();
        assert_eq!(base, Watts::new(253.0));

        let plugged = m.static_power(&[InterfaceConfig::plugged(c)]).unwrap();
        assert!((plugged.as_f64() - 253.35).abs() < 1e-9);

        let enabled = m.static_power(&[InterfaceConfig::enabled(c)]).unwrap();
        assert!((enabled.as_f64() - 254.29).abs() < 1e-9);

        let up = m.static_power(&[InterfaceConfig::up(c)]).unwrap();
        assert!((up.as_f64() - 254.50).abs() < 1e-9);

        // Empty cage contributes nothing.
        let empty = m.static_power(&[InterfaceConfig::empty(c)]).unwrap();
        assert_eq!(empty, base);
    }

    #[test]
    fn dynamic_power_zero_when_idle() {
        let m = model_8201();
        let cfg = [InterfaceConfig::up(class100g())];
        let p = m.dynamic_power(&cfg, &[InterfaceLoad::IDLE]).unwrap();
        assert_eq!(p, Watts::ZERO);
    }

    #[test]
    fn dynamic_power_affine_in_rate() {
        let m = model_8201();
        let cfg = [InterfaceConfig::up(class100g())];
        let l = |g: f64| InterfaceLoad::from_rate(DataRate::from_gbps(g), Bytes::new(1520.0));
        let p10 = m.dynamic_power(&cfg, &[l(10.0)]).unwrap().as_f64();
        let p20 = m.dynamic_power(&cfg, &[l(20.0)]).unwrap().as_f64();
        let p30 = m.dynamic_power(&cfg, &[l(30.0)]).unwrap().as_f64();
        // Equal rate increments give equal power increments (affine law).
        assert!(((p20 - p10) - (p30 - p20)).abs() < 1e-9);
        // And the offset makes it not proportional: p20 != 2 * p10.
        assert!((p20 - 2.0 * p10).abs() > 1e-6);
    }

    #[test]
    fn predict_breakdown_totals_match_parts() {
        let m = model_8201();
        let c = class100g();
        let cfgs = [InterfaceConfig::up(c), InterfaceConfig::plugged(c)];
        let loads = [
            InterfaceLoad::from_rate(DataRate::from_gbps(50.0), Bytes::new(1520.0)),
            InterfaceLoad::IDLE,
        ];
        let b = m.predict(&cfgs, &loads).unwrap();
        let static_p = m.static_power(&cfgs).unwrap();
        let dyn_p = m.dynamic_power(&cfgs, &loads).unwrap();
        assert!((b.total().as_f64() - (static_p + dyn_p).as_f64()).abs() < 1e-9);
        assert_eq!(b.interfaces.len(), 2);
    }

    #[test]
    fn unknown_class_is_an_error() {
        let m = model_8201();
        let other = InterfaceClass::new(PortType::Sfp, TransceiverType::T, Speed::G1);
        let err = m.static_power(&[InterfaceConfig::up(other)]).unwrap_err();
        assert_eq!(err, ModelError::UnknownClass(other));
        assert!(err.to_string().contains("SFP/T/1G"));
    }

    #[test]
    fn mismatched_lengths_is_an_error() {
        let m = model_8201();
        let cfgs = [InterfaceConfig::up(class100g())];
        let err = m.dynamic_power(&cfgs, &[]).unwrap_err();
        assert_eq!(
            err,
            ModelError::ConfigLoadMismatch {
                configs: 1,
                loads: 0
            }
        );
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut m = model_8201();
        let err = m
            .add_class(class100g(), InterfaceParams::default())
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateClass(class100g()));
    }

    #[test]
    fn serde_round_trip() {
        let m = model_8201();
        let json = serde_json::to_string(&m).unwrap();
        let back: PowerModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn from_table_units() {
        let p = InterfaceParams::from_table(0.5, 1.0, 0.2, 22.0, 58.0, 0.37);
        assert!((p.e_bit.as_picojoules() - 22.0).abs() < 1e-9);
        assert!((p.e_pkt.as_nanojoules() - 58.0).abs() < 1e-9);
    }
}
