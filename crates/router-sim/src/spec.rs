//! Static hardware descriptions of the simulated routers.
//!
//! A [`RouterSpec`] bundles everything immutable about a router model: its
//! ground-truth power model (referenced to wall power with a *nominal* PSU,
//! the way the paper's lab-derived models are), the port inventory, the PSU
//! slots and capacities, the firmware's power-sensor behaviour, and the
//! statistical spread of PSU unit-to-unit efficiency (the paper's §9.3.1
//! observation that efficiency varies wildly even within one model).

// fj-lint: allow-file(FJ02) — static registry of compiled-in model tables:
// every `expect`/`panic!` fires only if the embedded data contradicts
// itself (duplicate class, missing builtin), which is a compile-time data
// bug the test suite catches, not a runtime condition to degrade through.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use fj_core::{
    builtin_registry, InterfaceClass, InterfaceParams, ModelRegistry, PortType, PowerModel, Speed,
    TransceiverType,
};
use fj_units::Watts;

use crate::error::SimError;
use crate::sensor::PowerSensorModel;

/// One physical port cage and the line rates it supports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortSlot {
    /// Cage type.
    pub port: PortType,
    /// Supported line rates (ascending).
    pub speeds: Vec<Speed>,
}

impl PortSlot {
    /// Creates a slot.
    pub fn new(port: PortType, speeds: Vec<Speed>) -> Self {
        Self { port, speeds }
    }
}

/// Immutable description of a router model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterSpec {
    /// Hardware model name (e.g. `"8201-32FH"`).
    pub model: String,
    /// Ground-truth power model. Its `P_base` and per-class parameters are
    /// wall-referenced under a nominal PSU, matching how lab-derived models
    /// fold conversion losses into their constants (§4.3).
    pub truth: PowerModel,
    /// Port inventory.
    pub ports: Vec<PortSlot>,
    /// Number of PSU slots (usually 2 for redundancy).
    pub psu_slots: usize,
    /// Nameplate capacity of each PSU in watts.
    pub psu_capacity_w: f64,
    /// How the firmware reports PSU input power.
    pub sensor: PowerSensorModel,
    /// Mean of the per-unit PSU efficiency offset (fraction; negative =
    /// this model's PSUs run worse than the nominal PFE600 shape).
    pub psu_eff_offset_mean: f64,
    /// Standard deviation of the per-unit efficiency offset.
    pub psu_eff_offset_std: f64,
}

impl RouterSpec {
    /// Looks up one of the built-in specs by model name. The table is
    /// built once per process, and every caller shares its entry; a
    /// caller that needs a variant clones the spec out of the `Arc`.
    pub fn builtin(model: &str) -> Result<Arc<RouterSpec>, SimError> {
        builtin_table()
            .iter()
            .find(|s| s.model == model)
            .cloned()
            .ok_or_else(|| SimError::UnknownModel(model.to_owned()))
    }

    /// Names of all built-in specs.
    pub fn builtin_names() -> Vec<String> {
        builtin_table().iter().map(|s| s.model.clone()).collect()
    }

    /// Total port count.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }
}

fn cls(port: PortType, trx: TransceiverType, speed: Speed) -> InterfaceClass {
    InterfaceClass::new(port, trx, speed)
}

/// The ground-truth model registry for simulation: the eight published
/// models (Tables 2 and 6) plus synthetic-but-plausible models for the
/// other router models deployed in the Switch-like fleet (the paper has
/// SNMP data but no lab models for these — Table 1 lists their deployed
/// medians, which our fleet calibration targets).
pub fn truth_registry() -> ModelRegistry {
    let mut reg = builtin_registry();
    let t = InterfaceParams::from_table;
    use PortType::*;
    use Speed::*;
    use TransceiverType::*;

    // Access/aggregation boxes with SFP+ cages carrying LR optics or DACs.
    let sfp_plus_classes = |mut m: PowerModel| {
        m.add_class(cls(SfpPlus, Lr, G10), t(0.55, 0.9, 0.3, 25.0, 30.0, 0.05))
            .expect("fresh model");
        m.add_class(
            cls(SfpPlus, PassiveDac, G10),
            t(0.55, 0.05, 0.1, 24.0, 29.0, 0.04),
        )
        .expect("fresh model");
        m.add_class(cls(SfpPlus, Lr, G1), t(0.20, 0.7, 0.1, 34.0, 25.0, 0.02))
            .expect("fresh model");
        m
    };
    // QSFP28 cages with LR4 optics or DACs (NCS-style dynamics).
    let qsfp28_classes = |mut m: PowerModel| {
        m.add_class(cls(Qsfp28, Lr4, G100), t(0.35, 3.3, 0.25, 21.0, 55.0, 0.35))
            .expect("fresh model");
        m.add_class(
            cls(Qsfp28, PassiveDac, G100),
            t(0.32, 0.02, 0.19, 22.0, 58.0, 0.37),
        )
        .expect("fresh model");
        m
    };

    // ASR-920-24SZ-M: small access router, Table 1 median 73 W.
    reg.insert(sfp_plus_classes(PowerModel::new(
        "ASR-920-24SZ-M",
        Watts::new(60.0),
    )));
    // ASR-9001: older aggregation router, median 335 W.
    reg.insert(sfp_plus_classes(PowerModel::new(
        "ASR-9001",
        Watts::new(318.0),
    )));
    // NCS-55A1-24Q6H-SS: median 285 W.
    reg.insert(qsfp28_classes(sfp_plus_classes(PowerModel::new(
        "NCS-55A1-24Q6H-SS",
        Watts::new(262.0),
    ))));
    // NCS-55A1-48Q6H: median 346 W.
    reg.insert(qsfp28_classes(sfp_plus_classes(PowerModel::new(
        "NCS-55A1-48Q6H",
        Watts::new(316.0),
    ))));
    // N540-24Z8Q2C-M: median 159 W.
    reg.insert(qsfp28_classes(sfp_plus_classes(PowerModel::new(
        "N540-24Z8Q2C-M",
        Watts::new(134.0),
    ))));
    // 8201-24H8FH: median 296 W; same silicon family as the 8201-32FH.
    let mut m8201_24 = PowerModel::new("8201-24H8FH", Watts::new(210.0));
    m8201_24
        .add_class(
            cls(Qsfp28, PassiveDac, G100),
            t(0.94, 0.35, 0.21, 3.0, 13.0, -0.04),
        )
        .expect("fresh model");
    m8201_24
        .add_class(cls(Qsfp28, Lr4, G100), t(0.94, 3.6, 0.25, 3.0, 13.0, -0.02))
        .expect("fresh model");
    m8201_24
        .add_class(cls(QsfpDd, Fr4, G400), t(1.0, 10.0, 2.0, 2.5, 11.0, 0.05))
        .expect("fresh model");
    reg.insert(m8201_24);

    // The deployed 8201-32FH and NCS-55A1-24H also carry optics the lab
    // tables do not cover; extend their published models with those
    // classes so fleet simulation can use them.
    let mut m8201 = reg.get("8201-32FH").expect("builtin").clone();
    m8201
        .add_class(cls(Qsfp, Lr4, G100), t(0.94, 3.6, 0.25, 3.0, 13.0, -0.02))
        .expect("new class");
    reg.insert(m8201);
    let mut ncs = reg.get("NCS-55A1-24H").expect("builtin").clone();
    ncs.add_class(cls(Qsfp28, Lr4, G100), t(0.35, 3.3, 0.25, 21.0, 55.0, 0.35))
        .expect("new class");
    reg.insert(ncs);

    reg
}

fn spec(
    model: &str,
    ports: Vec<PortSlot>,
    psu_slots: usize,
    psu_capacity_w: f64,
    sensor: PowerSensorModel,
    psu_eff_offset_mean: f64,
    psu_eff_offset_std: f64,
) -> RouterSpec {
    let truth = truth_registry()
        .get(model)
        .unwrap_or_else(|| panic!("no truth model for {model}"))
        .clone();
    RouterSpec {
        model: model.to_owned(),
        truth,
        ports,
        psu_slots,
        psu_capacity_w,
        sensor,
        psu_eff_offset_mean,
        psu_eff_offset_std,
    }
}

fn n_ports(n: usize, port: PortType, speeds: &[Speed]) -> Vec<PortSlot> {
    (0..n)
        .map(|_| PortSlot::new(port, speeds.to_vec()))
        .collect()
}

/// The built-in specs, built on first use.
fn builtin_table() -> &'static [Arc<RouterSpec>] {
    static TABLE: OnceLock<Vec<Arc<RouterSpec>>> = OnceLock::new();
    TABLE.get_or_init(|| builtin_specs().into_iter().map(Arc::new).collect())
}

/// All built-in router specs — the eight lab-modeled devices plus the
/// fleet-only models of Table 1.
fn builtin_specs() -> Vec<RouterSpec> {
    use PortType::*;
    use Speed::*;

    vec![
        // Lab-modeled devices (Tables 2 & 6). Sensor behaviours follow §6.2.
        spec(
            "NCS-55A1-24H",
            n_ports(24, Qsfp28, &[G25, G50, G100]),
            2,
            1100.0,
            // Fig. 4b: pseudo-constant with jumps; re-plug shifted it 7 W.
            PowerSensorModel::PseudoConstant {
                quantum_w: 4.0,
                recalibration_spread_w: 4.0,
            },
            0.015, // Fig. 6b: efficiencies generally above 85 %
            0.015,
        ),
        spec(
            "Nexus9336-FX2",
            n_ports(36, Qsfp28, &[G100]),
            2,
            1100.0,
            PowerSensorModel::AccurateWithOffset { offset_w: 4.0 },
            -0.06,
            0.05,
        ),
        spec(
            "8201-32FH",
            {
                let mut p = n_ports(28, Qsfp, &[G100]);
                p.extend(n_ports(4, QsfpDd, &[G400]));
                p
            },
            2,
            2000.0,
            // Fig. 4a: precise but ~15–20 W high per router.
            PowerSensorModel::AccurateWithOffset { offset_w: 8.5 },
            -0.10, // Fig. 6c: efficiency 76 % or worse at deployment loads
            0.02,
        ),
        spec(
            "N540X-8Z16G-SYS-A",
            n_ports(24, Sfp, &[G1]),
            2,
            250.0,
            PowerSensorModel::NotReported, // Fig. 4c
            -0.08,
            0.07,
        ),
        spec(
            "Wedge100BF-32X",
            n_ports(32, Qsfp28, &[G25, G50, G100]),
            2,
            600.0, // the PFE600 itself
            PowerSensorModel::AccurateWithOffset { offset_w: 2.0 },
            0.0,
            0.01,
        ),
        spec(
            "Nexus93108TC-FX3P",
            {
                let mut p = n_ports(48, Rj45, &[G1, G10]);
                p.extend(n_ports(6, Qsfp28, &[G40, G100]));
                p
            },
            2,
            1100.0,
            PowerSensorModel::AccurateWithOffset { offset_w: 3.0 },
            -0.09,
            0.06,
        ),
        spec(
            "VSP-4900",
            n_ports(48, SfpPlus, &[G10]),
            2,
            400.0,
            PowerSensorModel::AccurateWithOffset { offset_w: 1.0 },
            -0.02,
            0.02,
        ),
        spec(
            "Catalyst3560",
            n_ports(24, Rj45, &[M100]),
            1,
            250.0,
            PowerSensorModel::NotReported,
            -0.05,
            0.03,
        ),
        // Fleet-only models (Table 1 rows without lab models).
        spec(
            "ASR-920-24SZ-M",
            n_ports(24, SfpPlus, &[G1, G10]),
            2,
            250.0,
            PowerSensorModel::AccurateWithOffset { offset_w: 1.0 },
            // Fig. 6d: efficiencies span the entire range.
            -0.04,
            0.10,
        ),
        spec(
            "ASR-9001",
            n_ports(20, SfpPlus, &[G1, G10]),
            2,
            2000.0,
            PowerSensorModel::AccurateWithOffset { offset_w: 5.0 },
            -0.04,
            0.04,
        ),
        spec(
            "NCS-55A1-24Q6H-SS",
            {
                let mut p = n_ports(24, SfpPlus, &[G1, G10]);
                p.extend(n_ports(6, Qsfp28, &[G100]));
                p
            },
            2,
            1100.0,
            PowerSensorModel::PseudoConstant {
                quantum_w: 4.0,
                recalibration_spread_w: 4.0,
            },
            0.01,
            0.02,
        ),
        spec(
            "NCS-55A1-48Q6H",
            {
                let mut p = n_ports(48, SfpPlus, &[G1, G10]);
                p.extend(n_ports(6, Qsfp28, &[G100]));
                p
            },
            2,
            1100.0,
            PowerSensorModel::PseudoConstant {
                quantum_w: 4.0,
                recalibration_spread_w: 4.0,
            },
            0.01,
            0.02,
        ),
        spec(
            "N540-24Z8Q2C-M",
            {
                let mut p = n_ports(24, SfpPlus, &[G1, G10]);
                p.extend(n_ports(10, Qsfp28, &[G100]));
                p
            },
            2,
            400.0,
            PowerSensorModel::AccurateWithOffset { offset_w: 2.0 },
            -0.03,
            0.04,
        ),
        spec(
            "8201-24H8FH",
            {
                let mut p = n_ports(24, Qsfp28, &[G100]);
                p.extend(n_ports(8, QsfpDd, &[G400]));
                p
            },
            2,
            2000.0,
            PowerSensorModel::AccurateWithOffset { offset_w: 6.0 },
            -0.08,
            0.03,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup_works() {
        let s = RouterSpec::builtin("8201-32FH").unwrap();
        assert_eq!(s.model, "8201-32FH");
        assert_eq!(s.port_count(), 32);
        assert!(RouterSpec::builtin("bogus").is_err());
    }

    #[test]
    fn builtin_specs_are_shared_and_equal_a_fresh_build() {
        let a = RouterSpec::builtin("NCS-55A1-24H").unwrap();
        assert!(Arc::ptr_eq(
            &a,
            &RouterSpec::builtin("NCS-55A1-24H").unwrap()
        ));
        let fresh = builtin_specs();
        assert_eq!(RouterSpec::builtin_names().len(), fresh.len());
        for s in fresh {
            assert_eq!(*RouterSpec::builtin(&s.model).unwrap(), s);
        }
    }

    #[test]
    fn all_specs_have_truth_classes_for_their_ports() {
        // Every port type in a spec must have at least one class in the
        // truth model so the simulator can evaluate any plugged module.
        for s in builtin_specs() {
            for slot in &s.ports {
                let covered = s
                    .truth
                    .classes()
                    .iter()
                    .any(|cp| cp.class.port == slot.port);
                assert!(covered, "{}: port {} uncovered", s.model, slot.port);
            }
        }
    }

    #[test]
    fn fourteen_models_exist() {
        assert_eq!(builtin_specs().len(), 14);
        let names = RouterSpec::builtin_names();
        for expected in [
            "NCS-55A1-24H",
            "ASR-920-24SZ-M",
            "NCS-55A1-24Q6H-SS",
            "NCS-55A1-48Q6H",
            "ASR-9001",
            "N540-24Z8Q2C-M",
            "8201-32FH",
            "8201-24H8FH",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn sensor_assignment_matches_paper() {
        assert!(matches!(
            RouterSpec::builtin("8201-32FH").unwrap().sensor,
            PowerSensorModel::AccurateWithOffset { .. }
        ));
        assert!(matches!(
            RouterSpec::builtin("NCS-55A1-24H").unwrap().sensor,
            PowerSensorModel::PseudoConstant { .. }
        ));
        assert!(matches!(
            RouterSpec::builtin("N540X-8Z16G-SYS-A").unwrap().sensor,
            PowerSensorModel::NotReported
        ));
    }

    #[test]
    fn truth_registry_extends_builtin() {
        let reg = truth_registry();
        assert!(reg.len() >= 14);
        // Published models unchanged at their base power.
        assert_eq!(reg.get("NCS-55A1-24H").unwrap().p_base, Watts::new(320.0));
        // Synthetic fleet models exist.
        assert!(reg.get("ASR-920-24SZ-M").is_some());
        assert!(reg.get("ASR-9001").is_some());
    }

    #[test]
    fn eight201_efficiency_is_poor() {
        let s = RouterSpec::builtin("8201-32FH").unwrap();
        assert!(s.psu_eff_offset_mean <= -0.1);
    }
}
