//! Modular-chassis simulation — the substrate for the `P_linecard`
//! extension (§4.3, future work).
//!
//! A [`ModularRouter`] is deliberately simpler than [`crate::SimulatedRouter`]:
//! the linecard terms are static, so the simulator only needs slot state,
//! the ground-truth [`ChassisModel`], and the same PSU wall-referencing
//! story. Port-level behaviour on the cards reuses the fixed-chassis
//! machinery conceptually; the lab derivation of `P_linecard` never
//! touches ports (cards are measured empty, like bare transceiver cages).

use serde::{Deserialize, Serialize};

use fj_core::{ChassisModel, SlotState};
use fj_psu::pfe600;
use fj_units::{SimDuration, SimInstant, Watts};

use crate::error::SimError;

/// A simulated modular router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModularRouter {
    truth: ChassisModel,
    slots: Vec<SlotState>,
    psu_capacity_w: f64,
    psu_count: usize,
    /// Unit PSU efficiency offset (single value: modular boxes share a
    /// power shelf, so per-bay variation matters less here).
    psu_eff_offset: f64,
    now: SimInstant,
}

impl ModularRouter {
    /// Builds a chassis with `slots` empty linecard slots.
    pub fn new(
        truth: ChassisModel,
        slots: usize,
        psu_count: usize,
        psu_capacity_w: f64,
        psu_eff_offset: f64,
    ) -> Self {
        Self {
            truth,
            slots: vec![SlotState::Empty; slots],
            psu_capacity_w,
            psu_count: psu_count.max(1),
            psu_eff_offset,
            now: SimInstant::EPOCH,
        }
    }

    /// An ASR-9010-like reference chassis: 8 slots, 350 W bare, two
    /// published card types.
    pub fn asr9010_like(psu_eff_offset: f64) -> Self {
        use fj_core::{
            InterfaceClass, InterfaceParams, LinecardParams, PortType, PowerModel, Speed,
            TransceiverType,
        };
        let class = InterfaceClass::new(PortType::SfpPlus, TransceiverType::Lr, Speed::G10);
        let base = PowerModel::new("ASR-9010", Watts::new(350.0)).with_class(
            class,
            InterfaceParams::from_table(0.55, 0.9, 0.3, 25.0, 30.0, 0.05),
        );
        let mut truth = ChassisModel::new(base);
        truth
            .add_card_type(
                "A9K-24X10GE",
                LinecardParams {
                    p_inserted: Watts::new(120.0),
                    p_active: Watts::new(180.0),
                },
            )
            // fj-lint: allow(FJ02) — compiled-in demo chassis: a duplicate
            // card type in this literal data is a programming error.
            .expect("fresh model");
        truth
            .add_card_type(
                "A9K-8X100GE",
                LinecardParams {
                    p_inserted: Watts::new(150.0),
                    p_active: Watts::new(400.0),
                },
            )
            // fj-lint: allow(FJ02) — same compiled-in data contract as the
            // first card type above.
            .expect("fresh model");
        Self::new(truth, 8, 4, 2000.0, psu_eff_offset)
    }

    /// The ground-truth chassis model (for validation only — the lab
    /// derivation must not read it).
    pub fn truth(&self) -> &ChassisModel {
        &self.truth
    }

    /// Number of linecard slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// State of slot `s`.
    pub fn slot(&self, s: usize) -> Result<&SlotState, SimError> {
        self.slots.get(s).ok_or(SimError::NoSuchSlot(s))
    }

    /// Seats a card of `card_type` in slot `s` (shut down).
    pub fn insert_card(&mut self, s: usize, card_type: &str) -> Result<(), SimError> {
        if self.truth.lookup_card(card_type).is_none() {
            return Err(SimError::UnknownModel(card_type.to_owned()));
        }
        let slot = self.slots.get_mut(s).ok_or(SimError::NoSuchSlot(s))?;
        if !matches!(slot, SlotState::Empty) {
            return Err(SimError::SlotOccupied(s));
        }
        *slot = SlotState::Inserted(card_type.to_owned());
        Ok(())
    }

    /// Removes whatever is in slot `s`.
    pub fn remove_card(&mut self, s: usize) -> Result<(), SimError> {
        let slot = self.slots.get_mut(s).ok_or(SimError::NoSuchSlot(s))?;
        if matches!(slot, SlotState::Empty) {
            return Err(SimError::SlotEmpty(s));
        }
        *slot = SlotState::Empty;
        Ok(())
    }

    /// Activates the card in slot `s`.
    pub fn activate_card(&mut self, s: usize) -> Result<(), SimError> {
        let slot = self.slots.get_mut(s).ok_or(SimError::NoSuchSlot(s))?;
        match std::mem::replace(slot, SlotState::Empty) {
            SlotState::Empty => Err(SimError::SlotEmpty(s)),
            SlotState::Inserted(name) | SlotState::Active(name) => {
                *slot = SlotState::Active(name);
                Ok(())
            }
        }
    }

    /// Shuts down the card in slot `s` (keeps it seated).
    pub fn deactivate_card(&mut self, s: usize) -> Result<(), SimError> {
        let slot = self.slots.get_mut(s).ok_or(SimError::NoSuchSlot(s))?;
        match std::mem::replace(slot, SlotState::Empty) {
            SlotState::Empty => Err(SimError::SlotEmpty(s)),
            SlotState::Inserted(name) | SlotState::Active(name) => {
                *slot = SlotState::Inserted(name);
                Ok(())
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Advances the clock.
    pub fn tick(&mut self, dt: SimDuration) {
        self.now += dt;
    }

    /// True wall power: chassis + cards through the PSU shelf, with the
    /// same model-typical referencing as the fixed-chassis simulator.
    pub fn wall_power(&self) -> Watts {
        let dc = self
            .truth
            .predict(&self.slots, &[], &[])
            // fj-lint: allow(FJ02) — insert() refuses unregistered card
            // types, so the slots can only reference priced cards.
            .expect("slots only hold registered card types")
            .as_f64();
        let share = dc / self.psu_count as f64;
        let load = share / self.psu_capacity_w;
        let curve = pfe600();
        let typical = curve.efficiency_at(load);
        let actual = curve.efficiency_at_offset(load, self.psu_eff_offset);
        Watts::new(dc / (actual / typical))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chassis() -> ModularRouter {
        ModularRouter::asr9010_like(0.0)
    }

    #[test]
    fn bare_chassis_draws_base() {
        let r = chassis();
        assert_eq!(r.wall_power(), Watts::new(350.0));
        assert_eq!(r.slot_count(), 8);
    }

    #[test]
    fn insert_activate_remove_lifecycle() {
        let mut r = chassis();
        r.insert_card(0, "A9K-24X10GE").unwrap();
        assert_eq!(r.wall_power(), Watts::new(470.0));
        r.activate_card(0).unwrap();
        assert_eq!(r.wall_power(), Watts::new(650.0));
        r.deactivate_card(0).unwrap();
        assert_eq!(r.wall_power(), Watts::new(470.0));
        r.remove_card(0).unwrap();
        assert_eq!(r.wall_power(), Watts::new(350.0));
    }

    #[test]
    fn slot_errors() {
        let mut r = chassis();
        assert!(matches!(
            r.insert_card(99, "A9K-24X10GE"),
            Err(SimError::NoSuchSlot(99))
        ));
        assert!(matches!(
            r.insert_card(0, "bogus"),
            Err(SimError::UnknownModel(_))
        ));
        r.insert_card(0, "A9K-24X10GE").unwrap();
        assert!(matches!(
            r.insert_card(0, "A9K-8X100GE"),
            Err(SimError::SlotOccupied(0))
        ));
        assert!(matches!(r.activate_card(1), Err(SimError::SlotEmpty(1))));
        assert!(matches!(r.remove_card(1), Err(SimError::SlotEmpty(1))));
    }

    #[test]
    fn psu_offset_scales_wall_power() {
        let good = ModularRouter::asr9010_like(0.0);
        let poor = ModularRouter::asr9010_like(-0.10);
        assert!(poor.wall_power() > good.wall_power());
    }

    #[test]
    fn mixed_card_types_sum() {
        let mut r = chassis();
        r.insert_card(0, "A9K-24X10GE").unwrap();
        r.activate_card(0).unwrap();
        r.insert_card(3, "A9K-8X100GE").unwrap();
        // 350 + 300 + 150.
        assert_eq!(r.wall_power(), Watts::new(800.0));
    }
}
