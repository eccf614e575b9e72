//! The simulated router: mutable state, power physics, telemetry.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use fj_core::{InterfaceConfig, InterfaceLoad, Speed, TransceiverType};
use fj_psu::pfe600;
use fj_units::{SimDuration, SimInstant, Watts};

use crate::error::SimError;
use crate::sensor::{PowerSensorModel, SensorState};
use crate::spec::RouterSpec;

/// What an interface's far end is connected to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkEnd {
    /// Nothing attached — link can never come up.
    None,
    /// Cabled to another interface of the *same* router (lab snake
    /// cabling). The link trains when both ends are enabled and plugged.
    Internal(usize),
    /// Connected to some remote device whose readiness we only observe.
    External {
        /// Whether the remote end is up.
        peer_up: bool,
    },
}

/// Mutable state of one interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterfaceState {
    /// Transceiver in the cage, if any.
    pub transceiver: Option<TransceiverType>,
    /// Configured line rate.
    pub speed: Speed,
    /// Administrative state.
    pub admin_up: bool,
    /// Far-end attachment.
    pub link: LinkEnd,
    /// Offered traffic (applied only while the link is up).
    pub load: InterfaceLoad,
    /// Link state, recomputed by the router after every mutation.
    pub oper_up: bool,
    /// Cumulative octet counter, both directions (ifHCInOctets + out).
    pub octets: u64,
    /// Cumulative packet counter, both directions.
    pub packets: u64,
}

/// Mutable state of one PSU bay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsuState {
    /// Whether the PSU participates in load sharing.
    pub enabled: bool,
    /// Hot stand-by (§9.4): the PSU stays online for instant failover but
    /// carries no load, drawing only a small housekeeping power. None of
    /// the routers the paper studied support this; the simulator offers
    /// it as the what-if the paper's PSU discussion asks for.
    pub hot_standby: bool,
    /// Nameplate capacity in watts.
    pub capacity_w: f64,
    /// Unit-specific efficiency offset relative to the PFE600 shape.
    pub eff_offset: f64,
    /// Sensor latch/calibration state.
    pub sensor: SensorState,
    /// Number of power cycles this bay has seen.
    pub power_cycles: u32,
}

/// A simulated router.
///
/// All mutation goes through methods so link state and counters stay
/// consistent; all randomness derives from the construction seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulatedRouter {
    /// Immutable, so every router of a model can share one.
    spec: Arc<RouterSpec>,
    seed: u64,
    now: SimInstant,
    interfaces: Vec<InterfaceState>,
    psus: Vec<PsuState>,
    /// Extra constant draw from unmodeled effects (e.g. the +45 W fan bump
    /// after the Fig. 8 OS update).
    extra_power: Watts,
    os_version: String,
    #[serde(skip)]
    wall: WallMemo,
}

/// The current state's wall power, memoised. A poll round reads it once
/// directly and once per PSU sensor, so [`SimulatedRouter::wall_power`]
/// fills it on a miss and every `&mut` method that changes one of its
/// inputs clears it. It is a cache, not state: a clone copies it,
/// equality ignores it, and serde skips it, so checkpoints do not carry
/// it and a restored router recomputes.
#[derive(Debug, Clone, Default)]
struct WallMemo(OnceLock<Watts>);

impl WallMemo {
    fn clear(&mut self) {
        self.0.take();
    }
}

impl PartialEq for WallMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// SplitMix64-based uniform hash in [0, 1).
fn hash01(seed: u64, index: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Approximate standard normal from three uniforms.
fn gauss(seed: u64, index: u64) -> f64 {
    let u = hash01(seed, index.wrapping_mul(3))
        + hash01(seed, index.wrapping_mul(3).wrapping_add(1))
        + hash01(seed, index.wrapping_mul(3).wrapping_add(2));
    (u - 1.5) / 0.5
}

impl SimulatedRouter {
    /// Builds a router from its spec, shared (a builtin) or owned. The
    /// seed fixes all unit-to-unit variability (PSU efficiency offsets,
    /// sensor calibrations).
    pub fn new(spec: impl Into<Arc<RouterSpec>>, seed: u64) -> Self {
        let spec = spec.into();
        let interfaces = spec
            .ports
            .iter()
            .map(|slot| InterfaceState {
                transceiver: None,
                // fj-lint: allow(FJ02) — every builtin PortSlot declares at
                // least one speed; an empty list is a spec-data bug.
                speed: *slot.speeds.last().expect("slot has speeds"),
                admin_up: false,
                link: LinkEnd::None,
                load: InterfaceLoad::IDLE,
                oper_up: false,
                octets: 0,
                packets: 0,
            })
            .collect();
        let psus = (0..spec.psu_slots)
            .map(|i| PsuState {
                enabled: true,
                hot_standby: false,
                capacity_w: spec.psu_capacity_w,
                eff_offset: spec.psu_eff_offset_mean
                    + spec.psu_eff_offset_std * gauss(seed ^ PSU_SALT, i as u64),
                sensor: SensorState {
                    latched_w: None,
                    calibration_w: 0.0,
                },
                power_cycles: 0,
            })
            .collect();
        Self {
            spec,
            seed,
            now: SimInstant::EPOCH,
            interfaces,
            psus,
            extra_power: Watts::ZERO,
            os_version: "1.0.0".to_owned(),
            wall: WallMemo::default(),
        }
    }

    /// The hardware spec, shared with every router built from it.
    pub fn spec(&self) -> &Arc<RouterSpec> {
        &self.spec
    }

    /// Points this router at its model's shared builtin spec when its own
    /// spec equals it. Deserializing gives every router a private copy;
    /// this brings a loaded fleet back to one spec per model. A custom
    /// spec keeps its own copy. The spec is equal either way, so nothing
    /// observable changes.
    pub fn share_builtin_spec(&mut self) {
        if let Ok(builtin) = RouterSpec::builtin(&self.spec.model) {
            if builtin == self.spec {
                self.spec = builtin;
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Running OS version string.
    pub fn os_version(&self) -> &str {
        &self.os_version
    }

    /// Number of interfaces.
    pub fn interface_count(&self) -> usize {
        self.interfaces.len()
    }

    /// Read-only view of interface `i`.
    pub fn interface(&self, i: usize) -> Result<&InterfaceState, SimError> {
        self.interfaces.get(i).ok_or(SimError::NoSuchInterface(i))
    }

    /// Read-only view of PSU bay `slot`.
    pub fn psu(&self, slot: usize) -> Result<&PsuState, SimError> {
        self.psus.get(slot).ok_or(SimError::NoSuchPsu(slot))
    }

    /// Number of PSU bays.
    pub fn psu_count(&self) -> usize {
        self.psus.len()
    }

    // ------------------------------------------------------------------
    // Configuration
    // ------------------------------------------------------------------

    /// Plugs a transceiver into cage `i` and configures `speed`.
    pub fn plug(
        &mut self,
        i: usize,
        transceiver: TransceiverType,
        speed: Speed,
    ) -> Result<(), SimError> {
        let port = self
            .spec
            .ports
            .get(i)
            .ok_or(SimError::NoSuchInterface(i))?
            .clone();
        if self.interfaces[i].transceiver.is_some() {
            return Err(SimError::CageOccupied(i));
        }
        if !port.speeds.contains(&speed) {
            return Err(SimError::UnsupportedSpeed { iface: i, speed });
        }
        let class = fj_core::InterfaceClass::new(port.port, transceiver, speed);
        if self.spec.truth.lookup(class).is_none() {
            // The ground truth cannot price this module; refuse rather
            // than silently mispredict.
            return Err(SimError::UnsupportedSpeed { iface: i, speed });
        }
        let st = &mut self.interfaces[i];
        st.transceiver = Some(transceiver);
        st.speed = speed;
        self.recompute_links();
        self.wall.clear();
        Ok(())
    }

    /// Removes the transceiver from cage `i` (the Oct 9 event of Fig. 4a).
    pub fn unplug(&mut self, i: usize) -> Result<TransceiverType, SimError> {
        let st = self
            .interfaces
            .get_mut(i)
            .ok_or(SimError::NoSuchInterface(i))?;
        let t = st.transceiver.take().ok_or(SimError::CageEmpty(i))?;
        st.load = InterfaceLoad::IDLE;
        self.recompute_links();
        self.wall.clear();
        Ok(t)
    }

    /// Sets the administrative state of interface `i`.
    pub fn set_admin(&mut self, i: usize, up: bool) -> Result<(), SimError> {
        let st = self
            .interfaces
            .get_mut(i)
            .ok_or(SimError::NoSuchInterface(i))?;
        st.admin_up = up;
        self.recompute_links();
        self.wall.clear();
        Ok(())
    }

    /// Reconfigures the line rate of interface `i`. Like [`plug`](Self::plug),
    /// refuses a rate at which the ground truth cannot price the module
    /// in the cage.
    pub fn set_speed(&mut self, i: usize, speed: Speed) -> Result<(), SimError> {
        let port = self.spec.ports.get(i).ok_or(SimError::NoSuchInterface(i))?;
        let unpriced = self.interfaces[i].transceiver.is_some_and(|trx| {
            let class = fj_core::InterfaceClass::new(port.port, trx, speed);
            self.spec.truth.lookup(class).is_none()
        });
        if !port.speeds.contains(&speed) || unpriced {
            return Err(SimError::UnsupportedSpeed { iface: i, speed });
        }
        self.interfaces[i].speed = speed;
        self.recompute_links();
        self.wall.clear();
        Ok(())
    }

    /// Cables interfaces `a` and `b` together externally (lab pairing).
    pub fn cable(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        if a == b {
            return Err(SimError::SelfLoop(a));
        }
        if a >= self.interfaces.len() {
            return Err(SimError::NoSuchInterface(a));
        }
        if b >= self.interfaces.len() {
            return Err(SimError::NoSuchInterface(b));
        }
        self.interfaces[a].link = LinkEnd::Internal(b);
        self.interfaces[b].link = LinkEnd::Internal(a);
        self.recompute_links();
        self.wall.clear();
        Ok(())
    }

    /// Attaches interface `i` to an external peer (deployment).
    pub fn set_external_peer(&mut self, i: usize, peer_up: bool) -> Result<(), SimError> {
        let st = self
            .interfaces
            .get_mut(i)
            .ok_or(SimError::NoSuchInterface(i))?;
        st.link = LinkEnd::External { peer_up };
        self.recompute_links();
        self.wall.clear();
        Ok(())
    }

    /// Detaches interface `i` from whatever it is cabled to.
    pub fn uncable(&mut self, i: usize) -> Result<(), SimError> {
        if i >= self.interfaces.len() {
            return Err(SimError::NoSuchInterface(i));
        }
        if let LinkEnd::Internal(j) = self.interfaces[i].link {
            self.interfaces[j].link = LinkEnd::None;
        }
        self.interfaces[i].link = LinkEnd::None;
        self.recompute_links();
        self.wall.clear();
        Ok(())
    }

    /// Offers traffic on interface `i`; it flows only while the link is up.
    pub fn set_load(&mut self, i: usize, load: InterfaceLoad) -> Result<(), SimError> {
        let st = self
            .interfaces
            .get_mut(i)
            .ok_or(SimError::NoSuchInterface(i))?;
        st.load = load;
        self.wall.clear();
        Ok(())
    }

    /// Enables or disables PSU bay `slot`. Refuses to disable the last
    /// active supply (the router would lose power).
    pub fn set_psu_enabled(&mut self, slot: usize, enabled: bool) -> Result<(), SimError> {
        if slot >= self.psus.len() {
            return Err(SimError::NoSuchPsu(slot));
        }
        if !enabled {
            let active = self.psus.iter().filter(|p| p.enabled).count();
            if active <= 1 && self.psus[slot].enabled {
                return Err(SimError::LastPsu(slot));
            }
        }
        self.psus[slot].enabled = enabled;
        self.wall.clear();
        Ok(())
    }

    /// Puts PSU `slot` into (or out of) hot stand-by: it remains online
    /// for redundancy but carries no load. Refuses to leave the router
    /// without any load-carrying supply.
    pub fn set_psu_hot_standby(&mut self, slot: usize, standby: bool) -> Result<(), SimError> {
        if slot >= self.psus.len() {
            return Err(SimError::NoSuchPsu(slot));
        }
        if standby {
            let carriers = self
                .psus
                .iter()
                .enumerate()
                .filter(|(i, p)| p.enabled && !p.hot_standby && *i != slot)
                .count();
            if carriers == 0 {
                return Err(SimError::LastPsu(slot));
            }
        }
        self.psus[slot].hot_standby = standby;
        self.wall.clear();
        Ok(())
    }

    /// Power-cycles PSU `slot` (unplug/replug around a meter install). The
    /// sensor re-latches with a fresh calibration error — the Sept 25
    /// anomaly of Fig. 4b.
    pub fn power_cycle_psu(&mut self, slot: usize) -> Result<(), SimError> {
        let spread = match self.spec.sensor {
            PowerSensorModel::PseudoConstant {
                recalibration_spread_w,
                ..
            } => recalibration_spread_w,
            _ => 0.5,
        };
        let psu = self.psus.get_mut(slot).ok_or(SimError::NoSuchPsu(slot))?;
        psu.power_cycles += 1;
        let g = gauss(
            self.seed ^ 0xCA11_B007,
            u64::from(psu.power_cycles) * 31 + slot as u64,
        );
        // Re-latching always lands visibly off the previous calibration:
        // the Sept 25 event was a clean 7 W step, not a wiggle.
        let draw = spread * (1.0 + g.abs()) * if g < 0.0 { -1.0 } else { 1.0 };
        psu.sensor.power_cycle(draw);
        Ok(())
    }

    /// Applies an OS update that changes the unmodeled power draw by
    /// `delta` (Fig. 8: +45 W from a fan-logic change).
    pub fn os_update(&mut self, version: impl Into<String>, delta: Watts) {
        self.os_version = version.into();
        self.extra_power += delta;
        self.wall.clear();
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Advances simulated time, accumulating traffic counters.
    pub fn tick(&mut self, dt: SimDuration) {
        assert!(dt.as_secs() >= 0, "time cannot run backwards");
        let secs = dt.as_secs_f64();
        for st in &mut self.interfaces {
            if st.oper_up && !st.load.is_idle() {
                st.octets += (st.load.bit_rate.as_f64() / 8.0 * secs) as u64;
                st.packets += (st.load.pkt_rate.as_f64() * secs) as u64;
            }
        }
        self.now += dt;
    }

    /// Jumps the clock without accumulating counters (setup phases).
    pub fn set_time(&mut self, t: SimInstant) {
        self.now = t;
    }

    // ------------------------------------------------------------------
    // Power physics
    // ------------------------------------------------------------------

    /// Ground-truth wall power under a *nominal* PSU (what the published
    /// model describes), before unit-to-unit PSU deviations. Prices every
    /// cage with a module; empty cages contribute nothing.
    pub fn nominal_power(&self) -> Watts {
        let priced = self
            .interfaces
            .iter()
            .zip(&self.spec.ports)
            .filter_map(|(st, slot)| {
                let trx = st.transceiver?;
                let cfg = InterfaceConfig {
                    class: fj_core::InterfaceClass::new(slot.port, trx, st.speed),
                    plugged: true,
                    admin_up: st.admin_up,
                    oper_up: st.oper_up,
                };
                let load = if st.oper_up {
                    st.load
                } else {
                    InterfaceLoad::IDLE
                };
                Some((cfg, load))
            });
        let p = self
            .spec
            .truth
            .predict_total(priced)
            // fj-lint: allow(FJ02) — plug() and set_speed() reject classes
            // the truth model does not price (and checkpoint loads reject
            // routers holding one), so prediction over plugged state
            // cannot miss.
            .expect("plug() and set_speed() guarantee every class is priced");
        p + self.extra_power
    }

    /// True wall power, what an external power meter measures.
    ///
    /// The truth model is wall-referenced for a *typical* PSU of this
    /// router model (the paper derives its models on the very routers it
    /// later monitors, so the hardware family's conversion losses are
    /// baked into the published parameters). Individual units deviate
    /// from the model-typical efficiency by their own offset, producing
    /// the few-watt unit-to-unit differences behind the Fig. 4 offsets.
    ///
    /// Evaluated once per state: the result is memoised until a mutator
    /// changes an input (interfaces, PSU bays, unmodeled draw).
    pub fn wall_power(&self) -> Watts {
        *self.wall.0.get_or_init(|| self.evaluate_wall_power())
    }

    fn evaluate_wall_power(&self) -> Watts {
        let is_carrier = |p: &&PsuState| p.enabled && !p.hot_standby;
        let carriers = self.psus.iter().filter(is_carrier).count();
        if carriers == 0 {
            return Watts::ZERO;
        }
        // Convert the wall-referenced truth to DC once, at the reference
        // condition under which models are derived: all installed PSUs
        // sharing equally, each at the model-typical efficiency.
        let nominal = self.nominal_power().as_f64();
        let curve = pfe600();
        // Fixed point: dc = nominal · eff(dc-share load). The load that
        // matters for the curve is the DC output share; a couple of
        // iterations converge far below the meter's noise floor.
        let slots = self.spec.psu_slots.max(1) as f64;
        let mut dc_total = nominal * 0.9;
        for _ in 0..4 {
            let load = dc_total / slots / self.spec.psu_capacity_w;
            dc_total = nominal * curve.efficiency_at_offset(load, self.spec.psu_eff_offset_mean);
        }

        // Push the DC demand through the *actual* units at the *actual*
        // load split — this is where unit-to-unit deviations and load
        // concentration (hot standby, failed PSUs) show up at the wall.
        let dc_share = dc_total / carriers as f64;
        let mut wall = 0.0;
        for psu in self.psus.iter().filter(is_carrier) {
            let load = dc_share / psu.capacity_w;
            let actual_eff = curve.efficiency_at_offset(load, psu.eff_offset);
            wall += dc_share / actual_eff;
        }
        // Hot-standby supplies idle online: a small housekeeping draw.
        let standby_count = self
            .psus
            .iter()
            .filter(|p| p.enabled && p.hot_standby)
            .count();
        wall += HOT_STANDBY_HOUSEKEEPING_W * standby_count as f64;
        Watts::new(wall)
    }

    /// Adds a persistent unmodeled draw (deployment environment: warmer
    /// air, higher fan duty, busier control plane than the lab — the
    /// §4.3 factors the model absorbs imperfectly into `P_base`).
    pub fn add_unmodeled_draw(&mut self, delta: Watts) {
        self.extra_power += delta;
        self.wall.clear();
    }

    /// The PSU input power the *firmware* reports for `slot`, subject to
    /// the model's sensor pathology. `None` when the router does not
    /// export power (from any bay, hot stand-by included) or the bay is
    /// disabled.
    pub fn psu_reported_power(&mut self, slot: usize) -> Result<Option<Watts>, SimError> {
        if slot >= self.psus.len() {
            return Err(SimError::NoSuchPsu(slot));
        }
        if !self.spec.sensor.reports() || !self.psus[slot].enabled {
            return Ok(None);
        }
        if self.psus[slot].hot_standby {
            return Ok(Some(Watts::new(HOT_STANDBY_HOUSEKEEPING_W)));
        }
        let carriers = self
            .psus
            .iter()
            .filter(|p| p.enabled && !p.hot_standby)
            .count();
        let true_share = (self.wall_power().as_f64()
            - HOT_STANDBY_HOUSEKEEPING_W
                * self
                    .psus
                    .iter()
                    .filter(|p| p.enabled && p.hot_standby)
                    .count() as f64)
            / carriers as f64;
        let noise = 0.2
            * gauss(
                self.seed ^ 0x5E45_0000,
                (self.now.as_secs() as u64) ^ (slot as u64) << 48,
            );
        let sensor_model = self.spec.sensor;
        let psu = &mut self.psus[slot];
        Ok(psu
            .sensor
            .report(&sensor_model, Watts::new(true_share), noise))
    }

    /// One-shot environment-sensor snapshot for `slot`: `(P_in, P_out)` in
    /// watts, with independent per-channel noise — occasionally producing
    /// the physically impossible `P_out > P_in` seen in the dataset (§9.2).
    /// Available even on models that do not export power via SNMP.
    pub fn psu_snapshot(&self, slot: usize) -> Result<Option<(f64, f64)>, SimError> {
        let psu = self.psus.get(slot).ok_or(SimError::NoSuchPsu(slot))?;
        if !psu.enabled {
            return Ok(None);
        }
        if psu.hot_standby {
            return Ok(Some((HOT_STANDBY_HOUSEKEEPING_W, 0.0)));
        }
        let carriers = self
            .psus
            .iter()
            .filter(|p| p.enabled && !p.hot_standby)
            .count();
        let standby = self
            .psus
            .iter()
            .filter(|p| p.enabled && p.hot_standby)
            .count();
        let p_in = (self.wall_power().as_f64() - HOT_STANDBY_HOUSEKEEPING_W * standby as f64)
            / carriers as f64;
        let load = p_in / psu.capacity_w;
        let actual_eff = pfe600().efficiency_at_offset(load, psu.eff_offset);
        let p_out = p_in * actual_eff;
        // Sensor-quality noise: ±1.5 % per channel, independent.
        let idx = (self.now.as_secs() as u64).wrapping_add((slot as u64) << 32);
        let n_in = 1.0 + 0.015 * gauss(self.seed ^ 0x1234, idx);
        let n_out = 1.0 + 0.015 * gauss(self.seed ^ 0x5678, idx);
        Ok(Some((p_in * n_in, p_out * n_out)))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn link_ready(&self, i: usize) -> bool {
        let st = &self.interfaces[i];
        st.admin_up && st.transceiver.is_some()
    }

    fn recompute_links(&mut self) {
        let n = self.interfaces.len();
        let mut up = vec![false; n];
        for (i, slot) in up.iter_mut().enumerate() {
            *slot = match self.interfaces[i].link {
                LinkEnd::None => false,
                LinkEnd::Internal(j) => j < n && self.link_ready(i) && self.link_ready(j),
                LinkEnd::External { peer_up } => peer_up && self.link_ready(i),
            };
        }
        for (st, u) in self.interfaces.iter_mut().zip(up) {
            st.oper_up = u;
        }
    }
}

/// Seed salt for PSU unit-to-unit variability draws.
const PSU_SALT: u64 = 0x5055_5341_4C54; // "PUSALT"

/// Housekeeping draw of an online-but-unloaded hot-standby PSU (W).
/// Power-electronics folk quote a few watts for control + gate drive.
const HOT_STANDBY_HOUSEKEEPING_W: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;
    use fj_units::{Bytes, DataRate};

    fn router(model: &str) -> SimulatedRouter {
        SimulatedRouter::new(RouterSpec::builtin(model).unwrap(), 7)
    }

    /// Send audit for the sharded fleet engine (`fj-par`): routers cross
    /// pool worker threads, so the simulator and everything it embeds
    /// must stay `Send + Sync`. A regression here (an `Rc`, a raw
    /// pointer, a thread-bound handle) fails at compile time.
    #[test]
    fn simulated_router_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimulatedRouter>();
        assert_send_sync::<PsuState>();
        assert_send_sync::<InterfaceState>();
    }

    #[test]
    fn fresh_router_draws_roughly_base_power() {
        let r = router("8201-32FH");
        assert_eq!(r.nominal_power(), Watts::new(253.0));
        // The truth model is referenced to the model-typical PSUs, so an
        // average unit draws very close to the published base; only the
        // unit-to-unit spread moves the wall a few watts either way.
        let wall = r.wall_power().as_f64();
        assert!((wall - 253.0).abs() < 15.0, "wall {wall}");
    }

    #[test]
    fn plug_validates_slot_speed_and_class() {
        let mut r = router("8201-32FH");
        assert!(matches!(
            r.plug(99, TransceiverType::PassiveDac, Speed::G100),
            Err(SimError::NoSuchInterface(99))
        ));
        // Port 0 is QSFP (100G only on this box).
        assert!(matches!(
            r.plug(0, TransceiverType::PassiveDac, Speed::G25),
            Err(SimError::UnsupportedSpeed { .. })
        ));
        r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        assert!(matches!(
            r.plug(0, TransceiverType::PassiveDac, Speed::G100),
            Err(SimError::CageOccupied(0))
        ));
    }

    #[test]
    fn set_speed_refuses_a_rate_the_truth_cannot_price() {
        let mut r = router("NCS-55A1-24H");
        r.plug(0, TransceiverType::Lr4, Speed::G100).unwrap();
        // The cage runs 25G, but the truth prices LR4 only at 100G.
        assert!(matches!(
            r.set_speed(0, Speed::G25),
            Err(SimError::UnsupportedSpeed { iface: 0, .. })
        ));
        assert_eq!(r.interface(0).unwrap().speed, Speed::G100);
        r.wall_power();
        // An empty cage takes any rate it supports.
        r.set_speed(1, Speed::G25).unwrap();
    }

    #[test]
    fn plugging_raises_power_by_p_trx_in() {
        let mut r = router("8201-32FH");
        let before = r.nominal_power();
        r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        let after = r.nominal_power();
        // Table 2c: P_trx,in = 0.35 W for the QSFP DAC.
        assert!(((after - before).as_f64() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn link_comes_up_only_with_both_ends_ready() {
        let mut r = router("8201-32FH");
        r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.plug(1, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.cable(0, 1).unwrap();
        assert!(!r.interface(0).unwrap().oper_up);
        r.set_admin(0, true).unwrap();
        assert!(!r.interface(0).unwrap().oper_up, "one end only");
        r.set_admin(1, true).unwrap();
        assert!(r.interface(0).unwrap().oper_up);
        assert!(r.interface(1).unwrap().oper_up);
        // Taking one end down drops both.
        r.set_admin(1, false).unwrap();
        assert!(!r.interface(0).unwrap().oper_up);
    }

    #[test]
    fn external_peer_controls_link() {
        let mut r = router("NCS-55A1-24H");
        r.plug(3, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.set_admin(3, true).unwrap();
        r.set_external_peer(3, false).unwrap();
        assert!(!r.interface(3).unwrap().oper_up);
        r.set_external_peer(3, true).unwrap();
        assert!(r.interface(3).unwrap().oper_up);
    }

    #[test]
    fn unplug_drops_link_and_power() {
        let mut r = router("8201-32FH");
        r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.plug(1, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.cable(0, 1).unwrap();
        r.set_admin(0, true).unwrap();
        r.set_admin(1, true).unwrap();
        let up_power = r.nominal_power();
        let t = r.unplug(1).unwrap();
        assert_eq!(t, TransceiverType::PassiveDac);
        assert!(!r.interface(0).unwrap().oper_up);
        assert!(r.nominal_power() < up_power);
        assert!(matches!(r.unplug(1), Err(SimError::CageEmpty(1))));
    }

    #[test]
    fn traffic_flows_only_on_up_links() {
        let mut r = router("8201-32FH");
        r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        let load = InterfaceLoad::from_rate(DataRate::from_gbps(10.0), Bytes::new(1500.0));
        r.set_load(0, load).unwrap();
        let p_down = r.nominal_power();
        r.plug(1, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.cable(0, 1).unwrap();
        r.set_admin(0, true).unwrap();
        r.set_admin(1, true).unwrap();
        let p_up = r.nominal_power();
        // Traffic and P_port/P_trx_up terms now apply.
        assert!(p_up > p_down);
    }

    #[test]
    fn counters_accumulate_with_time() {
        let mut r = router("8201-32FH");
        r.plug(0, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.plug(1, TransceiverType::PassiveDac, Speed::G100).unwrap();
        r.cable(0, 1).unwrap();
        r.set_admin(0, true).unwrap();
        r.set_admin(1, true).unwrap();
        let load = InterfaceLoad::from_rate(DataRate::from_gbps(8.0), Bytes::new(1000.0));
        r.set_load(0, load).unwrap();
        r.tick(SimDuration::from_secs(10));
        let st = r.interface(0).unwrap();
        assert_eq!(st.octets, 10 * 1_000_000_000); // 8 Gbps = 1 GB/s
        assert!(st.packets > 0);
        // Idle interface 1 accumulated nothing.
        assert_eq!(r.interface(1).unwrap().octets, 0);
        assert_eq!(r.now(), SimInstant::from_secs(10));
    }

    #[test]
    fn os_update_bumps_power() {
        let mut r = router("8201-32FH");
        let before = r.nominal_power();
        r.os_update("7.11.2", Watts::new(45.0));
        assert_eq!((r.nominal_power() - before).as_f64(), 45.0);
        assert_eq!(r.os_version(), "7.11.2");
    }

    #[test]
    fn psu_reporting_matches_spec_pathology() {
        let mut r = router("8201-32FH");
        let p = r.psu_reported_power(0).unwrap().unwrap();
        // AccurateWithOffset(+8.5): report ≈ share + 8.5.
        let share = r.wall_power().as_f64() / 2.0;
        assert!(
            (p.as_f64() - share - 8.5).abs() < 1.5,
            "p {p} share {share}"
        );

        let mut n = SimulatedRouter::new(RouterSpec::builtin("N540X-8Z16G-SYS-A").unwrap(), 3);
        assert_eq!(n.psu_reported_power(0).unwrap(), None);
    }

    #[test]
    fn pseudo_constant_sensor_flats_and_jumps() {
        let mut r = router("NCS-55A1-24H");
        let a = r.psu_reported_power(0).unwrap().unwrap();
        // Small change in true power: reading should not move.
        r.os_update("x", Watts::new(2.0));
        let b = r.psu_reported_power(0).unwrap().unwrap();
        assert_eq!(a, b);
        // Large change: reading re-latches.
        r.os_update("y", Watts::new(40.0));
        let c = r.psu_reported_power(0).unwrap().unwrap();
        assert!((c - a).as_f64() > 20.0);
    }

    #[test]
    fn power_cycle_shifts_pseudo_constant() {
        let mut r = router("NCS-55A1-24H");
        let a = r.psu_reported_power(0).unwrap().unwrap();
        r.power_cycle_psu(0).unwrap();
        let b = r.psu_reported_power(0).unwrap().unwrap();
        assert!((b - a).abs().as_f64() > 0.01, "re-plug should move reading");
    }

    #[test]
    fn psu_snapshot_plausible() {
        let r = router("NCS-55A1-24H");
        let (p_in, p_out) = r.psu_snapshot(0).unwrap().unwrap();
        assert!(p_in > 0.0 && p_out > 0.0);
        let eff = p_out / p_in;
        assert!(eff > 0.5 && eff < 1.1, "eff {eff}");
    }

    #[test]
    fn disabling_psu_concentrates_load() {
        let mut r = router("NCS-55A1-24H");
        let two = r.wall_power().as_f64();
        r.set_psu_enabled(1, false).unwrap();
        let one = r.wall_power().as_f64();
        // One PSU at double load sits higher on the efficiency curve →
        // less waste → lower wall power (the §9.3.4 effect).
        assert!(one < two, "one {one} two {two}");
        assert!(matches!(
            r.set_psu_enabled(0, false),
            Err(SimError::LastPsu(0))
        ));
    }

    #[test]
    fn wall_power_deterministic_per_seed() {
        let a = router("ASR-920-24SZ-M").wall_power();
        let b = router("ASR-920-24SZ-M").wall_power();
        assert_eq!(a, b);
        let c =
            SimulatedRouter::new(RouterSpec::builtin("ASR-920-24SZ-M").unwrap(), 8).wall_power();
        assert_ne!(a, c, "different seed, different PSU units");
    }

    #[test]
    fn cable_errors() {
        let mut r = router("8201-32FH");
        assert!(matches!(r.cable(0, 0), Err(SimError::SelfLoop(0))));
        assert!(matches!(
            r.cable(0, 999),
            Err(SimError::NoSuchInterface(999))
        ));
        r.cable(0, 1).unwrap();
        r.uncable(0).unwrap();
        assert_eq!(r.interface(1).unwrap().link, LinkEnd::None);
    }
}

#[cfg(test)]
mod hot_standby_tests {
    use super::*;
    use crate::spec::RouterSpec;

    fn router() -> SimulatedRouter {
        SimulatedRouter::new(RouterSpec::builtin("NCS-55A1-24H").unwrap(), 7)
    }

    #[test]
    fn hot_standby_concentrates_load_and_keeps_redundancy() {
        let mut r = router();
        let balanced = r.wall_power().as_f64();
        r.set_psu_hot_standby(1, true).unwrap();
        let standby = r.wall_power().as_f64();
        // One PSU at double load sits higher on its efficiency curve; the
        // gain must beat the 2 W housekeeping cost (§9.4's premise).
        assert!(standby < balanced, "standby {standby} balanced {balanced}");
        // The standby PSU is still online (reported as a live sensor).
        assert_eq!(r.psu_reported_power(1).unwrap().unwrap().as_f64(), 2.0);
    }

    #[test]
    fn standby_bay_reports_only_where_the_router_exports_power() {
        let mut r = router();
        r.set_psu_hot_standby(1, true).unwrap();
        assert_eq!(r.psu_reported_power(1).unwrap(), Some(Watts::new(2.0)));
        // The N540X exports no PSU power (Fig. 4c), from any bay.
        let mut n = SimulatedRouter::new(RouterSpec::builtin("N540X-8Z16G-SYS-A").unwrap(), 7);
        n.set_psu_hot_standby(1, true).unwrap();
        for slot in 0..n.psu_count() {
            assert_eq!(n.psu_reported_power(slot).unwrap(), None, "slot {slot}");
        }
    }

    #[test]
    fn hot_standby_close_to_but_cheaper_than_disabling() {
        let mut a = router();
        a.set_psu_hot_standby(1, true).unwrap();
        let hot = a.wall_power().as_f64();
        let mut b = router();
        b.set_psu_enabled(1, false).unwrap();
        let off = b.wall_power().as_f64();
        // Hot standby pays exactly the housekeeping premium over "off".
        assert!((hot - off - 2.0).abs() < 1e-9, "hot {hot} off {off}");
    }

    #[test]
    fn cannot_standby_the_last_carrier() {
        let mut r = router();
        r.set_psu_hot_standby(0, true).unwrap();
        assert!(matches!(
            r.set_psu_hot_standby(1, true),
            Err(SimError::LastPsu(1))
        ));
        // And leaving standby is always allowed.
        r.set_psu_hot_standby(0, false).unwrap();
    }

    #[test]
    fn standby_snapshot_shows_idle_psu() {
        let mut r = router();
        r.set_psu_hot_standby(1, true).unwrap();
        let (p_in, p_out) = r.psu_snapshot(1).unwrap().unwrap();
        assert_eq!(p_in, 2.0);
        assert_eq!(p_out, 0.0);
        // The carrier handles everything.
        let (c_in, _) = r.psu_snapshot(0).unwrap().unwrap();
        assert!(c_in > 100.0);
    }
}
