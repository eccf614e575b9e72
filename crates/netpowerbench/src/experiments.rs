//! The lab bench: configures the DUT for each experiment type and
//! measures mean wall power through the meter.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use fj_core::{InterfaceLoad, Speed, TransceiverType};
use fj_meter::Mcp39F511N;
use fj_router_sim::{SimError, SimulatedRouter};
use fj_traffic::{PacketProfile, SnakeTest};
use fj_units::{Bytes, DataRate};

use crate::config::DerivationConfig;
use crate::derive::BenchError;

/// The five experiment types of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExperimentKind {
    /// Bare chassis.
    Base,
    /// Transceivers plugged, everything down.
    Idle,
    /// `n` ports enabled (one per pair), links down.
    Port {
        /// Number of enabled ports.
        n: usize,
    },
    /// `n` pairs fully up.
    Trx {
        /// Number of up pairs.
        n: usize,
    },
    /// All pairs up, snake traffic at the given rate and packet size.
    Snake {
        /// Offered bit rate in Gbps (kept as f64 for serde simplicity).
        rate_gbps: f64,
        /// Layer-3 packet size in bytes.
        packet_size: f64,
    },
}

/// One measured experiment point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// What was configured.
    pub kind: ExperimentKind,
    /// Mean measured wall power over the measurement window (W).
    pub mean_w: f64,
    /// Number of meter samples averaged.
    pub samples: usize,
}

/// A lab bench: DUT + meter + the experiment recipes.
pub struct LabBench {
    router: SimulatedRouter,
    meter: Mcp39F511N,
    config: DerivationConfig,
    /// The cabled interfaces, from `DerivationConfig::cabled`.
    cabled: Range<usize>,
    seed: u64,
    /// Session clock: monotonically increasing across experiments even
    /// though the DUT is factory-reset between them. Without it every
    /// point would sample the *same* meter-noise sequence and the noise
    /// would cancel exactly in the regressions — a simulation artifact a
    /// real lab does not enjoy.
    clock: fj_units::SimInstant,
    /// Every measurement taken, in order — the raw record a real lab
    /// session would archive.
    pub log: Vec<ExperimentRecord>,
}

impl LabBench {
    /// Sets up a bench: fresh DUT, pairs cabled `(f, f+1), (f+2, f+3), …`
    /// from the first cage `f` of the port group at the configured speed,
    /// with the MCP39F511N's datasheet accuracy (±0.5 %).
    pub fn new(config: DerivationConfig, seed: u64) -> Result<Self, BenchError> {
        Self::with_meter_accuracy(config, seed, 0.005)
    }

    /// Same, with a custom meter accuracy — for the ablation sweeping
    /// meter quality against derived-parameter error.
    pub fn with_meter_accuracy(
        config: DerivationConfig,
        seed: u64,
        accuracy: f64,
    ) -> Result<Self, BenchError> {
        let cabled = config.cabled()?;
        let router = SimulatedRouter::new(config.spec.clone(), seed);
        let meter = Mcp39F511N::with_accuracy(seed ^ 0x004D_4554_4552, accuracy); // "METER"
        Ok(Self {
            router,
            meter,
            config,
            cabled,
            seed,
            clock: fj_units::SimInstant::EPOCH,
            log: Vec::new(),
        })
    }

    /// The transceiver/speed under characterisation.
    pub fn class(&self) -> (TransceiverType, Speed) {
        (self.config.transceiver, self.config.speed)
    }

    /// The cabled interfaces.
    pub(crate) fn cabled(&self) -> Range<usize> {
        self.cabled.clone()
    }

    fn measure(&mut self, kind: ExperimentKind) -> f64 {
        self.router.set_time(self.clock);
        let ts = self
            .meter
            .measure_for(&mut self.router, self.config.point_duration);
        self.clock = self.router.now();
        // fj-lint: allow(FJ02) — measure_for with a positive point duration
        // always yields samples; an empty window is a harness bug, and a
        // NaN fallback would silently poison the regression downstream.
        let mean = ts.mean().expect("non-empty measurement window");
        self.log.push(ExperimentRecord {
            kind,
            mean_w: mean,
            samples: ts.len(),
        });
        mean
    }

    /// Wipes the DUT back to factory state (same physical unit: the
    /// construction seed is reused, so PSU units are unchanged).
    fn reset_dut(&mut self) {
        self.router = SimulatedRouter::new(self.config.spec.clone(), self.seed);
    }

    /// `Base`: bare chassis, nothing plugged (Eq. 7).
    pub fn run_base(&mut self) -> Result<f64, SimError> {
        self.reset_dut();
        Ok(self.measure(ExperimentKind::Base))
    }

    /// `Idle`: plug transceivers into `2N` ports, cable the pairs, leave
    /// everything admin-down (Eq. 8).
    pub fn run_idle(&mut self) -> Result<f64, SimError> {
        self.configure_pairs(self.config.pairs, 0, 0)?;
        Ok(self.measure(ExperimentKind::Idle))
    }

    /// `Port(n)`: `n` first ports of pairs enabled, links stay down
    /// because the far ends are disabled (Eq. 9).
    pub fn run_port(&mut self, n: usize) -> Result<f64, SimError> {
        self.configure_pairs(self.config.pairs, n, 0)?;
        Ok(self.measure(ExperimentKind::Port { n }))
    }

    /// `Trx(n)`: `n` pairs fully enabled so their links train (Eq. 10).
    pub fn run_trx(&mut self, n: usize) -> Result<f64, SimError> {
        self.configure_pairs(self.config.pairs, 0, n)?;
        Ok(self.measure(ExperimentKind::Trx { n }))
    }

    /// `Snake`: all pairs up, every interface forwarding `rate` with
    /// packets of `size` (Eq. 11, RFC 8239 loop).
    pub fn run_snake(&mut self, rate: DataRate, size: Bytes) -> Result<f64, SimError> {
        self.configure_pairs(self.config.pairs, 0, self.config.pairs)?;
        let snake = SnakeTest::new(self.config.pairs, rate, size);
        let profile = PacketProfile::Fixed(size.as_f64());
        let per_iface = InterfaceLoad {
            bit_rate: snake.per_interface_rate(),
            pkt_rate: profile.packet_rate(snake.per_interface_rate()),
        };
        for i in self.cabled() {
            self.router.set_load(i, per_iface)?;
        }
        Ok(self.measure(ExperimentKind::Snake {
            rate_gbps: rate.as_gbps(),
            packet_size: size.as_f64(),
        }))
    }

    /// RFC 8239 §4 sanity check: after a snake run, every interface in
    /// the loop must actually have forwarded traffic. Catches mis-cabled
    /// or mis-configured snakes, which would silently corrupt the
    /// regressions (a snake with a dead hop measures the wrong topology).
    pub fn verify_forwarding(&self) -> Result<(), SimError> {
        for i in self.cabled() {
            let st = self.router.interface(i)?;
            if st.octets == 0 {
                return Err(SimError::CageEmpty(i)); // repurposed: no traffic seen
            }
        }
        Ok(())
    }

    /// Rebuilds DUT state: `pairs` pairs plugged and cabled; the first
    /// `single_up` pairs have one end enabled; the first `both_up` pairs
    /// have both ends enabled. (`single_up` and `both_up` are mutually
    /// exclusive in the §5.2 recipes.)
    fn configure_pairs(
        &mut self,
        pairs: usize,
        single_up: usize,
        both_up: usize,
    ) -> Result<(), SimError> {
        self.reset_dut();
        for p in 0..pairs {
            let a = self.cabled.start + 2 * p;
            let b = a + 1;
            self.router
                .plug(a, self.config.transceiver, self.config.speed)?;
            self.router
                .plug(b, self.config.transceiver, self.config.speed)?;
            self.router.cable(a, b)?;
            if p < both_up {
                self.router.set_admin(a, true)?;
                self.router.set_admin(b, true)?;
            } else if p < single_up {
                self.router.set_admin(a, true)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DerivationConfig;
    use fj_units::SimDuration;

    fn quick_bench() -> LabBench {
        let cfg = DerivationConfig::new(
            "8201-32FH",
            TransceiverType::PassiveDac,
            Speed::G100,
            2,
            SimDuration::from_mins(2),
        )
        .unwrap();
        LabBench::new(cfg, 9).unwrap()
    }

    #[test]
    fn base_measures_p_base() {
        let mut bench = quick_bench();
        let p = bench.run_base().unwrap();
        assert!((p - 253.0).abs() < 1.0, "base {p}");
        assert_eq!(bench.log.len(), 1);
    }

    #[test]
    fn experiment_ladder_is_monotone() {
        let mut bench = quick_bench();
        let base = bench.run_base().unwrap();
        let idle = bench.run_idle().unwrap();
        let port = bench.run_port(2).unwrap();
        let trx = bench.run_trx(2).unwrap();
        let snake = bench
            .run_snake(DataRate::from_gbps(50.0), Bytes::new(1500.0))
            .unwrap();
        assert!(idle > base, "idle {idle} base {base}");
        assert!(port > idle, "port {port} idle {idle}");
        assert!(trx > port, "trx {trx} port {port}");
        assert!(snake > trx, "snake {snake} trx {trx}");
    }

    #[test]
    fn idle_level_matches_truth() {
        // 4 plugged DACs at P_trx,in = 0.35 W each → +1.4 W over base.
        let mut bench = quick_bench();
        let base = bench.run_base().unwrap();
        let idle = bench.run_idle().unwrap();
        assert!(
            ((idle - base) - 4.0 * 0.35).abs() < 0.15,
            "delta {}",
            idle - base
        );
    }

    #[test]
    fn snake_verification_passes_after_real_snake() {
        let mut bench = quick_bench();
        bench
            .run_snake(DataRate::from_gbps(10.0), Bytes::new(512.0))
            .unwrap();
        bench.verify_forwarding().unwrap();
    }

    #[test]
    fn snake_verification_fails_without_traffic() {
        let mut bench = quick_bench();
        bench.run_trx(2).unwrap(); // links up, no load offered
        assert!(bench.verify_forwarding().is_err());
    }

    #[test]
    fn log_records_every_point() {
        let mut bench = quick_bench();
        bench.run_base().unwrap();
        bench.run_port(1).unwrap();
        bench.run_port(2).unwrap();
        assert_eq!(bench.log.len(), 3);
        assert!(matches!(bench.log[1].kind, ExperimentKind::Port { n: 1 }));
        assert!(bench.log.iter().all(|r| r.samples > 0));
    }
}
