//! The Autopower client: local buffering, batched uploads, reconnects.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use fj_faults::Backoff;
use fj_telemetry::{Counter, Gauge, Histogram, Level, SpanTimer, Telemetry, WallEpoch};

use super::protocol::{read_message, write_message, Message, PowerSample, ProtoError};

/// Metric handles resolved once at construction so the sample/flush hot
/// paths cost a single atomic op each, not a registry lookup.
struct ClientMetrics {
    samples_pushed: Counter,
    overflow_dropped: Counter,
    flushes: Counter,
    flush_failures: Counter,
    backoff_suppressed: Counter,
    reconnects: Counter,
    buffer_occupancy: Gauge,
    flush_duration: Histogram,
}

impl ClientMetrics {
    fn new(telemetry: &Telemetry, unit_id: &str) -> Self {
        let r = telemetry.registry();
        Self {
            samples_pushed: r.counter("autopower_samples_pushed_total", &[]),
            overflow_dropped: r.counter("autopower_overflow_dropped_total", &[]),
            flushes: r.counter("autopower_flushes_total", &[]),
            flush_failures: r.counter("autopower_flush_failures_total", &[]),
            backoff_suppressed: r.counter("autopower_backoff_suppressed_total", &[]),
            reconnects: r.counter("autopower_reconnects_total", &[]),
            buffer_occupancy: r.gauge("autopower_buffer_occupancy", &[("unit", unit_id)]),
            flush_duration: telemetry
                .diagnostics()
                .histogram("autopower_flush_duration_seconds", &[]),
        }
    }
}

/// What [`AutopowerClient::push_sample`] does when the local buffer is
/// full. Either way the loss is *explicit*: the dropped-sample counter
/// advances and, for [`DropOldest`](OverflowPolicy::DropOldest), the
/// sequence numbers skip the evicted range so the server-side record
/// shows a gap instead of silently re-numbered data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Evict the oldest unacknowledged sample to make room (keep the
    /// freshest data — the default; a long outage degrades history, not
    /// liveness).
    DropOldest,
    /// Refuse the new sample (keep the oldest contiguous history).
    DropNewest,
}

/// An Autopower measurement unit's upload logic.
///
/// Samples are appended with [`AutopowerClient::push_sample`] — that never
/// fails and never blocks on the network; once the bounded buffer is full
/// the configured [`OverflowPolicy`] applies. [`AutopowerClient::flush`]
/// uploads everything not yet acknowledged; on failure the samples stay
/// buffered, a reconnect backoff window opens, and flushes inside the
/// window short-circuit with [`ProtoError::Backoff`] instead of dialing a
/// server that was just observed dead. The server deduplicates by
/// sequence number, so a flush that died after the server stored the
/// batch but before the ack arrived does not duplicate data.
pub struct AutopowerClient {
    unit_id: String,
    pub(crate) server: SocketAddr,
    /// All samples not yet acknowledged; `base_seq` is the sequence number
    /// of `buffer[0]`.
    buffer: VecDeque<PowerSample>,
    base_seq: u64,
    /// Maximum samples held locally.
    max_buffered: usize,
    overflow_policy: OverflowPolicy,
    /// Samples evicted (or refused) because the buffer was full.
    overflowed: u64,
    /// Whether the server last told us to measure.
    measuring: bool,
    conn: Option<Connection>,
    /// Socket read timeout: a server that crashes mid-round-trip must not
    /// hang the flush loop forever.
    pub read_timeout: Duration,
    backoff: Backoff,
    epoch: WallEpoch,
    telemetry: Arc<Telemetry>,
    metrics: ClientMetrics,
    /// Whether a connection has ever been established — distinguishes
    /// first dials from reconnects in the telemetry.
    ever_connected: bool,
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Default bound on locally buffered samples. At the paper's 2-second
/// Autopower sampling cadence this is over a week of outage.
pub const DEFAULT_MAX_BUFFERED: usize = 400_000;

impl AutopowerClient {
    /// Creates a client for `unit_id` that will dial `server`. No
    /// connection is made until the first flush (or [`AutopowerClient::connect`]).
    pub fn new(unit_id: impl Into<String>, server: SocketAddr) -> Self {
        Self::with_telemetry(unit_id, server, Arc::clone(fj_telemetry::global()))
    }

    /// Like [`AutopowerClient::new`] but reporting into an explicit
    /// [`Telemetry`] bundle instead of the process-wide one (tests and
    /// soaks isolate their metrics this way).
    pub fn with_telemetry(
        unit_id: impl Into<String>,
        server: SocketAddr,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let unit_id = unit_id.into();
        let seed = unit_id.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        let metrics = ClientMetrics::new(&telemetry, &unit_id);
        Self {
            unit_id,
            server,
            buffer: VecDeque::new(),
            base_seq: 0,
            max_buffered: DEFAULT_MAX_BUFFERED,
            overflow_policy: OverflowPolicy::DropOldest,
            overflowed: 0,
            measuring: true,
            conn: None,
            read_timeout: Duration::from_secs(2),
            // Reconnect schedule: 50 ms doubling to 5 s, jittered per
            // unit so a fleet doesn't stampede a restarting server.
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(5))
                .with_seed(seed),
            epoch: WallEpoch::now(),
            telemetry,
            metrics,
            ever_connected: false,
        }
    }

    /// Overrides the buffer bound and overflow policy.
    pub fn with_buffer_limit(mut self, max: usize, policy: OverflowPolicy) -> Self {
        assert!(max > 0, "buffer limit must be positive");
        self.max_buffered = max;
        self.overflow_policy = policy;
        self
    }

    /// Overrides the reconnect backoff schedule.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// The unit identifier.
    pub fn unit_id(&self) -> &str {
        &self.unit_id
    }

    /// Whether the server wants this unit measuring (updated on every
    /// successful round-trip; `true` until told otherwise).
    pub fn measuring(&self) -> bool {
        self.measuring
    }

    /// Number of samples buffered locally (unacknowledged).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Samples lost to buffer overflow since creation.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Whether the next flush would short-circuit on the reconnect
    /// backoff window.
    pub fn in_backoff(&self) -> bool {
        self.backoff.in_backoff(self.epoch.elapsed())
    }

    /// Retargets the client at a different server address (e.g. the
    /// collection endpoint moved) and clears the backoff window: the new
    /// address has not failed yet.
    pub fn set_server(&mut self, server: SocketAddr) {
        self.server = server;
        self.conn = None;
        self.backoff.reset();
    }

    /// Records a measurement locally. Infallible by design: measurement
    /// must survive network and server outages (§6.1). When the bounded
    /// buffer is full the [`OverflowPolicy`] decides which sample is
    /// sacrificed, and [`AutopowerClient::overflowed`] counts the loss.
    pub fn push_sample(&mut self, sample: PowerSample) {
        self.metrics.samples_pushed.inc();
        if self.buffer.len() >= self.max_buffered {
            if self.overflowed == 0 {
                // One Warn per overflow episode start; the counter carries
                // the magnitude so the log is not flooded sample-by-sample.
                self.telemetry.event(
                    Level::Warn,
                    "autopower.client",
                    "buffer overflow began, dropping samples",
                    &[
                        ("unit", self.unit_id.clone()),
                        ("policy", format!("{:?}", self.overflow_policy)),
                        ("capacity", self.max_buffered.to_string()),
                    ],
                );
            }
            self.overflowed += 1;
            self.metrics.overflow_dropped.inc();
            match self.overflow_policy {
                OverflowPolicy::DropOldest => {
                    self.buffer.pop_front();
                    // The evicted sample's sequence number is consumed:
                    // the server will see a gap, never wrong data.
                    self.base_seq += 1;
                }
                OverflowPolicy::DropNewest => {
                    self.metrics.buffer_occupancy.set(self.buffer.len() as f64);
                    return;
                }
            }
        }
        self.buffer.push_back(sample);
        self.metrics.buffer_occupancy.set(self.buffer.len() as f64);
    }

    /// Establishes (or re-establishes) the connection and performs the
    /// hello handshake. Prunes any samples the server already has.
    pub fn connect(&mut self) -> Result<(), ProtoError> {
        let stream = TcpStream::connect(self.server)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        let mut conn = Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        write_message(
            &mut conn.writer,
            &Message::Hello {
                unit_id: self.unit_id.clone(),
            },
        )?;
        match read_message(&mut conn.reader)? {
            Message::Welcome {
                measuring,
                acked_seq,
            } => {
                self.measuring = measuring;
                self.prune(acked_seq);
            }
            _ => return Err(ProtoError::UnexpectedEof),
        }
        self.conn = Some(conn);
        if self.ever_connected {
            self.metrics.reconnects.inc();
            self.telemetry.event(
                Level::Info,
                "autopower.client",
                "reconnected to collection server",
                &[
                    ("unit", self.unit_id.clone()),
                    ("server", self.server.to_string()),
                ],
            );
        }
        self.ever_connected = true;
        Ok(())
    }

    /// Uploads all buffered samples and waits for the acknowledgement.
    ///
    /// On any error the connection is dropped, the buffer kept, and a
    /// backoff window opened; calls inside the window return
    /// [`ProtoError::Backoff`] immediately without dialing the server
    /// (checking costs nothing; a full dial-and-timeout per sample push
    /// cadence would). A later call past the window reconnects and
    /// retransmits.
    pub fn flush(&mut self) -> Result<(), ProtoError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if self.conn.is_none() && self.in_backoff() {
            self.metrics.backoff_suppressed.inc();
            return Err(ProtoError::Backoff);
        }
        self.metrics.flushes.inc();
        let span = SpanTimer::wall(self.metrics.flush_duration.clone());
        let result = self.try_flush();
        span.finish();
        match &result {
            Ok(()) => {
                self.backoff.reset();
                self.metrics.buffer_occupancy.set(self.buffer.len() as f64);
            }
            Err(e) => {
                self.conn = None; // force reconnect next time
                self.backoff.next_delay(self.epoch.elapsed());
                self.metrics.flush_failures.inc();
                self.telemetry.event(
                    Level::Info,
                    "autopower.client",
                    "flush failed, samples kept buffered",
                    &[
                        ("unit", self.unit_id.clone()),
                        ("error", format!("{e:?}")),
                        ("buffered", self.buffer.len().to_string()),
                    ],
                );
            }
        }
        result
    }

    fn try_flush(&mut self) -> Result<(), ProtoError> {
        if self.conn.is_none() {
            self.connect()?;
        }
        if self.buffer.is_empty() {
            return Ok(()); // the handshake may have pruned everything
        }
        let msg = Message::Upload {
            first_seq: self.base_seq,
            samples: self.buffer.iter().copied().collect(),
        };
        // connect() filled self.conn just above; if it somehow did not,
        // report the flush as failed rather than crash the unit.
        let Some(conn) = self.conn.as_mut() else {
            return Err(ProtoError::UnexpectedEof);
        };
        write_message(&mut conn.writer, &msg)?;
        match read_message(&mut conn.reader)? {
            Message::Ack {
                acked_seq,
                measuring,
            } => {
                self.measuring = measuring;
                self.prune(acked_seq);
                Ok(())
            }
            _ => Err(ProtoError::UnexpectedEof),
        }
    }

    fn prune(&mut self, acked_seq: u64) {
        if acked_seq > self.base_seq {
            let n = ((acked_seq - self.base_seq) as usize).min(self.buffer.len());
            self.buffer.drain(..n);
            self.base_seq += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autopower::server::AutopowerServer;
    use fj_units::SimInstant;
    use std::time::Instant;

    fn sample(t: i64, w: f64) -> PowerSample {
        PowerSample {
            at: SimInstant::from_secs(t),
            watts: w,
        }
    }

    #[test]
    fn end_to_end_upload() {
        let server = AutopowerServer::spawn().unwrap();
        let mut client = AutopowerClient::new("unit-1", server.addr());
        for i in 0..100 {
            client.push_sample(sample(i, 360.0 + i as f64 * 0.1));
        }
        client.flush().unwrap();
        assert_eq!(client.buffered(), 0);
        assert_eq!(server.sample_count("unit-1"), 100);
        let ts = server.samples("unit-1");
        assert_eq!(ts.len(), 100);
        assert!((ts.values()[0] - 360.0).abs() < 1e-9);
        server.shutdown();
    }

    #[test]
    fn multiple_batches_are_contiguous() {
        let server = AutopowerServer::spawn().unwrap();
        let mut client = AutopowerClient::new("unit-2", server.addr());
        for batch in 0..5 {
            for i in 0..20 {
                client.push_sample(sample(batch * 20 + i, 100.0));
            }
            client.flush().unwrap();
        }
        assert_eq!(server.sample_count("unit-2"), 100);
        server.shutdown();
    }

    #[test]
    fn samples_survive_server_outage() {
        // The paper: the client "locally stores the power measurements
        // with periodic uploads"; a power/network failure must not lose
        // data. Simulate by buffering before any server exists.
        let dead_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client = AutopowerClient::new("unit-3", dead_addr);
        for i in 0..50 {
            client.push_sample(sample(i, 47.5));
        }
        assert!(client.flush().is_err());
        assert_eq!(client.buffered(), 50, "failed flush must keep data");
        assert!(client.in_backoff(), "failure opens a backoff window");

        // Server appears; retarget and retry (in reality the address is
        // fixed and the server process returns — same code path, and
        // set_server clears the backoff window for the fresh address).
        let server = AutopowerServer::spawn().unwrap();
        client.set_server(server.addr());
        client.flush().unwrap();
        assert_eq!(client.buffered(), 0);
        assert_eq!(server.sample_count("unit-3"), 50);
        server.shutdown();
    }

    #[test]
    fn flush_short_circuits_during_backoff() {
        let dead_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client = AutopowerClient::new("unit-bo", dead_addr);
        client.push_sample(sample(0, 1.0));
        assert!(client.flush().is_err());
        assert!(client.in_backoff());

        // Inside the window: no dialing, immediate typed error.
        let t0 = Instant::now();
        match client.flush() {
            Err(ProtoError::Backoff) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_millis(20),
            "backoff flush dialed the network: {:?}",
            t0.elapsed()
        );

        // Past the window: a real (failing) attempt happens again and the
        // window grows.
        while client.in_backoff() {
            std::thread::sleep(Duration::from_millis(5));
        }
        match client.flush() {
            Err(ProtoError::Io(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.buffered(), 1);
    }

    #[test]
    fn bounded_buffer_drop_oldest_leaves_gap() {
        let dead_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client = AutopowerClient::new("unit-of", dead_addr)
            .with_buffer_limit(10, OverflowPolicy::DropOldest);
        for i in 0..25 {
            client.push_sample(sample(i, i as f64));
        }
        assert_eq!(client.buffered(), 10, "bounded");
        assert_eq!(client.overflowed(), 15);
        // The freshest samples won; their sequence numbers skipped ahead.
        assert_eq!(client.base_seq, 15);
        assert_eq!(client.buffer.front().unwrap().watts, 15.0);

        // The server's record starts at the gap, never renumbered.
        let server = AutopowerServer::spawn().unwrap();
        client.set_server(server.addr());
        client.flush().unwrap();
        assert_eq!(server.sample_count("unit-of"), 10);
        assert_eq!(server.lost_count("unit-of"), 15);
        // The loss is visible as an explicit gap on the stored series.
        assert_eq!(server.samples("unit-of").gap_count(), 1);
        server.shutdown();
    }

    #[test]
    fn bounded_buffer_drop_newest_keeps_history() {
        let dead_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client = AutopowerClient::new("unit-on", dead_addr)
            .with_buffer_limit(10, OverflowPolicy::DropNewest);
        for i in 0..25 {
            client.push_sample(sample(i, i as f64));
        }
        assert_eq!(client.buffered(), 10);
        assert_eq!(client.overflowed(), 15);
        assert_eq!(client.base_seq, 0, "oldest history intact");
        assert_eq!(client.buffer.back().unwrap().watts, 9.0);
    }

    #[test]
    fn reconnect_does_not_duplicate() {
        let server = AutopowerServer::spawn().unwrap();
        let mut client = AutopowerClient::new("unit-4", server.addr());
        for i in 0..30 {
            client.push_sample(sample(i, 1.0));
        }
        client.flush().unwrap();
        // Drop the connection; push more; flush reconnects and the server
        // must end with exactly 60 samples.
        client.conn = None;
        for i in 30..60 {
            client.push_sample(sample(i, 2.0));
        }
        client.flush().unwrap();
        assert_eq!(server.sample_count("unit-4"), 60);
        server.shutdown();
    }

    #[test]
    fn server_controls_measuring_flag() {
        let server = AutopowerServer::spawn().unwrap();
        server.set_measuring("unit-5", false);
        let mut client = AutopowerClient::new("unit-5", server.addr());
        assert!(client.measuring(), "default on");
        client.push_sample(sample(0, 1.0));
        client.flush().unwrap();
        assert!(!client.measuring(), "server said stop");
        server.set_measuring("unit-5", true);
        client.push_sample(sample(1, 1.0));
        client.flush().unwrap();
        assert!(client.measuring());
        server.shutdown();
    }

    #[test]
    fn two_units_kept_separate() {
        let server = AutopowerServer::spawn().unwrap();
        let mut a = AutopowerClient::new("unit-a", server.addr());
        let mut b = AutopowerClient::new("unit-b", server.addr());
        a.push_sample(sample(0, 10.0));
        b.push_sample(sample(0, 20.0));
        b.push_sample(sample(1, 21.0));
        a.flush().unwrap();
        b.flush().unwrap();
        assert_eq!(server.sample_count("unit-a"), 1);
        assert_eq!(server.sample_count("unit-b"), 2);
        assert_eq!(server.units(), vec!["unit-a", "unit-b"]);
        server.shutdown();
    }

    #[test]
    fn empty_flush_is_noop_without_connection() {
        let dead_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client = AutopowerClient::new("unit-6", dead_addr);
        // Nothing buffered: flush succeeds without touching the network.
        client.flush().unwrap();
    }
}

#[cfg(test)]
mod status_tests {
    use super::*;
    use crate::autopower::server::AutopowerServer;
    use fj_units::SimInstant;

    #[test]
    fn status_view_reflects_units_and_control() {
        let server = AutopowerServer::spawn().unwrap();
        let mut a = AutopowerClient::new("unit-zrh", server.addr());
        let mut b = AutopowerClient::new("unit-gva", server.addr());
        for i in 0..5 {
            a.push_sample(PowerSample {
                at: SimInstant::from_secs(i),
                watts: 100.0,
            });
        }
        a.flush().unwrap();
        b.push_sample(PowerSample {
            at: SimInstant::from_secs(9),
            watts: 50.0,
        });
        b.flush().unwrap();
        server.set_measuring("unit-gva", false);

        let status = server.status();
        assert_eq!(status.len(), 2);
        assert_eq!(status[0].unit_id, "unit-gva");
        assert_eq!(status[0].samples, 1);
        assert_eq!(status[0].last_sample_at, Some(SimInstant::from_secs(9)));
        assert!(!status[0].measuring);
        assert_eq!(status[1].unit_id, "unit-zrh");
        assert_eq!(status[1].samples, 5);
        assert!(status[1].measuring);
        server.shutdown();
    }
}
