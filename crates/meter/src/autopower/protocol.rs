//! Autopower wire protocol: length-prefixed, CRC-checked JSON frames.
//!
//! ```text
//! u32  body length
//! u32  CRC-32 of the body
//!      body (JSON message)
//! ```
//!
//! The CRC means bytes corrupted in flight (or by a fault plan) surface
//! as a typed [`ProtoError::BadCrc`] instead of a garbage sample, and the
//! connection can be dropped and re-established cleanly.

use std::fmt;
use std::io::{self, Read, Write};

use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

use fj_faults::crc32;
use fj_units::SimInstant;

/// Maximum accepted frame size; anything larger is treated as a protocol
/// violation (protects the server from a misbehaving client).
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Body bytes are read in chunks of at most this size, so a malicious or
/// corrupted length prefix cannot make the reader allocate the full
/// stated length before any data has actually arrived.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// One power measurement taken by a unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Simulated timestamp of the reading.
    pub at: SimInstant,
    /// Measured wall power in watts.
    pub watts: f64,
}

/// Protocol messages. The client never waits for commands synchronously:
/// each upload's acknowledgement carries the server's desired state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// First message on every connection: identifies the unit.
    Hello {
        /// Stable unit identifier (e.g. `"autopower-zrh-1"`).
        unit_id: String,
    },
    /// Server's response to `Hello`.
    Welcome {
        /// Whether the unit should be measuring right now.
        measuring: bool,
        /// Highest sample sequence number the server has durably stored
        /// for this unit; the client may discard everything up to it.
        acked_seq: u64,
    },
    /// A batch of samples with contiguous sequence numbers starting at
    /// `first_seq`.
    Upload {
        /// Sequence number of `samples[0]`.
        first_seq: u64,
        /// The measurements, oldest first.
        samples: Vec<PowerSample>,
    },
    /// Acknowledgement of everything up to and including `acked_seq`,
    /// plus the server's current desired measuring state.
    Ack {
        /// Highest contiguous sequence number stored.
        acked_seq: u64,
        /// Whether the unit should keep measuring.
        measuring: bool,
    },
}

/// Errors reading or writing protocol frames.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying socket error.
    Io(io::Error),
    /// Frame failed to parse as a message.
    Malformed(serde_json::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// Connection closed mid-frame.
    UnexpectedEof,
    /// Frame body did not match its CRC header: corrupted in flight.
    BadCrc {
        /// CRC stated in the frame header.
        stated: u32,
        /// CRC computed over the received body.
        computed: u32,
    },
    /// Operation short-circuited: the client is inside a reconnect
    /// backoff window and did not touch the network.
    Backoff,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::Malformed(e) => write!(f, "malformed frame: {e}"),
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            ProtoError::UnexpectedEof => write!(f, "connection closed mid-frame"),
            ProtoError::BadCrc { stated, computed } => write!(
                f,
                "frame CRC mismatch (header {stated:#010x}, body {computed:#010x})"
            ),
            ProtoError::Backoff => write!(f, "suppressed by reconnect backoff"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A frame as it came off the wire: the stated CRC plus the raw body.
/// Splitting the read from the decode lets a fault-injecting shim mangle
/// the body *between* the two, exactly like corruption in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame {
    /// CRC-32 the sender stamped in the header.
    pub stated_crc: u32,
    /// Body bytes as received.
    pub body: Vec<u8>,
}

/// Writes one framed message.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<(), ProtoError> {
    let body = serde_json::to_vec(msg).map_err(ProtoError::Malformed)?;
    let mut frame = BytesMut::with_capacity(8 + body.len());
    frame.put_u32(body.len() as u32);
    frame.put_u32(crc32(&body));
    frame.put_slice(&body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one raw frame (blocking), without CRC verification.
///
/// The body is read incrementally in `READ_CHUNK_BYTES` (64 KiB)
/// chunks: the buffer only grows as bytes actually arrive, so a hostile
/// length prefix costs the reader nothing beyond the bytes truly sent.
pub fn read_frame<R: Read>(r: &mut R) -> Result<RawFrame, ProtoError> {
    let mut header = [0u8; 8];
    // Only the first byte may escape with a timeout (`WouldBlock`): a
    // reader polling an idle socket sees it before any frame byte is
    // consumed, so framing stays intact. Once a frame has started, the
    // rest is waited for persistently.
    read_exact_or_eof(r, &mut header[..1])?;
    read_exact_persistent(r, &mut header[1..])?;
    let mut h = &header[..];
    let len = h.get_u32() as usize;
    let stated_crc = h.get_u32();
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized(len));
    }
    let mut body = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let chunk = remaining.min(READ_CHUNK_BYTES);
        let read_from = body.len();
        body.resize(read_from + chunk, 0);
        read_exact_persistent(r, &mut body[read_from..])?;
        remaining -= chunk;
    }
    Ok(RawFrame { stated_crc, body })
}

/// Verifies a frame's CRC and parses the body.
pub fn decode_frame(frame: &RawFrame) -> Result<Message, ProtoError> {
    let computed = crc32(&frame.body);
    if computed != frame.stated_crc {
        return Err(ProtoError::BadCrc {
            stated: frame.stated_crc,
            computed,
        });
    }
    serde_json::from_slice(&frame.body).map_err(ProtoError::Malformed)
}

/// Reads one framed message (blocking), verifying the CRC.
pub fn read_message<R: Read>(r: &mut R) -> Result<Message, ProtoError> {
    decode_frame(&read_frame(r)?)
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(ProtoError::UnexpectedEof),
        Err(e) => Err(ProtoError::Io(e)),
    }
}

/// Fills `buf` completely, riding out read timeouts: used for bytes past
/// the first of a frame, where abandoning the read would desync framing.
/// A clean close still surfaces as [`ProtoError::UnexpectedEof`].
fn read_exact_persistent<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ProtoError::UnexpectedEof),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(msg: Message) -> Message {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        read_message(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn all_messages_round_trip() {
        let msgs = [
            Message::Hello {
                unit_id: "autopower-1".into(),
            },
            Message::Welcome {
                measuring: true,
                acked_seq: 7,
            },
            Message::Upload {
                first_seq: 3,
                samples: vec![
                    PowerSample {
                        at: SimInstant::from_secs(10),
                        watts: 361.5,
                    },
                    PowerSample {
                        at: SimInstant::from_secs(11),
                        watts: 360.9,
                    },
                ],
            },
            Message::Ack {
                acked_seq: 4,
                measuring: false,
            },
        ];
        for m in msgs {
            assert_eq!(round_trip(m.clone()), m);
        }
    }

    #[test]
    fn several_frames_in_sequence() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            write_message(
                &mut buf,
                &Message::Ack {
                    acked_seq: i,
                    measuring: true,
                },
            )
            .unwrap();
        }
        let mut cur = Cursor::new(buf);
        for i in 0..5u64 {
            match read_message(&mut cur).unwrap() {
                Message::Ack { acked_seq, .. } => assert_eq!(acked_seq, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(
            read_message(&mut cur),
            Err(ProtoError::UnexpectedEof)
        ));
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        write_message(
            &mut buf,
            &Message::Hello {
                unit_id: "x".into(),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_message(&mut Cursor::new(buf)),
            Err(ProtoError::UnexpectedEof)
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        buf.extend_from_slice(&[0u8; 4]); // crc placeholder
        assert!(matches!(
            read_message(&mut Cursor::new(buf)),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn garbage_body_is_bad_crc_unless_resealed() {
        let body = b"not json";
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(&[0u8; 4]); // wrong crc
        buf.extend_from_slice(body);
        assert!(matches!(
            read_message(&mut Cursor::new(buf)),
            Err(ProtoError::BadCrc { .. })
        ));

        // With a valid CRC the same garbage surfaces as Malformed.
        let mut sealed = Vec::new();
        sealed.extend_from_slice(&(body.len() as u32).to_be_bytes());
        sealed.extend_from_slice(&crc32(body).to_be_bytes());
        sealed.extend_from_slice(body);
        assert!(matches!(
            read_message(&mut Cursor::new(sealed)),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn flipped_body_byte_is_bad_crc() {
        let mut buf = Vec::new();
        write_message(
            &mut buf,
            &Message::Hello {
                unit_id: "unit-7".into(),
            },
        )
        .unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x20;
        assert!(matches!(
            read_message(&mut Cursor::new(buf)),
            Err(ProtoError::BadCrc { .. })
        ));
    }

    #[test]
    fn hostile_length_does_not_preallocate() {
        // A frame header stating MAX_FRAME_BYTES with only a handful of
        // real bytes behind it must fail with EOF after reading what is
        // actually there — not allocate 4 MiB up front. Observable here
        // as: it returns (quickly) with UnexpectedEof.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(&[0xAB; 100]);
        assert!(matches!(
            read_message(&mut Cursor::new(buf)),
            Err(ProtoError::UnexpectedEof)
        ));
    }
}
