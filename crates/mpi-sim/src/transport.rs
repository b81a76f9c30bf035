//! # transport — the message-delivery seam under the rank runtime
//!
//! The scheduler in [`crate::runtime`] never touches a queue or a socket
//! directly: every point-to-point message goes through the [`Transport`]
//! trait. [`InMemTransport`] re-expresses the historical deterministic
//! in-memory queues behind that seam (bit-identical to the pre-refactor
//! `mpi-sim`, including the sorted-key checkpoint byte layout), and the
//! `dist` backend layers the same hub over per-rank loopback TCP links.
//!
//! The bottom half of this module is the wire framing shared by every
//! socket-backed component: length-prefixed frames carrying a magic, a
//! wire version, and a trailing checksum, in the same
//! versioned-checksummed idiom as `nir::codec`. Every failure mode —
//! short read, bad magic, version skew, checksum mismatch, timeout,
//! peer death — is a typed [`TransportError`], never a panic and never
//! an unbounded wait (socket reads are expected to carry OS timeouts).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};

use exec::ckpt::chain::digest64;
use exec::ckpt::CkptError;
use nir::codec::{Reader, Writer};

/// Leading magic of every transport frame.
pub const FRAME_MAGIC: [u8; 4] = *b"WFR1";
/// Wire protocol version; bump on any frame-layout change. A peer
/// speaking another version is rejected typed ([`TransportError::
/// VersionSkew`]), never mis-decoded.
pub const WIRE_VERSION: u8 = 1;
/// Upper bound on a single frame payload. A corrupt length prefix must
/// produce a typed error, not an attempted multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u64 = 256 << 20;
/// Frame header size: magic + version + u64 payload length.
const FRAME_HEADER_LEN: usize = 4 + 1 + 8;

/// Typed transport failure. Carried inside `SimError`/`CkptError` by the
/// rank runtime so a dead or misbehaving peer is always a classifiable
/// outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Underlying socket/stream I/O failed.
    Io { op: &'static str, message: String },
    /// The stream ended mid-frame (peer died or the frame was cut).
    Truncated { wanted: usize, got: usize },
    /// The frame did not start with [`FRAME_MAGIC`].
    BadMagic { found: [u8; 4] },
    /// The peer speaks a different wire version.
    VersionSkew { found: u8, expected: u8 },
    /// Checksum mismatch or malformed payload.
    Corrupt { message: String },
    /// A read or connect exceeded its bounded timeout.
    Timeout { op: &'static str },
    /// The peer closed the connection cleanly where a frame was expected.
    Disconnected,
    /// The peer refused the connection or the handshake.
    Refused { message: String },
}

/// A payload that arrived in a sound frame but does not decode — the one
/// conversion the `dist` and `jitd` payload decoders share.
impl From<nir::CodecError> for TransportError {
    fn from(e: nir::CodecError) -> Self {
        TransportError::Corrupt {
            message: format!("payload codec: {e}"),
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io { op, message } => write!(f, "transport I/O during {op}: {message}"),
            TransportError::Truncated { wanted, got } => {
                write!(
                    f,
                    "transport frame truncated: wanted {wanted} bytes, got {got}"
                )
            }
            TransportError::BadMagic { found } => {
                write!(f, "transport frame has bad magic {found:02x?}")
            }
            TransportError::VersionSkew { found, expected } => write!(
                f,
                "transport wire version skew: peer speaks v{found}, this side v{expected}"
            ),
            TransportError::Corrupt { message } => write!(f, "transport frame corrupt: {message}"),
            TransportError::Timeout { op } => write!(f, "transport timeout during {op}"),
            TransportError::Disconnected => write!(f, "transport peer disconnected"),
            TransportError::Refused { message } => write!(f, "transport refused: {message}"),
        }
    }
}

impl std::error::Error for TransportError {}

fn io_error(op: &'static str, e: std::io::Error) -> TransportError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout { op },
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => TransportError::Disconnected,
        ErrorKind::ConnectionRefused => TransportError::Refused {
            message: e.to_string(),
        },
        _ => TransportError::Io {
            op,
            message: e.to_string(),
        },
    }
}

/// Write one framed payload: magic, version, little-endian length,
/// payload bytes, trailing [`digest64`] checksum. The frame is built in
/// one buffer and handed over in one write — one syscall and, when it
/// fits, one segment on a `TCP_NODELAY` stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), TransportError> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 8);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(WIRE_VERSION);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&digest64(payload).to_le_bytes());
    w.write_all(&frame)
        .map_err(|e| io_error("frame write", e))?;
    w.flush().map_err(|e| io_error("frame flush", e))?;
    Ok(())
}

/// Best-effort `read_exact` that reports how much arrived, so a peer
/// dying mid-frame is a typed [`TransportError::Truncated`] /
/// [`TransportError::Disconnected`], never a hang (the stream's own
/// read timeout bounds each step).
fn read_exact_counted(
    r: &mut impl Read,
    buf: &mut [u8],
    op: &'static str,
) -> Result<(), TransportError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Err(TransportError::Disconnected);
                }
                return Err(TransportError::Truncated {
                    wanted: buf.len(),
                    got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(op, e)),
        }
    }
    Ok(())
}

/// Read one framed payload written by [`write_frame`], validating magic,
/// version, length bound, and checksum. Every malformed input is a typed
/// error.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, TransportError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    read_exact_counted(r, &mut head, "frame header read")?;
    if head[..4] != FRAME_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&head[..4]);
        return Err(TransportError::BadMagic { found });
    }
    if head[4] != WIRE_VERSION {
        return Err(TransportError::VersionSkew {
            found: head[4],
            expected: WIRE_VERSION,
        });
    }
    let len = u64::from_le_bytes(head[5..].try_into().expect("8 header bytes"));
    if len > MAX_FRAME_LEN {
        return Err(TransportError::Corrupt {
            message: format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_counted(r, &mut payload, "frame payload read")?;
    let mut sum = [0u8; 8];
    read_exact_counted(r, &mut sum, "frame checksum read")?;
    let found = u64::from_le_bytes(sum);
    let expect = digest64(&payload);
    if found != expect {
        return Err(TransportError::Corrupt {
            message: format!(
                "frame checksum mismatch: stored {found:#018x}, computed {expect:#018x}"
            ),
        });
    }
    Ok(payload)
}

/// (from, to, tag) -> FIFO of (payload, available_at) — the historical
/// in-memory queue shape, now owned by [`InMemTransport`].
pub type MsgQueues = HashMap<(u32, u32, i32), VecDeque<(Vec<f32>, u64)>>;

/// The message-delivery fabric under the rank runtime. Implementations
/// must be deterministic: the same sequence of posts and receives yields
/// the same deliveries and the same [`Transport::snapshot`] bytes —
/// checkpoint bit-identity across backends depends on it.
pub trait Transport {
    /// Enqueue a point-to-point message available to the receiver from
    /// virtual time `avail_at`.
    fn post(&mut self, from: u32, to: u32, tag: i32, payload: Vec<f32>, avail_at: u64);
    /// Pop the next matching message, if any.
    fn try_recv(&mut self, to: u32, from: u32, tag: i32) -> Option<(Vec<f32>, u64)>;
    /// Messages currently queued on one (from, to, tag) edge.
    fn queued(&self, from: u32, to: u32, tag: i32) -> usize;
    /// Messages queued toward `to` across all edges (post-mortems).
    fn inbound_total(&self, to: u32) -> usize;
    /// Serialize all in-flight messages as one checkpoint section, in a
    /// deterministic (sorted-key) order.
    fn snapshot(&self) -> Vec<u8>;
    /// Replace in-flight state from a [`Transport::snapshot`] section.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError>;
    /// Drop every in-flight message (cold starts discard the fabric).
    fn clear(&mut self);
}

/// The deterministic in-memory delivery fabric — the pre-refactor
/// `mpi-sim` queues re-expressed behind [`Transport`]. Also the hub the
/// `dist` backend's coordinator runs; worker payloads cross the sockets
/// on the rank protocol and meet here for matching.
#[derive(Debug, Default)]
pub struct InMemTransport {
    queues: MsgQueues,
}

impl InMemTransport {
    pub fn new() -> Self {
        InMemTransport::default()
    }
}

impl Transport for InMemTransport {
    fn post(&mut self, from: u32, to: u32, tag: i32, payload: Vec<f32>, avail_at: u64) {
        self.queues
            .entry((from, to, tag))
            .or_default()
            .push_back((payload, avail_at));
    }

    fn try_recv(&mut self, to: u32, from: u32, tag: i32) -> Option<(Vec<f32>, u64)> {
        self.queues
            .get_mut(&(from, to, tag))
            .and_then(|q| q.pop_front())
    }

    fn queued(&self, from: u32, to: u32, tag: i32) -> usize {
        self.queues.get(&(from, to, tag)).map_or(0, |q| q.len())
    }

    fn inbound_total(&self, to: u32) -> usize {
        self.queues
            .iter()
            .filter(|(&(_, t, _), _)| t == to)
            .map(|(_, q)| q.len())
            .sum()
    }

    fn snapshot(&self) -> Vec<u8> {
        // HashMap iteration order is nondeterministic — sort the keys so
        // identical worlds produce bit-identical checkpoints.
        let mut msgs = Writer::new();
        let mut keys: Vec<&(u32, u32, i32)> = self.queues.keys().collect();
        keys.sort();
        msgs.len(keys.len());
        for key in keys {
            let q = &self.queues[key];
            msgs.u32(key.0);
            msgs.u32(key.1);
            msgs.i32(key.2);
            msgs.len(q.len());
            for (payload, avail_at) in q {
                msgs.len(payload.len());
                for &f in payload {
                    msgs.f32(f);
                }
                msgs.u64(*avail_at);
            }
        }
        msgs.into_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = Reader::new(bytes);
        let mut queues: MsgQueues = HashMap::new();
        let n_queues = r.len()?;
        for _ in 0..n_queues {
            let from = r.u32()?;
            let to = r.u32()?;
            let tag = r.i32()?;
            let n_msgs = r.len()?;
            let mut q = VecDeque::with_capacity(n_msgs);
            for _ in 0..n_msgs {
                let n_floats = r.len()?;
                let mut payload = Vec::with_capacity(n_floats);
                for _ in 0..n_floats {
                    payload.push(r.f32()?);
                }
                let avail_at = r.u64()?;
                q.push_back((payload, avail_at));
            }
            queues.insert((from, to, tag), q);
        }
        if !r.is_at_end() {
            return Err(CkptError::Corrupt {
                offset: r.offset(),
                message: "trailing bytes after message queues".into(),
            });
        }
        self.queues = queues;
        Ok(())
    }

    fn clear(&mut self) {
        self.queues.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello ranks").unwrap();
        write_frame(&mut wire, &[]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello ranks");
        assert_eq!(read_frame(&mut r).unwrap(), Vec::<u8>::new());
        // Clean end-of-stream where a frame would start is a typed
        // disconnect, not a hang or a panic.
        assert_eq!(
            read_frame(&mut r).unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn version_skew_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire[4] = WIRE_VERSION + 7;
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(
            err,
            TransportError::VersionSkew {
                found: WIRE_VERSION + 7,
                expected: WIRE_VERSION
            }
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &wire[..]).unwrap_err(),
            TransportError::BadMagic { .. }
        ));
    }

    #[test]
    fn corrupt_payload_and_oversized_length_are_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"sensitive floats").unwrap();
        let mut flipped = wire.clone();
        flipped[FRAME_HEADER_LEN + 3] ^= 0x40; // payload bit
        assert!(matches!(
            read_frame(&mut &flipped[..]).unwrap_err(),
            TransportError::Corrupt { .. }
        ));
        let mut huge = wire.clone();
        huge[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]).unwrap_err(),
            TransportError::Corrupt { .. }
        ));
    }

    #[test]
    fn truncation_at_every_cut_is_typed_never_a_panic() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"0123456789abcdef").unwrap();
        for cut in 0..wire.len() {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TransportError::Truncated { .. } | TransportError::Disconnected
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn inmem_transport_matches_queue_semantics() {
        let mut t = InMemTransport::new();
        t.post(0, 1, 7, vec![1.0, 2.0], 10);
        t.post(0, 1, 7, vec![3.0], 20);
        t.post(2, 1, 7, vec![9.0], 5);
        assert_eq!(t.queued(0, 1, 7), 2);
        assert_eq!(t.inbound_total(1), 3);
        assert_eq!(t.try_recv(1, 0, 7), Some((vec![1.0, 2.0], 10)));
        assert_eq!(t.try_recv(1, 0, 7), Some((vec![3.0], 20)));
        assert_eq!(t.try_recv(1, 0, 7), None);
        assert_eq!(t.try_recv(1, 2, 7), Some((vec![9.0], 5)));
    }

    #[test]
    fn inmem_snapshot_restore_is_bit_identical_and_rejects_garbage() {
        let mut t = InMemTransport::new();
        t.post(3, 0, -1, vec![0.5; 9], 123);
        t.post(0, 3, 2, vec![], 0);
        t.post(1, 2, 0, vec![f32::NAN], 7);
        let snap = t.snapshot();
        let mut u = InMemTransport::new();
        u.restore(&snap).unwrap();
        assert_eq!(u.snapshot(), snap);
        let mut v = InMemTransport::new();
        for cut in 0..snap.len() {
            assert!(v.restore(&snap[..cut]).is_err(), "cut {cut} must be typed");
        }
    }
}
