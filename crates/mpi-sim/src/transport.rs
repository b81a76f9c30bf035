//! # transport — message queues and wire frames
//!
//! The scheduler in [`crate::runtime`] matches every point-to-point
//! message in its own deterministic in-memory queues
//! (`InMemTransport`; bit-identical to the pre-refactor `mpi-sim`,
//! including the sorted-key checkpoint byte layout). This holds on every
//! backend: a `dist` rank's payloads cross its socket on the rank
//! protocol as reads and writes of rank memory, and the coordinator's
//! scheduler queues them here.
//!
//! The rest of this module is the wire framing shared by every
//! socket-backed component: length-prefixed frames carrying a magic, a
//! wire version, and a trailing checksum, in the same
//! versioned-checksummed idiom as `nir::codec`. Every failure mode —
//! short read, bad magic, version skew, checksum mismatch, timeout,
//! peer death — is a typed [`TransportError`], never a panic and never
//! an unbounded wait (socket reads are expected to carry OS timeouts).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};

use exec::ckpt::CkptError;
use nir::codec::{Reader, Writer};
use nir::hash::fnv1a64_avalanche;

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
/// payload bytes, trailing [`fnv1a64_avalanche`] checksum. The frame is built in
/// one buffer and handed over in one write — one syscall and, when it
/// fits, one segment on a `TCP_NODELAY` stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), TransportError> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 8);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(WIRE_VERSION);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a64_avalanche(payload).to_le_bytes());
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

/// Bytes reserved for a payload before any of it arrives. A header may
/// claim up to [`MAX_FRAME_LEN`]; the buffer grows past this only with
/// bytes actually read, so a 13-byte header cannot reserve 256 MiB.
const PAYLOAD_FIRST_RESERVE: usize = 64 << 10;

/// Read a `len`-byte payload, growing the buffer with the bytes that
/// arrive. Fails exactly as [`read_exact_counted`] does on the same input.
fn read_payload(r: &mut impl Read, len: usize) -> Result<Vec<u8>, TransportError> {
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_FIRST_RESERVE));
    match r.by_ref().take(len as u64).read_to_end(&mut payload) {
        Ok(got) if got == len => Ok(payload),
        Ok(0) if len > 0 => Err(TransportError::Disconnected),
        Ok(got) => Err(TransportError::Truncated { wanted: len, got }),
        Err(e) => Err(io_error("frame payload read", e)),
    }
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
    let payload = read_payload(r, len as usize)?;
    let mut sum = [0u8; 8];
    read_exact_counted(r, &mut sum, "frame checksum read")?;
    let found = u64::from_le_bytes(sum);
    let expect = fnv1a64_avalanche(&payload);
    if found != expect {
        return Err(TransportError::Corrupt {
            message: format!(
                "frame checksum mismatch: stored {found:#018x}, computed {expect:#018x}"
            ),
        });
    }
    Ok(payload)
}

/// The scheduler's deterministic message queues: (from, to, tag) ->
/// FIFO of (payload, available_at). The same posts and receives yield
/// the same deliveries and the same [`InMemTransport::snapshot`] bytes —
/// checkpoint bit-identity across backends depends on it.
#[derive(Debug, Default)]
pub(crate) struct InMemTransport {
    queues: HashMap<Edge, VecDeque<(Vec<f32>, u64)>>,
}

/// One point-to-point edge: (from, to, tag).
type Edge = (u32, u32, i32);

impl InMemTransport {
    /// Enqueue a point-to-point message available to the receiver from
    /// virtual time `avail_at`.
    pub(crate) fn post(&mut self, from: u32, to: u32, tag: i32, payload: Vec<f32>, avail_at: u64) {
        self.queues
            .entry((from, to, tag))
            .or_default()
            .push_back((payload, avail_at));
    }

    /// Pop the next matching message, if any.
    pub(crate) fn try_recv(&mut self, to: u32, from: u32, tag: i32) -> Option<(Vec<f32>, u64)> {
        self.queues
            .get_mut(&(from, to, tag))
            .and_then(|q| q.pop_front())
    }

    /// Messages currently queued on one (from, to, tag) edge.
    pub(crate) fn queued(&self, from: u32, to: u32, tag: i32) -> usize {
        self.queues.get(&(from, to, tag)).map_or(0, |q| q.len())
    }

    /// Messages queued toward `to` across all edges (post-mortems).
    pub(crate) fn inbound_total(&self, to: u32) -> usize {
        self.queues
            .iter()
            .filter(|(&(_, t, _), _)| t == to)
            .map(|(_, q)| q.len())
            .sum()
    }

    /// Serialize all in-flight messages as one checkpoint section, in a
    /// deterministic (sorted-key) order.
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        // HashMap iteration order is nondeterministic — sort the keys so
        // identical worlds produce bit-identical checkpoints.
        let mut msgs = Writer::new();
        let mut keys: Vec<&Edge> = self.queues.keys().collect();
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

    /// Replace in-flight state from a [`InMemTransport::snapshot`] section.
    pub(crate) fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = Reader::new(bytes);
        let mut queues = HashMap::new();
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

    /// Drop every in-flight message (cold starts discard the queues).
    pub(crate) fn clear(&mut self) {
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
        // Every single-byte flip is typed too, by where it lands.
        for at in 0..wire.len() {
            for mask in 1..=u8::MAX {
                let mut flipped = wire.clone();
                flipped[at] ^= mask;
                let err = read_frame(&mut &flipped[..]).unwrap_err();
                // A flipped length claims more than arrived (cut inside
                // the payload, or exactly before the checksum), more than
                // the bound, or less, which moves the checksum.
                let typed = match at {
                    0..4 => matches!(err, TransportError::BadMagic { .. }),
                    4 => matches!(err, TransportError::VersionSkew { .. }),
                    5..FRAME_HEADER_LEN => matches!(
                        err,
                        TransportError::Truncated { .. }
                            | TransportError::Disconnected
                            | TransportError::Corrupt { .. }
                    ),
                    _ => matches!(err, TransportError::Corrupt { .. }),
                };
                assert!(typed, "byte {at} ^ {mask:#04x}: {err}");
            }
        }
    }

    #[test]
    fn inmem_transport_matches_queue_semantics() {
        let mut t = InMemTransport::default();
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
        let mut t = InMemTransport::default();
        t.post(3, 0, -1, vec![0.5; 9], 123);
        t.post(0, 3, 2, vec![], 0);
        t.post(1, 2, 0, vec![f32::NAN], 7);
        let snap = t.snapshot();
        let mut u = InMemTransport::default();
        u.restore(&snap).unwrap();
        assert_eq!(u.snapshot(), snap);
        let mut v = InMemTransport::default();
        for cut in 0..snap.len() {
            assert!(v.restore(&snap[..cut]).is_err(), "cut {cut} must be typed");
        }
    }
}
