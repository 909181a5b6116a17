//! The wire protocol: length-prefixed, checksummed frames.
//!
//! Every message — request or reply — travels as one frame:
//!
//! ```text
//! [ len: LE u32 ][ body: len bytes ][ checksum: LE u64 ]
//! ```
//!
//! `len` counts the body only; the checksum is FNV-1a 64 of the body (the
//! same integrity code every persisted region uses — the threat model is
//! truncation and corruption, not forgery). A request body is
//!
//! ```text
//! [ version: u8 ][ opcode: u8 ][ seq: LE u64 ][ payload ]
//! ```
//!
//! and a reply body is
//!
//! ```text
//! [ version: u8 ][ kind: u8 ][ seq: LE u64 ][ payload ]
//! ```
//!
//! where `seq` echoes the request's sequence id, so a pipelined client can
//! match replies to requests positionally *and* verify the pairing.
//!
//! Decoding follows the persistence layer's doctrine: every malformed input
//! must produce a typed [`ProtoError`] — never a panic, and never an
//! allocation sized from an attacker-controlled length that the frame's
//! actual bytes do not back. The frame length is validated against the
//! configured maximum *before* the body buffer is allocated, and the
//! `ContainsBatch` element count must exactly match the bytes present.

use cpma_persist::checksum::fnv1a64;
use std::io::{self, Read};

/// The only protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on a frame's body length (1 MiB ≈ 131k keys per batch).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 20;

/// Bytes a frame adds around its body: 4-byte length + 8-byte checksum.
pub const FRAME_OVERHEAD: usize = 12;

/// Request/reply body header: version, opcode/kind, sequence id.
const BODY_HEADER: usize = 1 + 1 + 8;

mod opcode {
    pub const INSERT: u8 = 1;
    pub const REMOVE: u8 = 2;
    pub const CONTAINS: u8 = 3;
    pub const CONTAINS_BATCH: u8 = 4;
    pub const RANGE_SUM: u8 = 5;
    pub const SCAN: u8 = 6;
}

mod kind {
    pub const BOOL: u8 = 1;
    pub const BOOLS: u8 = 2;
    pub const SUM: u8 = 3;
    pub const KEYS: u8 = 4;
    pub const ERROR: u8 = 0xff;
}

/// A malformed frame or body. Each variant maps to a stable one-byte code
/// carried in [`Reply::Error`], so clients see *why* the server hung up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended inside a frame (mid-length, mid-body, or
    /// mid-checksum). The label names the region that was cut.
    Truncated(&'static str),
    /// The body checksum did not match.
    ChecksumMismatch,
    /// The length prefix exceeds the configured frame cap; rejected before
    /// any allocation.
    Oversize { len: u32, max: u32 },
    /// The body's version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// Unknown opcode (requests) or kind (replies).
    BadOpcode(u8),
    /// The payload length is impossible for this opcode — too short, too
    /// long, or an element count that the bytes present do not back.
    BadLength { opcode: u8, len: usize },
}

impl ProtoError {
    /// Stable one-byte error code for the wire.
    pub fn code(self) -> u8 {
        match self {
            ProtoError::Truncated(_) => 1,
            ProtoError::ChecksumMismatch => 2,
            ProtoError::Oversize { .. } => 3,
            ProtoError::UnsupportedVersion(_) => 4,
            ProtoError::BadOpcode(_) => 5,
            ProtoError::BadLength { .. } => 6,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated(what) => write!(f, "stream truncated inside {what}"),
            ProtoError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ProtoError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            ProtoError::UnsupportedVersion(v) => {
                write!(f, "protocol version {v} (supported: {PROTOCOL_VERSION})")
            }
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadLength { opcode, len } => {
                write!(
                    f,
                    "impossible payload length {len} for opcode {opcode:#04x}"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Receive-side failure: either the transport broke ([`io::Error`]) or the
/// peer sent bytes that do not parse ([`ProtoError`]).
#[derive(Debug)]
pub enum RecvError {
    Io(io::Error),
    Proto(ProtoError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "i/o: {e}"),
            RecvError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<ProtoError> for RecvError {
    fn from(e: ProtoError) -> Self {
        RecvError::Proto(e)
    }
}

/// One client request. `seq` is the per-connection sequence id echoed in
/// the matching reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert `key`; replied with `true` iff newly added. Linearized
    /// through the combiner.
    Insert { seq: u64, key: u64 },
    /// Remove `key`; replied with `true` iff it was present. Linearized.
    Remove { seq: u64, key: u64 },
    /// Linearized membership test (observes all earlier acked writes).
    Contains { seq: u64, key: u64 },
    /// Batched membership against a snapshot covering every epoch
    /// applied before it, so this connection's earlier acked writes are
    /// visible.
    ContainsBatch { seq: u64, keys: Vec<u64> },
    /// Sum of keys in `lo..=hi` against a snapshot.
    RangeSum { seq: u64, lo: u64, hi: u64 },
    /// Up to `max` keys starting at `lo`, ascending, against a snapshot.
    /// The server additionally caps `max` at its configured scan limit.
    Scan { seq: u64, lo: u64, max: u32 },
}

impl Request {
    /// This request's sequence id.
    pub fn seq(&self) -> u64 {
        match *self {
            Request::Insert { seq, .. }
            | Request::Remove { seq, .. }
            | Request::Contains { seq, .. }
            | Request::ContainsBatch { seq, .. }
            | Request::RangeSum { seq, .. }
            | Request::Scan { seq, .. } => seq,
        }
    }

    /// Replace the sequence id (the client assigns ids at send time).
    pub fn set_seq(&mut self, new: u64) {
        match self {
            Request::Insert { seq, .. }
            | Request::Remove { seq, .. }
            | Request::Contains { seq, .. }
            | Request::ContainsBatch { seq, .. }
            | Request::RangeSum { seq, .. }
            | Request::Scan { seq, .. } => *seq = new,
        }
    }

    /// Serialize the body (header + payload); the frame wrapper is added
    /// by [`encode_frame`].
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match *self {
            Request::Insert { seq, key } => {
                out.push(opcode::INSERT);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Remove { seq, key } => {
                out.push(opcode::REMOVE);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Contains { seq, key } => {
                out.push(opcode::CONTAINS);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::ContainsBatch { seq, ref keys } => {
                out.push(opcode::CONTAINS_BATCH);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
            }
            Request::RangeSum { seq, lo, hi } => {
                out.push(opcode::RANGE_SUM);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
            Request::Scan { seq, lo, max } => {
                out.push(opcode::SCAN);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&max.to_le_bytes());
            }
        }
    }

    /// Parse a request body (as returned by [`read_frame`]).
    pub fn decode_body(body: &[u8]) -> Result<Request, ProtoError> {
        let (op, seq, payload) = split_body(body)?;
        let fixed = |n: usize| {
            if payload.len() == n {
                Ok(())
            } else {
                Err(ProtoError::BadLength {
                    opcode: op,
                    len: payload.len(),
                })
            }
        };
        match op {
            opcode::INSERT => {
                fixed(8)?;
                Ok(Request::Insert {
                    seq,
                    key: le_u64(payload, 0),
                })
            }
            opcode::REMOVE => {
                fixed(8)?;
                Ok(Request::Remove {
                    seq,
                    key: le_u64(payload, 0),
                })
            }
            opcode::CONTAINS => {
                fixed(8)?;
                Ok(Request::Contains {
                    seq,
                    key: le_u64(payload, 0),
                })
            }
            opcode::CONTAINS_BATCH => {
                // The declared element count must exactly match the bytes
                // present: a forged count can neither over-allocate nor
                // leave trailing garbage.
                let keys = decode_u64s(op, payload)?;
                Ok(Request::ContainsBatch { seq, keys })
            }
            opcode::RANGE_SUM => {
                fixed(16)?;
                Ok(Request::RangeSum {
                    seq,
                    lo: le_u64(payload, 0),
                    hi: le_u64(payload, 8),
                })
            }
            opcode::SCAN => {
                fixed(12)?;
                Ok(Request::Scan {
                    seq,
                    lo: le_u64(payload, 0),
                    max: le_u32(payload, 8),
                })
            }
            other => Err(ProtoError::BadOpcode(other)),
        }
    }
}

/// One server reply. `seq` echoes the request it answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Result of `Insert`/`Remove`/`Contains`.
    Bool { seq: u64, value: bool },
    /// Result of `ContainsBatch`, positional.
    Bools { seq: u64, values: Vec<bool> },
    /// Result of `RangeSum`.
    Sum { seq: u64, value: u64 },
    /// Result of `Scan`, ascending.
    Keys { seq: u64, keys: Vec<u64> },
    /// The request could not be served; `code` is [`ProtoError::code`].
    /// The server closes the connection after sending this.
    Error { seq: u64, code: u8 },
}

impl Reply {
    /// This reply's echoed sequence id.
    pub fn seq(&self) -> u64 {
        match *self {
            Reply::Bool { seq, .. }
            | Reply::Bools { seq, .. }
            | Reply::Sum { seq, .. }
            | Reply::Keys { seq, .. }
            | Reply::Error { seq, .. } => seq,
        }
    }

    /// Serialize the body (header + payload).
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match *self {
            Reply::Bool { seq, value } => {
                out.push(kind::BOOL);
                out.extend_from_slice(&seq.to_le_bytes());
                out.push(value as u8);
            }
            Reply::Bools { seq, ref values } => {
                out.push(kind::BOOLS);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                out.extend(values.iter().map(|&b| b as u8));
            }
            Reply::Sum { seq, value } => {
                out.push(kind::SUM);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            Reply::Keys { seq, ref keys } => {
                out.push(kind::KEYS);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
            }
            Reply::Error { seq, code } => {
                out.push(kind::ERROR);
                out.extend_from_slice(&seq.to_le_bytes());
                out.push(code);
            }
        }
    }

    /// Parse a reply body.
    pub fn decode_body(body: &[u8]) -> Result<Reply, ProtoError> {
        let (k, seq, payload) = split_body(body)?;
        let fixed = |n: usize| {
            if payload.len() == n {
                Ok(())
            } else {
                Err(ProtoError::BadLength {
                    opcode: k,
                    len: payload.len(),
                })
            }
        };
        match k {
            kind::BOOL => {
                fixed(1)?;
                Ok(Reply::Bool {
                    seq,
                    value: payload[0] != 0,
                })
            }
            kind::BOOLS => {
                if payload.len() < 4 {
                    return Err(ProtoError::BadLength {
                        opcode: k,
                        len: payload.len(),
                    });
                }
                let n = le_u32(payload, 0) as usize;
                if payload.len() - 4 != n {
                    return Err(ProtoError::BadLength {
                        opcode: k,
                        len: payload.len(),
                    });
                }
                Ok(Reply::Bools {
                    seq,
                    values: payload[4..].iter().map(|&b| b != 0).collect(),
                })
            }
            kind::SUM => {
                fixed(8)?;
                Ok(Reply::Sum {
                    seq,
                    value: le_u64(payload, 0),
                })
            }
            kind::KEYS => {
                let keys = decode_u64s(k, payload)?;
                Ok(Reply::Keys { seq, keys })
            }
            kind::ERROR => {
                fixed(1)?;
                Ok(Reply::Error {
                    seq,
                    code: payload[0],
                })
            }
            other => Err(ProtoError::BadOpcode(other)),
        }
    }
}

/// Split a body into (opcode/kind, seq, payload), checking the version.
fn split_body(body: &[u8]) -> Result<(u8, u64, &[u8]), ProtoError> {
    if body.len() < BODY_HEADER {
        return Err(ProtoError::BadLength {
            opcode: 0,
            len: body.len(),
        });
    }
    if body[0] != PROTOCOL_VERSION {
        return Err(ProtoError::UnsupportedVersion(body[0]));
    }
    Ok((body[1], le_u64(body, 2), &body[BODY_HEADER..]))
}

/// Best-effort sequence id of a body that failed to decode, for the error
/// reply. Requires only that the header bytes are present.
pub fn seq_hint(body: &[u8]) -> u64 {
    if body.len() >= BODY_HEADER {
        le_u64(body, 2)
    } else {
        0
    }
}

/// `[count: LE u32][count × LE u64]`, count validated against the bytes
/// actually present before the vector is sized.
fn decode_u64s(opcode: u8, payload: &[u8]) -> Result<Vec<u64>, ProtoError> {
    let bad = || ProtoError::BadLength {
        opcode,
        len: payload.len(),
    };
    if payload.len() < 4 {
        return Err(bad());
    }
    let n = le_u32(payload, 0) as usize;
    let rest = &payload[4..];
    if rest.len() != n.checked_mul(8).ok_or_else(bad)? {
        return Err(bad());
    }
    Ok((0..n).map(|i| le_u64(rest, i * 8)).collect())
}

fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Wrap `body` in a frame (length prefix + FNV-1a 64 checksum) appended to
/// `out`.
pub fn encode_frame(body: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a64(body).to_le_bytes());
}

/// Convenience: encode a request as one complete frame.
pub fn request_frame(req: &Request) -> Vec<u8> {
    let mut body = Vec::with_capacity(BODY_HEADER + 16);
    req.encode_body(&mut body);
    let mut frame = Vec::with_capacity(body.len() + FRAME_OVERHEAD);
    encode_frame(&body, &mut frame);
    frame
}

/// Convenience: encode a reply as one complete frame.
pub fn reply_frame(rep: &Reply) -> Vec<u8> {
    let mut body = Vec::with_capacity(BODY_HEADER + 16);
    rep.encode_body(&mut body);
    let mut frame = Vec::with_capacity(body.len() + FRAME_OVERHEAD);
    encode_frame(&body, &mut frame);
    frame
}

/// Read one frame from `r`, verifying length cap and checksum.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary*
/// (zero bytes before the next length prefix); end-of-stream anywhere
/// inside a frame is [`ProtoError::Truncated`]. The body buffer is only
/// allocated after the length prefix passes the `max_frame` check.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Vec<u8>>, RecvError> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        Filled::Eof => return Ok(None),
        Filled::Partial => return Err(ProtoError::Truncated("length prefix").into()),
        Filled::Full => {}
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > max_frame {
        return Err(ProtoError::Oversize {
            len,
            max: max_frame,
        }
        .into());
    }
    let mut body = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut body)? {
        Filled::Full => {}
        _ => return Err(ProtoError::Truncated("body").into()),
    }
    let mut crc = [0u8; 8];
    match read_exact_or_eof(r, &mut crc)? {
        Filled::Full => {}
        _ => return Err(ProtoError::Truncated("checksum").into()),
    }
    if u64::from_le_bytes(crc) != fnv1a64(&body) {
        return Err(ProtoError::ChecksumMismatch.into());
    }
    Ok(Some(body))
}

enum Filled {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that distinguishes "zero bytes then EOF" from "some bytes
/// then EOF" — the former is a clean close, the latter a truncation.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Filled> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Ok(if got == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Filled::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = request_frame(&req);
        let body = read_frame(&mut &frame[..], DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(Request::decode_body(&body).unwrap(), req);
    }

    fn roundtrip_rep(rep: Reply) {
        let frame = reply_frame(&rep);
        let body = read_frame(&mut &frame[..], DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(Reply::decode_body(&body).unwrap(), rep);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Insert { seq: 7, key: 42 });
        roundtrip_req(Request::Remove {
            seq: u64::MAX,
            key: 0,
        });
        roundtrip_req(Request::Contains { seq: 0, key: 9 });
        roundtrip_req(Request::ContainsBatch {
            seq: 3,
            keys: vec![],
        });
        roundtrip_req(Request::ContainsBatch {
            seq: 3,
            keys: vec![1, u64::MAX, 5],
        });
        roundtrip_req(Request::RangeSum {
            seq: 11,
            lo: 100,
            hi: 200,
        });
        roundtrip_req(Request::Scan {
            seq: 12,
            lo: 0,
            max: 1000,
        });
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_rep(Reply::Bool {
            seq: 1,
            value: true,
        });
        roundtrip_rep(Reply::Bools {
            seq: 2,
            values: vec![true, false, true],
        });
        roundtrip_rep(Reply::Sum {
            seq: 3,
            value: u64::MAX,
        });
        roundtrip_rep(Reply::Keys {
            seq: 4,
            keys: vec![10, 20, 30],
        });
        roundtrip_rep(Reply::Error { seq: 5, code: 2 });
    }

    #[test]
    fn eof_at_boundary_is_clean() {
        assert!(read_frame(&mut &[][..], 1024).unwrap().is_none());
    }

    #[test]
    fn oversize_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut &frame[..], 1024) {
            Err(RecvError::Proto(ProtoError::Oversize { len, max })) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn forged_batch_count_is_bad_length() {
        // Claim 1000 keys but supply 1: must be BadLength, not a huge Vec.
        let mut body = vec![PROTOCOL_VERSION, opcode::CONTAINS_BATCH];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1000u32.to_le_bytes());
        body.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            Request::decode_body(&body),
            Err(ProtoError::BadLength { .. })
        ));
    }

    #[test]
    fn seq_hint_parses_header() {
        let mut body = Vec::new();
        Request::Insert { seq: 99, key: 1 }.encode_body(&mut body);
        assert_eq!(seq_hint(&body), 99);
        assert_eq!(seq_hint(&body[..4]), 0);
    }
}
