//! Task-dispatch serialization model.
//!
//! Parsl serializes each app invocation (function + arguments, typically
//! with dill/pickle) and ships it through the interchange to a manager,
//! which hands it to a worker over ZMQ. That wire path adds latency
//! proportional to payload size — negligible for small argument tuples,
//! very visible when users close over numpy arrays.
//!
//! [`encode`] and [`decode`] frame payloads the way the interchange does
//! (fixed header + body); [`dispatch_latency`] converts the frame size
//! into the delay the worker charges before the task body starts. Frames
//! are [`bytes::Bytes`] so queueing them (interchange → manager → worker)
//! never copies the body.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parfait_simcore::SimDuration;

/// Frame header magic (ASCII "PFT1").
pub const MAGIC: u32 = 0x5046_5431;

/// Header size: magic + task id + body length.
pub const HEADER_BYTES: usize = 4 + 8 + 4;

/// Serialized argument payload of an app call: a small pickled tuple.
const PAYLOAD_BYTES: usize = 2 * 1024;

/// Fixed per-dispatch cost (pickle of the closure, ZMQ round trip).
const BASE_LATENCY: SimDuration = SimDuration::from_micros(850);

/// Effective serialize+transfer bandwidth for the payload body, in
/// bytes/second (loopback ZMQ + pickle throughput, not NIC line rate).
const BYTES_PER_SEC: f64 = 600e6;

/// A framed task payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Task id carried in the header.
    pub task: u64,
    /// Opaque serialized body.
    pub body: Bytes,
}

/// Frame a payload for the wire.
pub fn encode(task: u64, body: impl Into<Bytes>) -> Bytes {
    let body = body.into();
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + body.len());
    buf.put_u32(MAGIC);
    buf.put_u64(task);
    buf.put_u32(body.len() as u32);
    buf.extend_from_slice(&body);
    buf.freeze()
}

/// Parse a frame; returns `None` on malformed input (bad magic,
/// truncated body).
pub fn decode(mut wire: Bytes) -> Option<Frame> {
    if wire.len() < HEADER_BYTES {
        return None;
    }
    if wire.get_u32() != MAGIC {
        return None;
    }
    let task = wire.get_u64();
    let len = wire.get_u32() as usize;
    if wire.len() != len {
        return None;
    }
    Some(Frame { task, body: wire })
}

/// Dispatch latency of one app call's framed payload.
pub fn dispatch_latency() -> SimDuration {
    BASE_LATENCY + SimDuration::from_secs_f64((HEADER_BYTES + PAYLOAD_BYTES) as f64 / BYTES_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let wire = encode(42, Bytes::from_static(b"hello args"));
        assert_eq!(wire.len(), HEADER_BYTES + 10);
        let f = decode(wire).unwrap();
        assert_eq!(f.task, 42);
        assert_eq!(&f.body[..], b"hello args");
    }

    #[test]
    fn zero_copy_body() {
        let wire = encode(1, Bytes::from(vec![7u8; 1 << 20]));
        let f = decode(wire.clone()).unwrap();
        // The decoded body aliases the wire buffer (no copy): same backing
        // allocation, so the pointer into it matches the offset.
        assert_eq!(f.body.as_ptr(), wire[HEADER_BYTES..].as_ptr());
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(decode(Bytes::from_static(b"short")).is_none());
        let mut bad = BytesMut::new();
        bad.put_u32(0xDEAD_BEEF);
        bad.put_u64(0);
        bad.put_u32(0);
        assert!(decode(bad.freeze()).is_none());
        // Truncated body.
        let mut t = BytesMut::new();
        t.put_u32(MAGIC);
        t.put_u64(0);
        t.put_u32(100);
        t.extend_from_slice(b"only a bit");
        assert!(decode(t.freeze()).is_none());
    }

    #[test]
    fn latency_is_base_plus_payload_transfer() {
        // 2 KiB + header at 600 MB/s adds ≈3.4 µs to the 850 µs base.
        let d = dispatch_latency();
        assert!(d > BASE_LATENCY);
        assert!(d < BASE_LATENCY + SimDuration::from_micros(4), "got {d}");
    }
}
