//! Task-dispatch serialization model.
//!
//! Parsl serializes each app invocation (function + arguments, typically
//! with dill/pickle) and ships it through the interchange to a manager,
//! which hands it to a worker over ZMQ. That wire path adds latency
//! proportional to payload size — negligible for small argument tuples,
//! very visible when users close over numpy arrays.
//!
//! [`dispatch_latency`] converts the size of one framed app call (fixed
//! header + body, the interchange's framing) into the delay the worker
//! charges before the task body starts.

use parfait_simcore::SimDuration;

/// Frame header size: magic + task id + body length.
const HEADER_BYTES: usize = 4 + 8 + 4;

/// Serialized argument payload of an app call: a small pickled tuple.
const PAYLOAD_BYTES: usize = 2 * 1024;

/// Fixed per-dispatch cost (pickle of the closure, ZMQ round trip).
const BASE_LATENCY: SimDuration = SimDuration::from_micros(850);

/// Effective serialize+transfer bandwidth for the payload body, in
/// bytes/second (loopback ZMQ + pickle throughput, not NIC line rate).
const BYTES_PER_SEC: f64 = 600e6;

/// Dispatch latency of one app call's framed payload.
pub fn dispatch_latency() -> SimDuration {
    BASE_LATENCY + SimDuration::from_secs_f64((HEADER_BYTES + PAYLOAD_BYTES) as f64 / BYTES_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_base_plus_payload_transfer() {
        // 2 KiB + header at 600 MB/s adds ≈3.4 µs to the 850 µs base.
        let d = dispatch_latency();
        assert!(d > BASE_LATENCY);
        assert!(d < BASE_LATENCY + SimDuration::from_micros(4), "got {d}");
    }
}
