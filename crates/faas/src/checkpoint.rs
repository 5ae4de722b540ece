//! Host-side checkpoint store for in-flight task state.
//!
//! Long-running checkpointable bodies (LLM completion sessions, kernel
//! sequences) periodically snapshot their progress at step boundaries
//! (see [`crate::Config::checkpoint_interval`]). A snapshot is *captured* at a
//! boundary, written back device→host at the device's effective PCIe
//! rate (`GpuSpec::checkpoint_write_seconds`), and *committed* to this
//! store only when the writeback finishes on the same worker incarnation
//! that started it — a worker killed mid-write (crash, quarantine, host
//! reboot) never commits a torn snapshot; the store keeps the previous
//! one. The store itself lives host-side (it survives GPU and host
//! fault domains), keyed by task, so a retried attempt may resume on any
//! worker after paying `GpuSpec::checkpoint_restore_seconds`.

use parfait_simcore::SimTime;
use serde::Serialize;

/// Fixed envelope added to every snapshot: tensor metadata, allocator
/// state, and serialization framing (64 MiB).
pub const CHECKPOINT_BASE_BYTES: u64 = 64 << 20;

/// A committed snapshot of one task's progress.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Checkpoint {
    /// Body steps completed when the snapshot was captured. A restored
    /// attempt fast-forwards its fresh body past this many steps.
    pub steps: u64,
    /// Snapshot size: the body's durable private state
    /// ([`crate::TaskBody::checkpoint_bytes`], e.g. the KV cache grown
    /// so far) plus live task allocations plus
    /// [`CHECKPOINT_BASE_BYTES`]. Priced through the device bandwidth
    /// model on both write and restore.
    pub bytes: u64,
    /// Capture time — the step boundary the snapshot is consistent with.
    pub captured_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_envelope_is_nonzero() {
        // The envelope keeps even alloc-free bodies from pricing a
        // zero-byte (free) snapshot.
        const { assert!(CHECKPOINT_BASE_BYTES >= 1 << 20) }
        let c = Checkpoint {
            steps: 3,
            bytes: CHECKPOINT_BASE_BYTES,
            captured_at: SimTime::ZERO,
        };
        assert_eq!(c.bytes, 64 << 20);
    }
}
