//! Staged drain for online reconfiguration (DESIGN.md §11).
//!
//! Re-slicing a live GPU (or restarting MPS clients with new percentage
//! caps) must not yank tasks mid-kernel when a short wait would let them
//! finish — but it also must not wait forever on a straggler. The drain
//! protocol stages that trade-off:
//!
//! ```text
//! begin_drain ──> stop-dispatch (members leave the schedulable set)
//!      │              │
//!      │              ├── busy members asked to checkpoint at the next
//!      │              │   step boundary (forced kills then lose nothing
//!      │              │   past the last committed snapshot)
//!      │              ▼
//!      │          await in-flight attempts (finish, cancel, fault-kill)
//!      │              │
//!      ├─ timeout ────┤  force-kill whatever is still running
//!      ▼              ▼
//!  on_complete(world, eng, outcome)   — the reconfig transaction
//! ```
//!
//! The completion callback runs exactly once, after every member's
//! attempt has unwound, with the members already released from the
//! stop-dispatch set (they are typically Idle or Dead at that point; the
//! transaction kills and respawns them under new accelerator specs).
//!
//! Members are excluded from dispatch by `kick_executor` and from hedge
//! placement by `try_launch_hedge` — on both the indexed and the
//! full-scan path, so the fleet benchmark's A/B bit-equivalence holds
//! while a drain is active.

use crate::world::{kill_worker, request_checkpoint, FaasWorld};
use parfait_simcore::{Engine, SimDuration, SimRng};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// How long a staged drain waits for in-flight tasks before
/// force-killing the stragglers and proceeding to commit.
pub const DRAIN_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// How a completed drain got its members to quiescence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Members that were still running at the timeout and were
    /// force-killed (their tasks fail and retry, resuming from their
    /// last committed checkpoint where one exists).
    pub forced_kills: usize,
}

/// Completion callback for a staged drain.
pub type DrainCallback = Box<dyn FnOnce(&mut FaasWorld, &mut Engine<FaasWorld>, DrainOutcome)>;

/// One in-progress drain (keyed by GPU in [`ReconfigControl::drains`]).
pub(crate) struct DrainState {
    /// Monotone id guarding the timeout closure against a later drain of
    /// the same GPU.
    gen: u64,
    /// Every worker the drain stops dispatch to.
    members: Vec<usize>,
    /// Members whose in-flight attempt has not yet unwound.
    pending: BTreeSet<usize>,
    /// Members force-killed by the timeout so far.
    forced: usize,
    on_complete: Option<DrainCallback>,
}

/// Counters summarizing a run's reconfiguration activity.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ReconfigStats {
    /// Staged drains started.
    pub drains_started: u64,
    /// Workers force-killed by drain timeouts.
    pub drains_forced_kills: u64,
    /// Reconfig transactions committed (new partition plan applied).
    pub txns_committed: u64,
    /// Transactions whose commit failed (injected or drawn on the
    /// `RECONFIG_FAULTS` stream) and took the rollback / degraded path.
    pub txns_failed: u64,
    /// Transactions aborted before commit (target fenced mid-drain);
    /// workers keep their previous accelerator specs untouched.
    pub txns_aborted: u64,
    /// Rollbacks to the last known-good partition plan after a failed
    /// commit.
    pub rollbacks: u64,
}

/// Reconfiguration control state owned by [`FaasWorld`]: active drains,
/// the stop-dispatch set, the injected-failure poison set, and the
/// dedicated failure-draw RNG stream.
pub struct ReconfigControl {
    pub(crate) drains: BTreeMap<u32, DrainState>,
    /// Union of every active drain's members; dispatch and hedge
    /// placement skip these workers.
    pub(crate) draining: BTreeSet<usize>,
    next_gen: u64,
    /// `RECONFIG_FAULTS` stream: Bernoulli commit-failure draws.
    pub(crate) rng: SimRng,
    /// GPUs whose next reconfig commit fails (armed by
    /// [`crate::FaultKind::ReconfigFail`]).
    pub(crate) poisoned: BTreeSet<u32>,
    /// Run counters.
    pub stats: ReconfigStats,
}

impl ReconfigControl {
    /// Fresh state; `rng` must be the `RECONFIG_FAULTS` split.
    pub fn new(rng: SimRng) -> Self {
        ReconfigControl {
            drains: BTreeMap::new(),
            draining: BTreeSet::new(),
            next_gen: 0,
            rng,
            poisoned: BTreeSet::new(),
            stats: ReconfigStats::default(),
        }
    }

    /// Is a staged drain currently active on `gpu`?
    pub fn drain_active(&self, gpu: u32) -> bool {
        self.drains.contains_key(&gpu)
    }

    /// Number of GPUs with an active drain (the controller's
    /// concurrent-reconfig limit counts these).
    pub fn active_drains(&self) -> usize {
        self.drains.len()
    }

    /// Is `wid` excluded from dispatch by an active drain?
    pub fn is_draining(&self, wid: usize) -> bool {
        self.draining.contains(&wid)
    }
}

/// Why a [`begin_drain`] request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainError {
    /// A staged drain is already active on the target GPU; a second
    /// concurrent drain would corrupt the first one's member set.
    AlreadyDraining(u32),
}

impl core::fmt::Display for DrainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DrainError::AlreadyDraining(g) => {
                write!(f, "drain already active on GPU {g}")
            }
        }
    }
}

/// Start a staged drain of `members` on `gpu`; `on_complete` runs once
/// every member's in-flight attempt has unwound (or been force-killed at
/// [`DRAIN_TIMEOUT`]).
///
/// Refuses (without side effects, and without running `on_complete`)
/// when a drain is already active on `gpu`.
pub fn begin_drain(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    members: Vec<usize>,
    on_complete: DrainCallback,
) -> Result<(), DrainError> {
    if world.reconfig.drain_active(gpu) {
        return Err(DrainError::AlreadyDraining(gpu));
    }
    world.reconfig.stats.drains_started += 1;
    let gen = world.reconfig.next_gen;
    world.reconfig.next_gen += 1;
    let mut pending = BTreeSet::new();
    for &wid in &members {
        world.reconfig.draining.insert(wid);
        if world.workers[wid].current_task().is_some() {
            pending.insert(wid);
            // Snapshot at the next step boundary so a forced kill (or
            // the planned post-drain restart) loses as little as
            // possible; no-op for non-checkpointable bodies.
            request_checkpoint(world, wid);
        }
    }
    let quiescent = pending.is_empty();
    world.reconfig.drains.insert(
        gpu,
        DrainState {
            gen,
            members,
            pending,
            forced: 0,
            on_complete: Some(on_complete),
        },
    );
    if quiescent {
        complete_drain(world, eng, gpu);
        return Ok(());
    }
    eng.schedule_in(DRAIN_TIMEOUT, move |w: &mut FaasWorld, e| {
        drain_timeout(w, e, gpu, gen);
    });
    Ok(())
}

/// Timeout: force-kill every member still running. Each kill unwinds the
/// member's attempt through `finish_task`, which reports back via
/// [`note_drained`]; the last kill therefore completes the drain from
/// inside this loop.
fn drain_timeout(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: u32, gen: u64) {
    let stragglers: Vec<usize> = match world.reconfig.drains.get(&gpu) {
        Some(d) if d.gen == gen => d.pending.iter().copied().collect(),
        _ => return, // drain already completed (or superseded); stale timer
    };
    for wid in stragglers {
        // Re-check per worker: an earlier kill in this loop may have
        // cascaded (fence, retry kick) and resolved a later member.
        let still_pending = world
            .reconfig
            .drains
            .get(&gpu)
            .is_some_and(|d| d.pending.contains(&wid));
        if !still_pending {
            continue;
        }
        if let Some(d) = world.reconfig.drains.get_mut(&gpu) {
            d.forced += 1;
        }
        world.reconfig.stats.drains_forced_kills += 1;
        kill_worker(world, eng, wid, "drain timeout");
    }
}

/// A draining worker's in-flight attempt unwound (completed, cancelled,
/// or its worker was killed). Called from `finish_task` / `cancel_attempt`;
/// completes the drain when the last pending member resolves.
///
/// Completion is deferred to a zero-delay event rather than run inline:
/// this callsite can sit *inside* `kill_worker`'s unwind (drain-timeout
/// force-kill, fence), and a transaction that respawned the member from
/// there would be clobbered when the outer kill resumed its teardown
/// (epoch bump after `finish_task` strands the fresh incarnation in
/// `Provisioning`). The deferral runs the commit from a clean stack at
/// the same sim time.
pub(crate) fn note_drained(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    let mut done: Option<u32> = None;
    for (&gpu, d) in world.reconfig.drains.iter_mut() {
        if d.pending.remove(&wid) && d.pending.is_empty() {
            done = Some(gpu);
            break;
        }
    }
    if let Some(gpu) = done {
        eng.schedule_in(parfait_simcore::SimDuration::ZERO, move |w, e| {
            complete_drain(w, e, gpu);
        });
    }
}

/// Remove the drain's bookkeeping, release its members back to the
/// schedulable set, then run the completion callback. State is torn down
/// *first* so the callback can kill/respawn members (or even start a new
/// drain) without re-entering this drain.
fn complete_drain(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: u32) {
    let Some(mut d) = world.reconfig.drains.remove(&gpu) else {
        return;
    };
    for wid in &d.members {
        world.reconfig.draining.remove(wid);
    }
    let outcome = DrainOutcome {
        forced_kills: d.forced,
    };
    if let Some(cb) = d.on_complete.take() {
        cb(world, eng, outcome);
    }
}

/// Should this transaction's commit fail? Consumes the GPU's injected
/// poison if armed; otherwise draws Bernoulli(`fail_prob`) on the
/// dedicated `RECONFIG_FAULTS` stream (no draw at probability zero, so
/// runs without reconfig faults never touch the stream).
pub fn reconfig_commit_fails(world: &mut FaasWorld, gpu: u32) -> bool {
    if world.reconfig.poisoned.remove(&gpu) {
        return true;
    }
    let p = world.config.reconfig.fail_prob;
    p > 0.0 && world.reconfig.rng.f64() < p
}
