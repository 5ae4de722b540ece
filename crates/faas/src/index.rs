//! Incrementally maintained lookup structures over the worker pool and
//! executor queues — the "indexed world".
//!
//! Dispatch, admission, the heartbeat watchdog, GPU fencing, queue
//! fail-over, and the scaling controllers all used to answer questions
//! like "is any worker of executor e idle?" by scanning
//! `FaasWorld::workers` or `FaasWorld::queues` end to end. At a handful
//! of workers that is noise; at a thousand GPUs with a million tasks it
//! makes *per-event* cost grow with fleet size. [`WorldIndex`] keeps the
//! answers materialized: per-executor idle-worker free lists, live/
//! not-dead counters, crashed/dead id sets, per-GPU resident sets, and
//! per-executor queued service-estimate totals, each updated O(log n) at
//! the state transition that changes it.
//!
//! Two invariants make this safe to rely on:
//!
//! * **Single funnel.** Every worker state write goes through
//!   `FaasWorld::transition`, every GPU (un)binding through
//!   `FaasWorld::bind_gpu`, and every queue mutation through the
//!   `queue_push`/`queue_pop_front`/`queue_remove` helpers in `world` —
//!   so the index cannot silently drift from the ground truth.
//! * **Always maintained, separately consumed.** The index is updated
//!   even when `enabled` is false; the flag only selects whether a query
//!   consults it or runs the original full scan (kept verbatim as the
//!   reference implementation and the A/B baseline for the fleet bench).
//!   The query methods on `FaasWorld` at the bottom of this module are
//!   the only readers of `enabled`, so each index-or-scan choice is made
//!   in exactly one place. `FaasWorld::check_index_consistency`
//!   recomputes everything from scratch and asserts equality in debug
//!   builds.
//!
//! Determinism: iteration over the [`BTreeSet`]s is ascending by worker
//! id, which is exactly the order the replaced `Vec` scans produced, so
//! picks (dispatch target, hedge target, watchdog detection order) are
//! bit-identical with the index on or off.

use crate::world::{dispatch_blocked, FaasWorld, WorkerState};
use parfait_gpu::GpuId;
use parfait_simcore::SimDuration;
use std::collections::BTreeSet;

/// Index a [`WorkerState`] into [`WorldIndex::state_counts`].
fn state_slot(s: WorkerState) -> usize {
    match s {
        WorkerState::Provisioning => 0,
        WorkerState::ColdStart => 1,
        WorkerState::Idle => 2,
        WorkerState::Busy => 3,
        WorkerState::Crashed => 4,
        WorkerState::Dead => 5,
    }
}

/// Materialized answers to the questions the hot paths ask every event.
#[derive(Debug)]
pub struct WorldIndex {
    /// Fast paths consult the index when true; otherwise the original
    /// full scans run. The index itself is maintained either way.
    pub(crate) enabled: bool,
    /// Per-executor ids of `Idle` workers, ascending.
    pub(crate) idle: Vec<BTreeSet<usize>>,
    /// Per-executor count of workers neither `Dead` nor `Crashed` (the
    /// admission/fail-over notion of "live").
    pub(crate) live: Vec<usize>,
    /// Per-executor count of workers not `Dead` (the scaling
    /// controllers' notion of "live"; also answers `executor_dead`).
    pub(crate) not_dead: Vec<usize>,
    /// Per-executor total workers ever created (workers never migrate
    /// between executors, so this equals the filter-count scan exactly).
    pub(crate) total: Vec<usize>,
    /// Ids of `Busy` workers, ascending (progress-watchdog scan order).
    pub(crate) busy: BTreeSet<usize>,
    /// Ids of `Crashed` workers, ascending (watchdog detection order).
    pub(crate) crashed: BTreeSet<usize>,
    /// Ids of `Dead` workers, ascending (GPU-fence parking scan).
    pub(crate) dead: BTreeSet<usize>,
    /// Global worker counts by state, indexed by [`state_slot`].
    pub(crate) state_counts: [usize; 6],
    /// Per-GPU ids of workers holding a context on that device,
    /// ascending (fence blast-radius order). Grows on demand.
    pub(crate) residents: Vec<BTreeSet<usize>>,
    /// Per-executor sum of `est_service` nanos over queued tasks that
    /// carry an estimate (exact integer arithmetic; converted to seconds
    /// only at the admission comparison).
    pub(crate) queued_known_nanos: Vec<u128>,
    /// Per-executor count of queued tasks without a service estimate
    /// (admission prices them at the incoming task's own estimate).
    pub(crate) queued_unknown: Vec<usize>,
}

impl WorldIndex {
    /// Empty index for `executors` executors and `gpus` devices; workers
    /// are added via [`WorldIndex::register_worker`].
    pub(crate) fn new(executors: usize, gpus: usize) -> Self {
        WorldIndex {
            enabled: true,
            idle: vec![BTreeSet::new(); executors],
            live: vec![0; executors],
            not_dead: vec![0; executors],
            total: vec![0; executors],
            busy: BTreeSet::new(),
            crashed: BTreeSet::new(),
            dead: BTreeSet::new(),
            state_counts: [0; 6],
            residents: vec![BTreeSet::new(); gpus],
            queued_known_nanos: vec![0; executors],
            queued_unknown: vec![0; executors],
        }
    }

    /// Account a freshly created worker (no GPU binding yet).
    pub(crate) fn register_worker(&mut self, wid: usize, exec: usize, state: WorkerState) {
        self.total[exec] += 1;
        self.state_counts[state_slot(state)] += 1;
        match state {
            WorkerState::Dead => {
                self.dead.insert(wid);
            }
            WorkerState::Crashed => {
                self.not_dead[exec] += 1;
                self.crashed.insert(wid);
            }
            other => {
                self.not_dead[exec] += 1;
                self.live[exec] += 1;
                if other == WorkerState::Idle {
                    self.idle[exec].insert(wid);
                }
                if other == WorkerState::Busy {
                    self.busy.insert(wid);
                }
            }
        }
    }

    /// Apply a worker state transition (`old` → `new`, `old != new`).
    pub(crate) fn on_state_change(
        &mut self,
        wid: usize,
        exec: usize,
        old: WorkerState,
        new: WorkerState,
    ) {
        self.state_counts[state_slot(old)] -= 1;
        self.state_counts[state_slot(new)] += 1;
        if old == WorkerState::Idle {
            self.idle[exec].remove(&wid);
        }
        if new == WorkerState::Idle {
            self.idle[exec].insert(wid);
        }
        if old == WorkerState::Busy {
            self.busy.remove(&wid);
        }
        if new == WorkerState::Busy {
            self.busy.insert(wid);
        }
        if old == WorkerState::Crashed {
            self.crashed.remove(&wid);
        }
        if new == WorkerState::Crashed {
            self.crashed.insert(wid);
        }
        if old == WorkerState::Dead {
            self.dead.remove(&wid);
        }
        if new == WorkerState::Dead {
            self.dead.insert(wid);
        }
        let was_live = !matches!(old, WorkerState::Dead | WorkerState::Crashed);
        let is_live = !matches!(new, WorkerState::Dead | WorkerState::Crashed);
        match (was_live, is_live) {
            (true, false) => self.live[exec] -= 1,
            (false, true) => self.live[exec] += 1,
            _ => {}
        }
        match (old == WorkerState::Dead, new == WorkerState::Dead) {
            (false, true) => self.not_dead[exec] -= 1,
            (true, false) => self.not_dead[exec] += 1,
            _ => {}
        }
    }

    /// Apply a GPU (un)binding change for a worker.
    pub(crate) fn on_gpu_change(&mut self, wid: usize, old: Option<u32>, new: Option<u32>) {
        if old == new {
            return;
        }
        if let Some(g) = old {
            if let Some(set) = self.residents.get_mut(g as usize) {
                set.remove(&wid);
            }
        }
        if let Some(g) = new {
            let gi = g as usize;
            if gi >= self.residents.len() {
                self.residents.resize_with(gi + 1, BTreeSet::new);
            }
            self.residents[gi].insert(wid);
        }
    }

    /// A task entered executor `exec`'s ready queue.
    pub(crate) fn queue_delta_push(&mut self, exec: usize, est: Option<SimDuration>) {
        match est {
            Some(d) => self.queued_known_nanos[exec] += d.as_nanos() as u128,
            None => self.queued_unknown[exec] += 1,
        }
    }

    /// A task left executor `exec`'s ready queue.
    pub(crate) fn queue_delta_pop(&mut self, exec: usize, est: Option<SimDuration>) {
        match est {
            Some(d) => self.queued_known_nanos[exec] -= d.as_nanos() as u128,
            None => self.queued_unknown[exec] -= 1,
        }
    }

    /// Workers in a state that keeps the monitoring sampler alive
    /// (`Provisioning | ColdStart | Busy | Crashed`).
    pub(crate) fn active_workers(&self) -> usize {
        self.state_counts[0] + self.state_counts[1] + self.state_counts[3] + self.state_counts[4]
    }

    /// Workers in a state that keeps the scaling controllers alive
    /// (`Provisioning | ColdStart | Busy` — crashes don't).
    pub(crate) fn spinning_or_busy(&self) -> usize {
        self.state_counts[0] + self.state_counts[1] + self.state_counts[3]
    }
}

/// An index lookup or its reference full scan, as one iterator type, so
/// queries on the hot paths neither box nor collect.
enum Lookup<I, S> {
    Indexed(I),
    Scan(S),
}

impl<I: Iterator<Item = usize>, S: Iterator<Item = usize>> Iterator for Lookup<I, S> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Lookup::Indexed(i) => i.next(),
            Lookup::Scan(s) => s.next(),
        }
    }
}

/// The questions the platform asks about its workers and queues, each
/// answered from the index when it is enabled and by the original full
/// scan otherwise. Worker ids come out ascending either way.
impl FaasWorld {
    /// `Idle` workers of executor `exec`.
    pub(crate) fn idle_workers(&self, exec: usize) -> impl Iterator<Item = usize> + '_ {
        if self.index.enabled {
            Lookup::Indexed(self.index.idle[exec].iter().copied())
        } else {
            Lookup::Scan(
                self.workers
                    .iter()
                    .filter(move |w| w.executor == exec && w.state == WorkerState::Idle)
                    .map(|w| w.id),
            )
        }
    }

    /// `Busy` workers (progress-watchdog scan order).
    pub(crate) fn busy_workers(&self) -> impl Iterator<Item = usize> + '_ {
        if self.index.enabled {
            Lookup::Indexed(self.index.busy.iter().copied())
        } else {
            Lookup::Scan(
                self.workers
                    .iter()
                    .filter(|w| w.state == WorkerState::Busy)
                    .map(|w| w.id),
            )
        }
    }

    /// `Crashed` workers (heartbeat-watchdog detection order).
    pub(crate) fn crashed_workers(&self) -> impl Iterator<Item = usize> + '_ {
        if self.index.enabled {
            Lookup::Indexed(self.index.crashed.iter().copied())
        } else {
            Lookup::Scan(
                self.workers
                    .iter()
                    .filter(|w| w.state == WorkerState::Crashed)
                    .map(|w| w.id),
            )
        }
    }

    /// `Dead` workers (the parking and re-admission scans).
    pub(crate) fn dead_workers(&self) -> impl Iterator<Item = usize> + '_ {
        if self.index.enabled {
            Lookup::Indexed(self.index.dead.iter().copied())
        } else {
            Lookup::Scan(
                self.workers
                    .iter()
                    .filter(|w| w.state == WorkerState::Dead)
                    .map(|w| w.id),
            )
        }
    }

    /// Workers holding a context on `gpu` (fence blast-radius order).
    pub(crate) fn residents(&self, gpu: GpuId) -> impl Iterator<Item = usize> + '_ {
        if self.index.enabled {
            Lookup::Indexed(
                self.index
                    .residents
                    .get(gpu.0 as usize)
                    .into_iter()
                    .flatten()
                    .copied(),
            )
        } else {
            Lookup::Scan(
                self.workers
                    .iter()
                    .filter(move |w| w.gpu.map(|(g, _)| g) == Some(gpu))
                    .map(|w| w.id),
            )
        }
    }

    /// Workers of `exec` neither `Dead` nor `Crashed` (the admission and
    /// fail-over notion of "live").
    pub(crate) fn live_workers(&self, exec: usize) -> usize {
        if self.index.enabled {
            return self.index.live[exec];
        }
        self.workers
            .iter()
            .filter(|w| {
                w.executor == exec && !matches!(w.state, WorkerState::Dead | WorkerState::Crashed)
            })
            .count()
    }

    /// Workers of `exec` not `Dead` (the scaling controllers' notion of
    /// "live").
    pub(crate) fn not_dead_workers(&self, exec: usize) -> usize {
        if self.index.enabled {
            return self.index.not_dead[exec];
        }
        self.workers
            .iter()
            .filter(|w| w.executor == exec && w.state != WorkerState::Dead)
            .count()
    }

    /// Does any worker keep the monitoring sampler and the fail-slow
    /// detector alive (provisioning, cold starting, busy, or crashed and
    /// awaiting the watchdog)?
    pub(crate) fn any_active(&self) -> bool {
        if self.index.enabled {
            return self.index.active_workers() > 0;
        }
        self.workers.iter().any(|w| {
            matches!(
                w.state,
                WorkerState::Provisioning
                    | WorkerState::ColdStart
                    | WorkerState::Busy
                    | WorkerState::Crashed
            )
        })
    }

    /// Does any worker keep the scaling controllers alive (provisioning,
    /// cold starting, or busy — crashes don't; the watchdog owns those)?
    pub(crate) fn any_spinning_or_busy(&self) -> bool {
        if self.index.enabled {
            return self.index.spinning_or_busy() > 0;
        }
        self.workers.iter().any(|w| {
            matches!(
                w.state,
                WorkerState::Provisioning | WorkerState::ColdStart | WorkerState::Busy
            )
        })
    }

    /// Seconds of work queued on `exec`, pricing a task without a service
    /// estimate at `est` (the deadline-admission wait estimate).
    pub(crate) fn queued_work(&self, exec: usize, est: SimDuration) -> f64 {
        if self.index.enabled {
            return self.index.queued_known_nanos[exec] as f64 / 1e9
                + self.index.queued_unknown[exec] as f64 * est.as_secs_f64();
        }
        self.queues[exec]
            .iter()
            .map(|q| self.dfk.est_service(*q).unwrap_or(est).as_secs_f64())
            .sum()
    }

    /// The worker dispatch hands `exec`'s next task to: the lowest-id idle
    /// worker not blocked by a staged drain or a fail-slow probation. The
    /// ordered idle set yields exactly what the linear `position` scan
    /// finds, and its `first()` answers in O(1) while nothing is blocked,
    /// which keeps dispatch cheap when every completion kicks every
    /// executor.
    pub(crate) fn dispatch_target(&self, exec: usize) -> Option<usize> {
        if self.index.enabled {
            if self.reconfig.draining.is_empty() && self.recovery.probations_active == 0 {
                self.index.idle[exec].first().copied()
            } else {
                self.index.idle[exec]
                    .iter()
                    .copied()
                    .find(|wid| !dispatch_blocked(self, *wid))
            }
        } else {
            self.workers.iter().position(|w| {
                w.executor == exec && w.state == WorkerState::Idle && !dispatch_blocked(self, w.id)
            })
        }
    }
}
