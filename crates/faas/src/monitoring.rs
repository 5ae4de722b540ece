//! Monitoring records (Parsl's monitoring database, in memory).
//!
//! Two record streams feed the figure harness:
//!
//! * [`UtilSample`] — periodic per-GPU utilization/memory samples, the
//!   source of the "GPU is idle between inference bursts" observation
//!   behind Fig. 3;
//! * [`WorkerEvent`] — worker lifecycle (spawn, cold-start done, task
//!   start/end, kill), the source of cold-start decompositions (§6).
//!
//! Task-level records live in the DFK itself; [`task_rows`] flattens them
//! for export.

use crate::dfk::{Dfk, TaskState};
use parfait_simcore::{SimDuration, SimTime};
use serde::Serialize;

/// One periodic GPU sample.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct UtilSample {
    /// Sample time.
    pub t: SimTime,
    /// Device index.
    pub gpu: u32,
    /// Busy SMs at the sample instant.
    pub busy_sms: f64,
    /// Occupancy in `[0,1]`.
    pub utilization: f64,
    /// Allocated bytes across all memory domains.
    pub memory_used: u64,
}

/// Worker lifecycle event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WorkerEventKind {
    /// Process forked (provider handed it over).
    Spawned,
    /// Cold start finished; worker idle.
    Ready,
    /// Picked up a task.
    TaskStart,
    /// Finished a task (success or failure).
    TaskEnd,
    /// Killed (shutdown or reconfiguration).
    Killed,
    /// Process lost silently (fault injection); the platform does not
    /// know yet — detection is a later `Killed` from the watchdog.
    Crashed,
    /// Automatically restarted by the recovery layer (budgeted).
    Respawned,
}

/// One worker lifecycle event.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerEvent {
    /// Event time.
    pub t: SimTime,
    /// Worker index.
    pub worker: usize,
    /// Kind.
    pub kind: WorkerEventKind,
    /// Free-form detail (task id, kill reason...).
    pub detail: String,
}

/// Flattened task row for export.
#[derive(Debug, Clone, Serialize)]
pub struct TaskRow {
    /// Task id.
    pub id: u64,
    /// App name.
    pub app: String,
    /// Executor index.
    pub executor: usize,
    /// Terminal state name.
    pub state: &'static str,
    /// Submit → finish latency in seconds (None if unfinished).
    pub turnaround_s: Option<f64>,
    /// Start → finish execution time in seconds.
    pub exec_s: Option<f64>,
    /// Worker index.
    pub worker: Option<usize>,
    /// Error, if failed.
    pub error: Option<String>,
}

/// Lifecycle phase of a fault incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultPhase {
    /// The fault occurred (injection time).
    Injected,
    /// The platform noticed (watchdog timeout, CUDA error, breaker trip).
    Detected,
    /// Service restored (worker ready again, GPU re-admitted, straggler
    /// cleared).
    Recovered,
}

/// One fault/recovery event, the resilience analogue of [`WorkerEvent`].
#[derive(Debug, Clone, Serialize)]
pub struct FaultRecord {
    /// Event time.
    pub t: SimTime,
    /// Incident phase.
    pub phase: FaultPhase,
    /// Fault kind label, e.g. `"worker-crash"`, `"gpu-client-fault"`.
    pub kind: &'static str,
    /// Affected device, when the incident is device-scoped.
    pub gpu: Option<u32>,
    /// Affected worker, when the incident is worker-scoped.
    pub worker: Option<usize>,
    /// Free-form detail.
    pub detail: String,
}

/// One periodic executor-queue sample.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct QueueSample {
    /// Sample time.
    pub t: SimTime,
    /// Executor index.
    pub executor: usize,
    /// Ready tasks waiting in the queue.
    pub depth: usize,
}

/// In-memory monitoring store.
#[derive(Debug)]
pub struct Monitoring {
    /// GPU samples, in time order.
    pub samples: Vec<UtilSample>,
    /// Executor queue-depth samples, in time order.
    pub queue_samples: Vec<QueueSample>,
    /// Worker events, in time order.
    pub worker_events: Vec<WorkerEvent>,
    /// Fault and recovery events, in time order.
    pub fault_records: Vec<FaultRecord>,
    /// When false, `worker_event` is a no-op. Per-task lifecycle rows
    /// retain a formatted `String` each; a fleet-scale throughput run
    /// (~10⁶ tasks) would hold millions of them, so the fleet driver
    /// switches recording off. Samples and fault records are
    /// unaffected, and the toggle never changes simulation behaviour —
    /// the store is write-only observability.
    pub record_worker_events: bool,
    /// Per-executor EWMA of task turnaround (submit → finish) in
    /// seconds, updated on every successful completion. O(1) state —
    /// the closed-loop SLO controller reads this instead of scanning
    /// the task table. Indexed by executor; empty slots are unseeded.
    latency_ewma: Vec<f64>,
    /// Completions folded into each executor's EWMA (0 = unseeded).
    latency_samples: Vec<u64>,
    /// Instant each executor's EWMA last absorbed a completion (`None` =
    /// unseeded). The SLO controller's staleness guard compares this
    /// against its freshness window before acting on the EWMA.
    latency_updated: Vec<Option<SimTime>>,
}

/// Smoothing factor for the per-executor turnaround EWMA: each new
/// completion moves the estimate 20% toward the observed latency.
const LATENCY_EWMA_ALPHA: f64 = 0.2;

impl Default for Monitoring {
    fn default() -> Self {
        Monitoring {
            samples: Vec::new(),
            queue_samples: Vec::new(),
            worker_events: Vec::new(),
            fault_records: Vec::new(),
            record_worker_events: true,
            latency_ewma: Vec::new(),
            latency_samples: Vec::new(),
            latency_updated: Vec::new(),
        }
    }
}

impl Monitoring {
    /// Empty store.
    pub fn new() -> Self {
        Monitoring::default()
    }

    /// Append a worker event.
    pub fn worker_event(
        &mut self,
        t: SimTime,
        worker: usize,
        kind: WorkerEventKind,
        detail: impl Into<String>,
    ) {
        if !self.record_worker_events {
            return;
        }
        self.worker_events.push(WorkerEvent {
            t,
            worker,
            kind,
            detail: detail.into(),
        });
    }

    /// Append a fault/recovery record.
    pub fn fault_event(
        &mut self,
        t: SimTime,
        phase: FaultPhase,
        kind: &'static str,
        gpu: Option<u32>,
        worker: Option<usize>,
        detail: impl Into<String>,
    ) {
        self.fault_records.push(FaultRecord {
            t,
            phase,
            kind,
            gpu,
            worker,
            detail: detail.into(),
        });
    }

    /// Fold a completed task's turnaround into its executor's EWMA. The
    /// first sample seeds the estimate; later ones move it by
    /// [`LATENCY_EWMA_ALPHA`].
    pub fn note_latency(&mut self, executor: usize, now: SimTime, secs: f64) {
        if executor >= self.latency_ewma.len() {
            self.latency_ewma.resize(executor + 1, 0.0);
            self.latency_samples.resize(executor + 1, 0);
            self.latency_updated.resize(executor + 1, None);
        }
        if self.latency_samples[executor] == 0 {
            self.latency_ewma[executor] = secs;
        } else {
            let prev = self.latency_ewma[executor];
            self.latency_ewma[executor] = prev + LATENCY_EWMA_ALPHA * (secs - prev);
        }
        self.latency_samples[executor] += 1;
        self.latency_updated[executor] = Some(now);
    }

    /// Current turnaround EWMA of an executor in seconds; `None` until a
    /// task has completed there.
    pub fn latency_ewma(&self, executor: usize) -> Option<f64> {
        (self.latency_samples.get(executor).copied().unwrap_or(0) > 0)
            .then(|| self.latency_ewma[executor])
    }

    /// Age of an executor's latency telemetry at `now`; `None` until the
    /// EWMA is seeded. A controller acting on [`Monitoring::latency_ewma`]
    /// should hold when this exceeds its freshness window — the estimate
    /// describes a workload that may no longer exist.
    pub fn latency_age(&self, executor: usize, now: SimTime) -> Option<SimDuration> {
        self.latency_updated
            .get(executor)
            .copied()
            .flatten()
            .map(|t| now.duration_since(t))
    }

    /// Mean time to recovery in seconds over closed incidents, or `None`
    /// if no incident both opened and closed.
    ///
    /// Incidents are tracked per subject (a worker index, or a GPU index
    /// for device-scoped records): the first loss-phase record
    /// (`Injected` or `Detected`) opens an incident, the next `Recovered`
    /// for the same subject closes it. Unclosed incidents (budget
    /// exhausted, run ended mid-outage) are excluded.
    pub fn mttr_s(&self) -> Option<f64> {
        // lint:allow(hash-order, open-incident table is only probed by key (entry/remove); it is never iterated, so its order cannot reach any sim-visible or reported value)
        use std::collections::HashMap;
        // Subject key: workers and GPUs live in disjoint key spaces.
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Subject {
            Worker(usize),
            Gpu(u32),
        }
        // lint:allow(hash-order, keyed lookups only; iteration order never escapes)
        let mut open: HashMap<Subject, SimTime> = HashMap::new();
        let mut total = 0.0;
        let mut closed = 0u64;
        for r in &self.fault_records {
            let subject = match (r.worker, r.gpu) {
                (Some(w), _) => Subject::Worker(w),
                (None, Some(g)) => Subject::Gpu(g),
                (None, None) => continue,
            };
            match r.phase {
                FaultPhase::Injected | FaultPhase::Detected => {
                    open.entry(subject).or_insert(r.t);
                }
                FaultPhase::Recovered => {
                    if let Some(t0) = open.remove(&subject) {
                        total += r.t.duration_since(t0).as_secs_f64();
                        closed += 1;
                    }
                }
            }
        }
        (closed > 0).then(|| total / closed as f64)
    }

    /// Mean utilization of `gpu` over all samples.
    pub fn mean_utilization(&self, gpu: u32) -> f64 {
        let xs: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.gpu == gpu)
            .map(|s| s.utilization)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Mean queue depth of an executor over all samples.
    pub fn mean_queue_depth(&self, executor: usize) -> f64 {
        let xs: Vec<usize> = self
            .queue_samples
            .iter()
            .filter(|s| s.executor == executor)
            .map(|s| s.depth)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<usize>() as f64 / xs.len() as f64
        }
    }

    /// Peak sampled queue depth of an executor.
    pub fn peak_queue_depth(&self, executor: usize) -> usize {
        self.queue_samples
            .iter()
            .filter(|s| s.executor == executor)
            .map(|s| s.depth)
            .max()
            .unwrap_or(0)
    }

    /// Fraction of samples where `gpu` was fully idle.
    pub fn idle_fraction(&self, gpu: u32) -> f64 {
        let xs: Vec<&UtilSample> = self.samples.iter().filter(|s| s.gpu == gpu).collect();
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().filter(|s| s.utilization <= f64::EPSILON).count() as f64 / xs.len() as f64
    }

    /// Queue-depth p50/p95/p99 for an executor, from the periodic queue
    /// samples. `None` when the executor was never sampled.
    pub fn queue_depth_percentiles(&self, executor: usize) -> Option<Percentiles> {
        let xs: Vec<f64> = self
            .queue_samples
            .iter()
            .filter(|s| s.executor == executor)
            .map(|s| s.depth as f64)
            .collect();
        Percentiles::of(xs)
    }
}

/// p50/p95/p99 of an empirical distribution (nearest-rank on the sorted
/// sample, the same convention the bench scenarios use for p95).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Compute from an unsorted sample; `None` when empty.
    pub fn of(mut xs: Vec<f64>) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let n = xs.len();
            xs[((n as f64 * q).ceil() as usize)
                .saturating_sub(1)
                .min(n - 1)]
        };
        Some(Percentiles {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
        })
    }
}

/// Time-in-queue (submit → dispatch; for retried tasks the last
/// attempt's dispatch, matching the task record) p50/p95/p99 over every
/// dispatched task of an executor. `None` when nothing was dispatched
/// there yet.
pub fn time_in_queue_percentiles(dfk: &Dfk, executor: usize) -> Option<Percentiles> {
    let xs: Vec<f64> = dfk
        .tasks()
        .iter()
        .filter(|t| t.executor as usize == executor)
        .filter_map(|t| {
            t.dispatched
                .map(|d| d.duration_since(t.submitted).as_secs_f64())
        })
        .collect();
    Percentiles::of(xs)
}

/// Name a task state.
fn state_name(s: TaskState) -> &'static str {
    match s {
        TaskState::Waiting => "waiting",
        TaskState::Ready => "ready",
        TaskState::Running => "running",
        TaskState::Done => "done",
        TaskState::Failed => "failed",
    }
}

/// Serialize a full monitoring snapshot (task rows + GPU samples +
/// worker events) as pretty JSON — the moral equivalent of dumping
/// Parsl's monitoring database for offline analysis.
pub fn export_json(dfk: &Dfk, monitor: &Monitoring) -> String {
    #[derive(Serialize)]
    struct Snapshot<'a> {
        tasks: Vec<TaskRow>,
        samples: &'a [UtilSample],
        queue_samples: &'a [QueueSample],
        worker_events: &'a [WorkerEvent],
        fault_records: &'a [FaultRecord],
    }
    serde_json::to_string_pretty(&Snapshot {
        tasks: task_rows(dfk),
        samples: &monitor.samples,
        queue_samples: &monitor.queue_samples,
        worker_events: &monitor.worker_events,
        fault_records: &monitor.fault_records,
    })
    .expect("monitoring snapshot serializes")
}

/// Flatten the DFK task table for export.
pub fn task_rows(dfk: &Dfk) -> Vec<TaskRow> {
    dfk.tasks()
        .iter()
        .map(|t| TaskRow {
            id: t.id.0,
            app: t.app.to_string(),
            executor: t.executor as usize,
            state: state_name(t.state),
            turnaround_s: t
                .finished
                .map(|f| f.duration_since(t.submitted).as_secs_f64()),
            exec_s: match (t.started, t.finished) {
                (Some(s), Some(f)) => Some(f.duration_since(s).as_secs_f64()),
                _ => None,
            },
            worker: t.worker.map(|w| w as usize),
            error: dfk.error(t.id).map(str::to_owned),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_aggregates() {
        let mut m = Monitoring::new();
        for (t, u) in [(1u64, 0.0), (2, 1.0), (3, 0.5), (4, 0.0)] {
            m.samples.push(UtilSample {
                t: SimTime::from_secs(t),
                gpu: 0,
                busy_sms: u * 108.0,
                utilization: u,
                memory_used: 0,
            });
        }
        assert!((m.mean_utilization(0) - 0.375).abs() < 1e-12);
        assert!((m.idle_fraction(0) - 0.5).abs() < 1e-12);
        assert_eq!(m.mean_utilization(1), 0.0);
    }

    #[test]
    fn export_json_roundtrips_through_serde() {
        use crate::app::bodies::CpuBurn;
        use crate::app::AppCall;
        use parfait_simcore::SimDuration;
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(
            SimTime::ZERO,
            AppCall::new("demo", "cpu", |_| {
                Box::new(CpuBurn::new(SimDuration::from_secs(1)))
            }),
            0,
            0,
        );
        dfk.mark_dispatched(a, SimTime::ZERO, 0);
        dfk.mark_started(a, SimTime::ZERO);
        dfk.mark_done(a, SimTime::from_secs(1));
        let mut m = Monitoring::new();
        m.worker_event(SimTime::ZERO, 0, WorkerEventKind::Ready, "");
        m.samples.push(UtilSample {
            t: SimTime::from_secs(1),
            gpu: 0,
            busy_sms: 54.0,
            utilization: 0.5,
            memory_used: 1024,
        });
        let json = export_json(&dfk, &m);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["tasks"][0]["app"], "demo");
        assert_eq!(v["tasks"][0]["state"], "done");
        assert_eq!(v["samples"][0]["utilization"], 0.5);
        assert_eq!(v["worker_events"][0]["kind"], "Ready");
    }

    #[test]
    fn queue_depth_aggregates() {
        let mut m = Monitoring::new();
        for (t, d) in [(1u64, 0usize), (2, 4), (3, 8), (4, 0)] {
            m.queue_samples.push(QueueSample {
                t: SimTime::from_secs(t),
                executor: 0,
                depth: d,
            });
        }
        assert!((m.mean_queue_depth(0) - 3.0).abs() < 1e-12);
        assert_eq!(m.peak_queue_depth(0), 8);
        assert_eq!(m.peak_queue_depth(5), 0);
    }

    #[test]
    fn mttr_pairs_loss_with_recovery_per_subject() {
        let mut m = Monitoring::new();
        assert_eq!(m.mttr_s(), None);
        let s = SimTime::from_secs;
        // Worker 0: injected at 10, detected at 12, recovered at 16 → 6 s.
        m.fault_event(
            s(10),
            FaultPhase::Injected,
            "worker-crash",
            None,
            Some(0),
            "",
        );
        m.fault_event(
            s(12),
            FaultPhase::Detected,
            "worker-crash",
            None,
            Some(0),
            "",
        );
        m.fault_event(
            s(16),
            FaultPhase::Recovered,
            "worker-restored",
            None,
            Some(0),
            "",
        );
        // GPU 1: detected at 20, recovered at 30 → 10 s.
        m.fault_event(
            s(20),
            FaultPhase::Detected,
            "gpu-quarantine",
            Some(1),
            None,
            "",
        );
        m.fault_event(
            s(30),
            FaultPhase::Recovered,
            "gpu-readmitted",
            Some(1),
            None,
            "",
        );
        // Worker 5: lost, never recovered → excluded.
        m.fault_event(
            s(40),
            FaultPhase::Detected,
            "worker-crash",
            None,
            Some(5),
            "",
        );
        let mttr = m.mttr_s().unwrap();
        assert!((mttr - 8.0).abs() < 1e-9, "mttr {mttr}");
    }

    #[test]
    fn latency_ewma_seeds_then_smooths() {
        let s = SimTime::from_secs;
        let mut m = Monitoring::new();
        assert_eq!(m.latency_ewma(0), None);
        m.note_latency(0, s(1), 2.0);
        assert_eq!(m.latency_ewma(0), Some(2.0));
        m.note_latency(0, s(2), 4.0);
        // 2.0 + 0.2 * (4.0 - 2.0) = 2.4
        assert!((m.latency_ewma(0).unwrap() - 2.4).abs() < 1e-12);
        assert_eq!(m.latency_ewma(3), None);
    }

    #[test]
    fn latency_age_tracks_last_update() {
        let s = SimTime::from_secs;
        let mut m = Monitoring::new();
        // Unseeded telemetry has no age — the guard can't call it stale.
        assert_eq!(m.latency_age(0, s(100)), None);
        m.note_latency(0, s(10), 2.0);
        assert_eq!(m.latency_age(0, s(10)), Some(SimDuration::ZERO));
        assert_eq!(m.latency_age(0, s(70)), Some(SimDuration::from_secs(60)));
        // A fresh completion resets the age.
        m.note_latency(0, s(80), 3.0);
        assert_eq!(m.latency_age(0, s(85)), Some(SimDuration::from_secs(5)));
        // Out-of-range executors are unseeded, not a panic.
        assert_eq!(m.latency_age(7, s(85)), None);
    }

    #[test]
    fn worker_events_record() {
        let mut m = Monitoring::new();
        m.worker_event(SimTime::ZERO, 3, WorkerEventKind::Spawned, "");
        m.worker_event(SimTime::from_secs(2), 3, WorkerEventKind::Ready, "cold=2s");
        assert_eq!(m.worker_events.len(), 2);
        assert_eq!(m.worker_events[1].kind, WorkerEventKind::Ready);
    }
}
