//! Runtime configuration, mirroring the paper's Listings 1–3.
//!
//! A [`Config`] holds one or more executor definitions. The GPU-visible
//! surface matches the enhanced Parsl of §4: `available_accelerators` may
//! repeat a GPU to multiplex it (Listing 2), an optional parallel
//! `gpu_percentage` list caps each worker's SMs through MPS, and entries
//! may be MIG UUIDs (Listing 3). String parsing and plan synthesis live in
//! `parfait-core` (the paper's contribution); this layer consumes the
//! resolved [`AcceleratorSpec`]s.

use parfait_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// A resolved accelerator binding for one worker slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcceleratorSpec {
    /// Whole GPU by fleet index (`CUDA_VISIBLE_DEVICES=<n>`), sharing per
    /// the device's current mode.
    Gpu(u32),
    /// GPU index with an MPS active-thread percentage
    /// (`CUDA_MPS_ACTIVE_THREAD_PERCENTAGE=<pct>`).
    GpuPercentage(u32, u32),
    /// A MIG instance by UUID (`CUDA_VISIBLE_DEVICES=MIG-...`).
    Mig(String),
    /// A vGPU slot on a GPU.
    VgpuSlot(u32, u32),
}

impl AcceleratorSpec {
    /// Fleet index of the underlying physical GPU, when directly named.
    /// MIG UUIDs resolve at worker start via the fleet.
    pub fn gpu_index(&self) -> Option<u32> {
        match self {
            AcceleratorSpec::Gpu(i)
            | AcceleratorSpec::GpuPercentage(i, _)
            | AcceleratorSpec::VgpuSlot(i, _) => Some(*i),
            AcceleratorSpec::Mig(_) => None,
        }
    }
}

/// How workers are provisioned (Parsl execution providers, §2.2.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProviderConfig {
    /// `LocalProvider`: fork worker processes on the local node.
    Local {
        /// Process fork+exec delay before cold start begins.
        spawn_delay: SimDuration,
    },
    /// `SlurmProvider`: batch-queue wait then remote launch.
    Slurm {
        /// Mean queue wait (exponential).
        queue_wait_mean: SimDuration,
        /// srun launch delay once scheduled.
        spawn_delay: SimDuration,
    },
}

impl Default for ProviderConfig {
    fn default() -> Self {
        ProviderConfig::Local {
            spawn_delay: SimDuration::from_millis(150),
        }
    }
}

/// Executor flavours (§2.2.1: Parsl "supports Executors designed to
/// support different use cases; from extreme-scale to low latency").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutorKind {
    /// The pilot-job `HighThroughputExecutor`: provider-spawned worker
    /// processes with full cold starts — the executor this paper extends.
    HighThroughput,
    /// Python's `ThreadPoolExecutor`: threads of the already-running
    /// submitting process — no provider delay, no cold start, CPU-only.
    ThreadPool,
}

/// One executor definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Label tasks route by (Listing 1's `label='cpu'` / `label="gpu"`).
    pub label: String,
    /// Worker process count (`max_workers`).
    pub max_workers: usize,
    /// Accelerator bound to each worker slot, cycled Parsl-style: worker
    /// `i` takes `accelerators[i % len]`. Empty = CPU-only workers.
    pub accelerators: Vec<AcceleratorSpec>,
    /// Provider used to provision the workers.
    pub provider: ProviderConfig,
    /// Executor flavour.
    pub kind: ExecutorKind,
}

impl ExecutorConfig {
    /// CPU-only executor (Listing 1's first entry).
    pub fn cpu(label: impl Into<String>, max_workers: usize) -> Self {
        ExecutorConfig {
            label: label.into(),
            max_workers,
            accelerators: Vec::new(),
            provider: ProviderConfig::default(),
            kind: ExecutorKind::HighThroughput,
        }
    }

    /// `ThreadPoolExecutor`-style in-process thread pool (§2.2.1):
    /// CPU-only, instantly warm, no provider.
    pub fn thread_pool(label: impl Into<String>, threads: usize) -> Self {
        ExecutorConfig {
            label: label.into(),
            max_workers: threads,
            accelerators: Vec::new(),
            provider: ProviderConfig::Local {
                spawn_delay: SimDuration::ZERO,
            },
            kind: ExecutorKind::ThreadPool,
        }
    }

    /// GPU executor with explicit accelerator slots; `max_workers`
    /// defaults to one worker per slot, as the paper's multiplexing
    /// configurations do.
    pub fn gpu(label: impl Into<String>, accelerators: Vec<AcceleratorSpec>) -> Self {
        let n = accelerators.len();
        ExecutorConfig {
            label: label.into(),
            max_workers: n,
            accelerators,
            provider: ProviderConfig::default(),
            kind: ExecutorKind::HighThroughput,
        }
    }

    /// Accelerator for worker slot `i` (cycled).
    pub fn accelerator_for(&self, worker_index: usize) -> Option<&AcceleratorSpec> {
        if self.accelerators.is_empty() {
            None
        } else {
            Some(&self.accelerators[worker_index % self.accelerators.len()])
        }
    }
}

/// Top-level configuration (Listing 1's `Config`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Config {
    /// Executor definitions.
    pub executors: Vec<ExecutorConfig>,
    /// Task retry budget on failure (`retries=1` in Listing 1).
    pub retries: u32,
    /// Sampling period for node/GPU monitoring records (None = off).
    pub monitoring_period: Option<SimDuration>,
    /// Failure detection and recovery parameters (heartbeat timeout,
    /// restart budget, per-GPU circuit breaker, gray-failure detection).
    pub recovery: RecoveryConfig,
    /// Physical placement of the GPU fleet (GPU → host → rack). Drives
    /// the blast radius of correlated faults ([`crate::FaultKind::HostReboot`],
    /// [`crate::FaultKind::RackPower`]).
    pub topology: Topology,
    /// Periodic checkpointing of long-running task bodies (disabled by
    /// default; recovery then re-executes lost attempts from scratch).
    pub checkpoint: CheckpointPolicy,
    /// Overload protection: bounded queues with shedding, deadline-aware
    /// admission, retry budgets, and straggler hedging. Fully disabled by
    /// default so existing scenarios and artifacts are untouched.
    pub overload: OverloadConfig,
    /// Online-reconfiguration protocol knobs: staged-drain timeout and
    /// injectable transaction-failure probability.
    pub reconfig: ReconfigConfig,
}

/// Knobs for the staged drain / reconfig-transaction protocol (see
/// DESIGN.md §11). Reconfigurations requested through the core crate's
/// `begin_resize_mps` / `begin_reconfigure_mig` first stop dispatch to
/// the target workers, wait for in-flight tasks to finish (or
/// checkpoint), and force-kill whatever is still running after
/// `drain_timeout`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ReconfigConfig {
    /// How long a staged drain waits for in-flight tasks before
    /// force-killing the stragglers and proceeding to commit.
    pub drain_timeout: SimDuration,
    /// Probability that a reconfig transaction's commit fails (drawn on
    /// the dedicated `simcore::streams::RECONFIG_FAULTS` stream). `0.0`
    /// never draws, so enabling it elsewhere perturbs nothing.
    pub fail_prob: f64,
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig {
            drain_timeout: SimDuration::from_secs(30),
            fail_prob: 0.0,
        }
    }
}

/// Physical placement of the GPU fleet: fleet index → host → rack.
///
/// The mapping is positional: host `h` owns GPUs
/// `[h * gpus_per_host, (h+1) * gpus_per_host)` and rack `r` owns hosts
/// `[r * hosts_per_rack, (r+1) * hosts_per_rack)`. CPU-only workers have
/// no GPU binding and therefore sit outside every GPU fault domain —
/// a host reboot in this model fences accelerators, not the submitting
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// GPUs per host (the paper's testbed packs 4 A100s per node).
    pub gpus_per_host: u32,
    /// Hosts per rack.
    pub hosts_per_rack: u32,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            gpus_per_host: 4,
            hosts_per_rack: 4,
        }
    }
}

impl Topology {
    /// Host owning fleet GPU `gpu`.
    pub fn host_of(&self, gpu: u32) -> u32 {
        gpu / self.gpus_per_host.max(1)
    }

    /// Rack owning host `host`.
    pub fn rack_of_host(&self, host: u32) -> u32 {
        host / self.hosts_per_rack.max(1)
    }

    /// Rack owning fleet GPU `gpu`.
    pub fn rack_of(&self, gpu: u32) -> u32 {
        self.rack_of_host(self.host_of(gpu))
    }

    /// Fleet GPUs resident on `host`, in fleet order, bounded by the
    /// fleet size.
    pub fn gpus_on_host(&self, host: u32, gpu_count: u32) -> Vec<u32> {
        (0..gpu_count)
            .filter(|g| self.host_of(*g) == host)
            .collect()
    }

    /// Hosts in `rack` that own at least one of the fleet's GPUs, in
    /// host order.
    pub fn hosts_in_rack(&self, rack: u32, gpu_count: u32) -> Vec<u32> {
        let mut hosts: Vec<u32> = (0..gpu_count)
            .map(|g| self.host_of(g))
            .filter(|h| self.rack_of_host(*h) == rack)
            .collect();
        hosts.dedup();
        hosts
    }
}

/// Periodic checkpointing of long-running task bodies.
///
/// When enabled, checkpointable bodies (LLM completion sessions, kernel
/// sequences) snapshot their progress at step boundaries roughly every
/// `interval`. A snapshot stalls the task for `overhead` plus the
/// device-priced writeback of the snapshot bytes (KV/workspace state +
/// live task allocations) over the same effective PCIe bandwidth the
/// model loader uses; recovery then resumes the task from its last
/// committed snapshot instead of re-executing from scratch.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Target gap between snapshots of one task. `None` disables
    /// checkpointing entirely.
    pub interval: Option<SimDuration>,
    /// Fixed per-snapshot overhead (serialization, consistency barrier)
    /// added on top of the bandwidth-priced writeback.
    pub overhead: SimDuration,
    /// Uniform jitter fraction applied to each arm of the checkpoint
    /// timer (`interval * (1 + jitter * U[0,1))`), drawn from the seeded
    /// checkpoint stream so co-resident workers de-synchronize their
    /// writebacks reproducibly. Clamped to `[0, 1]`.
    pub jitter: f64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            interval: None,
            overhead: SimDuration::from_millis(200),
            jitter: 0.10,
        }
    }
}

impl CheckpointPolicy {
    /// Policy snapshotting every `interval` with default overhead/jitter.
    pub fn every(interval: SimDuration) -> Self {
        CheckpointPolicy {
            interval: Some(interval),
            ..CheckpointPolicy::default()
        }
    }
}

/// Overload-protection knobs (see DESIGN.md "Overload model"). Every
/// mechanism is opt-in and independent; the default config disables all
/// of them, which reproduces the historical accept-everything behaviour.
///
/// Admission decisions apply to tasks that are *ready at submit time*.
/// Tasks released later by a completing dependency were already accepted
/// as part of their workflow and bypass admission — shedding the tail of
/// an admitted DAG would waste the work already sunk into its head.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct OverloadConfig {
    /// Per-executor queue depth bound. A ready task submitted while the
    /// queue holds this many entries triggers [`OverloadConfig::shed_policy`].
    /// `None` = unbounded (historical behaviour).
    pub queue_cap: Option<usize>,
    /// What to do when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Reject tasks whose estimated queue wait plus service time already
    /// exceeds their deadline at submit time. Only tasks carrying both a
    /// deadline and a service estimate (see
    /// [`crate::AppCall::with_deadline`] /
    /// [`crate::AppCall::with_est_service`]) are screened.
    pub deadline_admission: bool,
    /// Per-app token bucket capping retry traffic as a fraction of
    /// first-attempt traffic. `None` = retries limited only by the
    /// per-task `retries` budget (historical behaviour).
    pub retry_budget: Option<RetryBudget>,
    /// Straggler hedging: launch a speculative duplicate of a slow task
    /// on another partition and cancel the loser on first completion.
    /// `None` = never hedge.
    pub hedge: Option<HedgePolicy>,
}

/// Victim selection when a bounded queue is full at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ShedPolicy {
    /// Refuse the incoming task; the queue is untouched.
    #[default]
    Reject,
    /// Drop the oldest queued task (it has waited longest and is the
    /// most likely to miss its deadline anyway) and admit the newcomer.
    ShedOldest,
    /// Drop the lowest-priority task among the queue and the newcomer;
    /// ties are broken uniformly on the seeded admission stream
    /// (`simcore::streams::ADMISSION`).
    ShedLowestPriority,
}

/// Token bucket capping retry traffic per app.
///
/// Every admitted first attempt of an app deposits `ratio` tokens
/// (capped at `burst`); every retry withdraws one. A dry bucket sheds
/// the retry permanently and counts `retries_suppressed` — during an
/// outage the retry stream therefore decays to at most `ratio` of the
/// first-attempt stream instead of multiplying it by the per-task retry
/// budget.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RetryBudget {
    /// Tokens deposited per admitted first attempt (the steady-state
    /// retry fraction; e.g. `0.1` allows one retry per ten admissions).
    pub ratio: f64,
    /// Bucket capacity, and the initial balance, in tokens (the burst of
    /// back-to-back retries tolerated before the ratio bites).
    pub burst: f64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            ratio: 0.1,
            burst: 3.0,
        }
    }
}

/// Straggler-hedging policy.
///
/// A running primary attempt with a service estimate arms a hedge timer
/// for `est_service * trigger_factor * (1 + jitter * U[0,1))` (jitter on
/// `simcore::streams::HEDGE_TIMING`). If the attempt is still running
/// when the timer fires and an idle worker exists in the executor (a
/// different GPU preferred) while the queue is empty, a speculative
/// duplicate launches there — restoring from the task's last committed
/// checkpoint when one exists. The first attempt to complete wins; the
/// loser is cancelled `cancel_latency` later (the control-plane
/// round-trip of the cancellation).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HedgePolicy {
    /// Multiple of the task's service estimate at which the attempt is
    /// declared a straggler suspect (e.g. `1.5` hedges attempts running
    /// 50% past their estimate).
    pub trigger_factor: f64,
    /// Uniform jitter fraction on the hedge delay, clamped to `[0, 1]`.
    pub jitter: f64,
    /// Delay between the winner's completion and the loser's teardown.
    pub cancel_latency: SimDuration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            trigger_factor: 1.5,
            jitter: 0.10,
            cancel_latency: SimDuration::from_millis(50),
        }
    }
}

/// Physical cores on the node (the paper's testbed has 24 Xeon cores).
/// CPU steps slow down proportionally when more workers are
/// simultaneously compute-bound than there are cores.
pub(crate) const NODE_CORES: usize = 24;

/// Interval between heartbeat-watchdog scans (and progress-watchdog
/// scans). A crashed (silently dead) worker is discovered on the first
/// scan after its silence exceeds [`RecoveryConfig::heartbeat_timeout`].
pub(crate) const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(500);

/// First retry delay; attempt `n` of a task waits
/// `BACKOFF_BASE * 2^(n-1)`, capped at [`BACKOFF_CAP`].
pub(crate) const BACKOFF_BASE: SimDuration = SimDuration::from_millis(100);

/// Ceiling on the exponential retry backoff.
pub(crate) const BACKOFF_CAP: SimDuration = SimDuration::from_secs(10);

/// Uniform jitter fraction added on top of each backoff delay
/// (`delay * (1 + jitter * U[0,1))`), drawn from the seeded recovery
/// stream so runs stay reproducible.
pub(crate) const BACKOFF_JITTER: f64 = 0.25;

/// Interval between fail-slow detector scans.
pub(crate) const FAIL_SLOW_CHECK_PERIOD: SimDuration = SimDuration::from_secs(5);

/// EWMA smoothing weight for new fail-slow step/link samples.
pub(crate) const FAIL_SLOW_ALPHA: f64 = 0.3;

/// A device is suspect when its step-duration EWMA exceeds the *fastest
/// same-device-mode peer's* EWMA by this factor. Comparing against peers
/// — not an absolute bound — is what keeps a device-wide straggler
/// episode from being misread as N bad workers: every worker on the slow
/// device shares one device-level score, judged against other devices
/// running the same mode.
pub(crate) const FAIL_SLOW_PEER_RATIO: f64 = 1.6;

/// A device is suspect when its link-transfer ratio EWMA (observed /
/// nominal seconds) exceeds this absolute bound. Link transfers have an
/// exact nominal from the device spec, so no peer is needed.
pub(crate) const FAIL_SLOW_LINK_RATIO: f64 = 1.6;

/// Minimum step samples folded into a device's EWMA before it may be
/// judged (either direction: too few samples and the device neither
/// accuses nor defends).
pub(crate) const FAIL_SLOW_MIN_SAMPLES: u64 = 4;

/// Expected healthy end-to-end canary duration (small-grid probe kernel
/// + link probe transfer, uncontended on the evacuated device).
pub(crate) const CANARY_NOMINAL: SimDuration = SimDuration::from_millis(500);

/// The canary fails when it takes longer than
/// `CANARY_FACTOR * CANARY_NOMINAL`.
pub(crate) const CANARY_FACTOR: f64 = 1.6;

/// Post-verdict cooldown before the same device may be re-probed.
pub(crate) const FAIL_SLOW_COOLDOWN: SimDuration = SimDuration::from_secs(30);

/// Failure detection and recovery knobs (see DESIGN.md "Failure model").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Heartbeat silence that declares a worker dead. Should be a small
    /// multiple of the 500 ms `HEARTBEAT_PERIOD` to bound false
    /// positives.
    pub heartbeat_timeout: SimDuration,
    /// Automatic restarts allowed per worker slot across the run.
    /// Fault-induced deaths auto-respawn while budget remains; explicit
    /// [`crate::world::kill_worker`] calls never auto-respawn.
    pub restart_budget: u32,
    /// Contained client faults on one GPU before its circuit breaker
    /// trips and the device is quarantined.
    pub breaker_threshold: u32,
    /// How long a quarantined GPU stays fenced before re-admission.
    pub breaker_cooldown: SimDuration,
    /// Host reboot time for [`crate::FaultKind::HostReboot`]: the host's
    /// GPUs stay fenced at least this long after the fault.
    pub host_reboot: SimDuration,
    /// Stagger between consecutive host boot completions when a whole
    /// rack power-cycles (hosts never all return in the same instant).
    pub host_boot_stagger: SimDuration,
    /// Stagger between consecutive GPU re-enrollments on one host after
    /// it boots: the host comes back first, then its GPUs re-enroll one
    /// by one (driver probe + MPS/MIG re-setup serializes per host).
    pub gpu_reenroll_stagger: SimDuration,
    /// Time to restore rack power before any host in the rack can even
    /// begin booting ([`crate::FaultKind::RackPower`]).
    pub rack_power_restore: SimDuration,
    /// Progress-watchdog timeout: a *busy* worker whose progress mark
    /// (refreshed at step boundaries, checkpoint begin/commit, model-load
    /// and restore completion) is older than this is declared gray —
    /// heartbeating but not progressing — and recovered through the
    /// normal kill/retry/respawn path. `None` (default) disables the
    /// progress watchdog; the heartbeat watchdog alone only ever sees
    /// *silence*, so zombies survive it. Must comfortably exceed the
    /// longest legitimate gap between marks (one step, one checkpoint
    /// writeback, one model load) or healthy-but-slow workers are killed.
    pub progress_timeout: Option<SimDuration>,
    /// Peer-relative fail-slow detection with probation and canary
    /// probes (gray-failure detection, DESIGN.md §12); off by default.
    pub fail_slow: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            heartbeat_timeout: SimDuration::from_secs(2),
            restart_budget: 3,
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_secs(30),
            host_reboot: SimDuration::from_secs(120),
            host_boot_stagger: SimDuration::from_secs(15),
            gpu_reenroll_stagger: SimDuration::from_secs(5),
            rack_power_restore: SimDuration::from_secs(60),
            progress_timeout: None,
            fail_slow: false,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            executors: Vec::new(),
            retries: 1,
            monitoring_period: Some(SimDuration::from_millis(500)),
            recovery: RecoveryConfig::default(),
            topology: Topology::default(),
            checkpoint: CheckpointPolicy::default(),
            overload: OverloadConfig::default(),
            reconfig: ReconfigConfig::default(),
        }
    }
}

impl Config {
    /// Config with the given executors and Listing-1 defaults.
    pub fn new(executors: Vec<ExecutorConfig>) -> Self {
        Config {
            executors,
            ..Config::default()
        }
    }

    /// Find an executor index by label.
    pub fn executor_index(&self, label: &str) -> Option<usize> {
        self.executors.iter().position(|e| e.label == label)
    }

    /// Validate the configuration against a fleet of `gpu_count` devices.
    /// Returns every problem found (empty = valid). Run before `boot`;
    /// a worker with a bad binding otherwise dies at cold-start time.
    pub fn validate(&self, gpu_count: u32) -> Vec<ConfigIssue> {
        let mut issues = Vec::new();
        // lint:allow(hash-order, membership probe for duplicate labels; issues are pushed in executor-vec order, the set is never iterated)
        let mut seen = std::collections::HashSet::new();
        for (ei, e) in self.executors.iter().enumerate() {
            if !seen.insert(e.label.clone()) {
                issues.push(ConfigIssue::DuplicateLabel(e.label.clone()));
            }
            if e.max_workers == 0 {
                issues.push(ConfigIssue::NoWorkers(e.label.clone()));
            }
            if e.kind == ExecutorKind::ThreadPool && !e.accelerators.is_empty() {
                issues.push(ConfigIssue::ThreadPoolWithAccelerators(e.label.clone()));
            }
            let mut pct_by_gpu: std::collections::BTreeMap<u32, u32> =
                std::collections::BTreeMap::new();
            for a in &e.accelerators {
                match a {
                    AcceleratorSpec::Gpu(g)
                    | AcceleratorSpec::GpuPercentage(g, _)
                    | AcceleratorSpec::VgpuSlot(g, _)
                        if *g >= gpu_count =>
                    {
                        issues.push(ConfigIssue::UnknownGpu {
                            executor: ei,
                            gpu: *g,
                        });
                    }
                    AcceleratorSpec::GpuPercentage(g, p) => {
                        if !(1..=100).contains(p) {
                            issues.push(ConfigIssue::BadPercentage {
                                executor: ei,
                                pct: *p,
                            });
                        }
                        *pct_by_gpu.entry(*g).or_insert(0) += p;
                    }
                    _ => {}
                }
            }
            for (gpu, total) in pct_by_gpu {
                if total > 200 {
                    issues.push(ConfigIssue::Oversubscribed {
                        executor: ei,
                        gpu,
                        total,
                    });
                }
            }
        }
        issues
    }

    /// The paper's Listing-1 shape: 16 CPU workers + one whole-GPU worker.
    pub fn hsc() -> Self {
        Config::new(vec![
            ExecutorConfig::cpu("cpu", 16),
            ExecutorConfig::gpu("gpu", vec![AcceleratorSpec::Gpu(0)]),
        ])
    }
}

/// A problem found by [`Config::validate`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ConfigIssue {
    /// Two executors share a label; task routing would be ambiguous.
    DuplicateLabel(String),
    /// Executor has zero workers.
    NoWorkers(String),
    /// ThreadPool executors are CPU-only (§2.2.1).
    ThreadPoolWithAccelerators(String),
    /// Accelerator names a GPU index the fleet does not have.
    UnknownGpu {
        /// Executor index.
        executor: usize,
        /// Offending GPU index.
        gpu: u32,
    },
    /// MPS percentage outside 1..=100.
    BadPercentage {
        /// Executor index.
        executor: usize,
        /// Offending percentage.
        pct: u32,
    },
    /// Percentages on one GPU exceed the 200% oversubscription guard.
    Oversubscribed {
        /// Executor index.
        executor: usize,
        /// GPU index.
        gpu: u32,
        /// Sum of percentages.
        total: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsc_matches_listing1() {
        let c = Config::hsc();
        assert_eq!(c.executors.len(), 2);
        assert_eq!(c.executors[0].label, "cpu");
        assert_eq!(c.executors[0].max_workers, 16);
        assert!(c.executors[0].accelerators.is_empty());
        assert_eq!(c.executors[1].label, "gpu");
        assert_eq!(c.executors[1].max_workers, 1);
        assert_eq!(c.retries, 1);
    }

    #[test]
    fn accelerators_cycle_across_workers() {
        // Listing 2: GPUs 1, 2, 4 with percentages; 6 workers cycle.
        let mut e = ExecutorConfig::gpu(
            "gpu",
            vec![
                AcceleratorSpec::GpuPercentage(1, 50),
                AcceleratorSpec::GpuPercentage(2, 25),
                AcceleratorSpec::GpuPercentage(4, 30),
            ],
        );
        e.max_workers = 6;
        assert_eq!(
            e.accelerator_for(0),
            Some(&AcceleratorSpec::GpuPercentage(1, 50))
        );
        assert_eq!(
            e.accelerator_for(4),
            Some(&AcceleratorSpec::GpuPercentage(2, 25))
        );
        assert_eq!(ExecutorConfig::cpu("c", 2).accelerator_for(0), None);
    }

    #[test]
    fn duplicated_gpu_entries_multiplex() {
        // Listing 2's trick: list a GPU twice to give it to two workers.
        let e = ExecutorConfig::gpu(
            "gpu",
            vec![
                AcceleratorSpec::GpuPercentage(0, 50),
                AcceleratorSpec::GpuPercentage(0, 50),
            ],
        );
        assert_eq!(e.max_workers, 2);
        assert_eq!(e.accelerator_for(0).unwrap().gpu_index(), Some(0));
        assert_eq!(e.accelerator_for(1).unwrap().gpu_index(), Some(0));
    }

    #[test]
    fn executor_lookup() {
        let c = Config::hsc();
        assert_eq!(c.executor_index("gpu"), Some(1));
        assert_eq!(c.executor_index("nope"), None);
    }

    #[test]
    fn validate_catches_misconfigurations() {
        let mut c = Config::new(vec![
            ExecutorConfig::cpu("dup", 2),
            ExecutorConfig::cpu("dup", 0),
            ExecutorConfig::gpu(
                "gpu",
                vec![
                    AcceleratorSpec::GpuPercentage(5, 50),
                    AcceleratorSpec::GpuPercentage(0, 90),
                    AcceleratorSpec::GpuPercentage(0, 90),
                    AcceleratorSpec::GpuPercentage(0, 90),
                ],
            ),
        ]);
        let mut tp = ExecutorConfig::thread_pool("tp", 2);
        tp.accelerators.push(AcceleratorSpec::Gpu(0));
        c.executors.push(tp);
        let issues = c.validate(1);
        assert!(issues.contains(&ConfigIssue::DuplicateLabel("dup".into())));
        assert!(issues.contains(&ConfigIssue::NoWorkers("dup".into())));
        assert!(issues.contains(&ConfigIssue::UnknownGpu {
            executor: 2,
            gpu: 5
        }));
        assert!(issues.contains(&ConfigIssue::Oversubscribed {
            executor: 2,
            gpu: 0,
            total: 270
        }));
        assert!(issues.contains(&ConfigIssue::ThreadPoolWithAccelerators("tp".into())));
    }

    #[test]
    fn hsc_validates_clean() {
        assert!(Config::hsc().validate(1).is_empty());
        // ...but not against an empty fleet.
        assert!(!Config::hsc().validate(0).is_empty());
    }

    #[test]
    fn topology_maps_gpus_to_hosts_and_racks() {
        let t = Topology {
            gpus_per_host: 2,
            hosts_per_rack: 2,
        };
        assert_eq!(t.host_of(0), 0);
        assert_eq!(t.host_of(3), 1);
        assert_eq!(t.rack_of(3), 0);
        assert_eq!(t.rack_of(5), 1);
        assert_eq!(t.gpus_on_host(1, 6), vec![2, 3]);
        assert_eq!(t.hosts_in_rack(0, 6), vec![0, 1]);
        // Bounded by the fleet: a 3-GPU fleet has a partial host 1.
        assert_eq!(t.gpus_on_host(1, 3), vec![2]);
        assert_eq!(t.hosts_in_rack(1, 3), Vec::<u32>::new());
    }

    #[test]
    fn checkpoint_policy_defaults_off() {
        let p = CheckpointPolicy::default();
        assert!(p.interval.is_none());
        let on = CheckpointPolicy::every(SimDuration::from_secs(10));
        assert_eq!(on.interval, Some(SimDuration::from_secs(10)));
    }

    #[test]
    fn mig_spec_has_no_direct_index() {
        let s = AcceleratorSpec::Mig("MIG-GPU0-0-3g.40gb".into());
        assert_eq!(s.gpu_index(), None);
    }
}
