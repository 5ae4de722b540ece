//! Apps, tasks and task bodies.
//!
//! In Parsl a decorated Python function is an **app**; each invocation
//! becomes a task dispatched to a worker. Here an app invocation carries a
//! [`TaskBody`] — a resumable state machine that yields [`TaskStep`]s; the
//! worker interprets the steps against the simulated node (CPU timers,
//! GPU kernel launches, device memory). This is the moral equivalent of
//! the Python function's trace of framework calls.

use parfait_gpu::KernelDesc;
use parfait_simcore::{SimDuration, SimRng, SimTime};
use serde::Serialize;
use std::rc::Rc;

/// Global task identifier assigned by the DataFlowKernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TaskId(pub u64);

/// A model artifact a task needs resident in GPU memory (weights + KV
/// cache + activation workspace). Workers cache loads by `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ModelProfile {
    /// Stable identity (e.g. hash of "llama2-7b-fp16").
    pub id: u64,
    /// Total resident bytes once loaded.
    pub bytes: u64,
    /// Of `bytes`, how many are immutable weights that the §7 GPU-resident
    /// weight cache may share across function instances (the remainder —
    /// KV cache, activations — is always private to the process).
    pub shared_bytes: u64,
}

impl ModelProfile {
    /// A fully private model (no shareable weights).
    pub fn private(id: u64, bytes: u64) -> Self {
        ModelProfile {
            id,
            bytes,
            shared_bytes: 0,
        }
    }

    /// Private (per-process) bytes.
    pub fn private_bytes(&self) -> u64 {
        self.bytes - self.shared_bytes.min(self.bytes)
    }
}

/// What a task body wants to do next.
pub enum TaskStep {
    /// Host-side compute/IO on the worker for the given duration
    /// (tokenization, Python dispatch, result serialization...).
    Cpu(SimDuration),
    /// Launch one GPU kernel and wait for it.
    Gpu(KernelDesc),
    /// Allocate device memory (activations, buffers). Fails the task on
    /// OOM, like a CUDA allocation error would.
    AllocGpu(u64),
    /// Free device memory previously allocated by this task.
    FreeGpu(u64),
    /// The task finished successfully.
    Done,
}

/// Context handed to [`TaskBody::next`].
pub struct TaskCtx<'a> {
    /// Task-private randomness (derived deterministically per task).
    pub rng: &'a mut SimRng,
    /// Current virtual time.
    pub now: SimTime,
}

/// A resumable task program.
///
/// `next` is called when the previous step completes; returning
/// [`TaskStep::Done`] ends the task. Bodies run on exactly one worker and
/// need not be `Send` — the simulation is single-threaded.
pub trait TaskBody: 'static {
    /// Model that must be resident before the first step runs (`None` for
    /// model-free tasks). The worker loads it once and keeps it warm.
    fn model(&self) -> Option<ModelProfile> {
        None
    }
    /// Produce the next step.
    fn next(&mut self, ctx: &mut TaskCtx<'_>) -> TaskStep;
    /// Can this body's progress be snapshotted at step boundaries and
    /// later resumed by fast-forwarding a fresh body past the completed
    /// steps? Opt-in: bodies whose step sequence is a deterministic
    /// function of construction (kernel sequences, completion sessions)
    /// return `true`; the default is `false`.
    fn checkpointable(&self) -> bool {
        false
    }
    /// Durable private state a snapshot must serialize, beyond the
    /// task's explicit device allocations (e.g. the KV cache grown so
    /// far in a completion session). Activation scratch is *not*
    /// durable — it is recomputed on resume — so this is typically far
    /// smaller than [`ModelProfile::private_bytes`].
    fn checkpoint_bytes(&self) -> u64 {
        0
    }
}

/// Factory recreating a fresh body per attempt (retries re-run from the
/// start, as Parsl re-executes the function).
pub type BodyFactory = Rc<dyn Fn(&mut SimRng) -> Box<dyn TaskBody>>;

/// One app invocation submitted to the DataFlowKernel.
pub struct AppCall {
    /// App (function) name. It names the track the task's span lands on
    /// in the derived Fig. 3 phase timeline.
    pub app: String,
    /// Executor label this call is routed to (Parsl's `executors=[...]`).
    pub executor: String,
    /// Body factory.
    pub make_body: BodyFactory,
    /// Tasks that must complete successfully first.
    pub depends_on: Vec<TaskId>,
    /// End-to-end completion deadline relative to submit time. Used by
    /// deadline-aware admission control (`Config::overload`) and by the
    /// goodput accounting in the overload benchmarks. `None` = no SLO.
    pub deadline: Option<SimDuration>,
    /// Caller-estimated service time of one attempt (from the GPU
    /// performance model, e.g. `LlmSpec::solo_completion_seconds` at the
    /// partition's SM share). Drives the queue-wait estimate of
    /// deadline-aware admission and the straggler-hedge trigger.
    pub est_service: Option<SimDuration>,
}

impl AppCall {
    /// Convenience constructor for a dependency-free call.
    pub fn new(
        app: impl Into<String>,
        executor: impl Into<String>,
        make_body: impl Fn(&mut SimRng) -> Box<dyn TaskBody> + 'static,
    ) -> Self {
        AppCall {
            app: app.into(),
            executor: executor.into(),
            make_body: Rc::new(make_body),
            depends_on: Vec::new(),
            deadline: None,
            est_service: None,
        }
    }

    /// Add dependencies.
    pub fn after(mut self, deps: &[TaskId]) -> Self {
        self.depends_on.extend_from_slice(deps);
        self
    }

    /// Set an end-to-end completion deadline relative to submit time.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the estimated single-attempt service time.
    pub fn with_est_service(mut self, est: SimDuration) -> Self {
        self.est_service = Some(est);
        self
    }
}

/// Simple reusable bodies.
pub mod bodies {
    use super::*;

    /// A body that burns CPU for a fixed duration.
    pub struct CpuBurn {
        remaining: Option<SimDuration>,
    }

    impl CpuBurn {
        /// Burn for `d`.
        pub fn new(d: SimDuration) -> Self {
            CpuBurn { remaining: Some(d) }
        }
    }

    impl TaskBody for CpuBurn {
        fn next(&mut self, _ctx: &mut TaskCtx<'_>) -> TaskStep {
            match self.remaining.take() {
                Some(d) => TaskStep::Cpu(d),
                None => TaskStep::Done,
            }
        }
    }

    /// A body that runs a fixed sequence of kernels with optional host
    /// time between them.
    pub struct KernelSeq {
        kernels: std::vec::IntoIter<KernelDesc>,
        host_between: SimDuration,
        pending: Option<KernelDesc>,
        model: Option<ModelProfile>,
    }

    impl KernelSeq {
        /// Sequence of `kernels` with `host_between` of CPU before each.
        pub fn new(kernels: Vec<KernelDesc>, host_between: SimDuration) -> Self {
            KernelSeq {
                kernels: kernels.into_iter(),
                host_between,
                pending: None,
                model: None,
            }
        }

        /// Require a model resident.
        pub fn with_model(mut self, m: ModelProfile) -> Self {
            self.model = Some(m);
            self
        }
    }

    impl TaskBody for KernelSeq {
        fn model(&self) -> Option<ModelProfile> {
            self.model
        }
        fn checkpointable(&self) -> bool {
            // The kernel list is fixed at construction; a fresh body
            // replays identically and can fast-forward past a snapshot.
            true
        }
        fn next(&mut self, _ctx: &mut TaskCtx<'_>) -> TaskStep {
            if let Some(k) = self.pending.take() {
                return TaskStep::Gpu(k);
            }
            match self.kernels.next() {
                Some(k) if !self.host_between.is_zero() => {
                    self.pending = Some(k);
                    TaskStep::Cpu(self.host_between)
                }
                Some(k) => TaskStep::Gpu(k),
                None => TaskStep::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bodies::*;
    use super::*;

    fn ctx_call(body: &mut dyn TaskBody) -> Vec<&'static str> {
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        for _ in 0..32 {
            let mut ctx = TaskCtx {
                rng: &mut rng,
                now: SimTime::ZERO,
            };
            match body.next(&mut ctx) {
                TaskStep::Cpu(_) => out.push("cpu"),
                TaskStep::Gpu(_) => out.push("gpu"),
                TaskStep::AllocGpu(_) => out.push("alloc"),
                TaskStep::FreeGpu(_) => out.push("free"),
                TaskStep::Done => {
                    out.push("done");
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn cpu_burn_is_one_step() {
        let mut b = CpuBurn::new(SimDuration::from_secs(1));
        assert_eq!(ctx_call(&mut b), vec!["cpu", "done"]);
    }

    #[test]
    fn kernel_seq_interleaves_host_time() {
        let k = KernelDesc::new("k", 1.0, 10, 10, 0.0);
        let mut b = KernelSeq::new(vec![k.clone(), k], SimDuration::from_millis(5));
        assert_eq!(ctx_call(&mut b), vec!["cpu", "gpu", "cpu", "gpu", "done"]);
    }

    #[test]
    fn kernel_seq_without_host_time() {
        let k = KernelDesc::new("k", 1.0, 10, 10, 0.0);
        let mut b = KernelSeq::new(vec![k.clone(), k.clone(), k], SimDuration::ZERO);
        assert_eq!(ctx_call(&mut b), vec!["gpu", "gpu", "gpu", "done"]);
    }

    #[test]
    fn app_call_builder() {
        let call = AppCall::new("infer", "gpu", |_rng| {
            Box::new(CpuBurn::new(SimDuration::from_secs(1)))
        })
        .after(&[TaskId(3), TaskId(4)]);
        assert_eq!(call.app, "infer");
        assert_eq!(call.executor, "gpu");
        assert_eq!(call.depends_on, vec![TaskId(3), TaskId(4)]);
    }

    #[test]
    fn model_profile_surfaces() {
        let k = KernelDesc::new("k", 1.0, 10, 10, 0.0);
        let m = ModelProfile::private(9, 1 << 30);
        let b = KernelSeq::new(vec![k], SimDuration::ZERO).with_model(m);
        assert_eq!(b.model(), Some(m));
    }
}
