//! The DataFlowKernel: task table, dependency graph, retries.
//!
//! Parsl's DFK interposes between app invocations and executors: it tracks
//! each task's lifecycle, releases tasks whose dependencies completed, and
//! re-queues failed tasks while retries remain. This module is the pure
//! state machine; event wiring lives in [`crate::world`].
//!
//! A settled task keeps only its [`TaskRecord`]: its body factory is
//! dropped when it reaches `Done` or `Failed`, and dependency edges live
//! in a side table holding only unsettled tasks that still wait on a
//! dependency or have dependents.

use crate::app::{AppCall, BodyFactory, TaskId};
use parfait_simcore::SimTime;
use serde::Serialize;
use std::collections::BTreeMap;

/// Task lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TaskState {
    /// Waiting on dependencies.
    Waiting,
    /// Dependencies met; queued at its executor.
    Ready,
    /// Executing on a worker.
    Running,
    /// Finished successfully.
    Done,
    /// Failed permanently (retries exhausted or dependency failed).
    Failed,
}

/// One task's record (Parsl monitoring-DB style).
pub struct TaskRecord {
    /// Task id.
    pub id: TaskId,
    /// App (function) name.
    pub app: String,
    /// Executor index in the config.
    pub executor: usize,
    /// Current state.
    pub state: TaskState,
    /// Submission time.
    pub submitted: SimTime,
    /// When a worker picked it up (per attempt; last attempt wins).
    pub dispatched: Option<SimTime>,
    /// When the body began executing (after model load).
    pub started: Option<SimTime>,
    /// Completion or permanent failure time.
    pub finished: Option<SimTime>,
    /// Worker that ran the final attempt.
    pub worker: Option<usize>,
    /// Remaining retry budget.
    pub retries_left: u32,
    /// Dispatch attempts so far (1 after the first dispatch). Drives the
    /// retry-backoff exponent and the re-executed-work accounting.
    pub attempts: u32,
    /// Failure reason, if failed.
    pub error: Option<String>,
    /// Dependencies.
    pub depends_on: Vec<TaskId>,
    /// End-to-end deadline relative to `submitted` (admission control,
    /// goodput accounting).
    pub deadline: Option<parfait_simcore::SimDuration>,
    /// Caller-estimated single-attempt service time (queue-wait estimate,
    /// hedge trigger).
    pub est_service: Option<parfait_simcore::SimDuration>,
    /// Recreates the body for each attempt; `None` once the task settled.
    pub(crate) factory: Option<BodyFactory>,
}

/// Dependency edges of one unsettled task.
#[derive(Default)]
struct Edges {
    /// Unmet dependency count.
    pending: usize,
    /// Tasks waiting on this one, in submission order.
    dependents: Vec<TaskId>,
}

/// Outcome of reporting a task failure to the DFK.
#[derive(Debug, PartialEq, Eq)]
pub enum FailureOutcome {
    /// The task should be re-queued (retry budget remained).
    Retry,
    /// Permanent failure; listed dependents failed transitively.
    Fatal {
        /// Tasks that can now never run.
        cascade: Vec<TaskId>,
    },
}

/// The task table.
#[derive(Default)]
pub struct Dfk {
    tasks: Vec<TaskRecord>,
    /// Edges of unsettled tasks with unmet dependencies or with
    /// dependents. An entry is removed when its task settles.
    edges: BTreeMap<TaskId, Edges>,
    done: u64,
    failed: u64,
}

impl Dfk {
    /// Empty kernel.
    pub fn new() -> Self {
        Dfk::default()
    }

    /// Register a call. Returns the id and whether it is immediately ready
    /// (no unmet dependencies).
    pub fn submit(
        &mut self,
        now: SimTime,
        call: AppCall,
        executor: usize,
        retries: u32,
    ) -> (TaskId, bool) {
        let id = TaskId(self.tasks.len() as u64);
        let mut pending = 0;
        let mut failed_dep = false;
        for dep in &call.depends_on {
            match self.tasks[dep.0 as usize].state {
                TaskState::Done => {}
                TaskState::Failed => {
                    // Can never run.
                    failed_dep = true;
                    break;
                }
                _ => {
                    self.edges.entry(*dep).or_default().dependents.push(id);
                    pending += 1;
                }
            }
        }
        let ready = pending == 0 && !failed_dep;
        if pending > 0 && !failed_dep {
            self.edges.entry(id).or_default().pending = pending;
        }
        self.tasks.push(TaskRecord {
            id,
            app: call.app,
            executor,
            state: if failed_dep {
                TaskState::Failed
            } else if ready {
                TaskState::Ready
            } else {
                TaskState::Waiting
            },
            submitted: now,
            dispatched: None,
            started: None,
            finished: if failed_dep { Some(now) } else { None },
            worker: None,
            retries_left: retries,
            attempts: 0,
            error: failed_dep.then(|| "dependency failed before submission".to_string()),
            depends_on: call.depends_on,
            deadline: call.deadline,
            est_service: call.est_service,
            factory: (!failed_dep).then_some(call.make_body),
        });
        if failed_dep {
            self.failed += 1;
        }
        (id, ready)
    }

    /// Borrow a record.
    pub fn task(&self, id: TaskId) -> &TaskRecord {
        &self.tasks[id.0 as usize]
    }

    /// Mutably borrow a record.
    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskRecord {
        &mut self.tasks[id.0 as usize]
    }

    /// All records.
    pub fn tasks(&self) -> &[TaskRecord] {
        &self.tasks
    }

    /// Number of tasks ever submitted.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks were submitted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Completed-successfully count.
    pub fn done_count(&self) -> u64 {
        self.done
    }

    /// Permanently-failed count.
    pub fn failed_count(&self) -> u64 {
        self.failed
    }

    /// All tasks reached a terminal state.
    pub fn all_settled(&self) -> bool {
        self.done + self.failed == self.tasks.len() as u64
    }

    /// A worker picked the task up.
    pub fn mark_dispatched(&mut self, id: TaskId, now: SimTime, worker: usize) {
        let t = self.task_mut(id);
        debug_assert!(matches!(t.state, TaskState::Ready));
        t.state = TaskState::Running;
        t.dispatched = Some(now);
        t.worker = Some(worker);
        t.attempts += 1;
    }

    /// Attempts beyond the first, summed over all tasks — work the
    /// platform re-executed because of failures.
    pub fn reexecuted_attempts(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| u64::from(t.attempts.saturating_sub(1)))
            .sum()
    }

    /// The body began executing (model resident).
    pub fn mark_started(&mut self, id: TaskId, now: SimTime) {
        let t = self.task_mut(id);
        if t.started.is_none() {
            t.started = Some(now);
        }
    }

    /// Settle `id` in `state`: drop its body factory and its edge entry.
    /// Returns its dependents.
    fn settle(&mut self, id: TaskId, state: TaskState, now: SimTime) -> Vec<TaskId> {
        let t = self.task_mut(id);
        t.state = state;
        t.finished = Some(now);
        t.factory = None;
        self.edges
            .remove(&id)
            .map(|e| e.dependents)
            .unwrap_or_default()
    }

    /// Successful completion. Returns dependents that became ready.
    pub fn mark_done(&mut self, id: TaskId, now: SimTime) -> Vec<TaskId> {
        debug_assert!(matches!(self.task(id).state, TaskState::Running));
        let deps = self.settle(id, TaskState::Done, now);
        self.done += 1;
        let mut ready = Vec::new();
        for d in deps {
            if self.task(d).state != TaskState::Waiting {
                continue;
            }
            let Some(e) = self.edges.get_mut(&d) else {
                continue;
            };
            e.pending -= 1;
            if e.pending == 0 {
                if e.dependents.is_empty() {
                    self.edges.remove(&d);
                }
                self.task_mut(d).state = TaskState::Ready;
                ready.push(d);
            }
        }
        ready
    }

    /// Failure of the current attempt. Either re-queues (`Retry`, caller
    /// puts it back on the executor queue) or fails permanently,
    /// cascading to dependents.
    pub fn mark_failed(&mut self, id: TaskId, now: SimTime, error: &str) -> FailureOutcome {
        {
            let t = self.task_mut(id);
            if t.retries_left > 0 {
                t.retries_left -= 1;
                t.state = TaskState::Ready;
                t.error = Some(error.to_string());
                return FailureOutcome::Retry;
            }
        }
        let mut cascade = Vec::new();
        let mut stack = vec![(id, error.to_string())];
        while let Some((tid, err)) = stack.pop() {
            if self.task(tid).state == TaskState::Failed {
                continue;
            }
            self.task_mut(tid).error = Some(err);
            let deps = self.settle(tid, TaskState::Failed, now);
            self.failed += 1;
            if tid != id {
                cascade.push(tid);
            }
            for d in deps {
                stack.push((d, format!("dependency task {} failed", tid.0)));
            }
        }
        FailureOutcome::Fatal { cascade }
    }

    /// Instantiate a fresh body for an attempt of `id`. `None` for an
    /// unknown or settled task: its factory is gone.
    pub fn make_body(
        &self,
        id: TaskId,
        rng: &mut parfait_simcore::SimRng,
    ) -> Option<Box<dyn crate::app::TaskBody>> {
        let factory = self.tasks.get(id.0 as usize)?.factory.as_ref()?;
        Some(factory(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::bodies::CpuBurn;
    use parfait_simcore::{SimDuration, SimRng};

    fn call(app: &str) -> AppCall {
        AppCall::new(app, "cpu", |_| {
            Box::new(CpuBurn::new(SimDuration::from_secs(1)))
        })
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn submit_without_deps_is_ready() {
        let mut dfk = Dfk::new();
        let (id, ready) = dfk.submit(t(0), call("a"), 0, 1);
        assert!(ready);
        assert_eq!(dfk.task(id).state, TaskState::Ready);
        assert_eq!(dfk.len(), 1);
    }

    #[test]
    fn dependency_chain_releases_in_order() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 0);
        let (b, ready_b) = dfk.submit(t(0), call("b").after(&[a]), 0, 0);
        let (c, ready_c) = dfk.submit(t(0), call("c").after(&[a, b]), 0, 0);
        assert!(!ready_b && !ready_c);
        dfk.mark_dispatched(a, t(1), 0);
        dfk.mark_started(a, t(1));
        let ready = dfk.mark_done(a, t(2));
        assert_eq!(ready, vec![b]);
        assert_eq!(dfk.task(c).state, TaskState::Waiting);
        dfk.mark_dispatched(b, t(2), 0);
        let ready = dfk.mark_done(b, t(3));
        assert_eq!(ready, vec![c]);
    }

    #[test]
    fn dependency_on_done_task_is_satisfied() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 0);
        dfk.mark_dispatched(a, t(0), 0);
        dfk.mark_done(a, t(1));
        let (_b, ready) = dfk.submit(t(2), call("b").after(&[a]), 0, 0);
        assert!(ready);
    }

    #[test]
    fn retry_then_fatal() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 1);
        dfk.mark_dispatched(a, t(0), 0);
        assert_eq!(dfk.mark_failed(a, t(1), "oom"), FailureOutcome::Retry);
        assert_eq!(dfk.task(a).state, TaskState::Ready);
        assert_eq!(dfk.task(a).retries_left, 0);
        dfk.mark_dispatched(a, t(1), 0);
        match dfk.mark_failed(a, t(2), "oom again") {
            FailureOutcome::Fatal { cascade } => assert!(cascade.is_empty()),
            other => panic!("expected fatal, got {other:?}"),
        }
        assert_eq!(dfk.failed_count(), 1);
        assert_eq!(dfk.task(a).error.as_deref(), Some("oom again"));
    }

    #[test]
    fn failure_cascades_to_dependents() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 0);
        let (b, _) = dfk.submit(t(0), call("b").after(&[a]), 0, 0);
        let (c, _) = dfk.submit(t(0), call("c").after(&[b]), 0, 0);
        dfk.mark_dispatched(a, t(0), 0);
        match dfk.mark_failed(a, t(1), "boom") {
            FailureOutcome::Fatal { mut cascade } => {
                cascade.sort();
                assert_eq!(cascade, vec![b, c]);
            }
            other => panic!("expected fatal, got {other:?}"),
        }
        assert_eq!(dfk.failed_count(), 3);
        assert!(dfk.all_settled());
        assert!(dfk.task(c).error.as_deref().unwrap().contains("dependency"));
    }

    #[test]
    fn submit_after_failed_dep_fails_immediately() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 0);
        dfk.mark_dispatched(a, t(0), 0);
        dfk.mark_failed(a, t(1), "boom");
        let (b, ready) = dfk.submit(t(2), call("b").after(&[a]), 0, 0);
        assert!(!ready);
        assert_eq!(dfk.task(b).state, TaskState::Failed);
        assert_eq!(dfk.failed_count(), 2);
        let mut rng = SimRng::new(0);
        assert!(dfk.make_body(b, &mut rng).is_none(), "factory dropped");
    }

    #[test]
    fn settled_accounting() {
        let mut dfk = Dfk::new();
        assert!(dfk.all_settled(), "vacuously settled when empty");
        let (a, _) = dfk.submit(t(0), call("a"), 0, 0);
        assert!(!dfk.all_settled());
        dfk.mark_dispatched(a, t(0), 0);
        dfk.mark_done(a, t(1));
        assert!(dfk.all_settled());
        assert_eq!(dfk.done_count(), 1);
    }

    #[test]
    fn body_factory_runs_per_attempt_until_settled() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 3);
        let mut rng = SimRng::new(0);
        assert!(dfk.make_body(a, &mut rng).is_some());
        assert!(dfk.make_body(a, &mut rng).is_some());
        dfk.mark_dispatched(a, t(0), 0);
        dfk.mark_done(a, t(1));
        assert!(dfk.make_body(a, &mut rng).is_none(), "settled: no body");
        assert!(dfk.make_body(TaskId(99), &mut rng).is_none(), "unknown id");
    }

    /// a → {b, c} → d.
    fn diamond(dfk: &mut Dfk) -> [TaskId; 4] {
        let (a, _) = dfk.submit(t(0), call("a"), 0, 0);
        let (b, _) = dfk.submit(t(0), call("b").after(&[a]), 0, 0);
        let (c, _) = dfk.submit(t(0), call("c").after(&[a]), 0, 0);
        let (d, _) = dfk.submit(t(0), call("d").after(&[b, c]), 0, 0);
        [a, b, c, d]
    }

    #[test]
    fn edge_table_empties_when_a_diamond_settles() {
        let mut dfk = Dfk::new();
        let [a, b, c, d] = diamond(&mut dfk);
        assert_eq!(dfk.edges.len(), 4);
        dfk.mark_dispatched(a, t(1), 0);
        assert_eq!(dfk.mark_done(a, t(2)), vec![b, c]);
        dfk.mark_dispatched(b, t(2), 0);
        assert!(dfk.mark_done(b, t(3)).is_empty());
        dfk.mark_dispatched(c, t(3), 0);
        assert_eq!(dfk.mark_done(c, t(4)), vec![d]);
        dfk.mark_dispatched(d, t(4), 0);
        dfk.mark_done(d, t(5));
        assert!(dfk.all_settled());
        assert!(dfk.edges.is_empty(), "settled tasks keep no edges");
    }

    #[test]
    fn edge_table_empties_after_a_cascade_failure() {
        let mut dfk = Dfk::new();
        let [a, ..] = diamond(&mut dfk);
        dfk.mark_dispatched(a, t(1), 0);
        assert!(matches!(
            dfk.mark_failed(a, t(2), "boom"),
            FailureOutcome::Fatal { .. }
        ));
        assert_eq!(dfk.failed_count(), 4);
        assert!(dfk.edges.is_empty(), "settled tasks keep no edges");
    }
}
