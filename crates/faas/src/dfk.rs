//! The DataFlowKernel: task table, dependency graph, retries.
//!
//! Parsl's DFK interposes between app invocations and executors: it tracks
//! each task's lifecycle, releases tasks whose dependencies completed, and
//! re-queues failed tasks while retries remain. This module is the pure
//! state machine; event wiring lives in [`crate::world`].
//!
//! The task table holds one 128-byte [`TaskRecord`] per task, so a
//! million-request fleet keeps it compact:
//! - the record holds inline only what every task's lifecycle writes;
//! - what only some tasks carry (a failure reason, dependencies, SLO
//!   fields) sits behind one pointer that is allocated at submit for a
//!   call that sets a dependency, deadline or service estimate, and
//!   otherwise at the first failure; read it through [`Dfk::error`],
//!   [`Dfk::depends_on`], [`Dfk::deadline`] and [`Dfk::est_service`];
//! - app names are interned: every task of an app shares one [`AppName`]
//!   allocation;
//! - executor and worker indices are `u32`.
//!
//! A settled task keeps only its record: its body factory is dropped when
//! it reaches `Done` or `Failed`, and dependency edges live in a side
//! table holding only unsettled tasks that still wait on a dependency or
//! have dependents.

use crate::app::{AppCall, BodyFactory, TaskId};
use parfait_simcore::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

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

/// An app (function) name interned by the [`Dfk`]: every task of one app
/// shares one allocation.
pub type AppName = Rc<str>;

/// One task's record (Parsl monitoring-DB style).
pub struct TaskRecord {
    /// Task id.
    pub id: TaskId,
    /// App (function) name.
    pub app: AppName,
    /// Executor index in the config.
    pub executor: u32,
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
    pub worker: Option<u32>,
    /// Remaining retry budget.
    pub retries_left: u32,
    /// Dispatch attempts so far (1 after the first dispatch). Drives the
    /// retry-backoff exponent and the re-executed-work accounting.
    pub attempts: u32,
    /// Recreates the body for each attempt; `None` once the task settled.
    pub(crate) factory: Option<BodyFactory>,
    /// The fields only some tasks carry; `None` until one is set.
    extra: Option<Box<TaskExtra>>,
}

/// The fields of a [`TaskRecord`] that only some tasks carry.
#[derive(Default)]
struct TaskExtra {
    /// Failure reason of the last failed attempt.
    error: Option<String>,
    /// Dependencies.
    depends_on: Vec<TaskId>,
    /// End-to-end deadline relative to `submitted` (admission control,
    /// goodput accounting).
    deadline: Option<SimDuration>,
    /// Caller-estimated single-attempt service time (queue-wait estimate,
    /// hedge trigger).
    est_service: Option<SimDuration>,
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
    /// Interned app names, one allocation per distinct name.
    apps: BTreeSet<AppName>,
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
        let AppCall {
            app,
            make_body,
            depends_on,
            deadline,
            est_service,
            ..
        } = call;
        let id = TaskId(self.tasks.len() as u64);
        let mut pending = 0;
        let mut failed_dep = false;
        for dep in &depends_on {
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
        let extra =
            (!depends_on.is_empty() || deadline.is_some() || est_service.is_some()).then(|| {
                Box::new(TaskExtra {
                    error: failed_dep.then(|| "dependency failed before submission".to_string()),
                    depends_on,
                    deadline,
                    est_service,
                })
            });
        let app = self.intern(app);
        self.tasks.push(TaskRecord {
            id,
            app,
            executor: u32::try_from(executor).expect("executor index fits in u32"),
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
            factory: (!failed_dep).then_some(make_body),
            extra,
        });
        if failed_dep {
            self.failed += 1;
        }
        (id, ready)
    }

    /// The interned name equal to `name`. Interning the first call of an
    /// app allocates its name once; later calls drop their `String`.
    fn intern(&mut self, name: String) -> AppName {
        if let Some(app) = self.apps.get(name.as_str()) {
            return app.clone();
        }
        let app = AppName::from(name);
        self.apps.insert(app.clone());
        app
    }

    /// Borrow a record.
    pub fn task(&self, id: TaskId) -> &TaskRecord {
        &self.tasks[id.0 as usize]
    }

    fn extra(&self, id: TaskId) -> Option<&TaskExtra> {
        self.task(id).extra.as_deref()
    }

    /// Failure reason of the task's last failed attempt (`None` while no
    /// attempt failed). A retried task that later succeeded keeps it.
    pub fn error(&self, id: TaskId) -> Option<&str> {
        self.extra(id)?.error.as_deref()
    }

    /// The task's dependencies, in the order the call listed them.
    pub fn depends_on(&self, id: TaskId) -> &[TaskId] {
        self.extra(id).map_or(&[], |x| &x.depends_on)
    }

    /// End-to-end deadline relative to submission (admission control,
    /// goodput accounting).
    pub fn deadline(&self, id: TaskId) -> Option<SimDuration> {
        self.extra(id)?.deadline
    }

    /// Caller-estimated single-attempt service time (queue-wait
    /// estimate, hedge trigger).
    pub fn est_service(&self, id: TaskId) -> Option<SimDuration> {
        self.extra(id)?.est_service
    }

    /// Record the failure reason of `id`'s current attempt.
    fn set_error(&mut self, id: TaskId, error: String) {
        self.task_mut(id)
            .extra
            .get_or_insert_with(Box::default)
            .error = Some(error);
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
        t.worker = Some(u32::try_from(worker).expect("worker index fits in u32"));
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
        let t = self.task_mut(id);
        if t.retries_left > 0 {
            t.retries_left -= 1;
            t.state = TaskState::Ready;
            self.set_error(id, error.to_string());
            return FailureOutcome::Retry;
        }
        let mut cascade = Vec::new();
        let mut stack = vec![(id, error.to_string())];
        while let Some((tid, err)) = stack.pop() {
            if self.task(tid).state == TaskState::Failed {
                continue;
            }
            self.set_error(tid, err);
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
        assert_eq!(dfk.error(a), Some("oom again"));
        let mut rng = SimRng::new(0);
        assert!(dfk.make_body(a, &mut rng).is_none(), "failed: no body");
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
        assert_eq!(dfk.error(a), Some("boom"));
        assert_eq!(dfk.error(b), Some("dependency task 0 failed"));
        assert_eq!(dfk.error(c), Some("dependency task 1 failed"));
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
    fn plain_call_carries_no_extra_until_its_first_failure() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 1);
        assert!(dfk.task(a).extra.is_none(), "no dependency, no SLO field");
        assert_eq!(dfk.error(a), None);
        assert!(dfk.depends_on(a).is_empty());
        dfk.mark_dispatched(a, t(0), 0);
        assert_eq!(dfk.mark_failed(a, t(1), "oom"), FailureOutcome::Retry);
        assert!(dfk.task(a).extra.is_some(), "the first failure boxes it");
        assert_eq!(dfk.error(a), Some("oom"));
    }

    #[test]
    fn retried_success_keeps_its_last_error() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 2);
        dfk.mark_dispatched(a, t(0), 0);
        dfk.mark_failed(a, t(1), "first");
        dfk.mark_dispatched(a, t(1), 0);
        dfk.mark_failed(a, t(2), "second");
        dfk.mark_dispatched(a, t(2), 0);
        dfk.mark_done(a, t(3));
        assert_eq!(dfk.task(a).state, TaskState::Done);
        assert_eq!(dfk.error(a), Some("second"));
    }

    #[test]
    fn extra_fields_read_back_what_the_call_set() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("a"), 0, 0);
        let (b, _) = dfk.submit(t(0), call("b"), 0, 0);
        let slo = call("c")
            .after(&[b, a])
            .with_deadline(SimDuration::from_secs(9))
            .with_est_service(SimDuration::from_millis(250));
        let (c, _) = dfk.submit(t(0), slo, 0, 0);
        assert_eq!(dfk.depends_on(c), &[b, a]);
        assert_eq!(dfk.deadline(c), Some(SimDuration::from_secs(9)));
        assert_eq!(dfk.est_service(c), Some(SimDuration::from_millis(250)));
        let (d, _) = dfk.submit(
            t(0),
            call("d").with_est_service(SimDuration::from_secs(2)),
            0,
            0,
        );
        assert!(dfk.depends_on(d).is_empty());
        assert_eq!(dfk.deadline(d), None);
        assert_eq!(dfk.est_service(d), Some(SimDuration::from_secs(2)));
        assert_eq!(
            (dfk.depends_on(a), dfk.deadline(a), dfk.est_service(a)),
            (&[][..], None, None)
        );
    }

    #[test]
    fn app_names_are_interned() {
        let mut dfk = Dfk::new();
        let (a, _) = dfk.submit(t(0), call("infer"), 0, 0);
        let (b, _) = dfk.submit(t(0), call("train"), 0, 0);
        let (c, _) = dfk.submit(t(0), call("infer"), 0, 0);
        assert!(Rc::ptr_eq(&dfk.task(a).app, &dfk.task(c).app));
        assert!(!Rc::ptr_eq(&dfk.task(a).app, &dfk.task(b).app));
        assert_eq!(dfk.apps.len(), 2);
        assert!(*dfk.task(a).app == *"infer" && *dfk.task(b).app == *"train");
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
