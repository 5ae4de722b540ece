//! Demand-driven repartitioning — §7's "change GPU resources depending
//! on demand", end to end.
//!
//! The paper's future work wants the platform to *notice* that one
//! tenant's partition is too small for its demand and reallocate GPU
//! share at runtime. [`enable_slo_autoscaler`] closes that loop over the
//! pieces the rest of the crate provides (DESIGN.md §11):
//!
//! 1. **observe** — per-executor queue depths (backlog = demand signal)
//!    and the monitoring latency EWMA;
//! 2. **decide** — [`demand_scores`] folds SLO misses into the backlog,
//!    and [`proportional_split`] divides 100 % across tenants by score,
//!    clamped to a configurable floor so idle tenants keep a live
//!    instance;
//! 3. **act** — the *staged* [`begin_resize_mps`] transaction (the §6
//!    restart path, ideally with the §7 weight cache enabled so the
//!    restart re-binds instead of reloading).
//!
//! The controller runs fleet-wide as a periodic event, with stability
//! guards — hysteresis (`min_shift`, because every act costs a process
//! restart), per-GPU cooldown, a concurrent-reconfig limit, refusal on
//! fenced/draining devices, and a capacity floor that holds the plan
//! steady while the fleet is degraded (correlated outage) or shedding
//! load. An `slo` above any reachable turnaround makes it a pure backlog
//! controller (the E7 burst experiment).

use crate::reconfig::{begin_resize_mps, workers_on_gpu};
use parfait_faas::{gpu_quarantined, AcceleratorSpec, FaasWorld};
use parfait_gpu::GpuId;
use parfait_simcore::{Engine, SimDuration, SimTime};
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;

/// Compute the proportional-backlog split across `n` tenants, with a
/// per-tenant floor. Deterministic and side-effect free (unit tested).
pub fn proportional_split(backlogs: &[usize], min_pct: u32) -> Vec<u32> {
    let n = backlogs.len() as u32;
    assert!(n > 0, "need at least one tenant");
    assert!(min_pct * n <= 100, "floors exceed the GPU");
    let total: usize = backlogs.iter().sum();
    if total == 0 {
        return vec![100 / n; backlogs.len()];
    }
    let budget = 100 - min_pct * n;
    let mut pcts: Vec<u32> = backlogs
        .iter()
        .map(|&b| min_pct + (budget as f64 * b as f64 / total as f64).floor() as u32)
        .collect();
    // Hand leftover points (from flooring) to the largest backlog.
    let assigned: u32 = pcts.iter().sum();
    if assigned < 100 {
        let max_i = backlogs
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| **b)
            .map(|(i, _)| i)
            .expect("non-empty");
        pcts[max_i] += 100 - assigned;
    }
    pcts
}

fn current_pcts(world: &FaasWorld, gpu: u32) -> Vec<u32> {
    workers_on_gpu(world, gpu)
        .into_iter()
        .map(|wid| match &world.workers[wid].accel {
            Some(AcceleratorSpec::GpuPercentage(_, p)) => *p,
            _ => 0,
        })
        .collect()
}

/// Parameters for the closed-loop SLO controller.
#[derive(Debug, Clone, Serialize)]
pub struct SloPolicy {
    /// Control period.
    pub period: SimDuration,
    /// Per-task turnaround objective; the latency EWMA is compared
    /// against this when weighing demand. A value above any reachable
    /// turnaround never inflates a score, which leaves a backlog-only
    /// controller.
    pub slo: SimDuration,
    /// Minimum percentage any tenant keeps (floor).
    pub min_pct: u32,
    /// Hysteresis: only reconfigure when some tenant's target share
    /// moves by at least this many points.
    pub min_shift: u32,
    /// Per-GPU cooldown between started reconfigurations.
    pub cooldown: SimDuration,
    /// Fleet-wide cap on concurrently draining GPUs.
    pub max_concurrent: usize,
    /// Keep ticking until this horizon even when no submitted task is
    /// outstanding. Open-loop drivers set this to the last arrival time:
    /// a lull where everything submitted so far has finished must not
    /// kill the controller with more arrivals still to come. `None`
    /// (default) stops as soon as the DFK settles.
    pub run_until: Option<SimTime>,
    /// Telemetry freshness window: when set, a GPU whose seeded latency
    /// telemetry was last updated longer ago than this is *held*
    /// (`Refused("stale-telemetry")`) instead of acted on — a stale EWMA
    /// describes a workload that may no longer exist, and repartitioning
    /// on it costs every worker on the GPU a restart for nothing. `None`
    /// (default) disables the guard.
    pub staleness: Option<SimDuration>,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            period: SimDuration::from_secs(15),
            slo: SimDuration::from_secs(1),
            min_pct: 10,
            min_shift: 15,
            cooldown: SimDuration::from_secs(30),
            max_concurrent: 2,
            run_until: None,
            staleness: None,
        }
    }
}

/// One GPU under SLO control and the tenant executors sharing it (in
/// the same order as its workers).
#[derive(Debug, Clone, Serialize)]
pub struct GpuTenancy {
    /// Fleet GPU index.
    pub gpu: u32,
    /// Executor index per tenant slot.
    pub tenants: Vec<usize>,
}

/// What the SLO controller did for one GPU on one tick.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SloAction {
    /// Within hysteresis; no change needed.
    Hold,
    /// A fleet-wide capacity floor held the plan steady (correlated
    /// outage in progress, or the overload layer is shedding).
    Suppressed(&'static str),
    /// A per-GPU stability guard refused the reconfiguration.
    Refused(&'static str),
    /// A staged reconfiguration transaction was started with this
    /// target split.
    Started(Vec<u32>),
}

/// A record of one SLO-controller decision (one GPU, one tick).
#[derive(Debug, Clone, Serialize)]
pub struct SloDecision {
    /// Virtual time of the decision.
    pub at_s: f64,
    /// The GPU it concerns.
    pub gpu: u32,
    /// Observed backlog per tenant.
    pub backlogs: Vec<usize>,
    /// Latency EWMA per tenant (0 until a completion is observed).
    pub latency_s: Vec<f64>,
    /// The outcome.
    pub action: SloAction,
}

/// Fold queue depth and SLO attainment into one demand score per tenant.
///
/// Backlog is the primary signal; a latency EWMA above the objective
/// inflates it (and contributes a virtual backlog of one, so a tenant
/// whose queue happens to be empty at the sampling instant but whose
/// completions are missing the SLO still bids for share). The overrun
/// multiplier is `2·ewma/slo`, capped at 8× so one pathological tenant
/// cannot starve the rest. Deterministic and side-effect free.
pub fn demand_scores(backlogs: &[usize], latency_s: &[Option<f64>], slo_s: f64) -> Vec<usize> {
    assert_eq!(backlogs.len(), latency_s.len());
    assert!(slo_s > 0.0, "SLO must be positive");
    backlogs
        .iter()
        .zip(latency_s)
        .map(|(&b, l)| match l {
            Some(lat) if *lat > slo_s => {
                let mult = ((lat / slo_s) * 2.0).min(8.0).round() as usize;
                (b + 1) * mult
            }
            _ => b,
        })
        .collect()
}

struct SloCtrl {
    plan: Vec<GpuTenancy>,
    policy: SloPolicy,
    /// Per-GPU time of the last *started* transaction (cooldown basis).
    last_started: Vec<Option<SimTime>>,
    /// Smoothed backlog per plan entry per tenant (`0.5·prev + 0.5·now`):
    /// an instantaneous queue snapshot is far too noisy to repartition
    /// on — one stray task sampled in an otherwise idle tenant's queue
    /// must not flip the whole allocation (each flip costs every worker
    /// on the GPU a §6 restart).
    demand_ewma: Vec<Vec<f64>>,
    /// Shed/reject totals at the previous tick; a positive delta means
    /// the overload layer is actively dropping work.
    prev_dropped: u64,
    log: Rc<RefCell<Vec<SloDecision>>>,
}

/// Start the closed-loop SLO controller over a fleet `plan`. Each entry
/// names one MPS-partitioned GPU and the tenant executors on it (one
/// single-worker executor per tenant slot, in worker order).
///
/// Returns the decision log, readable after the run.
pub fn enable_slo_autoscaler(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    plan: Vec<GpuTenancy>,
    policy: SloPolicy,
) -> Rc<RefCell<Vec<SloDecision>>> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let ctrl = SloCtrl {
        last_started: vec![None; plan.len()],
        demand_ewma: plan.iter().map(|p| vec![0.0; p.tenants.len()]).collect(),
        prev_dropped: world.overload.stats.tasks_shed + world.overload.stats.tasks_rejected,
        plan,
        policy,
        log: Rc::clone(&log),
    };
    slo_tick(world, eng, ctrl);
    log
}

/// One control round: evaluate every GPU in the plan, then reschedule.
fn slo_tick(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, mut ctrl: SloCtrl) {
    let now = eng.now();
    // Capacity floor (fleet-wide): while a correlated outage has devices
    // fenced, or the overload layer started shedding since the last
    // tick, every resize is suppressed — scaling *down* a healthy
    // tenant's share mid-incident converts degraded capacity into SLO
    // misses, and the post-incident tick re-evaluates anyway.
    let dropped = world.overload.stats.tasks_shed + world.overload.stats.tasks_rejected;
    let shedding = dropped > ctrl.prev_dropped;
    ctrl.prev_dropped = dropped;
    let outage = (0..world.fleet.len() as u32).any(|g| gpu_quarantined(world, GpuId(g)));
    let floor: Option<&'static str> = if outage {
        Some("correlated-outage")
    } else if shedding {
        Some("overload-shed")
    } else {
        None
    };

    for i in 0..ctrl.plan.len() {
        let gpu = ctrl.plan[i].gpu;
        let tenants = ctrl.plan[i].tenants.clone();
        let backlogs: Vec<usize> = tenants.iter().map(|&e| world.queues[e].len()).collect();
        for (e, &b) in ctrl.demand_ewma[i].iter_mut().zip(&backlogs) {
            *e = 0.5 * *e + 0.5 * b as f64;
        }
        let smoothed: Vec<usize> = ctrl.demand_ewma[i]
            .iter()
            .map(|e| e.floor() as usize)
            .collect();
        let slo_s = ctrl.policy.slo.as_secs_f64();
        let latencies: Vec<Option<f64>> = tenants
            .iter()
            .map(|&e| world.monitor.latency_ewma(e))
            .collect();
        let latency_s: Vec<f64> = latencies.iter().map(|l| l.unwrap_or(0.0)).collect();

        let action = if let Some(reason) = floor {
            SloAction::Suppressed(reason)
        } else if gpu_quarantined(world, GpuId(gpu)) {
            SloAction::Refused("gpu-fenced")
        } else if world.reconfig.drain_active(gpu) {
            SloAction::Refused("drain-active")
        } else if world.reconfig.active_drains() >= ctrl.policy.max_concurrent {
            SloAction::Refused("concurrency-limit")
        } else if ctrl.last_started[i].is_some_and(|t| now.duration_since(t) < ctrl.policy.cooldown)
        {
            SloAction::Refused("cooldown")
        } else if ctrl.policy.staleness.is_some_and(|win| {
            // Staleness guard: hold when any tenant's *seeded* latency
            // EWMA is older than the freshness window. Unseeded tenants
            // (no completion yet) don't trip it — there is no stale
            // estimate to mislead the scoring, and `demand_scores`
            // treats a missing EWMA as backlog-only.
            tenants.iter().any(|&e| {
                world
                    .monitor
                    .latency_age(e, now)
                    .is_some_and(|age| age > win)
            })
        }) {
            SloAction::Refused("stale-telemetry")
        } else {
            let scores = demand_scores(&smoothed, &latencies, slo_s);
            let target = proportional_split(&scores, ctrl.policy.min_pct);
            let current = current_pcts(world, gpu);
            let shift = target
                .iter()
                .zip(current.iter().chain(std::iter::repeat(&0)))
                .map(|(t, c)| t.abs_diff(*c))
                .max()
                .unwrap_or(0);
            // Distress gate: act only when some tenant shows real demand
            // pressure (a sustained backlog, or an SLO miss — which
            // scores at least (0+1)·2 = 2). Without it the controller
            // walks a working split back toward equal the moment the
            // distress it cured subsides, paying two restarts per demand
            // peak instead of one.
            let distressed = scores.iter().any(|&s| s >= 2);
            if current.len() != target.len() || shift < ctrl.policy.min_shift || !distressed {
                SloAction::Hold
            } else {
                match begin_resize_mps(world, eng, gpu, target.clone()) {
                    Ok(()) => {
                        ctrl.last_started[i] = Some(now);
                        SloAction::Started(target)
                    }
                    Err(_) => SloAction::Refused("begin-refused"),
                }
            }
        };
        ctrl.log.borrow_mut().push(SloDecision {
            at_s: now.as_secs_f64(),
            gpu,
            backlogs,
            latency_s,
            action,
        });
    }

    let keep_alive = ctrl.policy.run_until.is_some_and(|t| now < t);
    if !world.dfk.all_settled() || keep_alive {
        let period = ctrl.policy.period;
        eng.schedule_in(period, move |w: &mut FaasWorld, e| slo_tick(w, e, ctrl));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_split_properties() {
        // Sums to 100, respects the floor, tracks backlog ratios.
        let p = proportional_split(&[30, 10], 10);
        assert_eq!(p.iter().sum::<u32>(), 100);
        assert!(p[0] > p[1]);
        assert!(p.iter().all(|&x| x >= 10));
        assert_eq!(p, vec![70, 30]);
    }

    #[test]
    fn zero_backlog_is_equal_split() {
        assert_eq!(proportional_split(&[0, 0, 0, 0], 10), vec![25; 4]);
    }

    #[test]
    fn one_sided_backlog_hits_floor() {
        let p = proportional_split(&[100, 0], 10);
        assert_eq!(p, vec![90, 10]);
    }

    #[test]
    #[should_panic(expected = "floors exceed")]
    fn impossible_floor_rejected() {
        proportional_split(&[1, 1, 1], 40);
    }

    #[test]
    fn demand_scores_pass_backlog_through_when_slo_met() {
        // Latency at or under the objective: the score is the backlog.
        let s = demand_scores(&[5, 0], &[Some(0.8), Some(1.0)], 1.0);
        assert_eq!(s, vec![5, 0]);
    }

    #[test]
    fn demand_scores_inflate_slo_misses() {
        // 2 s EWMA against a 1 s SLO: 4x multiplier on backlog+1; an
        // empty queue still bids (virtual backlog of one).
        let s = demand_scores(&[5, 0], &[Some(2.0), Some(2.0)], 1.0);
        assert_eq!(s, vec![24, 4]);
        // The multiplier saturates at 8x however bad the overrun.
        let s = demand_scores(&[1, 0], &[Some(100.0), None], 1.0);
        assert_eq!(s, vec![16, 0]);
    }
}
