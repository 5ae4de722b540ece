//! Elastic worker scaling (Parsl's `strategy` loop).
//!
//! §2.1 of the paper: "FaaS enables the rapid spin up and down of
//! function instances". Parsl implements it as a strategy thread that
//! periodically compares outstanding tasks to live workers and asks the
//! provider for more blocks (or retires idle ones). [`ElasticPolicy`]
//! reproduces that loop: scale out when the ready queue backs up, scale
//! in workers that have idled past a TTL.

use crate::config::AcceleratorSpec;
use crate::monitoring::FaultPhase;
use crate::world::{add_worker, kill_worker, FaasWorld, WorkerState};
use parfait_simcore::{Engine, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Elastic-scaling parameters for one executor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticPolicy {
    /// Strategy-loop period.
    pub period: SimDuration,
    /// Scale out when `queue_len > queue_high × live_workers`.
    pub queue_high: usize,
    /// Workers added per scale-out decision.
    pub scale_out_step: usize,
    /// Upper bound on live workers.
    pub max_workers: usize,
    /// Lower bound on live workers (never scale in below this).
    pub min_workers: usize,
    /// Retire a worker idle for at least this long while the queue is
    /// empty.
    pub idle_ttl: SimDuration,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            period: SimDuration::from_secs(5),
            queue_high: 2,
            scale_out_step: 1,
            max_workers: 32,
            min_workers: 1,
            idle_ttl: SimDuration::from_secs(30),
        }
    }
}

/// Start the strategy loop for one executor. The loop re-arms itself
/// while tasks remain unsettled (so a finished simulation drains
/// naturally) and stops afterwards; call again if more phases follow.
pub fn enable_elastic(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    exec: usize,
    policy: ElasticPolicy,
) {
    assert!(
        policy.min_workers <= policy.max_workers,
        "min_workers must not exceed max_workers"
    );
    tick(world, eng, exec, policy);
}

fn tick(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, exec: usize, policy: ElasticPolicy) {
    let now = eng.now();
    let queue = world.queues[exec].len();
    let live = world.not_dead_workers(exec);

    if queue > policy.queue_high * live.max(1) && live < policy.max_workers {
        let add = policy.scale_out_step.min(policy.max_workers - live).max(1);
        for _ in 0..add {
            add_worker(world, eng, exec, None);
        }
    } else if queue == 0 && live > policy.min_workers {
        // Retire the longest-idle worker past its TTL, one per tick; ties
        // keep the lowest id (`min_by_key` returns the first minimum).
        let victim = world
            .idle_workers(exec)
            .filter_map(|wid| world.workers[wid].idle_since.map(|t| (t, wid)))
            .filter(|&(t, _)| now.duration_since(t) >= policy.idle_ttl)
            .min_by_key(|&(t, _)| t);
        if let Some((_, wid)) = victim {
            kill_worker(world, eng, wid, "elastic scale-in");
        }
    }

    // Keep looping while there could be future work; stop once everything
    // settled (mirrors the monitoring sampler's lifetime).
    let active = !world.dfk.all_settled() || world.any_spinning_or_busy();
    if active {
        let p = policy.clone();
        eng.schedule_in(policy.period, move |w: &mut FaasWorld, e| {
            tick(w, e, exec, p)
        });
    }
}

/// Brownout degradation for one executor: under sustained queue pressure
/// the executor spins up a *degraded-service tier* — extra workers on
/// deliberately small partitions (low MPS thread percentages, spare MIG
/// slices) — absorbing new admissions at reduced quality before the
/// admission layer starts shedding, and retires the tier when pressure
/// clears.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrownoutPolicy {
    /// Controller-loop period.
    pub period: SimDuration,
    /// Pressure (`queue_len / live_workers`) at or above which a tick
    /// counts toward engaging.
    pub pressure_high: f64,
    /// Pressure at or below which a tick counts toward releasing.
    pub pressure_low: f64,
    /// Consecutive high-pressure ticks before the tier engages.
    pub engage_after: u32,
    /// Consecutive low-pressure ticks before the tier releases.
    pub release_after: u32,
    /// The degraded tier: one worker per listed accelerator slot (e.g.
    /// small `GpuPercentage` shares). Empty = brownout is a no-op, which
    /// is the honest encoding for modes with nothing left to carve
    /// (MIG with every slice already placed).
    pub degraded: Vec<AcceleratorSpec>,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            period: SimDuration::from_secs(5),
            pressure_high: 2.0,
            pressure_low: 0.5,
            engage_after: 2,
            release_after: 2,
            degraded: Vec::new(),
        }
    }
}

/// Controller state threaded through the brownout ticks.
#[derive(Debug, Clone, Default)]
struct BrownoutSt {
    /// Consecutive high-pressure ticks observed while disengaged.
    high: u32,
    /// Consecutive low-pressure ticks observed while engaged.
    low: u32,
    /// Degraded-tier worker ids spawned by this controller.
    spawned: Vec<usize>,
    /// When the tier engaged (drives `brownout_seconds`).
    engaged_at: Option<SimTime>,
    /// Release decided; draining the remaining busy tier workers.
    releasing: bool,
}

/// Start the brownout controller for one executor. Mirrors
/// [`enable_elastic`]'s lifetime: the loop re-arms while work remains
/// unsettled and winds down afterwards (releasing the tier if engaged).
pub fn enable_brownout(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    exec: usize,
    policy: BrownoutPolicy,
) {
    brownout_tick(world, eng, exec, policy, BrownoutSt::default());
}

fn brownout_tick(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    exec: usize,
    policy: BrownoutPolicy,
    mut st: BrownoutSt,
) {
    let now = eng.now();
    let queue = world.queues[exec].len();
    let live = world.not_dead_workers(exec);
    let pressure = queue as f64 / live.max(1) as f64;

    if st.engaged_at.is_none() {
        st.high = if pressure >= policy.pressure_high {
            st.high + 1
        } else {
            0
        };
        if st.high >= policy.engage_after && !policy.degraded.is_empty() {
            for spec in &policy.degraded {
                if let Some(id) = add_worker(world, eng, exec, Some(spec.clone())) {
                    st.spawned.push(id);
                }
            }
            st.engaged_at = Some(now);
            st.high = 0;
            st.low = 0;
            st.releasing = false;
            world.monitor.fault_event(
                now,
                FaultPhase::Detected,
                "brownout-engaged",
                None,
                None,
                format!(
                    "executor {exec}: pressure {pressure:.2}, degraded tier of {} workers up",
                    st.spawned.len()
                ),
            );
        }
    } else if !st.releasing {
        st.low = if pressure <= policy.pressure_low {
            st.low + 1
        } else {
            0
        };
        if st.low >= policy.release_after {
            brownout_release(world, &mut st, exec, now, "pressure cleared");
        }
    }
    if st.releasing {
        drain_degraded(world, eng, &mut st);
    }

    let active = !world.dfk.all_settled() || world.any_spinning_or_busy();
    if active {
        let p = policy.clone();
        eng.schedule_in(policy.period, move |w: &mut FaasWorld, e| {
            brownout_tick(w, e, exec, p, st)
        });
    } else {
        // Wind-down: everything settled, so the tier is idle — account
        // the engagement and retire whatever remains.
        if st.engaged_at.is_some() {
            brownout_release(world, &mut st, exec, now, "work settled");
            drain_degraded(world, eng, &mut st);
        }
    }
}

/// Decide release: close the `brownout_seconds` accounting and switch to
/// draining. Busy tier workers finish their current task first; idle
/// ones are retired by [`drain_degraded`].
fn brownout_release(
    world: &mut FaasWorld,
    st: &mut BrownoutSt,
    exec: usize,
    now: SimTime,
    why: &str,
) {
    if let Some(since) = st.engaged_at.take() {
        world.overload.stats.brownout_seconds += now.duration_since(since).as_secs_f64();
    }
    st.releasing = true;
    st.low = 0;
    world.monitor.fault_event(
        now,
        FaultPhase::Recovered,
        "brownout-released",
        None,
        None,
        format!("executor {exec}: {why}, retiring degraded tier"),
    );
}

/// Retire every spawned tier worker that is currently retirable (idle or
/// never successfully provisioned); busy ones drain on later ticks.
fn drain_degraded(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, st: &mut BrownoutSt) {
    let mut remaining = Vec::new();
    for wid in st.spawned.drain(..) {
        match world.workers[wid].state {
            WorkerState::Busy | WorkerState::Crashed => remaining.push(wid),
            WorkerState::Dead => {}
            _ => kill_worker(world, eng, wid, "brownout release"),
        }
    }
    st.spawned = remaining;
    if st.spawned.is_empty() {
        st.releasing = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::bodies::CpuBurn;
    use crate::{boot, submit, AppCall, Config, ExecutorConfig};
    use parfait_gpu::host::GpuFleet;
    use parfait_simcore::Engine;

    fn burst_call(secs: u64) -> AppCall {
        AppCall::new("burst", "cpu", move |_| {
            Box::new(CpuBurn::new(SimDuration::from_secs(secs)))
        })
    }

    #[test]
    fn scales_out_under_backlog() {
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), 1);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        enable_elastic(
            &mut w,
            &mut eng,
            0,
            ElasticPolicy {
                period: SimDuration::from_secs(2),
                queue_high: 2,
                scale_out_step: 2,
                max_workers: 6,
                min_workers: 1,
                idle_ttl: SimDuration::from_secs(3600),
            },
        );
        for _ in 0..24 {
            submit(&mut w, &mut eng, burst_call(10));
        }
        eng.run(&mut w);
        assert_eq!(w.dfk.done_count(), 24);
        assert!(
            w.workers.len() > 1,
            "backlog should have spawned extra workers"
        );
        assert!(w.workers.len() <= 6, "respects max_workers");
    }

    #[test]
    fn scale_out_speeds_up_bursts() {
        let run = |elastic: bool| -> f64 {
            let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
            let mut w = FaasWorld::new(config, GpuFleet::new(), 2);
            let mut eng = Engine::new();
            boot(&mut w, &mut eng);
            if elastic {
                enable_elastic(
                    &mut w,
                    &mut eng,
                    0,
                    ElasticPolicy {
                        period: SimDuration::from_secs(1),
                        queue_high: 1,
                        scale_out_step: 3,
                        max_workers: 8,
                        min_workers: 1,
                        idle_ttl: SimDuration::from_secs(3600),
                    },
                );
            }
            for _ in 0..16 {
                submit(&mut w, &mut eng, burst_call(10));
            }
            eng.run(&mut w);
            eng.now().as_secs_f64()
        };
        let fixed = run(false);
        let elastic = run(true);
        assert!(
            elastic < fixed * 0.5,
            "elastic ({elastic:.0}s) should cut the burst makespan vs fixed ({fixed:.0}s)"
        );
    }

    #[test]
    fn scales_in_idle_workers() {
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", 4)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), 3);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        enable_elastic(
            &mut w,
            &mut eng,
            0,
            ElasticPolicy {
                period: SimDuration::from_secs(1),
                queue_high: 100,
                scale_out_step: 1,
                max_workers: 4,
                min_workers: 1,
                idle_ttl: SimDuration::from_secs(5),
            },
        );
        // One long task keeps the loop alive while the other three
        // workers idle past the TTL.
        submit(&mut w, &mut eng, burst_call(60));
        eng.run(&mut w);
        let live = w
            .workers
            .iter()
            .filter(|wk| wk.state != WorkerState::Dead)
            .count();
        assert!(live <= 2, "idle workers should be retired (live = {live})");
        let killed = w
            .workers
            .iter()
            .filter(|wk| wk.state == WorkerState::Dead)
            .count();
        assert!(killed >= 2, "expected retirements, got {killed}");
    }

    #[test]
    fn never_scales_below_min() {
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", 3)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), 4);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        enable_elastic(
            &mut w,
            &mut eng,
            0,
            ElasticPolicy {
                period: SimDuration::from_secs(1),
                queue_high: 100,
                scale_out_step: 1,
                max_workers: 3,
                min_workers: 2,
                idle_ttl: SimDuration::from_secs(1),
            },
        );
        submit(&mut w, &mut eng, burst_call(30));
        eng.run(&mut w);
        let live = w
            .workers
            .iter()
            .filter(|wk| wk.state != WorkerState::Dead)
            .count();
        assert!(live >= 2, "min_workers violated (live = {live})");
    }
}
