//! Brownout degradation (a Parsl-style `strategy` loop).
//!
//! §2.1 of the paper: "FaaS enables the rapid spin up and down of
//! function instances". Parsl implements it as a strategy thread that
//! periodically compares outstanding tasks to live workers and asks the
//! provider for more workers. [`enable_brownout`] runs that loop for the
//! overload layer: under sustained queue pressure it spins up a degraded
//! tier of small partitions and retires the tier when pressure clears.

use crate::config::AcceleratorSpec;
use crate::monitoring::FaultPhase;
use crate::world::{add_worker, kill_worker, FaasWorld, WorkerState};
use parfait_simcore::{Engine, SimDuration, SimTime};

/// Brownout controller-loop period.
const BROWNOUT_PERIOD: SimDuration = SimDuration::from_secs(5);
/// Pressure (`queue_len / live_workers`) at or above which a brownout
/// tick counts toward engaging.
const BROWNOUT_PRESSURE_HIGH: f64 = 2.0;
/// Pressure at or below which a brownout tick counts toward releasing.
const BROWNOUT_PRESSURE_LOW: f64 = 0.5;
/// Consecutive high-pressure ticks before the degraded tier engages.
const BROWNOUT_ENGAGE_AFTER: u32 = 2;
/// Consecutive low-pressure ticks before the degraded tier releases.
const BROWNOUT_RELEASE_AFTER: u32 = 2;

/// Controller state threaded through the brownout ticks.
#[derive(Debug, Default)]
struct BrownoutSt {
    /// The degraded tier: one worker per listed accelerator slot.
    degraded: Vec<AcceleratorSpec>,
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

/// Start brownout degradation for one executor: under sustained queue
/// pressure the executor spins up a *degraded-service tier* — one extra
/// worker per `degraded` accelerator slot, deliberately small partitions
/// (low MPS thread percentages, spare MIG slices) — absorbing new
/// admissions at reduced quality before the admission layer starts
/// shedding, and retires the tier when pressure clears. An empty
/// `degraded` makes brownout a no-op, the honest encoding for modes with
/// nothing left to carve (MIG with every slice already placed).
///
/// The loop re-arms while work remains unsettled and winds down
/// afterwards (releasing the tier if engaged); call again if more phases
/// follow.
pub fn enable_brownout(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    exec: usize,
    degraded: Vec<AcceleratorSpec>,
) {
    let st = BrownoutSt {
        degraded,
        ..BrownoutSt::default()
    };
    brownout_tick(world, eng, exec, st);
}

fn brownout_tick(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    exec: usize,
    mut st: BrownoutSt,
) {
    let now = eng.now();
    let queue = world.queues[exec].len();
    let live = world.not_dead_workers(exec);
    let pressure = queue as f64 / live.max(1) as f64;

    if st.engaged_at.is_none() {
        st.high = if pressure >= BROWNOUT_PRESSURE_HIGH {
            st.high + 1
        } else {
            0
        };
        if st.high >= BROWNOUT_ENGAGE_AFTER && !st.degraded.is_empty() {
            for spec in &st.degraded {
                if let Some(id) = add_worker(world, eng, exec, spec.clone()) {
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
        st.low = if pressure <= BROWNOUT_PRESSURE_LOW {
            st.low + 1
        } else {
            0
        };
        if st.low >= BROWNOUT_RELEASE_AFTER {
            brownout_release(world, &mut st, exec, now, "pressure cleared");
        }
    }
    if st.releasing {
        drain_degraded(world, eng, &mut st);
    }

    let active = !world.dfk.all_settled() || world.any_spinning_or_busy();
    if active {
        eng.schedule_in(BROWNOUT_PERIOD, move |w: &mut FaasWorld, e| {
            brownout_tick(w, e, exec, st)
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
