//! The `chaos-search` workload: generated schedules through
//! `faas::chaos::run_schedule`, with a control-plane hook owned by the
//! benchmark that calls the real `parfait-core` entry points.

use parfait_core::{
    begin_reconfigure_mig, begin_resize_mps, enable_slo_autoscaler, GpuTenancy, SloPolicy,
};
use parfait_faas::chaos::{
    generate_schedule, run_schedule, schedule_to_corpus, shrink_schedule, BugSwitches, CaseReport,
    ChaosAction, ChaosConfig, ChaosSchedule,
};
use parfait_faas::FaasWorld;
use parfait_simcore::{Engine, SimDuration};

use crate::trace::{span, Span, Trace};
use crate::workloads::{Outcome, Requests, Scale};

/// Deterministic results of one search.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ChaosOutcome {
    /// Schedules run.
    pub schedules: u64,
    /// Violating schedules: case index and the oracles that fired.
    pub violating: Vec<(u64, Vec<&'static str>)>,
    /// Actions attempted across all schedules.
    pub actions_attempted: u64,
    /// Actions that landed.
    pub actions_applied: u64,
    /// Actions refused by an entry point.
    pub refusals: u64,
}

/// A violating schedule, shrunk to a minimal repro.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Case index within the search.
    pub case_index: u64,
    /// Oracles that fired on the full schedule.
    pub oracles: Vec<&'static str>,
    /// Events before and after shrinking.
    pub events: (usize, usize),
    /// The minimal schedule in the `tests/chaos_corpus/` format.
    pub corpus: String,
}

/// Share-point floor when a resize skews the split toward one tenant.
const MIN_PCT: u32 = 5;

/// Shift `skew` points from the tail tenants to the first, keeping every
/// share at least [`MIN_PCT`].
fn skewed_percentages(tenants: u32, skew: u32) -> Vec<u32> {
    let k = tenants.max(1);
    if k == 1 {
        return vec![100];
    }
    let first = (100 / k + skew).min(100 - MIN_PCT * (k - 1));
    let mut out = vec![first];
    out.resize(k as usize, ((100 - first) / (k - 1)).max(MIN_PCT));
    out
}

/// The control-plane hook: resizes, MIG re-slices and autoscaler flips
/// go through the same `parfait-core` calls production controllers use.
fn apply_core_action(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    action: &ChaosAction,
    workers_per_gpu: u32,
) -> Option<bool> {
    let gpus = world.fleet.len() as u32;
    match *action {
        ChaosAction::ResizeMps { gpu, .. }
        | ChaosAction::ReconfigMig { gpu }
        | ChaosAction::AutoscaleFlip { gpu }
            if gpu >= gpus =>
        {
            Some(false)
        }
        ChaosAction::ResizeMps { gpu, skew } => Some(
            begin_resize_mps(world, eng, gpu, skewed_percentages(workers_per_gpu, skew)).is_ok(),
        ),
        ChaosAction::ReconfigMig { gpu } => {
            Some(begin_reconfigure_mig(world, eng, gpu, workers_per_gpu as usize).is_ok())
        }
        ChaosAction::AutoscaleFlip { gpu } => {
            let tenants = (0..workers_per_gpu)
                .map(|k| (gpu * workers_per_gpu + k) as usize)
                .collect();
            let policy = SloPolicy {
                period: SimDuration::from_secs(5),
                cooldown: SimDuration::from_secs(10),
                min_shift: 10,
                staleness: Some(SimDuration::from_secs(60)),
                ..SloPolicy::default()
            };
            enable_slo_autoscaler(world, eng, vec![GpuTenancy { gpu, tenants }], policy);
            Some(true)
        }
        _ => None,
    }
}

/// Run one schedule with the hook; hook calls are child spans.
fn run_case(schedule: &ChaosSchedule, trace: &Trace) -> CaseReport {
    let wpg = schedule.workers_per_gpu;
    let mut hook = |w: &mut FaasWorld, e: &mut Engine<FaasWorld>, a: &ChaosAction| {
        span(trace, Span::Hook, || apply_core_action(w, e, a, wpg))
    };
    run_schedule(schedule, BugSwitches::default(), &mut hook)
}

fn schedules(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 2_000,
        Scale::Tiny => 10,
    }
}

/// A search ready to run: every schedule pre-drawn from the seed.
pub(crate) struct Search {
    schedules: Vec<ChaosSchedule>,
    gpus: u64,
    chaos: ChaosOutcome,
    requests: Requests,
    events: u64,
}

/// Generate the search's schedules (the workload's setup).
pub(crate) fn setup(scale: Scale, seed: u64, trace: &Trace) -> Search {
    let cfg = ChaosConfig::default();
    let schedules = span(trace, Span::Generate, || {
        (0..schedules(scale))
            .map(|i| generate_schedule(seed, i, &cfg))
            .collect()
    });
    Search {
        schedules,
        gpus: u64::from(cfg.gpus),
        chaos: ChaosOutcome::default(),
        requests: Requests::default(),
        events: 0,
    }
}

impl Search {
    /// Run every schedule and fold the case reports.
    pub(crate) fn run(&mut self, trace: &Trace) {
        for (i, s) in self.schedules.iter().enumerate() {
            let r = span(trace, Span::RunSchedule, || run_case(s, trace));
            let c = &mut self.chaos;
            c.schedules += 1;
            c.actions_attempted += r.attempted.values().sum::<u64>();
            c.actions_applied += r.applied.values().sum::<u64>();
            c.refusals += r.refusals;
            if !r.violations.is_empty() {
                let mut oracles: Vec<&'static str> = Vec::new();
                for v in &r.violations {
                    if !oracles.contains(&v.oracle) {
                        oracles.push(v.oracle);
                    }
                }
                c.violating.push((i as u64, oracles));
            }
            self.events += r.events_fired;
            self.requests.submitted += r.submitted;
            self.requests.completed += r.done;
            self.requests.failed += r.failed;
        }
    }

    /// The search's deterministic outcome. Chaos tasks carry no latency
    /// objective and the runner exposes no finish times, so a task meets
    /// its objective by completing.
    pub(crate) fn outcome(&self) -> Outcome {
        let mut requests = self.requests.clone();
        requests.slo_met = requests.completed;
        Outcome {
            events: self.events,
            gpus: self.gpus,
            requests,
            chaos: self.chaos.clone(),
            ..Outcome::default()
        }
    }
}

/// Shrink every violating schedule of `found` to a minimal repro.
pub(crate) fn shrink_findings(seed: u64, found: &ChaosOutcome) -> Vec<Finding> {
    let cfg = ChaosConfig::default();
    found
        .violating
        .iter()
        .map(|(i, oracles)| {
            let s = generate_schedule(seed, *i, &cfg);
            let (min, _) = shrink_schedule(&s, |cand| !run_case(cand, &None).violations.is_empty());
            Finding {
                case_index: *i,
                oracles: oracles.clone(),
                events: (s.events.len(), min.events.len()),
                corpus: schedule_to_corpus(&min, oracles[0], "found by the benchmark search"),
            }
        })
        .collect()
}
