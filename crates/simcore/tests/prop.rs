//! Property-based tests for the simulation substrate.

use parfait_simcore::resource::PsPool;
use parfait_simcore::stats::{OnlineStats, TimeWeighted};
use parfait_simcore::timeline::Timeline;
use parfait_simcore::{Engine, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Events always fire in non-decreasing time order, regardless of the
    /// order and times they were scheduled in.
    #[test]
    fn engine_fires_in_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let fired: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let mut eng: Engine<()> = Engine::new();
        for &t in &times {
            let fired = Rc::clone(&fired);
            eng.schedule_at(SimTime::from_nanos(t), move |_: &mut (), e| {
                fired.borrow_mut().push(e.now().as_nanos());
            });
        }
        let mut w = ();
        eng.run(&mut w);
        let f = fired.borrow();
        prop_assert_eq!(f.len(), times.len());
        prop_assert!(f.windows(2).all(|p| p[0] <= p[1]), "out of order: {:?}", f);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&*f, &sorted);
    }

    /// Cancelling an arbitrary subset prevents exactly those events.
    #[test]
    fn engine_cancellation_is_exact(
        times in proptest::collection::vec(0u64..100_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut eng: Engine<()> = Engine::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let fired = Rc::clone(&fired);
                eng.schedule_at(SimTime::from_nanos(t), move |_: &mut (), _| {
                    fired.borrow_mut().push(i);
                })
            })
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i % cancel_mask.len()] {
                eng.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        let mut w = ();
        eng.run(&mut w);
        let mut f = fired.borrow().clone();
        f.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(f, expect);
    }

    /// The RNG stream is identical for identical seeds and distinct for
    /// split streams.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// below(n) stays within bounds for arbitrary n.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut r = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(r.below(n) < n);
        }
    }

    /// Welford statistics match a naive two-pass computation.
    #[test]
    fn online_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var));
        prop_assert_eq!(s.min().unwrap(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Processor sharing conserves work: total service delivered equals
    /// total demand, and the makespan is at least demand/cores.
    #[test]
    fn ps_pool_conserves_work(
        demands in proptest::collection::vec(0.1f64..50.0, 1..40),
        cores in 1usize..8,
    ) {
        let mut p = PsPool::new(cores, SimTime::ZERO);
        for &d in &demands {
            p.add(SimTime::ZERO, d);
        }
        let total: f64 = demands.iter().sum();
        let mut now = SimTime::ZERO;
        let mut done = 0;
        for _ in 0..demands.len() * 2 + 2 {
            match p.next_completion(now) {
                Some((_, t)) => {
                    now = t;
                    done += p.take_finished(t).len();
                }
                None => break,
            }
        }
        prop_assert_eq!(done, demands.len());
        let lower = total / cores as f64;
        let max_single = demands.iter().copied().fold(0.0, f64::max);
        let lb = lower.max(max_single);
        prop_assert!(now.as_secs_f64() >= lb - 1e-6, "makespan {} < bound {}", now.as_secs_f64(), lb);
        // PS with equal sharing can't beat the bound by much either when
        // all demands are equal — sanity: makespan <= total (1 core worth).
        prop_assert!(now.as_secs_f64() <= total + 1e-6);
    }

    /// Timeline union-busy never exceeds the window and never exceeds the
    /// sum of span durations.
    #[test]
    fn timeline_union_bounds(
        spans in proptest::collection::vec((0u64..1000, 0u64..1000), 1..50),
    ) {
        let mut tl = Timeline::new();
        let mut sum = 0u64;
        for &(a, b) in &spans {
            let (lo, hi) = (a.min(b), a.max(b));
            tl.add("t", SimTime::from_secs(lo), SimTime::from_secs(hi));
            sum += hi - lo;
        }
        let window_end = SimTime::from_secs(1000);
        let busy = tl.union_busy("t", SimTime::ZERO, window_end);
        prop_assert!(busy <= SimDuration::from_secs(1000));
        prop_assert!(busy <= SimDuration::from_secs(sum));
        // Gaps + busy = window.
        let gaps: u64 = tl
            .gaps("t", SimTime::ZERO, window_end)
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_nanos())
            .sum();
        prop_assert_eq!(gaps + busy.as_nanos(), 1000 * 1_000_000_000);
    }

    /// Time-weighted average lies between the min and max recorded values.
    #[test]
    fn time_weighted_average_bounded(
        vals in proptest::collection::vec(0f64..100.0, 1..50),
    ) {
        let mut g = TimeWeighted::new(SimTime::ZERO, vals[0]);
        for (i, &v) in vals.iter().enumerate().skip(1) {
            g.set(SimTime::from_secs(i as u64), v);
        }
        let end = SimTime::from_secs(vals.len() as u64);
        let avg = g.average(end);
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} outside [{lo}, {hi}]");
    }
}

// ---------------------------------------------------------------------
// Per-track timeline vs a flat list of spans.
//
// The timeline stores one column per track. The model is the flat
// `(track, start, end)` list with whole-second spans, so busy time and
// gaps reduce to counting covered seconds, and the rendering to asking,
// per column, whether any span paints it.

const TRACKS: [&str; 3] = ["train", "infer", "simulation"];

/// Whole-second spans `(track, start, end)`, `end` already clamped.
struct FlatSpans(Vec<(&'static str, u64, u64)>);

impl FlatSpans {
    fn on<'a>(&'a self, track: &'a str) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.0
            .iter()
            .filter(move |s| s.0 == track)
            .map(|s| (s.1, s.2))
    }

    fn tracks(&self) -> Vec<String> {
        let mut names: Vec<String> = self.0.iter().map(|s| s.0.to_string()).collect();
        names.sort();
        names.dedup();
        names
    }

    fn horizon(&self) -> u64 {
        self.0.iter().map(|s| s.2).max().unwrap_or(0)
    }

    fn busy_at(&self, track: &str, second: u64) -> bool {
        self.on(track).any(|(a, b)| a <= second && second < b)
    }

    /// Maximal runs of idle seconds in `[from, to)`.
    fn gaps(&self, track: &str, from: u64, to: u64) -> Vec<(u64, u64)> {
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        for s in from..to {
            if self.busy_at(track, s) {
                continue;
            }
            match gaps.last_mut() {
                Some(g) if g.1 == s => g.1 = s + 1,
                _ => gaps.push((s, s + 1)),
            }
        }
        gaps
    }

    fn render(&self, width: usize) -> String {
        let end = self.horizon();
        if end == 0 {
            return String::new();
        }
        let names = self.tracks();
        let name_w = names.iter().map(|n| n.len()).max().unwrap_or(0).max(8);
        let column = |t: u64| (t as u128 * width as u128 / end as u128) as usize;
        let mut out = String::new();
        for name in &names {
            out.push_str(&format!("{name:<name_w$} |"));
            for c in 0..width {
                let painted = self.on(name).any(|(a, b)| {
                    let lo = column(a);
                    let hi = column(b).max(lo + 1).min(width);
                    lo.min(width - 1) <= c && c < hi
                });
                out.push(if painted { '█' } else { '·' });
            }
            out.push_str("|\n");
        }
        let axis = format!("{:.1}s", end as f64);
        out.push_str(&format!("{:<name_w$} 0s{axis:>width$}\n", ""));
        out
    }
}

proptest! {
    /// Every timeline query agrees with the flat model, including
    /// zero-length spans and spans whose end precedes their start.
    #[test]
    fn timeline_matches_flat_span_list(
        spans in proptest::collection::vec((0usize..3, 0u64..200, 0u64..200), 0..40),
        window in (0u64..220, 0u64..220),
        width in 1usize..60,
    ) {
        let mut tl = Timeline::new();
        let mut flat = FlatSpans(Vec::new());
        for &(k, a, b) in &spans {
            tl.add(TRACKS[k], SimTime::from_secs(a), SimTime::from_secs(b));
            flat.0.push((TRACKS[k], a, b.max(a)));
        }
        prop_assert_eq!(tl.tracks(), flat.tracks());
        prop_assert_eq!(tl.horizon(), SimTime::from_secs(flat.horizon()));
        prop_assert_eq!(tl.render_ascii(width), flat.render(width));
        let (from, to) = (window.0.min(window.1), window.0.max(window.1));
        for track in TRACKS {
            let total: u64 = flat.on(track).map(|(a, b)| b - a).sum();
            prop_assert_eq!(tl.total_busy(track), SimDuration::from_secs(total));
            let busy = (from..to).filter(|&s| flat.busy_at(track, s)).count() as u64;
            prop_assert_eq!(
                tl.union_busy(track, SimTime::from_secs(from), SimTime::from_secs(to)),
                SimDuration::from_secs(busy)
            );
            let gaps: Vec<(SimTime, SimTime)> = flat
                .gaps(track, from, to)
                .into_iter()
                .map(|(a, b)| (SimTime::from_secs(a), SimTime::from_secs(b)))
                .collect();
            prop_assert_eq!(
                tl.gaps(track, SimTime::from_secs(from), SimTime::from_secs(to)),
                gaps
            );
        }
    }
}

// ---------------------------------------------------------------------
// Slab engine vs a naive reference model.
//
// The engine's contract — time order, FIFO tie-break, cancelled events
// never fire, stale handles inert — is easy to state as a model: a flat
// list of (time, seq, label) entries where firing order is a stable
// sort on (time, seq) over the still-live entries. Random interleavings
// of schedule/cancel/reschedule must agree with it exactly, whatever
// slot recycling and tombstone traffic they induce.

/// The reference model. `seq` mirrors schedule order, exactly as the
/// engine's internal sequence does.
#[derive(Default)]
struct RefModel {
    entries: Vec<RefEntry>,
}

struct RefEntry {
    time: u64,
    seq: usize,
    label: u64,
    live: bool,
}

impl RefModel {
    /// Returns the model handle (entry index).
    fn schedule(&mut self, time: u64, label: u64) -> usize {
        let seq = self.entries.len();
        self.entries.push(RefEntry {
            time,
            seq,
            label,
            live: true,
        });
        seq
    }

    /// Returns whether the entry was still live (what `Engine::cancel`
    /// must report).
    fn cancel(&mut self, idx: usize) -> bool {
        let was = self.entries[idx].live;
        self.entries[idx].live = false;
        was
    }

    fn live_count(&self) -> usize {
        self.entries.iter().filter(|e| e.live).count()
    }

    /// The exact label order a full run must produce.
    fn fired(&self) -> Vec<u64> {
        let mut live: Vec<&RefEntry> = self.entries.iter().filter(|e| e.live).collect();
        live.sort_by_key(|e| (e.time, e.seq));
        live.iter().map(|e| e.label).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random schedule/cancel/reschedule interleavings agree with the
    /// reference model on cancel outcomes, pending counts, and the full
    /// firing order.
    #[test]
    fn engine_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..1_000_000, 0u64..1_000_000),
            0..200,
        ),
    ) {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut model = RefModel::default();
        // Engine handle ↔ model handle, in schedule order.
        let mut handles: Vec<(parfait_simcore::EventId, usize)> = Vec::new();
        let mut next_label = 0u64;
        for (kind, a, b) in ops {
            match kind {
                0 => {
                    let label = next_label;
                    next_label += 1;
                    let id = eng.schedule_at(
                        SimTime::from_nanos(a),
                        move |w: &mut Vec<u64>, _| w.push(label),
                    );
                    handles.push((id, model.schedule(a, label)));
                }
                // Cancel an arbitrary earlier handle — possibly one
                // that is already a tombstone.
                1 if !handles.is_empty() => {
                    let (id, mi) = handles[(b as usize) % handles.len()];
                    prop_assert_eq!(eng.cancel(id), model.cancel(mi));
                }
                // Reschedule: cancel + re-arm at a new instant, the
                // timeout-wheel pattern.
                2 if !handles.is_empty() => {
                    let (id, mi) = handles[(b as usize) % handles.len()];
                    prop_assert_eq!(eng.cancel(id), model.cancel(mi));
                    let label = next_label;
                    next_label += 1;
                    let id = eng.schedule_at(
                        SimTime::from_nanos(a),
                        move |w: &mut Vec<u64>, _| w.push(label),
                    );
                    handles.push((id, model.schedule(a, label)));
                }
                _ => {}
            }
        }
        prop_assert_eq!(eng.pending(), model.live_count());
        let mut log = Vec::new();
        eng.run(&mut log);
        prop_assert_eq!(log, model.fired());
        prop_assert!(eng.is_idle());
    }

    /// Once an event has fired, every outstanding handle to it is stale:
    /// cancelling through it reports `false` and cannot touch whatever
    /// event now occupies the recycled slot.
    #[test]
    fn stale_handles_are_inert(n in 1usize..40, extra in 0u64..1_000_000) {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let ids: Vec<parfait_simcore::EventId> = (0..n)
            .map(|i| {
                eng.schedule_at(
                    SimTime::from_nanos(i as u64 * 7),
                    move |w: &mut Vec<u64>, _| w.push(i as u64),
                )
            })
            .collect();
        let mut log = Vec::new();
        eng.run(&mut log);
        prop_assert_eq!(log.len(), n);
        for id in &ids {
            prop_assert!(!eng.cancel(*id), "fired handle must be stale");
        }
        // A fresh event reoccupies one of the recycled slots; the stale
        // handles still must not be able to cancel it.
        let label = u64::MAX;
        eng.schedule_at(
            SimTime::from_nanos(eng.now().as_nanos() + extra),
            move |w: &mut Vec<u64>, _| w.push(label),
        );
        for id in &ids {
            prop_assert!(!eng.cancel(*id), "stale handle hit a recycled slot");
        }
        eng.run(&mut log);
        prop_assert_eq!(log.len(), n + 1);
        prop_assert_eq!(*log.last().expect("fired"), u64::MAX);
    }
}
