//! In-memory span aggregation for the traced rep.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer: setup calls, every `Engine::step` (tagged with its
//! class), `faas::submit` inside arrival steps, every `run_schedule` and
//! the hook calls inside it. They are aggregated by name as they close —
//! count, total nanoseconds, allocation calls and a log-bucket histogram —
//! so a 3M-step run keeps about 50 KB, not a span list.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use serde::Value;

use crate::alloc;

/// Every span the benchmark records. The names are the layer they enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `workloads::trace::fleet` — pre-drawing the arrival trace.
    TraceGen,
    /// `core::{plan, apply_plan}` over the fleet.
    Plan,
    /// `FaasWorld::new`.
    WorldNew,
    /// `faas::boot`.
    Boot,
    /// `core::enable_slo_autoscaler`.
    Autoscaler,
    /// An engine step that ran one of the benchmark's arrival closures.
    StepArrival,
    /// An engine step that completed or failed a request.
    StepCompletion,
    /// An engine step in which the control plane acted.
    StepControl,
    /// Any other engine step: kernel wakes, heartbeats, ticks.
    StepOther,
    /// `faas::submit`, a child of an arrival step.
    Submit,
    /// `faas::chaos::generate_schedule` over the whole search.
    Generate,
    /// One `faas::chaos::run_schedule`.
    RunSchedule,
    /// One hook call into `core::{begin_*, enable_slo_autoscaler}`, a
    /// child of `RunSchedule`.
    Hook,
}

impl Span {
    /// All spans, in report order.
    pub const ALL: [Span; 13] = [
        Span::TraceGen,
        Span::Plan,
        Span::WorldNew,
        Span::Boot,
        Span::Autoscaler,
        Span::StepArrival,
        Span::StepCompletion,
        Span::StepControl,
        Span::StepOther,
        Span::Submit,
        Span::Generate,
        Span::RunSchedule,
        Span::Hook,
    ];

    /// The four step classes.
    pub const STEPS: [Span; 4] = [
        Span::StepArrival,
        Span::StepCompletion,
        Span::StepControl,
        Span::StepOther,
    ];

    /// The span this one always opens inside, if any.
    fn parent(self) -> Option<Span> {
        match self {
            Span::Submit => Some(Span::StepArrival),
            Span::Hook => Some(Span::RunSchedule),
            _ => None,
        }
    }

    /// Stable span name, as written to `trace.json`.
    pub fn name(self) -> &'static str {
        match self {
            Span::TraceGen => "workloads.trace",
            Span::Plan => "core.plan",
            Span::WorldNew => "faas.world_new",
            Span::Boot => "faas.boot",
            Span::Autoscaler => "core.enable_slo_autoscaler",
            Span::StepArrival => "step.arrival",
            Span::StepCompletion => "step.completion",
            Span::StepControl => "step.control",
            Span::StepOther => "step.other",
            Span::Submit => "faas.submit",
            Span::Generate => "chaos.generate",
            Span::RunSchedule => "chaos.run_schedule",
            Span::Hook => "chaos.hook",
        }
    }
}

/// Sub-buckets per power of two: bucket edges are at most 12.5 % apart,
/// so a quantile read from the histogram is within ~6 % of the sample.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let mantissa = (ns >> (e - SUB_BITS)) as usize & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + mantissa
}

/// Lower edge and width of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, 1);
    }
    let e = ((b - SUB) / SUB) as u32 + SUB_BITS;
    let mantissa = ((b - SUB) % SUB) as u64;
    let width = 1u64 << (e - SUB_BITS);
    ((SUB as u64 + mantissa) * width, width)
}

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Allocation calls made inside the spans (children included).
    pub alloc_ops: u64,
    hist: Vec<u64>,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            count: 0,
            total_ns: 0,
            alloc_ops: 0,
            hist: vec![0; BUCKETS],
        }
    }
}

impl SpanStats {
    /// Summed duration, seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Duration at quantile `q` (nearest rank), read from the histogram as
    /// the midpoint of the bucket holding that rank; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, width) = bucket_range(b);
                return lo as f64 + (width as f64 - 1.0) / 2.0;
            }
        }
        unreachable!("histogram holds every closed span")
    }
}

struct Frame {
    start: Instant,
    alloc_ops: u64,
}

/// Open-span stack plus per-name aggregates.
pub struct Tracer {
    stats: Vec<SpanStats>,
    stack: Vec<Frame>,
}

/// The tracer handle threaded through a rep: `None` on untraced reps, so
/// the timed code pays one branch per would-be span and nothing else.
pub type Trace = Option<Rc<RefCell<Tracer>>>;

impl Tracer {
    /// Empty tracer.
    pub(crate) fn new() -> Self {
        Tracer {
            stats: vec![SpanStats::default(); Span::ALL.len()],
            stack: Vec::with_capacity(8),
        }
    }

    /// Open a span; its name is given when it closes.
    pub(crate) fn enter(&mut self) {
        self.stack.push(Frame {
            start: Instant::now(),
            alloc_ops: alloc::ops(),
        });
    }

    /// Close the innermost open span as `span`.
    pub(crate) fn exit(&mut self, span: Span) {
        let f = self.stack.pop().expect("exit matches an enter");
        let ns = f.start.elapsed().as_nanos() as u64;
        self.record(span, ns, alloc::ops() - f.alloc_ops);
    }

    /// Record a span the caller timed. The step loop uses this instead of
    /// `enter`/`exit`: steps are outermost and back to back, so each one
    /// starts where the previous one ended and costs one clock read.
    pub(crate) fn record(&mut self, span: Span, ns: u64, alloc_ops: u64) {
        let s = &mut self.stats[span as usize];
        s.count += 1;
        s.total_ns += ns;
        s.alloc_ops += alloc_ops;
        s.hist[bucket_of(ns)] += 1;
    }

    /// Aggregate for `span`.
    pub fn stats(&self, span: Span) -> &SpanStats {
        &self.stats[span as usize]
    }

    /// Self time of `span`, seconds: its total less the totals of the
    /// spans that only ever open inside it.
    pub fn self_s(&self, span: Span) -> f64 {
        let children: f64 = Span::ALL
            .iter()
            .filter(|c| c.parent() == Some(span))
            .map(|c| self.stats(*c).total_s())
            .sum();
        self.stats(span).total_s() - children
    }

    /// Every span as `trace.json` records it.
    pub fn to_value(&self) -> Value {
        Value::Object(
            Span::ALL
                .iter()
                .filter(|s| self.stats(**s).count > 0)
                .map(|&s| {
                    let st = self.stats(s);
                    let field = |k: &str, v: Value| (k.to_string(), v);
                    (
                        s.name().to_string(),
                        Value::Object(vec![
                            field("count", Value::UInt(st.count)),
                            field("total_s", Value::Float(st.total_s())),
                            field("self_s", Value::Float(self.self_s(s))),
                            field("alloc_ops", Value::UInt(st.alloc_ops)),
                            field("p50_ns", Value::Float(st.quantile_ns(0.5))),
                            field("p99_ns", Value::Float(st.quantile_ns(0.99))),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Run `f` inside a `span` when tracing; call it plainly otherwise.
pub(crate) fn span<T>(trace: &Trace, span: Span, f: impl FnOnce() -> T) -> T {
    match trace {
        None => f(),
        Some(t) => {
            t.borrow_mut().enter();
            let out = f();
            t.borrow_mut().exit(span);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_their_values() {
        let mut prev = 0;
        for ns in (0..100_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket_of(ns);
            assert!(b >= prev && b < BUCKETS);
            let (lo, width) = bucket_range(b);
            assert!(lo <= ns && ns - lo < width, "{ns} outside bucket {b}");
            prev = b;
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter();
        t.enter();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(Span::Submit);
        t.exit(Span::StepArrival);
        let (parent, child) = (t.stats(Span::StepArrival), t.stats(Span::Submit));
        assert!(child.total_ns <= parent.total_ns);
        assert_eq!(
            t.self_s(Span::StepArrival),
            parent.total_s() - child.total_s()
        );
        assert!(child.quantile_ns(0.5) >= 1.5e6);
    }
}
