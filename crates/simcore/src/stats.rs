//! Streaming statistics for simulation outputs.
//!
//! Two collectors cover everything the figure harness needs:
//!
//! * [`OnlineStats`] — Welford mean/variance with min/max, for latency and
//!   completion-time series.
//! * [`TimeWeighted`] — a gauge integrated over virtual time, for
//!   utilization ("SMs busy", "memory allocated") where *how long* a value
//!   held matters, not how often it was sampled.

use crate::time::SimTime;
use serde::Serialize;

/// Welford-style running mean/variance with extremes.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Empty collector.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another collector into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A gauge integrated over virtual time.
///
/// `set(t, v)` records that the gauge held its previous value up to `t` and
/// holds `v` from then on; `average(t_end)` is the time-weighted mean.
#[derive(Debug, Clone, Serialize)]
pub struct TimeWeighted {
    start: SimTime,
    last_t: SimTime,
    value: f64,
    integral: f64,
    max: f64,
}

impl TimeWeighted {
    /// Start integrating at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            start: t0,
            last_t: t0,
            value: v0,
            integral: 0.0,
            max: v0,
        }
    }

    /// Set a new value at time `t` (must be ≥ the previous update time).
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            t >= self.last_t,
            "TimeWeighted updates must be in time order"
        );
        self.integral += self.value * t.duration_since(self.last_t).as_secs_f64();
        self.last_t = t;
        self.value = v;
        self.max = self.max.max(v);
    }

    /// Add `dv` to the current value at time `t`.
    pub fn add(&mut self, t: SimTime, dv: f64) {
        let v = self.value + dv;
        self.set(t, v);
    }

    /// Current (most recent) value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Largest value seen.
    pub fn max_value(&self) -> f64 {
        self.max
    }

    /// Time-weighted average over `[start, t_end]` (0 on an empty window).
    pub fn average(&self, t_end: SimTime) -> f64 {
        let span = t_end.duration_since(self.start).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let tail = self.value * t_end.duration_since(self.last_t).as_secs_f64();
        (self.integral + tail) / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn online_stats_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_average() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
        g.set(SimTime::from_secs(10), 1.0); // 0 for 10s
        g.set(SimTime::from_secs(20), 0.0); // 1 for 10s
        let avg = g.average(SimTime::from_secs(20));
        assert!((avg - 0.5).abs() < 1e-12, "avg={avg}");
        assert_eq!(g.max_value(), 1.0);
        // extend with 0 for another 20s → avg 0.25
        let avg = g.average(SimTime::from_secs(40));
        assert!((avg - 0.25).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 2.0);
        g.add(SimTime::from_secs(5), 3.0);
        assert_eq!(g.current(), 5.0);
        g.add(SimTime::from_secs(10), -5.0);
        assert_eq!(g.current(), 0.0);
        // 2 for 5s + 5 for 5s = 35 over 10s
        assert!((g.average(SimTime::from_secs(10)) - 3.5).abs() < 1e-12);
    }
}
