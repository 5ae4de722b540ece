//! Request-arrival generators for serverless workload experiments.
//!
//! The paper's §5.2 experiments are closed-loop (each chatbot process
//! issues its next completion when the previous one finishes — that is
//! the task-queue model). Open-loop Poisson traces and the fleet shape
//! (diurnal swing plus flash crowds) drive the extension experiments.

use parfait_simcore::{SimDuration, SimRng, SimTime};
use serde::Serialize;

/// A generated arrival trace.
#[derive(Debug, Clone, Serialize)]
pub struct Trace {
    /// Arrival instants, non-decreasing.
    pub arrivals: Vec<SimTime>,
}

impl Trace {
    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Mean inter-arrival gap in seconds (0 with fewer than 2 arrivals).
    pub fn mean_gap_secs(&self) -> f64 {
        if self.arrivals.len() < 2 {
            return 0.0;
        }
        let span = self
            .arrivals
            .last()
            .expect("non-empty")
            .duration_since(self.arrivals[0])
            .as_secs_f64();
        span / (self.arrivals.len() - 1) as f64
    }
}

/// Poisson arrivals at `rate_per_sec` until `n` requests are generated.
pub fn poisson(rng: &mut SimRng, rate_per_sec: f64, n: usize) -> Trace {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    let mut t = 0.0;
    let arrivals = (0..n)
        .map(|_| {
            t += rng.exp(1.0 / rate_per_sec);
            SimTime::ZERO + SimDuration::from_secs_f64(t)
        })
        .collect();
    Trace { arrivals }
}

/// Shape of the fleet-scale open-loop arrival process: a base Poisson
/// rate modulated by a diurnal sinusoid and periodic flash-crowd
/// windows. Realized by [`fleet`] as a non-homogeneous Poisson process
/// (thinning against the peak rate), drawn from the
/// `simcore::streams::FLEET_ARRIVALS` stream by convention.
#[derive(Debug, Clone)]
pub struct FleetShape {
    /// Baseline mean arrival rate (req/s).
    pub base_rate: f64,
    /// Relative amplitude of the diurnal sinusoid, in `[0, 1)`:
    /// the rate swings between `base * (1 - a)` and `base * (1 + a)`.
    pub diurnal_amplitude: f64,
    /// Period of one simulated "day" (the sinusoid's period).
    pub day: SimDuration,
    /// Phase offset of the diurnal sinusoid in radians. Two tenants with
    /// phases `0` and `π` peak half a day apart — the shifting-mix shape
    /// an autoscaler exists to chase. `0.0` leaves the classic shape
    /// bit-identical.
    pub phase: f64,
    /// Gap between flash-crowd onsets, measured start to start.
    pub flash_every: SimDuration,
    /// Flash-crowd duration; must not exceed `flash_every`.
    pub flash_len: SimDuration,
    /// Rate multiplier inside a flash window (`>= 1`).
    pub flash_factor: f64,
}

impl FleetShape {
    /// Instantaneous arrival rate at `t` seconds.
    pub fn rate_at(&self, t: f64) -> f64 {
        let day = self.day.as_secs_f64();
        let diurnal =
            1.0 + self.diurnal_amplitude * (std::f64::consts::TAU * t / day + self.phase).sin();
        let phase = t % self.flash_every.as_secs_f64();
        let flash = if phase < self.flash_len.as_secs_f64() {
            self.flash_factor
        } else {
            1.0
        };
        self.base_rate * diurnal * flash
    }

    /// Upper bound on [`FleetShape::rate_at`] — the thinning envelope.
    pub fn rate_max(&self) -> f64 {
        self.base_rate * (1.0 + self.diurnal_amplitude) * self.flash_factor
    }

    fn validate(&self) {
        assert!(self.base_rate > 0.0, "base rate must be positive");
        assert!(
            (0.0..1.0).contains(&self.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        assert!(!self.day.is_zero(), "day period must be positive");
        assert!(self.flash_factor >= 1.0, "flash factor must be >= 1");
        assert!(
            !self.flash_every.is_zero() && self.flash_len <= self.flash_every,
            "flash window must fit its period"
        );
    }
}

/// Fleet-scale open-loop arrivals: a non-homogeneous Poisson process
/// with the rate profile of `shape` (diurnal sinusoid × flash crowds),
/// realized by thinning candidate arrivals at [`FleetShape::rate_max`]
/// until `n` requests exist. Two RNG draws per candidate (gap +
/// accept), so the trace is a pure function of `(rng state, shape, n)`.
pub fn fleet(rng: &mut SimRng, shape: &FleetShape, n: usize) -> Trace {
    shape.validate();
    let envelope = shape.rate_max();
    let mut t = 0.0;
    let mut arrivals = Vec::with_capacity(n);
    while arrivals.len() < n {
        t += rng.exp(1.0 / envelope);
        if rng.f64() < shape.rate_at(t) / envelope {
            arrivals.push(SimTime::ZERO + SimDuration::from_secs_f64(t));
        }
    }
    Trace { arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_converges() {
        let mut rng = SimRng::new(1);
        let tr = poisson(&mut rng, 4.0, 50_000);
        assert_eq!(tr.len(), 50_000);
        assert!(
            (tr.mean_gap_secs() - 0.25).abs() < 0.01,
            "gap {}",
            tr.mean_gap_secs()
        );
        assert!(tr.arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    fn test_shape() -> FleetShape {
        FleetShape {
            base_rate: 100.0,
            diurnal_amplitude: 0.3,
            day: SimDuration::from_secs(20),
            phase: 0.0,
            flash_every: SimDuration::from_secs(7),
            flash_len: SimDuration::from_secs(1),
            flash_factor: 1.6,
        }
    }

    #[test]
    fn fleet_arrivals_are_ordered_and_rate_bounded() {
        let mut rng = SimRng::new(3);
        let shape = test_shape();
        let tr = fleet(&mut rng, &shape, 20_000);
        assert_eq!(tr.len(), 20_000);
        assert!(tr.arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Long-run mean rate sits between the valley and the peak.
        let mean_rate = 1.0 / tr.mean_gap_secs();
        assert!(
            mean_rate > shape.base_rate * (1.0 - shape.diurnal_amplitude),
            "mean rate {mean_rate} below the diurnal valley"
        );
        assert!(
            mean_rate < shape.rate_max(),
            "mean rate {mean_rate} beats the envelope {}",
            shape.rate_max()
        );
    }

    #[test]
    fn fleet_flash_windows_are_denser() {
        let mut rng = SimRng::new(4);
        let shape = test_shape();
        let tr = fleet(&mut rng, &shape, 50_000);
        let flash_s = shape.flash_len.as_secs_f64();
        let period_s = shape.flash_every.as_secs_f64();
        let (mut in_flash, mut outside) = (0usize, 0usize);
        for a in &tr.arrivals {
            if a.as_secs_f64() % period_s < flash_s {
                in_flash += 1;
            } else {
                outside += 1;
            }
        }
        // Flash windows cover 1/7 of time but at 1.6× the rate, so their
        // per-second density must clearly beat the outside density.
        let flash_density = in_flash as f64 / flash_s;
        let outside_density = outside as f64 / (period_s - flash_s);
        assert!(
            flash_density > 1.3 * outside_density,
            "flash {flash_density}/s vs outside {outside_density}/s"
        );
    }

    #[test]
    fn fleet_degenerates_to_poisson() {
        // Amplitude 0 and factor 1 make the thinning accept everything:
        // the long-run rate converges to the base rate.
        let mut rng = SimRng::new(5);
        let shape = FleetShape {
            base_rate: 50.0,
            diurnal_amplitude: 0.0,
            day: SimDuration::from_secs(10),
            phase: 0.0,
            flash_every: SimDuration::from_secs(5),
            flash_len: SimDuration::ZERO,
            flash_factor: 1.0,
        };
        let tr = fleet(&mut rng, &shape, 50_000);
        let mean_rate = 1.0 / tr.mean_gap_secs();
        assert!(
            (mean_rate - 50.0).abs() < 1.5,
            "degenerate fleet rate {mean_rate} != 50"
        );
    }

    #[test]
    fn empty_trace_edge_cases() {
        let tr = poisson(&mut SimRng::new(6), 1.0, 0);
        assert!(tr.is_empty());
        assert_eq!(tr.mean_gap_secs(), 0.0);
    }
}
