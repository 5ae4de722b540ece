//! Shared-resource primitives.
//!
//! [`PsPool`] is an egalitarian processor-sharing pool; it models the CPU
//! side of the testbed (24 Xeon cores serving a variable task population).
//! It is a *passive* state machine: it never calls the engine itself. The
//! owner pops completion deadlines and schedules events, which keeps
//! borrow scopes trivially correct.

use crate::time::{SimDuration, SimTime};

/// Job identifier inside a [`PsPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PsJobId(u64);

#[derive(Debug, Clone)]
struct PsJob {
    id: PsJobId,
    /// Remaining service demand in core-seconds.
    remaining: f64,
}

/// Egalitarian processor-sharing pool of `cores` identical servers.
///
/// With `n` resident jobs each runs at rate `min(1, cores/n)` cores. After
/// any membership change the owner must call [`PsPool::advance`] to the
/// current time and then re-arm a completion event at
/// [`PsPool::next_completion`].
#[derive(Debug)]
pub struct PsPool {
    cores: f64,
    jobs: Vec<PsJob>,
    last: SimTime,
    next_id: u64,
}

impl PsPool {
    /// Pool with the given core count.
    pub fn new(cores: usize, now: SimTime) -> Self {
        assert!(cores > 0, "PsPool needs at least one core");
        PsPool {
            cores: cores as f64,
            jobs: Vec::new(),
            last: now,
            next_id: 0,
        }
    }

    /// Number of resident jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are resident.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Per-job service rate (cores) with the current population.
    pub fn rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            (self.cores / self.jobs.len() as f64).min(1.0)
        }
    }

    /// Integrate progress up to `now`. Must be called before any
    /// membership change and before querying completions.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last).as_secs_f64();
        if dt > 0.0 {
            let r = self.rate();
            for j in &mut self.jobs {
                j.remaining = (j.remaining - r * dt).max(0.0);
            }
        }
        self.last = now;
    }

    /// Admit a job with `demand` core-seconds of work at time `now`.
    pub fn add(&mut self, now: SimTime, demand: f64) -> PsJobId {
        assert!(
            demand >= 0.0 && demand.is_finite(),
            "invalid demand {demand}"
        );
        self.advance(now);
        let id = PsJobId(self.next_id);
        self.next_id += 1;
        self.jobs.push(PsJob {
            id,
            remaining: demand,
        });
        id
    }

    /// Remove a job (e.g. cancelled); returns its remaining demand.
    pub fn remove(&mut self, now: SimTime, id: PsJobId) -> Option<f64> {
        self.advance(now);
        let idx = self.jobs.iter().position(|j| j.id == id)?;
        Some(self.jobs.swap_remove(idx).remaining)
    }

    /// The job that will finish next and when, given the current
    /// population stays fixed. `None` when empty.
    pub fn next_completion(&self, now: SimTime) -> Option<(PsJobId, SimTime)> {
        debug_assert!(now >= self.last);
        let r = self.rate();
        if r <= 0.0 {
            return None;
        }
        let lead = now.duration_since(self.last).as_secs_f64();
        self.jobs
            .iter()
            .map(|j| (j.id, (j.remaining - r * lead).max(0.0) / r))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, secs)| (id, now.saturating_add(SimDuration::from_secs_f64(secs))))
    }

    /// Pop every job whose remaining demand is (numerically) zero at `now`.
    pub fn take_finished(&mut self, now: SimTime) -> Vec<PsJobId> {
        self.advance(now);
        let mut done = Vec::new();
        self.jobs.retain(|j| {
            if j.remaining <= 1e-9 {
                done.push(j.id);
                false
            } else {
                true
            }
        });
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_single_job_runs_at_one_core() {
        let mut p = PsPool::new(4, SimTime::ZERO);
        let id = p.add(SimTime::ZERO, 10.0);
        let (jid, t) = p.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(jid, id);
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ps_overload_shares_equally() {
        // 2 cores, 4 equal jobs → each runs at 0.5 cores → 10 cs takes 20 s.
        let mut p = PsPool::new(2, SimTime::ZERO);
        for _ in 0..4 {
            p.add(SimTime::ZERO, 10.0);
        }
        let (_, t) = p.next_completion(SimTime::ZERO).unwrap();
        assert!((t.as_secs_f64() - 20.0).abs() < 1e-9, "t={t}");
        let done = p.take_finished(t);
        assert_eq!(done.len(), 4, "equal jobs finish together");
        assert!(p.is_empty());
    }

    #[test]
    fn ps_departure_speeds_up_survivors() {
        // 1 core; job A (4 cs) and job B (10 cs) start together.
        // A finishes at 8 s (rate 0.5); B then has 6 cs left at rate 1.
        let mut p = PsPool::new(1, SimTime::ZERO);
        let _a = p.add(SimTime::ZERO, 4.0);
        let b = p.add(SimTime::ZERO, 10.0);
        let (first, t1) = p.next_completion(SimTime::ZERO).unwrap();
        assert!((t1.as_secs_f64() - 8.0).abs() < 1e-9);
        let done = p.take_finished(t1);
        assert_eq!(done, vec![first]);
        let (second, t2) = p.next_completion(t1).unwrap();
        assert_eq!(second, b);
        assert!((t2.as_secs_f64() - 14.0).abs() < 1e-9, "t2={t2}");
    }

    #[test]
    fn ps_mid_flight_arrival() {
        // 1 core. A (10 cs) alone for 5 s, then B (2.5 cs) arrives.
        // Both at rate 0.5: B finishes at 5 + 5 = 10 s; A has 2.5 left, at
        // rate 1 → done at 12.5 s.
        let mut p = PsPool::new(1, SimTime::ZERO);
        let a = p.add(SimTime::ZERO, 10.0);
        let t5 = SimTime::from_secs(5);
        let b = p.add(t5, 2.5);
        let (first, t1) = p.next_completion(t5).unwrap();
        assert_eq!(first, b);
        assert!((t1.as_secs_f64() - 10.0).abs() < 1e-9);
        p.take_finished(t1);
        let (second, t2) = p.next_completion(t1).unwrap();
        assert_eq!(second, a);
        assert!((t2.as_secs_f64() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn ps_remove_returns_remaining() {
        let mut p = PsPool::new(1, SimTime::ZERO);
        let a = p.add(SimTime::ZERO, 10.0);
        let rem = p.remove(SimTime::from_secs(4), a).unwrap();
        assert!((rem - 6.0).abs() < 1e-9);
        assert!(p.remove(SimTime::from_secs(4), a).is_none());
    }

    #[test]
    fn ps_zero_demand_finishes_immediately() {
        let mut p = PsPool::new(1, SimTime::ZERO);
        let id = p.add(SimTime::ZERO, 0.0);
        let (jid, t) = p.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(jid, id);
        assert_eq!(t, SimTime::ZERO);
    }
}
