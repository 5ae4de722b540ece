//! Overload-protection state: the hedge RNG, retry-budget token buckets,
//! live hedge pairs, and the shed/hedge/brownout counters.
//!
//! The mechanisms themselves live where the traffic flows: admission
//! control and retry budgets gate [`crate::world::submit`] and the retry
//! scheduler, hedging hooks the body-start/finish paths in
//! [`crate::world`], and the brownout controller is a strategy-layer
//! tick ([`crate::strategy::enable_brownout`]). This module only owns
//! the shared state so every entry point mutates one place. Knobs are in
//! [`crate::config::OverloadConfig`], with the retry-budget and hedge
//! constants beside it; see DESIGN.md "Overload model".

use crate::app::TaskId;
use crate::dfk::AppName;
use parfait_simcore::SimRng;
use serde::Serialize;
use std::collections::BTreeMap;

/// Counters for every protective action taken (all zero when protection
/// is disabled). Serialized into the BENCH reports next to
/// [`crate::RecoveryStats`].
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct OverloadStats {
    /// Queued tasks evicted (oldest first) from a full bounded queue to
    /// admit newer work.
    pub tasks_shed: u64,
    /// Tasks refused at the door by deadline-aware admission (deadline
    /// unattainable at submit).
    pub tasks_rejected: u64,
    /// Retries dropped because the app's retry-budget bucket was dry.
    pub retries_suppressed: u64,
    /// Speculative duplicates launched for suspected stragglers.
    pub hedges_launched: u64,
    /// Hedged tasks whose *duplicate* finished first.
    pub hedges_won: u64,
    /// Hedged tasks whose primary finished first (the duplicate's work
    /// was thrown away).
    pub hedges_wasted: u64,
    /// Cumulative time any brownout controller spent engaged (degraded
    /// tier active).
    pub brownout_seconds: f64,
}

/// A live hedge pair: one task running on two workers at once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HedgePair {
    /// Worker running the original attempt.
    pub primary: usize,
    /// Worker running the speculative duplicate.
    pub hedge: usize,
}

/// Mutable overload-protection state owned by the world.
pub struct OverloadState {
    /// Hedge-delay jitter draws (`simcore::streams::HEDGE_TIMING`).
    pub(crate) hedge_rng: SimRng,
    /// Per-app retry-budget token balances. Created lazily at the app's
    /// first admission, seeded with `RETRY_BUDGET_BURST`.
    pub(crate) retry_tokens: BTreeMap<AppName, f64>,
    /// Tasks currently running as a primary/duplicate pair. An entry
    /// exists from hedge launch until the first attempt finishes (either
    /// way); its absence plus a `Done` task state is how a late loser
    /// recognizes the race is over.
    pub(crate) hedges: BTreeMap<TaskId, HedgePair>,
    /// Action counters.
    pub stats: OverloadStats,
}

impl OverloadState {
    /// Fresh state drawing hedge jitter from `hedge_rng`.
    pub(crate) fn new(hedge_rng: SimRng) -> Self {
        OverloadState {
            hedge_rng,
            retry_tokens: BTreeMap::new(),
            hedges: BTreeMap::new(),
            stats: OverloadStats::default(),
        }
    }

    /// Current retry-token balance for an app (`None` = app never
    /// admitted, bucket not yet created).
    pub fn retry_tokens(&self, app: &str) -> Option<f64> {
        self.retry_tokens.get(app).copied()
    }

    /// Is this task currently running as a primary/duplicate pair?
    pub fn is_hedged(&self, task: TaskId) -> bool {
        self.hedges.contains_key(&task)
    }
}
