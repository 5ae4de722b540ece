//! # parfait-benchmark
//!
//! The repository's benchmark: four named workloads run against the
//! public APIs of `parfait-simcore`, `-gpu`, `-faas`, `-core` and
//! `-workloads`; end-to-end metrics from untraced reps; a per-layer
//! breakdown from a traced rep; a fingerprint gate proving every rep of
//! a workload simulated exactly the same thing. See `README.md`.

pub mod alloc;
pub mod chaos;
pub mod compare;
pub mod report;
pub mod trace;
pub mod workloads;
