#![warn(missing_docs)]

//! # parfait-bench
//!
//! The benchmark harness: scenario builders regenerating every table and
//! figure of the paper ([`scenarios`]), plus text/CSV rendering and the
//! `BENCH_*.json` writer ([`report`]). The `repro` binary (`cargo run -p
//! parfait-bench --bin repro -- <artifact>`) wraps these.

pub mod alloc;
pub mod autoscale;
pub mod chaos;
pub mod faults;
pub mod fleet;
pub mod gray;
pub mod lint;
pub mod overload;
pub mod report;
pub mod scenarios;
pub mod substrate;
pub mod sweep;
