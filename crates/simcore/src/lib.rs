#![warn(missing_docs)]

//! # parfait-simcore
//!
//! Deterministic discrete-event simulation (DES) substrate for the PARFAIT
//! reproduction of *"Fine-grained accelerator partitioning for Machine
//! Learning and Scientific Computing in Function as a Service Platform"*
//! (Dhakal et al., SC-W 2023).
//!
//! Everything in the reproduction — the GPU model, the Parsl-workalike FaaS
//! runtime, the workloads — runs on top of this engine so that every
//! experiment is a pure function of its configuration and RNG seed.
//!
//! The engine is deliberately single-threaded: reproducing the paper's
//! *numbers* requires that event ordering never depends on host-machine
//! scheduling. Parallelism in the benchmark harness happens *across*
//! independent simulations, not inside one.
//!
//! ## Architecture
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time.
//! * [`Engine`] — a time-ordered event heap generic over a user "world"
//!   type `W`. Events are `FnOnce(&mut W, &mut Engine<W>)` closures, so any
//!   crate can drive any state it can reach from `W` without the engine
//!   knowing about it.
//! * [`rng::SimRng`] — splittable xoshiro256++ PRNG plus the distributions
//!   the workloads need (exponential, normal, lognormal, Pareto, Zipf).
//! * [`streams`] — the central registry of RNG stream ids; every
//!   `SimRng::split` site must name one of its constants (lint rule D3).
//! * [`resource`] — a processor-sharing pool for modelling CPU pools.
//! * [`stats`] — streaming statistics and time-weighted gauges.
//! * [`timeline`] — named-interval recorder behind the paper's Fig. 3.

pub mod engine;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod streams;
pub mod time;
pub mod timeline;

pub use engine::{Engine, EventId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
