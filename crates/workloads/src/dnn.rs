//! CNN workload models: layer algebra, torchvision-style architectures,
//! and lowering to the GPU simulator.

pub mod exec;
pub mod layers;
pub mod models;
