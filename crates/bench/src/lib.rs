//! # hbold-bench
//!
//! Shared fixtures and experiment drivers behind the `exp_report` binary
//! that regenerates the paper's evaluation tables (E1–E11).
//!
//! Every fixture is deterministic (seeded) and deliberately smaller than the
//! public datasets the paper used — the experiments compare *architectures*
//! and *algorithms* against each other, so what matters is the shape of the
//! results, not absolute wall-clock numbers.

pub mod chaos;
pub mod experiments;
pub mod fixtures;
pub mod loadgen;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use experiments::*;
pub use fixtures::*;
pub use loadgen::{run_load, LoadGenConfig, LoadReport};
