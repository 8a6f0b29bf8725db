//! # dosscope-harness
//!
//! End-to-end scenario runner: builds the synthetic world (address plan,
//! DNS namespace, DPS market), generates the ground-truth ecosystem,
//! renders it into per-day observations, drives the two measurement
//! pipelines over the rendered bytes, and assembles the analysis
//! [`dosscope_core::Framework`] — the complete loop the paper's
//! infrastructure performs over two years, in one call.
//!
//! The harness is also the home of the paper-reproduction machinery:
//! [`experiments`] regenerates every table and figure and compares each
//! with the paper's published value, stated once per check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod scenario;
pub mod telemetry;

pub use scenario::{Scenario, ScenarioConfig, World};
