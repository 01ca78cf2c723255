//! `perfbench` — the schemacast benchmark.
//!
//! One command generates seeded inputs for a workload, drives them through
//! the library's public API with nproc workers, checks every verdict
//! against an independent oracle, and prints the end-to-end metrics
//! (untraced run) or the per-layer split (traced run). See
//! `BENCHMARK.json` at the repository root for the workloads, metrics and
//! bounds.

#![deny(unsafe_code)]

pub mod corpus;
pub mod edits;
pub mod gen;
pub mod measure;
pub mod rng;
pub mod run;
pub mod trace;

pub use run::{run, Config, Plant, Workload};
