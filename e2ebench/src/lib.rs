//! End-to-end, layer-by-layer benchmark of the ALEX reproduction.
//!
//! One command runs a named workload from a seed, checks that the program's
//! outputs are correct, and prints every end-to-end metric by name and unit
//! (`--trace 0`), or the per-layer metrics of a separate traced run
//! (`--trace 1`). See `README.md` in this directory.

#![deny(unsafe_code)]

pub mod procfs;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod wrap;
