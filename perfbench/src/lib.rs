//! # perfbench
//!
//! The fleet benchmark: drives the public API of `smartexp3-env`,
//! `smartexp3-engine` and `smartexp3-telemetry` on the named
//! [`workloads`], checks the outputs, and reports host-time metrics
//! (throughput, slot latency, set-up time, memory) and simulated metrics
//! (the paper's distance to equilibrium, switch rate, Jain fairness and
//! goodput).
//!
//! Simulated metrics are computed in simulated time — slots of the model —
//! and repeat bit for bit for a seed, so any perf-only change must leave
//! them identical. They come from a network model that has not been
//! validated against real testbed data (the repository holds no reference
//! measurements), so no accuracy error is claimed for them.
//!
//! End-to-end numbers always come from untraced episodes. A separate traced
//! run ([`report::measure_traced`]) wraps the calls into each layer from the
//! benchmark's own code ([`trace`]) and reports the per-layer split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod episode;
pub mod pins;
pub mod report;
pub mod trace;
pub mod workloads;
