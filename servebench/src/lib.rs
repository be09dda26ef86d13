//! Two-clock open-loop serving benchmark of the dynamic-sparsity workspace.
//!
//! The `servebench` binary runs one workload per process; this library holds
//! its parts so they can be tested: the seeded workloads ([`workloads`]), the
//! device-clock outcomes and correctness checks of a pass ([`metrics`]), the
//! stage split of a traced run's host time ([`stages`]), the layer replay
//! below the engine ([`replay`]) and the metric table behind the printed
//! names and `BENCHMARK.json` ([`manifest`]).

pub mod manifest;
pub mod metrics;
pub mod replay;
pub mod stages;
pub mod workloads;
