// Benchmark code reports failures through stderr/exit codes, not panics;
// `.expect()` with a message is the accepted escape hatch.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! Shared workload generators and helpers for the benchmark harness.
//!
//! Every table/figure binary builds its inputs through this crate so the
//! experiments are reproducible and consistent: an office floor plan
//! (mirroring Fig. 1's 80 m x 45 m building), multi-wall path loss, the
//! ZigBee reference library, and the paper's specification patterns.

pub mod json;
pub mod util;
pub mod workloads;

pub use workloads::{
    data_collection_spec, data_collection_workload, localization_spec, localization_workload,
    scale_registry, scale_smoke, table3_registry, DataCollection, Localization, WorkloadKind,
    WorkloadSpec, DC_50_20_KSTAR10_OPTIMUM,
};
