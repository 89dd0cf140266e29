#![warn(missing_docs)]

//! # pipeleon — profile-guided P4 performance optimization for SmartNICs
//!
//! The paper's primary contribution (SIGCOMM'23, "Unleashing SmartNIC
//! Packet Processing Performance in P4"): an automated optimizer that takes
//! a P4 program (as a [`pipeleon_ir::ProgramGraph`]) plus a runtime profile
//! (packet counters and entry-update rates) and rewrites the program layout
//! for higher throughput under memory and update-bandwidth constraints.
//!
//! The pipeline mirrors the paper's architecture:
//!
//! 1. **Pipelet formation** ([`pipelet`]) — partition the program into
//!    branch-free table chains; form pipelet groups for cross-pipelet
//!    optimization; split overly long pipelets (§4.1.1).
//! 2. **Hot-pipelet detection** ([`hotspot`]) — score each pipelet by
//!    `L(G′)·P(G′)` under the cost model and select the top-k (§4.1.2).
//! 3. **Local search** ([`opts`]) — per pipelet, enumerate valid
//!    combinations of **table reordering** (§3.2.1), **table caching**
//!    (§3.2.2), and **table merging** (§3.2.3), each scored for gain and
//!    resource cost.
//! 4. **Global search** ([`search`], [`knapsack`]) — pick at most one
//!    candidate per pipelet maximizing total gain within memory /
//!    entry-update-rate limits via group-knapsack dynamic programming
//!    (§4.2, Appendix A.1). An exhaustive-search baseline (`ESearch`,
//!    top-100%) is the same path with `k = 1.0`.
//! 5. **Plan application** ([`apply`]) — rewrite the graph (reorder wiring,
//!    insert flow-cache nodes, materialize merged tables), emitting a
//!    counter map and an entry-management map so runtime profiling and the
//!    control-plane API keep working on the optimized layout (§2.3, §4.1.2).
//! 6. **Heterogeneous partitioning** ([`hetero`]) — place nodes on ASIC or
//!    CPU cores minimizing migration overhead, including the table-copying
//!    optimization (§3.2.4, Appendix A.2).

pub mod apply;
pub mod config;
pub mod hetero;
pub mod hotspot;
pub mod knapsack;
pub mod opts;
pub mod pipelet;
pub mod plan;
pub mod search;

pub use apply::{apply_plan, AppliedPlan, CounterMap, EntryMap, EntrySite};
pub use config::{OptimizerConfig, ResourceLimits};
pub use hetero::{materialize_partition, partition_placement, HeteroPlan};
pub use hotspot::{score_pipelets, top_k, PipeletScore};
pub use pipelet::{partition, Pipelet, PipeletGroup};
pub use plan::{Candidate, GlobalPlan, Segment, SegmentKind};
pub use search::{IncrementalState, OptimizationOutcome, Optimizer};
