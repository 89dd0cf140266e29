#![warn(missing_docs)]

//! # pipeleon-cost — approximate SmartNIC performance model
//!
//! Implements the cost model of paper §3.1 (Equations 1–4): a P4 program's
//! expected latency is the per-path latency weighted by path probability,
//! where a table costs `m · L_mat` for its key match (`m` = number of
//! memory accesses, a function of match kind and installed entries) plus
//! `Σ_a P(a) · n_a · L_act` for its actions, and branches are nearly free.
//!
//! * [`params`] — target-specific constants ([`CostParams`]) with presets
//!   for a BlueField2-like ASIC target, an Agilio-CX-like CPU target, and
//!   the paper's BMv2-based emulated NIC model (§5.3.3: LPM/ternary 3×
//!   exact, branches 1/10 of an exact table).
//! * [`profile`] — [`RuntimeProfile`]: per-edge / per-action packet
//!   counters, entry-update rates, and cache statistics collected at
//!   runtime; converts raw counters into the probabilities of Eq. 2a/4b.
//! * [`model`] — [`CostModel`]: expected program latency `L(G)` via one
//!   linear-time visit-weighted walk (equivalent to path enumeration on
//!   DAGs) over an optional ASIC/CPU placement, and per-node and per-path
//!   costs.
//! * [`resources`] — the `M(v)` memory and `E(v)` entry-update-rate terms
//!   of the optimization constraints (Eq. 5).
//! * [`calibrate`] — least-squares fitting of `L_mat` / `L_act` from
//!   black-box throughput observations, reproducing the paper's
//!   benchmarking methodology (§3.1 "Methodology and results").

pub mod calibrate;
pub mod model;
pub mod params;
pub mod profile;
pub mod resources;

pub use calibrate::{fit_line, CalibrationReport, Calibrator, LineFit};
pub use model::{CostModel, Expected, Placement};
pub use params::{CostParams, MatchCostModel};
pub use profile::{CacheStats, RuntimeProfile};
pub use resources::{ResourceModel, CACHE_CAPACITY, CACHE_INSERTION_RATE};
