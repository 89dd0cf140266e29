//! The repository's benchmark.
//!
//! Four workloads drive the public API of `net`, `sim`, `runtime`,
//! `core`, `cost`, `verify`, `ir`, `obs` and `workloads` from outside.
//! An untraced run reports five end-to-end metrics; a traced run
//! reports the per-module cost stack and writes the spans. See the
//! crate's `README.md` for the definitions and the measurement method.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod host;
pub mod hostprobe;
pub mod json;
pub mod layers;
pub mod selfcheck;
pub mod stats;
pub mod trace;
pub mod workloads;
