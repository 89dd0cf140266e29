#![warn(missing_docs)]

//! # pipeleon-runtime — the runtime profile-guided control loop
//!
//! Closes the loop of Figure 3: the controller periodically collects
//! runtime profiles from the deployed target, translates them back into
//! the original program's counter space (via the optimizer's counter map),
//! detects profile changes, and re-runs the top-k optimization, deploying
//! the new layout when it promises enough gain.
//!
//! * [`target`] — the [`Target`] abstraction over a deployable SmartNIC
//!   (implemented for `pipeleon_sim::SmartNic`), including the
//!   reconfiguration-downtime distinction between runtime-programmable
//!   NICs (BlueField2-style, zero downtime) and reload-based NICs
//!   (Agilio-style, §5.1), plus the readback [`Target::fingerprint`] hook
//!   used to verify deploys.
//! * [`change`] — profile-change detection (drop-rate / traffic-split /
//!   update-rate distance).
//! * [`controller`] — the [`Controller`] loop and the entry-management
//!   API mapping (§2.3): inserts/removals on *original* tables are routed
//!   to their optimized sites — directly, through merged-table
//!   re-materialization, and/or cache flushes — so operators keep using
//!   the original program's API. Reconfiguration is transactional
//!   (validate → deploy → verify → bounded retry → rollback to
//!   last-known-good), with a circuit breaker that pins the original
//!   program after repeated failures.
//! * [`error`] — the [`RuntimeError`] taxonomy distinguishing recoverable
//!   deploy rejections, torn deploys, failed entry fan-outs, and failed
//!   rollbacks.
//! * [`faults`] — [`FaultyTarget`], a deterministic seeded fault injector
//!   wrapping any [`Target`], used by the chaos differential suite.

pub mod change;
pub mod controller;
pub mod error;
pub mod faults;
pub mod target;

pub use change::profile_distance;
pub use controller::{Controller, ControllerConfig, HealthReport, TickReport};
pub use error::RuntimeError;
pub use faults::{FaultConfig, FaultyTarget, InjectedFault, OpRecord};
pub use target::{graph_fingerprint, SimTarget, Target};
