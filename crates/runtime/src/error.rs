//! Typed errors for the runtime control plane.
//!
//! The controller's interactions with a [`crate::Target`] can fail in ways
//! that matter operationally — a rejected deploy is recoverable by retry,
//! a *torn* deploy (target and controller bookkeeping divergent) demands a
//! rollback, a failed rollback must be surfaced so the next tick can
//! re-pin a safe program. [`RuntimeError`] distinguishes these so callers
//! (and tests) can react per class instead of pattern-matching strings.

use pipeleon_ir::{IrError, NodeId};
use pipeleon_verify::Violation;
use std::fmt;

/// Errors from the runtime controller and its target interactions.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A candidate failed verification before any target operation was
    /// attempted (the transaction never started). Carries the structural
    /// validation error and/or the plan-safety violations found.
    InvalidCandidate {
        /// The IR-level validation failure, when structure was the problem.
        source: Option<IrError>,
        /// Plan-safety violations from the [`pipeleon_verify`] verifier.
        violations: Vec<Violation>,
    },
    /// A deploy transaction failed after exhausting its retry budget.
    /// `attempts` counts every deploy call made (first try + retries).
    DeployFailed {
        /// Total deploy attempts made before giving up.
        attempts: u32,
        /// The last error observed from the target.
        source: IrError,
    },
    /// The target reported a successful deploy but its readback
    /// fingerprint does not match the candidate — the deploy was torn
    /// (old, partial, or stale program still running).
    TornDeploy {
        /// Fingerprint of the layout the controller deployed.
        expected: u64,
        /// Fingerprint the target actually reports.
        actual: u64,
    },
    /// A control-plane entry operation failed at one of its optimized
    /// sites. The controller has rolled the original-program mutation
    /// back, so the source of truth is unchanged.
    EntryOpFailed {
        /// The original-program table the operation addressed.
        table: NodeId,
        /// `"insert"` or `"remove"`.
        op: &'static str,
        /// What the target (or the recovery deploy) reported.
        source: Box<RuntimeError>,
    },
    /// A rollback / revert deploy itself failed; the target may be
    /// running a stale layout. The controller flags the condition
    /// (`health.pin_pending`) and re-attempts the pin on the next tick.
    RollbackFailed {
        /// The deploy failure that aborted the rollback.
        source: Box<RuntimeError>,
    },
    /// Any other IR-level failure (serialization, optimizer, validation).
    Ir(IrError),
}

impl RuntimeError {
    /// The innermost [`IrError`], when one caused this failure.
    pub fn ir_source(&self) -> Option<&IrError> {
        match self {
            RuntimeError::InvalidCandidate { source, .. } => source.as_ref(),
            RuntimeError::DeployFailed { source: e, .. } | RuntimeError::Ir(e) => Some(e),
            RuntimeError::EntryOpFailed { source, .. }
            | RuntimeError::RollbackFailed { source } => source.ir_source(),
            RuntimeError::TornDeploy { .. } => None,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidCandidate { source, violations } => {
                write!(f, "candidate rejected")?;
                if let Some(e) = source {
                    write!(f, ": {e}")?;
                }
                for v in violations {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
            RuntimeError::DeployFailed { attempts, source } => {
                write!(f, "deploy failed after {attempts} attempt(s): {source}")
            }
            RuntimeError::TornDeploy { expected, actual } => write!(
                f,
                "torn deploy: target fingerprint {actual:#018x} != expected {expected:#018x}"
            ),
            RuntimeError::EntryOpFailed { table, op, source } => {
                write!(
                    f,
                    "entry {op} on table {table} failed (rolled back): {source}"
                )
            }
            RuntimeError::RollbackFailed { source } => {
                write!(f, "rollback deploy failed (pin pending): {source}")
            }
            RuntimeError::Ir(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::InvalidCandidate { source, .. } => source
                .as_ref()
                .map(|e| e as &(dyn std::error::Error + 'static)),
            RuntimeError::DeployFailed { source: e, .. } | RuntimeError::Ir(e) => Some(e),
            RuntimeError::EntryOpFailed { source, .. }
            | RuntimeError::RollbackFailed { source } => Some(source.as_ref()),
            RuntimeError::TornDeploy { .. } => None,
        }
    }
}

impl From<IrError> for RuntimeError {
    fn from(e: IrError) -> Self {
        RuntimeError::Ir(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::DeployFailed {
            attempts: 3,
            source: IrError::Invalid("nic rejected".into()),
        };
        let s = e.to_string();
        assert!(s.contains("3 attempt"), "{s}");
        assert!(s.contains("nic rejected"), "{s}");
    }

    #[test]
    fn invalid_candidate_renders_violations() {
        let e = RuntimeError::InvalidCandidate {
            source: None,
            violations: vec![pipeleon_verify::Violation {
                code: pipeleon_verify::Code::ReorderHazard,
                message: "tables swapped without commuting".into(),
            }],
        };
        let s = e.to_string();
        assert!(s.contains("candidate rejected"), "{s}");
        assert!(s.contains("PV102"), "{s}");
        assert!(s.contains("swapped"), "{s}");
        assert!(e.ir_source().is_none());

        let with_ir = RuntimeError::InvalidCandidate {
            source: Some(IrError::Invalid("bad wiring".into())),
            violations: Vec::new(),
        };
        assert!(with_ir.to_string().contains("bad wiring"));
        assert!(with_ir.ir_source().is_some());
    }

    #[test]
    fn ir_source_unwraps_nested_errors() {
        let inner = IrError::Invalid("boom".into());
        let e = RuntimeError::EntryOpFailed {
            table: NodeId(3),
            op: "insert",
            source: Box::new(RuntimeError::RollbackFailed {
                source: Box::new(RuntimeError::Ir(inner.clone())),
            }),
        };
        assert_eq!(e.ir_source(), Some(&inner));
        let torn = RuntimeError::TornDeploy {
            expected: 1,
            actual: 2,
        };
        assert_eq!(torn.ir_source(), None);
    }
}
