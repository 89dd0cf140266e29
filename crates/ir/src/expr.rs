//! Branch condition expressions over packet fields.
//!
//! P4 `if`/`else` conditions are modeled as a small boolean expression tree
//! over field comparisons. The cost model treats branches as (nearly) free —
//! they need no memory access — but the simulator still evaluates them for
//! real so control flow is faithful.

use crate::types::FieldRef;

/// Comparison operator for a field/constant comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to `(lhs, rhs)`.
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A boolean condition over packet fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true (used for synthesized placeholder branches).
    True,
    /// `field <op> constant`
    Compare {
        /// Field whose packet value is the left-hand side.
        field: FieldRef,
        /// Comparison operator.
        op: CmpOp,
        /// Constant right-hand side.
        value: u64,
    },
    /// `field <op> field`
    CompareFields {
        /// Left-hand-side field.
        lhs: FieldRef,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand-side field.
        rhs: FieldRef,
    },
    /// Logical conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Logical disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Logical negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Shorthand for `field == value`.
    pub fn eq(field: FieldRef, value: u64) -> Self {
        Condition::Compare {
            field,
            op: CmpOp::Eq,
            value,
        }
    }

    /// Shorthand for `field < value`.
    pub fn lt(field: FieldRef, value: u64) -> Self {
        Condition::Compare {
            field,
            op: CmpOp::Lt,
            value,
        }
    }

    /// Evaluates the condition against a packet's field slots.
    ///
    /// Out-of-range field references read as 0, which can only happen for
    /// programs that bypassed validation.
    pub fn eval(&self, slots: &[u64]) -> bool {
        match self {
            Condition::True => true,
            Condition::Compare { field, op, value } => {
                op.eval(slots.get(field.index()).copied().unwrap_or(0), *value)
            }
            Condition::CompareFields { lhs, op, rhs } => op.eval(
                slots.get(lhs.index()).copied().unwrap_or(0),
                slots.get(rhs.index()).copied().unwrap_or(0),
            ),
            Condition::And(a, b) => a.eval(slots) && b.eval(slots),
            Condition::Or(a, b) => a.eval(slots) || b.eval(slots),
            Condition::Not(a) => !a.eval(slots),
        }
    }

    /// Collects every field the condition reads into `out`.
    pub fn read_fields(&self, out: &mut Vec<FieldRef>) {
        match self {
            Condition::True => {}
            Condition::Compare { field, .. } => out.push(*field),
            Condition::CompareFields { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Condition::And(a, b) | Condition::Or(a, b) => {
                a.read_fields(out);
                b.read_fields(out);
            }
            Condition::Not(a) => a.read_fields(out),
        }
    }

    /// The number of comparison leaves, used by the cost model to weight
    /// complex branches (still far cheaper than a table lookup).
    pub fn num_comparisons(&self) -> usize {
        match self {
            Condition::True => 0,
            Condition::Compare { .. } | Condition::CompareFields { .. } => 1,
            Condition::And(a, b) | Condition::Or(a, b) => a.num_comparisons() + b.num_comparisons(),
            Condition::Not(a) => a.num_comparisons(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_truth_table() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(3, 4));
        assert!(CmpOp::Le.eval(4, 4));
        assert!(CmpOp::Gt.eval(5, 4));
        assert!(CmpOp::Ge.eval(4, 4));
        assert!(!CmpOp::Lt.eval(4, 4));
    }

    #[test]
    fn condition_eval_and_composition() {
        let slots = vec![10u64, 20, 30];
        let c = Condition::And(
            Box::new(Condition::eq(FieldRef(0), 10)),
            Box::new(Condition::lt(FieldRef(1), 25)),
        );
        assert!(c.eval(&slots));
        let c = Condition::Or(
            Box::new(Condition::eq(FieldRef(0), 99)),
            Box::new(Condition::Not(Box::new(Condition::eq(FieldRef(2), 31)))),
        );
        assert!(c.eval(&slots));
        assert!(Condition::True.eval(&[]));
    }

    #[test]
    fn compare_fields() {
        let slots = vec![7u64, 7, 9];
        let c = Condition::CompareFields {
            lhs: FieldRef(0),
            op: CmpOp::Eq,
            rhs: FieldRef(1),
        };
        assert!(c.eval(&slots));
        let c = Condition::CompareFields {
            lhs: FieldRef(0),
            op: CmpOp::Ge,
            rhs: FieldRef(2),
        };
        assert!(!c.eval(&slots));
    }

    #[test]
    fn read_fields_collects_all_leaves() {
        let c = Condition::And(
            Box::new(Condition::eq(FieldRef(1), 0)),
            Box::new(Condition::CompareFields {
                lhs: FieldRef(2),
                op: CmpOp::Ne,
                rhs: FieldRef(3),
            }),
        );
        let mut fields = Vec::new();
        c.read_fields(&mut fields);
        assert_eq!(fields, vec![FieldRef(1), FieldRef(2), FieldRef(3)]);
        assert_eq!(c.num_comparisons(), 2);
    }

    #[test]
    fn out_of_range_fields_read_zero() {
        let c = Condition::eq(FieldRef(5), 0);
        assert!(c.eval(&[1, 2]));
    }
}
