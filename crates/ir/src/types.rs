//! Core identifier types and the per-program field space.

use std::collections::HashSet;
use std::fmt;

/// Index of a node (table or branch) within a [`crate::ProgramGraph`].
///
/// Node ids are dense: they index directly into the graph's node vector.
/// Transformations that remove nodes leave tombstones rather than renumber,
/// so ids handed out by the optimizer's counter/entry maps stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The integer index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a concrete entry within a table's entry list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u32);

impl EntryId {
    /// The integer index of this entry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to an interned packet header field.
///
/// Fields are interned once per program in a [`FieldSpace`]; simulator
/// packets are then flat `Vec<u64>` slot arrays indexed by `FieldRef`, which
/// keeps per-packet processing allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRef(pub u16);

impl FieldRef {
    /// The integer slot index of this field.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// How many names a [`FieldSpace`] holds: a [`FieldRef`] is a `u16`.
const MAX_FIELDS: usize = u16::MAX as usize;

/// The set of header fields a program reads or writes, interned by name.
///
/// Typical names follow P4 conventions such as `"ipv4.dst"` or
/// `"tcp.sport"`, but any string is accepted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldSpace {
    names: Vec<String>,
}

impl FieldSpace {
    /// Creates an empty field space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing reference if already present.
    pub fn intern(&mut self, name: &str) -> FieldRef {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return FieldRef(pos as u16);
        }
        assert!(
            self.names.len() < MAX_FIELDS,
            "field space overflow: more than {MAX_FIELDS} fields"
        );
        self.names.push(name.to_owned());
        FieldRef((self.names.len() - 1) as u16)
    }

    /// Looks up a field by name without interning.
    pub fn get(&self, name: &str) -> Option<FieldRef> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|p| FieldRef(p as u16))
    }

    /// Returns the name of `field`, or `None` if it is not from this space.
    pub fn name(&self, field: FieldRef) -> Option<&str> {
        self.names.get(field.index()).map(String::as_str)
    }

    /// Number of interned fields (the required packet slot count).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no field has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(FieldRef, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (FieldRef, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (FieldRef(i as u16), n.as_str()))
    }
}

/// A program document's declared field list, interned in order (a
/// repeated name interns once). The one check both program loaders
/// share: a list of more distinct names than a [`FieldRef`] addresses is
/// an [`IrError::Invalid`], where [`FieldSpace::intern`] would panic.
impl TryFrom<&[String]> for FieldSpace {
    type Error = IrError;

    fn try_from(names: &[String]) -> Result<Self, IrError> {
        let mut seen = HashSet::with_capacity(names.len().min(MAX_FIELDS));
        let mut space = FieldSpace::new();
        for name in names {
            if !seen.insert(name.as_str()) {
                continue;
            }
            if space.names.len() == MAX_FIELDS {
                return Err(IrError::Invalid(format!(
                    "more than {MAX_FIELDS} field names"
                )));
            }
            space.names.push(name.clone());
        }
        Ok(space)
    }
}

/// Errors produced while constructing, validating, or transforming the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are named by their role
pub enum IrError {
    /// A node id referenced a node that does not exist (or was removed).
    UnknownNode(NodeId),
    /// A field reference pointed outside the program's field space.
    UnknownField(FieldRef),
    /// The graph contains a cycle; P4 control flow must be a DAG.
    CyclicGraph { at: NodeId },
    /// The graph has no root configured.
    NoRoot,
    /// A table entry is malformed (wrong arity, bad action index, …).
    BadEntry { table: NodeId, reason: String },
    /// A table definition is malformed.
    BadTable { table: NodeId, reason: String },
    /// Generic structural violation with context.
    Invalid(String),
    /// JSON (de)serialization failure, with context.
    Json(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownNode(id) => write!(f, "unknown node {id}"),
            IrError::UnknownField(fr) => write!(f, "unknown field {fr}"),
            IrError::CyclicGraph { at } => write!(f, "control-flow cycle detected at {at}"),
            IrError::NoRoot => write!(f, "program has no root node"),
            IrError::BadEntry { table, reason } => {
                write!(f, "bad entry in table {table}: {reason}")
            }
            IrError::BadTable { table, reason } => write!(f, "bad table {table}: {reason}"),
            IrError::Invalid(msg) => write!(f, "invalid program: {msg}"),
            IrError::Json(msg) => write!(f, "json error: {msg}"),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_space_interns_unique_names_once() {
        let mut fs = FieldSpace::new();
        let a = fs.intern("ipv4.src");
        let b = fs.intern("ipv4.dst");
        let a2 = fs.intern("ipv4.src");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn field_space_lookup_and_names() {
        let mut fs = FieldSpace::new();
        let a = fs.intern("tcp.sport");
        assert_eq!(fs.get("tcp.sport"), Some(a));
        assert_eq!(fs.get("tcp.dport"), None);
        assert_eq!(fs.name(a), Some("tcp.sport"));
        assert_eq!(fs.name(FieldRef(99)), None);
    }

    #[test]
    fn field_space_iteration_order_is_interning_order() {
        let mut fs = FieldSpace::new();
        fs.intern("a");
        fs.intern("b");
        fs.intern("c");
        let names: Vec<&str> = fs.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = IrError::CyclicGraph { at: NodeId(3) };
        assert!(e.to_string().contains("n3"));
        let e = IrError::BadEntry {
            table: NodeId(1),
            reason: "arity".into(),
        };
        assert!(e.to_string().contains("arity"));
    }
}
