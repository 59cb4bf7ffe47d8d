//! Aggregation-group keys.

use std::collections::HashMap;
use std::fmt;

use crate::value::Value;

/// Dense identifier of an interned [`GroupKey`].
pub type GroupId = u32;

/// The grouping-attribute values `g = r.A` that identify one aggregation
/// group, e.g. `(Proj = "A")` in the paper's running example.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct GroupKey(Box<[Value]>);

impl GroupKey {
    /// Creates a key from grouping-attribute values.
    pub fn new(values: Vec<Value>) -> Self {
        Self(values.into_boxed_slice())
    }

    /// The empty key used when a query has no grouping attributes — all
    /// tuples then belong to a single group.
    pub fn empty() -> Self {
        Self(Box::new([]))
    }

    /// The key's values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "()");
        }
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Interner assigning dense [`GroupId`]s to group keys: the one key table
/// behind [`crate::SequentialBuilder`] and the streaming greedy reducers.
///
/// ITA result relations are sorted by group; interning lets the downstream
/// algorithms compare groups with a single integer comparison. The hash
/// index is built lazily: a table that is only read by id (one moved over
/// from [`GroupInterner::from_keys`]) never hashes its keys.
#[derive(Debug, Default)]
pub struct GroupInterner {
    keys: Vec<GroupKey>,
    ids: HashMap<GroupKey, GroupId>,
    /// `keys[..indexed]` are in `ids`.
    indexed: usize,
}

impl GroupInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An interner over an existing key table, where key `i` has id `i`.
    /// The keys are hashed only on the first lookup by key.
    pub fn from_keys(keys: Vec<GroupKey>) -> Self {
        Self { keys, ids: HashMap::new(), indexed: 0 }
    }

    /// Returns the id for `key`, interning it on first sight.
    pub fn intern(&mut self, key: GroupKey) -> GroupId {
        if let Some(id) = self.get(&key) {
            return id;
        }
        let id = self.keys.len() as GroupId;
        self.keys.push(key.clone());
        self.ids.insert(key, id);
        self.indexed = self.keys.len();
        id
    }

    /// The id of `key`, if interned.
    pub fn get(&mut self, key: &GroupKey) -> Option<GroupId> {
        for (id, k) in self.keys.iter().enumerate().skip(self.indexed) {
            self.ids.entry(k.clone()).or_insert(id as GroupId);
        }
        self.indexed = self.keys.len();
        self.ids.get(key).copied()
    }

    /// The key for `id`, if interned.
    #[inline]
    pub fn key(&self, id: GroupId) -> Option<&GroupKey> {
        self.keys.get(id as usize)
    }

    /// Number of interned keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no keys have been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Consumes the interner, returning keys indexed by id.
    pub fn into_keys(self) -> Vec<GroupKey> {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut interner = GroupInterner::new();
        let a = interner.intern(GroupKey::new(vec![Value::str("A")]));
        let b = interner.intern(GroupKey::new(vec![Value::str("B")]));
        let a2 = interner.intern(GroupKey::new(vec![Value::str("A")]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.key(b).unwrap().values(), &[Value::str("B")]);
    }

    #[test]
    fn a_moved_key_table_is_indexed_on_first_lookup() {
        let (a, b) = (GroupKey::new(vec![Value::str("A")]), GroupKey::new(vec![Value::str("B")]));
        let mut interner = GroupInterner::from_keys(vec![a.clone(), b.clone()]);
        assert_eq!(interner.key(1), Some(&b));
        assert_eq!(interner.get(&a), Some(0));
        assert_eq!(interner.intern(b), 1);
        assert_eq!(interner.intern(GroupKey::empty()), 2);
        assert_eq!(interner.into_keys().len(), 3);
    }

    #[test]
    fn empty_key_displays_as_unit() {
        assert_eq!(GroupKey::empty().to_string(), "()");
        assert_eq!(GroupKey::new(vec![Value::str("A"), Value::Int(3)]).to_string(), "(A, 3)");
    }
}
