//! Typed identifiers for servers and dispatchers.
//!
//! The paper's model (Section 2) has two kinds of participants: a set `S` of
//! `n` servers and a set `D` of `m` dispatchers. Using dedicated newtypes
//! instead of bare `usize` indices prevents the classic bug of indexing the
//! queue-length array with a dispatcher index (or vice versa), at zero runtime
//! cost.

use std::fmt;

/// Identifier of a server (an index into the cluster's rate / queue arrays).
///
/// # Example
/// ```
/// use scd_model::ServerId;
/// let s = ServerId::new(3);
/// assert_eq!(s.index(), 3);
/// assert_eq!(s.to_string(), "server#3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(usize);

impl ServerId {
    /// Creates a server identifier from its index.
    pub fn new(index: usize) -> Self {
        ServerId(index)
    }

    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server#{}", self.0)
    }
}

impl From<usize> for ServerId {
    fn from(index: usize) -> Self {
        ServerId(index)
    }
}

impl From<ServerId> for usize {
    fn from(id: ServerId) -> usize {
        id.0
    }
}

/// Identifier of a dispatcher (an entry point for client requests).
///
/// # Example
/// ```
/// use scd_model::DispatcherId;
/// let d = DispatcherId::new(0);
/// assert_eq!(d.index(), 0);
/// assert_eq!(d.to_string(), "dispatcher#0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DispatcherId(usize);

impl DispatcherId {
    /// Creates a dispatcher identifier from its index.
    pub fn new(index: usize) -> Self {
        DispatcherId(index)
    }

    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DispatcherId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dispatcher#{}", self.0)
    }
}

impl From<usize> for DispatcherId {
    fn from(index: usize) -> Self {
        DispatcherId(index)
    }
}

impl From<DispatcherId> for usize {
    fn from(id: DispatcherId) -> usize {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn server_id_round_trips_through_usize() {
        for i in [0usize, 1, 17, 9999] {
            let id = ServerId::new(i);
            assert_eq!(usize::from(id), i);
            assert_eq!(ServerId::from(i), id);
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn dispatcher_id_round_trips_through_usize() {
        for i in [0usize, 2, 31] {
            let id = DispatcherId::new(i);
            assert_eq!(usize::from(id), i);
            assert_eq!(DispatcherId::from(i), id);
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(ServerId::new(1) < ServerId::new(2));
        assert!(DispatcherId::new(0) < DispatcherId::new(5));
        let set: HashSet<ServerId> = (0..4).map(ServerId::new).collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn display_is_distinct_per_kind() {
        assert_eq!(ServerId::new(2).to_string(), "server#2");
        assert_eq!(DispatcherId::new(2).to_string(), "dispatcher#2");
    }
}
