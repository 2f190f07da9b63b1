//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or validating model objects.
///
/// Every variant carries enough context to explain *which* input was invalid,
/// so that a misconfigured experiment fails with an actionable message instead
/// of a generic panic deep inside a policy.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A cluster was specified with zero servers.
    EmptyCluster,
    /// A service rate was not strictly positive and finite.
    InvalidRate {
        /// Index of the offending server.
        server: usize,
        /// The rejected rate value.
        rate: f64,
    },
    /// A probability vector had the wrong length for the cluster.
    ProbabilityLength {
        /// Number of entries supplied.
        got: usize,
        /// Number of servers expected.
        expected: usize,
    },
    /// A probability entry was negative, NaN or infinite.
    InvalidProbability {
        /// Index of the offending entry.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// A weighted sampler was constructed from an empty or all-zero weight
    /// vector.
    DegenerateWeights,
    /// A policy returned an assignment whose length does not match the number
    /// of jobs it was asked to place.
    AssignmentArity {
        /// Number of destinations returned by the policy.
        got: usize,
        /// Number of jobs in the batch.
        expected: usize,
    },
    /// A policy returned a destination server that does not exist.
    UnknownServer {
        /// The offending server index.
        server: usize,
        /// Number of servers in the cluster.
        num_servers: usize,
    },
    /// A policy dispatched to a server that is down under the active
    /// scenario's availability mask.
    ServerDown {
        /// The offending server index.
        server: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyCluster => write!(f, "cluster must contain at least one server"),
            ModelError::InvalidRate { server, rate } => write!(
                f,
                "service rate of server {server} must be finite and strictly positive, got {rate}"
            ),
            ModelError::ProbabilityLength { got, expected } => write!(
                f,
                "probability vector has {got} entries but the cluster has {expected} servers"
            ),
            ModelError::InvalidProbability { index, value } => write!(
                f,
                "probability entry {index} must be a finite non-negative number, got {value}"
            ),
            ModelError::DegenerateWeights => {
                write!(f, "weighted sampler requires at least one strictly positive weight")
            }
            ModelError::AssignmentArity { got, expected } => write!(
                f,
                "policy returned {got} destinations for a batch of {expected} jobs"
            ),
            ModelError::UnknownServer { server, num_servers } => write!(
                f,
                "policy dispatched to server {server} but the cluster only has {num_servers} servers"
            ),
            ModelError::ServerDown { server } => write!(
                f,
                "policy dispatched to server {server}, which is down under the active scenario"
            ),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ModelError, &str)> = vec![
            (ModelError::EmptyCluster, "at least one server"),
            (
                ModelError::InvalidRate {
                    server: 3,
                    rate: -1.0,
                },
                "server 3",
            ),
            (
                ModelError::ProbabilityLength {
                    got: 2,
                    expected: 5,
                },
                "2 entries",
            ),
            (
                ModelError::InvalidProbability {
                    index: 1,
                    value: f64::NAN,
                },
                "entry 1",
            ),
            (ModelError::DegenerateWeights, "strictly positive weight"),
            (
                ModelError::AssignmentArity {
                    got: 1,
                    expected: 4,
                },
                "batch of 4",
            ),
            (
                ModelError::UnknownServer {
                    server: 9,
                    num_servers: 4,
                },
                "server 9",
            ),
            (ModelError::ServerDown { server: 2 }, "server 2"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "message {msg:?} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn error_trait_object_is_usable() {
        let err: Box<dyn Error> = Box::new(ModelError::EmptyCluster);
        assert!(err.source().is_none());
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ModelError::EmptyCluster, ModelError::EmptyCluster);
        assert_ne!(ModelError::EmptyCluster, ModelError::DegenerateWeights);
    }
}
