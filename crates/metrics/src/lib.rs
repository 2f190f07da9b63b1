//! Metrics substrate for the SCD load-balancing reproduction.
//!
//! The paper's evaluation (Section 6) reports two families of quantities:
//!
//! * **Response-time statistics** — mean response time and the tail
//!   (CCDF / high percentiles) of the number of rounds a job spends in the
//!   system. [`ResponseTimeHistogram`] stores the full integer-valued
//!   distribution so both can be extracted exactly.
//! * **Execution run-time distributions** — the CDF of per-decision
//!   computation times (Figures 5 and 8). [`DecisionTimeHistogram`] records
//!   them into fixed log-scale count buckets (`O(1)`, allocation-free — safe
//!   to run on the timed hot path).
//!
//! Supporting types: [`QueueLengthTracker`] (per-server time-average queue
//! statistics and the occupancy histogram used by the stability tests and
//! the mean-field comparisons) and [`Table`] (plain-text and CSV rendering
//! used by the experiment harness).
//!
//! # Example
//!
//! ```
//! use scd_metrics::ResponseTimeHistogram;
//! let mut hist = ResponseTimeHistogram::new();
//! for rt in [1u64, 1, 2, 3, 10] {
//!     hist.record(rt);
//! }
//! assert_eq!(hist.count(), 5);
//! assert!((hist.mean() - 3.4).abs() < 1e-12);
//! assert_eq!(hist.percentile(0.99), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod histogram;
pub mod queue;
pub mod table;
pub mod timing;

pub use counts::merge_saturating_counts;
pub use histogram::{HistogramSummary, ResponseTimeHistogram};
pub use queue::QueueLengthTracker;
pub use table::Table;
pub use timing::DecisionTimeHistogram;
