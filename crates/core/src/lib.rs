//! The SCD algorithm — the primary contribution of *"Stochastic Coordination
//! in Heterogeneous Load Balancing Systems"* (Goren, Vargaftik, Moses,
//! PODC 2021).
//!
//! The crate is organised exactly along the paper's Sections 3–5:
//!
//! * [`iwl`] — the *ideally balanced assignment* and the *ideal workload*
//!   (Eq. 1–2) computed by Algorithm 3 in `O(n log n)` (or `O(n)` given a
//!   pre-sorted order).
//! * [`solver`] — the stochastic-coordination quadratic program (Eq. 10) and
//!   its two solvers: Algorithm 1 (`O(n²)`) and Algorithm 4
//!   (`O(n log n)` / `O(n)` given the order), built on the KKT analysis and
//!   Lemmas 1–2 — the test oracles and Fig. 5/8 baselines of the dispatch
//!   kernel ([`scd_model::ScdTable`]), which [`solve_round_into`] runs on a
//!   private table ([`policy::ScdPolicy`] reads the engine's shared one).
//! * [`qp`] — reference machinery used to validate the fast solvers: the raw
//!   objective function, an exhaustive `2ⁿ` subset search and a KKT-condition
//!   checker.
//! * [`estimator`] — the arrival-estimation rule `a_est = m · a(d)` (Eq. 18)
//!   and alternatives used in ablations.
//! * [`policy`] — [`policy::ScdPolicy`], the complete dispatching procedure
//!   (Algorithm 2) packaged as a [`scd_model::DispatchPolicy`].
//! * [`stability`] — runtime checks of the Lemma 3 invariant used by the
//!   strong-stability analysis (Appendix D) and Lyapunov-drift helpers used
//!   by the stability integration tests.
//! * [`index`] — infrastructure shared with the baseline policies: the
//!   [`TournamentTree`] indexed queue view that turns the `O(n)`-per-job
//!   argmin scan of JSQ/SED-style dispatching into an `O(log n)` incremental
//!   query (see `ARCHITECTURE.md`, "Indexed queue views").
//!
//! # Quickstart
//!
//! ```
//! use scd_core::iwl::compute_iwl;
//! use scd_core::solver::{compute_probabilities, SolverKind};
//!
//! // Figure 1 of the paper: rates [5,2,1,1], queues [2,1,3,1], 7 arrivals.
//! let queues = [2u64, 1, 3, 1];
//! let rates = [5.0, 2.0, 1.0, 1.0];
//! let iwl = compute_iwl(&queues, &rates, 7.0);
//! assert!((iwl - 1.375).abs() < 1e-12);
//!
//! // The dispatching distribution a dispatcher would use when it estimates
//! // 7 total arrivals in the round.
//! let p = compute_probabilities(&queues, &rates, 7.0, iwl, SolverKind::Fast).unwrap();
//! assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod index;
pub mod iwl;
pub mod policy;
pub mod qp;
pub mod solver;
pub mod stability;

pub use estimator::ArrivalEstimator;
pub use index::{scan_argmin, TournamentTree};
pub use iwl::{compute_iwl, ideal_assignment, LoadOrder};
pub use policy::{ScdFactory, ScdPolicy};
pub use solver::{compute_probabilities, solve_round_into, ScdScratch, ScdSolution, SolverKind};
