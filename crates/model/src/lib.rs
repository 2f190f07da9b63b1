//! Shared model types for the SCD load-balancing reproduction.
//!
//! This crate defines the vocabulary that every other crate in the workspace
//! speaks:
//!
//! * [`ServerId`] / [`DispatcherId`] — typed identifiers for the two kinds of
//!   participants in the system model of the paper (Section 2).
//! * [`ClusterSpec`] — the static description of a heterogeneous cluster,
//!   i.e. the per-server processing rates `µ_s`.
//! * [`DispatchContext`] — the information a dispatcher observes at the
//!   beginning of a round (true queue lengths, rates, number of dispatchers).
//! * [`RoundCache`] — derived per-round tables (reciprocal rates, the SCD
//!   dispatch table) computed once per round and shared read-only by all
//!   dispatchers of a round (see `ARCHITECTURE.md`, "Per-round shared
//!   compute cache").
//! * [`ScdTable`] — the SCD dispatch kernel: key-sorted prefix sums, the
//!   per-dispatcher prefix solve and inverse-CDF draws.
//! * [`DispatchPolicy`] / [`PolicyFactory`] — the trait every dispatching
//!   policy implements, and the factory used by the simulator to instantiate
//!   one (stateful) policy object per dispatcher.
//! * [`AliasSampler`] — the `O(1)`-per-draw sampler for policies that are
//!   defined by a per-round probability distribution over servers (SCD,
//!   TWF, weighted random).
//! * [`streams`] — splitmix64 seed-stream derivation shared by the unsharded
//!   and sharded engines (per-stream tags, per-shard sub-masters).
//!
//! # Example
//!
//! ```
//! use scd_model::{ClusterSpec, DispatchContext, DispatchPolicy, ServerId};
//! use rand::SeedableRng;
//!
//! /// A toy policy that always picks the first server.
//! struct AlwaysFirst;
//!
//! impl DispatchPolicy for AlwaysFirst {
//!     fn policy_name(&self) -> &str { "always-first" }
//!     fn dispatch_into(
//!         &mut self,
//!         _ctx: &DispatchContext<'_>,
//!         batch: usize,
//!         out: &mut Vec<ServerId>,
//!         _rng: &mut dyn rand::RngCore,
//!     ) {
//!         out.resize(out.len() + batch, ServerId::new(0));
//!     }
//! }
//!
//! let spec = ClusterSpec::from_rates(vec![4.0, 1.0]).unwrap();
//! let queues = vec![3u64, 0u64];
//! let ctx = DispatchContext::new(&queues, spec.rates(), 2, 0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut policy = AlwaysFirst;
//! let targets = policy.dispatch_batch(&ctx, 3, &mut rng);
//! assert_eq!(targets.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classes;
pub mod degraded;
pub mod error;
pub mod ids;
pub mod key_order;
pub mod policy;
pub mod round_cache;
pub mod sampler;
pub mod scd_table;
pub mod snapshot;
pub mod spec;
pub mod state_bytes;
pub mod streams;

pub use classes::ClassPartition;
pub use degraded::{Availability, DegradedView, ProbeLossOracle};
pub use error::ModelError;
pub use ids::{DispatcherId, ServerId};
pub use key_order::KeyOrder;
pub use policy::{BoxedPolicy, DispatchPolicy, PolicyFactory};
pub use round_cache::{
    reciprocal_rates, refresh_reciprocal_rates, CacheDemand, RoundCache, TableBuilds,
};
pub use sampler::AliasSampler;
pub use scd_table::{DrawScratch, ScdTable, SINGLE_JOB_THRESHOLD};
pub use snapshot::DispatchContext;
pub use spec::{ClusterSpec, RateProfile};
pub use state_bytes::{ByteError, StateReader, StateWriter};
pub use streams::{counter_draw, derive_stream_seed, shard_master_seed, splitmix64_mix, unit_f64};
