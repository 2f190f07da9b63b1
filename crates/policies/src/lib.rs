//! Baseline dispatching policies for the SCD reproduction.
//!
//! The paper's evaluation (Section 6.1) compares SCD against ten other
//! dispatching techniques; this crate implements all of them plus a few
//! extras used in ablations and examples:
//!
//! | Paper name | Type | Heterogeneity aware? |
//! |---|---|---|
//! | `JSQ` | [`argmin::ArgminFactory::jsq`] | no |
//! | `SED` | [`argmin::ArgminFactory::sed`] | yes (ranks by `(q+1)/µ`) |
//! | `JSQ(d)` | [`power_of_d::PowerOfDFactory`] | no |
//! | `hJSQ(d)` | [`power_of_d::PowerOfDFactory::heterogeneous`] | yes |
//! | `JIQ` | [`jiq::JiqFactory`] | no |
//! | `hJIQ` | [`jiq::JiqFactory::heterogeneous`] | yes |
//! | `LSQ` | [`argmin::ArgminFactory::lsq`] | no |
//! | `hLSQ` | [`argmin::ArgminFactory::hlsq`] | yes |
//! | `WR` (weighted random) | [`random::WeightedRandomFactory`] | yes |
//! | `TWF` | [`twf::TwfFactory`] | no (by design — it is the rate-oblivious stochastic-coordination policy of \[22\]) |
//!
//! Extras: uniform random, round robin ([`random`]) and local-estimation
//! driven dispatching in the spirit of LED \[60\]
//! ([`argmin::ArgminFactory::led`], [`argmin::ArgminFactory::hled`]).
//!
//! All heterogeneity-aware (`h*`) variants follow footnote 6 of the paper:
//! servers are *ranked* by their expected delay `(q_s+1)/µ_s` instead of
//! their queue length, and random *sampling* of servers is proportional to
//! `µ_s` instead of uniform.
//!
//! The [`registry`] module maps policy names (as used in the paper's figures)
//! to factories, which is how the experiment harness selects policies.
//!
//! JSQ, SED, LSQ, hLSQ, LED and hLED are one policy ([`argmin`]): a rank
//! (queue length or expected delay) over a per-dispatcher view (the shared
//! snapshot or probed estimates). They answer their per-job "best server"
//! queries through the [`BatchArgmin`] indexed queue view ([`common`]) — a
//! tournament tree with `O(log n)` incremental updates; a scan mode picking
//! bit-identical servers for equal seeds ([`ArgminMode::Scan`]) is retained
//! as the test oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod argmin;
pub mod common;
pub mod jiq;
pub mod power_of_d;
pub mod random;
pub mod registry;
pub mod twf;

pub use argmin::{ArgminFactory, ArgminPolicy};
pub use common::{ArgminMode, BatchArgmin, PRIORITY_EPOCH_BATCHES};
pub use jiq::JiqFactory;
pub use power_of_d::PowerOfDFactory;
pub use random::{RoundRobinFactory, UniformRandomFactory, WeightedRandomFactory};
pub use registry::{all_standard_factories, factory_by_name, standard_policy_names};
pub use twf::TwfFactory;
