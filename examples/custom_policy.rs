//! Shows how to plug a user-defined dispatching policy into the simulator and
//! benchmark it against SCD.
//!
//! The custom policy here is a simple "sticky weighted random": it samples a
//! server proportionally to `µ_s` but re-uses the previous pick while that
//! server's queue stays below a threshold — a plausible-looking heuristic
//! that turns out to be far from competitive, which is exactly the kind of
//! thing one wants to learn from a simulator before deploying.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_policy
//! ```

use rand::RngCore;
use scd::prelude::*;
use scd_model::BoxedPolicy;

/// A sticky weighted-random policy.
struct StickyWeightedRandom {
    /// The cluster's µ-proportional table, shared by every dispatcher.
    sampler: std::sync::Arc<scd_model::AliasSampler>,
    sticky_threshold: u64,
    current: Option<ServerId>,
}

impl StickyWeightedRandom {
    fn new(spec: &ClusterSpec, sticky_threshold: u64) -> Self {
        StickyWeightedRandom {
            sampler: spec.rate_sampler(),
            sticky_threshold,
            current: None,
        }
    }
}

impl DispatchPolicy for StickyWeightedRandom {
    fn policy_name(&self) -> &str {
        "StickyWR"
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn RngCore,
    ) {
        for _ in 0..batch {
            let target = match self.current {
                Some(server) if ctx.queue_len(server) < self.sticky_threshold => server,
                _ => {
                    let fresh = ServerId::new(self.sampler.sample(rng));
                    self.current = Some(fresh);
                    fresh
                }
            };
            out.push(target);
        }
    }
}

/// Factory so the simulator can build one instance per dispatcher.
struct StickyWeightedRandomFactory {
    sticky_threshold: u64,
}

impl PolicyFactory for StickyWeightedRandomFactory {
    fn name(&self) -> &str {
        "StickyWR"
    }

    fn build(&self, _dispatcher: DispatcherId, spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(StickyWeightedRandom::new(spec, self.sticky_threshold))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let spec = RateProfile::paper_moderate().materialize(30, &mut rng)?;

    let config = SimConfig::builder(spec)
        .dispatchers(4)
        .rounds(8_000)
        .warmup_rounds(800)
        .seed(3)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.85 })
        .build()?;

    let custom = StickyWeightedRandomFactory {
        sticky_threshold: 4,
    };
    let scd = ScdFactory::new();
    let wr = WeightedRandomFactory::new();
    let result = run_comparison(&config, &[&scd, &custom, &wr])?;

    println!("custom policy vs SCD and plain weighted random (load 0.85):");
    println!("{}", result.to_table());
    println!(
        "winner on mean response time: {}",
        result.best_by_mean().unwrap_or("-")
    );
    Ok(())
}
