//! Name-based registry of every dispatching policy in the workspace.
//!
//! The experiment harness selects policies by the names used in the paper's
//! figure legends ("SCD", "hLSQ", "JSQ(2)", ...). This module is the single
//! source of truth for that mapping.

use crate::argmin::ArgminFactory;
use crate::jiq::JiqFactory;
use crate::power_of_d::PowerOfDFactory;
use crate::random::{RoundRobinFactory, UniformRandomFactory, WeightedRandomFactory};
use crate::twf::TwfFactory;
use scd_core::estimator::ArrivalEstimator;
use scd_core::policy::ScdFactory;
use scd_core::solver::SolverKind;
use scd_model::PolicyFactory;

/// The names of all registered policies, in a stable presentation order
/// (SCD and the paper's six most competitive baselines first).
pub fn standard_policy_names() -> Vec<&'static str> {
    vec![
        "SCD",
        "SCD(alg1)",
        "TWF",
        "JSQ",
        "SED",
        "JSQ(2)",
        "hJSQ(2)",
        "JIQ",
        "hJIQ",
        "LSQ",
        "hLSQ",
        "WR",
        "LED",
        "hLED",
        "Random",
        "RoundRobin",
    ]
}

/// Builds the factory registered under `name`, or `None` for an unknown name.
///
/// # Example
/// ```
/// use scd_policies::factory_by_name;
/// let f = factory_by_name("hLSQ").expect("registered policy");
/// assert_eq!(f.name(), "hLSQ");
/// assert!(factory_by_name("no-such-policy").is_none());
/// ```
pub fn factory_by_name(name: &str) -> Option<Box<dyn PolicyFactory>> {
    let factory: Box<dyn PolicyFactory> = match name {
        "SCD" => Box::new(ScdFactory::new()),
        "SCD(alg1)" => Box::new(ScdFactory::with_options(
            ArrivalEstimator::ScaledByDispatchers,
            SolverKind::Quadratic,
        )),
        "TWF" => Box::new(TwfFactory::new()),
        "JSQ" => Box::new(ArgminFactory::jsq()),
        "SED" => Box::new(ArgminFactory::sed()),
        "JSQ(2)" => Box::new(PowerOfDFactory::uniform(2)),
        "JSQ(3)" => Box::new(PowerOfDFactory::uniform(3)),
        "hJSQ(2)" => Box::new(PowerOfDFactory::heterogeneous(2)),
        "hJSQ(3)" => Box::new(PowerOfDFactory::heterogeneous(3)),
        "JIQ" => Box::new(JiqFactory::new()),
        "hJIQ" => Box::new(JiqFactory::heterogeneous()),
        "LSQ" => Box::new(ArgminFactory::lsq()),
        "hLSQ" => Box::new(ArgminFactory::hlsq()),
        "WR" => Box::new(WeightedRandomFactory::new()),
        "LED" => Box::new(ArgminFactory::led()),
        "hLED" => Box::new(ArgminFactory::hled()),
        "Random" => Box::new(UniformRandomFactory::new()),
        "RoundRobin" => Box::new(RoundRobinFactory::new()),
        _ => return None,
    };
    Some(factory)
}

/// Factories for every registered policy, in presentation order.
pub fn all_standard_factories() -> Vec<Box<dyn PolicyFactory>> {
    standard_policy_names()
        .into_iter()
        .map(|name| factory_by_name(name).expect("every standard name is registered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scd_model::{ClusterSpec, DispatchContext, DispatcherId};

    #[test]
    fn every_standard_name_resolves() {
        for name in standard_policy_names() {
            let factory =
                factory_by_name(name).unwrap_or_else(|| panic!("policy {name} is not registered"));
            assert_eq!(factory.name(), name);
        }
        assert!(factory_by_name("bogus").is_none());
    }

    #[test]
    fn paper_figure_policies_are_all_available() {
        // The six competitive baselines of Figures 3–4 plus the four of
        // Figures 6–7 and the SCD variants of Figures 5/8.
        for name in [
            "SCD",
            "SCD(alg1)",
            "TWF",
            "JSQ",
            "SED",
            "hJSQ(2)",
            "hJIQ",
            "hLSQ",
            "JSQ(2)",
            "JIQ",
            "LSQ",
            "WR",
        ] {
            assert!(
                factory_by_name(name).is_some(),
                "{name} missing from registry"
            );
        }
    }

    #[test]
    fn all_factories_produce_working_policies() {
        let spec = ClusterSpec::from_rates(vec![4.0, 2.0, 1.0, 0.5]).unwrap();
        let queues = vec![3u64, 0, 5, 1];
        let ctx = DispatchContext::new(&queues, spec.rates(), 3, 0);
        let mut rng = StdRng::seed_from_u64(1234);
        for factory in all_standard_factories() {
            let mut policy = factory.build(DispatcherId::new(0), &spec);
            policy.observe_round(&ctx, &mut rng);
            let out = policy.dispatch_batch(&ctx, 9, &mut rng);
            assert_eq!(
                out.len(),
                9,
                "policy {} returned a wrong batch",
                factory.name()
            );
            assert!(
                out.iter().all(|s| s.index() < 4),
                "policy {} produced an out-of-range destination",
                factory.name()
            );
        }
    }

    #[test]
    fn factories_are_independent_per_dispatcher() {
        // Stateful policies (LSQ) must not share state across dispatchers.
        let spec = ClusterSpec::from_rates(vec![1.0, 1.0]).unwrap();
        let factory = factory_by_name("LSQ").unwrap();
        let queues = vec![0u64, 0];
        let ctx = DispatchContext::new(&queues, spec.rates(), 2, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut d0 = factory.build(DispatcherId::new(0), &spec);
        let mut d1 = factory.build(DispatcherId::new(1), &spec);
        let _ = d0.dispatch_batch(&ctx, 4, &mut rng);
        // d1's local array must still be pristine: its next dispatch with an
        // all-zero local view splits across both servers.
        let out = d1.dispatch_batch(&ctx, 2, &mut rng);
        let mut targets: Vec<usize> = out.iter().map(|s| s.index()).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1]);
    }
}
