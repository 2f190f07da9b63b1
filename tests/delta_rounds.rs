//! Equivalence guarantees of the delta-aware round machinery (PR 5).
//!
//! The engine's round-to-round dirty sets, the `RoundCache` delta refresh,
//! the SCD dispatch table repaired from them and the dirty-set-driven warm
//! JSQ/SED trees are all **pure accelerators**: for equal seeds they must
//! change costs, never choices. These tests pin that down at the report
//! level — bitwise `SimReport` equality — across randomized multi-round
//! configurations, in both `Simulation::run` and `ShardedSimulation`
//! (k ∈ {1, 2, 4}), and across policy switches mid-suite (interleaved
//! warm/cold runs sharing nothing but the configuration).
//!
//! "Warm" SCD is the default: one table per round in the shared cache,
//! repaired from the dirty sets. "Cold" SCD declines the cache, so every
//! dispatch sorts a private table from scratch.

use scd::prelude::*;
use scd_model::{BoxedPolicy, CacheDemand};

/// SCD without the shared round cache: each dispatch builds and sorts a
/// private table.
struct CachelessScd(ScdPolicy);

impl DispatchPolicy for CachelessScd {
    fn policy_name(&self) -> &str {
        self.0.policy_name()
    }

    fn round_cache_demand(&self) -> CacheDemand {
        CacheDemand::None
    }

    fn dispatch_into(
        &mut self,
        ctx: &DispatchContext<'_>,
        batch: usize,
        out: &mut Vec<ServerId>,
        rng: &mut dyn rand::RngCore,
    ) {
        self.0.dispatch_into(ctx, batch, out, rng);
    }
}

/// Factory of [`CachelessScd`] policies.
struct ColdScdFactory;

impl PolicyFactory for ColdScdFactory {
    fn name(&self) -> &str {
        "SCD"
    }

    fn build(&self, _dispatcher: DispatcherId, _spec: &ClusterSpec) -> BoxedPolicy {
        Box::new(CachelessScd(ScdPolicy::new()))
    }
}

fn config(n: usize, m: usize, load: f64, rounds: u64, seed: u64, homogeneous: bool) -> SimConfig {
    let rates: Vec<f64> = if homogeneous {
        vec![2.0; n]
    } else {
        (0..n).map(|s| 1.0 + (s % 7) as f64 * 1.5).collect()
    };
    SimConfig::builder(ClusterSpec::from_rates(rates).unwrap())
        .dispatchers(m)
        .rounds(rounds)
        .warmup_rounds(rounds / 10)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: load })
        .build()
        .unwrap()
}

/// Warm SCD must reproduce cold SCD bit for bit: same solver inputs, same
/// seeds, reports compare equal — across heterogeneous and homogeneous
/// clusters (the latter maximize exact key ties and take class groups) and
/// light to near-critical loads.
#[test]
fn warm_and_cold_scd_runs_are_bit_identical() {
    for (case, (n, m, load, homogeneous)) in [
        (30usize, 4usize, 0.85, false),
        (20, 10, 0.99, false),
        (16, 3, 0.6, true),
        (40, 6, 0.95, true),
    ]
    .into_iter()
    .enumerate()
    {
        for seed in [1u64, 7, 2021] {
            let sim = Simulation::new(config(n, m, load, 1_200, seed, homogeneous)).unwrap();
            let warm = sim.run(&ScdFactory::new()).unwrap();
            let cold = sim.run(&ColdScdFactory).unwrap();
            assert_eq!(
                warm, cold,
                "case {case} seed {seed}: the repaired shared table diverged from private re-sorts"
            );
        }
    }
}

/// Withholding the engine's dirty sets (`with_delta_rounds(false)`) must be
/// invisible to every policy: dirty sets and the cache delta refresh change
/// costs only.
#[test]
fn delta_tracking_on_and_off_produce_identical_reports() {
    let factories: Vec<Box<dyn PolicyFactory>> = vec![
        Box::new(ScdFactory::new()),
        Box::new(ArgminFactory::jsq()),
        Box::new(ArgminFactory::sed()),
        Box::new(ArgminFactory::lsq()),
        Box::new(ArgminFactory::hlsq()),
        Box::new(ArgminFactory::led()),
        Box::new(TwfFactory::new()),
        Box::new(WeightedRandomFactory::new()),
    ];
    for seed in [3u64, 11] {
        let cfg = config(24, 5, 0.92, 1_000, seed, false);
        let with_deltas = Simulation::new(cfg.clone()).unwrap();
        let without = Simulation::new(cfg).unwrap().with_delta_rounds(false);
        for factory in &factories {
            let a = with_deltas.run(factory.as_ref()).unwrap();
            let b = without.run(factory.as_ref()).unwrap();
            assert_eq!(
                a,
                b,
                "seed {seed}: delta tracking changed {}'s trajectory",
                factory.name()
            );
        }
    }
}

/// The warm JSQ/SED trees repaired from the engine's dirty set must agree
/// bit for bit with their scan oracles (which share the warm priority
/// lifecycle but re-scan every pick), over full simulations.
#[test]
fn warm_jsq_sed_match_their_scan_oracles() {
    for seed in [1u64, 9, 77] {
        let sim = Simulation::new(config(28, 4, 0.93, 1_500, seed, false)).unwrap();
        let jsq_indexed = sim.run(&ArgminFactory::jsq()).unwrap();
        let jsq_scan = sim.run(&ArgminFactory::jsq().scan()).unwrap();
        assert_eq!(jsq_indexed, jsq_scan, "seed {seed}: JSQ warm tree vs scan");
        let sed_indexed = sim.run(&ArgminFactory::sed()).unwrap();
        let sed_scan = sim.run(&ArgminFactory::sed().scan()).unwrap();
        assert_eq!(sed_indexed, sed_scan, "seed {seed}: SED warm tree vs scan");
    }
}

/// Warm-vs-cold equivalence under the sharded engine: each shard runs its
/// own delta-tracked round loop with its own caches and seeds, so the
/// guarantee must hold for every shard count — including k = 1, which is
/// additionally pinned to the unsharded engine elsewhere.
#[test]
fn warm_and_cold_scd_match_under_sharding() {
    for k in [1usize, 2, 4] {
        for seed in [5u64, 42] {
            let cfg = config(24, 8, 0.9, 1_000, seed, false);
            let sharded = ShardedSimulation::new(cfg, k).unwrap();
            let warm = sharded.run(&ScdFactory::new()).unwrap();
            let cold = sharded.run(&ColdScdFactory).unwrap();
            assert_eq!(warm, cold, "k={k} seed {seed}: sharded warm SCD diverged");
            // The parallel shard schedule must not perturb the warm path
            // either (per-shard state is thread-confined).
            let warm_parallel = sharded.run_parallel(&ScdFactory::new(), k).unwrap();
            assert_eq!(warm, warm_parallel, "k={k} seed {seed}: parallel warm");
        }
    }
}

/// Policy switches mid-suite: a comparison run interleaves policy families
/// over one configuration (fresh policy instances and caches per run), so
/// warm state from one family must never leak into another. The warm SCD
/// inside a mixed suite must equal the cold SCD inside the same suite *and*
/// a standalone warm run.
#[test]
fn warm_state_does_not_leak_across_policy_switches_mid_suite() {
    let cfg = config(30, 5, 0.9, 1_200, 13, false);
    let warm_scd = ScdFactory::new();
    let cold_scd = ColdScdFactory;
    let jsq = ArgminFactory::jsq();
    let lsq = ArgminFactory::lsq();
    let sed = ArgminFactory::sed();
    // Interleave so every SCD run is sandwiched between other families.
    let factories: [&dyn PolicyFactory; 5] = [&jsq, &warm_scd, &lsq, &cold_scd, &sed];
    let suite = run_comparison(&cfg, &factories).unwrap();
    assert_eq!(
        suite.reports[1], suite.reports[3],
        "warm and cold SCD diverged inside the mixed suite"
    );
    let standalone = Simulation::new(cfg).unwrap().run(&warm_scd).unwrap();
    assert_eq!(
        suite.reports[1], standalone,
        "suite interleaving changed the warm SCD trajectory"
    );
    // The parallel comparison runner must agree as well.
    let parallel = run_comparison_parallel(&suite_config(), &factories, 4).unwrap();
    assert_eq!(suite.reports, parallel.reports);
}

fn suite_config() -> SimConfig {
    config(30, 5, 0.9, 1_200, 13, false)
}

/// Direct-invocation safety: a warm policy driven without `observe_round`
/// (as tests and examples do) and one driven through the engine contract
/// must both stay internally consistent; here we pin the contract
/// documented on `DispatchPolicy` — dispatch_batch and dispatch_into agree
/// for warm JSQ across consecutive synthetic rounds with dirty sets.
#[test]
fn warm_jsq_direct_use_matches_engine_style_use() {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    let rates = vec![1.0, 2.0, 4.0, 1.0, 2.0, 1.0];
    let mut queues = vec![3u64, 1, 4, 1, 5, 9];
    let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
    let mut direct = ArgminFactory::jsq().build(DispatcherId::new(0), &spec);
    let mut engine_style = ArgminFactory::jsq().build(DispatcherId::new(0), &spec);
    let mut rng_a = StdRng::seed_from_u64(99);
    let mut rng_b = StdRng::seed_from_u64(99);
    let mut dirty: Vec<u32> = Vec::new();
    for round in 0..200u64 {
        let ctx_plain = DispatchContext::new(&queues, &rates, 2, round);
        let ctx_dirty = if round == 0 {
            DispatchContext::new(&queues, &rates, 2, round)
        } else {
            DispatchContext::new(&queues, &rates, 2, round).with_dirty(&dirty)
        };
        // Engine style: observe every round, dirty set provided.
        engine_style.observe_round(&ctx_dirty, &mut rng_b);
        let batch = (round % 4) as usize;
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        direct.dispatch_into(&ctx_plain, batch, &mut out_a, &mut rng_a);
        engine_style.dispatch_into(&ctx_dirty, batch, &mut out_b, &mut rng_b);
        assert_eq!(
            out_a, out_b,
            "round {round}: dirty availability changed picks"
        );
        assert_eq!(
            rng_a.next_u64(),
            rng_b.next_u64(),
            "round {round}: RNG drift"
        );
        // Evolve the queues like an engine round would: placements + a
        // deterministic departure pattern; record the dirty set.
        dirty.clear();
        let mut flags = vec![false; queues.len()];
        for s in out_a.iter().map(|s| s.index()) {
            queues[s] += 1;
            if !flags[s] {
                flags[s] = true;
                dirty.push(s as u32);
            }
        }
        let drain = (round % queues.len() as u64) as usize;
        if queues[drain] > 0 {
            queues[drain] -= 1;
            if !flags[drain] {
                flags[drain] = true;
                dirty.push(drain as u32);
            }
        }
    }
}
