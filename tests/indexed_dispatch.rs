//! Equivalence guarantees of the indexed queue views and the per-round
//! shared compute cache.
//!
//! The tournament-tree index (`scd_core::index`) and the `O(n)` scan both
//! minimize the same `(key, priority, index)` composite order and consume
//! the RNG identically, so indexed and scan dispatch must be **bit-identical**
//! — at the single-decision level and over whole simulations. The same holds
//! for the *warm* path (LSQ/LED keep one tree per instance across rounds and
//! repair only dirty keys; the scan oracle follows the identical per-instance
//! priority lifecycle). Likewise the engine's shared `RoundCache` computes
//! its tables with exactly the arithmetic the policies' private scratch
//! uses, so cached and cache-less decisions must coincide bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use scd::prelude::*;
use scd_core::index::{scan_argmin, TournamentTree};
use scd_model::RoundCache;

fn comparison_config(seed: u64) -> SimConfig {
    let spec = ClusterSpec::from_rates(vec![9.0, 6.0, 4.0, 2.0, 1.0, 1.0, 1.0]).unwrap();
    SimConfig::builder(spec)
        .dispatchers(4)
        .rounds(1_500)
        .warmup_rounds(150)
        .seed(seed)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.92 })
        .build()
        .unwrap()
}

#[test]
fn indexed_and_scan_jsq_runs_are_bit_identical() {
    for seed in [1u64, 7, 2021] {
        let simulation = Simulation::new(comparison_config(seed)).unwrap();
        let indexed = simulation.run(&ArgminFactory::jsq()).unwrap();
        let scan = simulation.run(&ArgminFactory::jsq().scan()).unwrap();
        assert_eq!(
            indexed, scan,
            "seed {seed}: indexed JSQ diverged from the scan reference"
        );
    }
}

#[test]
fn indexed_and_scan_sed_runs_are_bit_identical() {
    for seed in [1u64, 7, 2021] {
        let simulation = Simulation::new(comparison_config(seed)).unwrap();
        let indexed = simulation.run(&ArgminFactory::sed()).unwrap();
        let scan = simulation.run(&ArgminFactory::sed().scan()).unwrap();
        assert_eq!(
            indexed, scan,
            "seed {seed}: indexed SED diverged from the scan reference"
        );
    }
}

/// Single-decision fuzz: across random snapshots and batch sizes, indexed
/// and scan JSQ/SED append the same destinations and leave the RNG in the
/// same state.
#[test]
fn indexed_and_scan_policies_agree_per_decision() {
    let mut case_rng = StdRng::seed_from_u64(0x1DE7);
    for case in 0..150 {
        let n = case_rng.gen_range(1..40usize);
        let queues: Vec<u64> = (0..n).map(|_| case_rng.gen_range(0..25)).collect();
        let rates: Vec<f64> = (0..n).map(|_| case_rng.gen_range(0.5..20.0)).collect();
        let batch = case_rng.gen_range(0..60usize);
        let seed = case_rng.gen::<u64>();
        let ctx = DispatchContext::new(&queues, &rates, 3, 0);
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let d = DispatcherId::new(0);

        let run = |policy: &mut dyn DispatchPolicy| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            policy.dispatch_into(&ctx, batch, &mut out, &mut rng);
            (out, rng.next_u64())
        };

        let jsq_indexed = run(&mut *ArgminFactory::jsq().build(d, &spec));
        let jsq_scan = run(&mut *ArgminFactory::jsq().scan().build(d, &spec));
        assert_eq!(jsq_indexed, jsq_scan, "case {case}: JSQ modes diverged");

        let sed_indexed = run(&mut *ArgminFactory::sed().build(d, &spec));
        let sed_scan = run(&mut *ArgminFactory::sed().scan().build(d, &spec));
        assert_eq!(sed_indexed, sed_scan, "case {case}: SED modes diverged");
    }
}

/// Warm-tree LSQ/LED against the scan oracle, over whole simulations: the
/// warm tournament tree survives across rounds (priorities per instance,
/// dirty-key repair) and the scan mode follows the identical priority
/// lifecycle, so the two must produce bit-identical reports for equal seeds.
/// The runs are long enough to cross several priority epochs.
#[test]
fn warm_indexed_and_warm_scan_lsq_led_runs_are_bit_identical() {
    for seed in [1u64, 7, 2021] {
        let simulation = Simulation::new(comparison_config(seed)).unwrap();
        for (name, warm, oracle) in [
            ("LSQ", ArgminFactory::lsq(), ArgminFactory::lsq().scan()),
            ("hLSQ", ArgminFactory::hlsq(), ArgminFactory::hlsq().scan()),
        ] {
            let indexed = simulation.run(&warm).unwrap();
            let scan = simulation.run(&oracle).unwrap();
            assert_eq!(
                indexed, scan,
                "seed {seed}: warm {name} diverged from the scan oracle"
            );
        }
        for (name, warm, oracle) in [
            ("LED", ArgminFactory::led(), ArgminFactory::led().scan()),
            ("hLED", ArgminFactory::hled(), ArgminFactory::hled().scan()),
        ] {
            let indexed = simulation.run(&warm).unwrap();
            let scan = simulation.run(&oracle).unwrap();
            assert_eq!(
                indexed, scan,
                "seed {seed}: warm {name} diverged from the scan oracle"
            );
        }
    }
}

/// Seeded cross-round structural equivalence: a warm tree repaired with
/// `apply_updates` between batches must agree, batch after batch, with a
/// tree rebuilt from scratch over the same keys and priorities — the
/// invariant the warm dispatch path rests on, checked here directly against
/// both the rebuilt tree and the naive scan.
#[test]
fn warm_tree_repair_matches_per_batch_rebuild_across_rounds() {
    let mut rng = StdRng::seed_from_u64(0x5EEDED);
    for case in 0..40 {
        let n = rng.gen_range(1..50usize);
        let mut keys: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64).collect();
        let mut prios: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
        let mut warm = TournamentTree::new();
        let mut rebuilt = TournamentTree::new();
        warm.rebuild(n, |i| keys[i], |i| prios[i]);
        let mut dirty: Vec<u32> = Vec::new();
        for round in 0..120 {
            // Between-round mutations (probes / decay), recorded as dirty.
            for _ in 0..rng.gen_range(0..4usize) {
                let slot = rng.gen_range(0..n);
                keys[slot] = rng.gen_range(0..8) as f64;
                dirty.push(slot as u32);
            }
            // Occasional priority epoch refresh: both trees rebuild fully.
            if round % 40 == 39 {
                for p in prios.iter_mut() {
                    *p = rng.gen::<u64>();
                }
                warm.rebuild(n, |i| keys[i], |i| prios[i]);
                dirty.clear();
            } else {
                warm.apply_updates(&dirty, |i| keys[i]);
                dirty.clear();
            }
            rebuilt.rebuild(n, |i| keys[i], |i| prios[i]);
            // One batch of placements, both trees updated incrementally.
            for job in 0..rng.gen_range(1..6usize) {
                let expect = scan_argmin(n, |i| keys[i], |i| prios[i]);
                assert_eq!(warm.argmin(), expect, "case {case} round {round} job {job}");
                assert_eq!(
                    rebuilt.argmin(),
                    expect,
                    "case {case} round {round} job {job} (rebuilt)"
                );
                let target = warm.argmin();
                keys[target] += 1.0;
                warm.update_key(target, keys[target]);
                rebuilt.update_key(target, keys[target]);
            }
        }
    }
}

/// The shared per-round cache is a pure accelerator: dispatching against a
/// context that carries it must match dispatching without it, bit for bit,
/// for every cache-aware policy (SCD reads the round's dispatch table, SED
/// reads the reciprocal rates).
#[test]
fn cached_and_cacheless_contexts_dispatch_identically() {
    let mut case_rng = StdRng::seed_from_u64(0xCAC8E);
    let mut cache = RoundCache::new();
    for case in 0..100 {
        let n = case_rng.gen_range(1..30usize);
        let queues: Vec<u64> = (0..n).map(|_| case_rng.gen_range(0..20)).collect();
        let rates: Vec<f64> = (0..n).map(|_| case_rng.gen_range(0.5..15.0)).collect();
        let batch = case_rng.gen_range(1..40usize);
        let seed = case_rng.gen::<u64>();
        cache.begin_round(&queues, &rates);
        let plain = DispatchContext::new(&queues, &rates, 5, 3);
        let cached = DispatchContext::with_cache(&queues, &rates, 5, 3, &cache);
        let spec = ClusterSpec::from_rates(rates.clone()).unwrap();
        let d = DispatcherId::new(0);

        let run = |policy: &mut dyn DispatchPolicy, ctx: &DispatchContext<'_>| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            policy.dispatch_into(ctx, batch, &mut out, &mut rng);
            (out, rng.next_u64())
        };

        // SCD draws from the cache's round table in one context and from a
        // private table in the other: the same pure function of the
        // snapshot, so the same destinations and RNG consumption.
        for (name, a, b) in [
            (
                "SCD",
                run(&mut ScdPolicy::new(), &plain),
                run(&mut ScdPolicy::new(), &cached),
            ),
            (
                "SED",
                run(&mut *ArgminFactory::sed().build(d, &spec), &plain),
                run(&mut *ArgminFactory::sed().build(d, &spec), &cached),
            ),
            (
                "JSQ",
                run(&mut *ArgminFactory::jsq().build(d, &spec), &plain),
                run(&mut *ArgminFactory::jsq().build(d, &spec), &cached),
            ),
        ] {
            assert_eq!(a, b, "case {case}: {name} diverged with the round cache");
        }
    }
}
