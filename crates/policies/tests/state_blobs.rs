//! Checkpoint blobs of the argmin family (JSQ, SED, LSQ, hLSQ, LED, hLED):
//! a saved state restores into a fresh policy and saves back byte for byte,
//! and a malformed blob is refused by `restore_state` instead of being
//! accepted and then panicking, or silently diverging, in the first resumed
//! round.
//!
//! The blobs below are forged in the family's layout: the view (whole
//! numbers as `u64`s, LED's decaying estimates as `f64`s), then for the
//! snapshot members JSQ and SED the sync round and the own placements, then
//! the warm-picker state (a flag byte; when set, the epoch position and one
//! priority per server).

use rand::rngs::StdRng;
use rand::SeedableRng;
use scd_model::{BoxedPolicy, ClusterSpec, DispatchContext, DispatcherId, StateWriter};
use scd_policies::factory_by_name;

const FAMILY: [&str; 6] = ["JSQ", "SED", "LSQ", "hLSQ", "LED", "hLED"];

/// The test cluster: four servers.
fn spec() -> ClusterSpec {
    ClusterSpec::from_rates(vec![4.0, 2.0, 1.0, 1.0]).unwrap()
}

fn fresh(name: &str) -> BoxedPolicy {
    factory_by_name(name)
        .unwrap()
        .build(DispatcherId::new(0), &spec())
}

/// A blob in `name`'s layout with the view `values`, own placements
/// `touched` (snapshot members only) and, when given, warm priorities.
fn blob(name: &str, values: &[f64], touched: &[u32], prios: Option<&[u64]>) -> Vec<u8> {
    let mut w = StateWriter::new();
    if name.ends_with("LED") {
        w.f64s(values);
    } else {
        let counts: Vec<u64> = values.iter().map(|&v| v as u64).collect();
        w.u64s(&counts);
    }
    if matches!(name, "JSQ" | "SED") {
        w.opt_u64(Some(0));
        w.u32s(touched);
    }
    match prios {
        None => w.u8(0),
        Some(prios) => {
            w.u8(1);
            w.u32(3);
            w.u64s(prios);
        }
    }
    w.into_bytes()
}

/// Restores `bytes` into a fresh `name` policy, then runs round 1.
fn restore_and_run(name: &str, bytes: &[u8]) -> Result<(), String> {
    let mut policy = fresh(name);
    policy.restore_state(bytes)?;
    let queues = vec![1u64, 0, 2, 0];
    let spec = spec();
    let ctx = DispatchContext::new(&queues, spec.rates(), 2, 1);
    let mut rng = StdRng::seed_from_u64(1);
    policy.observe_round(&ctx, &mut rng);
    let out = policy.dispatch_batch(&ctx, 5, &mut rng);
    assert_eq!(out.len(), 5, "{name}");
    Ok(())
}

#[test]
fn saved_state_restores_and_saves_back_byte_for_byte() {
    let spec = spec();
    let mut rng = StdRng::seed_from_u64(7);
    for name in FAMILY {
        let mut policy = fresh(name);
        for round in 0..80u64 {
            let queues: Vec<u64> = (0..4).map(|s| (round * 7 + s * 3) % 5).collect();
            let ctx = DispatchContext::new(&queues, spec.rates(), 2, round);
            policy.observe_round(&ctx, &mut rng);
            let _ = policy.dispatch_batch(&ctx, (round % 6) as usize, &mut rng);
        }
        let mut saved = Vec::new();
        policy.save_state(&mut saved);
        let mut restored = fresh(name);
        restored.restore_state(&saved).unwrap();
        let mut again = Vec::new();
        restored.save_state(&mut again);
        assert_eq!(saved, again, "{name}");
    }
}

#[test]
fn well_formed_forged_blobs_restore_and_run() {
    for name in FAMILY {
        let values = [1.0, 0.0, 2.0, 0.0];
        restore_and_run(name, &blob(name, &values, &[2], None)).unwrap();
        restore_and_run(name, &blob(name, &values, &[0, 3], Some(&[5, 6, 7, 8]))).unwrap();
    }
}

#[test]
fn views_of_another_cluster_size_are_refused() {
    for name in FAMILY {
        for values in [&[0.0; 3][..], &[0.0; 5][..]] {
            let err = restore_and_run(name, &blob(name, values, &[], None))
                .expect_err("a view of another cluster size must be refused");
            assert!(err.contains(name), "{name}: {err}");
        }
    }
}

#[test]
fn own_placements_beyond_the_cluster_are_refused() {
    for name in ["JSQ", "SED"] {
        for touched in [&[99][..], &[0, 4][..]] {
            let err = restore_and_run(name, &blob(name, &[0.0; 4], touched, None))
                .expect_err("a placement on a server past the cluster must be refused");
            assert!(err.contains(name), "{name}: {err}");
        }
    }
}

#[test]
fn non_finite_or_negative_estimates_are_refused() {
    for name in ["LED", "hLED"] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let values = [1.0, bad, 0.0, 0.0];
            let err = restore_and_run(name, &blob(name, &values, &[], None))
                .expect_err("a non-finite or negative estimate must be refused");
            assert!(err.contains(name), "{name}: {err}");
        }
    }
}

#[test]
fn warm_priorities_for_another_cluster_size_are_refused() {
    for name in FAMILY {
        for prios in [&[1, 2, 3][..], &[1, 2, 3, 4, 5][..]] {
            let bytes = blob(name, &[0.0; 4], &[], Some(prios));
            let err = restore_and_run(name, &bytes)
                .expect_err("warm priorities for another cluster size must be refused");
            assert!(err.contains("servers"), "{name}: {err}");
        }
    }
}
