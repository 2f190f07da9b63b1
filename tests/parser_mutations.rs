//! The hand-written text parsers under adversarial input: every prefix and
//! every single-byte substitution of a representative document must parse
//! or be rejected as [`SimError::InvalidConfig`] — never panic, never abort
//! on an allocation. Modelled on the frame-codec sweeps in
//! `tests/fabric_codec.rs`.

use scd::prelude::*;
use scd_sim::{ArrivalTrace, ScenarioSpec, SimError, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bytes substituted at every position: digits (to lengthen or corrupt
/// numbers), every separator the formats use, signs, exponents, comment
/// and line breaks.
const SUBSTITUTES: &[u8] = b"09=,:.-+eE# \nx";

/// Runs `parse` on `text`, failing the test on a panic or on an error
/// other than `InvalidConfig`.
fn check<T>(what: &str, text: &str, parse: &dyn Fn(&str) -> Result<T, SimError>) {
    match catch_unwind(AssertUnwindSafe(|| parse(text))) {
        Ok(Ok(_)) | Ok(Err(SimError::InvalidConfig(_))) => {}
        Ok(Err(other)) => panic!("{what}: unclassified error {other:?} for {text:?}"),
        Err(_) => panic!("{what}: the parser panicked on {text:?}"),
    }
}

/// Every prefix and every single-byte substitution of `doc`.
fn sweep<T>(what: &str, doc: &str, parse: &dyn Fn(&str) -> Result<T, SimError>) {
    assert!(parse(doc).is_ok(), "{what}: the fixture itself must parse");
    for len in 0..doc.len() {
        if doc.is_char_boundary(len) {
            check(what, &doc[..len], parse);
        }
    }
    let bytes = doc.as_bytes();
    for index in 0..bytes.len() {
        for &b in SUBSTITUTES {
            let mut mutated = bytes.to_vec();
            mutated[index] = b;
            if let Ok(text) = std::str::from_utf8(&mutated) {
                check(what, text, parse);
            }
        }
    }
}

#[test]
fn sim_config_key_values_survive_prefixes_and_mutations() {
    let config = SimConfig::builder(ClusterSpec::from_rates(vec![1.5, 4.0, 2.25]).unwrap())
        .dispatchers(3)
        .rounds(120)
        .warmup_rounds(10)
        .seed(42)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
        .build()
        .unwrap();
    let doc = config.to_key_values().unwrap();
    sweep("SimConfig", &doc, &SimConfig::from_key_values);
}

#[test]
fn scenario_key_values_survive_prefixes_and_mutations() {
    let doc = "# crash/repair with stale views\nserver_fail_rate = 0.01\n\
               server_repair_rate = 0.2\ndispatcher_fail_rate = 0.005\n\
               dispatcher_repair_rate = 0.1\nprobe_loss_rate = 0.02\nstale_k = 2\nseed = 7\n";
    sweep("ScenarioSpec", doc, &ScenarioSpec::from_key_values);
}

#[test]
fn workload_key_values_survive_prefixes_and_mutations() {
    let preset = include_str!("../presets/bursty.workload");
    sweep(
        "WorkloadSpec (preset)",
        preset,
        &WorkloadSpec::from_key_values,
    );
    let spec =
        WorkloadSpec::from_key_values("diurnal_period = 50\ndiurnal_amplitude = 0.5\n").unwrap();
    sweep(
        "WorkloadSpec (diurnal)",
        &spec.to_key_values(),
        &WorkloadSpec::from_key_values,
    );
}

#[test]
fn arrival_traces_survive_prefixes_and_mutations() {
    let mut trace = ArrivalTrace::new(3, 4);
    for round in 0..4 {
        for d in 0..3 {
            trace.set(round, d, round * 7 + d as u64 * 3);
        }
    }
    sweep("ArrivalTrace", &trace.to_text(), &ArrivalTrace::from_text);
}

#[test]
fn arrival_trace_headers_cannot_demand_unbounded_tables() {
    // 56 bytes promising 10¹¹ counts: used to abort on an 800 GB
    // allocation before reading the first row.
    let huge = "scd-arrival-trace v1 rounds=100000000000 dispatchers=1\n1";
    assert_eq!(huge.len(), 56);
    // rounds × dispatchers overflows 64 bits: used to panic in debug
    // builds and to wrap to an empty table in release builds.
    let overflow = "scd-arrival-trace v1 rounds=4294967296 dispatchers=4294967296\n1";
    for text in [huge, overflow] {
        match ArrivalTrace::from_text(text) {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("promises"), "{msg}"),
            other => panic!("{text:?} must be rejected, got {other:?}"),
        }
    }
    // A header that fits its text still parses.
    let ok =
        ArrivalTrace::from_text("scd-arrival-trace v1 rounds=2 dispatchers=1\n4\n5\n").unwrap();
    assert_eq!(ok.count(1, 0), 5);
}
