//! The process-fabric frame codec, end to end — without processes.
//!
//! The multi-process shard fabric ships every `ShardReport` across the
//! worker → orchestrator pipe as a versioned, length-prefixed,
//! FNV-checksummed binary frame. This example isolates that wire layer:
//! it runs a small sharded simulation in-process, encodes each shard's
//! report exactly as the `shard_worker` binary would, then demonstrates
//! that (a) clean frames decode bit-for-bit and merge into the same
//! system-wide report the in-process engine produces, and (b) every way a
//! pipe can betray you — a flipped bit, a torn write, a stale protocol
//! version — is a *classified* rejection, never a silent misdecode.
//!
//! Run with:
//! ```text
//! cargo run --release --example fabric_frames
//! ```

use scd::prelude::*;
use scd::sim::fabric::{decode_shard_report, encode_final_frame, FRAME_VERSION};

fn main() {
    let rates: Vec<f64> = (0..12).map(|s| 1.0 + (s % 4) as f64).collect();
    let config = SimConfig::builder(ClusterSpec::from_rates(rates).expect("valid rates"))
        .dispatchers(4)
        .rounds(2_000)
        .warmup_rounds(200)
        .seed(2021)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
        .build()
        .expect("valid configuration");

    let k = 4;
    let sharded = ShardedSimulation::new(config, k).expect("k divides the system");
    let factory = ScdFactory::new();
    let reports = sharded.run_shards(&factory, 1).expect("shards run");
    let reference = merge_shard_reports(&reports).expect("consistent reports");

    println!("frame protocol v{FRAME_VERSION}, {k} shards:");
    let mut frames = Vec::new();
    for report in &reports {
        let frame = encode_final_frame(report).expect("encodable report");
        println!(
            "  shard {}: {} servers, {} jobs -> {} byte frame",
            report.shard,
            report.num_servers,
            report.report.jobs_dispatched,
            frame.len()
        );
        frames.push(frame);
    }

    // Clean frames survive the wire bit-for-bit and merge to the same
    // system-wide report.
    let decoded: Vec<_> = frames
        .iter()
        .map(|f| decode_shard_report(f).expect("clean frame decodes"))
        .collect();
    assert_eq!(decoded, reports);
    let merged = merge_shard_reports(&decoded).expect("consistent reports");
    assert_eq!(merged, reference);
    println!("\nmerged over the wire: {}", merged.one_liner());

    // Every failure mode of a pipe is a classified rejection.
    println!("\nwhat the codec rejects:");
    let frame = &frames[0];

    let mut corrupt = frame.clone();
    corrupt[frame.len() / 2] ^= 0x04;
    println!(
        "  flipped bit     -> {}",
        decode_shard_report(&corrupt).unwrap_err()
    );

    let torn = &frame[..frame.len() - 7];
    println!(
        "  torn write      -> {}",
        decode_shard_report(torn).unwrap_err()
    );

    let mut future = frame.clone();
    future[4] = FRAME_VERSION + 1;
    println!(
        "  future version  -> {}",
        decode_shard_report(&future).unwrap_err()
    );

    let mut trailing = frame.clone();
    trailing.extend_from_slice(b"junk");
    println!(
        "  trailing bytes  -> {}",
        decode_shard_report(&trailing).unwrap_err()
    );

    // And the merge itself refuses reports from different experiments.
    let mut foreign = decoded.clone();
    foreign[0].config_digest ^= 1;
    println!(
        "  foreign report  -> {}",
        merge_shard_reports(&foreign).unwrap_err()
    );
}
