//! Fault-tolerant multi-process shard run.
//!
//! Spawns `--processes K` supervised `shard_worker` processes, distributes
//! each shard's configuration and sub-master seed, retries crashed, hung,
//! or corrupted workers from their seeds with deterministic backoff, and
//! merges whatever survives — accounting lost shards in the degradation
//! metrics instead of failing the run. `--verify-inprocess` re-runs the
//! same configuration on the in-process sharded engine and fails unless
//! the merged reports are bit-identical; the fault-injection flags
//! (`--inject-crash N`, `--inject-hang N`, `--inject-corrupt N`,
//! `--persistent`) exist to prove, in CI, that recovery preserves that
//! guarantee.

use scd_experiments::fabric::{run_orchestrate, OrchestrateOptions};

fn main() {
    let options = OrchestrateOptions::parse(std::env::args().skip(1))
        .unwrap_or_else(|outcome| outcome.exit());
    if let Err(message) = run_orchestrate(&options) {
        eprintln!("orchestrate: {message}");
        std::process::exit(1);
    }
}
