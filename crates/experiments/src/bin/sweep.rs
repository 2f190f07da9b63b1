//! Sharded policy sweep: runs a `(system × load × policy)` grid on the
//! sharded round engine (`--shards k`) and prints per-system comparison
//! tables. See `--help` for flags.

use scd_experiments::shard_sweep::{parse_options, run_from_options};

fn main() {
    let options = parse_options(std::env::args().skip(1)).unwrap_or_else(|outcome| outcome.exit());
    if let Err(err) = run_from_options(&options) {
        eprintln!("sweep failed: {err}");
        std::process::exit(1);
    }
}
