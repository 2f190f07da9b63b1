//! Figure-reproduction harness for the SCD paper.
//!
//! Every figure in the paper's evaluation (Section 6 and Appendix E) has a
//! corresponding binary in this crate:
//!
//! | Binary | Paper figure | What it prints |
//! |---|---|---|
//! | `fig3` | Fig. 3a/3b | mean response time vs offered load and response-time tails, `µ_s ~ U[1,10]`, competitive policies |
//! | `fig4` | Fig. 4a/4b | same with `µ_s ~ U[1,100]` |
//! | `fig5` | Fig. 5 | per-decision computation-time distribution vs cluster size, `µ_s ~ U[1,10]` |
//! | `fig6` | Fig. 6a/6b | SCD vs the less competitive baselines (JSQ(2), JIQ, LSQ, WR), `µ_s ~ U[1,10]` |
//! | `fig7` | Fig. 7a/7b | same with `µ_s ~ U[1,100]` |
//! | `fig8` | Fig. 8 | computation-time distribution with `µ_s ~ U[1,100]` |
//! | `ablation` | — | estimator and solver ablations called out in DESIGN.md |
//! | `all_figures` | — | runs everything back to back |
//! | `sweep` | — | `(system × load × policy)` comparison grid on the **sharded** round engine (`--shards k`, `--processes k`) |
//! | `shard_worker` | — | one shard of one run, as a supervised OS process (spawned by `orchestrate`, not by hand) |
//! | `orchestrate` | — | fault-tolerant multi-process run: spawns `--processes K` workers, retries crashes from seed, merges survivors |
//!
//! All binaries accept `--rounds N`, `--seed S`, `--loads a,b,c`,
//! `--systems nxm,nxm`, `--paper` (the full 10⁵-round setup of the paper),
//! `--quick` (a smoke-test-sized run), `--csv DIR` (dump the plotted series
//! as CSV), `--threads T` and `--replications R` (independent replications
//! per sweep cell: averaged for mean-response-time sweeps, histogram-merged
//! for tail sweeps; the decision-time and ablation figures note and ignore
//! the flag). The `sweep` binary additionally accepts `--shards K` to run
//! every cell on the sharded round engine (`K = 1` is bit-identical to the
//! unsharded engine) and `--processes K` to run every cell through the
//! supervised multi-process fabric (module [`fabric`]), which is
//! bit-identical to `--shards K` when no worker is lost.
//!
//! All experiments fan their `(system × load × policy × seed)` grids out on
//! the unified [`SweepGrid`] executor (module [`sweep`]), which rides the
//! same fan-out as the simulator's parallel runners; results are
//! bit-identical regardless of the thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cli;
pub mod fabric;
pub mod figures;
pub mod output;
pub mod response;
pub mod runtime;
pub mod shard_sweep;
pub mod sweep;
pub mod tail;

pub use cli::{CliError, CliOptions};
pub use figures::{FigureKind, FigureSpec};
pub use sweep::{GridPoint, SweepGrid};
