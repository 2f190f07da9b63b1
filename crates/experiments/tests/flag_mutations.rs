//! The three hand-written flag parsers under adversarial argument vectors:
//! every prefix of a full argument vector, and every substitution of one
//! argument from a fixed set of hostile values, must come back as options
//! or a classified refusal — never a panic. The flag-level counterpart of
//! the text-parser sweeps in `tests/parser_mutations.rs`.

use scd_experiments::cli::{CliError, CliOptions};
use scd_experiments::fabric::{parse_worker_args, OrchestrateOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Values substituted for each argument in turn: empty, zero, negative,
/// not a number, one past `u64::MAX`, the help flag and a known flag name.
const SUBSTITUTES: [&str; 7] = [
    "",
    "0",
    "-1",
    "nan",
    "18446744073709551616",
    "--help",
    "--checkpoint-every",
];

/// Every prefix of `full` and every single-argument substitution of it.
fn mutations(full: &[&str]) -> Vec<Vec<String>> {
    let owned: Vec<String> = full.iter().map(|s| s.to_string()).collect();
    let mut out: Vec<Vec<String>> = (0..=owned.len()).map(|n| owned[..n].to_vec()).collect();
    for index in 0..owned.len() {
        for substitute in SUBSTITUTES {
            let mut mutated = owned.clone();
            mutated[index] = substitute.to_string();
            out.push(mutated);
        }
    }
    out
}

/// Runs `parse` on every mutation of `full`, failing on a panic; `classify`
/// checks the outcome of one input.
fn sweep<T>(
    what: &str,
    full: &[&str],
    parse: &dyn Fn(Vec<String>) -> T,
    classify: &dyn Fn(&T) -> bool,
) {
    for args in mutations(full) {
        match catch_unwind(AssertUnwindSafe(|| parse(args.clone()))) {
            Ok(outcome) => assert!(
                classify(&outcome),
                "{what}: unclassified outcome for {args:?}"
            ),
            Err(_) => panic!("{what}: the parser panicked on {args:?}"),
        }
    }
}

/// Options, the usage for `--help`, or a non-empty usage error.
fn classified<T>(outcome: &Result<T, CliError>) -> bool {
    match outcome {
        Ok(_) => true,
        Err(CliError::Help(usage)) => usage.starts_with("usage:"),
        Err(CliError::Invalid(message)) => !message.is_empty(),
    }
}

/// `line` split at whitespace: a full argument vector.
fn args(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

#[test]
fn cli_options_survive_prefixes_and_substitutions() {
    let full = args(
        "--rounds 500 --seed 7 --loads 0.7,0.9 --systems 16x4,32x4 --servers 64 --threads 2 \
         --replications 2 --shards 2 --processes 2 --worker-timeout 3000 --max-retries 1 \
         --checkpoint-every 25 --csv out --scenario faults.scn --stale-k 2 --fail-rate 0.05 \
         --workload bursty.workload --trace-out trace.json --quick --tail",
    );
    assert!(CliOptions::parse(full.iter().map(|s| s.to_string())).is_ok());
    sweep("CliOptions", &full, &CliOptions::parse, &classified);
}

#[test]
fn orchestrate_options_survive_prefixes_and_substitutions() {
    let full = args(
        "--processes 4 --policy JSQ --rounds 200 --seed 5 --worker-timeout 2500 \
         --max-retries 3 --checkpoint-every 25 --inject-crash 1 \
         --inject-crash-after-checkpoint 3 --inject-hang 2 --inject-corrupt 0 --persistent \
         --verify-inprocess --worker worker --quick",
    );
    assert!(OrchestrateOptions::parse(full.iter().map(|s| s.to_string())).is_ok());
    sweep(
        "OrchestrateOptions",
        &full,
        &OrchestrateOptions::parse,
        &classified,
    );
}

#[test]
fn worker_args_survive_prefixes_and_substitutions() {
    let full = args(
        "--shard 1 --shards 4 --policy SCD --expect-seed 77 --digest 12345 \
         --checkpoint-every 50 --resume-from stdin --fail-after-round 9 \
         --fail-after-checkpoint 2 --hang --corrupt-frame --truncate-frame --exit-code 3",
    );
    assert!(parse_worker_args(full.iter().map(|s| s.to_string())).is_ok());
    sweep(
        "parse_worker_args",
        &full,
        &parse_worker_args,
        &|outcome| match outcome {
            Ok(_) => true,
            Err(message) => !message.is_empty(),
        },
    );
}
