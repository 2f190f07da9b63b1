//! Quickstart: simulate a heterogeneous cluster under several dispatching
//! policies and print a comparison table.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use scd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 20-server cluster with rates drawn from the paper's moderate
    // heterogeneity profile (different CPU generations): µ_s ~ U[1, 10].
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let spec = RateProfile::paper_moderate().materialize(20, &mut rng)?;
    println!(
        "cluster: {} servers, total capacity {:.1} jobs/round, fastest/slowest = {:.1}x",
        spec.num_servers(),
        spec.total_rate(),
        spec.heterogeneity_ratio()
    );

    // Five dispatchers, 90% offered load, 10 000 rounds.
    let config = SimConfig::builder(spec)
        .dispatchers(5)
        .rounds(10_000)
        .warmup_rounds(1_000)
        .seed(2021)
        .arrivals(ArrivalSpec::PoissonOfferedLoad { offered_load: 0.9 })
        .build()?;

    // Compare SCD against representative baselines on identical arrival and
    // departure processes.
    let scd = ScdFactory::new();
    let sed = ArgminFactory::sed();
    let jsq = ArgminFactory::jsq();
    let twf = TwfFactory::new();
    let hlsq = ArgminFactory::hlsq();
    let wr = WeightedRandomFactory::new();

    let result = run_comparison(&config, &[&scd, &sed, &jsq, &twf, &hlsq, &wr])?;

    println!("\nresponse-time comparison at offered load 0.90:");
    println!("{}", result.to_table());
    println!(
        "best mean: {}   best p99: {}",
        result.best_by_mean().unwrap_or("-"),
        result.best_by_percentile(0.99).unwrap_or("-")
    );
    Ok(())
}
