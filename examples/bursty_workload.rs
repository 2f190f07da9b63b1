//! Time-varying workloads: how burstiness erodes (and SCD defends) tail
//! latency.
//!
//! The paper's evaluation (Section 6) runs stationary Poisson arrivals.
//! Real request streams are bursty — rates flip between calm and loaded
//! regimes (MMPP), follow daily cycles, or spike when a flash crowd
//! arrives — and burstiness is exactly the regime where *stale shared
//! information* is most dangerous: a dispatcher herd that piles onto the
//! momentarily-short queues during a burst digs a hole the calm phase has
//! to drain. This example runs SCD and JSQ on the same seeded arrival
//! schedules across three workload shapes, then records a per-job event
//! trace of the bursty run and replays it bit-exactly.
//!
//! Run with:
//! ```text
//! cargo run --release --example bursty_workload
//! ```

use scd::prelude::*;

fn config_for(
    spec: &ClusterSpec,
    base_load: f64,
    rounds: u64,
    workload: WorkloadSpec,
) -> SimConfig {
    SimConfig::builder(spec.clone())
        .dispatchers(10)
        .rounds(rounds)
        .warmup_rounds(rounds / 10)
        .seed(2021)
        .arrivals(ArrivalSpec::PoissonOfferedLoad {
            offered_load: base_load,
        })
        .workload(workload)
        .build()
        .expect("valid configuration")
}

fn run_workload(
    spec: &ClusterSpec,
    base_load: f64,
    workload: WorkloadSpec,
    policy: &dyn PolicyFactory,
) -> SimReport {
    Simulation::new(config_for(spec, base_load, 6_000, workload))
        .expect("valid configuration")
        .run(policy)
        .expect("policies run cleanly")
}

fn row(policy: &str, label: &str, report: &SimReport) -> Vec<String> {
    vec![
        policy.to_string(),
        label.to_string(),
        format!("{:.2}", report.mean_response_time()),
        report.response_time_percentile(0.99).to_string(),
        format!("{:.1}", report.queues.mean_total_backlog),
        format!("{:.0}", report.queues.max_total_backlog),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let spec = RateProfile::paper_moderate().materialize(40, &mut rng)?;
    println!(
        "cluster: 40 servers, 10 dispatchers, long-run offered load ≈ 0.89, \
         capacity {:.0} jobs/round\n",
        spec.total_rate()
    );

    // Three shapes, each with base load chosen so the *long-run* offered
    // load stays just under 0.9: the MMPP spends 80% of its time calm and
    // 20% in a 4x burst (mean multiplier 1.6), the flash crowd doubles the
    // rate for 40 of every 600 rounds (mean multiplier 1.067). The bursts
    // transiently overload the cluster — that hole-digging is the point.
    let bursty = WorkloadSpec::from_key_values(
        "mmpp_phases = 1:0.05,4:0.2\n\
         class = 1:3\n\
         class = 8:1\n",
    )?;
    let flash = WorkloadSpec {
        modulation: ModulationSpec::FlashCrowd {
            every: 600,
            duration: 40,
            magnitude: 1.0,
        },
        ..WorkloadSpec::default()
    };
    let shapes = [
        ("stationary", 0.89, WorkloadSpec::default()),
        ("bursty MMPP", 0.55, bursty.clone()),
        ("flash crowd", 0.83, flash),
    ];

    let mut table = Table::with_headers(&[
        "policy",
        "workload",
        "mean RT",
        "p99 RT",
        "mean backlog",
        "max backlog",
    ]);
    for (label, base_load, workload) in &shapes {
        for (name, factory) in [
            ("SCD", Box::new(ScdFactory::new()) as Box<dyn PolicyFactory>),
            ("JSQ", Box::new(ArgminFactory::jsq())),
        ] {
            let report = run_workload(&spec, *base_load, workload.clone(), factory.as_ref());
            table.add_row(row(name, label, &report));
        }
    }
    println!("{table}");

    // Record the bursty run's per-job events (a shorter run — per-job
    // tracing is an inspection tool, and the event buffer is capped), then
    // replay the recorded arrival trace — the engine reproduces the run
    // bit for bit.
    let scd = ScdFactory::new();
    let (recorded, trace) =
        Simulation::new(config_for(&spec, 0.55, 1_200, bursty))?.run_traced(&scd)?;
    assert_eq!(trace.dropped, 0, "run sized to stay under the event cap");
    let replay = WorkloadSpec {
        replay: Some(trace.arrivals.clone()),
        ..WorkloadSpec::default()
    };
    let replayed = Simulation::new(config_for(&spec, 0.55, 1_200, replay))?.run(&scd)?;
    assert_eq!(recorded, replayed, "replay reproduces the run bit-exactly");
    println!(
        "recorded {} per-job events over {} rounds; replay of the recorded \
         arrival trace is bit-identical",
        trace.events.len(),
        trace.rounds
    );

    let out = std::env::temp_dir().join("scd_bursty_trace.json");
    write_chrome_trace(&out, &trace)?;
    println!(
        "wrote a Chrome/Perfetto timeline to {} — open it at ui.perfetto.dev",
        out.display()
    );
    Ok(())
}
