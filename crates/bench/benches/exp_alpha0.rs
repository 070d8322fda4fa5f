//! Experiment of Section 6.3: verification of the Alpha0 design pair.
//!
//! The thesis reports 23 min of symbolic simulation for the unpipelined
//! Alpha0 and 43 min for the pipelined Alpha0 (ratio ≈ 1.9), roughly an order
//! of magnitude more than the VSM, on a condensed datapath (4-bit ALU reduced
//! to and/or/cmpeq, the single-register-file-model optimisation). The shapes
//! to reproduce: pipelined > unpipelined, and Alpha0 ≫ VSM. The per-machine
//! walls come from the verifier's `sim.pipelined` / `sim.unpipelined` spans.
//!
//! To keep the bench short, the paper plan is reported as a one-shot timed
//! run (printed below) and only a two-instruction plan is sampled. The
//! control-transfer position sweep is the `alpha0_verify` example.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use pipeverify_core::{MachineSpec, SimulationPlan, Verifier};
use pv_bench::traced_verify_plan;
use pv_isa::alpha0::Alpha0Config;
use pv_proc::alpha0::{self, PipelineConfig};

fn bench_alpha0(c: &mut Criterion) {
    // Condensed datapath and condensed ALU, as in the thesis (EXPERIMENTS.md).
    let isa = Alpha0Config::condensed();
    let plan = SimulationPlan::paper_alpha0();
    let pipelined = alpha0::pipelined(PipelineConfig::condensed(isa)).expect("build");
    let unpipelined = alpha0::unpipelined(PipelineConfig::condensed(isa)).expect("build");
    let verifier = Verifier::new(MachineSpec::alpha0_condensed(isa));

    println!("=== Section 6.3: Alpha0 (k = 5, d = 1, condensed datapath + ALU) ===");
    println!("paper: unpipelined 23 min, pipelined 43 min (SPARCstation 10), ratio ≈ 1.9");
    let started = Instant::now();
    let (report, pipelined_us, unpipelined_us) =
        traced_verify_plan(&verifier, &pipelined, &unpipelined, &plan).expect("verify");
    println!(
        "full verification of the paper plan: {:.2?}; symbolic simulation: unpipelined {:.2?}, \
         pipelined {:.2?}, ratio {:.2}; {} BDD nodes created",
        started.elapsed(),
        Duration::from_micros(unpipelined_us),
        Duration::from_micros(pipelined_us),
        pipelined_us as f64 / unpipelined_us.max(1) as f64,
        report.bdd_nodes,
    );
    println!("PIPELINED filter  : {}", report.filters.0);
    println!("UNPIPELINED filter: {}", report.filters.1);
    assert!(report.equivalent());

    // A sampled Criterion entry for the cheapest meaningful Alpha0 run: the
    // verification of a two-instruction plan. It keeps the harness honest
    // about run-to-run variance without multiplying the run above.
    let short = SimulationPlan::all_normal(2);
    let mut group = c.benchmark_group("section6.3_alpha0");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("full_verification_2_slots", |b| {
        b.iter(|| {
            let r = verifier
                .verify_plan(&pipelined, &unpipelined, &short)
                .expect("verify");
            assert!(r.equivalent());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_alpha0);
criterion_main!(benches);
