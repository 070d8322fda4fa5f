//! Experiment of Section 6.2: verification of the VSM design pair.
//!
//! The thesis reports, on a Sun SPARCstation 10, 175 s of symbolic simulation
//! for the unpipelined VSM and 292 s for the pipelined VSM (a ratio of about
//! 1.7×), with the output filtering functions
//! `1 0 0 0 1 0 0 0 1 0 0 0 1 0 0 0 1` (unpipelined) and
//! `1 0 0 0 1 1 1 0 1` (pipelined). Absolute times are not comparable across
//! machines and BDD packages; the *shape* to reproduce is that the pipelined
//! simulation costs more than the unpipelined one (roughly 1.5–2×) and that
//! the whole verification completes in bounded time thanks to the
//! definite-machine argument. The per-machine walls come from the verifier's
//! `sim.pipelined` / `sim.unpipelined` spans.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pipeverify_core::{MachineSpec, SimulationPlan, Verifier};
use pv_bench::traced_verify_plan;
use pv_proc::vsm::{self, VsmConfig};

fn bench_vsm(c: &mut Criterion) {
    // Reduced register-file model, as in the thesis (see EXPERIMENTS.md).
    let plan = SimulationPlan::paper_vsm();
    let pipelined = vsm::pipelined(VsmConfig::reduced(2)).expect("build");
    let unpipelined = vsm::unpipelined(VsmConfig::reduced(2)).expect("build");
    let verifier = Verifier::new(MachineSpec::vsm_reduced(2));

    println!("=== Section 6.2: VSM (k = 4, d = 1) ===");
    println!("paper: unpipelined 175 s, pipelined 292 s (SPARCstation 10), ratio ≈ 1.7");
    let (report, pipelined_us, unpipelined_us) =
        traced_verify_plan(&verifier, &pipelined, &unpipelined, &plan).expect("verify");
    println!(
        "measured symbolic simulation: unpipelined {:.2?}, pipelined {:.2?}, ratio {:.2}; \
         {} BDD nodes created",
        Duration::from_micros(unpipelined_us),
        Duration::from_micros(pipelined_us),
        pipelined_us as f64 / unpipelined_us.max(1) as f64,
        report.bdd_nodes,
    );
    println!("PIPELINED filter  : {}", report.filters.0);
    println!("UNPIPELINED filter: {}", report.filters.1);
    assert!(report.equivalent());

    let mut group = c.benchmark_group("section6.2_vsm");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("full_verification_paper_plan", |b| {
        b.iter(|| {
            let r = verifier
                .verify_plan(&pipelined, &unpipelined, &plan)
                .expect("verify");
            assert!(r.equivalent());
        })
    });
    group.bench_function("full_verification_plan_sweep", |b| {
        b.iter(|| {
            let r = verifier.verify(&pipelined, &unpipelined).expect("verify");
            assert!(r.equivalent());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_vsm);
criterion_main!(benches);
