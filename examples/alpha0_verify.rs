//! Verify the condensed Alpha0 design pair (the Section 6.3 experiment):
//! load/store instructions, conditional branches, jumps, bypassing and one
//! annulled delay slot after every control transfer.
//!
//! The datapath and the ALU are condensed exactly as the thesis condensed
//! them to stay within BDD capacity (Section 6.3: 4-bit operations; only
//! `and`, `or` and `cmpeq` in the ALU); pass `--paper` to use the
//! thirty-two-register configuration of the thesis instead of the
//! two-register default.
//!
//! Run with `cargo run --release --example alpha0_verify [-- --paper]`.
//! Knobs:
//!
//! * `--threads N` (or the `PV_THREADS` environment variable) — worker
//!   threads for the control-transfer position sweep. Every sweep position is
//!   verified in its own BDD manager, so the sweep parallelises perfectly and
//!   the report is identical for any thread count; `--threads 1` is the
//!   sequential A/B twin.
//! * `ALPHA0_ONLY_SLOT=<n>` — run a single sweep position instead of the
//!   whole control-transfer sweep.

use std::time::Instant;

use pipeverify::core::{MachineSpec, SimulationPlan, Verifier};
use pipeverify::isa::alpha0::Alpha0Config;
use pipeverify::proc::alpha0::{self, PipelineConfig};

/// Parses `--threads N` / `--threads=N` from the command line; `None` leaves
/// the verifier on its `PV_THREADS` / available-parallelism default.
fn threads_flag() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().enumerate().find_map(|(i, a)| {
        a.strip_prefix("--threads=")
            .map(str::to_owned)
            .or_else(|| (a == "--threads").then(|| args.get(i + 1).cloned().unwrap_or_default()))
            .and_then(|v| v.parse().ok())
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paper = std::env::args().any(|a| a == "--paper");
    let isa = if paper {
        Alpha0Config::paper()
    } else {
        Alpha0Config::condensed()
    };
    println!(
        "Alpha0 configuration: {}-bit datapath, {} registers, {} memory words, condensed ALU{}",
        isa.data_width,
        isa.num_regs,
        isa.mem_words,
        if paper { " (paper register file)" } else { "" }
    );

    let pipelined = alpha0::pipelined(PipelineConfig::condensed(isa))?;
    let unpipelined = alpha0::unpipelined(PipelineConfig::condensed(isa))?;
    println!(
        "implementation: {} register bits / specification: {} register bits",
        pipelined.register_bits(),
        unpipelined.register_bits()
    );

    let spec = MachineSpec::alpha0_condensed(isa);
    let mut verifier = Verifier::new(spec);
    if let Some(threads) = threads_flag() {
        verifier = verifier.with_threads(threads);
    }
    let only_slot: Option<usize> = std::env::var("ALPHA0_ONLY_SLOT")
        .ok()
        .and_then(|v| v.parse().ok());

    // The simulation information file of Section 6.3: a reset cycle, two
    // ordinary slots, a control-transfer slot, two more ordinary slots.
    let plan = SimulationPlan::paper_alpha0();
    println!("\nsimulation information:\n{plan}");
    if only_slot.is_none() {
        let report = verifier.verify_plan(&pipelined, &unpipelined, &plan)?;
        print!("{report}");
        assert!(report.equivalent());
    }

    // Sweep the control-transfer instruction over every slot position, as the
    // methodology prescribes (k·z simulations instead of all combinations).
    // Each position is an independent plan, so the batch fans out over the
    // verifier's worker pool. The batch is submitted highest slot first:
    // workers claim plans in batch order, and the late-slot plans are the
    // expensive ones (slot 4 alone is ~half the sweep), so longest-first
    // scheduling lets the makespan approach the slot-4 critical path instead
    // of stranding slot 4 on whichever worker frees up last. The merged
    // report is order-insensitive for a passing sweep.
    let positions: Vec<usize> = (0..verifier.spec().k)
        .rev()
        .filter(|p| only_slot.is_none_or(|o| o == *p))
        .collect();
    let sweep: Vec<SimulationPlan> = positions
        .iter()
        .map(|&p| SimulationPlan::with_control_at(verifier.spec().k, p))
        .collect();
    println!("control-transfer position sweep ({} plans):", sweep.len());
    let started = Instant::now();
    let report = verifier.verify_plans(&pipelined, &unpipelined, &sweep)?;
    let sweep_wall = started.elapsed();
    for plan_report in &report.plan_reports {
        println!(
            "  control transfer in slot {}: {} ({} formulae, {} BDD nodes, peak live {}, {:.2} s)",
            positions[plan_report.plan_index],
            if plan_report.equivalent() {
                "equivalent"
            } else {
                "NOT equivalent"
            },
            plan_report.samples_compared,
            plan_report.bdd_nodes,
            plan_report.bdd_peak_live,
            plan_report.wall_time.as_secs_f64(),
        );
    }
    if let Some(slowest) = report.slowest_plan() {
        println!(
            "sweep wall clock: {:.2} s on {} worker thread(s); per-plan sum {:.2} s ({:.2}x concurrency; A/B against a separate --threads 1 run for the true speedup), slowest slot {} at {:.2} s",
            sweep_wall.as_secs_f64(),
            report.threads_used,
            report.plan_wall_total().as_secs_f64(),
            report.plan_wall_total().as_secs_f64() / sweep_wall.as_secs_f64().max(1e-9),
            positions[slowest.plan_index],
            slowest.wall_time.as_secs_f64(),
        );
    }
    // The batch is submitted highest slot first, so on a buggy design the
    // merged report stops at the highest failing slot and the per-plan lines
    // above omit the lower slots — print the counterexample itself before
    // failing, or the assert would hide it.
    if let Some(cex) = &report.counterexample {
        println!("counterexample: {cex}");
    }
    assert!(
        report.equivalent(),
        "the control-transfer sweep must verify"
    );
    Ok(())
}
