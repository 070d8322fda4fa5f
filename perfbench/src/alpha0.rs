//! `alpha0_sweep`: the paper's experiment — the condensed-Alpha0
//! control-transfer sweep (five plans, one `Verifier::verify_plans` call,
//! highest slot first) — plus, in the traced run, a phase-by-phase replay of
//! every plan through the public BDD, netlist and plan APIs.

use std::collections::BTreeMap;
use std::time::Duration;

use pipeverify_core::json::Json;
use pipeverify_core::{
    pool, CycleInput, MachineSpec, SimulationPlan, SimulationSchedule, Slot, VerificationReport,
    Verifier,
};
use pv_bdd::{Bdd, BddManager, BddVec, Var};
use pv_isa::alpha0::Alpha0Config;
use pv_netlist::{Netlist, SymbolicSim};
use pv_proc::alpha0::{self, PipelineConfig};

use crate::measure::{self, Clock, Outcome};

struct Sweep {
    pipelined: Netlist,
    unpipelined: Netlist,
    spec: MachineSpec,
    /// The sweep, highest control-transfer slot first.
    plans: Vec<SimulationPlan>,
}

impl Sweep {
    fn elaborate() -> Self {
        let isa = Alpha0Config::condensed();
        let _span = pv_obs::span("bench.proc.elaborate");
        let pipelined =
            alpha0::pipelined(PipelineConfig::condensed(isa)).expect("condensed Alpha0 elaborates");
        let unpipelined = alpha0::unpipelined(PipelineConfig::condensed(isa))
            .expect("condensed Alpha0 elaborates");
        let spec = MachineSpec::alpha0_condensed(isa);
        let plans = (0..spec.k)
            .rev()
            .map(|p| SimulationPlan::with_control_at(spec.k, p))
            .collect();
        Sweep {
            pipelined,
            unpipelined,
            spec,
            plans,
        }
    }

    fn run(&self, workers: usize) -> VerificationReport {
        let _span = pv_obs::span("bench.core.verify_plans");
        Verifier::new(self.spec.clone())
            .with_threads(workers)
            .verify_plans(&self.pipelined, &self.unpipelined, &self.plans)
            .expect("the condensed Alpha0 pair is well-formed")
    }
}

/// Everything in a report but the wall times: traced, untraced, 1-worker
/// and 2-worker runs must agree on it exactly.
fn fingerprint(report: &VerificationReport) -> String {
    let plans: Vec<String> = report
        .plan_reports
        .iter()
        .map(|p| {
            format!(
                "{}|{}|{}/{}|{}|{}|{}|{:?}|{:?}|{:?}",
                p.plan_index,
                p.samples_compared,
                p.pipelined_cycles,
                p.unpipelined_cycles,
                p.bdd_nodes,
                p.bdd_peak_live,
                p.bdd_vars,
                p.filters,
                p.counterexample,
                p.metrics
            )
        })
        .collect();
    format!("{:?}|{:?}", plans, report.plan_failures)
}

fn ite_misses(report: &VerificationReport) -> u64 {
    report
        .metrics
        .get("bdd.ite.cache_miss")
        .copied()
        .unwrap_or(0)
}

/// Checks every plan verdict (all five positions are equivalent).
fn check(report: &VerificationReport, sweep: &Sweep, out: &mut Outcome) {
    out.invariant(report.complete(), || {
        format!("sweep degraded: {:?}", report.plan_failures)
    });
    out.invariant(report.plans_checked == sweep.plans.len(), || {
        format!(
            "{} of {} plans checked",
            report.plans_checked,
            sweep.plans.len()
        )
    });
    for plan in &report.plan_reports {
        out.verdict(plan.equivalent(), || {
            format!(
                "alpha0 plan #{} reported a counterexample: {:?}",
                plan.plan_index, plan.counterexample
            )
        });
    }
}

pub fn measure(seconds: f64, workers: usize, out: &mut Outcome) {
    let (sweep, setup_s) = measure::repeated_setup(Sweep::elaborate);
    let units = measure::repeat_for(seconds, || measure::timed(|| sweep.run(workers)));
    let first = fingerprint(&units[0].0);
    for (report, _, _) in &units {
        check(report, &sweep, out);
        out.invariant(fingerprint(report) == first, || {
            "deterministic counts drifted between sweeps".to_owned()
        });
    }
    let walls: Vec<f64> = units.iter().map(|u| u.1).collect();
    let cpu: f64 = units.iter().map(|u| u.2).sum();
    out.metric("setup_s", setup_s);
    out.metric("wall_s", measure::median(&walls));
    out.metric("cpu_s", cpu / units.len() as f64);
    out.metric("peak_rss_mb", measure::peak_rss_mb());
    // `verify_plans` delivers all five verdicts when it returns, so each
    // verdict's latency is its sweep's makespan.
    out.latency(&walls.chunks(1).collect::<Vec<_>>());
    out.metric(
        "verdicts_per_s",
        (sweep.plans.len() * units.len()) as f64 / walls.iter().sum::<f64>(),
    );
    out.info("units", Json::from_u64(units.len() as u64));
    let report = &units[0].0;
    out.info("bdd.allocated", Json::from_u64(report.bdd_nodes as u64));
    out.info("bdd.peak_live", Json::from_u64(report.bdd_peak_live as u64));
    out.info("bdd.ite.misses", Json::from_u64(ite_misses(report)));
    out.info(
        "plan.samples",
        Json::from_u64(report.samples_compared as u64),
    );
}

pub fn trace(workers: usize, out: &mut Outcome) {
    let (sweep, setup_s) = measure::repeated_setup(Sweep::elaborate);
    // The 1-worker sweep goes first: besides checking that the counts do
    // not depend on the worker count, it faults in the memory the later
    // sweeps reuse, so the untraced/traced comparison and the replay's
    // coverage are not skewed by first-touch page faults.
    let sequential = sweep.run(1);
    let (untraced, untraced_wall, _) = measure::timed(|| sweep.run(workers));
    let traced = measure::traced("bench.alpha0_sweep", || sweep.run(workers));
    for report in [&untraced, &traced.value, &sequential] {
        check(report, &sweep, out);
    }
    let reference = fingerprint(&untraced);
    out.invariant(fingerprint(&traced.value) == reference, || {
        "the traced sweep's report differs from the untraced one".to_owned()
    });
    out.invariant(fingerprint(&sequential) == reference, || {
        "the 1-worker sweep's report differs from the 2-worker one".to_owned()
    });

    // Replay each plan phase by phase, on as many workers as the sweep ran
    // on (so memory contention matches), and demand the exact counts
    // `check_plan` reported — otherwise the phases would time a different
    // program.
    let replays = pool::par_map(workers, &untraced.plan_reports, |_, plan| {
        let mut phases = Phases::default();
        let counts = replay_plan(
            &sweep.spec,
            &sweep.pipelined,
            &sweep.unpipelined,
            &plan.plan,
            &mut phases,
        );
        (phases, counts)
    });
    let mut phases = Phases::default();
    for (plan, (plan_phases, replayed)) in untraced.plan_reports.iter().zip(replays) {
        phases.absorb(&plan_phases);
        let expected = (
            plan.bdd_nodes,
            plan.bdd_peak_live,
            plan.samples_compared,
            plan.metrics.get("bdd.ite.cache_miss").copied().unwrap_or(0),
            plan.equivalent(),
        );
        out.invariant(replayed == expected, || {
            format!(
                "phase replay of plan #{} measured (allocated, peak live, samples, ITE misses, equivalent) = {replayed:?}, check_plan reported {expected:?}",
                plan.plan_index
            )
        });
    }
    let plan_walls: Vec<f64> = untraced
        .plan_reports
        .iter()
        .map(|p| p.wall_time.as_secs_f64())
        .collect();
    let plan_wall_sum: f64 = plan_walls.iter().sum();
    // A timing ratio, so a low value is reported, not failed.
    let coverage = phases.total().as_secs_f64() / plan_wall_sum;
    if coverage < 0.9 {
        eprintln!(
            "perfbench: note: the phase replay covers only {:.1} % of the plan wall time",
            coverage * 100.0
        );
    }

    let (_, elaborate_s, _) = measure::timed(Sweep::elaborate);
    let hits = untraced
        .metrics
        .get("bdd.ite.cache_hit")
        .copied()
        .unwrap_or(0);
    let misses = ite_misses(&untraced);
    out.metric("bdd.allocated", untraced.bdd_nodes as f64);
    out.metric("bdd.peak_live", untraced.bdd_peak_live as f64);
    out.metric("bdd.ite.misses", misses as f64);
    out.metric("bdd.ite.hit_rate", hits as f64 / (hits + misses) as f64);
    out.metric("bdd.gc.runs", traced.delta("bdd.gc.runs") as f64);
    out.metric("bdd.gc.collected", traced.delta("bdd.gc.collected") as f64);
    out.metric("bdd.gc_s", traced.self_s("gc.pass"));
    out.metric("bdd.constrain_s", phases.constrain.as_secs_f64());
    out.metric("bdd.constrain.calls", phases.constrain_calls as f64);
    out.metric("netlist.eval_s", phases.eval.as_secs_f64());
    out.metric("netlist.force_order_s", phases.force_order.as_secs_f64());
    out.metric("proc.elaborate_s", elaborate_s);
    out.metric("plan.count", untraced.plans_checked as f64);
    out.metric("plan.samples", untraced.samples_compared as f64);
    out.metric("plan.setup_s", phases.setup.as_secs_f64());
    out.metric("plan.expand_s", phases.expand.as_secs_f64());
    out.metric("plan.class_s", phases.class.as_secs_f64());
    out.metric("plan.sample_s", phases.sample.as_secs_f64());
    out.metric("plan.gc_s", phases.gc.as_secs_f64());
    out.metric("plan.compare_s", phases.compare.as_secs_f64());
    out.metric("plan.replay_coverage", coverage);
    out.metric(
        "plan.wall_s.max",
        plan_walls.iter().copied().fold(0.0, f64::max),
    );
    out.metric("plan.wall_s.sum", plan_wall_sum);
    traced.pool_metrics(workers, 1, out);
    out.metric("obs.trace_overhead", traced.wall / untraced_wall - 1.0);
    out.info("setup_s", Json::Num(setup_s));
}

/// Time per phase of `check_plan`, summed over the replayed plans.
#[derive(Default)]
struct Phases {
    setup: Duration,
    expand: Duration,
    force_order: Duration,
    class: Duration,
    eval: Duration,
    constrain: Duration,
    sample: Duration,
    gc: Duration,
    compare: Duration,
    constrain_calls: u64,
}

impl Phases {
    fn absorb(&mut self, other: &Phases) {
        self.setup += other.setup;
        self.expand += other.expand;
        self.force_order += other.force_order;
        self.class += other.class;
        self.eval += other.eval;
        self.constrain += other.constrain;
        self.sample += other.sample;
        self.gc += other.gc;
        self.compare += other.compare;
        self.constrain_calls += other.constrain_calls;
    }

    fn total(&self) -> Duration {
        self.setup
            + self.expand
            + self.force_order
            + self.class
            + self.eval
            + self.constrain
            + self.sample
            + self.gc
            + self.compare
    }
}

/// Re-drives `Verifier::check_plan` (default settings: FORCE static order
/// on, no reordering, no budget) through public calls, charging each step
/// to its phase. Returns (allocated, peak live, samples compared, ITE
/// misses, equivalent) for comparison with the verifier's own report.
fn replay_plan(
    spec: &MachineSpec,
    pipelined: &Netlist,
    unpipelined: &Netlist,
    plan: &SimulationPlan,
    phases: &mut Phases,
) -> (usize, usize, usize, u64, bool) {
    let mut clock = Clock::start();
    let schedule = SimulationSchedule::expand(spec, plan);
    clock.lap(&mut phases.expand);
    let mut manager = BddManager::new();
    clock.lap(&mut phases.setup);
    let instr_order: Option<Vec<usize>> = pv_netlist::order::force_order(pipelined)
        .port_orders
        .remove(&spec.instr_port)
        .filter(|order| order.len() == spec.instr_width);
    clock.lap(&mut phases.force_order);
    let slot_vars: Vec<Vec<Var>> = schedule
        .slot_classes
        .iter()
        .map(|_| {
            let alloc = manager.new_vars(spec.instr_width);
            manager.group_vars(&alloc);
            match &instr_order {
                Some(order) => {
                    let mut vars = alloc.clone();
                    for (k, &bit) in order.iter().enumerate() {
                        vars[bit] = alloc[k];
                    }
                    vars
                }
                None => alloc,
            }
        })
        .collect();
    clock.lap(&mut phases.setup);
    let mut assumption = Bdd::TRUE;
    let mut slot_words = Vec::with_capacity(slot_vars.len());
    for (vars, class) in slot_vars.iter().zip(&schedule.slot_classes) {
        let constraint = match class {
            Slot::Normal => (spec.normal_class)(&mut manager, vars),
            Slot::ControlTransfer => (spec.control_class)(&mut manager, vars),
            Slot::Interrupt | Slot::Reset => Bdd::TRUE,
        };
        assumption = manager.and(assumption, constraint);
        let bits = vars
            .iter()
            .map(|&v| {
                // Both cofactors, always, as the verifier computes them.
                let forced_true = manager.restrict(constraint, v, false).is_false();
                let forced_false = manager.restrict(constraint, v, true).is_false();
                if forced_true {
                    manager.constant(true)
                } else if forced_false {
                    manager.constant(false)
                } else {
                    manager.var(v)
                }
            })
            .collect();
        slot_words.push(BddVec::from_bits(bits));
    }
    clock.lap(&mut phases.class);
    manager.add_root(assumption);
    for word in &slot_words {
        for &bit in word.bits() {
            manager.add_root(bit);
        }
    }
    clock.lap(&mut phases.setup);

    let pipelined_samples = simulate(
        spec,
        &mut manager,
        pipelined,
        &schedule.pipelined_inputs,
        &schedule.pipelined_irq_cycles,
        &slot_words,
        &schedule
            .samples
            .iter()
            .map(|&(j, pc, _)| (j, pc))
            .collect::<Vec<_>>(),
        true,
        assumption,
        phases,
    );
    let unpipelined_samples = simulate(
        spec,
        &mut manager,
        unpipelined,
        &schedule.unpipelined_inputs,
        &schedule.unpipelined_irq_cycles,
        &slot_words,
        &schedule
            .samples
            .iter()
            .map(|&(j, _, uc)| (j, uc))
            .collect::<Vec<_>>(),
        false,
        assumption,
        phases,
    );

    let mut clock = Clock::start();
    let mut samples = 0usize;
    let mut equivalent = true;
    'outer: for &(slot, _, _) in &schedule.samples {
        for name in &spec.observed {
            let p = &pipelined_samples[&slot][name];
            let u = &unpipelined_samples[&slot][name];
            samples += 1;
            let equal = p.eq(&mut manager, u);
            let differs = manager.not(equal);
            if !manager.and(assumption, differs).is_false() {
                equivalent = false;
                break 'outer;
            }
        }
    }
    clock.lap(&mut phases.compare);
    let stats = manager.stats();
    (
        stats.allocated,
        stats.peak_live,
        samples,
        stats.ite_misses as u64,
        equivalent,
    )
}

/// The per-cycle loop of the verifier's symbolic simulation of one machine:
/// input words, `SymbolicSim::step` (eval), cofactoring the state by the
/// class assumption (constrain), sampling, and the per-cycle collection.
#[allow(clippy::too_many_arguments)]
fn simulate(
    spec: &MachineSpec,
    manager: &mut BddManager,
    netlist: &Netlist,
    cycle_inputs: &[CycleInput],
    irq_cycles: &[usize],
    slot_words: &[BddVec],
    sample_cycles: &[(usize, usize)],
    is_implementation: bool,
    assumption: Bdd,
    phases: &mut Phases,
) -> BTreeMap<usize, BTreeMap<String, BddVec>> {
    let mut clock = Clock::start();
    let sym = SymbolicSim::new(netlist);
    let mut state = sym.initial_state(manager);
    let mut samples = BTreeMap::new();
    let has_irq = spec
        .irq_port
        .as_ref()
        .is_some_and(|p| netlist.input_width(p).is_some());
    let has_stall = spec
        .stall_port
        .as_ref()
        .is_some_and(|p| netlist.input_width(p).is_some());
    let last_slot_cycle = cycle_inputs
        .iter()
        .rposition(|i| matches!(i, CycleInput::Slot(_)))
        .unwrap_or(0);
    clock.lap(&mut phases.setup);
    for (cycle, input) in cycle_inputs.iter().enumerate() {
        let (instr, reset) = match input {
            CycleInput::Reset => (BddVec::constant(manager, 0, spec.instr_width), true),
            CycleInput::Slot(j) => (slot_words[*j].clone(), false),
            CycleInput::DontCare if is_implementation && cycle <= last_slot_cycle => {
                let vars = manager.new_vars(spec.instr_width);
                manager.group_vars(&vars);
                (BddVec::from_vars(manager, &vars), false)
            }
            CycleInput::DontCare => (BddVec::constant(manager, 0, spec.instr_width), false),
        };
        let mut inputs = BTreeMap::new();
        inputs.insert(spec.instr_port.clone(), instr);
        inputs.insert(
            spec.reset_port.clone(),
            BddVec::constant(manager, u64::from(reset), 1),
        );
        if let (true, Some(irq)) = (has_irq, &spec.irq_port) {
            let value = u64::from(irq_cycles.contains(&cycle));
            inputs.insert(irq.clone(), BddVec::constant(manager, value, 1));
        }
        if let (true, Some(stall)) = (has_stall, &spec.stall_port) {
            inputs.insert(stall.clone(), BddVec::constant(manager, 0, 1));
        }
        let (mut next_state, outputs) = sym.step(manager, &state, &inputs);
        clock.lap(&mut phases.eval);
        if !assumption.is_true() {
            for bit in &mut next_state.regs {
                *bit = manager.constrain(*bit, assumption);
                phases.constrain_calls += 1;
            }
        }
        clock.lap(&mut phases.constrain);
        for &(slot, sample_cycle) in sample_cycles {
            if sample_cycle != cycle {
                continue;
            }
            let observed: BTreeMap<String, BddVec> = spec
                .observed
                .iter()
                .map(|name| {
                    let word = &outputs[name];
                    let bits = (0..word.width())
                        .map(|i| {
                            phases.constrain_calls += 1;
                            manager.constrain(word.bit(i), assumption)
                        })
                        .collect();
                    (name.clone(), BddVec::from_bits(bits))
                })
                .collect();
            for word in observed.values() {
                for &bit in word.bits() {
                    manager.add_root(bit);
                }
            }
            samples.insert(slot, observed);
        }
        state = next_state;
        clock.lap(&mut phases.sample);
        manager.maybe_reorder(&state.regs);
        manager.maybe_gc(&state.regs);
        clock.lap(&mut phases.gc);
    }
    samples
}
