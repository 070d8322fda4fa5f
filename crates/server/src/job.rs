//! The **job runner**: one [`JobRequest`] in, one [`JobResponse`] out, with
//! the content-addressed artifact cache consulted before any engine runs.
//!
//! # What a job costs, warm and cold
//!
//! A cold job elaborates the design pair, runs every requested flow (each
//! with its inner worker pool pinned to one thread — parallelism lives at the
//! job level, see [`crate::sched`]) and stores each complete [`FlowReport`]
//! as JSON. A warm job loads and decodes the stored report — a file read —
//! and marks the result `cached: true`.
//!
//! # Cache-key derivation
//!
//! The key parts (hashed by [`content_key`], see
//! [`pipeverify_core::cache`]):
//!
//! * **β-relation**: the flow name, the engine-relevant [`MachineSpec`]
//!   fields, the text rendering of every plan in the sweep, and the netlist
//!   exports of *both* designs.
//! * **flushing**: the flow name and the *pipelined* export only — the flow
//!   derives everything (including its specification: the uninterpreted
//!   single-step ISA semantics) from the pipelined netlist's pipeline hints.
//!
//! Worker-thread counts are deliberately excluded: the pool's deterministic
//! merge makes reports field-identical for any thread count. Changing one
//! seeded bug changes one pipelined export, hence that cell's keys — and no
//! other cell's.

use std::sync::atomic::{AtomicUsize, Ordering};

use pipeverify_core::cache::{content_key, ArtifactCache, ArtifactKind, CacheKey};
use pipeverify_core::json::Json;
use pipeverify_core::report_io;
use pipeverify_core::{Budget, FlowReport, MachineSpec, Verifier};
use pv_flush::FlushVerifier;
use pv_netlist::{export, Netlist};
use pv_proc::family::FamilyConfig;
use pv_proc::vsm::VsmConfig;
use pv_proc::{family, vsm};

use crate::protocol::{
    DesignSpec, FlowKind, FlowResult, JobError, JobRequest, JobResponse, PlanSet,
};

/// Environment default for [`JobRequest::deadline_ms`] — applied when a job
/// names no deadline of its own. Unset or unparsable means unlimited.
pub const PV_DEADLINE_MS: &str = "PV_DEADLINE_MS";

/// Environment default for [`JobRequest::node_budget`]. Unset or unparsable
/// means unlimited.
pub const PV_NODE_BUDGET: &str = "PV_NODE_BUDGET";

/// Runs verification jobs against the engines, fronted by an optional
/// artifact cache. Shared across worker threads by reference (the hit/miss
/// counters are atomic).
#[derive(Debug)]
pub struct JobRunner {
    cache: Option<ArtifactCache>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl JobRunner {
    /// A runner over the given cache (`None` disables caching entirely —
    /// every job runs cold and nothing is stored).
    pub fn new(cache: Option<ArtifactCache>) -> Self {
        JobRunner {
            cache,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Flow runs answered from the cache so far.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Flow runs that went to the engines so far.
    pub fn cache_misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Runs one job: elaborates the design pair, then answers each requested
    /// flow from the cache or the engine.
    ///
    /// # Errors
    /// Returns a structured [`JobError`] when the design parameters are out
    /// of range, elaboration fails, or a flow rejects the pair (e.g. flushing
    /// on a design without a stall input) — all `invalid`. A flow in which
    /// *no* unit (plan / case-split block) completed is reported with the
    /// first unit failure's kind (budget kind, or `worker_panicked`); a
    /// partially-starved flow still answers `ok` with the degraded report
    /// (per-unit failures inside). Job errors never panic
    /// the worker; injected faults and genuine panics are caught one layer
    /// up, in [`crate::sched`].
    pub fn run(&self, job: &JobRequest) -> Result<JobResponse, JobError> {
        // Chaos site: a worker exploding mid-job must surface as a
        // `worker_panicked` error response for this job only.
        pv_obs::fail::inject_panic("job.run");
        let (pipelined, unpipelined, spec) = elaborate(&job.design).map_err(JobError::invalid)?;
        let budget = job_budget(job);
        let mut verifier = Verifier::new(spec).with_threads(1);
        if let Some(budget) = &budget {
            verifier = verifier.with_budget(budget.clone());
        }
        let plans = match &job.plans {
            PlanSet::Default => verifier.default_plans(),
            PlanSet::Explicit(plans) => plans.clone(),
        };

        let pipelined_export = export::export(&pipelined);
        let unpipelined_export = export::export(&unpipelined);

        let mut results = Vec::with_capacity(job.flows.len());
        for &flow in &job.flows {
            let key = match flow {
                FlowKind::Beta => {
                    let mut parts = vec![
                        "beta-relation".to_owned(),
                        spec_fingerprint(verifier.spec()),
                    ];
                    parts.extend(plans.iter().map(|p| p.to_string()));
                    parts.push(pipelined_export.clone());
                    parts.push(unpipelined_export.clone());
                    content_key(&parts)
                }
                FlowKind::Flushing => {
                    content_key(["flushing".to_owned(), pipelined_export.clone()])
                }
            };

            if let Some(report) = self.load_report(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "pv: cache hit {key} ({} / job {} / {})",
                    flow.wire_name(),
                    job.id,
                    report.design,
                );
                results.push(FlowResult {
                    flow: report.flow,
                    cached: true,
                    report,
                });
                continue;
            }

            self.misses.fetch_add(1, Ordering::Relaxed);
            let report = match flow {
                FlowKind::Beta => verifier
                    .verify_plans(&pipelined, &unpipelined, &plans)
                    .map_err(|e| JobError::invalid(e.to_string()))?
                    .to_flow_report(),
                FlowKind::Flushing => {
                    let mut flushing = FlushVerifier::from_netlist(&pipelined)
                        .map_err(|e| JobError::invalid(e.to_string()))?
                        .with_threads(1);
                    if let Some(budget) = &budget {
                        flushing = flushing.with_budget(budget.clone());
                    }
                    flushing.verify().to_flow_report()
                }
            };
            // Graceful degradation: a budget or panic that failed *some*
            // units still answers `ok` with the per-unit failures in the
            // report; only a flow with **nothing** checked escalates to a
            // typed job error.
            if let (0, Some(first)) = (report.units_checked, report.unit_failures.first()) {
                let unit = report.unit_label;
                return Err(JobError {
                    kind: first.kind,
                    message: format!(
                        "no {unit} completed: {unit} #{} {}: {}",
                        first.unit, first.kind, first.message
                    ),
                });
            }
            // A degraded (budget-starved or panic-hit) report is this
            // *job's* answer, not the design pair's — caching it would
            // poison warm runs that carry a bigger budget or hit no fault,
            // so only complete reports are stored.
            if report.unit_failures.is_empty() {
                self.store_report(key, &report);
            }
            results.push(FlowResult {
                flow: report.flow,
                cached: false,
                report,
            });
        }
        Ok(JobResponse {
            id: job.id,
            results,
        })
    }

    fn load_report(&self, key: CacheKey) -> Option<FlowReport> {
        let cache = self.cache.as_ref()?;
        let text = cache.load(ArtifactKind::Report, key)?;
        // A corrupt or older-format entry reads as a miss and is rewritten —
        // but it ticks `cache.corrupt`, so a soak can prove no entry was
        // ever torn (a crash-consistency canary, not just a warmth loss).
        let report = Json::parse(&text)
            .ok()
            .and_then(|json| report_io::flow_report_from_json(&json).ok());
        if report.is_none() {
            cache.note_corrupt(ArtifactKind::Report, key);
        }
        report
    }

    fn store_report(&self, key: CacheKey, report: &FlowReport) {
        let Some(cache) = &self.cache else { return };
        let text = report_io::flow_report_to_json(report).render();
        if let Err(e) = cache.store(ArtifactKind::Report, key, &text) {
            eprintln!("pv: cache store failed for {key}: {e} (continuing uncached)");
        }
    }
}

/// Resolves a job's resource budget: per-job fields first, the
/// `PV_DEADLINE_MS` / `PV_NODE_BUDGET` environment defaults second, and
/// `None` (unlimited — governance off, zero overhead) when neither names a
/// bound.
fn job_budget(job: &JobRequest) -> Option<Budget> {
    let env_u64 = |name: &str| std::env::var(name).ok()?.trim().parse::<u64>().ok();
    let deadline_ms = job.deadline_ms.or_else(|| env_u64(PV_DEADLINE_MS));
    let node_budget = job.node_budget.or_else(|| env_u64(PV_NODE_BUDGET));
    if deadline_ms.is_none() && node_budget.is_none() {
        return None;
    }
    let mut budget = Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(nodes) = node_budget {
        budget = budget.with_node_limit(nodes as usize);
    }
    Some(budget)
}

/// Elaborates the (possibly bug-seeded) implementation, its *correct*
/// specification and the β-relation machine specification — the one
/// elaboration of a [`DesignSpec`], shared by [`JobRunner::run`] and callers
/// that replay a job's counterexample on the netlists it verified.
///
/// # Errors
/// Returns the message of [`FamilyConfig::validate`] or
/// [`VsmConfig::validate`] for a malformed design (checked first, so it never
/// reaches an elaborator's panic), or the elaborator's message when the
/// design cannot be built.
pub fn elaborate(design: &DesignSpec) -> Result<(Netlist, Netlist, MachineSpec), String> {
    match *design {
        DesignSpec::Family(config) => {
            config.validate()?;
            let base = FamilyConfig {
                bug: None,
                ..config
            };
            let pipelined = family::pipelined(config).map_err(|e| e.to_string())?;
            let unpipelined = family::unpipelined(base).map_err(|e| e.to_string())?;
            let spec = MachineSpec::family(
                config.depth,
                config.word_width,
                config.num_regs,
                config.delay_slots,
            );
            Ok((pipelined, unpipelined, spec))
        }
        DesignSpec::Vsm {
            num_regs,
            stallable,
        } => {
            let mut config = VsmConfig::reduced(num_regs);
            config.validate()?;
            if stallable {
                config = config.stallable();
            }
            let pipelined = vsm::pipelined(config).map_err(|e| e.to_string())?;
            let unpipelined =
                vsm::unpipelined(VsmConfig::reduced(num_regs)).map_err(|e| e.to_string())?;
            let mut spec = MachineSpec::vsm_reduced(num_regs);
            if stallable {
                spec = spec.with_stall_port("stall");
            }
            Ok((pipelined, unpipelined, spec))
        }
    }
}

/// Renders the engine-relevant [`MachineSpec`] fields into one cache-key
/// part. The instruction-class constraints are function pointers chosen by
/// the spec constructor from the same fields, so they add no information.
fn spec_fingerprint(spec: &MachineSpec) -> String {
    format!(
        "spec|{}|k={}|d={}|iw={}|instr={}|reset={}|irq={:?}|stall={:?}|obs={:?}|off={}",
        spec.name,
        spec.k,
        spec.delay_slots,
        spec.instr_width,
        spec.instr_port,
        spec.reset_port,
        spec.irq_port,
        spec.stall_port,
        spec.observed,
        spec.sample_offset,
    )
}

/// A monotonic relative cost estimate for LPT scheduling: grows with
/// pipeline depth (more plans, longer simulations), word width and register
/// count (wider BDD vectors), delay slots, and with the number of plans and
/// flows actually requested. The absolute scale is meaningless — only the
/// order matters.
pub fn cost_estimate(job: &JobRequest) -> u64 {
    let (depth, width, regs, delay) = match job.design {
        DesignSpec::Family(c) => (c.depth, c.word_width, c.num_regs, c.delay_slots),
        DesignSpec::Vsm { num_regs, .. } => (3, 13, num_regs, 0),
    };
    let plans = match &job.plans {
        PlanSet::Default => depth + 1,
        PlanSet::Explicit(plans) => plans.len(),
    };
    (depth * depth * width * regs * (1 + delay) * plans * job.flows.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeverify_core::FlowErrorKind;
    use pv_proc::family::FamilyBug;

    fn family_job(id: u64, config: FamilyConfig) -> JobRequest {
        JobRequest {
            id,
            design: DesignSpec::Family(config),
            flows: vec![FlowKind::Beta, FlowKind::Flushing],
            plans: PlanSet::Default,
            deadline_ms: None,
            node_budget: None,
        }
    }

    #[test]
    fn invalid_designs_answer_with_errors_not_panics() {
        let runner = JobRunner::new(None);
        // Every row is stallable, so the flushing flow would accept it: the
        // error comes from the violated parameter alone.
        for (config, field) in [
            (FamilyConfig::new(1, 4, 2, 0), "depth"),
            (FamilyConfig::new(2, 4, 3, 0), "num_regs"),
            (FamilyConfig::new(2, 17, 2, 0), "word_width"),
            (FamilyConfig::new(2, 4, 2, 2), "delay_slots"),
            (
                FamilyConfig::new(2, 4, 2, 0).with_bug(FamilyBug::DropForwardPath),
                "bug DropForwardPath",
            ),
        ] {
            let error = runner
                .run(&family_job(0, config.stallable()))
                .expect_err("out of range");
            assert_eq!(error.kind, FlowErrorKind::Invalid, "{config:?}");
            assert!(error.message.contains(field), "{}", error.message);
        }
        let vsm = JobRequest {
            id: 0,
            design: DesignSpec::Vsm {
                num_regs: 3,
                stallable: false,
            },
            flows: vec![FlowKind::Beta],
            plans: PlanSet::Default,
            deadline_ms: None,
            node_budget: None,
        };
        let error = runner.run(&vsm).expect_err("3 is not a power of two");
        assert_eq!(error.kind, FlowErrorKind::Invalid);
        assert!(
            error.message.contains("vsm num_regs 3"),
            "{}",
            error.message
        );
        // The flushing flow drains the pipeline through its stall input, so
        // a design without one is rejected, not verified.
        let unstallable = JobRequest {
            design: DesignSpec::Vsm {
                num_regs: 2,
                stallable: false,
            },
            flows: vec![FlowKind::Flushing],
            ..vsm
        };
        let error = runner.run(&unstallable).expect_err("no stall input");
        assert_eq!(error.kind, FlowErrorKind::Invalid);
        assert!(error.message.contains("stall input"), "{}", error.message);
    }

    #[test]
    fn elaborate_answers_an_invalid_design_with_an_error() {
        let design = DesignSpec::Family(FamilyConfig::new(1, 4, 2, 0).stallable());
        let error = elaborate(&design).expect_err("depth 1 is out of range");
        assert_eq!(error, "family depth 1 out of range 2..=8");
    }

    #[test]
    fn a_starved_flow_answers_a_typed_job_error_in_either_flow() {
        let runner = JobRunner::new(None);
        let config = FamilyConfig::new(3, 4, 2, 0).stallable();
        for (flow, unit) in [
            (FlowKind::Flushing, "case-split block"),
            (FlowKind::Beta, "plan"),
        ] {
            let job = JobRequest {
                flows: vec![flow],
                deadline_ms: Some(0),
                ..family_job(1, config)
            };
            let error = runner.run(&job).expect_err("nothing can complete");
            assert_eq!(error.kind, FlowErrorKind::DeadlineExceeded);
            assert_eq!(
                error.message,
                format!("no {unit} completed: {unit} #0 deadline_exceeded: wall-clock deadline exceeded")
            );
        }
    }

    #[test]
    fn cost_estimate_is_monotonic_in_every_axis() {
        let base = family_job(0, FamilyConfig::new(3, 4, 2, 0).stallable());
        let cost = cost_estimate(&base);
        let deeper = family_job(0, FamilyConfig::new(4, 4, 2, 0).stallable());
        let wider = family_job(0, FamilyConfig::new(3, 6, 2, 0).stallable());
        let more_regs = family_job(0, FamilyConfig::new(3, 4, 4, 0).stallable());
        let delay = family_job(0, FamilyConfig::new(3, 4, 2, 1).stallable());
        for bigger in [&deeper, &wider, &more_regs, &delay] {
            assert!(cost_estimate(bigger) > cost, "{:?}", bigger.design);
        }
        let fewer_flows = JobRequest {
            flows: vec![FlowKind::Beta],
            ..base.clone()
        };
        assert!(cost_estimate(&fewer_flows) < cost);
    }
}
