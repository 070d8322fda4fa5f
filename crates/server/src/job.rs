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
use pipeverify_core::{Budget, FlowReport, MachineSpec, VerificationFlow, Verifier};
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
    /// on a design without a stall input) — all `invalid`. A budget trip that
    /// starves *every* plan of the β-relation sweep is reported with its
    /// budget kind; a partially-starved sweep still answers `ok` with the
    /// degraded report (per-plan failures inside). Job errors never panic
    /// the worker; injected faults and genuine panics are caught one layer
    /// up, in [`crate::sched`].
    pub fn run(&self, job: &JobRequest) -> Result<JobResponse, JobError> {
        // Chaos site: a worker exploding mid-job must surface as a
        // `worker_panicked` error response for this job only.
        pv_obs::fail::inject_panic("job.run");
        validate_design(&job.design).map_err(JobError::invalid)?;
        let (pipelined, unpipelined, spec) = elaborate(&job.design).map_err(JobError::invalid)?;
        let mut verifier = Verifier::new(spec).with_threads(1);
        if let Some(budget) = job_budget(job) {
            verifier = verifier.with_budget(budget);
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
                FlowKind::Beta => {
                    let started = std::time::Instant::now();
                    let vreport = verifier
                        .verify_plans(&pipelined, &unpipelined, &plans)
                        .map_err(|e| JobError::invalid(e.to_string()))?;
                    // Graceful degradation: a budget that starved *some*
                    // plans still answers `ok` with the per-plan failures in
                    // the report; only a sweep with **nothing** checked
                    // escalates to a typed job error.
                    if vreport.plans_checked == 0 && !vreport.complete() {
                        let first = &vreport.plan_failures[0];
                        return Err(JobError {
                            kind: first.kind,
                            message: format!("no plan completed: {first}"),
                        });
                    }
                    vreport.to_flow_report(started.elapsed())
                }
                FlowKind::Flushing => FlushVerifier::from_netlist(&pipelined)
                    .map_err(|e| JobError::invalid(e.to_string()))?
                    .with_threads(1)
                    .verify_flow(&pipelined, &unpipelined)
                    .map_err(|e| JobError {
                        kind: e.kind,
                        message: e.to_string(),
                    })?,
            };
            // A degraded (budget-starved) report is this *job's* answer, not
            // the design pair's — caching it would poison warm runs that
            // carry a bigger budget, so only complete reports are stored.
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

/// Checks design parameters up front, so malformed jobs answer with an error
/// line instead of panicking a worker inside the elaborator's asserts.
fn validate_design(design: &DesignSpec) -> Result<(), String> {
    match *design {
        DesignSpec::Family(config) => {
            if !(2..=8).contains(&config.depth) {
                return Err(format!("family depth {} out of range 2..=8", config.depth));
            }
            if !config.num_regs.is_power_of_two() || !(2..=8).contains(&config.num_regs) {
                return Err(format!(
                    "family num_regs {} must be a power of two in 2..=8",
                    config.num_regs
                ));
            }
            if config.word_width < config.reg_addr_width() || config.word_width > 16 {
                return Err(format!(
                    "family word_width {} out of range {}..=16",
                    config.word_width,
                    config.reg_addr_width()
                ));
            }
            if config.delay_slots > 1 {
                return Err(format!(
                    "family delay_slots {} out of range 0..=1",
                    config.delay_slots
                ));
            }
            if let Some(bug) = config.bug {
                if !bug.applies_to(&config) {
                    return Err(format!(
                        "bug {:?} does not apply to configuration {}",
                        bug,
                        FamilyConfig {
                            bug: None,
                            ..config
                        }
                        .tag()
                    ));
                }
            }
            Ok(())
        }
        DesignSpec::Vsm { num_regs, .. } => {
            if !num_regs.is_power_of_two() || !(1..=8).contains(&num_regs) {
                return Err(format!(
                    "vsm num_regs {num_regs} must be a power of two in 1..=8"
                ));
            }
            Ok(())
        }
    }
}

/// Elaborates the (possibly bug-seeded) implementation, its *correct*
/// specification and the β-relation machine specification.
fn elaborate(design: &DesignSpec) -> Result<(Netlist, Netlist, MachineSpec), String> {
    match *design {
        DesignSpec::Family(config) => {
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
        for config in [
            FamilyConfig::new(1, 4, 2, 0),
            FamilyConfig::new(2, 4, 3, 0),
            FamilyConfig::new(2, 1, 2, 0),
            FamilyConfig::new(2, 4, 2, 2),
            FamilyConfig::new(2, 4, 2, 0).with_bug(FamilyBug::DropForwardPath),
        ] {
            assert!(runner.run(&family_job(0, config)).is_err(), "{config:?}");
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
        assert!(runner.run(&vsm).is_err());
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
