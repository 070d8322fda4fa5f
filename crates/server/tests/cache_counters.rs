//! The registry's `cache.hit`/`cache.miss` counters count flow-report
//! lookups and nothing else. Its own test binary with a single test,
//! because the metrics registry is process-global and parallel tests would
//! share its counters.

use pipeverify_core::cache::ArtifactCache;
use pv_proc::family::{FamilyBug, FamilyConfig};
use pv_server::job::JobRunner;
use pv_server::protocol::{DesignSpec, FlowKind, JobRequest, PlanSet};
use pv_server::sched;

fn counter(name: &str) -> u64 {
    pv_obs::metrics::value(name).unwrap_or(0)
}

/// Runs `jobs` and returns the `(cache.hit, cache.miss)` deltas it caused.
fn wave(runner: &JobRunner, jobs: &[JobRequest]) -> (u64, u64) {
    let (hit, miss) = (counter("cache.hit"), counter("cache.miss"));
    for outcome in sched::run_jobs(runner, jobs, 2, |_, _| {}) {
        outcome.expect("both jobs are verifiable");
    }
    (counter("cache.hit") - hit, counter("cache.miss") - miss)
}

#[test]
fn cache_counters_count_report_lookups_only() {
    let dir = std::env::temp_dir().join(format!("pv-cache-counters-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Two cells of one configuration, both flows: four report lookups.
    let config = FamilyConfig::new(2, 4, 2, 0).stallable();
    let jobs: Vec<JobRequest> = [config, config.with_bug(FamilyBug::BranchTargetOffByOne)]
        .into_iter()
        .enumerate()
        .map(|(id, design)| JobRequest {
            id: id as u64,
            design: DesignSpec::Family(design),
            flows: vec![FlowKind::Beta, FlowKind::Flushing],
            plans: PlanSet::Default,
            deadline_ms: None,
            node_budget: None,
        })
        .collect();

    let cold = JobRunner::new(Some(ArtifactCache::at(&dir)));
    let (hit, miss) = wave(&cold, &jobs);
    assert_eq!(cold.cache_misses(), 4, "every flow run is cold");
    assert_eq!(miss, cold.cache_misses() as u64, "cold cache.miss delta");
    assert_eq!(hit, 0, "a cold wave has no cache hits");

    let warm = JobRunner::new(Some(ArtifactCache::at(&dir)));
    let (hit, miss) = wave(&warm, &jobs);
    assert_eq!(warm.cache_hits(), 4, "every flow run is warm");
    assert_eq!(hit, warm.cache_hits() as u64, "warm cache.hit delta");
    assert_eq!(miss, 0, "a warm wave has no cache misses");

    std::fs::remove_dir_all(&dir).ok();
}
