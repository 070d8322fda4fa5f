//! Cache **correctness**: a warm run must be *indistinguishable* from the
//! cold run it replays — byte-identical report JSON, including the recorded
//! wall times — and a sweep with one changed bug-config must recompute only
//! the changed cell.
//!
//! The job set is the family-matrix smoke subset (`pv_bench::matrix`), the
//! same designs the cross-flow agreement test pins down, so "cached and cold
//! runs produce field-identical reports" is checked on reports whose verdicts
//! are themselves already under test.

use std::path::PathBuf;

use pipeverify_core::cache::ArtifactCache;
use pv_bench::matrix::{cell_jobs, cells, smoke_configs};
use pv_proc::family::{FamilyBug, FamilyConfig};
use pv_server::job::JobRunner;
use pv_server::protocol::{self, DesignSpec, JobRequest};
use pv_server::sched;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pv-server-cache-test-{tag}-{}", std::process::id()))
}

/// The smoke subset of the family matrix as a job list: every smoke
/// configuration, correct and with each applicable seeded bug, through both
/// flows.
fn smoke_jobs() -> Vec<JobRequest> {
    cell_jobs(&cells(&smoke_configs()))
}

fn run_all(runner: &JobRunner, jobs: &[JobRequest]) -> Vec<String> {
    sched::run_jobs(runner, jobs, 2, |_, _| {})
        .into_iter()
        .map(|outcome| {
            let response = outcome.expect("every smoke job is verifiable");
            protocol::response_to_json(&response).render()
        })
        .collect()
}

#[test]
fn warm_runs_replay_cold_reports_field_identically() {
    let dir = scratch("warm");
    std::fs::remove_dir_all(&dir).ok();

    let jobs = smoke_jobs();
    assert!(jobs.len() >= 6, "the smoke matrix has correct + bug cells");

    let cold_runner = JobRunner::new(Some(ArtifactCache::at(&dir)));
    let cold = run_all(&cold_runner, &jobs);
    assert_eq!(cold_runner.cache_hits(), 0, "first run is entirely cold");
    assert_eq!(cold_runner.cache_misses(), 2 * jobs.len());

    let warm_runner = JobRunner::new(Some(ArtifactCache::at(&dir)));
    let warm = run_all(&warm_runner, &jobs);
    assert_eq!(warm_runner.cache_misses(), 0, "second run is entirely warm");
    assert_eq!(warm_runner.cache_hits(), 2 * jobs.len());

    // Byte-identical response lines — except the `cached` flags, which are
    // the one field that *must* differ. Strip them and compare.
    for (cold_line, warm_line) in cold.iter().zip(&warm) {
        let strip = |line: &str| line.replace("\"cached\":true", "\"cached\":false");
        assert_eq!(
            strip(cold_line),
            strip(warm_line),
            "warm reports must be field-identical to cold ones"
        );
        assert!(warm_line.contains("\"cached\":true"));
        assert!(!cold_line.contains("\"cached\":true"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Crash consistency: entries truncated mid-write (as by a killed process)
/// must read as **misses** — recomputed and rewritten, never served torn and
/// never failing the job.
#[test]
fn truncated_cache_entries_read_as_misses_and_are_rewritten() {
    let dir = scratch("truncated");
    std::fs::remove_dir_all(&dir).ok();

    let jobs = &smoke_jobs()[..2];
    let cold_runner = JobRunner::new(Some(ArtifactCache::at(&dir)));
    let cold = run_all(&cold_runner, jobs);

    // Simulate a crash mid-write: truncate every report entry to half, and
    // garble one to non-JSON entirely.
    let mut reports: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".report.json"))
        .collect();
    reports.sort();
    assert!(reports.len() >= 2, "the cold run stored report entries");
    for (index, path) in reports.iter().enumerate() {
        if index == 0 {
            std::fs::write(path, "not json at all").expect("garble");
        } else {
            let text = std::fs::read_to_string(path).expect("read entry");
            std::fs::write(path, &text[..text.len() / 2]).expect("truncate");
        }
    }

    let warm_runner = JobRunner::new(Some(ArtifactCache::at(&dir)));
    let warm = run_all(&warm_runner, jobs);
    assert_eq!(
        warm_runner.cache_hits(),
        0,
        "every truncated entry reads as a miss"
    );
    assert_eq!(warm_runner.cache_misses(), 2 * jobs.len());
    // Recomputed reports are field-identical up to wall-clock durations
    // (which are re-measured, unlike a warm replay of the stored bytes).
    fn scrub_walls(line: &str) -> String {
        let mut out = String::new();
        let mut rest = line;
        while let Some(pos) = rest.find("_ns\":") {
            out.push_str(&rest[..pos + 5]);
            let after = &rest[pos + 5..];
            let skip = if let Some(stripped) = after.strip_prefix('[') {
                1 + stripped.find(']').map_or(0, |e| e + 1)
            } else {
                after
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(after.len())
            };
            out.push('0');
            rest = &after[skip..];
        }
        out.push_str(rest);
        out
    }
    for (cold_line, warm_line) in cold.iter().zip(&warm) {
        assert_eq!(
            scrub_walls(cold_line),
            scrub_walls(warm_line),
            "recomputed reports are field-identical up to wall clocks"
        );
    }

    // The recomputation healed the cache: a third run is entirely warm.
    let healed_runner = JobRunner::new(Some(ArtifactCache::at(&dir)));
    run_all(&healed_runner, jobs);
    assert_eq!(
        healed_runner.cache_misses(),
        0,
        "the rewrite healed every entry"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn changing_one_bug_config_recomputes_only_that_cell() {
    let dir = scratch("delta");
    std::fs::remove_dir_all(&dir).ok();

    let jobs = smoke_jobs();
    let cold_runner = JobRunner::new(Some(ArtifactCache::at(&dir)));
    run_all(&cold_runner, &jobs);

    // The changed sweep: one bug cell's configuration is edited (a wider
    // word), as when a bug-injection matrix entry is changed between runs.
    // Every *other* cell is untouched and must stay warm.
    let mut changed = jobs.clone();
    let victim = changed
        .iter_mut()
        .find(|job| {
            matches!(
                job.design,
                DesignSpec::Family(FamilyConfig {
                    bug: Some(FamilyBug::WrongStallCondition),
                    delay_slots: 0,
                    ..
                })
            )
        })
        .expect("the smoke matrix has a stall-bug zero-delay-slot cell");
    let DesignSpec::Family(config) = victim.design else {
        unreachable!()
    };
    victim.design = DesignSpec::Family(FamilyConfig {
        word_width: config.word_width + 1,
        ..config
    });

    let warm_runner = JobRunner::new(Some(ArtifactCache::at(&dir)));
    run_all(&warm_runner, &changed);
    assert_eq!(
        warm_runner.cache_misses(),
        2,
        "only the changed cell's two flow runs recompute"
    );
    assert_eq!(warm_runner.cache_hits(), 2 * (changed.len() - 1));

    std::fs::remove_dir_all(&dir).ok();
}
