//! A scaled-down **soak** of the socket server in every `cargo test` run
//! (CI's `server-soak` job floods the real binary with hundreds of jobs; see
//! `.github/workflows/ci.yml`): a client queues a burst of jobs, half-closes
//! the stream, and every single job must come back — the graceful-shutdown
//! drain contract.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use pipeverify_core::cache::ArtifactCache;
use pipeverify_core::json::Json;
use pv_server::job::JobRunner;
use pv_server::protocol::{self, DesignSpec, FlowKind, JobRequest, PlanSet};
use pv_server::server::{self, BindAddr};

#[test]
fn a_job_burst_drains_completely_on_half_close() {
    const JOBS: u64 = 40;
    /// Worker threads the server runs each arrival wave on.
    const THREADS: usize = 4;
    /// Distinct designs in the burst: jobs alternate a correct and a
    /// bug-seeded design.
    const DESIGNS: usize = 2;

    let scratch = std::env::temp_dir().join(format!("pv-server-soak-test-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let addr = BindAddr::Unix(scratch.join("pv.sock"));
    let runner = JobRunner::new(Some(ArtifactCache::at(scratch.join("cache"))));
    let shutdown = AtomicBool::new(false);

    let ids = std::thread::scope(|scope| {
        let server = scope.spawn(|| server::serve(&addr, &runner, THREADS, &shutdown));

        // Wait for the socket to appear, then flood it.
        let mut stream = loop {
            match addr.connect() {
                Ok(stream) => break stream,
                Err(_) if !server.is_finished() => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => panic!("server died before accepting: {e}"),
            }
        };
        let reader = stream.reader().expect("clone stream");
        for id in 0..JOBS {
            // Rotate a correct and a bug-seeded tiny design so both verdicts
            // flow through the protocol; the cache warms after one of each.
            let design = r#"{"depth":2,"word_width":4,"num_regs":2,"delay_slots":0"#;
            let bug = if id % 2 == 0 {
                ""
            } else {
                r#","bug":"inv-stall""#
            };
            writeln!(
                stream,
                r#"{{"id":{id},"design":{{"family":{design}{bug}}}}},"flows":["beta"]}}"#
            )
            .expect("send job");
        }
        stream.shutdown_write().expect("half-close");
        drop(stream);

        let mut ids = Vec::new();
        for line in BufReader::new(reader).lines() {
            let line = line.expect("read response");
            let value = Json::parse(&line).expect("response is JSON");
            assert_eq!(
                value.get("ok").and_then(Json::as_bool),
                Some(true),
                "no job errors in the burst: {line}"
            );
            ids.push(value.get("id").and_then(Json::as_u64).expect("id"));
        }
        shutdown.store(true, Ordering::Relaxed);
        server
            .join()
            .expect("no panic")
            .expect("serve returns cleanly");
        ids
    });

    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted,
        (0..JOBS).collect::<Vec<_>>(),
        "zero dropped, zero duplicated responses"
    );
    // A job misses the cache only if it looks up its design before the
    // first job of that design has stored its report. Every such job is
    // still running when that first store lands, and a wave runs at most
    // `THREADS` jobs at once, so each design misses at most `THREADS` times
    // however the arrival waves happen to split the burst; every later job
    // of the design hits.
    assert!(
        runner.cache_hits() >= JOBS as usize - DESIGNS * THREADS,
        "the burst warms after at most {THREADS} misses per design ({} hits)",
        runner.cache_hits()
    );

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn in_process_round_trip_through_the_wire_types() {
    // The typed client path (request_to_json → server → response_from_json),
    // as `pv soak` uses it.
    let runner = JobRunner::new(None);
    let job = JobRequest {
        id: 3,
        design: DesignSpec::Vsm {
            num_regs: 2,
            stallable: false,
        },
        flows: vec![FlowKind::Beta],
        plans: PlanSet::Default,
        deadline_ms: None,
        node_budget: None,
    };
    let input = format!("{}\n", protocol::request_to_json(&job).render());
    let mut output = Vec::new();
    let stats = server::handle_connection(&runner, 1, input.as_bytes(), &mut output)
        .expect("no write errors");
    assert_eq!((stats.jobs, stats.errors), (1, 0));

    let text = String::from_utf8(output).unwrap();
    let value = Json::parse(text.trim()).expect("one JSON line");
    let response = protocol::response_from_json(&value).expect("decodes");
    assert_eq!(response.id, 3);
    assert_eq!(response.results.len(), 1);
    assert!(
        response.results[0].report.equivalent,
        "the reduced VSM verifies"
    );
    assert!(!response.results[0].cached, "no cache configured");
}
