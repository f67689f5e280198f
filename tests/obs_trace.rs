//! Tracing over the real server stack:
//!
//! 1. **Propagation** — a caller-supplied `X-Gdf-Trace` context becomes
//!    the job's trace identity, shows up in the verbose status, and
//!    roots the NDJSON trace document on disk.
//! 2. **Chrome export** — the document a real run writes converts to
//!    chrome://tracing JSON.
//! 3. **Torn trace writes are harmless** — under [`ChaosDisk`] aimed at
//!    the traces directory, trace documents may be lost or truncated,
//!    but every job still completes to artifact bytes identical to a
//!    clean local run. Tracing is strictly a side channel.

use gdf::core::{Atpg, Backend, CircuitSource, RunArtifact, RunConfig};
use gdf::netlist::suite;
use gdf::obs::{chrome_trace, TraceCtx, TraceEvent};
use gdf::serve::server::submission_for_suite;
use gdf::serve::{Client, JobServer, ServeConfig};
use gdf_chaos::{ChaosDisk, ChaosGuard, ChaosSchedule};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-obst-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(dir: &PathBuf, workers: usize) -> (JobServer, Client) {
    let server = JobServer::start(ServeConfig::new("127.0.0.1:0", dir).with_workers(workers))
        .expect("server starts");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
}

fn local_canonical(config: RunConfig) -> String {
    let circuit = suite::s27();
    let run = Atpg::builder(&circuit)
        .backend(config.backend)
        .seed(config.seed)
        .build()
        .run();
    RunArtifact::from_run(
        &circuit,
        &run,
        config,
        Some(CircuitSource::suite(&circuit, "s27")),
    )
    .canonical_encode()
}

#[test]
fn submitted_trace_context_roots_the_job_trace_and_exports_to_chrome() {
    let dir = temp_dir("prop");
    let (server, client) = start_server(&dir, 2);
    let config = RunConfig::new(Backend::NonScan);
    let campaign = TraceCtx::root("test-campaign:obs");
    let unit = campaign.child("unit-0");

    let id = client
        .submit_traced(&submission_for_suite("suite:s27", &config), Some(&unit))
        .expect("submit");
    client
        .wait(
            id,
            Duration::from_millis(25),
            Some(Duration::from_secs(120)),
        )
        .expect("job finishes");

    // The verbose status carries the propagated identity verbatim, and
    // the profile side channel recorded real work.
    let status = client.status(id).expect("status");
    assert_eq!(
        status.get("trace").and_then(gdf::core::json::Json::as_str),
        Some(unit.header_value().as_str()),
        "job did not adopt the caller's trace context: {status}"
    );
    let wall_us = status
        .get("profile")
        .and_then(|p| p.get("wall_us"))
        .and_then(gdf::core::json::Json::as_u64)
        .expect("profile block on a finished job");
    assert!(wall_us > 0);

    // The on-disk document: the root span IS the propagated context,
    // every line parses, and the engine stages appear as child spans.
    let path = dir.join("traces").join(format!("job-{id}.ndjson"));
    let doc = std::fs::read_to_string(&path).expect("trace document written");
    let events: Vec<TraceEvent> = doc
        .lines()
        .map(|l| TraceEvent::decode_line(l).unwrap_or_else(|| panic!("bad line {l}")))
        .collect();
    assert!(events.len() >= 2, "root plus at least one stage span");
    assert_eq!(events[0].trace, unit.trace);
    assert_eq!(events[0].span, unit.span);
    assert_eq!(events[0].parent, None);
    for e in &events[1..] {
        assert_eq!(e.trace, unit.trace, "span left the trace: {e:?}");
        assert_eq!(e.parent, Some(unit.span));
    }
    for stage in ["parse", "generate", "fsim", "publish"] {
        assert!(
            events.iter().any(|e| e.name == stage),
            "no {stage} span in {doc}"
        );
    }

    // And it converts to chrome://tracing form, one event per line.
    let chrome = chrome_trace(&doc).expect("chrome export");
    let n = chrome
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .map(|e| e.len());
    assert_eq!(n, Some(events.len()));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_trace_writes_never_corrupt_a_job_or_its_artifact() {
    let dir = temp_dir("torn");
    // Chaos aimed at the traces directory only: the trace write is the
    // one persistence step allowed to fail silently.
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    let (server, client) = start_server(&dir, 2);

    let schedule = Arc::new(ChaosSchedule::new(0x0B5, 0.9));
    let mut configs = Vec::new();
    {
        let _guard = ChaosGuard::install(ChaosDisk::new(Arc::clone(&schedule), &traces));
        for seed in 0..4u64 {
            let mut config = RunConfig::new(Backend::NonScan);
            config.seed = 0x1995 + seed;
            let id = client
                .submit(&submission_for_suite("suite:s27", &config))
                .expect("submit");
            let finished = client
                .wait(
                    id,
                    Duration::from_millis(25),
                    Some(Duration::from_secs(120)),
                )
                .expect("job finishes under trace chaos");
            assert_eq!(
                finished
                    .get("state")
                    .and_then(gdf::core::json::Json::as_str),
                Some("done"),
                "trace-write chaos failed a job: {finished}"
            );
            configs.push((id, config));
        }
        assert!(schedule.injected() > 0, "chaos actually fired");
    }

    for (id, config) in &configs {
        // The artifact is byte-identical to a clean local run — torn
        // trace documents cost visibility, never correctness.
        assert_eq!(
            client.artifact(*id).expect("artifact"),
            local_canonical(*config),
            "job {id}: artifact corrupted by trace chaos"
        );
        // Whatever survived on disk is either absent, or a document the
        // exporter handles: valid lines convert, torn tails are skipped,
        // and an all-torn document is a clean typed error.
        let path = traces.join(format!("job-{id}.ndjson"));
        if let Ok(doc) = std::fs::read_to_string(&path) {
            match chrome_trace(&doc) {
                Ok(chrome) => assert!(chrome.get("traceEvents").is_some()),
                Err(e) => assert!(!e.is_empty()),
            }
        }
    }

    // Chaos lifted: the next job's trace lands intact.
    let mut config = RunConfig::new(Backend::NonScan);
    config.seed = 0x7777;
    let id = client
        .submit(&submission_for_suite("suite:s27", &config))
        .expect("submit");
    client
        .wait(
            id,
            Duration::from_millis(25),
            Some(Duration::from_secs(120)),
        )
        .expect("job finishes");
    let doc = std::fs::read_to_string(traces.join(format!("job-{id}.ndjson")))
        .expect("trace written once chaos lifts");
    assert!(chrome_trace(&doc).is_ok());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
