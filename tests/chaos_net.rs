//! Wire chaos against the serve client and a live node.
//!
//! The first half pins the client's retry contract with a hand-rolled
//! misbehaving listener (deterministic, no schedule): idempotent GETs
//! retry truncated responses, non-idempotent verbs fail hard, and a
//! `503 + Retry-After` (the drain verdict) returns immediately instead
//! of burning backoff. The second half runs a real `gdf-serve` node
//! behind a [`ChaosProxy`] and asserts the job API converges to the
//! same artifact bytes a calm network produces.

use gdf::core::{Atpg, Backend, CircuitSource, RunArtifact, RunConfig};
use gdf::netlist::suite;
use gdf::serve::server::submission_for_suite;
use gdf::serve::{Client, JobServer, ServeConfig, ServeError};
use gdf_chaos::{ChaosProxy, ChaosSchedule};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-chaosn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A listener that answers its first `broken` connections with `reply`
/// cut short (write + close), then answers everything else with a full
/// well-formed 200. Counts connections. The thread serves until the
/// process exits: retiring after one good answer races against client
/// read timeouts under CPU starvation (a stale backlogged connection
/// can consume the good reply, and the next retry finds the port dead).
fn flaky_listener(
    broken: usize,
    truncated_reply: &'static str,
) -> (String, Arc<AtomicUsize>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let connections = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&connections);
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let n = seen.fetch_add(1, Ordering::AcqRel);
            if n < broken {
                let _ = stream.write_all(truncated_reply.as_bytes());
                // Close mid-response.
                continue;
            }
            let _ = stream.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                  Content-Length: 3\r\nConnection: close\r\n\r\nok\n",
            );
        }
    });
    (addr, connections, handle)
}

#[test]
fn truncated_gets_retry_to_success() {
    // Two truncated bodies (Content-Length promises more than arrives),
    // then a good one: an idempotent GET must ride through.
    let (addr, connections, _handle) =
        flaky_listener(2, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial-");
    let text = Client::new(addr)
        .with_retries(5)
        .with_timeout(Duration::from_secs(5))
        .metrics()
        .expect("GET retries truncated responses");
    assert_eq!(text, "ok\n");
    // Exactly 3 on a quiet machine (two truncated + one good); a
    // starved run may burn extra attempts on read timeouts, which is
    // the retry contract working, not a violation of it.
    assert!(
        connections.load(Ordering::Acquire) >= 3,
        "both truncated responses were retried"
    );
}

#[test]
fn truncated_posts_fail_hard() {
    // The same truncation on a POST is a hard error — the request may
    // have been applied server-side, so retrying could duplicate work.
    let (addr, connections, _handle) = flaky_listener(
        usize::MAX,
        "HTTP/1.1 201 Created\r\nContent-Length: 50\r\n\r\n{\"id\"",
    );
    let submission = submission_for_suite("suite:s27", &RunConfig::new(Backend::StuckAt));
    let result = Client::new(addr)
        .with_retries(5)
        .with_timeout(Duration::from_secs(5))
        .submit(&submission);
    assert!(matches!(result, Err(ServeError::Http(_))), "{result:?}");
    assert_eq!(
        connections.load(Ordering::Acquire),
        1,
        "a dead mid-body POST must not be retried"
    );
}

#[test]
fn retry_after_503_returns_immediately() {
    // A drain verdict: 503 with Retry-After. The client must surface it
    // on the first attempt instead of sleeping through its backoff.
    let (addr, connections, _handle) = flaky_listener(0, "");
    // Replace the good responder: build a dedicated one-shot listener.
    drop((addr, connections));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let connections = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&connections);
    let _handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            seen.fetch_add(1, Ordering::AcqRel);
            let body = b"{\"error\":\"server is draining; resubmit elsewhere\"}\n";
            let _ = write!(
                stream,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\nRetry-After: 5\r\n\r\n",
                body.len()
            );
            let _ = stream.write_all(body);
        }
    });
    let started = std::time::Instant::now();
    let submission = submission_for_suite("suite:s27", &RunConfig::new(Backend::StuckAt));
    let result = Client::new(addr)
        .with_retries(5)
        .with_timeout(Duration::from_secs(5))
        .submit(&submission);
    match result {
        Err(ServeError::Api {
            status: 503,
            message,
            retry_after,
        }) => {
            assert!(message.contains("draining"), "{message}");
            assert_eq!(retry_after, Some(5), "the drain hint must survive");
        }
        other => panic!("expected the drain 503, got {other:?}"),
    }
    assert_eq!(connections.load(Ordering::Acquire), 1, "no retries burned");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the drain verdict must not sleep through backoff"
    );
}

#[test]
fn job_api_through_a_chaos_proxy_converges_to_clean_bytes() {
    let config = RunConfig::new(Backend::StuckAt);
    let dir = temp_dir("proxy-node");
    let node = JobServer::start(ServeConfig::new("127.0.0.1:0", &dir).with_workers(2)).unwrap();
    let schedule = Arc::new(ChaosSchedule::new(0xA5A5, 0.35));
    let mut proxy = ChaosProxy::start(
        node.local_addr(),
        Arc::clone(&schedule),
        Duration::from_millis(100),
    )
    .unwrap();
    let client = Client::new(proxy.local_addr().to_string())
        .with_retries(8)
        .with_timeout(Duration::from_secs(2));

    // Submission is a POST: transport chaos surfaces as hard errors by
    // design, so drive it like the coordinator does — retry the verb at
    // the application layer (resubmitting after a *transport* error is
    // safe for an idempotent-by-content job spec: a duplicate submit
    // just enqueues a second identical job).
    let submission = submission_for_suite("suite:s27", &config);
    let mut id = None;
    for _ in 0..40 {
        match client.submit(&submission) {
            Ok(job) => {
                id = Some(job);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    let id = id.expect("submit eventually lands through the chaos");

    // Status polling and the artifact fetch are GETs: the client's
    // transport retries plus application-level patience ride out
    // drops, delays, truncations and black holes.
    let mut artifact_text = None;
    for _ in 0..800 {
        if let Ok(status) = client.status(id) {
            let state = status
                .get("state")
                .and_then(gdf::core::json::Json::as_str)
                .unwrap_or("");
            assert_ne!(state, "failed", "job failed under network chaos");
            if state == "done" {
                if let Ok(text) = client.artifact(id) {
                    artifact_text = Some(text);
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let artifact_text = artifact_text.expect("artifact fetched through the chaos");
    assert!(schedule.injected() > 0, "the proxy actually misbehaved");

    // The fetched bytes equal a clean in-process run's canonical bytes.
    let circuit = suite::s27();
    let run = Atpg::builder(&circuit)
        .backend(config.backend)
        .seed(config.seed)
        .build()
        .run();
    let reference = RunArtifact::from_run(
        &circuit,
        &run,
        config,
        Some(CircuitSource::suite(&circuit, "s27")),
    )
    .canonical_encode();
    let fetched = RunArtifact::decode(&artifact_text)
        .expect("fetched artifact decodes")
        .canonical_encode();
    assert_eq!(fetched, reference);

    proxy.stop();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
