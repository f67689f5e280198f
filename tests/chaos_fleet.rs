//! The payoff: a two-node fleet campaign under seeded disk chaos,
//! seeded network chaos on both node links, and a mid-campaign drain —
//! and the merged artifacts still come out byte-identical to a clean
//! in-process run. Faults cost retries and recomputation, never
//! correctness.
//!
//! The `#[cfg(unix)]` companion exercises the real operational story:
//! a `gdf serve` process takes `kill -TERM`, drains, exits 0, and a
//! restarted server resumes the interrupted job to completion.

use gdf::core::{Atpg, Backend, CircuitSource, RunArtifact, RunConfig};
use gdf::fleet::{Coordinator, FleetPlan};
use gdf::netlist::suite;
use gdf::serve::{JobServer, ServeConfig};
use gdf_chaos::{ChaosDisk, ChaosGuard, ChaosProxy, ChaosSchedule};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-chaosf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sources(names: &[&str]) -> Vec<CircuitSource> {
    names
        .iter()
        .map(|name| CircuitSource::suite(&suite::by_name(name).expect("suite circuit"), name))
        .collect()
}

fn local_canonical(name: &str, config: RunConfig) -> String {
    let circuit = suite::by_name(name).expect("suite circuit");
    let run = Atpg::builder(&circuit)
        .backend(config.backend)
        .model(config.model)
        .universe(config.universe)
        .limits(config.limits)
        .seed(config.seed)
        .build()
        .run();
    RunArtifact::from_run(
        &circuit,
        &run,
        config,
        Some(CircuitSource::suite(&circuit, name)),
    )
    .canonical_encode()
}

fn merged_canonical(dir: &Path, name: &str) -> String {
    let path = dir.join(format!("{name}.run.json"));
    RunArtifact::load(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .canonical_encode()
}

/// Disk faults on the coordinator's documents, network faults on both
/// node links, one node drained mid-campaign — merged bytes still equal
/// the clean run's, and the seeded schedules injected over a hundred
/// faults along the way.
#[test]
fn fleet_campaign_under_chaos_merges_byte_identical_artifacts() {
    let config = RunConfig::new(Backend::StuckAt);
    let names = ["s27", "s42", "s77"];

    let dir_a = temp_dir("node-a");
    let dir_b = temp_dir("node-b");
    let coord_dir = temp_dir("coord");

    let node_a = JobServer::start(ServeConfig::new("127.0.0.1:0", &dir_a).with_workers(2)).unwrap();
    let node_b = JobServer::start(ServeConfig::new("127.0.0.1:0", &dir_b).with_workers(2)).unwrap();

    // Wire chaos: every coordinator→node connection rolls the dice.
    let net_a = Arc::new(ChaosSchedule::new(0xBADA, 0.4));
    let net_b = Arc::new(ChaosSchedule::new(0xBADB, 0.4));
    let hold = Duration::from_millis(75);
    let mut proxy_a = ChaosProxy::start(node_a.local_addr(), Arc::clone(&net_a), hold).unwrap();
    let mut proxy_b = ChaosProxy::start(node_b.local_addr(), Arc::clone(&net_b), hold).unwrap();

    // Disk chaos: scoped to the coordinator's own documents (plan,
    // harvested shards, merged artifacts). Node-side persistence chaos
    // is covered by the serve/checkpoint tests; injecting it here would
    // let three unlucky artifact-save failures exhaust a unit's fleet
    // retry budget, which is the coordinator behaving as specified, not
    // a healing failure.
    let disk = Arc::new(ChaosSchedule::new(0xD15CF1EE7, 0.2));
    let guard = ChaosGuard::install(ChaosDisk::new(Arc::clone(&disk), &coord_dir));

    let plan = FleetPlan::new(
        "chaos-payoff",
        vec![
            proxy_a.local_addr().to_string(),
            proxy_b.local_addr().to_string(),
        ],
        config,
        sources(&names),
        8,
    )
    .unwrap();
    let mut coordinator = Coordinator::create(&coord_dir, plan)
        .unwrap()
        .with_poll(Duration::from_millis(25));

    let started = Instant::now();
    let mut drained = false;
    let mut finished = false;
    let mut rounds = 0u32;
    while started.elapsed() < Duration::from_secs(360) {
        rounds += 1;
        if coordinator.step().expect("a chaotic step never errors out") {
            finished = true;
            break;
        }
        // Mid-campaign graceful degradation: drain node B. It keeps
        // answering (`gdf_draining` flips, submissions get 503 +
        // Retry-After), its in-flight work checkpoints at the next
        // fault boundary, and the coordinator steals the leftovers.
        if rounds == 8 && !drained {
            node_b.drain();
            drained = true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(finished, "fleet did not converge under chaos in 360s");
    assert!(drained, "the campaign finished before the drain fired");
    // Chaos lifts before verification: the reads below must see what
    // the coordinator actually persisted, not injected read faults.
    drop(guard);

    let injected = disk.injected() + net_a.injected() + net_b.injected();
    assert!(
        injected >= 100,
        "expected at least 100 injected faults, saw {injected} \
         (disk {}, net-a {}, net-b {})",
        disk.injected(),
        net_a.injected(),
        net_b.injected()
    );
    assert!(net_a.injected() > 0, "node A's link never misbehaved");
    assert!(net_b.injected() > 0, "node B's link never misbehaved");

    // The merged artifacts are byte-identical to a clean local run —
    // chaos cost time, not correctness.
    for name in names {
        assert_eq!(
            merged_canonical(&coord_dir, name),
            local_canonical(name, config),
            "{name}: merged bytes diverged under chaos"
        );
    }

    proxy_a.stop();
    proxy_b.stop();
    node_a.shutdown();
    node_b.shutdown();
    for dir in [dir_a, dir_b, coord_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `kill -TERM` against the real binary: the server drains, exits 0,
/// and a restarted server resumes the interrupted job to completion.
#[cfg(unix)]
#[test]
fn sigterm_drains_exits_zero_and_the_next_server_resumes() {
    use gdf::serve::server::submission_for_suite;
    use gdf::serve::Client;
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};

    let dir = temp_dir("sigterm");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdf"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("gdf serve spawns");

    // The banner carries the ephemeral port.
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();

    // Put real work on the queue, then TERM the process. NonScan s27 is
    // slow enough that the job is usually mid-run, but the contract
    // holds either way: exit 0, resumable state on disk.
    let config = RunConfig::new(Backend::NonScan);
    let client = Client::new(addr)
        .with_retries(3)
        .with_timeout(Duration::from_secs(5));
    let id = client
        .submit(&submission_for_suite("suite:s27", &config))
        .expect("submit before the TERM");
    std::thread::sleep(Duration::from_millis(50));

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");

    // Drain the rest of stdout (EOF when the process exits), then reap.
    let mut tail = String::new();
    reader.read_to_string(&mut tail).unwrap();
    let exit = child.wait().expect("gdf serve reaped");
    assert!(
        exit.success(),
        "drained server must exit 0, got {exit:?}; output: {banner}{tail}"
    );
    assert!(
        tail.contains("drained, exiting"),
        "missing drain log, got: {tail:?}"
    );

    // A fresh server over the same directory resumes the job.
    let server = JobServer::start(ServeConfig::new("127.0.0.1:0", &dir).with_workers(1)).unwrap();
    let resumed = Client::new(server.local_addr().to_string()).with_timeout(Duration::from_secs(5));
    let status = resumed
        .wait(
            id,
            Duration::from_millis(50),
            Some(Duration::from_secs(120)),
        )
        .expect("resumed job reaches a terminal state");
    let state = status
        .get("state")
        .and_then(gdf::core::json::Json::as_str)
        .unwrap_or("");
    assert_eq!(state, "done", "resumed job must finish: {status:?}");
    let artifact = resumed.artifact(id).expect("artifact after resume");
    RunArtifact::decode(&artifact).expect("resumed artifact decodes");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
