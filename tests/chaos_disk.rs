//! Disk chaos over the real artifact stack: every injected persistence
//! fault must surface as a friendly typed error or be healed by the
//! next resume — never a panic, never silently-trusted corruption.
//!
//! These tests install a process-global [`ChaosDisk`] via
//! [`ChaosGuard`], which serializes them against each other; the chaos
//! root confines injection to each test's own directory.

use gdf::core::{Atpg, Backend, Campaign, CampaignReport, CircuitSource, RunArtifact, RunConfig};
use gdf::netlist::suite;
use gdf_chaos::{ChaosDisk, ChaosGuard, ChaosSchedule};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-chaosd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn reference_artifact(config: RunConfig) -> RunArtifact {
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
}

/// Same seed, same draws → the identical injection sequence. This is
/// the reproducibility half of the acceptance criteria, proven at the
/// schedule level where thread interleaving cannot blur it.
#[test]
fn same_seed_reproduces_the_identical_injection_sequence() {
    let runs: Vec<Vec<(u64, Option<usize>)>> = (0..2)
        .map(|_| {
            let schedule = ChaosSchedule::new(0xC4405, 0.35);
            (0..400).map(|i| (i, schedule.decide(4))).collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert!(
        runs[0].iter().filter(|(_, d)| d.is_some()).count() >= 100,
        "rate 0.35 over 400 draws injects well over 100 faults"
    );
}

/// Artifact save/load under persistent write chaos: every failure is a
/// typed `ArtifactError`, every reported success round-trips or is
/// detectably corrupt, and once chaos lifts the artifact persists and
/// reloads to identical bytes.
#[test]
fn artifact_saves_under_chaos_error_or_heal_never_panic() {
    let dir = temp_dir("artifact");
    let config = RunConfig::new(Backend::StuckAt);
    let reference = reference_artifact(config);
    let path = dir.join("s27.run.json");

    let schedule = Arc::new(ChaosSchedule::new(0xD15C, 0.6));
    {
        let _guard = ChaosGuard::install(ChaosDisk::new(Arc::clone(&schedule), &dir));
        for _ in 0..60 {
            match reference.save(&path) {
                // Friendly typed error: fine, try again.
                Err(e) => {
                    let message = e.to_string();
                    assert!(!message.is_empty());
                }
                // Reported success: the document on disk either loads
                // to the same canonical bytes or fails to load as a
                // typed error (torn write — the reader detects it).
                Ok(()) => match RunArtifact::load(&path) {
                    Ok(loaded) => {
                        assert_eq!(loaded.canonical_encode(), reference.canonical_encode())
                    }
                    Err(e) => {
                        assert!(!e.to_string().is_empty());
                    }
                },
            }
        }
        assert!(schedule.injected() > 0, "chaos actually fired");
    }
    // Chaos lifted: the same path heals on the next save.
    reference.save(&path).expect("clean save after chaos");
    let healed = RunArtifact::load(&path).expect("clean load after chaos");
    assert_eq!(healed.canonical_encode(), reference.canonical_encode());
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_campaign(dir: &Path) -> CampaignReport {
    let circuit = suite::s27();
    let source = CircuitSource::suite(&circuit, "s27");
    Campaign::builder()
        .circuit_with_source(circuit, source)
        .backend(Backend::StuckAt)
        .artifact_dir(dir)
        .checkpoint_every(3)
        .resume(true)
        .run()
}

/// A campaign checkpointing under chaos, then resumed clean, produces
/// byte-identical artifacts to an undisturbed run — checkpoint losses
/// cost recomputation, never correctness.
#[test]
fn campaign_resumed_after_disk_chaos_matches_a_clean_run() {
    // The undisturbed reference.
    let clean_dir = temp_dir("campaign-clean");
    let clean = run_campaign(&clean_dir);
    assert!(clean.warnings.is_empty(), "{:?}", clean.warnings);
    let reference = RunArtifact::load(clean_dir.join("s27.run.json"))
        .unwrap()
        .canonical_encode();

    // The chaotic attempt: checkpoint and artifact writes tear and
    // fail mid-run. The campaign itself must complete — persistence
    // failures are warnings, never panics.
    let dir = temp_dir("campaign-chaos");
    let schedule = Arc::new(ChaosSchedule::new(0xCA47, 0.5));
    {
        let _guard = ChaosGuard::install(ChaosDisk::new(Arc::clone(&schedule), &dir));
        let chaotic = run_campaign(&dir);
        assert_eq!(chaotic.circuits.len(), 1, "the campaign ran to the end");
    }
    // Whatever chaos left on disk — torn, stale, missing — a clean
    // resume converges to the reference bytes. (A torn artifact fails
    // to decode, so the campaign reruns the circuit; a healthy one is
    // adopted as-is.)
    run_campaign(&dir);
    let recovered = RunArtifact::load(dir.join("s27.run.json"))
        .unwrap()
        .canonical_encode();
    assert_eq!(recovered, reference);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stale `*.tmp` stragglers (crash between write and rename) never
/// confuse a later save or load of the real path.
#[test]
fn stale_temp_files_are_harmless() {
    let dir = temp_dir("stale");
    let config = RunConfig::new(Backend::StuckAt);
    let reference = reference_artifact(config);
    let path = dir.join("s27.run.json");
    // Plant a convincing straggler where the atomic write stages.
    std::fs::write(
        gdf::core::io::tmp_path(&path),
        "{\"format\": \"gdf-run\", \"version\": 1, \"truncated",
    )
    .unwrap();
    reference.save(&path).expect("save over a straggler");
    let loaded = RunArtifact::load(&path).expect("load ignores stragglers");
    assert_eq!(loaded.canonical_encode(), reference.canonical_encode());
    let _ = std::fs::remove_dir_all(&dir);
}
