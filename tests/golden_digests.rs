//! Golden canonical digests: pins `RunArtifact::canonical_digest()` of
//! complete runs on four small suite circuits under every backend/model
//! pairing the CLI offers.
//!
//! The determinism suites compare two runs of the same build, so an engine
//! refactor that shifts every run the same way passes them all. These
//! constants compare across commits instead: a change that is meant to keep
//! outcomes must leave them untouched, and a change that alters outcomes on
//! purpose updates them and says so in CHANGES.md.

use gdf::core::{Atpg, Backend, CircuitSource, ModelKind, RunArtifact, RunConfig, Sensitization};
use gdf::netlist::suite;

/// The run configuration a golden row names: the non-scan backend under
/// robust or non-robust sensitization or the transition model, the
/// enhanced-scan backend, or the stuck-at backend, each with its defaults.
fn config(label: &str) -> RunConfig {
    match label {
        "robust" => RunConfig::new(Backend::NonScan),
        "non-robust" => RunConfig {
            sensitization: Sensitization::NonRobust,
            ..RunConfig::new(Backend::NonScan)
        },
        "transition" => RunConfig::new(Backend::NonScan).with_model(ModelKind::Transition),
        "enhanced-scan" => RunConfig::new(Backend::EnhancedScan),
        "stuck-at" => RunConfig::new(Backend::StuckAt),
        _ => panic!("unknown configuration `{label}`"),
    }
}

/// `(circuit, configuration, canonical digest)`.
const GOLDEN: [(&str, &str, &str); 20] = [
    ("s27", "robust", "d18c652e7a9ee6de309f54b59e711261"),
    ("s27", "non-robust", "e813f58da1099880e2c161ec0a55621e"),
    ("s27", "transition", "dd06991cc997e38acad25da1454d7109"),
    ("s27", "enhanced-scan", "fbd6131bb7ee0d7af20a7ead47be1138"),
    ("s27", "stuck-at", "a4e0b4b4311cdf713fdd3bccf2d722e1"),
    ("s42", "robust", "e575cd807c0616091b4bd845c99e5a5c"),
    ("s42", "non-robust", "11f27a318816d36bbbc377822b1149fc"),
    ("s42", "transition", "c1bf53cbed5d10134536b19eb1cbeea8"),
    ("s42", "enhanced-scan", "013537003d570ec94d48032d4eeafcaf"),
    ("s42", "stuck-at", "7a96b151cff43ebdac21c484d5daeed8"),
    ("s77", "robust", "41c49741148a80955596cf2f6b4ba118"),
    ("s77", "non-robust", "06a6f684c0da9f413a0914828e84b264"),
    ("s77", "transition", "78b74f4be2c7f4c37a37516368533ace"),
    ("s77", "enhanced-scan", "d536ea3fd540385162b056b96dc4efb6"),
    ("s77", "stuck-at", "f48cc0bc23efb6941d1bffbb0a3abcbf"),
    ("s119", "robust", "8628512e4b2580db0aa87f2ff2cfd5a5"),
    ("s119", "non-robust", "bb1ac511b7d3e6a97daad682a2fb3c2d"),
    ("s119", "transition", "2582ecd44738f01c24003413c4df5cbb"),
    ("s119", "enhanced-scan", "5960f24df351f2a43ff2fe4d176d6b41"),
    ("s119", "stuck-at", "b263b3cfb0ca58070a8a3fef2cd37314"),
];

/// The canonical digest of a complete run, built exactly as `gdf run
/// suite:<name> -o …` saves it.
fn digest(name: &str, config: RunConfig) -> String {
    let circuit = suite::by_name(name).expect("suite circuit");
    let run = Atpg::builder(&circuit)
        .backend(config.backend)
        .model(config.model)
        .sensitization(config.sensitization)
        .universe(config.universe)
        .limits(config.limits)
        .seed(config.seed)
        .build()
        .run();
    assert!(run.stopped.is_none(), "{name}: run stopped early");
    let source = CircuitSource::suite(&circuit, name);
    RunArtifact::from_run(&circuit, &run, config, Some(source))
        .canonical_digest()
        .hex()
}

#[test]
fn canonical_digests_match_the_golden_table() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(name, label, want)| {
            let got = digest(name, config(label));
            (got != want).then(|| format!("(\"{name}\", \"{label}\", \"{got}\"), // was {want}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "canonical digests moved:\n{}",
        mismatches.join("\n")
    );
}
