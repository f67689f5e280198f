//! `atpg_robust` — the paper's Table-3 workload.
//!
//! Runs the paper's configuration serially, the way `gdf run` does:
//! robust sensitization, the full fault universe, the paper's limits,
//! checkpoints every 16 outcomes, and the run artifact saved, on
//! `s208_syn` then `s298_syn`.
//!
//! **Why this workload:** it is the product of the paper (Table 3:
//! tested, untestable and aborted faults per circuit, and the run time).
//! `gdf-algebra`, `gdf-tdgen` and `gdf-semilet` do almost all the work;
//! fault simulation (`gdf-sim`) takes a negligible share, and the serving
//! stack (`gdf-serve`, `gdf-store`, `gdf-obs`) is bypassed. `s208_syn` is
//! pure search (no test found); `s298_syn` adds propagation,
//! synchronization and fault-simulation credit.
//!
//! **Seed:** the X-fill seed of the run (`gdf run --seed`). The circuits
//! stay the suite's: fresh circuit instances of the same profiles differ
//! in search cost by far more than the benchmark's bounds.
//!
//! **Checks:** a reference run per circuit, at parallelism 2 and after
//! every measurement (`peak_rss_mb` included), fixes the canonical
//! artifact digest and the Table-3 row; every measured run must match
//! both. Every fault the
//! reference classifies Tested must be detected when its pattern set is
//! re-graded with `grade_patterns`.

use crate::layers::{self, EngineCounts, SimCounts};
use crate::stats::{median, nearest_rank, peak_rss_mb};
use crate::trace::{PhaseTotals, Tracer};
use crate::{Ctx, Outcome};
use gdf_core::{
    grade_patterns, AtpgRun, Backend, Checkpointer, CircuitSource, Digest, FaultClassification,
    FaultRecord, Observer, PatternSet, RunArtifact, RunConfig, Table3Row,
};
use gdf_netlist::{suite, Circuit, ModelKind};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The Table-3 circuits, in run order.
const CIRCUITS: [&str; 2] = ["s208", "s298"];
/// `gdf run`'s default checkpoint cadence.
const CHECKPOINT_EVERY: usize = 16;
/// Set-ups timed in each gap between the runs; `setup_s` is the median
/// of all of them.
const SETUPS_PER_GAP: usize = 2;
/// Approximate cost of one round (both circuits) on a 2-core machine.
const ROUND_SECS: f64 = 10.0;
/// Rounds measured whatever the budget: `run_s` is their median.
const MIN_ROUNDS: usize = 3;
/// Parallelism of the reference runs.
const REFERENCE_PARALLELISM: usize = 2;

/// One circuit, ready to run.
struct Case {
    circuit: Circuit,
    source: CircuitSource,
    faults: usize,
}

/// Builds the circuits and enumerates their faults: the set-up a user
/// pays before the first result.
fn setup(config: &RunConfig) -> Vec<Case> {
    CIRCUITS
        .iter()
        .map(|&name| {
            let circuit = suite::by_name(name).expect("Table-3 circuit is in the suite");
            let source = CircuitSource::suite(&circuit, name);
            let faults = config
                .model
                .model()
                .enumerate(&circuit, &config.universe)
                .len();
            Case {
                circuit,
                source,
                faults,
            }
        })
        .collect()
}

/// Times [`SETUPS_PER_GAP`] set-ups into `secs`. Called in the gaps
/// between the runs, outside every other timed span, so that the median
/// spans the whole run rather than one moment of the machine.
fn time_setups(config: &RunConfig, secs: &mut Vec<f64>) {
    layers::time_setups(SETUPS_PER_GAP, secs, || setup(config), drop);
}

/// One finished circuit run.
struct CircuitRun {
    run: AtpgRun,
    artifact: RunArtifact,
    /// From building the engine until the artifact is saved.
    secs: f64,
    /// Per fault, in decision order: milliseconds since the previous
    /// decision (the first since the engine was built).
    decision_ms: Vec<f64>,
    /// Encoding and saving the final artifact.
    save_secs: f64,
    saved: Result<(), String>,
}

/// Runs one circuit as `gdf run -o <path>` does.
fn run_circuit(
    case: &Case,
    config: &RunConfig,
    parallelism: usize,
    path: &Path,
    tracer: Option<(&Tracer, u64)>,
) -> CircuitRun {
    let request = tracer.map(|(t, id)| (t, t.open_request("atpg.circuit", id)));
    let start = Instant::now();
    let engine = request.map(|(t, root)| t.open("core.run", Some(root)));
    let checkpointer = Checkpointer::new(path, CHECKPOINT_EVERY).with_source(case.source.clone());
    let mut clock = DecisionClock {
        last: start,
        gaps_ms: Vec::with_capacity(case.faults),
    };
    let run = layers::build_atpg(&case.circuit, config, parallelism)
        .observer(checkpointer)
        .observer(&mut clock)
        .build()
        .run();
    if let (Some((t, _)), Some(span)) = (request, engine) {
        t.close(span);
    }
    let save_start = Instant::now();
    let save = request.map(|(t, root)| t.open("core.artifact_save", Some(root)));
    let artifact = RunArtifact::from_run(&case.circuit, &run, *config, Some(case.source.clone()));
    let saved = artifact.save(path).map_err(|e| e.to_string());
    let save_secs = layers::secs(save_start);
    let secs = layers::secs(start);
    if let (Some((t, root)), Some(span)) = (request, save) {
        t.close(span);
        t.close(root);
    }
    CircuitRun {
        run,
        artifact,
        secs,
        decision_ms: clock.gaps_ms,
        save_secs,
        saved,
    }
}

/// Times each fault decision as the engine streams it: the latency a
/// consumer of the per-fault results (the progress stream of `gdf run`,
/// a served job's `/events`) sees between two results.
struct DecisionClock {
    last: Instant,
    gaps_ms: Vec<f64>,
}

impl Observer for DecisionClock {
    fn on_fault(&mut self, _record: &FaultRecord) {
        let now = Instant::now();
        self.gaps_ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
    }
}

/// What a measured run must reproduce.
struct Reference {
    digest: Digest,
    /// `None` for an artifact without a report (a partial run).
    row: Option<Table3Row>,
}

impl Reference {
    /// The canonical digest and the Table-3 row (without its wall time)
    /// of a complete run's artifact.
    fn of(artifact: &RunArtifact) -> Self {
        Reference {
            digest: artifact.canonical_digest(),
            row: artifact.report().map(|r| r.row.normalized()),
        }
    }
}

/// The name of the first field in which `got` differs from `want`, or
/// `None` when the run reproduces the reference.
fn mismatch(want: &Reference, got: &Reference) -> Option<&'static str> {
    if got.digest != want.digest {
        Some("canonical artifact digest")
    } else if got.row != want.row {
        Some("Table-3 row")
    } else {
        None
    }
}

/// Counts a measured run as a request, failed if it stopped early or its
/// artifact was not saved.
fn check_status(case: &Case, got: &CircuitRun, out: &mut Outcome) {
    out.attempted += 1;
    let failed = got.run.stopped.is_some() || got.saved.is_err();
    if failed {
        out.failed += 1;
    }
    out.check(got.run.stopped.is_none(), || {
        format!(
            "{}: run stopped: {:?}",
            case.circuit.name(),
            got.run.stopped
        )
    });
    if let Err(e) = &got.saved {
        out.check(false, || {
            format!("{}: artifact save failed: {e}", case.circuit.name())
        });
    }
}

/// Checks a measured run's artifact against its reference.
fn check_match(case: &Case, want: &Reference, got: &Reference, out: &mut Outcome) {
    if let Some(field) = mismatch(want, got) {
        out.check(false, || {
            format!(
                "{}: {field} differs from the reference run",
                case.circuit.name()
            )
        });
    }
}

/// Re-grades a run's pattern set and checks that every fault the run
/// classifies Tested is detected. Returns the pattern set and, when
/// grading succeeded, each fault's first detecting pattern.
fn check_regrade(
    case: &Case,
    config: &RunConfig,
    run: &AtpgRun,
    out: &mut Outcome,
) -> (PatternSet, Option<Vec<Option<usize>>>) {
    let set = PatternSet::from_run(
        &case.circuit,
        run,
        &config.backend.to_string(),
        config.seed,
        Some(case.source.clone()),
    );
    let name = case.circuit.name();
    match grade_patterns(
        &case.circuit,
        &set,
        ModelKind::Delay,
        &config.universe,
        config.seed,
    ) {
        Ok(grade) => {
            let faults: Vec<_> = config
                .model
                .model()
                .enumerate(&case.circuit, &config.universe)
                .collect();
            out.check(faults.len() == run.records.len(), || {
                format!(
                    "{name}: run has {} records for {} faults",
                    run.records.len(),
                    faults.len()
                )
            });
            for (k, record) in run.records.iter().enumerate() {
                out.check(faults.get(k) == Some(&record.fault), || {
                    format!("{name}: record {k} is not fault {k} of the universe")
                });
                if record.classification == FaultClassification::Tested {
                    out.check(
                        grade.first_detector.get(k).copied().flatten().is_some(),
                        || format!("{name}: Tested fault {k} is not detected on re-grading"),
                    );
                }
            }
            (set, Some(grade.first_detector))
        }
        Err(e) => {
            out.check(false, || format!("{name}: re-grading failed: {e}"));
            (set, None)
        }
    }
}

/// The workload's entry point.
pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let config = RunConfig::new(Backend::NonScan).with_seed(ctx.seed);
    let cases = setup(&config);
    let path_of = |i: usize| ctx.work.join(format!("{}.run.json", CIRCUITS[i]));
    if ctx.trace {
        traced(ctx, tracer, &config, &cases, out);
        return;
    }

    let rounds = ctx.rounds(ROUND_SECS, MIN_ROUNDS);
    let mut setup_secs = Vec::new();
    let mut round_secs = Vec::with_capacity(rounds);
    let mut latencies_ms = Vec::new();
    let mut circuit_secs = vec![Vec::with_capacity(rounds); cases.len()];
    // What each measured run produced, per circuit, for the checks below.
    let mut measured: Vec<Vec<Reference>> = cases.iter().map(|_| Vec::new()).collect();
    for _ in 0..rounds {
        time_setups(&config, &mut setup_secs);
        let start = Instant::now();
        let runs: Vec<CircuitRun> = cases
            .iter()
            .enumerate()
            .map(|(i, case)| run_circuit(case, &config, 1, &path_of(i), None))
            .collect();
        round_secs.push(layers::secs(start));
        for (i, (case, got)) in cases.iter().zip(&runs).enumerate() {
            latencies_ms.extend_from_slice(&got.decision_ms);
            circuit_secs[i].push(got.secs);
            check_status(case, got, out);
            measured[i].push(Reference::of(&got.artifact));
        }
    }
    time_setups(&config, &mut setup_secs);
    // Read before the reference runs, so that it is the measured work's.
    let peak_rss = peak_rss_mb().unwrap_or(0.0);

    // The reference, after every timed metric.
    let references: Vec<(Reference, AtpgRun)> = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let run = run_circuit(case, &config, REFERENCE_PARALLELISM, &path_of(i), None);
            (Reference::of(&run.artifact), run.run)
        })
        .collect();
    for ((case, (want, run)), got) in cases.iter().zip(&references).zip(&measured) {
        for got in got {
            check_match(case, want, got, out);
        }
        check_regrade(case, &config, run, out);
    }

    let rows: Vec<&Table3Row> = references
        .iter()
        .filter_map(|(r, _)| r.row.as_ref())
        .collect();
    let tested: u32 = rows.iter().map(|r| r.tested).sum();
    let aborted: u32 = rows.iter().map(|r| r.aborted).sum();
    let p50 = nearest_rank(&latencies_ms, 0.5);
    let p90 = nearest_rank(&latencies_ms, 0.9);
    out.set_setup(&setup_secs);
    out.set("run_s", median(&round_secs));
    out.set("latency_p50_ms", p50.value);
    out.set("latency_p90_ms", p90.value);
    out.set("tested_faults", f64::from(tested));
    out.set("undecided_faults", f64::from(aborted));
    out.set("peak_rss_mb", peak_rss);
    out.note(format!(
        "atpg_s = {:.3} s (median of {rounds} rounds: {})",
        median(&round_secs),
        round_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (row, secs) in rows.iter().zip(&circuit_secs) {
        out.note(format!(
            "{}: tested {} untestable {} aborted {} #pat {}, median {:.3} s",
            row.circuit,
            row.tested,
            row.untestable,
            row.aborted,
            row.patterns,
            median(secs)
        ));
    }
    out.note(format!(
        "tested_faults = {tested}, aborted_faults = {aborted}"
    ));
    out.note(format!(
        "fault-decision latency p50 = {:.3} ms, p90 = {:.3} ms ({} samples)",
        p50.value, p90.value, p50.samples
    ));
}

/// The traced run: untraced and traced rounds for the core metrics and
/// the tracing overhead, then the per-layer replays.
fn traced(ctx: &Ctx, tracer: &Tracer, config: &RunConfig, cases: &[Case], out: &mut Outcome) {
    let path_of = |i: usize| ctx.work.join(format!("{}.run.json", CIRCUITS[i]));
    // One round, untraced or with spans and the phase sink `totals` on.
    let round = |traced: Option<(u64, Arc<PhaseTotals>)>| -> (Vec<CircuitRun>, f64) {
        if let Some((_, totals)) = &traced {
            gdf_core::phase::set_phase_sink(totals.clone());
        }
        let start = Instant::now();
        let runs = cases
            .iter()
            .enumerate()
            .map(|(i, case)| {
                let request = traced.as_ref().map(|(id, _)| (tracer, id + i as u64));
                run_circuit(case, config, 1, &path_of(i), request)
            })
            .collect();
        let secs = layers::secs(start);
        gdf_core::phase::reset_phase_sink();
        (runs, secs)
    };
    // Untraced, traced, traced, untraced: the two means cancel a linear
    // drift of the machine's speed. The first untraced round is the
    // reference the others must reproduce.
    let totals = Arc::new(PhaseTotals::default());
    let (first, untraced_a) = round(None);
    let (runs, traced_a) = round(Some((0, totals.clone())));
    let (second, traced_b) = round(Some((10, Arc::default())));
    let (third, untraced_b) = round(None);
    let references: Vec<Reference> = first.iter().map(|r| Reference::of(&r.artifact)).collect();
    for got in [&runs, &second, &third] {
        for ((case, want), got) in cases.iter().zip(&references).zip(got) {
            check_status(case, got, out);
            check_match(case, want, &Reference::of(&got.artifact), out);
        }
    }
    let untraced_s = (untraced_a + untraced_b) / 2.0;
    let traced_s = (traced_a + traced_b) / 2.0;
    layers::core_phases(|p| totals.get(p), out);
    let records = runs.iter().flat_map(|r| &r.run.records);
    out.set(
        "core.credited_faults",
        records.filter(|r| r.by_simulation).count() as f64,
    );
    let sequences = runs.iter().flat_map(|r| &r.run.sequences);
    out.set("core.sequences", sequences.clone().count() as f64);
    out.set(
        "core.vectors",
        sequences.map(|s| s.len()).sum::<usize>() as f64,
    );
    out.set(
        "core.artifact_save_s",
        runs.iter().map(|r| r.save_secs).sum(),
    );
    out.set("core.run_s", untraced_s);

    let mut build_secs = Vec::new();
    time_setups(config, &mut build_secs);
    out.set("netlist.build_s", median(&build_secs));
    out.set(
        "netlist.gates",
        cases.iter().map(|c| c.circuit.num_gates()).sum::<usize>() as f64,
    );
    out.set(
        "netlist.faults",
        cases.iter().map(|c| c.faults).sum::<usize>() as f64,
    );

    let mut engines = EngineCounts::default();
    let mut sims = SimCounts::default();
    for (i, (case, got)) in cases.iter().zip(&runs).enumerate() {
        let root = tracer.open_request("replay", i as u64);
        layers::replay_engines(tracer, root, &case.circuit, config, &mut engines);
        let (set, graded) = check_regrade(case, config, &got.run, out);
        let replayed = layers::replay_grading(
            tracer,
            root,
            &case.circuit,
            &set,
            ModelKind::Delay,
            config.seed,
            &mut sims,
        );
        out.check(graded.is_some() && replayed.ok() == graded, || {
            format!(
                "{}: replayed grading differs from grade_patterns",
                case.circuit.name()
            )
        });
        tracer.close(root);
    }
    let replay_s = engines.busy_s() + sims.busy_s();
    layers::engine_metrics(&engines, out);
    layers::sim_metrics(&sims, out);
    layers::algebra_sweep(tracer, out);
    out.set("replay.total_s", replay_s);
    out.bypass("serve.");
    out.bypass("store.");
    out.set("obs.traces_written", 0.0);
    out.set(
        "obs.overhead_pct",
        layers::overhead_pct(traced_s, untraced_s),
    );
    out.note(format!(
        "untraced round {untraced_s:.3} s, traced round {traced_s:.3} s, replay {replay_s:.3} s"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_core::Atpg;
    use gdf_netlist::suite;

    #[test]
    fn reference_comparison_fails_on_a_changed_artifact() {
        let circuit = suite::s27();
        let config = RunConfig::new(Backend::NonScan);
        let run = Atpg::builder(&circuit).build().run();
        let artifact = RunArtifact::from_run(&circuit, &run, config, None);
        let want = Reference::of(&artifact);
        assert_eq!(want.row.as_ref().unwrap().tested, run.report.row.tested);

        // The same artifact, decoded from its canonical bytes, matches.
        let text = artifact.canonical_encode();
        let same = RunArtifact::decode(&text).unwrap();
        assert_eq!(mismatch(&want, &Reference::of(&same)), None);

        // One record reclassified: the digest catches it.
        let changed = text.replacen("\"class\": \"untestable\"", "\"class\": \"aborted\"", 1);
        assert_ne!(changed, text, "s27 has an untestable fault to change");
        let changed = RunArtifact::decode(&changed).unwrap();
        assert_eq!(
            mismatch(&want, &Reference::of(&changed)),
            Some("canonical artifact digest")
        );

        // A different Table-3 row with the same digest: the row catches it.
        let mut row = want.row.clone().unwrap();
        row.aborted += 1;
        let got = Reference {
            digest: want.digest,
            row: Some(row),
        };
        assert_eq!(mismatch(&want, &got), Some("Table-3 row"));
    }
}
