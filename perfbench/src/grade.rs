//! `grade_random` — fault grading of seeded random sequences.
//!
//! Grades 8192 random sequences (4 initialization vectors, V1, V2 at
//! speed, 4 propagation vectors) with `gdf_core::grade_patterns` against
//! the robust delay universe and the transition universe of `s1196_syn`,
//! as `gdf grade --model delay` and `--model transition` would.
//!
//! **Why this workload:** it is the user's fault-grading task, and the
//! one where `gdf-sim` does almost all the work while TDgen and SEMILET
//! (and the serving stack) are bypassed. It guards the simulator against
//! changes aimed at the search engines, such as a shared forward
//! evaluator.
//!
//! **Seed:** draws the sequences, and seeds the fill of uninitialized
//! state bits as `gdf grade --seed` does.
//!
//! **Checks:** every round's detected faults repeat the first round's
//! exactly, and on a sample of sequences, checked after the measured
//! rounds, the packed fault simulator agrees with the scalar reference
//! simulator.

use crate::layers::{self, SimCounts};
use crate::stats::{median, nearest_rank, peak_rss_mb};
use crate::trace::{PhaseTotals, Tracer};
use crate::{Ctx, Outcome};
use gdf_algebra::Logic3;
use gdf_core::{
    grade_patterns, CircuitSource, DelayAtpg, DelayAtpgConfig, FsimScratch, PatternEntry,
    PatternSet, TestSequence,
};
use gdf_netlist::{suite, Circuit, FaultUniverse, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const CIRCUIT: &str = "s1196";
/// Sequences graded per fault model.
const SEQUENCES: usize = 8192;
/// Slow-clock vectors before V1 and after V2.
const INIT_VECTORS: usize = 4;
const PROPAGATION_VECTORS: usize = 4;
/// The two fault models graded in each round.
const MODELS: [ModelKind; 2] = [ModelKind::Delay, ModelKind::Transition];
/// Set-ups timed in each gap between the rounds; `setup_s` is the median
/// of all of them.
const SETUPS_PER_GAP: usize = 3;
/// Approximate cost of one round (both models) on a 2-core machine.
const ROUND_SECS: f64 = 6.0;
/// Sequences checked against the scalar reference simulator.
const SAMPLE: usize = 16;

struct Setup {
    circuit: Circuit,
    faults: usize,
    set: PatternSet,
    /// Time spent building the circuit and enumerating its faults.
    netlist_secs: f64,
}

/// Builds the circuit, enumerates both universes and draws the
/// sequences: everything before the first grading result.
fn setup(seed: u64) -> Setup {
    let start = Instant::now();
    let circuit = suite::by_name(CIRCUIT).expect("Table-3 circuit is in the suite");
    let universe = FaultUniverse::default();
    let faults = MODELS
        .iter()
        .map(|m| m.model().enumerate(&circuit, &universe).len())
        .sum();
    let netlist_secs = layers::secs(start);
    let mut rng = StdRng::seed_from_u64(seed);
    let width = circuit.num_inputs();
    let mut vector =
        || -> Vec<Logic3> { (0..width).map(|_| Logic3::from_bool(rng.gen())).collect() };
    let patterns = (0..SEQUENCES)
        .map(|_| {
            let init = (0..INIT_VECTORS).map(|_| vector()).collect();
            let (v1, v2) = (vector(), vector());
            let propagation = (0..PROPAGATION_VECTORS).map(|_| vector()).collect();
            PatternEntry {
                sequence: TestSequence::new(init, v1, v2, propagation),
                relied_ppos: Vec::new(),
            }
        })
        .collect();
    let set = PatternSet {
        circuit: CircuitSource::suite(&circuit, CIRCUIT),
        backend: "random".into(),
        seed,
        patterns,
    };
    Setup {
        circuit,
        faults,
        set,
        netlist_secs,
    }
}

/// Times [`SETUPS_PER_GAP`] set-ups into `secs`, and their netlist part
/// into `netlist_secs`. Called in the gaps between the rounds, outside
/// every other timed span, so that the median spans the whole run rather
/// than one moment of the machine.
fn time_setups(seed: u64, secs: &mut Vec<f64>, netlist_secs: &mut Vec<f64>) {
    layers::time_setups(
        SETUPS_PER_GAP,
        secs,
        || setup(seed),
        |s| netlist_secs.push(s.netlist_secs),
    );
}

/// One grading pass per model; returns each model's first detectors and
/// its pass time in seconds.
fn grade_round(s: &Setup, seed: u64, out: &mut Outcome) -> Vec<(Vec<Option<usize>>, f64)> {
    MODELS
        .iter()
        .map(|&model| {
            out.attempted += 1;
            let start = Instant::now();
            let graded = grade_patterns(&s.circuit, &s.set, model, &FaultUniverse::default(), seed);
            let secs = layers::secs(start);
            match graded {
                Ok(report) => (report.first_detector, secs),
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("grading {model}: {e}"));
                    (Vec::new(), secs)
                }
            }
        })
        .collect()
}

/// Checks the packed fault simulator against the scalar reference on a
/// sample of the sequences, all delay faults as candidates.
fn check_scalar_sample(s: &Setup, seed: u64, out: &mut Outcome) {
    let universe = FaultUniverse::default();
    let faults: Vec<_> = ModelKind::Delay
        .model()
        .enumerate(&s.circuit, &universe)
        .filter_map(|f| f.as_delay())
        .collect();
    let config = DelayAtpgConfig::new().with_universe(universe);
    let packed = DelayAtpg::with_config(&s.circuit, config.clone());
    let scalar = DelayAtpg::with_config(&s.circuit, config.with_reference_fsim(true));
    let mut scratch = FsimScratch::default();
    let stride = SEQUENCES / SAMPLE;
    for i in (0..SEQUENCES).step_by(stride) {
        let sequence = &s.set.patterns[i].sequence;
        let rng = StdRng::seed_from_u64(seed ^ i as u64);
        let mut a = packed
            .fault_simulate_sequence(sequence, &[], &faults, &mut rng.clone(), &mut scratch)
            .map_err(|e| e.to_string());
        let mut b = scalar
            .fault_simulate_sequence(sequence, &[], &faults, &mut rng.clone(), &mut scratch)
            .map_err(|e| e.to_string());
        if let (Ok(a), Ok(b)) = (&mut a, &mut b) {
            a.sort_unstable();
            b.sort_unstable();
        }
        out.check(a.is_ok() && a == b, || {
            format!("sequence {i}: packed and scalar fault simulation disagree")
        });
    }
}

fn detected(first: &[Option<usize>]) -> usize {
    first.iter().filter(|d| d.is_some()).count()
}

/// The workload's entry point.
pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let s = setup(ctx.seed);
    if ctx.trace {
        check_scalar_sample(&s, ctx.seed, out);
        traced(ctx, tracer, &s, out);
        return;
    }
    let (mut setup_secs, mut netlist_secs) = (Vec::new(), Vec::new());

    let rounds = ctx.rounds(ROUND_SECS, 1);
    let mut round_secs = Vec::with_capacity(rounds);
    let mut latencies_ms = Vec::with_capacity(rounds * MODELS.len());
    let mut first_round: Option<Vec<Vec<Option<usize>>>> = None;
    for round in 0..rounds {
        time_setups(ctx.seed, &mut setup_secs, &mut netlist_secs);
        let start = Instant::now();
        let graded = grade_round(&s, ctx.seed, out);
        round_secs.push(layers::secs(start));
        latencies_ms.extend(graded.iter().map(|(_, secs)| secs * 1e3));
        let detectors: Vec<_> = graded.into_iter().map(|(d, _)| d).collect();
        match &first_round {
            None => first_round = Some(detectors),
            Some(first) => out.check(*first == detectors, || {
                format!("round {round} detected other faults than round 0")
            }),
        }
    }
    time_setups(ctx.seed, &mut setup_secs, &mut netlist_secs);
    // Read before the scalar check, so that it is the measured work's.
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    check_scalar_sample(&s, ctx.seed, out);
    let first = first_round.expect("at least one round");
    let tested: usize = first.iter().map(|d| detected(d)).sum();
    let p50 = nearest_rank(&latencies_ms, 0.5);
    let p90 = nearest_rank(&latencies_ms, 0.9);
    out.set_setup(&setup_secs);
    out.set("run_s", median(&round_secs));
    out.set("latency_p50_ms", p50.value);
    out.set("latency_p90_ms", p90.value);
    out.set("tested_faults", tested as f64);
    out.set("undecided_faults", (s.faults - tested) as f64);
    out.set("peak_rss_mb", peak_rss);
    out.note(format!(
        "grade_s = {:.3} s (median of {rounds} rounds)",
        median(&round_secs)
    ));
    for (model, d) in MODELS.iter().zip(&first) {
        out.note(format!(
            "{model}: {}/{} faults detected",
            detected(d),
            d.len()
        ));
    }
    out.note(format!(
        "grading-pass latency p50 = {:.1} ms, p90 = {:.1} ms ({} samples)",
        p50.value, p90.value, p50.samples
    ));
}

/// One grading round replayed through the engine's fault simulation with
/// spans and the phase sink `totals` on; checks it against `reference`
/// and returns its wall time in seconds.
fn replay_round(
    tracer: &Tracer,
    s: &Setup,
    seed: u64,
    reference: &[(Vec<Option<usize>>, f64)],
    totals: Arc<PhaseTotals>,
    sims: &mut SimCounts,
    out: &mut Outcome,
) -> f64 {
    gdf_core::phase::set_phase_sink(totals);
    let start = Instant::now();
    for (i, (&model, (want, _))) in MODELS.iter().zip(reference).enumerate() {
        let root = tracer.open_request("grade.model", i as u64);
        let got = layers::replay_grading(tracer, root, &s.circuit, &s.set, model, seed, sims);
        tracer.close(root);
        out.check(got.as_ref() == Ok(want), || {
            format!("{model}: replayed grading differs from grade_patterns")
        });
    }
    let secs = layers::secs(start);
    gdf_core::phase::reset_phase_sink();
    secs
}

/// The traced run: untraced grading rounds around two traced rounds that
/// replay the grading through the engine's fault simulation with spans
/// and the phase sink on.
fn traced(ctx: &Ctx, tracer: &Tracer, s: &Setup, out: &mut Outcome) {
    // Untraced, traced, traced, untraced: the two means cancel a linear
    // drift of the machine's speed.
    let totals = Arc::new(PhaseTotals::default());
    let start = Instant::now();
    let reference = grade_round(s, ctx.seed, out);
    let untraced_a = layers::secs(start);
    let mut sims = SimCounts::default();
    let traced_a = replay_round(
        tracer,
        s,
        ctx.seed,
        &reference,
        totals.clone(),
        &mut sims,
        out,
    );
    let traced_b = replay_round(
        tracer,
        s,
        ctx.seed,
        &reference,
        Arc::default(),
        &mut SimCounts::default(),
        out,
    );
    let start = Instant::now();
    let again = grade_round(s, ctx.seed, out);
    let untraced_b = layers::secs(start);
    let detectors = |round: &[(Vec<Option<usize>>, f64)]| -> Vec<Vec<Option<usize>>> {
        round.iter().map(|(d, _)| d.clone()).collect()
    };
    out.check(detectors(&again) == detectors(&reference), || {
        "a repeated round detected other faults".into()
    });
    let untraced_s = (untraced_a + untraced_b) / 2.0;
    let traced_s = (traced_a + traced_b) / 2.0;

    layers::core_phases(|p| totals.get(p), out);
    layers::sim_metrics(&sims, out);
    out.set("core.run_s", untraced_s);
    out.set("core.credited_faults", 0.0);
    out.set("core.sequences", s.set.patterns.len() as f64);
    out.set("core.vectors", s.set.total_vectors() as f64);
    out.set("core.artifact_save_s", 0.0);
    out.set("replay.total_s", sims.busy_s());
    let (mut setup_secs, mut netlist_secs) = (Vec::new(), Vec::new());
    time_setups(ctx.seed, &mut setup_secs, &mut netlist_secs);
    out.set("netlist.build_s", median(&netlist_secs));
    out.set("netlist.gates", s.circuit.num_gates() as f64);
    out.set("netlist.faults", s.faults as f64);
    layers::algebra_sweep(tracer, out);
    out.bypass("tdgen.");
    out.bypass("semilet.");
    out.bypass("serve.");
    out.bypass("store.");
    out.set("obs.traces_written", 0.0);
    out.set(
        "obs.overhead_pct",
        layers::overhead_pct(traced_s, untraced_s),
    );
    out.note(format!(
        "untraced round {untraced_s:.3} s, traced replay {traced_s:.3} s"
    ));
}
