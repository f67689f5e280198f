//! Per-layer measurements for the traced run, each taken from outside a
//! layer by timing calls into its public functions.
//!
//! * [`algebra_sweep`] — `gdf-algebra`: the set-valued gate operations
//!   TDgen and SEMILET run on every implication.
//! * [`replay_engines`] — `gdf-tdgen` and `gdf-semilet`: TDgen on every
//!   fault, propagation from each PPO-observed local test, and
//!   synchronization of each test's required state. The replay does not
//!   repeat the engine's retry and credit path, so its busy times do not
//!   sum to a run's wall time.
//! * [`replay_grading`] — `gdf-sim` through the engine's public
//!   three-phase fault simulation, mirroring `gdf_core::grade_patterns`.
//! * [`core_phases`] — `gdf-core`: the engine's own phase spans.

use crate::trace::{SpanId, Tracer};
use crate::Outcome;
use gdf_algebra::delay::{self, DelaySet};
use gdf_algebra::static5::{self, StaticSet, StaticValue};
use gdf_core::{Atpg, AtpgBuilder, DelayAtpg, DelayAtpgConfig, FsimScratch, PatternSet, RunConfig};
use gdf_netlist::{Circuit, FaultUniverse, GateKind, ModelKind};
use gdf_semilet::justify::{synchronize, SyncLimits, SyncOutcome};
use gdf_semilet::propagate::{propagate_to_po, PropagateLimits, PropagateOutcome};
use gdf_tdgen::{LocalObservation, LocalTest, PpoValue, TdGen, TdGenConfig, TdGenOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// The 2-input gate kinds the set operations are swept over.
const KINDS: [GateKind; 6] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// Sweeps per operation; the reported time per call is their median.
const SWEEPS: usize = 3;

/// Times `eval_gate_sets` and `narrow_inputs` of the 8-valued delay sets
/// and the 5-valued static sets, over every pair of input sets for every
/// 2-input gate kind, and records the nanoseconds per call.
pub fn algebra_sweep(tracer: &Tracer, out: &mut Outcome) {
    let root = tracer.open("algebra.sweep", None);
    // 256 delay sets and 16 static sets: the static sweep repeats 256
    // times so both time the same number of calls.
    let delay_sets: Vec<DelaySet> = (0..=255u8).map(DelaySet::from_bits).collect();
    let static_sets: Vec<StaticSet> = (0..16u8).map(StaticSet::from_bits).collect();
    let calls = (KINDS.len() * 256 * 256) as f64;
    let per_call = |name: &'static str, sweep: &dyn Fn() -> u64| {
        let ns: Vec<f64> = (0..SWEEPS)
            .map(|_| {
                let span = tracer.open(name, Some(root));
                black_box(sweep());
                tracer.close(span).as_secs_f64() * 1e9 / calls
            })
            .collect();
        crate::stats::median(&ns)
    };
    let delay_eval = per_call("algebra.delay_eval", &|| {
        let mut acc = 0u64;
        for kind in KINDS {
            for &a in &delay_sets {
                for &b in &delay_sets {
                    acc += u64::from(delay::eval_gate_sets(kind, black_box(&[a, b])).bits());
                }
            }
        }
        acc
    });
    let delay_narrow = per_call("algebra.delay_narrow", &|| {
        let mut acc = 0u64;
        for kind in KINDS {
            for &a in &delay_sets {
                for &b in &delay_sets {
                    let mut allowed = DelaySet::from_bits(a.bits() ^ b.bits().rotate_left(3));
                    let mut ins = black_box([a, b]);
                    acc += u64::from(delay::narrow_inputs(kind, &mut allowed, &mut ins));
                    acc += u64::from(allowed.bits() ^ ins[0].bits() ^ ins[1].bits());
                }
            }
        }
        acc
    });
    let static_eval = per_call("algebra.static_eval", &|| {
        let mut acc = 0u64;
        for _ in 0..256 {
            for kind in KINDS {
                for &a in &static_sets {
                    for &b in &static_sets {
                        acc += u64::from(static5::eval_gate_sets(kind, black_box(&[a, b])).bits());
                    }
                }
            }
        }
        acc
    });
    let static_narrow = per_call("algebra.static_narrow", &|| {
        let mut acc = 0u64;
        for _ in 0..256 {
            for kind in KINDS {
                for &a in &static_sets {
                    for &b in &static_sets {
                        let mut allowed = StaticSet::from_bits(a.bits() ^ b.bits().rotate_left(1));
                        let mut ins = black_box([a, b]);
                        acc += u64::from(static5::narrow_inputs(kind, &mut allowed, &mut ins));
                        acc += u64::from(allowed.bits() ^ ins[0].bits() ^ ins[1].bits());
                    }
                }
            }
        }
        acc
    });
    tracer.close(root);
    out.set("algebra.delay_eval_ns", delay_eval);
    out.set("algebra.delay_narrow_ns", delay_narrow);
    out.set("algebra.static_eval_ns", static_eval);
    out.set("algebra.static_narrow_ns", static_narrow);
}

/// Outcome counts of the TDgen / SEMILET replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineCounts {
    tdgen_calls: u64,
    tests: u64,
    untestable: u64,
    aborted: u64,
    /// Backtracks of the local tests found (an aborted call spent the
    /// whole limit; those are not counted).
    backtracks: u64,
    propagate_calls: u64,
    propagated: u64,
    propagate_aborted: u64,
    sync_calls: u64,
    synchronized: u64,
    sync_aborted: u64,
    tdgen_busy_s: f64,
    propagate_busy_s: f64,
    sync_busy_s: f64,
}

impl EngineCounts {
    /// Seconds spent inside the replayed engine calls.
    pub fn busy_s(&self) -> f64 {
        self.tdgen_busy_s + self.propagate_busy_s + self.sync_busy_s
    }
}

/// Replays the engines the ATPG loop calls for every fault of `config`'s
/// universe on `circuit`: TDgen, then propagation from each PPO-observed
/// test's 5-valued start state, then synchronization of the test's
/// required state. Each call is a span under `parent`.
pub fn replay_engines(
    tracer: &Tracer,
    parent: SpanId,
    circuit: &Circuit,
    config: &RunConfig,
    counts: &mut EngineCounts,
) {
    let limits = config.limits;
    let gen = TdGen::with_config(
        circuit,
        TdGenConfig {
            backtrack_limit: limits.local_backtrack_limit,
            sensitization: config.effective_sensitization(),
        },
    );
    let propagate_limits = PropagateLimits {
        backtrack_limit: limits.sequential_backtrack_limit,
        max_frames: limits.max_propagation_frames,
    };
    let sync_limits = SyncLimits {
        backtrack_limit: limits.sequential_backtrack_limit,
        max_frames: limits.max_sync_frames,
    };
    let faults = config.model.model().enumerate(circuit, &config.universe);
    for fault in faults.filter_map(|f| f.as_delay()) {
        counts.tdgen_calls += 1;
        let (outcome, busy) = tracer.span("tdgen.generate", Some(parent), || gen.generate(fault));
        counts.tdgen_busy_s += busy;
        let test = match outcome {
            TdGenOutcome::Test(t) => t,
            TdGenOutcome::Untestable => {
                counts.untestable += 1;
                continue;
            }
            TdGenOutcome::Aborted => {
                counts.aborted += 1;
                continue;
            }
        };
        counts.tests += 1;
        counts.backtracks += u64::from(test.backtracks);
        if let LocalObservation::AtPpo { .. } = test.observation {
            let start = start_state(&test);
            counts.propagate_calls += 1;
            let (outcome, busy) = tracer.span("semilet.propagate", Some(parent), || {
                propagate_to_po(circuit, &start, propagate_limits)
            });
            counts.propagate_busy_s += busy;
            match outcome {
                PropagateOutcome::Propagated(_) => counts.propagated += 1,
                PropagateOutcome::Aborted => counts.propagate_aborted += 1,
                PropagateOutcome::Unpropagatable => {}
            }
        }
        let targets: Vec<(usize, bool)> = test
            .required_state
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.to_bool().map(|b| (i, b)))
            .collect();
        counts.sync_calls += 1;
        let (outcome, busy) = tracer.span("semilet.sync", Some(parent), || {
            synchronize(circuit, &targets, sync_limits)
        });
        counts.sync_busy_s += busy;
        match outcome {
            SyncOutcome::Synchronized(_) => counts.synchronized += 1,
            SyncOutcome::Aborted => counts.sync_aborted += 1,
            SyncOutcome::Unsynchronizable => {}
        }
    }
}

/// The state the ATPG loop hands to propagation: the latched fault effect,
/// the steady PPO values, and fixed-but-unknown elsewhere.
fn start_state(test: &LocalTest) -> Vec<StaticSet> {
    test.ppo_values
        .iter()
        .map(|v| match v {
            PpoValue::Steady0 => StaticSet::singleton(StaticValue::S0),
            PpoValue::Steady1 => StaticSet::singleton(StaticValue::S1),
            PpoValue::FaultEffect { good_one: true } => StaticSet::singleton(StaticValue::D),
            PpoValue::FaultEffect { good_one: false } => StaticSet::singleton(StaticValue::Db),
            PpoValue::UnjustifiableX => StaticSet::GOOD,
        })
        .collect()
}

/// Records the `tdgen.*` and `semilet.*` metrics of a replay.
pub fn engine_metrics(counts: &EngineCounts, out: &mut Outcome) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.set("tdgen.calls", counts.tdgen_calls as f64);
    out.set("tdgen.busy_s", counts.tdgen_busy_s);
    out.set("tdgen.tests", counts.tests as f64);
    out.set("tdgen.untestable", counts.untestable as f64);
    out.set("tdgen.aborted", counts.aborted as f64);
    out.set("tdgen.backtracks", counts.backtracks as f64);
    out.set("tdgen.test_ratio", ratio(counts.tests, counts.tdgen_calls));
    out.set("semilet.propagate.calls", counts.propagate_calls as f64);
    out.set("semilet.propagate.busy_s", counts.propagate_busy_s);
    out.set("semilet.propagate.propagated", counts.propagated as f64);
    out.set("semilet.propagate.aborted", counts.propagate_aborted as f64);
    out.set(
        "semilet.propagate.success_ratio",
        ratio(counts.propagated, counts.propagate_calls),
    );
    out.set("semilet.sync.calls", counts.sync_calls as f64);
    out.set("semilet.sync.busy_s", counts.sync_busy_s);
    out.set("semilet.sync.synchronized", counts.synchronized as f64);
    out.set("semilet.sync.aborted", counts.sync_aborted as f64);
}

/// Work counts of the fault-simulation replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimCounts {
    sequences: u64,
    candidates: u64,
    detections: u64,
    busy_s: f64,
}

impl SimCounts {
    /// Seconds spent inside the replayed fault-simulation calls.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }
}

/// Grades `set` the way `gdf_core::grade_patterns` does — same fault
/// order, same X-fill stream, faults dropped once detected — but through
/// the engine's public fault-simulation calls, one span per sequence.
/// Returns, per fault, the index of the first pattern detecting it.
pub fn replay_grading(
    tracer: &Tracer,
    parent: SpanId,
    circuit: &Circuit,
    set: &PatternSet,
    model: ModelKind,
    seed: u64,
    counts: &mut SimCounts,
) -> Result<Vec<Option<usize>>, String> {
    let universe = FaultUniverse::default();
    let faults: Vec<_> = model.model().enumerate(circuit, &universe).collect();
    let atpg = DelayAtpg::with_config(
        circuit,
        DelayAtpgConfig::new()
            .with_model(model)
            .with_universe(universe),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = FsimScratch::default();
    let mut first = vec![None; faults.len()];
    let mut remaining: Vec<usize> = (0..faults.len()).collect();
    for (pi, pattern) in set.patterns.iter().enumerate() {
        if pattern.sequence.at_speed().is_none() || remaining.is_empty() {
            continue;
        }
        let relied = set.relied_nodes(circuit, pi).map_err(|e| e.to_string())?;
        counts.sequences += 1;
        counts.candidates += remaining.len() as u64;
        let (hits, busy) = tracer.span("sim.fsim", Some(parent), || match model {
            ModelKind::Transition => {
                let candidates: Vec<_> = remaining
                    .iter()
                    .filter_map(|&k| faults[k].as_transition())
                    .collect();
                atpg.fault_simulate_sequence_transition(
                    &pattern.sequence,
                    &relied,
                    &candidates,
                    &mut rng,
                    &mut scratch,
                )
            }
            _ => {
                let candidates: Vec<_> = remaining
                    .iter()
                    .filter_map(|&k| faults[k].as_delay())
                    .collect();
                atpg.fault_simulate_sequence(
                    &pattern.sequence,
                    &relied,
                    &candidates,
                    &mut rng,
                    &mut scratch,
                )
            }
        });
        counts.busy_s += busy;
        let mut hits = hits.map_err(|e| e.to_string())?;
        counts.detections += hits.len() as u64;
        hits.sort_unstable();
        for &pos in hits.iter().rev() {
            first[remaining.remove(pos)] = Some(pi);
        }
    }
    Ok(first)
}

/// Records the `sim.*` metrics of a grading replay.
pub fn sim_metrics(counts: &SimCounts, out: &mut Outcome) {
    out.set("sim.sequences", counts.sequences as f64);
    out.set("sim.busy_s", counts.busy_s);
    out.set("sim.candidate_faults", counts.candidates as f64);
    out.set("sim.detections", counts.detections as f64);
    let useful = if counts.candidates == 0 {
        0.0
    } else {
        counts.detections as f64 / counts.candidates as f64
    };
    out.set("sim.useful_ratio", useful);
}

/// Records the engine's phase spans as the `core.*` phase metrics;
/// `phase` gives a phase's `(spans, summed seconds)`.
pub fn core_phases(phase: impl Fn(&str) -> (u64, f64), out: &mut Outcome) {
    let (generate_calls, generate_s) = phase("generate");
    let (credit_calls, credit_s) = phase("credit");
    let (checkpoints, checkpoint_s) = phase("checkpoint");
    out.set("core.generate_s", generate_s);
    out.set("core.generate_calls", generate_calls as f64);
    out.set("core.credit_s", credit_s);
    out.set("core.credit_calls", credit_calls as f64);
    out.set("core.fill_s", phase("fill").1);
    out.set("core.fsim_s", phase("fsim").1);
    out.set("core.checkpoint_s", checkpoint_s);
    out.set("core.checkpoints", checkpoints as f64);
}

/// Tracing overhead in percent: how much longer the traced measurement
/// took than the untraced one.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s * 100.0
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// An engine for `config` on `circuit`, as `gdf run` builds it, at
/// `parallelism`.
pub fn build_atpg<'c>(
    circuit: &'c Circuit,
    config: &RunConfig,
    parallelism: usize,
) -> AtpgBuilder<'c> {
    Atpg::builder(circuit)
        .backend(config.backend)
        .model(config.model)
        .sensitization(config.sensitization)
        .universe(config.universe)
        .limits(config.limits)
        .seed(config.seed)
        .parallelism(parallelism)
}

/// Times `n` calls of `setup` into `secs`. Each result goes to `keep`
/// after its clock has stopped, so dropping or shutting it down is not
/// timed.
pub fn time_setups<T>(
    n: usize,
    secs: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
    mut keep: impl FnMut(T),
) {
    for _ in 0..n {
        let start = Instant::now();
        let result = black_box(setup());
        secs.push(self::secs(start));
        keep(result);
    }
}
