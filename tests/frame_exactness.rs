//! Exhaustive cross-check of SEMILET's per-frame search against plain
//! boolean simulation.
//!
//! On circuits small enough to enumerate every primary-input vector (s27
//! and the tiny generator profiles of `tdgen_exactness_synthetic.rs`),
//! `FrameEngine::solve` with a backtrack limit that never bites must say
//! `Solved` exactly when some PI vector (and, for assignable state, some
//! state) achieves the frame goal, and every X-completion of a returned
//! solution must achieve it. This pins both soundness (every solution is
//! real, for every don't-care fill) and completeness (every `Exhausted` is
//! a proof) of the frame engine's implication and decision machinery.

use gdf_algebra::logic3::Logic3;
use gdf_algebra::static5::{StaticSet, StaticValue};
use gdf_netlist::generator::{generate, CircuitProfile};
use gdf_netlist::{suite, Circuit, FaultUniverse, StuckFault};
use gdf_semilet::frame::{FrameEngine, FrameGoal, FrameResult, FrameSolution, PpiConstraint};

/// A limit no search on these circuits reaches.
const NO_ABORT: u32 = 1_000_000;

/// One machine's boolean values: `(po values, next-state values)` for the
/// PI vector `pi` and state `state`, with `fault` (if any) stuck in place.
fn simulate(
    c: &Circuit,
    pi: &[bool],
    state: &[bool],
    fault: Option<StuckFault>,
) -> (Vec<bool>, Vec<bool>) {
    let stuck_stem = |id| fault.filter(|f| f.site.stem == id && f.site.branch.is_none());
    let mut v = vec![false; c.num_nodes()];
    for (i, &p) in c.inputs().iter().enumerate() {
        v[p.index()] = pi[i];
    }
    for (i, &ff) in c.dffs().iter().enumerate() {
        v[ff.index()] = state[i];
    }
    let sources: Vec<_> = c.inputs().iter().chain(c.dffs()).copied().collect();
    for &s in &sources {
        if let Some(f) = stuck_stem(s) {
            v[s.index()] = f.kind.value();
        }
    }
    // The value `sink` sees on input `pin` (a stuck branch overrides it).
    let edge = |v: &[bool], sink: gdf_netlist::NodeId, pin: usize| {
        let src = c.node(sink).fanin()[pin];
        match fault {
            Some(f) if f.site.stem == src && f.site.branch == Some((sink, pin as u8)) => {
                f.kind.value()
            }
            _ => v[src.index()],
        }
    };
    for &g in c.topo_order() {
        let ins: Vec<bool> = (0..c.node(g).fanin().len())
            .map(|p| edge(&v, g, p))
            .collect();
        v[g.index()] = match stuck_stem(g) {
            Some(f) => f.kind.value(),
            None => c.node(g).kind().eval_bool(&ins),
        };
    }
    let pos = c.outputs().iter().map(|&po| v[po.index()]).collect();
    let next = c.dffs().iter().map(|&ff| edge(&v, ff, 0)).collect();
    (pos, next)
}

/// A fixed, fault-free state bit.
fn known(b: bool) -> PpiConstraint {
    let v = if b { StaticValue::S1 } else { StaticValue::S0 };
    PpiConstraint::Fixed(StaticSet::singleton(v))
}

fn bits(pattern: u32, n: usize) -> Vec<bool> {
    (0..n).map(|i| pattern & (1 << i) != 0).collect()
}

/// Every vector of `n` bits.
fn all_vectors(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0u32..(1 << n)).map(move |p| bits(p, n))
}

/// Every boolean completion of a partial vector (`None` = free).
fn completions(partial: &[Option<bool>]) -> Vec<Vec<bool>> {
    let free: Vec<usize> = (0..partial.len())
        .filter(|&i| partial[i].is_none())
        .collect();
    all_vectors(free.len())
        .map(|fill| {
            let mut v: Vec<bool> = partial.iter().map(|b| b.unwrap_or(false)).collect();
            for (k, &i) in free.iter().enumerate() {
                v[i] = fill[k];
            }
            v
        })
        .collect()
}

/// Whether the good and faulty machines differ at an observation point of
/// `goal` (`ObserveAtPo`: a PO; `LatchDiff`: a latched next-state bit).
fn differs(
    c: &Circuit,
    goal: &FrameGoal,
    pi: &[bool],
    good_state: &[bool],
    faulty_state: &[bool],
    fault: Option<StuckFault>,
) -> bool {
    let (good_po, good_next) = simulate(c, pi, good_state, None);
    let (bad_po, bad_next) = simulate(c, pi, faulty_state, fault);
    match goal {
        FrameGoal::ObserveAtPo => good_po != bad_po,
        FrameGoal::LatchDiff => good_next != bad_next,
        FrameGoal::JustifyPpos(_) => unreachable!("no difference goal"),
    }
}

fn justifies(c: &Circuit, targets: &[(usize, bool)], pi: &[bool], state: &[bool]) -> bool {
    let (_, next) = simulate(c, pi, state, None);
    targets.iter().all(|&(i, b)| next[i] == b)
}

fn solve(
    engine: &FrameEngine<'_>,
    ppis: &[PpiConstraint],
    goal: &FrameGoal,
    fault: Option<StuckFault>,
) -> Option<FrameSolution> {
    match engine.solve(ppis, goal, fault) {
        FrameResult::Solved(sol) => Some(sol),
        FrameResult::Exhausted => None,
        FrameResult::Aborted => panic!("the limit must not bite: {goal:?} {fault:?}"),
    }
}

fn pi_partial(sol: &FrameSolution) -> Vec<Option<bool>> {
    sol.pi.iter().map(|l: &Logic3| l.to_bool()).collect()
}

/// Tallies of solved and exhausted frame problems.
#[derive(Default)]
struct Tally {
    solved: usize,
    exhausted: usize,
}

impl Tally {
    fn record(&mut self, solved: bool) {
        if solved {
            self.solved += 1;
        } else {
            self.exhausted += 1;
        }
    }
}

/// Difference goals from every singleton state, fault-free: a `D`/`D̄` bit
/// has good and faulty machines starting apart.
fn check_state_differences(c: &Circuit, engine: &FrameEngine<'_>, tally: &mut Tally) {
    let n = c.num_dffs();
    for code in 0u32..(4u32.pow(n as u32)) {
        let state: Vec<StaticValue> = (0..n)
            .map(|i| StaticValue::ALL[((code >> (2 * i)) & 3) as usize])
            .collect();
        let good: Vec<bool> = state.iter().map(|v| v.good()).collect();
        let faulty: Vec<bool> = state.iter().map(|v| v.faulty()).collect();
        let ppis: Vec<PpiConstraint> = state
            .iter()
            .map(|&v| PpiConstraint::Fixed(StaticSet::singleton(v)))
            .collect();
        for goal in [FrameGoal::ObserveAtPo, FrameGoal::LatchDiff] {
            let exists =
                all_vectors(c.num_inputs()).any(|pi| differs(c, &goal, &pi, &good, &faulty, None));
            let sol = solve(engine, &ppis, &goal, None);
            assert_eq!(
                sol.is_some(),
                exists,
                "{}: {goal:?} from state {state:?}",
                c.name()
            );
            if let Some(sol) = sol {
                for pi in completions(&pi_partial(&sol)) {
                    assert!(
                        differs(c, &goal, &pi, &good, &faulty, None),
                        "{}: {goal:?} from {state:?} fails for completion {pi:?}",
                        c.name()
                    );
                }
            }
            tally.record(exists);
        }
    }
}

/// Difference goals with every stuck fault injected, from every known
/// state.
fn check_stuck_faults(c: &Circuit, engine: &FrameEngine<'_>, tally: &mut Tally) {
    for fault in FaultUniverse::default().stuck_faults(c) {
        for state in all_vectors(c.num_dffs()) {
            let ppis: Vec<PpiConstraint> = state.iter().map(|&b| known(b)).collect();
            for goal in [FrameGoal::ObserveAtPo, FrameGoal::LatchDiff] {
                let exists = all_vectors(c.num_inputs())
                    .any(|pi| differs(c, &goal, &pi, &state, &state, Some(fault)));
                let sol = solve(engine, &ppis, &goal, Some(fault));
                assert_eq!(
                    sol.is_some(),
                    exists,
                    "{}: {goal:?} for {} from state {state:?}",
                    c.name(),
                    fault.describe(c)
                );
                if let Some(sol) = sol {
                    for pi in completions(&pi_partial(&sol)) {
                        assert!(
                            differs(c, &goal, &pi, &state, &state, Some(fault)),
                            "{}: {goal:?} for {} fails for completion {pi:?}",
                            c.name(),
                            fault.describe(c)
                        );
                    }
                }
                tally.record(exists);
            }
        }
    }
}

/// `JustifyPpos` over every target set (each flip-flop: no target, 0 or
/// 1), with assignable state and with every fixed known state.
fn check_justification(c: &Circuit, engine: &FrameEngine<'_>, tally: &mut Tally) {
    let n = c.num_dffs();
    for code in 0u32..(3u32.pow(n as u32)) {
        let targets: Vec<(usize, bool)> = (0..n)
            .filter_map(|i| match (code / 3u32.pow(i as u32)) % 3 {
                0 => None,
                t => Some((i, t == 2)),
            })
            .collect();
        let goal = FrameGoal::JustifyPpos(targets.clone());

        // Assignable state: the engine may ask the previous frame for bits.
        let ppis = vec![PpiConstraint::Assignable; n];
        let exists = all_vectors(c.num_inputs())
            .any(|pi| all_vectors(n).any(|st| justifies(c, &targets, &pi, &st)));
        let sol = solve(engine, &ppis, &goal, None);
        assert_eq!(
            sol.is_some(),
            exists,
            "{}: {targets:?} assignable",
            c.name()
        );
        if let Some(sol) = sol {
            let mut state: Vec<Option<bool>> = vec![None; n];
            for &(i, b) in &sol.ppi_assigned {
                state[i] = Some(b);
            }
            for pi in completions(&pi_partial(&sol)) {
                for st in completions(&state) {
                    assert!(
                        justifies(c, &targets, &pi, &st),
                        "{}: {targets:?} fails for pi {pi:?} state {st:?}",
                        c.name()
                    );
                }
            }
        }
        tally.record(exists);

        // Fixed known state: only the PIs are free.
        for st in all_vectors(n) {
            let ppis: Vec<PpiConstraint> = st.iter().map(|&b| known(b)).collect();
            let exists = all_vectors(c.num_inputs()).any(|pi| justifies(c, &targets, &pi, &st));
            let sol = solve(engine, &ppis, &goal, None);
            assert_eq!(
                sol.is_some(),
                exists,
                "{}: {targets:?} from state {st:?}",
                c.name()
            );
            if let Some(sol) = sol {
                assert!(sol.ppi_assigned.is_empty(), "fixed state is not assignable");
                for pi in completions(&pi_partial(&sol)) {
                    assert!(
                        justifies(c, &targets, &pi, &st),
                        "{}: {targets:?} from {st:?} fails for {pi:?}",
                        c.name()
                    );
                }
            }
            tally.record(exists);
        }
    }
}

fn check_exact(c: &Circuit) -> Tally {
    assert!(
        c.num_inputs() <= 4 && c.num_dffs() <= 3,
        "keep enumeration small"
    );
    let engine = FrameEngine::new(c, NO_ABORT);
    let mut tally = Tally::default();
    check_state_differences(c, &engine, &mut tally);
    check_stuck_faults(c, &engine, &mut tally);
    check_justification(c, &engine, &mut tally);
    tally
}

#[test]
fn frame_engine_matches_brute_force() {
    let mut circuits = vec![suite::s27()];
    for seed in [1u64, 7, 23, 99] {
        circuits.push(generate(&CircuitProfile::new(
            format!("tiny{seed}"),
            3,
            2,
            2,
            18,
            seed,
        )));
    }
    for seed in [3u64, 41] {
        circuits.push(generate(&CircuitProfile::new(
            format!("hold{seed}"),
            4,
            2,
            3,
            24,
            seed,
        )));
    }
    let mut total = Tally::default();
    for c in &circuits {
        let t = check_exact(c);
        assert!(
            t.solved > 0 && t.exhausted > 0,
            "{}: both verdicts occur",
            c.name()
        );
        total.solved += t.solved;
        total.exhausted += t.exhausted;
    }
    eprintln!(
        "frame exactness: {} solved, {} exhausted frame problems",
        total.solved, total.exhausted
    );
}
