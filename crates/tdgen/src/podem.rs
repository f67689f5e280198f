//! The complete branch-and-bound search of TDgen.
//!
//! Decision variables are primary-input values (each PI takes one of
//! `{0, 1, R, F}`) and pseudo-primary-input *initial* bits; everything else
//! follows by implication. Objectives (fault-effect propagation through the
//! D-frontier) are backtraced through the implication tables to a decision,
//! guided by SCOAP testability measures.
//!
//! Two value networks cooperate:
//!
//! * the **implication network** ([`ImplicationNet`]) holds arc-consistent
//!   sets under all constraints (including the excitation requirement at
//!   the fault site) — it provides conflict detection, pruning and
//!   objective guidance;
//! * a **forward functional check** recomputes value sets purely forward
//!   from the *decided* inputs (undecided inputs keep their full domains).
//!   Only this check declares success: if the forward image of an
//!   observation point is entirely fault-carrying, then *every* completion
//!   of the remaining don't-cares detects the fault — which is what the
//!   emitted test with `X` positions promises.
//!
//! Completeness comes from the decision tree covering the full PI/PPI
//! space; objectives are heuristics only. The paper's backtrack-limit
//! abort (default 100) sits on top.
//!
//! The decision stack, the backtrack step and the combinational backtrace
//! step are the ones SEMILET's frame engine uses too
//! ([`gdf_algebra::implication`]); this module keeps what is TDgen's own:
//! the observation objectives, the two-frame forward image with its
//! register coupling, the success check, the PI and PPI-initial-bit
//! decisions, state-decision minimization and test extraction.

use crate::network::{DelayRules, ImplicationNet, Sensitization};
use crate::result::{LocalObservation, LocalTest, PpoValue};
use gdf_algebra::delay::{DelaySet, DelayValue};
use gdf_algebra::implication::{
    alternatives, leaf_set, Choice, Decisions, Exit, SetNetwork, SiteView, Step,
};
use gdf_algebra::logic3::{eval_gate3, Logic3};
use gdf_netlist::scoap::Testability;
use gdf_netlist::{Circuit, DelayFault, GateKind, NodeId};
use std::ops::ControlFlow;

type Net<'c> = SetNetwork<'c, DelayRules>;
type View<'c> = SiteView<'c, DelayRules>;
type Search = Decisions<DelayValue>;

/// Configuration of the local test generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TdGenConfig {
    /// Abort the fault after this many backtracks (paper: 100).
    pub backtrack_limit: u32,
    /// Robust (paper default) or non-robust fault model.
    pub sensitization: Sensitization,
}

impl Default for TdGenConfig {
    fn default() -> Self {
        TdGenConfig {
            backtrack_limit: 100,
            sensitization: Sensitization::Robust,
        }
    }
}

/// Result of local test generation for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdGenOutcome {
    /// A (possibly partially specified) two-pattern test was found.
    Test(LocalTest),
    /// The complete search space was exhausted: no robust local test
    /// exists under the model in force.
    Untestable,
    /// The backtrack limit was hit before the search finished.
    Aborted,
}

impl TdGenOutcome {
    /// Convenience accessor for the successful case.
    pub fn test(&self) -> Option<&LocalTest> {
        match self {
            TdGenOutcome::Test(t) => Some(t),
            _ => None,
        }
    }
}

/// The TDgen local test generator for one circuit.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct TdGen<'c> {
    circuit: &'c Circuit,
    config: TdGenConfig,
    testability: Testability,
}

impl<'c> TdGen<'c> {
    /// Creates a generator with the default configuration.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_config(circuit, TdGenConfig::default())
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(circuit: &'c Circuit, config: TdGenConfig) -> Self {
        TdGen {
            circuit,
            config,
            testability: Testability::compute(circuit),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> TdGenConfig {
        self.config
    }

    /// The circuit under test.
    ///
    /// `TdGen` holds no interior mutability — per-search state lives in
    /// locals — so one instance is safely shared by the unified engine's
    /// parallel workers.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Generates a local two-pattern test for `fault`.
    pub fn generate(&self, fault: DelayFault) -> TdGenOutcome {
        self.generate_with_constraints(fault, &[])
    }

    /// Like [`TdGen::generate`], with extra per-net set constraints applied
    /// before the search. The driver uses this for two of Figure 4's
    /// feedback edges: *propagation justification* (forcing additional
    /// PPOs to steady, specifiable values) and inter-phase backtracking
    /// (banning an observation PPO whose sequential propagation failed).
    ///
    /// An outcome of `Untestable` under non-empty constraints only proves
    /// untestability *under those constraints*.
    pub fn generate_with_constraints(
        &self,
        fault: DelayFault,
        constraints: &[(NodeId, DelaySet)],
    ) -> TdGenOutcome {
        let mut net = ImplicationNet::new(self.circuit, fault, self.config.sensitization);
        for &(node, set) in constraints {
            if !net.assign(node, set) {
                return TdGenOutcome::Untestable;
            }
        }
        // Any test must provoke the fault: pin the site to the provoking
        // transition up front (completeness is unaffected — every test has
        // this value at the site).
        let t = net.provoking_value();
        if !net.assign(fault.site.stem, DelaySet::singleton(t)) {
            return TdGenOutcome::Untestable;
        }
        let mut search = Decisions::new(self.config.backtrack_limit);
        let outcome = search.run(&mut net, |net, search| {
            let restr: Vec<(NodeId, DelaySet)> = search.restrictions().collect();
            let image = self.forward_image(net.view(), &restr);
            if self.forward_success(net.view(), &image).is_some() {
                // Drop every state-bit decision the observation does
                // not actually need: each kept one becomes a burden on
                // the initialization phase.
                let (restr, image) = self.minimize_state_decisions(net.view(), restr);
                let obs = self
                    .forward_success(net.view(), &image)
                    .expect("minimization preserves success");
                return Step::Done(self.extract(
                    net.view(),
                    &restr,
                    &image,
                    obs,
                    search.backtracks(),
                ));
            }
            if !self.may_reach_observable(net) {
                return Step::Backtrack;
            }
            self.pick_decision(net, search)
                .map_or(Step::Backtrack, Step::Decide)
        });
        match outcome {
            Ok(test) => TdGenOutcome::Test(test),
            Err(Exit::Exhausted) => TdGenOutcome::Untestable,
            Err(Exit::Aborted) => TdGenOutcome::Aborted,
        }
    }

    /// Computes the forward functional image from the decided leaves:
    /// undecided PIs keep their full 4-value domain, PPI finals follow the
    /// functionally determined PPO initial bits, and the fault site
    /// converts on its faulted edges. Correlation between reconvergent
    /// signals is lost in the set domain, so the image over-approximates —
    /// which makes the success check conservative (sound).
    fn forward_image(&self, view: &View<'_>, restr: &[(NodeId, DelaySet)]) -> Vec<DelaySet> {
        let circuit = self.circuit;
        let n = circuit.num_nodes();
        let leaf = |node| leaf_set(node, DelaySet::HAZARD_FREE, restr.iter().copied());

        // Pass 1: 3-valued initial-frame values (functional in leaf inits).
        let mut init3 = vec![Logic3::X; n];
        for &src in circuit.inputs().iter().chain(circuit.dffs()) {
            init3[src.index()] = component3(leaf(src), DelayValue::initial);
        }
        let mut ins = Vec::new();
        for (g, kind, fanin) in circuit.gates_levelized() {
            ins.clear();
            ins.extend(fanin.iter().map(|f| init3[f.index()]));
            init3[g.index()] = eval_gate3(kind, &ins);
        }

        // Pass 2: 8-valued forward sets with the site conversion.
        let mut f = vec![DelaySet::EMPTY; n];
        for &pi in circuit.inputs() {
            f[pi.index()] = leaf(pi);
        }
        for &ff in circuit.dffs() {
            let mut s = leaf(ff);
            // Register coupling, forward direction only: the PPI's final
            // value is the PPO's (functionally determined) initial value.
            if let Some(b) = init3[circuit.ppo_of_dff(ff).index()].to_bool() {
                s = s.iter().filter(|v| v.final_value() == b).collect();
            }
            f[ff.index()] = s;
        }
        view.forward_pass(&mut f);
        f
    }

    /// Declares success only from the forward image (PO first, then PPO).
    fn forward_success(&self, view: &View<'_>, image: &[DelaySet]) -> Option<LocalObservation> {
        for &po in self.circuit.outputs() {
            if view.observed(image, po).must_carry_fault() {
                return Some(LocalObservation::AtPo(po));
            }
        }
        (0..self.circuit.num_dffs()).find_map(|dff| match view.latched(image, dff).as_singleton() {
            Some(DelayValue::Rc) => Some(LocalObservation::AtPpo {
                dff,
                good_one: true,
            }),
            Some(DelayValue::Fc) => Some(LocalObservation::AtPpo {
                dff,
                good_one: false,
            }),
            _ => None,
        })
    }

    /// Greedily removes decisions on flip-flop initial bits whose loss
    /// does not break the (forward-checked) observation. Returns the
    /// surviving restrictions and their forward image.
    fn minimize_state_decisions(
        &self,
        view: &View<'_>,
        mut restr: Vec<(NodeId, DelaySet)>,
    ) -> (Vec<(NodeId, DelaySet)>, Vec<DelaySet>) {
        let mut idx = restr.len();
        while idx > 0 {
            idx -= 1;
            let (node, _) = restr[idx];
            if self.circuit.node(node).kind() != GateKind::Dff {
                continue;
            }
            let mut trial = restr.clone();
            trial.remove(idx);
            let image = self.forward_image(view, &trial);
            if self.forward_success(view, &image).is_some() {
                restr = trial;
            }
        }
        let image = self.forward_image(view, &restr);
        (restr, image)
    }

    /// The X-path check on the arc-consistent network: every genuine test
    /// in this subtree satisfies all constraints, so if no observation
    /// point may carry, the subtree is dead.
    fn may_reach_observable(&self, net: &Net<'_>) -> bool {
        self.circuit
            .outputs()
            .iter()
            .any(|&po| net.observed(po).may_carry_fault())
            || (0..self.circuit.num_dffs()).any(|i| net.latched(i).may_carry_fault())
    }

    /// Picks an objective and backtraces it to a decision variable, or
    /// falls back to any open one. `None` when no decision variable
    /// remains.
    fn pick_decision(&self, net: &Net<'_>, search: &Search) -> Option<Choice<DelayValue>> {
        self.pick_objective(net)
            .and_then(|(node, desired)| {
                net.backtrace(&self.testability, node, desired, |node, desired| {
                    self.backtrace_leaf(net, search, node, desired)
                })
            })
            .or_else(|| self.fallback_variable(net, search))
    }

    /// The D-frontier objective: the unresolved fault-effect gate closest
    /// to an output, or a not-yet-singleton observation point.
    fn pick_objective(&self, net: &Net<'_>) -> Option<(NodeId, DelaySet)> {
        if let Some(objective) = net.d_frontier(&self.testability, DelaySet::CARRYING) {
            return Some(objective);
        }
        // No frontier gate: try to force a still-ambiguous observation
        // point toward a carrying value.
        let view = net.view();
        for &po in self.circuit.outputs() {
            let s = net.observed(po);
            if s.may_carry_fault() && !s.must_carry_fault() {
                let desired = view.unconvert_within(s.intersect(DelaySet::CARRYING), net.set(po));
                if !desired.is_empty() {
                    return Some((po, desired));
                }
            }
        }
        for i in 0..self.circuit.num_dffs() {
            let s = net.latched(i);
            if s.may_carry_fault() && s.as_singleton().is_none() {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                let carrying = s.intersect(DelaySet::CARRYING);
                let pick = carrying.iter().next().expect("may_carry");
                let desired = view.unconvert_within(DelaySet::singleton(pick), net.set(d));
                if !desired.is_empty() {
                    return Some((d, desired));
                }
            }
        }
        None
    }

    /// The backtrace at a PI (decide it) or a flip-flop (decide its
    /// initial bit, or redirect the final-value requirement through the
    /// register to the PPO's initial value).
    fn backtrace_leaf(
        &self,
        net: &Net<'_>,
        search: &Search,
        node: NodeId,
        desired: DelaySet,
    ) -> ControlFlow<Option<Choice<DelayValue>>, (NodeId, DelaySet)> {
        let leaf = search.leaf_set(node, DelaySet::HAZARD_FREE);
        if self.circuit.node(node).kind() == GateKind::Input {
            return ControlFlow::Break(self.pi_decision(net, node, desired, leaf));
        }
        let want_init = dedup_bools(desired.iter().map(|v| v.initial()));
        let have_init = dedup_bools(leaf.iter().map(|v| v.initial()));
        if want_init.len() == 1 && have_init.len() == 2 {
            return ControlFlow::Break(self.ppi_decision(node, want_init[0], leaf));
        }
        let finals = dedup_bools(desired.iter().map(|v| v.final_value()));
        let d = self.circuit.ppo_of_dff(node);
        let d_set = net.set(d);
        let redirected: DelaySet = d_set
            .iter()
            .filter(|u| finals.contains(&u.initial()))
            .collect();
        if redirected.is_empty() || redirected == d_set {
            return ControlFlow::Break(None);
        }
        ControlFlow::Continue((d, redirected))
    }

    /// Decision alternatives for a PI: the desired values first, then the
    /// rest of the *leaf* domain (full coverage keeps the search
    /// complete). Alternatives are tried back-to-front.
    fn pi_decision(
        &self,
        net: &Net<'_>,
        node: NodeId,
        desired: DelaySet,
        leaf: DelaySet,
    ) -> Option<Choice<DelayValue>> {
        if leaf.len() <= 1 {
            return None;
        }
        let arc = net.set(node);
        // Order (tried back-to-front): leaf-only values, then arc values,
        // then desired values last (tried first).
        let rank = |v| match (desired.contains(v), arc.contains(v)) {
            (true, _) => 2,
            (false, true) => 1,
            (false, false) => 0,
        };
        Some((node, alternatives(leaf, rank)))
    }

    /// Decision alternatives for a PPI initial bit.
    fn ppi_decision(&self, node: NodeId, want: bool, leaf: DelaySet) -> Option<Choice<DelayValue>> {
        let restrict = |b: bool| -> DelaySet { leaf.iter().filter(|v| v.initial() == b).collect() };
        let with = restrict(want);
        let without = restrict(!want);
        if with.is_empty() || without.is_empty() {
            return None; // init already determined
        }
        Some((node, vec![without, with])) // tried back-to-front: `with` first
    }

    /// Last-resort decision: prefer variables the implication network has
    /// already constrained (they matter for the pending objective), then
    /// any open variable.
    fn fallback_variable(&self, net: &Net<'_>, search: &Search) -> Option<Choice<DelayValue>> {
        let leaf = |node| search.leaf_set(node, DelaySet::HAZARD_FREE);
        let mut open: Vec<(bool, NodeId)> = Vec::new();
        for &pi in self.circuit.inputs() {
            let leaf = leaf(pi);
            if leaf.len() > 1 {
                let constrained = net.set(pi).len() < leaf.len();
                open.push((constrained, pi));
            }
        }
        for &ff in self.circuit.dffs() {
            let inits = dedup_bools(leaf(ff).iter().map(|v| v.initial()));
            if inits.len() == 2 {
                let arc_inits = dedup_bools(net.set(ff).iter().map(|v| v.initial()));
                open.push((arc_inits.len() < 2, ff));
            }
        }
        open.sort_by_key(|&(constrained, _)| !constrained);
        let (_, node) = *open.first()?;
        if self.circuit.node(node).kind() == GateKind::Input {
            let arc = net.set(node);
            Some((
                node,
                alternatives(leaf(node), |v| u8::from(arc.contains(v))),
            ))
        } else {
            let arc_inits = dedup_bools(net.set(node).iter().map(|v| v.initial()));
            let want = arc_inits.first().copied().unwrap_or(false);
            self.ppi_decision(node, want, leaf(node))
        }
    }

    /// Builds the [`LocalTest`] from the decided leaves and the forward
    /// image (both of which the emitted `X` semantics are sound for).
    fn extract(
        &self,
        view: &View<'_>,
        restr: &[(NodeId, DelaySet)],
        image: &[DelaySet],
        observation: LocalObservation,
        backtracks: u32,
    ) -> LocalTest {
        let leaf = |node| leaf_set(node, DelaySet::HAZARD_FREE, restr.iter().copied());
        let v1 = self
            .circuit
            .inputs()
            .iter()
            .map(|&pi| component3(leaf(pi), DelayValue::initial))
            .collect();
        let v2 = self
            .circuit
            .inputs()
            .iter()
            .map(|&pi| component3(leaf(pi), DelayValue::final_value))
            .collect();
        let required_state = self
            .circuit
            .dffs()
            .iter()
            .map(|&ff| component3(leaf(ff), DelayValue::initial))
            .collect();
        let ppo_values = (0..self.circuit.num_dffs())
            .map(|i| match view.latched(image, i).as_singleton() {
                Some(DelayValue::S0) => PpoValue::Steady0,
                Some(DelayValue::S1) => PpoValue::Steady1,
                Some(DelayValue::Rc) => PpoValue::FaultEffect { good_one: true },
                Some(DelayValue::Fc) => PpoValue::FaultEffect { good_one: false },
                _ => PpoValue::UnjustifiableX,
            })
            .collect();
        LocalTest {
            v1,
            v2,
            required_state,
            observation,
            ppo_values,
            backtracks,
        }
    }
}

/// Projects a set onto one Boolean component: known only if all values
/// agree.
fn component3(s: DelaySet, f: fn(DelayValue) -> bool) -> Logic3 {
    let bits = dedup_bools(s.iter().map(f));
    match bits.as_slice() {
        [b] => Logic3::from_bool(*b),
        _ => Logic3::X,
    }
}

fn dedup_bools<I: Iterator<Item = bool>>(iter: I) -> Vec<bool> {
    let mut out = Vec::with_capacity(2);
    for b in iter {
        if !out.contains(&b) {
            out.push(b);
        }
        if out.len() == 2 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, CircuitBuilder, DelayFaultKind, FaultSite, FaultUniverse};
    use gdf_sim::{detected_delay_faults, two_frame_values};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stem_fault(c: &Circuit, name: &str, kind: DelayFaultKind) -> DelayFault {
        DelayFault {
            site: FaultSite::on_stem(c.node_by_name(name).unwrap()),
            kind,
        }
    }

    /// X-fill a 3-valued vector deterministically.
    fn fill(v: &[Logic3], rng: &mut StdRng) -> Vec<bool> {
        v.iter()
            .map(|l| l.to_bool().unwrap_or_else(|| rng.gen()))
            .collect()
    }

    /// Verify a generated test with the independent TDsim machinery, under
    /// several random completions of the don't-care positions.
    fn verify_test(c: &Circuit, fault: DelayFault, t: &LocalTest) {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let v1 = fill(&t.v1, &mut rng);
            let v2 = fill(&t.v2, &mut rng);
            let st = fill(&t.required_state, &mut rng);
            let w = two_frame_values(c, &v1, &v2, &st);
            let observable: Vec<NodeId> = match t.observation {
                LocalObservation::AtPo(_) => Vec::new(),
                LocalObservation::AtPpo { dff, .. } => {
                    vec![c.ppo_of_dff(c.dffs()[dff])]
                }
            };
            let hits = detected_delay_faults(c, &w, &[fault], &observable, &[]);
            assert_eq!(
                hits.len(),
                1,
                "test for {} failed under X-fill (v1={v1:?} v2={v2:?} st={st:?})",
                fault.describe(c)
            );
        }
    }

    #[test]
    fn combinational_and_gate() {
        // y = AND(a, b): StR on a needs a:R, b final 1.
        let mut b = CircuitBuilder::new("and2");
        b.add_input("a");
        b.add_input("b");
        b.add_gate("y", GateKind::And, &["a", "b"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = stem_fault(&c, "a", DelayFaultKind::SlowToRise);
        let outcome = TdGen::new(&c).generate(fault);
        let t = outcome.test().expect("testable");
        assert_eq!(t.v1[0], Logic3::Zero);
        assert_eq!(t.v2[0], Logic3::One);
        verify_test(&c, fault, t);
    }

    #[test]
    fn robust_fall_needs_steady_side() {
        // y = AND(a, b): StF on a needs b steady 1 (V1=V2=1 on b).
        let mut bld = CircuitBuilder::new("and2");
        bld.add_input("a");
        bld.add_input("b");
        bld.add_gate("y", GateKind::And, &["a", "b"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let fault = stem_fault(&c, "a", DelayFaultKind::SlowToFall);
        let t = TdGen::new(&c).generate(fault);
        let t = t.test().expect("testable");
        assert_eq!(t.v1[1], Logic3::One, "side input steady 1 in frame 1");
        assert_eq!(t.v2[1], Logic3::One, "side input steady 1 in frame 2");
        verify_test(&c, fault, t);
    }

    #[test]
    fn redundant_fault_proven_untestable() {
        // y = OR(a, NOT(a)) is constant 1: no transition can be provoked
        // at y, and nothing propagates past it.
        let mut bld = CircuitBuilder::new("redundant");
        bld.add_input("a");
        bld.add_gate("n", GateKind::Not, &["a"]);
        bld.add_gate("y", GateKind::Or, &["a", "n"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let fault = stem_fault(&c, "y", DelayFaultKind::SlowToRise);
        assert_eq!(TdGen::new(&c).generate(fault), TdGenOutcome::Untestable);
    }

    #[test]
    fn sequential_observation_at_ppo() {
        // The only observation for d = NOT(a) is through the flip-flop.
        let mut bld = CircuitBuilder::new("latch");
        bld.add_input("a");
        bld.add_dff("q", "d");
        bld.add_gate("d", GateKind::Not, &["a"]);
        bld.add_gate("y", GateKind::Buf, &["q"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let fault = stem_fault(&c, "d", DelayFaultKind::SlowToFall);
        let outcome = TdGen::new(&c).generate(fault);
        let t = outcome.test().expect("locally testable via PPO");
        match t.observation {
            LocalObservation::AtPpo { dff: 0, good_one } => {
                // d falls: good machine latches 0 → D̄ (good 0 / faulty 1).
                assert!(!good_one);
            }
            other => panic!("expected PPO observation, got {other:?}"),
        }
        assert!(t.needs_propagation());
        verify_test(&c, fault, t);
    }

    #[test]
    fn required_state_extracted() {
        // y = AND(q, a): propagating a transition on `a` requires q's
        // frame-1 AND frame-2 value at 1; q's init bit becomes a state
        // requirement.
        let mut bld = CircuitBuilder::new("staterq");
        bld.add_input("a");
        bld.add_input("b");
        bld.add_dff("q", "d");
        bld.add_gate("d", GateKind::Buf, &["b"]);
        bld.add_gate("y", GateKind::And, &["q", "a"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let fault = stem_fault(&c, "a", DelayFaultKind::SlowToFall);
        let t = TdGen::new(&c).generate(fault);
        let t = t.test().expect("testable");
        // Robust StF through AND needs side steady 1: init(q)=1 and
        // fin(q)=1; fin(q)=init(d)=b's frame-1 value.
        assert_eq!(t.required_state[0], Logic3::One);
        assert_eq!(t.v1[1], Logic3::One, "b frame 1 feeds q's frame-2 value");
        verify_test(&c, fault, t);
    }

    #[test]
    fn s27_all_faults_classified_and_tests_verified() {
        let c = suite::s27();
        let faults = FaultUniverse::default().delay_faults(&c);
        let gen = TdGen::new(&c);
        let mut tested = 0;
        let mut untestable = 0;
        let mut aborted = 0;
        for f in &faults {
            match gen.generate(*f) {
                TdGenOutcome::Test(t) => {
                    tested += 1;
                    verify_test(&c, *f, &t);
                }
                TdGenOutcome::Untestable => untestable += 1,
                TdGenOutcome::Aborted => aborted += 1,
            }
        }
        assert!(tested > 0, "s27 has locally testable delay faults");
        assert_eq!(aborted, 0, "s27 is small enough to decide every fault");
        assert!(
            tested + untestable == faults.len(),
            "{tested}+{untestable} != {}",
            faults.len()
        );
    }

    #[test]
    fn nonrobust_model_tests_at_least_as_many_faults() {
        let c = suite::s27();
        let faults = FaultUniverse::default().delay_faults(&c);
        let robust = TdGen::new(&c);
        let nonrobust = TdGen::with_config(
            &c,
            TdGenConfig {
                sensitization: Sensitization::NonRobust,
                ..TdGenConfig::default()
            },
        );
        let mut robust_tested = 0;
        let mut nonrobust_tested = 0;
        for f in &faults {
            if robust.generate(*f).test().is_some() {
                robust_tested += 1;
            }
            if nonrobust.generate(*f).test().is_some() {
                nonrobust_tested += 1;
            }
        }
        assert!(
            nonrobust_tested >= robust_tested,
            "non-robust {nonrobust_tested} < robust {robust_tested}"
        );
    }

    #[test]
    fn branch_fault_generates_distinct_test() {
        let c = suite::s27();
        let g11 = c.node_by_name("G11").unwrap();
        // G11 fans out to G17 (PO path) and G10 (state path).
        let g17 = c.node_by_name("G17").unwrap();
        let fault = DelayFault {
            site: FaultSite::on_branch(g11, g17, 0),
            kind: DelayFaultKind::SlowToFall,
        };
        let outcome = TdGen::new(&c).generate(fault);
        if let Some(t) = outcome.test() {
            verify_test(&c, fault, t);
        }
        // Either outcome is legitimate; what matters is no abort on s27.
        assert_ne!(outcome, TdGenOutcome::Aborted);
    }

    #[test]
    fn backtrack_limit_respected() {
        // A tight limit must abort rather than loop.
        let c = suite::table3_circuit("s298").unwrap();
        let cfg = TdGenConfig {
            backtrack_limit: 1,
            ..TdGenConfig::default()
        };
        let gen = TdGen::with_config(&c, cfg);
        let faults = FaultUniverse::default().delay_faults(&c);
        // Just ensure every outcome terminates quickly.
        for f in faults.iter().take(40) {
            let _ = gen.generate(*f);
        }
    }
}
