//! The per-time-frame 5-valued engine shared by SEMILET's propagation,
//! justification and standalone stuck-at modes.
//!
//! One instance solves one combinational time frame: pseudo primary inputs
//! carry constraints from the neighbouring frames, primary inputs are
//! decision variables, and the goal is either to drive a fault effect to an
//! observation point or to justify required pseudo-primary-output values.
//! The search is the one TDgen runs (§3's refs 8 and 20):
//! [`gdf_algebra::implication`] holds the arc-consistent set network, the
//! fault-site edges, the decision stack and the backtrace step once, and
//! this module supplies the static domain's rules (a stuck-at site
//! converts good values to the stuck faulty value), the initial domains,
//! the goals' objectives and success checks, and the PI/PPI decisions.
//! Success is declared only on a *forward functional image* from the
//! decided leaves, so a solution with don't-care `X` positions holds for
//! every completion.

use gdf_algebra::implication::{
    alternatives, Choice, Decisions, Exit, Rules, SetNetwork, SiteView, Step,
};
use gdf_algebra::logic3::Logic3;
use gdf_algebra::static5::{StaticSet, StaticValue};
use gdf_netlist::scoap::Testability;
use gdf_netlist::{Circuit, GateKind, NodeId, StuckFault};
use std::ops::ControlFlow;

/// Constraint on one pseudo primary input for this frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PpiConstraint {
    /// The value set the previous frame hands over (propagation mode);
    /// cannot be assigned, only consumed.
    Fixed(StaticSet),
    /// Free but assignable: assigning it creates a justification
    /// requirement on the previous frame (reverse time processing).
    Assignable,
}

impl PpiConstraint {
    /// The initial leaf set.
    fn leaf(self) -> StaticSet {
        match self {
            PpiConstraint::Fixed(s) => s,
            PpiConstraint::Assignable => StaticSet::GOOD,
        }
    }
}

/// What this frame must achieve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameGoal {
    /// A definite fault effect at some primary output.
    ObserveAtPo,
    /// A definite fault effect latched into some flip-flop.
    LatchDiff,
    /// Produce the given `(dff index, value)` bits at the pseudo primary
    /// outputs (used by the synchronizing-sequence search).
    JustifyPpos(Vec<(usize, bool)>),
}

/// A solved frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSolution {
    /// The PI vector (don't-cares as `X`).
    pub pi: Vec<Logic3>,
    /// Requirements this frame places on the previous frame's state
    /// (only in justification mode, from `Assignable` PPIs).
    pub ppi_assigned: Vec<(usize, bool)>,
    /// The PO at which the effect was observed, if the goal was
    /// [`FrameGoal::ObserveAtPo`].
    pub po_hit: Option<NodeId>,
    /// Forward image of every pseudo primary output — the state handed to
    /// the next frame.
    pub next_state: Vec<StaticSet>,
    /// Backtracks consumed.
    pub backtracks: u32,
}

/// Outcome of solving one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameResult {
    /// Goal achieved.
    Solved(FrameSolution),
    /// Complete per-frame search space exhausted: impossible under the
    /// given constraints.
    Exhausted,
    /// Backtrack limit hit.
    Aborted,
}

impl FrameResult {
    /// Convenience accessor.
    pub fn solution(&self) -> Option<&FrameSolution> {
        match self {
            FrameResult::Solved(s) => Some(s),
            _ => None,
        }
    }
}

/// The per-frame engine.
///
/// # Example
///
/// ```
/// use gdf_algebra::static5::{StaticSet, StaticValue};
/// use gdf_netlist::suite;
/// use gdf_semilet::frame::{FrameEngine, FrameGoal, PpiConstraint};
///
/// let c = suite::s27();
/// // A definite D on flip-flop G6 (index 1), other state bits known 0.
/// let ppis = vec![
///     PpiConstraint::Fixed(StaticSet::singleton(StaticValue::S0)),
///     PpiConstraint::Fixed(StaticSet::singleton(StaticValue::D)),
///     PpiConstraint::Fixed(StaticSet::singleton(StaticValue::S0)),
/// ];
/// let engine = FrameEngine::new(&c, 100);
/// let result = engine.solve(&ppis, &FrameGoal::ObserveAtPo, None);
/// assert!(result.solution().is_some(), "G6 difference is observable at G17");
/// ```
#[derive(Debug)]
pub struct FrameEngine<'c> {
    circuit: &'c Circuit,
    backtrack_limit: u32,
    testability: Testability,
}

/// SEMILET's rules for the shared implication search: the robust static
/// gate rules, with a stuck-at site's converted edges carrying the good
/// value against the stuck faulty value.
#[derive(Debug, Clone, Copy)]
struct StuckRules {
    stuck: bool,
}

impl Rules for StuckRules {
    type Value = StaticValue;

    const PREFERENCE: &'static [StaticValue] = &[
        StaticValue::S1,
        StaticValue::S0,
        StaticValue::D,
        StaticValue::Db,
    ];

    fn convert_value(&self, v: StaticValue) -> StaticValue {
        StaticValue::from_pair(v.good(), self.stuck)
    }
}

type Net<'c> = SetNetwork<'c, StuckRules>;
type View<'c> = SiteView<'c, StuckRules>;
type Search = Decisions<StaticValue>;

impl<'c> FrameEngine<'c> {
    /// Creates an engine with the paper's default-style backtrack limit.
    pub fn new(circuit: &'c Circuit, backtrack_limit: u32) -> Self {
        FrameEngine {
            circuit,
            backtrack_limit,
            testability: Testability::compute(circuit),
        }
    }

    fn view(&self, fault: Option<StuckFault>) -> View<'c> {
        let stuck = fault.is_some_and(|f| f.kind.value());
        SiteView::new(self.circuit, fault.map(|f| f.site), StuckRules { stuck })
    }

    /// Solves one frame. `fault` injects a persistent stuck-at fault into
    /// the frame (standalone static-ATPG mode); `None` means a fault-free
    /// (slow clock) frame.
    pub fn solve(
        &self,
        ppis: &[PpiConstraint],
        goal: &FrameGoal,
        fault: Option<StuckFault>,
    ) -> FrameResult {
        assert_eq!(ppis.len(), self.circuit.num_dffs(), "PPI constraint count");
        let mut net = SetNetwork::new(self.view(fault), self.initial_sets(ppis, fault));

        // Seed goal constraints into the arc network where possible.
        if let FrameGoal::JustifyPpos(targets) = goal {
            for &(i, b) in targets {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                if !net.assign(d, StaticSet::singleton(known(b))) {
                    return FrameResult::Exhausted;
                }
            }
        }

        let mut search = Decisions::new(self.backtrack_limit);
        let result = search.run(&mut net, |net, search| {
            let view = net.view();
            let image = self.forward_image(view, ppis, search);
            if let Some(sol) = self.forward_success(view, goal, ppis, search, &image) {
                return Step::Done(sol);
            }
            if !self.still_possible(net, goal) {
                return Step::Backtrack;
            }
            self.pick_decision(net, goal, ppis, search, fault, &image)
                .map_or(Step::Backtrack, Step::Decide)
        });
        match result {
            Ok(sol) => FrameResult::Solved(sol),
            Err(Exit::Exhausted) => FrameResult::Exhausted,
            Err(Exit::Aborted) => FrameResult::Aborted,
        }
    }

    /// The initial domains: PIs good-valued, PPIs as constrained, and no
    /// fault effect outside the cone of the fault site and of the PPIs
    /// that carry one in.
    fn initial_sets(&self, ppis: &[PpiConstraint], fault: Option<StuckFault>) -> Vec<StaticSet> {
        let n = self.circuit.num_nodes();
        let mut sets = vec![StaticSet::ALL; n];
        for &pi in self.circuit.inputs() {
            sets[pi.index()] = StaticSet::GOOD;
        }
        for (i, &ff) in self.circuit.dffs().iter().enumerate() {
            sets[ff.index()] = ppis[i].leaf();
        }
        let mut may_effect = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        for (i, &ff) in self.circuit.dffs().iter().enumerate() {
            if ppis[i].leaf().may_be_fault_effect() {
                may_effect[ff.index()] = true;
                stack.push(ff);
            }
        }
        if let Some(f) = fault {
            let seed = match f.site.branch {
                None => f.site.stem,
                Some((sink, _)) => sink,
            };
            if !may_effect[seed.index()] {
                may_effect[seed.index()] = true;
                stack.push(seed);
            }
        }
        while let Some(id) = stack.pop() {
            for &(sink, _) in self.circuit.node(id).fanout() {
                if self.circuit.node(sink).kind().is_combinational() && !may_effect[sink.index()] {
                    may_effect[sink.index()] = true;
                    stack.push(sink);
                }
            }
        }
        for (set, may) in sets.iter_mut().zip(may_effect) {
            if !may {
                *set = set.intersect(StaticSet::GOOD);
            }
        }
        sets
    }

    // ------------------------------------------------------------------
    // Forward functional image & success
    // ------------------------------------------------------------------

    /// The forward functional image from the decided leaves (undecided
    /// ones keep their whole domain): a success judged on it holds for
    /// every completion of the don't-cares.
    fn forward_image(
        &self,
        view: &View<'_>,
        ppis: &[PpiConstraint],
        search: &Search,
    ) -> Vec<StaticSet> {
        let circuit = self.circuit;
        let mut f = vec![StaticSet::EMPTY; circuit.num_nodes()];
        for &pi in circuit.inputs() {
            f[pi.index()] = search.leaf_set(pi, StaticSet::GOOD);
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            f[ff.index()] = search.leaf_set(ff, ppis[i].leaf());
        }
        view.forward_pass(&mut f);
        f
    }

    fn forward_success(
        &self,
        view: &View<'_>,
        goal: &FrameGoal,
        ppis: &[PpiConstraint],
        search: &Search,
        image: &[StaticSet],
    ) -> Option<FrameSolution> {
        // An observation (or latched effect) needs a *singleton* D or D̄:
        // a {D, D̄} set means the good-machine value is unknown, so a
        // tester has no expected response to compare against.
        let definite = |s: StaticSet| {
            matches!(
                s.as_singleton(),
                Some(StaticValue::D) | Some(StaticValue::Db)
            )
        };
        let achieved = match goal {
            FrameGoal::ObserveAtPo => self
                .circuit
                .outputs()
                .iter()
                .any(|&po| definite(view.observed(image, po))),
            FrameGoal::LatchDiff => {
                (0..self.circuit.num_dffs()).any(|i| definite(view.latched(image, i)))
            }
            FrameGoal::JustifyPpos(targets) => targets.iter().all(|&(i, b)| {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                view.observed(image, d).as_singleton() == Some(known(b))
            }),
        };
        if !achieved {
            return None;
        }
        let po_hit = self
            .circuit
            .outputs()
            .iter()
            .copied()
            .find(|&po| definite(view.observed(image, po)));
        let pi = self
            .circuit
            .inputs()
            .iter()
            .map(|&p| to_logic3(search.leaf_set(p, StaticSet::GOOD)))
            .collect();
        let ppi_assigned = self
            .circuit
            .dffs()
            .iter()
            .enumerate()
            .filter(|&(i, _)| matches!(ppis[i], PpiConstraint::Assignable))
            .filter_map(|(i, &ff)| {
                let leaf = search.leaf_set(ff, StaticSet::GOOD);
                leaf.as_singleton().map(|v| (i, v.good()))
            })
            .collect();
        let next_state = (0..self.circuit.num_dffs())
            .map(|i| view.latched(image, i))
            .collect();
        Some(FrameSolution {
            pi,
            ppi_assigned,
            po_hit,
            next_state,
            backtracks: search.backtracks(),
        })
    }

    /// Arc-level pruning: is the goal still conceivably achievable?
    fn still_possible(&self, net: &Net<'_>, goal: &FrameGoal) -> bool {
        match goal {
            FrameGoal::ObserveAtPo => self
                .circuit
                .outputs()
                .iter()
                .any(|&po| net.observed(po).may_be_fault_effect()),
            FrameGoal::LatchDiff => (0..self.circuit.num_dffs()).any(|i| {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                net.latched(i).may_be_fault_effect() || net.set(d).may_be_fault_effect()
            }),
            FrameGoal::JustifyPpos(targets) => targets.iter().all(|&(i, b)| {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                net.set(d).contains(known(b))
            }),
        }
    }

    // ------------------------------------------------------------------
    // Decisions
    // ------------------------------------------------------------------

    fn pick_decision(
        &self,
        net: &Net<'_>,
        goal: &FrameGoal,
        ppis: &[PpiConstraint],
        search: &Search,
        fault: Option<StuckFault>,
        image: &[StaticSet],
    ) -> Option<Choice<StaticValue>> {
        self.pick_objective(net, goal, fault, image)
            .and_then(|(node, desired)| {
                net.backtrace(&self.testability, node, desired, |node, desired| {
                    ControlFlow::Break(self.leaf_decision(ppis, search, node, desired))
                })
            })
            .or_else(|| self.fallback_variable(net, ppis, search))
    }

    fn pick_objective(
        &self,
        net: &Net<'_>,
        goal: &FrameGoal,
        fault: Option<StuckFault>,
        image: &[StaticSet],
    ) -> Option<(NodeId, StaticSet)> {
        if let FrameGoal::JustifyPpos(targets) = goal {
            // Judge satisfaction on the *forward image* — the arc network
            // already contains the target as a constraint, so it cannot
            // tell us which targets still need decisions.
            return targets.iter().find_map(|&(i, b)| {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                (net.view().observed(image, d).as_singleton() != Some(known(b)))
                    .then(|| (d, StaticSet::singleton(known(b))))
            });
        }
        // Excitation first (standalone stuck-at mode): if nothing carries
        // the effect yet, provoke the site.
        if let Some(f) = fault {
            let stem = net.set(f.site.stem);
            let any_effect = net.sets().iter().any(|s| s.must_be_fault_effect())
                || net.view().convert(stem).must_be_fault_effect();
            if !any_effect {
                let want_good = !f.kind.value();
                let desired: StaticSet = stem.iter().filter(|v| v.good() == want_good).collect();
                if !desired.is_empty() && desired != stem {
                    return Some((f.site.stem, desired));
                }
            }
        }
        // D-frontier: unresolved gate with a definite effect on an input,
        // closest to an output.
        net.d_frontier(&self.testability, StaticSet::FAULT_EFFECT)
    }

    /// The backtrace at a PI or an assignable PPI: desired values are
    /// tried first. A fixed PPI cannot be influenced.
    fn leaf_decision(
        &self,
        ppis: &[PpiConstraint],
        search: &Search,
        node: NodeId,
        desired: StaticSet,
    ) -> Option<Choice<StaticValue>> {
        if self.circuit.node(node).kind() == GateKind::Dff {
            let i = self
                .circuit
                .dffs()
                .iter()
                .position(|&f| f == node)
                .expect("dff index");
            if let PpiConstraint::Fixed(_) = ppis[i] {
                return None;
            }
        }
        let leaf = search.leaf_set(node, StaticSet::GOOD);
        (leaf.len() > 1).then(|| (node, alternatives(leaf, |v| u8::from(desired.contains(v)))))
    }

    fn fallback_variable(
        &self,
        net: &Net<'_>,
        ppis: &[PpiConstraint],
        search: &Search,
    ) -> Option<Choice<StaticValue>> {
        // Constrained PIs first, then free PIs, then assignable PPIs (each
        // PPI assignment creates a justification burden — last resort).
        let mut pick: Option<(u8, NodeId)> = None;
        for &pi in self.circuit.inputs() {
            let leaf = search.leaf_set(pi, StaticSet::GOOD);
            if leaf.len() > 1 {
                let rank = if net.set(pi).len() < leaf.len() { 0 } else { 1 };
                if pick.is_none_or(|(r, _)| rank < r) {
                    pick = Some((rank, pi));
                }
            }
        }
        if pick.is_none() {
            pick = self
                .circuit
                .dffs()
                .iter()
                .enumerate()
                .find(|&(i, &ff)| {
                    matches!(ppis[i], PpiConstraint::Assignable)
                        && search.leaf_set(ff, StaticSet::GOOD).len() > 1
                })
                .map(|(_, &ff)| (2, ff));
        }
        let (_, node) = pick?;
        let arc = net.set(node);
        let leaf = search.leaf_set(node, StaticSet::GOOD);
        Some((node, alternatives(leaf, |v| u8::from(arc.contains(v)))))
    }
}

/// The steady static value of a good-machine bit.
fn known(b: bool) -> StaticValue {
    if b {
        StaticValue::S1
    } else {
        StaticValue::S0
    }
}

fn to_logic3(s: StaticSet) -> Logic3 {
    match s.as_singleton() {
        Some(StaticValue::S0) => Logic3::Zero,
        Some(StaticValue::S1) => Logic3::One,
        _ => Logic3::X,
    }
}

impl<'c> FrameEngine<'c> {
    /// Pure forward simulation of one frame over value sets: `state` gives
    /// one set per flip-flop, `pi` is a (possibly partial) PI vector, and
    /// `fault` optionally injects a stuck-at. Returns `(po_sets,
    /// next_state_sets)` — used by the multi-frame drivers for reliance
    /// analysis and conditioning frames.
    pub fn simulate_frame(
        &self,
        state: &[StaticSet],
        pi: &[Logic3],
        fault: Option<StuckFault>,
    ) -> (Vec<StaticSet>, Vec<StaticSet>) {
        assert_eq!(state.len(), self.circuit.num_dffs());
        assert_eq!(pi.len(), self.circuit.num_inputs());
        let circuit = self.circuit;
        let mut f = vec![StaticSet::EMPTY; circuit.num_nodes()];
        for (i, &p) in circuit.inputs().iter().enumerate() {
            f[p.index()] = match pi[i].to_bool() {
                Some(b) => StaticSet::singleton(known(b)),
                None => StaticSet::GOOD,
            };
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            f[ff.index()] = state[i];
        }
        let view = self.view(fault);
        view.forward_pass(&mut f);
        let pos = circuit
            .outputs()
            .iter()
            .map(|&po| view.observed(&f, po))
            .collect();
        let next = (0..circuit.num_dffs())
            .map(|i| view.latched(&f, i))
            .collect();
        (pos, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, CircuitBuilder, FaultSite, StuckAtKind};

    fn fixed(v: StaticValue) -> PpiConstraint {
        PpiConstraint::Fixed(StaticSet::singleton(v))
    }

    #[test]
    fn propagates_diff_to_po_in_s27() {
        let c = suite::s27();
        let ppis = vec![
            fixed(StaticValue::S0),
            fixed(StaticValue::D),
            fixed(StaticValue::S0),
        ];
        let engine = FrameEngine::new(&c, 100);
        let result = engine.solve(&ppis, &FrameGoal::ObserveAtPo, None);
        let sol = result.solution().expect("observable");
        assert!(sol.po_hit.is_some());
        // The engine must set G0=0 so that G14=1 exposes G6 through G8.
        assert_eq!(sol.pi[0], Logic3::Zero);
    }

    #[test]
    fn blocked_diff_is_exhausted_not_aborted() {
        // y = AND(q, en): difference on q with en forced 0 by a conflicting
        // constraint cannot reach the PO... here we just check a circuit
        // where the diff is structurally unobservable.
        let mut b = CircuitBuilder::new("dead");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_dff("r", "e");
        b.add_gate("d", GateKind::Buf, &["a"]);
        b.add_gate("e", GateKind::Buf, &["q"]);
        b.add_gate("y", GateKind::Buf, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        // diff on r: r feeds nothing observable (only PO is y = a).
        let ppis = vec![fixed(StaticValue::S0), fixed(StaticValue::D)];
        let engine = FrameEngine::new(&c, 100);
        assert_eq!(
            engine.solve(&ppis, &FrameGoal::ObserveAtPo, None),
            FrameResult::Exhausted
        );
    }

    #[test]
    fn latch_diff_moves_effect_one_frame() {
        let c = gdf_netlist::generator::shift_register(2);
        // diff on q0 must move to q1 (en must be set).
        let ppis = vec![fixed(StaticValue::D), fixed(StaticValue::S0)];
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&ppis, &FrameGoal::LatchDiff, None)
            .solution()
            .cloned()
            .expect("solvable");
        // en is PI index 1 in shift_register (si, en).
        assert_eq!(
            sol.pi[1],
            Logic3::One,
            "enable must be on to shift the diff"
        );
        assert!(sol.next_state[1].must_be_fault_effect());
    }

    #[test]
    fn justify_ppos_simple() {
        let c = gdf_netlist::generator::shift_register(1);
        // Target: q0 gets value 1 → need si=1 and en=1.
        let ppis = vec![PpiConstraint::Assignable];
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&ppis, &FrameGoal::JustifyPpos(vec![(0, true)]), None)
            .solution()
            .cloned()
            .expect("justifiable");
        assert_eq!(sol.pi[0], Logic3::One);
        assert_eq!(sol.pi[1], Logic3::One);
        assert!(sol.ppi_assigned.is_empty(), "no previous-state requirement");
    }

    #[test]
    fn justify_creates_ppi_requirement_when_needed() {
        // d = AND(q, a): producing d=1 needs q=1 from the previous frame.
        let mut b = CircuitBuilder::new("need");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::And, &["q", "a"]);
        b.mark_output("d");
        let c = b.build().unwrap();
        let ppis = vec![PpiConstraint::Assignable];
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&ppis, &FrameGoal::JustifyPpos(vec![(0, true)]), None)
            .solution()
            .cloned()
            .expect("justifiable with requirement");
        assert_eq!(sol.ppi_assigned, vec![(0, true)]);
        assert_eq!(sol.pi[0], Logic3::One);
    }

    #[test]
    fn justify_impossible_target_exhausts() {
        // d = AND(a, NOT(a)) ≡ 0: target d=1 impossible.
        let mut b = CircuitBuilder::new("impossible");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("n", GateKind::Not, &["a"]);
        b.add_gate("d", GateKind::And, &["a", "n"]);
        b.add_gate("y", GateKind::Buf, &["q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let ppis = vec![PpiConstraint::Assignable];
        let engine = FrameEngine::new(&c, 100);
        assert_eq!(
            engine.solve(&ppis, &FrameGoal::JustifyPpos(vec![(0, true)]), None),
            FrameResult::Exhausted
        );
    }

    #[test]
    fn stuck_at_injection_excites_and_observes() {
        // y = NOT(a) with a sa0 on a: needs a=1, observes D' at y... with
        // injection the faulty machine sees 0 → y good 0, faulty 1.
        let mut b = CircuitBuilder::new("inv");
        b.add_input("a");
        b.add_gate("y", GateKind::Not, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let a = c.node_by_name("a").unwrap();
        let fault = StuckFault {
            site: FaultSite::on_stem(a),
            kind: StuckAtKind::StuckAt0,
        };
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&[], &FrameGoal::ObserveAtPo, Some(fault))
            .solution()
            .cloned()
            .expect("excitable");
        assert_eq!(sol.pi[0], Logic3::One);
    }

    #[test]
    fn unknown_ppi_blocks_definite_observation() {
        // y = XOR(q, a): with q unknown (Xf), y can never be a definite D
        // even though a is free — matches the paper's Xf pessimism.
        let mut b = CircuitBuilder::new("xf");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_dff("p", "e");
        b.add_gate("d", GateKind::Buf, &["a"]);
        b.add_gate("e", GateKind::Buf, &["a"]);
        b.add_gate("y", GateKind::Xor, &["q", "p"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        // p carries D, q is fixed-unknown.
        let ppis = vec![
            PpiConstraint::Fixed(StaticSet::GOOD), // Xf
            PpiConstraint::Fixed(StaticSet::singleton(StaticValue::D)),
        ];
        let engine = FrameEngine::new(&c, 100);
        assert_eq!(
            engine.solve(&ppis, &FrameGoal::ObserveAtPo, None),
            FrameResult::Exhausted,
            "XOR with an Xf side input cannot give a definite difference"
        );
    }
}
