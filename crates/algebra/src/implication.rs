//! One implication search over value sets, written once for every value
//! domain: the network, the fault-site edge view, the decision stack and
//! the backtrace step that TDgen and SEMILET share.
//!
//! The paper's §3 engine (with its refs 8 and 20) keeps, per net, the set
//! of values still possible, implies forward and backward through the gate
//! tables, and treats the fault site as the "only exception" where a value
//! is converted on its way downstream. TDgen runs this over the 8-valued
//! delay sets of two coupled frames, SEMILET over the static D-algebra of
//! one frame. An engine supplies only its [`Rules`] — the gate rules
//! (robust [`eval_gate_sets`]/[`narrow_inputs`] by default), the
//! conversion of a value at the fault site, its backtrace value preference
//! and, for two frames, the state-register coupling — and keeps its own
//! initial domains, objectives, success checks and leaf decisions.
//!
//! * [`SiteView`]: the fault site's edges over any per-net set array —
//!   which edge converts, what a sink sees, what a PO or a flip-flop
//!   observes, the pre-image of an edge requirement — and the levelized
//!   forward pass with the conversion applied.
//! * [`SetNetwork`]: per-net sets with an undo trail and a FIFO queue of
//!   constraints, narrowed to a fixpoint by [`SetNetwork::propagate`]; plus
//!   the D-frontier and the combinational backtrace step over them.
//! * [`Decisions`]: the decision stack of a complete branch-and-bound,
//!   with the backtrack step and its limit, driven by [`Decisions::run`].
//!
//! Every set array, the network's and a forward image alike, holds the
//! *pre-conversion* value of each net; the view's readers apply the
//! conversion where the fault site says so.

use crate::set::{eval_gate_sets, narrow_inputs, SetValue, ValueSet};
use gdf_netlist::scoap::Testability;
use gdf_netlist::{Circuit, FaultSite, GateKind, NodeId};
use std::collections::VecDeque;
use std::fmt;
use std::ops::ControlFlow;

/// Result of an implication pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implied {
    /// All sets consistent (none empty).
    Consistent,
    /// Some set became empty.
    Conflict,
}

/// The state-register constraint of a two-frame domain: narrows a
/// flip-flop's output set `q` and its D-input set `d` against each other,
/// returning `(q, d)`.
pub type RegisterRule<V> = fn(ValueSet<V>, ValueSet<V>) -> (ValueSet<V>, ValueSet<V>);

/// What an engine supplies to the shared search.
pub trait Rules: Copy + fmt::Debug {
    /// The value domain.
    type Value: SetValue;

    /// The backtrace's value preference when no input is forced, most
    /// preferred first.
    const PREFERENCE: &'static [Self::Value];

    /// The state-register coupling, if the domain spans two frames. With
    /// `None` flip-flops are plain leaves and never queued.
    const REGISTER: Option<RegisterRule<Self::Value>> = None;

    /// The fault-site conversion of one value (idempotent: converting a
    /// converted value changes nothing).
    fn convert_value(&self, v: Self::Value) -> Self::Value;

    /// Forward gate rule (default: the robust [`eval_gate_sets`]).
    fn eval(&self, kind: GateKind, ins: &[ValueSet<Self::Value>]) -> ValueSet<Self::Value> {
        eval_gate_sets(kind, ins)
    }

    /// Backward gate rule (default: the robust [`narrow_inputs`]).
    fn narrow(
        &self,
        kind: GateKind,
        out: &mut ValueSet<Self::Value>,
        ins: &mut [ValueSet<Self::Value>],
    ) -> bool {
        narrow_inputs(kind, out, ins)
    }
}

type SetOf<R> = ValueSet<<R as Rules>::Value>;

/// The fault site's view of the circuit's edges, over any per-net array of
/// pre-conversion sets.
#[derive(Debug, Clone, Copy)]
pub struct SiteView<'c, R> {
    circuit: &'c Circuit,
    site: Option<FaultSite>,
    rules: R,
}

impl<'c, R: Rules> SiteView<'c, R> {
    /// The view of `site` (`None`: no edge converts) under `rules`.
    pub fn new(circuit: &'c Circuit, site: Option<FaultSite>, rules: R) -> Self {
        SiteView {
            circuit,
            site,
            rules,
        }
    }

    /// Whether the edge `stem → (sink, pin)` carries the conversion: every
    /// edge of a faulted stem, or the one faulted branch.
    fn converts(&self, stem: NodeId, sink: NodeId, pin: usize) -> bool {
        match self.site {
            Some(site) if site.stem == stem => match site.branch {
                None => true,
                Some((fsink, fpin)) => fsink == sink && usize::from(fpin) == pin,
            },
            _ => false,
        }
    }

    /// Applies the fault-site conversion to a set.
    pub fn convert(&self, s: SetOf<R>) -> SetOf<R> {
        s.iter().map(|v| self.rules.convert_value(v)).collect()
    }

    /// Inverse of [`SiteView::convert`]: the values of `pre` whose
    /// conversion lies in `post`.
    pub fn unconvert_within(&self, post: SetOf<R>, pre: SetOf<R>) -> SetOf<R> {
        pre.iter()
            .filter(|&v| post.contains(self.rules.convert_value(v)))
            .collect()
    }

    /// The set `sink` sees on input `pin`.
    pub fn edge(&self, sets: &[SetOf<R>], sink: NodeId, pin: usize) -> SetOf<R> {
        let stem = self.circuit.node(sink).fanin()[pin];
        let s = sets[stem.index()];
        if self.converts(stem, sink, pin) {
            self.convert(s)
        } else {
            s
        }
    }

    /// The set observed on a net itself (at a PO): converted when the net
    /// is the faulted stem.
    pub fn observed(&self, sets: &[SetOf<R>], node: NodeId) -> SetOf<R> {
        let s = sets[node.index()];
        match self.site {
            Some(site) if site.stem == node && site.branch.is_none() => self.convert(s),
            _ => s,
        }
    }

    /// The set flip-flop `dff_index` latches from its D input.
    pub fn latched(&self, sets: &[SetOf<R>], dff_index: usize) -> SetOf<R> {
        self.edge(sets, self.circuit.dffs()[dff_index], 0)
    }

    /// The requirement `edge_desired` on input `pin` of `sink`, mapped
    /// back to its stem's pre-conversion set.
    fn pre_image(
        &self,
        sets: &[SetOf<R>],
        sink: NodeId,
        pin: usize,
        edge_desired: SetOf<R>,
    ) -> SetOf<R> {
        let stem = self.circuit.node(sink).fanin()[pin];
        let stem_set = sets[stem.index()];
        if self.converts(stem, sink, pin) {
            self.unconvert_within(edge_desired, stem_set)
        } else {
            edge_desired.intersect(stem_set)
        }
    }

    /// The levelized forward pass: `f` holds the leaf (PI and PPI) sets on
    /// entry and every net's forward image on return, with the converted
    /// edges converted on the way.
    pub fn forward_pass(&self, f: &mut [SetOf<R>]) {
        let mut ins = Vec::new();
        for (g, kind, fanin) in self.circuit.gates_levelized() {
            ins.clear();
            ins.extend((0..fanin.len()).map(|pin| self.edge(f, g, pin)));
            f[g.index()] = self.rules.eval(kind, &ins);
        }
    }
}

/// The implication network for one search: one set per net, an undo trail
/// of every narrowing, and a FIFO queue of constraints (combinational
/// gates, and flip-flops when the rules couple registers).
#[derive(Debug, Clone)]
pub struct SetNetwork<'c, R: Rules> {
    view: SiteView<'c, R>,
    sets: Vec<SetOf<R>>,
    trail: Vec<(NodeId, SetOf<R>)>,
    queue: VecDeque<NodeId>,
    queued: Vec<bool>,
    conflict: bool,
    /// Reused input sets of the gate being implied.
    scratch: Vec<SetOf<R>>,
}

impl<'c, R: Rules> SetNetwork<'c, R> {
    /// A network over the initial domains `sets` (one per node), with
    /// every constraint queued once: the gates in topological order, then
    /// the registers in flip-flop order.
    pub fn new(view: SiteView<'c, R>, sets: Vec<SetOf<R>>) -> Self {
        let circuit = view.circuit;
        assert_eq!(sets.len(), circuit.num_nodes(), "one set per node");
        let mut net = SetNetwork {
            view,
            sets,
            trail: Vec::new(),
            queue: VecDeque::new(),
            queued: vec![false; circuit.num_nodes()],
            conflict: false,
            scratch: Vec::new(),
        };
        for &g in circuit.topo_order() {
            net.enqueue(g);
        }
        for &ff in circuit.dffs() {
            net.enqueue(ff);
        }
        net
    }

    /// The fault site's view.
    pub fn view(&self) -> &SiteView<'c, R> {
        &self.view
    }

    /// Current (pre-conversion) set of a net.
    pub fn set(&self, id: NodeId) -> SetOf<R> {
        self.sets[id.index()]
    }

    /// Every net's current set.
    pub fn sets(&self) -> &[SetOf<R>] {
        &self.sets
    }

    /// The set a sink gate sees on one of its input pins.
    pub fn edge_set(&self, sink: NodeId, pin: usize) -> SetOf<R> {
        self.view.edge(&self.sets, sink, pin)
    }

    /// The set observed on a net itself (see [`SiteView::observed`]).
    pub fn observed(&self, node: NodeId) -> SetOf<R> {
        self.view.observed(&self.sets, node)
    }

    /// The set flip-flop `dff_index` latches.
    pub fn latched(&self, dff_index: usize) -> SetOf<R> {
        self.view.latched(&self.sets, dff_index)
    }

    /// Narrows a net's set; records the old value on the trail and enqueues
    /// the constraints around the net. Returns `false` (and flags a
    /// conflict) if the new set is empty.
    pub fn assign(&mut self, id: NodeId, new: SetOf<R>) -> bool {
        let old = self.sets[id.index()];
        let meet = old.intersect(new);
        if meet == old {
            return !meet.is_empty();
        }
        self.trail.push((id, old));
        self.sets[id.index()] = meet;
        if meet.is_empty() {
            self.conflict = true;
            return false;
        }
        self.enqueue(id);
        for &(sink, _) in self.view.circuit.node(id).fanout() {
            self.enqueue(sink);
        }
        true
    }

    /// Queues the constraint a node stands for, if it stands for one.
    fn enqueue(&mut self, id: NodeId) {
        let constraint = match self.view.circuit.node(id).kind() {
            GateKind::Input => false,
            GateKind::Dff => R::REGISTER.is_some(),
            _ => true,
        };
        if constraint && !self.queued[id.index()] {
            self.queued[id.index()] = true;
            self.queue.push_back(id);
        }
    }

    /// Number of trail entries — pass to [`SetNetwork::rollback`].
    pub fn checkpoint(&self) -> usize {
        self.trail.len()
    }

    /// Undoes all narrowings past `mark` and clears any conflict and any
    /// pending work.
    pub fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (id, old) = self.trail.pop().expect("trail entry");
            self.sets[id.index()] = old;
        }
        self.conflict = false;
        for id in self.queue.drain(..) {
            self.queued[id.index()] = false;
        }
    }

    /// Runs implications to a fixpoint.
    pub fn propagate(&mut self) -> Implied {
        while let Some(id) = self.queue.pop_front() {
            self.queued[id.index()] = false;
            if self.conflict {
                break;
            }
            match R::REGISTER {
                Some(rule) if self.view.circuit.node(id).kind() == GateKind::Dff => {
                    self.imply_register(id, rule)
                }
                _ => self.imply_gate(id),
            }
        }
        if self.conflict {
            Implied::Conflict
        } else {
            Implied::Consistent
        }
    }

    fn imply_gate(&mut self, g: NodeId) {
        let node = self.view.circuit.node(g);
        let kind = node.kind();
        let mut ins = std::mem::take(&mut self.scratch);
        ins.clear();
        ins.extend((0..node.fanin().len()).map(|p| self.edge_set(g, p)));
        // Forward: intersect the output with the producible image, then
        // narrow the inputs against the tightened output.
        let mut out = self.sets[g.index()].intersect(self.view.rules.eval(kind, &ins));
        self.view.rules.narrow(kind, &mut out, &mut ins);
        if self.assign(g, out) {
            for (p, &stem) in node.fanin().iter().enumerate() {
                let pre = self.view.pre_image(&self.sets, g, p, ins[p]);
                if !self.assign(stem, pre) {
                    break;
                }
            }
        }
        self.scratch = ins;
    }

    fn imply_register(&mut self, q: NodeId, rule: RegisterRule<R::Value>) {
        let d = self.view.circuit.ppo_of_dff(q);
        let (q_keep, d_keep) = rule(self.sets[q.index()], self.sets[d.index()]);
        if self.assign(q, q_keep) {
            self.assign(d, d_keep);
        }
    }

    /// The D-frontier objective: among the gates whose output may but
    /// need not be in `effect` and that see an input that must be, the one
    /// cheapest to observe, with its output restricted to `effect`.
    pub fn d_frontier(
        &self,
        testability: &Testability,
        effect: SetOf<R>,
    ) -> Option<(NodeId, SetOf<R>)> {
        let must = |s: SetOf<R>| !s.is_empty() && s.intersect(effect) == s;
        let mut best: Option<(u32, NodeId, SetOf<R>)> = None;
        for &g in self.view.circuit.topo_order() {
            let out = self.sets[g.index()];
            let desired = out.intersect(effect);
            if must(out) || desired.is_empty() {
                continue;
            }
            let arity = self.view.circuit.node(g).fanin().len();
            if !(0..arity).any(|p| must(self.edge_set(g, p))) {
                continue;
            }
            let cost = testability.co[g.index()];
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, g, desired));
            }
        }
        best.map(|(_, g, desired)| (g, desired))
    }

    /// Maps an objective `(node, desired)` to a decision. Through a
    /// combinational gate the hardest required input is followed first,
    /// otherwise the easiest open input with a value that keeps `desired`
    /// producible; at a PI or flip-flop `leaf` either decides (`Break`) or
    /// redirects the objective (`Continue`).
    pub fn backtrace(
        &self,
        testability: &Testability,
        mut node: NodeId,
        mut desired: SetOf<R>,
        mut leaf: impl FnMut(
            NodeId,
            SetOf<R>,
        ) -> ControlFlow<Option<Choice<R::Value>>, (NodeId, SetOf<R>)>,
    ) -> Option<Choice<R::Value>> {
        let limit = 4 * self.view.circuit.num_nodes() + 16;
        for _ in 0..limit {
            desired = desired.intersect(self.sets[node.index()]);
            if desired.is_empty() {
                return None;
            }
            let kind = self.view.circuit.node(node).kind();
            (node, desired) = if kind.is_combinational() {
                self.backtrace_gate(testability, node, kind, desired)?
            } else {
                match leaf(node, desired) {
                    ControlFlow::Break(choice) => return choice,
                    ControlFlow::Continue(next) => next,
                }
            };
        }
        None
    }

    /// One backtrace step through a combinational gate.
    fn backtrace_gate(
        &self,
        testability: &Testability,
        node: NodeId,
        kind: GateKind,
        desired: SetOf<R>,
    ) -> Option<(NodeId, SetOf<R>)> {
        let fanin = self.view.circuit.node(node).fanin();
        let cost = |p: &usize| {
            let stem = fanin[*p].index();
            testability.cc0[stem].min(testability.cc1[stem])
        };
        let orig: Vec<SetOf<R>> = (0..fanin.len()).map(|p| self.edge_set(node, p)).collect();
        let mut ins = orig.clone();
        let mut out = desired;
        self.view.rules.narrow(kind, &mut out, &mut ins);
        // Required inputs: those the desired output actually constrains.
        // Pursue the hardest one (classic FAN heuristic).
        let required = (0..fanin.len()).filter(|&p| ins[p] != orig[p] && !ins[p].is_empty());
        if let Some(p) = required.max_by_key(cost) {
            let pre = self.view.pre_image(&self.sets, node, p, ins[p]);
            if !pre.is_empty() && pre != self.sets[fanin[p].index()] {
                return Some((fanin[p], pre));
            }
        }
        // Disjunctive case: no single input is forced. Pick the
        // easiest-to-control open input and a value for it that keeps the
        // desired output possible.
        let p = (0..fanin.len())
            .filter(|&p| orig[p].len() > 1)
            .min_by_key(cost)?;
        let chosen = self.choose_helping_value(kind, &orig, p, desired)?;
        let pre = self
            .view
            .pre_image(&self.sets, node, p, ValueSet::singleton(chosen));
        (!pre.is_empty()).then_some((fanin[p], pre))
    }

    /// Picks a value for input `p`, in the rules' preference order: the
    /// first that forces `desired`, else the first that keeps it possible.
    fn choose_helping_value(
        &self,
        kind: GateKind,
        orig: &[SetOf<R>],
        p: usize,
        desired: SetOf<R>,
    ) -> Option<R::Value> {
        let mut pinned = orig.to_vec();
        let mut fallback = None;
        for &v in R::PREFERENCE {
            if !orig[p].contains(v) {
                continue;
            }
            pinned[p] = ValueSet::singleton(v);
            let image = self.view.rules.eval(kind, &pinned);
            let meet = image.intersect(desired);
            if meet.is_empty() {
                continue;
            }
            if meet == image {
                return Some(v);
            }
            fallback.get_or_insert(v);
        }
        fallback
    }
}

/// A decision: a variable and its restrictions, tried back-to-front.
pub type Choice<V> = (NodeId, Vec<ValueSet<V>>);

/// Singleton restrictions over `leaf` in ascending `rank`, index order
/// within a rank (tried back-to-front: the highest rank first).
pub fn alternatives<V: SetValue>(leaf: ValueSet<V>, rank: impl Fn(V) -> u8) -> Vec<ValueSet<V>> {
    let mut values: Vec<V> = leaf.iter().collect();
    values.sort_by_key(|&v| rank(v));
    values.into_iter().map(ValueSet::singleton).collect()
}

/// The domain of a decision variable: `base` intersected with every
/// restriction on `node`.
pub fn leaf_set<V: SetValue>(
    node: NodeId,
    base: ValueSet<V>,
    restrictions: impl IntoIterator<Item = (NodeId, ValueSet<V>)>,
) -> ValueSet<V> {
    restrictions
        .into_iter()
        .filter(|&(n, _)| n == node)
        .fold(base, |s, (_, r)| s.intersect(r))
}

#[derive(Debug)]
struct Decision<V: SetValue> {
    node: NodeId,
    /// The restriction currently applied.
    applied: ValueSet<V>,
    /// Remaining alternative restrictions, tried back-to-front.
    alts: Vec<ValueSet<V>>,
    trail_mark: usize,
}

/// What a search step does on a consistent network.
#[derive(Debug)]
pub enum Step<T, V: SetValue> {
    /// The goal is reached.
    Done(T),
    /// Apply the last alternative of this decision and push the rest.
    Decide(Choice<V>),
    /// This subtree is dead: backtrack.
    Backtrack,
}

/// How a search ended without reaching its goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The complete search space is exhausted.
    Exhausted,
    /// The backtrack limit was hit.
    Aborted,
}

/// The decision stack of a complete branch-and-bound search.
#[derive(Debug)]
pub struct Decisions<V: SetValue> {
    stack: Vec<Decision<V>>,
    backtracks: u32,
    limit: u32,
}

impl<V: SetValue> Decisions<V> {
    /// An empty stack that aborts after `backtrack_limit` backtracks.
    pub fn new(backtrack_limit: u32) -> Self {
        Decisions {
            stack: Vec::new(),
            backtracks: 0,
            limit: backtrack_limit,
        }
    }

    /// Backtracks consumed so far.
    pub fn backtracks(&self) -> u32 {
        self.backtracks
    }

    /// The restrictions applied, oldest first.
    pub fn restrictions(&self) -> impl Iterator<Item = (NodeId, ValueSet<V>)> + '_ {
        self.stack.iter().map(|d| (d.node, d.applied))
    }

    /// The domain of a decision variable (see [`leaf_set`]).
    pub fn leaf_set(&self, node: NodeId, base: ValueSet<V>) -> ValueSet<V> {
        leaf_set(node, base, self.restrictions())
    }

    /// Applies the last alternative of `choice` and pushes the rest.
    fn push<R: Rules<Value = V>>(&mut self, net: &mut SetNetwork<'_, R>, choice: Choice<V>) {
        let (node, mut alts) = choice;
        let trail_mark = net.checkpoint();
        let applied = alts.pop().expect("non-empty alternatives");
        net.assign(node, applied);
        self.stack.push(Decision {
            node,
            applied,
            alts,
            trail_mark,
        });
    }

    /// Counts a backtrack, then undoes decisions until one has an
    /// alternative left and applies it.
    fn backtrack<R: Rules<Value = V>>(&mut self, net: &mut SetNetwork<'_, R>) -> Result<(), Exit> {
        self.backtracks += 1;
        if self.backtracks > self.limit {
            return Err(Exit::Aborted);
        }
        while let Some(mut d) = self.stack.pop() {
            net.rollback(d.trail_mark);
            if let Some(alt) = d.alts.pop() {
                net.assign(d.node, alt);
                d.applied = alt;
                self.stack.push(d);
                return Ok(());
            }
        }
        Err(Exit::Exhausted)
    }

    /// The search loop: implies to a fixpoint, lets `step` judge every
    /// consistent network, and backtracks on conflicts and dead subtrees.
    pub fn run<'c, R: Rules<Value = V>, T>(
        &mut self,
        net: &mut SetNetwork<'c, R>,
        mut step: impl FnMut(&SetNetwork<'c, R>, &Self) -> Step<T, V>,
    ) -> Result<T, Exit> {
        loop {
            if net.propagate() == Implied::Consistent {
                match step(net, self) {
                    Step::Done(t) => return Ok(t),
                    Step::Decide(choice) => {
                        self.push(net, choice);
                        continue;
                    }
                    Step::Backtrack => {}
                }
            }
            self.backtrack(net)?;
        }
    }
}
