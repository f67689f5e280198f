//! TDgen's implication network: the shared set network of
//! [`gdf_algebra::implication`] over 8-valued delay sets, with TDgen's
//! rules.
//!
//! The paper (§3, with its refs 8 and 20) describes exactly this machinery:
//! *"During local test pattern generation for each gate a set of values is
//! maintained that are possible for that gate. Using these sets, and the
//! truth tables for each gate, forward and backward implications can be
//! made."* The network, its trail and queue, the fault-site edges and the
//! search skeleton are written once for TDgen and SEMILET; this module
//! supplies what is TDgen's own: the gate rules chosen by
//! [`Sensitization`], the site conversion (the *"only exception"* where a
//! provoking `R` (`F`) becomes `Rc` (`Fc`)), the state-register coupling
//! `final(PPI) = initial(PPO)`, and the initial domains.

use gdf_algebra::delay::{eval_gate, eval_gate_sets, narrow_inputs, DelaySet, DelayValue};
use gdf_algebra::implication::{RegisterRule, Rules, SetNetwork, SiteView};
use gdf_netlist::{Circuit, DelayFault, DelayFaultKind, GateKind};
use std::ops::{Deref, DerefMut};

pub use gdf_algebra::implication::Implied;

/// Which sensitization criterion the implication tables follow.
///
/// Before PR 5 this type was named `FaultModel`; the name now belongs to
/// `gdf_netlist::model::FaultModel` (the pluggable fault-*model* trait:
/// delay / stuck / transition), while this enum picks how strictly a
/// delay test must sensitize its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sensitization {
    /// The paper's strict robust model: off-path inputs of a falling
    /// on-path transition must be steady and hazard-free; parity-gate
    /// off-path inputs must be steady and hazard-free.
    #[default]
    Robust,
    /// The relaxed non-robust model the paper's conclusions announce:
    /// the fault effect propagates whenever flipping the carrying inputs'
    /// *final* values flips the gate's final value (hazards may invalidate
    /// such a test). Differences that leave the good-machine output steady
    /// are not representable in the 8-valued algebra and are conservatively
    /// dropped.
    NonRobust,
}

impl std::str::FromStr for Sensitization {
    type Err = String;

    /// The names every user-facing surface shares (`gdf
    /// --sensitization`, artifact configs, `gdf serve` submissions):
    /// `robust`, `non-robust` (alias `nonrobust`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "robust" => Ok(Sensitization::Robust),
            "non-robust" | "nonrobust" => Ok(Sensitization::NonRobust),
            other => Err(format!(
                "unknown sensitization `{other}` (robust|non-robust)"
            )),
        }
    }
}

/// Non-robust value-level gate evaluation (see [`Sensitization::NonRobust`]).
pub fn eval_gate_nonrobust(kind: GateKind, vals: &[DelayValue]) -> DelayValue {
    let robust = eval_gate(kind, vals);
    if !robust.is_transition() {
        return robust;
    }
    let good_fin: Vec<bool> = vals.iter().map(|v| v.final_value()).collect();
    let faulty_fin: Vec<bool> = vals
        .iter()
        .map(|v| {
            if v.carries_fault() {
                !v.final_value()
            } else {
                v.final_value()
            }
        })
        .collect();
    let differs = kind.eval_bool(&good_fin) != kind.eval_bool(&faulty_fin);
    if differs {
        robust.with_fault_mark().expect("transition")
    } else {
        robust.without_fault_mark()
    }
}

/// Set-level non-robust evaluation by direct enumeration (the non-robust
/// carry rule is not associative for parity gates, so no folding).
fn eval_sets_nonrobust(kind: GateKind, ins: &[DelaySet]) -> DelaySet {
    match kind {
        GateKind::Buf => return ins[0],
        GateKind::Not => return ins[0].not(),
        _ => {}
    }
    let mut out = DelaySet::EMPTY;
    let mut combo: Vec<DelayValue> = Vec::with_capacity(ins.len());
    enumerate(kind, ins, 0, &mut combo, &mut out);
    out
}

fn enumerate(
    kind: GateKind,
    ins: &[DelaySet],
    depth: usize,
    combo: &mut Vec<DelayValue>,
    out: &mut DelaySet,
) {
    if depth == ins.len() {
        out.insert(eval_gate_nonrobust(kind, combo));
        return;
    }
    for v in ins[depth].iter() {
        combo.push(v);
        enumerate(kind, ins, depth + 1, combo, out);
        combo.pop();
    }
}

/// Set-level non-robust backward narrowing by direct enumeration.
fn narrow_nonrobust(kind: GateKind, out_allowed: &mut DelaySet, ins: &mut [DelaySet]) -> bool {
    if matches!(kind, GateKind::Buf | GateKind::Not) {
        return narrow_inputs(kind, out_allowed, ins);
    }
    let mut changed = false;
    let n = ins.len();
    for i in 0..n {
        let mut keep = DelaySet::EMPTY;
        for v in ins[i].iter() {
            let mut pinned: Vec<DelaySet> = ins.to_vec();
            pinned[i] = DelaySet::singleton(v);
            let image = eval_sets_nonrobust(kind, &pinned);
            if !image.intersect(*out_allowed).is_empty() {
                keep.insert(v);
            }
        }
        if keep != ins[i] {
            ins[i] = keep;
            changed = true;
        }
    }
    let producible = eval_sets_nonrobust(kind, ins);
    let meet = out_allowed.intersect(producible);
    if meet != *out_allowed {
        *out_allowed = meet;
        changed = true;
    }
    changed
}

/// TDgen's rules for the shared implication search.
#[derive(Debug, Clone, Copy)]
pub struct DelayRules {
    model: Sensitization,
    provoking: DelayValue,
    marked: DelayValue,
}

impl Rules for DelayRules {
    type Value = DelayValue;

    /// Steady clean values first (cheap to justify, robust-friendly).
    const PREFERENCE: &'static [DelayValue] = &[
        DelayValue::S1,
        DelayValue::S0,
        DelayValue::R,
        DelayValue::F,
        DelayValue::H1,
        DelayValue::H0,
        DelayValue::Rc,
        DelayValue::Fc,
    ];

    const REGISTER: Option<RegisterRule<DelayValue>> = Some(couple_frames);

    fn convert_value(&self, v: DelayValue) -> DelayValue {
        if v == self.provoking {
            self.marked
        } else {
            v
        }
    }

    fn eval(&self, kind: GateKind, ins: &[DelaySet]) -> DelaySet {
        match self.model {
            Sensitization::Robust => eval_gate_sets(kind, ins),
            Sensitization::NonRobust => eval_sets_nonrobust(kind, ins),
        }
    }

    fn narrow(&self, kind: GateKind, out: &mut DelaySet, ins: &mut [DelaySet]) -> bool {
        match self.model {
            Sensitization::Robust => narrow_inputs(kind, out, ins),
            Sensitization::NonRobust => narrow_nonrobust(kind, out, ins),
        }
    }
}

/// The state register: `final(q)` must equal `initial(d)`. Conversion does
/// not alter frame components, so the pre-conversion `d` set is
/// authoritative.
fn couple_frames(q: DelaySet, d: DelaySet) -> (DelaySet, DelaySet) {
    let bits =
        |s: DelaySet, f: fn(DelayValue) -> bool| s.iter().fold(0u8, |m, v| m | 1 << u8::from(f(v)));
    let d_inits = bits(d, DelayValue::initial);
    let q_keep: DelaySet = q
        .iter()
        .filter(|v| d_inits & 1 << u8::from(v.final_value()) != 0)
        .collect();
    let q_finals = bits(q_keep, DelayValue::final_value);
    let d_keep = d
        .iter()
        .filter(|v| q_finals & 1 << u8::from(v.initial()) != 0)
        .collect();
    (q_keep, d_keep)
}

/// The implication network for one target fault.
///
/// Holds one [`DelaySet`] per net (pre-conversion at the fault stem),
/// records every narrowing on an undo trail, and propagates implications to
/// a fixpoint through gates, the fault-site conversion and the DFF
/// coupling. It dereferences to the shared [`SetNetwork`].
///
/// # Example
///
/// ```
/// use gdf_netlist::{suite, DelayFault, DelayFaultKind, FaultSite};
/// use gdf_tdgen::network::{ImplicationNet, Implied};
///
/// let c = suite::s27();
/// let g14 = c.node_by_name("G14").unwrap();
/// let fault = DelayFault {
///     site: FaultSite::on_stem(g14),
///     kind: DelayFaultKind::SlowToRise,
/// };
/// let mut net = ImplicationNet::new(&c, fault, Default::default());
/// assert_eq!(net.propagate(), Implied::Consistent);
/// ```
#[derive(Debug, Clone)]
pub struct ImplicationNet<'c> {
    net: SetNetwork<'c, DelayRules>,
    fault: DelayFault,
}

impl<'c> ImplicationNet<'c> {
    /// Builds the network for `fault` under `model` and seeds the initial
    /// domains:
    ///
    /// * primary inputs and flip-flop outputs: `{0,1,R,F}` (hazard-free);
    /// * nets in the fault's output cone: all 8 values;
    /// * everything else: the 6 clean values.
    pub fn new(circuit: &'c Circuit, fault: DelayFault, model: Sensitization) -> Self {
        let seed = match fault.site.branch {
            None => fault.site.stem,
            Some((sink, _)) => sink,
        };
        let mut sets: Vec<DelaySet> = circuit
            .output_cone(seed)
            .into_iter()
            .map(|in_cone| {
                if in_cone {
                    DelaySet::ALL
                } else {
                    DelaySet::CLEAN
                }
            })
            .collect();
        for &leaf in circuit.inputs().iter().chain(circuit.dffs()) {
            sets[leaf.index()] = DelaySet::HAZARD_FREE;
        }
        // The stem itself holds pre-conversion (clean) values.
        if fault.site.branch.is_none() {
            let stem = fault.site.stem.index();
            sets[stem] = sets[stem].intersect(DelaySet::CLEAN);
        }
        let provoking = provoking(fault);
        let rules = DelayRules {
            model,
            provoking,
            marked: provoking.with_fault_mark().expect("transition"),
        };
        let view = SiteView::new(circuit, Some(fault.site), rules);
        ImplicationNet {
            net: SetNetwork::new(view, sets),
            fault,
        }
    }

    /// The target fault.
    pub fn fault(&self) -> DelayFault {
        self.fault
    }

    /// The provoking transition the fault site must show (`R` for
    /// slow-to-rise, `F` for slow-to-fall).
    pub fn provoking_value(&self) -> DelayValue {
        provoking(self.fault)
    }

    /// Applies the fault-site conversion to a set: the provoking transition
    /// becomes its fault-carrying form.
    pub fn convert(&self, s: DelaySet) -> DelaySet {
        self.view().convert(s)
    }

    /// Inverse of [`ImplicationNet::convert`]: pre-image of a post-
    /// conversion set within `pre`.
    pub fn unconvert_within(&self, post: DelaySet, pre: DelaySet) -> DelaySet {
        self.view().unconvert_within(post, pre)
    }
}

fn provoking(fault: DelayFault) -> DelayValue {
    match fault.kind {
        DelayFaultKind::SlowToRise => DelayValue::R,
        DelayFaultKind::SlowToFall => DelayValue::F,
    }
}

impl<'c> Deref for ImplicationNet<'c> {
    type Target = SetNetwork<'c, DelayRules>;

    fn deref(&self) -> &Self::Target {
        &self.net
    }
}

impl DerefMut for ImplicationNet<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, CircuitBuilder, FaultSite};

    fn str_fault(c: &Circuit, name: &str) -> DelayFault {
        DelayFault {
            site: FaultSite::on_stem(c.node_by_name(name).unwrap()),
            kind: DelayFaultKind::SlowToRise,
        }
    }

    #[test]
    fn initial_domains() {
        let c = suite::s27();
        let net = ImplicationNet::new(&c, str_fault(&c, "G14"), Sensitization::Robust);
        let g0 = c.node_by_name("G0").unwrap();
        assert_eq!(net.set(g0), DelaySet::HAZARD_FREE);
        let g14 = c.node_by_name("G14").unwrap();
        assert_eq!(net.set(g14), DelaySet::CLEAN, "stem holds pre-fault values");
        let g8 = c.node_by_name("G8").unwrap();
        assert_eq!(net.set(g8), DelaySet::ALL, "cone nets may carry");
        let g12 = c.node_by_name("G12").unwrap();
        assert_eq!(net.set(g12), DelaySet::CLEAN, "off-cone nets never carry");
    }

    #[test]
    fn conversion_round_trip() {
        let c = suite::s27();
        let net = ImplicationNet::new(&c, str_fault(&c, "G14"), Sensitization::Robust);
        let s = DelaySet::from_values([DelayValue::R, DelayValue::S0]);
        let conv = net.convert(s);
        assert!(conv.contains(DelayValue::Rc));
        assert!(!conv.contains(DelayValue::R));
        assert!(conv.contains(DelayValue::S0));
        let back = net.unconvert_within(conv, DelaySet::CLEAN);
        assert_eq!(back, s);
    }

    #[test]
    fn excitation_implies_marked_downstream() {
        // y = NOT(s), s = NOT(a): StR at s; pinning s to {R} must make y's
        // set fault-carrying (Fc) after implication.
        let mut b = CircuitBuilder::new("tiny");
        b.add_input("a");
        b.add_gate("s", GateKind::Not, &["a"]);
        b.add_gate("y", GateKind::Not, &["s"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "s");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        assert_eq!(net.propagate(), Implied::Consistent);
        let s = c.node_by_name("s").unwrap();
        assert!(net.assign(s, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Consistent);
        let y = c.node_by_name("y").unwrap();
        assert_eq!(net.set(y), DelaySet::singleton(DelayValue::Fc));
        let a = c.node_by_name("a").unwrap();
        assert_eq!(net.set(a), DelaySet::singleton(DelayValue::F));
    }

    #[test]
    fn rollback_restores_state() {
        let c = suite::s27();
        let mut net = ImplicationNet::new(&c, str_fault(&c, "G14"), Sensitization::Robust);
        net.propagate();
        let g0 = c.node_by_name("G0").unwrap();
        let before = net.set(g0);
        let mark = net.checkpoint();
        assert!(net.assign(g0, DelaySet::singleton(DelayValue::R)));
        net.propagate();
        assert_ne!(net.set(g0), before);
        net.rollback(mark);
        assert_eq!(net.set(g0), before);
    }

    #[test]
    fn conflict_detected_and_cleared() {
        let mut b = CircuitBuilder::new("c");
        b.add_input("a");
        b.add_gate("y", GateKind::Buf, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        let a = c.node_by_name("a").unwrap();
        let y = c.node_by_name("y").unwrap();
        let mark = net.checkpoint();
        assert!(net.assign(a, DelaySet::singleton(DelayValue::S0)));
        // y (pre-conversion) must follow a.
        net.propagate();
        assert_eq!(net.set(y), DelaySet::singleton(DelayValue::S0));
        // Now force y to S1: conflict.
        assert!(!net.assign(y, DelaySet::singleton(DelayValue::S1)));
        assert_eq!(net.propagate(), Implied::Conflict);
        net.rollback(mark);
        assert_eq!(net.propagate(), Implied::Consistent);
    }

    #[test]
    fn dff_coupling_links_frames() {
        // q = DFF(d); d = NOT(q) (toggle). Pin q to {R} (init 0, fin 1):
        // then init(d) must be 1, so d ∈ {values with init 1}.
        let mut b = CircuitBuilder::new("t");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Not, &["q"]);
        b.add_gate("y", GateKind::And, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        let q = c.node_by_name("q").unwrap();
        let d = c.node_by_name("d").unwrap();
        assert!(net.assign(q, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Consistent);
        for v in net.set(d).iter() {
            assert!(v.initial(), "init(d) must be 1, got {v}");
        }
        // And the toggle structure: d = NOT(q) with q=R means d=F — whose
        // init is indeed 1. Fully forced:
        assert_eq!(net.set(d), DelaySet::singleton(DelayValue::F));
    }

    #[test]
    fn dff_coupling_detects_impossible_state() {
        // q = DFF(d); d = BUF(q): q can never change value between frames.
        let mut b = CircuitBuilder::new("hold");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Buf, &["q"]);
        b.add_gate("y", GateKind::And, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        let q = c.node_by_name("q").unwrap();
        assert!(net.assign(q, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Conflict, "hold FF cannot toggle");
    }

    #[test]
    fn nonrobust_model_relaxes_and_rule() {
        use DelayValue::*;
        // Robust: Fc & 1h = F (mark dropped). Non-robust: faulty final of
        // AND(Fc,H1) is 1&1=1 vs good 0 → mark kept.
        assert_eq!(eval_gate_nonrobust(GateKind::And, &[Fc, H1]), Fc);
        assert_eq!(eval_gate(GateKind::And, &[Fc, H1]), F);
        // Both agree when the side input is controlling.
        assert_eq!(eval_gate_nonrobust(GateKind::And, &[Fc, S0]), S0);
    }

    #[test]
    fn nonrobust_set_eval_consistent_with_value_eval() {
        use DelayValue::*;
        let a = DelaySet::from_values([Fc, R]);
        let b = DelaySet::from_values([H1, S1]);
        let got = eval_sets_nonrobust(GateKind::And, &[a, b]);
        let mut expect = DelaySet::EMPTY;
        for va in a.iter() {
            for vb in b.iter() {
                expect.insert(eval_gate_nonrobust(GateKind::And, &[va, vb]));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn branch_fault_converts_single_edge() {
        // s fans out to y1, y2; branch fault on s→y1 only.
        let mut b = CircuitBuilder::new("br");
        b.add_input("a");
        b.add_gate("s", GateKind::Buf, &["a"]);
        b.add_gate("y1", GateKind::Buf, &["s"]);
        b.add_gate("y2", GateKind::Buf, &["s"]);
        b.mark_output("y1");
        b.mark_output("y2");
        let c = b.build().unwrap();
        let s = c.node_by_name("s").unwrap();
        let y1 = c.node_by_name("y1").unwrap();
        let fault = DelayFault {
            site: FaultSite::on_branch(s, y1, 0),
            kind: DelayFaultKind::SlowToRise,
        };
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        assert!(net.assign(s, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Consistent);
        let y2 = c.node_by_name("y2").unwrap();
        assert_eq!(net.set(y1), DelaySet::singleton(DelayValue::Rc));
        assert_eq!(net.set(y2), DelaySet::singleton(DelayValue::R));
    }
}
