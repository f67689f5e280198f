//! The 8-valued robust gate-delay-fault algebra of TDgen (paper §3).
//!
//! A [`DelayValue`] describes one signal across the two time frames of a
//! two-pattern delay test:
//!
//! | value | frame 1 | frame 2 | hazard possible | carries fault effect |
//! |-------|---------|---------|-----------------|----------------------|
//! | `0`   | 0       | 0       | no              | no |
//! | `1`   | 1       | 1       | no              | no |
//! | `R`   | 0       | 1       | —               | no |
//! | `F`   | 1       | 0       | —               | no |
//! | `0h`  | 0       | 0       | yes             | no |
//! | `1h`  | 1       | 1       | yes             | no |
//! | `Rc`  | 0       | 1       | —               | **yes** |
//! | `Fc`  | 1       | 0       | —               | **yes** |
//!
//! `Rc`/`Fc` play the role `D`/`D̄` play in static ATPG: they mark
//! transitions that still carry the (potential) delay-fault effect. The
//! tables implemented here encode the paper's robustness criterion — most
//! visibly, through an AND gate `Rc` propagates past any off-path input
//! whose *final* value is 1, while `Fc` propagates only past a *steady,
//! hazard-free* 1 (or another `Fc`).
//!
//! Only the AND and inverter tables are primitive (the paper's Tables 1 and
//! 2); OR/NAND/NOR/XOR/XNOR are derived by De Morgan's rules, exactly as the
//! paper prescribes.
//!
//! [`DelaySet`] is the generic [`ValueSet`] over these eight values; this
//! module adds only its delay-specific constants and predicates. The
//! set-level implications [`eval_gate_sets`] and [`narrow_inputs`] are the
//! generic ones of [`crate::set`], driven by this module's AND/OR/XOR
//! tables.

use crate::set::{CoreOp, SetValue, ValueSet};
use gdf_netlist::GateKind;
use std::fmt;

pub use crate::set::{eval_gate_sets, narrow_inputs};

/// One value of the 8-valued robust delay algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum DelayValue {
    /// Steady 0 in both frames, hazard-free.
    S0 = 0,
    /// Steady 1 in both frames, hazard-free.
    S1 = 1,
    /// Rising: 0 in the first frame, 1 in the second.
    R = 2,
    /// Falling: 1 in the first frame, 0 in the second.
    F = 3,
    /// Steady 0 with a possible hazard (may glitch to 1 and back).
    H0 = 4,
    /// Steady 1 with a possible hazard (may glitch to 0 and back).
    H1 = 5,
    /// Rising transition carrying the fault effect (slow-to-rise provoked).
    Rc = 6,
    /// Falling transition carrying the fault effect (slow-to-fall provoked).
    Fc = 7,
}

impl DelayValue {
    /// All eight values, in table order `0, 1, R, F, 0h, 1h, Rc, Fc`.
    pub const ALL: [DelayValue; 8] = [
        DelayValue::S0,
        DelayValue::S1,
        DelayValue::R,
        DelayValue::F,
        DelayValue::H0,
        DelayValue::H1,
        DelayValue::Rc,
        DelayValue::Fc,
    ];

    /// Constructs from the `repr` index (0..8).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn from_index(i: u8) -> DelayValue {
        Self::ALL[i as usize]
    }

    /// Index of this value (its `repr`).
    pub fn index(self) -> u8 {
        self as u8
    }

    /// The signal's logic value in the first (initial) time frame.
    pub fn initial(self) -> bool {
        matches!(
            self,
            DelayValue::S1 | DelayValue::F | DelayValue::H1 | DelayValue::Fc
        )
    }

    /// The signal's logic value in the second (test) time frame — in the
    /// *good* machine.
    pub fn final_value(self) -> bool {
        matches!(
            self,
            DelayValue::S1 | DelayValue::R | DelayValue::H1 | DelayValue::Rc
        )
    }

    /// Whether this value marks a possible hazard on a steady signal.
    pub fn has_hazard(self) -> bool {
        matches!(self, DelayValue::H0 | DelayValue::H1)
    }

    /// Whether this value carries the fault effect (`Rc` or `Fc`).
    pub fn carries_fault(self) -> bool {
        matches!(self, DelayValue::Rc | DelayValue::Fc)
    }

    /// Whether this is a transition (`R`, `F`, `Rc` or `Fc`).
    pub fn is_transition(self) -> bool {
        self.initial() != self.final_value()
    }

    /// Whether this is a steady, hazard-free value (`0` or `1`).
    pub fn is_steady_clean(self) -> bool {
        matches!(self, DelayValue::S0 | DelayValue::S1)
    }

    /// The clean (non-fault-carrying, hazard-free) value with the given
    /// frame values.
    pub fn from_frames(initial: bool, final_value: bool) -> DelayValue {
        match (initial, final_value) {
            (false, false) => DelayValue::S0,
            (true, true) => DelayValue::S1,
            (false, true) => DelayValue::R,
            (true, false) => DelayValue::F,
        }
    }

    /// Strips the fault-effect mark: `Rc → R`, `Fc → F`, others unchanged.
    pub fn without_fault_mark(self) -> DelayValue {
        match self {
            DelayValue::Rc => DelayValue::R,
            DelayValue::Fc => DelayValue::F,
            v => v,
        }
    }

    /// Adds the fault-effect mark to a transition: `R → Rc`, `F → Fc`.
    /// Returns `None` for non-transitions (steady values cannot provoke a
    /// delay fault).
    pub fn with_fault_mark(self) -> Option<DelayValue> {
        match self {
            DelayValue::R | DelayValue::Rc => Some(DelayValue::Rc),
            DelayValue::F | DelayValue::Fc => Some(DelayValue::Fc),
            _ => None,
        }
    }

    /// Boolean inversion of the value (the paper's Table 2).
    #[allow(clippy::should_implement_trait)] // method-call syntax without importing std::ops::Not
    pub fn not(self) -> DelayValue {
        match self {
            DelayValue::S0 => DelayValue::S1,
            DelayValue::S1 => DelayValue::S0,
            DelayValue::R => DelayValue::F,
            DelayValue::F => DelayValue::R,
            DelayValue::H0 => DelayValue::H1,
            DelayValue::H1 => DelayValue::H0,
            DelayValue::Rc => DelayValue::Fc,
            DelayValue::Fc => DelayValue::Rc,
        }
    }

    /// The paper's notation for the value.
    pub fn symbol(self) -> &'static str {
        match self {
            DelayValue::S0 => "0",
            DelayValue::S1 => "1",
            DelayValue::R => "R",
            DelayValue::F => "F",
            DelayValue::H0 => "0h",
            DelayValue::H1 => "1h",
            DelayValue::Rc => "Rc",
            DelayValue::Fc => "Fc",
        }
    }
}

impl fmt::Display for DelayValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// N-ary AND over the algebra — the paper's Table 1 generalized to any
/// arity (the 2-input specialization reproduces the printed table exactly;
/// see the tests and [`crate::tables`]).
///
/// Derivation from the value semantics:
/// * frame values combine as Boolean AND per frame;
/// * a steady-0 output is hazard-free only if some input is a steady,
///   hazard-free 0 (otherwise all inputs may be 1 simultaneously at some
///   interior moment);
/// * a steady-1 output has a hazard iff any input has one;
/// * a *rising* output carries the fault effect if any input does (every
///   off-path input necessarily has final value 1);
/// * a *falling* output carries the fault effect only if every off-path
///   input is a steady, hazard-free 1 — the paper's strict robustness rule.
pub fn and_n(vals: &[DelayValue]) -> DelayValue {
    debug_assert!(!vals.is_empty());
    let init = vals.iter().all(|v| v.initial());
    let fin = vals.iter().all(|v| v.final_value());
    if init != fin {
        let carries = vals.iter().any(|v| v.carries_fault());
        let robust = if fin {
            // Rising output: off-path inputs all have final value 1 here by
            // construction, which is exactly the paper's condition.
            true
        } else {
            // Falling output: every non-carrying input must be a steady 1.
            vals.iter()
                .all(|v| v.carries_fault() || *v == DelayValue::S1)
        };
        match (fin, carries && robust) {
            (true, true) => DelayValue::Rc,
            (true, false) => DelayValue::R,
            (false, true) => DelayValue::Fc,
            (false, false) => DelayValue::F,
        }
    } else if fin {
        if vals.contains(&DelayValue::H1) {
            DelayValue::H1
        } else {
            DelayValue::S1
        }
    } else if vals.contains(&DelayValue::S0) {
        DelayValue::S0
    } else {
        DelayValue::H0
    }
}

/// N-ary OR, derived by De Morgan: `OR(a,…) = NOT(AND(NOT a,…))`.
pub fn or_n(vals: &[DelayValue]) -> DelayValue {
    let inverted: Vec<DelayValue> = vals.iter().map(|v| v.not()).collect();
    and_n(&inverted).not()
}

/// N-ary XOR. A transition propagates the fault effect through a parity
/// gate only if every off-path input is steady and hazard-free (any side
/// activity flips the output and destroys robustness).
pub fn xor_n(vals: &[DelayValue]) -> DelayValue {
    debug_assert!(!vals.is_empty());
    let init = vals.iter().fold(false, |acc, v| acc ^ v.initial());
    let fin = vals.iter().fold(false, |acc, v| acc ^ v.final_value());
    if init != fin {
        // Through a parity gate the fault effect survives only when it is
        // the *sole* transition: any other non-steady input (even a second
        // fault-carrying one) can flip the output and mask the late edge.
        let carriers = vals.iter().filter(|v| v.carries_fault()).count();
        let robust = carriers == 1
            && vals
                .iter()
                .all(|v| v.carries_fault() || v.is_steady_clean());
        match (fin, carriers > 0 && robust) {
            (true, true) => DelayValue::Rc,
            (true, false) => DelayValue::R,
            (false, true) => DelayValue::Fc,
            (false, false) => DelayValue::F,
        }
    } else {
        let clean = vals.iter().all(|v| v.is_steady_clean());
        match (fin, clean) {
            (false, true) => DelayValue::S0,
            (true, true) => DelayValue::S1,
            (false, false) => DelayValue::H0,
            (true, false) => DelayValue::H1,
        }
    }
}

/// Evaluates any combinational gate kind over the algebra.
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `vals` is empty.
pub fn eval_gate(kind: GateKind, vals: &[DelayValue]) -> DelayValue {
    match kind {
        GateKind::Buf => vals[0],
        GateKind::Not => vals[0].not(),
        GateKind::And => and_n(vals),
        GateKind::Nand => and_n(vals).not(),
        GateKind::Or => or_n(vals),
        GateKind::Nor => or_n(vals).not(),
        GateKind::Xor => xor_n(vals),
        GateKind::Xnor => xor_n(vals).not(),
        GateKind::Input | GateKind::Dff => {
            panic!("eval_gate called on non-combinational kind {kind:?}")
        }
    }
}

/// Two-input convenience wrapper around [`eval_gate`].
pub fn eval2(kind: GateKind, a: DelayValue, b: DelayValue) -> DelayValue {
    eval_gate(kind, &[a, b])
}

// ---------------------------------------------------------------------------
// Value sets
// ---------------------------------------------------------------------------

impl SetValue for DelayValue {
    const ALL: &'static [Self] = &DelayValue::ALL;

    fn index(self) -> u8 {
        self as u8
    }

    fn not(self) -> Self {
        DelayValue::not(self)
    }

    fn core2(op: CoreOp, a: Self, b: Self) -> Self {
        match op {
            CoreOp::And => and_n(&[a, b]),
            // `or_n` without its scratch allocation.
            CoreOp::Or => and_n(&[a.not(), b.not()]).not(),
            CoreOp::Xor => xor_n(&[a, b]),
        }
    }
}

/// A set of still-possible [`DelayValue`]s, stored as a bitmask.
///
/// This is the state the paper's implication engine maintains per gate.
///
/// # Example
///
/// ```
/// use gdf_algebra::delay::{DelaySet, DelayValue};
///
/// let s = DelaySet::HAZARD_FREE; // what a PI or flip-flop output may take
/// assert!(s.contains(DelayValue::R));
/// assert!(!s.contains(DelayValue::H0));
/// assert_eq!(s.len(), 4);
/// ```
pub type DelaySet = ValueSet<DelayValue>;

impl DelaySet {
    /// All values except the fault-carrying ones — the domain of every
    /// signal outside the fault's output cone.
    pub const CLEAN: DelaySet = DelaySet::from_bits(0b0011_1111);
    /// `{0, 1, R, F}` — hazard-free, non-carrying. The domain of primary
    /// inputs and flip-flop outputs (both change at most once per frame
    /// pair).
    pub const HAZARD_FREE: DelaySet = DelaySet::from_bits(0b0000_1111);
    /// `{0, 1}` — steady hazard-free values.
    pub const STEADY_CLEAN: DelaySet = DelaySet::from_bits(0b0000_0011);
    /// `{Rc, Fc}` — the fault-carrying values.
    pub const CARRYING: DelaySet = DelaySet::from_bits(0b1100_0000);
    /// `{R, F}` — clean transitions.
    pub const TRANSITIONS: DelaySet = DelaySet::from_bits(0b0000_1100);

    /// Complement within the 8-value universe.
    pub fn complement(self) -> DelaySet {
        DelaySet::from_bits(!self.bits())
    }

    /// Whether any value in the set carries the fault effect.
    pub fn may_carry_fault(self) -> bool {
        !self.intersect(DelaySet::CARRYING).is_empty()
    }

    /// Whether *every* value in the (non-empty) set carries the fault
    /// effect — i.e. the fault effect is guaranteed here.
    pub fn must_carry_fault(self) -> bool {
        !self.is_empty() && self.intersect(DelaySet::CARRYING) == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DelayValue::*;

    #[test]
    fn value_semantics() {
        assert!(!S0.initial() && !S0.final_value());
        assert!(R.is_transition() && !R.carries_fault());
        assert!(Rc.is_transition() && Rc.carries_fault());
        assert!(H1.has_hazard() && H1.initial() && H1.final_value());
        assert_eq!(DelayValue::from_frames(false, true), R);
        assert_eq!(F.with_fault_mark(), Some(Fc));
        assert_eq!(S0.with_fault_mark(), None);
        assert_eq!(Fc.without_fault_mark(), F);
    }

    #[test]
    fn inverter_is_paper_table_2() {
        // 0↔1, R↔F, 0h↔1h, Rc↔Fc — an involution.
        for v in DelayValue::ALL {
            assert_eq!(v.not().not(), v);
            assert_eq!(v.not().initial(), !v.initial());
            assert_eq!(v.not().final_value(), !v.final_value());
            assert_eq!(v.not().carries_fault(), v.carries_fault());
        }
        assert_eq!(S0.not(), S1);
        assert_eq!(R.not(), F);
        assert_eq!(H0.not(), H1);
        assert_eq!(Rc.not(), Fc);
    }

    /// The paper's Table 1 — the full 8×8 AND table. Row = first operand,
    /// column order `0, 1, R, F, 0h, 1h, Rc, Fc`. The `Rc` and `Fc` rows
    /// are printed verbatim in the paper; the clean rows follow from the
    /// value semantics stated in §3.
    const PAPER_TABLE_1: [[DelayValue; 8]; 8] = [
        // a = 0
        [S0, S0, S0, S0, S0, S0, S0, S0],
        // a = 1
        [S0, S1, R, F, H0, H1, Rc, Fc],
        // a = R
        [S0, R, R, H0, H0, R, Rc, H0],
        // a = F
        [S0, F, H0, F, H0, F, H0, F],
        // a = 0h
        [S0, H0, H0, H0, H0, H0, H0, H0],
        // a = 1h
        [S0, H1, R, F, H0, H1, Rc, F],
        // a = Rc  (printed in the paper: 0 Rc Rc 0h 0h Rc Rc 0h)
        [S0, Rc, Rc, H0, H0, Rc, Rc, H0],
        // a = Fc  (printed in the paper: 0 Fc 0h F 0h F 0h Fc)
        [S0, Fc, H0, F, H0, F, H0, Fc],
    ];

    #[test]
    fn and_matches_paper_table_1() {
        for (i, &a) in DelayValue::ALL.iter().enumerate() {
            for (j, &b) in DelayValue::ALL.iter().enumerate() {
                assert_eq!(
                    eval2(GateKind::And, a, b),
                    PAPER_TABLE_1[i][j],
                    "AND({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn and_is_commutative_and_associative() {
        for a in DelayValue::ALL {
            for b in DelayValue::ALL {
                assert_eq!(eval2(GateKind::And, a, b), eval2(GateKind::And, b, a));
                for c in DelayValue::ALL {
                    let ab_c = eval2(GateKind::And, eval2(GateKind::And, a, b), c);
                    let a_bc = eval2(GateKind::And, a, eval2(GateKind::And, b, c));
                    assert_eq!(ab_c, a_bc, "({a}∧{b})∧{c}");
                    assert_eq!(ab_c, and_n(&[a, b, c]), "fold vs n-ary {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn or_xor_associativity_and_nary_agreement() {
        for a in DelayValue::ALL {
            for b in DelayValue::ALL {
                for c in DelayValue::ALL {
                    for (kind, f) in [
                        (GateKind::Or, or_n as fn(&[DelayValue]) -> DelayValue),
                        (GateKind::Xor, xor_n as fn(&[DelayValue]) -> DelayValue),
                    ] {
                        let fold = eval2(kind, eval2(kind, a, b), c);
                        assert_eq!(fold, f(&[a, b, c]), "{kind} {a},{b},{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn de_morgan_duality() {
        for a in DelayValue::ALL {
            for b in DelayValue::ALL {
                assert_eq!(
                    eval2(GateKind::Or, a, b),
                    eval2(GateKind::And, a.not(), b.not()).not()
                );
                assert_eq!(
                    eval2(GateKind::Nand, a, b),
                    eval2(GateKind::And, a, b).not()
                );
                assert_eq!(eval2(GateKind::Nor, a, b), eval2(GateKind::Or, a, b).not());
                assert_eq!(
                    eval2(GateKind::Xnor, a, b),
                    eval2(GateKind::Xor, a, b).not()
                );
            }
        }
    }

    #[test]
    fn fault_effect_never_created_from_clean_inputs() {
        // "an Rc or Fc value never emerges at an output of a gate if there
        // wasn't already one or more of these values at the input."
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for a in DelayValue::ALL {
                for b in DelayValue::ALL {
                    if !a.carries_fault() && !b.carries_fault() {
                        assert!(
                            !eval2(kind, a, b).carries_fault(),
                            "{kind}({a},{b}) fabricated a fault effect"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn frame_values_always_respected() {
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor] {
            for a in DelayValue::ALL {
                for b in DelayValue::ALL {
                    let out = eval2(kind, a, b);
                    let init = kind.eval_bool(&[a.initial(), b.initial()]);
                    let fin = kind.eval_bool(&[a.final_value(), b.final_value()]);
                    assert_eq!(out.initial(), init, "{kind}({a},{b}) frame 1");
                    assert_eq!(out.final_value(), fin, "{kind}({a},{b}) frame 2");
                }
            }
        }
    }

    #[test]
    fn robustness_rules_quoted_in_the_paper() {
        // "Rc propagates from the on path input to the output of the gate
        //  with any value on the off path input that is 1 in its final
        //  value"
        for side in [S1, H1, R, Rc] {
            assert_eq!(eval2(GateKind::And, Rc, side), Rc, "side {side}");
        }
        // "but Fc propagates only with a steady one or Fc on the off path
        //  input."
        assert_eq!(eval2(GateKind::And, Fc, S1), Fc);
        assert_eq!(eval2(GateKind::And, Fc, Fc), Fc);
        for side in [H1, R, F] {
            assert_ne!(eval2(GateKind::And, Fc, side), Fc, "side {side}");
        }
    }

    #[test]
    fn set_basics() {
        let mut s = DelaySet::EMPTY;
        assert!(s.is_empty());
        s.insert(R);
        s.insert(Fc);
        assert_eq!(s.len(), 2);
        assert!(s.contains(R) && s.contains(Fc));
        assert!(s.may_carry_fault());
        assert!(!s.must_carry_fault());
        s.remove(R);
        assert_eq!(s.as_singleton(), Some(Fc));
        assert!(s.must_carry_fault());
        assert_eq!(DelaySet::ALL.len(), 8);
        assert_eq!(DelaySet::CLEAN.len(), 6);
        assert_eq!(DelaySet::HAZARD_FREE.len(), 4);
        assert_eq!(format!("{}", DelaySet::STEADY_CLEAN), "{0,1}");
    }

    #[test]
    fn set_eval_enumerates_exactly() {
        // Exactness of the set-level evaluation for 2 inputs: the result is
        // precisely the image of the Cartesian product.
        let a = DelaySet::from_values([S1, R]);
        let b = DelaySet::from_values([F, Fc]);
        let got = eval_gate_sets(GateKind::And, &[a, b]);
        let mut expect = DelaySet::EMPTY;
        for va in a.iter() {
            for vb in b.iter() {
                expect.insert(eval2(GateKind::And, va, vb));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn set_eval_nary_exact_via_associativity() {
        // For three inputs, the fold equals direct triple enumeration.
        let sets = [
            DelaySet::from_values([S0, R, Fc]),
            DelaySet::from_values([S1, H1]),
            DelaySet::from_values([F, Rc, H0]),
        ];
        for kind in [GateKind::And, GateKind::Nor, GateKind::Xor] {
            let got = eval_gate_sets(kind, &sets);
            let mut expect = DelaySet::EMPTY;
            for a in sets[0].iter() {
                for b in sets[1].iter() {
                    for c in sets[2].iter() {
                        expect.insert(eval_gate(kind, &[a, b, c]));
                    }
                }
            }
            assert_eq!(got, expect, "{kind}");
        }
    }

    #[test]
    fn narrow_inputs_basic_and() {
        // Output must be 1 (steady) => both AND inputs must be steady-1-ish.
        let mut out = DelaySet::singleton(S1);
        let mut ins = [DelaySet::ALL, DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        for (i, input) in ins.iter().enumerate() {
            assert!(input.contains(S1));
            assert!(!input.contains(S0), "input {i}: {input}");
            assert!(!input.contains(R));
            assert!(!input.contains(F));
            assert!(!input.contains(H1), "H1∧H1=H1 ≠ S1 so H1 must go");
        }
    }

    #[test]
    fn narrow_inputs_propagation_requirement() {
        // To get Fc out of an AND whose first input is {Fc}, the second
        // input must become {S1, Fc}.
        let mut out = DelaySet::singleton(Fc);
        let mut ins = [DelaySet::singleton(Fc), DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert_eq!(ins[1], DelaySet::from_values([S1, Fc]));
    }

    #[test]
    fn narrow_inputs_detects_conflicts() {
        // Output S1 from an AND with one input pinned to S0 → empty sets.
        let mut out = DelaySet::singleton(S1);
        let mut ins = [DelaySet::singleton(S0), DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert!(out.is_empty());
    }

    #[test]
    fn narrow_inputs_not_gate() {
        let mut out = DelaySet::singleton(Rc);
        let mut ins = [DelaySet::ALL];
        narrow_inputs(GateKind::Not, &mut out, &mut ins);
        assert_eq!(ins[0], DelaySet::singleton(Fc));
    }

    #[test]
    fn narrow_output_to_producible() {
        // Inputs {0} and anything → AND output can only be 0.
        let mut out = DelaySet::ALL;
        let mut ins = [DelaySet::singleton(S0), DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert_eq!(out, DelaySet::singleton(S0));
    }

    #[test]
    fn narrow_never_removes_feasible_values() {
        // Soundness: brute-force all 2-input AND cases with random-ish sets.
        let sample_sets = [
            DelaySet::ALL,
            DelaySet::CLEAN,
            DelaySet::HAZARD_FREE,
            DelaySet::from_values([R, Fc]),
            DelaySet::from_values([S0, H1, Rc]),
        ];
        for &a0 in &sample_sets {
            for &b0 in &sample_sets {
                for &o0 in &sample_sets {
                    let mut out = o0;
                    let mut ins = [a0, b0];
                    narrow_inputs(GateKind::Nand, &mut out, &mut ins);
                    for va in a0.iter() {
                        for vb in b0.iter() {
                            let r = eval2(GateKind::Nand, va, vb);
                            if o0.contains(r) {
                                assert!(ins[0].contains(va), "lost {va}");
                                assert!(ins[1].contains(vb), "lost {vb}");
                                assert!(out.contains(r), "lost out {r}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn display_symbols() {
        assert_eq!(Rc.to_string(), "Rc");
        assert_eq!(H0.to_string(), "0h");
    }
}
