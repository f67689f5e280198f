//! The 5-valued static D-algebra `{0, 1, D, D̄}` (+ `X` as the full set)
//! used by SEMILET.
//!
//! A [`StaticValue`] is a pair (good-machine bit, faulty-machine bit):
//! `D` = good 1 / faulty 0, `D̄` = good 0 / faulty 1. Gate evaluation is
//! component-wise Boolean evaluation; the classical D-calculus tables fall
//! out automatically. As in [`crate::delay`], the ATPG works with *sets*
//! of still-possible values ([`StaticSet`]), and `X` is simply the full
//! set.
//!
//! [`StaticSet`] is the generic [`ValueSet`] over these four values, and
//! [`eval_gate_sets`] / [`narrow_inputs`] are the generic implications of
//! [`crate::set`]; the domain supplies only its constants and a core op
//! that works on the (good, faulty) bit pair directly.

use crate::set::{CoreOp, SetValue, ValueSet};
use gdf_netlist::GateKind;
use std::fmt;

pub use crate::set::{eval_gate_sets, narrow_inputs};

/// One value of the static D-algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum StaticValue {
    /// 0 in both machines.
    S0 = 0,
    /// 1 in both machines.
    S1 = 1,
    /// Good 1, faulty 0.
    D = 2,
    /// Good 0, faulty 1.
    Db = 3,
}

impl StaticValue {
    /// All four values in table order `0, 1, D, D̄`.
    pub const ALL: [StaticValue; 4] = [
        StaticValue::S0,
        StaticValue::S1,
        StaticValue::D,
        StaticValue::Db,
    ];

    /// Constructs from the `repr` index (0..4).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn from_index(i: u8) -> StaticValue {
        Self::ALL[i as usize]
    }

    /// Index of this value (its `repr`).
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Builds the value from its (good, faulty) bits.
    pub fn from_pair(good: bool, faulty: bool) -> StaticValue {
        match (good, faulty) {
            (false, false) => StaticValue::S0,
            (true, true) => StaticValue::S1,
            (true, false) => StaticValue::D,
            (false, true) => StaticValue::Db,
        }
    }

    /// The good-machine bit.
    pub fn good(self) -> bool {
        matches!(self, StaticValue::S1 | StaticValue::D)
    }

    /// The faulty-machine bit.
    pub fn faulty(self) -> bool {
        matches!(self, StaticValue::S1 | StaticValue::Db)
    }

    /// Whether the machines disagree (`D` or `D̄`).
    pub fn is_fault_effect(self) -> bool {
        matches!(self, StaticValue::D | StaticValue::Db)
    }

    /// Negation in both machines.
    #[allow(clippy::should_implement_trait)] // method-call syntax without importing std::ops::Not
    pub fn not(self) -> StaticValue {
        StaticValue::from_pair(!self.good(), !self.faulty())
    }

    /// The classical notation for the value.
    pub fn symbol(self) -> &'static str {
        match self {
            StaticValue::S0 => "0",
            StaticValue::S1 => "1",
            StaticValue::D => "D",
            StaticValue::Db => "D'",
        }
    }
}

impl fmt::Display for StaticValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Evaluates any combinational gate over the D-algebra (component-wise on
/// the good and faulty machines).
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `vals` is empty.
pub fn eval_gate(kind: GateKind, vals: &[StaticValue]) -> StaticValue {
    debug_assert!(!vals.is_empty());
    let good: Vec<bool> = vals.iter().map(|v| v.good()).collect();
    let faulty: Vec<bool> = vals.iter().map(|v| v.faulty()).collect();
    StaticValue::from_pair(kind.eval_bool(&good), kind.eval_bool(&faulty))
}

/// Two-input convenience wrapper around [`eval_gate`].
pub fn eval2(kind: GateKind, a: StaticValue, b: StaticValue) -> StaticValue {
    eval_gate(kind, &[a, b])
}

impl SetValue for StaticValue {
    const ALL: &'static [Self] = &StaticValue::ALL;

    fn index(self) -> u8 {
        self as u8
    }

    fn not(self) -> Self {
        StaticValue::not(self)
    }

    /// Component-wise on the (good, faulty) bit pair.
    fn core2(op: CoreOp, a: Self, b: Self) -> Self {
        let bit = |x: bool, y: bool| match op {
            CoreOp::And => x && y,
            CoreOp::Or => x || y,
            CoreOp::Xor => x != y,
        };
        StaticValue::from_pair(bit(a.good(), b.good()), bit(a.faulty(), b.faulty()))
    }
}

/// A set of still-possible [`StaticValue`]s; `X` is [`StaticSet::ALL`].
pub type StaticSet = ValueSet<StaticValue>;

impl StaticSet {
    /// `{0, 1}` — no fault effect (signals outside the faulty cone, or any
    /// signal in a fault-free time frame).
    pub const GOOD: StaticSet = StaticSet::from_bits(0b0011);
    /// `{D, D̄}` — a guaranteed fault effect.
    pub const FAULT_EFFECT: StaticSet = StaticSet::from_bits(0b1100);

    /// Whether a fault effect is still possible here.
    pub fn may_be_fault_effect(self) -> bool {
        !self.intersect(StaticSet::FAULT_EFFECT).is_empty()
    }

    /// Whether every remaining value is a fault effect.
    pub fn must_be_fault_effect(self) -> bool {
        !self.is_empty() && self.intersect(StaticSet::FAULT_EFFECT) == self
    }

    /// Restriction to the good-machine bit `b` (e.g. for slow-clock frames
    /// where the faulty machine equals the good machine the set is further
    /// intersected with [`StaticSet::GOOD`] by the caller).
    pub fn with_good(self, b: bool) -> StaticSet {
        StaticSet::from_values(self.iter().filter(|v| v.good() == b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use StaticValue::{Db, D, S0, S1};

    #[test]
    fn classical_d_calculus() {
        // D & 1 = D; D & 0 = 0; D & D' = 0; D | D' = 1; !D = D'.
        assert_eq!(eval2(GateKind::And, D, S1), D);
        assert_eq!(eval2(GateKind::And, D, S0), S0);
        assert_eq!(eval2(GateKind::And, D, Db), S0);
        assert_eq!(eval2(GateKind::Or, D, Db), S1);
        assert_eq!(D.not(), Db);
        assert_eq!(eval2(GateKind::Xor, D, D), S0);
        assert_eq!(eval2(GateKind::Xor, D, S1), Db);
    }

    #[test]
    fn pair_round_trip() {
        for v in StaticValue::ALL {
            assert_eq!(StaticValue::from_pair(v.good(), v.faulty()), v);
        }
    }

    #[test]
    fn set_eval_and_narrow() {
        // AND output must be D with first input {D}: second must allow
        // good=1, faulty=1-or-fault → {1, D}.
        let mut out = StaticSet::singleton(D);
        let mut ins = [StaticSet::singleton(D), StaticSet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert_eq!(ins[1], StaticSet::from_values([S1, D]));
    }

    #[test]
    fn narrow_conflict_detected() {
        let mut out = StaticSet::singleton(S1);
        let mut ins = [StaticSet::singleton(S0), StaticSet::ALL];
        narrow_inputs(GateKind::Or, &mut out, &mut ins);
        // OR with a 0 input can still be 1 through the other input.
        assert!(!out.is_empty());
        let mut out2 = StaticSet::singleton(S1);
        let mut ins2 = [StaticSet::singleton(S0), StaticSet::singleton(S0)];
        narrow_inputs(GateKind::Or, &mut out2, &mut ins2);
        assert!(out2.is_empty());
    }

    #[test]
    fn set_eval_exact() {
        let a = StaticSet::from_values([S0, D]);
        let b = StaticSet::from_values([S1, Db]);
        let got = eval_gate_sets(GateKind::Nand, &[a, b]);
        let mut expect = StaticSet::EMPTY;
        for va in a.iter() {
            for vb in b.iter() {
                expect.insert(eval2(GateKind::Nand, va, vb));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn narrow_sound_for_all_small_cases() {
        let sample = [
            StaticSet::ALL,
            StaticSet::GOOD,
            StaticSet::FAULT_EFFECT,
            StaticSet::from_values([S0, Db]),
        ];
        for &a0 in &sample {
            for &b0 in &sample {
                for &o0 in &sample {
                    for kind in [GateKind::And, GateKind::Nor, GateKind::Xor] {
                        let mut out = o0;
                        let mut ins = [a0, b0];
                        narrow_inputs(kind, &mut out, &mut ins);
                        for va in a0.iter() {
                            for vb in b0.iter() {
                                let r = eval2(kind, va, vb);
                                if o0.contains(r) {
                                    assert!(ins[0].contains(va));
                                    assert!(ins[1].contains(vb));
                                    assert!(out.contains(r));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn display_and_helpers() {
        assert_eq!(Db.to_string(), "D'");
        assert_eq!(format!("{}", StaticSet::FAULT_EFFECT), "{D,D'}");
        assert!(StaticSet::FAULT_EFFECT.must_be_fault_effect());
        assert!(StaticSet::ALL.may_be_fault_effect());
        assert!(!StaticSet::GOOD.may_be_fault_effect());
        assert_eq!(
            StaticSet::ALL.with_good(true),
            StaticSet::from_values([S1, D])
        );
    }
}
