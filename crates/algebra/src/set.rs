//! Sets of still-possible values, and the forward and backward gate
//! implications over them — written once for every value domain.
//!
//! The paper's engine keeps, per gate, "a set of values … possible for
//! that gate". A [`ValueSet`] is that set as a bitmask over a [`SetValue`]
//! domain of at most eight values: the 8-valued delay algebra
//! ([`crate::delay::DelaySet`]) and the static D-algebra
//! ([`crate::static5::StaticSet`]) are its two instantiations.
//! [`eval_gate_sets`] is the forward implication and [`narrow_inputs`] the
//! backward one; both reduce every multi-input gate to an associative
//! two-input [`CoreOp`] supplied by the domain.

use gdf_netlist::GateKind;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

/// The three associative core operations the multi-input gate kinds reduce
/// to: NAND, NOR and XNOR are the inverted AND, OR and XOR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreOp {
    /// AND / NAND.
    And,
    /// OR / NOR.
    Or,
    /// XOR / XNOR.
    Xor,
}

/// Maps a gate kind to `(core op, output inverted)`; `None` for
/// BUF/NOT/Input/Dff.
fn core_of(kind: GateKind) -> Option<(CoreOp, bool)> {
    match kind {
        GateKind::And => Some((CoreOp::And, false)),
        GateKind::Nand => Some((CoreOp::And, true)),
        GateKind::Or => Some((CoreOp::Or, false)),
        GateKind::Nor => Some((CoreOp::Or, true)),
        GateKind::Xor => Some((CoreOp::Xor, false)),
        GateKind::Xnor => Some((CoreOp::Xor, true)),
        _ => None,
    }
}

/// A value domain a [`ValueSet`] ranges over.
pub trait SetValue: Copy + Eq + Hash + fmt::Display + 'static {
    /// Every value, in index order (at most eight).
    const ALL: &'static [Self];

    /// Position of the value in [`SetValue::ALL`].
    fn index(self) -> u8;

    /// Inversion (the inverter's table).
    fn not(self) -> Self;

    /// The two-input core operation `op(a, b)`.
    fn core2(op: CoreOp, a: Self, b: Self) -> Self;
}

/// A set of still-possible values of the domain `V`, stored as a bitmask
/// (bit `i` is `V::ALL[i]`). The empty set is an implication conflict.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueSet<V> {
    bits: u8,
    domain: PhantomData<V>,
}

impl<V: SetValue> ValueSet<V> {
    /// The empty set (a conflict).
    pub const EMPTY: Self = ValueSet {
        bits: 0,
        domain: PhantomData,
    };
    /// Every value of the domain.
    pub const ALL: Self = ValueSet {
        bits: ((1u16 << V::ALL.len()) - 1) as u8,
        domain: PhantomData,
    };

    /// The singleton set `{v}`.
    pub fn singleton(v: V) -> Self {
        Self::from_bits(1 << v.index())
    }

    /// Builds a set from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = V>>(values: I) -> Self {
        let mut s = Self::EMPTY;
        for v in values {
            s.insert(v);
        }
        s
    }

    /// The raw bitmask.
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Reconstructs a set from a raw bitmask; bits beyond the domain are
    /// dropped.
    pub const fn from_bits(bits: u8) -> Self {
        ValueSet {
            bits: bits & Self::ALL.bits,
            domain: PhantomData,
        }
    }

    /// Whether `v` is still possible.
    pub fn contains(self, v: V) -> bool {
        self.bits & (1 << v.index()) != 0
    }

    /// Adds `v`.
    pub fn insert(&mut self, v: V) {
        self.bits |= 1 << v.index();
    }

    /// Removes `v`.
    pub fn remove(&mut self, v: V) {
        self.bits &= !(1 << v.index());
    }

    /// Set union.
    pub fn union(self, other: Self) -> Self {
        Self::from_bits(self.bits | other.bits)
    }

    /// Set intersection.
    pub fn intersect(self, other: Self) -> Self {
        Self::from_bits(self.bits & other.bits)
    }

    /// Whether the set is empty (an implication conflict).
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Number of values in the set.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// `Some(v)` if the set is the singleton `{v}`.
    pub fn as_singleton(self) -> Option<V> {
        if self.bits.count_ones() == 1 {
            Some(V::ALL[self.bits.trailing_zeros() as usize])
        } else {
            None
        }
    }

    /// Iterates over the values in the set, in index order.
    pub fn iter(self) -> impl Iterator<Item = V> {
        let mut rest = self.bits;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(V::ALL[i])
        })
    }

    /// Applies the inverter to every value in the set.
    #[allow(clippy::should_implement_trait)] // method-call syntax without importing std::ops::Not
    pub fn not(self) -> Self {
        Self::from_values(self.iter().map(V::not))
    }
}

impl<V: SetValue> fmt::Display for ValueSet<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl<V: SetValue> fmt::Debug for ValueSet<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl<V: SetValue> FromIterator<V> for ValueSet<V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Self::from_values(iter)
    }
}

/// `op` over every pair of values of `a × b`.
fn set_core2<V: SetValue>(op: CoreOp, a: ValueSet<V>, b: ValueSet<V>) -> ValueSet<V> {
    let mut out = ValueSet::EMPTY;
    for va in a.iter() {
        for vb in b.iter() {
            out.insert(V::core2(op, va, vb));
        }
    }
    out
}

/// Forward implication: the set of output values reachable from the given
/// input sets. Exact (not an over-approximation): the two-input core op is
/// associative, so the pairwise fold enumerates precisely the n-ary results
/// (exhaustively tested in `tests/set_exactness.rs`).
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn eval_gate_sets<V: SetValue>(kind: GateKind, ins: &[ValueSet<V>]) -> ValueSet<V> {
    debug_assert!(!ins.is_empty());
    match kind {
        GateKind::Buf => ins[0],
        GateKind::Not => ins[0].not(),
        GateKind::Input | GateKind::Dff => {
            panic!("eval_gate_sets called on non-combinational kind {kind:?}")
        }
        _ => {
            let (op, inv) = core_of(kind).expect("combinational kind");
            let folded = ins[1..]
                .iter()
                .fold(ins[0], |acc, &b| set_core2(op, acc, b));
            if inv {
                folded.not()
            } else {
                folded
            }
        }
    }
}

/// Backward implication: narrows every input set to the values that can
/// still produce an output inside `out_allowed`, and narrows `out_allowed`
/// itself to what the inputs can still produce.
///
/// Returns `true` if any set changed. An emptied set signals a conflict the
/// caller must detect via [`ValueSet::is_empty`].
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn narrow_inputs<V: SetValue>(
    kind: GateKind,
    out_allowed: &mut ValueSet<V>,
    ins: &mut [ValueSet<V>],
) -> bool {
    debug_assert!(!ins.is_empty());
    let mut changed = false;
    match kind {
        GateKind::Buf => {
            let meet = out_allowed.intersect(ins[0]);
            changed |= meet != ins[0] || meet != *out_allowed;
            ins[0] = meet;
            *out_allowed = meet;
        }
        GateKind::Not => {
            let meet_in = ins[0].intersect(out_allowed.not());
            let meet_out = out_allowed.intersect(ins[0].not());
            changed |= meet_in != ins[0] || meet_out != *out_allowed;
            ins[0] = meet_in;
            *out_allowed = meet_out;
        }
        GateKind::Input | GateKind::Dff => {
            panic!("narrow_inputs called on non-combinational kind {kind:?}")
        }
        _ => {
            let (op, inv) = core_of(kind).expect("combinational kind");
            let target = if inv { out_allowed.not() } else { *out_allowed };
            let n = ins.len();
            // Prefix/suffix folds of the core op over the input sets
            // (`prefix[i]` folds `ins[..i]`; the full fold is `suffix[0]`).
            let mut prefix = vec![ValueSet::EMPTY; n];
            let mut suffix = vec![ValueSet::EMPTY; n + 1];
            for i in 0..n - 1 {
                prefix[i + 1] = if i == 0 {
                    ins[0]
                } else {
                    set_core2(op, prefix[i], ins[i])
                };
            }
            for i in (0..n).rev() {
                suffix[i] = if i == n - 1 {
                    ins[n - 1]
                } else {
                    set_core2(op, ins[i], suffix[i + 1])
                };
            }
            for i in 0..n {
                let mut keep = ValueSet::EMPTY;
                for v in ins[i].iter() {
                    let sv = ValueSet::singleton(v);
                    let combined = match (i == 0, i == n - 1) {
                        (true, true) => sv,
                        (true, false) => set_core2(op, sv, suffix[1]),
                        (false, true) => set_core2(op, prefix[n - 1], sv),
                        (false, false) => {
                            set_core2(op, set_core2(op, prefix[i], sv), suffix[i + 1])
                        }
                    };
                    if !combined.intersect(target).is_empty() {
                        keep.insert(v);
                    }
                }
                if keep != ins[i] {
                    ins[i] = keep;
                    changed = true;
                }
            }
            // Narrow the output to what is actually producible.
            let producible = if inv { suffix[0].not() } else { suffix[0] };
            let meet = out_allowed.intersect(producible);
            if meet != *out_allowed {
                *out_allowed = meet;
                changed = true;
            }
        }
    }
    changed
}
