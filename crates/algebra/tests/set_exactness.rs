//! Exhaustive exactness of the set-level gate algebra, in both domains.
//!
//! For every multi-input gate kind and every pair of non-empty input sets:
//!
//! * `eval_gate_sets` is exactly the image of the Cartesian product under
//!   the value-level `eval2`;
//! * `narrow_inputs` keeps exactly the input values that can still produce
//!   a value in the output target, narrows the output to `target ∩ image`,
//!   and reports a change exactly when one of the three sets moved.
//!
//! Output targets are singletons: both the definition and the
//! implementation distribute over a union of targets, so singletons pin
//! every target.

use gdf_algebra::delay::{self, DelaySet, DelayValue};
use gdf_algebra::static5::{self, StaticSet, StaticValue};
use gdf_netlist::GateKind;

/// One value domain, seen through raw set bitmasks and value indices.
struct Domain {
    /// Number of values; sets are the masks `1..1 << values`.
    values: usize,
    eval2: fn(GateKind, u8, u8) -> u8,
    eval_sets: fn(GateKind, u8, u8) -> u8,
    narrow: fn(GateKind, u8, [u8; 2]) -> Narrowed,
}

/// `(changed, output, inputs)` after narrowing.
type Narrowed = (bool, u8, [u8; 2]);

const DELAY: Domain = Domain {
    values: 8,
    eval2: |kind, a, b| {
        let (a, b) = (DelayValue::from_index(a), DelayValue::from_index(b));
        delay::eval2(kind, a, b).index()
    },
    eval_sets: |kind, a, b| {
        let ins = [DelaySet::from_bits(a), DelaySet::from_bits(b)];
        delay::eval_gate_sets(kind, &ins).bits()
    },
    narrow: |kind, out, [a, b]| {
        let mut out = DelaySet::from_bits(out);
        let mut ins = [DelaySet::from_bits(a), DelaySet::from_bits(b)];
        let changed = delay::narrow_inputs(kind, &mut out, &mut ins);
        (changed, out.bits(), [ins[0].bits(), ins[1].bits()])
    },
};

const STATIC: Domain = Domain {
    values: 4,
    eval2: |kind, a, b| {
        let (a, b) = (StaticValue::from_index(a), StaticValue::from_index(b));
        static5::eval2(kind, a, b).index()
    },
    eval_sets: |kind, a, b| {
        let ins = [StaticSet::from_bits(a), StaticSet::from_bits(b)];
        static5::eval_gate_sets(kind, &ins).bits()
    },
    narrow: |kind, out, [a, b]| {
        let mut out = StaticSet::from_bits(out);
        let mut ins = [StaticSet::from_bits(a), StaticSet::from_bits(b)];
        let changed = static5::narrow_inputs(kind, &mut out, &mut ins);
        (changed, out.bits(), [ins[0].bits(), ins[1].bits()])
    },
};

const MULTI_INPUT: [GateKind; 6] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// The reference images of one gate kind, built from `eval2` alone.
struct Images {
    values: usize,
    /// `left[va][b]`: the outputs of `eval2(va, vb)` over `vb ∈ b`.
    left: Vec<[u8; 256]>,
    /// `right[vb][a]`: the outputs of `eval2(va, vb)` over `va ∈ a`.
    right: Vec<[u8; 256]>,
}

impl Images {
    fn new(domain: &Domain, kind: GateKind) -> Self {
        let n = domain.values;
        let out = |va: usize, vb: usize| 1u8 << (domain.eval2)(kind, va as u8, vb as u8);
        // `union(f)[set]` is the union of `f(v)` over `v ∈ set`.
        let union = |f: &dyn Fn(usize) -> u8| {
            let mut by_set = [0u8; 256];
            for set in sets(n) {
                by_set[set as usize] = members(n, set).fold(0, |acc, v| acc | f(v));
            }
            by_set
        };
        Images {
            values: n,
            left: (0..n).map(|va| union(&|vb| out(va, vb))).collect(),
            right: (0..n).map(|vb| union(&|va| out(va, vb))).collect(),
        }
    }

    /// The image of `a × b`.
    fn image(&self, a: u8, b: u8) -> u8 {
        members(self.values, a).fold(0, |acc, va| acc | self.left[va][b as usize])
    }

    /// Per output value `t`: the values of `a` and of `b` that produce `t`
    /// with some value of the other input.
    fn supports(&self, a: u8, b: u8) -> [[u8; 2]; 8] {
        let mut keep = [[0u8; 2]; 8];
        for va in members(self.values, a) {
            for t in members(self.values, self.left[va][b as usize]) {
                keep[t][0] |= 1 << va;
            }
        }
        for vb in members(self.values, b) {
            for t in members(self.values, self.right[vb][a as usize]) {
                keep[t][1] |= 1 << vb;
            }
        }
        keep
    }
}

/// Every non-empty set of an `n`-value domain.
fn sets(n: usize) -> impl Iterator<Item = u8> {
    (1..1u16 << n).map(|s| s as u8)
}

/// The value indices in `set`.
fn members(n: usize, set: u8) -> impl Iterator<Item = usize> {
    (0..n).filter(move |&v| set & (1 << v) != 0)
}

fn check_eval(domain: &Domain) {
    for kind in MULTI_INPUT {
        let images = Images::new(domain, kind);
        for a in sets(domain.values) {
            for b in sets(domain.values) {
                assert_eq!(
                    (domain.eval_sets)(kind, a, b),
                    images.image(a, b),
                    "{kind} eval_gate_sets({a:#b}, {b:#b})"
                );
            }
        }
    }
}

fn check_narrow(domain: &Domain, kinds: &[GateKind]) {
    for &kind in kinds {
        let images = Images::new(domain, kind);
        for a in sets(domain.values) {
            for b in sets(domain.values) {
                let image = images.image(a, b);
                let supports = images.supports(a, b);
                for (t, &keep) in supports.iter().enumerate().take(domain.values) {
                    let target = 1u8 << t;
                    let out = target & image;
                    let changed = keep != [a, b] || out != target;
                    assert_eq!(
                        (domain.narrow)(kind, target, [a, b]),
                        (changed, out, keep),
                        "{kind} narrow_inputs(target {target:#b}, [{a:#b}, {b:#b}])"
                    );
                }
            }
        }
    }
}

#[test]
fn delay_eval_gate_sets_is_the_exact_image() {
    check_eval(&DELAY);
}

#[test]
fn static_eval_gate_sets_is_the_exact_image() {
    check_eval(&STATIC);
}

#[test]
fn static_narrow_inputs_is_exact() {
    check_narrow(&STATIC, &MULTI_INPUT);
}

// One test per kind, so the harness spreads the delay sweep over threads.

#[test]
fn delay_narrow_inputs_is_exact_for_and() {
    check_narrow(&DELAY, &[GateKind::And]);
}

#[test]
fn delay_narrow_inputs_is_exact_for_nand() {
    check_narrow(&DELAY, &[GateKind::Nand]);
}

#[test]
fn delay_narrow_inputs_is_exact_for_or() {
    check_narrow(&DELAY, &[GateKind::Or]);
}

#[test]
fn delay_narrow_inputs_is_exact_for_nor() {
    check_narrow(&DELAY, &[GateKind::Nor]);
}

#[test]
fn delay_narrow_inputs_is_exact_for_xor() {
    check_narrow(&DELAY, &[GateKind::Xor]);
}

#[test]
fn delay_narrow_inputs_is_exact_for_xnor() {
    check_narrow(&DELAY, &[GateKind::Xnor]);
}
