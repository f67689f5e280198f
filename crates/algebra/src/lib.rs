//! Multi-valued algebras for delay-fault and static-fault test generation.
//!
//! Two algebras back the two test generators of the paper:
//!
//! * [`delay`] — the **8-valued robust gate-delay-fault algebra** of TDgen
//!   (Section 3, Tables 1 and 2): `{0, 1, R, F, 0h, 1h, Rc, Fc}`. One value
//!   describes a signal across *both* time frames of a two-pattern test —
//!   its initial-frame value, its final-frame value, whether a hazard is
//!   possible in between, and whether it carries the fault effect (the `c`
//!   in `Rc`/`Fc` plays the role D/D̄ play in static ATPG).
//! * [`static5`] — the **5-valued D-algebra** `{0, 1, D, D̄}` + X of SEMILET,
//!   encoded as (good-machine bit, faulty-machine bit) pairs; `X` is the
//!   full value set.
//!
//! Both algebras are exposed in the *set* form the paper works with
//! ("during test pattern generation for each gate a set of values is
//! maintained that are possible for that gate"). [`set`] holds that
//! machinery once: one bitmask type [`set::ValueSet`] and one implication
//! pair, [`set::eval_gate_sets`] (forward) and [`set::narrow_inputs`]
//! (backward). The two algebras differ only in their value tables:
//! [`DelaySet`] and [`StaticSet`] are `ValueSet` over [`DelayValue`] and
//! [`StaticValue`], and each module re-exports the implication pair.
//!
//! [`implication`] builds the search both test generators run on top of
//! the sets, once for both value domains: the set network with its undo
//! trail and constraint queue, the fault site's converted edges, the
//! decision stack with its backtrack limit, and the backtrace step through
//! a gate. TDgen supplies the delay domain's rules (two frames, register
//! coupling, robust or non-robust gate rules), SEMILET the static
//! domain's (one frame, stuck-at conversion).
//!
//! [`logic3`] holds the plain 3-valued Kleene logic used by the good-machine
//! simulator and the synchronizing-sequence search.
//!
//! [`packed`] is the bit-parallel face of the delay algebra: 64 values per
//! [`packed::PackedWave`] as four u64 bit-planes, with word-level gate
//! evaluation lane-identical to the scalar tables — the substrate of the
//! word-parallel fault simulator.
//!
//! # Example
//!
//! ```
//! use gdf_algebra::delay::{DelayValue, eval2};
//! use gdf_netlist::GateKind;
//!
//! // The paper's robustness rule: a fault-carrying falling transition
//! // propagates through an AND gate only past a steady, hazard-free 1.
//! assert_eq!(eval2(GateKind::And, DelayValue::Fc, DelayValue::S1), DelayValue::Fc);
//! assert_eq!(eval2(GateKind::And, DelayValue::Fc, DelayValue::H1), DelayValue::F);
//! ```

pub mod delay;
pub mod implication;
pub mod logic3;
pub mod packed;
pub mod set;
pub mod static5;
pub mod tables;

pub use delay::{DelaySet, DelayValue};
pub use logic3::Logic3;
pub use packed::PackedWave;
pub use static5::{StaticSet, StaticValue};
