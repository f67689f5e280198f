//! Simulation substrate: good-machine logic simulation, the FAUSIM
//! sequential fault simulator and the TDsim robust delay-fault simulator.
//!
//! Section 5 of the paper splits fault simulation into three phases. Each
//! phase now exists in two forms — the scalar reference implementation and
//! a bit-parallel (64-lane) variant that the ATPG drop loop runs — and the
//! scalar form is the correctness oracle the packed form is
//! differential-tested against:
//!
//! 1. *"Simulation of the good machine for all time frames of the
//!    initialization and for the fast clock frame"* — [`goodsim`], a
//!    3-valued sequential simulator (plus the 64-bit two-valued
//!    [`ParallelSimulator`] for random-pattern fault grading), and
//!    [`packed::PackedGoodSim`], the two-bit-plane 3-valued simulator that
//!    evaluates 64 independent Kleene patterns per sweep.
//! 2. *"Stuck-at fault simulation of the propagation phase for all PPOs
//!    where possibly fault effects can occur"* — [`fausim`], which injects
//!    a `D`/`D̄` state difference at a pseudo primary input and propagates
//!    it through fault-free (slow-clock) frames.
//!    [`Fausim::propagate_state_diffs_packed`] runs **one lane per PPO**:
//!    all candidate state differences of a sequence propagate in a single
//!    pass instead of `num_dffs` sequential walks.
//! 3. *"Delay fault simulation of the fast time frame by critical path
//!    tracing"* — [`tdsim`], working on the two-frame 8-valued waveform
//!    produced by [`waveform`], including the paper's *invalidation* check
//!    for faults observed through a PPO.
//!    [`detected_delay_faults_packed`] packs **one candidate fault per
//!    lane** ([`gdf_algebra::packed::PackedWave`] bit-planes) and
//!    classifies up to 64 faults per netlist sweep over the union of their
//!    output cones.
//!
//! The packed sweeps share [`SimScratch`], a bundle of reusable node-value
//! buffers: per-sequence hot loops allocate nothing after warm-up.

pub mod fausim;
pub mod goodsim;
pub mod grading;
pub mod packed;
pub mod tdsim;
pub mod tfsim;
pub mod waveform;

pub use fausim::{Fausim, PropagationOutcome};
pub use goodsim::{GoodSimulator, ParallelSimulator};
pub use grading::{grade_filled_sequence, grade_filled_sequence_transition, GradeScratch};
pub use packed::{PackedGoodSim, PackedLogic, SimScratch};
pub use tdsim::{detected_delay_faults, detected_delay_faults_packed, DelayObservation};
pub use tfsim::{detected_transition_faults, detected_transition_faults_packed};
pub use waveform::{two_frame_values, two_frame_values_into};

/// The unified engine's fault-parallel orchestration shares simulator
/// instances across worker threads, so every simulator must stay free of
/// interior mutability: all scratch state lives in per-call locals (or in
/// an explicitly passed [`SimScratch`]). These compile-time assertions pin
/// that down — adding a `RefCell`/`Cell` to a simulator becomes a build
/// error here rather than a data race there.
const _: () = {
    const fn assert_sync_simulators<T: Send + Sync>() {}
    assert_sync_simulators::<Fausim<'_>>();
    assert_sync_simulators::<GoodSimulator<'_>>();
    assert_sync_simulators::<ParallelSimulator<'_>>();
    assert_sync_simulators::<PackedGoodSim<'_>>();
};
