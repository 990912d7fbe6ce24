//! Phase-timing handles for the batch pipeline inside the fault
//! simulators.
//!
//! A batch spends its time in two places the caller cannot tell apart
//! from outside: the shared fault-free evaluation (`sim`) and the
//! sharded per-fault propagation plus serial merge (`detect`). The
//! first batch also lowers the simulator's kernel program (`compile`).
//! Counters break `detect` open: the workers count their stem replays,
//! stem-memo hits and drain evaluations in their scratch, and the
//! simulator adds them up once per batch.
//! Sessions that want a phase trace install a [`SimPhaseMetrics`] whose
//! handles were created on their registry; the default handles are
//! no-ops, so an uninstrumented simulator never reads the clock.
//!
//! Timing is observational only: spans never influence grading, so
//! results stay bit-identical with metrics on or off.

use lbist_obs::{Counter, Histogram};

/// Per-batch phase timers a grading session installs on its simulator
/// via `set_phase_metrics`. `sim_ns` and `detect_ns` receive one
/// elapsed-ns record per batch and the replay counters one addition per
/// batch; the kernel handles record the one lowering at the first
/// batch.
#[derive(Clone, Debug, Default)]
pub struct SimPhaseMetrics {
    /// Fault-free evaluation of the batch's frames.
    pub sim_ns: Histogram,
    /// Sharded fault propagation (dispatch, retries) plus the serial
    /// detection merge.
    pub detect_ns: Histogram,
    /// Kernel lowering time — keep-set construction plus bytecode
    /// emission (`sim.kernel.compile_ns`).
    pub kernel_compile_ns: Histogram,
    /// Instructions in the lowered program (`sim.kernel.instrs`).
    pub kernel_instrs: Counter,
    /// Gates fused away during lowering (`sim.kernel.fused_gates`).
    pub kernel_fused_gates: Counter,
    /// Stuck-at stem observabilities computed, one per stem and shard
    /// (`grading.stuck.stem_replays`).
    pub stem_replays: Counter,
    /// Stuck-at faults that reached a stem whose observability the shard
    /// had already computed (`grading.stuck.stem_hits`). Faults settled
    /// without either — dead, unexcited, D-pin, or blocked inside their
    /// fanout-free region — are the graded faults minus both counts.
    pub stem_hits: Counter,
    /// Instructions the event drain evaluated, stuck-at stem replays and
    /// transition window replays alike (`grading.drain_evals`).
    pub drain_evals: Counter,
}
