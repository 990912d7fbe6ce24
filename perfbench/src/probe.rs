//! Layer probes the traced run makes outside the timed flow: kernel
//! lowering, and a serial PODEM pass over a fixed sample of survivors.

use crate::host::{median, quantile};
use crate::trace::Tracer;
use lbist_atpg::{AtpgOutcome, Podem};
use lbist_fault::{Fault, StuckAtSim};
use lbist_sim::{CompiledCircuit, KernelProgram};
use std::time::Instant;

/// Survivors the PODEM probe samples.
pub const PODEM_SAMPLE: usize = 64;

/// Lowering repetitions; the median is reported.
const LOWER_REPS: usize = 5;

/// Times `grading_keep_set` + `KernelProgram::lower` over `faults`, as a
/// grading session does once per run. Records `sim.lower_s` (median of
/// a few repetitions) and `sim.kernel_instrs`.
pub fn lowering(cc: &CompiledCircuit, faults: &[Fault], t: &mut Tracer) {
    let observed = StuckAtSim::observe_all_captures(cc);
    let mut times = Vec::with_capacity(LOWER_REPS);
    let mut instrs = 0;
    t.span("probe.lower", |_| {
        for _ in 0..LOWER_REPS {
            let start = Instant::now();
            let keep = lbist_fault::grading_keep_set(cc, &[faults], &observed);
            let program = KernelProgram::lower(cc, &keep);
            times.push(start.elapsed().as_secs_f64());
            instrs = std::hint::black_box(program).num_instrs();
        }
    });
    t.record("sim.lower_s", median(&times));
    t.record("sim.kernel_instrs", instrs as f64);
}

/// Every `len / PODEM_SAMPLE`-th survivor: a fixed, deterministic sample.
pub fn sample(survivors: &[Fault]) -> Vec<Fault> {
    let n = PODEM_SAMPLE.min(survivors.len());
    (0..n).map(|i| survivors[i * survivors.len() / n]).collect()
}

/// Generates a test for each sampled fault the way top-up schedules it
/// (backtrack limit 24, then 512 for the first pass's aborts), serially
/// with `test_mode` unpinned as in `TopUpAtpg`'s PODEM engines. Records
/// the per-fault median and p90 generation time in µs and the share of
/// PODEM time spent on faults that end aborted.
pub fn podem(cc: &CompiledCircuit, faults: &[Fault], t: &mut Tracer) {
    let mut per_fault_us = Vec::with_capacity(faults.len());
    let mut aborted_us = 0.0;
    t.span("probe.podem", |_| {
        let observed = StuckAtSim::observe_all_captures(cc);
        let mut engines: Vec<Podem> = [24, 512]
            .into_iter()
            .map(|limit| {
                let mut p = Podem::new(cc, observed.clone());
                p.set_backtrack_limit(limit);
                p
            })
            .collect();
        for fault in faults {
            let start = Instant::now();
            let mut outcome = AtpgOutcome::Aborted;
            for engine in &mut engines {
                outcome = engine.generate(fault);
                if outcome != AtpgOutcome::Aborted {
                    break;
                }
            }
            let us = start.elapsed().as_secs_f64() * 1e6;
            per_fault_us.push(us);
            if outcome == AtpgOutcome::Aborted {
                aborted_us += us;
            }
        }
    });
    let total: f64 = per_fault_us.iter().sum();
    t.record("atpg.podem.median_us", median(&per_fault_us));
    t.record("atpg.podem.p90_us", quantile(&per_fault_us, 0.9));
    t.record("atpg.podem.abort_time_share", aborted_us / total.max(1e-9));
}
