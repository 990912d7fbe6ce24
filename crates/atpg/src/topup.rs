//! The top-up flow: deterministic patterns for the random-resistant tail.

use crate::pattern::{Pattern, TestCube};
use crate::podem::{AtpgOutcome, Podem};
use lbist_fault::{Fault, StuckAtSim};
use lbist_netlist::NodeId;
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Result of a top-up ATPG run — the numbers behind Table 1's
/// "# of Top-Up Patterns" and "Fault Coverage 2" rows.
///
/// The four target counts partition the targets:
/// `faults_detected + untestable + aborted + unconfirmed` is the number
/// of targets, and detection takes precedence over any PODEM verdict.
#[derive(Clone, Debug)]
pub struct TopUpReport {
    /// The generated patterns, in generation order.
    pub patterns: Vec<Pattern>,
    /// The partially-specified cubes the patterns were filled from,
    /// aligned with `patterns` (`patterns[i]` is `cubes[i]` random-filled,
    /// with the pinned inputs applied). Hybrid-BIST reseeding consumes
    /// these care-bit masks instead of the filled patterns.
    pub cubes: Vec<TestCube>,
    /// Faults from the target list detected by the patterns (dynamic
    /// compaction credits patterns with every fault they catch).
    pub faults_detected: usize,
    /// Undetected faults proven untestable (excluded from coverage in the
    /// usual "testable fault coverage" convention — reported separately
    /// here).
    pub untestable: usize,
    /// Undetected faults abandoned at the final backtrack limit.
    pub aborted: usize,
    /// Undetected faults PODEM resolved with a cube: the fault simulator
    /// does not credit the pattern filled from it.
    pub unconfirmed: usize,
    /// PODEM outcome counts of each abort-limited pass, in pass order.
    pub passes: Vec<PassStats>,
    /// Backtracks per [`Podem::generate`] whose outcome the run used, as
    /// a log2 histogram: entry 0 counts searches without a backtrack,
    /// entry `i ≥ 1` those with `2^(i-1) ..= 2^i - 1` backtracks (the
    /// `lbist-obs` bucket convention).
    pub backtracks: Vec<u64>,
}

impl fmt::Display for TopUpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} top-up patterns, +{} faults, {} untestable, {} aborted, {} unconfirmed",
            self.patterns.len(),
            self.faults_detected,
            self.untestable,
            self.aborted,
            self.unconfirmed
        )
    }
}

/// PODEM outcomes of one abort-limited top-up pass. Every count is the
/// same at every thread budget, and
/// `candidates == tests + untestable + aborted + discarded`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Backtrack limit of the pass.
    pub limit: usize,
    /// Targets live at the pass start: no PODEM verdict, not detected.
    pub candidates: usize,
    /// Candidates PODEM resolved with a test cube.
    pub tests: usize,
    /// Candidates PODEM proved untestable.
    pub untestable: usize,
    /// Candidates that hit the backtrack limit.
    pub aborted: usize,
    /// Candidates a pattern of this pass detected before the serial
    /// replay reached them. The replay discards their speculative
    /// outcomes; a serial run never computes them.
    pub discarded: usize,
}

/// PODEM's final verdict on a target.
#[derive(Clone, Copy, Debug)]
enum Verdict {
    Cube,
    Untestable,
}

/// Minimum PODEM targets per engaged worker before another pool worker
/// joins: below this, dispatch overhead rivals the search work.
/// Explicit [`TopUpAtpg::set_threads`] budgets are honoured exactly.
const MIN_TARGETS_PER_WORKER: usize = 4;

/// Top-up ATPG: PODEM per surviving fault with dynamic compaction by fault
/// dropping.
///
/// # Parallel generation
///
/// PODEM outcomes are a pure function of (circuit, observation set,
/// backtrack limit, fault) — [`Podem::generate`] resets all search
/// state per call — so each pass **speculatively generates the
/// outcomes of every live target in parallel** on the `lbist-exec`
/// pool: one `Podem` engine per worker pulls the next target from a
/// shared counter, and outcomes are stored by target index. A serial
/// replay then walks the targets in order applying the exact skip
/// rules, random fill and 64-pattern flush batching of the serial
/// algorithm. The replay consumes precomputed outcomes where they exist
/// and generates on demand where they don't, so parallel and serial
/// runs produce **byte-identical** [`TopUpReport`]s (patterns, cubes,
/// counts and statistics — enforced by test). Speculation only costs
/// work for targets an earlier pattern of the same pass happens to
/// catch.
///
/// # Example
///
/// ```
/// use lbist_netlist::{Netlist, GateKind, NodeId};
/// use lbist_sim::CompiledCircuit;
/// use lbist_fault::{Fault, FaultKind, StuckAtSim};
/// use lbist_atpg::TopUpAtpg;
///
/// // A wide AND is random-resistant: give its output SA0 to top-up.
/// let mut nl = Netlist::new("t");
/// let ins: Vec<NodeId> = (0..10).map(|i| nl.add_input(&format!("i{i}"))).collect();
/// let g = nl.add_gate(GateKind::And, &ins);
/// nl.add_output("y", g);
/// let cc = CompiledCircuit::compile(&nl).unwrap();
///
/// let targets = vec![Fault::stem(g, FaultKind::StuckAt0)];
/// let report = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc))
///     .run(&targets, 7);
/// assert_eq!(report.patterns.len(), 1);
/// assert_eq!(report.faults_detected, 1);
/// ```
#[derive(Debug)]
pub struct TopUpAtpg<'a> {
    cc: &'a CompiledCircuit,
    observed: Vec<NodeId>,
    backtrack_limit: usize,
    /// Pins held at fixed values in every generated pattern (e.g.
    /// `test_mode = 1`).
    pinned: Vec<(NodeId, bool)>,
    /// Worker budget for speculative generation (1 = fully serial).
    threads: usize,
    /// `true` until [`TopUpAtpg::set_threads`]: auto mode also respects
    /// [`MIN_TARGETS_PER_WORKER`].
    threads_auto: bool,
}

impl<'a> TopUpAtpg<'a> {
    /// Creates the flow over the given observation set. Generation uses
    /// the shared `lbist-exec` pool; see [`TopUpAtpg::set_threads`] and
    /// [`TopUpAtpg::serial`].
    pub fn new(cc: &'a CompiledCircuit, observed: Vec<NodeId>) -> Self {
        TopUpAtpg {
            cc,
            observed,
            backtrack_limit: 512,
            pinned: Vec::new(),
            threads: lbist_exec::current_num_threads(),
            threads_auto: true,
        }
    }

    /// Sets the PODEM backtrack limit.
    pub fn set_backtrack_limit(&mut self, limit: usize) -> &mut Self {
        self.backtrack_limit = limit;
        self
    }

    /// Sets the worker budget for speculative PODEM generation (`1` =
    /// serial). Reports are byte-identical at every budget.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_threads(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "at least one generation thread is required");
        self.threads = n;
        self.threads_auto = false;
        self
    }

    /// Pins generation to the calling thread (the determinism escape
    /// hatch — though parallel runs are byte-identical anyway).
    pub fn serial(mut self) -> Self {
        self.set_threads(1);
        self
    }

    /// Holds an input at a fixed value in every pattern (test_mode pins).
    pub fn pin(&mut self, node: NodeId, value: bool) -> &mut Self {
        self.pinned.push((node, value));
        self
    }

    /// Generates top-up patterns for `targets` (the faults the random
    /// phase left undetected). Deterministic in `seed`.
    pub fn run(&self, targets: &[Fault], seed: u64) -> TopUpReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = StuckAtSim::new(self.cc, targets.to_vec(), self.observed.clone());
        let mut patterns: Vec<Pattern> = Vec::new();
        let mut cubes: Vec<TestCube> = Vec::new();
        let mut passes: Vec<PassStats> = Vec::new();
        let mut backtracks: Vec<u64> = Vec::new();
        // Batch pending patterns and grade them 64 at a time.
        let mut pending: Vec<Pattern> = Vec::new();

        let flush =
            |pending: &mut Vec<Pattern>, sim: &mut StuckAtSim, patterns: &mut Vec<Pattern>| {
                if pending.is_empty() {
                    return;
                }
                let mut frame = self.cc.new_frame();
                for (lane, p) in pending.iter().enumerate() {
                    p.load_into_lane(self.cc, &mut frame, lane);
                }
                sim.run_batch(&mut frame, pending.len());
                patterns.append(pending);
            };

        // Abort-limited scheduling: a cheap low-backtrack pass clears the
        // easy faults fast; only its aborts get the full budget.
        let mut podem = Podem::new(self.cc, self.observed.clone());
        // PODEM's verdict per target; `None` while it has none (never
        // tried, or aborted).
        let mut verdict: Vec<Option<Verdict>> = vec![None; targets.len()];
        let limits: Vec<usize> = if self.backtrack_limit > 24 {
            vec![24, self.backtrack_limit]
        } else {
            vec![self.backtrack_limit]
        };
        for limit in limits {
            podem.set_backtrack_limit(limit);
            // Every target still live at pass start: no verdict yet and
            // undetected as of the last flush.
            let candidates: Vec<u32> = (0..targets.len() as u32)
                .filter(|&i| verdict[i as usize].is_none() && sim.detections()[i as usize] == 0)
                .collect();
            let mut stats =
                PassStats { limit, candidates: candidates.len(), ..PassStats::default() };
            let mut outcome_of = self.speculate(targets, &candidates, limit);

            for &t in &candidates {
                let idx = t as usize;
                // Skip faults a previous top-up pattern already caught.
                if sim.detections()[idx] > 0 {
                    stats.discarded += 1;
                    continue;
                }
                // Precomputed outcome when the parallel pass made one,
                // on-demand generation otherwise (the serial path).
                let (outcome, tries) = outcome_of[idx].take().unwrap_or_else(|| {
                    let outcome = podem.generate(&targets[idx]);
                    (outcome, podem.backtracks())
                });
                let bucket = (usize::BITS - tries.leading_zeros()) as usize;
                if backtracks.len() <= bucket {
                    backtracks.resize(bucket + 1, 0);
                }
                backtracks[bucket] += 1;
                match outcome {
                    AtpgOutcome::Test(mut cube) => {
                        verdict[idx] = Some(Verdict::Cube);
                        stats.tests += 1;
                        for &(node, value) in &self.pinned {
                            cube.assign(node, value);
                        }
                        let pattern = cube.fill(self.cc, &mut rng);
                        cubes.push(cube);
                        pending.push(pattern);
                        if pending.len() == 64 {
                            flush(&mut pending, &mut sim, &mut patterns);
                        }
                    }
                    AtpgOutcome::Untestable => {
                        verdict[idx] = Some(Verdict::Untestable);
                        stats.untestable += 1;
                    }
                    AtpgOutcome::Aborted => stats.aborted += 1,
                }
            }
            flush(&mut pending, &mut sim, &mut patterns);
            passes.push(stats);
        }

        // Detection takes precedence; an undetected target without a
        // verdict aborted in the last pass.
        let mut report = TopUpReport {
            patterns,
            cubes,
            faults_detected: 0,
            untestable: 0,
            aborted: 0,
            unconfirmed: 0,
            passes,
            backtracks,
        };
        for (&detections, v) in sim.detections().iter().zip(&verdict) {
            let count = match (detections > 0, v) {
                (true, _) => &mut report.faults_detected,
                (false, Some(Verdict::Untestable)) => &mut report.untestable,
                (false, Some(Verdict::Cube)) => &mut report.unconfirmed,
                (false, None) => &mut report.aborted,
            };
            *count += 1;
        }
        report
    }

    /// Speculative parallel generation: the outcome and backtrack count
    /// of every candidate, stored by target index. One engine per worker
    /// pulls the next candidate from a shared counter, so a run of slow
    /// aborts never leaves a worker idle. All `None` when one worker
    /// would do: the replay then generates on demand.
    fn speculate(
        &self,
        targets: &[Fault],
        candidates: &[u32],
        limit: usize,
    ) -> Vec<Option<(AtpgOutcome, usize)>> {
        let mut outcome_of = vec![None; targets.len()];
        let min_per_worker = if self.threads_auto { Some(MIN_TARGETS_PER_WORKER) } else { None };
        let workers = lbist_exec::worker_budget(self.threads, candidates.len(), min_per_worker);
        if workers <= 1 {
            return outcome_of;
        }
        let next = AtomicUsize::new(0);
        let mut pulled: Vec<Vec<(u32, AtpgOutcome, usize)>> = vec![Vec::new(); workers];
        lbist_exec::scope(|s| {
            for out in &mut pulled {
                let next = &next;
                s.spawn(move |_| {
                    // Built fresh per pass: the backtrack limit changes.
                    let mut engine = Podem::new(self.cc, self.observed.clone());
                    engine.set_backtrack_limit(limit);
                    while let Some(&t) = candidates.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let outcome = engine.generate(&targets[t as usize]);
                        out.push((t, outcome, engine.backtracks()));
                    }
                });
            }
        });
        for (t, outcome, tries) in pulled.into_iter().flatten() {
            outcome_of[t as usize] = Some((outcome, tries));
        }
        outcome_of
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_fault::{FaultKind, FaultUniverse};
    use lbist_netlist::{GateKind, Netlist};
    use rand::Rng;

    /// Random-resistant circuit: several wide ANDs.
    fn resistant() -> Netlist {
        let mut nl = Netlist::new("res");
        let ins: Vec<NodeId> = (0..24).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g1 = nl.add_gate(GateKind::And, &ins[0..12]);
        let g2 = nl.add_gate(GateKind::Nor, &ins[12..24]);
        let g3 = nl.add_gate(GateKind::Xor, &[g1, g2]);
        nl.add_output("y", g3);
        nl
    }

    #[test]
    fn tops_up_after_random_phase() {
        let nl = resistant();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..8 {
            let mut frame = cc.new_frame();
            for &pi in cc.inputs() {
                frame[pi.index()] = rng.gen();
            }
            sim.run_batch(&mut frame, 64);
        }
        let fc1 = sim.coverage();
        let survivors = sim.undetected();
        assert!(!survivors.is_empty(), "wide gates must resist 512 random patterns");

        let report = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc)).run(&survivors, 11);
        assert_eq!(report.aborted, 0);
        assert_eq!(
            report.faults_detected + report.untestable,
            survivors.len(),
            "every survivor is either covered or proven untestable"
        );
        // Dynamic compaction: far fewer patterns than survivors.
        assert!(report.patterns.len() <= survivors.len());
        // FC2 > FC1 once the top-up patterns are credited.
        let fc2_detected = fc1.detected + report.faults_detected;
        assert!(fc2_detected as f64 / fc1.total as f64 > fc1.fault_coverage());
    }

    #[test]
    fn cubes_align_with_patterns_and_carry_their_care_bits() {
        let nl = resistant();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let report = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc))
            .run(&universe.representatives(), 13);
        assert_eq!(report.cubes.len(), report.patterns.len());
        for (cube, pattern) in report.cubes.iter().zip(&report.patterns) {
            assert!(cube.specified() > 0, "a top-up cube specifies at least the excitation");
            // Every care bit survives into the filled pattern.
            for &(node, value) in cube.assignments() {
                let pi_pos = cc.inputs().iter().position(|&n| n == node);
                let ff_pos = cc.dffs().iter().position(|&n| n == node);
                match (pi_pos, ff_pos) {
                    (Some(i), _) => assert_eq!(pattern.pi_values[i], value),
                    (_, Some(i)) => assert_eq!(pattern.ff_values[i], value),
                    _ => panic!("cube assigns a non-assignable node"),
                }
            }
        }
    }

    #[test]
    fn pinned_inputs_respected() {
        let mut nl = Netlist::new("pin");
        let tm = nl.add_input("test_mode");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Xor, &[a, tm]);
        nl.add_output("y", g);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let targets = vec![Fault::stem(a, FaultKind::StuckAt0)];
        let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
        atpg.pin(tm, true);
        let report = atpg.run(&targets, 5);
        for p in &report.patterns {
            assert!(p.pi_values[0], "test_mode must stay pinned high");
        }
    }

    /// The headline determinism contract of parallel top-up: every
    /// worker budget produces the byte-identical report — same patterns
    /// in the same order, same cubes, same verdict counters.
    #[test]
    fn parallel_and_serial_top_up_reports_are_byte_identical() {
        let nl = resistant();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let targets = universe.representatives();

        let run = |threads: usize| {
            let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
            if threads == 1 {
                atpg = atpg.serial();
            } else {
                atpg.set_threads(threads);
            }
            // A low limit forces the two-pass abort-rescheduling path.
            atpg.set_backtrack_limit(64);
            atpg.run(&targets, 29)
        };

        let serial = run(1);
        assert!(!serial.patterns.is_empty());
        for threads in [2, 3, 8] {
            let parallel = run(threads);
            assert_eq!(parallel.patterns, serial.patterns, "{threads}-thread patterns differ");
            assert_eq!(parallel.cubes, serial.cubes, "{threads}-thread cubes differ");
            assert_eq!(parallel.faults_detected, serial.faults_detected);
            assert_eq!(parallel.untestable, serial.untestable);
            assert_eq!(parallel.aborted, serial.aborted);
            assert_eq!(parallel.unconfirmed, serial.unconfirmed);
            assert_eq!(parallel.passes, serial.passes, "{threads}-thread pass stats differ");
            assert_eq!(parallel.backtracks, serial.backtracks);
        }
    }

    #[test]
    fn already_detected_targets_are_skipped() {
        // Two equivalent-difficulty faults detectable by one pattern: the
        // second should not need its own PODEM pattern.
        let mut nl = Netlist::new("shared");
        let ins: Vec<NodeId> = (0..8).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g = nl.add_gate(GateKind::And, &ins);
        let h = nl.add_gate(GateKind::Buf, &[g]);
        nl.add_output("y", h);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let targets =
            vec![Fault::stem(g, FaultKind::StuckAt0), Fault::stem(h, FaultKind::StuckAt0)];
        let report = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc)).run(&targets, 3);
        assert_eq!(report.faults_detected, 2);
        // Both faults need the same all-ones cube; the flush-based
        // compaction may or may not fold them into one pattern depending on
        // batch timing, but never more than one per fault.
        assert!(report.patterns.len() <= 2);
    }
}
