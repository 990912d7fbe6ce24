//! Pins the top-up search on generated cores.
//!
//! The Table 1 flow runs through its random phase on a small Core Y and
//! a small Core X; then every survivor's serial PODEM outcome and the
//! top-up report at several thread budgets are folded into digests
//! recorded with the original PODEM engine. A change that moves either
//! digest has changed the search, not only its speed.

use lbist_atpg::{AtpgOutcome, Podem, TestCube, TopUpAtpg, TopUpReport};
use lbist_bench::{run_random_phase, RandomPhase};
use lbist_ckpt::Fnv64;
use lbist_cores::CoreProfile;
use lbist_fault::StuckAtSim;

/// Full backtrack limit of the pinned runs: low enough for a debug
/// build, above 24 so top-up still runs both of its passes.
const LIMIT: usize = 64;

/// One pinned core: its random phase, `table1`'s seed, and the digests
/// recorded with the original engine.
struct PinnedCore {
    name: &'static str,
    phase: RandomPhase,
    seed: u64,
    survivors: usize,
    /// Every survivor's serial outcome at limit 24, then at [`LIMIT`].
    outcomes_digest: u64,
    /// Top-up patterns, cubes and `faults_detected`, at every thread
    /// budget.
    report_digest: u64,
}

/// Core Y (8 clock domains) at 1/1200 through `table1`'s random phase:
/// 787 nodes, 316 survivors.
fn small_core_y() -> PinnedCore {
    PinnedCore {
        name: "Core Y",
        phase: run_random_phase(&CoreProfile::core_y().scaled(1200), 43, 512, 8, 106),
        seed: 43,
        survivors: 316,
        outcomes_digest: 0x5060_45b8_bc63_c15f,
        report_digest: 0x7eb0_9e37_e132_95d0,
    }
}

/// Core X (2 clock domains) at 1/600 through `table1`'s random phase:
/// 517 nodes, 273 survivors.
fn small_core_x() -> PinnedCore {
    PinnedCore {
        name: "Core X",
        phase: run_random_phase(&CoreProfile::core_x().scaled(600), 42, 512, 8, 100),
        seed: 42,
        survivors: 273,
        outcomes_digest: 0xc74b_9159_fd27_667c,
        report_digest: 0xc75a_8d58_043a_06c5,
    }
}

fn fold_cube(digest: &mut Fnv64, cube: &TestCube) {
    digest.write_u64(cube.specified() as u64);
    for &(node, value) in cube.assignments() {
        digest.write_u64(node.index() as u64);
        digest.write(&[value as u8]);
    }
}

fn outcomes_digest(phase: &RandomPhase) -> u64 {
    let mut podem = Podem::new(&phase.cc, StuckAtSim::observe_all_captures(&phase.cc));
    let mut digest = Fnv64::new();
    for limit in [24, LIMIT] {
        podem.set_backtrack_limit(limit);
        for fault in &phase.survivors {
            match podem.generate(fault) {
                AtpgOutcome::Test(cube) => {
                    digest.write(b"T");
                    fold_cube(&mut digest, &cube);
                }
                AtpgOutcome::Untestable => digest.write(b"U"),
                AtpgOutcome::Aborted => digest.write(b"A"),
            }
        }
    }
    digest.finish()
}

fn report_digest(report: &TopUpReport) -> u64 {
    let mut digest = Fnv64::new();
    digest.write_u64(report.patterns.len() as u64);
    for p in &report.patterns {
        for &v in p.pi_values.iter().chain(&p.ff_values) {
            digest.write(&[v as u8]);
        }
    }
    digest.write_u64(report.cubes.len() as u64);
    for cube in &report.cubes {
        fold_cube(&mut digest, cube);
    }
    digest.write_u64(report.faults_detected as u64);
    digest.finish()
}

fn check_pinned(pinned: &PinnedCore) {
    let PinnedCore { name, phase, .. } = pinned;
    assert_eq!(phase.survivors.len(), pinned.survivors, "{name}");
    assert_eq!(
        outcomes_digest(phase),
        pinned.outcomes_digest,
        "{name}: a serial PODEM outcome moved"
    );

    let mut first: Option<TopUpReport> = None;
    for threads in [1, 2, 3] {
        let mut atpg = TopUpAtpg::new(&phase.cc, StuckAtSim::observe_all_captures(&phase.cc));
        atpg.pin(phase.core.test_mode(), true).set_backtrack_limit(LIMIT).set_threads(threads);
        let report = atpg.run(&phase.survivors, pinned.seed ^ 0xA7B6);
        assert_eq!(
            report_digest(&report),
            pinned.report_digest,
            "{name}: {threads}-thread top-up report moved"
        );

        // The target counts partition the survivors, and each pass's
        // outcome counts partition its candidates.
        let counted =
            report.faults_detected + report.untestable + report.aborted + report.unconfirmed;
        assert_eq!(counted, phase.survivors.len(), "{name}: {report}");
        assert_eq!(report.passes.iter().map(|p| p.limit).collect::<Vec<_>>(), [24, LIMIT]);
        for pass in &report.passes {
            assert_eq!(
                pass.tests + pass.untestable + pass.aborted + pass.discarded,
                pass.candidates,
                "{name}: {pass:?}"
            );
        }
        let searched: usize =
            report.passes.iter().map(|p| p.tests + p.untestable + p.aborted).sum();
        assert_eq!(report.backtracks.iter().sum::<u64>(), searched as u64, "{name}");

        // Statistics and counts are the same at every thread budget.
        match &first {
            None => first = Some(report),
            Some(one) => {
                assert_eq!(report.passes, one.passes, "{name}: {threads}-thread pass stats moved");
                assert_eq!(report.backtracks, one.backtracks, "{name}");
                assert_eq!(report.to_string(), one.to_string(), "{name}");
            }
        }
    }
}

#[test]
fn top_up_search_is_pinned_on_a_generated_core() {
    for pinned in [small_core_y(), small_core_x()] {
        check_pinned(&pinned);
    }
}
