//! Wide-grading equivalence property tests: on randomly shaped cores,
//! the whole grading pipeline (PRPG fill → sim → detection → MISR
//! signature compaction) at 128 lanes is bit-identical to the 64-lane
//! path and to serial (1-thread, unpipelined) grading — for
//! both fault models.
//!
//! Identity is checked at two strengths:
//! * **no dropping** (`drop_after = u32::MAX`): per-fault detection
//!   *counts*, coverage reports and accumulated per-domain MISR
//!   signatures are all exactly equal;
//! * **drop-after-1** (the production flow): the detected-fault *set*
//!   and the signatures are equal (drop timing is batch-granular, so
//!   raw counts legitimately differ once faults drop mid-stream).

use lbist_core::{StumpsConfig, WideGradingOutcome, WideGradingSession};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
use lbist_exec::LaneWord;
use lbist_fault::{CaptureWindow, Fault, FaultUniverse};
use lbist_sim::CompiledCircuit;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Scenario {
    scale: usize,
    gen_seed: u64,
    chains: usize,
    use_expander: bool,
    use_compactor: bool,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (400usize..900, 0u64..1000, 2usize..8, any::<bool>(), any::<bool>()).prop_map(
        |(scale, gen_seed, chains, use_expander, use_compactor)| Scenario {
            scale,
            gen_seed,
            chains,
            use_expander,
            use_compactor,
        },
    )
}

fn build(s: &Scenario) -> (BistReadyCore, CompiledCircuit, StumpsConfig) {
    let netlist =
        CpuCoreGenerator::new(CoreProfile::core_x().scaled(s.scale), s.gen_seed).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: s.chains,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    let cc = CompiledCircuit::compile(&core.netlist).expect("random core compiles");
    let stumps = StumpsConfig {
        use_expander: s.use_expander,
        use_compactor: s.use_compactor,
        ..StumpsConfig::default()
    };
    (core, cc, stumps)
}

/// 64-lane batches covering 512 patterns: 4 batches at 128 lanes.
const BATCHES_64: usize = 8;

enum Model {
    StuckAt,
    Transition,
}

fn run_width<W: LaneWord>(
    core: &BistReadyCore,
    cc: &CompiledCircuit,
    stumps: &StumpsConfig,
    faults: &[Fault],
    model: &Model,
    drop_after: u32,
    serial: bool,
) -> WideGradingOutcome {
    let mut session: WideGradingSession<'_, W> = WideGradingSession::new(core, cc, stumps);
    session.set_drop_after(drop_after);
    if serial {
        session.set_threads(1);
        session.sequential();
    }
    let batches = BATCHES_64 * 64 / W::LANES;
    match model {
        Model::StuckAt => session.run_stuck_at(faults.to_vec(), batches),
        Model::Transition => {
            let window = CaptureWindow::all_domains(core.netlist.num_domains().max(1));
            session.run_transition(faults.to_vec(), window, batches)
        }
    }
}

fn check_model(s: &Scenario, model: Model) {
    let (core, cc, stumps) = build(s);
    let faults: Vec<Fault> = match model {
        Model::StuckAt => FaultUniverse::stuck_at(&core.netlist).representatives(),
        Model::Transition => FaultUniverse::transition(&core.netlist)
            .representatives()
            .into_iter()
            .filter(|f| f.is_stem())
            .collect(),
    };

    // No dropping: everything is exactly equal — serial 64-lane
    // reference vs pipelined/parallel 64 and 128 lanes.
    let reference = run_width::<u64>(&core, &cc, &stumps, &faults, &model, u32::MAX, true);
    let r64 = run_width::<u64>(&core, &cc, &stumps, &faults, &model, u32::MAX, false);
    let r128 = run_width::<u128>(&core, &cc, &stumps, &faults, &model, u32::MAX, false);
    for (label, r) in [("64", &r64), ("128", &r128)] {
        assert_eq!(r.patterns, reference.patterns, "{label} lanes: pattern count");
        assert_eq!(
            r.detections, reference.detections,
            "{label} lanes: detection counts diverged from the serial 64-lane path"
        );
        assert_eq!(r.coverage, reference.coverage, "{label} lanes: coverage diverged");
        assert_eq!(
            r.signatures, reference.signatures,
            "{label} lanes: accumulated MISR signatures diverged"
        );
    }
    assert!(
        reference.signatures.iter().any(|sig| !sig.is_zero()),
        "a graded phase must accumulate a nonzero signature"
    );

    // Drop-after-1 (the production flow): detected sets and signatures
    // stay identical (signatures depend only on the fault-free stream).
    let d_ref = run_width::<u64>(&core, &cc, &stumps, &faults, &model, 1, true);
    let d128 = run_width::<u128>(&core, &cc, &stumps, &faults, &model, 1, false);
    assert_eq!(
        d128.undetected_indices(),
        d_ref.undetected_indices(),
        "128 lanes: detected set diverged under fault dropping"
    );
    assert_eq!(d128.signatures, d_ref.signatures, "128 lanes: signatures under dropping");
    assert_eq!(d128.coverage.detected, d_ref.coverage.detected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn wide_stuck_at_grading_matches_64_lane_and_serial(s in arb_scenario()) {
        check_model(&s, Model::StuckAt);
    }

    #[test]
    fn wide_transition_grading_matches_64_lane_and_serial(s in arb_scenario()) {
        check_model(&s, Model::Transition);
    }
}
