//! Lane-width genericity property tests: on randomly shaped cores, the
//! `u128` and `[u64; 4]` PRPG frame fills are bit-identical to the
//! 64-lane batch path **and** to the scalar per-lane reference — the
//! PRPG stream semantics do not depend on how many lanes a pass packs.

use lbist_core::{
    fill_frame_from_prpg, fill_frames_from_prpg_wide, fill_lane_from_prpg, StumpsArchitecture,
    StumpsConfig,
};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
use lbist_exec::LaneWord;
use lbist_sim::CompiledCircuit;
use proptest::prelude::*;

/// A randomly shaped netlist + architecture scenario.
#[derive(Clone, Debug)]
struct Scenario {
    scale: usize,
    gen_seed: u64,
    chains: usize,
    use_expander: bool,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (400usize..1200, 0u64..1000, 2usize..8, any::<bool>()).prop_map(
        |(scale, gen_seed, chains, use_expander)| Scenario {
            scale,
            gen_seed,
            chains,
            use_expander,
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
    let stumps = StumpsConfig { use_expander: s.use_expander, ..StumpsConfig::default() };
    (core, cc, stumps)
}

/// One wide fill vs `W::WORDS` consecutive 64-lane fills vs the scalar
/// per-lane reference, plus stream-position equivalence afterwards.
fn check_width<W: LaneWord>(s: &Scenario) {
    let (core, cc, stumps) = build(s);
    let mut arch_wide = StumpsArchitecture::build(&core, &stumps);
    let mut arch_64 = StumpsArchitecture::build(&core, &stumps);
    let mut arch_scalar = StumpsArchitecture::build(&core, &stumps);

    // Two back-to-back wide batches: the second catches stream-position
    // desynchronisation the first alone would miss.
    for batch in 0..2 {
        let mut wide_frames: Vec<Vec<u64>> = (0..W::WORDS).map(|_| cc.new_frame()).collect();
        fill_frames_from_prpg_wide::<W>(&mut arch_wide, &core, &mut wide_frames);

        for (k, wide_frame) in wide_frames.iter().enumerate() {
            let mut ref_frame = cc.new_frame();
            fill_frame_from_prpg(&mut arch_64, &core, &mut ref_frame);
            assert_eq!(
                *wide_frame,
                ref_frame,
                "{} lanes: batch {batch} sub-frame {k} diverged from the 64-lane path",
                W::LANES
            );

            let mut scalar_frame = cc.new_frame();
            scalar_frame[core.test_mode().index()] = !0;
            for lane in 0..64 {
                fill_lane_from_prpg(&mut arch_scalar, &mut scalar_frame, lane);
            }
            assert_eq!(
                *wide_frame,
                scalar_frame,
                "{} lanes: batch {batch} sub-frame {k} diverged from the scalar reference",
                W::LANES
            );
        }
    }

    // All three generators must land at the same PRPG stream position.
    for (a, b) in arch_wide.domains().iter().zip(arch_64.domains()) {
        assert_eq!(a.prpg.lfsr().state(), b.prpg.lfsr().state());
    }
    for (a, b) in arch_wide.domains().iter().zip(arch_scalar.domains()) {
        assert_eq!(a.prpg.lfsr().state(), b.prpg.lfsr().state());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn u128_fill_matches_64_lane_and_scalar_paths(s in arb_scenario()) {
        check_width::<u128>(&s);
    }

    #[test]
    fn quad_u64_fill_matches_64_lane_and_scalar_paths(s in arb_scenario()) {
        check_width::<[u64; 4]>(&s);
    }

    #[test]
    fn octo_u64_fill_matches_64_lane_and_scalar_paths(s in arb_scenario()) {
        check_width::<[u64; 8]>(&s);
    }
}
