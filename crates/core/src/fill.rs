//! Architecture-level PRPG frame fills: turning the per-domain PRPG
//! streams into simulation frames of scan states, at 64 or 128 lanes.
//!
//! These used to live in the bench harness, but they are properties of
//! the STUMPS architecture, not of any experiment: a *fill* is what the
//! chains hold after a full shift-in, exactly as [`crate::SelfTestSession`]
//! loads them, packed one scan load per frame lane. The graders
//! (`lbist-fault`) consume the frames directly, so the whole
//! fill → simulate → detect pipeline is lane-width generic end to end.

use crate::architecture::StumpsArchitecture;
use lbist_dft::BistReadyCore;
use lbist_exec::LaneWord;

/// Fills all `W::LANES` lanes of `frame` (one `W` word per node) with
/// consecutive PRPG scan loads: lane `ℓ` is what the chains hold after
/// the `ℓ`-th full shift-in of the stream. Primary inputs are held at
/// zero (`test_mode` high), as in BIST mode. By the [`LaneWord`]
/// sub-word layout, `frame[node].word(k)` of a 128-lane fill is
/// bit-identical to the `k`-th of two consecutive 64-lane fills
/// (property-tested in the bench crate). The lane machinery is built
/// per call ([`lbist_tpg::Prpg::fill_lanes`]).
pub fn fill_frame_from_prpg<W: LaneWord>(
    arch: &mut StumpsArchitecture,
    core: &BistReadyCore,
    frame: &mut [W],
) {
    frame.fill(W::zero());
    frame[core.test_mode().index()] = W::ones();
    let shift_cycles = arch.max_chain_length().max(1);
    for db in arch.domains_mut() {
        let chains = &db.chains;
        db.prpg.fill_lanes(shift_cycles, |cycle, words| {
            // After `shift_cycles` shifts, cell i holds the bit inserted
            // at cycle shift_cycles-1-i; equivalently the bits of cycle
            // `cycle` land in cell `shift_cycles - 1 - cycle` of every
            // chain long enough to still hold them.
            let cell_pos = shift_cycles - 1 - cycle;
            for (chain, &word) in chains.iter().zip(words) {
                if let Some(&cell) = chain.cells.get(cell_pos) {
                    frame[cell.index()] = word;
                }
            }
        });
    }
}

/// Fills a single lane of `frame` with one PRPG scan load, stepping every
/// domain's PRPG exactly one load's worth of cycles — the scalar
/// counterpart of [`fill_frame_from_prpg`] for streams whose loads are not
/// 64-aligned (e.g. the single deterministic load after a reseed window).
/// Only the targeted lane's bits of the scan cells are touched; the
/// caller zeroes the frame and holds `test_mode` as usual.
///
/// # Panics
///
/// Panics if `lane >= 64`.
pub fn fill_lane_from_prpg(arch: &mut StumpsArchitecture, frame: &mut [u64], lane: usize) {
    assert!(lane < 64, "a frame holds 64 lanes");
    let shift_cycles = arch.max_chain_length().max(1);
    let mask = 1u64 << lane;
    for db in arch.domains_mut() {
        for cycle in 0..shift_cycles {
            let bits = db.prpg.step_vector();
            let cell_pos = shift_cycles - 1 - cycle;
            for (chain, bit) in db.chains.iter().zip(bits) {
                if let Some(&cell) = chain.cells.get(cell_pos) {
                    if bit {
                        frame[cell.index()] |= mask;
                    } else {
                        frame[cell.index()] &= !mask;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::StumpsConfig;
    use lbist_cores::{CoreProfile, CpuCoreGenerator};
    use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
    use lbist_sim::CompiledCircuit;

    fn small_core() -> BistReadyCore {
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(600), 21).generate();
        prepare_core(
            &nl,
            &PrepConfig {
                total_chains: 5,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        )
    }

    /// One 128-lane fill is, sub-word for sub-word, two consecutive
    /// 64-lane fills, and leaves the PRPGs at the same stream position.
    #[test]
    fn wide_frame_fill_matches_destaged_frames() {
        let core = small_core();
        let cc = CompiledCircuit::compile(&core.netlist).unwrap();
        let stumps = StumpsConfig::default();
        let mut arch_wide = StumpsArchitecture::build(&core, &stumps);
        let mut arch_64 = StumpsArchitecture::build(&core, &stumps);
        for batch in 0..2 {
            let mut wide: Vec<u128> = cc.new_wide_frame();
            fill_frame_from_prpg(&mut arch_wide, &core, &mut wide);
            for k in 0..2 {
                let mut frame = cc.new_frame();
                fill_frame_from_prpg(&mut arch_64, &core, &mut frame);
                for (idx, (w, &f)) in wide.iter().zip(&frame).enumerate() {
                    assert_eq!(w.word(k), f, "batch {batch} node {idx} sub-word {k}");
                }
            }
        }
        for (a, b) in arch_wide.domains().iter().zip(arch_64.domains()) {
            assert_eq!(a.prpg.lfsr().state(), b.prpg.lfsr().state());
        }
    }
}
