//! The paper's four headline claims, executed as machine-checked
//! properties.

use lbist::clock::{
    CaptureTimingPlan, ClockGatingBlock, DomainTimingPlan, ShiftPathConfig, ShiftPathTiming,
    SkewModel,
};
use lbist::cores::{CoreProfile, CpuCoreGenerator};
use lbist::dft::{fill_random_scan_frame, prepare_core, PrepConfig, TpiMethod};
use lbist::fault::{CaptureWindow, FaultUniverse, TransitionSim};
use lbist::netlist::DomainId;
use lbist::sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Claim 1 (§2.2): "real at-speed testing is guaranteed since no test
/// clock frequency manipulation is conducted" — every capture pulse pair
/// sits exactly one functional period apart, for *mixed* frequencies.
#[test]
fn claim_at_speed_without_frequency_manipulation() {
    let plan = CaptureTimingPlan::with_domains(
        vec![
            DomainTimingPlan::from_mhz(DomainId::new(0), 250.0),
            DomainTimingPlan::from_mhz(DomainId::new(1), 330.0),
            DomainTimingPlan::from_mhz(DomainId::new(2), 100.0),
        ],
        8,
    );
    let waves = ClockGatingBlock::generate(&plan);
    plan.verify_waveforms(&waves, &SkewModel::uniform(3, plan.d3_ps / 2))
        .expect("generated waveforms satisfy the at-speed property");
    for (d, train) in plan.domains.iter().zip(&waves.capture_clocks) {
        let rises = train.rise_times();
        let gap = rises[plan.shift_cycles + 1] - rises[plan.shift_cycles];
        assert_eq!(gap, d.functional_period_ps, "domain {} at speed", d.domain);
    }
}

/// Claim 2 (§2.2): "d1 and d5 can be as long as desired, making it
/// possible to use a single and slow scan enable signal".
#[test]
fn claim_slow_scan_enable() {
    for stretch in [1u64, 10, 1000] {
        let mut plan = CaptureTimingPlan::with_domains(
            vec![DomainTimingPlan::from_mhz(DomainId::new(0), 250.0)],
            4,
        );
        plan.d1_ps *= stretch;
        plan.d5_ps *= stretch;
        let waves = ClockGatingBlock::generate(&plan);
        plan.verify_waveforms(&waves, &SkewModel::uniform(1, 0))
            .expect("stretching the dead-times never breaks at-speed");
        let spacing = waves.scan_enable.min_transition_spacing_ps().unwrap();
        assert!(spacing >= plan.d1_ps, "SE spacing {spacing} >= d1 {}", plan.d1_ps);
    }
}

/// Claim 3 (§2.3): with the PRPG/MISR clock phase *ahead*, shift-path
/// failures are hold-only on the PRPG side (retiming FFs fix them) and
/// setup-only on the MISR side (removing the compactor fixes them).
#[test]
fn claim_skew_tolerant_shift_paths() {
    for lead in [200i64, 400, 800] {
        // Hold violation appears with lead, no retiming...
        let mut c = ShiftPathConfig { phase_lead_ps: lead, ..ShiftPathConfig::default() };
        let r = ShiftPathTiming::new(c.clone()).analyze();
        if lead > (c.clk2q_ps + c.wire_ps) as i64 - c.hold_ps as i64 {
            assert!(r.prpg_to_chain_hold_slack_ps < 0, "lead {lead}");
        }
        assert!(r.chain_to_misr_setup_slack_ps >= 0, "setup never fails on this side");
        // ...and retiming heals it.
        c.retiming_ff = true;
        assert!(ShiftPathTiming::new(c.clone()).analyze().is_clean());
        // Compactor logic creates the setup failure; removing it heals.
        c.compactor_levels = ((c.shift_period_ps / c.level_delay_ps) + 4) as u32;
        assert!(ShiftPathTiming::new(c.clone()).analyze().chain_to_misr_setup_slack_ps < 0);
        c.compactor_levels = 0;
        assert!(ShiftPathTiming::new(c).analyze().is_clean());
    }
}

/// Claim 4 (§2.3): "d3 can be easily adjusted to be larger than the
/// maximal clock skew between the two clock domains" — and the verifier
/// rejects plans where it is not.
#[test]
fn claim_d3_clears_inter_domain_skew() {
    let plan = CaptureTimingPlan::with_domains(
        vec![
            DomainTimingPlan::from_mhz(DomainId::new(0), 250.0),
            DomainTimingPlan::from_mhz(DomainId::new(1), 250.0),
        ],
        2,
    );
    assert!(plan.verify(&SkewModel::uniform(2, plan.d3_ps - 1)).is_ok());
    assert!(plan.verify(&SkewModel::uniform(2, plan.d3_ps)).is_err());
    assert!(plan.verify(&SkewModel::uniform(2, plan.d3_ps * 3)).is_err());
}

/// The at-speed payoff: the double-capture window detects transition
/// faults on a multi-domain core; coverage grows with patterns.
#[test]
fn double_capture_detects_transition_faults_across_domains() {
    let netlist = CpuCoreGenerator::new(CoreProfile::core_x().scaled(200), 3).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 6,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    let cc = CompiledCircuit::compile(&core.netlist).unwrap();
    let stems: Vec<_> = FaultUniverse::transition(&core.netlist)
        .representatives()
        .into_iter()
        .filter(|f| f.is_stem())
        .collect();
    let total = stems.len();
    let mut sim =
        TransitionSim::new(&cc, stems, CaptureWindow::all_domains(core.netlist.num_domains()));
    let mut rng = SmallRng::seed_from_u64(8);
    let mut base = cc.new_frame();
    let mut checkpoints = Vec::new();
    for b in 0..8 {
        fill_random_scan_frame(&cc, core.test_mode(), &mut rng, &mut base);
        sim.run_batch(&base, 64);
        if b == 0 || b == 7 {
            checkpoints.push(sim.coverage().detected);
        }
    }
    assert!(checkpoints[0] > 0, "some transition faults detected in the first batch");
    assert!(checkpoints[1] > checkpoints[0], "coverage grows with patterns");
    assert!(
        sim.coverage().detected as f64 / total as f64 > 0.3,
        "double capture reaches a substantive fraction of transition faults: {}",
        sim.coverage()
    );
}
