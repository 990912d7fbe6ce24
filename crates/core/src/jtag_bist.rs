//! The glue between the TAP and the self-test engine: a [`TapBackend`]
//! that runs real sessions.
//!
//! The paper's pure-BIST interface is `Start`/`Finish`/`Result` plus
//! Boundary-Scan for "loading initial test data or for downloading
//! internal states for fault diagnosis". [`JtagBist`] implements exactly
//! that contract over a [`SelfTestSession`]: `LBIST_START` runs a session,
//! `LBIST_STATUS` reports `(finish, result)` against the golden reference,
//! `LBIST_SIGNATURE` downloads the concatenated MISR contents.
//! `LBIST_SEED` accepts the shifted bits and drops them: seeds reach the
//! PRPGs through [`SessionConfig::reseed`], not through the TAP.

use crate::session::{SelfTestSession, SessionConfig, SessionResult};
use crate::tap::TapBackend;
use lbist_fault::Fault;

/// A TAP backend wrapping a self-test session.
#[derive(Debug)]
pub struct JtagBist<'a> {
    session: SelfTestSession<'a>,
    config: SessionConfig,
    golden: Option<SessionResult>,
    last: Option<SessionResult>,
    finish: bool,
}

impl<'a> JtagBist<'a> {
    /// Wraps a session. The first `Start` records the golden signatures;
    /// later runs compare against them.
    pub fn new(session: SelfTestSession<'a>, config: SessionConfig) -> Self {
        JtagBist { session, config, golden: None, last: None, finish: false }
    }

    /// Injects a defect for subsequent runs (defect emulation for bring-up
    /// and tests).
    pub fn inject(&mut self, fault: Option<Fault>) {
        self.config.injected_fault = fault;
        self.finish = false;
    }

    /// Access to the wrapped session.
    pub fn session(&self) -> &SelfTestSession<'a> {
        &self.session
    }
}

impl<'a> TapBackend for JtagBist<'a> {
    fn start(&mut self) {
        let result = self.session.run(&self.config);
        if self.golden.is_none() && self.config.injected_fault.is_none() {
            self.golden = Some(result.clone());
        }
        self.last = Some(result);
        self.finish = true;
    }

    fn status(&self) -> (bool, bool) {
        let pass = match (&self.golden, &self.last) {
            (Some(g), Some(l)) => l.matches(g),
            _ => false,
        };
        (self.finish, self.finish && pass)
    }

    /// Accepts and drops the bits: every run resets the PRPGs to the
    /// architecture's seeds, and a seed schedule is set with
    /// [`SessionConfig::reseed`].
    fn load_seed(&mut self, _bits: &[bool]) {}

    fn signature_bits(&self) -> Vec<bool> {
        match &self.last {
            None => Vec::new(),
            Some(r) => r
                .signatures
                .iter()
                .flat_map(|sig| (0..sig.len()).map(move |i| sig.get(i)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::StumpsConfig;
    use crate::tap::{TapController, TapInstruction};
    use lbist_cores::{CoreProfile, CpuCoreGenerator};
    use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
    use lbist_fault::FaultKind;

    fn core() -> BistReadyCore {
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(400), 77).generate();
        prepare_core(
            &nl,
            &PrepConfig {
                total_chains: 4,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        )
    }

    #[test]
    fn full_jtag_bist_cycle() {
        let c = core();
        let session = SelfTestSession::new(&c, &StumpsConfig::default());
        let backend =
            JtagBist::new(session, SessionConfig { num_patterns: 16, ..Default::default() });
        let mut tap = TapController::new(backend);

        // Golden run.
        tap.load_instruction(TapInstruction::LbistStart);
        tap.shift_dr(&[true]);
        tap.load_instruction(TapInstruction::LbistStatus);
        let status = tap.shift_dr(&[false, false]);
        assert_eq!(status, vec![true, true], "healthy chip: finish + pass");

        // Signature download: width equals the sum of MISR widths.
        tap.load_instruction(TapInstruction::LbistSignature);
        let width: usize = tap.backend().session().architecture().misr_widths().iter().sum();
        let sig = tap.shift_dr(&vec![false; width]);
        assert_eq!(sig.len(), width);
        assert!(sig.iter().any(|&b| b), "a real signature is not all-zero");
    }

    #[test]
    fn defective_chip_fails_over_jtag() {
        let c = core();
        let session = SelfTestSession::new(&c, &StumpsConfig::default());
        let backend =
            JtagBist::new(session, SessionConfig { num_patterns: 24, ..Default::default() });
        let mut tap = TapController::new(backend);
        tap.load_instruction(TapInstruction::LbistStart);
        tap.shift_dr(&[true]); // golden
                               // Find an injectable defect the pattern set catches.
        let mut caught = false;
        for i in 0..c.netlist.dffs().len().min(8) {
            let site = c.netlist.fanins(c.netlist.dffs()[i])[0];
            for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
                tap.backend_mut().inject(Some(Fault::stem(site, kind)));
                tap.load_instruction(TapInstruction::LbistStart);
                tap.shift_dr(&[true]);
                tap.load_instruction(TapInstruction::LbistStatus);
                let status = tap.shift_dr(&[false, false]);
                assert!(status[0], "finish must assert");
                if !status[1] {
                    caught = true;
                    break;
                }
            }
            if caught {
                break;
            }
        }
        assert!(caught, "some injected defect must fail the signature");
        // Healing the chip restores PASS.
        tap.backend_mut().inject(None);
        tap.load_instruction(TapInstruction::LbistStart);
        tap.shift_dr(&[true]);
        tap.load_instruction(TapInstruction::LbistStatus);
        let status = tap.shift_dr(&[false, false]);
        assert_eq!(status, vec![true, true]);
    }
}
