//! The BIST controller state machine (`Start` / `Finish` / `Result`).

use lbist_netlist::DomainId;

/// Controller phases, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BistPhase {
    /// Waiting for `Start`.
    Idle,
    /// Shifting a pattern in (and the previous response out). SE high.
    Load,
    /// The double-capture window: two pulses per domain, `d3`-ordered.
    /// SE low.
    CaptureWindow,
    /// Final response flush after the last pattern. SE high.
    Unload,
    /// Signature comparison against the golden reference.
    Compare,
    /// `Finish` asserted; `Result` valid.
    Done,
}

/// Static sequencing parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Shift cycles per load/unload (max chain length).
    pub shift_cycles: usize,
    /// Patterns to apply.
    pub num_patterns: usize,
    /// Clock domains (each gets two pulses per capture window).
    pub num_domains: usize,
}

/// Cycle-level BIST controller.
///
/// Each [`BistController::step`] advances one tick: a shift cycle during
/// `Load`/`Unload`, or one capture pulse during the capture window. The
/// controller exposes the paper's three-pin interface (`start`,
/// `finish`, `result`) plus the scan-enable level and the identity of the
/// current capture pulse. It is a standalone model of the sequencing:
/// [`crate::SelfTestSession`] applies the same load/capture/unload order
/// without stepping one.
///
/// # Example
///
/// ```
/// use lbist_core::{BistController, BistPhase, ControllerConfig};
/// let mut c = BistController::new(ControllerConfig {
///     shift_cycles: 3,
///     num_patterns: 1,
///     num_domains: 1,
/// });
/// assert_eq!(c.phase(), BistPhase::Idle);
/// c.start();
/// // 3 shift ticks, 2 capture ticks, 3 unload ticks, 1 compare tick.
/// for _ in 0..9 { c.step(); }
/// assert!(c.finish());
/// ```
#[derive(Clone, Debug)]
pub struct BistController {
    config: ControllerConfig,
    phase: BistPhase,
    tick_in_phase: usize,
    patterns_done: usize,
    result: Option<bool>,
}

impl BistController {
    /// A controller in `Idle`.
    ///
    /// # Panics
    ///
    /// Panics if any config field is zero.
    pub fn new(config: ControllerConfig) -> Self {
        assert!(config.shift_cycles > 0, "shift_cycles must be positive");
        assert!(config.num_patterns > 0, "num_patterns must be positive");
        assert!(config.num_domains > 0, "num_domains must be positive");
        BistController {
            config,
            phase: BistPhase::Idle,
            tick_in_phase: 0,
            patterns_done: 0,
            result: None,
        }
    }

    /// The sequencing parameters.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Current phase.
    pub fn phase(&self) -> BistPhase {
        self.phase
    }

    /// Patterns whose capture window has completed.
    pub fn patterns_done(&self) -> usize {
        self.patterns_done
    }

    /// The `Start` pin: begins a session from `Idle` (or restarts from
    /// `Done`).
    pub fn start(&mut self) {
        self.phase = BistPhase::Load;
        self.tick_in_phase = 0;
        self.patterns_done = 0;
        self.result = None;
    }

    /// The `Finish` pin.
    pub fn finish(&self) -> bool {
        self.phase == BistPhase::Done
    }

    /// The `Result` pin (`Some(true)` = pass), valid once `finish()`.
    pub fn result(&self) -> Option<bool> {
        self.result
    }

    /// Scan-enable level for the current phase — high exactly while
    /// shifting, and *slow*: it only changes at Load/Capture boundaries,
    /// which the timing plan separates by `d1`/`d5`.
    pub fn scan_enable(&self) -> bool {
        matches!(self.phase, BistPhase::Load | BistPhase::Unload)
    }

    /// During the capture window: which domain pulses on this tick and
    /// whether it is the launch (0) or capture (1) pulse.
    pub fn capture_pulse(&self) -> Option<(DomainId, u8)> {
        if self.phase != BistPhase::CaptureWindow {
            return None;
        }
        let domain = self.tick_in_phase / 2;
        let pulse = (self.tick_in_phase % 2) as u8;
        Some((DomainId::new(domain as u16), pulse))
    }

    /// Records the comparison outcome (driven by the compare logic during
    /// `Compare`).
    pub fn set_result(&mut self, pass: bool) {
        self.result = Some(pass);
    }

    /// Advances one tick. Returns the phase *entered* after the tick.
    pub fn step(&mut self) -> BistPhase {
        match self.phase {
            BistPhase::Idle | BistPhase::Done => {}
            BistPhase::Load => {
                self.tick_in_phase += 1;
                if self.tick_in_phase >= self.config.shift_cycles {
                    self.phase = BistPhase::CaptureWindow;
                    self.tick_in_phase = 0;
                }
            }
            BistPhase::CaptureWindow => {
                self.tick_in_phase += 1;
                if self.tick_in_phase >= 2 * self.config.num_domains {
                    self.patterns_done += 1;
                    self.tick_in_phase = 0;
                    self.phase = if self.patterns_done >= self.config.num_patterns {
                        BistPhase::Unload
                    } else {
                        BistPhase::Load
                    };
                }
            }
            BistPhase::Unload => {
                self.tick_in_phase += 1;
                if self.tick_in_phase >= self.config.shift_cycles {
                    self.phase = BistPhase::Compare;
                    self.tick_in_phase = 0;
                }
            }
            BistPhase::Compare => {
                self.phase = BistPhase::Done;
                self.tick_in_phase = 0;
            }
        }
        self.phase
    }

    /// Total ticks a full session takes (for progress reporting).
    pub fn total_ticks(&self) -> usize {
        let per_pattern = self.config.shift_cycles + 2 * self.config.num_domains;
        per_pattern * self.config.num_patterns + self.config.shift_cycles + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ControllerConfig {
        ControllerConfig { shift_cycles: 4, num_patterns: 3, num_domains: 2 }
    }

    #[test]
    fn full_session_sequence() {
        let mut c = BistController::new(config());
        assert_eq!(c.phase(), BistPhase::Idle);
        c.step();
        assert_eq!(c.phase(), BistPhase::Idle, "idle holds until start");
        c.start();
        let mut phases = Vec::new();
        for _ in 0..c.total_ticks() {
            phases.push(c.phase());
            c.step();
        }
        assert!(c.finish());
        assert_eq!(c.patterns_done(), 3);
        // Counts: 3 loads of 4 + 3 windows of 4 + unload 4 + compare 1.
        let loads = phases.iter().filter(|&&p| p == BistPhase::Load).count();
        let caps = phases.iter().filter(|&&p| p == BistPhase::CaptureWindow).count();
        let unloads = phases.iter().filter(|&&p| p == BistPhase::Unload).count();
        assert_eq!(loads, 12);
        assert_eq!(caps, 12);
        assert_eq!(unloads, 4);
    }

    #[test]
    fn scan_enable_levels() {
        let mut c = BistController::new(config());
        c.start();
        assert!(c.scan_enable(), "SE high during load");
        for _ in 0..4 {
            c.step();
        }
        assert_eq!(c.phase(), BistPhase::CaptureWindow);
        assert!(!c.scan_enable(), "SE low during capture");
    }

    #[test]
    fn capture_pulses_are_ordered_pairs() {
        let mut c = BistController::new(config());
        c.start();
        for _ in 0..4 {
            c.step();
        }
        let mut pulses = Vec::new();
        while c.phase() == BistPhase::CaptureWindow {
            pulses.push(c.capture_pulse().unwrap());
            c.step();
        }
        assert_eq!(
            pulses,
            vec![
                (DomainId::new(0), 0),
                (DomainId::new(0), 1),
                (DomainId::new(1), 0),
                (DomainId::new(1), 1),
            ]
        );
    }

    #[test]
    fn result_flows_through() {
        let mut c = BistController::new(ControllerConfig {
            shift_cycles: 1,
            num_patterns: 1,
            num_domains: 1,
        });
        c.start();
        while !matches!(c.phase(), BistPhase::Compare) {
            c.step();
        }
        c.set_result(true);
        c.step();
        assert!(c.finish());
        assert_eq!(c.result(), Some(true));
    }

    #[test]
    fn restart_clears_state() {
        let mut c = BistController::new(config());
        c.start();
        for _ in 0..c.total_ticks() {
            c.step();
        }
        assert!(c.finish());
        c.start();
        assert_eq!(c.phase(), BistPhase::Load);
        assert_eq!(c.patterns_done(), 0);
        assert_eq!(c.result(), None);
    }
}
