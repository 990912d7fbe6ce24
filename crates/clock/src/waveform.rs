//! Pulse trains and digital waveforms with ASCII rendering.

use std::fmt;

/// One clock pulse: rising and falling edge times in picoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pulse {
    /// Rising-edge time.
    pub rise_ps: u64,
    /// Falling-edge time.
    pub fall_ps: u64,
}

impl Pulse {
    /// Creates a pulse.
    ///
    /// # Panics
    ///
    /// Panics unless `rise_ps < fall_ps`.
    pub fn new(rise_ps: u64, fall_ps: u64) -> Self {
        assert!(rise_ps < fall_ps, "a pulse must rise before it falls");
        Pulse { rise_ps, fall_ps }
    }
}

/// A named train of non-overlapping pulses (a gated clock line).
///
/// # Example
///
/// ```
/// use lbist_clock::{Pulse, PulseTrain};
/// let mut t = PulseTrain::new("TCK1");
/// t.push(Pulse::new(0, 500));
/// t.push(Pulse::new(1000, 1500));
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.rise_times()[1], 1000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PulseTrain {
    name: String,
    pulses: Vec<Pulse>,
}

impl PulseTrain {
    /// An empty train with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        PulseTrain { name: name.into(), pulses: Vec::new() }
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a pulse.
    ///
    /// # Panics
    ///
    /// Panics if the pulse starts at or before the previous pulse's falling
    /// edge (pulses must be ordered and non-overlapping).
    pub fn push(&mut self, pulse: Pulse) {
        if let Some(last) = self.pulses.last() {
            assert!(pulse.rise_ps > last.fall_ps, "pulses must be ordered and disjoint");
        }
        self.pulses.push(pulse);
    }

    /// The pulses in time order.
    pub fn pulses(&self) -> &[Pulse] {
        &self.pulses
    }

    /// Number of pulses.
    pub fn len(&self) -> usize {
        self.pulses.len()
    }

    /// `true` if the train carries no pulses.
    pub fn is_empty(&self) -> bool {
        self.pulses.is_empty()
    }

    /// All rising-edge times.
    pub fn rise_times(&self) -> Vec<u64> {
        self.pulses.iter().map(|p| p.rise_ps).collect()
    }

    /// The line level at time `t` (high during a pulse).
    pub fn level_at(&self, t: u64) -> bool {
        self.pulses.iter().any(|p| p.rise_ps <= t && t < p.fall_ps)
    }

    /// Time of the last falling edge (0 for an empty train).
    pub fn end_ps(&self) -> u64 {
        self.pulses.last().map(|p| p.fall_ps).unwrap_or(0)
    }
}

/// A named level waveform (e.g. the scan-enable signal), as a list of
/// `(time, level)` transitions starting from an initial level.
///
/// # Example
///
/// ```
/// use lbist_clock::DigitalWave;
/// let mut se = DigitalWave::new("SE", true);
/// se.transition_to(false, 1_000);
/// se.transition_to(true, 9_000);
/// assert!(se.level_at(500));
/// assert!(!se.level_at(5_000));
/// assert!(se.level_at(9_500));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigitalWave {
    name: String,
    initial: bool,
    transitions: Vec<(u64, bool)>,
}

impl DigitalWave {
    /// A wave holding `initial` from time 0.
    pub fn new(name: impl Into<String>, initial: bool) -> Self {
        DigitalWave { name: name.into(), initial, transitions: Vec::new() }
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a transition.
    ///
    /// # Panics
    ///
    /// Panics if transitions are not strictly time-ordered or the level
    /// does not actually change.
    pub fn transition_to(&mut self, level: bool, at_ps: u64) {
        let (last_t, last_l) = self.transitions.last().copied().unwrap_or((0, self.initial));
        assert!(at_ps > last_t || self.transitions.is_empty(), "transitions must be ordered");
        assert_ne!(level, last_l, "transition must change the level");
        self.transitions.push((at_ps, level));
    }

    /// The level at time `t`.
    pub fn level_at(&self, t: u64) -> bool {
        let mut level = self.initial;
        for &(at, l) in &self.transitions {
            if at <= t {
                level = l;
            } else {
                break;
            }
        }
        level
    }

    /// All transitions as `(time, new_level)`.
    pub fn transitions(&self) -> &[(u64, bool)] {
        &self.transitions
    }

    /// Minimum spacing between consecutive transitions — how "slow" the
    /// signal may be. The paper's SE claim is that this can be made
    /// arbitrarily large via `d1`/`d5`.
    pub fn min_transition_spacing_ps(&self) -> Option<u64> {
        self.transitions.windows(2).map(|w| w[1].0 - w[0].0).min()
    }
}

/// Renders a set of waveforms as an ASCII timing chart (one row per
/// signal), sampled at `resolution_ps` per character — the Fig. 2 view.
pub fn render_chart(
    trains: &[&PulseTrain],
    waves: &[&DigitalWave],
    until_ps: u64,
    resolution_ps: u64,
) -> String {
    render_chart_range(trains, waves, 0, until_ps, resolution_ps)
}

/// Like [`render_chart`] but over an explicit `[from_ps, until_ps]` window
/// — used to zoom into the capture window where the at-speed pulse pairs
/// live.
pub fn render_chart_range(
    trains: &[&PulseTrain],
    waves: &[&DigitalWave],
    from_ps: u64,
    until_ps: u64,
    resolution_ps: u64,
) -> String {
    assert!(resolution_ps > 0, "resolution must be positive");
    assert!(until_ps > from_ps, "empty render window");
    let cols = ((until_ps - from_ps) / resolution_ps + 1) as usize;
    let name_w = trains
        .iter()
        .map(|t| t.name().len())
        .chain(waves.iter().map(|w| w.name().len()))
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    let mut row = |name: &str, level: &dyn Fn(u64) -> bool| {
        out.push_str(&format!("{name:<name_w$} "));
        let mut prev = level(from_ps);
        for c in 0..cols {
            let t = from_ps + c as u64 * resolution_ps;
            let cur = level(t);
            out.push(match (prev, cur) {
                (false, false) => '_',
                (true, true) => '#',
                (false, true) => '/',
                (true, false) => '\\',
            });
            prev = cur;
        }
        out.push('\n');
    };
    for t in trains {
        row(t.name(), &|time| t.level_at(time));
    }
    for w in waves {
        row(w.name(), &|time| w.level_at(time));
    }
    out
}

impl fmt::Display for PulseTrain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} pulses", self.name, self.pulses.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_train_levels() {
        let mut t = PulseTrain::new("ck");
        t.push(Pulse::new(10, 20));
        t.push(Pulse::new(30, 40));
        assert!(!t.level_at(5));
        assert!(t.level_at(15));
        assert!(!t.level_at(25));
        assert!(t.level_at(30));
        assert!(!t.level_at(40));
        assert_eq!(t.end_ps(), 40);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_pulses_rejected() {
        let mut t = PulseTrain::new("ck");
        t.push(Pulse::new(10, 20));
        t.push(Pulse::new(20, 30));
    }

    #[test]
    #[should_panic(expected = "rise before")]
    fn inverted_pulse_rejected() {
        Pulse::new(20, 20);
    }

    #[test]
    fn wave_levels_and_spacing() {
        let mut se = DigitalWave::new("SE", true);
        se.transition_to(false, 100);
        se.transition_to(true, 700);
        assert_eq!(se.min_transition_spacing_ps(), Some(600));
        assert!(se.level_at(0));
        assert!(!se.level_at(100));
        assert!(se.level_at(700));
    }

    #[test]
    #[should_panic(expected = "change the level")]
    fn redundant_transition_rejected() {
        let mut se = DigitalWave::new("SE", true);
        se.transition_to(true, 100);
    }

    #[test]
    fn chart_renders_edges() {
        let mut t = PulseTrain::new("TCK1");
        t.push(Pulse::new(2, 4));
        let mut se = DigitalWave::new("SE", true);
        se.transition_to(false, 6);
        let chart = render_chart(&[&t], &[&se], 8, 1);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('/'));
        assert!(lines[0].contains('\\'));
        assert!(lines[1].contains('\\'));
    }
}
