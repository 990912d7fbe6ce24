//! The slow reference grader the compiled kernel is checked against.
//!
//! [`crate::FaultSim`] grades on the compiled kernel: tracing to the
//! fanout-free-region stem plus a memoized stem drain for stuck-at
//! faults, event-driven window replay for transition faults, sharded
//! across the pool with fault dropping. This module grades the same
//! batch the plain way — every fault, no dropping, one thread, a full
//! netlist re-simulation per fault, no propagation code shared with the
//! kernel — and returns each fault's per-lane detection word. Tests and
//! `bench_faultsim` compare the kernel's detection counts against the
//! popcounts of these words.
//!
//! Both graders mask their words to the first `num_patterns` lanes, as
//! the simulator does.
//!
//! # Stuck-at
//!
//! [`stuck_at`] evaluates the source frame with
//! [`CompiledCircuit::eval2`], then re-simulates the whole frame per
//! fault with [`CompiledCircuit::eval_node2`] in schedule order, the
//! site holding its faulty word: the forced value for a stem, the gate
//! evaluated with one pin forced for a branch. The detection word ORs
//! the differences at every observed node.
//!
//! A fault on a flip-flop (a stem on `Q` or a branch on the `D` pin) is
//! not re-simulated: its word is the forced value against the
//! fault-free `D` source, which the capture latches directly, and it
//! counts whether or not the flip-flop is in the observation set. A
//! `Q` stem whose fault-free word already equals the forced value
//! detects nothing.
//!
//! # Transition
//!
//! [`transition`] re-simulates the whole capture window per fault with
//! [`CompiledCircuit::eval_node2`] in schedule order:
//!
//! * the fault-free window is evaluated first: frame `F0` from the base,
//!   then at every boundary the capturing domain's flip-flops load their
//!   `D` words;
//! * in the faulty window, flip-flop state is captured from the *faulty*
//!   frame, so a wrong value latched at one boundary feeds every later
//!   frame;
//! * an at-speed frame activates the fault on the lanes where the
//!   fault-free frames show the launched transition at the site (rising
//!   for slow-to-rise, falling for slow-to-fall), masked to the real
//!   lanes;
//! * on activated lanes the site's word is flipped for that frame only.
//!   For a combinational site the flip applies on top of the fault-free
//!   word, and the result stands in for the site's evaluated word; for a
//!   flip-flop site it applies on top of the faulty flop state, which
//!   itself is left unchanged;
//! * the detection word ORs the differences between the faulty and the
//!   fault-free flip-flop states at the end of the window — what the
//!   unload shifts into the MISRs.

use crate::transition::CaptureWindow;
use crate::{Fault, FaultKind};
use lbist_exec::LaneWord;
use lbist_netlist::{GateKind, NodeId};
use lbist_sim::{eval_gate, CompiledCircuit};

/// Grades `faults` under the stuck-at model against one batch: `source`
/// holds the source words (inputs, flip-flop states, X-source
/// substitutes), of which the first `num_patterns` lanes are real.
/// Returns each fault's detection word, in fault-list order.
pub fn stuck_at<W: LaneWord>(
    cc: &CompiledCircuit,
    faults: &[Fault],
    observed: &[NodeId],
    source: &[W],
    num_patterns: usize,
) -> Vec<W> {
    let mut good = source.to_vec();
    cc.eval2(&mut good);
    let lane_mask = W::mask_lanes(num_patterns);
    faults
        .iter()
        .map(|fault| {
            let site = fault.node;
            let forced = if fault.kind.faulty_value() { W::ones() } else { W::zero() };
            let detected = if cc.kind(site) == GateKind::Dff {
                if fault.is_stem() && good[site.index()] == forced {
                    W::zero()
                } else {
                    forced.xor(good[cc.fanins(site)[0].index()])
                }
            } else {
                // A source site keeps the forced word; a gate site gets
                // its faulty word in schedule order.
                let mut faulty = source.to_vec();
                faulty[site.index()] = forced;
                for &node in cc.schedule() {
                    faulty[node.index()] = match fault.pin {
                        _ if node != site => cc.eval_node2(node, &faulty),
                        None => forced,
                        Some(pin) => {
                            let mut words: Vec<W> =
                                cc.fanins(site).iter().map(|f| faulty[f.index()]).collect();
                            words[pin as usize] = forced;
                            eval_gate(cc.kind(site), &words)
                        }
                    };
                }
                observed.iter().fold(W::zero(), |d, o| d.or(faulty[o.index()].xor(good[o.index()])))
            };
            detected.and(lane_mask)
        })
        .collect()
}

/// Grades stem transition `faults` across `window` against one batch:
/// `base` carries the scan state in its flip-flop words and the held
/// input words, of which the first `num_patterns` lanes are real.
/// Returns each fault's detection word, in fault-list order.
///
/// # Panics
///
/// Panics if a fault is not a transition kind.
pub fn transition<W: LaneWord>(
    cc: &CompiledCircuit,
    faults: &[Fault],
    window: &CaptureWindow,
    base: &[W],
    num_patterns: usize,
) -> Vec<W> {
    let lane_mask = W::mask_lanes(num_patterns);
    let good = window_frames(cc, window, base, |_, _, word| word);
    let final_good = good.last().expect("a capture window spans at least one frame");
    faults
        .iter()
        .map(|fault| {
            let site = fault.node;
            let activation: Vec<W> = (0..window.num_frames())
                .map(|f| {
                    if !window.is_at_speed_frame(f) {
                        return W::zero();
                    }
                    let (prev, cur) = (good[f - 1][site.index()], good[f][site.index()]);
                    let launched = match fault.kind {
                        FaultKind::SlowToRise => prev.not().and(cur),
                        FaultKind::SlowToFall => prev.and(cur.not()),
                        kind => panic!("transition oracle got a {kind:?} fault"),
                    };
                    launched.and(lane_mask)
                })
                .collect();
            let faulty = window_frames(cc, window, base, |f, node, word| {
                if node != site || activation[f].is_zero() {
                    word
                } else if cc.kind(site) == GateKind::Dff {
                    word.xor(activation[f])
                } else {
                    good[f][site.index()].xor(activation[f])
                }
            });
            let final_faulty = faulty.last().expect("a capture window spans at least one frame");
            cc.dffs()
                .iter()
                .fold(W::zero(), |d, ff| d.or(final_faulty[ff.index()].xor(final_good[ff.index()])))
        })
        .collect()
}

/// Evaluates every frame of the capture window from `base`: frame `F0`
/// holds the base's flip-flop state, and at each boundary the capturing
/// domain's flip-flops load their `D` words from the frame before.
/// `word_in(f, node, word)` gives the word a flip-flop or an evaluated
/// node holds in frame `f`, where `word` is its state or evaluated word.
/// The flip-flop state itself is kept apart from the frame, so a word
/// changed at a flip-flop lasts one frame.
fn window_frames<W: LaneWord>(
    cc: &CompiledCircuit,
    window: &CaptureWindow,
    base: &[W],
    word_in: impl Fn(usize, NodeId, W) -> W,
) -> Vec<Vec<W>> {
    let mut frames: Vec<Vec<W>> = Vec::with_capacity(window.num_frames());
    let mut state: Vec<W> = cc.dffs().iter().map(|ff| base[ff.index()]).collect();
    for f in 0..window.num_frames() {
        if let Some(prev) = frames.last() {
            let dom = window.capturing_domain(f - 1).expect("every non-final boundary captures");
            for (i, &ff) in cc.dffs().iter().enumerate() {
                if cc.dff_domain(i) == dom {
                    state[i] = prev[cc.fanins(ff)[0].index()];
                }
            }
        }
        let mut frame = base.to_vec();
        for (&ff, &q) in cc.dffs().iter().zip(&state) {
            frame[ff.index()] = word_in(f, ff, q);
        }
        for &node in cc.schedule() {
            frame[node.index()] = word_in(f, node, cc.eval_node2(node, &frame));
        }
        frames.push(frame);
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::{DomainId, Netlist};

    /// ff_a -> NOT -> ff_b in one domain: a scanned-in 1 in ff_a makes
    /// the inverter rise in the at-speed frame, and a slow-to-rise there
    /// is captured wrong into ff_b on every lane.
    #[test]
    fn slow_to_rise_on_an_inverter_is_detected() {
        let mut nl = Netlist::new("pipe");
        let pi = nl.add_input("pi");
        let ff_a = nl.add_dff(pi, DomainId::new(0));
        let inv = nl.add_gate(GateKind::Not, &[ff_a]);
        let ff_b = nl.add_dff(inv, DomainId::new(0));
        nl.add_output("q", ff_b);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut base = cc.new_frame();
        base[ff_a.index()] = !0;
        let faults =
            [Fault::stem(inv, FaultKind::SlowToRise), Fault::stem(inv, FaultKind::SlowToFall)];
        let det = transition(&cc, &faults, &CaptureWindow::all_domains(1), &base, 8);
        assert_eq!(det, vec![0xFF, 0]);
    }

    /// An unobserved flip-flop's D-pin fault still counts: the capture
    /// latches the forced value directly.
    #[test]
    fn d_pin_fault_counts_without_observation() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let ff = nl.add_dff(a, DomainId::new(0));
        nl.add_output("q", ff);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut source = cc.new_frame();
        source[a.index()] = 0b101;
        let faults = [Fault::branch(ff, 0, FaultKind::StuckAt0)];
        assert_eq!(stuck_at(&cc, &faults, &[], &source, 2), vec![0b001]);
    }
}
