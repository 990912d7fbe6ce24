//! Launch-on-capture transition-fault simulation across the paper's
//! double-capture window.
//!
//! The capture window (Fig. 2) issues, for each clock domain in `d3`-spaced
//! sequence, a pair of pulses `d2`/`d4` apart — the functional period. The
//! first pulse *launches* transitions (flip-flop outputs change from the
//! scanned-in state to captured functional data); the second pulse
//! *captures* the response one functional period later. A transition fault
//! is detected when the launched transition at its site fails to settle in
//! time and the resulting wrong value is captured into some flip-flop that
//! the unload then observes.
//!
//! The simulator models the whole window frame by frame:
//!
//! ```text
//! F0 (scan state) --C1(dom0)--> F1 --C2(dom0)--> F2 --C1(dom1)--> F3 ...
//! ```
//!
//! Odd frames (between a domain's two pulses) last one functional period —
//! only there can a slow transition be "caught". Even frames are the long
//! `d3`/`d5` intervals, where every transition has time to settle; fault
//! effects cross them only as wrong *values* already captured into
//! flip-flops, which the simulator carries in a per-fault state overlay.
//!
//! Every frame but the last ends in one domain's pulse, and a fault
//! effect survives the boundary only through the flip-flops that pulse
//! loads. So each frame is evaluated, and each fault replayed, only over
//! the frame's **capture cone**: the instructions whose result can reach
//! a `D` input of those flip-flops (see the `kernel` module). The final
//! frame captures nothing, so no fault is replayed through it.
//!
//! Grading runs on the shared [`FaultSim`] core, so it is sharded across
//! the persistent `lbist-exec` pool exactly like stuck-at
//! grading: the fault-free window frames are computed once and shared
//! read-only; each worker replays faults from its shard with its own
//! propagation scratch and flip-flop overlay, so parallel and serial
//! coverage are bit-identical. [`replay_window`] carries a fault across
//! the window; within a frame, [`KernelStep`] propagates it through the
//! frame's cone of the lowered program.

use crate::kernel::{KernelScratch, KernelStep, TransitionKernelPlan};
use crate::sim::{Batch, FaultModel, FaultSim};
use crate::{Fault, FaultKind};
use lbist_exec::LaneWord;
use lbist_netlist::{DomainId, NodeId};
use lbist_sim::{CompiledCircuit, KernelProgram};

/// The default 64-lane launch-on-capture simulator —
/// [`WideTransitionSim`] at the `u64` frame width every existing call
/// site uses.
pub type TransitionSim<'a> = WideTransitionSim<'a, u64>;

/// Launch-on-capture transition-fault simulator: [`FaultSim`] under the
/// [`Transition`] model, generic over the lane width.
pub type WideTransitionSim<'a, W = u64> = FaultSim<'a, Transition<W>, W>;

/// The capture-window schedule: which domains pulse, in which order.
///
/// Each listed domain receives two pulses; the `d3` gap orders domains so
/// inter-domain skew cannot corrupt capture (the paper sets `d3` larger
/// than the worst-case skew — the timing side of that argument lives in
/// `lbist-clock`).
///
/// # Example
///
/// ```
/// use lbist_fault::CaptureWindow;
/// use lbist_netlist::DomainId;
/// let w = CaptureWindow::all_domains(3);
/// assert_eq!(w.order().len(), 3);
/// assert_eq!(w.num_frames(), 7); // F0 + 2 per domain
/// let custom = CaptureWindow::new(vec![DomainId::new(1), DomainId::new(0)]);
/// assert_eq!(custom.order()[0], DomainId::new(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureWindow {
    order: Vec<DomainId>,
}

impl CaptureWindow {
    /// A window pulsing the given domains in the given order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is empty or repeats a domain.
    pub fn new(order: Vec<DomainId>) -> Self {
        assert!(!order.is_empty(), "a capture window pulses at least one domain");
        let mut seen = std::collections::HashSet::new();
        for d in &order {
            assert!(seen.insert(*d), "domain {d} pulsed twice in one window");
        }
        CaptureWindow { order }
    }

    /// Domains `0..n` in index order.
    pub fn all_domains(n: usize) -> Self {
        CaptureWindow::new((0..n).map(|i| DomainId::new(i as u16)).collect())
    }

    /// The pulse order.
    pub fn order(&self) -> &[DomainId] {
        &self.order
    }

    /// Number of evaluation frames the window spans (`1 + 2·domains`).
    pub fn num_frames(&self) -> usize {
        1 + 2 * self.order.len()
    }

    /// The domain captured between frame `f` and `f + 1`, if any.
    pub(crate) fn capturing_domain(&self, frame: usize) -> Option<DomainId> {
        // Captures happen after F0..F(2n-1): domain k pulses at boundaries
        // 2k (its launch C1) and 2k+1 (its capture C2).
        if frame >= 2 * self.order.len() {
            None
        } else {
            Some(self.order[frame / 2])
        }
    }

    /// `true` when the frame (by index) is an at-speed frame — between a
    /// domain's launch and capture pulses.
    pub fn is_at_speed_frame(&self, frame: usize) -> bool {
        frame > 0 && frame % 2 == 1 && frame < self.num_frames()
    }
}

/// The launch-on-capture transition fault model.
///
/// Each batch loads the scan state (flip-flop words) and primary-input
/// words of the base frame; the simulator evaluates the double-capture
/// window for the fault-free circuit, replays every active fault across
/// it (each frame through its capture cone), and compares final
/// flip-flop states — exactly what the unload-into-MISR observes.
#[derive(Debug)]
pub struct Transition<W> {
    window: CaptureWindow,
    /// Fault-free value frames, one per window frame (reused per batch).
    /// Source slots (inputs and flip-flop states) are valid in every
    /// frame. Frame `F0` and the final frame are full executions, so
    /// every materialized slot is valid there. A middle frame executes
    /// only its capture cone: its cone slots are valid and the rest keep
    /// stale words from an earlier frame. Everything that reads a middle
    /// frame reads cone slots only — that frame's replay, the next
    /// capture's `D` sources, and activation at sites inside the cone.
    good_frames: Vec<Vec<W>>,
}

impl<'a, W: LaneWord> WideTransitionSim<'a, W> {
    /// Creates a simulator for `faults` (transition kinds only) under the
    /// given capture window. Grading uses every available hardware
    /// thread; see [`FaultSim::serial`] and [`FaultSim::set_threads`].
    ///
    /// # Panics
    ///
    /// Panics if any fault is not a transition kind, or any fault is a
    /// branch fault (transition grading here is stem-based, the standard
    /// model granularity).
    pub fn new(cc: &'a CompiledCircuit, faults: Vec<Fault>, window: CaptureWindow) -> Self {
        assert!(
            faults.iter().all(|f| f.kind.is_transition() && f.is_stem()),
            "TransitionSim grades stem transition faults"
        );
        let good_frames = vec![cc.new_wide_frame(); window.num_frames()];
        FaultSim::with_model(cc, faults, Transition { window, good_frames })
    }

    /// The fault-free value frame at the end of the capture window of
    /// the **last graded batch** — the flip-flop states the unload then
    /// shifts into the MISRs. This is what a signature-accumulating
    /// caller compacts as the batch's fault-free response.
    ///
    /// Zeroed until the first [`FaultSim::run_batch`].
    pub fn last_good_frame(&self) -> &[W] {
        self.model.good_frames.last().expect("a capture window spans at least one frame")
    }

    /// The window schedule in use.
    pub fn window(&self) -> &CaptureWindow {
        &self.model.window
    }
}

impl<W: LaneWord> FaultModel<W> for Transition<W> {
    type Frame<'f> = &'f [W];
    type Plan = TransitionKernelPlan;
    // Window replay is heavier per fault than single-frame PPSFP, so the
    // floor is lower than stuck-at's.
    const MIN_SHARD_FAULTS: usize = 16;

    /// The full-scan capture set, as [`crate::WideStuckAtSim`] observes
    /// it.
    fn observed(&self, cc: &CompiledCircuit) -> Vec<NodeId> {
        crate::WideStuckAtSim::<W>::observe_all_captures(cc)
    }

    /// Computes the fault-free window: F0 from `base`, then per frame
    /// boundary the capturing domain's flip-flops load their `D` words.
    /// The middle frames execute only their capture cones (see
    /// `good_frames`); the final frame executes the whole program, so
    /// [`WideTransitionSim::last_good_frame`] is a full evaluation.
    fn evaluate(&mut self, prog: &KernelProgram, plan: &TransitionKernelPlan, base: &mut &[W]) {
        let last = self.window.num_frames() - 1;
        prog.execute_into(base, &mut self.good_frames[0]);
        for frame in 1..=last {
            let (prev_slice, rest) = self.good_frames.split_at_mut(frame);
            let prev = &prev_slice[frame - 1];
            let cur = &mut rest[0];
            cur.copy_from_slice(prev);
            for &(ff, d_src) in plan.captures(frame - 1) {
                cur[ff.index()] = prev[d_src.index()];
            }
            if frame == last {
                prog.execute(cur);
            } else {
                plan.cone(frame).execute(prog, cur);
            }
        }
    }

    fn plan(
        &self,
        prog: &KernelProgram,
        cc: &CompiledCircuit,
        faults: &[Fault],
    ) -> TransitionKernelPlan {
        TransitionKernelPlan::build(prog, cc, faults, &self.window)
    }

    fn kernel_shard(
        &self,
        batch: &Batch<'_, W>,
        _base: &&[W],
        prog: &KernelProgram,
        plan: &TransitionKernelPlan,
        shard: &[u32],
        scratch: &mut KernelScratch<W>,
        out: &mut [W],
    ) {
        let step = &mut KernelStep::new(prog, &plan.edges, plan.cone(0), scratch);
        replay_window(batch, &self.window, &self.good_frames, plan, shard, out, step);
    }
}

/// A worker's cross-frame replay state, reused across faults and
/// batches without allocating.
#[derive(Debug)]
pub(crate) struct WindowState<W> {
    /// `(flip-flop, word)` for every flip-flop holding a faulty word for
    /// the fault being replayed. Each word differs from the flip-flop's
    /// fault-free state: an entry is made only by a capture that loads a
    /// wrong word, and the fault-free state changes only at the next
    /// capture of the same domain, which replaces the entry. So the
    /// whole overlay seeds every frame, and detection ORs it in any
    /// order.
    overlay: Vec<(NodeId, W)>,
    /// Per-at-speed-frame activation words of the fault being replayed
    /// (indexed by frame).
    activation: Vec<W>,
}

impl<W> WindowState<W> {
    pub(crate) fn new() -> Self {
        WindowState { overlay: Vec::new(), activation: Vec::new() }
    }
}

/// Replays one shard of active faults across the capture window, writing
/// each fault's multi-lane detection word into `out`. Reads only the
/// shared fault-free frames; all mutable state is the worker's own
/// `step` scratch, so shard scheduling cannot affect results.
fn replay_window<'s, W: LaneWord>(
    batch: &Batch<'_, W>,
    window: &CaptureWindow,
    good_frames: &[Vec<W>],
    plan: &'s TransitionKernelPlan,
    shard: &[u32],
    out: &mut [W],
    step: &mut KernelStep<'s, W>,
) {
    let nframes = window.num_frames();
    batch.each(shard, out, |_, fault| {
        let site = fault.node;
        // Precompute the activation word of every at-speed frame: where
        // the launch pulse actually creates the fault's slow transition
        // at the site. Only a site inside the frame's capture cone can
        // reach what the frame captures, so a frame counts only then
        // (membership is checked, not inferred from the middle frames'
        // words, which are stale outside the cone). Frames belonging to
        // clock domains whose launch never touches the site are inert
        // for this fault, so the replay can skip straight to the first
        // active frame, and stop after the last one once no faulty
        // flip-flop state is left to carry — the common case where only
        // one domain is dirty then replays a couple of frames instead of
        // the whole window.
        let mut first_active = usize::MAX;
        let mut last_active = 0usize;
        let state = step.window();
        state.overlay.clear();
        state.activation.clear();
        state.activation.resize(nframes, W::zero());
        for frame in 0..nframes {
            if !window.is_at_speed_frame(frame) || !plan.cone(frame).contains(site.index()) {
                continue;
            }
            let prev = good_frames[frame - 1][site.index()];
            let cur = good_frames[frame][site.index()];
            let act = (match fault.kind {
                FaultKind::SlowToRise => prev.not().and(cur),
                FaultKind::SlowToFall => prev.and(cur.not()),
                _ => unreachable!(),
            })
            .and(batch.lane_mask);
            if !act.is_zero() {
                step.window().activation[frame] = act;
                first_active = first_active.min(frame);
                last_active = frame;
            }
        }
        if first_active == usize::MAX {
            // No launch excites the fault anywhere in the window.
            return W::zero();
        }

        // A domain captures at two consecutive boundaries, `2k` and
        // `2k + 1`; its overlay entries start at `own`, so the second
        // capture replaces what the first one loaded. The final frame
        // captures nothing and is never replayed.
        let mut own = 0;
        let replayed = good_frames.iter().enumerate().take(nframes - 1).skip(first_active);
        for (frame, good) in replayed {
            let state = step.window();
            if frame % 2 == 0 {
                own = state.overlay.len();
            }
            let act = state.activation[frame];
            if act.is_zero() && state.overlay.is_empty() {
                if frame > last_active {
                    // Every remaining frame is activation-free and no
                    // faulty state survives: the rest of the window is
                    // fault-free.
                    break;
                }
                continue; // nothing differs in this frame
            }

            step.begin(plan.cone(frame));
            for k in 0..step.window().overlay.len() {
                let (ff, word) = step.window().overlay[k];
                step.seed(ff, word);
            }
            let mut pin = None;
            if !act.is_zero() {
                // The site's faulty value: good with the launched
                // transition undone on activated lanes, seeded after the
                // flip-flop overlay so a dirty site reads its faulty
                // word. The site's level precedes its fanouts, so level
                // order stays intact, and the pin keeps the injected
                // value authoritative if propagation reaches the site.
                let cur = step.value(site, good);
                step.seed(site, cur.xor(act));
                pin = Some(site);
            }
            step.run(good, pin, |_, _| {});

            // Frame boundary: the capturing domain's flip-flops load
            // their faulty `D` words; the fault-free frame after the
            // boundary holds `good[d_src]` there.
            step.window().overlay.truncate(own);
            for &(ff, d_src) in plan.captures(frame) {
                let faulty_d = step.value(d_src, good);
                if faulty_d != good[d_src.index()] {
                    step.window().overlay.push((ff, faulty_d));
                }
            }
        }

        // Detection: any flip-flop whose final state differs is shifted
        // out through the MISR.
        let final_frame = &good_frames[nframes - 1];
        let overlay = &step.window().overlay;
        overlay.iter().fold(W::zero(), |d, &(ff, word)| d.or(word.xor(final_frame[ff.index()])))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use lbist_netlist::{DomainId, GateKind, Netlist};

    /// ff_a -> NOT -> ff_b, both domain 0. Scan in ff_a=0: C1 captures
    /// ff_b=NOT(0)=1 while ff_a reloads its own D... build with explicit
    /// feedback so values are controlled.
    fn inv_pipe() -> (Netlist, NodeId, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new("pipe");
        let pi = nl.add_input("pi");
        let ff_a = nl.add_dff(pi, DomainId::new(0));
        let inv = nl.add_gate(GateKind::Not, &[ff_a]);
        let ff_b = nl.add_dff(inv, DomainId::new(0));
        nl.add_output("q", ff_b);
        (nl, pi, ff_a, inv, ff_b)
    }

    #[test]
    fn single_capture_cannot_detect_transitions() {
        // With only ONE pulse (model: window where the domain appears but we
        // check after frame 1 semantics), a slow transition launched by the
        // pulse is never sampled again. Our window always double-pulses, so
        // emulate single capture by checking that detection requires the
        // at-speed frame: a fault whose site never transitions in the
        // window is undetected.
        let (nl, pi, ff_a, inv, _ff_b) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(1);
        let faults = vec![Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // pi=0 and ff_a=0: inv=1 stays 1 all window -> no rising transition
        // at inv; STR cannot be excited.
        base[pi.index()] = 0;
        base[ff_a.index()] = 0;
        sim.run_batch(&base, 4);
        assert_eq!(sim.detections()[0], 0);
    }

    #[test]
    fn launch_on_capture_detects_slow_to_rise() {
        let (nl, pi, ff_a, inv, _ff_b) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(1);
        let faults = vec![Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // Scan state: ff_a=1 (inv=0). PI=0, so C1 captures ff_a=0, making
        // inv rise 0->1 in the at-speed frame; C2 should capture ff_b=1 but
        // the slow-to-rise keeps inv at 0 -> ff_b captures 0. Detected.
        base[pi.index()] = 0;
        base[ff_a.index()] = !0;
        sim.run_batch(&base, 8);
        assert_eq!(sim.detections()[0], 8, "STR detected in every lane");
    }

    #[test]
    fn slow_to_fall_needs_falling_launch() {
        let (nl, pi, ff_a, inv, _ff_b) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(1);
        let faults =
            vec![Fault::stem(inv, FaultKind::SlowToFall), Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // ff_a=0 (inv=1), PI=1: C1 captures ff_a=1, inv falls 1->0.
        base[pi.index()] = !0;
        base[ff_a.index()] = 0;
        sim.run_batch(&base, 8);
        assert_eq!(sim.detections()[0], 8, "STF detected");
        assert_eq!(sim.detections()[1], 0, "STR not excited by a falling launch");
    }

    #[test]
    fn cross_domain_effect_carries_through_later_capture() {
        // dom0: ff_a -> inv -> ff_b(dom0); ff_b -> buf -> ff_c(dom1).
        // A fault detected into ff_b at dom0's C2 then propagates into
        // ff_c when dom1 captures later in the same window.
        let mut nl = Netlist::new("xdom");
        let pi = nl.add_input("pi");
        let ff_a = nl.add_dff(pi, DomainId::new(0));
        let inv = nl.add_gate(GateKind::Not, &[ff_a]);
        let ff_b = nl.add_dff(inv, DomainId::new(0));
        let buf = nl.add_gate(GateKind::Buf, &[ff_b]);
        let ff_c = nl.add_dff(buf, DomainId::new(1));
        nl.add_output("q", ff_c);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(2);
        let faults = vec![Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        base[pi.index()] = 0;
        base[ff_a.index()] = !0; // launch a rise at inv
        sim.run_batch(&base, 1);
        assert_eq!(sim.detections()[0], 1);
    }

    /// A fault activated only by the *last* domain's launch is still
    /// graded correctly when the replay fast-forwards over the earlier
    /// domains' inert frames.
    #[test]
    fn late_domain_activation_survives_frame_skipping() {
        let mut nl = Netlist::new("late");
        let pi = nl.add_input("pi");
        // Domain 0 has unrelated state so its frames exist in the window.
        let idle = nl.add_dff(pi, DomainId::new(0));
        nl.add_output("q0", idle);
        // The fault cone lives entirely in domain 1.
        let ff_a = nl.add_dff(pi, DomainId::new(1));
        let inv = nl.add_gate(GateKind::Not, &[ff_a]);
        let ff_b = nl.add_dff(inv, DomainId::new(1));
        nl.add_output("q1", ff_b);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(2);
        let faults =
            vec![Fault::stem(inv, FaultKind::SlowToRise), Fault::stem(inv, FaultKind::SlowToFall)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // ff_a=1 (inv=0), pi=0: domain 1's launch captures ff_a=0, so inv
        // rises 0->1 only in domain 1's at-speed frame (the window's last).
        base[pi.index()] = 0;
        base[ff_a.index()] = !0;
        sim.run_batch(&base, 8);
        assert_eq!(sim.detections()[0], 8, "STR detected despite inert domain-0 frames");
        assert_eq!(sim.detections()[1], 0, "STF never excited anywhere in the window");
    }

    /// The middle frames execute only their capture cones, but the
    /// window's end is a full evaluation: after a batch,
    /// `last_good_frame()` equals a re-simulation that executes the whole
    /// program in every frame, on every node — including logic no
    /// flip-flop captures, which is stale in the middle frames.
    #[test]
    fn last_good_frame_equals_full_window_resimulation() {
        let d = DomainId::new;
        let mut nl = Netlist::new("full");
        let pi0 = nl.add_input("pi0");
        let pi1 = nl.add_input("pi1");
        let a0 = nl.add_dff(pi0, d(0));
        let g0 = nl.add_gate(GateKind::Nand, &[a0, pi1]);
        let b0 = nl.add_dff(g0, d(0));
        let a1 = nl.add_dff(b0, d(1));
        let g1 = nl.add_gate(GateKind::Xor, &[a1, b0]);
        let b1 = nl.add_dff(g1, d(1));
        let a2 = nl.add_dff(g1, d(2));
        let g2 = nl.add_gate(GateKind::And, &[a2, a0]);
        let b2 = nl.add_dff(g2, d(2));
        // Observed but captured by no flip-flop: outside every cone.
        let h = nl.add_gate(GateKind::Or, &[b2, a1]);
        let h_bar = nl.add_gate(GateKind::Not, &[h]);
        nl.add_output("q", h_bar);
        nl.add_output("r", b1);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults: Vec<Fault> = [g0, g1, g2, h]
            .iter()
            .flat_map(|&g| {
                [Fault::stem(g, FaultKind::SlowToRise), Fault::stem(g, FaultKind::SlowToFall)]
            })
            .collect();
        let window = CaptureWindow::new(vec![d(2), d(0), d(1)]);
        let mut base = cc.new_frame();
        for (k, &src) in cc.inputs().iter().chain(cc.dffs()).enumerate() {
            base[src.index()] = 0x9E37_79B9_7F4A_7C15u64.rotate_left(11 * k as u32);
        }
        let mut sim = TransitionSim::new(&cc, faults.clone(), window.clone());
        sim.run_batch(&base, 64);

        // The simulator lowers its program from the same keep set.
        let observed = crate::WideStuckAtSim::<u64>::observe_all_captures(&cc);
        let prog = KernelProgram::lower(&cc, &crate::grading_keep_set(&cc, &[&faults], &observed));
        let mut frame = base.clone();
        prog.execute(&mut frame);
        for f in 1..window.num_frames() {
            let prev = frame.clone();
            let dom = window.capturing_domain(f - 1).unwrap();
            for (i, &ff) in cc.dffs().iter().enumerate() {
                if cc.dff_domain(i) == dom {
                    frame[ff.index()] = prev[cc.fanins(ff)[0].index()];
                }
            }
            prog.execute(&mut frame);
        }
        assert_eq!(sim.last_good_frame(), &frame[..]);
    }

    #[test]
    fn domain_order_respects_schedule() {
        let w = CaptureWindow::new(vec![DomainId::new(2), DomainId::new(0)]);
        assert_eq!(w.capturing_domain(0), Some(DomainId::new(2)));
        assert_eq!(w.capturing_domain(1), Some(DomainId::new(2)));
        assert_eq!(w.capturing_domain(2), Some(DomainId::new(0)));
        assert_eq!(w.capturing_domain(3), Some(DomainId::new(0)));
        assert_eq!(w.capturing_domain(4), None);
        assert!(w.is_at_speed_frame(1));
        assert!(!w.is_at_speed_frame(2));
        assert!(w.is_at_speed_frame(3));
    }

    #[test]
    #[should_panic(expected = "pulsed twice")]
    fn duplicate_domain_rejected() {
        CaptureWindow::new(vec![DomainId::new(0), DomainId::new(0)]);
    }

    #[test]
    fn transition_coverage_reported() {
        let (nl, pi, ff_a, inv, _) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults =
            vec![Fault::stem(inv, FaultKind::SlowToRise), Fault::stem(inv, FaultKind::SlowToFall)];
        let mut sim = TransitionSim::new(&cc, faults, CaptureWindow::all_domains(1));
        let mut base = cc.new_frame();
        base[pi.index()] = 0;
        base[ff_a.index()] = !0;
        sim.run_batch(&base, 2);
        let cov = sim.coverage();
        assert_eq!(cov.total, 2);
        assert_eq!(cov.detected, 1);
        assert!((cov.percent() - 50.0).abs() < 1e-9);
    }

    /// One wide transition batch grades exactly like the stack of
    /// 64-lane batches it packs (no dropping → exact counts; the
    /// detected set is batch-granularity-invariant either way).
    #[test]
    fn wide_transition_batch_equals_stacked_64_lane_batches() {
        fn check<W: LaneWord>() {
            let (nl, pi, _ff_a, inv, _ff_b) = inv_pipe();
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let faults = vec![
                Fault::stem(inv, FaultKind::SlowToRise),
                Fault::stem(inv, FaultKind::SlowToFall),
            ];
            let word = |k: usize, node: usize| -> u64 {
                0xBF58_476D_1CE4_E5B9u64.rotate_left((k * 13 + node * 29) as u32)
            };

            let mut narrow = TransitionSim::new(&cc, faults.clone(), CaptureWindow::all_domains(1));
            narrow.set_drop_after(u32::MAX);
            for k in 0..W::WORDS {
                let mut base = cc.new_frame();
                base[pi.index()] = word(k, 0);
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()] = word(k, 1 + i);
                }
                narrow.run_batch(&base, 64);
            }

            let mut wide: WideTransitionSim<'_, W> =
                WideTransitionSim::new(&cc, faults.clone(), CaptureWindow::all_domains(1));
            wide.set_drop_after(u32::MAX);
            let mut base: Vec<W> = cc.new_wide_frame();
            for k in 0..W::WORDS {
                base[pi.index()].set_word(k, word(k, 0));
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()].set_word(k, word(k, 1 + i));
                }
            }
            wide.run_batch(&base, W::LANES);

            assert_eq!(wide.detections(), narrow.detections(), "{} lanes", W::LANES);
            assert_eq!(wide.coverage(), narrow.coverage(), "{} lanes", W::LANES);
            assert!(wide.detections().iter().any(|&d| d > 0), "scenario must detect something");
        }
        check::<u128>();
    }

    /// Kernel window replay reports exactly the oracle's per-fault
    /// detection counts across a two-domain design whose overlay state
    /// carries between frames — serial and sharded.
    #[test]
    fn kernel_transition_grading_matches_oracle_bit_for_bit() {
        let mut nl = Netlist::new("kpar");
        let pi = nl.add_input("pi");
        let mut prev = nl.add_dff(pi, DomainId::new(0));
        let mut sites = Vec::new();
        for i in 0..6 {
            let inv = nl.add_gate(GateKind::Not, &[prev]);
            sites.push(inv);
            prev = nl.add_dff(inv, DomainId::new((i % 2) as u16));
        }
        nl.add_output("q", prev);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults: Vec<Fault> = sites
            .iter()
            .flat_map(|&s| {
                [Fault::stem(s, FaultKind::SlowToRise), Fault::stem(s, FaultKind::SlowToFall)]
            })
            .collect();
        let window = CaptureWindow::all_domains(2);

        let bases: Vec<Vec<u64>> = (0..4u64)
            .map(|seed| {
                let mut base = cc.new_frame();
                base[pi.index()] = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()] = (seed ^ i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                }
                base
            })
            .collect();
        let mut expect = vec![0u32; faults.len()];
        for base in &bases {
            let words = crate::oracle::transition(&cc, &faults, &window, base, 64);
            for (e, w) in expect.iter_mut().zip(words) {
                *e += w.count_ones();
            }
        }
        assert!(expect.iter().any(|&d| d > 0), "scenario must detect something");
        for threads in [1, 4] {
            let mut sim = TransitionSim::new(&cc, faults.clone(), window.clone());
            sim.set_threads(threads);
            sim.set_drop_after(u32::MAX);
            for base in &bases {
                sim.run_batch(base, 64);
            }
            assert_eq!(
                sim.detections(),
                &expect[..],
                "kernel detections differ ({threads} threads)"
            );
        }
    }

    /// Parallel transition grading (forced to several shards) reports the
    /// serial detection counts bit-for-bit, and compaction tracks drops.
    #[test]
    fn parallel_and_serial_transition_grading_agree() {
        let mut nl = Netlist::new("par");
        let pi = nl.add_input("pi");
        let mut prev = nl.add_dff(pi, DomainId::new(0));
        let mut sites = Vec::new();
        // A chain of inverters and flops across two domains gives a
        // fault list with varied excitation.
        for i in 0..6 {
            let inv = nl.add_gate(GateKind::Not, &[prev]);
            sites.push(inv);
            prev = nl.add_dff(inv, DomainId::new((i % 2) as u16));
        }
        nl.add_output("q", prev);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults: Vec<Fault> = sites
            .iter()
            .flat_map(|&s| {
                [Fault::stem(s, FaultKind::SlowToRise), Fault::stem(s, FaultKind::SlowToFall)]
            })
            .collect();

        let run = |threads: usize| {
            let mut sim = TransitionSim::new(&cc, faults.clone(), CaptureWindow::all_domains(2));
            if threads == 1 {
                sim = sim.serial();
            } else {
                sim.set_threads(threads);
            }
            for seed in 0..4u64 {
                let mut base = cc.new_frame();
                base[pi.index()] = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()] = (seed ^ i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                }
                sim.run_batch(&base, 64);
            }
            (sim.detections().to_vec(), sim.coverage(), sim.active_faults())
        };

        let serial = run(1);
        assert!(serial.1.detected > 0, "scenario must detect something");
        for threads in [2, 5] {
            let parallel = run(threads);
            assert_eq!(parallel.0, serial.0, "{threads}-thread detections differ");
            assert_eq!(parallel.1, serial.1, "{threads}-thread coverage differs");
            assert_eq!(parallel.2, serial.2, "{threads}-thread active count differs");
        }
        let undetected = serial.0.iter().filter(|&&d| d == 0).count();
        assert_eq!(serial.2, undetected, "active list holds exactly the undetected faults");
    }
}
