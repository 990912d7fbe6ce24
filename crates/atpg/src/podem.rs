//! The PODEM test generation algorithm.

use crate::pattern::TestCube;
use crate::values::{controlling_value, eval_with, inverts};
use lbist_fault::Fault;
use lbist_netlist::{GateKind, NodeId};
use lbist_sim::{CompiledCircuit, Logic};

/// Outcome of one PODEM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A test cube detecting the fault.
    Test(TestCube),
    /// The fault is proven untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

/// PODEM: path-oriented decision making on the full-scan combinational
/// view.
///
/// Decisions are made only at primary inputs and flip-flop outputs
/// (pseudo-PIs); objectives are backtraced to them, implications run
/// forward event-driven over a `(good, faulty)` ternary pair per node,
/// and the search backtracks on conflicts (fault not excitable, empty
/// D-frontier, or no X-path to an observed node).
///
/// A decision costs only its implications: gates evaluate in place over
/// their fanin slice, the event queue is reused, and the nodes carrying
/// a fault effect are kept current as values change, so no search step
/// rescans the undo trail. Implication also stays inside the target's
/// region: the site's fanout cone and its transitive fanin, the only
/// nodes the search ever reads.
#[derive(Debug)]
pub struct Podem<'a> {
    cc: &'a CompiledCircuit,
    observed: Vec<bool>,
    assignable: Vec<bool>,
    /// Constant gates in schedule order: they imply their values at the
    /// start of every search.
    constants: Vec<NodeId>,
    backtrack_limit: usize,
    good: Vec<Logic>,
    faulty: Vec<Logic>,
    /// Undo trail: (node, old good, old faulty).
    trail: Vec<(NodeId, Logic, Logic)>,
    /// Per node, the trail index of its first entry ([`OFF_TRAIL`] when
    /// it has none).
    first_entry: Vec<u32>,
    /// Nodes on the trail that carry a fault effect (D or D̄), in order
    /// of their first trail entry: the order a scan of the trail would
    /// find them in. `set_value` and `undo_to` keep it current.
    effects: Vec<NodeId>,
    /// Implication event queue (FIFO) and X-path stack, reused by every
    /// call.
    queue: Vec<NodeId>,
    /// Decisions of the current search, oldest first.
    decisions: Vec<Decision>,
    /// Backtracks of the current (or most recent) search.
    backtracks: usize,
    /// The fault currently being targeted (its transform is applied during
    /// node evaluation).
    target: Option<Target>,
    /// Per node, how implication treats it for the current target;
    /// rebuilt by every [`Podem::generate`].
    region: Vec<Region>,
    /// Epoch-stamped scratch marks for the X-path search.
    scratch_stamp: Vec<u32>,
    scratch_epoch: u32,
    /// Per-node hop distance to the nearest observed node (u32::MAX when
    /// unreachable) — guides the D-frontier choice toward the easiest
    /// propagation path.
    obs_distance: Vec<u32>,
}

/// [`Podem::first_entry`] of a node the trail does not hold.
const OFF_TRAIL: u32 = u32::MAX;

/// Where a node lies relative to the current target's region: the
/// site's fanout cone through combinational logic, plus the transitive
/// fanin of that cone and of a branch fault's pin source (stopping at
/// inputs and flip-flops).
///
/// Objectives, backtrace, the X-path check and the detection test read
/// only region nodes, and every fanin of a region gate is in the region.
/// So implication skips the nodes outside it without moving a single
/// region event, and outside the cone the faulty value always equals
/// the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Region {
    /// Read by nothing the search does: implication skips it.
    Outside,
    /// In the region, outside the cone: only the good value evaluates.
    Fanin,
    /// In the site's fanout cone: good and faulty values evaluate.
    Cone,
}

/// The active fault target.
#[derive(Clone, Copy, Debug)]
struct Target {
    site: NodeId,
    /// Input pin of a branch fault; `None` for a stem fault.
    pin: Option<usize>,
    stuck: Logic,
}

/// One decision on a pseudo-primary input.
#[derive(Clone, Copy, Debug)]
struct Decision {
    pi: NodeId,
    value: bool,
    /// Whether this is already the second value tried.
    flipped: bool,
    /// Trail length before the decision: undoing it restores this.
    mark: usize,
}

/// Whether a `(good, faulty)` pair carries a fault effect.
#[inline]
fn is_effect(g: Logic, f: Logic) -> bool {
    !g.is_x() && !f.is_x() && g != f
}

impl<'a> Podem<'a> {
    /// Creates a generator observing the given nodes (typically
    /// [`lbist_fault::StuckAtSim::observe_all_captures`]).
    pub fn new(cc: &'a CompiledCircuit, observed: Vec<NodeId>) -> Self {
        let mut obs = vec![false; cc.num_nodes()];
        for o in observed {
            obs[o.index()] = true;
        }
        let mut assignable = vec![false; cc.num_nodes()];
        for &pi in cc.inputs() {
            assignable[pi.index()] = true;
        }
        for &ff in cc.dffs() {
            assignable[ff.index()] = true;
        }
        // Reverse BFS from the observed set over fanin edges gives each
        // node its hop distance to the nearest observation.
        let mut obs_distance = vec![u32::MAX; cc.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        for (i, &o) in obs.iter().enumerate() {
            if o {
                obs_distance[i] = 0;
                queue.push_back(NodeId::from_index(i));
            }
        }
        while let Some(n) = queue.pop_front() {
            let d = obs_distance[n.index()];
            for &f in cc.fanins(n) {
                if obs_distance[f.index()] == u32::MAX {
                    obs_distance[f.index()] = d + 1;
                    queue.push_back(f);
                }
            }
        }
        let constants = cc
            .schedule()
            .iter()
            .copied()
            .filter(|&id| matches!(cc.kind(id), GateKind::Const0 | GateKind::Const1))
            .collect();
        Podem {
            good: vec![Logic::X; cc.num_nodes()],
            faulty: vec![Logic::X; cc.num_nodes()],
            trail: Vec::new(),
            first_entry: vec![OFF_TRAIL; cc.num_nodes()],
            effects: Vec::new(),
            queue: Vec::new(),
            decisions: Vec::new(),
            backtracks: 0,
            observed: obs,
            assignable,
            constants,
            backtrack_limit: 512,
            target: None,
            region: vec![Region::Outside; cc.num_nodes()],
            scratch_stamp: vec![0u32; cc.num_nodes()],
            scratch_epoch: 0,
            obs_distance,
            cc,
        }
    }

    /// Adjusts the backtrack limit (default 512).
    pub fn set_backtrack_limit(&mut self, limit: usize) {
        self.backtrack_limit = limit.max(1);
    }

    /// Backtracks the most recent [`Podem::generate`] call took (one past
    /// the limit when it aborted).
    pub fn backtracks(&self) -> usize {
        self.backtracks
    }

    /// Attempts to generate a test for `fault`.
    ///
    /// # Panics
    ///
    /// Panics if the fault is not stuck-at.
    pub fn generate(&mut self, fault: &Fault) -> AtpgOutcome {
        assert!(fault.kind.is_stuck_at(), "PODEM targets stuck-at faults");
        self.reset();
        let target = Target {
            site: fault.node,
            pin: fault.pin.map(usize::from),
            stuck: Logic::from_bool(fault.kind.faulty_value()),
        };
        self.target = Some(target);
        self.mark_region(target);
        let cc = self.cc;
        // X-sources are zero-bounded in test mode; treat them as constant 0
        // (the bounding AND makes this exact when test_mode=1, which the
        // session guarantees).
        for &x in cc.xsources() {
            self.good[x.index()] = Logic::Zero;
            self.faulty[x.index()] = Logic::Zero;
        }
        // Constants participate in implication from the start.
        for k in 0..self.constants.len() {
            let id = self.constants[k];
            let v = if cc.kind(id) == GateKind::Const1 { Logic::One } else { Logic::Zero };
            self.good[id.index()] = v;
            self.faulty[id.index()] = v;
            self.imply_from(id);
        }
        for &x in cc.xsources() {
            self.imply_from(x);
        }
        // Initial implications are permanent for this run.
        self.forget_trail();

        loop {
            match self.status(fault) {
                Status::Detected => {
                    let mut cube = TestCube::new();
                    for d in &self.decisions {
                        cube.assign(d.pi, d.value);
                    }
                    return AtpgOutcome::Test(cube);
                }
                // Backtrack until a flipped decision sticks.
                Status::Conflict => loop {
                    match self.backtrack() {
                        Ok(true) => break,
                        Ok(false) => {}
                        Err(outcome) => return outcome,
                    }
                },
                Status::Undecided => {
                    match self.objective(fault).and_then(|(n, v)| self.backtrace(n, v)) {
                        Some((pi, value)) => self.decide(pi, value, false),
                        // No objective, or none reachable from a free PI:
                        // a conflict, backtracked one step at a time.
                        None => {
                            if let Err(outcome) = self.backtrack() {
                                return outcome;
                            }
                        }
                    }
                }
            }
        }
    }

    /// One backtrack step: undoes the newest decision, counts the
    /// backtrack and, unless that decision was already flipped, assigns
    /// its other value. `Ok(true)` when a flip was made, `Ok(false)` when
    /// the popped decision had been flipped before; `Err` ends the search
    /// (`Untestable` with no decision left, `Aborted` past the limit).
    fn backtrack(&mut self) -> Result<bool, AtpgOutcome> {
        let Some(d) = self.decisions.pop() else {
            return Err(AtpgOutcome::Untestable);
        };
        self.undo_to(d.mark);
        self.backtracks += 1;
        if self.backtracks > self.backtrack_limit {
            return Err(AtpgOutcome::Aborted);
        }
        if !d.flipped {
            self.decide(d.pi, !d.value, true);
        }
        Ok(!d.flipped)
    }

    /// Assigns a pseudo-PI, runs forward implication, and records the
    /// decision.
    fn decide(&mut self, pi: NodeId, value: bool, flipped: bool) {
        debug_assert!(self.assignable[pi.index()]);
        let mark = self.trail.len();
        let v = Logic::from_bool(value);
        self.set_value(pi, v, v);
        self.imply_from(pi);
        self.decisions.push(Decision { pi, value, flipped, mark });
    }

    fn reset(&mut self) {
        self.forget_trail();
        self.good.fill(Logic::X);
        self.faulty.fill(Logic::X);
        self.decisions.clear();
        self.backtracks = 0;
    }

    /// Makes the current values permanent: they leave the trail, and with
    /// it the fault-effect list.
    fn forget_trail(&mut self) {
        for &(n, _, _) in &self.trail {
            self.first_entry[n.index()] = OFF_TRAIL;
        }
        self.trail.clear();
        self.effects.clear();
    }

    fn set_value(&mut self, node: NodeId, g: Logic, f: Logic) {
        let i = node.index();
        let was_effect =
            self.first_entry[i] != OFF_TRAIL && is_effect(self.good[i], self.faulty[i]);
        if self.first_entry[i] == OFF_TRAIL {
            self.first_entry[i] = self.trail.len() as u32;
        }
        self.trail.push((node, self.good[i], self.faulty[i]));
        self.good[i] = g;
        self.faulty[i] = f;
        let is_now = is_effect(g, f);
        if is_now != was_effect {
            self.toggle_effect(node, is_now);
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (node, g, f) = self.trail.pop().expect("len checked");
            let i = node.index();
            let was_effect = is_effect(self.good[i], self.faulty[i]);
            let stays = self.first_entry[i] != self.trail.len() as u32;
            self.good[i] = g;
            self.faulty[i] = f;
            let is_now = stays && is_effect(g, f);
            if is_now != was_effect {
                self.toggle_effect(node, is_now);
            }
            if !stays {
                self.first_entry[i] = OFF_TRAIL;
            }
        }
    }

    /// Inserts `node` into (or removes it from) the fault-effect list at
    /// its first-trail-entry position.
    fn toggle_effect(&mut self, node: NodeId, insert: bool) {
        let first = &self.first_entry;
        let key = first[node.index()];
        let at = self.effects.partition_point(|n| first[n.index()] < key);
        if insert {
            self.effects.insert(at, node);
        } else {
            debug_assert_eq!(self.effects[at], node);
            self.effects.remove(at);
        }
    }

    /// The fault site when it carries an effect without a trail entry
    /// (set by the permanent initial implications): it counts after every
    /// trail-held effect.
    fn off_trail_site_effect(&self, site: NodeId) -> Option<NodeId> {
        let i = site.index();
        (self.first_entry[i] == OFF_TRAIL && is_effect(self.good[i], self.faulty[i]))
            .then_some(site)
    }

    /// Marks `target`'s [`Region`]: the site's fanout cone, then the
    /// transitive fanin of the cone and of the pin source.
    fn mark_region(&mut self, target: Target) {
        let cc = self.cc;
        self.region.fill(Region::Outside);
        let mut list = std::mem::take(&mut self.queue);
        list.clear();
        self.region[target.site.index()] = Region::Cone;
        list.push(target.site);
        let mut next = 0;
        while let Some(&n) = list.get(next) {
            next += 1;
            for &succ in cc.fanouts(n) {
                if self.region[succ.index()] == Region::Outside && cc.kind(succ) != GateKind::Dff {
                    self.region[succ.index()] = Region::Cone;
                    list.push(succ);
                }
            }
        }
        // The list holds the cone; extend it with the fanin closure.
        if let Some(pin) = target.pin {
            let src = cc.fanins(target.site)[pin];
            if self.region[src.index()] == Region::Outside {
                self.region[src.index()] = Region::Fanin;
                list.push(src);
            }
        }
        next = 0;
        while let Some(&n) = list.get(next) {
            next += 1;
            if cc.kind(n) == GateKind::Dff {
                continue;
            }
            for &f in cc.fanins(n) {
                if self.region[f.index()] == Region::Outside {
                    self.region[f.index()] = Region::Fanin;
                    list.push(f);
                }
            }
        }
        self.queue = list;
    }

    /// Event-driven forward implication from `start`, within the target's
    /// region. The fault transform of the current target is applied in
    /// `eval_node`, so faulty values diverge at the site.
    fn imply_from(&mut self, start: NodeId) {
        let cc = self.cc;
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        queue.extend_from_slice(cc.fanouts(start));
        let mut next = 0;
        while let Some(&node) = queue.get(next) {
            next += 1;
            let region = self.region[node.index()];
            if region == Region::Outside || cc.kind(node) == GateKind::Dff {
                continue;
            }
            let (g, f) = if region == Region::Cone {
                self.eval_node(node)
            } else {
                let g = self.eval_good(node);
                (g, g)
            };
            if g != self.good[node.index()] || f != self.faulty[node.index()] {
                self.set_value(node, g, f);
                queue.extend_from_slice(cc.fanouts(node));
            }
        }
        self.queue = queue;
    }

    /// Evaluates a node's good value.
    #[inline]
    fn eval_good(&self, node: NodeId) -> Logic {
        let fanins = self.cc.fanins(node);
        eval_with(self.cc.kind(node), fanins.len(), |k| self.good[fanins[k].index()])
    }

    /// Evaluates a node's (good, faulty) pair, applying the current fault
    /// transform at the fault site only.
    #[inline]
    fn eval_node(&self, node: NodeId) -> (Logic, Logic) {
        let kind = self.cc.kind(node);
        let fanins = self.cc.fanins(node);
        let n = fanins.len();
        let g = self.eval_good(node);
        let f = match self.target {
            Some(t) if t.site == node => match t.pin {
                Some(pin) => eval_with(kind, n, |k| {
                    if k == pin {
                        t.stuck
                    } else {
                        self.faulty[fanins[k].index()]
                    }
                }),
                None => t.stuck,
            },
            _ => eval_with(kind, n, |k| self.faulty[fanins[k].index()]),
        };
        (g, f)
    }

    fn bump_epoch(&mut self) {
        self.scratch_epoch = self.scratch_epoch.wrapping_add(1);
        if self.scratch_epoch == 0 {
            self.scratch_stamp.fill(0);
            self.scratch_epoch = 1;
        }
    }

    fn status(&mut self, fault: &Fault) -> Status {
        // Ensure the fault transform is installed (stem faults at sources
        // never get re-evaluated, so handle them here).
        let stuck = fault.kind.faulty_value();
        let site = fault.node;
        if fault.pin.is_none() {
            let g = self.good[site.index()];
            if g == Logic::from_bool(stuck) {
                return Status::Conflict; // cannot excite
            }
            // Install faulty value at the stem.
            if self.faulty[site.index()] != Logic::from_bool(stuck) && g != Logic::X {
                self.set_value(site, g, Logic::from_bool(stuck));
                self.imply_from(site);
            }
        }
        // Detection: only changed nodes (and the site) can carry a D.
        let site_effect = self.off_trail_site_effect(site);
        if self.effects.iter().chain(&site_effect).any(|n| self.observed[n.index()]) {
            return Status::Detected;
        }

        // Excitation still open?
        let excitable = if let Some(pin) = fault.pin {
            let src = self.cc.fanins(site)[pin as usize];
            let g = self.good[src.index()];
            if g == Logic::from_bool(stuck) {
                return Status::Conflict;
            }
            true
        } else {
            self.good[site.index()].is_x() || self.good[site.index()] != Logic::from_bool(stuck)
        };
        if !excitable {
            return Status::Conflict;
        }

        if self.x_path_to_observed(site, site_effect) {
            Status::Undecided
        } else {
            Status::Conflict
        }
    }

    /// Multi-source DFS forward through not-yet-blocked logic toward any
    /// observed node, from every live fault effect (or the still-unexcited
    /// site).
    fn x_path_to_observed(&mut self, site: NodeId, site_effect: Option<NodeId>) -> bool {
        self.bump_epoch();
        let epoch = self.scratch_epoch;
        let mut stack = std::mem::take(&mut self.queue);
        stack.clear();
        stack.extend(self.effects.iter().chain(&site_effect));
        if stack.is_empty() {
            stack.push(site);
        }
        for n in &stack {
            self.scratch_stamp[n.index()] = epoch;
        }
        let mut found = false;
        while let Some(n) = stack.pop() {
            if self.observed[n.index()] {
                found = true;
                break;
            }
            for &succ in self.cc.fanouts(n) {
                if self.scratch_stamp[succ.index()] == epoch || self.cc.kind(succ) == GateKind::Dff
                {
                    continue;
                }
                // Blocked if the successor's good value is already definite
                // AND its faulty value is definite and equal (no room for a
                // difference to pass).
                let g = self.good[succ.index()];
                let f = self.faulty[succ.index()];
                if !g.is_x() && !f.is_x() && g == f {
                    continue;
                }
                self.scratch_stamp[succ.index()] = epoch;
                stack.push(succ);
            }
        }
        self.queue = stack;
        found
    }

    /// PODEM objective: excite first, then extend a D-frontier gate.
    fn objective(&self, fault: &Fault) -> Option<(NodeId, bool)> {
        let stuck = fault.kind.faulty_value();
        match fault.pin {
            None => {
                if self.good[fault.node.index()].is_x() {
                    return Some((fault.node, !stuck));
                }
            }
            Some(pin) => {
                let src = self.cc.fanins(fault.node)[pin as usize];
                if self.good[src.index()].is_x() {
                    return Some((src, !stuck));
                }
                // Excited branch fault: the reading gate itself is the
                // initial D-frontier (the divergence lives on its pin, not
                // on any node value). Justify its remaining X inputs with
                // non-controlling values so the divergence shows at the
                // output.
                let gate = fault.node;
                if self.good[gate.index()].is_x() || self.faulty[gate.index()].is_x() {
                    let kind = self.cc.kind(gate);
                    let want = match controlling_value(kind) {
                        Some(cv) => !cv,
                        None => true,
                    };
                    for &f in self.cc.fanins(gate) {
                        if self.good[f.index()].is_x() {
                            return Some((f, want));
                        }
                    }
                }
            }
        }
        // D-frontier: a gate whose output is X but some input carries a D.
        // Only readers of changed (D-carrying) nodes qualify; among the
        // candidates, extend the gate closest to an observed node (the
        // classic distance-to-PO guidance).
        let site_effect = self.off_trail_site_effect(fault.node);
        let mut best: Option<(u32, NodeId, bool)> = None;
        for &d_node in self.effects.iter().chain(&site_effect) {
            for &reader in self.cc.fanouts(d_node) {
                let i = reader.index();
                if !(self.good[i].is_x() || self.faulty[i].is_x()) {
                    continue;
                }
                let kind = self.cc.kind(reader);
                if kind == GateKind::Dff {
                    continue;
                }
                let dist = self.obs_distance[i];
                if let Some((bd, _, _)) = best {
                    if dist >= bd {
                        continue;
                    }
                }
                let mut has_d = false;
                let mut x_input = None;
                for &f in self.cc.fanins(reader) {
                    let (g, fv) = (self.good[f.index()], self.faulty[f.index()]);
                    if is_effect(g, fv) {
                        has_d = true;
                    } else if g.is_x() && x_input.is_none() {
                        x_input = Some(f);
                    }
                }
                if has_d {
                    if let Some(xi) = x_input {
                        // Want the non-controlling value on the side input.
                        let want = match controlling_value(kind) {
                            Some(cv) => !cv,
                            None => true, // XOR-family: either value works
                        };
                        best = Some((dist, xi, want));
                    }
                }
            }
        }
        best.map(|(_, n, w)| (n, w))
    }

    /// Backtrace an objective to an unassigned PI, tracking inversions.
    fn backtrace(&self, mut node: NodeId, mut value: bool) -> Option<(NodeId, bool)> {
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > self.cc.num_nodes() + 8 {
                return None;
            }
            if self.assignable[node.index()] {
                if self.good[node.index()].is_x() {
                    return Some((node, value));
                }
                return None; // already assigned: objective unreachable here
            }
            let kind = self.cc.kind(node);
            let fanins = self.cc.fanins(node);
            if fanins.is_empty() {
                return None; // constant/X-source
            }
            let next_value = if inverts(kind) { !value } else { value };
            // Choose an X-valued fanin. Standard PODEM heuristic: when one
            // controlling input suffices, take the easiest (shallowest);
            // when every input must be justified, take the hardest
            // (deepest) so doomed branches fail fast.
            let one_input_suffices = match controlling_value(kind) {
                Some(cv) => {
                    // Output value achieved by a controlling input: cv for
                    // AND/OR (inverted kinds flip the output, which
                    // next_value already accounts for).
                    next_value == cv
                }
                None => false,
            };
            let candidate = match kind {
                GateKind::Mux2 => {
                    let sel = fanins[0];
                    match self.good[sel.index()] {
                        Logic::Zero => Some(fanins[1]),
                        Logic::One => Some(fanins[2]),
                        Logic::X => Some(sel),
                    }
                }
                _ => {
                    let xs = fanins.iter().copied().filter(|f| self.good[f.index()].is_x());
                    if one_input_suffices {
                        xs.min_by_key(|f| self.cc.level(*f))
                    } else {
                        xs.max_by_key(|f| self.cc.level(*f))
                    }
                }
            };
            let next = candidate?;
            // Through a MUX select we aim for 0 (choose input a).
            value = if kind == GateKind::Mux2 && next == fanins[0] {
                false
            } else if kind == GateKind::Mux2 {
                value
            } else {
                next_value
            };
            node = next;
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Status {
    Detected,
    Conflict,
    Undecided,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_fault::FaultKind;
    use lbist_netlist::{DomainId, Netlist};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn observed(cc: &CompiledCircuit) -> Vec<NodeId> {
        lbist_fault::StuckAtSim::observe_all_captures(cc)
    }

    /// Validate a cube by fault simulation.
    fn cube_detects(cc: &CompiledCircuit, fault: &Fault, cube: &TestCube) -> bool {
        let mut rng = SmallRng::seed_from_u64(9);
        // Try several fills; every fill of a correct cube must detect.
        (0..4).all(|_| {
            let p = cube.fill(cc, &mut rng);
            let mut frame = cc.new_frame();
            p.load_into_lane(cc, &mut frame, 0);
            let mut sim = lbist_fault::StuckAtSim::new(cc, vec![*fault], observed(cc));
            sim.run_batch(&mut frame, 1);
            sim.detections()[0] > 0
        })
    }

    #[test]
    fn generates_tests_for_every_fault_of_a_cone() {
        let mut nl = Netlist::new("cone");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::And, &[a, b]);
        let g2 = nl.add_gate(GateKind::Or, &[g1, c]);
        let g3 = nl.add_gate(GateKind::Xor, &[g2, a]);
        nl.add_output("y", g3);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = lbist_fault::FaultUniverse::stuck_at(&nl);
        for fault in universe.representatives() {
            let mut podem = Podem::new(&cc, observed(&cc));
            match podem.generate(&fault) {
                AtpgOutcome::Test(cube) => {
                    assert!(cube_detects(&cc, &fault, &cube), "cube fails for {fault}");
                }
                other => panic!("{fault}: expected test, got {other:?}"),
            }
        }
    }

    #[test]
    fn proves_untestable_redundant_fault() {
        // y = OR(a, NOT(a)) is constant 1: y/SA1 is undetectable.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Not, &[a]);
        let y = nl.add_gate(GateKind::Or, &[a, na]);
        nl.add_output("o", y);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut podem = Podem::new(&cc, observed(&cc));
        let outcome = podem.generate(&Fault::stem(y, FaultKind::StuckAt1));
        assert_eq!(outcome, AtpgOutcome::Untestable);
    }

    #[test]
    fn detects_through_pseudo_outputs() {
        // The only observation is a flip-flop D pin.
        let mut nl = Netlist::new("ff");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Nand, &[a, b]);
        let _ff = nl.add_dff(g, DomainId::new(0));
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut podem = Podem::new(&cc, observed(&cc));
        let fault = Fault::stem(g, FaultKind::StuckAt0);
        match podem.generate(&fault) {
            AtpgOutcome::Test(cube) => assert!(cube_detects(&cc, &fault, &cube)),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn hard_random_fault_is_found_deterministically() {
        // 12-input AND: random patterns almost never excite SA0 at the
        // output; PODEM must find the all-ones cube immediately.
        let mut nl = Netlist::new("wide");
        let ins: Vec<NodeId> = (0..12).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g = nl.add_gate(GateKind::And, &ins);
        nl.add_output("y", g);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut podem = Podem::new(&cc, observed(&cc));
        match podem.generate(&Fault::stem(g, FaultKind::StuckAt0)) {
            AtpgOutcome::Test(cube) => {
                for &i in &ins {
                    assert_eq!(cube.value_of(i), Some(true));
                }
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn d_pin_fault_source_is_implied_outside_the_flop_cone() {
        // The flop's Q cone never reads the AND driving its D pin: only
        // the pin source puts that AND in the target's region. Left out,
        // the excitation objective never sees a value and the search
        // walks all 2^12 input assignments.
        let mut nl = Netlist::new("dpin");
        let ins: Vec<NodeId> = (0..12).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g = nl.add_gate(GateKind::And, &ins);
        let ff = nl.add_dff(g, DomainId::new(0));
        let y = nl.add_gate(GateKind::Not, &[ff]);
        nl.add_output("y", y);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut podem = Podem::new(&cc, observed(&cc));
        podem.set_backtrack_limit(64);
        let outcome = podem.generate(&Fault::branch(ff, 0, FaultKind::StuckAt0));
        assert_ne!(outcome, AtpgOutcome::Aborted, "{} backtracks", podem.backtracks());
    }

    #[test]
    fn branch_faults_get_tests() {
        let mut nl = Netlist::new("br");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::Xor, &[a, b]);
        let g2 = nl.add_gate(GateKind::Xor, &[a, g1]);
        nl.add_output("y1", g1);
        nl.add_output("y2", g2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let fault = Fault::branch(g2, 0, FaultKind::StuckAt1);
        let mut podem = Podem::new(&cc, observed(&cc));
        match podem.generate(&fault) {
            AtpgOutcome::Test(cube) => assert!(cube_detects(&cc, &fault, &cube)),
            other => panic!("expected test, got {other:?}"),
        }
    }
}
