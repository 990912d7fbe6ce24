//! Control-plane semantics: admission, fairness, checkpoint-backed
//! preemption, shedding and the asset cache — all against real graded
//! cores, with digests pinning preempted runs to uninterrupted
//! references.

use lbist_core::{StumpsConfig, WideGradingSession};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
use lbist_fault::{Fault, FaultKind, FaultUniverse};
use lbist_netlist::{Netlist, NodeId};
use lbist_serve::{AdmissionPolicy, ControlPlane, Disposition, JobPayload, JobSpec, ServeConfig};
use lbist_sim::CompiledCircuit;

fn small_netlist(seed: u64) -> Netlist {
    CpuCoreGenerator::new(CoreProfile::core_x().scaled(600), seed).generate()
}

fn payload(netlist: &Netlist) -> JobPayload {
    JobPayload { netlist: lbist_ckpt::seal_netlist(netlist), faults: None }
}

/// The same preparation the control plane performs, for building
/// uninterrupted reference runs.
fn prepared(netlist: &Netlist, chains: usize) -> BistReadyCore {
    prepare_core(
        netlist,
        &PrepConfig {
            total_chains: chains,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    )
}

fn reference_stuck_digest(netlist: &Netlist, spec: &JobSpec) -> u64 {
    let core = prepared(netlist, spec.chains);
    let cc = CompiledCircuit::compile(&core.netlist).unwrap();
    let faults = FaultUniverse::stuck_at(&core.netlist).representatives();
    let mut session: WideGradingSession<'_, u64> =
        WideGradingSession::new(&core, &cc, &StumpsConfig::default());
    session.set_drop_after(spec.drop_after);
    session.run_stuck_at(faults, spec.batches as usize).digest()
}

#[test]
fn admission_rejects_bad_jobs_with_reasons() {
    let mut plane = ControlPlane::new(ServeConfig {
        admission: AdmissionPolicy { max_job_cost: 1_000_000, max_queue_depth: 64 },
        ..ServeConfig::default()
    })
    .unwrap();
    let tenant = plane.register_tenant("acme", 1);
    let netlist = small_netlist(11);
    let good = payload(&netlist);

    // Over-budget: cost = gates x batches x lanes blows the 1M budget.
    let id = plane.submit(tenant, JobSpec::stuck_at(1_000_000), &good);
    let v = plane.verdict(id).expect("rejection is an immediate verdict");
    assert_eq!(v.disposition, Disposition::Rejected);
    assert!(v.reason.as_ref().unwrap().contains("exceeds per-job budget"), "{:?}", v.reason);

    // Garbage bytes: fails the envelope, never reaches preparation.
    let id = plane.submit(
        tenant,
        JobSpec::stuck_at(1),
        &JobPayload { netlist: vec![0xAB; 64], faults: None },
    );
    assert_eq!(plane.verdict(id).unwrap().disposition, Disposition::Rejected);

    // Truncated valid payload: checksum catches it.
    let mut torn = good.clone();
    torn.netlist.truncate(torn.netlist.len() / 2);
    let id = plane.submit(tenant, JobSpec::stuck_at(1), &torn);
    assert_eq!(plane.verdict(id).unwrap().disposition, Disposition::Rejected);

    // Bad lane widths.
    for lanes in [32, 256] {
        let id = plane.submit(tenant, JobSpec { lanes, ..JobSpec::stuck_at(1) }, &good);
        let v = plane.verdict(id).unwrap();
        assert_eq!(v.disposition, Disposition::Rejected);
        assert!(v.reason.as_ref().unwrap().contains("lane width"), "{:?}", v.reason);
    }

    // Zero batches.
    let id = plane.submit(tenant, JobSpec::stuck_at(0), &good);
    assert_eq!(plane.verdict(id).unwrap().disposition, Disposition::Rejected);

    // Unknown tenant.
    let ghost = {
        let mut other = ControlPlane::new(ServeConfig::default()).unwrap();
        other.register_tenant("ghost", 1);
        other.register_tenant("ghost2", 1)
    };
    let id = plane.submit(ghost, JobSpec::stuck_at(1), &good);
    assert_eq!(plane.verdict(id).unwrap().disposition, Disposition::Rejected);

    // Out-of-range fault node.
    let rogue = vec![Fault::stem(NodeId::from_index(netlist.len() + 7), FaultKind::StuckAt0)];
    let id = plane.submit(
        tenant,
        JobSpec::stuck_at(1),
        &JobPayload {
            netlist: good.netlist.clone(),
            faults: Some(lbist_ckpt::seal_faults(&rogue)),
        },
    );
    let v = plane.verdict(id).unwrap();
    assert_eq!(v.disposition, Disposition::Rejected);
    assert!(
        v.reason.as_ref().unwrap().contains("out of range")
            || v.reason.as_ref().unwrap().contains("nodes")
    );

    // Model-mismatched fault list: transition faults under stuck-at.
    let wrong = vec![Fault::stem(NodeId::from_index(0), FaultKind::SlowToRise)];
    let id = plane.submit(
        tenant,
        JobSpec::stuck_at(1),
        &JobPayload {
            netlist: good.netlist.clone(),
            faults: Some(lbist_ckpt::seal_faults(&wrong)),
        },
    );
    assert_eq!(plane.verdict(id).unwrap().disposition, Disposition::Rejected);

    let m = plane.metrics();
    assert_eq!(m.submitted, 9);
    assert_eq!(m.rejected, 9);
    assert_eq!(m.accepted, 0);
    // Rejection happens before preparation wherever possible: only the
    // structurally valid submissions cost a cache build.
    assert!(plane.cache_stats().misses <= 2, "{:?}", plane.cache_stats());
}

#[test]
fn preempted_job_resumes_bit_identically() {
    let netlist = small_netlist(12);
    let spec = JobSpec::stuck_at(6);
    let want = reference_stuck_digest(&netlist, &spec);

    let mut plane = ControlPlane::new(ServeConfig {
        slice_batches: 2, // forces 2 preemptions on a 6-batch job
        ..ServeConfig::default()
    })
    .unwrap();
    let tenant = plane.register_tenant("acme", 1);
    let id = plane.submit(tenant, spec, &payload(&netlist));
    plane.run_until_idle();

    let v = plane.verdict(id).expect("job must reach a verdict");
    assert_eq!(v.disposition, Disposition::Completed);
    assert_eq!(v.preemptions, 2, "6 batches in slices of 2 parks twice");
    assert_eq!(v.batches_done, 6);
    assert_eq!(
        v.digest(),
        Some(want),
        "a preempted-and-resumed job must grade bit-identically to an uninterrupted run"
    );
    assert_eq!(plane.metrics().preemptions, 2);
}

#[test]
fn weighted_tenants_split_service_by_weight() {
    let netlist = small_netlist(13);
    let mut plane =
        ControlPlane::new(ServeConfig { slice_batches: 2, ..ServeConfig::default() }).unwrap();
    let light = plane.register_tenant("light", 1);
    let heavy = plane.register_tenant("heavy", 4);
    let light_job = plane.submit(light, JobSpec::stuck_at(8), &payload(&netlist));
    let heavy_job = plane.submit(heavy, JobSpec::stuck_at(8), &payload(&netlist));
    plane.run_until_idle();

    let light_v = plane.verdict(light_job).unwrap();
    let heavy_v = plane.verdict(heavy_job).unwrap();
    assert_eq!(light_v.disposition, Disposition::Completed);
    assert_eq!(heavy_v.disposition, Disposition::Completed);
    // Equal jobs, 4x the weight: the heavy tenant's job must finish
    // first (it receives four slices for each of the light tenant's).
    let heavy_pos = plane.verdicts().iter().position(|v| v.job == heavy_job).unwrap();
    let light_pos = plane.verdicts().iter().position(|v| v.job == light_job).unwrap();
    assert!(
        heavy_pos < light_pos,
        "weight-4 tenant must complete before the weight-1 tenant under contention"
    );
    // Both jobs graded the same design identically regardless of the
    // interleaving.
    assert_eq!(light_v.digest(), heavy_v.digest());
}

#[test]
fn overload_sheds_costliest_job_with_partial_verdict() {
    let netlist = small_netlist(14);
    let mut plane = ControlPlane::new(ServeConfig {
        admission: AdmissionPolicy { max_job_cost: u64::MAX, max_queue_depth: 2 },
        slice_batches: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let tenant = plane.register_tenant("acme", 1);

    let small_a = plane.submit(tenant, JobSpec::stuck_at(2), &payload(&netlist));
    let small_b = plane.submit(tenant, JobSpec::stuck_at(2), &payload(&netlist));
    // The third admit overflows depth 2; this bulky job is the costliest
    // queued (most remaining batches) so it is the victim.
    let bulky = plane.submit(tenant, JobSpec::stuck_at(64), &payload(&netlist));

    let v = plane.verdict(bulky).expect("shed job must still get a verdict");
    assert_eq!(v.disposition, Disposition::Shed);
    assert!(v.reason.as_ref().unwrap().contains("shed under overload"));
    assert!(v.outcome.is_none(), "never ran, so no partial coverage yet");

    plane.run_until_idle();
    assert_eq!(plane.verdict(small_a).unwrap().disposition, Disposition::Completed);
    assert_eq!(plane.verdict(small_b).unwrap().disposition, Disposition::Completed);

    let m = plane.metrics();
    assert_eq!((m.accepted, m.shed, m.completed), (3, 1, 2));
    assert_eq!(m.submitted as usize, plane.verdicts().len(), "no job may vanish");
}

#[test]
fn shed_after_preemption_carries_partial_coverage() {
    let netlist = small_netlist(15);
    let mut plane = ControlPlane::new(ServeConfig {
        admission: AdmissionPolicy { max_job_cost: u64::MAX, max_queue_depth: 1 },
        slice_batches: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let tenant = plane.register_tenant("acme", 1);
    let long_job = plane.submit(tenant, JobSpec::stuck_at(16), &payload(&netlist));

    // Give the long job one slice so it has a parked partial verdict...
    assert!(plane.run_once(), "the long job is queued");
    assert_eq!(plane.metrics().preemptions, 1);
    // ...then overflow the queue: the long job (15 batches remaining vs
    // 2) is the victim, and its verdict must carry the partial coverage.
    let short = plane.submit(tenant, JobSpec::stuck_at(2), &payload(&netlist));

    let v = plane.verdict(long_job).expect("shed long job gets a verdict");
    assert_eq!(v.disposition, Disposition::Shed);
    assert_eq!(v.batches_done, 1);
    let outcome = v.outcome.as_ref().expect("one slice ran: partial coverage exists");
    assert_eq!(outcome.patterns, 64, "one 64-lane batch graded before shedding");

    plane.run_until_idle();
    assert_eq!(plane.verdict(short).unwrap().disposition, Disposition::Completed);
}

#[test]
fn asset_cache_hits_and_evicts_by_lru() {
    let design_a = small_netlist(16);
    let design_b = small_netlist(17);
    let mut plane =
        ControlPlane::new(ServeConfig { cache_capacity: 1, ..ServeConfig::default() }).unwrap();
    let tenant = plane.register_tenant("acme", 1);

    plane.submit(tenant, JobSpec::stuck_at(1), &payload(&design_a));
    plane.submit(tenant, JobSpec::stuck_at(1), &payload(&design_a));
    let s = plane.cache_stats();
    assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));

    plane.submit(tenant, JobSpec::stuck_at(1), &payload(&design_b));
    let s = plane.cache_stats();
    assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 1), "capacity 1 evicts design A");

    // A again: rebuilt, not corrupted by the eviction.
    plane.submit(tenant, JobSpec::stuck_at(1), &payload(&design_a));
    assert_eq!(plane.cache_stats().misses, 3);

    plane.run_until_idle();
    assert_eq!(plane.metrics().completed, 4);
}

#[test]
fn transition_and_custom_fault_jobs_complete() {
    let netlist = small_netlist(18);
    let mut plane = ControlPlane::new(ServeConfig::default()).unwrap();
    let tenant = plane.register_tenant("acme", 1);

    let transition = plane.submit(tenant, JobSpec::transition(2), &payload(&netlist));

    // A custom stuck-at fault list over the submitted netlist's own
    // nodes (preparation preserves their indices).
    let custom: Vec<Fault> =
        FaultUniverse::stuck_at(&netlist).representatives().into_iter().take(50).collect();
    let custom_job = plane.submit(
        tenant,
        JobSpec::stuck_at(2),
        &JobPayload {
            netlist: lbist_ckpt::seal_netlist(&netlist),
            faults: Some(lbist_ckpt::seal_faults(&custom)),
        },
    );
    plane.run_until_idle();

    let tv = plane.verdict(transition).unwrap();
    assert_eq!(tv.disposition, Disposition::Completed, "{:?}", tv.reason);
    assert!(tv.outcome.as_ref().unwrap().coverage.total > 0);

    let cv = plane.verdict(custom_job).unwrap();
    assert_eq!(cv.disposition, Disposition::Completed, "{:?}", cv.reason);
    assert_eq!(
        cv.outcome.as_ref().unwrap().coverage.total,
        custom.len(),
        "the custom list defines the coverage universe"
    );
    // Same design, one preparation: the cache deduplicated the two jobs.
    assert_eq!(plane.cache_stats().misses, 1);
}
