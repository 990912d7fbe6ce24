//! Control-plane benchmark: a mixed multi-tenant workload through
//! `lbist-serve`, self-checking the scheduler's contract while it
//! measures.
//!
//! The workload exercises every control-plane path on one synthetic
//! core design:
//!
//! * a **long** weight-1 job sliced small enough to force preemptions,
//! * a stream of **short** weight-4 jobs contending with it,
//! * one deliberately **over-budget** job (admission must reject it),
//! * one bulky job into a bounded queue (shedding must evict it with a
//!   verdict, not drop it).
//!
//! Before writing anything the binary asserts the invariants the serve
//! crate's tests pin: every submitted job reaches a terminal verdict,
//! the long job's preempt→resume digest equals a direct uninterrupted
//! [`WideGradingSession`] run, and the metrics balance. Then it emits
//! `BENCH_serve.json` — throughput, p50/p99 latency, preemption / shed /
//! retry counts, cache stats — atomically (tmp + fsync + rename).
//!
//! ```text
//! cargo run --release --bin bench_serve [--scale N] [--short-jobs N]
//!           [--serial | --threads N] [--out PATH] [--metrics-out PATH]
//! ```
//!
//! The plane registers its `serve.*` lifecycle counters and queue-wait /
//! slice-latency histograms in the process-global metrics registry;
//! `--metrics-out PATH` writes a snapshot of that registry after the
//! run — JSON by default, Prometheus text exposition for a
//! `.prom`/`.txt` extension.

use lbist_bench::{
    arg_positive, arg_value_strict, cli_metrics_out, cli_thread_budget, write_metrics_snapshot,
};
use lbist_core::{StumpsConfig, WideGradingSession};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
use lbist_fault::FaultUniverse;
use lbist_serve::{AdmissionPolicy, ControlPlane, Disposition, JobPayload, JobSpec, ServeConfig};
use lbist_sim::CompiledCircuit;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// `p` in [0, 1] over an unsorted latency sample (nearest-rank).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let scale = arg_positive("--scale").unwrap_or(600);
    let short_jobs = arg_positive("--short-jobs").unwrap_or(6);
    let out_path: String =
        arg_value_strict("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let metrics_out = cli_metrics_out();
    let threads = cli_thread_budget();

    let profile = CoreProfile::core_x().scaled(scale);
    println!("generating {} (scale {scale})...", profile.name);
    let netlist = CpuCoreGenerator::new(profile, 7).generate();
    let payload = JobPayload { netlist: lbist_ckpt::seal_netlist(&netlist), faults: None };

    let long_spec = JobSpec::stuck_at(8);
    let short_spec = JobSpec::stuck_at(2);

    // The uninterrupted reference the preempted long job must match.
    let want_digest = {
        let core = prepare_core(
            &netlist,
            &PrepConfig {
                total_chains: long_spec.chains,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let cc = CompiledCircuit::compile(&core.netlist).expect("core compiles");
        let faults = FaultUniverse::stuck_at(&core.netlist).representatives();
        let mut session: WideGradingSession<'_, u64> =
            WideGradingSession::new(&core, &cc, &StumpsConfig::default());
        session.set_drop_after(long_spec.drop_after);
        session.run_stuck_at(faults, long_spec.batches as usize).digest()
    };

    let mut plane = ControlPlane::new(ServeConfig {
        // Depth bound sized so exactly the deliberate bulky overflow
        // job is shed: long + shorts fit, one more does not.
        admission: AdmissionPolicy { max_job_cost: 4_000_000_000, max_queue_depth: 1 + short_jobs },
        slice_batches: 2, // preempts the 8-batch long job three times
        threads,
        // One registry for the whole process: serve.* lands next to the
        // grading and pool counters in the `--metrics-out` snapshot.
        registry: Some(lbist_obs::global().clone()),
        ..ServeConfig::default()
    })
    .expect("spool dir");
    let light = plane.register_tenant("light", 1);
    let heavy = plane.register_tenant("heavy", 4);

    let t0 = Instant::now();
    let long_job = plane.submit(light, long_spec.clone(), &payload);
    let shorts: Vec<_> =
        (0..short_jobs).map(|_| plane.submit(heavy, short_spec.clone(), &payload)).collect();

    // Admission control: a batch target that blows the cost budget.
    let rejected_job = plane.submit(light, JobSpec::stuck_at(1 << 40), &payload);

    // Overload shedding: the queue is at its depth bound, so this bulky
    // job (most remaining work) is evicted with a verdict.
    let shed_job = plane.submit(light, JobSpec::stuck_at(64), &payload);

    plane.run_until_idle();
    let wall = t0.elapsed();

    // ---- Contract checks (the CI smoke runs this binary for these).
    let m = plane.metrics();
    assert_eq!(
        m.submitted as usize,
        plane.verdicts().len(),
        "every submitted job must reach a terminal verdict"
    );
    // The metrics-balance invariant (every accepted job is terminal or
    // still queued) — also pinned mid-run, with in-flight jobs, by the
    // serve crate's metrics_invariants test.
    assert_eq!(
        m.accepted,
        m.completed + m.failed + m.shed + plane.queue_depth() as u64,
        "accepted jobs must balance"
    );
    assert_eq!(m.failed, 0, "nothing in this workload should fail");

    let rejected = plane.verdict(rejected_job).expect("rejection verdict");
    assert_eq!(rejected.disposition, Disposition::Rejected, "over-budget job must be rejected");
    println!("rejected over-budget job: {}", rejected.reason.as_deref().unwrap_or(""));

    let shed = plane.verdict(shed_job).expect("shed verdict");
    assert_eq!(shed.disposition, Disposition::Shed, "overflow job must be shed, not dropped");

    let long = plane.verdict(long_job).expect("long job verdict");
    assert_eq!(long.disposition, Disposition::Completed);
    assert!(long.preemptions >= 1, "the long job must have been preempted");
    assert_eq!(
        long.digest(),
        Some(want_digest),
        "preempt→resume must be bit-identical to the uninterrupted reference"
    );
    for &id in &shorts {
        assert_eq!(plane.verdict(id).unwrap().disposition, Disposition::Completed);
    }
    println!(
        "long job: {} preemptions, digest {:#018x} == uninterrupted reference",
        long.preemptions, want_digest
    );

    // ---- Measurements.
    let mut latencies: Vec<Duration> = plane
        .verdicts()
        .iter()
        .filter(|v| v.disposition == Disposition::Completed)
        .map(|v| v.latency)
        .collect();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let batches_served: u64 = plane.verdicts().iter().map(|v| v.batches_done).sum();
    let throughput = m.completed as f64 / wall.as_secs_f64();
    let cache = plane.cache_stats();
    println!(
        "{} completed in {:.3}s ({throughput:.1} jobs/s, {batches_served} batches); \
         p50 {:.1}ms, p99 {:.1}ms; {} preemptions, {} shed, {} cache hits",
        m.completed,
        wall.as_secs_f64(),
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        m.preemptions,
        m.shed,
        cache.hits,
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(
        json,
        "  \"core\": {{\"profile\": \"core_x\", \"scale\": {scale}, \"gates\": {}}},",
        netlist.gate_count()
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"long_batches\": {}, \"short_jobs\": {short_jobs}, \
         \"short_batches\": {}}},",
        long_spec.batches, short_spec.batches
    );
    let _ = writeln!(json, "  \"wall_seconds\": {:.6},", wall.as_secs_f64());
    let _ = writeln!(json, "  \"jobs_per_second\": {throughput:.3},");
    let _ = writeln!(json, "  \"batches_served\": {batches_served},");
    let _ = writeln!(
        json,
        "  \"latency\": {{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}}},",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "  \"jobs\": {{\"submitted\": {}, \"accepted\": {}, \"completed\": {}, \
         \"rejected\": {}, \"shed\": {}, \"failed\": {}}},",
        m.submitted, m.accepted, m.completed, m.rejected, m.shed, m.failed
    );
    let _ = writeln!(
        json,
        "  \"scheduler\": {{\"preemptions\": {}, \"retries\": {}}},",
        m.preemptions, m.retries
    );
    let _ = writeln!(
        json,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},",
        cache.hits, cache.misses, cache.evictions
    );
    // The timing-free identity: the preempted long job's verdict digest
    // (== its uninterrupted reference, asserted above).
    let _ = writeln!(json, "  \"digest\": {want_digest}");
    let _ = writeln!(json, "}}");

    // Atomic replace: a crash mid-write can never leave a torn
    // BENCH_serve.json for a comparison script.
    lbist_ckpt::write_atomic(std::path::Path::new(&out_path), json.as_bytes())
        .expect("write benchmark JSON");
    println!("\n{json}");
    println!("wrote {out_path}");
    if let Some(path) = &metrics_out {
        write_metrics_snapshot(path, &plane.registry().snapshot());
    }
}
