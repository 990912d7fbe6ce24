//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-x --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs a closed loop of untraced iterations for `--seconds`
//! and reports the end-to-end metrics. `flow_s` and `setup_s` are the
//! fastest iteration and set-up: their work is fixed by the seed, and
//! other tenants of a shared host only ever add time. `--trace 1` runs
//! the same loop, then one traced iteration plus the layer probes, and
//! reports the per-layer metrics; the spans go to `perfbench/out/` as
//! Chrome trace-event JSON. The last line of standard output is the result
//! object; every iteration's outputs are checked.

use lbist_cores::CpuCoreGenerator;
use lbist_netlist::{Netlist, NodeId};
use lbist_perfbench::flow::{self, FlowOutcome, Table1Config};
use lbist_perfbench::host::{self, fastest};
use lbist_perfbench::probe;
use lbist_perfbench::selftest::{self, SelftestConfig, SessionOutcome};
use lbist_perfbench::trace::{json_string, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// The default `--seed`: the workloads then run `table1`'s seeds and
/// settings on their cores, and the digests below are pinned for it.
const DEFAULT_SEED: u64 = 42;

/// Pre-top-up digests (TPI sites + random-phase undetected set) of the
/// default seed.
const PINNED_TABLE1_X: u64 = 0x08b6_c9ee_087f_cffb;
const PINNED_TABLE1_Y: u64 = 0xdde9_ca94_4871_2eb3;
/// Stuck-at and transition `WideGradingOutcome::digest()` of the
/// default seed.
const PINNED_SELFTEST_STUCK: u64 = 0x5899_be86_b3c7_b529;
const PINNED_SELFTEST_TRANSITION: u64 = 0xe960_7214_530e_eb4e;

/// Set-up repetitions per run; `setup_s` is the fastest. A block at the
/// start of the run, then a slice before every iteration, so the set-ups
/// span the same stretch of the host's time as the iterations.
const SETUP_BLOCK: (usize, f64) = (10, 0.5);
const SETUP_SLICE: (usize, f64) = (3, 0.15);
const SETUP_MAX_REPS: usize = 10_000;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("coverage_random_pct", "%"),
    ("coverage_final_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`. A `*_s` figure is the
/// self time of the spans of that name; a stage a workload does not run
/// reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("cores.generate_s", "s"),
    ("dft.xbound_s", "s"),
    ("dft.wrap_s", "s"),
    ("dft.tpi_grade_s", "s"),
    ("dft.tpi_select_s", "s"),
    ("dft.insert_s", "s"),
    ("dft.stitch_s", "s"),
    ("dft.tpi_survivors", "count"),
    ("dft.tpi_sites", "count"),
    ("dft.tpi_cover_ratio", "ratio"),
    ("sim.compile_s", "s"),
    ("sim.lower_s", "s"),
    ("sim.kernel_instrs", "count"),
    ("fault.universe_s", "s"),
    ("core.fill_s", "s"),
    ("fault.random_grade_s", "s"),
    ("fault.random_faults_graded", "count"),
    ("fault.random_faults_graded_per_s", "1/s"),
    ("grading.stuck_s", "s"),
    ("grading.stuck.fill_s", "s"),
    ("grading.stuck.sim_s", "s"),
    ("grading.stuck.detect_s", "s"),
    ("grading.stuck.absorb_s", "s"),
    ("grading.stuck.lower_s", "s"),
    ("grading.stuck.faults_graded", "count"),
    ("grading.stuck.faults_graded_per_s", "1/s"),
    ("grading.transition_s", "s"),
    ("grading.transition.fill_s", "s"),
    ("grading.transition.sim_s", "s"),
    ("grading.transition.detect_s", "s"),
    ("grading.transition.absorb_s", "s"),
    ("grading.transition.lower_s", "s"),
    ("grading.transition.faults_graded", "count"),
    ("grading.transition.faults_graded_per_s", "1/s"),
    ("atpg.topup_s", "s"),
    ("atpg.targets", "count"),
    ("atpg.detected", "count"),
    ("atpg.untestable", "count"),
    ("atpg.aborted", "count"),
    ("atpg.patterns", "count"),
    ("atpg.resolved_ratio", "ratio"),
    ("atpg.podem.median_us", "us"),
    ("atpg.podem.p90_us", "us"),
    ("atpg.podem.abort_time_share", "ratio"),
    ("exec.cpu_util.tpi", "ratio"),
    ("exec.cpu_util.random", "ratio"),
    ("exec.cpu_util.topup", "ratio"),
    ("exec.cpu_util.stuck", "ratio"),
    ("exec.cpu_util.transition", "ratio"),
    ("exec.tasks_run", "count"),
    ("exec.steals", "count"),
    ("exec.shard_retries", "count"),
    ("flow.span_coverage_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Spans whose self time is reported, and the metric it is reported as.
const TIMED_SPANS: [(&str, &str); 14] = [
    ("cores.generate", "cores.generate_s"),
    ("dft.xbound", "dft.xbound_s"),
    ("dft.wrap", "dft.wrap_s"),
    ("dft.tpi_grade", "dft.tpi_grade_s"),
    ("dft.tpi_select", "dft.tpi_select_s"),
    ("dft.insert", "dft.insert_s"),
    ("dft.stitch", "dft.stitch_s"),
    ("sim.compile", "sim.compile_s"),
    ("fault.universe", "fault.universe_s"),
    ("core.fill", "core.fill_s"),
    ("fault.random_grade", "fault.random_grade_s"),
    ("grading.stuck", "grading.stuck_s"),
    ("grading.transition", "grading.transition_s"),
    ("atpg.topup", "atpg.topup_s"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Table1X,
    Table1Y,
    SelftestY,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Table1X => "table1-x",
            Workload::Table1Y => "table1-y",
            Workload::SelftestY => "selftest-y",
        }
    }

    /// The workload's inputs for `--seed`. The netlists stay the Table 1
    /// cores at the workload's scale; the seed picks the test-generation
    /// streams (TPI grading and top-up fill seed, PRPG seed). Its offset
    /// from the default is XORed into `table1`'s seeds, so the default
    /// seed runs `table1`'s seeds.
    fn table1_config(self, seed: u64) -> Table1Config {
        let mut cfg =
            if self == Workload::Table1X { Table1Config::core_x() } else { Table1Config::core_y() };
        cfg.seed ^= seed ^ DEFAULT_SEED;
        cfg.prpg_seed ^= seed ^ DEFAULT_SEED;
        cfg
    }

    /// The self-test session's inputs for `--seed` (the PRPG seed, as
    /// for [`Workload::table1_config`]).
    fn selftest_config(seed: u64) -> SelftestConfig {
        let mut cfg = SelftestConfig::core_y();
        cfg.prpg_seed ^= seed ^ DEFAULT_SEED;
        cfg
    }

    /// (netlist, TPI/top-up, PRPG) seeds of the workload.
    fn seeds(self, seed: u64) -> (u64, u64, u64) {
        match self {
            Workload::SelftestY => {
                let cfg = Workload::selftest_config(seed);
                (cfg.netlist_seed, cfg.netlist_seed, cfg.prpg_seed)
            }
            _ => {
                let cfg = self.table1_config(seed);
                (cfg.netlist_seed, cfg.seed, cfg.prpg_seed)
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` expects a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "table1-x" => Workload::Table1X,
                    "table1-y" => Workload::Table1Y,
                    "selftest-y" => Workload::SelftestY,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("`--seed`: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("`--seconds`: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("`--seconds` must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace` expects 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required (table1-x, table1-y, selftest-y)")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Correctness bookkeeping: every iteration is one attempted operation,
/// failed if any of its checks fails.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn judge(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAILED {what}: {p}");
            }
        }
    }
}

/// Expected identity of an iteration: the pinned value on the default
/// seed, else whatever the first iteration produced.
struct Expect<T> {
    pinned: Option<T>,
    first: Option<T>,
}

impl<T: PartialEq + Copy + std::fmt::Debug> Expect<T> {
    fn new(pinned: Option<T>) -> Self {
        Expect { pinned, first: None }
    }

    fn check(&mut self, what: &str, got: T, problems: &mut Vec<String>) {
        if let Some(p) = self.pinned {
            if got != p {
                problems.push(format!("{what} {got:x?} differs from the pinned {p:x?}"));
            }
        }
        match self.first {
            None => self.first = Some(got),
            Some(f) if f != got => {
                problems.push(format!("{what} {got:x?} differs from the first iteration's {f:x?}"))
            }
            Some(_) => {}
        }
    }
}

/// What a whole run measured.
struct Measured {
    setup_s: Vec<f64>,
    flow_s: Vec<f64>,
    peak_rss_mb: f64,
    coverage_random_pct: f64,
    coverage_final_pct: f64,
    layers: BTreeMap<&'static str, f64>,
}

fn generate(cfg_profile: &lbist_cores::CoreProfile, seed: u64) -> Netlist {
    CpuCoreGenerator::new(cfg_profile.clone(), seed).generate()
}

/// The closed loop: `iteration` runs back to back while the rest of the
/// `seconds` budget has room for one more of the mean length so far; at
/// least once. Returns the peak RSS after the first iteration: later
/// iterations add allocator churn, not working set, and their number
/// varies with the machine's speed.
fn closed_loop(seconds: f64, mut iteration: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut done = 0u32;
    let mut peak_rss_mb = 0.0;
    loop {
        iteration();
        done += 1;
        if done == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(done) > seconds {
            return peak_rss_mb;
        }
    }
}

/// Times `setup` repeatedly, at least `min_reps` times and for at least
/// `min_s` seconds (at most `SETUP_MAX_REPS` times), appends every time
/// to `times` and returns the last result.
fn repeated_setup<T>(
    times: &mut Vec<f64>,
    (min_reps, min_s): (usize, f64),
    mut setup: impl FnMut() -> T,
) -> T {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let out = setup();
        times.push(t0.elapsed().as_secs_f64());
        reps += 1;
        let enough = reps >= min_reps && start.elapsed().as_secs_f64() >= min_s;
        if enough || reps >= SETUP_MAX_REPS {
            return out;
        }
        drop(out);
    }
}

fn table1(args: &Args, checks: &mut Checks) -> Measured {
    let cfg = args.workload.table1_config(args.seed);
    let pinned = (args.seed == DEFAULT_SEED).then_some(match args.workload {
        Workload::Table1X => PINNED_TABLE1_X,
        _ => PINNED_TABLE1_Y,
    });

    let mut setup_s = Vec::new();
    let netlist =
        repeated_setup(&mut setup_s, SETUP_BLOCK, || generate(&cfg.profile, cfg.netlist_seed));

    let mut digest = Expect::new(pinned);
    let mut topup = Expect::new(None);
    let mut check = |out: &FlowOutcome| -> Vec<String> {
        let mut problems = Vec::new();
        digest.check("pre-top-up digest", out.pre_topup_digest(), &mut problems);
        let r = &out.report;
        topup.check(
            "top-up (detected, untestable, aborted, patterns)",
            (r.faults_detected, r.untestable, r.aborted, r.patterns.len()),
            &mut problems,
        );
        let regraded = flow::regrade_topup(&out.cc, &out.survivors, r);
        if regraded != r.faults_detected {
            problems.push(format!(
                "top-up patterns re-graded detect {regraded} survivors, the report claims {}",
                r.faults_detected
            ));
        }
        problems
    };

    let mut flow_s = Vec::new();
    let mut coverage = (0.0, 0.0);
    let mut reference: Option<(Vec<NodeId>, u64)> = None;
    let peak_rss_mb = closed_loop(args.seconds, || {
        repeated_setup(&mut setup_s, SETUP_SLICE, || generate(&cfg.profile, cfg.netlist_seed));
        let out = flow::run_flow(&netlist, &cfg, &mut Tracer::disabled());
        flow_s.push(out.flow_s);
        coverage = (out.coverage_random_pct(), out.coverage_final_pct());
        if reference.is_none() {
            reference = Some((
                out.core.observation_sites.clone(),
                lbist_ckpt::netlist_fingerprint(&out.core.netlist),
            ));
        }
        checks.judge("iteration", check(&out));
    });

    let mut layers = BTreeMap::new();
    if args.trace {
        let mut t = Tracer::new();
        let pool0 = pool_counters();
        let netlist = t.span("setup", |t| {
            t.span("cores.generate", |_| generate(&cfg.profile, cfg.netlist_seed))
        });
        let out = flow::run_flow(&netlist, &cfg, &mut t);
        let mut problems = check(&out);
        let (sites, fingerprint) = reference.as_ref().expect("the loop ran once");
        if &out.core.observation_sites != sites
            || lbist_ckpt::netlist_fingerprint(&out.core.netlist) != *fingerprint
        {
            problems.push("the traced split of prepare_core diverged from prepare_core".into());
        }
        checks.judge("traced iteration", problems);
        let r = &out.report;
        let targets = out.survivors.len();
        t.record("atpg.targets", targets as f64);
        t.record("atpg.detected", r.faults_detected as f64);
        t.record("atpg.untestable", r.untestable as f64);
        t.record("atpg.aborted", r.aborted as f64);
        t.record("atpg.patterns", r.patterns.len() as f64);
        t.record("atpg.resolved_ratio", (targets - r.aborted) as f64 / targets.max(1) as f64);
        probe::lowering(&out.cc, &out.faults, &mut t);
        probe::podem(&out.cc, &probe::sample(&out.survivors), &mut t);
        layers = layer_metrics(&t, out.flow_s, fastest(&flow_s), pool0);
        let graded = t.values().get("fault.random_faults_graded").copied().unwrap_or(0.0);
        layers.insert(
            "fault.random_faults_graded_per_s",
            graded / layers["fault.random_grade_s"].max(1e-9),
        );
        finish_trace(&t, args, out.flow_s);
    }
    Measured {
        setup_s,
        flow_s,
        peak_rss_mb,
        coverage_random_pct: coverage.0,
        coverage_final_pct: coverage.1,
        layers,
    }
}

fn selftest_workload(args: &Args, checks: &mut Checks) -> Measured {
    let cfg = Workload::selftest_config(args.seed);
    let default_seed = args.seed == DEFAULT_SEED;

    let setup = || {
        let netlist = generate(&cfg.profile, cfg.netlist_seed);
        selftest::setup(&netlist, &cfg, &mut Tracer::disabled())
    };
    let mut setup_s = Vec::new();
    let inputs = repeated_setup(&mut setup_s, SETUP_BLOCK, setup);
    let fingerprint = lbist_ckpt::netlist_fingerprint(&inputs.core.netlist);

    let mut stuck_digest = Expect::new(default_seed.then_some(PINNED_SELFTEST_STUCK));
    let mut transition_digest = Expect::new(default_seed.then_some(PINNED_SELFTEST_TRANSITION));
    let mut check = |s: &SessionOutcome| -> Vec<String> {
        let mut problems = Vec::new();
        stuck_digest.check("stuck-at digest", s.stuck.outcome.digest(), &mut problems);
        transition_digest.check("transition digest", s.transition.outcome.digest(), &mut problems);
        problems
    };

    let mut flow_s = Vec::new();
    let mut coverage = 0.0;
    let peak_rss_mb = closed_loop(args.seconds, || {
        repeated_setup(&mut setup_s, SETUP_SLICE, setup);
        let s = selftest::run_session(&inputs, &cfg, &mut Tracer::disabled());
        flow_s.push(s.flow_s());
        coverage = s.stuck.outcome.coverage.percent();
        checks.judge("iteration", check(&s));
    });

    let mut layers = BTreeMap::new();
    if args.trace {
        let mut t = Tracer::new();
        let pool0 = pool_counters();
        let traced = t.span("setup", |t| {
            let netlist = t.span("cores.generate", |_| generate(&cfg.profile, cfg.netlist_seed));
            selftest::setup(&netlist, &cfg, t)
        });
        let s = selftest::run_session(&traced, &cfg, &mut t);
        let mut problems = check(&s);
        if lbist_ckpt::netlist_fingerprint(&traced.core.netlist) != fingerprint
            || !traced.core.observation_sites.is_empty()
        {
            problems.push("the traced split of prepare_core diverged from prepare_core".into());
        }
        checks.judge("traced iteration", problems);
        probe::lowering(&traced.cc, &traced.stuck, &mut t);
        let survivors: Vec<_> =
            s.stuck.outcome.undetected_indices().into_iter().map(|i| traced.stuck[i]).collect();
        probe::podem(&traced.cc, &probe::sample(&survivors), &mut t);
        layers = layer_metrics(&t, s.flow_s(), fastest(&flow_s), pool0);
        finish_trace(&t, args, s.flow_s());
    }
    Measured {
        setup_s,
        flow_s,
        peak_rss_mb,
        coverage_random_pct: coverage,
        // No top-up in a self-test session: final coverage is the
        // random-pattern coverage.
        coverage_final_pct: coverage,
        layers,
    }
}

/// Pool counters from `lbist_obs::global()`: (tasks run, steals, shard
/// retries), summed over every worker identity.
fn pool_counters() -> (u64, u64, u64) {
    let snap = lbist_obs::global().snapshot();
    let sum = |suffix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(n, _)| n.starts_with("exec.pool") && n.ends_with(suffix))
            .map(|&(_, v)| v)
            .sum()
    };
    (sum(".tasks_run"), sum(".steals"), snap.counter("exec.shard_retries").unwrap_or(0))
}

/// Per-layer figures of a traced run: span self times, the tracer's
/// recorded values, pool counter deltas, span coverage of the flow and
/// the tracing overhead against the fastest untraced iteration.
fn layer_metrics(
    t: &Tracer,
    traced_flow_s: f64,
    untraced_flow_s: f64,
    pool0: (u64, u64, u64),
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let self_times = t.self_times();
    for (span, metric) in TIMED_SPANS {
        m.insert(metric, self_times.get(span).copied().unwrap_or(0.0));
    }
    for (&k, &v) in t.values() {
        if m.contains_key(k) {
            m.insert(k, v);
        }
    }
    let pool1 = pool_counters();
    m.insert("exec.tasks_run", pool1.0.saturating_sub(pool0.0) as f64);
    m.insert("exec.steals", pool1.1.saturating_sub(pool0.1) as f64);
    m.insert("exec.shard_retries", pool1.2.saturating_sub(pool0.2) as f64);
    m.insert("flow.span_coverage_pct", t.child_coverage_pct("flow"));
    m.insert(
        "trace_overhead_pct",
        (traced_flow_s - untraced_flow_s) / untraced_flow_s.max(1e-9) * 100.0,
    );
    m
}

/// Prints the per-stage table of the traced flow and writes the Chrome
/// trace.
fn finish_trace(t: &Tracer, args: &Args, traced_flow_s: f64) {
    let Some(root) = t.spans().iter().position(|s| s.name == "flow") else { return };
    let mut stages: BTreeMap<&str, f64> = BTreeMap::new();
    for s in t.spans().iter().filter(|s| s.parent == Some(root)) {
        *stages.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
    }
    let mut rows: Vec<(&str, f64)> = stages.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("traced flow {:.3} s, stages by wall time:", traced_flow_s);
    for (i, (name, secs)) in rows.iter().enumerate() {
        let tag = if i == 0 { "  <- dominant" } else { "" };
        println!(
            "  {name:<22} {secs:>9.3} s {:>6.1}%{tag}",
            secs / traced_flow_s.max(1e-9) * 100.0
        );
    }
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, t.to_chrome_json(&host_record(args))));
    match written {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The `[profile.release]` table this binary was built with.
fn release_profile() -> String {
    let manifest = include_str!("../Cargo.toml");
    let table = manifest.split("[profile.release]").nth(1).unwrap_or("");
    let settings: Vec<&str> = table
        .lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let build = if cfg!(debug_assertions) { "debug assertions on" } else { "optimized" };
    format!("{build}; {}", settings.join("; "))
}

fn host_record(args: &Args) -> Vec<(&'static str, String)> {
    let seeds = args.workload.seeds(args.seed);
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("netlist_seed", seeds.0.to_string()),
        ("test_seed", seeds.1.to_string()),
        ("prpg_seed", seeds.2.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
        ),
        ("pool_threads", lbist_exec::current_num_threads().to_string()),
        ("release_profile", release_profile()),
    ]
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let host: Vec<String> = host_record(&args)
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_string(&v)))
        .collect();
    println!("host: {{{}}}", host.join(", "));

    let mut checks = Checks::default();
    let m = match args.workload {
        Workload::Table1X | Workload::Table1Y => table1(&args, &mut checks),
        Workload::SelftestY => selftest_workload(&args, &mut checks),
    };
    println!("iterations: {}; flow_s {:?}; set-ups: {}", m.flow_s.len(), m.flow_s, m.setup_s.len());

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, m.layers[n])).collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => fastest(&m.setup_s),
            "flow_s" => fastest(&m.flow_s),
            "coverage_random_pct" => m.coverage_random_pct,
            "coverage_final_pct" => m.coverage_final_pct,
            _ => m.peak_rss_mb,
        };
        END_TO_END.iter().map(|&(n, u)| (n, u, value(n))).collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        json_metrics(&metrics)
    );
}
