//! Driver fidelity: the benchmark's Table 1 driver reproduces
//! `run_table1_flow`, and the traced split of `prepare_core` reproduces
//! `prepare_core` itself.

use lbist_bench::run_table1_flow;
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{PrepConfig, TpiMethod};
use lbist_perfbench::flow::{prepare, run_flow, Table1Config};
use lbist_perfbench::trace::Tracer;

/// Small scaled columns: Core X (2 domains) and Core Y (8 domains).
fn small_columns() -> Vec<Table1Config> {
    [(CoreProfile::core_x().scaled(400), 3), (CoreProfile::core_y().scaled(800), 5)]
        .into_iter()
        .map(|(profile, seed)| Table1Config {
            profile,
            netlist_seed: seed,
            seed,
            prpg_seed: lbist_core::StumpsConfig::default().seed,
            random_patterns: 256,
            obs_budget: 4,
            target_chains: 24,
        })
        .collect()
}

#[test]
fn driver_reproduces_run_table1_flow() {
    for cfg in small_columns() {
        let column = run_table1_flow(
            &cfg.profile,
            cfg.seed,
            cfg.random_patterns,
            cfg.obs_budget,
            cfg.target_chains,
        );
        let netlist = CpuCoreGenerator::new(cfg.profile.clone(), cfg.netlist_seed).generate();
        for mut tracer in [Tracer::disabled(), Tracer::new()] {
            let out = run_flow(&netlist, &cfg, &mut tracer);
            let name = &cfg.profile.name;
            assert_eq!(out.coverage_random_pct(), column.fc1, "{name}: FC1");
            assert_eq!(out.table1_fc2(), column.fc2, "{name}: FC2");
            assert_eq!(out.report.patterns.len(), column.top_up_patterns, "{name}: top-up");
            assert_eq!(out.core.observation_cells.len(), column.test_points, "{name}: TPs");
            assert_eq!(out.core.chains.num_chains(), column.chains, "{name}: chains");
            assert!(out.coverage_final_pct() >= out.coverage_random_pct());
        }
    }
}

#[test]
fn traced_prepare_split_matches_prepare_core() {
    for cfg in small_columns() {
        let netlist = CpuCoreGenerator::new(cfg.profile.clone(), cfg.netlist_seed).generate();
        let selftest = PrepConfig { obs_budget: 0, tpi: TpiMethod::None, ..cfg.prep_config() };
        for prep in [cfg.prep_config(), selftest] {
            let whole = prepare(&netlist, &prep, &mut Tracer::disabled());
            let mut tracer = Tracer::new();
            let split = prepare(&netlist, &prep, &mut tracer);
            assert_eq!(split.observation_sites, whole.observation_sites);
            assert_eq!(split.observation_cells, whole.observation_cells);
            assert_eq!(
                lbist_ckpt::netlist_fingerprint(&split.netlist),
                lbist_ckpt::netlist_fingerprint(&whole.netlist)
            );
            assert_eq!(split.chains.num_chains(), whole.chains.num_chains());
            assert_eq!(split.chains.max_chain_length(), whole.chains.max_chain_length());
            assert_eq!(split.overhead.percent(), whole.overhead.percent());
            let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
            for stage in ["dft.xbound", "dft.wrap", "dft.insert", "dft.stitch"] {
                assert!(names.contains(&stage), "missing span {stage}: {names:?}");
            }
            let tpi = prep.tpi != TpiMethod::None;
            assert_eq!(names.contains(&"dft.tpi_grade"), tpi);
            assert_eq!(tracer.values().contains_key("dft.tpi_sites"), tpi);
        }
    }
}
