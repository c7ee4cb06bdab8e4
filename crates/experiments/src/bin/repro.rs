//! `repro` — regenerates the SPEF paper's tables and figures, and runs
//! scenario sweeps.
//!
//! ```bash
//! repro                         # run everything at full fidelity
//! repro --exp fig9,table1      # selected experiments
//! repro --quick                # reduced iteration budgets
//! repro --out results          # CSV output directory (default: results)
//! repro --list                 # list experiment ids
//!
//! repro sweep                  # default smoke grid, parallel, JSON report
//! repro sweep --topologies abilene,cernet2 --seeds 1,2,3 \
//!     --loads 0.15,0.3 --betas 0.5,1.0,2.0 --solvers fw \
//!     --json BENCH_sweep.json
//!
//! repro sweep --family sim     # packet-level sim grid (fig4/abilene/cernet2)
//! repro sweep --family failure # single-circuit failure grid (abilene)
//! repro sweep --family scale   # tiered 200/500/1000-node scaling ladder
//! repro sweep --family scale --tile 64   # same ladder, tiled arenas:
//!                                        # results must not move a bit
//! repro sweep --family all     # te grid + sim grid, one report (PR 6 gate)
//! repro sweep --family sim --sim-scheduler heap   # same grid, heap scheduler:
//!                                                 # results must not move a bit
//!
//! repro diff BENCH_a.json BENCH_b.json   # fail on any scenario-result drift
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use spef_experiments::{
    harness::{run_batch, BatchOptions},
    run_experiment, Quality, ScenarioGrid, SolverSpec, TopologySpec, TrafficModel, ALL_EXPERIMENTS,
    EXTRA_EXPERIMENTS,
};
use spef_netsim::SchedulerKind;

struct Args {
    experiments: Vec<String>,
    out_dir: PathBuf,
    quality: Quality,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments: Vec<String> = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    let mut out_dir = PathBuf::from("results");
    let mut quality = Quality::Full;
    let mut list = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--exp" => {
                let val = argv.next().ok_or("--exp needs a value")?;
                if val != "all" {
                    experiments = val.split(',').map(|s| s.trim().to_string()).collect();
                }
            }
            "--out" => {
                out_dir = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--quick" => quality = Quality::Quick,
            "--list" => list = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro [--exp all|id,id,...] [--out DIR] [--quick] [--list]\n\
                     paper artifacts: {}\n\
                     extensions:      {}",
                    ALL_EXPERIMENTS.join(", "),
                    EXTRA_EXPERIMENTS.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        experiments,
        out_dir,
        quality,
        list,
    })
}

/// Rejects a flag's values outside the domain the scenario builders
/// accept (they assert on it), naming the flag and the first bad value.
fn require(flag: &str, vals: &[f64], domain: &str, ok: fn(f64) -> bool) -> Result<(), String> {
    match vals.iter().find(|&&v| !ok(v)) {
        Some(v) => Err(format!("{flag}: {v} is out of range (must be {domain})")),
        None => Ok(()),
    }
}

/// Parses and runs `repro sweep ...`, returning the process exit code.
fn run_sweep(argv: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut grid = ScenarioGrid::new();
    let mut family_all = false;
    let mut json_path = PathBuf::from("BENCH_sweep.json");
    let mut options = BatchOptions::default();

    let parse_list =
        |val: &str| -> Vec<String> { val.split(',').map(|s| s.trim().to_string()).collect() };
    let parse_f64s = |flag: &str, val: &str| -> Result<Vec<f64>, String> {
        val.split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("{flag}: invalid number {s:?}: {e}"))
            })
            .collect()
    };

    let mut argv = argv.peekable();
    let mut grid_customised = false;
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        if arg.starts_with("--")
            && !matches!(
                arg.as_str(),
                "--family" | "--json" | "--serial" | "--sim-scheduler" | "--tile" | "--help" | "-h"
            )
        {
            grid_customised = true;
        }
        match arg.as_str() {
            "--family" => {
                if grid_customised {
                    return Err(
                        "--family replaces the whole grid; pass it before any grid flags".into(),
                    );
                }
                let val = value("--family")?;
                match val.as_str() {
                    "te" => grid = ScenarioGrid::te_family(),
                    "sim" => grid = ScenarioGrid::sim_family(),
                    "failure" => grid = ScenarioGrid::failure_family(),
                    "scale" => grid = ScenarioGrid::scale_family(),
                    "all" => family_all = true,
                    other => {
                        return Err(format!(
                        "--family: unknown family {other:?}; known: te, sim, failure, scale, all"
                    ))
                    }
                };
            }
            "--topologies" => {
                let names = value("--topologies")?;
                grid = grid.topologies(
                    parse_list(&names)
                        .iter()
                        .map(|n| TopologySpec::parse(n))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            "--seeds" => {
                let val = value("--seeds")?;
                grid = grid.seeds(
                    parse_list(&val)
                        .iter()
                        .map(|s| {
                            s.parse::<u64>()
                                .map_err(|e| format!("--seeds: invalid seed {s:?}: {e}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            "--loads" => {
                let val = value("--loads")?;
                let loads = parse_f64s("--loads", &val)?;
                require("--loads", &loads, "finite and non-negative", |v| {
                    v.is_finite() && v >= 0.0
                })?;
                grid = grid.loads(loads);
            }
            "--betas" => {
                let val = value("--betas")?;
                let betas = parse_f64s("--betas", &val)?;
                require("--betas", &betas, "finite and non-negative", |v| {
                    v.is_finite() && v >= 0.0
                })?;
                grid = grid.betas(betas);
            }
            "--q" => {
                let val = value("--q")?;
                let q = val
                    .parse::<f64>()
                    .map_err(|e| format!("--q: invalid value {val:?}: {e}"))?;
                require("--q", &[q], "finite and positive", |v| {
                    v.is_finite() && v > 0.0
                })?;
                grid = grid.q(q);
            }
            "--solvers" => {
                let val = value("--solvers")?;
                grid = grid.solvers(
                    parse_list(&val)
                        .iter()
                        .map(|n| SolverSpec::parse(n))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            "--traffic" => {
                let val = value("--traffic")?;
                grid = grid.traffic_model(match val.as_str() {
                    "ft" => TrafficModel::FortzThorup,
                    "gravity" => TrafficModel::Gravity,
                    other => return Err(format!("--traffic: unknown model {other:?}")),
                });
            }
            "--base-seed" => {
                let val = value("--base-seed")?;
                grid = grid.base_seed(
                    val.parse::<u64>()
                        .map_err(|e| format!("--base-seed: invalid value {val:?}: {e}"))?,
                );
            }
            "--sim-durations" => {
                let val = value("--sim-durations")?;
                let durations = parse_f64s("--sim-durations", &val)?;
                require("--sim-durations", &durations, "finite and positive", |v| {
                    v.is_finite() && v > 0.0
                })?;
                grid = grid.sim_durations(durations);
            }
            "--sim-warmup-frac" => {
                let val = value("--sim-warmup-frac")?;
                let frac = val
                    .parse::<f64>()
                    .map_err(|e| format!("--sim-warmup-frac: invalid value {val:?}: {e}"))?;
                require("--sim-warmup-frac", &[frac], "in [0, 1)", |v| {
                    (0.0..1.0).contains(&v)
                })?;
                grid = grid.sim_warmup_frac(frac);
            }
            "--sim-unit" => {
                let val = value("--sim-unit")?;
                grid = grid.sim_unit_bps(
                    val.parse::<f64>()
                        .map_err(|e| format!("--sim-unit: invalid value {val:?}: {e}"))?,
                );
            }
            "--sim-seed" => {
                let val = value("--sim-seed")?;
                grid = grid.sim_seed(
                    val.parse::<u64>()
                        .map_err(|e| format!("--sim-seed: invalid value {val:?}: {e}"))?,
                );
            }
            "--sim-scheduler" => {
                let val = value("--sim-scheduler")?;
                options.sim_scheduler =
                    SchedulerKind::parse(&val).map_err(|e| format!("--sim-scheduler: {e}"))?;
            }
            "--json" => json_path = PathBuf::from(value("--json")?),
            "--serial" => options.serial = true,
            "--tile" => {
                let val = value("--tile")?;
                let tile = val
                    .parse::<usize>()
                    .map_err(|e| format!("--tile: invalid value {val:?}: {e}"))?;
                if tile == 0 {
                    return Err("--tile: tile size must be at least 1".into());
                }
                options.tile = Some(tile);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro sweep [--family te|sim|failure|scale|all] [--topologies a,b,...] \
                     [--seeds 1,2,...] [--loads 0.15,...] [--betas 1.0,...] [--q 1.0] \
                     [--solvers fw|fw-fast|fw-pinned|dd|ft] [--traffic ft|gravity] \
                     [--base-seed N] [--sim-durations 2,5] [--sim-warmup-frac 0.1] \
                     [--sim-unit 1e6] [--sim-seed N] [--sim-scheduler calendar|heap] \
                     [--json FILE] [--serial] [--tile N]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown sweep argument {other:?}")),
        }
    }

    let scenarios = if family_all {
        // The full regression surface: the PR 2 `te` grid followed by the
        // PR 4 `sim` family, as one report (the PR 6 baseline pair). The
        // solver row is pinned to the PR 6 surface — the Fortz–Thorup row
        // the `te` family gained later is gated by its own PR 9 baseline
        // pair, and the committed PR 6 reports must keep diffing clean.
        let mut scenarios = ScenarioGrid::te_family()
            .solvers([SolverSpec::FrankWolfeFast])
            .build();
        scenarios.extend(ScenarioGrid::sim_family().build());
        scenarios
    } else {
        grid.build()
    };
    println!(
        "sweep: {} scenario(s), {} thread(s)",
        scenarios.len(),
        if options.serial {
            1
        } else {
            rayon::current_num_threads()
        }
    );
    let report = run_batch(scenarios, &options);
    print!("{}", report.summary_table());
    report
        .write(&json_path)
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    println!(
        "sweep: {} ok, {} failed, {:.1}s total; report: {}",
        report.results.len(),
        report.failures.len(),
        report.total_wall_ms / 1e3,
        json_path.display()
    );
    if let Some(spf) = &report.spf {
        println!(
            "  spf: {} builds ({} incremental, {} slots rebuilt), \
             {} topology patches over {} masked links",
            spf.builds,
            spf.incremental_builds,
            spf.slots_rebuilt,
            spf.topology_builds,
            spf.masked_links
        );
    }
    if let Some(repair) = &report.spf_repair {
        println!(
            "  spf repair: {} slots repaired ({} nodes re-settled), {} rebuilt",
            repair.slots_repaired, repair.nodes_resettled, repair.slot_fallbacks
        );
    }
    if report.failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

/// Parses and runs `repro diff BASELINE.json CANDIDATE.json`: compares the
/// deterministic scenario results of two sweep reports and fails on any
/// drift. Wall-clock fields are ignored. The regression gate for perf PRs.
fn run_diff(mut argv: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let usage = "usage: repro diff BASELINE.json CANDIDATE.json";
    let baseline_path = argv.next().ok_or(usage)?;
    let candidate_path = argv.next().ok_or(usage)?;
    if let Some(extra) = argv.next() {
        return Err(format!("unexpected diff argument {extra:?}\n{usage}"));
    }
    let load = |path: &str| -> Result<spef_experiments::harness::BatchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        spef_experiments::harness::BatchReport::from_json(&text)
            .map_err(|e| format!("parsing {path}: {e}"))
    };
    let baseline = load(&baseline_path)?;
    let candidate = load(&candidate_path)?;
    let drift = baseline.result_drift(&candidate);
    if drift.is_empty() {
        println!(
            "diff: {} scenario(s) bit-identical ({} vs {}); wall {:.1} ms -> {:.1} ms",
            baseline.results.len(),
            baseline_path,
            candidate_path,
            baseline.total_wall_ms,
            candidate.total_wall_ms,
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "diff: {} drift(s) between {} and {}:",
            drift.len(),
            baseline_path,
            candidate_path
        );
        for line in &drift {
            eprintln!("  {line}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("sweep") {
        argv.next();
        return match run_sweep(argv) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.peek().map(String::as_str) == Some("diff") {
        argv.next();
        return match run_diff(argv) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for id in ALL_EXPERIMENTS.into_iter().chain(EXTRA_EXPERIMENTS) {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    for id in &args.experiments {
        let started = std::time::Instant::now();
        match run_experiment(id, args.quality) {
            Ok(result) => {
                print!("{result}");
                if let Err(e) = result.write_csvs(&args.out_dir) {
                    eprintln!("error: writing CSVs for {id}: {e}");
                    failed = true;
                } else {
                    println!(
                        "[{id}] done in {:.1}s; {} CSV file(s) in {}\n",
                        started.elapsed().as_secs_f64(),
                        result.csvs.len(),
                        args.out_dir.display()
                    );
                }
            }
            Err(e) => {
                eprintln!("error: experiment {id}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
