//! `te_stream`: the operator's "new traffic matrix → new weights" path.
//!
//! Each topology gets a day of traffic-matrix snapshots: the base
//! Fortz–Thorup matrix times a diurnal scale, with seeded per-pair noise
//! that drifts from snapshot to snapshot, and a fresh base matrix every
//! [`FRESH_EVERY`] snapshots. The stream is shaped against the solver's
//! warm-start gate ([`WARM_START_MAX_REL_L1`]): every snapshot that keeps
//! its base differs from the one before by less than the gate, so it can
//! warm-start, and every fresh base differs by far more, so it starts
//! cold. The base matrices are fixed ([`MATRIX_SEED`]); the run seed drives
//! the noise. Each snapshot is solved by the `fw-fast` SPEF pipeline
//! (Frank–Wolfe → NEM → FIB) on one persistent `TeWorkspace` per topology,
//! topologies taking turns.
//!
//! The traced run repeats every solve on a second workspace through the
//! public stages `SpefConfig::solve_in` runs — Frank–Wolfe, the support
//! slack tolerance, the DAG build, NEM and the FIB build — each in a span,
//! and requires the staged routing (second weights and FIB entries) to
//! equal the pipeline's bit for bit.

use std::time::{Duration, Instant};

use serde::Value;
use spef_core::dual_decomp::WEIGHT_FLOOR;
use spef_core::protocol::support_slack_tolerance;
use spef_core::{
    EngineState, ForwardingTable, FrankWolfeConfig, NemConfig, NemInstance, Objective,
    RoutingEngine, SpefConfig, SpefError, SpefRouting, SplitRule, TeInstance, TeSolver,
    TeSolverKind, TeWorkspace,
};
use spef_experiments::scenario::{SolverSpec, TopologySpec};
use spef_topology::{Network, TrafficMatrix};

use crate::inputs::{derive, fortz_thorup, rel_l1, Digest, PairNoise, Rng, MATRIX_SEED};
use crate::trace::{Layer, Tracer};
use crate::{closed_loop, obj, same_bits, timed_setups, Outcome, RunConfig, SpfTotals};

/// Topologies and the network load of their base matrices.
const TOPOLOGIES: [(TopologySpec, f64); 3] = [
    (TopologySpec::Abilene, 0.08),
    (TopologySpec::Cernet2, 0.04),
    (TopologySpec::Rand50a, 0.05),
];
/// Snapshots per topology in one pass: one day, 40 minutes apart (so a
/// pass holds more than a hundred solves and its tail percentile rests on
/// at least ten of them).
const SNAPSHOTS: usize = 36;
/// Every this many snapshots the base matrix is replaced.
const FRESH_EVERY: usize = 6;
/// Peak deviation of the diurnal scale from 1. The largest step of the
/// scale between snapshots is `2π / SNAPSHOTS · DIURNAL_SWING` ≈ 2.6 %.
const DIURNAL_SWING: f64 = 0.15;
/// Per-pair multiplicative noise half-width.
const PAIR_NOISE: f64 = 0.05;
/// Largest move of a pair's noise factor between snapshots.
const NOISE_STEP: f64 = 0.01;
/// The Frank–Wolfe delta-repair warm start's gate on the relative L1 of a
/// demand change (`WARM_START_MAX_REL_L1` in `spef_core::solver`, which
/// does not export it). A snapshot this close to the workspace's previous
/// one warm-starts; one further away starts cold.
const WARM_START_MAX_REL_L1: f64 = 0.05;
/// Largest |sum of split ratios − 1| a FIB row may show.
const RATIO_SUM_TOLERANCE: f64 = 1e-9;

struct Topo {
    net: Network,
    objective: Objective,
    snapshots: Vec<TrafficMatrix>,
    /// Relative L1 of each snapshot against the one solved before it on
    /// the same workspace (the last snapshot, for the first).
    steps: Vec<f64>,
}

/// One topology's snapshot stream.
fn snapshot_stream(net: &Network, load: f64, rng: &mut Rng) -> Vec<TrafficMatrix> {
    let mut snapshots = Vec::with_capacity(SNAPSHOTS);
    let mut base = fortz_thorup(net, MATRIX_SEED, load);
    let mut noise = PairNoise::new(&base, PAIR_NOISE, NOISE_STEP, rng);
    for k in 0..SNAPSHOTS {
        if k > 0 && k % FRESH_EVERY == 0 {
            base = fortz_thorup(net, MATRIX_SEED + (k / FRESH_EVERY) as u64, load);
            noise = PairNoise::new(&base, PAIR_NOISE, NOISE_STEP, rng);
        } else if k > 0 {
            noise.drift(rng);
        }
        let phase = 2.0 * std::f64::consts::PI * k as f64 / SNAPSHOTS as f64;
        snapshots.push(noise.apply(&base, 1.0 + DIURNAL_SWING * phase.sin()));
    }
    snapshots
}

/// Relative L1 of every snapshot against its predecessor in the stream,
/// which repeats pass after pass.
fn stream_steps(snapshots: &[TrafficMatrix]) -> Vec<f64> {
    (0..snapshots.len())
        .map(|k| {
            let prev = (k + snapshots.len() - 1) % snapshots.len();
            rel_l1(&snapshots[prev], &snapshots[k])
        })
        .collect()
}

fn setup(seed: u64, config: &SpefConfig) -> Result<(Vec<Topo>, u64), String> {
    let mut digest = Digest::new();
    let mut topos = Vec::new();
    for (ti, (spec, load)) in TOPOLOGIES.iter().enumerate() {
        let net = spec.build();
        let objective = Objective::proportional(net.link_count());
        let mut rng = Rng::new(derive(seed, "te_stream.noise", ti as u64));
        let snapshots = snapshot_stream(&net, *load, &mut rng);
        snapshots.iter().for_each(|tm| digest.traffic(tm));
        let steps = stream_steps(&snapshots);
        // Warm-up: one cold solve per topology on a throwaway workspace, so
        // lazy process set-up (thread pool, first-touch pages) is not
        // charged to the first timed solve.
        config
            .solve(TeInstance::new(&net, &snapshots[0], &objective))
            .map_err(|e| format!("warm-up solve on {}: {e}", spec.id()))?;
        topos.push(Topo {
            net,
            objective,
            snapshots,
            steps,
        });
    }
    Ok((topos, digest.finish()))
}

/// The staged routing of the traced run.
struct Staged {
    second_weights: Vec<f64>,
    fib: ForwardingTable,
    fw_iterations: usize,
    nem_iterations: usize,
    nem_converged: bool,
}

/// The traced side: its own workspaces and DAG engines, so its warm
/// starts follow the same history as the untraced pipeline's.
struct Traced {
    tracer: Tracer,
    workspaces: Vec<TeWorkspace>,
    engines: Vec<Option<EngineState>>,
    untraced: Duration,
    fw_iterations: u64,
    nem_iterations: u64,
    nem_converged: u64,
    fib_entries: u64,
    /// SPF counters and arena bytes of the untraced workspaces at the end
    /// of the first pass.
    first_pass: Option<(SpfTotals, usize)>,
}

/// SPF counters and arena bytes of the pipeline's own workspaces. Their
/// engines serve every DAG build `SpefConfig::solve_in` makes, Frank–Wolfe's
/// and the route stages' alike (the traced side's separate engines do not
/// exist in the program, so they are not counted).
fn workspace_counters(workspaces: &[TeWorkspace], topos: &[Topo]) -> (SpfTotals, usize) {
    let mut spf = SpfTotals::default();
    let mut bytes = 0;
    for (ws, topo) in workspaces.iter().zip(topos) {
        spf.add(ws.spf_stats(), topo.snapshots[0].destinations().len());
        bytes += ws.arena_bytes();
    }
    // te_stream never fails links, so every build the dirty-set path did
    // not serve ran dense.
    spf.dense = spf.builds - spf.incremental;
    (spf, bytes)
}

/// Steps 1–4 of the SPEF pipeline through public calls, each in a span.
#[allow(clippy::too_many_arguments)]
fn staged_solve(
    tr: &mut Tracer,
    fw: &FrankWolfeConfig,
    nem: &NemConfig,
    net: &Network,
    tm: &TrafficMatrix,
    objective: &Objective,
    ws: &mut TeWorkspace,
    engine: &mut Option<EngineState>,
) -> Result<Staged, SpefError> {
    let g = net.graph();
    let te = tr.span(Layer::FrankWolfe, || {
        fw.solve_in(TeInstance::new(net, tm, objective), ws)
    })?;
    let tolerance = tr.span(Layer::ProtocolTolerance, || {
        support_slack_tolerance(g, &te.weights, &te.flows)
    })?;
    let dests = tm.destinations();
    let floored: Vec<f64> = te.weights.iter().map(|w| w.max(WEIGHT_FLOOR)).collect();
    let target = te.flows.aggregate().to_vec();
    let mut eng = RoutingEngine::with_state(g, engine.take().unwrap_or_default());

    let span = tr.enter(Layer::EngineDagBuild);
    eng.build_dags(&floored, &dests, tolerance)?;
    let dags: Vec<_> = (0..eng.dag_set().len())
        .map(|i| eng.dag_set().to_shortest_path_dag(i, g))
        .collect();
    tr.exit(span);

    let nem_out = tr.span(Layer::Nem, || {
        nem.solve_in(NemInstance::new(g, &dags, tm, &target), ws)
    })?;

    let span = tr.enter(Layer::FibBuild);
    let tables = eng.build_split_tables(SplitRule::Exponential(&nem_out.second_weights))?;
    let fib = ForwardingTable::from_split_table_set(g.node_count(), &dests, tables);
    tr.exit(span);

    *engine = Some(eng.into_state());
    Ok(Staged {
        second_weights: nem_out.second_weights,
        fib,
        fw_iterations: te.iterations,
        nem_iterations: nem_out.iterations,
        nem_converged: nem_out.converged,
    })
}

fn same_fib(a: &ForwardingTable, b: &ForwardingTable) -> bool {
    a.entry_count() == b.entry_count()
        && a.fib().rows().count() == b.fib().rows().count()
        && a.fib()
            .rows()
            .zip(b.fib().rows())
            .all(|((u, t, x), (v, s, y))| {
                u == v
                    && t == s
                    && x.len() == y.len()
                    && x.hops()
                        .iter()
                        .zip(y.hops())
                        .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
            })
}

/// max |f_realised − f*| ÷ max f*: how far NEM's second weights are from
/// realising the TE optimum (Theorem 4.2).
fn realised_dev(routing: &SpefRouting) -> f64 {
    let target = routing.target_flows();
    let peak = target.iter().cloned().fold(0.0, f64::max);
    let worst = routing
        .flows()
        .aggregate()
        .iter()
        .zip(target)
        .map(|(f, t)| (f - t).abs())
        .fold(0.0, f64::max);
    worst / peak
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let config = SolverSpec::FrankWolfeFast.build();
    let TeSolverKind::FrankWolfe(fw) = &config.solver else {
        unreachable!("fw-fast solves with Frank–Wolfe");
    };
    let ((topos, digest), setup_s) = timed_setups(|| setup(cfg.seed, &config))?;

    let n = topos.len();
    let mut workspaces: Vec<TeWorkspace> = (0..n).map(|_| TeWorkspace::new()).collect();
    let mut traced = cfg.traced.then(|| Traced {
        tracer: Tracer::new(),
        workspaces: (0..n).map(|_| TeWorkspace::new()).collect(),
        engines: (0..n).map(|_| None).collect(),
        untraced: Duration::ZERO,
        fw_iterations: 0,
        nem_iterations: 0,
        nem_converged: 0,
        fib_entries: 0,
        first_pass: None,
    });
    let mut routings: Vec<(usize, SpefRouting)> = Vec::new();
    let pass_len = n * SNAPSHOTS;

    let lp = closed_loop(cfg.seconds, pass_len, |pass, k| {
        let t = k % n;
        let topo = &topos[t];
        let tm = &topo.snapshots[k / n];
        let start = Instant::now();
        let routing = config
            .solve_in(
                TeInstance::new(&topo.net, tm, &topo.objective),
                &mut workspaces[t],
            )
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        if let Some(tr) = traced.as_mut() {
            tr.untraced += elapsed;
            let root = tr.tracer.enter(Layer::Op);
            let staged = staged_solve(
                &mut tr.tracer,
                fw,
                &config.nem,
                &topo.net,
                tm,
                &topo.objective,
                &mut tr.workspaces[t],
                &mut tr.engines[t],
            );
            tr.tracer.exit(root);
            let staged = staged.map_err(|e| format!("staged solve: {e}"))?;
            if !same_bits(routing.second_weights(), &staged.second_weights)
                || !same_fib(routing.forwarding_table(), &staged.fib)
            {
                return Err("the staged routing differs from SpefConfig::solve_in".into());
            }
            if pass == 0 {
                tr.fw_iterations += staged.fw_iterations as u64;
                tr.nem_iterations += staged.nem_iterations as u64;
                tr.nem_converged += u64::from(staged.nem_converged);
                tr.fib_entries += staged.fib.entry_count() as u64;
                if k + 1 == pass_len {
                    tr.first_pass = Some(workspace_counters(&workspaces, &topos));
                }
            }
        }
        if pass == 0 {
            routings.push((t, routing));
        }
        Ok(elapsed)
    });

    let mut out = Outcome::new(setup_s, lp, digest, pass_len);
    let mut mlu_sum = 0.0;
    let mut dev_max = 0.0f64;
    // First-pass FW iterations of the solves under and over the warm-start
    // gate: (solves, iterations).
    let mut under = (0u64, 0u64);
    let mut over = (0u64, 0u64);
    for (i, (t, routing)) in routings.iter().enumerate() {
        let net = &topos[*t].net;
        let mlu = routing.max_link_utilization(net);
        mlu_sum += mlu;
        dev_max = dev_max.max(realised_dev(routing));
        let iterations = routing.te_solution().iterations as u64;
        // The first solve of a workspace has nothing to warm-start from.
        let warm_eligible = i >= n && topos[*t].steps[i / n] <= WARM_START_MAX_REL_L1;
        let class = if warm_eligible { &mut under } else { &mut over };
        class.0 += 1;
        class.1 += iterations;
        let finite = mlu.is_finite() && routing.flows().aggregate().iter().all(|f| f.is_finite());
        out.check(finite, || format!("solve {i}: non-finite MLU or flows"));
        let mut bad_rows = 0usize;
        for (_, _, row) in routing.forwarding_table().fib().rows() {
            if row.is_empty() {
                continue;
            }
            let sum: f64 = row.hops().iter().map(|h| h.1).sum();
            let valid = row.hops().iter().all(|h| h.1.is_finite() && h.1 >= 0.0);
            if !valid || (sum - 1.0).abs() > RATIO_SUM_TOLERANCE {
                bad_rows += 1;
            }
        }
        out.check(bad_rows == 0, || {
            format!("solve {i}: {bad_rows} FIB rows whose ratios do not sum to 1")
        });
    }
    out.mlu_mean = mlu_sum / routings.len().max(1) as f64;
    let steps = || topos.iter().flat_map(|t| t.steps.iter().copied());
    let mean = |(solves, iterations): (u64, u64)| iterations as f64 / solves.max(1) as f64;
    out.record = vec![
        (
            "warm_start_gate".into(),
            obj([
                ("max_rel_l1", Value::from(WARM_START_MAX_REL_L1)),
                (
                    "snapshots_under",
                    Value::from(steps().filter(|&x| x <= WARM_START_MAX_REL_L1).count() as u64),
                ),
                ("snapshots", Value::from(steps().count() as u64)),
                (
                    "largest_step_under",
                    Value::from(
                        steps()
                            .filter(|&x| x <= WARM_START_MAX_REL_L1)
                            .fold(0.0, f64::max),
                    ),
                ),
                (
                    "smallest_step_over",
                    Value::from(
                        steps()
                            .filter(|&x| x > WARM_START_MAX_REL_L1)
                            .fold(f64::INFINITY, f64::min),
                    ),
                ),
                ("first_pass_solves_under", Value::from(under.0)),
                ("first_pass_solves_over", Value::from(over.0)),
                ("fw_iterations_mean_under", Value::from(mean(under))),
                ("fw_iterations_mean_over", Value::from(mean(over))),
            ]),
        ),
        ("te_realised_dev".into(), Value::from(dev_max)),
        ("te_mlu_mean".into(), Value::from(out.mlu_mean)),
    ];

    if let Some(mut tr) = traced {
        out.layer("frank_wolfe.iterations", tr.fw_iterations as f64);
        out.layer("nem.iterations", tr.nem_iterations as f64);
        out.layer("nem.converged", tr.nem_converged as f64);
        out.layer("nem.realised_dev", dev_max);
        out.layer("fib.entries", tr.fib_entries as f64);
        let (spf, solver_bytes) = tr
            .first_pass
            .take()
            .unwrap_or_else(|| workspace_counters(&workspaces, &topos));
        spf.report(&mut out);
        // Every engine of this workload lives in a TeWorkspace, so
        // `engine.arena_bytes` stays 0 here.
        out.layer("solver.arena_bytes", solver_bytes as f64);
        out.untraced_s = tr.untraced.as_secs_f64();
        out.spans = tr.tracer.spans().to_vec();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every snapshot that keeps its base is under the warm-start gate,
    /// with a margin, and every fresh base is over it.
    #[test]
    fn the_stream_is_shaped_against_the_warm_start_gate() {
        for (spec, load) in TOPOLOGIES {
            let net = spec.build();
            for seed in 1..4 {
                let mut rng = Rng::new(derive(seed, "te_stream.noise", 0));
                let steps = stream_steps(&snapshot_stream(&net, load, &mut rng));
                for (k, step) in steps.iter().enumerate() {
                    if k % FRESH_EVERY == 0 {
                        assert!(*step > 2.0 * WARM_START_MAX_REL_L1, "{k}: {step}");
                    } else {
                        assert!(*step < 0.9 * WARM_START_MAX_REL_L1, "{k}: {step}");
                    }
                }
            }
        }
    }
}
