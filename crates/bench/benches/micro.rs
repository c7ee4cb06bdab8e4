//! Microbenchmarks of the core algorithms: the per-iteration costs that
//! dominate the experiment pipelines.

use criterion::{criterion_group, criterion_main, Criterion};
use spef_baselines::fortz_thorup::{FtConfig, FtCost, FtOutcome};
use spef_baselines::ospf::OspfRouting;
use spef_baselines::robust::{RobustConfig, RobustOutcome};
use spef_core::metrics::max_link_utilization;
use spef_core::{
    build_dags, traffic_distribution, ConvergenceCriteria, FibSet, ForwardingTable,
    FrankWolfeConfig, NemConfig, NemInstance, Objective, RoutingEngine, SplitRule, TeInstance,
    TeSolver, TeWorkspace, STALE_WEIGHT_DAG_RTOL,
};
use spef_graph::{
    build_dag_set, Csr, DagSet, NodeId, Parallelism, RoutingWorkspace, ShortestPathDag,
};
use spef_lp::simplex::{LinearProgram, Relation, SimplexWorkspace};
use spef_netsim::{simulate, simulate_with, SchedulerKind, SimConfig, SimWorkspace};
use spef_topology::{gen, standard, Network, TrafficMatrix};

fn bench_dijkstra_dag(c: &mut Criterion) {
    let net = gen::random_network("Rand100", 100, 392, 0xFEED);
    let w: Vec<f64> = net.capacities().iter().map(|x| 1.0 / x).collect();

    // The engine path: CSR + workspace arenas amortised across iterations,
    // exactly how the solver loops drive DAG construction.
    let csr = Csr::in_of(net.graph());
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    c.bench_function("dag_build_rand100", |b| {
        b.iter(|| {
            build_dag_set(
                net.graph(),
                &csr,
                &w,
                &[NodeId::new(0)],
                0.0,
                Parallelism::Never,
                &mut ws,
                &mut set,
            )
            .expect("dag")
        })
    });
    // The legacy per-destination path, kept as the comparison point.
    c.bench_function("dag_build_rand100_legacy", |b| {
        b.iter(|| ShortestPathDag::build(net.graph(), &w, 0.into(), 0.0).expect("dag"))
    });

    // All-destinations batch: batched (parallel fan-out) vs a legacy loop.
    let dests: Vec<NodeId> = net.graph().nodes().collect();
    c.bench_function("dags_all_rand100_batched", |b| {
        b.iter(|| {
            build_dag_set(
                net.graph(),
                &csr,
                &w,
                &dests,
                0.0,
                Parallelism::Auto,
                &mut ws,
                &mut set,
            )
            .expect("dags")
        })
    });
    c.bench_function("dags_all_rand100_legacy", |b| {
        b.iter(|| {
            dests
                .iter()
                .map(|&t| ShortestPathDag::build(net.graph(), &w, t, 0.0).expect("dag"))
                .collect::<Vec<_>>()
        })
    });
}

/// The two per-destination kernels of every FW/NEM iteration on the
/// te_stream-sized Rand50a: the single-pass Dijkstra + DAG build under
/// float, κ-like first weights (few exact ties), and the exponential
/// split tables over the resulting DAGs (mostly one-next-hop rows).
fn bench_routing_kernels_rand50a(c: &mut Criterion) {
    let net = gen::random_network("Rand50a", 50, 242, 0xC0FFEE);
    let g = net.graph();
    // InvCap scaled by a deterministic per-link factor in [1, 2): the
    // shape of a Frank–Wolfe gradient, where equal costs are rare.
    let w: Vec<f64> = net
        .capacities()
        .iter()
        .enumerate()
        .map(|(e, cap)| (1.0 + ((e * 7919) % 97) as f64 / 97.0) / cap)
        .collect();
    let v: Vec<f64> = (0..net.link_count())
        .map(|e| ((e * 104_729) % 31) as f64 / 8.0)
        .collect();
    let dests: Vec<NodeId> = g.nodes().collect();

    let csr = Csr::in_of(g);
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    c.bench_function("dags_all_rand50a_batched", |b| {
        b.iter(|| {
            build_dag_set(
                g,
                &csr,
                &w,
                &dests,
                0.0,
                Parallelism::Never,
                &mut ws,
                &mut set,
            )
            .expect("dags")
        })
    });

    let mut engine = RoutingEngine::with_parallelism(g, Parallelism::Never);
    engine.build_dags(&w, &dests, 0.0).expect("dags");
    c.bench_function("split_tables_rand50a_exponential", |b| {
        b.iter(|| {
            engine
                .build_split_tables(SplitRule::Exponential(&v))
                .expect("split tables")
                .len()
        })
    });
}

fn bench_traffic_distribution(c: &mut Criterion) {
    let net = standard::cernet2();
    let tm = TrafficMatrix::gravity(&net, 1.0, 3).scaled_to_network_load(&net, 0.15);
    let w: Vec<f64> = net.capacities().iter().map(|x| 1.0 / x).collect();
    let dags = build_dags(net.graph(), &w, &tm.destinations(), 0.0).expect("dags");
    let v = vec![0.1; net.link_count()];
    c.bench_function("traffic_distribution_cernet2", |b| {
        b.iter(|| {
            traffic_distribution(net.graph(), &dags, &tm, SplitRule::Exponential(&v))
                .expect("distribution")
        })
    });

    // The full steady-state engine cycle (build DAGs + distribute) with
    // zero allocations — what one solver iteration costs.
    let dests = tm.destinations();
    let mut engine = RoutingEngine::new(net.graph());
    let mut flows = engine.distribute_fresh();
    c.bench_function("engine_cycle_cernet2", |b| {
        b.iter(|| {
            engine.build_dags(&w, &dests, 0.0).expect("dags");
            engine
                .distribute_into(&tm, SplitRule::Exponential(&v), &mut flows)
                .expect("distribution")
        })
    });
}

fn bench_fib(c: &mut Criterion) {
    // The forwarding-plane pair for the flat-FIB rework: CERNET2 split
    // tables (every node a destination) flattened into a `FibSet`, then
    // the netsim per-hop body — row fetch plus cum-prob selection — over
    // every (destination, router) cell.
    let net = standard::cernet2();
    let tm = TrafficMatrix::gravity(&net, 1.0, 3).scaled_to_network_load(&net, 0.15);
    let dests = tm.destinations();
    let w: Vec<f64> = net.capacities().iter().map(|x| 1.0 / x).collect();
    let v = vec![0.1; net.link_count()];
    let mut engine = RoutingEngine::new(net.graph());
    engine.build_dags(&w, &dests, 0.0).expect("dags");
    engine
        .build_split_tables(SplitRule::Exponential(&v))
        .expect("tables");
    let n = net.node_count();

    // Steady-state flatten: refill a warmed arena from the engine's split
    // tables (zero allocations once shaped — pinned by
    // crates/core/tests/fib_alloc.rs).
    let mut fib_ws = FibSet::new();
    c.bench_function("fib_build_cernet2", |b| {
        b.iter(|| {
            fib_ws.rebuild_from_split_table_set(n, &dests, engine.split_tables());
            fib_ws.entry_count()
        })
    });

    let fib = ForwardingTable::from_split_table_set(n, &dests, engine.split_tables());
    let set = fib.fib();
    c.bench_function("fib_lookup_cernet2", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            let mut x = 0.05f64;
            for (slot, _) in dests.iter().enumerate() {
                for u in 0..n {
                    let row = set.row(slot as u32, NodeId::new(u));
                    if !row.is_empty() {
                        acc += row.select(x).index();
                        x = (x + 0.37) % 1.0;
                    }
                }
            }
            acc
        })
    });
}

fn bench_frank_wolfe(c: &mut Criterion) {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let cfg = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(100, 0.0),
        ..FrankWolfeConfig::default()
    };
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.bench_function("frank_wolfe_100it_abilene", |b| {
        b.iter(|| cfg.solve(TeInstance::new(&net, &tm, &obj)).expect("te"))
    });

    // The PR 6 warm-vs-cold pair: the alternating-load steady state a
    // dependency-aware sweep runs on one chain. The loads are proportional
    // rescales of one Fortz-Thorup shape, so each warm solve restarts from
    // its neighbour's rescaled solution and must reach the relative-gap
    // tolerance in fewer iterations than a cold solve of the same load
    // (asserted below, and the iteration counts are printed so the lane
    // doubles as the warm-start witness).
    let tm_hi = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.13);
    // Tolerance-bound (generous cap) so the stopping point is the gap, not
    // the budget — a capped run would hide the warm start's head start.
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(20_000, 1e-4),
        ..FrankWolfeConfig::default()
    };
    let cold_lo = fw.solve(TeInstance::new(&net, &tm, &obj)).expect("te");
    let cold_hi = fw.solve(TeInstance::new(&net, &tm_hi, &obj)).expect("te");
    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .expect("te");
    let warm_hi = fw
        .solve_in(TeInstance::new(&net, &tm_hi, &obj), &mut ws)
        .expect("te");
    let warm_lo = fw
        .solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .expect("te");
    eprintln!(
        "frank_wolfe_abilene cold vs warm iterations: \
         load 0.12: {} -> {}, load 0.13: {} -> {}",
        cold_lo.iterations, warm_lo.iterations, cold_hi.iterations, warm_hi.iterations
    );
    assert!(
        warm_hi.iterations < cold_hi.iterations || warm_lo.iterations < cold_lo.iterations,
        "warm start saved no iterations on either neighbouring load"
    );
    group.bench_function("frank_wolfe_abilene_cold", |b| {
        b.iter(|| {
            let lo = fw.solve(TeInstance::new(&net, &tm, &obj)).expect("te");
            let hi = fw.solve(TeInstance::new(&net, &tm_hi, &obj)).expect("te");
            lo.iterations + hi.iterations
        })
    });
    group.bench_function("frank_wolfe_abilene_warm", |b| {
        b.iter(|| {
            let hi = fw
                .solve_in(TeInstance::new(&net, &tm_hi, &obj), &mut ws)
                .expect("te");
            let lo = fw
                .solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
                .expect("te");
            lo.iterations + hi.iterations
        })
    });
    group.finish();
}

fn bench_failure_chain(c: &mut Criterion) {
    // The PR 7 warm-vs-cold pair: a remove-one-link failure chain. The
    // intact Abilene solve is recorded as the session's base solution;
    // each degraded solve then restarts from that solution projected onto
    // the surviving edge set (conservation repaired along detours) instead
    // of from scratch. Tolerance-bound so the stopping point is the
    // relative gap, and the iteration totals are printed so the lane
    // doubles as the warm-start witness.
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.1);
    let obj = Objective::proportional(net.link_count());
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(20_000, 1e-4),
        ..FrankWolfeConfig::default()
    };
    // A chain of circuit failures that stay feasible at this load (some
    // Abilene circuits leave no slack at 0.1 and would abort both lanes).
    let circuits = net.duplex_circuits();
    let chain: Vec<_> = [0usize, 1, 3, 6, 13]
        .into_iter()
        .map(|i| {
            let (degraded, _) = net
                .without_links(&circuits[i])
                .expect("no bridges on Abilene");
            let obj_d = Objective::proportional(degraded.link_count());
            (degraded, obj_d)
        })
        .collect();

    let mut cold_total = 0u64;
    for (degraded, obj_d) in &chain {
        let sol = fw.solve(TeInstance::new(degraded, &tm, obj_d)).expect("te");
        cold_total += sol.iterations as u64;
    }
    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .expect("te");
    let mut warm_total = 0u64;
    for (degraded, obj_d) in &chain {
        let sol = fw
            .solve_in(TeInstance::new(degraded, &tm, obj_d), &mut ws)
            .expect("te");
        warm_total += sol.iterations as u64;
    }
    eprintln!(
        "failure_chain_abilene cold vs warm iterations over {} circuit failures: {} -> {}",
        chain.len(),
        cold_total,
        warm_total
    );
    assert!(
        warm_total < cold_total,
        "removal warm start saved no iterations across the failure chain \
         ({cold_total} cold vs {warm_total} warm)"
    );

    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.bench_function("failure_chain_abilene_cold", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for (degraded, obj_d) in &chain {
                total += fw
                    .solve(TeInstance::new(degraded, &tm, obj_d))
                    .expect("te")
                    .iterations as u64;
            }
            total
        })
    });
    group.bench_function("failure_chain_abilene_warm", |b| {
        b.iter(|| {
            // Re-anchor the base at the intact solution, then run the
            // degraded chain off its projections.
            ws.clear_solutions();
            fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
                .expect("te");
            let mut total = 0u64;
            for (degraded, obj_d) in &chain {
                total += fw
                    .solve_in(TeInstance::new(degraded, &tm, obj_d), &mut ws)
                    .expect("te")
                    .iterations as u64;
            }
            total
        })
    });
    group.finish();
}

fn bench_nem(c: &mut Criterion) {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let te = FrankWolfeConfig::fast()
        .solve(TeInstance::new(&net, &tm, &obj))
        .expect("te");
    let max_w = te.weights.iter().cloned().fold(0.0, f64::max);
    let dags =
        build_dags(net.graph(), &te.weights, &tm.destinations(), 1e-2 * max_w).expect("dags");
    let cfg = NemConfig {
        convergence: ConvergenceCriteria::with_tolerance(100, 0.0),
        ..NemConfig::default()
    };
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    let mut ws = TeWorkspace::new();
    group.bench_function("nem_100it_abilene", |b| {
        b.iter(|| {
            ws.clear_solutions();
            cfg.solve_in(
                NemInstance::new(net.graph(), &dags, &tm, te.flows.aggregate()),
                &mut ws,
            )
            .expect("nem")
        })
    });
    group.finish();
}

fn bench_simplex(c: &mut Criterion) {
    // The β = 0 LP on Fig. 4 (57 vars, 37 rows).
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    let obj = Objective::min_hop(net.link_count());
    let fw = FrankWolfeConfig::default();
    c.bench_function("simplex_beta0_fig4", |b| {
        b.iter(|| fw.solve(TeInstance::new(&net, &tm, &obj)).expect("lp"))
    });
    // A dense random-ish LP for raw pivot throughput.
    c.bench_function("simplex_dense_30x60", |b| {
        b.iter(|| {
            let mut lp = LinearProgram::maximize(60);
            for v in 0..60 {
                lp.set_objective(v, 1.0 + (v % 7) as f64);
            }
            for r in 0..30 {
                let row: Vec<(usize, f64)> = (0..60)
                    .map(|v| (v, 1.0 + ((r * 31 + v * 17) % 5) as f64))
                    .collect();
                lp.add_constraint(&row, Relation::Le, 100.0);
            }
            lp.solve().expect("solvable")
        })
    });
}

/// The min-MLU LP exactly as `spef_baselines::mlu_lp` builds it:
/// `|D|·|J| + 1` variables (per-destination flow blocks plus θ), capacity
/// rows and per-destination conservation rows.
fn build_mlu_lp(network: &Network, tm: &TrafficMatrix) -> LinearProgram {
    let g = network.graph();
    let m = g.edge_count();
    let dests = tm.destinations();
    let theta = dests.len() * m;
    let var = |ti: usize, e: usize| ti * m + e;
    let mut lp = LinearProgram::minimize(theta + 1);
    lp.set_objective(theta, 1.0);
    for e in 0..m {
        let mut row: Vec<(usize, f64)> = (0..dests.len()).map(|ti| (var(ti, e), 1.0)).collect();
        row.push((theta, -network.capacity(e.into())));
        lp.add_constraint(&row, Relation::Le, 0.0);
    }
    for (ti, &t) in dests.iter().enumerate() {
        let demands = tm.demands_to(t);
        for node in g.nodes() {
            if node == t {
                continue;
            }
            let mut row: Vec<(usize, f64)> = Vec::new();
            for &e in g.out_edges(node) {
                row.push((var(ti, e.index()), 1.0));
            }
            for &e in g.in_edges(node) {
                row.push((var(ti, e.index()), -1.0));
            }
            lp.add_constraint(&row, Relation::Eq, demands[node.index()]);
        }
    }
    lp
}

fn bench_simplex_mlu(c: &mut Criterion) {
    // The paper-scale MLU LP on Abilene, solved three ways: the flat-arena
    // engine cold (workspace recycled), the warm-start resolve path, and a
    // faithful copy of the legacy Vec<Vec<f64>>-with-per-pivot-clone
    // tableau — the before/after evidence for the flat rewrite.
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let lp = build_mlu_lp(&net, &tm);
    let reference = lp.solve().expect("abilene MLU LP solves").objective();

    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.bench_function("simplex_mlu_abilene_flat", |b| {
        let mut ws = SimplexWorkspace::new();
        b.iter(|| lp.solve_with(&mut ws).expect("mlu lp"))
    });
    group.bench_function("simplex_mlu_abilene_resolve", |b| {
        let mut ws = SimplexWorkspace::new();
        lp.resolve(&mut ws).expect("warm-up");
        b.iter(|| lp.resolve(&mut ws).expect("mlu lp"))
    });
    group.bench_function("simplex_mlu_abilene_legacy-shape", |b| {
        b.iter(|| {
            let sol = legacy_shape::solve(&lp).expect("mlu lp");
            assert!((sol - reference).abs() < 1e-7, "legacy diverged: {sol}");
            sol
        })
    });
    group.finish();
}

/// A faithful copy of the pre-flat-arena simplex: `Vec<Vec<f64>>` tableau,
/// a full row `clone()` per pivot and per objective-row update. Kept here
/// (not in `spef-lp`) purely as the benchmark comparison shape; it reads
/// the model through `LinearProgram`'s introspection API and must produce
/// the same objective as the flat engine.
mod legacy_shape {
    use spef_lp::simplex::{LinearProgram, Relation};

    const EPS: f64 = 1e-9;
    const PIVOT_EPS: f64 = 1e-7;

    type SparseRow = (Vec<(usize, f64)>, Relation, f64);

    struct Tableau {
        t: Vec<Vec<f64>>,
        m: usize,
        cols: usize,
        basis: Vec<usize>,
        row_active: Vec<bool>,
        art_start: usize,
        costs: Vec<f64>,
        n_struct: usize,
    }

    pub fn solve(lp: &LinearProgram) -> Result<f64, String> {
        let mut tab = build(lp);
        phase1(&mut tab)?;
        phase2(&mut tab)?;
        // Objective extraction (duals omitted: the pivots above are the
        // measured work and are identical in kind to the legacy engine's).
        let mut x = vec![0.0; lp.num_vars()];
        for i in 0..tab.m {
            if tab.row_active[i] && tab.basis[i] < lp.num_vars() {
                x[tab.basis[i]] = tab.t[i][tab.cols];
            }
        }
        Ok(x.iter()
            .enumerate()
            .map(|(v, xi)| xi * lp.objective_coeff(v))
            .sum())
    }

    fn build(lp: &LinearProgram) -> Tableau {
        let m = lp.num_constraints();
        let n = lp.num_vars();
        let rows: Vec<SparseRow> = lp
            .constraint_rows()
            .map(|(c, r, b)| (c.to_vec(), r, b))
            .collect();
        let rel: Vec<Relation> = rows
            .iter()
            .map(|&(_, r, b)| {
                if b < 0.0 {
                    match r {
                        Relation::Le => Relation::Ge,
                        Relation::Ge => Relation::Le,
                        Relation::Eq => Relation::Eq,
                    }
                } else {
                    r
                }
            })
            .collect();
        let n_slack = rel
            .iter()
            .filter(|r| matches!(r, Relation::Le | Relation::Ge))
            .count();
        let n_art = rel
            .iter()
            .filter(|r| matches!(r, Relation::Ge | Relation::Eq))
            .count();
        let cols = n + n_slack + n_art;
        let art_start = n + n_slack;
        let mut t = vec![vec![0.0; cols + 1]; m + 1];
        let mut basis = vec![usize::MAX; m];
        for (i, (coeffs, _, rhs)) in rows.iter().enumerate() {
            let sign = if *rhs < 0.0 { -1.0 } else { 1.0 };
            for &(v, a) in coeffs {
                t[i][v] += sign * a;
            }
            t[i][cols] = rhs.abs();
        }
        let mut next_slack = n;
        let mut next_art = art_start;
        for (i, r) in rel.iter().enumerate() {
            match r {
                Relation::Le => {
                    t[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    t[i][next_slack] = -1.0;
                    next_slack += 1;
                    t[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    t[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
        let costs: Vec<f64> = (0..n)
            .map(|v| {
                if lp.is_maximize() {
                    -lp.objective_coeff(v)
                } else {
                    lp.objective_coeff(v)
                }
            })
            .collect();
        Tableau {
            t,
            m,
            cols,
            basis,
            row_active: vec![true; m],
            art_start,
            costs,
            n_struct: n,
        }
    }

    fn phase1(tab: &mut Tableau) -> Result<(), String> {
        if tab.art_start == tab.cols {
            return Ok(());
        }
        let obj = tab.m;
        for j in 0..=tab.cols {
            tab.t[obj][j] = 0.0;
        }
        for j in tab.art_start..tab.cols {
            tab.t[obj][j] = 1.0;
        }
        for i in 0..tab.m {
            if tab.basis[i] >= tab.art_start {
                let row = tab.t[i].clone();
                for (dst, src) in tab.t[obj].iter_mut().zip(&row) {
                    *dst -= *src;
                }
            }
        }
        iterate(tab, tab.cols)?;
        if -tab.t[obj][tab.cols] > 1e-7 {
            return Err("infeasible".into());
        }
        for i in 0..tab.m {
            if tab.basis[i] >= tab.art_start {
                let pivot_col = (0..tab.art_start).find(|&j| tab.t[i][j].abs() > PIVOT_EPS);
                match pivot_col {
                    Some(j) => pivot(tab, i, j),
                    None => tab.row_active[i] = false,
                }
            }
        }
        Ok(())
    }

    fn phase2(tab: &mut Tableau) -> Result<(), String> {
        let obj = tab.m;
        for j in 0..=tab.cols {
            tab.t[obj][j] = 0.0;
        }
        for j in 0..tab.n_struct {
            tab.t[obj][j] = tab.costs[j];
        }
        for i in 0..tab.m {
            if !tab.row_active[i] {
                continue;
            }
            let b = tab.basis[i];
            let cb = if b < tab.n_struct { tab.costs[b] } else { 0.0 };
            if cb != 0.0 {
                let row = tab.t[i].clone();
                for (dst, src) in tab.t[obj].iter_mut().zip(&row) {
                    *dst -= cb * *src;
                }
            }
        }
        iterate(tab, tab.art_start)
    }

    fn iterate(tab: &mut Tableau, allowed_cols: usize) -> Result<(), String> {
        let obj = tab.m;
        let bland_after = 50 * (tab.m + tab.cols) + 1000;
        let hard_cap = 400 * (tab.m + tab.cols) + 20_000;
        for iter in 0..hard_cap {
            let bland = iter >= bland_after;
            let entering = if bland {
                (0..allowed_cols).find(|&j| tab.t[obj][j] < -EPS)
            } else {
                let mut best = None;
                let mut best_val = -EPS;
                for j in 0..allowed_cols {
                    let r = tab.t[obj][j];
                    if r < best_val {
                        best_val = r;
                        best = Some(j);
                    }
                }
                best
            };
            let Some(j) = entering else {
                return Ok(());
            };
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..tab.m {
                if !tab.row_active[i] {
                    continue;
                }
                let a = tab.t[i][j];
                if a > PIVOT_EPS {
                    let ratio = tab.t[i][tab.cols] / a;
                    let better = match leave {
                        None => true,
                        Some(li) => {
                            ratio < best_ratio - EPS
                                || (bland
                                    && (ratio - best_ratio).abs() <= EPS
                                    && tab.basis[i] < tab.basis[li])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(i) = leave else {
                return Err("unbounded".into());
            };
            pivot(tab, i, j);
        }
        Err("iteration cap exceeded".into())
    }

    fn pivot(tab: &mut Tableau, pivot_row: usize, pivot_col: usize) {
        let piv = tab.t[pivot_row][pivot_col];
        let inv = 1.0 / piv;
        for j in 0..=tab.cols {
            tab.t[pivot_row][j] *= inv;
        }
        tab.t[pivot_row][pivot_col] = 1.0;
        let prow = tab.t[pivot_row].clone();
        for i in 0..=tab.m {
            if i == pivot_row {
                continue;
            }
            let factor = tab.t[i][pivot_col];
            if factor.abs() > 0.0 {
                for (dst, src) in tab.t[i].iter_mut().zip(&prow) {
                    *dst -= factor * *src;
                }
                tab.t[i][pivot_col] = 0.0;
            }
        }
        tab.basis[pivot_row] = pivot_col;
    }
}

fn bench_simulator(c: &mut Criterion) {
    let net = standard::fig4();
    let tm = standard::table4_simple_demands();
    let obj = Objective::proportional(net.link_count());
    let routing = spef_core::SpefConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .expect("routing");
    let cfg = SimConfig {
        duration: 5.0,
        capacity_to_bps: 1e6,
        demand_to_bps: 1e6,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    // Historical lane: default scheduler, fresh workspace per run.
    group.bench_function("netsim_5s_fig4", |b| {
        b.iter(|| simulate(&net, &tm, routing.forwarding_table(), &cfg).expect("sim"))
    });

    // The PR 4 before/after pair: identical workload, heap vs calendar,
    // both on a warm workspace so the scheduler is the only difference.
    // The reports are bit-identical by construction (asserted below); only
    // the wall time may move.
    let heap_cfg = SimConfig {
        scheduler: SchedulerKind::BinaryHeap,
        ..cfg.clone()
    };
    let mut ws = SimWorkspace::new();
    let reference = simulate_with(&net, &tm, routing.forwarding_table(), &cfg, &mut ws)
        .expect("calendar reference");
    let heap_report = simulate_with(&net, &tm, routing.forwarding_table(), &heap_cfg, &mut ws)
        .expect("heap reference");
    assert_eq!(reference, heap_report, "schedulers must agree bit for bit");
    group.bench_function("sim_fig4_heap", |b| {
        b.iter(|| {
            simulate_with(&net, &tm, routing.forwarding_table(), &heap_cfg, &mut ws).expect("sim")
        })
    });
    group.bench_function("sim_fig4_calendar", |b| {
        b.iter(|| simulate_with(&net, &tm, routing.forwarding_table(), &cfg, &mut ws).expect("sim"))
    });
    // The PR 5 lane: identical workload to sim_fig4_calendar, named to
    // mark the flat-FIB forwarding plane (slot-hoisted lookups + cum-prob
    // binary-search sampling). Compare against the committed pre-PR5
    // sim_fig4_calendar number to read the forwarding-plane speedup.
    group.bench_function("sim_fig4_flatfib", |b| {
        b.iter(|| simulate_with(&net, &tm, routing.forwarding_table(), &cfg, &mut ws).expect("sim"))
    });

    // CERNET2 panel of Fig. 11 (TABLE IV demands at the documented 0.5
    // scale), the larger sim workload of the sweep family.
    let net2 = standard::cernet2();
    let tm2 = standard::table4_cernet2_demands().scaled(0.5);
    let obj2 = Objective::proportional(net2.link_count());
    let cfg2 = spef_core::SpefConfig {
        solver: spef_core::TeSolverKind::FrankWolfe(FrankWolfeConfig::fast()),
        ..spef_core::SpefConfig::default()
    };
    let routing2 = cfg2
        .solve(TeInstance::new(&net2, &tm2, &obj2))
        .expect("routing");
    let sim_cfg2 = SimConfig {
        duration: 5.0,
        capacity_to_bps: 1e6, // Gb/s units driven at Mb/s scale: same event
        demand_to_bps: 1e6,   // counts, bench-friendly wall time
        ..SimConfig::default()
    };
    group.bench_function("sim_cernet2_calendar", |b| {
        b.iter(|| {
            simulate_with(&net2, &tm2, routing2.forwarding_table(), &sim_cfg2, &mut ws)
                .expect("sim")
        })
    });
    group.finish();
}

fn bench_incremental_spf(c: &mut Criterion) {
    // Single-weight probe loops whose SPF work the delta-aware engine
    // trims to the dirty destinations. Setup checks each lane's answer
    // bit for bit against fresh engines and prints the SPF counters
    // (incl. mean dirty destinations per probe), so the lanes double as
    // the incremental-path witness.
    let mut group = c.benchmark_group("incremental_spf");
    group.sample_size(10);

    // Fortz-Thorup local search on Abilene: every candidate is a
    // single-weight mutation of the incumbent, the incremental path's
    // best case. The bench budget is a slice of the sweep budget (same
    // search, shorter trajectory) to keep lane wall time sane.
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.1);
    let ft_cfg = FtConfig {
        max_weight: 20,
        max_evaluations: 300,
        restarts: 1,
        seed: 0xF7,
    };
    let t0 = std::time::Instant::now();
    let incr = FtOutcome::local_search(&net, &tm, &ft_cfg).expect("ft incremental");
    let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fresh = OspfRouting::route_with_weights(&net, &tm, &incr.weights).expect("fresh routing");
    assert_eq!(
        incr.cost.to_bits(),
        FtCost.total_cost(&net, fresh.flows().aggregate()).to_bits(),
        "probe-engine cost vs fresh-engine cost of the winner"
    );
    assert!(
        incr.spf_stats.incremental_builds > 0,
        "FT probes never took the incremental path: {:?}",
        incr.spf_stats
    );
    let dests = tm.destinations().len() as f64;
    eprintln!(
        "ft_local_search_abilene incremental: {incr_ms:.1}ms; \
         {} of {} builds incremental, mean dirty destinations/probe {:.2} of {dests}",
        incr.spf_stats.incremental_builds,
        incr.spf_stats.builds,
        incr.spf_stats.slots_rebuilt as f64 / incr.spf_stats.incremental_builds as f64,
    );
    group.bench_function("ft_local_search_abilene_incremental", |b| {
        b.iter(|| FtOutcome::local_search(&net, &tm, &ft_cfg).expect("ft incremental"))
    });

    // Reconfiguration pushes on a 200-node tiered topology: every
    // intermediate mixed state is a one-weight delta of its predecessor,
    // and with 200 destination slots the dirty fraction per push is tiny.
    // The pushed links point *into* edge-layer leaves (an access-link
    // reweighting campaign), so each push can only dirty the handful of
    // destinations behind that access link; and the `to` endpoint only
    // lowers weights so the mixed vector's maximum (which scales the
    // equal-cost tolerance) stays put across the whole migration.
    let hier = gen::tiered_network("Tier200", 8, 4, 5, 0x7E2);
    let htm = TrafficMatrix::fortz_thorup(&hier, 1).scaled_to_network_load(&hier, 0.04);
    let from: Vec<f64> = hier.capacities().iter().map(|c| 1.0 / c).collect();
    let first_edge_node = 8 + 8 * 4; // cores + aggregation routers
    let into_leaves: Vec<usize> = hier
        .graph()
        .edges()
        .filter(|&(_, _, v)| v.index() >= first_edge_node)
        .map(|(e, _, _)| e.index())
        .collect();
    let mut to = from.clone();
    for (k, e) in into_leaves
        .iter()
        .step_by(into_leaves.len() / 6)
        .take(6)
        .enumerate()
    {
        to[*e] *= 0.45 + 0.05 * k as f64;
    }
    let t0 = std::time::Instant::now();
    let (incr_out, incr_stats) =
        spef_experiments::reconfig::migrate_with(&hier, &htm, &from, &to).expect("reconfig");
    let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The naive order's peak, replayed on a fresh engine per state.
    let hdest_ids = htm.destinations();
    let fresh_mlu = |w: &[f64]| {
        let max_w = w.iter().cloned().fold(0.0, f64::max);
        let mut engine = RoutingEngine::new(hier.graph());
        engine
            .build_dags(w, &hdest_ids, STALE_WEIGHT_DAG_RTOL * max_w)
            .expect("dags");
        let flows = engine
            .distribute(&htm, SplitRule::EvenEcmp)
            .expect("routes");
        max_link_utilization(&hier, flows.aggregate())
    };
    let mut w = from.clone();
    let mut naive_peak = fresh_mlu(&w);
    for e in 0..w.len() {
        if w[e].to_bits() != to[e].to_bits() {
            w[e] = to[e];
            naive_peak = naive_peak.max(fresh_mlu(&w));
        }
    }
    assert_eq!(incr_out.naive_peak_mlu.to_bits(), naive_peak.to_bits());
    assert!(
        incr_stats.incremental_builds > 0,
        "reconfig probes never took the incremental path: {incr_stats:?}"
    );
    let hdests = hdest_ids.len() as u64;
    assert!(
        incr_stats.slots_rebuilt * 3 <= incr_stats.incremental_builds * hdests,
        "mean dirty set per push probe is not <= 1/3 of the {hdests} destinations: {incr_stats:?}"
    );
    eprintln!(
        "reconfig_push_hier200 incremental: {incr_ms:.1}ms; \
         {} of {} builds incremental, mean dirty destinations/probe {:.2} of {hdests}",
        incr_stats.incremental_builds,
        incr_stats.builds,
        incr_stats.slots_rebuilt as f64 / incr_stats.incremental_builds as f64,
    );
    group.bench_function("reconfig_push_hier200_incremental", |b| {
        b.iter(|| {
            spef_experiments::reconfig::migrate_with(&hier, &htm, &from, &to).expect("reconfig")
        })
    });
    group.finish();
}

fn bench_topology_delta(c: &mut Criterion) {
    // Failure scenarios handled by failing links *in place* (CSR masking
    // plus local DAG repairs on one persistent engine). Setup checks each
    // lane's answer bit for bit against fresh engines over per-circuit
    // degraded topology clones, and prints the topology-patch counters
    // and arena footprint, so the lanes double as the topology-delta
    // witness.
    let mut group = c.benchmark_group("topology_delta");
    group.sample_size(10);

    // Robust weight search on Abilene: every candidate weight vector is
    // scored against the intact network plus every single-circuit
    // failure, on one engine that fail/restores each circuit around a
    // routing.
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.05);
    let cfg_masked = RobustConfig {
        max_evaluations: 60,
        ..RobustConfig::default()
    };
    let t0 = std::time::Instant::now();
    let masked = RobustOutcome::local_search(&net, &tm, &cfg_masked).expect("robust masked");
    let masked_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The winner's worst case, re-scored over degraded clones.
    let intact = OspfRouting::route_with_weights(&net, &tm, &masked.weights)
        .expect("intact routing")
        .max_link_utilization(&net);
    let mut worst = intact;
    for circuit in net.duplex_circuits() {
        let Ok((degraded, kept)) = net.without_links(&circuit) else {
            continue;
        };
        let dw: Vec<f64> = kept.iter().map(|&e| masked.weights[e.index()]).collect();
        let r = OspfRouting::route_with_weights(&degraded, &tm, &dw).expect("degraded routing");
        worst = worst.max(r.max_link_utilization(&degraded));
    }
    assert_eq!(masked.worst_mlu.to_bits(), worst.to_bits());
    assert_eq!(masked.intact_mlu.to_bits(), intact.to_bits());
    assert!(
        masked.spf_stats.topology_builds > 0,
        "masked search never took the topology-patch path: {:?}",
        masked.spf_stats
    );
    eprintln!(
        "robust_search_abilene masked: {masked_ms:.1}ms; \
         {} topology patches over {} masked links, arenas {} bytes",
        masked.spf_stats.topology_builds, masked.spf_stats.masked_links, masked.arena_bytes
    );
    group.bench_function("robust_search_abilene_masked", |b| {
        b.iter(|| RobustOutcome::local_search(&net, &tm, &cfg_masked).expect("robust masked"))
    });

    // A persistent MLU probe walked across every Abilene circuit: the
    // failure-sweep shape, one fail/route/restore round trip per circuit
    // with no topology clone. Probed with a varied (non-InvCap) weight
    // vector, which thins the DAGs; every dirty slot is repaired in
    // place. Bit-identity vs a probe that starts every call from a fresh
    // engine is asserted in setup (and vs cold degraded topologies in
    // `reconfig::tests::mlu_probe_matches_degraded_free_function`).
    let w: Vec<f64> = (0..net.link_count())
        .map(|e| 1.0 + (e % 7) as f64)
        .collect();
    let dests = tm.destinations();
    let circuits: Vec<_> = net
        .duplex_circuits()
        .into_iter()
        .filter(|c| net.without_links(c).is_ok())
        .collect();
    let mut probe = spef_experiments::reconfig::MluProbe::new(false);
    let mut fresh_probe = spef_experiments::reconfig::MluProbe::new(true);
    for circuit in &circuits {
        let a = probe
            .mlu(&net, &tm, &dests, &w, 0.0, circuit)
            .expect("masked probe");
        let b = fresh_probe
            .mlu(&net, &tm, &dests, &w, 0.0, circuit)
            .expect("fresh probe");
        assert_eq!(a.to_bits(), b.to_bits(), "masked vs fresh-engine MLU");
    }
    let stats = probe.spf_stats();
    assert!(
        stats.topology_builds > 0,
        "masked failure chain never took the topology-patch path: {stats:?}"
    );
    eprintln!(
        "failure_chain_abilene_masked: {} circuits, {} topology patches \
         over {} masked links, {} slots rebuilt",
        circuits.len(),
        stats.topology_builds,
        stats.masked_links,
        stats.slots_rebuilt
    );
    group.bench_function("failure_chain_abilene_masked", |b| {
        b.iter(|| {
            let mut worst = 0.0f64;
            for circuit in &circuits {
                worst = worst.max(
                    probe
                        .mlu(&net, &tm, &dests, &w, 0.0, circuit)
                        .expect("masked probe"),
                );
            }
            worst
        })
    });
    group.finish();
}

fn bench_whatif_probe(c: &mut Criterion) {
    // The whatif benchmark's query shapes on a warmed Hier200 engine: one
    // iteration is a single-weight change routed (build + distribute,
    // then the weight put back, as a rejected search step is) and one
    // circuit failed, routed and restored. Both go through the local SPF
    // repair; setup asserts it served them and prints its counters.
    let net = gen::tiered_network("Tier200", 8, 4, 5, 0x7E2);
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.04);
    let dests = tm.destinations();
    let max_cap = net.capacities().iter().cloned().fold(0.0, f64::max);
    let mut w: Vec<f64> = net
        .capacities()
        .iter()
        .map(|c| (max_cap / c).round().clamp(1.0, 20.0))
        .collect();
    let circuits: Vec<_> = net
        .duplex_circuits()
        .into_iter()
        .filter(|c| net.without_links(c).is_ok())
        .collect();
    let links = net.link_count();
    let mut engine = RoutingEngine::with_parallelism(net.graph(), Parallelism::Never);
    engine.build_dags(&w, &dests, 0.0).expect("dags");
    let mut flows = engine.distribute_fresh();
    let mut k = 0usize;
    let mut probe = |engine: &mut RoutingEngine<'_>, w: &mut Vec<f64>| {
        let e = (k * 7) % links;
        let old = w[e];
        w[e] = 1.0 + ((old as usize + k) % 20) as f64;
        engine.build_dags(w, &dests, 0.0).expect("dags");
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .expect("routes");
        w[e] = old;
        let circuit = &circuits[k % circuits.len()];
        engine.fail_links(circuit).expect("fail");
        engine.build_dags(w, &dests, 0.0).expect("dags");
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .expect("routes");
        engine.restore_links(circuit).expect("restore");
        k += 1;
        flows.aggregate()[0]
    };
    for _ in 0..2 * circuits.len() {
        probe(&mut engine, &mut w);
    }
    let stats = engine.spf_stats();
    assert!(
        stats.slots_repaired > 0 && stats.topology_builds > 0,
        "the probes never took the local repair: {stats:?}"
    );
    eprintln!(
        "whatif_probe_hier200 warm-up: {} builds ({} incremental, {} topology), \
         {} slots repaired re-settling {} nodes, {} rebuilt",
        stats.builds,
        stats.incremental_builds,
        stats.topology_builds,
        stats.slots_repaired,
        stats.nodes_resettled,
        stats.slot_fallbacks
    );
    c.bench_function("whatif_probe_hier200", |b| {
        b.iter(|| probe(&mut engine, &mut w))
    });
}

criterion_group!(
    micro,
    bench_dijkstra_dag,
    bench_routing_kernels_rand50a,
    bench_traffic_distribution,
    bench_fib,
    bench_frank_wolfe,
    bench_failure_chain,
    bench_nem,
    bench_simplex,
    bench_simplex_mlu,
    bench_incremental_spf,
    bench_topology_delta,
    bench_whatif_probe,
    bench_simulator
);
criterion_main!(micro);
