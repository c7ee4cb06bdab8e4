//! Primal Frank–Wolfe reference solver for `TE(V, G, c, D)` with β > 0.
//!
//! Algorithm 1 of the paper is a projected *subgradient* method on the dual;
//! it converges, but slowly, and the paper itself only shows it approaching
//! the optimum (Fig. 12). Experiments that need tight optima (utility
//! curves, TABLE I, the first link weights) use this conditional-gradient
//! method on the primal instead, and the two are cross-validated in the
//! test-suite (they optimise the same `TE(V, G, c, D)`).
//!
//! The method exploits the same structure as Algorithm 1: linearising the
//! utility at the current flow gives per-link costs `κ_e = V'_e(s_e)`, and
//! the linear subproblem over the flow polytope is exactly `Route_t` — route
//! every demand along shortest paths under `κ`. An exact concave line
//! search (bisection on the directional derivative) picks the step.
//!
//! **Capacity handling.** The flow polytope carries only the conservation
//! constraints; capacities enter through the barrier in `V` (for β ≥ 1,
//! `V(s) → −∞` as `s → 0`). To make every iterate well-defined even when
//! intermediate flows overshoot a capacity, the utility is extended below a
//! tiny per-link threshold `σ_e = σ·c_e` by its second-order Taylor model
//! (still concave, finitely valued, with a steeply increasing marginal).
//! Whenever the true optimum keeps `s* ≥ σ_e` — which holds for every
//! routable instance since `V'(0⁺) = ∞` for β > 0 — the smoothed and true
//! problems have the same solution. If the demands are not routable the
//! smoothed optimum retains an over-capacity link, which is reported as
//! [`SpefError::Infeasible`].

use spef_graph::{EdgeId, NodeId};
use spef_topology::{Network, TrafficMatrix};

use crate::engine::RoutingEngine;
use crate::solver::{ConvergenceCriteria, FwSession, FwStart, TeWorkspace};
use crate::te::TeSolution;
use crate::traffic_dist::SplitRule;
use crate::{Objective, SpefError};

/// Relative duality-gap tolerance used when
/// [`ConvergenceCriteria::gap_tolerance`] is `None`.
pub const DEFAULT_RELATIVE_GAP: f64 = 1e-8;

/// Configuration of the Frank–Wolfe solver.
#[derive(Debug, Clone)]
pub struct FrankWolfeConfig {
    /// Stopping rules (default: 1500 iterations, relative duality gap
    /// [`DEFAULT_RELATIVE_GAP`]).
    pub convergence: ConvergenceCriteria,
    /// Bisection steps of the exact line search (default 60).
    pub line_search_iterations: usize,
    /// Barrier smoothing threshold as a fraction of link capacity
    /// (default 1e-7).
    pub smoothing_fraction: f64,
}

impl Default for FrankWolfeConfig {
    fn default() -> Self {
        FrankWolfeConfig {
            convergence: ConvergenceCriteria::budget(1500),
            line_search_iterations: 60,
            smoothing_fraction: 1e-7,
        }
    }
}

impl FrankWolfeConfig {
    /// A cheaper preset for large parameter sweeps (500 iterations,
    /// relative gap 1e-6).
    pub fn fast() -> Self {
        FrankWolfeConfig {
            convergence: ConvergenceCriteria::with_tolerance(500, 1e-6),
            ..Self::default()
        }
    }
}

/// Smoothed utility: the true `V_e` above `σ_e`, its second-order Taylor
/// extension below.
struct SmoothedUtility<'a> {
    objective: &'a Objective,
    sigma: Vec<f64>,
}

impl<'a> SmoothedUtility<'a> {
    fn new(objective: &'a Objective, capacities: &[f64], fraction: f64) -> Self {
        SmoothedUtility {
            objective,
            sigma: capacities.iter().map(|c| c * fraction).collect(),
        }
    }

    fn value(&self, e: usize, s: f64) -> f64 {
        let sig = self.sigma[e];
        let id = EdgeId::new(e);
        if s >= sig {
            self.objective.utility(id, s)
        } else {
            let v = self.objective.utility(id, sig);
            let v1 = self.objective.marginal_utility(id, sig);
            let v2 = self.objective.second_derivative(id, sig);
            v + v1 * (s - sig) + 0.5 * v2 * (s - sig) * (s - sig)
        }
    }

    /// `V'_smooth(s)`; always finite and strictly positive.
    fn marginal(&self, e: usize, s: f64) -> f64 {
        let sig = self.sigma[e];
        let id = EdgeId::new(e);
        if s >= sig {
            self.objective.marginal_utility(id, s)
        } else {
            let v1 = self.objective.marginal_utility(id, sig);
            let v2 = self.objective.second_derivative(id, sig);
            v1 + v2 * (s - sig)
        }
    }

    fn aggregate(&self, spare: &[f64]) -> f64 {
        spare
            .iter()
            .enumerate()
            .map(|(e, &s)| self.value(e, s))
            .sum()
    }
}

/// Solves `TE(V, G, c, D)` for β > 0: workspace-resident buffers,
/// warm-start from a compatible saved solution (proportional demand
/// rescale), cold fallback otherwise. Reached through the
/// [`TeSolver`](crate::TeSolver) impl on [`FrankWolfeConfig`] (via
/// [`solve_te_in`](crate::te::solve_te_in), which adds the β = 0 LP
/// dispatch).
///
/// # Errors
///
/// * [`SpefError::InvalidInput`] for size mismatches, an empty traffic
///   matrix, or β = 0;
/// * [`SpefError::UnroutableDemand`] if a demand pair is disconnected;
/// * [`SpefError::Infeasible`] if the optimum cannot keep every link
///   strictly below capacity.
pub(crate) fn solve_in(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &FrankWolfeConfig,
    ws: &mut TeWorkspace,
) -> Result<TeSolution, SpefError> {
    crate::te::validate_sizes(network, traffic, objective)?;
    if objective.beta() == 0.0 {
        return Err(SpefError::InvalidInput(
            "Frank-Wolfe requires beta > 0; beta = 0 is solved as an LP by solve_te_in".to_string(),
        ));
    }
    let dests = traffic.destinations();
    if dests.is_empty() {
        return Err(SpefError::InvalidInput(
            "traffic matrix is empty".to_string(),
        ));
    }

    // Warm start: rescale the previous solution when the fingerprint
    // matches and the demands are per-destination proportional, or — for
    // link-removal instances — project a saved full-topology solution
    // onto the surviving edge set. Pinned mode always runs the cold
    // trajectory.
    let tile = ws.chunk_len(dests.len());
    let start = if config.convergence.pinned {
        FwStart::Cold
    } else {
        ws.fw.warm_start(
            network,
            traffic,
            objective,
            config.smoothing_fraction,
            &dests,
        )
    };
    let warm = start != FwStart::Cold;

    let mut engine = RoutingEngine::with_state(network.graph(), ws.take_engine(network.graph()));
    let outcome = run(
        network,
        traffic,
        objective,
        config,
        &dests,
        warm,
        tile,
        &mut engine,
        &mut ws.fw,
    );
    ws.put_engine(engine.into_state());
    match outcome {
        Ok((utility, weights, relative_gap, iterations)) => {
            ws.fw.record_solution(
                network,
                traffic,
                objective,
                config.smoothing_fraction,
                &dests,
                start == FwStart::RemovalProjected,
            );
            Ok(TeSolution {
                flows: ws.fw.flows.clone(),
                spare: ws.fw.spare.clone(),
                utility,
                weights,
                relative_gap,
                iterations,
            })
        }
        Err(e) => {
            // The buffers may hold a half-blended iterate; nothing claims
            // they solve anything.
            ws.fw.forget();
            Err(e)
        }
    }
}

/// The conditional-gradient loop on workspace buffers. Op-for-op the
/// historical cold path when `warm` is false: arena reuse must never
/// change results.
#[allow(clippy::too_many_arguments)]
fn run(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &FrankWolfeConfig,
    dests: &[NodeId],
    warm: bool,
    tile: usize,
    engine: &mut RoutingEngine<'_>,
    fw: &mut FwSession,
) -> Result<(f64, Vec<f64>, f64, usize), SpefError> {
    let m = network.graph().edge_count();
    let caps = network.capacities();
    let smooth = SmoothedUtility::new(objective, caps, config.smoothing_fraction);
    let gap_tol = config
        .convergence
        .gap_tolerance
        .unwrap_or(DEFAULT_RELATIVE_GAP);
    let pinned = config.convergence.pinned;

    if !warm {
        // Initial point: even-ECMP on InvCap weights (always conservation-
        // feasible; capacities are handled by the smoothed barrier).
        fw.init_weights.clear();
        fw.init_weights.extend(caps.iter().map(|c| 1.0 / c));
        // FW keeps the per-destination columns — its blend update needs
        // them — so tiling shrinks only the DAG and split-table arenas.
        engine.distribute_tiled(
            &fw.init_weights,
            dests,
            0.0,
            traffic,
            SplitRule::EvenEcmp,
            tile,
            true,
            &mut fw.flows,
            |_, _, _, _| Ok(()),
        )?;
    }

    fw.spare.clear();
    fw.spare
        .extend(caps.iter().zip(fw.flows.aggregate()).map(|(c, f)| c - f));
    fw.kappa.clear();
    fw.kappa.resize(m, 0.0);
    fw.delta.clear();
    fw.delta.resize(m, 0.0);
    let mut gap = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..config.convergence.max_iterations {
        iterations = iter + 1;
        // Linearise: per-link cost κ = V'_smooth(s) > 0.
        for (e, k) in fw.kappa.iter_mut().enumerate() {
            *k = smooth.marginal(e, fw.spare[e]);
        }
        // All-or-nothing target: Route_t under κ (even split over ties).
        engine.distribute_tiled(
            &fw.kappa,
            dests,
            0.0,
            traffic,
            SplitRule::EvenEcmp,
            tile,
            true,
            &mut fw.target,
            |_, _, _, _| Ok(()),
        )?;

        // One pass over the aggregates serves the gap, the line-search
        // direction Δf = y − f, and (below) the spare update.
        let agg = fw.flows.aggregate();
        let target_agg = fw.target.aggregate();
        gap = 0.0;
        for e in 0..m {
            gap += fw.kappa[e] * (agg[e] - target_agg[e]);
            fw.delta[e] = target_agg[e] - agg[e];
        }
        let obj_now = smooth.aggregate(&fw.spare);
        if !pinned && gap <= gap_tol * obj_now.abs().max(1.0) {
            break;
        }

        // Exact line search on φ(α) = Σ V_smooth(s − αΔf).
        let phi_prime = |alpha: f64| -> f64 {
            fw.spare
                .iter()
                .zip(&fw.delta)
                .enumerate()
                .map(|(e, (&s, &d))| -d * smooth.marginal(e, s - alpha * d))
                .sum()
        };
        let alpha = if phi_prime(1.0) >= 0.0 {
            1.0
        } else {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..config.line_search_iterations {
                let mid = 0.5 * (lo + hi);
                if phi_prime(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        if !pinned && alpha <= 0.0 {
            break;
        }
        if alpha > 0.0 {
            fw.flows.blend_toward(&fw.target, alpha);
            for (s, (c, f)) in fw
                .spare
                .iter_mut()
                .zip(caps.iter().zip(fw.flows.aggregate()))
            {
                *s = c - f;
            }
        }
    }

    // Infeasibility check: the smoothed optimum must keep all links
    // strictly under capacity (σ is far below any meaningful spare).
    if fw.spare.iter().any(|&s| s <= 0.0) {
        return Err(SpefError::Infeasible);
    }

    let utility = objective.aggregate_utility(&fw.spare);
    let weights: Vec<f64> = fw
        .spare
        .iter()
        .enumerate()
        .map(|(e, &s)| objective.marginal_utility(EdgeId::new(e), s))
        .collect();
    let relative_gap = gap / utility.abs().max(1.0);
    Ok((utility, weights, relative_gap, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic_dist::{build_dags, traffic_distribution};
    use spef_graph::NodeId;
    use spef_topology::standard;

    /// Cold solve on a fresh workspace (β = 0 is rejected, not
    /// LP-dispatched).
    fn solve(
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        config: &FrankWolfeConfig,
    ) -> Result<TeSolution, SpefError> {
        solve_in(network, traffic, objective, config, &mut TeWorkspace::new())
    }

    /// Two disjoint 2-link paths from 0 to 3 with equal capacities: the
    /// proportional optimum splits the demand exactly in half.
    fn parallel_paths_net() -> Network {
        let mut b = Network::builder("par");
        let n0 = b.add_node("0", (0.0, 0.0));
        let n1 = b.add_node("1", (1.0, 1.0));
        let n2 = b.add_node("2", (1.0, -1.0));
        let n3 = b.add_node("3", (2.0, 0.0));
        b.add_duplex_link(n0, n1, 2.0);
        b.add_duplex_link(n0, n2, 2.0);
        b.add_duplex_link(n1, n3, 2.0);
        b.add_duplex_link(n2, n3, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn symmetric_instance_splits_evenly() {
        let net = parallel_paths_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 2.0);
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let f = sol.flows.aggregate();
        // Forward edges 0,2 (0→1, 0→2) each carry 1.
        assert!((f[0] - 1.0).abs() < 1e-6, "{f:?}");
        assert!((f[2] - 1.0).abs() < 1e-6);
        assert!(sol.relative_gap < 1e-6);
    }

    #[test]
    fn asymmetric_capacities_balance_marginal_utility() {
        // Same topology, upper path capacity 4, lower 2 (both hops).
        let mut b = Network::builder("asym");
        let n0 = b.add_node("0", (0.0, 0.0));
        let n1 = b.add_node("1", (1.0, 1.0));
        let n2 = b.add_node("2", (1.0, -1.0));
        let n3 = b.add_node("3", (2.0, 0.0));
        b.add_duplex_link(n0, n1, 4.0);
        b.add_duplex_link(n0, n2, 2.0);
        b.add_duplex_link(n1, n3, 4.0);
        b.add_duplex_link(n2, n3, 2.0);
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 3.0);
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let f = sol.flows.aggregate();
        // β=1 KKT: 2/(4−x) = 2/(2−(3−x)) per path ⇒ x − ... solves to
        // x = 2.5 on the wide path, 0.5 on the narrow one (equal spare 1.5).
        assert!((f[0] - 2.5).abs() < 1e-4, "wide path flow {}", f[0]);
        assert!((f[2] - 0.5).abs() < 1e-4, "narrow path flow {}", f[2]);
        // Equal path marginal costs at the optimum.
        let w_up = sol.weights[0] + sol.weights[4];
        let w_lo = sol.weights[2] + sol.weights[6];
        assert!((w_up - w_lo).abs() < 1e-4, "{w_up} vs {w_lo}");
    }

    #[test]
    fn weights_are_marginal_utilities() {
        let net = parallel_paths_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let obj = Objective::uniform(2.0, net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        for e in 0..net.link_count() {
            let expected = obj.marginal_utility(EdgeId::new(e), sol.spare[e]);
            assert!((sol.weights[e] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn infeasible_demand_detected() {
        let net = parallel_paths_net();
        let mut tm = TrafficMatrix::new(4);
        // Max flow 0 → 3 is 4; ask for 5.
        tm.set(0.into(), 3.into(), 5.0);
        let obj = Objective::proportional(net.link_count());
        assert_eq!(
            solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap_err(),
            SpefError::Infeasible
        );
    }

    #[test]
    fn disconnected_demand_detected() {
        // Strongly connected network, but we build traffic for a node pair
        // that exists — so instead test the empty-matrix rejection and the
        // beta=0 rejection here.
        let net = parallel_paths_net();
        let tm = TrafficMatrix::new(4);
        let obj = Objective::proportional(net.link_count());
        assert!(matches!(
            solve(&net, &tm, &obj, &FrankWolfeConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let obj0 = Objective::min_hop(net.link_count());
        assert!(matches!(
            solve(&net, &tm, &obj0, &FrankWolfeConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn fig1_proportional_matches_table1_utilizations() {
        // TABLE I, β = 1 column: utilizations 0.67 on (1,3), 0.90 on (3,4),
        // 0.33 on (1,2) and (2,3) — the demand 1→3 splits 2:1 between the
        // direct link and the 2-hop detour (equal spare per *path*).
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let u = net.utilizations(sol.flows.aggregate());
        assert!((u[0] - 2.0 / 3.0).abs() < 1e-3, "(1,3): {}", u[0]);
        assert!((u[1] - 0.9).abs() < 1e-9, "(3,4): {}", u[1]);
        assert!((u[2] - 1.0 / 3.0).abs() < 1e-3, "(1,2): {}", u[2]);
        assert!((u[3] - 1.0 / 3.0).abs() < 1e-3, "(2,3): {}", u[3]);
    }

    #[test]
    fn fig1_weights_match_table1_ratios() {
        // TABLE I, β = 1: weights 3, 10, 1.5, 1.5 — i.e. w = 1/s with
        // s = (1/3, 0.1, 2/3, 2/3).
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        assert!(
            (sol.weights[0] - 3.0).abs() < 2e-2,
            "w13 = {}",
            sol.weights[0]
        );
        assert!(
            (sol.weights[1] - 10.0).abs() < 1e-6,
            "w34 = {}",
            sol.weights[1]
        );
        assert!(
            (sol.weights[2] - 1.5).abs() < 1e-2,
            "w12 = {}",
            sol.weights[2]
        );
        assert!(
            (sol.weights[3] - 1.5).abs() < 1e-2,
            "w23 = {}",
            sol.weights[3]
        );
    }

    #[test]
    fn higher_beta_reduces_mlu() {
        // On Fig. 4, utilization of the bottleneck decreases in β (Fig. 6).
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let mut mlus = Vec::new();
        for beta in [1.0, 2.0, 5.0] {
            let obj = Objective::uniform(beta, net.link_count());
            let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
            mlus.push(crate::metrics::max_link_utilization(
                &net,
                sol.flows.aggregate(),
            ));
        }
        assert!(mlus[0] > mlus[1] - 1e-6, "{mlus:?}");
        assert!(mlus[1] > mlus[2] - 1e-6, "{mlus:?}");
        assert!(mlus[2] < 1.0, "{mlus:?}");
    }

    #[test]
    fn utility_at_least_ecmp_baseline() {
        // The optimal TE utility must dominate the OSPF even-split value.
        let net = standard::fig4();
        let tm = standard::fig4_demands().scaled(0.5); // keep OSPF feasible
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let invcap: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let dags = build_dags(net.graph(), &invcap, &tm.destinations(), 0.0).unwrap();
        let ecmp = traffic_distribution(net.graph(), &dags, &tm, SplitRule::EvenEcmp).unwrap();
        let spare_ecmp: Vec<f64> = net
            .capacities()
            .iter()
            .zip(ecmp.aggregate())
            .map(|(c, f)| c - f)
            .collect();
        assert!(sol.utility >= obj.aggregate_utility(&spare_ecmp) - 1e-9);
    }

    #[test]
    fn flows_conserve_per_destination() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        for &t in sol.flows.destinations() {
            let f = sol.flows.for_destination(t).unwrap();
            let div = net.graph().divergence(f);
            let demands = tm.demands_to(t);
            for node in net.graph().nodes() {
                if node == t {
                    continue;
                }
                assert!(
                    (div[node.index()] - demands[node.index()]).abs() < 1e-9,
                    "conservation at {node} for dest {t}"
                );
            }
        }
        let _ = NodeId::new(0);
    }
}
