//! The optimal traffic-engineering problem `TE(V, G, c, D)` (Eq. 5) and its
//! solution type.
//!
//! `solve_te_in` dispatches on the objective's β:
//!
//! * **β > 0** — the strictly concave case; solved by the primal
//!   [Frank–Wolfe reference solver](crate::frank_wolfe). First weights are
//!   `w = V'(s*)` (Eq. 6b; with β > 0 no link saturates, so Theorem 4.1's
//!   uniqueness condition holds).
//! * **β = 0** — `V` is linear, so `TE` is the LP
//!   `min Σ q_e f_e  s.t.  Σ_t f^t ≤ c, B f^t = d^t` (Example 3). The
//!   optimal first weights are the LP duals `w_e = q_e − y_e` where `y_e ≤ 0`
//!   is the capacity shadow price, computed exactly with the `spef-lp`
//!   simplex.

use spef_graph::{EdgeId, NodeId};
use spef_lp::simplex::{LinearProgram, Relation, SimplexError};
use spef_topology::{Network, TrafficMatrix};

use crate::frank_wolfe::{self, FrankWolfeConfig};
use crate::solver::TeWorkspace;
use crate::traffic_dist::Flows;
use crate::{Objective, SpefError};

/// An optimal (or near-optimal) solution of `TE(V, G, c, D)`.
#[derive(Debug, Clone)]
pub struct TeSolution {
    /// Per-destination and aggregate optimal flows `f*`.
    pub flows: Flows,
    /// Optimal spare capacities `s* = c − f*`.
    pub spare: Vec<f64>,
    /// Aggregate utility `Σ_e V_e(s*_e)` under the true (unsmoothed)
    /// objective; `−∞` if some link is saturated under a β ≥ 1 objective.
    pub utility: f64,
    /// Optimal first link weights: `V'(s*)` for β > 0, LP duals for β = 0.
    pub weights: Vec<f64>,
    /// Relative optimality certificate: the Frank–Wolfe duality gap over
    /// `max(1, |utility|)` for β > 0; exactly 0 for the LP path.
    pub relative_gap: f64,
    /// Iterations the solver spent.
    pub iterations: usize,
}

/// Solves `TE(V, G, c, D)` in the caller's workspace: β > 0 runs the
/// Frank–Wolfe session solver (DAG arenas, warm start); β = 0 solves the
/// LP with the workspace's simplex tableau arena.
pub(crate) fn solve_te_in(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &FrankWolfeConfig,
    ws: &mut TeWorkspace,
) -> Result<TeSolution, SpefError> {
    validate_sizes(network, traffic, objective)?;
    if objective.beta() == 0.0 {
        solve_beta_zero(network, traffic, objective, ws)
    } else {
        frank_wolfe::solve_in(network, traffic, objective, config, ws)
    }
}

pub(crate) fn validate_sizes(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
) -> Result<(), SpefError> {
    if traffic.node_count() != network.node_count() {
        return Err(SpefError::InvalidInput(format!(
            "traffic matrix covers {} nodes, network has {}",
            traffic.node_count(),
            network.node_count()
        )));
    }
    if objective.link_count() != network.link_count() {
        return Err(SpefError::InvalidInput(format!(
            "objective covers {} links, network has {}",
            objective.link_count(),
            network.link_count()
        )));
    }
    Ok(())
}

/// Exact LP solution of the β = 0 (linear-utility) TE problem.
fn solve_beta_zero(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    ws: &mut TeWorkspace,
) -> Result<TeSolution, SpefError> {
    let g = network.graph();
    let m = g.edge_count();
    let dests = traffic.destinations();
    if dests.is_empty() {
        return Err(SpefError::InvalidInput(
            "traffic matrix is empty".to_string(),
        ));
    }
    // Variables: f^t_e laid out as t-major blocks of m.
    let var = |ti: usize, e: usize| ti * m + e;
    let mut lp = LinearProgram::minimize(dests.len() * m);
    for ti in 0..dests.len() {
        for e in 0..m {
            lp.set_objective(var(ti, e), objective.q(EdgeId::new(e)));
        }
    }
    // Capacity rows.
    let mut cap_rows = Vec::with_capacity(m);
    for e in 0..m {
        let row: Vec<(usize, f64)> = (0..dests.len()).map(|ti| (var(ti, e), 1.0)).collect();
        cap_rows.push(lp.add_constraint(&row, Relation::Le, network.capacity(EdgeId::new(e))));
    }
    // Conservation rows per destination and non-destination node.
    for (ti, &t) in dests.iter().enumerate() {
        let demands = traffic.demands_to(t);
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
    // The LP is built fresh each call (the constraint matrix depends on
    // the demands), so the pivots run cold — but the tableau arena in the
    // workspace is reused across solves.
    let sol = match lp.solve_with(&mut ws.simplex) {
        Ok(sol) => sol,
        Err(SimplexError::Infeasible) => return Err(SpefError::Infeasible),
        Err(e) => return Err(SpefError::InvalidInput(format!("beta=0 LP failed: {e}"))),
    };

    let mut per_dest = Vec::with_capacity(dests.len());
    let mut aggregate = vec![0.0; m];
    for ti in 0..dests.len() {
        let f: Vec<f64> = (0..m).map(|e| sol.value(var(ti, e))).collect();
        for (agg, fe) in aggregate.iter_mut().zip(&f) {
            *agg += fe;
        }
        per_dest.push(f);
    }
    let spare: Vec<f64> = network
        .capacities()
        .iter()
        .zip(&aggregate)
        .map(|(c, f)| (c - f).max(0.0))
        .collect();
    let utility = objective.aggregate_utility(&spare);
    // First weights from the capacity duals: w = q − y, y ≤ 0.
    let weights: Vec<f64> = cap_rows
        .iter()
        .enumerate()
        .map(|(e, &row)| objective.q(EdgeId::new(e)) - sol.dual(row))
        .collect();

    let flows = Flows::from_parts(dests, per_dest, aggregate);
    Ok(TeSolution {
        flows,
        spare,
        utility,
        weights,
        relative_gap: 0.0,
        iterations: 1,
    })
}

impl Flows {
    /// Assembles a `Flows` value from raw parts (used by the solvers).
    ///
    /// # Panics
    ///
    /// Panics if the per-destination list is misaligned with `dests` or the
    /// aggregate length differs from the per-destination vectors.
    pub(crate) fn from_parts(
        dests: Vec<NodeId>,
        per_dest: Vec<Vec<f64>>,
        aggregate: Vec<f64>,
    ) -> Flows {
        assert_eq!(dests.len(), per_dest.len());
        for f in &per_dest {
            assert_eq!(f.len(), aggregate.len());
        }
        Flows::new_unchecked(dests, per_dest, aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    /// Cold solve on a fresh workspace.
    fn solve_te(
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        config: &FrankWolfeConfig,
    ) -> Result<TeSolution, SpefError> {
        solve_te_in(network, traffic, objective, config, &mut TeWorkspace::new())
    }

    #[test]
    fn beta_zero_on_fig1_saturates_direct_link() {
        // min-hop on Fig. 1: all of d(1→3)=1 goes on the direct (1,3) link
        // (capacity 1, exactly saturating it), d(3→4)=0.9 on (3,4).
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::min_hop(net.link_count());
        let sol = solve_te(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let f = sol.flows.aggregate();
        assert!((f[0] - 1.0).abs() < 1e-9, "direct (1,3): {}", f[0]);
        assert!((f[1] - 0.9).abs() < 1e-9, "(3,4): {}", f[1]);
        // Total flow = 1.9 (no detours), utility = sum of spare = 6 - 1.9.
        let total: f64 = f.iter().sum();
        assert!((total - 1.9).abs() < 1e-9);
        assert!((sol.utility - (6.0 - 1.9)).abs() < 1e-9);
        // The saturated link carries an elevated weight (w >= q = 1);
        // unsaturated links keep w = q = 1.
        assert!(sol.weights[0] >= 1.0 - 1e-9);
        assert!((sol.weights[1] - 1.0).abs() < 1e-9);
        assert!((sol.weights[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beta_zero_splits_when_demand_exceeds_shortest_capacity() {
        // Fig. 1 with the (1→3) demand raised to 1.5: capacity 1 on the
        // direct link forces 0.5 onto the 2-hop detour 1-2-3.
        let net = standard::fig1();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 2.into(), 1.5);
        let obj = Objective::min_hop(net.link_count());
        let sol = solve_te(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let f = sol.flows.aggregate();
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!((f[2] - 0.5).abs() < 1e-9);
        assert!((f[3] - 0.5).abs() < 1e-9);
        // The saturated link's weight rises to the detour cost
        // (2 hops x q=1), making the KKT conditions hold.
        assert!(sol.weights[0] >= 2.0 - 1e-9, "w = {}", sol.weights[0]);
    }

    #[test]
    fn beta_zero_infeasible_demand_detected() {
        let net = standard::fig1();
        let mut tm = TrafficMatrix::new(4);
        // 2.5 units from 1 to 3 cannot fit through cut {(1,3),(1,2)} of
        // capacity 2.
        tm.set(0.into(), 2.into(), 2.5);
        let obj = Objective::min_hop(net.link_count());
        assert_eq!(
            solve_te(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap_err(),
            SpefError::Infeasible
        );
    }

    #[test]
    fn size_mismatches_rejected() {
        let net = standard::fig1();
        let tm = TrafficMatrix::new(7);
        let obj = Objective::proportional(net.link_count());
        assert!(matches!(
            solve_te(&net, &tm, &obj, &FrankWolfeConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(3);
        assert!(matches!(
            solve_te(&net, &tm, &obj, &FrankWolfeConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn empty_traffic_rejected() {
        let net = standard::fig1();
        let tm = TrafficMatrix::new(4);
        let obj = Objective::min_hop(net.link_count());
        assert!(matches!(
            solve_te(&net, &tm, &obj, &FrankWolfeConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
    }
}
