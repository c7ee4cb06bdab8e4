//! Algorithm 1 of the paper: distributed dual decomposition for the first
//! link weights.
//!
//! The Lagrangian dual of `TE(V, G, c, D)` separates per link and per
//! destination. Each iteration with weights `w(k)`:
//!
//! 1. every link solves `Link_e(V_e; w_e)` in closed form
//!    ([`Objective::link_optimal_spare`]),
//! 2. every destination solves `Route_t(w; d^t)` — a min-cost flow without
//!    capacities, i.e. *all demand on shortest paths under `w(k)`* (we split
//!    evenly across ties, a valid subgradient choice),
//! 3. every link updates its weight by projected subgradient, Eq. (16):
//!    `w ← (w − γ_k (c − f − s))₊`.
//!
//! The optimality measure is the paper's dual gap
//! `gap(w, s, f) = Σ_e w_e (f_e + s_e − c_e)`, and the recorded
//! dual-objective trace regenerates Fig. 12(a).
//!
//! Theorem 4.1: with `Σγ_k = ∞, γ_k → 0` the weights converge to the
//! optimal `w*`; with no saturated links `w*` is unique and
//! `s* = V'⁻¹(w*)`, `f* = c − s*`.

use spef_graph::NodeId;
use spef_topology::{Network, TrafficMatrix};

use crate::engine::RoutingEngine;
use crate::solver::{ConvergenceCriteria, DdSession, TeWorkspace};
use crate::traffic_dist::{Flows, SplitRule};
use crate::{Objective, SpefError};

/// Step-size schedule for the subgradient updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepRule {
    /// Fixed step `γ_k = γ`.
    Constant(f64),
    /// The paper's default, scaled: `γ_k = ratio / max_e c_e`
    /// (§V.F: "setting the step size to the reciprocal of the maximum link
    /// capacity performs well in practice"; `ratio` is the multiplier shown
    /// in the legends of Fig. 12).
    DefaultRatio(f64),
    /// Diminishing `γ_k = γ₀ / (1 + k)` — satisfies the convergence
    /// conditions of Theorem 4.1 exactly.
    Diminishing(f64),
}

impl StepRule {
    /// Resolves the step size for iteration `k` given the problem scale
    /// `default_scale` (the `1/max c` or `1/max f*` reference value).
    pub fn step(self, k: usize, default_scale: f64) -> f64 {
        match self {
            StepRule::Constant(g) => g,
            StepRule::DefaultRatio(r) => r * default_scale,
            StepRule::Diminishing(g0) => g0 / (1.0 + k as f64),
        }
    }
}

/// Configuration of Algorithm 1.
#[derive(Debug, Clone)]
pub struct DualDecompConfig {
    /// Step-size schedule (default: the paper's `1/max c`).
    pub step: StepRule,
    /// Stopping rules. Defaults to a 2000-iteration budget (the x-range of
    /// Fig. 12(a)) with the derived tolerance `1e-6 × total demand` on the
    /// absolute dual gap.
    pub convergence: ConvergenceCriteria,
    /// Record the dual objective every iteration (Fig. 12(a)). Default true.
    pub record_trace: bool,
}

impl Default for DualDecompConfig {
    fn default() -> Self {
        DualDecompConfig {
            step: StepRule::DefaultRatio(1.0),
            convergence: ConvergenceCriteria::budget(2000),
            record_trace: true,
        }
    }
}

/// Outcome of Algorithm 1.
#[derive(Debug, Clone)]
pub struct DualDecompOutcome {
    /// Final first link weights `w(k)`.
    pub weights: Vec<f64>,
    /// Final per-link spare capacities `s(k)` (solutions of `Link_e`).
    pub spare: Vec<f64>,
    /// Final routing `f(k)` (the `Route_t` flows). Note these are
    /// all-or-nothing shortest-path flows and oscillate between iterates;
    /// use [`average_flows`](Self::average_flows) for a primal solution.
    pub flows: Flows,
    /// Ergodic mean of the `Route_t` flows over all iterations — the
    /// standard primal recovery for subgradient methods, converging to an
    /// optimal multi-commodity flow.
    pub average_flows: Vec<f64>,
    /// Dual objective value per iteration (Fig. 12(a)); empty unless
    /// `record_trace`.
    pub dual_objective_trace: Vec<f64>,
    /// Dual gap per iteration; empty unless `record_trace`.
    pub gap_trace: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the gap tolerance was met.
    pub converged: bool,
}

/// Weight floor applied before shortest-path computation. The projection
/// `(·)₊` can park weights at exactly zero, where equal-distance ties would
/// strand nodes in the DAG (see `spef-graph`); the paper's optimal weights
/// are strictly positive (Theorem 3.1), so the floor is semantically
/// neutral.
pub const WEIGHT_FLOOR: f64 = 1e-9;

/// Runs Algorithm 1 in the caller's workspace.
///
/// A topology/destination-compatible saved multiplier vector seeds `w(0)`
/// (any `w ≥ 0` is a valid dual start, so no further checks are needed);
/// otherwise the paper's cold start `w(0) = 1/c` is used. Under
/// [`ConvergenceCriteria::pinned`] the saved state is ignored and exactly
/// `max_iterations` subgradient steps run.
pub(crate) fn solve_in(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &DualDecompConfig,
    ws: &mut TeWorkspace,
) -> Result<DualDecompOutcome, SpefError> {
    crate::te::validate_sizes(network, traffic, objective)?;
    let dests = traffic.destinations();
    if dests.is_empty() {
        return Err(SpefError::InvalidInput(
            "traffic matrix is empty".to_string(),
        ));
    }
    if config.convergence.max_iterations == 0 {
        return Err(SpefError::InvalidInput(
            "max_iterations must be at least 1".to_string(),
        ));
    }
    let g = network.graph();
    let caps = network.capacities();
    let max_cap = caps.iter().cloned().fold(0.0, f64::max);
    let default_scale = 1.0 / max_cap;
    let gap_tol = config
        .convergence
        .gap_tolerance
        .unwrap_or(1e-6 * traffic.total_demand().max(1.0));

    let tile = ws.chunk_len(dests.len());
    let mut engine = RoutingEngine::with_state(g, ws.take_engine(g));
    let dd = &mut ws.dd;
    let warm = !config.convergence.pinned && dd.try_warm_start(g, &dests);
    // Until the run completes, nothing claims the buffers solve anything.
    dd.forget();
    if !warm {
        // Paper §V.F: w(0) = 1/c is a proper choice.
        dd.weights.clear();
        dd.weights.extend(caps.iter().map(|c| 1.0 / c));
    }
    let result = run(
        traffic,
        objective,
        config,
        &dests,
        caps,
        gap_tol,
        default_scale,
        tile,
        &mut engine,
        dd,
    );
    ws.put_engine(engine.into_state());
    match result {
        Ok((dual_trace, gap_trace, iterations, converged)) => {
            let dd = &mut ws.dd;
            dd.record_solution(g, &dests);
            Ok(DualDecompOutcome {
                weights: dd.weights.clone(),
                spare: dd.spare.clone(),
                flows: dd.flows.clone(),
                average_flows: dd.average_flows.clone(),
                dual_objective_trace: dual_trace,
                gap_trace,
                iterations,
                converged,
            })
        }
        Err(e) => {
            ws.dd.forget();
            Err(e)
        }
    }
}

/// The subgradient loop, operating on the session buffers. `dd.weights`
/// must hold the starting multipliers on entry and holds the final ones on
/// successful exit.
#[allow(clippy::too_many_arguments)]
fn run(
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &DualDecompConfig,
    dests: &[NodeId],
    caps: &[f64],
    gap_tol: f64,
    default_scale: f64,
    tile: usize,
    engine: &mut RoutingEngine<'_>,
    dd: &mut DdSession,
) -> Result<(Vec<f64>, Vec<f64>, usize, bool), SpefError> {
    let m = caps.len();
    let pinned = config.convergence.pinned;
    let mut dual_trace = Vec::new();
    let mut gap_trace = Vec::new();
    dd.spare.clear();
    dd.spare.resize(m, 0.0);
    dd.floored.clear();
    dd.floored.resize(m, 0.0);
    dd.average_flows.clear();
    dd.average_flows.resize(m, 0.0);
    let mut converged = false;
    let mut iterations = 0;
    let record = config.record_trace;

    for k in 0..config.convergence.max_iterations {
        iterations = k + 1;
        // Per-link subproblem.
        for (e, (sp, (&w, &c))) in dd
            .spare
            .iter_mut()
            .zip(dd.weights.iter().zip(caps))
            .enumerate()
        {
            *sp = objective.link_optimal_spare(e.into(), w, c);
        }
        // Route_t: all demand on shortest paths under w(k).
        for (fl, w) in dd.floored.iter_mut().zip(&dd.weights) {
            *fl = w.max(WEIGHT_FLOOR);
        }
        // Dual objective: Σ_e [V(s) − w·s + w·c] − Σ_t Σ_s d^t_s · dist_t(s):
        // link terms first, then the destination terms in ascending order,
        // chunk by chunk while each chunk's DAGs are live. DD only needs
        // the aggregate Route_t flows, so tiled chunks drop the columns.
        let mut dual = 0.0;
        if record {
            for (e, ((&s, &w), &c)) in dd.spare.iter().zip(&dd.weights).zip(caps).enumerate() {
                dual += objective.utility(e.into(), s) - w * s + w * c;
            }
        }
        engine.distribute_tiled(
            &dd.floored,
            dests,
            0.0,
            traffic,
            SplitRule::EvenEcmp,
            tile,
            false,
            &mut dd.flows,
            |_, chunk, dags, _| {
                if record {
                    for (i, &t) in chunk.iter().enumerate() {
                        let dag = dags.dag(i);
                        traffic.demands_to_into(t, &mut dd.demand_buf);
                        for (s, &d) in dd.demand_buf.iter().enumerate() {
                            if d > 0.0 {
                                dual -= d * dag.distance(s.into());
                            }
                        }
                    }
                }
                Ok(())
            },
        )?;
        if record {
            dual_trace.push(dual);
        }

        // Dual gap (the paper's optimality measure).
        let gap: f64 = (0..m)
            .map(|e| dd.weights[e] * (dd.flows.aggregate()[e] + dd.spare[e] - caps[e]))
            .sum();
        if record {
            gap_trace.push(gap);
        }
        let step = config.step.step(k, default_scale);
        // Subgradient of the dual at w is (c − f − s); project onto w ≥ 0.
        let agg = dd.flows.aggregate();
        for ((w, &c), (&f, &s)) in dd
            .weights
            .iter_mut()
            .zip(caps)
            .zip(agg.iter().zip(&dd.spare))
        {
            *w = (*w - step * (c - f - s)).max(0.0);
        }
        // Ergodic primal recovery: running mean over iterations.
        let kf = (k + 1) as f64;
        for (avg, cur) in dd.average_flows.iter_mut().zip(dd.flows.aggregate()) {
            *avg += (cur - *avg) / kf;
        }
        if gap.abs() < gap_tol {
            converged = true;
            if !pinned {
                break;
            }
        } else if pinned {
            converged = false;
        }
    }

    Ok((dual_trace, gap_trace, iterations, converged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frank_wolfe::FrankWolfeConfig;
    use crate::solver::{TeInstance, TeSolver};
    use crate::te::TeSolution;
    use spef_topology::standard;

    /// Cold-solve helpers: these tests exercise the algorithms, not the
    /// session machinery, so each call gets a fresh workspace.
    fn solve(
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        config: &DualDecompConfig,
    ) -> Result<DualDecompOutcome, SpefError> {
        solve_in(network, traffic, objective, config, &mut TeWorkspace::new())
    }

    fn fw_reference(
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
    ) -> TeSolution {
        FrankWolfeConfig::default()
            .solve(TeInstance::new(network, traffic, objective))
            .unwrap()
    }

    fn fig1_setup() -> (Network, TrafficMatrix, Objective) {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        (net, tm, obj)
    }

    #[test]
    fn dual_objective_decreases_toward_optimum() {
        let (net, tm, obj) = fig1_setup();
        let cfg = DualDecompConfig {
            convergence: ConvergenceCriteria::budget(3000),
            ..DualDecompConfig::default()
        };
        let out = solve(&net, &tm, &obj, &cfg).unwrap();
        let primal = fw_reference(&net, &tm, &obj).utility;
        // Weak duality: every dual value upper-bounds the primal optimum.
        for &d in &out.dual_objective_trace {
            assert!(d >= primal - 1e-6, "dual {d} below primal {primal}");
        }
        // And the trace approaches it.
        let last = *out.dual_objective_trace.last().unwrap();
        assert!(
            last - primal < 0.05 * primal.abs().max(1.0),
            "dual {last} far from primal {primal}"
        );
    }

    #[test]
    fn weights_converge_to_marginal_utilities() {
        let (net, tm, obj) = fig1_setup();
        let cfg = DualDecompConfig {
            convergence: ConvergenceCriteria::budget(6000),
            step: StepRule::DefaultRatio(1.0),
            ..DualDecompConfig::default()
        };
        let out = solve(&net, &tm, &obj, &cfg).unwrap();
        let fw = fw_reference(&net, &tm, &obj);
        // TABLE I β=1 weights: 3, 10, 1.5, 1.5 (within subgradient accuracy).
        for e in 0..4 {
            assert!(
                (out.weights[e] - fw.weights[e]).abs() < 0.15 * fw.weights[e],
                "edge {e}: dual {} vs primal {}",
                out.weights[e],
                fw.weights[e]
            );
        }
    }

    #[test]
    fn larger_step_oscillates_more() {
        // §V.F: "too large a step size would cause a little oscillation".
        // Measure trace variance over the tail.
        let (net, tm, obj) = fig1_setup();
        let variance_of = |ratio: f64| {
            let cfg = DualDecompConfig {
                step: StepRule::DefaultRatio(ratio),
                convergence: ConvergenceCriteria::budget(800),
                ..DualDecompConfig::default()
            };
            let out = solve(&net, &tm, &obj, &cfg).unwrap();
            let tail = &out.dual_objective_trace[600..];
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tail.len() as f64
        };
        // A 20x step produces visibly more oscillation than the default.
        assert!(variance_of(20.0) > variance_of(1.0));
    }

    #[test]
    fn diminishing_steps_converge() {
        let (net, tm, obj) = fig1_setup();
        let cfg = DualDecompConfig {
            step: StepRule::Diminishing(1.0),
            convergence: ConvergenceCriteria::budget(4000),
            ..DualDecompConfig::default()
        };
        let out = solve(&net, &tm, &obj, &cfg).unwrap();
        let fw = fw_reference(&net, &tm, &obj);
        let last = *out.dual_objective_trace.last().unwrap();
        assert!(last - fw.utility < 0.1 * fw.utility.abs().max(1.0));
    }

    #[test]
    fn gap_trace_matches_definition() {
        let (net, tm, obj) = fig1_setup();
        let cfg = DualDecompConfig {
            convergence: ConvergenceCriteria::budget(50),
            ..DualDecompConfig::default()
        };
        let out = solve(&net, &tm, &obj, &cfg).unwrap();
        assert_eq!(out.gap_trace.len(), out.iterations);
        assert_eq!(out.dual_objective_trace.len(), out.iterations);
    }

    #[test]
    fn trace_disabled_when_not_recording() {
        let (net, tm, obj) = fig1_setup();
        let cfg = DualDecompConfig {
            record_trace: false,
            convergence: ConvergenceCriteria::budget(20),
            ..DualDecompConfig::default()
        };
        let out = solve(&net, &tm, &obj, &cfg).unwrap();
        assert!(out.dual_objective_trace.is_empty());
        assert!(out.gap_trace.is_empty());
    }

    #[test]
    fn step_rule_arithmetic() {
        assert_eq!(StepRule::Constant(0.5).step(10, 0.1), 0.5);
        assert_eq!(StepRule::DefaultRatio(2.0).step(3, 0.1), 0.2);
        assert_eq!(StepRule::Diminishing(1.0).step(0, 0.1), 1.0);
        assert_eq!(StepRule::Diminishing(1.0).step(9, 0.1), 0.1);
    }

    #[test]
    fn rejects_empty_traffic() {
        let net = standard::fig1();
        let tm = TrafficMatrix::new(4);
        let obj = Objective::proportional(net.link_count());
        assert!(matches!(
            solve(&net, &tm, &obj, &DualDecompConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
    }
}
