//! The Fortz–Thorup piecewise-linear link cost and a local-search weight
//! optimiser.
//!
//! Fortz & Thorup ("Internet traffic engineering by optimizing OSPF
//! weights", INFOCOM 2000) approximate M/M/1 delay with a convex
//! piecewise-linear cost whose derivative jumps at utilization
//! 1/3, 2/3, 9/10, 1 and 11/10 — the "FT" curve of the paper's Fig. 2.
//! Optimising even-ECMP OSPF weights against it is NP-hard, so they use a
//! local search; [`FtOutcome::local_search`] implements a faithful
//! single-weight-neighbourhood descent with random restarts, enough to
//! reproduce the FT column of TABLE I and serve as a comparison point.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spef_core::{RoutingEngine, SpefError, SpfStats};
use spef_topology::{Network, TrafficMatrix};

use crate::ospf::{self, OspfRouting};
use crate::util::{rounded_invcap, shuffle};

/// The Fortz–Thorup piecewise-linear link cost Φ.
///
/// Derivative (cost per unit flow) as a function of utilization `u = f/c`:
///
/// | segment | Φ′ |
/// |---------|-----|
/// | `u < 1/3` | 1 |
/// | `1/3 ≤ u < 2/3` | 3 |
/// | `2/3 ≤ u < 9/10` | 10 |
/// | `9/10 ≤ u < 1` | 70 |
/// | `1 ≤ u < 11/10` | 500 |
/// | `u ≥ 11/10` | 5000 |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtCost;

/// The segment breakpoints (in utilization) and slopes of Φ′.
pub const FT_BREAKPOINTS: [f64; 5] = [1.0 / 3.0, 2.0 / 3.0, 9.0 / 10.0, 1.0, 11.0 / 10.0];
/// Slopes of Φ′ per segment (between consecutive breakpoints).
pub const FT_SLOPES: [f64; 6] = [1.0, 3.0, 10.0, 70.0, 500.0, 5000.0];

impl FtCost {
    /// Marginal cost Φ′(f, c) at flow `f` on a link of capacity `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0` or `f < 0`.
    pub fn marginal(self, flow: f64, capacity: f64) -> f64 {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(flow >= 0.0, "flow must be non-negative");
        let u = flow / capacity;
        for (i, &bp) in FT_BREAKPOINTS.iter().enumerate() {
            if u < bp {
                return FT_SLOPES[i];
            }
        }
        FT_SLOPES[5]
    }

    /// Cost Φ(f, c): the integral of the marginal cost from 0 to `f`
    /// (Φ(0) = 0, convex piecewise linear).
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0` or `f < 0`.
    pub fn cost(self, flow: f64, capacity: f64) -> f64 {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(flow >= 0.0, "flow must be non-negative");
        let mut total = 0.0;
        let mut prev_bp_flow = 0.0;
        for (i, &bp) in FT_BREAKPOINTS.iter().enumerate() {
            let bp_flow = bp * capacity;
            if flow <= bp_flow {
                return total + FT_SLOPES[i] * (flow - prev_bp_flow);
            }
            total += FT_SLOPES[i] * (bp_flow - prev_bp_flow);
            prev_bp_flow = bp_flow;
        }
        total + FT_SLOPES[5] * (flow - prev_bp_flow)
    }

    /// Network-wide cost `Σ_e Φ(f_e, c_e)` — the objective the local
    /// search minimises.
    ///
    /// # Panics
    ///
    /// Panics if `flows.len() != network.link_count()`.
    pub fn total_cost(self, network: &Network, flows: &[f64]) -> f64 {
        assert_eq!(flows.len(), network.link_count(), "flow vector length");
        flows
            .iter()
            .zip(network.capacities())
            .map(|(&f, &c)| self.cost(f, c))
            .sum()
    }
}

/// Configuration of the Fortz–Thorup local search.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Largest weight value the search may assign (FT use 2^16−1 in
    /// practice; 20 keeps the neighbourhood tractable and matches their
    /// published small-network experiments).
    pub max_weight: u32,
    /// Total single-weight evaluation budget (default 3000).
    pub max_evaluations: usize,
    /// Random restarts from fresh weight vectors (default 2).
    pub restarts: usize,
    /// RNG seed for restart points and scan order.
    pub seed: u64,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            max_weight: 20,
            max_evaluations: 3000,
            restarts: 2,
            seed: 0x5eed,
        }
    }
}

/// Result of a Fortz–Thorup weight optimisation.
#[derive(Debug, Clone)]
pub struct FtOutcome {
    /// Best integer weight setting found.
    pub weights: Vec<f64>,
    /// Its total piecewise-linear cost.
    pub cost: f64,
    /// The routing under the best weights.
    pub routing: OspfRouting,
    /// Best-cost trace, one entry per accepted improvement.
    pub cost_trace: Vec<f64>,
    /// Evaluations spent.
    pub evaluations: usize,
    /// SPF build counters of the probe engine — how many probes took the
    /// incremental path and how many destination slots they rebuilt.
    pub spf_stats: SpfStats,
}

impl FtOutcome {
    /// Runs the local search: starting from rounded-InvCap weights (and
    /// `restarts` random vectors), repeatedly rescans links trying every
    /// candidate weight `1..=max_weight` and keeps the best improvement.
    ///
    /// # Errors
    ///
    /// Propagates routing errors ([`SpefError::UnroutableDemand`] etc.)
    /// from candidate evaluations.
    pub fn local_search(
        network: &Network,
        traffic: &TrafficMatrix,
        config: &FtConfig,
    ) -> Result<FtOutcome, SpefError> {
        // One batched engine evaluates every candidate: the thousands of
        // cost probes below rebuild DAGs and flows into reused arenas
        // instead of allocating a full routing (FIB included) per probe;
        // after a single-weight probe its delta path repairs only the
        // destinations that weight can affect. The winning routing is
        // materialised once at the end.
        let dests = ospf::validate_ospf_inputs(network, traffic)?;
        let mut engine = RoutingEngine::new(network.graph());
        let mut flows = engine.distribute_fresh();
        let mut cost_of = |weights: &[f64]| -> Result<f64, SpefError> {
            ospf::route_flows_into(&mut engine, traffic, &dests, weights, &mut flows)?;
            Ok(FtCost.total_cost(network, flows.aggregate()))
        };
        let (weights, cost, cost_trace, evaluations) = descend(network, config, &mut cost_of)?;
        let routing = OspfRouting::route_with_weights(network, traffic, &weights)?;
        Ok(FtOutcome {
            weights,
            cost,
            routing,
            cost_trace,
            evaluations,
            spf_stats: engine.spf_stats(),
        })
    }
}

/// The search proper, over any candidate cost function: single-weight
/// first-improvement descents from rounded InvCap and `restarts` random
/// vectors, within the evaluation budget. The trajectory is a pure
/// function of `(network, config, cost values)` — two cost functions
/// that agree bit for bit walk the same path.
///
/// Returns `(weights, cost, cost_trace, evaluations)` of the best start.
fn descend(
    network: &Network,
    config: &FtConfig,
    cost_of: &mut dyn FnMut(&[f64]) -> Result<f64, SpefError>,
) -> Result<(Vec<f64>, f64, Vec<f64>, usize), SpefError> {
    let m = network.link_count();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut starts = vec![rounded_invcap(network, config.max_weight)];
    for _ in 0..config.restarts {
        starts.push(
            (0..m)
                .map(|_| rng.random_range(1..=config.max_weight) as f64)
                .collect(),
        );
    }

    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut trace = Vec::new();
    let mut evaluations = 0;

    for start in starts {
        let mut weights = start;
        let mut cost = cost_of(&weights)?;
        evaluations += 1;
        let mut improved = true;
        while improved && evaluations < config.max_evaluations {
            improved = false;
            // Scan links in random order; first-improvement per link.
            let mut order: Vec<usize> = (0..m).collect();
            shuffle(&mut order, &mut rng);
            'links: for e in order {
                let original = weights[e];
                for cand in 1..=config.max_weight {
                    let cand = cand as f64;
                    if cand == original {
                        continue;
                    }
                    weights[e] = cand;
                    let c_new = cost_of(&weights)?;
                    evaluations += 1;
                    if c_new < cost - 1e-9 {
                        cost = c_new;
                        improved = true;
                        trace.push(cost);
                        continue 'links; // keep the improvement, next link
                    }
                    weights[e] = original;
                    if evaluations >= config.max_evaluations {
                        break 'links;
                    }
                }
            }
        }
        match &best {
            Some((bc, ..)) if *bc <= cost => {}
            _ => best = Some((cost, weights.clone())),
        }
        if evaluations >= config.max_evaluations {
            break;
        }
    }

    let (cost, weights) = best.expect("at least one start point evaluated");
    Ok((weights, cost, trace, evaluations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    #[test]
    fn marginal_cost_segments() {
        let c = FtCost;
        assert_eq!(c.marginal(0.0, 1.0), 1.0);
        assert_eq!(c.marginal(0.5, 1.0), 3.0);
        assert_eq!(c.marginal(0.8, 1.0), 10.0);
        assert_eq!(c.marginal(0.95, 1.0), 70.0);
        assert_eq!(c.marginal(1.05, 1.0), 500.0);
        assert_eq!(c.marginal(2.0, 1.0), 5000.0);
    }

    #[test]
    fn cost_is_continuous_at_breakpoints() {
        let c = FtCost;
        for &bp in &FT_BREAKPOINTS {
            let below = c.cost(bp - 1e-9, 1.0);
            let above = c.cost(bp + 1e-9, 1.0);
            assert!((above - below) < 1e-5, "jump at {bp}");
        }
    }

    #[test]
    fn cost_is_convex_increasing() {
        let c = FtCost;
        let mut prev = 0.0;
        let mut prev_slope = 0.0;
        for i in 1..=120 {
            let f = i as f64 / 100.0;
            let v = c.cost(f, 1.0);
            let slope = v - prev;
            assert!(v >= prev, "decreasing at {f}");
            assert!(slope >= prev_slope - 1e-9, "concave kink at {f}");
            prev = v;
            prev_slope = slope;
        }
    }

    #[test]
    fn cost_scales_with_capacity() {
        // Φ is defined per unit flow against utilization: doubling both
        // flow and capacity doubles the cost.
        let c = FtCost;
        assert!((c.cost(1.0, 2.0) * 2.0 - c.cost(2.0, 4.0)).abs() < 1e-9);
    }

    #[test]
    fn matches_fig2_shape_against_beta_curves() {
        // Fig. 2: the FT curve sits near the β-family curves at low load
        // and explodes past u = 0.9 (cost 13+ at u ~ 1 for capacity 1).
        let c = FtCost;
        assert!(c.cost(0.3, 1.0) < 0.5);
        assert!(c.cost(1.0, 1.0) > 10.0);
    }

    #[test]
    fn local_search_improves_on_congested_fig4() {
        // On Fig. 4 at full demand, InvCap OSPF overloads link 1 (util
        // 1.6); the local search must find weights that spread it out.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let invcap_cost = {
            let r = OspfRouting::route(&net, &tm).unwrap();
            FtCost.total_cost(&net, r.flows().aggregate())
        };
        let cfg = FtConfig {
            max_weight: 10,
            max_evaluations: 2000,
            restarts: 1,
            seed: 7,
        };
        let out = FtOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert!(
            out.cost < invcap_cost * 0.5,
            "search {} vs invcap {invcap_cost}",
            out.cost
        );
        // The optimised routing no longer drives any link past capacity.
        assert!(out.routing.max_link_utilization(&net) <= 1.0 + 1e-9);
    }

    #[test]
    fn local_search_is_deterministic_in_seed() {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let cfg = FtConfig {
            max_weight: 6,
            max_evaluations: 400,
            restarts: 1,
            seed: 3,
        };
        let a = FtOutcome::local_search(&net, &tm, &cfg).unwrap();
        let b = FtOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn incremental_probes_match_full_rebuild_search() {
        // The delta-aware engine path must not change the search
        // trajectory in any way: same accepted moves, same trace, same
        // winner, bit for bit, as a fresh engine per probe.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let cfg = FtConfig {
            max_weight: 8,
            max_evaluations: 600,
            restarts: 1,
            seed: 5,
        };
        let a = FtOutcome::local_search(&net, &tm, &cfg).unwrap();
        let mut fresh_cost = |w: &[f64]| -> Result<f64, SpefError> {
            let r = OspfRouting::route_with_weights(&net, &tm, w)?;
            Ok(FtCost.total_cost(&net, r.flows().aggregate()))
        };
        let (weights, cost, trace, evaluations) = descend(&net, &cfg, &mut fresh_cost).unwrap();
        assert_eq!(a.weights, weights);
        assert_eq!(a.cost.to_bits(), cost.to_bits());
        assert_eq!(a.cost_trace, trace);
        assert_eq!(a.evaluations, evaluations);
        assert!(a.spf_stats.incremental_builds > 0, "{:?}", a.spf_stats);
    }

    #[test]
    fn trace_is_monotone_decreasing_within_restart() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let cfg = FtConfig {
            max_weight: 8,
            max_evaluations: 800,
            restarts: 0,
            seed: 1,
        };
        let out = FtOutcome::local_search(&net, &tm, &cfg).unwrap();
        for w in out.cost_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
