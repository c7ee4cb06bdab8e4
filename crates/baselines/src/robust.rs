//! Robust OSPF weight search: optimise the worst-case MLU across a
//! single-circuit failure set.
//!
//! The robust-OSPF line the paper's §VI cites (and "OSPF Weight Setting
//! Optimization for Single Link Failures") observes that weights optimised
//! for the intact topology go stale the moment a link fails: OSPF
//! reconverges on the survivors with the *old* weights, and the resulting
//! even-ECMP routing can be far from any optimum. The robust answer is to
//! pick one weight vector whose worst case over the failure set is as good
//! as possible — trading intact-topology optimality for failure insurance.
//!
//! This module reuses the Fortz–Thorup local-search scaffolding
//! ([`crate::FtOutcome`]): the same first-improvement shuffled
//! single-weight scans over integer weights `1..=max_weight`, but with the
//! scalar objective
//!
//! ```text
//! cost(w) = max over scenarios s of MLU(even-ECMP routing of w on s)
//! ```
//!
//! where the scenarios are the intact topology plus every single duplex
//! *circuit* failure that leaves the network connected (bridge circuits
//! are skipped and counted — see [`RobustOutcome::skipped_circuits`]).
//!
//! Candidate evaluations probe the failure scenarios on **one** shared
//! engine: each circuit is masked out with
//! [`RoutingEngine::fail_links`], routed (an incremental refresh of the
//! destinations the circuit dirtied — the weights are unchanged, so the
//! SPF fingerprint holds), and restored — no per-scenario engines, no
//! per-scenario DAG arenas, O(dests·edges) peak memory instead of
//! O(circuits·dests·edges). The tests pin the costs bit for bit against
//! fresh engines over per-circuit [`Network::without_links`] clones, so
//! the search trajectory is the one those clones would walk.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spef_core::{metrics, RoutingEngine, SpefError, SpfStats};
use spef_topology::{Network, TrafficMatrix};

use crate::ospf;
use crate::util::{rounded_invcap, shuffle};

/// Configuration of the robust weight search.
///
/// Deliberately smaller than [`crate::FtConfig`]: each evaluation routes
/// the candidate on *every* failure scenario, so budgets are counted in
/// candidate vectors, and the default budget is modest. No random
/// restarts — the search starts from rounded InvCap weights so a given
/// `(instance, config)` pair explores one deterministic trajectory.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// Largest weight value the search may assign (default 20, matching
    /// [`crate::FtConfig`]).
    pub max_weight: u32,
    /// Candidate weight-vector budget (default 150); each candidate costs
    /// one even-ECMP routing per scenario.
    pub max_evaluations: usize,
    /// RNG seed for the scan order.
    pub seed: u64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            max_weight: 20,
            max_evaluations: 150,
            seed: 0x0b57,
        }
    }
}

/// Result of a robust weight search.
#[derive(Debug, Clone)]
pub struct RobustOutcome {
    /// Best integer weight setting found.
    pub weights: Vec<f64>,
    /// Its worst-case MLU over the scenario set (intact + every
    /// connected single-circuit failure).
    pub worst_mlu: f64,
    /// Its MLU on the intact topology — the price paid for robustness,
    /// to compare against weights optimised for the intact case alone.
    pub intact_mlu: f64,
    /// Candidate weight vectors evaluated.
    pub evaluations: usize,
    /// Duplex circuits whose failure would disconnect the network,
    /// excluded from the scenario set (reported, never silent).
    pub skipped_circuits: usize,
    /// SPF build counters of the search's engine — how many probe
    /// routings took the incremental/topology-delta paths and how many
    /// destination slots they rebuilt.
    pub spf_stats: SpfStats,
    /// Peak bytes reserved by the search's routing arenas (one engine's
    /// worth, whatever the number of failure scenarios).
    pub arena_bytes: usize,
}

impl RobustOutcome {
    /// Runs the local search: starting from rounded-InvCap weights,
    /// repeatedly rescans links in seeded-random order trying every
    /// candidate weight `1..=max_weight`, keeping first improvements of
    /// the worst-case MLU.
    ///
    /// # Errors
    ///
    /// Propagates routing errors ([`SpefError::UnroutableDemand`] etc.)
    /// from candidate evaluations on any scenario.
    pub fn local_search(
        network: &Network,
        traffic: &TrafficMatrix,
        config: &RobustConfig,
    ) -> Result<RobustOutcome, SpefError> {
        let dests = ospf::validate_ospf_inputs(network, traffic)?;

        // Circuits are classified once (test-and-drop — no degraded
        // Network is retained) and every candidate probes them
        // on the one shared engine via fail/restore round-trips. The
        // weights are identical across the intact and failed routings of
        // a candidate, so the SPF fingerprint holds through every mask
        // toggle and each probe costs one dirty-destination refresh. The
        // MLU is folded over the intact link set — masked links carry
        // zero flow, and utilisations are non-negative, so the maximum is
        // bit-identical to folding over the degraded link set.
        let mut circuits = Vec::new();
        let mut skipped_circuits = 0usize;
        for circuit in network.duplex_circuits() {
            match network.without_links(&circuit) {
                Ok(_) => circuits.push(circuit),
                Err(_) => skipped_circuits += 1,
            }
        }
        let mut engine = RoutingEngine::new(network.graph());
        let mut flows = engine.distribute_fresh();
        let mut cost_of = |weights: &[f64]| -> Result<(f64, f64), SpefError> {
            ospf::route_flows_into(&mut engine, traffic, &dests, weights, &mut flows)?;
            let intact = metrics::max_link_utilization(network, flows.aggregate());
            let mut worst = intact;
            for circuit in &circuits {
                engine.fail_links(circuit)?;
                ospf::route_flows_into(&mut engine, traffic, &dests, weights, &mut flows)?;
                worst = worst.max(metrics::max_link_utilization(network, flows.aggregate()));
                engine.restore_links(circuit)?;
            }
            Ok((worst, intact))
        };
        let (weights, cost, intact_mlu, evaluations) =
            first_improvement_search(network, config, &mut cost_of)?;
        Ok(RobustOutcome {
            weights,
            worst_mlu: cost,
            intact_mlu,
            evaluations,
            skipped_circuits,
            spf_stats: engine.spf_stats(),
            arena_bytes: engine.arena_bytes(),
        })
    }
}

/// `(worst-case MLU, intact MLU)` of one candidate weight vector.
type CandidateCost = Result<(f64, f64), SpefError>;

/// The first-improvement scan over integer weights: starting from rounded
/// InvCap (the FT convention), seeded-random link order, candidates
/// `1..=max_weight` per link, keep the first candidate improving the
/// cost, stop when a full rescan improves nothing or the evaluation
/// budget runs out. The trajectory is a pure function of `(network,
/// config, cost values)` — two cost functions that agree bit for bit
/// walk the same path.
///
/// Returns `(weights, cost, intact_mlu, evaluations)`.
fn first_improvement_search(
    network: &Network,
    config: &RobustConfig,
    cost_of: &mut dyn FnMut(&[f64]) -> CandidateCost,
) -> Result<(Vec<f64>, f64, f64, usize), SpefError> {
    let m = network.link_count();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut weights = rounded_invcap(network, config.max_weight);
    let (mut cost, mut intact_mlu) = cost_of(&weights)?;
    let mut evaluations = 1usize;
    let mut improved = true;
    while improved && evaluations < config.max_evaluations {
        improved = false;
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
                let (c_new, i_new) = cost_of(&weights)?;
                evaluations += 1;
                if c_new < cost - 1e-9 {
                    cost = c_new;
                    intact_mlu = i_new;
                    improved = true;
                    continue 'links; // keep the improvement, next link
                }
                weights[e] = original;
                if evaluations >= config.max_evaluations {
                    break 'links;
                }
            }
        }
    }
    Ok((weights, cost, intact_mlu, evaluations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ospf::OspfRouting;
    use spef_graph::EdgeId;
    use spef_topology::standard;

    fn abilene_instance(load: f64) -> (Network, TrafficMatrix) {
        let net = standard::abilene();
        let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, load);
        (net, tm)
    }

    #[test]
    fn worst_case_dominates_intact_case() {
        let (net, tm) = abilene_instance(0.05);
        let out = RobustOutcome::local_search(&net, &tm, &RobustConfig::default()).unwrap();
        assert!(out.worst_mlu >= out.intact_mlu - 1e-12);
        assert!(out.intact_mlu > 0.0);
        assert!(out.evaluations >= 1);
    }

    #[test]
    fn robust_search_improves_worst_case_over_invcap() {
        let (net, tm) = abilene_instance(0.08);
        // Worst-case MLU of plain InvCap weights across the same set.
        let invcap = ospf::invcap_weights(&net);
        let mut worst_invcap = OspfRouting::route_with_weights(&net, &tm, &invcap)
            .unwrap()
            .max_link_utilization(&net);
        for circuit in net.duplex_circuits() {
            let Ok((degraded, kept)) = net.without_links(&circuit) else {
                continue;
            };
            let dw: Vec<f64> = kept.iter().map(|&old| invcap[old.index()]).collect();
            let r = OspfRouting::route_with_weights(&degraded, &tm, &dw).unwrap();
            worst_invcap = worst_invcap.max(r.max_link_utilization(&degraded));
        }
        let cfg = RobustConfig {
            max_evaluations: 400,
            ..RobustConfig::default()
        };
        let out = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert!(
            out.worst_mlu <= worst_invcap + 1e-12,
            "robust {} vs invcap worst-case {worst_invcap}",
            out.worst_mlu
        );
    }

    #[test]
    fn deterministic_in_seed_and_budget() {
        let (net, tm) = abilene_instance(0.05);
        let cfg = RobustConfig {
            max_evaluations: 60,
            ..RobustConfig::default()
        };
        let a = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        let b = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.worst_mlu.to_bits(), b.worst_mlu.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
    }

    /// The reference cost: the intact routing plus one fresh engine over
    /// each connected [`Network::without_links`] clone, weights remapped
    /// through the surviving-link ids.
    fn clone_cost(net: &Network, tm: &TrafficMatrix, weights: &[f64]) -> CandidateCost {
        let intact = OspfRouting::route_with_weights(net, tm, weights)?.max_link_utilization(net);
        let mut worst = intact;
        for circuit in net.duplex_circuits() {
            let Ok((degraded, kept)) = net.without_links(&circuit) else {
                continue;
            };
            let dw: Vec<f64> = kept.iter().map(|&old| weights[old.index()]).collect();
            let r = OspfRouting::route_with_weights(&degraded, tm, &dw)?;
            worst = worst.max(r.max_link_utilization(&degraded));
        }
        Ok((worst, intact))
    }

    #[test]
    fn incremental_probes_match_full_rebuild_search() {
        let (net, tm) = abilene_instance(0.05);
        let cfg = RobustConfig {
            max_evaluations: 60,
            ..RobustConfig::default()
        };
        let a = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        let (weights, worst, intact, evaluations) =
            first_improvement_search(&net, &cfg, &mut |w| clone_cost(&net, &tm, w)).unwrap();
        assert_eq!(a.weights, weights);
        assert_eq!(a.worst_mlu.to_bits(), worst.to_bits());
        assert_eq!(a.intact_mlu.to_bits(), intact.to_bits());
        assert_eq!(a.evaluations, evaluations);
        assert!(a.spf_stats.incremental_builds > 0, "{:?}", a.spf_stats);
        // Every probe toggles the mask in place on the shared engine.
        assert!(a.spf_stats.topology_builds > 0, "{:?}", a.spf_stats);
        assert!(a.spf_stats.masked_links > 0, "{:?}", a.spf_stats);
    }

    #[test]
    fn bridge_circuits_are_counted_not_silent() {
        // A path network: every circuit is a bridge except none — failing
        // any circuit disconnects it, so all circuits are skipped and the
        // scenario set degenerates to the intact topology alone.
        let mut b = Network::builder("path3");
        let n0 = b.add_node("a", (0.0, 0.0));
        let n1 = b.add_node("b", (1.0, 0.0));
        let n2 = b.add_node("c", (2.0, 0.0));
        b.add_duplex_link(n0, n1, 1.0);
        b.add_duplex_link(n1, n2, 1.0);
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(3);
        tm.set(n0, n2, 0.5);
        let cfg = RobustConfig {
            max_evaluations: 30,
            ..RobustConfig::default()
        };
        let out = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert_eq!(out.skipped_circuits, 2);
        // Only the intact scenario remains, so worst == intact.
        assert_eq!(out.worst_mlu.to_bits(), out.intact_mlu.to_bits());
        let _ = EdgeId::new(0);
    }
}
