//! Reconfiguration workload: ordered weight pushes between two weight
//! settings, with the transient MLU after every push.
//!
//! After a failure the operator re-optimises and must migrate the network
//! from the stale weight setting to the new optimum. Weights are pushed one
//! link at a time (an LSA flood per change), and between pushes the network
//! routes on a *mixed* weight vector that is optimal for neither endpoint —
//! the transient. This module measures that transient: starting from
//! `from`, push each differing weight until the vector equals `to`,
//! routing even-ECMP at every intermediate state and recording the peak
//! MLU along the way.
//!
//! Two push orders are compared:
//!
//! * **naive** — ascending link index, the "replay the diff" order an
//!   unsophisticated tool would use;
//! * **greedy** — at each step push the weight whose new mixed state has
//!   the lowest MLU (ties broken toward the lowest link index), an O(k²)
//!   lookahead that models a transient-aware scheduler.
//!
//! Both orders traverse the same endpoints, so `greedy_peak_mlu <=
//! naive_peak_mlu` is *not* guaranteed in general (greedy is myopic), but
//! the greedy order never does worse on the first step and in practice
//! shaves the worst transients.
//!
//! Routing during the transient is plain even-split ECMP: the second
//! weights are stale the moment the path set changes, so the split ratios
//! degenerate exactly as in the stale-failure model (see
//! [`crate::failure`]). Equal-cost ties are detected with the shared
//! stale-weight threshold [`spef_core::STALE_WEIGHT_DAG_RTOL`] scaled by
//! the largest weight of the *current mixed vector*.

use spef_core::{
    metrics, EngineState, Flows, RoutingEngine, SpefError, SpfStats, SplitRule,
    STALE_WEIGHT_DAG_RTOL,
};
use spef_graph::{EdgeId, NodeId};
use spef_topology::{Network, TrafficMatrix};

/// Transient measurements of one ordered weight migration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigOutcome {
    /// Number of links whose weight differs between the endpoints (pushes
    /// performed by each order).
    pub steps: usize,
    /// Peak transient MLU under the naive ascending-index push order
    /// (maximum over the start state and the state after every push).
    pub naive_peak_mlu: f64,
    /// Peak transient MLU under the greedy minimum-MLU push order.
    pub greedy_peak_mlu: f64,
}

/// Even-ECMP MLU of one weight vector on a (possibly degraded) network
/// under the given equal-cost tolerance — the cold free-function oracle
/// the persistent probes ([`MluProbe`], [`migrate_with`]) are pinned
/// against. Production code routes through the engines; this stays as
/// the reference.
#[cfg(test)]
fn even_ecmp_mlu(
    network: &Network,
    traffic: &TrafficMatrix,
    dests: &[NodeId],
    weights: &[f64],
    dijkstra_tolerance: f64,
) -> Result<f64, SpefError> {
    let dags = spef_core::build_dags(network.graph(), weights, dests, dijkstra_tolerance)?;
    let flows =
        spef_core::traffic_distribution(network.graph(), &dags, traffic, SplitRule::EvenEcmp)?;
    Ok(metrics::max_link_utilization(network, flows.aggregate()))
}

/// A persistent even-ECMP MLU probe over failure circuits: one detached
/// engine state plus one flow buffer, reused across calls.
///
/// Each [`MluProbe::mlu`] call attaches the saved state to the *intact*
/// network, masks the probed circuit in place with
/// [`RoutingEngine::fail_links`], routes, folds the MLU, and restores the
/// mask before detaching again. Because the weights passed across calls
/// are typically identical (a fixed routing probed under many circuits),
/// the SPF fingerprint survives every round-trip and each probe rebuilds
/// only the destinations whose DAGs used the failed links. The MLU is
/// bit-identical to [`even_ecmp_mlu`] on the matching `without_links`
/// degraded network with kept-remapped weights: the masked adjacency
/// compacts to the degraded one entry for entry, masked links carry zero
/// flow, and link utilisations are non-negative, so the intact-link fold
/// reaches the same maximum.
///
/// An empty `circuit` degenerates to a persistent intact-network MLU
/// evaluation.
pub struct MluProbe {
    state: Option<EngineState>,
    flows: Option<Flows>,
    fresh_engines: bool,
}

impl MluProbe {
    /// Creates an empty probe. With `fresh_engines` every call routes on
    /// a new engine and keeps nothing (a cold reference for tests);
    /// otherwise the saved engine patches masks and weights in place.
    pub fn new(fresh_engines: bool) -> MluProbe {
        MluProbe {
            state: None,
            flows: None,
            fresh_engines,
        }
    }

    /// Even-ECMP MLU of `weights` (full length — one per intact link) on
    /// `network` with the links of `circuit` failed.
    ///
    /// # Errors
    ///
    /// Propagates routing errors and out-of-range circuit ids. On error
    /// the saved state is discarded — a half-masked engine is never
    /// reattached, so the next call starts cold.
    pub fn mlu(
        &mut self,
        network: &Network,
        traffic: &TrafficMatrix,
        dests: &[NodeId],
        weights: &[f64],
        dijkstra_tolerance: f64,
        circuit: &[EdgeId],
    ) -> Result<f64, SpefError> {
        let mut engine = match self.state.take() {
            Some(state) => RoutingEngine::with_state(network.graph(), state),
            None => RoutingEngine::new(network.graph()),
        };
        let mut flows = self
            .flows
            .take()
            .unwrap_or_else(|| engine.distribute_fresh());
        engine.fail_links(circuit)?;
        engine.build_dags(weights, dests, dijkstra_tolerance)?;
        engine.distribute_into(traffic, SplitRule::EvenEcmp, &mut flows)?;
        let mlu = metrics::max_link_utilization(network, flows.aggregate());
        engine.restore_links(circuit)?;
        if !self.fresh_engines {
            self.state = Some(engine.into_state());
            self.flows = Some(flows);
        }
        Ok(mlu)
    }

    /// SPF counters accumulated by the saved engine state (zeroed until
    /// the first successful probe).
    pub fn spf_stats(&self) -> SpfStats {
        self.state
            .as_ref()
            .map(EngineState::spf_stats)
            .unwrap_or_default()
    }
}

/// Even-ECMP MLU of one (possibly mixed) weight vector, with the stale
/// equal-cost tolerance scaled to the vector's largest weight — the
/// free-function reference the engine-backed evaluation in
/// [`migrate_with`] is pinned against (production code routes through the
/// persistent engine; this stays as the test oracle).
#[cfg(test)]
fn transient_mlu(
    network: &Network,
    traffic: &TrafficMatrix,
    dests: &[NodeId],
    weights: &[f64],
) -> Result<f64, SpefError> {
    let max_w = weights.iter().cloned().fold(0.0, f64::max);
    even_ecmp_mlu(
        network,
        traffic,
        dests,
        weights,
        STALE_WEIGHT_DAG_RTOL * max_w,
    )
}

/// Measures the transient of migrating `network`'s weights from `from` to
/// `to`, one push at a time, under both push orders.
///
/// Weights are compared bitwise: a link is "changed" iff its weight
/// differs in the `f64` bit pattern, so the step count is deterministic
/// and never inflated by representation noise.
///
/// # Errors
///
/// Propagates routing errors from any intermediate state; panics if the
/// two vectors' lengths differ from the network's link count.
pub fn migrate(
    network: &Network,
    traffic: &TrafficMatrix,
    from: &[f64],
    to: &[f64],
) -> Result<ReconfigOutcome, SpefError> {
    migrate_with(network, traffic, from, to).map(|(outcome, _)| outcome)
}

/// [`migrate`], returning the probe engine's SPF counters alongside the
/// outcome — the bench surface of the incremental path, which repairs
/// only the destinations a push can affect.
///
/// Every intermediate state is evaluated on **one persistent engine**, so
/// consecutive single-push states are one-weight deltas the engine's
/// delta path can exploit. The per-state equal-cost tolerance still
/// tracks the mixed vector's largest weight; a push that changes the
/// maximum changes the tolerance and falls back to a dense rebuild
/// automatically.
///
/// # Errors
///
/// Same conditions as [`migrate`].
pub fn migrate_with(
    network: &Network,
    traffic: &TrafficMatrix,
    from: &[f64],
    to: &[f64],
) -> Result<(ReconfigOutcome, SpfStats), SpefError> {
    let m = network.link_count();
    assert_eq!(from.len(), m, "`from` must cover every link");
    assert_eq!(to.len(), m, "`to` must cover every link");
    let dests = traffic.destinations();

    let mut engine = RoutingEngine::new(network.graph());
    let mut flows = engine.distribute_fresh();
    // The engine-backed twin of [`transient_mlu`]: bit-identical MLUs
    // (pinned by `engine_matches_free_functions_bit_for_bit` below), but
    // DAGs, tables and flow columns persist across the push sequence.
    let eval =
        |w: &[f64], engine: &mut RoutingEngine<'_>, flows: &mut Flows| -> Result<f64, SpefError> {
            let max_w = w.iter().cloned().fold(0.0, f64::max);
            engine.build_dags(w, &dests, STALE_WEIGHT_DAG_RTOL * max_w)?;
            engine.distribute_into(traffic, SplitRule::EvenEcmp, flows)?;
            Ok(metrics::max_link_utilization(network, flows.aggregate()))
        };

    let changed: Vec<usize> = (0..m)
        .filter(|&e| from[e].to_bits() != to[e].to_bits())
        .collect();
    let start_mlu = eval(from, &mut engine, &mut flows)?;

    // Naive order: ascending link index.
    let mut w = from.to_vec();
    let mut naive_peak = start_mlu;
    for &e in &changed {
        w[e] = to[e];
        naive_peak = naive_peak.max(eval(&w, &mut engine, &mut flows)?);
    }

    // Greedy order: at each step try every remaining push and commit the
    // one whose mixed state has the lowest MLU (lowest index on ties).
    let mut w = from.to_vec();
    let mut greedy_peak = start_mlu;
    let mut remaining = changed.clone();
    while !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None; // (position in `remaining`, mlu)
        for (pos, &e) in remaining.iter().enumerate() {
            let old = w[e];
            w[e] = to[e];
            let mlu = eval(&w, &mut engine, &mut flows)?;
            w[e] = old;
            // Strict `<` keeps the first (lowest-index) minimiser.
            if best.map(|(_, b)| mlu < b).unwrap_or(true) {
                best = Some((pos, mlu));
            }
        }
        let (pos, mlu) = best.expect("remaining is non-empty");
        let e = remaining.remove(pos);
        w[e] = to[e];
        greedy_peak = greedy_peak.max(mlu);
    }

    Ok((
        ReconfigOutcome {
            steps: changed.len(),
            naive_peak_mlu: naive_peak,
            greedy_peak_mlu: greedy_peak,
        },
        engine.spf_stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    fn abilene_instance(load: f64) -> (Network, TrafficMatrix) {
        let net = standard::abilene();
        let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, load);
        (net, tm)
    }

    #[test]
    fn identical_endpoints_take_zero_steps() {
        let (net, tm) = abilene_instance(0.05);
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let out = migrate(&net, &tm, &w, &w).unwrap();
        assert_eq!(out.steps, 0);
        // Both peaks degenerate to the (shared) endpoint MLU.
        assert_eq!(out.naive_peak_mlu.to_bits(), out.greedy_peak_mlu.to_bits());
        assert!(out.naive_peak_mlu > 0.0);
    }

    #[test]
    fn peaks_dominate_both_endpoints() {
        let (net, tm) = abilene_instance(0.05);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        // A deliberately different endpoint: uniform weights.
        let to = vec![1.0; net.link_count()];
        let dests = tm.destinations();
        let start = transient_mlu(&net, &tm, &dests, &from).unwrap();
        let end = transient_mlu(&net, &tm, &dests, &to).unwrap();
        let out = migrate(&net, &tm, &from, &to).unwrap();
        assert!(out.steps > 0);
        for peak in [out.naive_peak_mlu, out.greedy_peak_mlu] {
            assert!(peak >= start - 1e-12, "peak {peak} vs start {start}");
            assert!(peak >= end - 1e-12, "peak {peak} vs end {end}");
        }
    }

    #[test]
    fn migration_is_deterministic() {
        let (net, tm) = abilene_instance(0.08);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let to = vec![1.0; net.link_count()];
        let a = migrate(&net, &tm, &from, &to).unwrap();
        let b = migrate(&net, &tm, &from, &to).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.naive_peak_mlu.to_bits(), b.naive_peak_mlu.to_bits());
        assert_eq!(a.greedy_peak_mlu.to_bits(), b.greedy_peak_mlu.to_bits());
    }

    #[test]
    fn engine_matches_free_functions_bit_for_bit() {
        // The persistent-engine evaluation must reproduce the legacy
        // free-function transient MLUs exactly: recompute the naive
        // order's peak with `transient_mlu` and compare bitwise.
        let (net, tm) = abilene_instance(0.08);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let to: Vec<f64> = vec![1.0; net.link_count()];
        let dests = tm.destinations();
        let changed: Vec<usize> = (0..net.link_count())
            .filter(|&e| from[e].to_bits() != to[e].to_bits())
            .collect();
        let mut peak = transient_mlu(&net, &tm, &dests, &from).unwrap();
        let mut w = from.clone();
        for &e in &changed {
            w[e] = to[e];
            peak = peak.max(transient_mlu(&net, &tm, &dests, &w).unwrap());
        }
        // The greedy order, replayed on the free functions.
        let mut greedy = transient_mlu(&net, &tm, &dests, &from).unwrap();
        let mut w = from.clone();
        let mut remaining = changed.clone();
        while !remaining.is_empty() {
            let mut best: Option<(usize, f64)> = None;
            for (pos, &e) in remaining.iter().enumerate() {
                let mut probe = w.clone();
                probe[e] = to[e];
                let mlu = transient_mlu(&net, &tm, &dests, &probe).unwrap();
                if best.map(|(_, b)| mlu < b).unwrap_or(true) {
                    best = Some((pos, mlu));
                }
            }
            let (pos, mlu) = best.unwrap();
            let e = remaining.remove(pos);
            w[e] = to[e];
            greedy = greedy.max(mlu);
        }
        let (inc, inc_stats) = migrate_with(&net, &tm, &from, &to).unwrap();
        assert_eq!(inc.naive_peak_mlu.to_bits(), peak.to_bits());
        assert_eq!(inc.greedy_peak_mlu.to_bits(), greedy.to_bits());
        assert!(
            inc_stats.incremental_builds > 0,
            "push probes never took the incremental path: {inc_stats:?}"
        );
    }

    #[test]
    fn mlu_probe_matches_degraded_free_function() {
        // One persistent probe across every connected circuit must
        // reproduce the cold free-function MLU on the corresponding
        // `without_links` network bit for bit, and so must a probe that
        // starts every call from a fresh engine.
        // Varied integer weights keep the DAGs thin enough that some
        // circuits sit on few of them, so the in-place patch path (not
        // just its dense fallback) is exercised; invcap with tolerance 0
        // ties so many equal-cost paths on Abilene that every circuit
        // dirties more than half the destinations.
        let (net, tm) = abilene_instance(0.05);
        let dests = tm.destinations();
        let weights: Vec<f64> = (0..net.link_count())
            .map(|e| 1.0 + (e % 7) as f64)
            .collect();
        let mut masked = MluProbe::new(false);
        let mut dense = MluProbe::new(true);
        let mut probed = 0usize;
        for circuit in net.duplex_circuits() {
            let Ok((degraded, kept)) = net.without_links(&circuit) else {
                continue;
            };
            let dw: Vec<f64> = kept.iter().map(|e| weights[e.index()]).collect();
            let expect = even_ecmp_mlu(&degraded, &tm, &dests, &dw, 0.0).unwrap();
            for probe in [&mut masked, &mut dense] {
                let got = probe
                    .mlu(&net, &tm, &dests, &weights, 0.0, &circuit)
                    .unwrap();
                assert_eq!(got.to_bits(), expect.to_bits());
            }
            probed += 1;
        }
        assert!(probed > 0);
        let stats = masked.spf_stats();
        assert!(stats.topology_builds > 0, "{stats:?}");
        assert_eq!(dense.spf_stats().topology_builds, 0);
    }

    #[test]
    fn greedy_first_step_never_exceeds_naive_first_step() {
        // The greedy order's first push is the minimum over all single
        // pushes, which includes naive's first push — so with exactly one
        // changed weight the two orders coincide.
        let (net, tm) = abilene_instance(0.05);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut to = from.clone();
        to[3] += 0.5;
        let out = migrate(&net, &tm, &from, &to).unwrap();
        assert_eq!(out.steps, 1);
        assert_eq!(out.naive_peak_mlu.to_bits(), out.greedy_peak_mlu.to_bits());
    }
}
