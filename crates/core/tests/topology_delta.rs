//! The topology-delta determinism contract: a persistent engine whose
//! links are failed and restored **in place** (CSR masking + dirty-slot
//! DAG patches) produces distances and flows **bit-identical** to a cold
//! dense engine built on the explicitly degraded topology
//! (`Network::without_links`) at every step — through random
//! fail/restore scripts, interleaved weight deltas, tiled detours, and a
//! full restore back to the intact network. Every script ends with a
//! step the local SPF repair must serve, and the properties check that it
//! did.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spef_core::{RoutingEngine, SpefError, SplitRule};
use spef_graph::{EdgeId, NodeId};
use spef_topology::{gen, Network, TrafficMatrix};

/// Bitwise equality for float slices — the contract is "no drift at all",
/// not "close".
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Strategy: a random duplex network of 4 to 24 nodes, a demand set,
/// and a toggle script — per step, a circuit selector plus one to four
/// `(edge, weight)` overwrites with weights from 0 for the
/// interleaved-delta test.
#[allow(clippy::type_complexity)]
fn random_instance(
) -> impl Strategy<Value = (Network, TrafficMatrix, Vec<(usize, Vec<(usize, u8)>)>)> {
    let step = (0usize..1 << 20, pvec((0usize..1 << 20, 0u8..40), 1..5));
    (4usize..25, 0u64..5000, 2usize..6, pvec(step, 3..8)).prop_map(|(n, seed, pairs, script)| {
        let links = 2 * (n - 1) + 2 * (n / 2);
        let net = gen::random_network("delta", n, links, seed);
        let mut tm = TrafficMatrix::new(n);
        for k in 0..pairs {
            let s = (seed as usize + k * 3) % n;
            let t = (seed as usize + k * 5 + 1) % n;
            if s != t {
                tm.set(NodeId::new(s), NodeId::new(t), 0.2 + (k as f64) * 0.13);
            }
        }
        if tm.pair_count() == 0 {
            tm.set(NodeId::new(0), NodeId::new(1), 0.3);
        }
        let tm = tm.scaled_to_network_load(&net, 0.03);
        (net, tm, script)
    })
}

/// The union of all edges in currently-failed circuits.
fn failed_union(circuits: &[Vec<EdgeId>], masked: &[bool]) -> Vec<EdgeId> {
    circuits
        .iter()
        .zip(masked)
        .filter(|&(_, &down)| down)
        .flat_map(|(c, _)| c.iter().copied())
        .collect()
}

/// Toggles `circuit` on the engine: fails it when up, restores it when
/// down. A fail that would disconnect the network (a bridge circuit — the
/// masked engine has no connectivity oracle, but every consumer checks
/// `without_links` first and skips) is left untouched. Returns whether
/// the toggle was applied.
fn toggle_circuit(
    engine: &mut RoutingEngine<'_>,
    net: &Network,
    circuits: &[Vec<EdgeId>],
    masked: &mut [bool],
    idx: usize,
) -> bool {
    let c = idx % circuits.len();
    if masked[c] {
        engine.restore_links(&circuits[c]).unwrap();
        masked[c] = false;
        return true;
    }
    masked[c] = true;
    if net.without_links(&failed_union(circuits, masked)).is_err() {
        masked[c] = false;
        return false;
    }
    engine.fail_links(&circuits[c]).unwrap();
    true
}

/// Asserts the masked engine's step — `routed`, the result of its
/// distribution into `flows` — equals a cold dense engine built on the
/// explicitly degraded topology: the same error (zero-weight ties can
/// strand a source), or flows bit for bit per destination and in
/// aggregate (remapped through the surviving-edge ids) with exact zero
/// flow on every failed link; and every DAG observable matches.
#[allow(clippy::too_many_arguments)]
fn assert_matches_degraded(
    engine: &RoutingEngine<'_>,
    routed: &Result<(), SpefError>,
    flows: &spef_core::Flows,
    net: &Network,
    tm: &TrafficMatrix,
    dests: &[NodeId],
    w: &[f64],
    tol: f64,
    failed: &[EdgeId],
) -> Result<(), TestCaseError> {
    let (degraded, kept) = net.without_links(failed).unwrap();
    let dw: Vec<f64> = kept.iter().map(|&e| w[e.index()]).collect();
    let mut cold = RoutingEngine::new(degraded.graph());
    cold.build_dags(&dw, dests, tol).unwrap();
    let mut cold_flows = cold.distribute_fresh();
    let cold_routed = cold.distribute_into(tm, SplitRule::EvenEcmp, &mut cold_flows);

    for i in 0..dests.len() {
        let (a, b) = (engine.dag_set().dag(i), cold.dag_set().dag(i));
        prop_assert!(bits_eq(a.distances(), b.distances()));
        prop_assert_eq!(
            a.nodes_by_decreasing_distance(),
            b.nodes_by_decreasing_distance()
        );
        for u in net.graph().nodes() {
            let mapped: Vec<EdgeId> = b.successors(u).iter().map(|e| kept[e.index()]).collect();
            prop_assert_eq!(a.successors(u), mapped.as_slice());
            prop_assert_eq!(a.path_count(u), b.path_count(u));
        }
    }
    match (routed, cold_routed) {
        (Ok(()), Ok(())) => {}
        (Err(a), Err(b)) => {
            prop_assert_eq!(a, &b);
            return Ok(());
        }
        (a, b) => prop_assert!(false, "masked engine routed {a:?}, cold engine {b:?}"),
    }
    let remap = |full: &[f64]| -> Vec<f64> { kept.iter().map(|&e| full[e.index()]).collect() };
    prop_assert!(bits_eq(&remap(flows.aggregate()), cold_flows.aggregate()));
    for &t in dests {
        prop_assert!(bits_eq(
            &remap(flows.for_destination(t).unwrap()),
            cold_flows.for_destination(t).unwrap()
        ));
    }
    for &e in failed {
        prop_assert_eq!(flows.aggregate()[e.index()].to_bits(), 0.0f64.to_bits());
    }
    Ok(())
}

/// The closing step of every script: halves the weight of one
/// positive-weight edge on some cached DAG — a single-edge decrease the
/// local SPF repair must serve without a fallback — routes, checks the
/// step against the cold engine on the degraded topology, and asserts the
/// repair counter moved. Does nothing when every DAG edge weighs zero.
#[allow(clippy::too_many_arguments)]
fn closing_repair_step(
    engine: &mut RoutingEngine<'_>,
    flows: &mut spef_core::Flows,
    net: &Network,
    tm: &TrafficMatrix,
    dests: &[NodeId],
    w: &mut [f64],
    tol: f64,
    failed: &[EdgeId],
) -> Result<(), TestCaseError> {
    let before = engine.spf_stats().slots_repaired;
    let edge = engine.dag_set().iter().find_map(|dag| {
        net.graph()
            .edge_ids()
            .find(|&e| dag.contains_edge(e) && w[e.index()] > 0.0)
    });
    let Some(e) = edge else {
        return Ok(());
    };
    w[e.index()] *= 0.5;
    engine.build_dags(w, dests, tol).unwrap();
    let routed = engine.distribute_into(tm, SplitRule::EvenEcmp, flows);
    assert_matches_degraded(engine, &routed, flows, net, tm, dests, w, tol, failed)?;
    prop_assert!(
        engine.spf_stats().slots_repaired > before,
        "the closing decrease was not repaired: {:?}",
        engine.spf_stats()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A persistent engine walked through a random fail/restore script
    /// (constant weights — the failure-probe shape) matches a cold dense
    /// engine on the explicitly degraded topology at every step, at zero
    /// and positive tolerance.
    #[test]
    fn fail_restore_scripts_match_cold_dense_on_degraded(
        (net, tm, script) in random_instance(),
        tol in prop_oneof![Just(0.0), Just(0.3)],
    ) {
        let dests = tm.destinations();
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let circuits = net.duplex_circuits();
        let mut masked = vec![false; circuits.len()];
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        engine.build_dags(&w, &dests, tol).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();

        for &(sel, _) in &script {
            if !toggle_circuit(&mut engine, &net, &circuits, &mut masked, sel) {
                continue;
            }
            let failed = failed_union(&circuits, &masked);
            prop_assert_eq!(engine.masked_links(), failed.len());
            engine.build_dags(&w, &dests, tol).unwrap();
            let routed = engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows);
            assert_matches_degraded(
                &engine, &routed, &flows, &net, &tm, &dests, &w, tol, &failed,
            )?;
        }
        let failed = failed_union(&circuits, &masked);
        closing_repair_step(
            &mut engine, &mut flows, &net, &tm, &dests, &mut w, tol, &failed,
        )?;
        let stats = engine.spf_stats();
        prop_assert!(stats.builds > 0);
        prop_assert!(stats.builds >= stats.incremental_builds);
        prop_assert_eq!(stats.slots_repaired + stats.slot_fallbacks, stats.slots_rebuilt);
    }

    /// Restoring every failed circuit lands the engine back on the intact
    /// network **exactly**: the mask gauge reads zero and distances and
    /// flows are bit-identical to an engine that was never masked.
    #[test]
    fn restore_all_matches_never_masked((net, tm, script) in random_instance()) {
        let dests = tm.destinations();
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let circuits = net.duplex_circuits();
        let mut masked = vec![false; circuits.len()];
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();

        for &(sel, _) in &script {
            if toggle_circuit(&mut engine, &net, &circuits, &mut masked, sel) {
                // Build between toggles so restores patch live DAGs
                // rather than collapsing into a single no-op round trip.
                engine.build_dags(&w, &dests, 0.0).unwrap();
            }
        }
        for (c, down) in masked.iter_mut().enumerate() {
            if *down {
                engine.restore_links(&circuits[c]).unwrap();
                *down = false;
            }
        }
        prop_assert_eq!(engine.masked_links(), 0);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();

        let mut pristine = RoutingEngine::new(net.graph());
        pristine.build_dags(&w, &dests, 0.0).unwrap();
        let mut pflows = pristine.distribute_fresh();
        pristine.distribute_into(&tm, SplitRule::EvenEcmp, &mut pflows).unwrap();
        prop_assert!(bits_eq(flows.aggregate(), pflows.aggregate()));
        for i in 0..dests.len() {
            prop_assert!(bits_eq(
                engine.dag_set().dag(i).distances(),
                pristine.dag_set().dag(i).distances()
            ));
        }
        closing_repair_step(&mut engine, &mut flows, &net, &tm, &dests, &mut w, 0.0, &[])?;
    }

    /// Weight deltas interleaved with topology toggles — the weight-search
    /// shape running on a degraded view, zero weights included — still
    /// match the cold dense engine on the degraded topology at every step.
    #[test]
    fn interleaved_weight_and_topology_deltas_match(
        (net, tm, script) in random_instance()
    ) {
        let m = net.link_count();
        let dests = tm.destinations();
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let circuits = net.duplex_circuits();
        let mut masked = vec![false; circuits.len()];
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();

        for (k, (sel, deltas)) in script.iter().enumerate() {
            // Alternate toggle-then-retune with retune-only steps so
            // weight deltas hit both freshly-patched and settled masks.
            if k % 2 == 0 {
                toggle_circuit(&mut engine, &net, &circuits, &mut masked, *sel);
            }
            for &(raw_e, raw_w) in deltas {
                w[raw_e % m] = raw_w as f64 * 0.25;
            }
            let failed = failed_union(&circuits, &masked);
            engine.build_dags(&w, &dests, 0.0).unwrap();
            let routed = engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows);
            assert_matches_degraded(
                &engine, &routed, &flows, &net, &tm, &dests, &w, 0.0, &failed,
            )?;
        }
        let failed = failed_union(&circuits, &masked);
        closing_repair_step(
            &mut engine, &mut flows, &net, &tm, &dests, &mut w, 0.0, &failed,
        )?;
    }

    /// The destination-tiled path reads the same masked CSR: with circuits
    /// failed, a tiled run into a separate buffer equals the untiled
    /// masked flows bit for bit, for every tile size.
    #[test]
    fn tiled_runs_agree_with_masked_engine(
        (net, tm, script) in random_instance(),
        tile in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let dests = tm.destinations();
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let circuits = net.duplex_circuits();
        let mut masked = vec![false; circuits.len()];
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        let mut tiled_out = engine.distribute_fresh();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();

        for &(sel, _) in &script {
            if !toggle_circuit(&mut engine, &net, &circuits, &mut masked, sel) {
                continue;
            }
            engine
                .distribute_tiled(
                    &w, &dests, 0.0, &tm, SplitRule::EvenEcmp, tile, true,
                    &mut tiled_out, |_, _, _, _| Ok(()),
                )
                .unwrap();
            engine.build_dags(&w, &dests, 0.0).unwrap();
            let routed = engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows);
            prop_assert!(bits_eq(tiled_out.aggregate(), flows.aggregate()));
            assert_matches_degraded(
                &engine, &routed, &flows, &net, &tm, &dests, &w, 0.0,
                &failed_union(&circuits, &masked),
            )?;
        }
        let failed = failed_union(&circuits, &masked);
        closing_repair_step(
            &mut engine, &mut flows, &net, &tm, &dests, &mut w, 0.0, &failed,
        )?;
    }
}
