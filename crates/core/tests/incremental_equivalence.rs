//! The incremental-SPF determinism contract: a persistent engine fed a
//! sequence of weight deltas (single- and multi-edge, zero weights
//! included), demand swaps and interleaved tiled runs produces DAGs and
//! flows **bit-identical** to a cold dense engine rebuilt from scratch at
//! every step — for every tile size, across cold-fallback boundaries
//! (detach/re-attach, `invalidate`, destination and tolerance changes),
//! and through `TeWorkspace` sessions with `clear_solutions` in between.
//! Every delta script ends with a step the local SPF repair must serve,
//! and the properties check that it did.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spef_core::{
    ConvergenceCriteria, FrankWolfeConfig, Objective, RoutingEngine, SpefError, SplitRule,
    TeInstance, TeSolver, TeWorkspace,
};
use spef_graph::NodeId;
use spef_topology::{gen, TrafficMatrix};

/// Bitwise equality for float slices — the contract is "no drift at all",
/// not "close".
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Strategy: a random duplex network of 4 to 24 nodes, a demand set, and
/// a delta script — per step, one to four `(edge, weight)` overwrites
/// with weights from 0 (most steps are single-edge, the weight-search
/// shape; multi-edge steps mix increases and decreases).
#[allow(clippy::type_complexity)]
fn random_instance(
) -> impl Strategy<Value = (spef_topology::Network, TrafficMatrix, Vec<Vec<(usize, u8)>>)> {
    let step = pvec((0usize..1 << 20, 0u8..40), 1..5);
    (4usize..25, 0u64..5000, 2usize..6, pvec(step, 3..8)).prop_map(|(n, seed, pairs, script)| {
        let links = 2 * (n - 1) + 2 * (n / 2);
        let net = gen::random_network("incr", n, links, seed);
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

/// One cold dense reference step: a fresh engine, whose first build is
/// always dense.
fn cold_flows(
    net: &spef_topology::Network,
    tm: &TrafficMatrix,
    dests: &[NodeId],
    w: &[f64],
    tol: f64,
    rule: SplitRule<'_>,
) -> Result<spef_core::Flows, SpefError> {
    let mut engine = RoutingEngine::new(net.graph());
    engine.build_dags(w, dests, tol).unwrap();
    let mut out = engine.distribute_fresh();
    engine.distribute_into(tm, rule, &mut out)?;
    Ok(out)
}

/// Asserts the persistent engine's step — `routed`, the result of its
/// distribution into `flows` — equals the cold dense reference: the same
/// error (zero-weight ties can strand a source), or flows bit for bit per
/// destination and in aggregate; and that every DAG observable matches a
/// cold build's.
#[allow(clippy::too_many_arguments)]
fn assert_step_matches(
    engine: &RoutingEngine<'_>,
    routed: &Result<(), SpefError>,
    flows: &spef_core::Flows,
    net: &spef_topology::Network,
    tm: &TrafficMatrix,
    dests: &[NodeId],
    w: &[f64],
    tol: f64,
    rule: SplitRule<'_>,
) -> Result<(), TestCaseError> {
    match (routed, cold_flows(net, tm, dests, w, tol, rule)) {
        (Ok(()), Ok(cold)) => {
            prop_assert!(bits_eq(flows.aggregate(), cold.aggregate()));
            for &t in dests {
                prop_assert!(bits_eq(
                    flows.for_destination(t).unwrap(),
                    cold.for_destination(t).unwrap()
                ));
            }
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, &b),
        (a, b) => prop_assert!(false, "engine routed {a:?}, cold engine {b:?}"),
    }
    let mut cold_engine = RoutingEngine::new(net.graph());
    cold_engine.build_dags(w, dests, tol).unwrap();
    for i in 0..dests.len() {
        let (a, b) = (engine.dag_set().dag(i), cold_engine.dag_set().dag(i));
        prop_assert!(bits_eq(a.distances(), b.distances()));
        prop_assert_eq!(
            a.nodes_by_decreasing_distance(),
            b.nodes_by_decreasing_distance()
        );
        for u in net.graph().nodes() {
            prop_assert_eq!(a.successors(u), b.successors(u));
            prop_assert_eq!(a.path_count(u), b.path_count(u));
        }
    }
    Ok(())
}

/// Halves the weight of one positive-weight edge on some cached DAG — a
/// single-edge decrease the local SPF repair must serve without a
/// fallback (a cheaper edge leaves no node unsupported). Returns `false`
/// when every DAG edge already weighs zero.
fn halve_a_dag_edge(engine: &RoutingEngine<'_>, w: &mut [f64]) -> bool {
    let set = engine.dag_set();
    let edge = set.iter().find_map(|dag| {
        engine
            .graph()
            .edge_ids()
            .find(|&e| dag.contains_edge(e) && w[e.index()] > 0.0)
    });
    match edge {
        Some(e) => {
            w[e.index()] *= 0.5;
            true
        }
        None => false,
    }
}

/// Runs the repair-served closing step of a script: halves a DAG edge,
/// routes, checks the step against the cold reference, and asserts the
/// repair counter moved.
#[allow(clippy::too_many_arguments)]
fn closing_repair_step(
    engine: &mut RoutingEngine<'_>,
    flows: &mut spef_core::Flows,
    net: &spef_topology::Network,
    tm: &TrafficMatrix,
    dests: &[NodeId],
    w: &mut [f64],
    tol: f64,
    rule: SplitRule<'_>,
) -> Result<(), TestCaseError> {
    let before = engine.spf_stats().slots_repaired;
    if !halve_a_dag_edge(engine, w) {
        return Ok(());
    }
    engine.build_dags(w, dests, tol).unwrap();
    let routed = engine.distribute_into(tm, rule, flows);
    assert_step_matches(engine, &routed, flows, net, tm, dests, w, tol, rule)?;
    prop_assert!(
        engine.spf_stats().slots_repaired > before,
        "the closing decrease was not repaired: {:?}",
        engine.spf_stats()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A persistent incremental engine walked through a random delta
    /// script matches a cold dense rebuild at every step, under both
    /// split rules and with a mid-script demand swap.
    #[test]
    fn delta_sequences_match_cold_dense(
        (net, tm, script) in random_instance(),
        tol in prop_oneof![Just(0.0), Just(0.3)],
    ) {
        let m = net.link_count();
        let dests = tm.destinations();
        let tm_hi = tm.scaled(1.3);
        let v: Vec<f64> = (0..m).map(|e| ((e * 7) % 5) as f64 * 0.31).collect();
        let invcap: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();

        for rule in [SplitRule::EvenEcmp, SplitRule::Exponential(&v)] {
            let mut w = invcap.clone();
            let mut engine = RoutingEngine::new(net.graph());
            let mut flows = engine.distribute_fresh();
            engine.build_dags(&w, &dests, tol).unwrap();
            engine.distribute_into(&tm, rule, &mut flows).unwrap();
            for (k, step) in script.iter().enumerate() {
                for &(raw_e, raw_w) in step {
                    w[raw_e % m] = raw_w as f64 * 0.25;
                }
                // Alternate the demand matrix so demand-dirty columns are
                // exercised with both clean and dirty DAG slots.
                let demand = if k % 2 == 0 { &tm } else { &tm_hi };
                engine.build_dags(&w, &dests, tol).unwrap();
                let routed = engine.distribute_into(demand, rule, &mut flows);
                assert_step_matches(&engine, &routed, &flows, &net, demand, &dests, &w, tol, rule)?;
            }
            closing_repair_step(&mut engine, &mut flows, &net, &tm, &dests, &mut w, tol, rule)?;
            let stats = engine.spf_stats();
            prop_assert!(stats.builds >= stats.incremental_builds);
            prop_assert_eq!(stats.slots_repaired + stats.slot_fallbacks, stats.slots_rebuilt);
        }
    }

    /// Equal-cost tolerance in play: deltas under a coarse tolerance keep
    /// the incremental path bit-identical even when edges drift in and
    /// out of near-tie DAG membership without changing distances.
    #[test]
    fn delta_sequences_match_cold_dense_with_tolerance(
        (net, tm, script) in random_instance(),
        tol in prop_oneof![Just(0.0), Just(1e-9), Just(0.3)],
    ) {
        let m = net.link_count();
        let dests = tm.destinations();
        let mut w = vec![1.0; m];
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        engine.build_dags(&w, &dests, tol).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();
        for step in &script {
            for &(raw_e, raw_w) in step {
                // Steps of ±0.25·k around 1.0 interact with `tol = 0.3`.
                w[raw_e % m] = 1.0 + (raw_w % 5) as f64 * 0.25;
            }
            engine.build_dags(&w, &dests, tol).unwrap();
            let routed = engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows);
            assert_step_matches(
                &engine, &routed, &flows, &net, &tm, &dests, &w, tol, SplitRule::EvenEcmp,
            )?;
        }
        closing_repair_step(
            &mut engine, &mut flows, &net, &tm, &dests, &mut w, tol, SplitRule::EvenEcmp,
        )?;
    }

    /// Interleaved tiled runs (tile sizes 1, 3 and dense) change no
    /// result: tiled output equals the untiled output, and the next
    /// untiled step stays bit-identical after each tiled detour. A detour
    /// builds into the same arenas, so the untiled step after it may run
    /// dense; the closing step proves the repair path resumes.
    #[test]
    fn tiled_detours_leave_results_bit_identical(
        (net, tm, script) in random_instance(),
        tile in prop_oneof![Just(Some(1usize)), Just(Some(3usize)), Just(None::<usize>)],
    ) {
        let m = net.link_count();
        let dests = tm.destinations();
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        let mut tiled_out = engine.distribute_fresh();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();
        for step in &script {
            for &(raw_e, raw_w) in step {
                w[raw_e % m] = raw_w as f64 * 0.25;
            }
            // Tiled detour into a separate buffer.
            let tile: Option<usize> = tile;
            let tiled = tile.map(|t| {
                engine.distribute_tiled(
                    &w, &dests, 0.0, &tm, SplitRule::EvenEcmp, t, true,
                    &mut tiled_out, |_, _, _, _| Ok(()),
                )
            });
            engine.build_dags(&w, &dests, 0.0).unwrap();
            let routed = engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows);
            if let Some(tiled) = tiled {
                prop_assert_eq!(&tiled, &routed);
                if routed.is_ok() {
                    prop_assert!(bits_eq(tiled_out.aggregate(), flows.aggregate()));
                }
            }
            assert_step_matches(
                &engine, &routed, &flows, &net, &tm, &dests, &w, 0.0, SplitRule::EvenEcmp,
            )?;
        }
        closing_repair_step(
            &mut engine, &mut flows, &net, &tm, &dests, &mut w, 0.0, SplitRule::EvenEcmp,
        )?;
    }

    /// Cold-fallback boundaries: `invalidate`, a detach/re-attach round
    /// trip, a foreign-topology detour, and destination-set changes all
    /// land back on bit-identical results.
    #[test]
    fn cold_fallback_boundaries_stay_bit_identical((net, tm, script) in random_instance()) {
        let m = net.link_count();
        let dests = tm.destinations();
        let other = gen::random_network("other", 5, 12, 99);
        let other_w = vec![1.0; other.link_count()];
        let other_dests: Vec<NodeId> = vec![NodeId::new(0)];
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows).unwrap();
        for (k, step) in script.iter().enumerate() {
            for &(raw_e, raw_w) in step {
                w[raw_e % m] = raw_w as f64 * 0.25;
            }
            match k % 4 {
                // Plain incremental step.
                0 => {}
                // Fingerprint dropped: next build is dense, then the
                // sequence resumes incrementally.
                1 => engine = {
                    let mut s = engine.into_state();
                    s.invalidate();
                    RoutingEngine::with_state(net.graph(), s)
                },
                // Same-topology round trip: caches survive.
                2 => engine = RoutingEngine::with_state(net.graph(), engine.into_state()),
                // Foreign-topology detour: full cold fallback on return.
                _ => {
                    let mut detour =
                        RoutingEngine::with_state(other.graph(), engine.into_state());
                    detour.build_dags(&other_w, &other_dests, 0.0).unwrap();
                    engine = RoutingEngine::with_state(net.graph(), detour.into_state());
                }
            }
            engine.build_dags(&w, &dests, 0.0).unwrap();
            let routed = engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows);
            assert_step_matches(
                &engine, &routed, &flows, &net, &tm, &dests, &w, 0.0, SplitRule::EvenEcmp,
            )?;
        }
        // Destination-set shrink and restore across the same engine.
        if dests.len() > 1 {
            engine.build_dags(&w, &dests[..1], 0.0).unwrap();
            engine.build_dags(&w, &dests, 0.0).unwrap();
            let routed = engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows);
            assert_step_matches(
                &engine, &routed, &flows, &net, &tm, &dests, &w, 0.0, SplitRule::EvenEcmp,
            )?;
        }
        closing_repair_step(
            &mut engine, &mut flows, &net, &tm, &dests, &mut w, 0.0, SplitRule::EvenEcmp,
        )?;
    }

    /// `TeWorkspace` exposure: warm Frank–Wolfe re-solves on an
    /// incremental workspace — with `clear_solutions` between solves —
    /// reproduce the cold solve bit for bit.
    #[test]
    fn workspace_sessions_match_cold_across_clear_solutions(
        (net, tm, _script) in random_instance(),
        scale in 1.05f64..1.6,
    ) {
        let obj = Objective::proportional(net.link_count());
        let fw = FrankWolfeConfig {
            convergence: ConvergenceCriteria::pinned(30),
            ..FrankWolfeConfig::default()
        };
        let tm_hi = tm.scaled(scale);
        let cold_lo = fw.solve(TeInstance::new(&net, &tm, &obj)).unwrap();
        let cold_hi = fw.solve(TeInstance::new(&net, &tm_hi, &obj)).unwrap();

        let mut ws = TeWorkspace::new();
        for (round, (demand, cold)) in [(&tm, &cold_lo), (&tm_hi, &cold_hi), (&tm, &cold_lo)]
            .into_iter()
            .enumerate()
        {
            if round == 1 {
                ws.clear_solutions();
            }
            let warm = fw.solve_in(TeInstance::new(&net, demand, &obj), &mut ws).unwrap();
            prop_assert!(bits_eq(&warm.weights, &cold.weights));
            prop_assert!(bits_eq(warm.flows.aggregate(), cold.flows.aggregate()));
            prop_assert_eq!(warm.iterations, cold.iterations);
        }
    }
}
