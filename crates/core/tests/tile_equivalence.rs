//! Property tests: the destination-tiled routing paths are
//! **bit-identical** to the untiled ones for every tile size.
//!
//! The chunked routing pass ([`RoutingEngine::distribute_tiled`], and
//! [`RoutingEngine::build_dags`] called chunk by chunk) shrinks the DAG
//! and split-table arenas from O(dests·edges) to O(tile·edges), but the
//! determinism contract says results never move: each destination's
//! flows are folded into the global aggregate destination by destination
//! in ascending order — the exact operation sequence of the one-chunk
//! batch. These tests
//! pin that contract for random instances across adversarial tile sizes
//! (1, a non-divisor, the whole set, and past the end), at the engine
//! layer and through the full SPEF pipeline ([`TeWorkspace::set_tile_size`])
//! for both the Frank–Wolfe and Algorithm 1 solvers.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spef_core::{
    ConvergenceCriteria, DualDecompConfig, FibSet, ForwardingTable, FrankWolfeConfig, NemConfig,
    Objective, RoutingEngine, SpefConfig, SplitRule, TeInstance, TeSolver, TeSolverKind,
    TeWorkspace,
};
use spef_graph::NodeId;
use spef_topology::{gen, TrafficMatrix};

/// Strategy: a random duplex network, demands, and second weights.
fn random_instance() -> impl Strategy<Value = (spef_topology::Network, TrafficMatrix, Vec<f64>)> {
    (4usize..10, 0u64..5000, 2usize..6, 0u64..97).prop_map(|(n, seed, pairs, vseed)| {
        let links = 2 * (n - 1) + 2 * (n / 2);
        let net = gen::random_network("tileprop", n, links, seed);
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
        let v: Vec<f64> = (0..net.link_count())
            .map(|e| ((e as u64 * 13 + vseed) % 7) as f64 * 0.29)
            .collect();
        (net, tm, v)
    })
}

/// The tile sizes every instance is checked under: degenerate, a
/// non-divisor of most destination counts, exactly the whole set, and
/// past the end (one oversized chunk).
fn tile_sizes(dests: usize) -> [usize; 4] {
    [1, 3, dests, dests + 7]
}

/// Bitwise slice equality for flow vectors (plain `==` would equate
/// `-0.0` and `0.0` and hide a changed operation order).
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two forwarding tables agree cell for cell, bit for bit.
fn assert_tables_identical(
    a: &ForwardingTable,
    b: &ForwardingTable,
    n: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.destinations(), b.destinations());
    prop_assert_eq!(a.entry_count(), b.entry_count());
    for &dest in a.destinations() {
        for u in 0..n {
            let node = NodeId::new(u);
            let ra: Vec<(u32, u64)> = a
                .next_hops(node, dest)
                .unwrap_or(&[])
                .iter()
                .map(|&(e, p)| (e.index() as u32, p.to_bits()))
                .collect();
            let rb: Vec<(u32, u64)> = b
                .next_hops(node, dest)
                .unwrap_or(&[])
                .iter()
                .map(|&(e, p)| (e.index() as u32, p.to_bits()))
                .collect();
            prop_assert_eq!(ra, rb, "node {} dest {:?}", u, dest);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `distribute_tiled` (both column modes) and the tile-streamed FIB
    /// reproduce the untiled `build_dags` + `distribute_into` +
    /// `build_split_tables` results bit for bit, for every tile size.
    #[test]
    fn engine_tiled_paths_match_untiled((net, tm, v) in random_instance()) {
        let g = net.graph();
        let n = g.node_count();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let rule = SplitRule::Exponential(&v);

        // Untiled reference: dense DAG set, dense flows, dense FIB.
        let mut engine = RoutingEngine::new(g);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut dense = engine.distribute_fresh();
        engine.distribute_into(&tm, rule, &mut dense).unwrap();
        let tables = engine.build_split_tables(rule).unwrap();
        let dense_fib = ForwardingTable::from_split_table_set(n, &dests, tables);

        for tile in tile_sizes(dests.len()) {
            // Columns kept (the Frank–Wolfe mode).
            let mut out = engine.distribute_fresh();
            let mut streamed = FibSet::new();
            streamed.begin(n);
            engine
                .distribute_tiled(&w, &dests, 0.0, &tm, rule, tile, true, &mut out,
                    |_, chunk, _, tile_tables| {
                        for (i, &dest) in chunk.iter().enumerate() {
                            let table = tile_tables.table(i);
                            streamed.push_destination(dest, |u| table.next_hops(NodeId::new(u)));
                        }
                        Ok(())
                    })
                .unwrap();
            prop_assert_eq!(bits(out.aggregate()), bits(dense.aggregate()), "tile {}", tile);
            for &t in dests.iter() {
                prop_assert_eq!(
                    bits(out.for_destination(t).unwrap()),
                    bits(dense.for_destination(t).unwrap()),
                    "tile {} dest {:?}", tile, t
                );
            }
            assert_tables_identical(&ForwardingTable::from(streamed), &dense_fib, n)?;

            // Aggregate-only (the Algorithm 1 mode): same aggregate; a real
            // tiling materialises no columns (one chunk is the dense call,
            // whose columns are the incremental-distribution cache).
            let mut agg = engine.distribute_fresh();
            engine
                .distribute_tiled(&w, &dests, 0.0, &tm, rule, tile, false, &mut agg,
                    |_, _, _, _| Ok(()))
                .unwrap();
            prop_assert_eq!(bits(agg.aggregate()), bits(dense.aggregate()), "tile {}", tile);
            if tile < dests.len() {
                prop_assert!(agg.for_destination(dests[0]).is_none());
            }

            // Chunked builds (protocol step 2) visit every destination's
            // DAG in order.
            let mut visited = Vec::new();
            for chunk in dests.chunks(tile) {
                engine.build_dags(&w, chunk, 0.0).unwrap();
                prop_assert_eq!(engine.dag_set().destinations(), chunk);
                visited.extend_from_slice(chunk);
            }
            prop_assert_eq!(&visited, &dests);
        }

        // Tiled calls build into the same arenas, so a dense re-run after
        // them reproduces the dense flows bit for bit.
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut again = engine.distribute_fresh();
        engine.distribute_into(&tm, rule, &mut again).unwrap();
        prop_assert_eq!(bits(again.aggregate()), bits(dense.aggregate()));
    }

    /// The full SPEF pipeline under [`TeWorkspace::set_tile_size`] is a
    /// pure function of the instance — identical weights, flows, FIB and
    /// metrics for every tile size, for both TE solvers.
    #[test]
    fn solver_pipeline_tiled_matches_dense((net, tm, _v) in random_instance()) {
        let obj = Objective::proportional(net.link_count());
        let nem = NemConfig {
            convergence: ConvergenceCriteria::pinned(20),
            ..NemConfig::default()
        };
        let configs = [
            SpefConfig {
                solver: TeSolverKind::FrankWolfe(FrankWolfeConfig {
                    convergence: ConvergenceCriteria::pinned(8),
                    ..FrankWolfeConfig::default()
                }),
                nem: nem.clone(),
                ..SpefConfig::default()
            },
            SpefConfig {
                solver: TeSolverKind::DualDecomposition(DualDecompConfig {
                    convergence: ConvergenceCriteria::pinned(15),
                    record_trace: false,
                    ..DualDecompConfig::default()
                }),
                nem,
                ..SpefConfig::default()
            },
        ];
        for config in &configs {
            let mut dense_ws = TeWorkspace::new();
            let dense = config
                .solve_in(TeInstance::new(&net, &tm, &obj), &mut dense_ws)
                .unwrap();
            for tile in tile_sizes(tm.destinations().len()) {
                let mut ws = TeWorkspace::new();
                ws.set_tile_size(Some(tile));
                let tiled = config
                    .solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
                    .unwrap();
                prop_assert_eq!(
                    bits(tiled.first_weights()), bits(dense.first_weights()), "tile {}", tile
                );
                prop_assert_eq!(
                    bits(tiled.second_weights()), bits(dense.second_weights()), "tile {}", tile
                );
                prop_assert_eq!(
                    bits(tiled.flows().aggregate()), bits(dense.flows().aggregate()),
                    "tile {}", tile
                );
                prop_assert_eq!(
                    tiled.max_link_utilization(&net).to_bits(),
                    dense.max_link_utilization(&net).to_bits(),
                    "tile {}", tile
                );
                prop_assert_eq!(tiled.te_solution().iterations, dense.te_solution().iterations);
                prop_assert_eq!(tiled.nem_converged(), dense.nem_converged());
                assert_tables_identical(
                    tiled.forwarding_table(),
                    dense.forwarding_table(),
                    net.node_count(),
                )?;
            }
        }
    }
}

/// A tile switch mid-session keeps the saved iterates: trajectories are a
/// pure function of the instance for every tile size, so a warm FW + NEM
/// chain that changes its tile between solves equals the chain run on one
/// path bit for bit — first and second weights, flows and FIB.
#[test]
fn tile_switch_keeps_warm_starts() {
    let n = 9;
    let net = gen::random_network("tileswitch", n, 2 * (n - 1) + 2 * (n / 2), 17);
    let mut tm = TrafficMatrix::new(n);
    for s in 0..n {
        for t in 0..n {
            if s != t {
                tm.set(
                    NodeId::new(s),
                    NodeId::new(t),
                    0.1 + ((s * 7 + t) % 5) as f64 * 0.05,
                );
            }
        }
    }
    let tm = tm.scaled_to_network_load(&net, 0.03);
    let loads = [tm.clone(), tm.scaled(1.2), tm.scaled(1.4)];
    let obj = Objective::proportional(net.link_count());
    let config = SpefConfig::default();
    let chain = |tiles: [Option<usize>; 3]| {
        let mut ws = TeWorkspace::new();
        loads
            .iter()
            .zip(tiles)
            .map(|(demand, tile)| {
                ws.set_tile_size(tile);
                config
                    .solve_in(TeInstance::new(&net, demand, &obj), &mut ws)
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };

    let dense = chain([None; 3]);
    // The chain is warm: its second solve left the cold trajectory.
    let cold = config
        .solve(TeInstance::new(&net, &loads[1], &obj))
        .unwrap();
    assert_ne!(bits(dense[1].first_weights()), bits(cold.first_weights()));

    for tiles in [
        [Some(3), None, Some(3)],
        [None, Some(3), None],
        [Some(3); 3],
    ] {
        for (k, (mixed, reference)) in chain(tiles).iter().zip(&dense).enumerate() {
            assert_eq!(
                bits(mixed.first_weights()),
                bits(reference.first_weights()),
                "tiles {tiles:?} solve {k}"
            );
            assert_eq!(
                bits(mixed.second_weights()),
                bits(reference.second_weights()),
                "tiles {tiles:?} solve {k}"
            );
            assert_eq!(
                bits(mixed.flows().aggregate()),
                bits(reference.flows().aggregate()),
                "tiles {tiles:?} solve {k}"
            );
            assert_tables_identical(mixed.forwarding_table(), reference.forwarding_table(), n)
                .unwrap();
        }
    }
}
