//! Property tests: the CSR batched engine is **bit-identical** to the
//! legacy per-destination path.
//!
//! [`ShortestPathDag::build`] is kept as an independent reference
//! implementation (plain Dijkstra over `Vec<Vec<EdgeId>>` adjacency, fresh
//! allocations per call); [`build_dag_set`] is the arena-reusing CSR
//! engine. On random graphs and weights, every observable — distances,
//! DAG edge sets, successor order, processing order, path counts — must
//! agree exactly (`==` on floats, not approximately), and must not depend
//! on the parallel schedule.

use proptest::prelude::*;
use spef_graph::batch::{repair_dag_set, EdgeChange, RepairStats};
use spef_graph::{
    batch_distances_to, build_dag_set, distances_to, Csr, DagRef, DagSet, DistanceSet, EdgeId,
    Graph, NodeId, Parallelism, RoutingWorkspace, ShortestPathDag,
};

/// Strategy: a strongly connected digraph (Hamiltonian backbone plus
/// random chords, possibly parallel edges) with weights in [0, 10].
fn random_network() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (3usize..14).prop_flat_map(|n| {
        let extra = 0usize..(n * 3);
        (
            Just(n),
            extra.prop_flat_map(move |k| proptest::collection::vec((0..n, 0..n), k..=k)),
            proptest::collection::vec(0.0f64..10.0, n + n * 3),
        )
            .prop_map(|(n, chords, weights)| {
                let mut g = Graph::with_nodes(n);
                for i in 0..n {
                    g.add_edge(i.into(), ((i + 1) % n).into());
                }
                for (u, v) in chords {
                    if u != v {
                        g.add_edge(u.into(), v.into());
                    }
                }
                let w = weights[..g.edge_count()].to_vec();
                (g, w)
            })
    })
}

/// Strategy: a digraph shaped like [`random_network`]'s on up to 23
/// nodes, each edge weighted by `weight(coin, k, x)` from a draw of
/// `coin` in `0..3`, `k` in `0..=3` and `x` in `[0, 1)`.
fn tie_network(weight: fn(u32, u32, f64) -> f64) -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (3usize..24).prop_flat_map(move |n| {
        (
            Just(n),
            (0usize..(n * 3))
                .prop_flat_map(move |k| proptest::collection::vec((0..n, 0..n), k..=k)),
            proptest::collection::vec((0u32..3, 0u32..=3, 0.0f64..1.0), n + n * 3),
        )
            .prop_map(move |(n, chords, draws)| {
                let mut g = Graph::with_nodes(n);
                for i in 0..n {
                    g.add_edge(i.into(), ((i + 1) % n).into());
                }
                for (u, v) in chords {
                    if u != v {
                        g.add_edge(u.into(), v.into());
                    }
                }
                let w = draws[..g.edge_count()]
                    .iter()
                    .map(|&(coin, k, x)| weight(coin, k, x))
                    .collect();
                (g, w)
            })
    })
}

/// Integer weights in `0..=3`: zero-weight edges and large equal-distance
/// groups, so Dijkstra settles ties out of id order and the batched
/// build's order fix-up has work to do.
fn integer_weight(_: u32, k: u32, _: f64) -> f64 {
    f64::from(k)
}

/// A mix of huge (`k · 1e16`) and tiny (`< 1`) weights. Past the first
/// huge hop `d + w == d` for every tiny `w`, so whole subtrees collapse
/// onto one distance through additions absorbed by rounding.
fn huge_or_tiny_weight(coin: u32, k: u32, x: f64) -> f64 {
    if coin == 0 {
        f64::from(k + 1) * 1e16
    } else {
        x
    }
}

/// Every observable of `set` equals [`ShortestPathDag::build`] bit for bit.
fn check_against_legacy(g: &Graph, w: &[f64], set: &DagSet, tol: f64) {
    for (i, &t) in set.destinations().iter().enumerate() {
        let legacy = ShortestPathDag::build(g, w, t, tol).unwrap();
        let view = set.dag(i);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(view.distances()), bits(legacy.distances()));
        assert_eq!(
            view.nodes_by_decreasing_distance(),
            legacy.nodes_by_decreasing_distance()
        );
        for u in g.nodes() {
            assert_eq!(view.successors(u), legacy.successors(u));
            assert_eq!(view.path_count(u), legacy.path_count(u));
        }
        for e in g.edge_ids() {
            assert_eq!(view.contains_edge(e), legacy.contains_edge(e));
        }
    }
}

/// Every observable of two DAG views agrees bit for bit.
fn same_dag(g: &Graph, a: DagRef<'_>, b: DagRef<'_>) -> bool {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(a.distances()) == bits(b.distances())
        && a.nodes_by_decreasing_distance() == b.nodes_by_decreasing_distance()
        && g.nodes()
            .all(|u| a.successors(u) == b.successors(u) && a.path_count(u) == b.path_count(u))
        && g.edge_ids()
            .all(|e| a.contains_edge(e) == b.contains_edge(e))
}

/// One scripted edge change: `(edge selector, action, weight draw)`;
/// action 3 toggles the edge's mask, anything else sets its weight to
/// the network's weight function of the draw.
type Step = Vec<(usize, u32, (u32, u32, f64))>;

fn script() -> impl Strategy<Value = Vec<Step>> {
    let change = (0usize..1 << 20, 0u32..4, (0u32..3, 0u32..=3, 0.0f64..1.0));
    proptest::collection::vec(proptest::collection::vec(change, 1..5), 1..7)
}

/// Walks `script` with in-place repairs and checks every step against a
/// dense build over the same weights and mask (and against the legacy
/// DAG while nothing is masked). A slot the repair reports unchanged
/// must equal the previous step's dense build. Returns the summed
/// repair counters.
fn check_repairs(
    g: &Graph,
    w: &[f64],
    weight: fn(u32, u32, f64) -> f64,
    script: &[Step],
    tol: f64,
) -> RepairStats {
    let dests: Vec<NodeId> = g.nodes().collect();
    let m = g.edge_count();
    let mut csr = Csr::in_of(g);
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    build_dag_set(
        g,
        &csr,
        w,
        &dests,
        tol,
        Parallelism::Never,
        &mut ws,
        &mut set,
    )
    .unwrap();
    let mut prev = build_batched(g, w, &dests, tol, Parallelism::Never);
    let mut w = w.to_vec();
    let mut changed = vec![false; dests.len()];
    let mut total = RepairStats::default();
    for step in script {
        let mut changes: Vec<EdgeChange> = Vec::new();
        let mut w_new = w.clone();
        for &(sel, action, (coin, k, x)) in step {
            let e = EdgeId::new(sel % m);
            if changes.iter().any(|c| c.edge == e) {
                continue;
            }
            let was_enabled = csr.edge_enabled(e);
            if action == 3 {
                csr.set_links_enabled(&[e], !was_enabled);
            } else {
                w_new[e.index()] = weight(coin, k, x);
                if w_new[e.index()].to_bits() == w[e.index()].to_bits() {
                    continue;
                }
            }
            changes.push(EdgeChange {
                edge: e,
                old_weight: w[e.index()],
                was_enabled,
            });
        }
        let stats =
            repair_dag_set(g, &csr, &w_new, &changes, &mut ws, &mut set, &mut changed).unwrap();
        assert_eq!(stats.repaired + stats.fallbacks, stats.dirty);
        total.dirty += stats.dirty;
        total.repaired += stats.repaired;
        total.fallbacks += stats.fallbacks;
        total.resettled += stats.resettled;
        let mut dense = DagSet::new();
        build_dag_set(
            g,
            &csr,
            &w_new,
            &dests,
            tol,
            Parallelism::Never,
            &mut ws,
            &mut dense,
        )
        .unwrap();
        for (i, &slot_changed) in changed.iter().enumerate() {
            assert!(
                same_dag(g, set.dag(i), dense.dag(i)),
                "slot {i} after {changes:?}"
            );
            if !slot_changed {
                assert!(
                    same_dag(g, prev.dag(i), dense.dag(i)),
                    "slot {i} changed unreported"
                );
            }
        }
        if csr.masked_count() == 0 {
            check_against_legacy(g, &w_new, &set, tol);
        }
        w = w_new;
        prev = dense;
    }
    total
}

fn build_batched(g: &Graph, w: &[f64], dests: &[NodeId], tol: f64, par: Parallelism) -> DagSet {
    let csr = Csr::in_of(g);
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    build_dag_set(g, &csr, w, dests, tol, par, &mut ws, &mut set).unwrap();
    set
}

proptest! {
    /// Engine DAGs equal legacy DAGs on every observable, for exact and
    /// positive tolerances.
    #[test]
    fn dag_set_is_bit_identical_to_legacy(
        (g, w) in random_network(),
        tol in prop_oneof![Just(0.0f64), 0.0f64..2.0],
    ) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let set = build_batched(&g, &w, &dests, tol, Parallelism::Never);
        check_against_legacy(&g, &w, &set, tol);
    }

    /// Zero-weight edges and integer ties: dense builds and in-place slot
    /// rebuilds (over a warm arena holding another weight vector's
    /// spans) both match the legacy DAG.
    #[test]
    fn integer_ties_are_bit_identical_to_legacy(
        (g, w) in tie_network(integer_weight),
        tol in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..2.0],
    ) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let set = build_batched(&g, &w, &dests, tol, Parallelism::Never);
        check_against_legacy(&g, &w, &set, tol);

        // Every weight rewritten at once: most slots fall back to a
        // rebuild over the warm arena.
        let w2: Vec<f64> = w.iter().rev().copied().collect();
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut warm = DagSet::new();
        build_dag_set(&g, &csr, &w, &dests, tol, Parallelism::Never, &mut ws, &mut warm)
            .unwrap();
        let changes: Vec<EdgeChange> = g
            .edge_ids()
            .map(|edge| EdgeChange { edge, old_weight: w[edge.index()], was_enabled: true })
            .collect();
        let mut changed = vec![false; dests.len()];
        repair_dag_set(&g, &csr, &w2, &changes, &mut ws, &mut warm, &mut changed).unwrap();
        check_against_legacy(&g, &w2, &warm, tol);
    }

    /// In-place repairs over scripts of weight changes (zero weights and
    /// integer ties included) and mask toggles match dense builds on
    /// every observable, step after step on the same arena.
    #[test]
    fn repairs_with_integer_ties_match_dense_builds(
        (g, w) in tie_network(integer_weight),
        script in script(),
        tol in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..2.0],
    ) {
        let stats = check_repairs(&g, &w, integer_weight, &script, tol);
        prop_assert!(stats.repaired + stats.fallbacks == stats.dirty);
    }

    /// The same with huge-plus-tiny weights, where additions are absorbed
    /// by rounding and distances collapse onto each other.
    #[test]
    fn repairs_with_absorbed_additions_match_dense_builds(
        (g, w) in tie_network(huge_or_tiny_weight),
        script in script(),
        tol in prop_oneof![Just(0.0f64), 0.0f64..2.0],
    ) {
        let stats = check_repairs(&g, &w, huge_or_tiny_weight, &script, tol);
        prop_assert!(stats.repaired + stats.fallbacks == stats.dirty);
    }

    /// Huge-plus-tiny weights, where `d + w == d`: absorbed additions
    /// make equal-distance groups that Dijkstra settles out of id order.
    #[test]
    fn absorbed_additions_are_bit_identical_to_legacy(
        (g, w) in tie_network(huge_or_tiny_weight),
        tol in prop_oneof![Just(0.0f64), 0.0f64..2.0],
    ) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let set = build_batched(&g, &w, &dests, tol, Parallelism::Never);
        check_against_legacy(&g, &w, &set, tol);
    }

    /// The materialised owned DAGs (what `spef_core::build_dags` returns)
    /// also match, including predecessor lists.
    #[test]
    fn materialised_dags_match_legacy((g, w) in random_network()) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let set = build_batched(&g, &w, &dests, 0.0, Parallelism::Auto);
        for (i, &t) in dests.iter().enumerate() {
            let owned = set.to_shortest_path_dag(i, &g);
            let legacy = ShortestPathDag::build(&g, &w, t, 0.0).unwrap();
            prop_assert_eq!(owned.distances(), legacy.distances());
            for u in g.nodes() {
                prop_assert_eq!(owned.successors(u), legacy.successors(u));
                prop_assert_eq!(owned.predecessors(u), legacy.predecessors(u));
            }
        }
    }

    /// Results are independent of the parallel schedule: forcing the
    /// threaded fan-out produces the very same arena contents as the
    /// sequential build.
    #[test]
    fn schedule_independence((g, w) in random_network(), tol in 0.0f64..1.0) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let serial = build_batched(&g, &w, &dests, tol, Parallelism::Never);
        let parallel = build_batched(&g, &w, &dests, tol, Parallelism::Always);
        for i in 0..dests.len() {
            let (a, b) = (serial.dag(i), parallel.dag(i));
            prop_assert_eq!(a.distances(), b.distances());
            prop_assert_eq!(
                a.nodes_by_decreasing_distance(),
                b.nodes_by_decreasing_distance()
            );
            for u in g.nodes() {
                prop_assert_eq!(a.successors(u), b.successors(u));
                prop_assert_eq!(a.path_count(u), b.path_count(u));
            }
        }
    }

    /// Batched distances equal per-call `distances_to` exactly.
    #[test]
    fn batched_distances_are_bit_identical((g, w) in random_network()) {
        let targets: Vec<NodeId> = g.nodes().collect();
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DistanceSet::new();
        batch_distances_to(&g, &csr, &w, &targets, Parallelism::Auto, &mut ws, &mut set)
            .unwrap();
        for (i, &t) in targets.iter().enumerate() {
            prop_assert_eq!(set.row(i), distances_to(&g, &w, t).unwrap().as_slice());
        }
    }

    /// Arena reuse leaves no residue: rebuilding with different weights in
    /// the same workspace/set equals a fresh build.
    #[test]
    fn workspace_reuse_has_no_residue(
        (g, w) in random_network(),
        scale in 0.1f64..3.0,
    ) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let w2: Vec<f64> = w.iter().map(|x| x * scale).collect();
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        // Warm the arenas with the first weights, then rebuild with the
        // second and compare to an entirely fresh engine.
        build_dag_set(&g, &csr, &w, &dests, 0.0, Parallelism::Never, &mut ws, &mut set)
            .unwrap();
        build_dag_set(&g, &csr, &w2, &dests, 0.0, Parallelism::Never, &mut ws, &mut set)
            .unwrap();
        let fresh = build_batched(&g, &w2, &dests, 0.0, Parallelism::Never);
        for i in 0..dests.len() {
            let (a, b) = (set.dag(i), fresh.dag(i));
            prop_assert_eq!(a.distances(), b.distances());
            for u in g.nodes() {
                prop_assert_eq!(a.successors(u), b.successors(u));
            }
        }
    }
}

/// The threaded code path really runs multi-threaded when worker threads
/// are available: force a thread count through the shim's env knob in a
/// dedicated process-wide test and re-check equivalence. (On single-core
/// CI this is the only way the scoped-thread fan-out executes.)
#[test]
fn parallel_fanout_with_forced_threads_matches_serial() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let mut g = Graph::with_nodes(40);
    for i in 0..40usize {
        g.add_edge(i.into(), ((i + 1) % 40).into());
        g.add_edge(i.into(), ((i + 7) % 40).into());
        g.add_edge(((i + 3) % 40).into(), i.into());
    }
    let w: Vec<f64> = (0..g.edge_count())
        .map(|e| 0.5 + ((e * 37) % 11) as f64)
        .collect();
    let dests: Vec<NodeId> = g.nodes().collect();
    let serial = build_batched(&g, &w, &dests, 0.25, Parallelism::Never);
    let parallel = build_batched(&g, &w, &dests, 0.25, Parallelism::Always);
    for i in 0..dests.len() {
        let (a, b) = (serial.dag(i), parallel.dag(i));
        assert_eq!(a.distances(), b.distances());
        assert_eq!(
            a.nodes_by_decreasing_distance(),
            b.nodes_by_decreasing_distance()
        );
        for u in g.nodes() {
            assert_eq!(a.successors(u), b.successors(u));
            assert_eq!(a.path_count(u), b.path_count(u));
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
