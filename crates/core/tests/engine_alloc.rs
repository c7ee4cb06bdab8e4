//! Steady-state allocation contract of the incremental routing path: once
//! an engine is warmed on a weight-search loop, a single-weight
//! `build_dags` + `distribute_into` probe allocates nothing — including
//! the probes whose in-place split-table rebuilds push the arena over its
//! garbage threshold and compact it — and so does a round of a weight
//! probe plus a `fail_links`/`restore_links` circuit failure, whose local
//! SPF repairs reuse the workspace's heap and flag scratch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spef_core::{RoutingEngine, SplitRule};
use spef_graph::Parallelism;
use spef_topology::{standard, TrafficMatrix};

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread: the tests in this binary run on
    /// parallel threads, and each counts only its own (the engines run
    /// with `Parallelism::Never`, so all their work stays on it).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: never touch a thread-local that is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warmed_single_weight_probes_allocate_nothing() {
    let net = standard::abilene();
    let g = net.graph();
    let m = g.edge_count();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.1);
    let dests = tm.destinations();
    let mut w: Vec<f64> = (0..m).map(|e| 1.0 + (e % 5) as f64).collect();
    let v: Vec<f64> = (0..m).map(|e| 0.1 * (e % 7) as f64).collect();
    let rule = SplitRule::Exponential(&v);

    let mut engine = RoutingEngine::with_parallelism(g, Parallelism::Never);
    engine.build_dags(&w, &dests, 0.0).unwrap();
    let mut flows = engine.distribute_fresh();
    engine.distribute_into(&tm, rule, &mut flows).unwrap();

    // One pass of the search shape: raise each weight, probe, restore it,
    // probe again. Every probe rebuilds the dirty destinations' split
    // tables in place, so garbage accumulates and the arena compacts.
    let mut pass = |w: &mut Vec<f64>| {
        for e in 0..m {
            let old = w[e];
            w[e] = old + 3.0;
            engine.build_dags(w, &dests, 0.0).unwrap();
            engine.distribute_into(&tm, rule, &mut flows).unwrap();
            w[e] = old;
            engine.build_dags(w, &dests, 0.0).unwrap();
            engine.distribute_into(&tm, rule, &mut flows).unwrap();
        }
    };
    // Two warm passes reach every arena's high-water mark.
    pass(&mut w);
    pass(&mut w);
    let before = allocations();
    pass(&mut w);
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "warmed probes allocated {allocated} times");
    assert!(
        engine.spf_stats().incremental_builds > 0,
        "the probes took the incremental path"
    );
}

#[test]
fn warmed_weight_and_failure_rounds_allocate_nothing() {
    let net = standard::abilene();
    let g = net.graph();
    let m = g.edge_count();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.1);
    let dests = tm.destinations();
    let mut w: Vec<f64> = (0..m).map(|e| 1.0 + (e % 5) as f64).collect();
    // Circuits whose failure keeps the network connected.
    let circuits: Vec<Vec<spef_graph::EdgeId>> = net
        .duplex_circuits()
        .into_iter()
        .filter(|c| net.without_links(c).is_ok())
        .collect();
    assert!(!circuits.is_empty());

    let mut engine = RoutingEngine::with_parallelism(g, Parallelism::Never);
    engine.build_dags(&w, &dests, 0.0).unwrap();
    let mut flows = engine.distribute_fresh();
    engine
        .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
        .unwrap();

    // One round per link: a single-weight change routed, then a circuit
    // failed, routed and restored (the failure-probe shape), then the
    // weight put back.
    let mut pass = |w: &mut Vec<f64>| {
        for e in 0..m {
            let old = w[e];
            w[e] = old + 3.0;
            engine.build_dags(w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            let circuit = &circuits[e % circuits.len()];
            engine.fail_links(circuit).unwrap();
            engine.build_dags(w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            engine.restore_links(circuit).unwrap();
            w[e] = old;
        }
    };
    pass(&mut w);
    pass(&mut w);
    let before = allocations();
    pass(&mut w);
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "warmed rounds allocated {allocated} times");
    let stats = engine.spf_stats();
    assert!(
        stats.slots_repaired > 0,
        "the rounds took the repair: {stats:?}"
    );
    assert!(
        stats.topology_builds > 0,
        "the failures patched in place: {stats:?}"
    );
}
