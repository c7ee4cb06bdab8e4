//! Batched all-destinations routing: CSR Dijkstra, DAG-set construction
//! and reusable scratch arenas.
//!
//! Every solver in the SPEF workspace sits in a loop that rebuilds the
//! per-destination shortest-path DAGs `ON_t` on each iteration. The legacy
//! path ([`ShortestPathDag::build`]) allocates a fresh distance vector,
//! heap, and two `Vec<Vec<EdgeId>>` adjacency structures per destination
//! per iteration — an allocation storm that dominates the runtime of small
//! and medium instances. This module provides the batched alternative:
//!
//! * [`Csr`] adjacency is built once per graph and traversed flat;
//! * [`RoutingWorkspace`] owns every piece of per-destination scratch
//!   (heap storage, settled flags, counting buffers) and is reused across
//!   calls, so the sequential steady state performs **zero allocations**
//!   (when the parallel fan-out engages, the only per-call allocations
//!   left are the `O(dests)` task list and the shim's work cells — never
//!   the `O(dests · (nodes + edges))` arena data);
//! * [`DagSet`] holds the DAGs of *all* destinations in contiguous
//!   per-destination arena blocks (`dist`, span-addressed successor
//!   lists, processing orders, path counts) instead of per-destination
//!   heap objects;
//! * each destination's DAG comes out of **one** Dijkstra pass: a node's
//!   out-edges are classified, its successors written and its path count
//!   summed at the moment it settles, and the processing order is the
//!   reversed settle order after a linear tie fix-up — no separate
//!   classification, CSR-fill, sort or path-count passes;
//! * destinations fan out across worker threads (through the `rayon`
//!   shim) when the batch is large enough to amortise thread spawn-up —
//!   each destination writes only its own arena slices, so results are
//!   **bit-identical** to the sequential path regardless of schedule.
//!
//! Weight validation (`O(|J|)`) runs once per batch, not once per
//! destination; the per-destination Dijkstra runs unchecked.
//!
//! The legacy single-destination entry points remain available (and are
//! kept as an independent reference implementation — the property tests in
//! `tests/batch_equivalence.rs` assert bit-identical agreement between the
//! two paths).

use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::csr::Csr;
use crate::dijkstra::HeapEntry;
use crate::error::validate_weights;
use crate::{EdgeId, Graph, GraphError, NodeId, ShortestPathDag};

/// When to fan destinations out across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Parallelise when the batch is large enough to amortise thread
    /// startup (the default).
    #[default]
    Auto,
    /// Always run sequentially.
    Never,
    /// Parallelise whenever there is more than one destination (used by
    /// the schedule-independence tests).
    Always,
}

/// Estimated per-destination work below which threading costs more than it
/// saves (tuned for the std::thread-scope rayon shim, which has no
/// persistent pool).
const PAR_WORK_THRESHOLD: usize = 1 << 14;

impl Parallelism {
    fn decide(self, dests: usize, work_per_dest: usize) -> bool {
        match self {
            Parallelism::Never => false,
            Parallelism::Always => dests > 1,
            Parallelism::Auto => {
                dests > 1
                    && dests.saturating_mul(work_per_dest) >= PAR_WORK_THRESHOLD
                    && rayon::current_num_threads() > 1
            }
        }
    }
}

/// Per-destination-slot scratch: everything one Dijkstra + DAG build needs
/// beyond its output slices.
#[derive(Debug, Default)]
struct SlotScratch {
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl SlotScratch {
    fn ensure(&mut self, n: usize) {
        self.settled.resize(n, false);
    }
}

/// Reusable scratch arena for batched routing computations.
///
/// One slot per destination; slots persist across calls so the steady
/// state of a solver loop (`build_dag_set` every iteration) performs no
/// heap allocation. A workspace is tied to no particular graph — it grows
/// to fit whatever it is handed.
#[derive(Debug, Default)]
pub struct RoutingWorkspace {
    slots: Vec<SlotScratch>,
    repair: RepairScratch,
}

impl RoutingWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> RoutingWorkspace {
        RoutingWorkspace::default()
    }

    fn ensure(&mut self, dests: usize, n: usize) {
        if self.slots.len() < dests {
            self.slots.resize_with(dests, SlotScratch::default);
        }
        for slot in &mut self.slots[..dests] {
            slot.ensure(n);
        }
    }

    /// Bytes of scratch capacity across all slots — one slot per
    /// destination of the largest batch (or tile) this workspace served.
    pub fn arena_bytes(&self) -> usize {
        self.repair.arena_bytes()
            + self
                .slots
                .iter()
                .map(|s| {
                    s.settled.capacity() + s.heap.capacity() * std::mem::size_of::<HeapEntry>()
                })
                .sum::<usize>()
    }
}

/// Shortest-path DAGs for a whole destination set, stored as flat arenas.
///
/// The batched analogue of `Vec<ShortestPathDag>`: per-destination data
/// lives in contiguous blocks of shared vectors rather than per-DAG heap
/// objects, and the buffers are reused across [`build_dag_set`] calls.
/// Access per-destination views through [`DagSet::dag`].
#[derive(Debug, Clone, Default)]
pub struct DagSet {
    n: usize,
    /// Successor-arena block stride: `max(edge_count, 1)` so zero-edge
    /// graphs still chunk cleanly.
    m_block: usize,
    tol: f64,
    dests: Vec<NodeId>,
    /// `dist[i * n + u]`: distance from `u` to destination `i`.
    dist: Vec<f64>,
    /// `succ_span[i * n + u]`: `(start, len)` of `u`'s successors inside
    /// the destination's successor block — spans rather than prefix
    /// offsets because rows are written in Dijkstra settle order, not
    /// node-id order.
    succ_span: Vec<(u32, u32)>,
    /// Successor edge ids, `m_block` slots per destination.
    succ: Vec<EdgeId>,
    /// End of the written part of each destination's successor block
    /// (repairs append rows that outgrow their old span there).
    succ_fill: Vec<u32>,
    /// DAG membership per edge, `m_block` slots per destination.
    on_dag: Vec<bool>,
    /// Reachable nodes by decreasing distance, `n` slots per destination
    /// (only the first `order_len[i]` are meaningful).
    order: Vec<NodeId>,
    order_len: Vec<usize>,
    /// Saturating shortest-path counts, `n` slots per destination.
    path_counts: Vec<u64>,
}

impl DagSet {
    /// Creates an empty set; arenas grow on first use.
    pub fn new() -> DagSet {
        DagSet::default()
    }

    /// Number of destinations covered.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// Returns `true` if the set covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// The destinations, in build order.
    pub fn destinations(&self) -> &[NodeId] {
        &self.dests
    }

    /// The equal-cost tolerance the set was built with.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// A cheap view of destination `i`'s DAG.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn dag(&self, i: usize) -> DagRef<'_> {
        assert!(i < self.dests.len(), "destination index {i} out of range");
        let n = self.n;
        DagRef {
            target: self.dests[i],
            tol: self.tol,
            dist: &self.dist[i * n..(i + 1) * n],
            succ_span: &self.succ_span[i * n..(i + 1) * n],
            succ: &self.succ[i * self.m_block..(i + 1) * self.m_block],
            on_dag: &self.on_dag[i * self.m_block..(i + 1) * self.m_block],
            order: &self.order[i * n..i * n + self.order_len[i]],
            path_counts: &self.path_counts[i * n..(i + 1) * n],
        }
    }

    /// Iterates over all per-destination DAG views in build order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DagRef<'_>> + '_ {
        (0..self.len()).map(|i| self.dag(i))
    }

    /// Materialises destination `i` as an owned [`ShortestPathDag`]
    /// (allocating), for callers that store DAGs beyond the engine's
    /// lifetime. Predecessor lists are reconstructed from `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `graph` does not match the graph the
    /// set was built from.
    pub fn to_shortest_path_dag(&self, i: usize, graph: &Graph) -> ShortestPathDag {
        let view = self.dag(i);
        let n = self.n;
        let mut succ = Vec::with_capacity(n);
        let mut pred = vec![Vec::new(); n];
        for u in 0..n {
            let s = view.successors(NodeId::new(u));
            succ.push(s.to_vec());
            for &e in s {
                pred[graph.target(e).index()].push(e);
            }
        }
        // Predecessor lists must come out in edge-id order (the legacy
        // path pushes while scanning edges by id).
        for p in &mut pred {
            p.sort_unstable();
        }
        ShortestPathDag::from_parts(
            view.target,
            self.tol,
            view.dist.to_vec(),
            succ,
            pred,
            view.on_dag[..graph.edge_count()].to_vec(),
            view.order.to_vec(),
            view.path_counts.to_vec(),
        )
    }

    /// Bytes of arena capacity this set holds. `Vec` capacity never
    /// shrinks, so after a solve this is the high-water mark of the build —
    /// the number the scaling ablation reports as DAG-arena footprint.
    pub fn arena_bytes(&self) -> usize {
        self.dists_arena_bytes()
            + self.succ.capacity() * std::mem::size_of::<EdgeId>()
            + self.on_dag.capacity()
            + self.order.capacity() * std::mem::size_of::<NodeId>()
            + self.path_counts.capacity() * std::mem::size_of::<u64>()
    }

    fn dists_arena_bytes(&self) -> usize {
        self.dests.capacity() * std::mem::size_of::<NodeId>()
            + self.dist.capacity() * std::mem::size_of::<f64>()
            + self.succ_span.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.succ_fill.capacity() * std::mem::size_of::<u32>()
            + self.order_len.capacity() * std::mem::size_of::<usize>()
    }

    fn prepare(&mut self, dests: &[NodeId], n: usize, m: usize, tol: f64) {
        let d = dests.len();
        let m_block = m.max(1);
        assert!(
            u32::try_from(m_block).is_ok(),
            "successor spans address at most u32::MAX edges"
        );
        self.n = n;
        self.m_block = m_block;
        self.tol = tol;
        self.dests.clear();
        self.dests.extend_from_slice(dests);
        self.dist.resize(d * n, 0.0);
        self.succ_span.resize(d * n, (0, 0));
        self.succ.resize(d * m_block, EdgeId::new(0));
        self.succ_fill.resize(d, 0);
        self.on_dag.resize(d * m_block, false);
        self.order.resize(d * n, NodeId::new(0));
        self.order_len.resize(d, 0);
        self.path_counts.resize(d * n, 0);
    }
}

/// A borrowed view of one destination's DAG inside a [`DagSet`].
///
/// Mirrors the accessor surface of [`ShortestPathDag`]; both implement
/// [`DagAccess`] so downstream algorithms are generic over the storage.
#[derive(Debug, Clone, Copy)]
pub struct DagRef<'a> {
    target: NodeId,
    tol: f64,
    dist: &'a [f64],
    succ_span: &'a [(u32, u32)],
    succ: &'a [EdgeId],
    on_dag: &'a [bool],
    order: &'a [NodeId],
    path_counts: &'a [u64],
}

impl<'a> DagRef<'a> {
    /// The destination this DAG routes toward.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The equal-cost tolerance the DAG was built with.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Shortest distance from `u` to the target (`f64::INFINITY` if
    /// unreachable).
    pub fn distance(&self, u: NodeId) -> f64 {
        self.dist[u.index()]
    }

    /// All per-node distances, indexed by node id.
    pub fn distances(&self) -> &'a [f64] {
        self.dist
    }

    /// DAG edges leaving `u`, in edge-id order.
    pub fn successors(&self, u: NodeId) -> &'a [EdgeId] {
        let (start, len) = self.succ_span[u.index()];
        &self.succ[start as usize..(start + len) as usize]
    }

    /// Returns `true` if edge `e` lies on some shortest path to the target.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.on_dag[e.index()]
    }

    /// Returns `true` if the target is reachable from `u`.
    pub fn reaches_target(&self, u: NodeId) -> bool {
        self.dist[u.index()].is_finite()
    }

    /// Reachable nodes in decreasing-distance order (target last).
    pub fn nodes_by_decreasing_distance(&self) -> &'a [NodeId] {
        self.order
    }

    /// Number of equal-cost shortest paths from `u`, saturating.
    pub fn path_count(&self, u: NodeId) -> u64 {
        self.path_counts[u.index()]
    }
}

/// Storage-agnostic read access to a per-destination shortest-path DAG.
///
/// Implemented by the legacy owned [`ShortestPathDag`], the arena-backed
/// [`DagRef`], and references to either, so traffic-distribution code can
/// run over both without conversion.
pub trait DagAccess {
    /// The destination this DAG routes toward.
    fn dag_target(&self) -> NodeId;
    /// All per-node distances to the target.
    fn dag_distances(&self) -> &[f64];
    /// DAG edges leaving `u`, in edge-id order.
    fn dag_successors(&self, u: NodeId) -> &[EdgeId];
    /// Reachable nodes in decreasing-distance order (target last).
    fn dag_order_desc(&self) -> &[NodeId];

    /// Distance from `u` to the target.
    fn dag_distance(&self, u: NodeId) -> f64 {
        self.dag_distances()[u.index()]
    }

    /// Whether the target is reachable from `u`.
    fn dag_reaches_target(&self, u: NodeId) -> bool {
        self.dag_distance(u).is_finite()
    }
}

impl DagAccess for ShortestPathDag {
    fn dag_target(&self) -> NodeId {
        self.target()
    }
    fn dag_distances(&self) -> &[f64] {
        self.distances()
    }
    fn dag_successors(&self, u: NodeId) -> &[EdgeId] {
        self.successors(u)
    }
    fn dag_order_desc(&self) -> &[NodeId] {
        self.nodes_by_decreasing_distance()
    }
}

impl DagAccess for DagRef<'_> {
    fn dag_target(&self) -> NodeId {
        self.target()
    }
    fn dag_distances(&self) -> &[f64] {
        self.distances()
    }
    fn dag_successors(&self, u: NodeId) -> &[EdgeId] {
        self.successors(u)
    }
    fn dag_order_desc(&self) -> &[NodeId] {
        self.nodes_by_decreasing_distance()
    }
}

impl<T: DagAccess + ?Sized> DagAccess for &T {
    fn dag_target(&self) -> NodeId {
        (**self).dag_target()
    }
    fn dag_distances(&self) -> &[f64] {
        (**self).dag_distances()
    }
    fn dag_successors(&self, u: NodeId) -> &[EdgeId] {
        (**self).dag_successors(u)
    }
    fn dag_order_desc(&self) -> &[NodeId] {
        (**self).dag_order_desc()
    }
}

/// One destination's mutable arena slices plus its scratch slot — the unit
/// of work handed to each (possibly parallel) DAG build.
struct DagTask<'a> {
    target: NodeId,
    scratch: &'a mut SlotScratch,
    dist: &'a mut [f64],
    succ_span: &'a mut [(u32, u32)],
    succ: &'a mut [EdgeId],
    succ_fill: &'a mut u32,
    on_dag: &'a mut [bool],
    order: &'a mut [NodeId],
    order_len: &'a mut usize,
    path_counts: &'a mut [u64],
}

impl DagSet {
    /// One [`DagTask`] per destination slot, in slot order, pairing each
    /// slot's arena slices with its scratch slot.
    fn tasks<'a>(&'a mut self, slots: &'a mut [SlotScratch]) -> impl Iterator<Item = DagTask<'a>> {
        // `max(1)`: a node-less graph has empty arenas, and `chunks_mut`
        // rejects a zero chunk size.
        let n = self.n.max(1);
        let m_block = self.m_block;
        slots
            .iter_mut()
            .zip(self.dist.chunks_mut(n))
            .zip(self.succ_span.chunks_mut(n))
            .zip(self.succ.chunks_mut(m_block))
            .zip(self.succ_fill.iter_mut())
            .zip(self.on_dag.chunks_mut(m_block))
            .zip(self.order.chunks_mut(n))
            .zip(self.order_len.iter_mut())
            .zip(self.path_counts.chunks_mut(n))
            .zip(self.dests.iter())
            .map(
                |(
                    (
                        (
                            ((((((scratch, dist), succ_span), succ), succ_fill), on_dag), order),
                            order_len,
                        ),
                        pc,
                    ),
                    &target,
                )| DagTask {
                    target,
                    scratch,
                    dist,
                    succ_span,
                    succ,
                    succ_fill,
                    on_dag,
                    order,
                    order_len,
                    path_counts: pc,
                },
            )
    }
}

/// Builds the shortest-path DAGs of every destination in `dests` into
/// `out`, reusing `ws` scratch and `in_csr` adjacency.
///
/// Semantically equivalent to calling [`ShortestPathDag::build`] per
/// destination — the results are bit-identical, including tie-breaking —
/// but weights are validated once, nothing is allocated in the steady
/// state, and large batches fan out across worker threads.
///
/// `in_csr` must be [`Csr::in_of`] of `graph`.
///
/// # Errors
///
/// Same conditions as [`ShortestPathDag::build`]: invalid weights or
/// tolerance, or a destination out of range.
#[allow(clippy::too_many_arguments)]
pub fn build_dag_set(
    graph: &Graph,
    in_csr: &Csr,
    weights: &[f64],
    dests: &[NodeId],
    tol: f64,
    par: Parallelism,
    ws: &mut RoutingWorkspace,
    out: &mut DagSet,
) -> Result<(), GraphError> {
    validate_dag_inputs(graph, weights, dests, tol)?;
    let n = graph.node_count();
    let m = graph.edge_count();
    out.prepare(dests, n, m, tol);
    ws.ensure(dests.len(), n);
    let tasks = out.tasks(&mut ws.slots[..dests.len()]);
    if par.decide(dests.len(), n + m) {
        tasks
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|task| build_one_dag(graph, in_csr, weights, tol, task));
    } else {
        for task in tasks {
            build_one_dag(graph, in_csr, weights, tol, task);
        }
    }
    Ok(())
}

/// The input validation of [`build_dag_set`], exposed so the incremental
/// rebuild path in higher layers can reject bad inputs with **identical**
/// errors (and in the identical order) to a dense build before deciding
/// which destinations to rebuild.
///
/// # Errors
///
/// Same conditions as [`ShortestPathDag::build`]: invalid weights or
/// tolerance, or a destination out of range.
pub fn validate_dag_inputs(
    graph: &Graph,
    weights: &[f64],
    dests: &[NodeId],
    tol: f64,
) -> Result<(), GraphError> {
    if !tol.is_finite() || tol < 0.0 {
        return Err(GraphError::InvalidWeight {
            edge: EdgeId::new(usize::MAX),
            weight: tol,
        });
    }
    validate_weights(graph.edge_count(), weights)?;
    let n = graph.node_count();
    for &t in dests {
        if t.index() >= n {
            return Err(GraphError::NodeOutOfRange { node: t, nodes: n });
        }
    }
    Ok(())
}

/// One changed edge handed to [`repair_dag_set`]: a weight change, a mask
/// toggle, or both. The new weight is read from the weight vector and the
/// new mask state from the CSR; the change records what the cached DAG
/// set was built with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeChange {
    /// The changed edge.
    pub edge: EdgeId,
    /// Its weight in the cached build.
    pub old_weight: f64,
    /// Whether it was enabled (unmasked) in the cached build.
    pub was_enabled: bool,
}

/// Work counters of one [`repair_dag_set`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Slots some change could touch (repaired plus rebuilt).
    pub dirty: u64,
    /// Dirty slots patched in place.
    pub repaired: u64,
    /// Dirty slots whose affected set covered more than half their
    /// reachable nodes, rebuilt from scratch instead.
    pub fallbacks: u64,
    /// Nodes settled by the repairs' Dijkstra passes.
    pub resettled: u64,
}

// Per-node state bits of a slot repair (`RepairScratch::flags`).
/// Popped from the affected-set walk.
const DECIDED: u8 = 1;
/// Lost its support: distance reset and recomputed.
const AFFECTED: u8 = 1 << 1;
/// Label changed during the repair; the old one is in `relabeled`.
const RELABELED: u8 = 1 << 2;
/// Settled by the repair's Dijkstra pass.
const SETTLED: u8 = 1 << 3;
/// Queued for successor reclassification.
const RECLASS: u8 = 1 << 4;
/// Path count recomputed.
const COUNTED: u8 = 1 << 5;
/// Final distance differs from the cached one.
const MOVED: u8 = 1 << 6;

/// Scratch of [`repair_dag_set`], shared by the slots it repairs one after
/// another. Every flag is back to zero between slot repairs, so each repair
/// costs what it touches, not `O(nodes + edges)`.
#[derive(Debug, Default)]
struct RepairScratch {
    /// `edge_changed[e]`: edge `e` is in the call's change list.
    edge_changed: Vec<bool>,
    /// Per-node state bits (the constants above).
    flags: Vec<u8>,
    /// Nodes with non-zero flags, for the cleanup.
    touched: Vec<NodeId>,
    /// `(node, label before the repair)` of every relabeled node, the
    /// affected ones first.
    relabeled: Vec<(NodeId, f64)>,
    /// Nodes whose final distance moved.
    moved: Vec<NodeId>,
    reclass: Vec<NodeId>,
    /// One node's freshly classified successor row.
    row: Vec<EdgeId>,
    heap: BinaryHeap<HeapEntry>,
}

impl RepairScratch {
    fn mark(&mut self, u: NodeId, bit: u8) {
        let f = &mut self.flags[u.index()];
        if *f == 0 {
            self.touched.push(u);
        }
        *f |= bit;
    }

    fn has(&self, u: NodeId, bit: u8) -> bool {
        self.flags[u.index()] & bit != 0
    }

    /// Records `u`'s label before its first change in this repair.
    fn relabel(&mut self, u: NodeId, old: f64) {
        if !self.has(u, RELABELED) {
            self.mark(u, RELABELED);
            self.relabeled.push((u, old));
        }
    }

    fn clear_slot(&mut self) {
        for &u in &self.touched {
            self.flags[u.index()] = 0;
        }
        self.touched.clear();
        self.relabeled.clear();
        self.moved.clear();
        self.reclass.clear();
        self.heap.clear();
    }

    fn arena_bytes(&self) -> usize {
        self.edge_changed.capacity()
            + self.flags.capacity()
            + (self.touched.capacity() + self.moved.capacity() + self.reclass.capacity())
                * std::mem::size_of::<NodeId>()
            + self.relabeled.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + self.row.capacity() * std::mem::size_of::<EdgeId>()
            + self.heap.capacity() * std::mem::size_of::<HeapEntry>()
    }
}

/// Brings every slot of `out` up to date with `weights` and the current
/// mask of `in_csr` after the edge changes in `changes`, patching each DAG
/// in place — the delta step of the incremental SPF path.
///
/// `out` must hold a DAG set built by [`build_dag_set`] (and possibly
/// earlier repairs) over the same graph, under the old weights and mask
/// that `changes` records; edges not listed must be unchanged. A slot is
/// dirty when some change passes the classifier's slack test against its
/// cached distances in the old or the new state (`w + d[v] − d[u] ≤ tol`
/// for an edge `(u, v)` enabled in that state with `v` reachable);
/// otherwise no relaxation or classification it enters can win, and the
/// slot is left untouched.
///
/// A dirty slot is repaired Ramalingam–Reps style:
///
/// 1. **Affected set.** Walking nodes in increasing old distance from the
///    tails of tight changed edges that got heavier or masked, a node is
///    affected when no out-edge is unchanged, enabled, tight (`d[z] + w ==
///    d[u]`) and leads to a *strictly* closer unaffected node; an affected
///    node's tight in-neighbours are checked in turn. Requiring a strictly
///    closer node over-approximates (zero-weight ties count as
///    unsupported) but never misses a node whose distance may grow.
/// 2. **Distances.** Affected nodes reset to `+∞`; one Dijkstra pass is
///    seeded with each affected node's best boundary value and with the
///    tails of cheaper or restored edges, relaxing with the dense pass's
///    `d + w` and `<`. Every label is a float path sum and the result is
///    the minimum over all paths, so it equals the dense distances bit for
///    bit whatever the settle order.
/// 3. **Successors.** Nodes whose distance moved, their in-neighbours and
///    the tails of changed edges are reclassified with the dense test, in
///    edge-id order. A row that fits its old span is written in place;
///    otherwise it is appended to the slot's block, which is compacted
///    from `on_dag` when full.
/// 4. **Path counts** are recomputed in increasing distance for the
///    nodes whose row changed and, while counts change, their DAG
///    ancestors.
/// 5. **Order.** Moved nodes leave the `(distance desc, id asc)` order and
///    the reachable ones merge back in.
///
/// A slot whose affected set covers more than half its reachable nodes is
/// rebuilt from scratch instead. Either way the slot is bit-identical to
/// what [`build_dag_set`] would produce under the new weights and mask
/// (successor spans may sit elsewhere in the block; the rows they address
/// do not differ). Repairs run sequentially: each touches a handful of
/// nodes, less than a thread hand-off costs.
///
/// On return `changed[i]` is `true` exactly when slot `i`'s DAG changed
/// (rebuilt slots count as changed).
///
/// # Errors
///
/// Propagates weight validation failures (the weights are revalidated
/// defensively, since bad weights would silently corrupt the arena);
/// `out` is untouched then.
///
/// # Panics
///
/// Panics if `changed` is misaligned with `out`'s destinations, `out`'s
/// geometry does not match `graph`, or a change names an edge outside
/// `graph`.
pub fn repair_dag_set(
    graph: &Graph,
    in_csr: &Csr,
    weights: &[f64],
    changes: &[EdgeChange],
    ws: &mut RoutingWorkspace,
    out: &mut DagSet,
    changed: &mut [bool],
) -> Result<RepairStats, GraphError> {
    validate_weights(graph.edge_count(), weights)?;
    let n = graph.node_count();
    let m = graph.edge_count();
    let d = out.dests.len();
    assert_eq!(changed.len(), d, "one change flag per destination slot");
    assert_eq!(out.n, n, "DAG set node geometry matches the graph");
    assert_eq!(out.m_block, m.max(1), "DAG set edge geometry matches");
    changed.fill(false);
    let mut stats = RepairStats::default();
    if changes.is_empty() {
        return Ok(stats);
    }
    let tol = out.tol;
    ws.ensure(d, n);
    let rs = &mut ws.repair;
    rs.edge_changed.resize(m, false);
    rs.flags.resize(n, 0);
    for c in changes {
        rs.edge_changed[c.edge.index()] = true;
    }
    let disabled = in_csr.disabled_edges();
    let enabled = |e: EdgeId| disabled.is_empty() || !disabled[e.index()];
    for (task, flag) in out.tasks(&mut ws.slots[..d]).zip(changed.iter_mut()) {
        let dist = &*task.dist;
        let dirty = changes.iter().any(|c| {
            let e = c.edge;
            let dv = dist[graph.target(e).index()];
            if !dv.is_finite() {
                // The head cannot reach this destination: the edge is
                // dead weight in either state.
                return false;
            }
            let du = dist[graph.source(e).index()];
            // `du = +∞` makes the slack −∞ (an enabled edge may create
            // the first path from `u`).
            (c.was_enabled && c.old_weight + dv - du <= tol)
                || (enabled(e) && weights[e.index()] + dv - du <= tol)
        });
        if !dirty {
            continue;
        }
        stats.dirty += 1;
        *flag = match repair_one(graph, in_csr, weights, tol, changes, rs, task) {
            Some((dag_changed, resettled)) => {
                stats.repaired += 1;
                stats.resettled += resettled;
                dag_changed
            }
            None => {
                stats.fallbacks += 1;
                true
            }
        };
    }
    for c in changes {
        rs.edge_changed[c.edge.index()] = false;
    }
    Ok(stats)
}

/// Repairs one dirty slot in place (see [`repair_dag_set`]). Returns
/// whether the DAG changed and how many nodes the Dijkstra pass settled,
/// or `None` when the affected set was too large and the slot was rebuilt
/// with [`build_one_dag`] instead.
fn repair_one(
    graph: &Graph,
    in_csr: &Csr,
    weights: &[f64],
    tol: f64,
    changes: &[EdgeChange],
    rs: &mut RepairScratch,
    task: DagTask<'_>,
) -> Option<(bool, u64)> {
    let disabled = in_csr.disabled_edges();
    let enabled = |e: EdgeId| disabled.is_empty() || !disabled[e.index()];
    let target = task.target;
    let dist = &mut *task.dist;

    // 1. Affected set, in increasing old distance from the tails of
    // changed edges that were tight in the cached build and got heavier
    // or masked. (A cheaper or restored edge still carries its tail's old
    // label or a better one; step 2 seeds it.)
    for c in changes {
        let (e, u) = (c.edge, graph.source(c.edge));
        let du = dist[u.index()];
        let weakened = !enabled(e) || weights[e.index()] > c.old_weight;
        if c.was_enabled
            && weakened
            && u != target
            && du.is_finite()
            && dist[graph.target(e).index()] + c.old_weight == du
        {
            rs.heap.push(HeapEntry { dist: du, node: u });
        }
    }
    while let Some(HeapEntry { dist: du, node: u }) = rs.heap.pop() {
        if rs.has(u, DECIDED) {
            continue;
        }
        rs.mark(u, DECIDED);
        let supported = graph.out_edges(u).iter().any(|&e| {
            let z = graph.target(e);
            let dz = dist[z.index()];
            !rs.edge_changed[e.index()]
                && enabled(e)
                && dz < du
                && !rs.has(z, AFFECTED)
                && dz + weights[e.index()] == du
        });
        if supported {
            continue;
        }
        rs.mark(u, AFFECTED);
        rs.relabel(u, du);
        if rs.relabeled.len() * 2 > *task.order_len {
            rs.clear_slot();
            build_one_dag(graph, in_csr, weights, tol, task);
            return None;
        }
        // Tight in-edges may have been a neighbour's only support; a
        // changed one is checked whatever its new weight, since it may
        // have been tight under the old one.
        for &(e, y) in in_csr.neighbors(u) {
            let dy = dist[y.index()];
            let tight = rs.edge_changed[e.index()] || du + weights[e.index()] == dy;
            if y != target && dy.is_finite() && tight && !rs.has(y, DECIDED) {
                rs.heap.push(HeapEntry { dist: dy, node: y });
            }
        }
    }

    // 2. Distances: reset the affected nodes (the only ones relabeled so
    // far), seed the boundary and the cheaper or restored edges, and
    // settle.
    for &(u, _) in &rs.relabeled {
        dist[u.index()] = f64::INFINITY;
    }
    for &(u, _) in &rs.relabeled {
        let mut best = f64::INFINITY;
        for &e in graph.out_edges(u) {
            if enabled(e) {
                let nd = dist[graph.target(e).index()] + weights[e.index()];
                if nd < best {
                    best = nd;
                }
            }
        }
        if best < f64::INFINITY {
            dist[u.index()] = best;
            rs.heap.push(HeapEntry {
                dist: best,
                node: u,
            });
        }
    }
    for c in changes {
        let (e, u) = (c.edge, graph.source(c.edge));
        if !enabled(e) || rs.has(u, AFFECTED) {
            continue;
        }
        let nd = dist[graph.target(e).index()] + weights[e.index()];
        if nd < dist[u.index()] {
            rs.relabel(u, dist[u.index()]);
            dist[u.index()] = nd;
            rs.heap.push(HeapEntry { dist: nd, node: u });
        }
    }
    let mut resettled = 0u64;
    while let Some(HeapEntry { dist: d, node: u }) = rs.heap.pop() {
        if d > dist[u.index()] || rs.has(u, SETTLED) {
            continue;
        }
        rs.mark(u, SETTLED);
        resettled += 1;
        for &(e, v) in in_csr.neighbors(u) {
            let nd = d + weights[e.index()];
            if nd < dist[v.index()] {
                rs.relabel(v, dist[v.index()]);
                dist[v.index()] = nd;
                rs.heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    for i in 0..rs.relabeled.len() {
        let (u, old) = rs.relabeled[i];
        if dist[u.index()].to_bits() != old.to_bits() {
            rs.mark(u, MOVED);
            rs.moved.push(u);
        }
    }
    let mut dag_changed = !rs.moved.is_empty();

    // 3. Successors of the moved nodes, their in-neighbours and the tails
    // of changed edges. A node whose row changes queues its path count.
    for i in 0..rs.moved.len() {
        let u = rs.moved[i];
        for &(_, y) in in_csr.neighbors(u) {
            if !rs.has(y, RECLASS) {
                rs.mark(y, RECLASS);
                rs.reclass.push(y);
            }
        }
        if !rs.has(u, RECLASS) {
            rs.mark(u, RECLASS);
            rs.reclass.push(u);
        }
    }
    for c in changes {
        let u = graph.source(c.edge);
        if !rs.has(u, RECLASS) {
            rs.mark(u, RECLASS);
            rs.reclass.push(u);
        }
    }
    let m_block = task.succ.len() as u32;
    for i in 0..rs.reclass.len() {
        let y = rs.reclass[i];
        let dy = dist[y.index()];
        rs.row.clear();
        if dy.is_finite() {
            for &e in graph.out_edges(y) {
                let dx = dist[graph.target(e).index()];
                if enabled(e) && dx < dy && weights[e.index()] + dx - dy <= tol {
                    rs.row.push(e);
                }
            }
        }
        let (start, len) = task.succ_span[y.index()];
        let old = &task.succ[start as usize..(start + len) as usize];
        if old == rs.row.as_slice() {
            continue;
        }
        dag_changed = true;
        for &e in old {
            task.on_dag[e.index()] = false;
        }
        for &e in &rs.row {
            task.on_dag[e.index()] = true;
        }
        let new_len = rs.row.len() as u32;
        if new_len <= len {
            task.succ[start as usize..(start + new_len) as usize].copy_from_slice(&rs.row);
            task.succ_span[y.index()] = (start, new_len);
        } else if *task.succ_fill + new_len <= m_block {
            let at = *task.succ_fill;
            *task.succ_fill += new_len;
            task.succ[at as usize..(at + new_len) as usize].copy_from_slice(&rs.row);
            task.succ_span[y.index()] = (at, new_len);
        } else {
            // The block is full of dead rows: rewrite every row from
            // `on_dag`, which already holds `y`'s new one.
            compact_succ(
                graph,
                task.on_dag,
                task.succ,
                task.succ_span,
                task.succ_fill,
            );
        }
        if dy.is_finite() {
            rs.heap.push(HeapEntry { dist: dy, node: y });
        } else {
            // Unreachable now: no successors, no paths.
            task.path_counts[y.index()] = 0;
        }
    }

    // 4. Path counts, in increasing distance, spreading to DAG ancestors
    // while they change. A node's count is a function of its row and its
    // successors' counts, so only changed rows and their ancestors move.
    while let Some(HeapEntry { node: u, .. }) = rs.heap.pop() {
        if rs.has(u, COUNTED) {
            continue;
        }
        rs.mark(u, COUNTED);
        let count = if u == target {
            1
        } else {
            let (start, len) = task.succ_span[u.index()];
            task.succ[start as usize..(start + len) as usize]
                .iter()
                .fold(0u64, |acc, &e| {
                    acc.saturating_add(task.path_counts[graph.target(e).index()])
                })
        };
        if count == task.path_counts[u.index()] {
            continue;
        }
        task.path_counts[u.index()] = count;
        dag_changed = true;
        for &(e, y) in in_csr.neighbors(u) {
            if task.on_dag[e.index()] && !rs.has(y, COUNTED) {
                rs.heap.push(HeapEntry {
                    dist: dist[y.index()],
                    node: y,
                });
            }
        }
    }

    // 5. Order: drop the moved nodes, merge the reachable ones back in.
    if !rs.moved.is_empty() {
        let len = *task.order_len;
        let mut kept = 0;
        for i in 0..len {
            let u = task.order[i];
            if !rs.has(u, MOVED) {
                task.order[kept] = u;
                kept += 1;
            }
        }
        let before = |a: NodeId, b: NodeId| {
            dist[b.index()]
                .total_cmp(&dist[a.index()])
                .then_with(|| a.index().cmp(&b.index()))
        };
        rs.moved.retain(|u| dist[u.index()].is_finite());
        rs.moved.sort_unstable_by(|&a, &b| before(a, b));
        let (mut i, mut j) = (kept, rs.moved.len());
        let total = kept + j;
        let mut w = total;
        while j > 0 {
            w -= 1;
            if i > 0 && before(rs.moved[j - 1], task.order[i - 1]).is_lt() {
                task.order[w] = task.order[i - 1];
                i -= 1;
            } else {
                task.order[w] = rs.moved[j - 1];
                j -= 1;
            }
        }
        *task.order_len = total;
    }
    rs.clear_slot();
    Some((dag_changed, resettled))
}

/// Rewrites a slot's whole successor block from its `on_dag` flags, node
/// by node and in edge-id order — the same rows, packed from the start of
/// the block with no dead entries between them.
fn compact_succ(
    graph: &Graph,
    on_dag: &[bool],
    succ: &mut [EdgeId],
    succ_span: &mut [(u32, u32)],
    succ_fill: &mut u32,
) {
    let mut fill = 0u32;
    for u in graph.nodes() {
        let start = fill;
        for &e in graph.out_edges(u) {
            if on_dag[e.index()] {
                succ[fill as usize] = e;
                fill += 1;
            }
        }
        succ_span[u.index()] = (start, fill - start);
    }
    *succ_fill = fill;
}

/// Per-destination DAG build into arena slices, in one Dijkstra pass.
///
/// When node `u` settles, every node closer to the target is final and
/// every other node's tentative distance is at least `dist[u]` (keys only
/// grow, since weights are non-negative). So `u`'s out-edges can be
/// classified right then with the legacy test `w + dx − du ≤ tol && dx <
/// du` — an edge toward a node that is not yet final fails `dx < du` now
/// and would fail it later too — and the successors' path counts are
/// already known. Successors go straight into the slot's arena block in
/// settle order, addressed by per-node spans. The settle order reversed
/// is the decreasing-distance order up to ties, which one linear fix-up
/// pass repairs. Results are bit-identical to [`ShortestPathDag::build`]:
/// same distances, same classification arithmetic, successors in edge-id
/// order (out-edge lists are in id order by construction) and the same
/// `(distance desc, id asc)` order.
fn build_one_dag(graph: &Graph, in_csr: &Csr, weights: &[f64], tol: f64, task: DagTask<'_>) {
    let DagTask {
        target,
        scratch,
        dist,
        succ_span,
        succ,
        succ_fill,
        on_dag,
        order,
        order_len,
        path_counts,
    } = task;

    // Edges masked out of the CSR must never join the DAG even when the
    // slack test would accept them: the distances are computed over the
    // masked view, so an undirected-symmetric failed edge can still look
    // tight.
    let disabled = in_csr.disabled_edges();
    on_dag[..graph.edge_count()].fill(false);
    succ_span.fill((0, 0));
    path_counts.fill(0);
    let mut len = 0;
    let mut fill = 0;
    dijkstra_csr(in_csr, weights, target, dist, scratch, |u, du, dist| {
        order[len] = u;
        len += 1;
        let start = fill;
        let mut total = 0u64;
        for &e in graph.out_edges(u) {
            if !disabled.is_empty() && disabled[e.index()] {
                continue;
            }
            let x = graph.target(e).index();
            let dx = dist[x];
            if dx < du && weights[e.index()] + dx - du <= tol {
                on_dag[e.index()] = true;
                succ[fill] = e;
                fill += 1;
                total = total.saturating_add(path_counts[x]);
            }
        }
        succ_span[u.index()] = (start as u32, (fill - start) as u32);
        path_counts[u.index()] = if u == target { 1 } else { total };
    });

    *succ_fill = fill as u32;

    // Settle order is non-decreasing in distance; reversed, it is the
    // decreasing order with each equal-distance run backwards. Reversing
    // the runs restores settle order within them, which is ascending id
    // unless a zero-weight edge (or an addition absorbed by rounding,
    // `d + w == d`) pushed a lower id into a run after a higher one had
    // settled. The insertion pass fixes those few, at O(n) when nothing
    // is out of place.
    *order_len = len;
    let order = &mut order[..len];
    order.reverse();
    let mut run = 0;
    while run < len {
        let d = dist[order[run].index()];
        let mut end = run + 1;
        while end < len && dist[order[end].index()] == d {
            end += 1;
        }
        order[run..end].reverse();
        run = end;
    }
    let before = |a: NodeId, b: NodeId| {
        dist[b.index()]
            .total_cmp(&dist[a.index()])
            .then_with(|| a.index().cmp(&b.index()))
            .is_lt()
    };
    for i in 1..len {
        let mut j = i;
        while j > 0 && before(order[j], order[j - 1]) {
            order.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Dijkstra toward `origin` over the in-edge CSR, writing distances into
/// `dist`. Weights are assumed pre-validated. Relaxation order matches the
/// legacy [`crate::distances_to`] exactly. `on_settle(u, dist[u], dist)`
/// runs once per reachable node, in settle order, before `u`'s in-edges
/// are relaxed; at that point every distance below `dist[u]` is final.
fn dijkstra_csr(
    in_csr: &Csr,
    weights: &[f64],
    origin: NodeId,
    dist: &mut [f64],
    scratch: &mut SlotScratch,
    mut on_settle: impl FnMut(NodeId, f64, &[f64]),
) {
    dist.fill(f64::INFINITY);
    scratch.settled.fill(false);
    scratch.heap.clear();
    dist[origin.index()] = 0.0;
    scratch.heap.push(HeapEntry {
        dist: 0.0,
        node: origin,
    });
    while let Some(HeapEntry { dist: d, node: u }) = scratch.heap.pop() {
        if scratch.settled[u.index()] {
            continue;
        }
        scratch.settled[u.index()] = true;
        on_settle(u, d, dist);
        for &(e, v) in in_csr.neighbors(u) {
            let nd = d + weights[e.index()];
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                scratch.heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
}

/// Distances from every node to each of a set of targets, stored as one
/// flat `targets x nodes` arena.
#[derive(Debug, Clone, Default)]
pub struct DistanceSet {
    n: usize,
    targets: Vec<NodeId>,
    dist: Vec<f64>,
}

impl DistanceSet {
    /// Creates an empty set; the arena grows on first use.
    pub fn new() -> DistanceSet {
        DistanceSet::default()
    }

    /// The targets, in build order.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Distances to target `i`, indexed by node id.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.targets.len(), "target index {i} out of range");
        &self.dist[i * self.n..(i + 1) * self.n]
    }
}

/// Computes [`crate::distances_to`] for every target in one validated,
/// workspace-reusing (and, for large batches, parallel) sweep.
///
/// `in_csr` must be [`Csr::in_of`] of `graph`.
///
/// # Errors
///
/// Same conditions as [`crate::distances_to`].
pub fn batch_distances_to(
    graph: &Graph,
    in_csr: &Csr,
    weights: &[f64],
    targets: &[NodeId],
    par: Parallelism,
    ws: &mut RoutingWorkspace,
    out: &mut DistanceSet,
) -> Result<(), GraphError> {
    validate_weights(graph.edge_count(), weights)?;
    let n = graph.node_count();
    for &t in targets {
        if t.index() >= n {
            return Err(GraphError::NodeOutOfRange { node: t, nodes: n });
        }
    }
    out.n = n;
    out.targets.clear();
    out.targets.extend_from_slice(targets);
    out.dist.resize(targets.len() * n, 0.0);
    ws.ensure(targets.len(), n);

    let tasks = ws.slots[..targets.len()]
        .iter_mut()
        .zip(out.dist.chunks_mut(n))
        .zip(targets.iter());
    if par.decide(targets.len(), n + graph.edge_count()) {
        tasks
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|((scratch, dist), &t)| {
                dijkstra_csr(in_csr, weights, t, dist, scratch, |_, _, _| {})
            });
    } else {
        for ((scratch, dist), &t) in tasks {
            dijkstra_csr(in_csr, weights, t, dist, scratch, |_, _, _| {});
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distances_to;

    fn near_tie(eps: f64) -> (Graph, Vec<f64>) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        (g, vec![1.0, 1.0 + eps, 1.0, 1.0])
    }

    fn build_all(g: &Graph, w: &[f64], dests: &[NodeId], tol: f64, par: Parallelism) -> DagSet {
        let csr = Csr::in_of(g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        build_dag_set(g, &csr, w, dests, tol, par, &mut ws, &mut set).unwrap();
        set
    }

    #[test]
    fn matches_legacy_on_near_tie() {
        let (g, w) = near_tie(0.1);
        for tol in [0.0, 0.3] {
            let dests: Vec<NodeId> = g.nodes().collect();
            let set = build_all(&g, &w, &dests, tol, Parallelism::Never);
            for (i, &t) in dests.iter().enumerate() {
                let legacy = ShortestPathDag::build(&g, &w, t, tol).unwrap();
                let view = set.dag(i);
                assert_eq!(view.distances(), legacy.distances(), "dist to {t}");
                for u in g.nodes() {
                    assert_eq!(view.successors(u), legacy.successors(u), "succ {u} -> {t}");
                    assert_eq!(view.path_count(u), legacy.path_count(u));
                }
                assert_eq!(
                    view.nodes_by_decreasing_distance(),
                    legacy.nodes_by_decreasing_distance()
                );
                for e in g.edge_ids() {
                    assert_eq!(view.contains_edge(e), legacy.contains_edge(e));
                }
            }
        }
    }

    #[test]
    fn parallel_schedule_is_bit_identical() {
        let (g, w) = near_tie(0.05);
        let dests: Vec<NodeId> = g.nodes().collect();
        let serial = build_all(&g, &w, &dests, 0.1, Parallelism::Never);
        let parallel = build_all(&g, &w, &dests, 0.1, Parallelism::Always);
        assert_eq!(serial.dist, parallel.dist);
        assert_eq!(serial.succ_span, parallel.succ_span);
        assert_eq!(serial.succ, parallel.succ);
        assert_eq!(serial.order, parallel.order);
        assert_eq!(serial.path_counts, parallel.path_counts);
    }

    #[test]
    fn workspace_reuse_across_calls() {
        let (g, w) = near_tie(0.0);
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        let dests: Vec<NodeId> = g.nodes().collect();
        for _ in 0..3 {
            build_dag_set(
                &g,
                &csr,
                &w,
                &dests,
                0.0,
                Parallelism::Auto,
                &mut ws,
                &mut set,
            )
            .unwrap();
            assert_eq!(set.len(), 4);
            assert_eq!(set.dag(3).distance(0.into()), 2.0);
        }
        // Shrinking the destination set reuses the same arenas.
        build_dag_set(
            &g,
            &csr,
            &w,
            &dests[..1],
            0.0,
            Parallelism::Auto,
            &mut ws,
            &mut set,
        )
        .unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn materialised_dag_matches_legacy() {
        let (g, w) = near_tie(0.1);
        let set = build_all(&g, &w, &[NodeId::new(3)], 0.3, Parallelism::Never);
        let owned = set.to_shortest_path_dag(0, &g);
        let legacy = ShortestPathDag::build(&g, &w, 3.into(), 0.3).unwrap();
        assert_eq!(owned.distances(), legacy.distances());
        for u in g.nodes() {
            assert_eq!(owned.successors(u), legacy.successors(u));
            assert_eq!(owned.predecessors(u), legacy.predecessors(u));
            assert_eq!(owned.path_count(u), legacy.path_count(u));
        }
        assert_eq!(
            owned.nodes_by_decreasing_distance(),
            legacy.nodes_by_decreasing_distance()
        );
    }

    #[test]
    fn rejects_bad_inputs_like_legacy() {
        let (g, w) = near_tie(0.0);
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        let run = |w: &[f64], dests: &[NodeId], tol: f64| {
            let mut ws2 = RoutingWorkspace::new();
            let mut set2 = DagSet::new();
            build_dag_set(
                &g,
                &csr,
                w,
                dests,
                tol,
                Parallelism::Auto,
                &mut ws2,
                &mut set2,
            )
        };
        assert!(matches!(
            run(&w[..2], &[NodeId::new(0)], 0.0),
            Err(GraphError::WeightCount { .. })
        ));
        assert!(matches!(
            run(&[1.0, -2.0, 1.0, 1.0], &[NodeId::new(0)], 0.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            run(&w, &[NodeId::new(17)], 0.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            run(&w, &[NodeId::new(0)], -0.5),
            Err(GraphError::InvalidWeight { .. })
        ));
        // Empty destination set is fine.
        build_dag_set(&g, &csr, &w, &[], 0.0, Parallelism::Auto, &mut ws, &mut set).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn batch_distances_match_single_calls() {
        let (g, w) = near_tie(0.2);
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DistanceSet::new();
        let targets: Vec<NodeId> = g.nodes().collect();
        for par in [Parallelism::Never, Parallelism::Always] {
            batch_distances_to(&g, &csr, &w, &targets, par, &mut ws, &mut set).unwrap();
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(set.row(i), distances_to(&g, &w, t).unwrap(), "target {t}");
            }
        }
    }

    /// Every observable of slot `i` of `a` equals slot `j` of `b`.
    fn assert_same_dag(g: &Graph, a: DagRef<'_>, b: DagRef<'_>) {
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.distances()), bits(b.distances()));
        assert_eq!(
            a.nodes_by_decreasing_distance(),
            b.nodes_by_decreasing_distance()
        );
        for u in g.nodes() {
            assert_eq!(a.successors(u), b.successors(u), "successors of {u}");
            assert_eq!(a.path_count(u), b.path_count(u), "path count of {u}");
        }
        for e in g.edge_ids() {
            assert_eq!(a.contains_edge(e), b.contains_edge(e), "edge {e}");
        }
    }

    #[test]
    fn slot_rebuild_matches_dense_build() {
        let (g, w) = near_tie(0.1);
        let csr = Csr::in_of(&g);
        let dests: Vec<NodeId> = g.nodes().collect();
        let mut ws = RoutingWorkspace::new();
        let mut set = build_all(&g, &w, &dests, 0.0, Parallelism::Never);

        // Cheapen one weight and repair in place: only the slots whose
        // DAG can change are touched, and every slot ends up equal to a
        // dense build under the new weights.
        let mut w2 = w.clone();
        w2[1] = 0.25;
        let change = EdgeChange {
            edge: EdgeId::new(1),
            old_weight: w[1],
            was_enabled: true,
        };
        let mut changed = vec![false; dests.len()];
        let stats =
            repair_dag_set(&g, &csr, &w2, &[change], &mut ws, &mut set, &mut changed).unwrap();
        let new = build_all(&g, &w2, &dests, 0.0, Parallelism::Never);
        for i in 0..dests.len() {
            assert_same_dag(&g, set.dag(i), new.dag(i));
        }
        // Edge 0 -> 2 only matters to destinations 2 and 3.
        assert_eq!(changed, [false, false, true, true]);
        assert_eq!(stats.dirty, 2);
        assert_eq!(stats.repaired + stats.fallbacks, 2);
    }

    #[test]
    fn repair_finds_a_zero_weight_cycle_cut_off_from_its_exit() {
        // 0 <-> 1 <-> 2 is a zero-weight cycle whose only exit is the
        // edge 2 -> 3 into the destination; 4 hangs off node 0. Every node
        // of the cycle sits at the same distance, so each one "supports"
        // the others through an equal-distance tight edge. Failing the
        // exit must strand the whole cycle and node 4.
        let mut g = Graph::with_nodes(5);
        g.add_edge(0.into(), 1.into()); // e0
        g.add_edge(1.into(), 0.into()); // e1
        g.add_edge(1.into(), 2.into()); // e2
        g.add_edge(2.into(), 1.into()); // e3
        g.add_edge(2.into(), 3.into()); // e4: the exit
        g.add_edge(4.into(), 0.into()); // e5
        g.add_edge(3.into(), 4.into()); // e6
        let w = vec![0.0, 0.0, 0.0, 0.0, 2.0, 1.0, 1.0];
        let dests = [NodeId::new(3)];
        let mut csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        build_dag_set(
            &g,
            &csr,
            &w,
            &dests,
            0.0,
            Parallelism::Never,
            &mut ws,
            &mut set,
        )
        .unwrap();
        assert_eq!(set.dag(0).distance(0.into()), 2.0);

        let exit = EdgeId::new(4);
        csr.set_links_enabled(&[exit], false);
        let fail = EdgeChange {
            edge: exit,
            old_weight: w[4],
            was_enabled: true,
        };
        let mut changed = [false];
        let stats = repair_dag_set(&g, &csr, &w, &[fail], &mut ws, &mut set, &mut changed).unwrap();
        assert!(changed[0]);
        // Four of the five nodes lose their distance: a fallback.
        assert_eq!(stats.fallbacks, 1);
        let mut dense = DagSet::new();
        build_dag_set(
            &g,
            &csr,
            &w,
            &dests,
            0.0,
            Parallelism::Never,
            &mut ws,
            &mut dense,
        )
        .unwrap();
        assert_same_dag(&g, set.dag(0), dense.dag(0));
        assert!(!set.dag(0).reaches_target(1.into()));

        // Restoring it is a repair, not a rebuild: nothing is affected,
        // the restored edge seeds the cycle back.
        csr.set_links_enabled(&[exit], true);
        let restore = EdgeChange {
            was_enabled: false,
            ..fail
        };
        let stats =
            repair_dag_set(&g, &csr, &w, &[restore], &mut ws, &mut set, &mut changed).unwrap();
        assert_eq!((stats.repaired, stats.fallbacks), (1, 0));
        assert_eq!(stats.resettled, 4);
        let intact = build_all(&g, &w, &dests, 0.0, Parallelism::Never);
        assert_same_dag(&g, set.dag(0), intact.dag(0));

        // With a second way out through node 4, losing the exit leaves
        // the cycle reachable at a larger distance — repaired in place.
        let mut g2 = g.clone();
        g2.add_edge(0.into(), 4.into()); // e7
        g2.add_edge(4.into(), 3.into()); // e8
        let w2 = [w.as_slice(), &[1.0, 5.0]].concat();
        let mut csr2 = Csr::in_of(&g2);
        let five = [NodeId::new(3), NodeId::new(4)];
        let mut set2 = DagSet::new();
        build_dag_set(
            &g2,
            &csr2,
            &w2,
            &five,
            0.0,
            Parallelism::Never,
            &mut ws,
            &mut set2,
        )
        .unwrap();
        csr2.set_links_enabled(&[exit], false);
        let mut changed2 = [false, false];
        repair_dag_set(&g2, &csr2, &w2, &[fail], &mut ws, &mut set2, &mut changed2).unwrap();
        let mut dense2 = DagSet::new();
        build_dag_set(
            &g2,
            &csr2,
            &w2,
            &five,
            0.0,
            Parallelism::Never,
            &mut ws,
            &mut dense2,
        )
        .unwrap();
        for i in 0..2 {
            assert_same_dag(&g2, set2.dag(i), dense2.dag(i));
        }
        assert_eq!(set2.dag(0).distance(1.into()), 6.0);
    }

    #[test]
    fn edgeless_graph_is_handled() {
        let g = Graph::with_nodes(3);
        let set = build_all(&g, &[], &[NodeId::new(1)], 0.0, Parallelism::Never);
        let view = set.dag(0);
        assert_eq!(view.distance(1.into()), 0.0);
        assert!(!view.reaches_target(0.into()));
        assert_eq!(view.nodes_by_decreasing_distance(), &[NodeId::new(1)]);
        assert_eq!(view.path_count(1.into()), 1);
    }
}
