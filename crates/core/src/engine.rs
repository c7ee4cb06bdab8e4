//! The batched routing engine — the per-iteration hot path of every
//! solver, packaged as one reusable object.
//!
//! A solver loop (Frank–Wolfe, Algorithm 1, NEM, the Fortz–Thorup local
//! search) repeats the cycle *build per-destination DAGs → distribute
//! traffic* hundreds to tens of thousands of times with only the weights
//! changing. [`RoutingEngine`] amortises everything else:
//!
//! * the in-edge [`Csr`] adjacency is built **once** per engine;
//! * weight validation runs once per batch, not once per destination;
//! * DAGs ([`DagSet`]), split tables ([`SplitTableSet`]), demand columns
//!   and flow vectors live in flat arenas that are reused across calls —
//!   after the first iteration the cycle performs **zero allocations**
//!   on the sequential path (with parallel fan-out engaged, only the
//!   `O(dests)`-pointer task list is allocated per call, never the
//!   arena data);
//! * DAG construction fans destinations out across worker threads when
//!   the batch is large enough, with bit-identical results regardless of
//!   schedule (each destination writes only its own arena slices).
//!
//! The engine is a drop-in for the legacy
//! [`build_dags`](crate::build_dags) +
//! [`traffic_distribution`](crate::traffic_distribution) pair and produces
//! bit-identical flows; the property tests in
//! `tests/engine_equivalence.rs` pin that guarantee.
//!
//! Two refinements support solver sessions ([`crate::TeWorkspace`]):
//!
//! * [`RoutingEngine::build_dags`] **skips the SPF batch entirely** when
//!   the weight vector, destination set and tolerance are bit-identical
//!   to the previous call on the same engine — solvers that converge to
//!   a fixed weight vector (and pipelines that rebuild DAGs under the
//!   same weights across stages) pay nothing for the repeat call. The
//!   skip is result-transparent: identical inputs always produce
//!   identical DAGs.
//! * the engine's arenas detach into an [`EngineState`] via
//!   [`RoutingEngine::into_state`] and re-attach (to the same or another
//!   graph) via [`RoutingEngine::with_state`], so a long-lived workspace
//!   can outlive any single borrowed graph. Attaching to a different
//!   topology (checked structurally, edge list against edge list)
//!   rebuilds the CSR and invalidates the DAG fingerprint.
//! * [`RoutingEngine::fail_links`]/[`RoutingEngine::restore_links`]
//!   apply **topology deltas in place**: links are masked out of (or back
//!   into) the CSR view and only the destinations whose cached DAG used —
//!   or could newly use — a toggled link are repaired, bit-identical to a
//!   cold engine over the degraded topology. Failure sweeps probe
//!   thousands of (weights × failed-link) points; this keeps each probe
//!   at the cost of the few nodes it moves instead of a dense SPF batch.
//!
//! Both delta paths — weight changes in [`RoutingEngine::build_dags`]
//! and mask toggles — go through one local SPF repair
//! ([`spef_graph::batch::repair_dag_set`]), which re-settles only the
//! nodes whose distance, successors, path count or position can change
//! in each dirty DAG.
//!
//! ```
//! use spef_core::{RoutingEngine, SplitRule};
//! use spef_topology::{standard, TrafficMatrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = standard::fig1();
//! let tm = standard::fig1_demands();
//! let dests = tm.destinations();
//! let weights = vec![1.0; net.link_count()];
//!
//! let mut engine = RoutingEngine::new(net.graph());
//! let mut flows = engine.distribute_fresh();
//! for _ in 0..3 {
//!     // Steady state: no allocations inside this loop.
//!     engine.build_dags(&weights, &dests, 0.0)?;
//!     engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)?;
//! }
//! assert_eq!(flows.aggregate().len(), net.link_count());
//! # Ok(())
//! # }
//! ```

use spef_graph::batch::{
    build_dag_set, repair_dag_set, validate_dag_inputs, DagSet, EdgeChange, Parallelism,
    RepairStats, RoutingWorkspace,
};
use spef_graph::{Csr, EdgeId, Graph, GraphError, NodeId};
use spef_topology::TrafficMatrix;

use crate::traffic_dist::{
    distribute_batch, distribute_block, distribute_one_into, next_flow_stamp, validate_rule,
    DistScratch, Flows, SplitRule, SplitTableSet,
};
use crate::SpefError;

/// Incremental rebuilds give up (dense fallback) when more than this many
/// quarters of the edge weights changed — at that point the dirty scan
/// costs as much as it could save.
const INCR_MAX_CHANGED_QUARTERS: usize = 1;

/// Topology-delta rebuilds give up (dense fallback on the next build) when
/// more than this many quarters of the links are masked out — a view that
/// degraded is no longer a small delta of the cached build.
const MASK_MAX_MASKED_QUARTERS: usize = 1;

/// The split rule a distribution ran under, reduced to a cheap tag (the
/// exponential rule's weight vector is cached separately, bit for bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum RuleKind {
    #[default]
    None,
    Even,
    Exponential,
}

/// SPF build counters of one engine state — the observability surface of
/// the incremental rebuild path (benches report dirty-destination counts
/// per probe from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpfStats {
    /// SPF batch builds executed (dense + incremental; calls skipped by
    /// the bit-identical-weights fingerprint are not counted).
    pub builds: u64,
    /// Builds served by the incremental dirty-destination path.
    pub incremental_builds: u64,
    /// Total dirty destination slots across all incremental and
    /// topology-delta builds, repaired or rebuilt (`slots_rebuilt /
    /// (incremental_builds + topology_builds)` = mean dirty set per
    /// probe).
    pub slots_rebuilt: u64,
    /// Dirty-slot count of the most recent incremental or topology-delta
    /// build.
    pub last_dirty: u64,
    /// Topology-delta rebuilds served in place by
    /// [`RoutingEngine::fail_links`]/[`RoutingEngine::restore_links`]
    /// (including calls whose dirty set was empty; dense fallbacks are
    /// not counted — they surface as a plain build instead).
    pub topology_builds: u64,
    /// Cumulative number of links masked out by
    /// [`RoutingEngine::fail_links`] over this state's lifetime (a
    /// counter, not a gauge — see [`RoutingEngine::masked_links`] for the
    /// currently-masked count).
    pub masked_links: u64,
    /// Dirty slots patched in place by the local SPF repair (each also
    /// counts in `slots_rebuilt`).
    pub slots_repaired: u64,
    /// Nodes re-settled by the repairs' Dijkstra passes.
    pub nodes_resettled: u64,
    /// Dirty slots whose affected set covered more than half their
    /// reachable nodes, so the repair rebuilt the slot from scratch (each
    /// also counts in `slots_rebuilt`).
    pub slot_fallbacks: u64,
}

impl SpfStats {
    /// Adds `other`'s counters into `self`; `last_dirty`, a gauge, takes
    /// the maximum (the most recent build is meaningless across engines).
    pub fn accumulate(&mut self, other: SpfStats) {
        self.builds += other.builds;
        self.incremental_builds += other.incremental_builds;
        self.slots_rebuilt += other.slots_rebuilt;
        self.last_dirty = self.last_dirty.max(other.last_dirty);
        self.topology_builds += other.topology_builds;
        self.masked_links += other.masked_links;
        self.slots_repaired += other.slots_repaired;
        self.nodes_resettled += other.nodes_resettled;
        self.slot_fallbacks += other.slot_fallbacks;
    }
}

/// The detached, owned arenas of a [`RoutingEngine`]: everything the
/// engine holds except the graph borrow itself. A long-lived workspace
/// (e.g. [`crate::TeWorkspace`]) keeps an `EngineState` and re-attaches
/// it to whichever graph the next solve targets; when the topology is
/// structurally unchanged, the CSR adjacency, DAG arenas and the
/// bit-identical-weights fingerprint all survive the round trip.
#[derive(Debug, Default)]
pub struct EngineState {
    in_csr: Option<Csr>,
    topo_nodes: usize,
    topo_edges: Vec<(NodeId, NodeId)>,
    ws: RoutingWorkspace,
    dags: DagSet,
    tables: SplitTableSet,
    scratch: DistScratch,
    last_weights: Vec<f64>,
    last_dests: Vec<NodeId>,
    last_tolerance: f64,
    dags_valid: bool,
    spf_builds: u64,
    /// Changed-edge scratch of the weight diff and the mask toggles.
    changes: Vec<EdgeChange>,
    /// Per-slot "DAG changed" flags of the repair in progress.
    slot_changed: Vec<bool>,
    /// Slots whose DAG changed since the last successful
    /// [`RoutingEngine::distribute_into`] (what the incremental
    /// distribution must refresh).
    pending: Vec<bool>,
    /// `true` when the pending set is meaningless (dense build, shape
    /// change, or no distribution yet): the next distribution runs dense.
    pending_all: bool,
    /// Split tables aligned with the current DAG set under the
    /// `last_rule_*` fingerprint below.
    tables_valid: bool,
    last_rule_kind: RuleKind,
    /// Bitwise copy of the exponential rule's weight vector (empty for
    /// even ECMP).
    last_rule_v: Vec<f64>,
    /// Bitwise copy of the last distributed traffic matrix (row-major),
    /// backing the demand-change check of the incremental distribution.
    demand_cache: Vec<f64>,
    demand_cache_valid: bool,
    /// Stamp of the `Flows` buffer the last successful
    /// [`RoutingEngine::distribute_into`] wrote (its columns *are* the
    /// incremental flow cache).
    out_stamp: u64,
    incremental_builds: u64,
    slots_rebuilt: u64,
    last_dirty: u64,
    topology_builds: u64,
    masked_links_total: u64,
    slots_repaired: u64,
    nodes_resettled: u64,
    slot_fallbacks: u64,
    /// Scratch of [`RoutingEngine::fail_links`]/`restore_links`: the
    /// deduplicated subset of the requested links that actually toggles.
    toggle_scratch: Vec<EdgeId>,
}

impl EngineState {
    /// A fresh, empty state; the first attach builds the CSR.
    pub fn new() -> EngineState {
        EngineState::default()
    }

    /// True when `graph` is structurally identical to the topology this
    /// state last routed over (same node count, same edge list in the
    /// same order). Capacities and weights are *not* part of structure:
    /// they never affect the CSR, and weight changes are caught by the
    /// per-call fingerprint instead.
    pub(crate) fn matches_topology(&self, graph: &Graph) -> bool {
        self.in_csr.is_some()
            && self.topo_nodes == graph.node_count()
            && self.topo_edges.len() == graph.edge_count()
            && graph
                .edges()
                .zip(&self.topo_edges)
                .all(|((_, u, v), &(su, sv))| u == su && v == sv)
    }

    /// Number of SPF batch builds this state has actually executed
    /// (calls to [`RoutingEngine::build_dags`] that were not skipped by
    /// the bit-identical-weights fingerprint).
    pub fn spf_builds(&self) -> u64 {
        self.spf_builds
    }

    /// The SPF build counters, including the incremental-path breakdown.
    pub fn spf_stats(&self) -> SpfStats {
        SpfStats {
            builds: self.spf_builds,
            incremental_builds: self.incremental_builds,
            slots_rebuilt: self.slots_rebuilt,
            last_dirty: self.last_dirty,
            topology_builds: self.topology_builds,
            masked_links: self.masked_links_total,
            slots_repaired: self.slots_repaired,
            nodes_resettled: self.nodes_resettled,
            slot_fallbacks: self.slot_fallbacks,
        }
    }

    /// Books a finished repair: its counters, and the slots it changed
    /// as pending for the next distribution.
    fn note_repair(&mut self, stats: RepairStats) {
        self.slots_rebuilt += stats.dirty;
        self.last_dirty = stats.dirty;
        self.slots_repaired += stats.repaired;
        self.nodes_resettled += stats.resettled;
        self.slot_fallbacks += stats.fallbacks;
        if self.pending.len() == self.slot_changed.len() {
            for (p, &changed) in self.pending.iter_mut().zip(&self.slot_changed) {
                *p |= changed;
            }
        } else {
            // No tracked pending set at this shape — `pending_all` is
            // already forcing a dense distribution; just keep shape.
            self.pending.clear();
            self.pending.resize(self.slot_changed.len(), false);
            self.pending_all = true;
        }
    }

    /// Drops the DAG fingerprint so the next
    /// [`RoutingEngine::build_dags`] call recomputes unconditionally.
    /// Arenas are kept.
    pub fn invalidate(&mut self) {
        self.dags_valid = false;
        self.drop_distribution_caches();
    }

    /// Invalidates everything the incremental distribution path relies
    /// on; the next distribution runs the dense kernel.
    fn drop_distribution_caches(&mut self) {
        self.tables_valid = false;
        self.demand_cache_valid = false;
        self.pending_all = true;
        self.out_stamp = 0;
        self.last_rule_kind = RuleKind::None;
    }

    /// Bytes currently reserved by the engine's routing arenas (DAG set,
    /// split tables, Dijkstra workspace), by capacity — a high-water mark,
    /// since the arenas only ever grow across reuse.
    pub fn arena_bytes(&self) -> usize {
        self.ws.arena_bytes() + self.dags.arena_bytes() + self.tables.arena_bytes()
    }
}

/// A reusable batched router over one graph. See the [module
/// docs](self) for what it amortises.
#[derive(Debug)]
pub struct RoutingEngine<'g> {
    graph: &'g Graph,
    par: Parallelism,
    state: EngineState,
}

impl<'g> RoutingEngine<'g> {
    /// Creates an engine for `graph`, freezing its CSR adjacency.
    /// Destination fan-out is parallelised automatically for large
    /// batches.
    pub fn new(graph: &'g Graph) -> RoutingEngine<'g> {
        Self::with_parallelism(graph, Parallelism::Auto)
    }

    /// Like [`RoutingEngine::new`] with an explicit parallelism policy
    /// (used by the schedule-independence tests; results are identical
    /// either way).
    pub fn with_parallelism(graph: &'g Graph, par: Parallelism) -> RoutingEngine<'g> {
        Self::with_state_and_parallelism(graph, EngineState::new(), par)
    }

    /// Attaches a detached [`EngineState`] to `graph`. If the state last
    /// routed over a structurally identical topology, its CSR, arenas
    /// and DAG fingerprint are reused as-is; otherwise the CSR is
    /// rebuilt and the fingerprint invalidated (automatic cold
    /// fallback — never a correctness hazard, only a wall-clock one).
    pub fn with_state(graph: &'g Graph, state: EngineState) -> RoutingEngine<'g> {
        Self::with_state_and_parallelism(graph, state, Parallelism::Auto)
    }

    fn with_state_and_parallelism(
        graph: &'g Graph,
        mut state: EngineState,
        par: Parallelism,
    ) -> RoutingEngine<'g> {
        if !state.matches_topology(graph) {
            state.in_csr = Some(Csr::in_of(graph));
            state.topo_nodes = graph.node_count();
            state.topo_edges.clear();
            state
                .topo_edges
                .extend(graph.edges().map(|(_, u, v)| (u, v)));
            state.dags_valid = false;
            state.drop_distribution_caches();
        }
        RoutingEngine { graph, par, state }
    }

    /// Detaches the engine's arenas for reuse against a later graph
    /// borrow. The inverse of [`RoutingEngine::with_state`].
    pub fn into_state(self) -> EngineState {
        self.state
    }

    /// The graph the engine routes over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Number of SPF batch builds actually executed (skipped calls not
    /// counted). Exposed for the skip-fingerprint tests and benches.
    pub fn spf_builds(&self) -> u64 {
        self.state.spf_builds
    }

    /// The SPF build counters, including the incremental-path breakdown.
    pub fn spf_stats(&self) -> SpfStats {
        self.state.spf_stats()
    }

    /// See [`EngineState::arena_bytes`].
    pub fn arena_bytes(&self) -> usize {
        self.state.arena_bytes()
    }

    /// Builds the shortest-path DAGs of every destination under `weights`
    /// with equal-cost tolerance `tolerance`, replacing the engine's
    /// current DAG set. Weights are validated once for the whole batch.
    ///
    /// When `weights`, `dests` and `tolerance` are bit-identical to the
    /// previous (successful) call on this engine's state, the SPF batch
    /// is skipped outright — the retained DAG set is already the answer.
    ///
    /// When only a few weights changed (same destinations, same
    /// tolerance), the **incremental path** repairs only the dirty
    /// destination slots in place: a destination is dirty iff some
    /// changed edge was on, or could join, its shortest-path DAG, decided
    /// from the cached distance arrays of the previous build, and a dirty
    /// slot re-settles only the nodes the change can move. The resulting
    /// DAG set is bit-identical to a dense rebuild (see
    /// `tests/incremental_equivalence.rs`). The path falls back to a
    /// dense build when more than a quarter of the weights changed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`spef_graph::ShortestPathDag::build`].
    pub fn build_dags(
        &mut self,
        weights: &[f64],
        dests: &[NodeId],
        tolerance: f64,
    ) -> Result<(), GraphError> {
        let s = &mut self.state;
        let fingerprint_matches = s.dags_valid
            && s.last_tolerance.to_bits() == tolerance.to_bits()
            && s.last_dests.as_slice() == dests
            && s.last_weights.len() == weights.len();
        if fingerprint_matches
            && s.last_weights
                .iter()
                .zip(weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return Ok(());
        }
        s.dags_valid = false;
        if fingerprint_matches && self.build_dags_incremental(weights, dests, tolerance)? {
            return Ok(());
        }
        let s = &mut self.state;
        build_dag_set(
            self.graph,
            s.in_csr.as_ref().expect("attached engine has a CSR"),
            weights,
            dests,
            tolerance,
            self.par,
            &mut s.ws,
            &mut s.dags,
        )?;
        s.spf_builds += 1;
        s.last_weights.clear();
        s.last_weights.extend_from_slice(weights);
        s.last_dests.clear();
        s.last_dests.extend_from_slice(dests);
        s.last_tolerance = tolerance;
        s.dags_valid = true;
        // A dense build may have changed any slot; the pending set no
        // longer bounds what the next distribution must refresh.
        s.pending_all = true;
        Ok(())
    }

    /// The delta path of [`build_dags`](Self::build_dags): diffs the
    /// weights bit for bit and repairs the dirty slots in place. Returns
    /// `Ok(false)` when the change is too large to be worth it — the
    /// caller falls through to the dense build.
    ///
    /// Only called when the previous build used the same destinations,
    /// tolerance and weight-vector length (so the cached distances and
    /// arena shapes line up).
    fn build_dags_incremental(
        &mut self,
        weights: &[f64],
        dests: &[NodeId],
        tolerance: f64,
    ) -> Result<bool, GraphError> {
        // Identical validation — and error order — to the dense path.
        validate_dag_inputs(self.graph, weights, dests, tolerance)?;
        let s = &mut self.state;
        let m = self.graph.edge_count();
        let csr = s.in_csr.as_ref().expect("attached engine has a CSR");
        s.changes.clear();
        // Weight changes on masked links cannot affect the routed view;
        // skipping them keeps failure-time dirty sets small. The full
        // vector is still recorded below, so a later restore sees the
        // current weight.
        for e in self.graph.edge_ids() {
            let old = s.last_weights[e.index()];
            if csr.edge_enabled(e) && old.to_bits() != weights[e.index()].to_bits() {
                s.changes.push(EdgeChange {
                    edge: e,
                    old_weight: old,
                    was_enabled: true,
                });
            }
        }
        if s.changes.len() * 4 > m * INCR_MAX_CHANGED_QUARTERS {
            return Ok(false);
        }
        s.slot_changed.resize(dests.len(), false);
        let stats = repair_dag_set(
            self.graph,
            csr,
            weights,
            &s.changes,
            &mut s.ws,
            &mut s.dags,
            &mut s.slot_changed,
        )?;
        s.spf_builds += 1;
        s.incremental_builds += 1;
        s.note_repair(stats);
        s.last_weights.copy_from_slice(weights);
        s.dags_valid = true;
        Ok(true)
    }

    /// Masks `links` out of the engine's routed view — the in-place form
    /// of rebuilding the engine over
    /// [`without_links`](spef_topology::Network::without_links) — and
    /// patches the cached DAG set so it stays bit-identical to a dense
    /// build over the degraded view under the cached weights.
    ///
    /// A removed link dirties only the destinations for which the
    /// one-slack test `w + dist[v] - dist[u] <= tol` holds against the
    /// cached distances — every DAG edge, plus a tight zero-weight tie
    /// the DAG leaves out but a distance may hang on; clean slots keep
    /// their arenas untouched (a shortest path that never used the link
    /// cannot change when it disappears). Dirty slots are repaired in
    /// place (see [`build_dags`](Self::build_dags)). The call
    /// falls back to invalidating the fingerprint — so the next
    /// [`build_dags`](Self::build_dags) runs dense over the masked view —
    /// when there is no cached build to patch or more than a quarter of
    /// the links are masked.
    ///
    /// Masking is idempotent: already-masked links are skipped. The mask
    /// survives [`into_state`](Self::into_state)/[`with_state`]
    /// round-trips onto the same topology and is dropped when the state
    /// attaches to a different one.
    ///
    /// [`with_state`]: Self::with_state
    ///
    /// # Errors
    ///
    /// [`GraphError::LinkOutOfRange`] if a link id is outside the graph;
    /// the engine is unchanged. Errors from the slot repair invalidate
    /// the fingerprint before propagating.
    pub fn fail_links(&mut self, links: &[EdgeId]) -> Result<(), GraphError> {
        self.set_links_enabled(links, false)
    }

    /// Unmasks `links`, restoring them to the engine's routed view — the
    /// inverse of [`fail_links`](Self::fail_links) — and patches the
    /// cached DAG set to match a dense build over the restored view.
    ///
    /// A restored link `(u, v)` dirties only the destinations where the
    /// one-slack test `w + dist[v] - dist[u] <= tol` against the cached
    /// distances says it could join a shortest path (an unreachable `u`
    /// counts as joinable: the link may create the first path). Slack
    /// strictly above the tolerance means every path through the link
    /// loses each relaxation and classification it could enter, so the
    /// cached slot already equals the dense result bit for bit.
    ///
    /// Restoring is idempotent; the same fallbacks (and the same error
    /// surface) as [`fail_links`](Self::fail_links) apply.
    ///
    /// # Errors
    ///
    /// See [`fail_links`](Self::fail_links).
    pub fn restore_links(&mut self, links: &[EdgeId]) -> Result<(), GraphError> {
        self.set_links_enabled(links, true)
    }

    /// Number of links currently masked out of the routed view (a gauge;
    /// [`SpfStats::masked_links`] is the cumulative counter).
    pub fn masked_links(&self) -> usize {
        self.state
            .in_csr
            .as_ref()
            .map_or(0, |csr| csr.masked_count())
    }

    /// Shared implementation of
    /// [`fail_links`](Self::fail_links)/[`restore_links`](Self::restore_links).
    fn set_links_enabled(&mut self, links: &[EdgeId], enabled: bool) -> Result<(), GraphError> {
        let m = self.graph.edge_count();
        for &e in links {
            if e.index() >= m {
                return Err(GraphError::LinkOutOfRange { edge: e, edges: m });
            }
        }
        let s = &mut self.state;
        let csr = s.in_csr.as_mut().expect("attached engine has a CSR");
        // Reduce the request to the links that actually toggle, so
        // repeated fails/restores are idempotent and the dirty scan never
        // sees a no-op link.
        s.toggle_scratch.clear();
        for &e in links {
            if csr.edge_enabled(e) != enabled && !s.toggle_scratch.contains(&e) {
                s.toggle_scratch.push(e);
            }
        }
        if s.toggle_scratch.is_empty() {
            return Ok(());
        }
        let changed = csr.set_links_enabled(&s.toggle_scratch, enabled);
        debug_assert_eq!(changed, s.toggle_scratch.len());
        if !enabled {
            s.masked_links_total += changed as u64;
        }
        if !s.dags_valid {
            // Nothing cached to patch; the next build runs dense over the
            // new view. Distribution caches may reference the old view.
            s.invalidate();
            return Ok(());
        }
        let masked = s
            .in_csr
            .as_ref()
            .expect("attached engine has a CSR")
            .masked_count();
        if masked * 4 > m * MASK_MAX_MASKED_QUARTERS {
            s.invalidate();
            return Ok(());
        }
        s.changes.clear();
        s.changes
            .extend(s.toggle_scratch.iter().map(|&e| EdgeChange {
                edge: e,
                old_weight: s.last_weights[e.index()],
                was_enabled: !enabled,
            }));
        s.slot_changed.resize(s.last_dests.len(), false);
        let stats = match repair_dag_set(
            self.graph,
            s.in_csr.as_ref().expect("attached engine has a CSR"),
            &s.last_weights,
            &s.changes,
            &mut s.ws,
            &mut s.dags,
            &mut s.slot_changed,
        ) {
            Ok(stats) => stats,
            Err(e) => {
                s.invalidate();
                return Err(e);
            }
        };
        s.topology_builds += 1;
        if stats.dirty > 0 {
            s.spf_builds += 1;
        }
        s.note_repair(stats);
        Ok(())
    }

    /// The current DAG set (destinations of the last
    /// [`build_dags`](Self::build_dags) call).
    pub fn dag_set(&self) -> &DagSet {
        &self.state.dags
    }

    /// The split tables of the last
    /// [`distribute_into`](Self::distribute_into) call, aligned with the
    /// DAG destinations — the batched form of the paper's TABLE II rows.
    pub fn split_tables(&self) -> &SplitTableSet {
        &self.state.tables
    }

    /// A flow buffer shaped for reuse with
    /// [`distribute_into`](Self::distribute_into).
    pub fn distribute_fresh(&self) -> Flows {
        Flows::empty()
    }

    /// Algorithm 3 over the engine's current DAG set: routes the demand
    /// columns of the DAG destinations under `rule`, writing flows into
    /// `out` (reshaped as needed, zero allocations once warm) and split
    /// tables into the engine.
    ///
    /// The traffic matrix must cover the engine's graph; demand columns
    /// are taken for exactly the destinations the DAGs were built for.
    ///
    /// # Errors
    ///
    /// * [`SpefError::UnroutableDemand`] if a positive demand has no path
    ///   on its destination's DAG,
    /// * [`SpefError::InvalidInput`] if the rule's weight vector is
    ///   malformed.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` covers fewer nodes than the graph.
    ///
    /// # Incremental redistribution
    ///
    /// When `out` still holds exactly what this engine's previous
    /// successful call wrote (tracked by a freshness stamp that any
    /// mutation clears), the rule is bit-identical, and the DAG set only
    /// changed in slots the engine tracked, the call refreshes **only**
    /// the destinations whose DAG or demand column changed — rebuilding
    /// their split tables in place — and re-folds the aggregate from all
    /// columns in ascending destination order: the same additions, in
    /// the same order, as the dense kernel. Results are bit-identical
    /// either way; any precondition miss falls back to the dense path.
    pub fn distribute_into(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
        out: &mut Flows,
    ) -> Result<(), SpefError> {
        if self.try_distribute_incremental(traffic, rule, out)? {
            return Ok(());
        }
        let s = &mut self.state;
        s.tables_valid = false;
        s.out_stamp = 0;
        distribute_batch(
            self.graph,
            s.dags.destinations(),
            s.dags.iter(),
            traffic,
            rule,
            usize::MAX,
            &mut s.tables,
            &mut s.scratch,
            out,
            |_, _, _| Ok(()),
        )?;
        self.record_distribution(traffic, rule, out);
        Ok(())
    }

    /// Records the caches a successful dense distribution leaves behind
    /// for the next incremental one: the demand columns (bitwise), the
    /// rule fingerprint, and the output buffer's freshness stamp.
    fn record_distribution(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
        out: &mut Flows,
    ) {
        let s = &mut self.state;
        let d = s.dags.destinations().len();
        s.demand_cache.clear();
        s.demand_cache.extend_from_slice(traffic.as_row_major());
        s.demand_cache_valid = true;
        match rule {
            SplitRule::EvenEcmp => {
                s.last_rule_kind = RuleKind::Even;
                s.last_rule_v.clear();
            }
            SplitRule::Exponential(v) => {
                s.last_rule_kind = RuleKind::Exponential;
                s.last_rule_v.clear();
                s.last_rule_v.extend_from_slice(v);
            }
        }
        s.tables_valid = true;
        s.pending.clear();
        s.pending.resize(d, false);
        s.pending_all = false;
        s.out_stamp = next_flow_stamp();
        out.set_stamp(s.out_stamp);
    }

    /// The delta path of [`distribute_into`](Self::distribute_into).
    /// Returns `Ok(false)` when any precondition fails (caller runs the
    /// dense kernel); on `Ok(true)` the refresh completed and `out` was
    /// re-stamped. A distribution error invalidates every cache before
    /// propagating, so the next call runs dense.
    fn try_distribute_incremental(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
        out: &mut Flows,
    ) -> Result<bool, SpefError> {
        let s = &mut self.state;
        let rule_matches = match rule {
            SplitRule::EvenEcmp => s.last_rule_kind == RuleKind::Even,
            SplitRule::Exponential(v) => {
                s.last_rule_kind == RuleKind::Exponential
                    && v.len() == s.last_rule_v.len()
                    && v.iter()
                        .zip(&s.last_rule_v)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
        };
        if !s.dags_valid
            || !s.tables_valid
            || !s.demand_cache_valid
            || s.pending_all
            || !rule_matches
            || out.stamp() == 0
            || out.stamp() != s.out_stamp
            || !out.has_columns()
        {
            return Ok(false);
        }
        // The rule already matched a previously validated one bit for
        // bit, but run the dense path's validation anyway so the error
        // surface is identical by construction.
        validate_rule(self.graph, rule)?;
        let demands = traffic.as_row_major();
        if demands.len() != s.demand_cache.len() {
            return Ok(false);
        }
        let n = self.graph.node_count();
        let nt = traffic.node_count();
        let d = s.dags.destinations().len();
        debug_assert_eq!(s.pending.len(), d);
        debug_assert_eq!(s.tables.len(), d);
        // One contiguous bitwise compare of the whole matrix; only when it
        // differs are the destination columns compared one by one.
        let demands_changed = demands
            .iter()
            .zip(&s.demand_cache)
            .any(|(a, b)| a.to_bits() != b.to_bits());
        s.scratch.incoming.resize(n, 0.0);
        let (columns, aggregate) = out.parts_mut();
        debug_assert_eq!(columns.len(), d);
        for (i, col) in columns.iter_mut().enumerate() {
            let t = s.dags.destinations()[i].index();
            let demand_dirty = demands_changed
                && (0..nt).any(|src| {
                    demands[src * nt + t].to_bits() != s.demand_cache[src * nt + t].to_bits()
                });
            if !demand_dirty && !s.pending[i] {
                // Same DAG, same table, bit-identical demands: the cached
                // column is exactly what the dense kernel would recompute
                // (and its previous success proves no error either).
                continue;
            }
            let dag = s.dags.dag(i);
            if s.pending[i] {
                s.tables.rebuild_table(i, self.graph, &dag, rule);
            }
            traffic.demands_to_into(dag.target(), &mut s.scratch.demands);
            col.fill(0.0);
            if let Err(e) = distribute_one_into(
                self.graph,
                &dag,
                s.tables.table(i),
                &s.scratch.demands,
                &mut s.scratch.incoming,
                col,
            ) {
                s.drop_distribution_caches();
                return Err(e);
            }
        }
        if demands_changed {
            s.demand_cache.copy_from_slice(demands);
        }
        // Re-fold the aggregate from every column in ascending
        // destination order — the same additions, in the same order, as
        // `distribute_block` performs on the dense path.
        aggregate.fill(0.0);
        for col in columns.iter() {
            for (agg, f) in aggregate.iter_mut().zip(col.iter()) {
                *agg += f;
            }
        }
        s.pending.fill(false);
        s.out_stamp = next_flow_stamp();
        out.set_stamp(s.out_stamp);
        Ok(true)
    }

    /// Builds only the split tables (TABLE II rows) for the current DAG
    /// set under `rule`, without routing any traffic — the final
    /// forwarding-table materialisation step of Algorithm 4.
    ///
    /// # Errors
    ///
    /// [`SpefError::InvalidInput`] if the rule's weight vector is
    /// malformed.
    pub fn build_split_tables(&mut self, rule: SplitRule<'_>) -> Result<&SplitTableSet, SpefError> {
        validate_rule(self.graph, rule)?;
        let s = &mut self.state;
        // The tables no longer correspond to a recorded distribution.
        s.tables_valid = false;
        s.out_stamp = 0;
        s.tables.reset(self.graph.node_count());
        for dag in s.dags.iter() {
            s.tables.push_table(self.graph, &dag, rule);
        }
        Ok(&s.tables)
    }

    /// The routing pass of every solver: builds the DAGs of `dests` and
    /// distributes `traffic` over them under `rule`, in chunks of at most
    /// `tile` destinations, into `out`.
    ///
    /// A chunk covering every destination is exactly
    /// [`build_dags`](Self::build_dags) +
    /// [`distribute_into`](Self::distribute_into), so the skip fingerprint,
    /// the local SPF repair and the incremental distribution all serve it,
    /// and `out` keeps its per-destination columns. Smaller chunks build
    /// into the same arenas one after another (peak O(tile·edges) instead
    /// of O(dests·edges)), leave the fingerprint describing the last
    /// chunk, and fold into the **global** aggregate destination by
    /// destination in ascending order — bit-identical for every tile size.
    /// There, `keep_per_dest` keeps the per-destination columns of `out`
    /// (Frank–Wolfe needs them for its blend updates); without it `out`
    /// holds the aggregate only and [`Flows::for_destination`] returns
    /// `None`.
    ///
    /// `on_tile(offset, chunk dests, chunk dags, chunk tables)` fires
    /// after each chunk while its arenas are live — callers fold
    /// per-destination quantities (dual terms) there.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build_dags`](Self::build_dags) and
    /// [`distribute_into`](Self::distribute_into), plus whatever
    /// `on_tile` returns.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero or `traffic` covers fewer nodes than the
    /// graph.
    #[allow(clippy::too_many_arguments)]
    pub fn distribute_tiled<F>(
        &mut self,
        weights: &[f64],
        dests: &[NodeId],
        tolerance: f64,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
        tile: usize,
        keep_per_dest: bool,
        out: &mut Flows,
        mut on_tile: F,
    ) -> Result<(), SpefError>
    where
        F: FnMut(usize, &[NodeId], &DagSet, &SplitTableSet) -> Result<(), SpefError>,
    {
        assert!(tile > 0, "tile size must be at least 1");
        validate_rule(self.graph, rule)?;
        if tile >= dests.len() {
            self.build_dags(weights, dests, tolerance)?;
            self.distribute_into(traffic, rule, out)?;
            return on_tile(0, dests, &self.state.dags, &self.state.tables);
        }
        let m = self.graph.edge_count();
        if keep_per_dest {
            out.reset(dests, m);
        } else {
            out.reset_aggregate(dests, m);
        }
        // The chunks overwrite the split tables; no distribution cache
        // describes them any more.
        self.state.drop_distribution_caches();
        let mut offset = 0;
        for chunk in dests.chunks(tile) {
            self.build_dags(weights, chunk, tolerance)?;
            let s = &mut self.state;
            s.tables.reset(self.graph.node_count());
            let (columns, aggregate) = out.parts_mut();
            distribute_block(
                self.graph,
                chunk,
                s.dags.iter(),
                traffic,
                rule,
                &mut s.tables,
                &mut s.scratch,
                keep_per_dest.then(|| &mut columns[offset..offset + chunk.len()]),
                aggregate,
            )?;
            on_tile(offset, chunk, &s.dags, &s.tables)?;
            offset += chunk.len();
        }
        Ok(())
    }

    /// Convenience wrapper around
    /// [`distribute_into`](Self::distribute_into) returning an owned
    /// [`Flows`] (allocating; iterating callers should hold a buffer).
    ///
    /// # Errors
    ///
    /// Same conditions as [`distribute_into`](Self::distribute_into).
    pub fn distribute(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
    ) -> Result<Flows, SpefError> {
        let mut out = Flows::empty();
        self.distribute_into(traffic, rule, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic_dist::{build_dags, traffic_distribution};
    use spef_topology::standard;

    #[test]
    fn engine_matches_legacy_wrappers_exactly() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let g = net.graph();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();

        let dags = build_dags(g, &w, &dests, 0.0).unwrap();
        let legacy = traffic_distribution(g, &dags, &tm, SplitRule::EvenEcmp).unwrap();

        let mut engine = RoutingEngine::new(g);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        assert_eq!(flows.aggregate(), legacy.aggregate());
        for &t in &dests {
            assert_eq!(flows.for_destination(t), legacy.for_destination(t));
        }
    }

    #[test]
    fn buffers_are_reused_across_iterations() {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let dests = tm.destinations();
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        let mut last = Vec::new();
        for k in 1..=4u32 {
            let w: Vec<f64> = (0..net.link_count())
                .map(|e| 1.0 + (e as f64) * 0.1 * k as f64)
                .collect();
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            last = flows.aggregate().to_vec();
        }
        // Matches a from-scratch computation of the final iteration.
        let w: Vec<f64> = (0..net.link_count())
            .map(|e| 1.0 + (e as f64) * 0.4)
            .collect();
        let dags = build_dags(net.graph(), &w, &dests, 0.0).unwrap();
        let fresh = traffic_distribution(net.graph(), &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(last, fresh.aggregate());
    }

    #[test]
    fn bit_identical_weights_skip_the_spf_batch() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut engine = RoutingEngine::new(net.graph());

        engine.build_dags(&w, &dests, 0.0).unwrap();
        assert_eq!(engine.spf_builds(), 1);
        // Same weights (a fresh but bit-identical vector), same dests,
        // same tolerance: skipped.
        engine.build_dags(&w.clone(), &dests, 0.0).unwrap();
        assert_eq!(engine.spf_builds(), 1);
        // Any bit change re-runs.
        let mut w2 = w.clone();
        w2[0] *= 1.0 + 1e-12;
        engine.build_dags(&w2, &dests, 0.0).unwrap();
        assert_eq!(engine.spf_builds(), 2);
        // Tolerance change re-runs even with identical weights.
        engine.build_dags(&w2, &dests, 1e-9).unwrap();
        assert_eq!(engine.spf_builds(), 3);
        // Destination-set change re-runs.
        engine
            .build_dags(&w2, &dests[..dests.len() - 1], 1e-9)
            .unwrap();
        assert_eq!(engine.spf_builds(), 4);

        // The skipped call left a usable DAG set behind.
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut again = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut again)
            .unwrap();
        assert_eq!(flows.aggregate(), again.aggregate());
    }

    #[test]
    fn state_round_trip_preserves_fingerprint_on_same_topology() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w = vec![1.0; net.link_count()];

        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let state = engine.into_state();
        assert_eq!(state.spf_builds(), 1);

        // Re-attach to the same graph: the fingerprint survives, so an
        // identical build is skipped.
        let mut engine = RoutingEngine::with_state(net.graph(), state);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        assert_eq!(engine.spf_builds(), 1);

        // Attach to a different topology: cold fallback, the build runs.
        let other = standard::fig1();
        let other_tm = standard::fig1_demands();
        let ow = vec![1.0; other.link_count()];
        let mut engine = RoutingEngine::with_state(other.graph(), engine.into_state());
        engine
            .build_dags(&ow, &other_tm.destinations(), 0.0)
            .unwrap();
        assert_eq!(engine.spf_builds(), 2);

        // And its results match a fresh engine's bit for bit.
        let mut fresh = RoutingEngine::new(other.graph());
        fresh
            .build_dags(&ow, &other_tm.destinations(), 0.0)
            .unwrap();
        let mut a = engine.distribute_fresh();
        engine
            .distribute_into(&other_tm, SplitRule::EvenEcmp, &mut a)
            .unwrap();
        let mut b = fresh.distribute_fresh();
        fresh
            .distribute_into(&other_tm, SplitRule::EvenEcmp, &mut b)
            .unwrap();
        assert_eq!(a.aggregate(), b.aggregate());
    }

    /// One full build+distribute cycle on a fresh engine (whose first
    /// build is always dense); the reference every incremental test
    /// compares against.
    fn dense_reference(
        net: &spef_topology::Network,
        tm: &TrafficMatrix,
        dests: &[NodeId],
        w: &[f64],
        tol: f64,
    ) -> Flows {
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(w, dests, tol).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        flows
    }

    #[test]
    fn incremental_single_weight_probe_matches_dense() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();

        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        // A Fortz–Thorup-style probe loop: one weight changes per step.
        for e in 0..net.link_count() {
            w[e] *= 3.0;
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            let fresh = dense_reference(&net, &tm, &dests, &w, 0.0);
            assert_eq!(flows, fresh, "probe on edge {e} diverged from dense");
            // Revert — again a single-weight delta.
            w[e] /= 3.0;
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
        }
        let stats = engine.spf_stats();
        assert!(
            stats.incremental_builds > 0,
            "probe loop never took the incremental path: {stats:?}"
        );
        assert!(stats.slots_rebuilt < stats.incremental_builds * dests.len() as u64);
    }

    #[test]
    fn incremental_respects_equal_cost_tolerance() {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let dests = tm.destinations();
        let tol = 0.5;
        let mut w = vec![1.0; net.link_count()];

        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, tol).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        // Nudge a weight by less than the tolerance: the edge may enter or
        // leave equal-cost DAGs without changing any shortest distance.
        for e in 0..net.link_count() {
            w[e] += 0.25;
            engine.build_dags(&w, &dests, tol).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, tol));
        }
    }

    #[test]
    fn incremental_tracks_demand_changes() {
        let net = standard::fig4();
        let mut tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w = vec![1.0; net.link_count()];
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        // Change one demand entry and redistribute with unchanged DAGs:
        // only that destination's column may be stale.
        let (src, t, old) = tm.pairs().next().unwrap();
        tm.set(src, t, old + 1.5);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, 0.0));
    }

    #[test]
    fn incremental_survives_buffer_swap_and_mutation() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let mut w = vec![1.0; net.link_count()];
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        // Mutating the buffer (external scaling) clears its stamp; the
        // next call must fall back dense, not trust stale columns.
        let ratios = vec![1.0; dests.len()];
        flows.scale_per_destination(&ratios);
        w[0] = 2.0;
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, 0.0));

        // A different (unstamped) buffer also falls back dense.
        w[1] = 3.0;
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut other = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut other)
            .unwrap();
        assert_eq!(other, dense_reference(&net, &tm, &dests, &w, 0.0));
    }

    #[test]
    fn fail_restore_matches_cold_engines_on_both_topologies() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();

        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        let mut probed = 0;
        for e in 0..net.link_count() {
            let circuit = [spef_graph::EdgeId::new(e)];
            // Skip cut links; the mask would disconnect the network.
            let Ok((degraded, kept)) = net.without_links(&circuit) else {
                continue;
            };
            probed += 1;
            engine.fail_links(&circuit).unwrap();
            // Same weights, same dests: the fingerprint skips the batch.
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();

            // Cold dense engine over the physically degraded topology,
            // weights remapped through the kept-edge list.
            let dw: Vec<f64> = kept.iter().map(|&ke| w[ke.index()]).collect();
            let cold = dense_reference(&degraded, &tm, &dests, &dw, 0.0);
            let mut mapped = vec![0.0f64; net.link_count()];
            for (j, &ke) in kept.iter().enumerate() {
                mapped[ke.index()] = cold.aggregate()[j];
            }
            for (i, (a, b)) in flows.aggregate().iter().zip(&mapped).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "edge {i} diverged with link {e} failed"
                );
            }

            // Restore: back to the intact answer, bit for bit.
            engine.restore_links(&circuit).unwrap();
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, 0.0));
        }
        assert!(probed > 0, "no single-link circuit kept fig4 connected");
        let stats = engine.spf_stats();
        assert!(
            stats.topology_builds > 0,
            "never patched in place: {stats:?}"
        );
        assert_eq!(stats.masked_links, probed);
        assert_eq!(engine.masked_links(), 0);
    }

    #[test]
    fn fail_links_is_idempotent_and_checks_ids() {
        let net = standard::fig4();
        let mut engine = RoutingEngine::new(net.graph());
        let bad = spef_graph::EdgeId::new(net.link_count());
        assert!(matches!(
            engine.fail_links(&[bad]),
            Err(GraphError::LinkOutOfRange { .. })
        ));
        let e = spef_graph::EdgeId::new(0);
        engine.fail_links(&[e]).unwrap();
        engine.fail_links(&[e, e]).unwrap();
        assert_eq!(engine.masked_links(), 1);
        assert_eq!(engine.spf_stats().masked_links, 1);
        engine.restore_links(&[e]).unwrap();
        engine.restore_links(&[e]).unwrap();
        assert_eq!(engine.masked_links(), 0);
    }

    #[test]
    fn fail_links_before_first_build_matches_cold() {
        // No cached build to patch: the mask only invalidates, and the
        // first build runs dense over the masked view.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut engine = RoutingEngine::new(net.graph());
        let circuit = [spef_graph::EdgeId::new(0)];
        let (degraded, kept) = net.without_links(&circuit).unwrap();
        engine.fail_links(&circuit).unwrap();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        let dw: Vec<f64> = kept.iter().map(|&ke| w[ke.index()]).collect();
        let cold = dense_reference(&degraded, &tm, &dests, &dw, 0.0);
        let mut mapped = vec![0.0f64; net.link_count()];
        for (j, &ke) in kept.iter().enumerate() {
            mapped[ke.index()] = cold.aggregate()[j];
        }
        for (a, b) in flows.aggregate().iter().zip(&mapped) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(engine.spf_stats().topology_builds, 0);
    }

    #[test]
    fn split_tables_align_with_destinations() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w = vec![1.0; net.link_count()];
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        assert_eq!(engine.split_tables().len(), dests.len());
        for (i, _) in dests.iter().enumerate() {
            let table = engine.split_tables().table(i);
            let dag = engine.dag_set().dag(i);
            for u in net.graph().nodes() {
                let hops = table.next_hops(u);
                if !hops.is_empty() {
                    let sum: f64 = hops.iter().map(|&(_, r)| r).sum();
                    assert!((sum - 1.0).abs() < 1e-9);
                    assert_eq!(hops.len(), dag.successors(u).len());
                }
            }
        }
    }
}
