//! `TrafficDistribution` — Algorithm 3 of the paper.
//!
//! Given the per-destination shortest-path DAGs `ON_t` (built from the
//! *first* link weights) and a split rule, this module computes the exact
//! link flows that hop-by-hop forwarding produces:
//!
//! * [`SplitRule::EvenEcmp`] — OSPF behaviour: traffic toward `t` splits
//!   evenly over all next hops on shortest paths;
//! * [`SplitRule::Exponential`] — SPEF behaviour (Eq. 22): traffic splits
//!   over next hops proportionally to `Σ_paths e^(−len₂(path))` where
//!   `len₂` is the path length under the *second* weights.
//!
//! The paper's TABLE II materialises, per (router, destination), the list
//! of second-weight path lengths through each next hop; enumerating paths
//! is exponential, so we instead evaluate the identical quantity with the
//! DAG recursion
//!
//! ```text
//! Z_t(t) = 1,   Z_t(u) = Σ_{(u,x) ∈ ON_t} e^(−v_ux) · Z_t(x)
//! ```
//!
//! giving `Γ_t(s, k) ∝ e^(−v_{s,n_k}) · Z_t(n_k)` — exactly Eq. (22),
//! computed in `O(|J|)` per destination (in log-space for numerical
//! stability).
//!
//! Nodes are processed "in the decreasing distance order" exactly as
//! Algorithm 3 prescribes, so each node's incoming flow
//! `d̄_st = d_st + Σ_{(j,s)} f^t_js` is complete before its outgoing flow
//! is assigned.
//!
//! Two execution paths produce identical results:
//!
//! * the **legacy per-destination path** ([`build_dags`] →
//!   [`traffic_distribution`]) with owned [`ShortestPathDag`]s and
//!   [`SplitTable`]s — the readable reference;
//! * the **batched path** ([`crate::RoutingEngine`]) where DAGs, split
//!   tables and flows live in flat reusable arenas ([`SplitTableSet`])
//!   and a solver iteration performs zero steady-state allocations.
//!
//! Both funnel through the same distribution kernel, generic over
//! [`DagAccess`], and the public wrappers here now ride the batched CSR
//! engine internally.

use spef_graph::batch::{build_dag_set, DagAccess, DagSet, Parallelism, RoutingWorkspace};
use spef_graph::{Csr, EdgeId, Graph, GraphError, NodeId, ShortestPathDag};
use spef_topology::TrafficMatrix;

use crate::SpefError;

/// How a router splits traffic across the equal-cost next hops of one
/// destination.
#[derive(Debug, Clone, Copy)]
pub enum SplitRule<'a> {
    /// OSPF ECMP: even split over all shortest-path next hops.
    EvenEcmp,
    /// SPEF: exponential split driven by the second link weights
    /// (one `f64` per edge).
    Exponential(&'a [f64]),
}

/// Per-destination split ratios on a shortest-path DAG, plus the log-domain
/// path sums `log Z_t(u)` used by the NEM dual objective.
#[derive(Debug, Clone)]
pub struct SplitTable {
    /// `ratios[u]` lists `(edge, fraction)` for every DAG successor edge of
    /// `u`; fractions sum to 1 for reachable non-target nodes.
    ratios: Vec<Vec<(EdgeId, f64)>>,
    /// `log Σ_paths e^(−len₂(path))` from each node to the target
    /// (`0` at the target, `−∞` when unreachable). Under
    /// [`SplitRule::EvenEcmp`] the convention `v = 0` applies, so this is
    /// `log(#paths)`.
    log_path_sum: Vec<f64>,
}

impl SplitTable {
    /// Builds the split table for one destination DAG.
    ///
    /// # Errors
    ///
    /// Returns [`SpefError::InvalidInput`] if an [`SplitRule::Exponential`]
    /// weight vector has the wrong length or contains negative/NaN entries.
    pub fn build(
        graph: &Graph,
        dag: &ShortestPathDag,
        rule: SplitRule<'_>,
    ) -> Result<SplitTable, SpefError> {
        if let SplitRule::Exponential(v) = rule {
            if v.len() != graph.edge_count() {
                return Err(SpefError::InvalidInput(format!(
                    "second weight vector has length {}, expected {}",
                    v.len(),
                    graph.edge_count()
                )));
            }
            if let Some((i, &w)) = v.iter().enumerate().find(|(_, &w)| w.is_nan() || w < 0.0) {
                return Err(SpefError::InvalidInput(format!(
                    "second weight of edge e{i} is {w}"
                )));
            }
        }

        let n = graph.node_count();
        let mut ratios = vec![Vec::new(); n];
        let mut log_z = vec![f64::NEG_INFINITY; n];
        log_z[dag.target().index()] = 0.0;

        // Increasing distance: reverse of the decreasing-distance order.
        for &u in dag.nodes_by_decreasing_distance().iter().rev() {
            if u == dag.target() {
                continue;
            }
            let succ = dag.successors(u);
            if succ.is_empty() {
                continue; // stranded node; caught later only if it has demand
            }
            // Per-successor log-terms: -v_e + log Z(next).
            let terms: Vec<(EdgeId, f64)> = succ
                .iter()
                .map(|&e| {
                    let x = graph.target(e);
                    let v_e = match rule {
                        SplitRule::EvenEcmp => 0.0,
                        SplitRule::Exponential(v) => v[e.index()],
                    };
                    (e, -v_e + log_z[x.index()])
                })
                .collect();
            let max_term = terms
                .iter()
                .map(|&(_, t)| t)
                .fold(f64::NEG_INFINITY, f64::max);
            if max_term == f64::NEG_INFINITY {
                continue; // all successors stranded
            }
            let sum_exp: f64 = terms.iter().map(|&(_, t)| (t - max_term).exp()).sum();
            let lz = max_term + sum_exp.ln();
            log_z[u.index()] = lz;
            ratios[u.index()] = terms
                .into_iter()
                .map(|(e, t)| (e, (t - lz).exp()))
                .collect();
        }

        Ok(SplitTable {
            ratios,
            log_path_sum: log_z,
        })
    }

    /// The `(edge, fraction)` next-hop entries of node `u` — one row of the
    /// paper's TABLE II forwarding table, already reduced to split ratios.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn next_hops(&self, u: NodeId) -> &[(EdgeId, f64)] {
        &self.ratios[u.index()]
    }

    /// `log Σ_k e^(−v^r_k)` over all equal-cost shortest paths from `u` to
    /// the target — the per-pair partition function of the NEM dual.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn log_path_sum(&self, u: NodeId) -> f64 {
        self.log_path_sum[u.index()]
    }

    /// Materialises an owned table from an arena-backed view.
    fn from_ref(view: SplitTableRef<'_>, n: usize) -> SplitTable {
        SplitTable {
            ratios: (0..n)
                .map(|u| view.next_hops(NodeId::new(u)).to_vec())
                .collect(),
            log_path_sum: view.log_z.to_vec(),
        }
    }
}

/// Split tables for a whole destination set, stored as flat arenas.
///
/// The batched analogue of `Vec<SplitTable>`: per-destination rows live in
/// contiguous blocks of shared vectors, reused across
/// [`crate::RoutingEngine::distribute_into`] calls so the NEM / Frank–Wolfe
/// iteration loops allocate nothing in the steady state. Access
/// per-destination views through [`SplitTableSet::table`].
#[derive(Debug, Clone, Default)]
pub struct SplitTableSet {
    n: usize,
    count: usize,
    /// `(start, len)` per `(dest, node)`, relative to the destination's
    /// block of `entries` — spans rather than prefix offsets because rows
    /// are produced in decreasing-distance order, not node-id order, and
    /// relative so a block moves without touching its spans.
    spans: Vec<(usize, usize)>,
    /// `(start, len)` of each destination's block of rows in `entries`.
    blocks: Vec<(usize, usize)>,
    entries: Vec<(EdgeId, f64)>,
    /// `log Z_t(u)` per `(dest, node)`.
    log_z: Vec<f64>,
    /// Entry slots no block covers: the tails of blocks that
    /// [`SplitTableSet::rebuild_table`] rewrote shorter, and whole blocks
    /// it moved to the end of the arena because they grew. Once garbage
    /// exceeds a quarter of the live entries the arena is compacted,
    /// which keeps its high-water mark near the dense build's.
    garbage: usize,
    /// Reused scratch of [`SplitTableSet::compact`]: the destination
    /// indices in arena order of their blocks.
    live: Vec<usize>,
    /// Reused per-node scratch of [`SplitTableSet::rebuild_table`]
    /// (`VISITED` / `Z_CHANGED` bits).
    row_state: Vec<u8>,
    /// Reused scratch of [`SplitTableSet::rebuild_table`]: one grown row
    /// parked while its block moves.
    row_buf: Vec<(EdgeId, f64)>,
}

/// [`SplitTableSet::rebuild_table`]: the node is reachable on the new DAG.
const VISITED: u8 = 1;
/// [`SplitTableSet::rebuild_table`]: the node's log path sum changed.
const Z_CHANGED: u8 = 2;

impl SplitTableSet {
    /// Creates an empty set; arenas grow on first use.
    pub fn new() -> SplitTableSet {
        SplitTableSet::default()
    }

    /// Number of destinations covered.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if the set covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A cheap view of destination `i`'s split table.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn table(&self, i: usize) -> SplitTableRef<'_> {
        assert!(i < self.count, "table index {i} out of range");
        let (start, len) = self.blocks[i];
        SplitTableRef {
            spans: &self.spans[i * self.n..(i + 1) * self.n],
            entries: &self.entries[start..start + len],
            log_z: &self.log_z[i * self.n..(i + 1) * self.n],
        }
    }

    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.count = 0;
        self.spans.clear();
        self.blocks.clear();
        self.entries.clear();
        self.log_z.clear();
        self.garbage = 0;
    }

    /// Bytes currently reserved by the split-table arenas (capacity, not
    /// length) — a high-water mark, since `Vec` capacity never shrinks
    /// across `reset` calls.
    pub fn arena_bytes(&self) -> usize {
        (self.spans.capacity() + self.blocks.capacity()) * std::mem::size_of::<(usize, usize)>()
            + self.entries.capacity() * std::mem::size_of::<(EdgeId, f64)>()
            + self.log_z.capacity() * std::mem::size_of::<f64>()
            + self.live.capacity() * std::mem::size_of::<usize>()
            + self.row_state.capacity()
            + self.row_buf.capacity() * std::mem::size_of::<(EdgeId, f64)>()
    }

    /// Appends the split table of one destination DAG. Mirrors
    /// [`SplitTable::build`] operation for operation so ratios and log
    /// path sums come out bit-identical; the rule's weight vector must be
    /// pre-validated.
    pub(crate) fn push_table<D: DagAccess>(&mut self, graph: &Graph, dag: &D, rule: SplitRule<'_>) {
        let n = self.n;
        let span_base = self.spans.len();
        self.spans.resize(span_base + n, (0, 0));
        self.log_z.resize(span_base + n, f64::NEG_INFINITY);
        let start = self.entries.len();
        self.build_block(self.count, graph, dag, rule);
        self.blocks.push((start, self.entries.len() - start));
        self.count += 1;
    }

    /// Rebuilds destination `i`'s split table **in place** against its
    /// (freshly repaired) DAG — the delta step of the incremental
    /// distribution path. A node's row is a function of its successor
    /// list and its successors' log path sums, so walking the DAG in
    /// increasing distance, a row whose successors are unchanged and
    /// whose successors' log path sums are bit-identical is kept as it
    /// is; only the rest are recomputed. A recomputed row overwrites its
    /// old one when it fits. Otherwise the destination's block moves to
    /// the end of the arena (packed, leaving the old block as garbage) and
    /// grown rows are appended behind it. The arena compacts once garbage
    /// exceeds a quarter of the live rows, and before a move that would
    /// otherwise grow it. Recomputed rows
    /// run the exact operation
    /// sequence of [`SplitTableSet::push_table`], so a rebuilt table is
    /// bit-identical to a dense rebuild of the whole set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub(crate) fn rebuild_table<D: DagAccess>(
        &mut self,
        i: usize,
        graph: &Graph,
        dag: &D,
        rule: SplitRule<'_>,
    ) {
        assert!(i < self.count, "table index {i} out of range");
        let n = self.n;
        let span_base = i * n;
        let (mut block, mut block_len) = self.blocks[i];
        let mut moved = false;
        self.row_state.clear();
        self.row_state.resize(n, 0);
        let target = dag.dag_target();
        for &u in dag.dag_order_desc().iter().rev() {
            self.row_state[u.index()] = VISITED;
            if u == target {
                continue;
            }
            let succ = dag.dag_successors(u);
            let (row, len) = self.spans[span_base + u.index()];
            let kept = len > 0
                && len == succ.len()
                && self.entries[block + row..block + row + len]
                    .iter()
                    .zip(succ)
                    .all(|(&(e, _), &s)| e == s)
                && succ
                    .iter()
                    .all(|&e| self.row_state[graph.target(e).index()] & Z_CHANGED == 0);
            if kept {
                continue;
            }
            let old_lz = self.log_z[span_base + u.index()];
            self.log_z[span_base + u.index()] = f64::NEG_INFINITY;
            let at = self.entries.len();
            let new_len = self.push_row(span_base, graph, u, succ, rule);
            if self.log_z[span_base + u.index()].to_bits() != old_lz.to_bits() {
                self.row_state[u.index()] |= Z_CHANGED;
            }
            let new_row = if new_len == 0 {
                0
            } else if new_len <= len {
                self.entries.copy_within(at.., block + row);
                self.entries.truncate(at);
                row
            } else if moved {
                at - block
            } else {
                // Park the row, move the block behind it, then append the
                // row to the moved block.
                self.row_buf.clear();
                self.row_buf.extend_from_slice(&self.entries[at..]);
                self.entries.truncate(at);
                self.spans[span_base + u.index()] = (0, 0);
                // Reclaim the garbage rather than grow the arena for the
                // move (the block's own start moves with the compaction).
                if self.garbage > 0
                    && self.entries.len() + block_len + new_len > self.entries.capacity()
                {
                    self.compact();
                    block = self.blocks[i].0;
                }
                self.garbage += block_len;
                (block, block_len) = self.move_block(span_base, block);
                moved = true;
                self.entries.extend_from_slice(&self.row_buf);
                block_len
            };
            if moved {
                block_len = self.entries.len() - block;
            }
            self.spans[span_base + u.index()] = (new_row, new_len);
        }
        // Nodes that no longer reach the target keep no row.
        for (u, &state) in self.row_state.iter().enumerate() {
            if state == 0 {
                self.spans[span_base + u] = (0, 0);
                self.log_z[span_base + u] = f64::NEG_INFINITY;
            }
        }
        self.blocks[i] = (block, block_len);
        if self.garbage * 4 > self.entries.len() - self.garbage {
            self.compact();
        }
    }

    /// Copies every row of the block at `block` (spans at `span_base`) to
    /// the end of the arena, packed in node order, and repoints the
    /// spans; returns the new block's `(start, len)`.
    fn move_block(&mut self, span_base: usize, block: usize) -> (usize, usize) {
        let start = self.entries.len();
        for span in &mut self.spans[span_base..span_base + self.n] {
            let (row, len) = *span;
            if len > 0 {
                let at = self.entries.len();
                self.entries
                    .extend_from_within(block + row..block + row + len);
                *span = (at - start, len);
            }
        }
        (start, self.entries.len() - start)
    }

    /// Left-compacts the destination blocks (in arena order, each block's
    /// rows moved as one piece, so the block-relative spans stay valid)
    /// and drops the garbage: `O(entries)` moves plus a sort of the block
    /// starts.
    fn compact(&mut self) {
        let blocks = &self.blocks;
        self.live.clear();
        self.live.extend(0..self.count);
        self.live.sort_unstable_by_key(|&i| blocks[i].0);
        let mut write = 0usize;
        for &i in &self.live {
            let (start, len) = self.blocks[i];
            self.entries.copy_within(start..start + len, write);
            self.blocks[i] = (write, len);
            write += len;
        }
        self.entries.truncate(write);
        self.garbage = 0;
    }

    /// The row-construction body of [`SplitTableSet::push_table`]: fills
    /// block `block`'s spans and log-Z slots (which must already be
    /// cleared) by appending entry rows to the arena, mirroring
    /// [`SplitTable::build`] operation for operation.
    fn build_block<D: DagAccess>(
        &mut self,
        block: usize,
        graph: &Graph,
        dag: &D,
        rule: SplitRule<'_>,
    ) {
        let span_base = block * self.n;
        let start = self.entries.len();
        let target = dag.dag_target();
        self.log_z[span_base + target.index()] = 0.0;
        for &u in dag.dag_order_desc().iter().rev() {
            if u != target {
                let at = self.entries.len();
                let len = self.push_row(span_base, graph, u, dag.dag_successors(u), rule);
                if len > 0 {
                    self.spans[span_base + u.index()] = (at - start, len);
                }
            }
        }
    }

    /// Appends node `u`'s row over its DAG successors `succ` to the arena
    /// and sets its log path sum (its log-Z slot must be cleared and its
    /// successors' final); returns the row length, 0 for a node with no
    /// live next hop.
    // Forced inline: the per-row kernel of every dense table build; as an
    // out-of-line call it cost about a tenth of the build.
    #[inline(always)]
    fn push_row(
        &mut self,
        span_base: usize,
        graph: &Graph,
        u: NodeId,
        succ: &[EdgeId],
        rule: SplitRule<'_>,
    ) -> usize {
        let term = |e: EdgeId| {
            let v_e = match rule {
                SplitRule::EvenEcmp => 0.0,
                SplitRule::Exponential(v) => v[e.index()],
            };
            -v_e + self.log_z[span_base + graph.target(e).index()]
        };
        let start = self.entries.len();
        if let &[e] = succ {
            // One next hop: the softmax of a single finite term `t` is
            // `exp(t − t) = 1`, so log Z = t + ln 1 = t + 0.0 (which also
            // maps a −0.0 term to +0.0) and the ratio is exactly 1.0 —
            // the general path's values, without `exp`/`ln`.
            let t = term(e);
            if t == f64::NEG_INFINITY {
                return 0; // stranded successor
            }
            self.log_z[span_base + u.index()] = t + 0.0;
            self.entries.push((e, 1.0));
            return 1;
        }
        if succ.is_empty() {
            return 0;
        }
        for &e in succ {
            self.entries.push((e, term(e)));
        }
        let max_term = self.entries[start..]
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::NEG_INFINITY, f64::max);
        if max_term == f64::NEG_INFINITY {
            self.entries.truncate(start);
            return 0; // all successors stranded
        }
        let sum_exp: f64 = self.entries[start..]
            .iter()
            .map(|&(_, t)| (t - max_term).exp())
            .sum();
        let lz = max_term + sum_exp.ln();
        self.log_z[span_base + u.index()] = lz;
        for slot in &mut self.entries[start..] {
            slot.1 = (slot.1 - lz).exp();
        }
        succ.len()
    }
}

/// A borrowed view of one destination's split table inside a
/// [`SplitTableSet`]; mirrors the accessor surface of [`SplitTable`].
#[derive(Debug, Clone, Copy)]
pub struct SplitTableRef<'a> {
    spans: &'a [(usize, usize)],
    entries: &'a [(EdgeId, f64)],
    log_z: &'a [f64],
}

impl<'a> SplitTableRef<'a> {
    /// The `(edge, fraction)` next-hop entries of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn next_hops(&self, u: NodeId) -> &'a [(EdgeId, f64)] {
        let (start, len) = self.spans[u.index()];
        &self.entries[start..start + len]
    }

    /// `log Σ_k e^(−v^r_k)` from `u` to the target.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn log_path_sum(&self, u: NodeId) -> f64 {
        self.log_z[u.index()]
    }
}

/// Reusable scratch for the distribution kernel: the per-destination
/// demand column, the in-transit flow accumulator, and the flow column of
/// aggregate-only (chunked) distributions.
#[derive(Debug, Default)]
pub(crate) struct DistScratch {
    pub(crate) demands: Vec<f64>,
    pub(crate) incoming: Vec<f64>,
    pub(crate) column: Vec<f64>,
}

/// Monotone counter behind [`Flows`] freshness stamps: each successful
/// engine distribution stamps its output buffer with a fresh value, and
/// any mutation clears the stamp — so a stamp match proves the buffer
/// still holds exactly the columns the engine last wrote (the
/// precondition of the incremental re-distribution path, whose cache *is*
/// the caller's buffer).
static FLOW_STAMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

pub(crate) fn next_flow_stamp() -> u64 {
    FLOW_STAMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The flows produced by a traffic distribution: per-destination edge flows
/// and their aggregate.
#[derive(Debug, Clone, Default)]
pub struct Flows {
    dests: Vec<NodeId>,
    per_dest: Vec<Vec<f64>>,
    aggregate: Vec<f64>,
    /// Freshness stamp (see [`next_flow_stamp`]); `0` = unstamped. Every
    /// mutating method clears it; only the engine sets it. Excluded from
    /// equality — it is an identity token, not data.
    stamp: u64,
}

impl PartialEq for Flows {
    fn eq(&self, other: &Flows) -> bool {
        self.dests == other.dests
            && self.per_dest == other.per_dest
            && self.aggregate == other.aggregate
    }
}

impl Flows {
    /// The destinations (commodities), in ascending node order.
    pub fn destinations(&self) -> &[NodeId] {
        &self.dests
    }

    /// Edge flows of the commodity destined to `t`, if `t` is a commodity
    /// and the per-destination columns were kept (tiled aggregate-only
    /// distributions drop them to bound peak memory).
    pub fn for_destination(&self, t: NodeId) -> Option<&[f64]> {
        self.dests
            .iter()
            .position(|&d| d == t)
            .and_then(|i| self.per_dest.get(i))
            .map(|f| f.as_slice())
    }

    /// Aggregate edge flows `f_e = Σ_t f^t_e`.
    pub fn aggregate(&self) -> &[f64] {
        &self.aggregate
    }

    /// Consumes the flows, returning the aggregate vector.
    pub fn into_aggregate(self) -> Vec<f64> {
        self.aggregate
    }

    /// Assembles a `Flows` value from per-destination flow vectors,
    /// computing the aggregate — the constructor external routing schemes
    /// (e.g. the PEFT baseline) use to interoperate with the metrics and
    /// simulator APIs.
    ///
    /// # Panics
    ///
    /// Panics if `per_dest` is misaligned with `dests` or the per-
    /// destination vectors have inconsistent lengths.
    pub fn assemble(dests: Vec<NodeId>, per_dest: Vec<Vec<f64>>, aggregate: Vec<f64>) -> Flows {
        assert_eq!(
            dests.len(),
            per_dest.len(),
            "one flow vector per destination"
        );
        for f in &per_dest {
            assert_eq!(f.len(), aggregate.len(), "flow vector length mismatch");
        }
        Flows {
            dests,
            per_dest,
            aggregate,
            stamp: 0,
        }
    }

    pub(crate) fn new_unchecked(
        dests: Vec<NodeId>,
        per_dest: Vec<Vec<f64>>,
        aggregate: Vec<f64>,
    ) -> Flows {
        Flows {
            dests,
            per_dest,
            aggregate,
            stamp: 0,
        }
    }

    /// The freshness stamp (`0` = no engine distribution owns this
    /// buffer's contents).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Marks the buffer as holding exactly what an engine distribution
    /// just wrote. Only [`crate::RoutingEngine`] calls this.
    pub(crate) fn set_stamp(&mut self, stamp: u64) {
        self.stamp = stamp;
    }

    /// The flow vector of destination *index* `i` (aligned with
    /// [`Flows::destinations`]) — positional access for callers that walk
    /// all commodities, avoiding the by-node scan of
    /// [`Flows::for_destination`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn column(&self, i: usize) -> &[f64] {
        &self.per_dest[i]
    }

    /// Clones `src` into `self`, reusing existing allocations (clear +
    /// extend per vector) — the snapshot copy behind the failure-chain
    /// warm start's base solution, kept allocation-free once shaped.
    pub(crate) fn copy_from(&mut self, src: &Flows) {
        self.stamp = 0;
        self.dests.clear();
        self.dests.extend_from_slice(&src.dests);
        if self.per_dest.len() != src.per_dest.len() {
            self.per_dest.resize_with(src.per_dest.len(), Vec::new);
        }
        for (dst, from) in self.per_dest.iter_mut().zip(&src.per_dest) {
            dst.clear();
            dst.extend_from_slice(from);
        }
        self.aggregate.clear();
        self.aggregate.extend_from_slice(&src.aggregate);
    }

    /// An empty flow set, ready to be shaped by [`Flows::reset`] — the
    /// starting point for reusable distribution buffers.
    pub(crate) fn empty() -> Flows {
        Flows {
            dests: Vec::new(),
            per_dest: Vec::new(),
            aggregate: Vec::new(),
            stamp: 0,
        }
    }

    /// Reshapes for `dests` over `m` edges and zeroes every vector,
    /// reusing existing allocations where the shape already matches.
    pub(crate) fn reset(&mut self, dests: &[NodeId], m: usize) {
        self.stamp = 0;
        if self.dests.as_slice() != dests {
            self.dests.clear();
            self.dests.extend_from_slice(dests);
        }
        if self.per_dest.len() != dests.len() {
            self.per_dest.resize_with(dests.len(), Vec::new);
        }
        for f in &mut self.per_dest {
            f.clear();
            f.resize(m, 0.0);
        }
        self.aggregate.clear();
        self.aggregate.resize(m, 0.0);
    }

    /// Reshapes for an **aggregate-only** distribution over `dests`:
    /// per-destination columns are dropped (freeing their arenas) and only
    /// the aggregate vector is kept, zeroed over `m` edges. The tiled
    /// solver loops use this so peak flow memory is O(edges) instead of
    /// O(dests·edges).
    pub(crate) fn reset_aggregate(&mut self, dests: &[NodeId], m: usize) {
        self.stamp = 0;
        if self.dests.as_slice() != dests {
            self.dests.clear();
            self.dests.extend_from_slice(dests);
        }
        self.per_dest.clear();
        self.aggregate.clear();
        self.aggregate.resize(m, 0.0);
    }

    /// True when per-destination columns are materialised (an
    /// aggregate-only buffer from a tiled solve has none).
    pub(crate) fn has_columns(&self) -> bool {
        self.per_dest.len() == self.dests.len()
    }

    /// Disjoint mutable access to the per-destination columns and the
    /// aggregate vector — a chunked distribution writes a chunk's columns
    /// while accumulating into the shared aggregate.
    pub(crate) fn parts_mut(&mut self) -> (&mut [Vec<f64>], &mut [f64]) {
        self.stamp = 0;
        (&mut self.per_dest, &mut self.aggregate)
    }

    /// Bytes currently reserved by the flow arenas (capacity, not length) —
    /// a high-water mark, since `Vec` capacity never shrinks across the
    /// reuse cycle.
    pub fn arena_bytes(&self) -> usize {
        self.dests.capacity() * std::mem::size_of::<NodeId>()
            + self.per_dest.capacity() * std::mem::size_of::<Vec<f64>>()
            + self
                .per_dest
                .iter()
                .map(|f| f.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>()
            + self.aggregate.capacity() * std::mem::size_of::<f64>()
    }

    /// Scales every per-destination flow vector by its ratio and rebuilds
    /// the aggregate — the warm-start rescale for proportionally scaled
    /// demand matrices (load sweeps).
    pub(crate) fn scale_per_destination(&mut self, ratios: &[f64]) {
        self.stamp = 0;
        debug_assert_eq!(ratios.len(), self.per_dest.len());
        for a in &mut self.aggregate {
            *a = 0.0;
        }
        for (f, &r) in self.per_dest.iter_mut().zip(ratios) {
            for (x, agg) in f.iter_mut().zip(&mut self.aggregate) {
                *x *= r;
                *agg += *x;
            }
        }
    }

    /// In-place convex combination `self ← (1−α)·self + α·other`, the
    /// Frank–Wolfe update. Requires identical destination sets.
    pub(crate) fn blend_toward(&mut self, other: &Flows, alpha: f64) {
        self.stamp = 0;
        debug_assert_eq!(self.dests, other.dests);
        for (mine, theirs) in self.per_dest.iter_mut().zip(&other.per_dest) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += alpha * (b - *a);
            }
        }
        for (a, b) in self.aggregate.iter_mut().zip(&other.aggregate) {
            *a += alpha * (b - *a);
        }
    }
}

/// Builds the per-destination shortest-path DAGs `ON = {ON_t}` for the
/// given first weights and Dijkstra tolerance.
///
/// Since the batched-engine rework this routes through the CSR engine
/// (validating the weights once and fanning destinations out in parallel
/// for large batches) and materialises owned DAGs at the end; results are
/// bit-identical to calling [`ShortestPathDag::build`] per destination.
/// Iterating callers should prefer [`crate::RoutingEngine`], which also
/// reuses the arenas across calls.
///
/// # Errors
///
/// Propagates [`GraphError`] for invalid weights.
pub fn build_dags(
    graph: &Graph,
    first_weights: &[f64],
    destinations: &[NodeId],
    tolerance: f64,
) -> Result<Vec<ShortestPathDag>, GraphError> {
    let in_csr = Csr::in_of(graph);
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    build_dag_set(
        graph,
        &in_csr,
        first_weights,
        destinations,
        tolerance,
        Parallelism::Auto,
        &mut ws,
        &mut set,
    )?;
    Ok((0..set.len())
        .map(|i| set.to_shortest_path_dag(i, graph))
        .collect())
}

/// Algorithm 3: computes the traffic distribution induced by hop-by-hop
/// forwarding on the DAGs under the given split rule.
///
/// `dags` must be aligned with `traffic.destinations()` (use
/// [`build_dags`]).
///
/// # Errors
///
/// * [`SpefError::UnroutableDemand`] if a source with positive demand has
///   no next hop toward its destination,
/// * [`SpefError::InvalidInput`] if `dags` is misaligned with the traffic
///   matrix or the rule's weight vector is malformed.
pub fn traffic_distribution(
    graph: &Graph,
    dags: &[ShortestPathDag],
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
) -> Result<Flows, SpefError> {
    let dests = traffic.destinations();
    let mut tables = SplitTableSet::new();
    let mut scratch = DistScratch::default();
    let mut flows = Flows::empty();
    distribute_batch(
        graph,
        &dests,
        dags.iter(),
        traffic,
        rule,
        usize::MAX,
        &mut tables,
        &mut scratch,
        &mut flows,
        |_, _, _| Ok(()),
    )?;
    Ok(flows)
}

/// Like [`traffic_distribution`], but also returns the per-destination
/// [`SplitTable`]s — the materialised forwarding tables (TABLE II), whose
/// log path sums the NEM dual objective needs.
///
/// # Errors
///
/// Same conditions as [`traffic_distribution`].
pub fn traffic_distribution_detailed(
    graph: &Graph,
    dags: &[ShortestPathDag],
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
) -> Result<(Flows, Vec<SplitTable>), SpefError> {
    let dests = traffic.destinations();
    let mut tables = SplitTableSet::new();
    let mut scratch = DistScratch::default();
    let mut flows = Flows::empty();
    distribute_batch(
        graph,
        &dests,
        dags.iter(),
        traffic,
        rule,
        usize::MAX,
        &mut tables,
        &mut scratch,
        &mut flows,
        |_, _, _| Ok(()),
    )?;
    let n = graph.node_count();
    let owned = (0..tables.len())
        .map(|i| SplitTable::from_ref(tables.table(i), n))
        .collect();
    Ok((flows, owned))
}

/// Validates an [`SplitRule::Exponential`] weight vector — once per batch
/// rather than once per destination (identical errors to the per-table
/// validation in [`SplitTable::build`]).
pub(crate) fn validate_rule(graph: &Graph, rule: SplitRule<'_>) -> Result<(), SpefError> {
    if let SplitRule::Exponential(v) = rule {
        if v.len() != graph.edge_count() {
            return Err(SpefError::InvalidInput(format!(
                "second weight vector has length {}, expected {}",
                v.len(),
                graph.edge_count()
            )));
        }
        if let Some((i, &w)) = v.iter().enumerate().find(|(_, &w)| w.is_nan() || w < 0.0) {
            return Err(SpefError::InvalidInput(format!(
                "second weight of edge e{i} is {w}"
            )));
        }
    }
    Ok(())
}

/// Algorithm 3 over a batch of destination DAGs, in chunks of at most
/// `tile` destinations (`usize::MAX` for one chunk): builds each chunk's
/// split tables into `tables` and folds its flows into `out`'s aggregate,
/// reusing all buffers. Generic over the DAG storage ([`ShortestPathDag`]
/// references or arena-backed [`spef_graph::DagRef`]s); results are
/// bit-identical either way.
///
/// One chunk keeps the per-destination columns in `out`; several keep the
/// aggregate only ([`Flows::for_destination`] returns `None`), so split
/// tables and columns stay O(tile·edges). Either way every destination is
/// folded into the aggregate in ascending order, so the aggregate is
/// bit-identical for every tile size. `on_chunk(offset, chunk dests,
/// tables)` fires after each chunk while its split tables are live,
/// letting callers fold per-destination quantities (NEM dual terms).
///
/// # Errors
///
/// * [`SpefError::UnroutableDemand`] if a positive demand has no path on
///   its destination's DAG,
/// * [`SpefError::InvalidInput`] if `dags` is misaligned with `dests` or
///   the rule's weight vector is malformed,
/// * whatever `on_chunk` returns.
///
/// # Panics
///
/// Panics if `tile` is zero.
#[allow(clippy::too_many_arguments)]
pub(crate) fn distribute_batch<D, I, F>(
    graph: &Graph,
    dests: &[NodeId],
    dags: I,
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
    tile: usize,
    tables: &mut SplitTableSet,
    scratch: &mut DistScratch,
    out: &mut Flows,
    mut on_chunk: F,
) -> Result<(), SpefError>
where
    D: DagAccess,
    I: IntoIterator<Item = D>,
    I::IntoIter: ExactSizeIterator,
    F: FnMut(usize, &[NodeId], &SplitTableSet) -> Result<(), SpefError>,
{
    assert!(tile > 0, "tile size must be at least 1");
    let mut dags = dags.into_iter();
    if dests.len() != dags.len() {
        return Err(SpefError::InvalidInput(format!(
            "{} DAGs supplied for {} destinations",
            dags.len(),
            dests.len()
        )));
    }
    validate_rule(graph, rule)?;
    let whole = tile >= dests.len();
    if whole {
        out.reset(dests, graph.edge_count());
    } else {
        out.reset_aggregate(dests, graph.edge_count());
    }
    let (columns, aggregate) = out.parts_mut();
    tables.reset(graph.node_count());
    let mut offset = 0;
    for chunk in dests.chunks(tile) {
        if offset > 0 {
            tables.reset(graph.node_count());
        }
        distribute_block(
            graph,
            chunk,
            dags.by_ref().take(chunk.len()),
            traffic,
            rule,
            tables,
            scratch,
            whole.then_some(&mut *columns),
            aggregate,
        )?;
        on_chunk(offset, chunk, tables)?;
        offset += chunk.len();
    }
    Ok(())
}

/// The per-destination body of every distribution: for each `(dag, dest)`
/// pair it appends a split table (indexed locally from 0 within
/// `tables`), routes the destination's demand column into `columns[i]` —
/// or, without `columns`, into one reused scratch column — and adds it
/// into the **global** `aggregate`. Chunked callers run it once per chunk
/// against the same aggregate, so its floating-point accumulation order
/// (ascending destination) is the same for every chunk size — the
/// bit-determinism contract of destination tiling.
///
/// `tables` must already be reset for this block and `columns`, when
/// given, must be zeroed, `m`-length and aligned with `dests`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn distribute_block<D, I>(
    graph: &Graph,
    dests: &[NodeId],
    dags: I,
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
    tables: &mut SplitTableSet,
    scratch: &mut DistScratch,
    mut columns: Option<&mut [Vec<f64>]>,
    aggregate: &mut [f64],
) -> Result<(), SpefError>
where
    D: DagAccess,
    I: IntoIterator<Item = D>,
{
    debug_assert!(columns.as_ref().is_none_or(|c| c.len() == dests.len()));
    scratch.incoming.resize(graph.node_count(), 0.0);

    for (i, (dag, &t)) in dags.into_iter().zip(dests).enumerate() {
        if dag.dag_target() != t {
            return Err(SpefError::InvalidInput(format!(
                "DAG target {} does not match destination {t}",
                dag.dag_target()
            )));
        }
        tables.push_table(graph, &dag, rule);
        traffic.demands_to_into(t, &mut scratch.demands);
        let flows = match columns.as_deref_mut() {
            Some(columns) => &mut columns[i],
            None => {
                scratch.column.clear();
                scratch.column.resize(graph.edge_count(), 0.0);
                &mut scratch.column
            }
        };
        distribute_one_into(
            graph,
            &dag,
            tables.table(i),
            &scratch.demands,
            &mut scratch.incoming,
            flows,
        )?;
        for (agg, f) in aggregate.iter_mut().zip(flows.iter()) {
            *agg += f;
        }
    }
    Ok(())
}

/// Distributes one destination's demand column into `flows`, processing
/// sources in decreasing distance order (Algorithm 3's inner loop).
/// `flows` must be pre-zeroed; `incoming` is overwritten.
pub(crate) fn distribute_one_into<D: DagAccess>(
    graph: &Graph,
    dag: &D,
    table: SplitTableRef<'_>,
    demands: &[f64],
    incoming: &mut [f64],
    flows: &mut [f64],
) -> Result<(), SpefError> {
    incoming.fill(0.0);
    let target = dag.dag_target();

    // Demands from nodes that cannot reach the target at all.
    for (s, &d) in demands.iter().enumerate() {
        if d > 0.0 && !dag.dag_reaches_target(NodeId::new(s)) {
            return Err(SpefError::UnroutableDemand {
                source: NodeId::new(s),
                destination: target,
            });
        }
    }

    for &u in dag.dag_order_desc() {
        if u == target {
            continue;
        }
        let total = demands[u.index()] + incoming[u.index()];
        if total <= 0.0 {
            continue;
        }
        let hops = table.next_hops(u);
        if hops.is_empty() {
            return Err(SpefError::UnroutableDemand {
                source: u,
                destination: target,
            });
        }
        for &(e, ratio) in hops {
            let f = total * ratio;
            flows[e.index()] += f;
            incoming[graph.target(e).index()] += f;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    /// Diamond: 0 → {1, 2} → 3 with unit weights (two equal-cost paths).
    fn diamond() -> (Graph, Vec<f64>) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()); // e0
        g.add_edge(0.into(), 2.into()); // e1
        g.add_edge(1.into(), 3.into()); // e2
        g.add_edge(2.into(), 3.into()); // e3
        (g, vec![1.0; 4])
    }

    fn demand(n: usize, s: usize, t: usize, d: f64) -> TrafficMatrix {
        let mut tm = TrafficMatrix::new(n);
        tm.set(s.into(), t.into(), d);
        tm
    }

    #[test]
    fn even_ecmp_splits_in_half() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 2.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(flows.aggregate(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn exponential_split_matches_eq22() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        // Second weights: upper path (e0, e2) has total length 1+0=1,
        // lower (e1, e3) has 0. Ratios: e^{-1} : e^{0}.
        let v = vec![1.0, 0.0, 0.0, 0.0];
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&v)).unwrap();
        let upper = (-1.0f64).exp() / ((-1.0f64).exp() + 1.0);
        assert!((flows.aggregate()[0] - upper).abs() < 1e-12);
        assert!((flows.aggregate()[1] - (1.0 - upper)).abs() < 1e-12);
        // Conservation through to the sink.
        assert!((flows.aggregate()[2] + flows.aggregate()[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn second_weight_on_shared_suffix_does_not_skew() {
        // If an extra second weight sits on an edge all paths share, the
        // split must stay even (the softmax is shift-invariant).
        let mut g = Graph::with_nodes(5);
        g.add_edge(0.into(), 1.into()); // e0
        g.add_edge(0.into(), 2.into()); // e1
        g.add_edge(1.into(), 3.into()); // e2
        g.add_edge(2.into(), 3.into()); // e3
        g.add_edge(3.into(), 4.into()); // e4 shared suffix
        let w = vec![1.0; 5];
        let tm = demand(5, 0, 4, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let v = vec![0.0, 0.0, 0.0, 0.0, 7.0];
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&v)).unwrap();
        assert!((flows.aggregate()[0] - 0.5).abs() < 1e-12);
        assert!((flows.aggregate()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multihop_aggregation_over_sources() {
        // Chain 0 -> 1 -> 2 with demands from both 0 and 1 to 2: the
        // decreasing-distance order must add 0's transit flow into 1's
        // outgoing total.
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let w = vec![1.0, 1.0];
        let mut tm = TrafficMatrix::new(3);
        tm.set(0.into(), 2.into(), 1.0);
        tm.set(1.into(), 2.into(), 2.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(flows.aggregate(), &[1.0, 3.0]);
    }

    #[test]
    fn multiple_destinations_aggregate() {
        let (g, w) = diamond();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 2.0);
        tm.set(0.into(), 1.into(), 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(flows.destinations().len(), 2);
        // e0 carries half of the 0->3 demand plus all of 0->1.
        assert_eq!(flows.aggregate()[0], 2.0);
        assert_eq!(
            flows.for_destination(1.into()).unwrap(),
            &[1.0, 0.0, 0.0, 0.0]
        );
        assert!(flows.for_destination(2.into()).is_none());
    }

    #[test]
    fn unroutable_demand_is_reported() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 0.into());
        // Node 2 unreachable.
        let w = vec![1.0, 1.0];
        let tm = demand(3, 0, 2, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let err = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap_err();
        assert_eq!(
            err,
            SpefError::UnroutableDemand {
                source: NodeId::new(0),
                destination: NodeId::new(2)
            }
        );
    }

    #[test]
    fn misaligned_dags_rejected() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &[NodeId::new(2)], 0.0).unwrap();
        assert!(matches!(
            traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn invalid_second_weights_rejected() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let bad = vec![-1.0; 4];
        assert!(matches!(
            traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&bad)),
            Err(SpefError::InvalidInput(_))
        ));
        let short = vec![0.0; 2];
        assert!(matches!(
            traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&short)),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn log_path_sum_counts_paths_under_even_rule() {
        let (g, w) = diamond();
        let dag = ShortestPathDag::build(&g, &w, 3.into(), 0.0).unwrap();
        let table = SplitTable::build(&g, &dag, SplitRule::EvenEcmp).unwrap();
        // Two equal-cost paths: log Z = ln 2.
        assert!((table.log_path_sum(0.into()) - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(table.log_path_sum(3.into()), 0.0);
    }

    #[test]
    fn large_second_weights_are_numerically_stable() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        // Huge weights would underflow a naive e^{-v} implementation.
        let v = vec![5000.0, 5001.0, 0.0, 0.0];
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&v)).unwrap();
        let total = flows.aggregate()[0] + flows.aggregate()[1];
        assert!((total - 1.0).abs() < 1e-9);
        // Path with weight 5000 is e^1 more likely than 5001.
        let ratio = flows.aggregate()[0] / flows.aggregate()[1];
        assert!((ratio - std::f64::consts::E).abs() < 1e-6);
    }

    /// Edge ids and the bit patterns of ratios and log path sums.
    type RowBits = (Vec<Vec<(EdgeId, u64)>>, Vec<u64>);

    fn row_bits(t: &SplitTable, n: usize) -> RowBits {
        let rows = (0..n)
            .map(|u| {
                t.next_hops(NodeId::new(u))
                    .iter()
                    .map(|&(e, r)| (e, r.to_bits()))
                    .collect()
            })
            .collect();
        let lz = (0..n)
            .map(|u| t.log_path_sum(NodeId::new(u)).to_bits())
            .collect();
        (rows, lz)
    }

    #[test]
    fn one_next_hop_rows_match_the_reference_bitwise() {
        // Target 5. Node 4 hops straight to the target; node 3 has two
        // equal-cost hops (via 4, and direct); 2 and 1 are single hops
        // behind that multi-hop row. Node 6 reaches the target only over
        // a zero-weight edge, so it ties with it and has no DAG
        // successor; node 0's only hop goes through 6 and is stranded.
        let mut g = Graph::with_nodes(7);
        g.add_edge(4.into(), 5.into()); // e0
        g.add_edge(3.into(), 4.into()); // e1
        g.add_edge(3.into(), 5.into()); // e2
        g.add_edge(2.into(), 3.into()); // e3
        g.add_edge(1.into(), 2.into()); // e4
        g.add_edge(6.into(), 5.into()); // e5
        g.add_edge(0.into(), 6.into()); // e6
        let w = [1.0, 1.0, 2.0, 1.0, 1.0, 0.0, 1.0];
        let n = g.node_count();
        let dag = ShortestPathDag::build(&g, &w, 5.into(), 0.0).unwrap();
        assert_eq!(dag.successors(3.into()).len(), 2);
        assert!(dag.successors(6.into()).is_empty());

        let second = [
            // v = 0 on the hop into the target: its term is -0.0 + 0.0.
            vec![0.0, 0.5, 0.25, 1e300, 0.0, 0.0, 0.0],
            // A negative-zero second weight and an infinite one (a
            // stranded term on a reachable node).
            vec![-0.0, 0.0, 0.0, 0.0, f64::INFINITY, 0.0, 2.0],
            // Huge weights on every hop.
            vec![1e300; 7],
        ];
        let mut rules = vec![SplitRule::EvenEcmp];
        rules.extend(second.iter().map(|v| SplitRule::Exponential(v)));
        for rule in rules {
            let reference = row_bits(&SplitTable::build(&g, &dag, rule).unwrap(), n);
            let arena_bits =
                |set: &SplitTableSet| row_bits(&SplitTable::from_ref(set.table(0), n), n);
            let mut set = SplitTableSet::new();
            set.reset(n);
            set.push_table(&g, &dag, rule);
            assert_eq!(arena_bits(&set), reference, "{rule:?}");
            // The in-place rebuild runs the same kernel.
            set.rebuild_table(0, &g, &dag, rule);
            assert_eq!(arena_bits(&set), reference, "{rule:?}");

            let table = set.table(0);
            assert!(table.next_hops(0.into()).is_empty(), "stranded hop");
            assert_eq!(table.log_path_sum(0.into()), f64::NEG_INFINITY);
            assert_eq!(table.next_hops(3.into()).len(), 2);
            for u in [2, 4] {
                let hops = table.next_hops(u.into());
                assert_eq!(hops.len(), 1);
                assert_eq!(hops[0].1.to_bits(), 1.0f64.to_bits());
            }
        }
        // v = 0 into the target gives log Z = +0.0, not -0.0.
        let zero = SplitRule::Exponential(&second[0]);
        let table = SplitTable::build(&g, &dag, zero).unwrap();
        assert_eq!(table.log_path_sum(4.into()).to_bits(), 0.0f64.to_bits());
        // An infinite second weight strands node 1 under the second rule.
        let inf = SplitRule::Exponential(&second[1]);
        let table = SplitTable::build(&g, &dag, inf).unwrap();
        assert!(table.next_hops(1.into()).is_empty());
    }

    #[test]
    fn rebuilt_tables_match_fresh_ones_as_rows_grow_and_shrink() {
        // Two diamonds in a row: 0 -> {1, 2} -> 3 -> {4, 5} -> 6. Under
        // `even` weights nodes 0 and 3 have two equal-cost next hops,
        // under `skewed` one each, so alternating the two makes rebuilt
        // rows shrink in place, then grow (moving the block to the end of
        // the arena), and the garbage forces compactions.
        let mut g = Graph::with_nodes(7);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
        ] {
            g.add_edge(u.into(), v.into());
        }
        let n = g.node_count();
        let even = vec![1.0; 8];
        let skewed = vec![1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0];
        let dests = [NodeId::new(6), NodeId::new(3)];
        let v = [0.1, 0.7, 0.0, 0.3, 0.2, 0.0, 0.5, 0.4];
        for rule in [SplitRule::EvenEcmp, SplitRule::Exponential(&v)] {
            let mut set = SplitTableSet::new();
            set.reset(n);
            for dag in build_dags(&g, &even, &dests, 0.0).unwrap() {
                set.push_table(&g, &dag, rule);
            }
            for round in 0..9 {
                let w = if round % 2 == 0 { &skewed } else { &even };
                let dags = build_dags(&g, w, &dests, 0.0).unwrap();
                let mut fresh = 0;
                for (i, dag) in dags.iter().enumerate() {
                    set.rebuild_table(i, &g, dag, rule);
                    let reference = SplitTable::build(&g, dag, rule).unwrap();
                    let got = SplitTable::from_ref(set.table(i), n);
                    assert_eq!(row_bits(&got, n), row_bits(&reference, n), "round {round}");
                    fresh += (0..n)
                        .map(|u| reference.next_hops(u.into()).len())
                        .sum::<usize>();
                }
                // Compaction keeps the arena within twice the live rows
                // plus one moved block.
                assert!(
                    set.entries.len() <= 3 * fresh,
                    "arena grew to {}",
                    set.entries.len()
                );
            }
        }
    }

    #[test]
    fn ecmp_on_fig4_matches_hand_computation() {
        // The OSPF baseline behaviour the paper's Fig. 6 relies on:
        // link 1 = edge 0 carries both 4-unit demands 1→2 and 1→3.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let w = vec![1.0; net.graph().edge_count()];
        let dags = build_dags(net.graph(), &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(net.graph(), &dags, &tm, SplitRule::EvenEcmp).unwrap();
        let agg = flows.aggregate();
        assert!(
            (agg[0] - 8.0).abs() < 1e-12,
            "bottleneck link 1: {}",
            agg[0]
        );
        // 1→7 splits across the two 2-hop paths via 5 and via 6.
        assert!((agg[3] - 2.0).abs() < 1e-12);
        assert!((agg[5] - 2.0).abs() < 1e-12);
        // 3→2 rides its direct link.
        assert!((agg[7] - 4.0).abs() < 1e-12);
    }
}
