//! Parallel, dependency-aware scenario-sweep harness.
//!
//! Takes a batch of [`Scenario`]s (usually from a
//! [`ScenarioGrid`](crate::scenario::ScenarioGrid)) and collects a
//! [`BatchReport`] of [`ScenarioResult`]s that serializes to the
//! `BENCH_*.json` format downstream tooling tracks.
//!
//! Execution is dependency-aware: scenarios are grouped into *chains* by
//! [`Scenario::chain_key`] (same topology, demand model + seed, objective
//! and solver — only the load and the sim stage vary within a chain).
//! Rayon fans out across chains; within a chain the scenarios run serially
//! on one shared [`spef_core::TeWorkspace`] + [`SimWorkspace`] pair, so
//! neighbouring grid points reuse the engine's DAG/flow/split arenas, the
//! SPF skip, and the simplex tableau without reallocating. Scenarios in a
//! chain that are identical up to the sim stage ([`Scenario::solve_key`])
//! share a single pipeline solve outright.
//!
//! Reuse is strictly *result-preserving*: before every distinct solve the
//! workspace's saved solver trajectories are dropped
//! ([`spef_core::TeWorkspace::clear_solutions`]), so each scenario still
//! runs the exact cold iteration sequence and every deterministic result
//! field is bit-identical to an isolated run — [`run_scenario`], a chain
//! of one, is that isolated run, and the tests pin chains against it.
//! Every scenario carries its own seed, so the parallel schedule cannot
//! change any result either way.
//!
//! ```
//! use spef_experiments::harness::{run_batch, BatchOptions};
//! use spef_experiments::scenario::ScenarioGrid;
//! use spef_experiments::scenario::TopologySpec;
//!
//! let scenarios = ScenarioGrid::new()
//!     .topologies([TopologySpec::Fig1])
//!     .seeds([1])
//!     .loads([0.2])
//!     .build();
//! let report = run_batch(scenarios, &BatchOptions::default());
//! assert_eq!(report.results.len(), 1);
//! assert!(report.results[0].mlu < 1.0);
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use serde::{Error as SerdeError, Value};
use spef_baselines::fortz_thorup::{FtConfig, FtOutcome};
use spef_baselines::{RobustConfig, RobustOutcome};
use spef_core::{
    ForwardingTable, SpefRouting, SpfStats, TeInstance, TeSolver, TeWorkspace,
    STALE_WEIGHT_DAG_RTOL,
};
use spef_netsim::{simulate_with, SchedulerKind, SimWorkspace};
use spef_topology::{Network, TrafficMatrix};

use crate::reconfig;
use crate::scenario::{Scenario, SolverSpec};

/// Schema version stamped into every [`BatchReport`]; bump when the JSON
/// layout changes incompatibly.
pub const BATCH_SCHEMA_VERSION: u64 = 1;

/// Deterministic measurements of a scenario's packet-level simulation
/// stage. Every field is a pure function of the scenario (the simulator is
/// seeded), so `repro diff` compares them bit-identically — across runs,
/// machines, *and scheduler kinds* (heap vs calendar).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimScenarioResult {
    /// Packets handed to the network by all sources.
    pub generated_packets: u64,
    /// Packets that reached their destination.
    pub delivered_packets: u64,
    /// Packets dropped at full buffers.
    pub dropped_packets: u64,
    /// Mean end-to-end delay of delivered packets, seconds.
    pub mean_delay: f64,
    /// 99th-percentile end-to-end delay, seconds.
    pub p99_delay: f64,
    /// Links that carried any traffic.
    pub links_used: u64,
    /// Busiest link's mean load in bits/s.
    pub max_link_load_bps: f64,
    /// Sum of all links' mean loads in bits/s (total carried traffic).
    pub total_link_load_bps: f64,
    /// High-water mark of live packet slots (memory witness).
    pub peak_packet_slots: u64,
}

/// Deterministic measurements of a scenario's single-circuit failure
/// stage. Every field is a pure function of the scenario, so `repro diff`
/// compares them bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureScenarioResult {
    /// MLU after OSPF (InvCap weights) reconverges on the survivors.
    pub mlu_ospf: f64,
    /// MLU with the stale intact-optimal SPEF weights on the survivors
    /// (even-ECMP — the second weights' splits are meaningless once the
    /// path set changed).
    pub mlu_stale: f64,
    /// MLU after full SPEF re-optimisation on the degraded topology.
    pub mlu_reopt: f64,
    /// TE-solver iterations the re-optimisation spent (cold trajectory —
    /// the gated sweep clears warm starts so results stay mode-independent;
    /// warm-vs-cold savings are measured by the bench lane instead).
    pub reopt_iterations: u64,
    /// Worst-case MLU (over intact + every connected single-circuit
    /// failure) of the robust weight search's best setting.
    pub mlu_robust: f64,
    /// Weight pushes needed to migrate from the stale to the re-optimised
    /// setting.
    pub reconfig_steps: u64,
    /// Peak transient MLU under the naive ascending-index push order.
    pub reconfig_peak_mlu: f64,
    /// Peak transient MLU under the greedy minimum-MLU push order.
    pub reconfig_greedy_peak_mlu: f64,
}

/// Measurements of a scenario's scale-ablation stage. The size counts are
/// deterministic (pure functions of the scenario) and bit-diffed by
/// `repro diff`; the two `peak_*_bytes` witnesses are *excluded* from the
/// diff — they legitimately vary with the tile-size execution knob (that
/// variation is the whole point of measuring them) and, in chain mode,
/// with what earlier chain scenarios grew the shared workspace to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleScenarioResult {
    /// Nodes of the materialized network.
    pub nodes: u64,
    /// Directed links of the materialized network.
    pub links: u64,
    /// Destinations the routing covers.
    pub dests: u64,
    /// Total `(edge, ratio)` forwarding entries across all
    /// `(destination, router)` rows.
    pub fib_entries: u64,
    /// High-water bytes of the solver workspace's routing arenas (DAG
    /// sets, split tables, flow buffers) — capacity-based, so tiled runs
    /// show the O(tile·edges) ceiling dense runs don't have.
    pub peak_arena_bytes: u64,
    /// High-water bytes of the forwarding-table arenas.
    pub peak_fib_bytes: u64,
}

/// Aggregate SPF-engine counters of one sweep: summed over every chain
/// workspace, failure-stage probe, robust weight search and
/// reconfiguration transient the batch executed. Execution metadata —
/// like `threads` and `tile_size` it sits outside the bit-diffed fields
/// (the incremental and masked engine paths are bit-identical to dense
/// rebuilds; only these counters move), so sweeps diff clean across
/// engine modes while the dirty-set effectiveness stays visible per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpfStatsResult {
    /// SPF batch builds actually executed (fingerprint skips excluded).
    pub builds: u64,
    /// Builds served by the weight-delta incremental path.
    pub incremental_builds: u64,
    /// Dirty destination slots across all delta builds, repaired in
    /// place or rebuilt.
    pub slots_rebuilt: u64,
    /// In-place topology patches after `fail_links`/`restore_links`
    /// (dense fallbacks excluded).
    pub topology_builds: u64,
    /// Cumulative links masked by `fail_links` calls.
    pub masked_links: u64,
}

impl SpfStatsResult {
    fn from_stats(s: SpfStats) -> SpfStatsResult {
        SpfStatsResult {
            builds: s.builds,
            incremental_builds: s.incremental_builds,
            slots_rebuilt: s.slots_rebuilt,
            topology_builds: s.topology_builds,
            masked_links: s.masked_links,
        }
    }
}

/// Local SPF repair counters of one sweep, summed like
/// [`SpfStatsResult`]: how many dirty slots the repair patched in place,
/// how many nodes it re-settled doing so, and how many slots it rebuilt
/// because their affected set covered more than half their reachable
/// nodes. Execution metadata, outside the bit-diffed fields; omitted from
/// the report when no repair ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpfRepairResult {
    /// Dirty slots patched in place.
    pub slots_repaired: u64,
    /// Nodes re-settled by the repairs.
    pub nodes_resettled: u64,
    /// Dirty slots rebuilt from scratch by the repair.
    pub slot_fallbacks: u64,
}

impl SpfRepairResult {
    fn from_stats(s: SpfStats) -> Option<SpfRepairResult> {
        (s.slots_repaired + s.slot_fallbacks > 0).then_some(SpfRepairResult {
            slots_repaired: s.slots_repaired,
            nodes_resettled: s.nodes_resettled,
            slot_fallbacks: s.slot_fallbacks,
        })
    }
}

/// Measurements of one successfully solved scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario that produced this result (embedded so a report is
    /// self-describing).
    pub scenario: Scenario,
    /// Maximum link utilization of the realised routing.
    pub mlu: f64,
    /// Normalized aggregate utility (1 = the TE optimum's scale; see
    /// `spef_core::metrics::normalized_utility`).
    pub utility: f64,
    /// TE-solver iterations spent on the first weights.
    pub iterations: u64,
    /// Whether the NEM second-weight solver converged.
    pub nem_converged: bool,
    /// Packet-level simulation measurements (present iff the scenario has
    /// a [`SimSpec`](crate::scenario::SimSpec) stage).
    pub sim: Option<SimScenarioResult>,
    /// Failure-stage measurements (present iff the scenario has a
    /// [`FailureSpec`](crate::scenario::FailureSpec) stage).
    pub failure: Option<FailureScenarioResult>,
    /// Scale-stage measurements (present iff the scenario carries the
    /// scale-ablation stage).
    pub scale: Option<ScaleScenarioResult>,
    /// Wall-clock milliseconds for the full pipeline (the only
    /// non-deterministic field).
    pub wall_ms: f64,
}

// Hand-written so the optional `sim`, `failure` and `scale` fields are
// omitted when absent: stage-less results serialize byte-identically to
// the committed pre-PR 4 / pre-PR 7 / pre-PR 8 baselines, and those
// baselines parse back without the keys.
impl Serialize for ScenarioResult {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("mlu".to_string(), self.mlu.to_value()),
            ("utility".to_string(), self.utility.to_value()),
            ("iterations".to_string(), self.iterations.to_value()),
            ("nem_converged".to_string(), self.nem_converged.to_value()),
        ];
        if let Some(sim) = &self.sim {
            fields.push(("sim".to_string(), sim.to_value()));
        }
        if let Some(failure) = &self.failure {
            fields.push(("failure".to_string(), failure.to_value()));
        }
        if let Some(scale) = &self.scale {
            fields.push(("scale".to_string(), scale.to_value()));
        }
        fields.push(("wall_ms".to_string(), self.wall_ms.to_value()));
        Value::Object(fields)
    }
}

impl Deserialize for ScenarioResult {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let field = |key: &str| -> Result<&Value, SerdeError> {
            value.get_field(key).ok_or_else(|| {
                SerdeError::custom(format!("missing field `{key}` in ScenarioResult"))
            })
        };
        Ok(ScenarioResult {
            scenario: Scenario::from_value(field("scenario")?)?,
            mlu: f64::from_value(field("mlu")?)?,
            utility: f64::from_value(field("utility")?)?,
            iterations: u64::from_value(field("iterations")?)?,
            nem_converged: bool::from_value(field("nem_converged")?)?,
            sim: match value.get_field("sim") {
                None => None,
                Some(v) => Option::<SimScenarioResult>::from_value(v)?,
            },
            failure: match value.get_field("failure") {
                None => None,
                Some(v) => Option::<FailureScenarioResult>::from_value(v)?,
            },
            scale: match value.get_field("scale") {
                None => None,
                Some(v) => Option::<ScaleScenarioResult>::from_value(v)?,
            },
            wall_ms: f64::from_value(field("wall_ms")?)?,
        })
    }
}

/// A scenario the pipeline could not solve (e.g. demands infeasible at the
/// requested load).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFailure {
    /// The failing scenario.
    pub scenario: Scenario,
    /// The solver error, stringified.
    pub error: String,
}

/// Everything one sweep produces; serializes to the `BENCH_*.json` format.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// JSON schema version ([`BATCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Successful runs, in scenario order.
    pub results: Vec<ScenarioResult>,
    /// Failed runs, in scenario order.
    pub failures: Vec<ScenarioFailure>,
    /// Wall-clock milliseconds for the whole batch.
    pub total_wall_ms: f64,
    /// Worker threads the batch ran on (1 = serial; rayon's effective
    /// pool size otherwise). Execution metadata — outside the bit-diffed
    /// fields.
    pub threads: u64,
    /// Destination tile size the batch ran with
    /// ([`BatchOptions::tile`]); `None` = dense. Execution metadata —
    /// outside the bit-diffed fields, which is exactly what lets a tiled
    /// run diff clean against a dense baseline.
    pub tile_size: Option<u64>,
    /// Aggregate SPF-engine counters of the batch ([`SpfStatsResult`]);
    /// `None` when the batch executed no SPF builds (or the report
    /// predates the field). Execution metadata — outside the bit-diffed
    /// fields, so masked/incremental sweeps diff clean against dense
    /// baselines.
    pub spf: Option<SpfStatsResult>,
    /// The local SPF repair's counters ([`SpfRepairResult`]); `None` when
    /// no repair ran (or the report predates the field). Execution
    /// metadata — outside the bit-diffed fields.
    pub spf_repair: Option<SpfRepairResult>,
}

// Hand-written so `tile_size`, `spf` and `spf_repair` are omitted when
// absent: dense
// reports serialize byte-identically to the committed pre-PR 8 / pre-PR 10
// baselines, and those baselines parse back without the keys.
impl Serialize for BatchReport {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("results".to_string(), self.results.to_value()),
            ("failures".to_string(), self.failures.to_value()),
            ("total_wall_ms".to_string(), self.total_wall_ms.to_value()),
            ("threads".to_string(), self.threads.to_value()),
        ];
        if let Some(tile) = self.tile_size {
            fields.push(("tile_size".to_string(), tile.to_value()));
        }
        if let Some(spf) = &self.spf {
            fields.push(("spf".to_string(), spf.to_value()));
        }
        if let Some(repair) = &self.spf_repair {
            fields.push(("spf_repair".to_string(), repair.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for BatchReport {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let field = |key: &str| -> Result<&Value, SerdeError> {
            value
                .get_field(key)
                .ok_or_else(|| SerdeError::custom(format!("missing field `{key}` in BatchReport")))
        };
        Ok(BatchReport {
            schema_version: u64::from_value(field("schema_version")?)?,
            results: Vec::<ScenarioResult>::from_value(field("results")?)?,
            failures: Vec::<ScenarioFailure>::from_value(field("failures")?)?,
            total_wall_ms: f64::from_value(field("total_wall_ms")?)?,
            threads: u64::from_value(field("threads")?)?,
            tile_size: match value.get_field("tile_size") {
                None => None,
                Some(v) => Option::<u64>::from_value(v)?,
            },
            spf: match value.get_field("spf") {
                None => None,
                Some(v) => Option::<SpfStatsResult>::from_value(v)?,
            },
            spf_repair: match value.get_field("spf_repair") {
                None => None,
                Some(v) => Option::<SpfRepairResult>::from_value(v)?,
            },
        })
    }
}

impl BatchReport {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("batch report serializes")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error message on malformed input.
    pub fn from_json(text: &str) -> Result<BatchReport, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Writes the report to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Lists every *deterministic* difference between `self` (the baseline)
    /// and `other` (a candidate run): scenario set and order, per-scenario
    /// MLU / utility / iterations / NEM convergence, and failures. Wall-clock
    /// fields (`wall_ms`, `total_wall_ms`) and `threads` are ignored — they
    /// are the only fields that legitimately vary run to run.
    ///
    /// Numeric fields are compared for **bit-identical** equality: the sweep
    /// pipeline is deterministic, so any drift — however small — means an
    /// algorithmic change and must be triaged, not tolerated.
    pub fn result_drift(&self, other: &BatchReport) -> Vec<String> {
        let mut drift = Vec::new();
        if self.schema_version != other.schema_version {
            drift.push(format!(
                "schema version: {} vs {}",
                self.schema_version, other.schema_version
            ));
        }
        if self.results.len() != other.results.len() {
            drift.push(format!(
                "result count: {} vs {}",
                self.results.len(),
                other.results.len()
            ));
        }
        for (a, b) in self.results.iter().zip(&other.results) {
            if a.scenario.id != b.scenario.id {
                drift.push(format!(
                    "scenario order: {:?} vs {:?}",
                    a.scenario.id, b.scenario.id
                ));
                continue;
            }
            let id = &a.scenario.id;
            if a.mlu.to_bits() != b.mlu.to_bits() {
                drift.push(format!("{id}: mlu {} vs {}", a.mlu, b.mlu));
            }
            if a.utility.to_bits() != b.utility.to_bits() {
                drift.push(format!("{id}: utility {} vs {}", a.utility, b.utility));
            }
            if a.iterations != b.iterations {
                drift.push(format!(
                    "{id}: iterations {} vs {}",
                    a.iterations, b.iterations
                ));
            }
            if a.nem_converged != b.nem_converged {
                drift.push(format!(
                    "{id}: nem_converged {} vs {}",
                    a.nem_converged, b.nem_converged
                ));
            }
            match (&a.sim, &b.sim) {
                (None, None) => {}
                (Some(sa), Some(sb)) => drift_sim(&mut drift, id, sa, sb),
                (a, b) => drift.push(format!(
                    "{id}: sim stage present {} vs {}",
                    a.is_some(),
                    b.is_some()
                )),
            }
            match (&a.failure, &b.failure) {
                (None, None) => {}
                (Some(fa), Some(fb)) => drift_failure(&mut drift, id, fa, fb),
                (a, b) => drift.push(format!(
                    "{id}: failure stage present {} vs {}",
                    a.is_some(),
                    b.is_some()
                )),
            }
            match (&a.scale, &b.scale) {
                (None, None) => {}
                (Some(sa), Some(sb)) => drift_scale(&mut drift, id, sa, sb),
                (a, b) => drift.push(format!(
                    "{id}: scale stage present {} vs {}",
                    a.is_some(),
                    b.is_some()
                )),
            }
        }
        if self.failures.len() != other.failures.len() {
            drift.push(format!(
                "failure count: {} vs {}",
                self.failures.len(),
                other.failures.len()
            ));
        }
        for (a, b) in self.failures.iter().zip(&other.failures) {
            if a.scenario.id != b.scenario.id || a.error != b.error {
                drift.push(format!(
                    "failure {:?} ({}) vs {:?} ({})",
                    a.scenario.id, a.error, b.scenario.id, b.error
                ));
            }
        }
        drift
    }

    /// A terminal summary table of the batch.
    pub fn summary_table(&self) -> crate::report::TextTable {
        let mut table = crate::report::TextTable::new(
            "scenario sweep",
            &[
                "scenario", "MLU", "utility", "iters", "NEM", "sim pkts", "loss %", "wall ms",
            ],
        );
        for r in &self.results {
            let (pkts, loss) = match &r.sim {
                None => ("-".to_string(), "-".to_string()),
                Some(sim) => (
                    sim.generated_packets.to_string(),
                    format!(
                        "{:.2}",
                        100.0 * sim.dropped_packets as f64 / sim.generated_packets.max(1) as f64
                    ),
                ),
            };
            table.push_row(vec![
                r.scenario.id.clone(),
                format!("{:.4}", r.mlu),
                format!("{:.4}", r.utility),
                r.iterations.to_string(),
                if r.nem_converged { "conv" } else { "MAX" }.to_string(),
                pkts,
                loss,
                format!("{:.1}", r.wall_ms),
            ]);
        }
        for f in &self.failures {
            table.push_row(vec![
                f.scenario.id.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("FAILED: {}", f.error),
            ]);
        }
        table
    }
}

/// Appends per-field drift lines for a sim-stage pair (bit-identical float
/// comparison, like the top-level result fields).
fn drift_sim(drift: &mut Vec<String>, id: &str, a: &SimScenarioResult, b: &SimScenarioResult) {
    let mut num = |name: &str, x: u64, y: u64| {
        if x != y {
            drift.push(format!("{id}: sim {name} {x} vs {y}"));
        }
    };
    num(
        "generated_packets",
        a.generated_packets,
        b.generated_packets,
    );
    num(
        "delivered_packets",
        a.delivered_packets,
        b.delivered_packets,
    );
    num("dropped_packets", a.dropped_packets, b.dropped_packets);
    num("links_used", a.links_used, b.links_used);
    num(
        "peak_packet_slots",
        a.peak_packet_slots,
        b.peak_packet_slots,
    );
    for (name, x, y) in [
        ("mean_delay", a.mean_delay, b.mean_delay),
        ("p99_delay", a.p99_delay, b.p99_delay),
        (
            "max_link_load_bps",
            a.max_link_load_bps,
            b.max_link_load_bps,
        ),
        (
            "total_link_load_bps",
            a.total_link_load_bps,
            b.total_link_load_bps,
        ),
    ] {
        if x.to_bits() != y.to_bits() {
            drift.push(format!("{id}: sim {name} {x} vs {y}"));
        }
    }
}

/// Appends per-field drift lines for a failure-stage pair (bit-identical
/// float comparison, like the top-level result fields).
fn drift_failure(
    drift: &mut Vec<String>,
    id: &str,
    a: &FailureScenarioResult,
    b: &FailureScenarioResult,
) {
    if a.reopt_iterations != b.reopt_iterations {
        drift.push(format!(
            "{id}: failure reopt_iterations {} vs {}",
            a.reopt_iterations, b.reopt_iterations
        ));
    }
    if a.reconfig_steps != b.reconfig_steps {
        drift.push(format!(
            "{id}: failure reconfig_steps {} vs {}",
            a.reconfig_steps, b.reconfig_steps
        ));
    }
    for (name, x, y) in [
        ("mlu_ospf", a.mlu_ospf, b.mlu_ospf),
        ("mlu_stale", a.mlu_stale, b.mlu_stale),
        ("mlu_reopt", a.mlu_reopt, b.mlu_reopt),
        ("mlu_robust", a.mlu_robust, b.mlu_robust),
        (
            "reconfig_peak_mlu",
            a.reconfig_peak_mlu,
            b.reconfig_peak_mlu,
        ),
        (
            "reconfig_greedy_peak_mlu",
            a.reconfig_greedy_peak_mlu,
            b.reconfig_greedy_peak_mlu,
        ),
    ] {
        if x.to_bits() != y.to_bits() {
            drift.push(format!("{id}: failure {name} {x} vs {y}"));
        }
    }
}

/// Appends per-field drift lines for a scale-stage pair. The size counts
/// are bit-compared; the `peak_*_bytes` memory witnesses are deliberately
/// ignored — they vary with the tile-size execution knob and chain-shared
/// workspace history (see [`ScaleScenarioResult`]).
fn drift_scale(
    drift: &mut Vec<String>,
    id: &str,
    a: &ScaleScenarioResult,
    b: &ScaleScenarioResult,
) {
    for (name, x, y) in [
        ("nodes", a.nodes, b.nodes),
        ("links", a.links, b.links),
        ("dests", a.dests, b.dests),
        ("fib_entries", a.fib_entries, b.fib_entries),
    ] {
        if x != y {
            drift.push(format!("{id}: scale {name} {x} vs {y}"));
        }
    }
}

/// Batch execution options.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Run scenarios one at a time on the calling thread instead of fanning
    /// out over rayon (useful for profiling a single scenario's cost).
    pub serial: bool,
    /// Event scheduler driving the sim stages (default: calendar). Results
    /// are bit-identical either way — the flag exists so the regression
    /// gate and benchmarks can prove exactly that.
    pub sim_scheduler: SchedulerKind,
    /// Destination tile size for the routing arenas
    /// ([`TeWorkspace::set_tile_size`]); `None` = dense. A pure execution
    /// knob: results are bit-identical for every tile size, only peak
    /// memory (and the warm-start fingerprint) changes — the regression
    /// gate cross-diffs tiled vs dense sweeps to prove exactly that.
    pub tile: Option<usize>,
}

/// The routing a scenario's solver row produced: a full SPEF pipeline, or
/// the even-ECMP routing of the Fortz–Thorup weight search.
enum PipelineRouting {
    Spef(SpefRouting),
    FortzThorup(FtOutcome),
}

impl PipelineRouting {
    fn max_link_utilization(&self, network: &Network) -> f64 {
        match self {
            PipelineRouting::Spef(r) => r.max_link_utilization(network),
            PipelineRouting::FortzThorup(ft) => ft.routing.max_link_utilization(network),
        }
    }

    fn normalized_utility(&self, network: &Network) -> f64 {
        match self {
            PipelineRouting::Spef(r) => r.normalized_utility(network),
            PipelineRouting::FortzThorup(ft) => ft.routing.normalized_utility(network),
        }
    }

    /// TE iterations for SPEF rows; weight evaluations for FT rows (the
    /// unit of solver work either way).
    fn iterations(&self) -> u64 {
        match self {
            PipelineRouting::Spef(r) => r.te_solution().iterations as u64,
            PipelineRouting::FortzThorup(ft) => ft.evaluations as u64,
        }
    }

    /// FT rows have no NEM stage, so convergence holds vacuously.
    fn nem_converged(&self) -> bool {
        match self {
            PipelineRouting::Spef(r) => r.nem_converged(),
            PipelineRouting::FortzThorup(_) => true,
        }
    }

    fn forwarding_table(&self) -> &ForwardingTable {
        match self {
            PipelineRouting::Spef(r) => r.forwarding_table(),
            PipelineRouting::FortzThorup(ft) => ft.routing.forwarding_table(),
        }
    }
}

/// A solved pipeline kept alive so later scenarios in the same chain can
/// reuse it: the materialized instance plus the routing it produced.
struct SolvedPipeline {
    network: Network,
    traffic: TrafficMatrix,
    routing: PipelineRouting,
}

/// The fixed Fortz–Thorup search budget of [`SolverSpec::FortzThorup`]
/// sweep rows (part of the rows' identity — see the variant docs).
const SWEEP_FT_CONFIG: FtConfig = FtConfig {
    max_weight: 20,
    max_evaluations: 1000,
    restarts: 1,
    seed: 0xF7,
};

/// Materializes and solves a scenario's pipeline (everything up to, not
/// including, the sim stage) on the given workspace.
///
/// Saved solver trajectories are dropped first, so the solve is a cold
/// (bit-identical) iteration sequence on warm arenas — chain reuse must
/// never move a result.
fn solve_pipeline(
    scenario: &Scenario,
    ws: &mut TeWorkspace,
    spf: &mut SpfStats,
) -> Result<SolvedPipeline, String> {
    let network = scenario.topology.build();
    let traffic = scenario.traffic.build(&network);
    let routing = if scenario.solver == SolverSpec::FortzThorup {
        let ft = FtOutcome::local_search(&network, &traffic, &SWEEP_FT_CONFIG)
            .map_err(|e| e.to_string())?;
        spf.accumulate(ft.spf_stats);
        // An overloaded best routing has no finite utility, which the
        // report's JSON round trip cannot carry — report it as a
        // deterministic scenario failure (like the infeasible Frank–Wolfe
        // rows this family already pins).
        let mlu = ft.routing.max_link_utilization(&network);
        if mlu >= 1.0 {
            return Err(format!(
                "Fortz-Thorup best weights overload the network (MLU {mlu})"
            ));
        }
        PipelineRouting::FortzThorup(ft)
    } else {
        let objective = scenario.objective.build(network.link_count());
        let config = scenario.solver.build();
        ws.clear_solutions();
        let routing = config
            .solve_in(TeInstance::new(&network, &traffic, &objective), ws)
            .map_err(|e| e.to_string())?;
        PipelineRouting::Spef(routing)
    };
    Ok(SolvedPipeline {
        network,
        traffic,
        routing,
    })
}

/// Runs a scenario's optional packet-level sim stage against an already
/// solved pipeline.
fn sim_stage(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    sim_scheduler: SchedulerKind,
    sim_ws: &mut SimWorkspace,
) -> Result<Option<SimScenarioResult>, String> {
    let Some(spec) = &scenario.sim else {
        return Ok(None);
    };
    let mut cfg = spec.config();
    cfg.scheduler = sim_scheduler;
    let report = simulate_with(
        &solved.network,
        &solved.traffic,
        solved.routing.forwarding_table(),
        &cfg,
        sim_ws,
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(Some(SimScenarioResult {
        generated_packets: report.generated_packets,
        delivered_packets: report.delivered_packets,
        dropped_packets: report.dropped_packets,
        mean_delay: report.mean_delay,
        p99_delay: report.p99_delay,
        links_used: report.links_used as u64,
        max_link_load_bps: report
            .mean_link_load_bps
            .iter()
            .cloned()
            .fold(0.0, f64::max),
        total_link_load_bps: report.mean_link_load_bps.iter().sum(),
        peak_packet_slots: report.peak_packet_slots,
    }))
}

/// Per-chain memo of robust weight-search worst cases. The search depends
/// on the intact instance and the search parameters — not on which circuit
/// a scenario fails — so every circuit of a chain shares one search.
/// Memoization is a pure speedup: the search is deterministic, so a chain
/// of one ([`run_scenario`]) recomputing it gets bit-identical values.
type RobustMemo = Vec<(String, f64)>;

/// Persistent failure-stage MLU probes, one per weight setting (OSPF /
/// stale-SPEF). Shared across every scenario of a chain so circuit probes
/// ride in-place mask round-trips on retained engine state instead of
/// building a fresh engine (and a fresh degraded `Network` routing) per
/// scenario — results are bit-identical either way (see
/// [`reconfig::MluProbe`]).
struct FailureProbes {
    ospf: reconfig::MluProbe,
    stale: reconfig::MluProbe,
}

impl FailureProbes {
    fn new() -> FailureProbes {
        FailureProbes {
            ospf: reconfig::MluProbe::new(false),
            stale: reconfig::MluProbe::new(false),
        }
    }

    /// Both probes' SPF counters, summed.
    fn spf_stats(&self) -> SpfStats {
        let mut total = self.ospf.spf_stats();
        total.accumulate(self.stale.spf_stats());
        total
    }
}

/// Runs a scenario's optional single-circuit failure stage against an
/// already solved (intact) pipeline: fail the circuit, measure the OSPF /
/// stale-SPEF / re-optimised-SPEF MLU triple, the robust-weight worst
/// case, and the stale→reopt weight-reconfiguration transient.
///
/// The re-optimisation clears the workspace's saved trajectories first
/// ([`TeWorkspace::clear_solutions`]) so it runs the cold iteration
/// sequence: long chains and chains of one stay bit-identical (the
/// removal warm start's iteration savings are proven by the solver tests
/// and the bench lane, never inside the gated sweep).
fn failure_stage(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    ws: &mut TeWorkspace,
    robust_memo: &mut RobustMemo,
    probes: &mut FailureProbes,
    spf: &mut SpfStats,
) -> Result<Option<FailureScenarioResult>, String> {
    let Some(spec) = &scenario.failure else {
        return Ok(None);
    };
    // The stage re-optimises with the scenario's SPEF solver and needs the
    // intact solve's continuous weights — neither exists for an FT row.
    let PipelineRouting::Spef(intact) = &solved.routing else {
        return Err(
            "failure stage: supported for SPEF solvers only (fw/fw-fast/fw-pinned/dd)".to_string(),
        );
    };
    let circuits = solved.network.duplex_circuits();
    let c = spec.circuit as usize;
    if c >= circuits.len() {
        return Err(format!(
            "failure stage: circuit index {c} out of range ({} duplex circuits)",
            circuits.len()
        ));
    }
    let (degraded, kept) = solved
        .network
        .without_links(&circuits[c])
        .map_err(|e| format!("failure stage: failing circuit {c}: {e}"))?;
    let dests = solved.traffic.destinations();
    let remap = |vals: &[f64]| -> Vec<f64> { kept.iter().map(|&old| vals[old.index()]).collect() };

    // OSPF reconvergence: InvCap weights on the survivors, even ECMP —
    // probed by masking the circuit on the persistent intact-network
    // engine (bit-identical to cold routing on `degraded`).
    let invcap: Vec<f64> = solved
        .network
        .capacities()
        .iter()
        .map(|c| 1.0 / c)
        .collect();
    let mlu_ospf = probes
        .ospf
        .mlu(
            &solved.network,
            &solved.traffic,
            &dests,
            &invcap,
            0.0,
            &circuits[c],
        )
        .map_err(|e| format!("failure stage: OSPF routing: {e}"))?;

    // Stale SPEF: the intact-optimal first weights on the survivors. The
    // continuous weights solve nothing on the degraded topology, so
    // equal-cost ties use the shared coarse threshold (see
    // [`STALE_WEIGHT_DAG_RTOL`]'s contract), scaled by the largest
    // *surviving* weight — the same maximum the kept-remapped vector
    // folds to.
    let w_stale = remap(&intact.te_solution().weights);
    let max_w = w_stale.iter().cloned().fold(0.0, f64::max);
    let mlu_stale = probes
        .stale
        .mlu(
            &solved.network,
            &solved.traffic,
            &dests,
            &intact.te_solution().weights,
            STALE_WEIGHT_DAG_RTOL * max_w,
            &circuits[c],
        )
        .map_err(|e| format!("failure stage: stale-weight routing: {e}"))?;

    // Full SPEF re-optimisation on the degraded topology.
    let obj = scenario.objective.build(degraded.link_count());
    let config = scenario.solver.build();
    ws.clear_solutions();
    let reopt = config
        .solve_in(TeInstance::new(&degraded, &solved.traffic, &obj), ws)
        .map_err(|e| format!("failure stage: re-optimisation after circuit {c}: {e}"))?;
    let mlu_reopt = reopt.max_link_utilization(&degraded);

    // Robust weight search on the intact instance (chain-memoized).
    let robust_key = format!(
        "{}+e{}s{}",
        scenario.solve_key(),
        spec.robust_evals,
        spec.robust_seed
    );
    let mlu_robust = match robust_memo.iter().find(|(k, _)| *k == robust_key) {
        Some((_, worst)) => *worst,
        None => {
            let cfg = RobustConfig {
                max_evaluations: spec.robust_evals as usize,
                seed: spec.robust_seed,
                ..RobustConfig::default()
            };
            let out = RobustOutcome::local_search(&solved.network, &solved.traffic, &cfg)
                .map_err(|e| format!("failure stage: robust weight search: {e}"))?;
            spf.accumulate(out.spf_stats);
            robust_memo.push((robust_key, out.worst_mlu));
            out.worst_mlu
        }
    };

    // Reconfiguration transient: ordered pushes from the stale weights to
    // the re-optimised ones.
    let (transit, transit_spf) = reconfig::migrate_with(
        &degraded,
        &solved.traffic,
        &w_stale,
        &reopt.te_solution().weights,
    )
    .map_err(|e| format!("failure stage: reconfiguration transient: {e}"))?;
    spf.accumulate(transit_spf);

    Ok(Some(FailureScenarioResult {
        mlu_ospf,
        mlu_stale,
        mlu_reopt,
        reopt_iterations: reopt.te_solution().iterations as u64,
        mlu_robust,
        reconfig_steps: transit.steps as u64,
        reconfig_peak_mlu: transit.naive_peak_mlu,
        reconfig_greedy_peak_mlu: transit.greedy_peak_mlu,
    }))
}

/// Runs a scenario's optional scale stage: record the instance's size
/// counts plus the workspace and FIB arena high-water marks reached while
/// solving it. Size counts are bit-diffed; the byte peaks are excluded
/// from [`result_drift`] because they are exactly what the tile knob is
/// supposed to change (and, in chain mode, reflect the chain-shared
/// workspace's history rather than one scenario).
fn scale_stage(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    ws: &TeWorkspace,
) -> Option<ScaleScenarioResult> {
    if !scenario.scale {
        return None;
    }
    let table = solved.routing.forwarding_table();
    Some(ScaleScenarioResult {
        nodes: solved.network.node_count() as u64,
        links: solved.network.link_count() as u64,
        dests: solved.traffic.destinations().len() as u64,
        fib_entries: table.entry_count() as u64,
        peak_arena_bytes: ws.arena_bytes() as u64,
        peak_fib_bytes: table.arena_bytes() as u64,
    })
}

/// Assembles the per-scenario measurements from a solved pipeline.
fn measure(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    sim: Option<SimScenarioResult>,
    failure: Option<FailureScenarioResult>,
    scale: Option<ScaleScenarioResult>,
    started: Instant,
) -> ScenarioResult {
    ScenarioResult {
        scenario: scenario.clone(),
        mlu: solved.routing.max_link_utilization(&solved.network),
        utility: solved.routing.normalized_utility(&solved.network),
        iterations: solved.routing.iterations(),
        nem_converged: solved.routing.nem_converged(),
        sim,
        failure,
        scale,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// A scenario's outcome tagged with its original batch index so the caller
/// can restore submission order after the parallel chain fan-out.
type IndexedOutcome = (usize, Scenario, Result<ScenarioResult, String>);

/// Runs one warm-start chain serially: every scenario shares the chain's
/// workspace pair, and scenarios with equal solve keys (identical up to the
/// sim stage) share one pipeline solve. Returns each scenario tagged with
/// its original batch index so the caller can restore submission order.
fn run_chain(
    chain: Vec<(usize, Scenario)>,
    options: &BatchOptions,
) -> (Vec<IndexedOutcome>, SpfStats) {
    let mut ws = TeWorkspace::new();
    ws.set_tile_size(options.tile);
    let mut sim_ws = SimWorkspace::new();
    // One probe pair per chain: every failure-stage circuit of the chain
    // rides mask round-trips on the same retained engine state.
    let mut probes = FailureProbes::new();
    let mut spf = SpfStats::default();
    // Chains are short (one entry per load × sim/failure point), so
    // linear-scan memos keyed by solve key beat hashing.
    let mut memo: Vec<(String, Result<SolvedPipeline, String>)> = Vec::new();
    let mut robust_memo = RobustMemo::new();
    let mut out = Vec::with_capacity(chain.len());
    for (index, scenario) in chain {
        let started = Instant::now();
        let key = scenario.solve_key();
        if !memo.iter().any(|(k, _)| *k == key) {
            let solved = solve_pipeline(&scenario, &mut ws, &mut spf);
            memo.push((key.clone(), solved));
        }
        let pos = memo
            .iter()
            .position(|(k, _)| *k == key)
            .expect("solve key was just memoized");
        let outcome = match &memo[pos].1 {
            Err(e) => Err(e.clone()),
            Ok(solved) => failure_stage(
                &scenario,
                solved,
                &mut ws,
                &mut robust_memo,
                &mut probes,
                &mut spf,
            )
            .and_then(|failure| {
                sim_stage(&scenario, solved, options.sim_scheduler, &mut sim_ws).map(|sim| {
                    let scale = scale_stage(&scenario, solved, &ws);
                    measure(&scenario, solved, sim, failure, scale, started)
                })
            }),
        };
        out.push((index, scenario, outcome));
    }
    spf.accumulate(ws.spf_stats());
    spf.accumulate(probes.spf_stats());
    (out, spf)
}

/// Runs one scenario end to end, isolated — a chain of one on fresh
/// workspaces, default options: materialize → solve → (optionally)
/// simulate → measure.
///
/// # Errors
///
/// Returns the stringified solver error (e.g. infeasible demands at the
/// requested load) or simulator error.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult, String> {
    let (mut out, _) = run_chain(vec![(0, scenario.clone())], &BatchOptions::default());
    out.pop().expect("a chain of one yields one outcome").2
}

/// Runs a batch of scenarios, in parallel unless
/// [`BatchOptions::serial`] is set.
///
/// Scenarios are grouped into warm-start chains (see the module docs):
/// rayon fans out across chains, each chain runs serially on shared
/// workspaces, and scenarios identical up to the sim stage share one solve.
///
/// Results and failures come back in scenario order regardless of the
/// parallel schedule or chain grouping, and every field except the
/// wall-clock times is a pure function of the scenario (each run re-seeds
/// its own generators), so a sweep is reproducible run-to-run,
/// machine-to-machine, and mode-to-mode.
pub fn run_batch(scenarios: Vec<Scenario>, options: &BatchOptions) -> BatchReport {
    let started = Instant::now();
    let threads = if options.serial {
        1
    } else {
        rayon::current_num_threads() as u64
    };
    let mut spf_total = SpfStats::default();
    // Group into chains keyed by everything but the load and sim axes,
    // preserving first-appearance chain order and submission order
    // within each chain.
    let mut chains: Vec<Vec<(usize, Scenario)>> = Vec::new();
    let mut chain_index: HashMap<String, usize> = HashMap::new();
    for (i, s) in scenarios.into_iter().enumerate() {
        match chain_index.get(&s.chain_key()) {
            Some(&c) => chains[c].push((i, s)),
            None => {
                chain_index.insert(s.chain_key(), chains.len());
                chains.push(vec![(i, s)]);
            }
        }
    }
    let per_chain: Vec<(Vec<IndexedOutcome>, SpfStats)> = if options.serial {
        chains.into_iter().map(|c| run_chain(c, options)).collect()
    } else {
        chains
            .into_par_iter()
            .map(|c| run_chain(c, options))
            .collect()
    };
    let mut outcomes: Vec<IndexedOutcome> = per_chain
        .into_iter()
        .flat_map(|(outcomes, spf)| {
            spf_total.accumulate(spf);
            outcomes
        })
        .collect();
    outcomes.sort_by_key(|(i, _, _)| *i);

    let mut results = Vec::new();
    let mut failures = Vec::new();
    for (_, scenario, outcome) in outcomes {
        match outcome {
            Ok(result) => results.push(result),
            Err(error) => failures.push(ScenarioFailure { scenario, error }),
        }
    }
    BatchReport {
        schema_version: BATCH_SCHEMA_VERSION,
        results,
        failures,
        total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
        threads,
        tile_size: options.tile.map(|t| t as u64),
        spf: (spf_total.builds > 0).then(|| SpfStatsResult::from_stats(spf_total)),
        spf_repair: SpfRepairResult::from_stats(spf_total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TrafficModel;
    use crate::scenario::{ObjectiveSpec, ScenarioGrid, SolverSpec, TopologySpec, TrafficSpec};

    #[test]
    fn single_scenario_runs_and_reports() {
        let scenario = Scenario::new(
            TopologySpec::Fig1,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 3,
                load: 0.2,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        );
        let result = run_scenario(&scenario).expect("fig1 at load 0.2 is feasible");
        assert!(result.mlu > 0.0 && result.mlu < 1.0);
        assert!(result.iterations > 0);
        assert_eq!(result.scenario, scenario);
    }

    #[test]
    fn infeasible_scenario_is_reported_not_dropped() {
        let scenario = Scenario::new(
            TopologySpec::Fig1,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 3,
                load: 50.0, // 50× total capacity cannot be routed
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        );
        let report = run_batch(vec![scenario], &BatchOptions::default());
        assert!(report.results.is_empty());
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    fn result_drift_ignores_wall_clock_but_catches_everything_else() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig1])
            .seeds([1, 2])
            .loads([0.15])
            .build();
        let base = run_batch(scenarios.clone(), &BatchOptions::default());
        let mut other = run_batch(
            scenarios,
            &BatchOptions {
                serial: true,
                ..BatchOptions::default()
            },
        );
        // Same deterministic results, different wall clock/threads: clean.
        assert!(
            base.result_drift(&other).is_empty(),
            "{:?}",
            base.result_drift(&other)
        );

        // Any result field flip is drift.
        other.results[0].mlu += 1e-15;
        assert_eq!(base.result_drift(&other).len(), 1);
        other.results[0].mlu = base.results[0].mlu;
        other.results[1].iterations += 1;
        assert_eq!(base.result_drift(&other).len(), 1);
        other.results.pop();
        assert!(!base.result_drift(&other).is_empty());
    }

    /// The isolated reference: each scenario through [`run_scenario`] (a
    /// chain of one), folded into a report `result_drift` can compare.
    fn isolated(scenarios: &[Scenario]) -> BatchReport {
        let mut report = run_batch(Vec::new(), &BatchOptions::default());
        for s in scenarios {
            match run_scenario(s) {
                Ok(r) => report.results.push(r),
                Err(error) => report.failures.push(ScenarioFailure {
                    scenario: s.clone(),
                    error,
                }),
            }
        }
        report
    }

    #[test]
    fn warm_chains_match_cold_solves_bit_for_bit() {
        // Two chains (fig4, abilene), each spanning two loads × two sim
        // durations: exercises workspace reuse along the load axis AND
        // solve sharing across sim durations.
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig4, TopologySpec::Abilene])
            .seeds([1])
            .loads([0.1, 0.15])
            .sim_durations([1.0, 2.0])
            .build();
        assert_eq!(scenarios.len(), 8);
        let cold = isolated(&scenarios);
        let warm = run_batch(scenarios, &BatchOptions::default());
        assert_eq!(warm.results.len(), 8);
        let drift = cold.result_drift(&warm);
        assert!(drift.is_empty(), "warm vs cold drift: {drift:?}");
    }

    #[test]
    fn ft_rows_solve_and_match_isolated_runs_bit_for_bit() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig4])
            .seeds([1])
            .loads([0.1, 0.15])
            .solvers([SolverSpec::FrankWolfeFast, SolverSpec::FortzThorup])
            .build();
        let chained = run_batch(scenarios.clone(), &BatchOptions::default());
        assert_eq!(chained.results.len(), 4);
        let ft = &chained.results[1];
        assert!(ft.scenario.id.ends_with("+ft"));
        assert!(ft.mlu > 0.0 && ft.mlu < 1.0);
        assert!(ft.utility.is_finite());
        assert!(ft.nem_converged, "vacuous for FT rows");
        let drift = isolated(&scenarios).result_drift(&chained);
        assert!(drift.is_empty(), "chain vs isolated drift: {drift:?}");
    }

    #[test]
    fn ft_rows_reject_the_failure_stage() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Abilene])
            .seeds([1])
            .loads([0.05])
            .solvers([SolverSpec::FortzThorup])
            .failure_circuits([0])
            .build();
        let report = run_batch(scenarios, &BatchOptions::default());
        assert!(report.results.is_empty());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].error.contains("SPEF solvers only"));
    }

    #[test]
    fn chain_grouping_preserves_submission_order() {
        // Interleave two chains by hand; results must come back in the
        // submitted order, not grouped by chain.
        let mut scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig1, TopologySpec::Fig4])
            .seeds([1])
            .loads([0.1, 0.15])
            .build();
        scenarios.swap(1, 2); // fig1-l0.1, fig4-l0.1, fig1-l0.15, fig4-l0.15
        let ids: Vec<String> = scenarios.iter().map(|s| s.id.clone()).collect();
        let report = run_batch(scenarios, &BatchOptions::default());
        let got: Vec<String> = report
            .results
            .iter()
            .map(|r| r.scenario.id.clone())
            .collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig1, TopologySpec::Fig4])
            .seeds([1, 2])
            .loads([0.15])
            .build();
        let par = run_batch(scenarios.clone(), &BatchOptions::default());
        let ser = run_batch(
            scenarios,
            &BatchOptions {
                serial: true,
                ..BatchOptions::default()
            },
        );
        assert_eq!(par.results.len(), ser.results.len());
        for (a, b) in par.results.iter().zip(&ser.results) {
            assert_eq!(a.scenario.id, b.scenario.id, "order is preserved");
            assert_eq!(a.mlu, b.mlu);
            assert_eq!(a.utility, b.utility);
            assert_eq!(a.iterations, b.iterations);
        }
    }
}
