//! The benchmark's metric registry: the single source of `BENCHMARK.json`
//! (`perfbench --write-manifest BENCHMARK.json` regenerates it).

use serde::Value;

use crate::obj;
use crate::trace::Layer;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--offline",
    "--release",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "te_stream",
        "Operator path new traffic matrix -> new weights: FW, NEM and FIB re-solves on Abilene, CERNET2 and Rand50a; a day of snapshots that warm-start, every 6th (fresh matrix) cold.",
    ),
    (
        "whatif",
        "Routing what-if probes on persistent engines (Hier200, Rand100), mixed as one FT search (1000 weight changes) plus an InvCap and a stale-SPEF failure sweep; no FW or NEM.",
    ),
    (
        "packet_sim",
        "Paper Fig. 11 evaluation: simulate_with over SPEF FIBs on Abilene, CERNET2 and Rand50a; calendar queue and FIB lookups, no TE work.",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Metrics a user of the system sees, reported by every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "op_ref_p50",
        unit: "ref",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ref_p90",
        unit: "ref",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_kref",
        unit: "1/kref",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "mlu_mean",
        unit: "ratio",
        better: "lower",
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
    }
}

/// Networks whose calendar-queue geometry the traced `packet_sim` run
/// reports one by one.
pub const SIM_NETWORKS: [&str; 3] = ["abilene", "cernet2", "rand50a"];

/// Metrics of single layers, reported by the traced run of every
/// workload (a layer the workload never calls reads 0).
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for l in Layer::ALL {
        out.push(layer(format!("{}.ms", l.name()), "ms", "lower"));
        out.push(layer(format!("{}.share", l.name()), "ratio", "lower"));
    }
    for (name, unit, better) in [
        ("frank_wolfe.iterations", "count", "lower"),
        ("nem.iterations", "count", "lower"),
        ("nem.converged", "count", "higher"),
        ("nem.realised_dev", "ratio", "lower"),
        ("fib.entries", "count", "lower"),
        ("engine.spf.builds", "count", "lower"),
        ("engine.spf.incremental_builds", "count", "higher"),
        ("engine.spf.topology_builds", "count", "higher"),
        ("engine.spf.slots_rebuilt", "count", "lower"),
        ("engine.dense_fallbacks", "count", "lower"),
        ("engine.dirty_frac", "ratio", "lower"),
        ("solver.arena_bytes", "B", "lower"),
        ("engine.arena_bytes", "B", "lower"),
        ("netsim.ns_per_pkt", "ns", "lower"),
        ("netsim.generated", "count", "higher"),
        ("netsim.delivered", "count", "higher"),
        ("netsim.dropped", "count", "lower"),
        ("netsim.peak_packet_slots", "count", "lower"),
        ("netsim.sched.peak_events", "count", "lower"),
        ("netsim.sched.resizes", "count", "lower"),
        ("netsim.sched.peak_overflow", "count", "lower"),
        ("netsim.sched.bucket_width_ns", "ns", "lower"),
    ] {
        out.push(layer(name, unit, better));
    }
    for net in SIM_NETWORKS {
        out.push(layer(
            format!("netsim.sched.bucket_width_ns.{net}"),
            "ns",
            "lower",
        ));
        out.push(layer(
            format!("netsim.sched.overflow_frac.{net}"),
            "ratio",
            "lower",
        ));
    }
    for (name, unit, better) in [
        ("trace.overhead_pct", "%", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "higher"),
    ] {
        out.push(layer(name, unit, better));
    }
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    obj([
        (
            "command",
            Value::Array(COMMAND.iter().map(|s| Value::from(*s)).collect()),
        ),
        ("paths", Value::Array(vec![Value::from("perfbench")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        obj([("name", Value::from(*name)), ("why", Value::from(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better)),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .into_iter()
                    .map(|m| {
                        obj([
                            ("name", Value::String(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_registry() {
        let committed = include_str!("../../BENCHMARK.json");
        let generated = serde_json::to_string_pretty(&manifest()).unwrap();
        assert_eq!(committed.trim_end(), generated);
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name.to_string());
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let layers = per_layer();
        assert!(!layers.is_empty() && layers.len() <= 128);
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name.clone());
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }
}
