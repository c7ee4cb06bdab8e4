//! `whatif`: routing what-if queries on persistent engines.
//!
//! A seeded mix of three query kinds per topology, in the proportions of
//! the repository's own probe loops (see [`query_counts`]):
//!
//! * a Fortz–Thorup-shaped single-weight change — `build_dags` +
//!   `distribute_into` + MLU on an integer weight vector, kept when it
//!   lowers the MLU (first-improvement local search) and undone otherwise;
//!   the search restarts from the starting weights at every pass, so
//!   passes repeat the same work;
//! * a single-circuit failure under InvCap weights, via
//!   `reconfig::MluProbe::mlu`;
//! * a single-circuit failure under stale SPEF weights from one pinned
//!   solve in set-up, again through a persistent `MluProbe`.
//!
//! The traffic matrices are fixed ([`MATRIX_SEED`]); the run seed drives
//! which links, weights and circuits the queries touch and their order.
//! Bridge circuits are dropped in set-up. The traced run repeats every
//! query on a second set of engines by issuing the engine calls the probe
//! makes directly (fail, build, distribute, restore), each in a span, and
//! requires the same MLU bit for bit.

use std::time::{Duration, Instant};

use serde::Value;
use spef_core::metrics::max_link_utilization;
use spef_core::{
    EngineState, Flows, Objective, RoutingEngine, SpefError, SplitRule, TeInstance, TeSolver,
    TeSolverKind, STALE_WEIGHT_DAG_RTOL,
};
use spef_experiments::reconfig::MluProbe;
use spef_experiments::scenario::{SolverSpec, TopologySpec};
use spef_graph::{EdgeId, GraphError, NodeId};
use spef_topology::{Network, TrafficMatrix};

use crate::inputs::{derive, fortz_thorup, non_bridge_circuits, shuffle, Digest, Rng, MATRIX_SEED};
use crate::trace::{span_if, Layer, Tracer};
use crate::{closed_loop, obj, timed_setups, Outcome, RunConfig, SpfTotals};

/// Topologies and the network load of their traffic matrices.
const TOPOLOGIES: [(TopologySpec, f64); 2] =
    [(TopologySpec::Hier200, 0.04), (TopologySpec::Rand100, 0.05)];
/// Queries per topology in one pass.
const QUERIES: usize = 200;
/// Integer weight range of the weight-change queries (Fortz–Thorup's).
const MAX_WEIGHT: usize = 20;
/// Weight evaluations of one Fortz–Thorup search (`SolverSpec::FortzThorup`'s
/// budget).
const FT_EVALS: usize = 1000;
/// Share of first-pass queries re-evaluated cold after the timed section.
const SAMPLE_SHARE: f64 = 0.1;

#[derive(Clone, Copy, Debug)]
enum Query {
    Weight { link: usize, value: f64 },
    InvCapFailure { circuit: usize },
    StaleFailure { circuit: usize },
}

/// Queries of each kind — weight changes, InvCap failures, stale-weight
/// failures — in a pass of `total` queries on a network with `circuits`
/// non-bridge circuits. The shares are those of one Fortz–Thorup search
/// ([`FT_EVALS`] weight evaluations) plus one single-failure sweep, which
/// probes every non-bridge circuit once under InvCap and once under the
/// stale SPEF weights (`failure.rs`): `FT_EVALS : circuits : circuits`.
fn query_counts(total: usize, circuits: usize) -> [usize; 3] {
    let weight = (total as f64 * FT_EVALS as f64 / (FT_EVALS + 2 * circuits) as f64).round();
    let weight = weight as usize;
    let invcap = (total - weight) / 2;
    [weight, invcap, total - weight - invcap]
}

struct Topo {
    net: Network,
    tm: TrafficMatrix,
    dests: Vec<NodeId>,
    circuits: Vec<Vec<EdgeId>>,
    invcap: Vec<f64>,
    stale: Vec<f64>,
    /// Stale tie tolerance per circuit, scaled to the largest surviving
    /// weight as the failure studies do.
    stale_tol: Vec<f64>,
    start_weights: Vec<f64>,
    queries: Vec<Query>,
    sampled: Vec<bool>,
}

/// The engine state one query kind runs on, attached per call the way
/// `MluProbe` attaches its own.
struct Probe {
    state: Option<EngineState>,
    flows: Option<Flows>,
    /// `build_dags` calls that ran dense (see [`build_dags_counted`]).
    dense_builds: u64,
}

/// `engine.build_dags`, counting the call in `dense` when it ran an SPF
/// build that the dirty-set path did not serve. A call the weight
/// fingerprint skips builds nothing; topology patches happen in
/// `fail_links`/`restore_links`, not here.
fn build_dags_counted(
    engine: &mut RoutingEngine<'_>,
    dense: &mut u64,
    weights: &[f64],
    dests: &[NodeId],
    tolerance: f64,
) -> Result<(), GraphError> {
    let before = engine.spf_stats();
    engine.build_dags(weights, dests, tolerance)?;
    let after = engine.spf_stats();
    if after.builds > before.builds && after.incremental_builds == before.incremental_builds {
        *dense += 1;
    }
    Ok(())
}

impl Probe {
    fn new() -> Probe {
        Probe {
            state: None,
            flows: None,
            dense_builds: 0,
        }
    }

    fn attach<'g>(&mut self, net: &'g Network) -> (RoutingEngine<'g>, Flows) {
        let engine = match self.state.take() {
            Some(state) => RoutingEngine::with_state(net.graph(), state),
            None => RoutingEngine::new(net.graph()),
        };
        let flows = self
            .flows
            .take()
            .unwrap_or_else(|| engine.distribute_fresh());
        (engine, flows)
    }

    fn detach(&mut self, engine: RoutingEngine<'_>, flows: Flows) {
        self.state = Some(engine.into_state());
        self.flows = Some(flows);
    }
}

/// Per-topology state of one side (untraced or traced).
struct Side {
    weights: Vec<f64>,
    mlu: f64,
    /// MLU of the starting weights, restored with them at each pass.
    start_mlu: f64,
    weight_probe: Probe,
}

impl Side {
    /// Starts the weight search over, so every pass does the same work.
    fn restart(&mut self, start_weights: &[f64]) {
        self.weights.copy_from_slice(start_weights);
        self.mlu = self.start_mlu;
    }
}

struct Untraced {
    side: Side,
    invcap: MluProbe,
    stale: MluProbe,
}

struct Traced {
    side: Side,
    invcap: Probe,
    stale: Probe,
}

impl Traced {
    fn probes(&self) -> [&Probe; 3] {
        [&self.side.weight_probe, &self.invcap, &self.stale]
    }

    /// The engine states this side has built so far.
    fn states(&self) -> impl Iterator<Item = &EngineState> {
        self.probes().into_iter().filter_map(|p| p.state.as_ref())
    }

    /// Builds served in place (dirty-set or topology patch) so far.
    fn patched_builds(&self) -> u64 {
        self.states()
            .map(|s| {
                let st = s.spf_stats();
                st.incremental_builds + st.topology_builds
            })
            .sum()
    }
}

fn setup(seed: u64) -> Result<(Vec<Topo>, u64), String> {
    let pinned = SolverSpec::FrankWolfePinned.build();
    let TeSolverKind::FrankWolfe(fw) = &pinned.solver else {
        unreachable!("fw-pinned solves with Frank–Wolfe");
    };
    let mut digest = Digest::new();
    let mut topos = Vec::new();
    for (ti, (spec, load)) in TOPOLOGIES.iter().enumerate() {
        let net = spec.build();
        let tm = fortz_thorup(&net, MATRIX_SEED, *load);
        let dests = tm.destinations();
        let circuits = non_bridge_circuits(&net);
        if circuits.is_empty() {
            return Err(format!("{} has no non-bridge circuit", spec.id()));
        }
        let caps = net.capacities();
        let invcap: Vec<f64> = caps.iter().map(|c| 1.0 / c).collect();
        let objective = Objective::proportional(net.link_count());
        let stale = fw
            .solve(TeInstance::new(&net, &tm, &objective))
            .map_err(|e| format!("pinned solve on {}: {e}", spec.id()))?
            .weights;
        let stale_tol = circuits
            .iter()
            .map(|c| {
                let max_w = stale
                    .iter()
                    .enumerate()
                    .filter(|(e, _)| !c.contains(&EdgeId::new(*e)))
                    .map(|(_, w)| *w)
                    .fold(0.0, f64::max);
                STALE_WEIGHT_DAG_RTOL * max_w
            })
            .collect();
        let max_cap = caps.iter().cloned().fold(0.0, f64::max);
        let start_weights = caps
            .iter()
            .map(|c| (max_cap / c).round().clamp(1.0, MAX_WEIGHT as f64))
            .collect();

        let mut rng = Rng::new(derive(seed, "whatif.queries", ti as u64));
        let [weight, invcap_failures, stale_failures] = query_counts(QUERIES, circuits.len());
        let mut queries = Vec::with_capacity(QUERIES);
        for _ in 0..weight {
            queries.push(Query::Weight {
                link: rng.below(net.link_count()),
                value: (1 + rng.below(MAX_WEIGHT)) as f64,
            });
        }
        // Like a failure sweep, each kind fails distinct circuits (cycling
        // only if a pass asks for more failures than there are circuits).
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        shuffle(&mut order, &mut rng);
        for i in 0..invcap_failures {
            queries.push(Query::InvCapFailure {
                circuit: order[i % order.len()],
            });
        }
        shuffle(&mut order, &mut rng);
        for i in 0..stale_failures {
            queries.push(Query::StaleFailure {
                circuit: order[i % order.len()],
            });
        }
        shuffle(&mut queries, &mut rng);
        let mut sampled = Vec::with_capacity(QUERIES);
        for q in &queries {
            digest.bytes(format!("{q:?}").as_bytes());
            sampled.push(rng.unit() < SAMPLE_SHARE);
        }
        digest.traffic(&tm);
        stale.iter().for_each(|&w| digest.f64(w));
        topos.push(Topo {
            net,
            tm,
            dests,
            circuits,
            invcap,
            stale,
            stale_tol,
            start_weights,
            queries,
            sampled,
        });
    }
    Ok((topos, digest.finish()))
}

/// Builds both sides of one topology and routes the starting weights on
/// every engine, so the timed loop starts from warm persistent state.
fn warm_sides(topo: &Topo, traced: bool) -> Result<(Untraced, Option<Traced>), SpefError> {
    let (net, tm, dests) = (&topo.net, &topo.tm, &topo.dests[..]);
    let side = || -> Result<Side, SpefError> {
        let mut weight_probe = Probe::new();
        let (mut engine, mut flows) = weight_probe.attach(net);
        build_dags_counted(
            &mut engine,
            &mut weight_probe.dense_builds,
            &topo.start_weights,
            dests,
            0.0,
        )?;
        engine.distribute_into(tm, SplitRule::EvenEcmp, &mut flows)?;
        let mlu = max_link_utilization(net, flows.aggregate());
        weight_probe.detach(engine, flows);
        Ok(Side {
            weights: topo.start_weights.clone(),
            mlu,
            start_mlu: mlu,
            weight_probe,
        })
    };
    let mut invcap = MluProbe::new(false);
    invcap.mlu(net, tm, dests, &topo.invcap, 0.0, &[])?;
    let mut stale = MluProbe::new(false);
    stale.mlu(net, tm, dests, &topo.stale, topo.stale_tol[0], &[])?;
    let untraced = Untraced {
        side: side()?,
        invcap,
        stale,
    };
    let traced = if traced {
        // The same intact-network probe calls as above, on the traced
        // side's engines (the spans go to a throwaway tracer).
        let mut scratch = Tracer::new();
        let mut invcap = Probe::new();
        traced_failure(&mut invcap, topo, &topo.invcap, 0.0, &[], &mut scratch)?;
        let mut stale = Probe::new();
        traced_failure(
            &mut stale,
            topo,
            &topo.stale,
            topo.stale_tol[0],
            &[],
            &mut scratch,
        )?;
        Some(Traced {
            side: side()?,
            invcap,
            stale,
        })
    } else {
        None
    };
    Ok((untraced, traced))
}

/// A first-improvement weight step: route `weights` with `link` set to
/// `value`, keep the change if the MLU drops. Returns the candidate's MLU.
fn weight_step(
    side: &mut Side,
    topo: &Topo,
    link: usize,
    value: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<f64, SpefError> {
    let old = side.weights[link];
    side.weights[link] = value;
    let (mut engine, mut flows) = side.weight_probe.attach(&topo.net);
    let routed = (|| {
        span_if(&mut tracer, Layer::EngineBuildDags, || {
            build_dags_counted(
                &mut engine,
                &mut side.weight_probe.dense_builds,
                &side.weights,
                &topo.dests,
                0.0,
            )
        })?;
        span_if(&mut tracer, Layer::EngineDistribute, || {
            engine.distribute_into(&topo.tm, SplitRule::EvenEcmp, &mut flows)
        })?;
        Ok::<f64, SpefError>(max_link_utilization(&topo.net, flows.aggregate()))
    })();
    side.weight_probe.detach(engine, flows);
    let mlu = routed?;
    if mlu < side.mlu {
        side.mlu = mlu;
    } else {
        side.weights[link] = old;
    }
    Ok(mlu)
}

/// The engine calls `MluProbe::mlu` makes, issued directly, each in a span.
fn traced_failure(
    probe: &mut Probe,
    topo: &Topo,
    weights: &[f64],
    tolerance: f64,
    circuit: &[EdgeId],
    tr: &mut Tracer,
) -> Result<f64, SpefError> {
    let (mut engine, mut flows) = probe.attach(&topo.net);
    tr.span(Layer::EngineFailLinks, || engine.fail_links(circuit))?;
    tr.span(Layer::EngineBuildDags, || {
        build_dags_counted(
            &mut engine,
            &mut probe.dense_builds,
            weights,
            &topo.dests,
            tolerance,
        )
    })?;
    tr.span(Layer::EngineDistribute, || {
        engine.distribute_into(&topo.tm, SplitRule::EvenEcmp, &mut flows)
    })?;
    let mlu = max_link_utilization(&topo.net, flows.aggregate());
    tr.span(Layer::EngineRestoreLinks, || engine.restore_links(circuit))?;
    probe.detach(engine, flows);
    Ok(mlu)
}

/// A first-pass answer kept for the cold re-evaluation.
struct Sample {
    topo: usize,
    query: Query,
    /// The routed weight vector of a weight query.
    weights: Option<Vec<f64>>,
    mlu: f64,
}

/// Even-ECMP MLU on a cold engine, over the degraded network for a
/// failure query.
fn cold_mlu(topo: &Topo, sample: &Sample) -> Result<f64, String> {
    let (weights, tolerance, circuit) = match sample.query {
        Query::Weight { .. } => (
            sample
                .weights
                .clone()
                .expect("weight samples keep their vector"),
            0.0,
            None,
        ),
        Query::InvCapFailure { circuit } => (topo.invcap.clone(), 0.0, Some(circuit)),
        Query::StaleFailure { circuit } => {
            (topo.stale.clone(), topo.stale_tol[circuit], Some(circuit))
        }
    };
    let (net, weights) = match circuit {
        None => (topo.net.clone(), weights),
        Some(c) => {
            let (degraded, kept) = topo
                .net
                .without_links(&topo.circuits[c])
                .map_err(|e| e.to_string())?;
            let w = kept.iter().map(|e| weights[e.index()]).collect();
            (degraded, w)
        }
    };
    let mut engine = RoutingEngine::new(net.graph());
    engine
        .build_dags(&weights, &topo.dests, tolerance)
        .map_err(|e| e.to_string())?;
    let flows = engine
        .distribute(&topo.tm, SplitRule::EvenEcmp)
        .map_err(|e| e.to_string())?;
    Ok(max_link_utilization(&net, flows.aggregate()))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let ((topos, digest, sides), setup_s) = timed_setups(|| {
        let (topos, digest) = setup(cfg.seed)?;
        let sides = topos
            .iter()
            .map(|t| warm_sides(t, cfg.traced))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up routing: {e}"))?;
        Ok((topos, digest, sides))
    })?;
    let (mut untraced, mut traced): (Vec<Untraced>, Vec<Option<Traced>>) =
        sides.into_iter().unzip();

    let n = topos.len();
    let pass_len = n * QUERIES;
    let mut tracer = cfg.traced.then(Tracer::new);
    let mut untraced_time = Duration::ZERO;
    let mut samples: Vec<Sample> = Vec::new();
    let mut mlu_sum = 0.0;
    // First-pass counts per kind: (queries, served by a dirty-set or
    // topology patch) on the traced engines.
    let mut kinds = [(0u64, 0u64); 3];
    let mut first_pass_spf: Option<SpfTotals> = None;

    let spf_of = |traced: &[Option<Traced>]| {
        let mut spf = SpfTotals::default();
        let mut bytes = 0;
        for (t, side) in traced.iter().enumerate() {
            for state in side.iter().flat_map(Traced::states) {
                spf.add(state.spf_stats(), topos[t].dests.len());
                bytes += state.arena_bytes();
            }
            for probe in side.iter().flat_map(Traced::probes) {
                spf.dense += probe.dense_builds;
            }
        }
        (spf, bytes)
    };

    let lp = closed_loop(cfg.seconds, pass_len, |pass, k| {
        let t = k % n;
        let i = k / n;
        let topo = &topos[t];
        let query = topo.queries[i];
        let u = &mut untraced[t];
        if i == 0 {
            u.side.restart(&topo.start_weights);
            if let Some(side) = traced[t].as_mut() {
                side.side.restart(&topo.start_weights);
            }
        }
        let start = Instant::now();
        let answer = match query {
            Query::Weight { link, value } => weight_step(&mut u.side, topo, link, value, None),
            Query::InvCapFailure { circuit } => u.invcap.mlu(
                &topo.net,
                &topo.tm,
                &topo.dests,
                &topo.invcap,
                0.0,
                &topo.circuits[circuit],
            ),
            Query::StaleFailure { circuit } => u.stale.mlu(
                &topo.net,
                &topo.tm,
                &topo.dests,
                &topo.stale,
                topo.stale_tol[circuit],
                &topo.circuits[circuit],
            ),
        };
        let elapsed = start.elapsed();
        let mlu = answer.map_err(|e| e.to_string())?;
        if pass == 0 {
            mlu_sum += mlu;
            if topo.sampled[i] {
                let weights = match query {
                    Query::Weight { link, value } => {
                        let mut w = u.side.weights.clone();
                        w[link] = value;
                        Some(w)
                    }
                    _ => None,
                };
                samples.push(Sample {
                    topo: t,
                    query,
                    weights,
                    mlu,
                });
            }
        }

        if let (Some(tr), Some(side)) = (tracer.as_mut(), traced[t].as_mut()) {
            untraced_time += elapsed;
            let before = side.patched_builds();
            let root = tr.enter(Layer::Op);
            let answer = match query {
                Query::Weight { link, value } => {
                    weight_step(&mut side.side, topo, link, value, Some(&mut *tr))
                }
                Query::InvCapFailure { circuit } => traced_failure(
                    &mut side.invcap,
                    topo,
                    &topo.invcap,
                    0.0,
                    &topo.circuits[circuit],
                    tr,
                ),
                Query::StaleFailure { circuit } => traced_failure(
                    &mut side.stale,
                    topo,
                    &topo.stale,
                    topo.stale_tol[circuit],
                    &topo.circuits[circuit],
                    tr,
                ),
            };
            tr.exit(root);
            let traced_mlu = answer.map_err(|e| format!("traced query: {e}"))?;
            if traced_mlu.to_bits() != mlu.to_bits() {
                return Err(format!(
                    "traced engine calls answer {traced_mlu}, MluProbe {mlu}"
                ));
            }
            if pass == 0 {
                let kind = match query {
                    Query::Weight { .. } => 0,
                    Query::InvCapFailure { .. } => 1,
                    Query::StaleFailure { .. } => 2,
                };
                kinds[kind].0 += 1;
                kinds[kind].1 += u64::from(side.patched_builds() > before);
                if k + 1 == pass_len {
                    first_pass_spf = Some(spf_of(&traced).0);
                }
            }
        }
        Ok(elapsed)
    });

    let mut out = Outcome::new(setup_s, lp, digest, pass_len);
    out.mlu_mean = mlu_sum / pass_len as f64;
    for s in &samples {
        let cold = cold_mlu(&topos[s.topo], s);
        let ok = cold.as_ref().is_ok_and(|c| c.to_bits() == s.mlu.to_bits());
        out.check(ok, || {
            format!(
                "{:?} on topology {}: persistent {} vs cold {cold:?}",
                s.query, s.topo, s.mlu
            )
        });
    }
    let first_pass_kinds: Vec<(String, Value)> = ["weight", "invcap_failure", "stale_failure"]
        .iter()
        .zip(&kinds)
        .map(|(name, (q, p))| {
            (
                name.to_string(),
                obj([("queries", Value::from(*q)), ("patched", Value::from(*p))]),
            )
        })
        .collect();
    out.record = vec![
        ("cold_rechecks".into(), Value::from(samples.len() as u64)),
        (
            "circuits".into(),
            Value::Array(
                topos
                    .iter()
                    .map(|t| Value::from(t.circuits.len() as u64))
                    .collect(),
            ),
        ),
        (
            "queries_per_pass".into(),
            Value::Array(
                topos
                    .iter()
                    .map(|t| {
                        let [w, i, s] = query_counts(QUERIES, t.circuits.len());
                        obj([
                            ("weight", Value::from(w as u64)),
                            ("invcap_failure", Value::from(i as u64)),
                            ("stale_failure", Value::from(s as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    if let Some(tr) = tracer {
        out.record
            .push(("first_pass_queries".into(), Value::Object(first_pass_kinds)));
        let (spf_now, bytes) = spf_of(&traced);
        first_pass_spf.unwrap_or(spf_now).report(&mut out);
        out.layer("engine.arena_bytes", bytes as f64);
        out.untraced_s = untraced_time.as_secs_f64();
        out.spans = tr.spans().to_vec();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_follows_one_search_plus_one_failure_sweep() {
        // Hier200 has 396 non-bridge circuits: 1000 : 396 : 396.
        assert_eq!(query_counts(1792, 396), [1000, 396, 396]);
        assert_eq!(query_counts(200, 396), [112, 44, 44]);
        assert_eq!(query_counts(200, 187), [146, 27, 27]);
        assert_eq!(query_counts(200, 0), [200, 0, 0]);
    }
}
