//! `packet_sim`: the paper's Fig. 11 evaluation as a workload.
//!
//! Set-up solves the `fw-fast` SPEF routing of each network once; the
//! timed loop then drives `simulate_with` over those FIBs on one reused
//! `SimWorkspace`, networks taking turns, [`ROUNDS`] rounds per pass with
//! a simulator seed of their own. Capacities and demands are in units of
//! [`UNIT_BPS`], so a run carries millions of packets. The traffic
//! matrices are fixed ([`MATRIX_SEED`]); the run seed drives the
//! simulator's arrivals and forwarding draws. The traced
//! run repeats every simulation on a second workspace inside a span and
//! reads the calendar queue's counters after it.

use std::time::{Duration, Instant};

use serde::Value;
use spef_core::{ForwardingTable, Objective, TeInstance, TeSolver};
use spef_experiments::scenario::{SolverSpec, TopologySpec};
use spef_netsim::{simulate_with, SimConfig, SimReport, SimWorkspace};
use spef_topology::{Network, TrafficMatrix};

use crate::inputs::{derive, fortz_thorup, Digest, MATRIX_SEED};
use crate::manifest::SIM_NETWORKS;
use crate::trace::{Layer, Tracer};
use crate::{closed_loop, timed_setups, Outcome, RunConfig};

/// Networks, the network load of their matrices and the simulated
/// seconds per run. CERNET2 runs near saturation (SPEF MLU about 0.98);
/// Rand50a has long paths.
const NETWORKS: [(TopologySpec, f64, f64); 3] = [
    (TopologySpec::Abilene, 0.08, 0.4),
    (TopologySpec::Cernet2, 0.08, 0.5),
    (TopologySpec::Rand50a, 0.05, 0.4),
];
/// Bits per second of one capacity or demand unit.
const UNIT_BPS: f64 = 1e8;
/// Share of each run excluded from load and delay statistics.
const WARMUP_SHARE: f64 = 0.1;
/// Rounds over the networks in one pass, each with its own simulator
/// seeds, so a pass holds more than a hundred simulations and its tail
/// percentile rests on at least ten of them.
const ROUNDS: usize = 34;

struct Net {
    net: Network,
    tm: TrafficMatrix,
    fib: ForwardingTable,
    /// One simulator configuration per round.
    configs: Vec<SimConfig>,
}

fn setup(seed: u64) -> Result<(Vec<Net>, SimWorkspace, u64), String> {
    assert_eq!(NETWORKS.len(), SIM_NETWORKS.len());
    let config = SolverSpec::FrankWolfeFast.build();
    let mut digest = Digest::new();
    let mut nets = Vec::new();
    let mut ws = SimWorkspace::new();
    for (i, (spec, load, duration)) in NETWORKS.iter().enumerate() {
        let net = spec.build();
        let tm = fortz_thorup(&net, MATRIX_SEED, *load);
        let objective = Objective::proportional(net.link_count());
        let routing = config
            .solve(TeInstance::new(&net, &tm, &objective))
            .map_err(|e| format!("SPEF solve on {}: {e}", spec.id()))?;
        let configs: Vec<SimConfig> = (0..ROUNDS)
            .map(|round| SimConfig {
                duration: *duration,
                warmup: duration * WARMUP_SHARE,
                capacity_to_bps: UNIT_BPS,
                demand_to_bps: UNIT_BPS,
                seed: derive(seed, "packet_sim.sim", (round * NETWORKS.len() + i) as u64),
                ..SimConfig::default()
            })
            .collect();
        digest.traffic(&tm);
        digest.f64(*duration);
        configs.iter().for_each(|c| digest.u64(c.seed));
        let fib = routing.forwarding_table().clone();
        // Warm-up run: grows the workspace's arenas before timing.
        simulate_with(&net, &tm, &fib, &configs[0], &mut ws)
            .map_err(|e| format!("warm-up simulation on {}: {e}", spec.id()))?;
        nets.push(Net {
            net,
            tm,
            fib,
            configs,
        });
    }
    Ok((nets, ws, digest.finish()))
}

/// Maximum over links of measured load ÷ capacity.
fn measured_mlu(net: &Net, config: &SimConfig, report: &SimReport) -> f64 {
    report
        .mean_link_load_units(config)
        .iter()
        .zip(net.net.capacities())
        .map(|(load, cap)| load / cap)
        .fold(0.0, f64::max)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let ((nets, mut ws, digest), setup_s) = timed_setups(|| setup(cfg.seed))?;
    let n = nets.len();
    let mut traced = cfg.traced.then(|| (Tracer::new(), SimWorkspace::new()));
    let mut untraced_time = Duration::ZERO;
    let mut first_pass: Vec<SimReport> = Vec::new();
    let mut generated = 0u64;
    let mut sim_time = Duration::ZERO;
    let mut traced_generated = 0u64;
    let mut sched = Vec::new();

    let pass_len = n * ROUNDS;
    let lp = closed_loop(cfg.seconds, pass_len, |pass, k| {
        let net = &nets[k % n];
        let config = &net.configs[k / n];
        let start = Instant::now();
        let report = simulate_with(&net.net, &net.tm, &net.fib, config, &mut ws)
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        generated += report.generated_packets;
        sim_time += elapsed;
        if let Some((tr, tws)) = traced.as_mut() {
            untraced_time += elapsed;
            let root = tr.enter(Layer::Op);
            let again = tr.span(Layer::NetsimSimulate, || {
                simulate_with(&net.net, &net.tm, &net.fib, config, tws)
            });
            tr.exit(root);
            let again = again.map_err(|e| format!("traced simulation: {e}"))?;
            if again != report {
                return Err("traced simulation report differs".into());
            }
            traced_generated += again.generated_packets;
            if pass == 0 && k < n {
                sched.push(*tws.scheduler_stats());
            }
        }
        if pass == 0 {
            first_pass.push(report);
        }
        Ok(elapsed)
    });

    let mut out = Outcome::new(setup_s, lp, digest, pass_len);
    for (k, report) in first_pass.iter().enumerate() {
        let (i, net, config) = (k % n, &nets[k % n], &nets[k % n].configs[k / n]);
        let (g, d, x) = (
            report.generated_packets,
            report.delivered_packets,
            report.dropped_packets,
        );
        // generated = delivered + dropped + in flight, and whatever is in
        // flight at the end held a packet slot.
        let in_flight = g.checked_sub(d + x);
        out.check(
            in_flight.is_some_and(|f| f <= report.peak_packet_slots),
            || {
                format!(
                    "{} round {}: generated {g}, delivered {d}, dropped {x}",
                    SIM_NETWORKS[i],
                    k / n
                )
            },
        );
        // The first round of each network is re-run on a fresh workspace.
        if k < n {
            let repeat = simulate_with(
                &net.net,
                &net.tm,
                &net.fib,
                config,
                &mut SimWorkspace::new(),
            );
            out.check(repeat.is_ok_and(|r| &r == report), || {
                format!("{}: a repeated seed gave another report", SIM_NETWORKS[i])
            });
        }
    }
    out.mlu_mean = first_pass
        .iter()
        .enumerate()
        .map(|(k, r)| measured_mlu(&nets[k % n], &nets[k % n].configs[k / n], r))
        .sum::<f64>()
        / first_pass.len().max(1) as f64;
    let per_pass = |f: fn(&SimReport) -> u64| first_pass.iter().map(f).sum::<u64>();
    out.record = vec![
        (
            "generated_per_pass".into(),
            Value::from(per_pass(|r| r.generated_packets)),
        ),
        (
            "dropped_per_pass".into(),
            Value::from(per_pass(|r| r.dropped_packets)),
        ),
        (
            "sim_pkts_per_s".into(),
            Value::from(generated as f64 / sim_time.as_secs_f64()),
        ),
    ];

    if let Some((tr, _)) = traced {
        out.layer("netsim.generated", per_pass(|r| r.generated_packets) as f64);
        out.layer("netsim.delivered", per_pass(|r| r.delivered_packets) as f64);
        out.layer("netsim.dropped", per_pass(|r| r.dropped_packets) as f64);
        let peak_slots = first_pass.iter().map(|r| r.peak_packet_slots).max();
        out.layer("netsim.peak_packet_slots", peak_slots.unwrap_or(0) as f64);
        let max_of = |f: fn(&spef_netsim::SchedulerStats) -> u64| {
            sched.iter().map(f).max().unwrap_or(0) as f64
        };
        out.layer("netsim.sched.peak_events", max_of(|s| s.peak_events as u64));
        out.layer(
            "netsim.sched.resizes",
            sched.iter().map(|s| s.resizes).sum::<u64>() as f64,
        );
        out.layer(
            "netsim.sched.peak_overflow",
            max_of(|s| s.peak_overflow as u64),
        );
        out.layer(
            "netsim.sched.bucket_width_ns",
            max_of(|s| s.bucket_width_ns),
        );
        for (name, s) in SIM_NETWORKS.iter().zip(&sched) {
            out.layer(
                &format!("netsim.sched.bucket_width_ns.{name}"),
                s.bucket_width_ns as f64,
            );
            out.layer(
                &format!("netsim.sched.overflow_frac.{name}"),
                s.peak_overflow as f64 / s.peak_events.max(1) as f64,
            );
        }
        let sim_ns: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.layer == Layer::NetsimSimulate)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        out.layer(
            "netsim.ns_per_pkt",
            sim_ns as f64 / traced_generated.max(1) as f64,
        );
        out.untraced_s = untraced_time.as_secs_f64();
        out.spans = tr.spans().to_vec();
    }
    Ok(out)
}
