//! Integration tests of the scenario-sweep harness: determinism across
//! runs, JSON round-tripping of the batch report, and the packet-level
//! `sim` scenario family (scheduler-independent results, old-baseline
//! compatibility).

use spef_experiments::harness::{
    run_batch, run_scenario, BatchOptions, BatchReport, ScenarioFailure,
};
use spef_experiments::scenario::{
    FailureSpec, ObjectiveSpec, Scenario, ScenarioGrid, SimSpec, SolverSpec, TopologySpec,
    TrafficModel, TrafficSpec,
};
use spef_netsim::SchedulerKind;

/// A 3-scenario sweep: fig1 at two seeds plus Abilene.
fn three_scenarios() -> Vec<Scenario> {
    let spec = |topology: TopologySpec, seed: u64| {
        Scenario::new(
            topology,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed,
                load: 0.15,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        )
    };
    vec![
        spec(TopologySpec::Fig1, 1),
        spec(TopologySpec::Fig1, 2),
        spec(TopologySpec::Abilene, 1),
    ]
}

#[test]
fn sweep_is_deterministic_across_runs() {
    let first = run_batch(three_scenarios(), &BatchOptions::default());
    let second = run_batch(three_scenarios(), &BatchOptions::default());

    assert_eq!(first.results.len(), 3, "all scenarios feasible");
    assert!(first.failures.is_empty());
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a.scenario, b.scenario);
        // Every measurement except wall-clock is a pure function of the
        // scenario, bit for bit.
        assert_eq!(a.mlu, b.mlu, "{}", a.scenario.id);
        assert_eq!(a.utility, b.utility, "{}", a.scenario.id);
        assert_eq!(a.iterations, b.iterations, "{}", a.scenario.id);
        assert_eq!(a.nem_converged, b.nem_converged, "{}", a.scenario.id);
    }
}

#[test]
fn results_are_physically_sane() {
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    for r in &report.results {
        assert!(
            r.mlu > 0.0 && r.mlu < 1.0,
            "{}: MLU {}",
            r.scenario.id,
            r.mlu
        );
        assert!(r.iterations > 0, "{}", r.scenario.id);
        assert!(r.wall_ms > 0.0, "{}", r.scenario.id);
    }
}

#[test]
fn batch_report_roundtrips_through_json() {
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    let json = report.to_json();
    let back = BatchReport::from_json(&json).expect("report parses back");
    // Full structural equality: scenarios (nested enums included), all
    // measurements, and the wall-clock fields survive serialization.
    assert_eq!(back, report);

    // The id field stays the stable join key tooling can rely on.
    assert!(json.contains("\"fig1+ft-s1-l0.15+q1b1+fw-fast\""));
    assert!(json.contains("\"schema_version\": 1"));
}

/// A small sim-staged sweep: fig4 clean plus fig4 at a lossier point.
fn sim_scenarios() -> Vec<Scenario> {
    let spec = |load: f64, duration: f64| {
        Scenario::new(
            TopologySpec::Fig4,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 1,
                load,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        )
        .with_sim(SimSpec {
            duration,
            warmup: duration * 0.1,
            unit_bps: 1e6,
            seed: 0x5117,
        })
    };
    vec![spec(0.05, 2.0), spec(0.1, 2.0), spec(0.1, 4.0)]
}

#[test]
fn sim_sweep_is_deterministic_and_scheduler_independent() {
    // Parallel calendar, serial calendar, and parallel heap must produce
    // bit-identical deterministic fields — the sweep-level widening of the
    // netsim equivalence proptests, through the whole solve+simulate
    // pipeline.
    let calendar = run_batch(sim_scenarios(), &BatchOptions::default());
    assert_eq!(calendar.results.len(), 3, "{:?}", calendar.failures);
    for r in &calendar.results {
        let sim = r.sim.as_ref().expect("sim stage ran");
        assert!(sim.generated_packets > 0);
        assert!(sim.delivered_packets > 0);
        assert!(sim.max_link_load_bps > 0.0);
        assert!(sim.total_link_load_bps >= sim.max_link_load_bps);
        assert!(sim.peak_packet_slots > 0);
    }
    let serial = run_batch(
        sim_scenarios(),
        &BatchOptions {
            serial: true,
            ..BatchOptions::default()
        },
    );
    let heap = run_batch(
        sim_scenarios(),
        &BatchOptions {
            sim_scheduler: SchedulerKind::BinaryHeap,
            ..BatchOptions::default()
        },
    );
    assert!(
        calendar.result_drift(&serial).is_empty(),
        "serial drift: {:?}",
        calendar.result_drift(&serial)
    );
    assert!(
        calendar.result_drift(&heap).is_empty(),
        "heap drift: {:?}",
        calendar.result_drift(&heap)
    );
}

#[test]
fn sim_results_roundtrip_and_drift_catches_sim_fields() {
    let report = run_batch(sim_scenarios(), &BatchOptions::default());
    let back = BatchReport::from_json(&report.to_json()).expect("parses back");
    assert_eq!(back, report);

    // Any sim field flip is drift.
    let mut other = back.clone();
    other.results[0].sim.as_mut().unwrap().delivered_packets += 1;
    assert_eq!(report.result_drift(&other).len(), 1);
    other = back.clone();
    other.results[1].sim.as_mut().unwrap().mean_delay += 1e-15;
    assert_eq!(report.result_drift(&other).len(), 1);
    // Dropping the stage entirely is drift too.
    other = back;
    other.results[2].sim = None;
    assert_eq!(report.result_drift(&other).len(), 1);
}

#[test]
fn pre_sim_reports_still_parse_and_sim_less_results_omit_the_field() {
    // The committed PR 2/PR 3 baselines predate the sim stage; their
    // `ScenarioResult` objects carry no `sim` key and must keep parsing
    // (the CI regression gate reads them on every PR).
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_post_pr2_batched_engine.json"),
    )
    .expect("committed baseline readable");
    let baseline = BatchReport::from_json(&text).expect("pre-sim baseline parses");
    assert!(baseline.results.iter().all(|r| r.sim.is_none()));

    // And a sim-less run serializes without the key, so regenerating the
    // old grid still byte-matches the old schema shape.
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    let json = report.to_json();
    assert!(!json.contains("\"sim\""));
}

/// A small failure-staged sweep: Abilene at one load, two failed circuits
/// (sharing the intact solve) with a tiny robust budget.
fn failure_scenarios() -> Vec<Scenario> {
    ScenarioGrid::new()
        .topologies([TopologySpec::Abilene])
        .seeds([1])
        .loads([0.05])
        .failure_circuits([0, 7])
        .robust_evals(40)
        .build()
}

/// The isolated reference: each scenario through `run_scenario` (a chain
/// of one), folded into a report `result_drift` can compare.
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
fn failure_sweep_is_deterministic_and_mode_independent() {
    // Warm chains (shared intact solve + chain-memoized robust search),
    // serial warm, and isolated runs must produce bit-identical
    // deterministic fields — the failure family's regression contract.
    let warm = run_batch(failure_scenarios(), &BatchOptions::default());
    assert_eq!(warm.results.len(), 2, "{:?}", warm.failures);
    for r in &warm.results {
        let f = r.failure.as_ref().expect("failure stage ran");
        // Re-optimisation is the steady-state lower bound.
        assert!(f.mlu_reopt <= f.mlu_stale + 1e-6);
        assert!(f.mlu_reopt <= f.mlu_ospf + 1e-6);
        assert!(f.reopt_iterations > 0);
        // The robust worst case covers this circuit's failure, so it
        // cannot beat the per-failure optimum.
        assert!(f.mlu_robust >= f.mlu_reopt - 1e-9);
        // The transient starts at the stale state, so both peaks
        // dominate it; the migration pushes at least one weight.
        assert!(f.reconfig_steps > 0);
        assert!(f.reconfig_peak_mlu >= f.mlu_stale - 1e-12);
        assert!(f.reconfig_greedy_peak_mlu >= f.mlu_stale - 1e-12);
    }
    let cold = isolated(&failure_scenarios());
    let serial = run_batch(
        failure_scenarios(),
        &BatchOptions {
            serial: true,
            ..BatchOptions::default()
        },
    );
    assert!(
        warm.result_drift(&cold).is_empty(),
        "cold drift: {:?}",
        warm.result_drift(&cold)
    );
    assert!(
        warm.result_drift(&serial).is_empty(),
        "serial drift: {:?}",
        warm.result_drift(&serial)
    );
}

#[test]
fn failure_results_roundtrip_and_drift_catches_failure_fields() {
    let report = run_batch(failure_scenarios(), &BatchOptions::default());
    let back = BatchReport::from_json(&report.to_json()).expect("parses back");
    assert_eq!(back, report);

    // Any failure field flip is drift.
    let mut other = back.clone();
    other.results[0].failure.as_mut().unwrap().mlu_stale += 1e-15;
    assert_eq!(report.result_drift(&other).len(), 1);
    other = back.clone();
    other.results[1].failure.as_mut().unwrap().reopt_iterations += 1;
    assert_eq!(report.result_drift(&other).len(), 1);
    // Dropping the stage entirely is drift too.
    other = back;
    other.results[0].failure = None;
    assert_eq!(report.result_drift(&other).len(), 1);
}

#[test]
fn spf_metadata_is_surfaced_but_never_diffed() {
    // The batch-level SPF counters are execution metadata: present on any
    // run that routed traffic, round-tripping through JSON, but outside
    // the bit-diffed result fields — changing or dropping the counters
    // leaves `result_drift` empty.
    let masked = run_batch(failure_scenarios(), &BatchOptions::default());
    let spf = masked.spf.expect("failure sweep carries spf metadata");
    assert!(spf.builds > 0);
    assert!(
        spf.masked_links > 0,
        "failure probes never masked a link: {spf:?}"
    );
    // The local SPF repair's counters ride along the same way.
    let repair = masked
        .spf_repair
        .expect("masked failure probes are served by the repair");
    assert!(repair.slots_repaired > 0 && repair.nodes_resettled > 0);
    let back = BatchReport::from_json(&masked.to_json()).expect("parses back");
    assert_eq!(back, masked);

    let mut other = masked.clone();
    other.spf.as_mut().unwrap().topology_builds += 1;
    other.spf_repair = None;
    assert!(!other.to_json().contains("spf_repair"));
    assert!(
        masked.result_drift(&other).is_empty(),
        "spf metadata leaked into the diffed fields: {:?}",
        masked.result_drift(&other)
    );

    // The committed baselines predate the repair block, and the
    // incremental-SPF one the SPF block too; they must keep parsing with
    // the metadata absent (the CI regression gate reads them on every
    // change).
    for (file, has_spf) in [
        ("BENCH_post_pr9_incremental_spf.json", false),
        ("BENCH_post_pr10_masked_failures.json", true),
    ] {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file),
        )
        .expect("committed baseline readable");
        let baseline = BatchReport::from_json(&text).expect("committed baseline parses");
        assert_eq!(baseline.spf.is_some(), has_spf, "{file}");
        assert!(baseline.spf_repair.is_none(), "{file}");
    }
}

#[test]
fn out_of_range_circuit_is_a_scenario_failure_not_a_panic() {
    let scenario = Scenario::new(
        TopologySpec::Abilene,
        TrafficSpec {
            model: TrafficModel::FortzThorup,
            seed: 1,
            load: 0.05,
        },
        ObjectiveSpec { q: 1.0, beta: 1.0 },
        SolverSpec::FrankWolfeFast,
    )
    .with_failure(FailureSpec {
        circuit: 999, // Abilene has 14 duplex circuits
        robust_evals: 10,
        robust_seed: 1,
    });
    let report = run_batch(vec![scenario], &BatchOptions::default());
    assert!(report.results.is_empty());
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures[0].error.contains("out of range"));
}

#[test]
fn pre_failure_reports_still_parse_and_failure_less_results_omit_the_field() {
    // The committed PR 6 baselines predate the failure stage; their
    // `ScenarioResult` objects carry no `failure` key and must keep
    // parsing (the CI regression gate reads them on every PR).
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_post_pr6_warm_solvers.json"),
    )
    .expect("committed baseline readable");
    let baseline = BatchReport::from_json(&text).expect("pre-failure baseline parses");
    assert!(baseline.results.iter().all(|r| r.failure.is_none()));

    // And a failure-less run serializes without the key, so regenerating
    // the old grids still byte-matches the old schema shape.
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    assert!(!report.to_json().contains("\"failure\""));
}

#[test]
fn grid_sweep_runs_mixed_feasibility_batches() {
    // One infeasible scenario (load 5.0 = 5x capacity) among feasible ones:
    // the batch completes, failures are recorded, results keep their order.
    let scenarios = ScenarioGrid::new()
        .topologies([TopologySpec::Fig1])
        .seeds([1])
        .loads([0.15, 5.0])
        .build();
    let report = run_batch(scenarios, &BatchOptions::default());
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures[0].scenario.traffic.load > 1.0);
}
