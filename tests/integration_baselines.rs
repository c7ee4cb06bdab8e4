//! Baseline-vs-SPEF integration tests: the orderings every figure of the
//! paper relies on.

use spef_baselines::fortz_thorup::{FtConfig, FtCost, FtOutcome};
use spef_baselines::mlu_lp::MluSolution;
use spef_baselines::ospf::{invcap_weights, OspfRouting};
use spef_baselines::peft::PeftRouting;
use spef_core::{FrankWolfeConfig, Objective, SpefConfig, TeInstance, TeSolver};
use spef_topology::{standard, TrafficMatrix};

/// The headline ordering: SPEF's utility dominates OSPF's on every
/// network/load the paper sweeps (Fig. 10's invariant).
#[test]
fn spef_utility_dominates_ospf_everywhere() {
    let cases: Vec<(spef_topology::Network, TrafficMatrix)> = vec![
        {
            let n = standard::abilene();
            let t = TrafficMatrix::fortz_thorup(&n, 1);
            (n, t)
        },
        {
            let n = standard::cernet2();
            let t = TrafficMatrix::gravity(&n, 1.0, 2);
            (n, t)
        },
        {
            let n = standard::fig4();
            let t = standard::fig4_demands();
            (n, t)
        },
    ];
    for (net, shape) in cases {
        for load_frac in [0.4, 0.7] {
            // Express loads relative to a conservative feasible point.
            let tm = shape.scaled_to_network_load(&net, load_frac * 0.1).clone();
            let obj = Objective::proportional(net.link_count());
            let spef = SpefConfig::default()
                .solve(TeInstance::new(&net, &tm, &obj))
                .unwrap();
            let ospf = OspfRouting::route(&net, &tm).unwrap();
            let su = spef.normalized_utility(&net);
            let ou = ospf.normalized_utility(&net);
            assert!(
                su >= ou - 1e-6,
                "{} at {load_frac}: SPEF {su} < OSPF {ou}",
                net.name()
            );
        }
    }
}

/// Min-MLU LP lower-bounds every routing scheme's MLU.
#[test]
fn mlu_lp_lower_bounds_all_schemes() {
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    let lp = MluSolution::solve(&net, &tm).unwrap();

    let ospf = OspfRouting::route(&net, &tm).unwrap();
    assert!(lp.mlu <= ospf.max_link_utilization(&net) + 1e-9);

    let obj = Objective::proportional(net.link_count());
    let spef = SpefConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    assert!(lp.mlu <= spef.max_link_utilization(&net) + 1e-3);

    let te = FrankWolfeConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    let peft = PeftRouting::route(&net, &tm, &te.weights).unwrap();
    assert!(lp.mlu <= peft.max_link_utilization(&net) + 1e-6);
}

/// The FT local search only improves on its InvCap start, and the optimal
/// TE flows cost no more than any weight-driven ECMP routing under the FT
/// metric's own convexity... at least on the congested Fig. 4 case where
/// the orderings are strict.
#[test]
fn ft_search_improves_and_relieves_congestion() {
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    let invcap = OspfRouting::route(&net, &tm).unwrap();
    let invcap_cost = FtCost.total_cost(&net, invcap.flows().aggregate());
    let out = FtOutcome::local_search(
        &net,
        &tm,
        &FtConfig {
            max_weight: 10,
            max_evaluations: 1500,
            restarts: 1,
            seed: 5,
        },
    )
    .unwrap();
    assert!(out.cost < invcap_cost);
    assert!(out.routing.max_link_utilization(&net) <= 1.0 + 1e-9);
    // The convex-optimal flow is cheaper than any ECMP-realisable setting
    // found by the search (the relaxation bound).
    let obj = Objective::proportional(net.link_count());
    let te = FrankWolfeConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    let te_cost = FtCost.total_cost(&net, te.flows.aggregate());
    assert!(
        te_cost <= out.cost * 1.05,
        "TE {te_cost} vs FT {}",
        out.cost
    );
}

/// PEFT under the optimal weights is feasible but (weakly) worse-balanced
/// than SPEF on the paper's simulation scenario.
#[test]
fn peft_balances_worse_than_spef_on_fig4() {
    let net = standard::fig4();
    let tm = standard::table4_simple_demands();
    let obj = Objective::proportional(net.link_count());
    let spef = SpefConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    let te = spef.te_solution();
    let peft_weights = spef_core::weights::integerize(&te.weights, &te.spare).unwrap();
    let peft = PeftRouting::route(&net, &tm, &peft_weights).unwrap();
    assert!(
        spef.max_link_utilization(&net) <= peft.max_link_utilization(&net) + 1e-6,
        "SPEF {} vs PEFT {}",
        spef.max_link_utilization(&net),
        peft.max_link_utilization(&net)
    );
}

/// InvCap weights follow Cisco's rule exactly and OSPF's routing is
/// invariant to their positive rescaling.
#[test]
fn ospf_routing_is_scale_invariant() {
    let net = standard::cernet2();
    let tm = TrafficMatrix::gravity(&net, 1.0, 9).scaled_to_network_load(&net, 0.05);
    let w = invcap_weights(&net);
    let a = OspfRouting::route_with_weights(&net, &tm, &w).unwrap();
    let scaled: Vec<f64> = w.iter().map(|x| 17.0 * x).collect();
    let b = OspfRouting::route_with_weights(&net, &tm, &scaled).unwrap();
    for (fa, fb) in a.flows().aggregate().iter().zip(b.flows().aggregate()) {
        assert!((fa - fb).abs() < 1e-9);
    }
}

/// OSPF keeps routing when overloaded (MLU > 1) — the regime where the
/// paper's Fig. 10 stops plotting it but SPEF "still works".
#[test]
fn ospf_overload_is_reported_not_crashed() {
    let net = standard::fig4();
    let tm = standard::fig4_demands(); // overloads link 1 at 1.6
    let ospf = OspfRouting::route(&net, &tm).unwrap();
    assert!(ospf.max_link_utilization(&net) > 1.0);
    assert_eq!(ospf.normalized_utility(&net), f64::NEG_INFINITY);
}
