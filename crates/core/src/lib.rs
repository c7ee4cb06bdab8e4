//! # SPEF — optimal OSPF traffic engineering with one more weight
//!
//! A faithful, production-quality implementation of
//! *"One More Weight is Enough: Toward the Optimal Traffic Engineering with
//! OSPF"* (Xu, Liu, Liu, Shen — ICDCS 2011 / arXiv:1011.5015).
//!
//! Optimising OSPF link weights for even ECMP splitting is NP-hard
//! (Fortz–Thorup); the paper sidesteps the hardness by giving each link a
//! **second weight**:
//!
//! 1. The **first weights** are the Lagrange multipliers of the utility-
//!    maximising multi-commodity flow problem `TE(V, G, c, D)` under the
//!    generic *(q, β) proportional load balance* objective ([`Objective`]).
//!    Theorem 3.1 shows all optimal flow travels on shortest paths under
//!    them — packets keep OSPF's destination-based hop-by-hop forwarding.
//! 2. The **second weights** come from *Network Entropy Maximization*
//!    ([`nem`]): each router independently turns them into exponential
//!    split ratios over its equal-cost next hops (Eq. 22), realising the
//!    optimal distribution exactly (Theorem 4.2).
//!
//! ## Crate layout
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`objective`] | (q, β) load-balance family, Eq. (4)/(11) |
//! | [`te`] | `TE(V,G,c,D)` (Eq. 5) and the β = 0 LP |
//! | [`frank_wolfe`] | high-accuracy primal reference solver |
//! | [`dual_decomp`] | **Algorithm 1** — first weights, Fig. 12(a) |
//! | [`traffic_dist`] | **Algorithm 3** — `TrafficDistribution(v)`, Eq. (22) |
//! | [`nem`] | **Algorithm 2** — second weights, Fig. 12(b) |
//! | [`weights`] | §V.G integer weights and Dijkstra tolerances |
//! | [`fib`] | TABLE II as a flat CSR arena ([`FibSet`]) |
//! | [`protocol`] | **Algorithm 4** — SPEF routing + TABLE II FIBs |
//! | [`metrics`] | MLU, normalized utility, TABLE V path census |
//! | [`solver`] | solver sessions: [`TeSolver`], [`TeWorkspace`] |
//!
//! ## Quickstart
//!
//! ```
//! use spef_core::{Objective, SpefConfig, TeInstance, TeSolver};
//! use spef_topology::{standard, TrafficMatrix};
//!
//! # fn main() -> Result<(), spef_core::SpefError> {
//! let net = standard::abilene();
//! let tm = TrafficMatrix::fortz_thorup(&net, 42).scaled_to_network_load(&net, 0.15);
//! let objective = Objective::proportional(net.link_count());
//!
//! let routing = SpefConfig::default().solve(TeInstance::new(&net, &tm, &objective))?;
//! println!("MLU = {:.3}", routing.max_link_utilization(&net));
//! assert!(routing.max_link_utilization(&net) < 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! Sweeps over neighbouring instances should hold a [`TeWorkspace`] and
//! call [`TeSolver::solve_in`] instead — arenas persist and compatible
//! previous solutions warm-start the run (see [`solver`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod objective;

pub mod dual_decomp;
pub mod engine;
pub mod fib;
pub mod frank_wolfe;
pub mod metrics;
pub mod nem;
pub mod protocol;
pub mod solver;
pub mod te;
pub mod traffic_dist;
pub mod weights;

pub use error::SpefError;
pub use objective::Objective;

pub use dual_decomp::{DualDecompConfig, DualDecompOutcome, StepRule};
pub use engine::{EngineState, RoutingEngine, SpfStats};
pub use fib::{FibRow, FibSet};
pub use frank_wolfe::FrankWolfeConfig;
pub use nem::{NemConfig, NemOutcome};
pub use protocol::{ForwardingTable, SpefConfig, SpefRouting, TeSolverKind, WeightMode};
pub use solver::{
    ConvergenceCriteria, NemInstance, TeInstance, TeSolver, TeWorkspace, STALE_WEIGHT_DAG_RTOL,
};
pub use te::TeSolution;
pub use traffic_dist::{
    build_dags, traffic_distribution, traffic_distribution_detailed, Flows, SplitRule, SplitTable,
    SplitTableRef, SplitTableSet,
};
