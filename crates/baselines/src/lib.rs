//! Baseline traffic-engineering schemes the SPEF paper compares against.
//!
//! * [`ospf`] — "the current version of OSPF, which sets link weight
//!   inversely proportional to its capacity and evenly splits the traffic
//!   over multiple equal-cost shortest paths" (§V): Cisco InvCap weights +
//!   even ECMP. The OSPF curve of Fig. 6, 9, 10.
//! * [`fortz_thorup`] — the piecewise-linear link cost of Fortz & Thorup
//!   (Fig. 2's "FT" curve, TABLE I's "B. Fortz & M. Thorup" column) and a
//!   local-search weight optimiser in their spirit.
//! * [`peft`] — Downward PEFT (Xu–Chiang–Rexford), the link-state protocol
//!   SPEF is contrasted with in §V.D: exponential penalties over *all*
//!   downward paths, not just equal-cost shortest ones.
//! * [`mlu_lp`] — the classic minimise-MLU linear program (TABLE I's
//!   "MLU [19]" column), solved exactly with the `spef-lp` simplex.
//!
//! The β = 0 exact LP lives in `spef-core` (its `TeSolver` impl on `FrankWolfeConfig` dispatches on β).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fortz_thorup;
pub mod mlu_lp;
pub mod ospf;
pub mod peft;
pub mod robust;
pub(crate) mod util;

pub use fortz_thorup::{FtConfig, FtCost, FtOutcome};
pub use mlu_lp::MluSolution;
pub use ospf::OspfRouting;
pub use peft::PeftRouting;
pub use robust::{RobustConfig, RobustOutcome};
