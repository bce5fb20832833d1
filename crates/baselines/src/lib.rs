//! # imdpp-baselines
//!
//! The baseline algorithms the paper compares Dysim against (Sec. VI), plus
//! the brute-force optimum used on small instances:
//!
//! * [`opt`] — OPT: exhaustive search over feasible seed groups (Fig. 8),
//! * [`bgrd`] — BGRD \[38\]: utility-driven greedy that promotes all items as
//!   a bundle at the selected users,
//! * [`hag`] — HAG \[37\]: greedy over `(user, item)` pair combinations,
//! * [`ps`] — PS \[35\]: path-discounted per-seed estimation without marginal
//!   re-evaluation,
//! * [`drhga`] — DRHGA \[19\]: per-item user selection with dynamic
//!   preference awareness,
//! * [`crgreedy`] — the CR-Greedy \[39\] timing wrapper used to extend the
//!   single-promotion baselines to `T` promotions.
//!
//! All baselines are re-implementations from the behavioural descriptions in
//! the paper (the original systems are not publicly available); DESIGN.md §3
//! documents the substitution.  Every baseline consumes an
//! [`imdpp_core::ImdppInstance`] and returns an [`imdpp_core::SeedGroup`]
//! that satisfies the budget.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bgrd;
pub mod common;
pub mod crgreedy;
pub mod drhga;
pub mod hag;
pub mod opt;
pub mod ps;

pub use bgrd::Bgrd;
pub use common::{Algorithm, BaselineConfig};
pub use crgreedy::cr_greedy_timing;
pub use drhga::Drhga;
pub use hag::Hag;
pub use opt::Opt;
pub use ps::PathScore;
