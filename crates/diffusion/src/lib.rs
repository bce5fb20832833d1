//! # imdpp-diffusion
//!
//! The dynamic-personal-perception diffusion process of the IMDPP paper and
//! the Monte-Carlo machinery used to estimate the importance-aware influence
//! spread `σ(S)`.
//!
//! The diffusion process (Sec. III of the paper) runs a campaign of `T`
//! promotions.  Within each promotion, influence propagates step by step:
//! a user `u` promoted an item `x` by a friend `u'` adopts it with
//! probability `P_act(u', u) · P_pref(u, x)`, may additionally adopt relevant
//! items through item associations (`P_ext`), and — after every step — the
//! perceptions, preferences and influence strengths of users with new
//! adoptions are updated, producing the ripple effect the paper describes.
//!
//! Crate layout:
//!
//! * [`error`] — the suite-wide typed [`ImdppError`],
//! * [`seeds`] — seeds `(u, x, t)` and seed groups,
//! * [`models`] — triggering-model variants (IC / LT),
//! * [`dynamics`] — the four dynamic factors (relevance measurement,
//!   preference estimation, influence learning, item associations),
//! * [`scenario`] — the immutable world shared by all simulations,
//! * [`state`] — per-simulation mutable state (adoptions + perception),
//! * [`process`] — one stochastic realisation of the campaign,
//! * [`montecarlo`] — parallel spread estimation,
//! * [`par`] — the one work-queue every parallel loop of the suite runs on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dynamics;
pub mod error;
pub mod models;
pub mod montecarlo;
pub mod par;
pub mod process;
pub mod scenario;
pub mod seeds;
pub mod state;

pub use dynamics::DynamicsConfig;
pub use error::ImdppError;
pub use models::DiffusionModel;
pub use montecarlo::{SpreadEstimate, SpreadEstimator};
pub use process::{simulate, Simulation, SimulationOutcome};
pub use scenario::{Scenario, ScenarioBuilder};
pub use seeds::{Seed, SeedGroup};
pub use state::DiffusionState;

pub use imdpp_graph::{ItemId, UserId};
