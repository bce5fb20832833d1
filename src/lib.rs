//! Umbrella crate re-exporting the IMDPP reproduction suite.
//!
//! See the individual crates for details:
//! - [`imdpp_graph`]: social-graph substrate
//! - [`imdpp_kg`]: knowledge graph, meta-graphs, personal item networks
//! - [`imdpp_diffusion`]: dynamic-perception diffusion process and Monte-Carlo engine
//! - [`imdpp_core`]: the IMDPP problem and the Dysim algorithm
//! - [`imdpp_baselines`]: the OPT, BGRD, HAG, PS and DRHGA baselines
//! - [`imdpp_sketch`]: RR-sketch influence oracle with incremental sample reuse
//! - [`imdpp_datasets`]: synthetic dataset generators
//! - [`imdpp_engine`]: the snapshot-isolated session façade (`Engine`) — the
//!   recommended entry point for applications
//! - [`imdpp_obs`]: zero-dependency telemetry (counters, base-2 histograms,
//!   span timers) threaded through the engine and the sketch

pub use imdpp_baselines as baselines;
pub use imdpp_core as core;
pub use imdpp_datasets as datasets;
pub use imdpp_diffusion as diffusion;
pub use imdpp_engine as engine;
pub use imdpp_graph as graph;
pub use imdpp_kg as kg;
pub use imdpp_obs as obs;
pub use imdpp_sketch as sketch;
