//! # imdpp-kg
//!
//! Knowledge-graph substrate for the IMDPP reproduction.
//!
//! The paper models item relationships with a knowledge graph (a
//! heterogeneous information network `G_KG = (V, E, Φ, Ψ)`), a set of
//! *meta-graphs* describing complementary and substitutable relationships,
//! and a *personal item network* per user whose edge relevances are a
//! personally-weighted combination of the meta-graph relevance scores.
//!
//! This crate provides:
//!
//! * typed nodes and edges of the HIN ([`types`], [`hin`]),
//! * the item catalogue with importances `w_x` ([`items`]),
//! * meta-graph schemas and instance counting ([`metagraph`]),
//! * shared per-meta-graph item relevance matrices `s(x, y | m)`
//!   ([`relevance`]),
//! * per-user dynamic meta-graph weightings `W_meta(u, m, ζ_t)` and the
//!   derived complementary / substitutable relevances `r_C`, `r_S`
//!   ([`personal`]),
//! * Table-II style statistics ([`stats`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hin;
pub mod items;
pub mod metagraph;
pub mod personal;
pub mod relevance;
pub mod stats;
pub mod types;

pub use hin::{KgNodeId, KnowledgeGraph, KnowledgeGraphBuilder};
pub use items::ItemCatalog;
pub use metagraph::{MetaGraph, MetaGraphId, MetaGraphShape, RelationKind};
pub use personal::PersonalPerception;
pub use relevance::{PairTerm, RelevanceMatrix, RelevanceModel};
pub use types::{EdgeType, NodeType};

pub use imdpp_graph::{ItemId, UserId};
