//! # imdpp-graph
//!
//! Directed-graph substrate for the IMDPP reproduction.
//!
//! The paper's social network `G_SN = (V, E)` is a (possibly directed) graph
//! whose edges carry an *influence strength* `P_act(u, v) ∈ [0, 1]`.  This
//! crate provides:
//!
//! * compact CSR storage with both out- and in-adjacency ([`csr::CsrGraph`]),
//! * an edge-list builder with deduplication ([`builder::GraphBuilder`]),
//! * order-preserving edge updates — insertions, deletions, strength
//!   changes — for dynamic-graph maintenance ([`edits::EdgeUpdate`]),
//! * the influence-weighted social graph wrapper ([`social::SocialGraph`]),
//! * breadth-first traversal ([`traversal`]),
//! * maximum-influence paths, MIOA-style influence regions and hop diameters
//!   ([`paths`]), used by Dysim's Target Market Identification phase,
//! * clustering utilities (label propagation and agglomerative clustering)
//!   ([`clustering`]), standing in for POT/FGCC when clustering nominees,
//! * random-graph generators (Erdős–Rényi, preferential attachment,
//!   Watts–Strogatz) ([`generators`]) used by the synthetic dataset crate,
//! * degree / density statistics ([`stats`]).
//!
//! All node identifiers are dense `u32` indices wrapped in [`ids::UserId`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod clustering;
pub mod csr;
pub mod edits;
pub mod generators;
pub mod ids;
pub mod paths;
pub mod social;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use edits::EdgeUpdate;
pub use ids::{ItemId, UserId};
pub use social::SocialGraph;
