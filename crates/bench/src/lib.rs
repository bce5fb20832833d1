//! # imdpp-bench
//!
//! Shared fixtures for the acceptance benches.  Each bench in `benches/` is
//! a plain `fn main()` binary (`harness = false`) that asserts its gates and
//! writes a machine-readable `results/bench_<name>.json` via
//! [`summary::BenchSummary`]:
//!
//! * `sketch_oracle` — RR-sketch resample fraction on a localized update and
//!   sketch-vs-Monte-Carlo greedy agreement,
//! * `adaptive_pipeline` — TMI selection speedup, per-round refresh in the
//!   adaptive loop, maintained solutions and sharded refresh,
//! * `engine_concurrency` — reader scaling under a writer, telemetry
//!   overhead and batched-query amortization,
//! * `serving` — tenant overlays, batched reads under writer churn and warm
//!   restart.
//!
//! `cargo bench -p imdpp-bench --bench <name>` runs one of them;
//! `cargo test --benches` runs all four.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod summary;

use imdpp_core::nominees::Nominee;
use imdpp_core::{EdgeUpdate, ImdppInstance, ScenarioUpdate};
use imdpp_datasets::{generate, DatasetKind};
use imdpp_diffusion::Scenario;
use imdpp_graph::{ItemId, UserId};
use std::cmp::Reverse;

pub use summary::BenchSummary;

/// The 100-user Amazon-shaped instance used by the selection benchmarks.
pub fn tiny_amazon_instance(budget: f64, promotions: u32) -> ImdppInstance {
    generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(budget)
        .with_promotions(promotions)
}

/// A medium synthetic Yelp-shaped instance for diffusion benchmarks
/// (`scale` shrinks the preset; 0.25 ≈ 200 users).
pub fn yelp_instance(scale: f64, budget: f64, promotions: u32) -> ImdppInstance {
    generate(&DatasetKind::YelpSmall.config().scaled(scale))
        .instance
        .with_budget(budget)
        .with_promotions(promotions)
}

/// The least-connected user — fewest out-edges, ties broken towards the
/// highest id — where the benches aim their localized updates.
pub fn fringe_user(scenario: &Scenario) -> UserId {
    scenario
        .users()
        .min_by_key(|&u| (scenario.social().out_degree(u), Reverse(u.0)))
        .expect("instance has users")
}

/// The `(src, dst)` edge a bench writer keeps reweighting: the first
/// incoming influence edge of the [`fringe_user`].  Reweights never change
/// out-degrees, so the edge stays the same for the whole run.
pub fn writer_edge(scenario: &Scenario) -> (UserId, UserId) {
    let fringe = fringe_user(scenario);
    let (src, _) = scenario
        .social()
        .influencers_of(fringe)
        .next()
        .expect("yelp preset users have friends");
    (src, fringe)
}

/// A localized reweight of `edge` and its mirror (the Yelp preset's
/// friendships are undirected), alternating strength with `step` so
/// consecutive updates are never no-ops.
pub fn writer_update(edge: (UserId, UserId), step: usize) -> ScenarioUpdate {
    let weight = if step.is_multiple_of(2) { 0.35 } else { 0.65 };
    let up = EdgeUpdate::Reweight {
        src: edge.0,
        dst: edge.1,
        weight,
    };
    ScenarioUpdate::Edges(vec![up, up.mirrored()])
}

/// Queries per batch in the batched-read benches.
pub const BATCH: usize = 32;

/// [`BATCH`] varied spread queries — rotations of the non-empty prefixes
/// of an 8-nominee pool (`nominees`, truncated, or padded with
/// `(u, u mod items)` for `u = 0, 1, …`) — so a batch hits the same items
/// repeatedly and the per-chunk masked arena pass has something to
/// amortize, the coalesced-request shape the batch API exists for.
pub fn batch_queries(nominees: &[Nominee], items: u32) -> Vec<Vec<Nominee>> {
    let mut pool = nominees.to_vec();
    let mut u = 0u32;
    while pool.len() < 8 {
        pool.push((UserId(u), ItemId(u % items)));
        u += 1;
    }
    pool.truncate(8);
    let mut queries = Vec::new();
    'fill: for len in 1..=pool.len() {
        for rot in 0..len {
            let mut q = pool[..len].to_vec();
            q.rotate_left(rot);
            queries.push(q);
            if queries.len() == BATCH {
                break 'fill;
            }
        }
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(tiny_amazon_instance(100.0, 2).scenario().user_count(), 100);
        let instance = yelp_instance(0.25, 120.0, 3);
        let scenario = instance.scenario();
        assert!(scenario.user_count() >= 20);

        let edge = writer_edge(scenario);
        let (src, dst) = edge;
        assert_eq!(dst, fringe_user(scenario));
        assert!(scenario.social().influencers_of(dst).any(|(v, _)| v == src));

        // One reweight of the edge plus its mirror; `None` for any other shape.
        let weight = |step| match writer_update(edge, step) {
            ScenarioUpdate::Edges(ups) => match ups[..] {
                [EdgeUpdate::Reweight { src, dst, weight }, mirror]
                    if (src, dst) == edge && mirror == ups[0].mirrored() =>
                {
                    Some(weight)
                }
                _ => None,
            },
            ScenarioUpdate::Preferences(_) => None,
        };
        for step in 0..4 {
            assert!(weight(step).is_some());
            assert_ne!(weight(step), weight(step + 1));
        }
    }
}
