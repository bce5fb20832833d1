//! Seeds `(u, x, t)` and seed groups `S = ⋃_t S_t`.

use imdpp_graph::{ItemId, UserId};
use std::fmt;

/// A seed: user `u` is hired to promote item `x` starting at the `t`-th
/// promotion (`t` is 1-based, `1 ≤ t ≤ T`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Seed {
    /// The seeded user.
    pub user: UserId,
    /// The promoted item.
    pub item: ItemId,
    /// The promotion (1-based timing) at which the seed is activated.
    pub promotion: u32,
}

impl Seed {
    /// Creates a seed.
    pub fn new(user: UserId, item: ItemId, promotion: u32) -> Self {
        assert!(promotion >= 1, "promotions are 1-based");
        Seed {
            user,
            item,
            promotion,
        }
    }

    /// The `(user, item)` nominee underlying this seed.
    pub fn nominee(&self) -> (UserId, ItemId) {
        (self.user, self.item)
    }
}

impl fmt::Debug for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, t{})", self.user, self.item, self.promotion)
    }
}

/// A seed group: the complete solution of an IMDPP instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeedGroup {
    seeds: Vec<Seed>,
}

impl SeedGroup {
    /// The empty seed group.
    pub fn new() -> Self {
        SeedGroup { seeds: Vec::new() }
    }

    /// Builds a seed group from a vector of seeds (duplicates are removed).
    pub fn from_seeds(mut seeds: Vec<Seed>) -> Self {
        seeds.sort();
        seeds.dedup();
        SeedGroup { seeds }
    }

    /// Adds a seed if it is not already present; returns whether it was added.
    pub fn insert(&mut self, seed: Seed) -> bool {
        if self.seeds.contains(&seed) {
            false
        } else {
            self.seeds.push(seed);
            true
        }
    }

    /// Removes a seed if present; returns whether it was removed.
    pub fn remove(&mut self, seed: &Seed) -> bool {
        if let Some(pos) = self.seeds.iter().position(|s| s == seed) {
            self.seeds.remove(pos);
            true
        } else {
            false
        }
    }

    /// All seeds.
    pub fn seeds(&self) -> &[Seed] {
        &self.seeds
    }

    /// Number of seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// True when the group contains no seeds.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Seeds activated in the given promotion (`S_t`).
    pub fn in_promotion(&self, t: u32) -> impl Iterator<Item = &Seed> + '_ {
        self.seeds.iter().filter(move |s| s.promotion == t)
    }

    /// The latest promotion timing used by any seed (`t̂`), or 0 if empty.
    pub fn latest_promotion(&self) -> u32 {
        self.seeds.iter().map(|s| s.promotion).max().unwrap_or(0)
    }

    /// True if the group already contains the nominee `(u, x)` at any timing.
    pub fn contains_nominee(&self, user: UserId, item: ItemId) -> bool {
        self.seeds.iter().any(|s| s.user == user && s.item == item)
    }

    /// Returns a new group equal to `self` plus an extra seed (used when
    /// evaluating marginal gains without mutating the current group).
    pub fn with(&self, seed: Seed) -> SeedGroup {
        let mut g = self.clone();
        g.insert(seed);
        g
    }

    /// Total hiring cost under a cost function `cost(u, x)`.
    pub fn total_cost(&self, mut cost: impl FnMut(UserId, ItemId) -> f64) -> f64 {
        self.seeds.iter().map(|s| cost(s.user, s.item)).sum()
    }

    /// Iterator over the distinct items promoted by the group.
    pub fn items(&self) -> Vec<ItemId> {
        let mut items: Vec<ItemId> = self.seeds.iter().map(|s| s.item).collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// Iterator over the distinct users hired by the group.
    pub fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.seeds.iter().map(|s| s.user).collect();
        users.sort_unstable();
        users.dedup();
        users
    }
}

impl FromIterator<Seed> for SeedGroup {
    fn from_iter<T: IntoIterator<Item = Seed>>(iter: T) -> Self {
        SeedGroup::from_seeds(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(u: u32, x: u32, t: u32) -> Seed {
        Seed::new(UserId(u), ItemId(x), t)
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = SeedGroup::new();
        assert!(g.insert(s(0, 1, 1)));
        assert!(!g.insert(s(0, 1, 1)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn from_seeds_deduplicates_and_sorts() {
        let g = SeedGroup::from_seeds(vec![s(1, 0, 2), s(0, 0, 1), s(1, 0, 2)]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.seeds()[0], s(0, 0, 1));
    }

    #[test]
    fn promotion_filter_and_latest() {
        let g = SeedGroup::from_seeds(vec![s(0, 0, 1), s(1, 1, 3), s(2, 0, 3)]);
        assert_eq!(g.in_promotion(3).count(), 2);
        assert_eq!(g.in_promotion(2).count(), 0);
        assert_eq!(g.latest_promotion(), 3);
        assert_eq!(SeedGroup::new().latest_promotion(), 0);
    }

    #[test]
    fn contains_nominee_ignores_timing() {
        let g = SeedGroup::from_seeds(vec![s(0, 1, 2)]);
        assert!(g.contains_nominee(UserId(0), ItemId(1)));
        assert!(!g.contains_nominee(UserId(0), ItemId(2)));
    }

    #[test]
    fn with_does_not_mutate_original() {
        let g = SeedGroup::from_seeds(vec![s(0, 0, 1)]);
        let g2 = g.with(s(1, 1, 2));
        assert_eq!(g.len(), 1);
        assert_eq!(g2.len(), 2);
    }

    #[test]
    fn total_cost_sums_over_seeds() {
        let g = SeedGroup::from_seeds(vec![s(0, 0, 1), s(1, 1, 1)]);
        let cost = g.total_cost(|u, _| 1.0 + u.0 as f64);
        assert!((cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn items_and_users_are_distinct_sorted() {
        let g = SeedGroup::from_seeds(vec![s(2, 1, 1), s(0, 1, 2), s(2, 0, 1)]);
        assert_eq!(g.items(), vec![ItemId(0), ItemId(1)]);
        assert_eq!(g.users(), vec![UserId(0), UserId(2)]);
    }

    #[test]
    fn remove_deletes_existing_seed() {
        let mut g = SeedGroup::from_seeds(vec![s(0, 0, 1), s(1, 1, 1)]);
        assert!(g.remove(&s(0, 0, 1)));
        assert!(!g.remove(&s(0, 0, 1)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn promotion_zero_is_rejected() {
        let _ = Seed::new(UserId(0), ItemId(0), 0);
    }
}
