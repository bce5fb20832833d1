//! The catalogue of promotable items with their campaign importances `w_x`.

use imdpp_graph::ItemId;

/// The target item set `I` together with the importance set `W = {w_x}`
/// (Definition 1 of the paper) and optional display names.
#[derive(Clone, Debug)]
pub struct ItemCatalog {
    importance: Vec<f64>,
    names: Vec<String>,
}

impl ItemCatalog {
    /// Builds a catalogue from per-item importances; names default to `x{i}`.
    pub fn from_importances(importance: Vec<f64>) -> Self {
        for (i, w) in importance.iter().enumerate() {
            assert!(
                w.is_finite() && *w >= 0.0,
                "importance of item {i} must be finite and non-negative, got {w}"
            );
        }
        let names = (0..importance.len()).map(|i| format!("x{i}")).collect();
        ItemCatalog { importance, names }
    }

    /// Builds a catalogue with uniform importance 1.0.
    pub fn uniform(item_count: usize) -> Self {
        Self::from_importances(vec![1.0; item_count])
    }

    /// Builds a catalogue with names and importances.
    pub fn with_names(importance: Vec<f64>, names: Vec<String>) -> Self {
        assert_eq!(
            importance.len(),
            names.len(),
            "importances and names must have the same length"
        );
        let mut c = Self::from_importances(importance);
        c.names = names;
        c
    }

    /// Number of items.
    pub fn item_count(&self) -> usize {
        self.importance.len()
    }

    /// Iterator over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.importance.len()).map(ItemId::from_index)
    }

    /// Importance `w_x` of an item.
    #[inline]
    pub fn importance(&self, x: ItemId) -> f64 {
        self.importance[x.index()]
    }

    /// Display name of an item.
    pub fn name(&self, x: ItemId) -> &str {
        &self.names[x.index()]
    }

    /// Average importance over the catalogue (reported in Table II).
    pub fn average_importance(&self) -> f64 {
        if self.importance.is_empty() {
            return 0.0;
        }
        self.importance.iter().sum::<f64>() / self.importance.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_catalog_has_unit_importance() {
        let c = ItemCatalog::uniform(3);
        assert_eq!(c.item_count(), 3);
        assert_eq!(c.importance(ItemId(1)), 1.0);
        assert_eq!(c.average_importance(), 1.0);
        assert_eq!(c.name(ItemId(2)), "x2");
    }

    #[test]
    fn named_catalog_keeps_names() {
        let c = ItemCatalog::with_names(
            vec![1.0, 0.5],
            vec!["iPhone".to_string(), "AirPods".to_string()],
        );
        assert_eq!(c.name(ItemId(0)), "iPhone");
        assert!((c.average_importance() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn items_iterates_in_order() {
        let c = ItemCatalog::uniform(4);
        let ids: Vec<ItemId> = c.items().collect();
        assert_eq!(ids, vec![ItemId(0), ItemId(1), ItemId(2), ItemId(3)]);
    }

    #[test]
    fn empty_catalog_average_is_zero() {
        let c = ItemCatalog::uniform(0);
        assert_eq!(c.average_importance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_importance() {
        let _ = ItemCatalog::from_importances(vec![-1.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn rejects_mismatched_names() {
        let _ = ItemCatalog::with_names(vec![1.0], vec![]);
    }
}
