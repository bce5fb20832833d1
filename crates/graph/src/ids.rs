//! Dense integer identifiers used across the whole reproduction suite.
//!
//! Users and items are identified by dense `u32` indices.  Newtypes keep the
//! two spaces from being mixed up at compile time while staying `Copy` and
//! 4 bytes wide (the suite routinely stores millions of them in vectors).

use std::fmt;

/// Identifier of a user (a node of the social network).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

/// Identifier of an item (a promotable product / course / point of interest).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl UserId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `UserId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `idx` does not fit in `u32`.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        UserId(u32::try_from(idx).expect("user index exceeds u32::MAX"))
    }
}

impl ItemId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `ItemId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `idx` does not fit in `u32`.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        ItemId(u32::try_from(idx).expect("item index exceeds u32::MAX"))
    }
}

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<u32> for UserId {
    fn from(v: u32) -> Self {
        UserId(v)
    }
}

impl From<u32> for ItemId {
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_id_round_trips_through_index() {
        let u = UserId::from_index(42);
        assert_eq!(u.index(), 42);
        assert_eq!(u, UserId(42));
    }

    #[test]
    fn item_id_round_trips_through_index() {
        let x = ItemId::from_index(7);
        assert_eq!(x.index(), 7);
        assert_eq!(x, ItemId(7));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(UserId(3).to_string(), "u3");
        assert_eq!(ItemId(9).to_string(), "x9");
        assert_eq!(format!("{:?}", UserId(3)), "u3");
        assert_eq!(format!("{:?}", ItemId(9)), "x9");
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(UserId(1) < UserId(2));
        assert!(ItemId(5) > ItemId(0));
    }

    #[test]
    #[should_panic(expected = "user index exceeds u32::MAX")]
    fn from_index_panics_on_overflow() {
        let _ = UserId::from_index(u32::MAX as usize + 1);
    }
}
