//! Delta/varint codec of the compressed RR-set arena.
//!
//! Every RR set is stored as a **sorted** member list, delta-encoded with a
//! byte-aligned LEB128 varint: the first member verbatim, then each gap to
//! the previous member *minus one* (members are strictly increasing, so the
//! gap is always ≥ 1 and the subtraction buys one extra bit of range per
//! byte).  The codec is the reason a 10⁶-user sketch fits in RAM: members of
//! large RR sets sit close together once sorted, so most gaps encode in one
//! or two bytes instead of the four a raw `u32` pool spends per entry (the
//! scale smoke gates the measured ratio at ≥ 2×).
//!
//! Encoding never changes *what* a set is — only how it is laid out.  All
//! store semantics (coverage counting, inverted-index maintenance, greedy
//! selection, refresh frontiers) are order-independent over the member
//! *multiset*, so sorting at insertion is invisible to every consumer;
//! [`SetMembers`] decodes a span back into its ascending member sequence
//! without allocating.

/// Appends one LEB128 varint to `out` — the one varint writer, shared by
/// the arena and the persistence codec ([`crate::persist`]).
#[inline]
pub fn write_varint(value: impl Into<u64>, out: &mut Vec<u8>) {
    let mut value = value.into();
    while value >= 0x80 {
        out.push((value as u8 & 0x7F) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Decodes one LEB128 varint from the front of `bytes`, returning the value
/// and the remaining tail.  The encoder only ever produces well-formed
/// varints, so decoding stops after at most five bytes.
#[inline]
pub(crate) fn read_varint(bytes: &[u8]) -> (u32, &[u8]) {
    let mut value = 0u32;
    let mut shift = 0u32;
    let mut i = 0usize;
    loop {
        let b = bytes[i];
        value |= u32::from(b & 0x7F) << shift;
        i += 1;
        if b < 0x80 {
            return (value, &bytes[i..]);
        }
        shift += 7;
    }
}

/// Appends the delta/varint encoding of a **sorted, duplicate-free** member
/// list to `out`, returning the number of bytes written.
pub(crate) fn encode_set(sorted: &[u32], out: &mut Vec<u8>) -> usize {
    let before = out.len();
    let mut prev = 0u32;
    for (i, &u) in sorted.iter().enumerate() {
        if i == 0 {
            write_varint(u, out);
        } else {
            debug_assert!(u > prev, "members must be strictly increasing");
            write_varint(u - prev - 1, out);
        }
        prev = u;
    }
    out.len() - before
}

/// Zero-allocation decoding iterator over one encoded span: yields the
/// member ids in ascending order.
#[derive(Clone, Debug)]
pub struct SetMembers<'a> {
    bytes: &'a [u8],
    prev: u32,
    remaining: u32,
    first: bool,
}

impl<'a> SetMembers<'a> {
    /// Starts decoding a span of `members` ids from `bytes`.
    pub(crate) fn new(bytes: &'a [u8], members: u32) -> Self {
        SetMembers {
            bytes,
            prev: 0,
            remaining: members,
            first: true,
        }
    }
}

impl Iterator for SetMembers<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        let (delta, rest) = read_varint(self.bytes);
        self.bytes = rest;
        let value = if self.first {
            self.first = false;
            delta
        } else {
            self.prev + delta + 1
        };
        self.prev = value;
        self.remaining -= 1;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for SetMembers<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(members: &[u32]) -> Vec<u32> {
        let mut buf = Vec::new();
        let bytes = encode_set(members, &mut buf);
        assert_eq!(bytes, buf.len());
        SetMembers::new(&buf, members.len() as u32).collect()
    }

    #[test]
    fn round_trips_representative_sets() {
        for set in [
            &[][..],
            &[0],
            &[7],
            &[u32::MAX],
            &[0, 1, 2, 3],
            &[5, 1000, 65_536, 999_999],
            &[0, u32::MAX - 1, u32::MAX],
        ] {
            assert_eq!(round_trip(set), set, "{set:?}");
        }
    }

    #[test]
    fn dense_gaps_encode_in_one_byte_each() {
        // Consecutive ids: first member + (n - 1) zero gaps, one byte each.
        let members: Vec<u32> = (1000..1256).collect();
        let mut buf = Vec::new();
        encode_set(&members, &mut buf);
        assert_eq!(buf.len(), 2 + (members.len() - 1));
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [0u32, 127, 128, 16_383, 16_384, 2_097_151, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let (decoded, rest) = read_varint(&buf);
            assert_eq!(decoded, v);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let mut buf = Vec::new();
        encode_set(&[3, 9, 12], &mut buf);
        let iter = SetMembers::new(&buf, 3);
        assert_eq!(iter.len(), 3);
        assert_eq!(iter.size_hint(), (3, Some(3)));
    }
}
