//! Checked binary codec for sketch/engine snapshot persistence.
//!
//! The warm-restart path (`imdpp_engine::Engine::persist` / `restore`)
//! serializes the RR stores with the same LEB128 varint layout the arena
//! already uses (see [`crate::arena`]), so a persisted sketch is written
//! span-for-span and restored byte-for-byte — no re-encoding, no
//! re-sampling.  Unlike the in-memory decoder, every reader here is
//! **checked**: the arena's internal `read_varint` may index past a truncated
//! buffer because the in-process encoder can never produce one, but a file
//! read back from disk can be truncated, corrupted or of the wrong version,
//! so these readers return [`ImdppError::InvalidConfig`] instead of
//! panicking.
//!
//! All multi-byte scalars are little-endian; `f64` values round-trip through
//! [`f64::to_bits`] so restored estimates are bit-identical, never
//! formatted.

use imdpp_diffusion::ImdppError;

pub use crate::arena::write_varint;

/// A persistence-format violation: truncated buffer, bad magic, or a value
/// that fails validation.  All decode errors funnel through here so the
/// engine surfaces one typed error kind for corrupt snapshot files.
pub fn corrupt(context: &str) -> ImdppError {
    ImdppError::invalid(format!("snapshot data corrupt: {context}"))
}

/// Appends one `f64` as its raw little-endian bit pattern.
pub fn write_f64(value: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Decodes one checked LEB128 varint (`u32`), advancing `input`.
///
/// # Errors
/// [`ImdppError::InvalidConfig`] on a truncated buffer or a varint that
/// overflows 32 bits.
pub fn read_varint(input: &mut &[u8]) -> Result<u32, ImdppError> {
    let wide = read_varint64(input)?;
    u32::try_from(wide).map_err(|_| corrupt("varint overflows u32"))
}

/// Decodes one checked LEB128 varint (`u64`), advancing `input`.
///
/// # Errors
/// [`ImdppError::InvalidConfig`] on a truncated buffer or a varint that
/// overflows 64 bits.
pub fn read_varint64(input: &mut &[u8]) -> Result<u64, ImdppError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in input.iter().enumerate() {
        if shift >= 64 || (shift == 63 && b & 0x7F > 1) {
            return Err(corrupt("varint overflows u64"));
        }
        value |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            *input = &input[i + 1..];
            return Ok(value);
        }
        shift += 7;
    }
    Err(corrupt("truncated varint"))
}

/// Reads one `f64` from its raw little-endian bit pattern, advancing
/// `input`.
///
/// # Errors
/// [`ImdppError::InvalidConfig`] on a truncated buffer.
pub fn read_f64(input: &mut &[u8]) -> Result<f64, ImdppError> {
    let bytes = take(input, 8)?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(bytes);
    Ok(f64::from_bits(u64::from_le_bytes(raw)))
}

/// Splits the next `n` bytes off the front of `input`.
///
/// # Errors
/// [`ImdppError::InvalidConfig`] when fewer than `n` bytes remain.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], ImdppError> {
    if input.len() < n {
        return Err(corrupt("truncated buffer"));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Validates one delta/varint-encoded RR-set span without trusting it: the
/// encoded bytes must decode to exactly `members` strictly increasing user
/// ids, all below `user_count`, consuming exactly the span's bytes.  This is
/// the gate that lets a [`crate::store`] shard append file-sourced spans
/// verbatim and still uphold every arena invariant the in-process encoder
/// guarantees.
///
/// # Errors
/// [`ImdppError::InvalidConfig`] describing the first violation.
pub fn validate_span(bytes: &[u8], members: u32, user_count: usize) -> Result<(), ImdppError> {
    let mut cursor = bytes;
    let mut prev = 0u64;
    for i in 0..members {
        let delta = u64::from(read_varint(&mut cursor)?);
        let value = if i == 0 { delta } else { prev + delta + 1 };
        if value >= user_count as u64 {
            return Err(corrupt("span member exceeds the scenario's user count"));
        }
        prev = value;
    }
    if !cursor.is_empty() {
        return Err(corrupt("span has trailing bytes past its member count"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_checked() {
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(read_varint(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
        for v in [0u64, 127, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(read_varint64(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn truncated_and_overflowing_varints_error_instead_of_panicking() {
        // A continuation byte with nothing after it.
        let mut cursor: &[u8] = &[0x80];
        assert!(read_varint64(&mut cursor).is_err());
        // Ten continuation bytes overflow u64.
        let mut cursor: &[u8] = &[0xFF; 11];
        assert!(read_varint64(&mut cursor).is_err());
        // A valid u64 varint that exceeds u32 fails the narrow reader.
        let mut buf = Vec::new();
        write_varint(u64::from(u32::MAX) + 1, &mut buf);
        let mut cursor = buf.as_slice();
        assert!(read_varint(&mut cursor).is_err());
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, 1e300, f64::INFINITY] {
            let mut buf = Vec::new();
            write_f64(v, &mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(read_f64(&mut cursor).unwrap().to_bits(), v.to_bits());
        }
        let mut cursor: &[u8] = &[0u8; 7];
        assert!(read_f64(&mut cursor).is_err());
    }

    #[test]
    fn take_respects_the_buffer_end() {
        let mut cursor: &[u8] = &[1, 2, 3];
        assert_eq!(take(&mut cursor, 2).unwrap(), &[1, 2]);
        assert!(take(&mut cursor, 2).is_err());
        assert_eq!(take(&mut cursor, 1).unwrap(), &[3]);
    }

    #[test]
    fn span_validation_accepts_the_encoder_and_rejects_corruption() {
        let mut buf = Vec::new();
        let bytes = crate::arena::encode_set(&[1, 4, 5], &mut buf);
        assert_eq!(bytes, buf.len());
        assert!(validate_span(&buf, 3, 6).is_ok());
        // Wrong member count: too few bytes or trailing bytes.
        assert!(validate_span(&buf, 4, 6).is_err());
        assert!(validate_span(&buf, 2, 6).is_err());
        // Out-of-range member.
        assert!(validate_span(&buf, 3, 5).is_err());
        // Empty spans are valid.
        assert!(validate_span(&[], 0, 6).is_ok());
    }
}
