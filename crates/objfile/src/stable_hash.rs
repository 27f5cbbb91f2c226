//! The toolchain's stable 64-bit hash: FNV-1a.
//!
//! [`SharedObject::fingerprint`](crate::SharedObject::fingerprint) and every
//! key derived from it (disassembly caches, persisted fault-profile stores)
//! must hash identically across processes, platforms and toolchain versions —
//! which rules out `std`'s `DefaultHasher`, whose algorithm is explicitly
//! unspecified.  This module is the single home of the FNV-1a constants so
//! producers and consumers cannot drift apart.

/// The FNV-1a 64-bit offset basis: the seed for a fresh hash.
pub const OFFSET_BASIS: u64 = 0xcbf29ce484222325;

/// The FNV-1a 64-bit prime.
pub(crate) const PRIME: u64 = 0x100000001b3;

/// Folds `bytes` into `hash` (FNV-1a).  Start from [`OFFSET_BASIS`] and
/// chain calls to hash a composite value.
pub fn fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, byte| (hash ^ u64::from(*byte)).wrapping_mul(PRIME))
}

/// Folds a `u64` into `hash` (little-endian byte order).
pub fn fold_u64(hash: u64, value: u64) -> u64 {
    fold(hash, &value.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fold(OFFSET_BASIS, b""), 0xcbf29ce484222325);
        assert_eq!(fold(OFFSET_BASIS, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fold(OFFSET_BASIS, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn folding_is_chainable() {
        assert_eq!(fold(fold(OFFSET_BASIS, b"foo"), b"bar"), fold(OFFSET_BASIS, b"foobar"));
        assert_eq!(fold_u64(OFFSET_BASIS, 0x0807060504030201), fold(OFFSET_BASIS, &[1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
