//! FNV-1a (64-bit), the workspace's one dependency-free digest: the
//! model-file checksum footer, the partition hand-off checksums, the
//! certificate digests, the recovery-log determinism digests and the
//! bench `sim_digest`/`obs_digest` all fold their bytes through
//! [`fnv1a_extend`].

/// The FNV-1a offset basis: the digest of no bytes, and the starting
/// value of an incremental digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running digest `h` (start from [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Extending in pieces equals digesting the concatenation.
        assert_eq!(fnv1a_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
