//! A hasher for maps keyed by ids the program mints itself.
//!
//! The pump's call table and ReqSync's buffer are keyed by [`CallId`]s and
//! tuple ids: small integers handed out in sequence, never text from
//! outside the program. SipHash's protection against crafted collisions
//! buys nothing there and costs most of a lookup. [`IdHasher`] is one
//! multiply and one rotate; maps keyed by user text (requests, engine
//! names, SQL identifiers) keep the default hasher.
//!
//! [`CallId`]: crate::CallId

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by program-minted integer ids (see the module docs).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// 2^64 / φ, odd: consecutive keys land far apart after the multiply.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate hashing of integer keys.
///
/// The standard table takes a bucket from the hash's low bits and a 7-bit
/// tag from its top bits. A multiply alone mixes upwards only — keys that
/// are multiples of 1 024 would share their ten low bits — so `finish`
/// rotates the well-mixed top of the product down into the bucket bits
/// and leaves the middle of it, which varies as fast, in the tag.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `u64` keys come through `write_u64`; this keeps any other `Hash`
        // key correct.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(GOLDEN);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CallId;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// How many values `part` of the hash takes over the 1 024 keys `i * stride`.
    fn distinct(stride: u64, part: impl Fn(u64) -> u64) -> usize {
        (0..1024u64)
            .map(|i| part(hash_of(CallId(i * stride))))
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn sequential_and_strided_ids_spread_over_bucket_and_tag_bits() {
        for stride in [1, 64, 1024] {
            // 1 024 keys into 1 024 buckets: a uniform random function
            // fills about 650 of them, a multiplicative hash of an
            // arithmetic sequence somewhat more or fewer; a multiply that
            // left the stride's zero bits in place fills 16 (stride 64)
            // or 1 (stride 1 024).
            let buckets = distinct(stride, |h| h & 1023);
            assert!(buckets >= 256, "stride {stride}: {buckets} of 1024 buckets");
            // The table's control byte: all 128 tags in use.
            let tags = distinct(stride, |h| h >> 57);
            assert_eq!(tags, 128, "stride {stride}: tag values");
        }
    }

    #[test]
    fn distinct_ids_hash_apart_and_equal_ids_together() {
        let hashes: HashSet<u64> = (0..100_000u64).map(|i| hash_of(CallId(i))).collect();
        assert_eq!(hashes.len(), 100_000, "the multiply is a bijection");
        assert_eq!(
            hash_of(CallId(7)),
            hash_of(7u64),
            "a CallId hashes as its number"
        );
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }

    #[test]
    fn id_map_behaves_as_a_map() {
        let mut map: IdMap<CallId, u64> = IdMap::default();
        for i in 0..10_000u64 {
            map.insert(CallId(i * 64), i);
        }
        assert_eq!(map.len(), 10_000);
        assert_eq!(map.get(&CallId(640)), Some(&10));
        assert_eq!(map.remove(&CallId(640)), Some(10));
        assert_eq!(map.get(&CallId(640)), None);
    }
}
