//! FxHash: the fast, non-cryptographic hash used throughout the workspace.
//!
//! The performance guide recommends `rustc-hash`'s Fx algorithm for integer
//! keys; since the sanctioned dependency set does not include it, the
//! algorithm (a multiply-and-rotate word hash, as used by rustc and Firefox)
//! is implemented here. It is *not* HashDoS-resistant — appropriate for
//! internal keys (file ids, segment ids), never for untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx algorithm (64-bit golden-ratio
/// derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast word-at-a-time hasher (Fx algorithm).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hashes a value with [`FxHasher`] in one call (used for shard routing).
#[inline]
pub fn hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_eq!(hash_one(&"segment"), hash_one(&"segment"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one(&(1u64, 2u64)), hash_one(&(2u64, 1u64)));
    }

    #[test]
    fn byte_stream_equivalence_is_not_required_but_tail_matters() {
        // Writing different tails must produce different hashes.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn distribution_over_buckets_is_reasonable() {
        // Sequential u64 keys (our common case: segment indices) should
        // spread across 64 buckets without pathological clumping.
        let mut counts = [0usize; 64];
        let n = 64_000u64;
        for k in 0..n {
            counts[(hash_one(&k) % 64) as usize] += 1;
        }
        let expect = (n / 64) as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.25, "bucket {i} count {c} deviates {dev:.2} from {expect}");
        }
    }

    #[test]
    fn fxhashmap_works_as_dropin() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
    }
}
