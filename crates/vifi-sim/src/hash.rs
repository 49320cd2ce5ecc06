//! A deterministic, seedless hasher for maps keyed by small integers.
//!
//! std's `HashMap` defaults to SipHash under a random per-map key: robust
//! against adversarial keys, but slow for the node ids and sequence
//! numbers that key the protocol layers' tables, and its iteration order
//! differs from one map instance to the next. [`FxHasher`] is the
//! multiply-rotate word hash of Firefox and rustc: a few cycles per key,
//! no key, the same order on every run. Use it only where keys are not
//! attacker-chosen and no outcome depends on iteration order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the Fx hash (rustc's 64-bit constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx word hasher: `h = (h.rotate_left(5) ^ word) * K` per word.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed by [`FxHasher`]; build it with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_built_alike_iterate_alike() {
        let build = || {
            let mut m = FxHashMap::default();
            for k in [17u64, 3, 99, 42, 7, 1 << 40, 0, 5] {
                m.insert(k, k * 2);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn hash_is_seedless_and_word_sized() {
        let mut a = FxHasher::default();
        a.write_u64(1);
        assert_eq!(a.finish(), K);
        // A short byte string hashes as one zero-padded little-endian word.
        let mut b = FxHasher::default();
        b.write(&[1, 0, 0]);
        assert_eq!(b.finish(), K);
    }
}
