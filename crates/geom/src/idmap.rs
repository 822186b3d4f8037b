//! [`IdMap`] / [`IdSet`]: std's hash containers with a hasher for small
//! integer ids.
//!
//! Every id in this workspace (objects, partitions, doors, units,
//! subscriptions) hashes as one or a few integer writes, which std's
//! SipHash prices at more than the probe it feeds. [`IdHasher`] folds each
//! write into its state with one 64×64→128-bit multiply, XOR-ing the
//! product's halves, and `finish` folds once more. One fold carries high
//! input bits to the low bits that pick a bucket, but only through a
//! narrow window of the multiplier, so ids shifted far left (`i << 40`)
//! would crowd a few hundred buckets short of spreading; the second fold
//! spreads them as well as sequential ids. The state starts from a seed
//! drawn once per process from [`RandomState`], so iteration order stays as
//! unspecified as std's and an external id cannot be chosen to collide
//! without knowing the seed.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by an id, hashed by `IdHasher`.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of ids, hashed by `IdHasher`.
#[allow(clippy::disallowed_types)]
pub type IdSet<K> = std::collections::HashSet<K, IdBuildHasher>;

/// Builds [`IdHasher`]s from the per-process seed.
#[derive(Clone, Copy, Debug)]
pub struct IdBuildHasher {
    seed: u64,
}

impl Default for IdBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u64));
        IdBuildHasher { seed }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

/// The folded-multiply hasher behind [`IdMap`] and [`IdSet`].
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    state: u64,
}

/// The XOR of the two halves of `a × b`.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = fold(self.state ^ x, 0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    /// Any other write, eight little-endian bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, 0xe703_7ed1_a0b4_28db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain multiplicative hash leaves the low bits of `i << 20` and
    /// wider shifts constant, so all such ids share one bucket; one fold
    /// reaches ~1 750 of 4 096 values for `i << 40`. A random function
    /// reaches ~2 590.
    #[test]
    fn shifted_and_high_id_families_spread_over_the_low_bits() {
        let build = IdBuildHasher::default();
        let i = 0..4096u64;
        let families: [(&str, Vec<u64>); 5] = [
            ("i", i.clone().collect()),
            ("i << 20", i.clone().map(|i| i << 20).collect()),
            ("i << 32", i.clone().map(|i| i << 32).collect()),
            ("i << 40", i.clone().map(|i| i << 40).collect()),
            ("u64::MAX - i", i.map(|i| u64::MAX - i).collect()),
        ];
        for (name, ids) in families {
            let low: IdSet<u64> = ids.iter().map(|&id| build.hash_one(id) & 0xfff).collect();
            let distinct = low.len();
            assert!(
                distinct >= 2000,
                "{name}: {distinct} distinct low-12-bit values"
            );
        }
    }
}
