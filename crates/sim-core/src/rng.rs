//! Reproducible, independent random-number streams.
//!
//! Each simulated component (every node's load process, every link's traffic
//! process, each allocation policy, …) draws from its own named stream so
//! that adding or removing one consumer never perturbs the others. Streams
//! are derived from a master seed with SplitMix64, the standard seed-expansion
//! function.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent [`StdRng`] streams from a single master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    master: u64,
}

/// One round of SplitMix64: a high-quality 64-bit mixer, also the
/// workspace's stateless hash for keying generated inputs on a seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of a hash as a uniform value in `[0, 1)`.
pub fn frac(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a hash of a byte string: turns stream names into integers and is
/// the digest primitive of the flight-record format.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl RngFactory {
    /// A factory rooted at `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngFactory {
            master: master_seed,
        }
    }

    /// The master seed this factory was created with.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// An RNG stream identified by a name and an index.
    ///
    /// `stream("node-load", 7)` is stable across runs and independent of
    /// `stream("node-load", 8)` and `stream("link-traffic", 7)`.
    pub fn stream(&self, name: &str, index: u64) -> StdRng {
        let h = fnv1a(name.as_bytes()) ^ splitmix64(index.wrapping_add(0x51ED_2701));
        let seed = splitmix64(self.master ^ h);
        // Expand the 64-bit seed to the 32 bytes StdRng wants.
        let mut bytes = [0u8; 32];
        let mut s = seed;
        for chunk in bytes.chunks_mut(8) {
            s = splitmix64(s);
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        StdRng::from_seed(bytes)
    }

    /// Convenience: a stream with index 0.
    pub fn named(&self, name: &str) -> StdRng {
        self.stream(name, 0)
    }

    /// A child factory, for components that themselves own sub-streams.
    pub fn child(&self, name: &str) -> RngFactory {
        RngFactory {
            master: splitmix64(self.master ^ fnv1a(name.as_bytes())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn take5(mut rng: StdRng) -> Vec<u64> {
        (0..5).map(|_| rng.gen()).collect()
    }

    #[test]
    fn same_name_same_stream() {
        let f = RngFactory::new(42);
        assert_eq!(take5(f.stream("a", 1)), take5(f.stream("a", 1)));
    }

    #[test]
    fn different_names_differ() {
        let f = RngFactory::new(42);
        assert_ne!(take5(f.stream("a", 1)), take5(f.stream("b", 1)));
        assert_ne!(take5(f.stream("a", 1)), take5(f.stream("a", 2)));
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = RngFactory::new(1).stream("x", 0);
        let b = RngFactory::new(2).stream("x", 0);
        assert_ne!(take5(a), take5(b));
    }

    #[test]
    fn child_factories_are_independent() {
        let f = RngFactory::new(7);
        let c1 = f.child("cluster");
        let c2 = f.child("monitor");
        assert_ne!(take5(c1.named("s")), take5(c2.named("s")));
        // but reproducible
        assert_eq!(take5(f.child("cluster").named("s")), take5(c1.named("s")));
    }

    #[test]
    fn hash_helpers_match_reference_values() {
        // SplitMix64 of 0 and FNV-1a of "" / "a" are published constants
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(frac(0), 0.0);
        assert!(frac(u64::MAX) < 1.0);
    }

    #[test]
    fn streams_look_uniform() {
        // crude sanity check: mean of u01 samples near 0.5
        let mut rng = RngFactory::new(3).named("uniform");
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
