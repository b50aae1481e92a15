//! Deterministic random streams.
//!
//! Every stochastic decision in the simulator (packet drops, bit corruption,
//! jitter) draws from a [`SimRng`] forked from the master seed plus a stable
//! component label, so independent components get independent streams and a
//! run is reproducible from `(seed, program)` alone. The fork function is a
//! hand-rolled FNV-1a/splitmix64 combination rather than `DefaultHasher`
//! because the latter's output is not guaranteed stable across Rust releases.
//!
//! The generator itself is xoshiro256++ (public-domain algorithm by Blackman
//! and Vigna), implemented locally so the simulator has no dependency on the
//! `rand` crate — the build environment cannot fetch external crates, and a
//! self-contained generator also guarantees stream stability across
//! dependency upgrades forever.

/// FNV-1a over a byte string; stable across platforms and Rust versions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One round of splitmix64; good avalanche for seed derivation.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded RNG stream for one simulation component (xoshiro256++ core).
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Derive a stream from `(master_seed, label)`.
    pub fn fork(master_seed: u64, label: &str) -> Self {
        let mut state = splitmix64(master_seed ^ fnv1a(label.as_bytes()));
        let mut s = [0u64; 4];
        for w in &mut s {
            state = splitmix64(state);
            *w = state;
        }
        // xoshiro's all-zero state is a fixed point; splitmix64 cannot
        // produce four zero words from any input, but belt-and-braces:
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        SimRng { s }
    }

    /// Uniform `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }

    /// Fill `dest` with uniform bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Uniform in `[0, n)`, unbiased (rejection sampling). Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below(0)");
        if n == 1 {
            return 0;
        }
        // Reject the biased tail of the 2^64 space.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return x % n;
            }
        }
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range empty ({lo}..{hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit_f64() < p
    }

    /// Uniform float in `[0, 1)` (53-bit mantissa construction).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = SimRng::fork(7, "nic0");
        let mut b = SimRng::fork(7, "nic0");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = SimRng::fork(7, "nic0");
        let mut b = SimRng::fork(7, "nic1");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::fork(7, "nic0");
        let mut b = SimRng::fork(8, "nic0");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::fork(1, "x");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::fork(1, "y");
        for _ in 0..100 {
            assert!(r.below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = SimRng::fork(3, "f");
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_tracks_probability_roughly() {
        let mut r = SimRng::fork(9, "p");
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::fork(4, "bytes");
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Vanishingly unlikely to be all zero if filled.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
