//! The benchmark's own input generator: a seeded SplitMix64 stream.
//!
//! Every input a workload feeds the programs (FFT signal, Water and TSP
//! instance seeds, the lock kernel's pattern, the service job mix and its
//! arrival schedule) is drawn from a stream derived from `--seed`, so the
//! same seed gives the same inputs.

/// SplitMix64: tiny, fast, and good enough for input generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `purpose`, derived from the workload seed so separate
    /// inputs do not share draws.
    pub fn derive(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = mix(h ^ u64::from(b));
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
