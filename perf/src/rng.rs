//! The benchmark's seeded choices: batch order and input-set seeds.

/// SplitMix64: a tiny, well-mixed generator; the same seed always yields
/// the same stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seed of repetition `k` of a run seeded with `seed`: every
/// repetition gets its own batch order, so a run's median averages over
/// many orders instead of depending on one.
pub fn derive(seed: u64, k: u64) -> u64 {
    SplitMix::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Fisher–Yates shuffle of `xs` driven by `seed`.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = SplitMix::new(seed);
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}
