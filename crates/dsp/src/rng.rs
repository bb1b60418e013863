//! Deterministic random-number streams for the simulation.
//!
//! Every stochastic component in the reproduction draws from a [`SimRng`]
//! stream derived from a master seed and a *name*. Two properties matter:
//!
//! 1. **Reproducibility** — the same master seed regenerates every figure
//!    bit-for-bit.
//! 2. **Stream independence** — adding a new consumer (e.g. a new noise
//!    source) never perturbs the draws seen by existing consumers, because
//!    each consumer owns a stream keyed by its own name. This is the classic
//!    "named substream" discipline from discrete-event simulation.
//!
//! The generator is an in-repo xoshiro256++ (the same algorithm `rand`'s
//! 64-bit `SmallRng` uses, seeded through SplitMix64), so the crate has no
//! external dependencies and the byte streams are stable across platforms
//! and toolchains. The distributions the channel and traffic models need are
//! implemented directly: Gaussian (Box–Muller), Rayleigh and exponential.

/// The golden-ratio increment: SplitMix64's state step and the stride of
/// [`SimRng::run_seed`].
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a 64, the workspace's one stable byte hash: it derives named
/// stream seeds here and fingerprints runs everywhere else (fleet
/// digests, capture and transfer pins, inventory slot choice).
///
/// Stable across platforms and Rust versions (unlike `std`'s
/// `DefaultHasher`, whose algorithm is unspecified), which keeps
/// experiment outputs and pinned digests reproducible everywhere.
///
/// ```
/// use bs_dsp::rng::Fnv1a64;
///
/// let mut h = Fnv1a64::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A hasher at the FNV offset basis (the hash of no bytes).
    #[inline]
    pub const fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds `x` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The xoshiro256++ core: 256 bits of state, 64-bit output, sub-nanosecond
/// step. Fast and statistically strong — not cryptographic, which is fine
/// for a physics simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands a 64-bit seed into the 256-bit state with SplitMix64, the
    /// seeding recipe recommended by the xoshiro authors (and the one
    /// `rand 0.8` uses for `SmallRng::seed_from_u64`). SplitMix64 never
    /// yields four zero words, so the all-zero fixed point is unreachable.
    #[inline]
    fn seed_from_u64(mut state: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *word = z ^ (z >> 31);
        }
        Xoshiro256PlusPlus { s }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic random stream.
///
/// Construct the root stream with [`SimRng::new`], then derive independent
/// substreams with [`SimRng::stream`]:
///
/// ```
/// use bs_dsp::SimRng;
/// let mut root = SimRng::new(42);
/// let mut noise = root.stream("thermal-noise");
/// let mut fading = root.stream("fading");
/// // Draws from `noise` never affect `fading`.
/// let a = noise.gaussian(0.0, 1.0);
/// let b = fading.gaussian(0.0, 1.0);
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: Xoshiro256PlusPlus,
}

impl SimRng {
    /// Creates the root stream from a master seed.
    #[inline]
    pub fn new(master_seed: u64) -> Self {
        SimRng {
            seed: master_seed,
            inner: Xoshiro256PlusPlus::seed_from_u64(master_seed),
        }
    }

    /// Derives an independent named substream.
    ///
    /// The substream's seed depends only on this stream's seed and `name`,
    /// never on how many values have been drawn, so call order does not
    /// matter.
    #[inline]
    pub fn stream(&self, name: &str) -> SimRng {
        let mut h = Fnv1a64::new();
        h.write(name.as_bytes());
        SimRng::new(h.finish() ^ self.seed.rotate_left(32))
    }

    /// Derives an independent substream indexed by an integer (e.g. one
    /// stream per packet or per subcarrier).
    #[inline]
    pub fn substream(&self, index: u64) -> SimRng {
        let mut h = Fnv1a64::new();
        h.write_u64(index);
        SimRng::new(h.finish() ^ self.seed.rotate_left(17))
    }

    /// The master seed of run `r` of a repeated experiment: `seed` plus
    /// `r` golden-ratio strides, so the runs of one sweep point (and the
    /// attempts of one link) get well-spread seeds. Run 0 keeps `seed`.
    pub fn run_seed(seed: u64, r: u64) -> u64 {
        seed.wrapping_add(r.wrapping_mul(PHI))
    }

    /// The seed this stream was created from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next raw 64-bit word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// The next raw 32-bit word of the stream (high half of a 64-bit step).
    pub fn next_u32(&mut self) -> u32 {
        (self.inner.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes (little-endian 64-bit words).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.inner.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Uniform in `[0, 1)`, using the top 53 bits of one 64-bit step (the
    /// standard multiply-based conversion, exactly representable in an
    /// `f64`).
    pub fn uniform(&mut self) -> f64 {
        let value = self.inner.next_u64() >> 11;
        value as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Unbiased via Lemire's widening-multiply rejection method.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        let range = n as u64;
        // Reject the partial final copy of the range inside 2^64 so every
        // residue is equally likely.
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.inner.next_u64();
            let m = u128::from(v) * u128::from(range);
            let lo = m as u64;
            if lo <= zone {
                return (m >> 64) as usize;
            }
        }
    }

    /// A Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Gaussian with the given mean and standard deviation (Box–Muller).
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        Self::box_muller(self.box_muller_uniforms(), mean, std_dev)
    }

    /// The draws of one [`Self::gaussian`]: `u1` in `(0, 1)` (zeros are
    /// redrawn) and `u2` in `[0, 1)`. A caller that only needs to move
    /// the stream past a Gaussian draws these and skips the math.
    pub fn box_muller_uniforms(&mut self) -> (f64, f64) {
        // One value per call keeps the stream stateless w.r.t. cached
        // spares, which keeps substream derivation order-insensitive.
        let u1: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        (u1, self.uniform())
    }

    /// The Gaussian that [`Self::gaussian`] makes of its uniforms: a pure
    /// function, so it can run anywhere once the draws are taken.
    pub fn box_muller((u1, u2): (f64, f64), mean: f64, std_dev: f64) -> f64 {
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A circularly-symmetric complex Gaussian with per-component standard
    /// deviation `std_dev` (i.e. total variance `2·std_dev²`).
    pub fn complex_gaussian(&mut self, std_dev: f64) -> crate::Complex {
        crate::Complex::new(self.gaussian(0.0, std_dev), self.gaussian(0.0, std_dev))
    }

    /// Rayleigh-distributed magnitude with scale parameter `sigma`
    /// (mode of the distribution). Used for multipath tap amplitudes and the
    /// OFDM envelope model.
    pub fn rayleigh(&mut self, sigma: f64) -> f64 {
        let u: f64 = loop {
            let u = self.uniform();
            if u < 1.0 {
                break u;
            }
        };
        sigma * (-2.0 * (1.0 - u).ln()).sqrt()
    }

    /// Exponentially-distributed value with the given mean. Used for
    /// Poisson packet inter-arrival times.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Pareto-distributed value with shape `alpha` and scale (minimum)
    /// `xmin`: heavy-tailed with tail index `alpha`. Used for the idle
    /// gaps of the "wild" ambient-traffic model — measured Wi-Fi idle
    /// periods are famously heavy-tailed, unlike the exponential gaps
    /// of a Poisson process.
    ///
    /// # Panics
    /// Panics if `alpha <= 0` or `xmin <= 0`.
    pub fn pareto(&mut self, alpha: f64, xmin: f64) -> f64 {
        assert!(
            alpha > 0.0 && xmin > 0.0,
            "pareto needs alpha > 0, xmin > 0"
        );
        let u: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        xmin * u.powf(-1.0 / alpha)
    }

    /// Uniformly random phase in `[0, 2π)`.
    pub fn phase(&mut self) -> f64 {
        self.uniform() * 2.0 * std::f64::consts::PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn named_streams_are_stable_regardless_of_draws() {
        let root1 = SimRng::new(99);
        let mut root2 = SimRng::new(99);
        // Draw a bunch from root2 before deriving — must not matter.
        for _ in 0..50 {
            root2.uniform();
        }
        let mut s1 = root1.stream("noise");
        let mut s2 = root2.stream("noise");
        for _ in 0..20 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn named_streams_differ_by_name() {
        let root = SimRng::new(5);
        let mut a = root.stream("alpha");
        let mut b = root.stream("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn indexed_substreams_differ() {
        let root = SimRng::new(5);
        let mut a = root.substream(0);
        let mut b = root.substream(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_seeding_matches_reference() {
        // Known-answer test for SplitMix64-expanded seed 0 feeding
        // xoshiro256++ (the algorithm `rand 0.8`'s 64-bit `SmallRng` uses).
        // Pinning the first two outputs freezes the generator's byte stream
        // forever: any change here silently re-rolls every figure.
        let mut rng = SimRng::new(0);
        assert_eq!(rng.next_u64(), 0x5317_5d61_490b_23df);
        assert_eq!(rng.next_u64(), 0x61da_6f3d_c380_d507);
    }

    #[test]
    fn uniform_is_half_open() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fill_bytes_matches_word_stream() {
        let mut a = SimRng::new(17);
        let mut b = SimRng::new(17);
        let mut buf = [0u8; 12];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1[..4]);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::new(1234).stream("gauss-test");
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gaussian_is_box_muller_of_its_uniforms() {
        let mut a = SimRng::new(55).stream("bm");
        let mut b = a.clone();
        for _ in 0..1000 {
            let g = a.gaussian(0.5, 2.0);
            let u = b.box_muller_uniforms();
            assert!(u.0 > 0.0 && u.1 < 1.0);
            assert_eq!(g.to_bits(), SimRng::box_muller(u, 0.5, 2.0).to_bits());
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn rayleigh_mean_matches_theory() {
        // E[X] = sigma * sqrt(pi/2)
        let mut rng = SimRng::new(77).stream("rayleigh-test");
        let n = 200_000;
        let mean = (0..n).map(|_| rng.rayleigh(2.0)).sum::<f64>() / n as f64;
        let expect = 2.0 * (std::f64::consts::PI / 2.0f64).sqrt();
        assert!((mean - expect).abs() < 0.02, "mean {mean} expect {expect}");
    }

    #[test]
    fn exponential_mean_matches_theory() {
        let mut rng = SimRng::new(11).stream("exp-test");
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.08, "mean {mean}");
    }

    #[test]
    fn complex_gaussian_is_circular() {
        let mut rng = SimRng::new(31).stream("cg");
        let n = 100_000;
        let mut re_sum = 0.0;
        let mut im_sum = 0.0;
        let mut cross = 0.0;
        for _ in 0..n {
            let z = rng.complex_gaussian(1.0);
            re_sum += z.re;
            im_sum += z.im;
            cross += z.re * z.im;
        }
        assert!((re_sum / n as f64).abs() < 0.02);
        assert!((im_sum / n as f64).abs() < 0.02);
        assert!((cross / n as f64).abs() < 0.02); // components uncorrelated
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SimRng::new(8).stream("chance");
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.25)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn index_covers_range() {
        let mut rng = SimRng::new(8).stream("index");
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.index(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_is_unbiased_for_awkward_ranges() {
        // n = 3 leaves a partial copy of the range at the top of 2^64;
        // rejection must keep the residues uniform.
        let mut rng = SimRng::new(21).stream("lemire");
        let mut counts = [0u64; 3];
        let n = 300_000;
        for _ in 0..n {
            counts[rng.index(3)] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / n as f64;
            assert!((freq - 1.0 / 3.0).abs() < 0.01, "freq {freq}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn index_zero_panics() {
        SimRng::new(0).index(0);
    }

    #[test]
    fn fnv_hash_known_value() {
        // The standard FNV-1a 64 test vectors; the empty input hashes to
        // the offset basis.
        let fnv = |bytes: &[u8]| {
            let mut h = Fnv1a64::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        // `write_u64` is `write` of the little-endian bytes.
        for x in [0, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
            let mut a = Fnv1a64::new();
            a.write_u64(x);
            assert_eq!(a.finish(), fnv(&x.to_le_bytes()));
        }
    }

    #[test]
    fn run_seed_strides_by_the_golden_ratio() {
        assert_eq!(SimRng::run_seed(42, 0), 42);
        assert_eq!(SimRng::run_seed(0, 1), 0x9e37_79b9_7f4a_7c15);
        assert_eq!(SimRng::run_seed(u64::MAX, 1), 0x9e37_79b9_7f4a_7c14);
    }
}
