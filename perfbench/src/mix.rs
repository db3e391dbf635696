//! Seeded inputs: the request mix of the serve workload and the AS
//! samples of the batch workload. Everything here is a pure function of
//! the workload seed, so the same seed always yields the same inputs.

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs in every build of the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let index = ((u128::from(self.next_u64()) * n as u128) >> 64) as usize;
        index
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit
    }

    /// A seeded permutation of `items` (Fisher-Yates).
    #[must_use]
    pub fn shuffled(&mut self, items: &[u32]) -> Vec<u32> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }

    /// A systematic sample of `k` items from `ranked` (every
    /// `len / k`-th item from a seeded offset) and the rest. When
    /// `ranked` is ordered by cost, every seed's sample spans the cost
    /// distribution evenly, so a seed changes which ASes are asked
    /// about but not how much work they are.
    #[must_use]
    pub fn systematic(&mut self, ranked: &[u32], k: usize) -> (Vec<u32>, Vec<u32>) {
        let k = k.min(ranked.len());
        if k == 0 {
            return (Vec::new(), ranked.to_vec());
        }
        #[allow(clippy::cast_precision_loss)]
        let stride = ranked.len() as f64 / k as f64;
        let offset = self.unit() * stride;
        let mut take = vec![false; ranked.len()];
        for i in 0..k {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            #[allow(clippy::cast_precision_loss)]
            let index = ((offset + i as f64 * stride) as usize).min(ranked.len() - 1);
            take[index] = true;
        }
        let mut picked = Vec::with_capacity(k);
        let mut rest = Vec::with_capacity(ranked.len() - k);
        for (&item, taken) in ranked.iter().zip(take) {
            if taken {
                picked.push(item);
            } else {
                rest.push(item);
            }
        }
        (picked, rest)
    }

    /// `k` items of `ranked` (ascending cost): the `census` costliest
    /// always, plus a [`systematic`](Self::systematic) sample of the
    /// rest; and every item not taken.
    #[must_use]
    pub fn stratified(&mut self, ranked: &[u32], k: usize, census: usize) -> (Vec<u32>, Vec<u32>) {
        let census = census.min(k).min(ranked.len());
        let (lower, top) = ranked.split_at(ranked.len() - census);
        let (mut picked, rest) = self.systematic(lower, k - census);
        picked.extend_from_slice(top);
        (picked, rest)
    }

    /// An exponential gap with mean `1 / rate`: Poisson arrivals.
    pub fn gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Seed of the hot-set sample, which is fixed rather than drawn from
/// the workload seed.
const HOT_SET_SEED: u64 = 0;

/// The request mix of the serve workload: the hot set cached during
/// warm-up, and the advise sequence (hot-set ASes) with its Poisson
/// arrival times.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    pub hot: Vec<u32>,
    /// The AS each advise asks about.
    pub asns: Vec<u32>,
    /// Due time of each advise, seconds after the traffic opens.
    pub due_s: Vec<f64>,
}

impl RequestMix {
    /// Draws the mix for a market given as its ASes ranked by ascending
    /// cost, with arrivals at `rate` per second for `seconds`.
    ///
    /// The hot set holds `hot_size` ASes: the `census` costliest always
    /// and a systematic sample of the rest, from a fixed seed, so it is
    /// the same in every run (the market's popular ASes) and the
    /// warm-up's cost does not depend on the workload seed. The seed
    /// chooses the arrival times and which hot AS each advise asks
    /// about.
    #[must_use]
    pub fn draw(
        seed: u64,
        ranked: &[u32],
        hot_size: usize,
        census: usize,
        rate: f64,
        seconds: f64,
    ) -> RequestMix {
        let (hot, _) = Rng::new(HOT_SET_SEED).stratified(ranked, hot_size, census);
        let mut rng = Rng::new(seed);
        let mut due_s = Vec::new();
        let mut at = rng.gap(rate);
        while at < seconds {
            due_s.push(at);
            at += rng.gap(rate);
        }
        let asns = due_s.iter().map(|_| hot[rng.below(hot.len())]).collect();
        RequestMix { hot, asns, due_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: u32) -> Vec<u32> {
        (1..=n).collect()
    }

    #[test]
    fn a_seed_reproduces_its_mix_exactly() {
        let ranked = population(500);
        let first = RequestMix::draw(7, &ranked, 50, 5, 400.0, 5.0);
        let again = RequestMix::draw(7, &ranked, 50, 5, 400.0, 5.0);
        assert_eq!(first, again);
        assert_eq!(first.asns.len(), first.due_s.len());
        assert!(first.due_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            (1_800..2_200).contains(&first.due_s.len()),
            "{}",
            first.due_s.len()
        );
        let other = RequestMix::draw(8, &ranked, 50, 5, 400.0, 5.0);
        assert_ne!(first, other);
        // The hot set does not depend on the seed.
        assert_eq!(first.hot, other.hot);
    }

    #[test]
    fn advises_ask_about_the_hot_set_only() {
        let ranked = population(5_000);
        let mix = RequestMix::draw(3, &ranked, 100, 5, 200.0, 10.0);
        assert_eq!(mix.hot.len(), 100);
        assert!((4_996..=5_000).all(|asn| mix.hot.contains(&asn)));
        assert!(mix.asns.iter().all(|asn| mix.hot.contains(asn)));
    }

    #[test]
    fn stratified_samples_always_hold_the_census() {
        let ranked = population(1_000);
        let (picked, rest) = Rng::new(9).stratified(&ranked, 100, 10);
        assert_eq!((picked.len(), rest.len()), (100, 900));
        assert!((991..=1_000).all(|asn| picked.contains(&asn)));
    }

    #[test]
    fn systematic_samples_span_the_ranking() {
        let ranked = population(1_000);
        let mut rng = Rng::new(5);
        let (picked, rest) = rng.systematic(&ranked, 100);
        assert_eq!((picked.len(), rest.len()), (100, 900));
        // One item from each block of ten, in order.
        for (i, &asn) in picked.iter().enumerate() {
            assert!((i as u32 * 10 + 1..=i as u32 * 10 + 10).contains(&asn));
        }
        let mut all: Vec<u32> = picked.iter().chain(&rest).copied().collect();
        all.sort_unstable();
        assert_eq!(all, ranked);
    }
}
