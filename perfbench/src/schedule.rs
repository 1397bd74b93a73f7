//! Seeded inputs for the open-loop load generator: a splitmix64 stream
//! and the arrival schedule built from it.

/// splitmix64: a tiny integer-only generator, identical on every host.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled `get`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Which input tensor the request is about.
    pub pick: usize,
}

/// Uniform picks from `0..n` drawn without replacement in rounds of
/// `n` (a shuffled bag), so every input is used equally often and the
/// work per request does not drift with the seed.
struct Bag {
    order: Vec<usize>,
    next: usize,
}

impl Bag {
    fn new(n: usize) -> Self {
        Self {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut SplitMix) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Evenly spaced arrivals at `rate` requests per second over `seconds`,
/// each picking one of `inputs` tensors uniformly (from a shuffled bag).
/// The same arguments always give the same schedule.
///
/// The arrivals are evenly spaced rather than Poisson: with Poisson gaps
/// the queueing behind clustered large gets depended on the seed (one
/// seed's p50 was 1.5x another's at the same rate), so the seed moved the
/// latency more than the code did. The seed only orders the picks.
#[must_use]
pub fn schedule(seed: u64, rate: f64, seconds: f64, inputs: usize) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ 0x5C4E_D01E_0000_0001);
    let mut bag = Bag::new(inputs);
    let events = (rate * seconds).round().max(1.0) as usize;
    let gap_ns = 1e9 / rate;
    (0..events)
        .map(|i| Arrival {
            due_ns: (i as f64 * gap_ns) as u64,
            pick: bag.draw(&mut rng),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let a = schedule(7, 500.0, 4.0, 40);
        assert_eq!(a, schedule(7, 500.0, 4.0, 40));
        assert_ne!(a, schedule(8, 500.0, 4.0, 40));
    }

    #[test]
    fn mean_rate_matches_offered_rate() {
        for rate in [60.0, 3000.0] {
            for seed in 0..4 {
                let seconds = 60.0;
                let s = schedule(seed, rate, seconds, 10);
                let measured = s.len() as f64 / seconds;
                assert!(
                    (measured / rate - 1.0).abs() < 0.03,
                    "seed {seed}: {measured} req/s offered {rate}"
                );
                assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
                assert!(s.iter().all(|a| a.pick < 10 && a.due_ns < 60_000_000_000));
            }
        }
    }

    #[test]
    fn gaps_are_even() {
        let s = schedule(4, 1000.0, 50.0, 3);
        assert_eq!(s.len(), 50_000);
        assert!(s
            .windows(2)
            .all(|w| (999_999..=1_000_001).contains(&(w[1].due_ns - w[0].due_ns))));
    }

    #[test]
    fn every_input_is_picked_equally_often() {
        let s = schedule(9, 1000.0, 10.0, 7);
        let full = s.len() / 7 * 7;
        let mut counts = [0usize; 7];
        for a in &s[..full] {
            counts[a.pick] += 1;
        }
        assert!(counts.iter().all(|&c| c == full / 7), "{counts:?}");
    }
}
