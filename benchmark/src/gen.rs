//! Seeded input generators: ω vectors and ν fields, Poisson arrival
//! schedules, and the serving key mix.
//!
//! The generators use their own small PRNG instead of the workspace's
//! `rand` stand-in: a workload seed must map to the same inputs on every
//! later commit, whatever happens to code outside this directory.

use mgd_field::DiffusivityModel;
use mgd_tensor::Tensor;
use std::time::Duration;

/// The paper's sampling box for ω (`[−3, 3]^m`).
const OMEGA_RANGE: (f64, f64) = (-3.0, 3.0);

/// SplitMix64: tiny, statistically solid, and frozen here for good.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one (seed, stream) pair; distinct streams of one seed
    /// are independent, so adding a consumer never shifts another's draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One ω vector, uniform in the paper's box.
    pub fn omega(&mut self, modes: usize) -> Vec<f64> {
        (0..modes)
            .map(|_| OMEGA_RANGE.0 + (OMEGA_RANGE.1 - OMEGA_RANGE.0) * self.unit())
            .collect()
    }
}

/// `n` distinct coefficient fields for one workload seed: the ω draws and
/// their rasterizations at `dims`.
pub fn nu_fields(
    seed: u64,
    n: usize,
    model: &DiffusivityModel,
    dims: &[usize],
) -> Vec<(Vec<f64>, Tensor)> {
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|_| {
            let omega = rng.omega(model.num_modes());
            let nu = model.rasterize(&omega, dims);
            (omega, nu)
        })
        .collect()
}

/// Arrival offsets of a Poisson process of `rate_hz` over `duration`
/// (exponential gaps `−ln(U)/λ`); the count follows from the duration.
pub fn poisson_arrivals(seed: u64, stream: u64, rate_hz: f64, duration: Duration) -> Vec<Duration> {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    let mut rng = Rng::new(seed, stream);
    let end = duration.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_hz * end * 1.1) as usize + 8);
    loop {
        // `unit()` is in [0, 1); flip to (0, 1] so the log is finite.
        t += -(1.0 - rng.unit()).ln() / rate_hz;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One entry of the serving key mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Key {
    /// One of the hot keys (rank under the Zipf law): repeats, so the
    /// prediction cache can answer it.
    Hot(usize),
    /// A key no other request shares: always a cache miss.
    Unique,
}

/// Shape of the serving key mix (all fields are frozen literals in
/// `frozen.rs`).
#[derive(Clone, Copy, Debug)]
pub struct KeyMix {
    pub hot_keys: usize,
    pub zipf_s: f64,
    pub unique_share: f64,
}

/// Draws the key of each of `n` requests: `unique_share` of them unique,
/// the rest Zipf-distributed over the hot set.
pub fn key_mix(seed: u64, stream: u64, n: usize, mix: KeyMix) -> Vec<Key> {
    let zipf = Zipf::new(mix.hot_keys, mix.zipf_s);
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            if rng.unit() < mix.unique_share {
                Key::Unique
            } else {
                Key::Hot(zipf.sample(&mut rng))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: KeyMix = KeyMix {
        hot_keys: 512,
        zipf_s: 1.1,
        unique_share: 0.5,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let d = Duration::from_secs(3);
        assert_eq!(
            poisson_arrivals(7, 2, 200.0, d),
            poisson_arrivals(7, 2, 200.0, d)
        );
        assert_ne!(
            poisson_arrivals(7, 2, 200.0, d),
            poisson_arrivals(8, 2, 200.0, d)
        );
        assert_eq!(key_mix(7, 3, 500, MIX), key_mix(7, 3, 500, MIX));
        assert_ne!(key_mix(7, 3, 500, MIX), key_mix(8, 3, 500, MIX));
        let model = DiffusivityModel::paper();
        let a = nu_fields(7, 3, &model, &[8, 8]);
        let b = nu_fields(7, 3, &model, &[8, 8]);
        let c = nu_fields(8, 3, &model, &[8, 8]);
        for ((oa, fa), (ob, fb)) in a.iter().zip(&b) {
            assert_eq!(oa, ob);
            assert_eq!(fa.as_slice(), fb.as_slice());
        }
        assert_ne!(a[0].0, c[0].0);
        assert!(a
            .iter()
            .all(|(o, _)| o.iter().all(|w| (-3.0..3.0).contains(w))));
    }

    #[test]
    fn arrivals_are_monotone_inside_the_window_and_near_rate() {
        let d = Duration::from_secs(10);
        let a = poisson_arrivals(1, 2, 300.0, d);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &d);
        let rate = a.len() as f64 / 10.0;
        assert!((rate - 300.0).abs() / 300.0 < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn hot_share_is_within_two_percent_of_half() {
        let keys = key_mix(11, 3, 20_000, MIX);
        let hot = keys.iter().filter(|k| matches!(k, Key::Hot(_))).count();
        let share = hot as f64 / keys.len() as f64;
        assert!((share - 0.5).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(512, 1.1);
        let mut rng = Rng::new(5, 0);
        let mut counts = [0usize; 512];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7]);
        assert!(counts[0] > 50_000 / 10, "rank 0 carries over a tenth");
    }
}
