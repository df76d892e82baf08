//! Service-time distributions parameterised by `(mean, C²)`.
//!
//! The LoPC model characterises every service (handler dispatch, compute
//! phases, wire times) by just two moments: the mean and the squared
//! coefficient of variation `C² = Var/mean²`. §5.2 of the thesis folds `C²`
//! into the response-time equations through the residual-life correction
//! `β = (C² − 1)/2`; the simulator needs actual samples. This crate provides
//! both sides of that contract: distributions whose *analytic* `(mean, C²)`
//! are exact (the model reads them) and whose samples converge to the same
//! moments (the simulator draws them).
//!
//! [`from_mean_cv2`] maps any requested `(mean, C²)` onto a standard
//! queueing-theory family:
//!
//! | `C²` | family |
//! |------|--------|
//! | `0` | deterministic ([`ServiceTime::Constant`]) |
//! | `(0, 1)` | mixed Erlang `E_{k−1,k}` (Tijms' two-moment fit) |
//! | `1` | exponential |
//! | `(1, ∞)` | two-phase hyperexponential `H₂` with balanced means |
//!
//! Each branch matches the requested moments *exactly*, not approximately —
//! the property tests in `tests/moments.rs` verify both the closed-form
//! moments and the sample-moment convergence.
//!
//! # Example
//!
//! ```
//! use lopc_dist::{from_mean_cv2, Distribution, ServiceTime};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let d = from_mean_cv2(200.0, 0.5);
//! assert!((d.mean() - 200.0).abs() < 1e-9);
//! assert!((d.cv2() - 0.5).abs() < 1e-9);
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let x = d.sample(&mut rng);
//! assert!(x >= 0.0);
//!
//! // C² = 0 is deterministic, C² = 1 is exponential.
//! assert_eq!(from_mean_cv2(10.0, 0.0), ServiceTime::constant(10.0));
//! assert_eq!(from_mean_cv2(10.0, 1.0), ServiceTime::exponential(10.0));
//! ```

use rand::Rng;

/// A non-negative service-time distribution characterised by `(mean, C²)`.
///
/// `mean` and `cv2` must be *exact* closed forms (the analytical model reads
/// them directly); `sample` must converge to the same moments.
pub trait Distribution {
    /// Exact mean.
    fn mean(&self) -> f64;

    /// Exact squared coefficient of variation `Var/mean²` (0 when the mean
    /// is 0).
    fn cv2(&self) -> f64;

    /// Draw one sample (always `>= 0`).
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Exact variance, derived from the two moments.
    fn variance(&self) -> f64 {
        let m = self.mean();
        self.cv2() * m * m
    }
}

/// Uniform distribution on `[lo, hi]` (used for bounded work jitter, e.g.
/// the matvec desynchronisation study).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UniformRange {
    /// Inclusive lower endpoint (`>= 0`).
    pub lo: f64,
    /// Inclusive upper endpoint (`>= lo`).
    pub hi: f64,
}

impl UniformRange {
    /// Uniform on `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi,
            "UniformRange requires 0 <= lo <= hi, got [{lo}, {hi}]"
        );
        UniformRange { lo, hi }
    }

    /// Uniform on `[mean − half_width, mean + half_width]`.
    pub fn centered(mean: f64, half_width: f64) -> Self {
        assert!(
            half_width >= 0.0 && half_width <= mean,
            "half_width must be in [0, mean] to keep the support non-negative"
        );
        UniformRange::new(mean - half_width, mean + half_width)
    }

    /// Width of the support.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl Distribution for UniformRange {
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn cv2(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            return 0.0;
        }
        let w = self.width();
        (w * w / 12.0) / (m * m)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + rng.random::<f64>() * self.width()
    }
}

/// A service-time distribution selected by `(mean, C²)`.
///
/// Constructed through [`ServiceTime::constant`], [`ServiceTime::exponential`],
/// [`ServiceTime::uniform`], or the general two-moment fit
/// [`ServiceTime::with_cv2`] / [`from_mean_cv2`].
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceTime {
    /// Deterministic: every sample is exactly the mean (`C² = 0`).
    Constant(f64),
    /// Exponential with the given mean (`C² = 1`).
    Exponential {
        /// Mean service time.
        mean: f64,
    },
    /// Uniform on a bounded interval.
    Uniform(UniformRange),
    /// Mixed Erlang `E_{k−1,k}`: with probability `p` an Erlang with `k−1`
    /// exponential phases of rate `rate`, else `k` phases. Covers
    /// `C² ∈ (0, 1)` exactly (Tijms' two-moment fit).
    ErlangMix {
        /// Larger phase count (`>= 2`); the mixture uses `k−1` and `k`.
        k: u32,
        /// Probability of the `k−1`-phase branch (`∈ [0, 1]`).
        p: f64,
        /// Phase rate shared by both branches.
        rate: f64,
    },
    /// Two-phase hyperexponential with balanced means: phase 1 with
    /// probability `p1` and rate `rate1`, else phase 2 with `rate2`. Covers
    /// `C² > 1` exactly.
    Hyper2 {
        /// Probability of phase 1.
        p1: f64,
        /// Rate of phase 1.
        rate1: f64,
        /// Rate of phase 2.
        rate2: f64,
    },
}

impl ServiceTime {
    /// Deterministic service of exactly `mean` cycles (`C² = 0`).
    pub fn constant(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
        ServiceTime::Constant(mean)
    }

    /// Exponential service with the given mean (`C² = 1`).
    pub fn exponential(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
        if mean == 0.0 {
            return ServiceTime::Constant(0.0);
        }
        ServiceTime::Exponential { mean }
    }

    /// Uniform service on `[lo, hi]` (`C² = (hi−lo)²/12 / mean²`).
    pub fn uniform(lo: f64, hi: f64) -> Self {
        ServiceTime::Uniform(UniformRange::new(lo, hi))
    }

    /// The general two-moment fit: a distribution with *exactly* the given
    /// mean and squared coefficient of variation. See [`from_mean_cv2`].
    pub fn with_cv2(mean: f64, cv2: f64) -> Self {
        from_mean_cv2(mean, cv2)
    }

    /// Alias of [`ServiceTime::with_cv2`] taking the (unsquared) coefficient
    /// of variation `cv = σ/mean`.
    pub fn with_cv(mean: f64, cv: f64) -> Self {
        assert!(cv.is_finite() && cv >= 0.0, "cv must be >= 0");
        from_mean_cv2(mean, cv * cv)
    }
}

/// Draw from an exponential with the given **rate** via inversion.
/// `1 − u ∈ (0, 1]` so the logarithm is finite and the sample non-negative.
#[inline]
fn exp_sample<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    -(1.0 - rng.random::<f64>()).ln() / rate
}

/// Phase count above which Erlang sampling switches from summing
/// exponentials (`O(n)` draws) to the `O(1)`-expected gamma sampler. Low
/// `C²` means `k = ceil(1/C²)` phases, so e.g. `C² = 0.001` would otherwise
/// cost 1000 draws per service time in the simulator's hot loop.
const ERLANG_DIRECT_SUM_MAX: u32 = 16;

/// Standard normal variate (Marsaglia polar method; exact).
fn normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.random::<f64>() - 1.0;
        let v = 2.0 * rng.random::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Gamma variate with integer shape `alpha >= 1` and unit scale via the
/// Marsaglia–Tsang squeeze (exact rejection sampler, `O(1)` expected).
fn gamma_sample<R: Rng + ?Sized>(rng: &mut R, alpha: f64) -> f64 {
    debug_assert!(alpha >= 1.0);
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal_sample(rng);
        let t = 1.0 + c * x;
        if t <= 0.0 {
            continue;
        }
        let v = t * t * t;
        let u = rng.random::<f64>();
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Draw from an Erlang with `n` phases of the given rate.
#[inline]
fn erlang_sample<R: Rng + ?Sized>(rng: &mut R, n: u32, rate: f64) -> f64 {
    if n <= ERLANG_DIRECT_SUM_MAX {
        // Sum of n exponentials == -(sum of ln uniforms)/rate; the sum of
        // logs avoids underflow of the product.
        let mut acc = 0.0;
        for _ in 0..n {
            acc += (1.0 - rng.random::<f64>()).ln();
        }
        -acc / rate
    } else {
        // Erlang(n) == Gamma(shape n); exact and O(1) regardless of n.
        gamma_sample(rng, n as f64) / rate
    }
}

impl Distribution for ServiceTime {
    fn mean(&self) -> f64 {
        match *self {
            ServiceTime::Constant(m) => m,
            ServiceTime::Exponential { mean } => mean,
            ServiceTime::Uniform(u) => u.mean(),
            ServiceTime::ErlangMix { k, p, rate } => (k as f64 - p) / rate,
            ServiceTime::Hyper2 { p1, rate1, rate2 } => p1 / rate1 + (1.0 - p1) / rate2,
        }
    }

    fn cv2(&self) -> f64 {
        match *self {
            ServiceTime::Constant(_) => 0.0,
            ServiceTime::Exponential { .. } => 1.0,
            ServiceTime::Uniform(u) => u.cv2(),
            ServiceTime::ErlangMix { k, p, rate: _ } => {
                // E[X] = (k − p)/μ; E[X²] = [p(k−1)k + (1−p)k(k+1)]/μ².
                let k = k as f64;
                let m1 = k - p;
                let m2 = p * (k - 1.0) * k + (1.0 - p) * k * (k + 1.0);
                m2 / (m1 * m1) - 1.0
            }
            ServiceTime::Hyper2 { p1, rate1, rate2 } => {
                let p2 = 1.0 - p1;
                let m1 = p1 / rate1 + p2 / rate2;
                let m2 = 2.0 * (p1 / (rate1 * rate1) + p2 / (rate2 * rate2));
                m2 / (m1 * m1) - 1.0
            }
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ServiceTime::Constant(m) => m,
            ServiceTime::Exponential { mean } => exp_sample(rng, 1.0 / mean),
            ServiceTime::Uniform(u) => u.sample(rng),
            ServiceTime::ErlangMix { k, p, rate } => {
                let phases = if rng.random::<f64>() < p { k - 1 } else { k };
                erlang_sample(rng, phases, rate)
            }
            ServiceTime::Hyper2 { p1, rate1, rate2 } => {
                let rate = if rng.random::<f64>() < p1 {
                    rate1
                } else {
                    rate2
                };
                exp_sample(rng, rate)
            }
        }
    }
}

/// Build a [`ServiceTime`] with *exactly* the requested mean and squared
/// coefficient of variation (the §5.2 two-moment characterisation):
///
/// * `cv2 == 0` → deterministic;
/// * `0 < cv2 < 1` → mixed Erlang `E_{k−1,k}` with `k = ceil(1/cv2)` and
///   the Tijms mixing probability
///   `p = [1 + cv2]⁻¹ · [k·cv2 − √(k(1 + cv2) − k²·cv2)]`;
/// * `cv2 == 1` → exponential;
/// * `cv2 > 1` → balanced-means hyperexponential `H₂` with
///   `p₁ = ½(1 + √((cv2−1)/(cv2+1)))`, `rateᵢ = 2pᵢ/mean`.
///
/// A zero mean is deterministic 0 regardless of `cv2`.
pub fn from_mean_cv2(mean: f64, cv2: f64) -> ServiceTime {
    assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
    assert!(cv2.is_finite() && cv2 >= 0.0, "cv2 must be >= 0");
    if mean == 0.0 || cv2 == 0.0 {
        return ServiceTime::Constant(mean);
    }
    if (cv2 - 1.0).abs() < 1e-12 {
        return ServiceTime::Exponential { mean };
    }
    if cv2 < 1.0 {
        // Tijms' E_{k−1,k} fit: choose k with 1/k <= cv2 <= 1/(k−1).
        let k = (1.0 / cv2).ceil() as u32;
        let kf = k as f64;
        let p = (kf * cv2 - (kf * (1.0 + cv2) - kf * kf * cv2).sqrt()) / (1.0 + cv2);
        // Guard tiny negative round-off at cv2 == 1/k exactly.
        let p = p.clamp(0.0, 1.0);
        let rate = (kf - p) / mean;
        ServiceTime::ErlangMix { k, p, rate }
    } else {
        let s = ((cv2 - 1.0) / (cv2 + 1.0)).sqrt();
        let p1 = 0.5 * (1.0 + s);
        ServiceTime::Hyper2 {
            p1,
            rate1: 2.0 * p1 / mean,
            rate2: 2.0 * (1.0 - p1) / mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_moments(d: &ServiceTime, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0 && x.is_finite(), "bad sample {x}");
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        (mean, var / (mean * mean))
    }

    #[test]
    fn constant_moments_exact() {
        let d = ServiceTime::constant(42.0);
        assert_eq!(d.mean(), 42.0);
        assert_eq!(d.cv2(), 0.0);
        assert_eq!(d.variance(), 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 42.0);
        }
    }

    #[test]
    fn exponential_moments_exact() {
        let d = ServiceTime::exponential(200.0);
        assert_eq!(d.mean(), 200.0);
        assert_eq!(d.cv2(), 1.0);
        assert!((d.variance() - 40_000.0).abs() < 1e-9);
        let (m, c2) = sample_moments(&d, 400_000, 5);
        assert!((m - 200.0).abs() / 200.0 < 0.01, "sample mean {m}");
        assert!((c2 - 1.0).abs() < 0.03, "sample cv2 {c2}");
    }

    #[test]
    fn uniform_moments_exact() {
        let d = ServiceTime::uniform(0.0, 50.0);
        assert_eq!(d.mean(), 25.0);
        // (50²/12)/25² = 1/3.
        assert!((d.cv2() - 1.0 / 3.0).abs() < 1e-12);
        let (m, c2) = sample_moments(&d, 200_000, 6);
        assert!((m - 25.0).abs() < 0.2);
        assert!((c2 - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn centered_uniform() {
        let u = UniformRange::centered(100.0, 10.0);
        assert_eq!(u.lo, 90.0);
        assert_eq!(u.hi, 110.0);
        assert_eq!(u.mean(), 100.0);
    }

    #[test]
    fn from_mean_cv2_families() {
        assert!(matches!(from_mean_cv2(10.0, 0.0), ServiceTime::Constant(_)));
        assert!(matches!(
            from_mean_cv2(10.0, 0.5),
            ServiceTime::ErlangMix { .. }
        ));
        assert!(matches!(
            from_mean_cv2(10.0, 1.0),
            ServiceTime::Exponential { .. }
        ));
        assert!(matches!(
            from_mean_cv2(10.0, 2.5),
            ServiceTime::Hyper2 { .. }
        ));
        // Zero mean is deterministic whatever the cv2.
        assert_eq!(from_mean_cv2(0.0, 3.0), ServiceTime::Constant(0.0));
    }

    #[test]
    fn two_moment_fit_is_exact_in_closed_form() {
        for &mean in &[0.5, 25.0, 131.0, 1000.0] {
            for &cv2 in &[0.05, 0.25, 0.5, 1.0 / 3.0, 0.75, 0.99, 1.5, 2.0, 4.0, 8.0] {
                let d = from_mean_cv2(mean, cv2);
                assert!(
                    (d.mean() - mean).abs() < 1e-9 * mean,
                    "mean {} != {mean} at cv2={cv2}",
                    d.mean()
                );
                assert!(
                    (d.cv2() - cv2).abs() < 1e-9,
                    "cv2 {} != {cv2} at mean={mean}",
                    d.cv2()
                );
            }
        }
    }

    #[test]
    fn erlang_boundary_is_pure_erlang() {
        // cv2 = 1/k exactly → mixing probability 0 → pure Erlang(k).
        let d = from_mean_cv2(100.0, 0.5);
        if let ServiceTime::ErlangMix { k, p, .. } = d {
            assert_eq!(k, 2);
            assert!(p.abs() < 1e-9, "p = {p}");
        } else {
            panic!("expected ErlangMix, got {d:?}");
        }
    }

    #[test]
    fn with_cv_squares() {
        // cv = 0.5 → cv² = 0.25.
        let d = ServiceTime::with_cv(80.0, 0.5);
        assert!((d.cv2() - 0.25).abs() < 1e-9);
        assert!((d.mean() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn samples_converge_for_very_low_variability_gamma_path() {
        // cv2 = 0.004 -> k = 250 phases, well past ERLANG_DIRECT_SUM_MAX:
        // exercises the O(1) Marsaglia-Tsang gamma sampler, which must match
        // the same moments the direct sum would produce.
        let d = from_mean_cv2(100.0, 0.004);
        if let ServiceTime::ErlangMix { k, .. } = d {
            assert!(k > ERLANG_DIRECT_SUM_MAX, "k = {k} should take gamma path");
        } else {
            panic!("expected ErlangMix, got {d:?}");
        }
        let (m, c2) = sample_moments(&d, 300_000, 29);
        assert!((m - 100.0).abs() / 100.0 < 0.005, "mean {m}");
        assert!((c2 - 0.004).abs() < 0.001, "cv2 {c2}");
    }

    #[test]
    fn gamma_and_direct_sum_paths_agree_at_boundary() {
        // Same Erlang shape sampled both ways must give the same moments
        // (different streams, same distribution).
        let rate = 0.2;
        let n_lo = ERLANG_DIRECT_SUM_MAX; // direct sum
        let mut rng = SmallRng::seed_from_u64(31);
        let draws = 200_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..draws {
            let a = erlang_sample(&mut rng, n_lo, rate);
            let b = gamma_sample(&mut rng, n_lo as f64) / rate;
            s1 += a;
            s2 += b;
        }
        let (m1, m2) = (s1 / draws as f64, s2 / draws as f64);
        let expected = n_lo as f64 / rate;
        assert!((m1 - expected).abs() / expected < 0.01, "direct {m1}");
        assert!((m2 - expected).abs() / expected < 0.01, "gamma {m2}");
    }

    #[test]
    fn samples_converge_for_low_variability() {
        let d = from_mean_cv2(100.0, 0.3);
        let (m, c2) = sample_moments(&d, 400_000, 11);
        assert!((m - 100.0).abs() / 100.0 < 0.01, "mean {m}");
        assert!((c2 - 0.3).abs() < 0.02, "cv2 {c2}");
    }

    #[test]
    fn samples_converge_for_high_variability() {
        let d = from_mean_cv2(100.0, 4.0);
        let (m, c2) = sample_moments(&d, 2_000_000, 13);
        assert!((m - 100.0).abs() / 100.0 < 0.02, "mean {m}");
        assert!((c2 - 4.0).abs() < 0.25, "cv2 {c2}");
    }

    #[test]
    fn determinism_by_seed() {
        let d = from_mean_cv2(50.0, 2.0);
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "mean must be >= 0")]
    fn negative_mean_rejected() {
        ServiceTime::constant(-1.0);
    }

    #[test]
    #[should_panic(expected = "cv2 must be >= 0")]
    fn negative_cv2_rejected() {
        from_mean_cv2(1.0, -0.5);
    }

    #[test]
    #[should_panic(expected = "0 <= lo <= hi")]
    fn inverted_uniform_rejected() {
        ServiceTime::uniform(5.0, 1.0);
    }
}
