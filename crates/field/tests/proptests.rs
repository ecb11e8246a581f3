//! Property-based tests for the field generators and datasets.

use mgd_field::diffusivity::DiffusivityModel;
use mgd_field::sobol::Sobol;
use mgd_field::{Dataset, InputEncoding};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Sobol stays in the unit box and is deterministic.
    #[test]
    fn sobol_bounds_and_determinism(dim in 1usize..8, n in 1usize..128) {
        let a: Vec<Vec<f64>> = Sobol::new(dim).take(n);
        let b: Vec<Vec<f64>> = Sobol::new(dim).take(n);
        prop_assert_eq!(&a, &b);
        for p in &a {
            prop_assert!(p.iter().all(|&x| (0.0..1.0).contains(&x)));
        }
    }

    /// log ν is bounded by Σ|ωᵢ|λᵢsᵢ² — no overflow anywhere in the box.
    #[test]
    fn log_nu_respects_analytic_bound(
        w in proptest::collection::vec(-3.0..3.0f64, 4),
        x in 0.0..1.0f64, y in 0.0..1.0f64,
    ) {
        let m = DiffusivityModel::paper();
        let bound: f64 = (0..4)
            .map(|i| w[i].abs() * m.lambda[i] * (1.0 + 0.25 * m.a[i] * m.a[i]))
            .sum();
        prop_assert!(m.log_nu_2d(&w, x, y).abs() <= bound + 1e-9);
    }

    /// 3D separable mode is bounded by the same budget.
    #[test]
    fn log_nu_3d_bounded(
        w in proptest::collection::vec(-3.0..3.0f64, 4),
        x in 0.0..1.0f64, y in 0.0..1.0f64, z in 0.0..1.0f64,
    ) {
        let m = DiffusivityModel::paper();
        let bound: f64 = (0..4)
            .map(|i| w[i].abs() * m.lambda[i] * (1.0 + 0.25 * m.a[i] * m.a[i]))
            .sum();
        prop_assert!(m.log_nu_3d(&w, x, y, z).abs() <= bound + 1e-9);
    }

    /// Padding a dataset's epoch permutation (`mgd_dist::pad_indices`, the
    /// paper's §3.2 augmentation to `Ns` divisible by `p`) always produces
    /// divisible lengths and repeats only existing samples.
    #[test]
    fn dataset_padding(n in 1usize..40, p in 1usize..8, epoch in 0u64..4) {
        let d = Dataset::sobol(n, DiffusivityModel::paper(), InputEncoding::LogNu);
        let mut idx = d.epoch_permutation(7, epoch);
        let before = idx.clone();
        mgd_dist::pad_indices(&mut idx, p);
        prop_assert_eq!(idx.len() % p, 0);
        prop_assert!(idx.len() >= n && idx.len() < n + p);
        prop_assert_eq!(&idx[..n], &before[..]);
        for i in &idx[n..] {
            prop_assert!(before.contains(i));
        }
    }

    /// Epoch permutations are valid permutations for any seed/epoch.
    #[test]
    fn permutation_validity(n in 1usize..64, seed in 0u64..100, epoch in 0u64..100) {
        let d = Dataset::sobol(n, DiffusivityModel::paper(), InputEncoding::LogNu);
        let mut p = d.epoch_permutation(seed, epoch);
        p.sort_unstable();
        prop_assert_eq!(p, (0..n).collect::<Vec<_>>());
    }
}
