//! Property-based tests spanning crates.

use mgd_dist::{launch, Comm};
use mgd_fem::{pcg, resample, CgOptions, Dirichlet, ElementBasis, FemSystem, Grid, JacobiPrecond};
use mgd_field::{DiffusivityModel, Sobol};
use mgd_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Sobol points stay inside the unit box for any dimension/count.
    #[test]
    fn sobol_in_unit_box(dim in 1usize..8, n in 1usize..200) {
        let mut s = Sobol::new(dim);
        for p in s.take(n) {
            prop_assert!(p.iter().all(|&x| (0.0..1.0).contains(&x)));
        }
    }

    /// The diffusivity field is strictly positive and finite over the
    /// whole parameter box.
    #[test]
    fn diffusivity_positive(
        w0 in -3.0..3.0f64, w1 in -3.0..3.0f64,
        w2 in -3.0..3.0f64, w3 in -3.0..3.0f64,
    ) {
        let m = DiffusivityModel::paper();
        let f = m.rasterize(&[w0, w1, w2, w3], &[9, 9]);
        prop_assert!(f.as_slice().iter().all(|&v| v > 0.0 && v.is_finite()));
    }

    /// Multilinear resampling reproduces affine fields exactly at any
    /// target resolution.
    #[test]
    fn resample_exact_on_affine(
        sy in 3usize..12, sx in 3usize..12,
        ty in 3usize..12, tx in 3usize..12,
        a in -2.0..2.0f64, b in -2.0..2.0f64, c in -2.0..2.0f64,
    ) {
        let mk = |ny: usize, nx: usize| {
            let mut t = Tensor::zeros([ny, nx]);
            for j in 0..ny {
                for i in 0..nx {
                    let x = i as f64 / (nx - 1) as f64;
                    let y = j as f64 / (ny - 1) as f64;
                    *t.at_mut(&[j, i]) = a + b * x + c * y;
                }
            }
            t
        };
        let f = mk(sy, sx);
        let r = Tensor::from_vec([ty, tx], resample(f.as_slice(), [sy, sx], [ty, tx]));
        let want = mk(ty, tx);
        prop_assert!(r.rel_l2_error(&want) < 1e-10);
    }

    /// The FEM solution minimizes the Ritz energy: random interior
    /// perturbations never lower it (convexity + optimality, the
    /// foundation of the training loss).
    #[test]
    fn fem_solution_is_energy_minimizer(seed in 0u64..500) {
        let g: Grid<2> = Grid::cube(9);
        let basis = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let m = DiffusivityModel::paper();
        let mut sob = Sobol::new(4);
        let omega: Vec<f64> = sob.take_in_box(1 + (seed as usize % 7), -3.0, 3.0).pop().unwrap();
        let nu = m.rasterize(&omega, &[9, 9]);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let sys = FemSystem::new(g, nu.as_slice().to_vec(), bc.clone()).unwrap();
        let (mut u, rhs) = (vec![0.0; nn], vec![0.0; nn]);
        sys.impose_bc(&mut u);
        let stats = pcg::solve(&sys, &JacobiPrecond::of(&sys), &mut u, &rhs,
            CgOptions { tol: 1e-12, ..Default::default() }).unwrap();
        prop_assert!(stats.converged);
        let j_star = mgd_fem::energy(&g, &basis, nu.as_slice(), &u, None);
        // Deterministic pseudo-random perturbation from the seed.
        let mut v = u.clone();
        for i in 0..nn {
            if !bc.fixed[i] {
                let h = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed) >> 33) as f64;
                v[i] += (h / (1u64 << 31) as f64 - 1.0) * 0.05;
            }
        }
        let j_pert = mgd_fem::energy(&g, &basis, nu.as_slice(), &v, None);
        prop_assert!(j_pert >= j_star - 1e-10);
    }

    /// Wrap-padding makes any permutation's length divisible by the batch
    /// size, adds fewer than `batch` entries, replicates only the prefix,
    /// and is a no-op when the length already divides.
    #[test]
    fn pad_indices_invariants(n in 1usize..64, batch in 1usize..12) {
        let orig: Vec<usize> = (0..n).map(|i| i.wrapping_mul(7) % n).collect();
        let mut idx = orig.clone();
        mgd_dist::pad_indices(&mut idx, batch);
        prop_assert_eq!(idx.len() % batch, 0);
        prop_assert!(idx.len() < n + batch, "pads at most batch-1 entries");
        prop_assert_eq!(&idx[..n], &orig[..], "existing entries untouched");
        for (j, &v) in idx[n..].iter().enumerate() {
            prop_assert_eq!(v, orig[j % n], "padding replicates the prefix in order");
        }
        if n % batch == 0 {
            prop_assert_eq!(idx.len(), n, "already-divisible input is unchanged");
        }
    }

    /// Global mini-batches cover a padded permutation exactly, in order,
    /// all full-size.
    #[test]
    fn global_minibatches_partition_in_order(n in 1usize..64, batch in 1usize..12) {
        let mut perm: Vec<usize> = (0..n).rev().collect();
        mgd_dist::pad_indices(&mut perm, batch);
        let mbs = mgd_dist::global_minibatches(&perm, batch);
        prop_assert_eq!(mbs.len(), perm.len() / batch);
        for mb in &mbs {
            prop_assert_eq!(mb.len(), batch, "padded batches are all full");
        }
        let flat: Vec<usize> = mbs.into_iter().flatten().collect();
        prop_assert_eq!(flat, perm, "concatenated batches equal the permutation");
    }

    /// Rank shards are equal-length, contiguous, and their in-order union
    /// reconstructs the global mini-batch — the Eq. 15 precondition.
    #[test]
    fn local_minibatch_shards_partition_global(
        n in 1usize..48, p in 1usize..6, per_rank in 1usize..5,
    ) {
        let batch = p * per_rank; // Trainer::new enforces batch % p == 0.
        let mut perm: Vec<usize> = (0..n).map(|i| (i * 13) % n).collect();
        mgd_dist::pad_indices(&mut perm, batch);
        for mb in mgd_dist::global_minibatches(&perm, batch) {
            let mut union = Vec::new();
            for r in 0..p {
                let shard = mgd_dist::local_minibatch(&mb, r, p);
                prop_assert_eq!(shard.len(), per_rank, "equal shards");
                prop_assert_eq!(shard, &mb[r * per_rank..(r + 1) * per_rank], "contiguous");
                union.extend_from_slice(shard);
            }
            prop_assert_eq!(union, mb, "union of shards == global batch");
        }
    }

    /// Ring all-reduce equals the serial sum for arbitrary data and any
    /// worker count.
    #[test]
    fn allreduce_equals_serial_sum(p in 1usize..6, n in 1usize..64, scale in 0.1..10.0f64) {
        let results = launch(p, move |comm| {
            let mut buf: Vec<f64> = (0..n)
                .map(|i| scale * ((comm.rank() * 31 + i * 7) % 13) as f64)
                .collect();
            comm.allreduce_sum(&mut buf);
            buf
        });
        for i in 0..n {
            let serial: f64 = (0..p).map(|r| scale * ((r * 31 + i * 7) % 13) as f64).sum();
            for buf in &results {
                prop_assert!((buf[i] - serial).abs() < 1e-9 * serial.abs().max(1.0));
            }
        }
    }

    /// Conv forward is linear in its input (fixed weights): the basis of
    /// backprop correctness for the convolution stack.
    #[test]
    fn conv_linearity(seed in 0u64..100) {
        use mgd_nn::{Conv3d, Layer};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut conv = Conv3d::same(1, 2, (1, 3, 3), &mut rng);
        for b in conv.bias.data.as_mut_slice() {
            *b = 0.0;
        }
        let x = Tensor::rand_uniform([1, 1, 1, 6, 6], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform([1, 1, 1, 6, 6], -1.0, 1.0, &mut rng);
        let fx = conv.forward(&x, false);
        let fy = conv.forward(&y, false);
        let fxy = conv.forward(&x.add(&y), false);
        prop_assert!(fxy.rel_l2_error(&fx.add(&fy)) < 1e-10);
    }
}

/// The energy of the network prediction is bounded below by the FEM energy
/// for every ω (deterministic sweep, not a proptest: the FEM solves are the
/// expensive part).
#[test]
fn prediction_energy_bounded_below_by_fem() {
    use mgd_field::{Dataset, InputEncoding};
    use mgd_nn::{UNet, UNetConfig};
    use mgdiffnet::FemLoss;
    let data = Dataset::sobol(4, DiffusivityModel::paper(), InputEncoding::LogNu);
    let dims = [16usize, 16];
    let loss = FemLoss::new(&dims).unwrap();
    let mut net = UNet::new(UNetConfig {
        two_d: true,
        depth: 2,
        base_filters: 2,
        seed: 77,
        ..Default::default()
    });
    for s in 0..data.len() {
        let f = mgdiffnet::predict_field(&mut net, &data, s, &dims).unwrap();
        let nu = data.nu_field(s, &dims);
        let (u_fem, stats) = loss.fem_solve(nu.as_slice(), None, 1e-10).unwrap();
        assert!(stats.converged);
        let j_nn = loss.energy_batch(
            std::slice::from_ref(&nu),
            &Tensor::from_vec([1, 1, 1, 16, 16], f.as_slice().to_vec()),
        );
        let j_fem = loss.energy_batch(&[nu], &Tensor::from_vec([1, 1, 1, 16, 16], u_fem));
        assert!(j_nn >= j_fem - 1e-10, "sample {s}: {j_nn} < {j_fem}");
    }
}
