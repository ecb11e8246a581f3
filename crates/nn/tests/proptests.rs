//! Property-based tests for the CNN framework.

use mgd_dist::{carve_planes, launch_with, SlabPartition};
use mgd_nn::layer::Dims5;
use mgd_nn::unet::{concat_channels, split_channels};
use mgd_nn::{
    Adam, Conv3d, ConvTranspose3d, Layer, MaxPool3d, Model, Optimizer, Param, Sigmoid, SplitAxis,
    UNet, UNetConfig,
};
use mgd_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Same-padding convolutions preserve spatial dims for any channel
    /// combination and input size.
    #[test]
    fn conv_same_preserves_dims(
        cin in 1usize..4, cout in 1usize..4,
        h in 3usize..10, w in 3usize..10, seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv3d::same(cin, cout, (1, 3, 3), &mut rng);
        let x = Tensor::rand_uniform([1, cin, 1, h, w], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        prop_assert_eq!(y.dims(), &[1, cout, 1, h, w]);
    }

    /// Max-pool backward conserves the total gradient mass.
    #[test]
    fn pool_backward_conserves_gradient(h in 1usize..5, w in 1usize..5, seed in 0u64..100) {
        let (h, w) = (h * 2, w * 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = MaxPool3d::new((1, 2, 2));
        let x = Tensor::rand_uniform([1, 1, 1, h, w], -1.0, 1.0, &mut rng);
        let y = pool.forward(&x, true);
        let g = Tensor::rand_uniform(y.dims().to_vec(), -1.0, 1.0, &mut rng);
        let gx = pool.backward(&g);
        prop_assert!((gx.sum() - g.sum()).abs() < 1e-10);
    }

    /// Sigmoid output is strictly inside (0, 1) for inputs where f64 can
    /// represent that (|x| ≲ 36; beyond, it rounds to exactly 0/1), and is
    /// monotone.
    #[test]
    fn sigmoid_range_and_monotonicity(a in -30.0..30.0f64, b in -30.0..30.0f64) {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec([1, 1, 1, 1, 2], vec![a, b]);
        let y = s.forward(&x, false);
        prop_assert!(y[0] > 0.0 && y[0] < 1.0);
        prop_assert!(y[1] > 0.0 && y[1] < 1.0);
        if a < b {
            prop_assert!(y[0] <= y[1]);
        }
    }

    /// concat/split roundtrip for arbitrary channel splits.
    #[test]
    fn concat_split_roundtrip(ca in 1usize..5, cb in 1usize..5, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform([2, ca, 1, 3, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([2, cb, 1, 3, 3], -1.0, 1.0, &mut rng);
        let cat = concat_channels(&a, &b);
        let (a2, b2) = split_channels(&cat, ca);
        prop_assert_eq!(a2.as_slice(), a.as_slice());
        prop_assert_eq!(b2.as_slice(), b.as_slice());
    }

    /// Adam converges on any 1D positive quadratic.
    #[test]
    fn adam_minimizes_quadratic(target in -5.0..5.0f64, curvature in 0.5..4.0f64) {
        let mut p = Param::new(Tensor::from_vec([1], vec![0.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..800 {
            let g = 2.0 * curvature * (p.data[0] - target);
            p.grad = Tensor::from_vec([1], vec![g]);
            opt.step(&mut [&mut p]);
        }
        prop_assert!((p.data[0] - target).abs() < 1e-2, "{} vs {}", p.data[0], target);
    }

    /// The U-Net accepts every resolution divisible by 2^depth and
    /// produces outputs in (0, 1) with the sigmoid head.
    #[test]
    fn unet_resolution_sweep(k in 1usize..4, seed in 0u64..20) {
        let cfg = UNetConfig { two_d: true, depth: 2, base_filters: 2, seed, ..Default::default() };
        let mut net = UNet::new(cfg);
        let m = 4 << k; // 8, 16, 32
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform([1, 1, 1, m, m], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, false);
        prop_assert_eq!(y.dims(), &[1, 1, 1, m, m]);
        prop_assert!(y.as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    /// Unit-aligned slab partitions disjointly cover every plane for any
    /// valid `(n_split, p)`, with slab sizes differing by at most one.
    #[test]
    fn unit_partition_invariants(p in 1usize..8, extra in 0usize..33) {
        let n_split = p + extra; // always >= p planes
        let part = SlabPartition::aligned(n_split, p, 1).unwrap();
        let mut planes = vec![0usize; n_split];
        for r in 0..p {
            for pl in part.owned_planes(r) {
                planes[pl] += 1;
            }
        }
        prop_assert!(planes.iter().all(|&c| c == 1), "planes {planes:?}");
        let sizes: Vec<usize> = (0..p).map(|r| part.owned_planes(r).len()).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(hi - lo <= 1, "sizes {sizes:?}");
    }

    /// Aligned slab partitions tile the axis with contiguous, non-empty
    /// slabs whose sizes are all multiples of the alignment.
    #[test]
    fn aligned_partition_invariants(p in 1usize..8, extra in 0usize..9, lg in 0u32..4) {
        let blocks = p + extra;
        let align = 1usize << lg;
        let extent = blocks * align;
        let part = SlabPartition::aligned(extent, p, align).unwrap();
        let mut covered = 0usize;
        for r in 0..p {
            let owned = part.owned_planes(r);
            prop_assert_eq!(owned.start, covered, "slabs must tile contiguously");
            prop_assert!(!owned.is_empty());
            prop_assert!(owned.len().is_multiple_of(align));
            covered = owned.end;
        }
        prop_assert_eq!(covered, extent);
        // One more rank than blocks must fail as a typed error.
        prop_assert!(SlabPartition::aligned(extent, blocks + 1, align).is_err());
    }

    /// The slab-decomposed spatial forward is bitwise identical to the
    /// serial forward for random resolutions, depths, dimensionalities and
    /// rank counts — the core guarantee of `mgd_nn::spatial`.
    #[test]
    fn spatial_forward_matches_serial_bitwise(
        depth in 1usize..3, blocks_extra in 0usize..3, p in 2usize..5,
        hw in 1usize..3, two_d_bit in 0usize..2, seed in 0u64..1000,
    ) {
        let two_d = two_d_bit == 1;
        let align = 1usize << depth;
        let extent = (p + blocks_extra) * align;
        let other = hw * align * 2;
        let dims = if two_d { [1, extent, other] } else { [extent, other.min(8), 4.max(align)] };
        let cfg = UNetConfig {
            depth, base_filters: 2, two_d, seed,
            ..Default::default()
        };
        let mut reference = UNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let x = Tensor::rand_uniform(vec![1, 1, dims[0], dims[1], dims[2]], -1.0, 1.0, &mut rng);
        let serial = reference.forward(&x, false);
        let d5 = Dims5::of(&x);
        let axis = reference.split_axis();
        let part = SlabPartition::aligned(axis.extent(&d5), p, align).unwrap();
        let layout = axis.layout(&d5);
        let jobs: Vec<(UNet, Tensor, std::ops::Range<usize>)> = (0..p)
            .map(|r| {
                let owned = part.owned_planes(r);
                let data = carve_planes(x.as_slice(), &layout, owned.start, owned.end);
                let sdims = match axis {
                    SplitAxis::Depth => vec![1, 1, owned.len(), dims[1], dims[2]],
                    SplitAxis::Height => vec![1, 1, 1, owned.len(), dims[2]],
                };
                (UNet::new(cfg), Tensor::from_vec(sdims, data), owned)
            })
            .collect();
        let results = launch_with(jobs, |comm, (mut replica, slab, owned)| {
            (owned, replica.predict_slab(&slab, &comm).expect("the U-Net splits"))
        });
        let out_layout = axis.layout(&Dims5::of(&serial));
        for (owned, out) in results {
            let expect = carve_planes(serial.as_slice(), &out_layout, owned.start, owned.end);
            prop_assert_eq!(out.as_slice().len(), expect.len());
            for (i, (a, b)) in out.as_slice().iter().zip(&expect).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "two_d={} depth={} p={} owned={:?} elem {}: {} vs {}",
                    two_d, depth, p, owned, i, a, b
                );
            }
        }
    }

    /// The f32 convolution inference path tracks the f64 master path to
    /// the single-precision equivalence tolerance across random shapes.
    #[test]
    fn conv_f32_infer_matches_f64(
        cin in 1usize..4, cout in 1usize..4,
        h in 4usize..12, w in 4usize..12, seed in 0u64..200,
    ) {
        use mgd_tensor::Element;
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv3d::same(cin, cout, (1, 3, 3), &mut rng);
        let conv32 = conv.cast_as::<f32>();
        let x = Tensor::rand_uniform([2, cin, 1, h, w], -1.0, 1.0, &mut rng);
        let y64 = conv.infer(&x);
        let y32 = conv32.infer(&x.cast::<f32>());
        let err = y64.rel_l2_error(&y32.cast::<f64>());
        prop_assert!(err < <f32 as Element>::EQUIV_TOL, "conv f32 drift {err}");
    }

    /// The f32 transpose-convolution (decoder) inference path tracks f64
    /// to the same tolerance.
    #[test]
    fn convt_f32_infer_matches_f64(
        cin in 1usize..4, cout in 1usize..4,
        h in 3usize..8, w in 3usize..8, seed in 0u64..200,
    ) {
        use mgd_tensor::Element;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = ConvTranspose3d::up2(cin, cout, true, &mut rng);
        let t32 = t.cast_as::<f32>();
        let x = Tensor::rand_uniform([1, cin, 1, h, w], -1.0, 1.0, &mut rng);
        let y64 = t.infer(&x);
        let y32 = t32.infer(&x.cast::<f32>());
        let err = y64.rel_l2_error(&y32.cast::<f64>());
        prop_assert!(err < <f32 as Element>::EQUIV_TOL, "convt f32 drift {err}");
    }

    /// A whole f32 U-Net replica (random seeds) tracks the f64 master
    /// network within the f32 equivalence tolerance, and repeat runs are
    /// bitwise deterministic.
    #[test]
    fn unet_f32_matches_f64(seed in 0u64..30) {
        use mgd_nn::Workspace;
        use mgd_tensor::Element;
        let cfg = UNetConfig {
            two_d: true, depth: 2, base_filters: 2, seed,
            ..Default::default()
        };
        let mut net = UNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF32);
        let _ = net.forward(&Tensor::rand_uniform([2, 1, 1, 8, 8], -1.0, 1.0, &mut rng), true);
        let net32 = net.to_f32();
        let x = Tensor::rand_uniform([1, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let y64 = net.infer(&x, &mut Workspace::new());
        let x32 = x.cast::<f32>();
        let y32 = net32.infer(&x32, &mut Workspace::<f32>::new());
        let err = y64.rel_l2_error(&y32.cast::<f64>());
        prop_assert!(err < <f32 as Element>::EQUIV_TOL, "unet f32 drift {err}");
        let again = net32.infer(&x32, &mut Workspace::<f32>::new());
        for (a, b) in y32.as_slice().iter().zip(again.as_slice()) {
            prop_assert!(a.to_bits() == b.to_bits(), "f32 repeat run not bitwise equal");
        }
    }

    /// Gradient accumulation: two backward passes double the parameter
    /// gradient (callers rely on accumulate-then-zero semantics).
    #[test]
    fn gradients_accumulate(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv3d::same(1, 1, (1, 3, 3), &mut rng);
        let x = Tensor::rand_uniform([1, 1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform([1, 1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
        let once = conv.weight.grad.clone();
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
        for i in 0..once.len() {
            prop_assert!((conv.weight.grad[i] - 2.0 * once[i]).abs() < 1e-9);
        }
    }
}
