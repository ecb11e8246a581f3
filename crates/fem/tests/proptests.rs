//! Property-based tests for the FEM operators.

use mgd_fem::hierarchy::{GridHierarchy, HierarchyOptions};
use mgd_fem::{
    energy, energy_grad, load_vector, resample, Dirichlet, ElementBasis, FemSystem, Grid,
    MixedHierarchy, PdeOperator, Precond,
};
use mgd_tensor::par::with_threads;
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{field, spd_coeff};

/// A system with random SPD coefficients and a random Dirichlet mask.
fn random_system<const D: usize>(n: [usize; D], op: PdeOperator, seed: u64) -> FemSystem<D> {
    let grid = Grid::new(n);
    let nn = grid.num_nodes();
    let bc = Dirichlet {
        fixed: field(nn, seed ^ 0xB0, 0.0, 1.0)
            .iter()
            .map(|&p| p < 0.3)
            .collect(),
        values: vec![0.0; nn],
    };
    FemSystem::with_operator(grid, op, spd_coeff::<D>(op, nn, seed), bc).unwrap()
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Compensated `Σ aᵢbᵢ` and `Σ |aᵢbᵢ|`, so the symmetry check measures the
/// operator rather than the summation.
fn dot(a: &[f64], b: &[f64]) -> (f64, f64) {
    let (mut s, mut c, mut abs) = (0.0f64, 0.0f64, 0.0f64);
    for (x, y) in a.iter().zip(b) {
        let p = x * y;
        abs += p.abs();
        let t = s + p;
        c += if s.abs() >= p.abs() {
            (s - t) + p
        } else {
            (p - t) + s
        };
        s = t;
    }
    (s + c, abs)
}

/// Stencil vs the loss path's quadrature apply, symmetry, thread-count
/// determinism and `f32` demotion for one random system.
fn check_stencil<const D: usize>(n: [usize; D], op: PdeOperator, seed: u64) {
    let sys = with_threads(1, || random_system(n, op, seed));
    let nn = sys.num_nodes();
    let (u, v) = (
        field(nn, seed + 1, -1.0, 1.0),
        field(nn, seed + 2, -1.0, 1.0),
    );
    let (mut ku, mut kv, mut quad) = (vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]);
    sys.apply(&u, &mut ku);
    sys.apply(&v, &mut kv);
    // Without forcing the loss gradient is the colored apply `K u`.
    op.energy_grad(&sys.grid, &sys.basis, &sys.nu, &u, None, &mut quad);
    let scale = max_abs(&quad);
    for (i, (a, b)) in ku.iter().zip(&quad).enumerate() {
        assert!(
            (a - b).abs() <= 1e-13 * scale,
            "{n:?} {op:?} node {i}: {a} vs {b}"
        );
    }
    let ((ukv, s1), (vku, s2)) = (dot(&u, &kv), dot(&v, &ku));
    assert!(
        (ukv - vku).abs() <= 1e-14 * s1.max(s2),
        "uᵀKv {ukv} vs vᵀKu {vku}"
    );
    // Bitwise equal at 1 and 2 threads (assembly and apply) and on repeat.
    let again = with_threads(2, || random_system(n, op, seed));
    assert_eq!(bits(again.stencil().diag()), bits(sys.stencil().diag()));
    for run in [
        with_threads(1, || {
            let mut o = vec![0.0; nn];
            again.apply(&u, &mut o);
            o
        }),
        with_threads(2, || {
            let mut o = vec![0.0; nn];
            sys.apply(&u, &mut o);
            o
        }),
    ] {
        assert!(run.iter().zip(&ku).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
    let s32 = sys.stencil().demote::<f32>();
    let u32v: Vec<f32> = u.iter().map(|&x| x as f32).collect();
    let mut k32 = vec![0.0f32; nn];
    s32.apply(&u32v, &mut k32);
    let kscale = max_abs(&ku);
    for (a, &b) in ku.iter().zip(&k32) {
        assert!(
            (a - f64::from(b)).abs() <= 1e-5 * kscale,
            "f32 {b} vs f64 {a}"
        );
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `⟨P e, r⟩ == ⟨e, R r⟩` on masked vectors at every level of a hierarchy.
fn check_transpose<const D: usize>(n: [usize; D], seed: u64) {
    let g = Grid::new(n);
    let nn = g.num_nodes();
    let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
    let h = GridHierarchy::build(
        g,
        &field(nn, seed, 0.2, 3.0),
        &bc,
        HierarchyOptions::default(),
    )
    .unwrap();
    for l in 0..h.num_levels() - 1 {
        let (nf, nc) = (h.level(l).num_nodes(), h.level(l + 1).num_nodes());
        let mut e = field(nc, seed + l as u64, -1.0, 1.0);
        let mut r = field(nf, seed + 7 * l as u64 + 3, -1.0, 1.0);
        h.level(l + 1).mask(&mut e);
        h.level(l).mask(&mut r);
        let ((lhs, s1), (rhs, s2)) = (dot(&h.prolong(l, &e), &r), dot(&e, &h.restrict(l, &r)));
        assert!(
            (lhs - rhs).abs() <= 1e-14 * s1.max(s2),
            "{n:?} l{l}: {lhs} vs {rhs}"
        );
    }
}

/// The last `D` axes of a shape.
fn last<const D: usize>(n: (usize, usize, usize)) -> [usize; D] {
    let n = [n.0, n.1, n.2];
    std::array::from_fn(|d| n[3 - D + d])
}

/// `f` at the node coordinates (x first) of an `n`-shaped grid.
fn nodal<const D: usize>(n: [usize; D], f: impl Fn([f64; D]) -> f64) -> Vec<f64> {
    let g = Grid::new(n);
    (0..g.num_nodes()).map(|i| f(g.node_coords(i))).collect()
}

fn check_resample_constant<const D: usize>(from: [usize; D], to: [usize; D], c: f64) {
    let r = resample(&nodal(from, |_| c), from, to);
    assert_eq!(r.len(), to.iter().product());
    assert!(
        r.iter().all(|&v| (v - c).abs() < 1e-12),
        "{from:?} -> {to:?}"
    );
}

fn check_resample_range<const D: usize>(from: [usize; D], to: [usize; D], seed: u64) {
    let src = field(from.iter().product(), seed, -10.0, 10.0);
    let (lo, hi) = src
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let r = resample(&src, from, to);
    assert!(
        r.iter().all(|&v| v >= lo - 1e-12 && v <= hi + 1e-12),
        "{from:?} -> {to:?}"
    );
}

fn check_resample_multilinear<const D: usize>(from: [usize; D], to: [usize; D], w: [f64; 4]) {
    let f = |x: [f64; D]| w[0] + w[1] * x[0] + w[2] * x[D - 1] + w[3] * x.iter().product::<f64>();
    let (r, want) = (resample(&nodal(from, f), from, to), nodal(to, f));
    for (a, b) in r.iter().zip(&want) {
        assert!((a - b).abs() < 1e-12, "{from:?} -> {to:?}: {a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Resampling preserves constants between any two 2D or 3D shapes:
    /// nested or not, with some axes growing while others shrink.
    #[test]
    fn resample_preserves_constants(
        from in (2usize..13, 2usize..13, 2usize..13),
        to in (2usize..13, 2usize..13, 2usize..13),
        c in -5.0..5.0f64,
    ) {
        check_resample_constant(last::<2>(from), last(to), c);
        check_resample_constant(last::<3>(from), last(to), c);
    }

    /// Resampled values never leave the source range (multilinear
    /// interpolation is a convex combination).
    #[test]
    fn resample_respects_range(
        from in (2usize..13, 2usize..13, 2usize..13),
        to in (2usize..13, 2usize..13, 2usize..13),
        seed in 0u64..1000,
    ) {
        check_resample_range(last::<2>(from), last(to), seed);
        check_resample_range(last::<3>(from), last(to), seed);
    }

    /// Resampling is exact for multilinear fields, cross terms included.
    #[test]
    fn resample_exact_for_multilinear(
        from in (2usize..13, 2usize..13, 2usize..13),
        to in (2usize..13, 2usize..13, 2usize..13),
        w in proptest::collection::vec(-2.0..2.0f64, 4),
    ) {
        let w = [w[0], w[1], w[2], w[3]];
        check_resample_multilinear(last::<2>(from), last(to), w);
        check_resample_multilinear(last::<3>(from), last(to), w);
    }

    /// The no-forcing energy ½uᵀKu is non-negative for positive ν.
    #[test]
    fn energy_nonnegative(m in 3usize..10, seed in 0u64..1000) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let u = field(nn, seed.wrapping_add(1), -2.0, 2.0);
        prop_assert!(energy(&g, &b, &nu, &u, None) >= -1e-12);
    }

    /// Energy is 1-homogeneous in ν: J(cν, u) = c·J(ν, u).
    #[test]
    fn energy_linear_in_nu(m in 3usize..8, seed in 0u64..1000, c in 0.1..10.0f64) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let nu_c: Vec<f64> = nu.iter().map(|&v| c * v).collect();
        let u = field(nn, seed.wrapping_add(2), -1.0, 1.0);
        let j1 = energy(&g, &b, &nu, &u, None);
        let j2 = energy(&g, &b, &nu_c, &u, None);
        prop_assert!((j2 - c * j1).abs() < 1e-9 * (1.0 + j1.abs()));
    }

    /// Energy is 2-homogeneous in u: J(ν, cu) = c²·J(ν, u).
    #[test]
    fn energy_quadratic_in_u(m in 3usize..8, seed in 0u64..1000, c in -3.0..3.0f64) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let u = field(nn, seed.wrapping_add(3), -1.0, 1.0);
        let uc: Vec<f64> = u.iter().map(|&v| c * v).collect();
        let j1 = energy(&g, &b, &nu, &u, None);
        let j2 = energy(&g, &b, &nu, &uc, None);
        prop_assert!((j2 - c * c * j1).abs() < 1e-9 * (1.0 + j1.abs()));
    }

    /// K annihilates constants for any ν (pure Neumann compatibility).
    #[test]
    fn stiffness_kernel_contains_constants(m in 3usize..10, seed in 0u64..1000, c in -5.0..5.0f64) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let u = vec![c; nn];
        let mut ku = vec![0.0; nn];
        energy_grad(&g, &b, &nu, &u, None, &mut ku);
        prop_assert!(ku.iter().all(|&x| x.abs() < 1e-10));
    }

    /// Dirichlet mask operations are idempotent and complementary.
    #[test]
    fn mask_idempotent(m in 3usize..10, seed in 0u64..1000) {
        let g: Grid<2> = Grid::cube(m);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let mut u = field(g.num_nodes(), seed, -1.0, 1.0);
        bc.apply(&mut u);
        let once = u.clone();
        bc.apply(&mut u);
        prop_assert_eq!(&u, &once);
        let mut v = once.clone();
        bc.zero_fixed(&mut v);
        // Fixed entries zeroed, interior untouched.
        for i in 0..v.len() {
            if bc.fixed[i] {
                prop_assert_eq!(v[i], 0.0);
            } else {
                prop_assert_eq!(v[i], once[i]);
            }
        }
    }

    /// 3D grids: node/multi-index roundtrip for arbitrary shapes.
    #[test]
    fn grid_roundtrip_3d(nz in 2usize..6, ny in 2usize..6, nx in 2usize..6) {
        let g: Grid<3> = Grid::new([nz, ny, nx]);
        for i in 0..g.num_nodes() {
            prop_assert_eq!(g.node(g.node_multi(i)), i);
        }
    }

    /// The assembled stencil reproduces the loss path's quadrature apply
    /// (both operators) on non-cube 2D/3D grids with random SPD
    /// coefficients and Dirichlet masks; it is symmetric, thread-count
    /// deterministic, and its `f32` demotion stays within 1e-5.
    #[test]
    fn stencil_matches_quadrature(
        n in (2usize..=33, 2usize..=33, 2usize..=33),
        three_d in 0usize..2,
        aniso in 0usize..2,
        seed in 0u64..1000,
    ) {
        let op = if aniso == 1 { PdeOperator::AnisoDiffusion } else { PdeOperator::Poisson };
        if three_d == 1 {
            check_stencil([n.0, n.1, n.2], op, seed);
        } else {
            check_stencil([n.0, n.1], op, seed);
        }
    }

    /// Restriction is the exact transpose of prolongation (separable
    /// transfers, nested and non-nested axes).
    #[test]
    fn restrict_is_prolong_transpose(
        n in (2usize..=33, 2usize..=33, 2usize..=33),
        three_d in 0usize..2,
        seed in 0u64..1000,
    ) {
        if three_d == 1 {
            check_transpose([n.0, n.1, n.2], seed);
        } else {
            check_transpose([n.0, n.1], seed);
        }
    }
}

/// Grids from 2^12 nodes up sweep, transfer and V-cycle on the worker
/// pool: every sweep and V-cycle must still be bitwise identical at 1, 2
/// and 4 workers, at 32³ (the certified solver's grid) and at an uneven
/// 48×40×36.
#[test]
fn large_grid_sweeps_are_thread_count_independent() {
    for (n, seed) in [([32, 32, 32], 3), ([48, 40, 36], 5)] {
        let sys = Arc::new(random_system(n, PdeOperator::Poisson, seed));
        let nn = sys.num_nodes();
        let (u, b) = (field(nn, 6, -1.0, 1.0), field(nn, 7, -1.0, 1.0));
        let hier = GridHierarchy::from_finest(Arc::clone(&sys), HierarchyOptions::default());
        let hier = hier.unwrap();
        let mixed = MixedHierarchy::new(
            GridHierarchy::from_finest(Arc::clone(&sys), HierarchyOptions::default()).unwrap(),
        );
        let run = |threads| {
            with_threads(threads, || {
                let (mut ku, mut r, mut s) = (vec![0.0; nn], vec![0.0; nn], u.clone());
                sys.apply(&u, &mut ku);
                sys.residual_into(&u, &b, &mut r);
                sys.stencil().smooth(&mut s, &b, 0.7, 3, &mut vec![0.0; nn]);
                let (mut v, mut vm) = (vec![0.0; nn], vec![0.0; nn]);
                hier.apply(&b, &mut v);
                mixed.apply(&b, &mut vm);
                let norm = vec![sys.residual_norm(&u, &b)];
                [ku, r, s, v, vm, norm].map(|x| bits(&x))
            })
        };
        let one = run(1);
        for threads in [2, 4] {
            let got = run(threads);
            for (what, (a, b)) in [
                "apply",
                "residual",
                "smooth",
                "V-cycle",
                "f32 V-cycle",
                "norm",
            ]
            .iter()
            .zip(one.iter().zip(&got))
            {
                assert!(a == b, "{n:?}: {what} differs at {threads} workers");
            }
        }
    }
}

/// Element-energy sums above the parallel gate add fixed block partials in
/// block order, and colored sweeps add one element per node and color: the
/// energy and the gradient (with and without forcing) have the same bits
/// at 1, 2 and 4 workers, for both operators. For Poisson they are also
/// the bits of the free functions.
#[test]
fn energy_is_thread_count_independent() {
    fn check<const D: usize>(n: [usize; D]) {
        let grid = Grid::new(n);
        let basis = ElementBasis::<D>::new(&grid);
        let nn = grid.num_nodes();
        let (u, f) = (field(nn, 11, -1.0, 1.0), field(nn, 12, -1.0, 1.0));
        let mut load = vec![0.0; nn];
        load_vector(&grid, &basis, &f, &mut load);
        for op in [PdeOperator::Poisson, PdeOperator::AnisoDiffusion] {
            let coeff = spd_coeff::<D>(op, nn, 13);
            let run = |threads| {
                with_threads(threads, || {
                    let e = op.energy(&grid, &basis, &coeff, &u, Some(&f));
                    let (mut g0, mut g1) = (vec![0.0; nn], vec![0.0; nn]);
                    let j0 = op.energy_grad(&grid, &basis, &coeff, &u, None, &mut g0);
                    let forcing = Some((&f[..], &load[..]));
                    let j1 = op.energy_grad(&grid, &basis, &coeff, &u, forcing, &mut g1);
                    if op == PdeOperator::Poisson {
                        assert_eq!(
                            e.to_bits(),
                            energy(&grid, &basis, &coeff, &u, Some(&f)).to_bits()
                        );
                        let mut fg = vec![0.0; nn];
                        let fj = energy_grad(&grid, &basis, &coeff, &u, Some(&f), &mut fg);
                        assert_eq!((fj.to_bits(), bits(&fg)), (j1.to_bits(), bits(&g1)));
                    }
                    let energies = vec![e.to_bits(), j0.to_bits(), j1.to_bits()];
                    [energies, bits(&g0), bits(&g1)]
                })
            };
            let one = run(1);
            for threads in [2, 4] {
                let got = run(threads);
                for (what, (a, b)) in ["energies", "gradient", "forced gradient"]
                    .iter()
                    .zip(one.iter().zip(&got))
                {
                    assert!(a == b, "{n:?} {op:?}: {what} differs at {threads} workers");
                }
            }
        }
    }
    check([40, 40]);
    check([12, 12, 12]);
    // At least 512 elements per color: the colored sweeps fork too.
    check([48, 48]);
    check([17, 17, 17]);
}
