//! Property-based tests for the FEM operators.

use mgd_fem::hierarchy::{GridHierarchy, HierarchyOptions};
use mgd_fem::{
    apply_stiffness, apply_stiffness_serial, energy, energy_grad, stiffness_diag, Dirichlet,
    ElementBasis, FemSystem, Grid, MixedHierarchy, PdeOperator, Precond,
};
use mgd_tensor::par::with_threads;
use proptest::prelude::*;
use std::sync::Arc;

fn field(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed.wrapping_mul(0xD1B54A32D192ED03));
            lo + (hi - lo) * ((h >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// Random SPD coefficient block for `op`: scalar ν, or per node
/// `T = L Lᵀ + 0.1 I` from a random lower-triangular `L`.
fn spd_coeff<const D: usize>(op: PdeOperator, nn: usize, seed: u64) -> Vec<f64> {
    if op == PdeOperator::Poisson {
        return field(nn, seed, 0.1, 5.0);
    }
    let r = |k: u64, lo, hi| field(nn, seed.wrapping_mul(31).wrapping_add(k), lo, hi);
    let (l00, l11, l22) = (r(1, 0.5, 2.0), r(2, 0.5, 2.0), r(3, 0.5, 2.0));
    let (l10, l20, l21) = (r(4, -1.0, 1.0), r(5, -1.0, 1.0), r(6, -1.0, 1.0));
    let mut t = vec![0.0; op.ncomp(D) * nn];
    for i in 0..nn {
        let l = [
            [l00[i], 0.0, 0.0],
            [l10[i], l11[i], 0.0],
            [l20[i], l21[i], l22[i]],
        ];
        let tt = |a: usize, b: usize| {
            (0..D).map(|k| l[a][k] * l[b][k]).sum::<f64>() + if a == b { 0.1 } else { 0.0 }
        };
        let comps: &[(usize, usize)] = if D == 2 {
            &[(0, 0), (1, 1), (0, 1)]
        } else {
            &[(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
        };
        for (c, &(a, b)) in comps.iter().enumerate() {
            t[c * nn + i] = tt(a, b);
        }
    }
    t
}

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

/// Stencil vs quadrature, symmetry, thread-count determinism and `f32`
/// demotion for one random system.
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
    op.apply_stiffness(&sys.grid, &sys.basis, &sys.nu, &u, &mut quad);
    let scale = max_abs(&quad);
    for (i, (a, b)) in ku.iter().zip(&quad).enumerate() {
        assert!(
            (a - b).abs() <= 1e-13 * scale,
            "{n:?} {op:?} node {i}: {a} vs {b}"
        );
    }
    let mut diag = vec![0.0; nn];
    op.stiffness_diag(&sys.grid, &sys.basis, &sys.nu, &mut diag);
    let dscale = max_abs(&diag);
    for (a, b) in sys.stencil().diag().iter().zip(&diag) {
        assert!(
            (a - b).abs() <= 1e-13 * dscale,
            "{n:?} {op:?} diag {a} vs {b}"
        );
    }
    let ((ukv, s1), (vku, s2)) = (dot(&u, &kv), dot(&v, &ku));
    assert!(
        (ukv - vku).abs() <= 1e-14 * s1.max(s2),
        "uᵀKv {ukv} vs vᵀKu {vku}"
    );
    // Bitwise equal at 1 and 2 threads (assembly and apply) and on repeat.
    let again = with_threads(2, || random_system(n, op, seed));
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

/// The colored sweep and the serial oracle differ only in summation order.
/// For Poisson the free functions and the operator agree bitwise.
fn check_colored_serial<const D: usize>(n: [usize; D], op: PdeOperator, seed: u64) {
    let g = Grid::new(n);
    let b = ElementBasis::<D>::new(&g);
    let nn = g.num_nodes();
    let coeff = spd_coeff::<D>(op, nn, seed);
    let u = field(nn, seed.wrapping_add(4), -1.0, 1.0);
    let (mut a, mut s) = (vec![0.0; nn], vec![0.0; nn]);
    op.apply_stiffness(&g, &b, &coeff, &u, &mut a);
    op.apply_stiffness_serial(&g, &b, &coeff, &u, &mut s);
    for i in 0..nn {
        assert!(
            (a[i] - s[i]).abs() < 1e-10,
            "{n:?} {op:?} node {i}: {} vs {}",
            a[i],
            s[i]
        );
    }
    if op == PdeOperator::Poisson {
        let (mut fa, mut fs) = (vec![0.0; nn], vec![0.0; nn]);
        apply_stiffness(&g, &b, &coeff, &u, &mut fa);
        apply_stiffness_serial(&g, &b, &coeff, &u, &mut fs);
        assert_eq!(bits(&fa), bits(&a), "{n:?} colored");
        assert_eq!(bits(&fs), bits(&s), "{n:?} serial");
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

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

    /// Parallel (colored) and serial stiffness application agree to
    /// rounding, for both operators in 2D and 3D.
    #[test]
    fn colored_equals_serial_apply(
        n in (3usize..9, 3usize..9, 3usize..9),
        three_d in 0usize..2,
        aniso in 0usize..2,
        seed in 0u64..1000,
    ) {
        let op = if aniso == 1 { PdeOperator::AnisoDiffusion } else { PdeOperator::Poisson };
        if three_d == 1 {
            check_colored_serial([n.0, n.1, n.2], op, seed);
        } else {
            check_colored_serial([n.0, n.1], op, seed);
        }
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
        apply_stiffness(&g, &b, &nu, &u, &mut ku);
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

    /// The assembled stencil reproduces the quadrature operator (apply and
    /// diagonal, both operators) on non-cube 2D/3D grids with random SPD
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
/// energy, the gradient (with and without forcing) and the stiffness
/// diagonal have the same bits at 1, 2 and 4 workers, for both operators.
/// For Poisson they are also the bits of the free functions.
#[test]
fn energy_is_thread_count_independent() {
    fn check<const D: usize>(n: [usize; D]) {
        let grid = Grid::new(n);
        let basis = ElementBasis::<D>::new(&grid);
        let nn = grid.num_nodes();
        let (u, f) = (field(nn, 11, -1.0, 1.0), field(nn, 12, -1.0, 1.0));
        for op in [PdeOperator::Poisson, PdeOperator::AnisoDiffusion] {
            let coeff = spd_coeff::<D>(op, nn, 13);
            let run = |threads| {
                with_threads(threads, || {
                    let e = op.energy(&grid, &basis, &coeff, &u, Some(&f));
                    let (mut g0, mut g1, mut d) = (vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]);
                    let j0 = op.energy_grad(&grid, &basis, &coeff, &u, None, &mut g0);
                    let j1 = op.energy_grad(&grid, &basis, &coeff, &u, Some(&f), &mut g1);
                    op.stiffness_diag(&grid, &basis, &coeff, &mut d);
                    if op == PdeOperator::Poisson {
                        assert_eq!(
                            e.to_bits(),
                            energy(&grid, &basis, &coeff, &u, Some(&f)).to_bits()
                        );
                        let (mut fg, mut fd) = (vec![0.0; nn], vec![0.0; nn]);
                        let fj = energy_grad(&grid, &basis, &coeff, &u, Some(&f), &mut fg);
                        stiffness_diag(&grid, &basis, &coeff, &mut fd);
                        assert_eq!((fj.to_bits(), bits(&fg)), (j1.to_bits(), bits(&g1)));
                        assert_eq!(bits(&fd), bits(&d));
                    }
                    let energies = vec![e.to_bits(), j0.to_bits(), j1.to_bits()];
                    [energies, bits(&g0), bits(&g1), bits(&d)]
                })
            };
            let one = run(1);
            for threads in [2, 4] {
                let got = run(threads);
                for (what, (a, b)) in ["energies", "gradient", "forced gradient", "diagonal"]
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
