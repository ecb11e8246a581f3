//! Matrix-free FEM operators: Ritz energy, its gradient, stiffness apply.
//!
//! The Ritz energy (paper Eq. 14) for the generalized Poisson problem is
//!
//! ```text
//! J(u) = Σ_e Σ_q w·detJ [ ½ ν(x_q) |∇u(x_q)|² − f(x_q) u(x_q) ]
//! ```
//!
//! with ν and f interpolated multilinearly from nodal samples. Its exact
//! nodal gradient is `∇J = K(ν) u − F`: the backprop input for the network
//! loss, and the oracle the solvers' assembled [`crate::stencil`] matches.
//! All loops are matrix-free and parallelized with the element coloring of
//! [`crate::color`].
//!
//! **Length validation** happens at construction boundaries
//! ([`crate::system::FemSystem`], the `solve_cg*` entry points, the
//! hierarchy builders) as typed [`crate::error::FemError`]s; the kernels
//! here only `debug_assert!` read-side lengths. Output slices that are
//! scattered into through [`SyncSlice`] keep hard `assert_eq!`s — those
//! writes are unchecked raw-pointer adds in release mode, so the length
//! check is load-bearing for memory safety, not a validation convenience.

use crate::basis::ElementBasis;
use crate::color::for_each_element_colored;
use crate::grid::Grid;
use mgd_tensor::par::{maybe_par_sum_map, SyncSlice};

/// Maximum local nodes (2^D for D ≤ 3).
pub(crate) const MAX_NL: usize = 8;

/// Per-element scratch gathered from global arrays.
#[inline]
pub(crate) fn gather<const D: usize>(
    grid: &Grid<D>,
    strides: &[usize; D],
    base: usize,
    src: &[f64],
    out: &mut [f64; MAX_NL],
    nl: usize,
) {
    for l in 0..nl {
        out[l] = src[base + grid.local_offset(strides, l)];
    }
}

/// Evaluates the Ritz energy `J(u; ν, f)`.
///
/// `nu` and `u` are nodal fields (row-major, x fastest); `f` is an optional
/// nodal forcing. The sum over elements is embarrassingly parallel.
pub fn energy<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    nu: &[f64],
    u: &[f64],
    f: Option<&[f64]>,
) -> f64 {
    let nn = grid.num_nodes();
    debug_assert_eq!(nu.len(), nn, "nu length");
    debug_assert_eq!(u.len(), nn, "u length");
    if let Some(ff) = f {
        debug_assert_eq!(ff.len(), nn, "f length");
    }
    let strides = grid.strides();
    let nl = basis.nl;
    let ne = grid.num_elements();
    let kernel = |e: usize| -> f64 {
        let el = grid.element_multi(e);
        let base = grid.element_base(el);
        let mut nu_l = [0.0; MAX_NL];
        let mut u_l = [0.0; MAX_NL];
        let mut f_l = [0.0; MAX_NL];
        gather(grid, &strides, base, nu, &mut nu_l, nl);
        gather(grid, &strides, base, u, &mut u_l, nl);
        if let Some(ff) = f {
            gather(grid, &strides, base, ff, &mut f_l, nl);
        }
        let mut j = 0.0;
        for q in 0..basis.nq {
            let vrow = &basis.val[q * nl..(q + 1) * nl];
            let mut nu_q = 0.0;
            let mut gu = [0.0; D];
            for l in 0..nl {
                nu_q += vrow[l] * nu_l[l];
                let grow = &basis.grad[(q * nl + l) * D..(q * nl + l + 1) * D];
                for c in 0..D {
                    gu[c] += grow[c] * u_l[l];
                }
            }
            let g2: f64 = gu.iter().map(|g| g * g).sum();
            j += basis.w_detj * 0.5 * nu_q * g2;
            if f.is_some() {
                let mut u_q = 0.0;
                let mut f_q = 0.0;
                for l in 0..nl {
                    u_q += vrow[l] * u_l[l];
                    f_q += vrow[l] * f_l[l];
                }
                j -= basis.w_detj * f_q * u_q;
            }
        }
        j
    };
    maybe_par_sum_map(ne, nl * basis.nq, kernel)
}

/// Computes `J(u)` and accumulates its nodal gradient `K(ν)u − F` into
/// `grad` (which is zeroed first). Returns `J`.
pub fn energy_grad<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    nu: &[f64],
    u: &[f64],
    f: Option<&[f64]>,
    grad: &mut [f64],
) -> f64 {
    let nn = grid.num_nodes();
    debug_assert_eq!(grad.len(), nn, "grad length");
    grad.iter_mut().for_each(|g| *g = 0.0);
    let j = energy(grid, basis, nu, u, f);
    apply_stiffness(grid, basis, nu, u, grad);
    if let Some(ff) = f {
        let mut load = vec![0.0; nn];
        load_vector(grid, basis, ff, &mut load);
        for i in 0..nn {
            grad[i] -= load[i];
        }
    }
    j
}

/// Matrix-free stiffness application `out += K(ν) u`.
///
/// `out` is *accumulated into* (callers zero it when they need `K u` alone).
pub fn apply_stiffness<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    nu: &[f64],
    u: &[f64],
    out: &mut [f64],
) {
    let nn = grid.num_nodes();
    debug_assert_eq!(nu.len(), nn);
    debug_assert_eq!(u.len(), nn);
    // Hard assert: `out` is written through unchecked raw-pointer adds.
    assert_eq!(out.len(), nn);
    let strides = grid.strides();
    let nl = basis.nl;
    let sync = SyncSlice::new(out);
    for_each_element_colored(grid, nl * basis.nq * D, |e| {
        let el = grid.element_multi(e);
        let base = grid.element_base(el);
        let mut nu_l = [0.0; MAX_NL];
        let mut u_l = [0.0; MAX_NL];
        let mut acc = [0.0; MAX_NL];
        gather(grid, &strides, base, nu, &mut nu_l, nl);
        gather(grid, &strides, base, u, &mut u_l, nl);
        for q in 0..basis.nq {
            let vrow = &basis.val[q * nl..(q + 1) * nl];
            let mut nu_q = 0.0;
            let mut gu = [0.0; D];
            for l in 0..nl {
                nu_q += vrow[l] * nu_l[l];
                let grow = &basis.grad[(q * nl + l) * D..(q * nl + l + 1) * D];
                for c in 0..D {
                    gu[c] += grow[c] * u_l[l];
                }
            }
            let s = basis.w_detj * nu_q;
            for l in 0..nl {
                let grow = &basis.grad[(q * nl + l) * D..(q * nl + l + 1) * D];
                let mut dot = 0.0;
                for c in 0..D {
                    dot += gu[c] * grow[c];
                }
                acc[l] += s * dot;
            }
        }
        for l in 0..nl {
            // SAFETY: same-color elements have disjoint node supports.
            unsafe { sync.add(base + grid.local_offset(&strides, l), acc[l]) };
        }
    });
}

/// Strictly sequential variant of [`apply_stiffness`]: one element sweep in
/// natural order, no coloring; the reference the colored parallel sweep is
/// tested against.
pub fn apply_stiffness_serial<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    nu: &[f64],
    u: &[f64],
    out: &mut [f64],
) {
    let nn = grid.num_nodes();
    debug_assert_eq!(nu.len(), nn);
    debug_assert_eq!(u.len(), nn);
    debug_assert_eq!(out.len(), nn);
    let strides = grid.strides();
    let nl = basis.nl;
    for e in 0..grid.num_elements() {
        let el = grid.element_multi(e);
        let base = grid.element_base(el);
        let mut nu_l = [0.0; MAX_NL];
        let mut u_l = [0.0; MAX_NL];
        gather(grid, &strides, base, nu, &mut nu_l, nl);
        gather(grid, &strides, base, u, &mut u_l, nl);
        for q in 0..basis.nq {
            let vrow = &basis.val[q * nl..(q + 1) * nl];
            let mut nu_q = 0.0;
            let mut gu = [0.0; D];
            for l in 0..nl {
                nu_q += vrow[l] * nu_l[l];
                let grow = &basis.grad[(q * nl + l) * D..(q * nl + l + 1) * D];
                for c in 0..D {
                    gu[c] += grow[c] * u_l[l];
                }
            }
            let s = basis.w_detj * nu_q;
            for l in 0..nl {
                let grow = &basis.grad[(q * nl + l) * D..(q * nl + l + 1) * D];
                let mut dot = 0.0;
                for c in 0..D {
                    dot += gu[c] * grow[c];
                }
                out[base + grid.local_offset(&strides, l)] += s * dot;
            }
        }
    }
}

/// Diagonal of the stiffness matrix, `out += diag(K(ν))` (Jacobi smoother /
/// preconditioner).
pub fn stiffness_diag<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    nu: &[f64],
    out: &mut [f64],
) {
    let nn = grid.num_nodes();
    debug_assert_eq!(nu.len(), nn);
    // Hard assert: `out` is written through unchecked raw-pointer adds.
    assert_eq!(out.len(), nn);
    let strides = grid.strides();
    let nl = basis.nl;
    let sync = SyncSlice::new(out);
    for_each_element_colored(grid, nl * basis.nq * D, |e| {
        let el = grid.element_multi(e);
        let base = grid.element_base(el);
        let mut nu_l = [0.0; MAX_NL];
        let mut acc = [0.0; MAX_NL];
        gather(grid, &strides, base, nu, &mut nu_l, nl);
        for q in 0..basis.nq {
            let vrow = &basis.val[q * nl..(q + 1) * nl];
            let mut nu_q = 0.0;
            for l in 0..nl {
                nu_q += vrow[l] * nu_l[l];
            }
            let s = basis.w_detj * nu_q;
            for l in 0..nl {
                let grow = &basis.grad[(q * nl + l) * D..(q * nl + l + 1) * D];
                let mut g2 = 0.0;
                for c in 0..D {
                    g2 += grow[c] * grow[c];
                }
                acc[l] += s * g2;
            }
        }
        for l in 0..nl {
            // SAFETY: same-color elements have disjoint node supports.
            unsafe { sync.add(base + grid.local_offset(&strides, l), acc[l]) };
        }
    });
}

/// Consistent load vector `out += F` with `F_i = ∫ f φ_i` for nodal `f`.
pub fn load_vector<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    f: &[f64],
    out: &mut [f64],
) {
    let nn = grid.num_nodes();
    debug_assert_eq!(f.len(), nn);
    // Hard assert: `out` is written through unchecked raw-pointer adds.
    assert_eq!(out.len(), nn);
    let strides = grid.strides();
    let nl = basis.nl;
    let sync = SyncSlice::new(out);
    for_each_element_colored(grid, nl * basis.nq, |e| {
        let el = grid.element_multi(e);
        let base = grid.element_base(el);
        let mut f_l = [0.0; MAX_NL];
        let mut acc = [0.0; MAX_NL];
        gather(grid, &strides, base, f, &mut f_l, nl);
        for q in 0..basis.nq {
            let vrow = &basis.val[q * nl..(q + 1) * nl];
            let mut f_q = 0.0;
            for l in 0..nl {
                f_q += vrow[l] * f_l[l];
            }
            for l in 0..nl {
                acc[l] += basis.w_detj * f_q * vrow[l];
            }
        }
        for l in 0..nl {
            // SAFETY: same-color elements have disjoint node supports.
            unsafe { sync.add(base + grid.local_offset(&strides, l), acc[l]) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2(m: usize) -> (Grid<2>, ElementBasis<2>) {
        let g = Grid::cube(m);
        let b = ElementBasis::new(&g);
        (g, b)
    }

    fn linear_u(g: &Grid<2>, a: f64, bx: f64, by: f64) -> Vec<f64> {
        (0..g.num_nodes())
            .map(|i| {
                let c = g.node_coords(i);
                a + bx * c[0] + by * c[1]
            })
            .collect()
    }

    #[test]
    fn energy_of_linear_field_unit_nu() {
        // J = ½ ∫ |∇u|² = ½ (bx² + by²) for u = a + bx·x + by·y on [0,1]².
        let (g, b) = grid2(9);
        let nu = vec![1.0; g.num_nodes()];
        let u = linear_u(&g, 0.3, 2.0, -1.0);
        let j = energy(&g, &b, &nu, &u, None);
        assert!((j - 0.5 * (4.0 + 1.0)).abs() < 1e-12, "J = {j}");
    }

    #[test]
    fn energy_is_translation_invariant() {
        let (g, b) = grid2(9);
        let nu = vec![2.0; g.num_nodes()];
        let u = linear_u(&g, 0.0, 1.0, 1.0);
        let v = linear_u(&g, 5.0, 1.0, 1.0);
        let ju = energy(&g, &b, &nu, &u, None);
        let jv = energy(&g, &b, &nu, &v, None);
        assert!((ju - jv).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (g, b) = grid2(5);
        let nn = g.num_nodes();
        // Deterministic pseudo-random nu > 0 and u.
        let nu: Vec<f64> = (0..nn)
            .map(|i| 0.5 + ((i * 37 % 11) as f64) / 11.0)
            .collect();
        let u: Vec<f64> = (0..nn)
            .map(|i| ((i * 17 % 13) as f64) / 13.0 - 0.5)
            .collect();
        let f: Vec<f64> = (0..nn).map(|i| ((i * 29 % 7) as f64) / 7.0).collect();
        let mut grad = vec![0.0; nn];
        energy_grad(&g, &b, &nu, &u, Some(&f), &mut grad);
        let eps = 1e-6;
        for i in (0..nn).step_by(3) {
            let mut up = u.clone();
            up[i] += eps;
            let mut um = u.clone();
            um[i] -= eps;
            let fd = (energy(&g, &b, &nu, &up, Some(&f)) - energy(&g, &b, &nu, &um, Some(&f)))
                / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-7,
                "node {i}: {} vs {}",
                grad[i],
                fd
            );
        }
    }

    #[test]
    fn stiffness_is_symmetric() {
        let (g, b) = grid2(4);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn).map(|i| 1.0 + 0.3 * ((i % 5) as f64)).collect();
        // vᵀ K u == uᵀ K v for random-ish u, v.
        let u: Vec<f64> = (0..nn).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let v: Vec<f64> = (0..nn).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let mut ku = vec![0.0; nn];
        let mut kv = vec![0.0; nn];
        apply_stiffness(&g, &b, &nu, &u, &mut ku);
        apply_stiffness(&g, &b, &nu, &v, &mut kv);
        let vku: f64 = v.iter().zip(&ku).map(|(a, b)| a * b).sum();
        let ukv: f64 = u.iter().zip(&kv).map(|(a, b)| a * b).sum();
        assert!((vku - ukv).abs() < 1e-9 * vku.abs().max(1.0));
    }

    #[test]
    fn stiffness_annihilates_constants() {
        let (g, b) = grid2(6);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn).map(|i| 1.0 + (i % 3) as f64).collect();
        let u = vec![4.2; nn];
        let mut ku = vec![0.0; nn];
        apply_stiffness(&g, &b, &nu, &u, &mut ku);
        assert!(ku.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn stiffness_psd() {
        let (g, b) = grid2(5);
        let nn = g.num_nodes();
        let nu = vec![1.5; nn];
        for seed in 0..5u64 {
            let u: Vec<f64> = (0..nn)
                .map(|i| (((i as u64 * 2654435761 + seed * 97) % 1000) as f64) / 500.0 - 1.0)
                .collect();
            let mut ku = vec![0.0; nn];
            apply_stiffness(&g, &b, &nu, &u, &mut ku);
            let quad: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum();
            assert!(quad >= -1e-12, "uᵀKu = {quad}");
        }
    }

    #[test]
    fn diag_matches_unit_vector_probe() {
        let (g, b) = grid2(4);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn).map(|i| 1.0 + 0.1 * (i as f64)).collect();
        let mut diag = vec![0.0; nn];
        stiffness_diag(&g, &b, &nu, &mut diag);
        for i in [0usize, 5, nn - 1] {
            let mut e = vec![0.0; nn];
            e[i] = 1.0;
            let mut ke = vec![0.0; nn];
            apply_stiffness(&g, &b, &nu, &e, &mut ke);
            assert!((diag[i] - ke[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn load_vector_integrates_constants() {
        // Σ_i F_i = ∫ f = f₀ for constant f over the unit square.
        let (g, b) = grid2(7);
        let f = vec![3.0; g.num_nodes()];
        let mut load = vec![0.0; g.num_nodes()];
        load_vector(&g, &b, &f, &mut load);
        let total: f64 = load.iter().sum();
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_grad_equals_ku_minus_f() {
        let (g, b) = grid2(5);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn).map(|i| 1.0 + ((i % 4) as f64) * 0.2).collect();
        let u: Vec<f64> = (0..nn).map(|i| (i as f64).sin()).collect();
        let f: Vec<f64> = (0..nn).map(|i| (i as f64).cos()).collect();
        let mut grad = vec![0.0; nn];
        energy_grad(&g, &b, &nu, &u, Some(&f), &mut grad);
        let mut ku = vec![0.0; nn];
        apply_stiffness(&g, &b, &nu, &u, &mut ku);
        let mut load = vec![0.0; nn];
        load_vector(&g, &b, &f, &mut load);
        for i in 0..nn {
            assert!((grad[i] - (ku[i] - load[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn energy_3d_linear_field() {
        let g: Grid<3> = Grid::cube(5);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = vec![1.0; nn];
        let u: Vec<f64> = (0..nn)
            .map(|i| {
                let c = g.node_coords(i);
                2.0 * c[0] - c[1] + 3.0 * c[2]
            })
            .collect();
        let j = energy(&g, &b, &nu, &u, None);
        assert!((j - 0.5 * (4.0 + 1.0 + 9.0)).abs() < 1e-12, "J = {j}");
    }

    #[test]
    fn gradient_matches_finite_differences_3d() {
        let g: Grid<3> = Grid::cube(4);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn).map(|i| 0.7 + ((i * 31 % 9) as f64) / 9.0).collect();
        let u: Vec<f64> = (0..nn).map(|i| ((i * 19 % 23) as f64) / 23.0).collect();
        let mut grad = vec![0.0; nn];
        energy_grad(&g, &b, &nu, &u, None, &mut grad);
        let eps = 1e-6;
        for i in (0..nn).step_by(7) {
            let mut up = u.clone();
            up[i] += eps;
            let mut um = u.clone();
            um[i] -= eps;
            let fd =
                (energy(&g, &b, &nu, &up, None) - energy(&g, &b, &nu, &um, None)) / (2.0 * eps);
            assert!((grad[i] - fd).abs() < 1e-7, "node {i}");
        }
    }
}
