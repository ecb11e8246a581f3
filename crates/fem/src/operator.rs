//! Matrix-free FEM operators: Ritz energy, its gradient, load vector.
//!
//! The Ritz energy (paper Eq. 14) for the generalized Poisson problem is
//!
//! ```text
//! J(u) = Σ_e Σ_q w·detJ [ ½ ν(x_q) |∇u(x_q)|² − f(x_q) u(x_q) ]
//! ```
//!
//! with ν and f interpolated multilinearly from nodal samples. Its exact
//! nodal gradient is `∇J = K(ν) u − F`, the backprop input for the network
//! loss. The matrix-free apply `K u` inside it is the crate's one stiffness
//! path: the solvers' assembled [`crate::stencil`] is built from its
//! element kernel. All loops are matrix-free and parallelized with the
//! element coloring of [`crate::color`]; a serial apply and the stiffness
//! diagonal exist only as test oracles beside them.
//!
//! **One element loop per kernel.** Energy, gradient, colored (and, in
//! tests, serial) stiffness apply and the diagonal are each written once,
//! generic over the coefficient evaluated at a quadrature point: the scalar
//! ν of the free functions here, or the symmetric tensor `T` of
//! [`crate::pde::PdeOperator::AnisoDiffusion`]. Every contribution is
//! `(w·scale)·(flux·∇φ)`: a scalar has `flux = ∇u` and `scale = ν_q`, a
//! tensor `flux = T∇u` and `scale = 1`, which keeps each operator's
//! floating-point operation order (and so its bits) fixed.
//!
//! **Coefficient validation** (length and positive definiteness) happens
//! at construction boundaries ([`crate::system::FemSystem`], the hierarchy
//! builders) as typed [`crate::error::FemError`]s; the kernels
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

/// Local nodes of a `D`-dimensional element, [`ElementBasis::nl`] as a
/// constant the element loops unroll by.
const fn local_nodes<const D: usize>() -> usize {
    1 << D
}

/// The nodal values of `src` on the element whose local node 0 is `base`.
#[inline(always)]
pub(crate) fn gather<const D: usize>(
    grid: &Grid<D>,
    strides: &[usize; D],
    base: usize,
    src: &[f64],
) -> [f64; MAX_NL] {
    let mut out = [0.0; MAX_NL];
    for l in 0..local_nodes::<D>() {
        out[l] = src[base + grid.local_offset(strides, l)];
    }
    out
}

/// A diffusion coefficient as the element kernels see it: nodal samples
/// gathered per element, interpolated at each quadrature point, and
/// applied to a gradient `g` as `scale · flux(g)`.
///
/// Implementations and the per-element helpers below are
/// `#[inline(always)]`: the element loops only unroll (and the scalar
/// instance only matches a hand-written scalar loop's speed) once they
/// are inlined into the sweep.
pub(crate) trait Coefficient<const D: usize>: Sync {
    /// One element's nodal samples.
    type Local;
    /// The coefficient at one quadrature point.
    type AtQ;
    /// Nodal components, the per-flux work relative to a scalar (the
    /// colored sweeps' parallel-gate hint).
    const NCOMP: usize;
    /// Gathers the samples of the element whose local node 0 is `base`.
    fn gather(&self, grid: &Grid<D>, strides: &[usize; D], base: usize) -> Self::Local;
    /// Interpolates at the quadrature point whose shape values are `vrow`.
    fn at_q(local: &Self::Local, vrow: &[f64]) -> Self::AtQ;
    /// The scalar factor of a contribution (exactly `1.0` for a tensor).
    fn scale(at: &Self::AtQ) -> f64;
    /// The flux the coefficient makes of the gradient `g`.
    fn flux(at: &Self::AtQ, g: &[f64; D]) -> [f64; D];
    /// Whether the coefficient at `node` is finite and positive definite.
    fn spd_at(&self, node: usize) -> bool;
}

/// Scalar nodal ν (the paper's operator).
pub(crate) struct Scalar<'a>(pub &'a [f64]);

impl<const D: usize> Coefficient<D> for Scalar<'_> {
    type Local = [f64; MAX_NL];
    type AtQ = f64;
    const NCOMP: usize = 1;

    #[inline(always)]
    fn gather(&self, grid: &Grid<D>, strides: &[usize; D], base: usize) -> [f64; MAX_NL] {
        gather(grid, strides, base, self.0)
    }

    #[inline(always)]
    fn at_q(nu_l: &[f64; MAX_NL], vrow: &[f64]) -> f64 {
        let mut nu_q = 0.0;
        for (v, nu) in vrow.iter().zip(nu_l) {
            nu_q += v * nu;
        }
        nu_q
    }

    #[inline(always)]
    fn scale(nu_q: &f64) -> f64 {
        *nu_q
    }

    #[inline(always)]
    fn flux(_: &f64, g: &[f64; D]) -> [f64; D] {
        *g
    }

    fn spd_at(&self, node: usize) -> bool {
        self.0[node].is_finite() && self.0[node] > 0.0
    }
}

/// `∂φ_l/∂x_c` at quadrature point `q`, for `c` in `0..D`.
#[inline(always)]
fn shape_grad<const D: usize>(basis: &ElementBasis<D>, q: usize, l: usize) -> &[f64] {
    let k = q * local_nodes::<D>() + l;
    &basis.grad[k * D..(k + 1) * D]
}

/// `∇u` at quadrature point `q` from the element's nodal values.
#[inline(always)]
fn grad_at_q<const D: usize>(basis: &ElementBasis<D>, q: usize, u_l: &[f64; MAX_NL]) -> [f64; D] {
    let mut gu = [0.0; D];
    for l in 0..local_nodes::<D>() {
        let grow = shape_grad(basis, q, l);
        for c in 0..D {
            gu[c] += grow[c] * u_l[l];
        }
    }
    gu
}

#[inline(always)]
fn dot<const D: usize>(a: &[f64; D], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for c in 0..D {
        s += a[c] * b[c];
    }
    s
}

/// Adds an element's local accumulator into `out`.
///
/// # Safety
/// No other thread may add to this element's nodes concurrently: the
/// caller runs inside one color of [`for_each_element_colored`], whose
/// elements have disjoint node supports.
#[inline(always)]
unsafe fn scatter<const D: usize>(
    out: &SyncSlice<f64>,
    grid: &Grid<D>,
    strides: &[usize; D],
    base: usize,
    acc: &[f64; MAX_NL],
) {
    for l in 0..local_nodes::<D>() {
        out.add(base + grid.local_offset(strides, l), acc[l]);
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
    energy_with(grid, basis, &Scalar(nu), u, f)
}

/// [`energy`] for any coefficient: `Σ_q w·detJ [½ ∇u·flux(∇u) − f u]`.
pub(crate) fn energy_with<const D: usize, C: Coefficient<D>>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    coeff: &C,
    u: &[f64],
    f: Option<&[f64]>,
) -> f64 {
    let nn = grid.num_nodes();
    debug_assert_eq!(u.len(), nn, "u length");
    if let Some(ff) = f {
        debug_assert_eq!(ff.len(), nn, "f length");
    }
    let strides = grid.strides();
    let nl = local_nodes::<D>();
    let ne = grid.num_elements();
    let kernel = |e: usize| -> f64 {
        let base = grid.element_base(grid.element_multi(e));
        let c_l = coeff.gather(grid, &strides, base);
        let u_l = gather(grid, &strides, base, u);
        let f_l = f.map_or([0.0; MAX_NL], |ff| gather(grid, &strides, base, ff));
        let mut j = 0.0;
        for q in 0..basis.nq {
            let vrow = &basis.val[q * nl..(q + 1) * nl];
            let c_q = C::at_q(&c_l, vrow);
            let gu = grad_at_q(basis, q, &u_l);
            let quad: f64 = C::flux(&c_q, &gu).iter().zip(&gu).map(|(a, b)| a * b).sum();
            j += basis.w_detj * 0.5 * C::scale(&c_q) * quad;
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
    // The hint is the same for every coefficient: it fixes the summation
    // blocks, and so the bits.
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
    let load = f.map(|f| {
        let mut load = vec![0.0; grid.num_nodes()];
        load_vector(grid, basis, f, &mut load);
        load
    });
    energy_grad_with(grid, basis, &Scalar(nu), u, f.zip(load.as_deref()), grad)
}

/// [`energy_grad`] for any coefficient, the forcing given as `(f, F)`: the
/// nodal field the energy integrates and its load vector
/// `F = load_vector(f)`, which a caller with a fixed forcing builds once.
pub(crate) fn energy_grad_with<const D: usize, C: Coefficient<D>>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    coeff: &C,
    u: &[f64],
    forcing: Option<(&[f64], &[f64])>,
    grad: &mut [f64],
) -> f64 {
    let nn = grid.num_nodes();
    debug_assert_eq!(grad.len(), nn, "grad length");
    grad.iter_mut().for_each(|g| *g = 0.0);
    let j = energy_with(grid, basis, coeff, u, forcing.map(|(f, _)| f));
    apply_stiffness_with(grid, basis, coeff, u, grad);
    if let Some((_, load)) = forcing {
        assert_eq!(load.len(), nn, "load vector length");
        for (g, &l) in grad.iter_mut().zip(load) {
            *g -= l;
        }
    }
    j
}

/// Element `K^e u_e`: hands `add(l, v)` one contribution `v` per
/// quadrature point and local node `l`. The colored sweep, the serial test
/// oracle and the stencil assembly's element probe share this math and
/// differ only in where `add` puts `v`.
#[inline(always)]
pub(crate) fn element_apply<const D: usize, C: Coefficient<D>>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    strides: &[usize; D],
    coeff: &C,
    u: &[f64],
    base: usize,
    mut add: impl FnMut(usize, f64),
) {
    let nl = local_nodes::<D>();
    let c_l = coeff.gather(grid, strides, base);
    let u_l = gather(grid, strides, base, u);
    for q in 0..basis.nq {
        let c_q = C::at_q(&c_l, &basis.val[q * nl..(q + 1) * nl]);
        let flux = C::flux(&c_q, &grad_at_q(basis, q, &u_l));
        let s = basis.w_detj * C::scale(&c_q);
        for l in 0..nl {
            add(l, s * dot(&flux, shape_grad(basis, q, l)));
        }
    }
}

/// Matrix-free stiffness application `out += K u` (element-colored), the
/// stiffness product of [`energy_grad`].
///
/// `out` is *accumulated into* (callers zero it when they need `K u` alone).
pub(crate) fn apply_stiffness_with<const D: usize, C: Coefficient<D>>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    coeff: &C,
    u: &[f64],
    out: &mut [f64],
) {
    let nn = grid.num_nodes();
    debug_assert_eq!(u.len(), nn);
    // Hard assert: `out` is written through unchecked raw-pointer adds.
    assert_eq!(out.len(), nn);
    let strides = grid.strides();
    let nl = local_nodes::<D>();
    let sync = SyncSlice::new(out);
    for_each_element_colored(grid, nl * basis.nq * D * C::NCOMP, |e| {
        let base = grid.element_base(grid.element_multi(e));
        let mut acc = [0.0; MAX_NL];
        element_apply(grid, basis, &strides, coeff, u, base, |l, v| acc[l] += v);
        // SAFETY: same-color elements have disjoint node supports.
        unsafe { scatter(&sync, grid, &strides, base, &acc) };
    });
}

/// Strictly sequential [`apply_stiffness_with`]: one element sweep in
/// natural order, no coloring; the oracle the colored sweep is tested
/// against.
#[cfg(test)]
pub(crate) fn apply_stiffness_serial_with<const D: usize, C: Coefficient<D>>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    coeff: &C,
    u: &[f64],
    out: &mut [f64],
) {
    let nn = grid.num_nodes();
    debug_assert_eq!(u.len(), nn);
    debug_assert_eq!(out.len(), nn);
    let strides = grid.strides();
    for e in 0..grid.num_elements() {
        let base = grid.element_base(grid.element_multi(e));
        element_apply(grid, basis, &strides, coeff, u, base, |l, v| {
            out[base + grid.local_offset(&strides, l)] += v
        });
    }
}

/// Diagonal of the stiffness matrix, `out += diag(K)`: the oracle the
/// assembled stencil's diagonal is tested against.
#[cfg(test)]
pub(crate) fn stiffness_diag_with<const D: usize, C: Coefficient<D>>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    coeff: &C,
    out: &mut [f64],
) {
    // Hard assert: `out` is written through unchecked raw-pointer adds.
    assert_eq!(out.len(), grid.num_nodes());
    let strides = grid.strides();
    let nl = local_nodes::<D>();
    let sync = SyncSlice::new(out);
    for_each_element_colored(grid, nl * basis.nq * D * C::NCOMP, |e| {
        let base = grid.element_base(grid.element_multi(e));
        let c_l = coeff.gather(grid, &strides, base);
        let mut acc = [0.0; MAX_NL];
        for q in 0..basis.nq {
            let c_q = C::at_q(&c_l, &basis.val[q * nl..(q + 1) * nl]);
            let s = basis.w_detj * C::scale(&c_q);
            for l in 0..nl {
                let mut grow = [0.0; D];
                grow.copy_from_slice(shape_grad(basis, q, l));
                acc[l] += s * dot(&C::flux(&c_q, &grow), &grow);
            }
        }
        // SAFETY: same-color elements have disjoint node supports.
        unsafe { scatter(&sync, grid, &strides, base, &acc) };
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
    let nl = local_nodes::<D>();
    let sync = SyncSlice::new(out);
    for_each_element_colored(grid, nl * basis.nq, |e| {
        let base = grid.element_base(grid.element_multi(e));
        let f_l = gather(grid, &strides, base, f);
        let mut acc = [0.0; MAX_NL];
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
        // SAFETY: same-color elements have disjoint node supports.
        unsafe { scatter(&sync, grid, &strides, base, &acc) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{field, spd_coeff};
    use crate::PdeOperator::{self, Poisson};
    use proptest::prelude::*;

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
        Poisson.apply_stiffness(&g, &b, &nu, &u, &mut ku);
        Poisson.apply_stiffness(&g, &b, &nu, &v, &mut kv);
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
        Poisson.apply_stiffness(&g, &b, &nu, &u, &mut ku);
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
            Poisson.apply_stiffness(&g, &b, &nu, &u, &mut ku);
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
        Poisson.stiffness_diag(&g, &b, &nu, &mut diag);
        for i in [0usize, 5, nn - 1] {
            let mut e = vec![0.0; nn];
            e[i] = 1.0;
            let mut ke = vec![0.0; nn];
            Poisson.apply_stiffness(&g, &b, &nu, &e, &mut ke);
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
        Poisson.apply_stiffness(&g, &b, &nu, &u, &mut ku);
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

    /// Colored and serial application of one operator on random SPD
    /// coefficients; they differ only in summation order.
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
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

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
    }
}
