//! Pluggable PDE operators over the matrix-free FEM substrate.
//!
//! [`PdeOperator`] names a variational operator and picks the coefficient
//! type that the element kernels of [`crate::operator`] run with: Ritz
//! energy and its exact nodal gradient (whose stiffness apply the
//! assembled [`crate::Stencil`] is probed from) are each one loop, generic
//! over the coefficient evaluated at a quadrature point. A coefficient block
//! stores `ncomp` nodal fields component-major (`coeff[c * nn + i]` is
//! component `c` at node `i`), so the single-component case is exactly the
//! scalar ν layout and [`PdeOperator::Poisson`] runs the same instance as
//! the free functions of [`crate::operator`] — bitwise identical by
//! construction.
//!
//! Shipped operators:
//!
//! | operator | weak form | ncomp (2D/3D) | coefficient |
//! |---|---|---|---|
//! | `Poisson` | `∫ ν ∇u·∇v` | 1 / 1 | scalar ν > 0 |
//! | `AnisoDiffusion` | `∫ ∇u·(T ∇v)` | 3 / 6 | symmetric SPD tensor T |
//!
//! Tensor components are ordered x-first, matching
//! [`crate::basis::ElementBasis::grad`]'s coordinate order: 2D
//! `[T_xx, T_yy, T_xy]`, 3D `[T_xx, T_yy, T_zz, T_xy, T_xz, T_yz]`
//! (diagonal first, then off-diagonals lexicographically; see
//! [`sym_index`]). Positive definiteness is validated per node at
//! construction via Sylvester's leading principal minors (for a scalar,
//! the 1×1 minor: ν > 0).
//!
//! Adding an operator: add an enum variant and a coefficient type — its
//! gather, quadrature-point interpolation, `scale`/`flux` pair and
//! per-node positive-definiteness check — then extend `ncomp`/`name`/
//! `fingerprint` and the variant's arm of `with_coeff!`. Every kernel and
//! every consumer — system, CG, hierarchy, mixed V-cycle, loss, serving —
//! picks it up.

use crate::basis::ElementBasis;
use crate::error::{check_len, FemError};
use crate::grid::Grid;
use crate::operator::{self, Coefficient, Scalar, MAX_NL};

/// Maximum symmetric-tensor components (6 for D = 3).
pub const MAX_NCOMP: usize = 6;

/// Index of component `(a, b)` of a symmetric D×D tensor in the
/// diagonal-first, x-first component order: `(a,a) → a`; off-diagonals
/// `(a,b), a<b` follow lexicographically (`2D: (0,1)→2`;
/// `3D: (0,1)→3, (0,2)→4, (1,2)→5`).
#[inline]
pub fn sym_index(d: usize, a: usize, b: usize) -> usize {
    if a == b {
        a
    } else {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        d + lo * d - lo * (lo + 1) / 2 + (hi - lo - 1)
    }
}

/// True when the symmetric tensor `t` (first `d*(d+1)/2` entries used) is
/// finite and strictly positive definite (Sylvester's criterion).
fn spd_ok(d: usize, t: &[f64]) -> bool {
    let nc = d * (d + 1) / 2;
    if t[..nc].iter().any(|v| !v.is_finite()) {
        return false;
    }
    match d {
        2 => t[0] > 0.0 && t[0] * t[1] - t[2] * t[2] > 0.0,
        3 => {
            let (xx, yy, zz, xy, xz, yz) = (t[0], t[1], t[2], t[3], t[4], t[5]);
            xx > 0.0
                && xx * yy - xy * xy > 0.0
                && xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) + xz * (xy * yz - yy * xz)
                    > 0.0
        }
        _ => false,
    }
}

/// A symmetric tensor per node, component-major over `nn` nodes in
/// [`sym_index`] order.
struct SymTensor<'a> {
    t: &'a [f64],
    nn: usize,
}

impl<const D: usize> Coefficient<D> for SymTensor<'_> {
    type Local = [[f64; MAX_NL]; MAX_NCOMP];
    type AtQ = [f64; MAX_NCOMP];
    const NCOMP: usize = D * (D + 1) / 2;

    #[inline(always)]
    fn gather(&self, grid: &Grid<D>, strides: &[usize; D], base: usize) -> Self::Local {
        let mut t_l = [[0.0; MAX_NL]; MAX_NCOMP];
        for c in 0..<Self as Coefficient<D>>::NCOMP {
            t_l[c] = operator::gather(grid, strides, base, &self.t[c * self.nn..]);
        }
        t_l
    }

    #[inline(always)]
    fn at_q(t_l: &Self::Local, vrow: &[f64]) -> Self::AtQ {
        let mut t_q = [0.0; MAX_NCOMP];
        for c in 0..<Self as Coefficient<D>>::NCOMP {
            t_q[c] = <Scalar as Coefficient<D>>::at_q(&t_l[c], vrow);
        }
        t_q
    }

    #[inline(always)]
    fn scale(_: &Self::AtQ) -> f64 {
        1.0
    }

    /// `T g`.
    #[inline(always)]
    fn flux(t: &Self::AtQ, g: &[f64; D]) -> [f64; D] {
        let mut out = [0.0; D];
        for a in 0..D {
            let mut acc = 0.0;
            for b in 0..D {
                acc += t[sym_index(D, a, b)] * g[b];
            }
            out[a] = acc;
        }
        out
    }

    fn spd_at(&self, node: usize) -> bool {
        let mut t = [0.0; MAX_NCOMP];
        for c in 0..<Self as Coefficient<D>>::NCOMP {
            t[c] = self.t[c * self.nn + node];
        }
        spd_ok(D, &t)
    }
}

/// Runs `$body` with `$c` bound to `$op`'s coefficient type over the
/// block `$coeff` on `$grid`.
macro_rules! with_coeff {
    ($op:expr, $grid:expr, $coeff:expr, $c:ident => $body:expr) => {
        match $op {
            PdeOperator::Poisson => {
                let $c = Scalar($coeff);
                $body
            }
            PdeOperator::AnisoDiffusion => {
                let $c = SymTensor {
                    t: $coeff,
                    nn: $grid.num_nodes(),
                };
                $body
            }
        }
    };
}

/// A variational PDE operator served by the engine.
///
/// See the [module docs](self) for the coefficient-block layout and the
/// recipe for adding an operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PdeOperator {
    /// Isotropic scalar-coefficient diffusion `−∇·(ν∇u)` — the paper's
    /// operator. One coefficient component; runs the scalar instance of
    /// the kernels, the same one the free functions of
    /// [`crate::operator`] run.
    #[default]
    Poisson,
    /// Anisotropic tensor-coefficient diffusion `−∇·(T∇u)` with a
    /// symmetric SPD tensor per node (`d(d+1)/2` components).
    AnisoDiffusion,
}

impl PdeOperator {
    /// Coefficient components per node in `d` spatial dimensions.
    pub fn ncomp(&self, d: usize) -> usize {
        match self {
            PdeOperator::Poisson => 1,
            PdeOperator::AnisoDiffusion => d * (d + 1) / 2,
        }
    }

    /// Human-readable operator name (reports, benches).
    pub fn name(&self) -> &'static str {
        match self {
            PdeOperator::Poisson => "poisson",
            PdeOperator::AnisoDiffusion => "aniso_diffusion",
        }
    }

    /// Stable per-operator code folded into cache keys so identical
    /// coefficient bytes under different physics can never alias.
    pub fn fingerprint(&self) -> u64 {
        match self {
            PdeOperator::Poisson => 0x506f_6973_736f_6e00,
            PdeOperator::AnisoDiffusion => 0x416e_6973_6f44_6966,
        }
    }

    /// Expected coefficient-block length on `grid`.
    pub fn coeff_len<const D: usize>(&self, grid: &Grid<D>) -> usize {
        self.ncomp(D) * grid.num_nodes()
    }

    /// Validates a coefficient block: its length, then per node that the
    /// coefficient is finite and positive definite (strict Sylvester
    /// minors; a scalar must be > 0). The first failing node is
    /// [`FemError::NotSpd`].
    pub fn validate_coeff<const D: usize>(
        &self,
        grid: &Grid<D>,
        coeff: &[f64],
    ) -> Result<(), FemError> {
        check_len("nu", self.coeff_len(grid), coeff.len())?;
        let bad = with_coeff!(self, grid, coeff, c => {
            (0..grid.num_nodes()).find(|&i| !Coefficient::<D>::spd_at(&c, i))
        });
        match bad {
            Some(node) => Err(FemError::NotSpd { node }),
            None => Ok(()),
        }
    }

    /// Ritz energy `J(u) = Σ_q w·detJ [½ ∇u·(T∇u) − f u]`.
    pub fn energy<const D: usize>(
        &self,
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        coeff: &[f64],
        u: &[f64],
        f: Option<&[f64]>,
    ) -> f64 {
        with_coeff!(self, grid, coeff, c => operator::energy_with(grid, basis, &c, u, f))
    }

    /// `J(u)` plus its exact nodal gradient `K(T)u − F` into `grad`
    /// (zeroed first). Returns `J`. The forcing comes as `(f, F)`: the
    /// nodal field and its load vector `F = load_vector(f)`, built once by
    /// a caller whose forcing is fixed (a loss).
    pub fn energy_grad<const D: usize>(
        &self,
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        coeff: &[f64],
        u: &[f64],
        forcing: Option<(&[f64], &[f64])>,
        grad: &mut [f64],
    ) -> f64 {
        with_coeff!(self, grid, coeff, c => {
            operator::energy_grad_with(grid, basis, &c, u, forcing, grad)
        })
    }

    /// `out += K^e u` on the one element of `grid`, a grid of 2 nodes per
    /// axis (node index = local index): the element kernel of the colored
    /// apply, called directly. [`crate::Stencil::assemble`] probes the
    /// element matrices with it.
    pub(crate) fn element_apply<const D: usize>(
        &self,
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        coeff: &[f64],
        u: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(grid.n, [2; D], "one element");
        let strides = grid.strides();
        with_coeff!(self, grid, coeff, c => {
            operator::element_apply(grid, basis, &strides, &c, u, 0, |l, v| out[l] += v)
        })
    }
}

/// The matrix-free stiffness kernels as test oracles, dispatched like the
/// loss path.
#[cfg(test)]
impl PdeOperator {
    /// Matrix-free stiffness application `out += K u` (element-colored).
    pub(crate) fn apply_stiffness<const D: usize>(
        &self,
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        coeff: &[f64],
        u: &[f64],
        out: &mut [f64],
    ) {
        with_coeff!(self, grid, coeff, c => {
            operator::apply_stiffness_with(grid, basis, &c, u, out)
        })
    }

    /// Strictly sequential stiffness application (the reference for the
    /// colored parallel sweep).
    pub(crate) fn apply_stiffness_serial<const D: usize>(
        &self,
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        coeff: &[f64],
        u: &[f64],
        out: &mut [f64],
    ) {
        with_coeff!(self, grid, coeff, c => {
            operator::apply_stiffness_serial_with(grid, basis, &c, u, out)
        })
    }

    /// Stiffness diagonal `out += diag(K)`.
    pub(crate) fn stiffness_diag<const D: usize>(
        &self,
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        coeff: &[f64],
        out: &mut [f64],
    ) {
        with_coeff!(self, grid, coeff, c => operator::stiffness_diag_with(grid, basis, &c, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The load vector of nodal forcing `f`.
    fn load<const D: usize>(g: &Grid<D>, b: &ElementBasis<D>, f: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; g.num_nodes()];
        operator::load_vector(g, b, f, &mut out);
        out
    }

    fn grid2(m: usize) -> (Grid<2>, ElementBasis<2>) {
        let g = Grid::cube(m);
        let b = ElementBasis::new(&g);
        (g, b)
    }

    /// Component-major SPD tensor field: rotated diag(s, s/ratio).
    fn tensor_field_2d(g: &Grid<2>, ratio: f64, theta: f64) -> Vec<f64> {
        let nn = g.num_nodes();
        let mut t = vec![0.0; 3 * nn];
        let (sn, cs) = theta.sin_cos();
        for i in 0..nn {
            let c = g.node_coords(i);
            let s = 1.0 + 0.5 * (3.0 * c[0]).sin() * (2.0 * c[1]).cos() + 0.6;
            let a = s;
            let b = s / ratio;
            t[i] = a * cs * cs + b * sn * sn;
            t[nn + i] = a * sn * sn + b * cs * cs;
            t[2 * nn + i] = (a - b) * cs * sn;
        }
        t
    }

    #[test]
    fn sym_index_layout() {
        assert_eq!(sym_index(2, 0, 0), 0);
        assert_eq!(sym_index(2, 1, 1), 1);
        assert_eq!(sym_index(2, 0, 1), 2);
        assert_eq!(sym_index(2, 1, 0), 2);
        assert_eq!(sym_index(3, 0, 0), 0);
        assert_eq!(sym_index(3, 2, 2), 2);
        assert_eq!(sym_index(3, 0, 1), 3);
        assert_eq!(sym_index(3, 0, 2), 4);
        assert_eq!(sym_index(3, 1, 2), 5);
        assert_eq!(sym_index(3, 2, 1), 5);
    }

    #[test]
    fn poisson_dispatch_is_bitwise_identical_to_free_kernels() {
        let (g, b) = grid2(7);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn)
            .map(|i| 0.5 + ((i * 37 % 11) as f64) / 11.0)
            .collect();
        let u: Vec<f64> = (0..nn)
            .map(|i| ((i * 17 % 13) as f64) / 13.0 - 0.5)
            .collect();
        let f: Vec<f64> = (0..nn).map(|i| ((i * 29 % 7) as f64) / 7.0).collect();
        let op = PdeOperator::Poisson;

        assert_eq!(
            op.energy(&g, &b, &nu, &u, Some(&f)).to_bits(),
            operator::energy(&g, &b, &nu, &u, Some(&f)).to_bits()
        );
        let mut ga = vec![0.0; nn];
        let mut gb = vec![0.0; nn];
        op.energy_grad(&g, &b, &nu, &u, Some((&f, &load(&g, &b, &f))), &mut ga);
        operator::energy_grad(&g, &b, &nu, &u, Some(&f), &mut gb);
        assert!(ga.iter().zip(&gb).all(|(x, y)| x.to_bits() == y.to_bits()));
        let mut ka = vec![0.0; nn];
        let mut kb = vec![0.0; nn];
        op.apply_stiffness_serial(&g, &b, &nu, &u, &mut ka);
        operator::apply_stiffness_serial_with(&g, &b, &Scalar(&nu), &u, &mut kb);
        assert!(ka.iter().zip(&kb).all(|(x, y)| x.to_bits() == y.to_bits()));
        let mut da = vec![0.0; nn];
        let mut db = vec![0.0; nn];
        op.stiffness_diag(&g, &b, &nu, &mut da);
        operator::stiffness_diag_with(&g, &b, &Scalar(&nu), &mut db);
        assert!(da.iter().zip(&db).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn aniso_gradient_matches_finite_differences() {
        let (g, b) = grid2(5);
        let nn = g.num_nodes();
        let t = tensor_field_2d(&g, 4.0, 0.6);
        let u: Vec<f64> = (0..nn).map(|i| ((i * 19 % 23) as f64) / 23.0).collect();
        let f: Vec<f64> = (0..nn).map(|i| ((i * 29 % 7) as f64) / 7.0).collect();
        let op = PdeOperator::AnisoDiffusion;
        let mut grad = vec![0.0; nn];
        op.energy_grad(&g, &b, &t, &u, Some((&f, &load(&g, &b, &f))), &mut grad);
        let eps = 1e-6;
        for i in (0..nn).step_by(3) {
            let mut up = u.clone();
            up[i] += eps;
            let mut um = u.clone();
            um[i] -= eps;
            let fd = (op.energy(&g, &b, &t, &up, Some(&f)) - op.energy(&g, &b, &t, &um, Some(&f)))
                / (2.0 * eps);
            assert!((grad[i] - fd).abs() < 1e-7, "node {i}: {} vs {fd}", grad[i]);
        }
    }

    #[test]
    fn aniso_stiffness_symmetric_and_psd() {
        let (g, b) = grid2(5);
        let nn = g.num_nodes();
        let t = tensor_field_2d(&g, 10.0, 1.1);
        let op = PdeOperator::AnisoDiffusion;
        let u: Vec<f64> = (0..nn).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let v: Vec<f64> = (0..nn).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let mut ku = vec![0.0; nn];
        let mut kv = vec![0.0; nn];
        op.apply_stiffness(&g, &b, &t, &u, &mut ku);
        op.apply_stiffness(&g, &b, &t, &v, &mut kv);
        let vku: f64 = v.iter().zip(&ku).map(|(a, b)| a * b).sum();
        let ukv: f64 = u.iter().zip(&kv).map(|(a, b)| a * b).sum();
        assert!((vku - ukv).abs() < 1e-9 * vku.abs().max(1.0));
        let uku: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum();
        assert!(uku >= -1e-12, "uᵀKu = {uku}");
    }

    #[test]
    fn aniso_with_identity_tensor_matches_scalar_poisson() {
        // T = ν·I must reproduce the scalar operator. The kernels associate
        // their float ops differently (tensor matvec vs scalar scale), so
        // equality is to rounding, not bitwise; the Poisson *dispatch* path
        // is the bitwise-identity guarantee.
        let (g, b) = grid2(6);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn).map(|i| 0.4 + ((i * 31 % 9) as f64) / 9.0).collect();
        let mut t = vec![0.0; 3 * nn];
        t[..nn].copy_from_slice(&nu);
        t[nn..2 * nn].copy_from_slice(&nu);
        let u: Vec<f64> = (0..nn).map(|i| ((i * 17 % 13) as f64) / 13.0).collect();
        let e_iso = PdeOperator::Poisson.energy(&g, &b, &nu, &u, None);
        let e_tens = PdeOperator::AnisoDiffusion.energy(&g, &b, &t, &u, None);
        assert!((e_iso - e_tens).abs() < 1e-13 * (1.0 + e_iso.abs()));
        let mut k_iso = vec![0.0; nn];
        let mut k_tens = vec![0.0; nn];
        PdeOperator::Poisson.apply_stiffness(&g, &b, &nu, &u, &mut k_iso);
        PdeOperator::AnisoDiffusion.apply_stiffness(&g, &b, &t, &u, &mut k_tens);
        for i in 0..nn {
            assert!((k_iso[i] - k_tens[i]).abs() < 1e-12, "node {i}");
        }
    }

    #[test]
    fn aniso_diag_matches_unit_vector_probe() {
        let (g, b) = grid2(4);
        let nn = g.num_nodes();
        let t = tensor_field_2d(&g, 3.0, 0.3);
        let op = PdeOperator::AnisoDiffusion;
        let mut diag = vec![0.0; nn];
        op.stiffness_diag(&g, &b, &t, &mut diag);
        for i in [0usize, 5, nn - 1] {
            let mut e = vec![0.0; nn];
            e[i] = 1.0;
            let mut ke = vec![0.0; nn];
            op.apply_stiffness(&g, &b, &t, &e, &mut ke);
            assert!((diag[i] - ke[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn validate_rejects_bad_coefficients() {
        let (g, _) = grid2(4);
        let nn = g.num_nodes();
        let op = PdeOperator::AnisoDiffusion;
        // Wrong length (label stays "nu" — the coefficient block generalizes ν).
        assert!(matches!(
            op.validate_coeff(&g, &vec![1.0; nn]),
            Err(FemError::SizeMismatch { what: "nu", .. })
        ));
        // Indefinite tensor: off-diagonal dominates.
        let mut t = vec![0.0; 3 * nn];
        t[..nn].iter_mut().for_each(|v| *v = 1.0);
        t[nn..2 * nn].iter_mut().for_each(|v| *v = 1.0);
        t[2 * nn..].iter_mut().for_each(|v| *v = 2.0);
        assert!(matches!(
            op.validate_coeff(&g, &t),
            Err(FemError::NotSpd { node: 0 })
        ));
        // NaN is rejected.
        let mut ok = tensor_field_2d(&g, 2.0, 0.2);
        ok[nn + 3] = f64::NAN;
        assert!(matches!(
            op.validate_coeff(&g, &ok),
            Err(FemError::NotSpd { node: 3 })
        ));
        // A valid field passes.
        assert!(op
            .validate_coeff(&g, &tensor_field_2d(&g, 2.0, 0.2))
            .is_ok());
        // A scalar ν is its own 1×1 Sylvester minor: finite and > 0.
        let poisson = PdeOperator::Poisson;
        assert!(poisson.validate_coeff(&g, &vec![1.0; nn]).is_ok());
        assert!(matches!(
            poisson.validate_coeff(&g, &vec![1.0; 3 * nn]),
            Err(FemError::SizeMismatch { what: "nu", .. })
        ));
        for (node, bad) in [
            (0, -1.0),
            (4, 0.0),
            (7, -0.0),
            (2, f64::NAN),
            (9, f64::INFINITY),
        ] {
            let mut nu = vec![1.0; nn];
            nu[node] = bad;
            assert!(
                matches!(
                    poisson.validate_coeff(&g, &nu),
                    Err(FemError::NotSpd { node: n }) if n == node
                ),
                "ν = {bad} at node {node}"
            );
        }
    }

    #[test]
    fn aniso_3d_gradcheck() {
        let g: Grid<3> = Grid::cube(4);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let mut t = vec![0.0; 6 * nn];
        let (sn, cs) = 0.7f64.sin_cos();
        for i in 0..nn {
            let c = g.node_coords(i);
            let s = 1.0 + 0.4 * (2.0 * c[0] + c[2]).sin() + 0.5;
            let a = s;
            let bb = s / 5.0;
            t[i] = a * cs * cs + bb * sn * sn;
            t[nn + i] = a * sn * sn + bb * cs * cs;
            t[2 * nn + i] = s;
            t[3 * nn + i] = (a - bb) * cs * sn;
        }
        let op = PdeOperator::AnisoDiffusion;
        op.validate_coeff(&g, &t).unwrap();
        let u: Vec<f64> = (0..nn).map(|i| ((i * 19 % 23) as f64) / 23.0).collect();
        let mut grad = vec![0.0; nn];
        op.energy_grad(&g, &b, &t, &u, None, &mut grad);
        let eps = 1e-6;
        for i in (0..nn).step_by(7) {
            let mut up = u.clone();
            up[i] += eps;
            let mut um = u.clone();
            um[i] -= eps;
            let fd =
                (op.energy(&g, &b, &t, &up, None) - op.energy(&g, &b, &t, &um, None)) / (2.0 * eps);
            assert!((grad[i] - fd).abs() < 1e-7, "node {i}");
        }
    }
}
