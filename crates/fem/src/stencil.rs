//! The FEM operator in assembled-stencil form.
//!
//! On a uniform grid with nodal coefficients, `K(ν)` couples each node only
//! to its `3^D` neighbours, so the whole operator is a fixed-shape,
//! variable-coefficient stencil: 27 points in 3D, 9 in 2D. [`Stencil`]
//! assembles it once from element matrices read off the matrix-free
//! element kernel of [`crate::operator`], so every [`PdeOperator`] shares
//! one assembly and the stencil equals the loss path's stiffness apply
//! (and the test-only diagonal oracle) up to summation order.
//!
//! `K` is symmetric, so only the centre and the forward half of the planes
//! are stored, plane-major: `w[s·nn + i]` couples node `i` to its neighbour
//! `k = 3^D/2 + s` (`k = (dx+1) + 3(dy+1) + 9(dz+1)`), 14 planes = 112 B
//! per node in 3D at `f64`, half that at `f32`. A backward neighbour's
//! weight is the forward weight stored at that neighbour, which makes the
//! operator exactly symmetric. Weights of neighbours outside the grid are
//! zero, so a plane's contribution to a run of nodes is one flat,
//! vectorizable multiply-add at offset `dz·ny·nx + dy·nx + dx`.
//!
//! Sweeps (`apply`, residuals, the fused damped-Jacobi step, the residual
//! norm) split the rows into at most 64 fixed blocks of at least one
//! segment each, run with [`par_chunks`] on the worker pool from 16³ nodes
//! up; each output value is produced by one job in a fixed order, so
//! results are bitwise independent of the thread count.

use crate::basis::ElementBasis;
use crate::grid::Grid;
use crate::pde::PdeOperator;
use mgd_tensor::par::par_chunks;
use mgd_tensor::{Element, F64_DIV_GUARD, PAR_THRESHOLD};

/// Upper bound on row blocks per sweep (the residual norm keeps one
/// partial sum per block on the stack).
const MAX_BLOCKS: usize = 64;
/// Length of the stack accumulator a block is swept in.
const SEG: usize = 256;
/// Sweeps over fewer nodes stay on the calling thread. Measured on a
/// 2-core x86-64 VM against the persistent worker pool, with every size
/// forked: an apply runs in 0.52–0.57× its one-core time at 16³ and 32³,
/// 0.73–0.84× at 12³ and 0.89–0.96× at 8³. Those are back-to-back calls
/// that find the helper awake; a sweep after serial coarse-level work may
/// find it parked, so the gate sits where forking clearly pays.
const PAR_MIN_NODES: usize = 1 << 12;

/// Work hint for [`par_chunks`] over a pass touching `nodes` nodes:
/// parallel from [`PAR_MIN_NODES`] up.
fn node_work(nodes: usize) -> usize {
    if nodes >= PAR_MIN_NODES {
        PAR_THRESHOLD
    } else {
        0
    }
}

/// Rows per block when `rows` rows of `row_len` entries are cut into at
/// most [`MAX_BLOCKS`] blocks of at least one [`SEG`] of entries each (so
/// a coarse grid's sweep is not dominated by per-block set-up).
fn block_rows(rows: usize, row_len: usize) -> usize {
    rows.div_ceil(MAX_BLOCKS).max(SEG.div_ceil(row_len))
}

/// Runs `f(r0, rows)` over `out` read as `row_len`-long rows, cut into
/// fixed blocks of whole rows ([`block_rows`]; `r0` is a block's first
/// row); one job per block, in parallel from [`PAR_MIN_NODES`] entries up.
/// Block bounds depend only on the shape, so each entry is written by the
/// same code in the same order at any worker count.
pub(crate) fn par_row_blocks<T: Send>(
    out: &mut [T],
    row_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let bl = block_rows(out.len() / row_len, row_len);
    par_chunks(out, bl * row_len, node_work(out.len()), |b, rows| {
        f(b * bl, rows)
    });
}

/// `(dz, dy, dx)` of stencil plane `k` (`dz = 0` in 2D).
#[inline]
fn offset<const D: usize>(k: usize) -> (isize, isize, isize) {
    let dz = if D == 3 { (k / 9) as isize - 1 } else { 0 };
    (dz, (k / 3 % 3) as isize - 1, (k % 3) as isize - 1)
}

/// A `3^D`-point stencil with its masked inverse diagonal, in element
/// precision `E`.
pub struct Stencil<E, const D: usize> {
    /// Nodes per axis, `[nz, ny, nx]` (`nz = 1` in 2D).
    dims: [usize; 3],
    /// Centre and forward planes, `(3^D / 2 + 1) · nn` entries.
    w: Vec<E>,
    /// Masked inverse diagonal (zero at fixed nodes).
    diag_inv: Vec<E>,
}

impl<const D: usize> Stencil<f64, D> {
    /// Assembles `K(coeff)` on `grid` for `op`; `fixed` is the Dirichlet
    /// mask (it only zeroes the inverse diagonal).
    pub fn assemble(
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        op: PdeOperator,
        coeff: &[f64],
        fixed: &[bool],
    ) -> Self {
        let nn = grid.num_nodes();
        assert_eq!(coeff.len(), op.coeff_len(grid), "coefficient block length");
        assert_eq!(fixed.len(), nn, "mask length");
        let [nz, ny, nx] = if D == 3 {
            [grid.n[0], grid.n[1], grid.n[2]]
        } else {
            [1, grid.n[0], grid.n[1]]
        };
        let (nl, nc, nk) = (basis.nl, op.ncomp(D), 3usize.pow(D as u32));
        // `t[((c·nl + l)·nl + a)·nl + b]`: the part of `K^e_ab` that is linear
        // in coefficient component `c` at local node `l`, probed from the
        // element kernel on a one-element grid (node index = local index).
        let one = Grid::<D>::new([2; D]);
        let unit =
            |i: usize, n: usize| -> Vec<f64> { (0..n).map(|j| u8::from(i == j).into()).collect() };
        let mut t = vec![0.0; nc * nl * nl * nl];
        for (cl, col) in t.chunks_mut(nl * nl).enumerate() {
            for b in 0..nl {
                let mut kb = vec![0.0; nl];
                op.element_apply(&one, basis, &unit(cl, nc * nl), &unit(b, nl), &mut kb);
                for a in 0..nl {
                    col[a * nl + b] = kb[a];
                }
            }
        }
        // Element `e` is named by its origin (local node 0); local node `l`
        // sits `off(l)` further on, so elements end at `nn − off(nl − 1)`.
        // Nodes on a far face are no origin.
        let off = |l: usize| (l & 1) + (l >> 1 & 1) * nx + (l >> 2) * nx * ny;
        let origin: Vec<bool> = (0..nz)
            .flat_map(|z| (0..ny).flat_map(move |y| (0..nx).map(move |x| (x, y, z))))
            .map(|(x, y, z)| x + 1 < nx && y + 1 < ny && (D == 2 || z + 1 < nz))
            .collect();
        // Local nodes `a`, `b` of an element couple node e + off(a) to
        // e + off(b): plane `k(a, b)`, one job per stored plane.
        let plane = |a: usize, b: usize| -> usize {
            (0..D)
                .map(|c| ((b >> c & 1) + 1 - (a >> c & 1)) * 3usize.pow(c as u32))
                .sum()
        };
        let end = nn - off(nl - 1);
        let mut w = vec![0.0; (nk / 2 + 1) * nn];
        par_chunks(&mut w, nn, nn * nl * nc, |s, wk| {
            let k = nk / 2 + s;
            let mut acc = [0.0; SEG];
            for e0 in (0..end).step_by(SEG) {
                let acc = &mut acc[..SEG.min(end - e0)];
                for (a, b) in (0..nl * nl).map(|p| (p / nl, p % nl)) {
                    if plane(a, b) != k {
                        continue;
                    }
                    // K^e_ab of the segment's elements, in L1.
                    acc.fill(0.0);
                    for c in 0..nc {
                        for l in 0..nl {
                            let m = t[((c * nl + l) * nl + a) * nl + b];
                            let src = &coeff[c * nn + e0 + off(l)..];
                            for (x, &s) in acc.iter_mut().zip(src) {
                                *x += m * s;
                            }
                        }
                    }
                    let dst = &mut wk[e0 + off(a)..];
                    for ((d, &v), &ok) in dst.iter_mut().zip(acc.iter()).zip(&origin[e0..]) {
                        if ok {
                            *d += v;
                        }
                    }
                }
            }
        });
        let diag_inv = w[..nn]
            .iter()
            .zip(fixed)
            .map(|(&d, &fx)| {
                if fx || d.abs() < F64_DIV_GUARD {
                    0.0
                } else {
                    1.0 / d
                }
            })
            .collect();
        Stencil {
            dims: [nz, ny, nx],
            w,
            diag_inv,
        }
    }
}

impl<E: Element, const D: usize> Stencil<E, D> {
    /// The same stencil rounded to element type `F` once.
    pub fn demote<F: Element>(&self) -> Stencil<F, D> {
        let cast = |v: &[E]| v.iter().map(|&x| F::from_f64(x.to_f64())).collect();
        Stencil {
            dims: self.dims,
            w: cast(&self.w),
            diag_inv: cast(&self.diag_inv),
        }
    }

    /// Nodes in the grid.
    pub fn num_nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Diagonal of `K` (the centre plane, fixed rows included).
    pub fn diag(&self) -> &[E] {
        &self.w[..self.num_nodes()]
    }

    /// Masked inverse diagonal (zero at fixed nodes).
    pub fn diag_inv(&self) -> &[E] {
        &self.diag_inv
    }

    /// `out = K u` (rows of fixed nodes included).
    pub fn apply(&self, u: &[E], out: &mut [E]) {
        self.sweep(u, out, |_, acc, o| o.copy_from_slice(acc));
    }

    /// `r = mask(b − K u)`.
    pub fn residual_into(&self, u: &[E], b: &[E], fixed: &[bool], r: &mut [E]) {
        self.sweep(u, r, |i, acc, o| {
            let (b, fixed) = (&b[i..][..acc.len()], &fixed[i..][..acc.len()]);
            for ((o, &a), (&bi, &fx)) in o.iter_mut().zip(acc).zip(b.iter().zip(fixed)) {
                *o = if fx { E::ZERO } else { bi - a };
            }
        });
    }

    /// `‖mask(b − K u)‖₂` in one pass, without storing the residual
    /// (accumulated in `f64`, per block, blocks summed in order).
    pub fn residual_norm(&self, u: &[E], b: &[E], fixed: &[bool]) -> f64 {
        assert_eq!(u.len(), self.num_nodes());
        let mut part = [0.0f64; MAX_BLOCKS];
        let nb = self.num_blocks();
        par_chunks(&mut part[..nb], 1, node_work(self.num_nodes()), |blk, p| {
            let mut s = 0.0;
            self.block_product(u, blk, |i, acc| {
                let (b, fixed) = (&b[i..][..acc.len()], &fixed[i..][..acc.len()]);
                for (&a, (&bi, &fx)) in acc.iter().zip(b.iter().zip(fixed)) {
                    if !fx {
                        let r = (bi - a).to_f64();
                        s += r * r;
                    }
                }
            });
            p[0] = s;
        });
        part[..nb].iter().sum::<f64>().sqrt()
    }

    /// `sweeps` damped-Jacobi sweeps on `K u = b` with relaxation `omega`,
    /// in place; `tmp` (one node vector) holds every other iterate.
    pub fn smooth(&self, u: &mut [E], b: &[E], omega: E, sweeps: usize, tmp: &mut [E]) {
        for s in 0..sweeps {
            if s % 2 == 0 {
                self.jacobi_into(u, b, omega, tmp);
            } else {
                self.jacobi_into(tmp, b, omega, u);
            }
        }
        if sweeps % 2 == 1 {
            u.copy_from_slice(tmp);
        }
    }

    /// One fused damped-Jacobi sweep `out = x + ω D⁻¹ (b − K x)`.
    fn jacobi_into(&self, x: &[E], b: &[E], omega: E, out: &mut [E]) {
        let dinv = &self.diag_inv;
        self.sweep(x, out, |i, acc, o| {
            let n = acc.len();
            let rest = x[i..][..n].iter().zip(&dinv[i..][..n]).zip(&b[i..][..n]);
            for ((o, &a), ((&xi, &di), &bi)) in o.iter_mut().zip(acc).zip(rest) {
                *o = xi + omega * di * (bi - a);
            }
        });
    }

    fn block_rows(&self) -> usize {
        block_rows(self.dims[0] * self.dims[1], self.dims[2])
    }

    fn num_blocks(&self) -> usize {
        (self.dims[0] * self.dims[1]).div_ceil(self.block_rows())
    }

    /// Runs `f(i, acc, out[i..i + acc.len()])` over every segment, where
    /// `acc = (K u)[i..i + acc.len()]`.
    fn sweep(&self, u: &[E], out: &mut [E], f: impl Fn(usize, &[E], &mut [E]) + Sync) {
        assert_eq!(u.len(), self.num_nodes());
        assert_eq!(out.len(), self.num_nodes());
        let (bl, nx) = (self.block_rows(), self.dims[2]);
        par_row_blocks(out, nx, |r0, o| {
            self.block_product(u, r0 / bl, |i, acc| {
                f(i, acc, &mut o[i - r0 * nx..][..acc.len()]);
            });
        });
    }

    /// Calls `g(i, (K u)[i..i + len])` for consecutive segments of block
    /// `blk`. Each plane is one flat multiply-add over the segment: where
    /// a neighbour offset wraps into another row or plane its weight is
    /// zero, so only the ends of the array need clamping (a non-finite
    /// `u` can therefore also reach the wrapped rows' outputs).
    fn block_product(&self, u: &[E], blk: usize, mut g: impl FnMut(usize, &[E])) {
        let [_, ny, nx] = self.dims;
        let (nn, nk) = (self.num_nodes(), 3usize.pow(D as u32));
        let bn = self.block_rows() * nx;
        let end = ((blk + 1) * bn).min(nn);
        let mut acc = [E::ZERO; SEG];
        for i0 in (blk * bn..end).step_by(SEG) {
            let i1 = (i0 + SEG).min(end);
            let acc = &mut acc[..i1 - i0];
            acc.fill(E::ZERO);
            for k in 0..nk {
                let (dz, dy, dx) = offset::<D>(k);
                let off = (dz * ny as isize + dy) * nx as isize + dx;
                let lo = i0.max(off.min(0).unsigned_abs());
                let hi = i1.min(nn.saturating_sub(off.max(0) as usize));
                if lo >= hi {
                    continue;
                }
                // Backward: the neighbour's weight for its mirror offset.
                let (s, shift) = if k >= nk / 2 {
                    (k - nk / 2, 0)
                } else {
                    (nk / 2 - k, off)
                };
                let w = &self.w[s * nn + lo.wrapping_add_signed(shift)..][..hi - lo];
                let un = &u[lo.wrapping_add_signed(off)..][..hi - lo];
                for ((a, &wv), &uv) in acc[lo - i0..].iter_mut().zip(w).zip(un) {
                    *a += wv * uv;
                }
            }
            g(i0, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::spd_coeff;
    use proptest::prelude::*;

    /// The assembled diagonal against the quadrature diagonal oracle.
    fn check_diagonal<const D: usize>(n: [usize; D], op: PdeOperator, seed: u64) {
        let grid = Grid::new(n);
        let basis = ElementBasis::new(&grid);
        let nn = grid.num_nodes();
        let coeff = spd_coeff::<D>(op, nn, seed);
        let st = Stencil::assemble(&grid, &basis, op, &coeff, &vec![false; nn]);
        let mut diag = vec![0.0; nn];
        op.stiffness_diag(&grid, &basis, &coeff, &mut diag);
        let dscale = diag.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (a, b) in st.diag().iter().zip(&diag) {
            assert!(
                (a - b).abs() <= 1e-13 * dscale,
                "{n:?} {op:?} diag {a} vs {b}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The stencil's diagonal is the quadrature diagonal, for both
        /// operators on non-cube 2D/3D grids with random SPD coefficients.
        #[test]
        fn diagonal_matches_quadrature(
            n in (2usize..=33, 2usize..=33, 2usize..=33),
            three_d in 0usize..2,
            aniso in 0usize..2,
            seed in 0u64..1000,
        ) {
            let op = if aniso == 1 { PdeOperator::AnisoDiffusion } else { PdeOperator::Poisson };
            if three_d == 1 {
                check_diagonal([n.0, n.1, n.2], op, seed);
            } else {
                check_diagonal([n.0, n.1], op, seed);
            }
        }
    }
}
