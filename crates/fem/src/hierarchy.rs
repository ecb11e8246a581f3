//! Geometric multigrid (paper §2.3) over arbitrary grids, with
//! interpolation transfers — the crate's one multigrid.
//!
//! Classical vertex-centred coarsening needs `2^j + 1` nodes per axis so
//! that coarse vertices coincide with fine vertices. The network-facing
//! grids of this project have `2^k` nodes per axis — never vertex-nested —
//! so this module builds a hierarchy with *physical-coordinate* multilinear
//! transfers instead: each level coarsens `n → (n+1)/2` nodes per axis
//! (`64 → 32 → 16 → 8`, or `33 → 17 → 9 → 5` in the nested case, where
//! the general transfer reduces exactly to the classical
//! `[1/2, 1, 1/2]` stencil), prolongation interpolates coarse nodal
//! values at fine node coordinates, and restriction is its exact
//! transpose. Both are tensor products of 1D interpolations and are
//! applied axis by axis. Coarse operators are rediscretized from ν
//! sampled by [`resample`], the same interpolation as a free function
//! between any two grid shapes; the finest level is the caller's system,
//! shared, not re-assembled.
//!
//! Because restriction is exactly `Pᵀ` and pre/post smoothing use the
//! same damped-Jacobi sweep counts, one V-cycle is a symmetric positive
//! definite operation — usable directly as a CG preconditioner
//! ([`Precond`] impl), which is how the hybrid solver consumes it: the
//! outer CG tracks the true residual, so certification never depends on
//! the (non-nested, approximate) coarse corrections being accurate.
//! [`GridHierarchy::solve`] is the standalone MG-PCG solve built the same
//! way.
//!
//! The V-cycle is written once, generic over the element type: smoothing,
//! residuals and transfers run on the level [`Stencil`]s at `E`, the
//! coarsest level solves in `f64` CG. [`crate::mixed::MixedHierarchy`] is
//! the same cycle at `f32`. Its working vectors come from a pool the
//! hierarchy owns, so a solve allocates only on its first V-cycle
//! ([`GridHierarchy::scratch_misses`] counts the allocations).

use crate::bc::Dirichlet;
use crate::error::{check_len, FemError};
use crate::grid::Grid;
use crate::operator::load_vector;
use crate::pcg::{self, CgOptions, CgStats, JacobiPrecond, PcgWorkspace, Precond};
use crate::pde::PdeOperator;
use crate::stencil::{par_row_blocks, Stencil};
use crate::system::FemSystem;
use mgd_tensor::Element;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Hierarchy construction and V-cycle options.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyOptions {
    /// Stop coarsening once any axis has at most this many nodes.
    pub coarse_n: usize,
    /// Pre-smoothing sweeps per level. Keep equal to `post_smooth` so the
    /// V-cycle stays symmetric (CG-preconditioner requirement).
    pub pre_smooth: usize,
    /// Post-smoothing sweeps per level.
    pub post_smooth: usize,
    /// Damped-Jacobi relaxation factor.
    pub omega: f64,
    /// Relative tolerance of the coarsest-level CG solve.
    pub coarse_tol: f64,
    /// Hard cap on hierarchy depth.
    pub max_levels: usize,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        HierarchyOptions {
            coarse_n: 5,
            pre_smooth: 2,
            post_smooth: 2,
            omega: 0.7,
            coarse_tol: 1e-12,
            max_levels: 32,
        }
    }
}

/// Per-node 1D interpolation: `(j, w0, w1)` means the target node takes
/// `w0 · source[j] + w1 · source[j+1]` along this axis.
type AxisTable = Vec<(usize, f64, f64)>;

/// Weights for interpolating an `n_source`-node axis at the node
/// coordinates of an `n_target`-node axis (both spanning the same span).
fn sample_axis(n_target: usize, n_source: usize) -> AxisTable {
    debug_assert!(n_target >= 2 && n_source >= 2);
    (0..n_target)
        .map(|i| {
            let s = i as f64 * (n_source - 1) as f64 / (n_target - 1) as f64;
            let j = (s.floor() as usize).min(n_source - 2);
            let t = (s - j as f64).clamp(0.0, 1.0);
            (j, 1.0 - t, t)
        })
        .collect()
}

/// [`sample_axis`] along every axis: interpolates a `source`-shaped grid
/// at the nodes of a `target`-shaped one.
fn sample_tables<const D: usize>(target: [usize; D], source: [usize; D]) -> Vec<AxisTable> {
    (0..D).map(|d| sample_axis(target[d], source[d])).collect()
}

/// One 1D pass of [`separable`] along the middle axis of an
/// `(outer, ·, inner)` array: gathers `dst[o,i,:] = w0·src[o,j,:] +
/// w1·src[o,j+1,:]` for `table[i] = (j, w0, w1)`, or the transpose. The
/// transpose is gathered too: `table[i].0` never decreases, so the source
/// rows feeding output row `r` are one run, and adding them from zero in
/// ascending `i` gives the bits of the scatter `dst[o,j,:] += w0·src[o,i,:]`,
/// `dst[o,j+1,:] += w1·src[o,i,:]`. Each output row is written by one job,
/// so the pass runs on fixed row blocks of the worker pool.
fn axis_pass<E: Element>(
    table: &[(usize, f64, f64)],
    outer: usize,
    inner: usize,
    (n_src, n_dst): (usize, usize),
    transpose: bool,
    src: &[E],
    dst: &mut [E],
) {
    let dst = &mut dst[..outer * n_dst * inner];
    // Transpose: output row `r` gathers source rows `runs[r]`, source row
    // `i` with weight `weight(i, r)`.
    let runs: Vec<Range<usize>> = match transpose {
        true => (0..n_dst)
            .map(|r| table.partition_point(|t| t.0 + 1 < r)..table.partition_point(|t| t.0 <= r))
            .collect(),
        false => Vec::new(),
    };
    let weight = |i: usize, r: usize| {
        let (j, w0, w1) = table[i];
        E::from_f64(if j == r { w0 } else { w1 })
    };
    if inner == 1 {
        // The last axis, whose rows are single entries: gather whole lines.
        par_row_blocks(dst, n_dst, |o0, lines| {
            for (o, line) in (o0..).zip(lines.chunks_mut(n_dst)) {
                let s = &src[o * n_src..][..n_src];
                for (r, d) in line.iter_mut().enumerate() {
                    *d = if transpose {
                        runs[r]
                            .clone()
                            .fold(E::ZERO, |acc, i| acc + weight(i, r) * s[i])
                    } else {
                        let (j, w0, w1) = table[r];
                        E::from_f64(w0) * s[j] + E::from_f64(w1) * s[j + 1]
                    };
                }
            }
        });
        return;
    }
    par_row_blocks(dst, inner, |r0, rows| {
        let (mut o, mut r) = (r0 / n_dst, r0 % n_dst);
        for d in rows.chunks_mut(inner) {
            let row = |i: usize| &src[(o * n_src + i) * inner..][..inner];
            if transpose {
                d.fill(E::ZERO);
                for i in runs[r].clone() {
                    let w = weight(i, r);
                    for (d, &v) in d.iter_mut().zip(row(i)) {
                        *d += w * v;
                    }
                }
            } else {
                let (j, w0, w1) = table[r];
                let (w0, w1) = (E::from_f64(w0), E::from_f64(w1));
                for ((d, &a), &b) in d.iter_mut().zip(row(j)).zip(row(j + 1)) {
                    *d = w0 * a + w1 * b;
                }
            }
            r += 1;
            if r == n_dst {
                (o, r) = (o + 1, 0);
            }
        }
    });
}

/// Applies the tensor product of the per-axis `tables` (axis 0 first) to
/// `src` of dims `from`, writing dims `to` into `dst` — or its exact
/// transpose. `t` holds the intermediates (each ≥ the larger of the two
/// node counts).
fn separable<E: Element, const D: usize>(
    tables: &[AxisTable],
    (from, to): ([usize; D], [usize; D]),
    transpose: bool,
    src: &[E],
    dst: &mut [E],
    t: &mut [Vec<E>; 2],
) {
    let [t0, t1] = t;
    let mut cur = from;
    for d in 0..D {
        let (outer, inner) = (cur[..d].iter().product(), cur[d + 1..].iter().product());
        let n = (cur[d], to[d]);
        cur[d] = to[d];
        let input: &[E] = if d == 0 { src } else { &t0[..] };
        let output: &mut [E] = if d + 1 == D { &mut *dst } else { &mut t1[..] };
        axis_pass(&tables[d], outer, inner, n, transpose, input, output);
        std::mem::swap(t0, t1);
    }
}

/// Samples the nodal field `src` of a `from`-shaped grid multilinearly at
/// the node coordinates of a `to`-shaped grid over the same box, one axis
/// at a time (axis 0 first). Each axis may grow or shrink independently
/// (`16×32 → 32×16` is fine), and the nodes need not nest. The result is
/// exact for multilinear fields, reproduces a field whose shape is
/// unchanged, and is a convex combination of source values, so it stays
/// within their range.
///
/// This is the crate's one sampler of nodal fields between resolutions:
/// coarse coefficients and fixed masks ([`GridHierarchy::from_finest`])
/// and a loss's forcing given at another resolution than the loss grid.
///
/// # Panics
/// If an axis of either grid has fewer than 2 nodes, or `src` does not
/// hold `from`'s node count.
pub fn resample<const D: usize>(src: &[f64], from: [usize; D], to: [usize; D]) -> Vec<f64> {
    assert!(
        from.iter().chain(&to).all(|&n| n >= 2),
        "resample {from:?} -> {to:?}: every axis needs at least 2 nodes"
    );
    assert_eq!(src.len(), from.iter().product(), "resample: source length");
    // The pass along axis `d` leaves the shape `to[..=d] ++ from[d+1..]`.
    let mut shape = from;
    let temp = (0..D)
        .map(|d| {
            shape[d] = to[d];
            shape.iter().product()
        })
        .max()
        .unwrap_or(0);
    let mut out = vec![0.0; to.iter().product()];
    let mut t = [vec![0.0; temp], vec![0.0; temp]];
    let tables = sample_tables(to, from);
    separable(&tables, (from, to), false, src, &mut out, &mut t);
    out
}

/// Zeroes the entries of `v` whose `fixed` flag is set.
fn mask<E: Element>(v: &mut [E], fixed: &[bool]) {
    par_row_blocks(v, 1, |i0, v| {
        for (x, &fx) in v.iter_mut().zip(&fixed[i0..]) {
            if fx {
                *x = E::ZERO;
            }
        }
    });
}

/// A free list of per-call scratch plus the number of calls that found it
/// empty and had to allocate.
pub(crate) struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
    misses: AtomicUsize,
}

impl<T> ScratchPool<T> {
    pub(crate) fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
            misses: AtomicUsize::new(0),
        }
    }

    /// Runs `f` on a pooled scratch value (built by `make` on a miss) and
    /// returns it to the pool. The free list holds only complete values,
    /// so a lock poisoned by a panic elsewhere is safe to recover.
    pub(crate) fn run<R>(&self, make: impl FnOnce() -> T, f: impl FnOnce(&mut T) -> R) -> R {
        let lock = || self.free.lock().unwrap_or_else(PoisonError::into_inner);
        let mut s = lock().pop().unwrap_or_else(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            make()
        });
        let out = f(&mut s);
        lock().push(s);
        out
    }

    pub(crate) fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Working memory of one V-cycle at precision `E`. Per level `l`: the
/// unknown `e[l]` and right-hand side `b[l]` (at level 0 the
/// preconditioner's output and input), the residual, and a smoother buffer
/// that also takes the prolonged correction. Plus transfer intermediates
/// and the coarsest level's `f64` CG state.
pub(crate) struct Scratch<E> {
    pub(crate) e: Vec<Vec<E>>,
    pub(crate) b: Vec<Vec<E>>,
    r: Vec<Vec<E>>,
    s: Vec<Vec<E>>,
    t: [Vec<E>; 2],
    cu: Vec<f64>,
    cb: Vec<f64>,
    ws: PcgWorkspace,
}

/// A multigrid hierarchy over arbitrary (≥ 2 nodes per axis) grids.
/// Level 0 is the finest.
pub struct GridHierarchy<const D: usize> {
    pub(crate) levels: Vec<Arc<FemSystem<D>>>,
    /// `c2f[l][d]` interpolates level `l+1` (coarse) values at the node
    /// coordinates of level `l` (fine) along axis `d`.
    c2f: Vec<Vec<AxisTable>>,
    opts: HierarchyOptions,
    /// Jacobi preconditioner of the coarsest level's CG solve.
    coarse_pre: JacobiPrecond,
    pool: ScratchPool<Scratch<f64>>,
}

impl<const D: usize> GridHierarchy<D> {
    /// Builds the hierarchy for `K(ν)` on `grid` with Dirichlet `bc`.
    ///
    /// Coarse-level ν is the multilinear sample of the fine ν; coarse
    /// masks fix a node iff its whole sampling support is fixed (exact
    /// for face-aligned Dirichlet sets, which endpoints always preserve).
    pub fn build(
        grid: Grid<D>,
        nu: &[f64],
        bc: &Dirichlet,
        opts: HierarchyOptions,
    ) -> Result<Self, FemError> {
        Self::build_with_operator(grid, PdeOperator::Poisson, nu, bc, opts)
    }

    /// [`build`](Self::build) for an arbitrary [`PdeOperator`]: coarse
    /// coefficient blocks are rediscretized by multilinearly sampling every
    /// component of the fine block. Per-node convex combinations of SPD
    /// tensors are SPD, so coarse anisotropic operators stay valid; at one
    /// component this reduces bitwise to the scalar path.
    pub fn build_with_operator(
        grid: Grid<D>,
        op: PdeOperator,
        nu: &[f64],
        bc: &Dirichlet,
        opts: HierarchyOptions,
    ) -> Result<Self, FemError> {
        if grid.n.iter().any(|&m| m < 2) {
            return Err(FemError::NotCoarsenable {
                n: grid.n.to_vec(),
                requirement: "every axis needs at least 2 nodes",
            });
        }
        let finest = FemSystem::with_operator(grid, op, nu.to_vec(), bc.clone())?;
        Self::from_finest(Arc::new(finest), opts)
    }

    /// Builds the coarse levels under an assembled finest system, which
    /// the hierarchy shares instead of assembling it again.
    pub fn from_finest(
        finest: Arc<FemSystem<D>>,
        opts: HierarchyOptions,
    ) -> Result<Self, FemError> {
        let op = finest.op;
        let mut levels = vec![finest];
        let mut c2f = Vec::new();
        loop {
            let fine = &levels[levels.len() - 1];
            let fnn = fine.num_nodes();
            let fg = fine.grid.n;
            if levels.len() >= opts.max_levels || fg.iter().any(|&m| m <= opts.coarse_n.max(2)) {
                break;
            }
            // Coarsen n -> (n+1)/2 per axis (n even halves; n odd nests).
            let cg: Grid<D> = Grid::new(fg.map(|m| m.div_ceil(2).max(2)));
            // Sample each coefficient component, and the fixed indicator:
            // a coarse node is fixed iff its support is (up to round-off).
            let cnu: Vec<f64> = fine
                .nu
                .chunks(fnn)
                .flat_map(|c| resample(c, fg, cg.n))
                .collect();
            let fixed: Vec<f64> = fine.bc.fixed.iter().map(|&f| u8::from(f).into()).collect();
            let fixed = resample(&fixed, fg, cg.n)
                .iter()
                .map(|&s| s >= 1.0 - 1e-9)
                .collect();
            let bc = Dirichlet {
                values: vec![0.0; cg.num_nodes()],
                fixed,
            };
            c2f.push(sample_tables(fg, cg.n));
            levels.push(Arc::new(FemSystem::with_operator(cg, op, cnu, bc)?));
        }
        Ok(GridHierarchy {
            coarse_pre: JacobiPrecond::of(&levels[levels.len() - 1]),
            levels,
            c2f,
            opts,
            pool: ScratchPool::new(),
        })
    }

    /// Number of levels (≥ 1; level 0 is the finest).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The system at level `l`.
    pub fn level(&self, l: usize) -> &FemSystem<D> {
        &self.levels[l]
    }

    /// The finest-level system.
    pub fn finest(&self) -> &FemSystem<D> {
        &self.levels[0]
    }

    /// Nodes per axis at level `l`.
    pub fn dims_at(&self, l: usize) -> [usize; D] {
        self.levels[l].grid.n
    }

    /// ν at level `l` (sampled down from the finest field).
    pub fn nu_at(&self, l: usize) -> &[f64] {
        &self.levels[l].nu
    }

    /// V-cycle applications that had to allocate working memory because
    /// none was free in the pool — one per concurrent solve, after which
    /// V-cycles allocate nothing.
    pub fn scratch_misses(&self) -> usize {
        self.pool.misses()
    }

    /// Solves the finest system `K(ν) u = F` (with `F` the load vector of
    /// optional nodal forcing `f`) by CG preconditioned with one V-cycle per
    /// iteration (MG-PCG, [`pcg::solve`]). `u0` provides an optional warm
    /// start; the finest level's Dirichlet values are imposed on it first.
    /// A mis-sized `f` or `u0` is a [`FemError::SizeMismatch`].
    pub fn solve(
        &self,
        f: Option<&[f64]>,
        u0: Option<&[f64]>,
        opts: CgOptions,
    ) -> Result<(Vec<f64>, CgStats), FemError> {
        let sys = self.finest();
        let nn = sys.num_nodes();
        check_len("f", nn, f.map_or(nn, <[f64]>::len))?;
        check_len("u0", nn, u0.map_or(nn, <[f64]>::len))?;
        let mut rhs = vec![0.0; nn];
        if let Some(f) = f {
            load_vector(&sys.grid, &sys.basis, f, &mut rhs);
        }
        let mut u = u0.map_or_else(|| vec![0.0; nn], <[f64]>::to_vec);
        sys.impose_bc(&mut u);
        let stats = pcg::solve(sys, self, &mut u, &rhs, opts)?;
        Ok((u, stats))
    }

    /// Interpolates a level-`l+1` field at level-`l` node coordinates,
    /// zeroing fine fixed nodes (corrections stay interior).
    pub fn prolong(&self, l: usize, coarse: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.levels[l].num_nodes()];
        self.transfer_into(l, false, coarse, &mut out, &mut self.temps(l));
        out
    }

    /// Exact transpose of [`prolong`](Self::prolong): scatters a level-`l`
    /// residual to level `l+1`, zeroing coarse fixed nodes.
    pub fn restrict(&self, l: usize, fine: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.levels[l + 1].num_nodes()];
        self.transfer_into(l, true, fine, &mut out, &mut self.temps(l));
        out
    }

    /// Transfer intermediates large enough for level `l`.
    fn temps<E: Element>(&self, l: usize) -> [Vec<E>; 2] {
        let n = self.levels[l].num_nodes();
        [vec![E::ZERO; n], vec![E::ZERO; n]]
    }

    /// Prolongs `src` from level `l+1` to level `l` by the tensor product
    /// of `c2f[l]`, or (`restrict`) scatters it back by the exact transpose,
    /// then zeroes the output level's fixed nodes. `t` holds fine-sized
    /// intermediates.
    fn transfer_into<E: Element>(
        &self,
        l: usize,
        restrict: bool,
        src: &[E],
        dst: &mut [E],
        t: &mut [Vec<E>; 2],
    ) {
        let (fine, coarse) = (&self.levels[l], &self.levels[l + 1]);
        let (dims, out) = match restrict {
            true => ((fine.grid.n, coarse.grid.n), coarse),
            false => ((coarse.grid.n, fine.grid.n), fine),
        };
        separable(&self.c2f[l], dims, restrict, src, dst, t);
        mask(dst, &out.bc.fixed);
    }

    /// Fresh working memory for one V-cycle at precision `E`.
    pub(crate) fn scratch<E: Element>(&self) -> Scratch<E> {
        let per_level = || {
            self.levels
                .iter()
                .map(|s| vec![E::ZERO; s.num_nodes()])
                .collect()
        };
        let nc = self.levels[self.levels.len() - 1].num_nodes();
        Scratch {
            e: per_level(),
            b: per_level(),
            r: per_level(),
            s: per_level(),
            t: self.temps(0),
            cu: vec![0.0; nc],
            cb: vec![0.0; nc],
            ws: PcgWorkspace::new(nc),
        }
    }

    /// One V-cycle at precision `E` on `K e = b` (homogeneous constraints)
    /// from `sc.e[0]`, `sc.b[0]`, with level operators `stencil(l)`; the
    /// result is left in `sc.e[0]`.
    pub(crate) fn cycle<'s, E: Element>(
        &self,
        stencil: &impl Fn(usize) -> &'s Stencil<E, D>,
        sc: &mut Scratch<E>,
    ) {
        let (last, omega) = (self.levels.len() - 1, E::from_f64(self.opts.omega));
        let (pre, post) = (self.opts.pre_smooth, self.opts.post_smooth);
        let fixed = |l: usize| &self.levels[l].bc.fixed[..];
        for l in 0..last {
            let st = stencil(l);
            st.smooth(&mut sc.e[l], &sc.b[l], omega, pre, &mut sc.s[l]);
            st.residual_into(&sc.e[l], &sc.b[l], fixed(l), &mut sc.r[l]);
            self.transfer_into(l, true, &sc.r[l], &mut sc.b[l + 1], &mut sc.t);
            sc.e[l + 1].fill(E::ZERO);
        }
        // Coarsest: tight f64 CG on the level's cached Jacobi diagonal (only
        // the mask of `bc` is used, so the finest level's inhomogeneous
        // values are irrelevant).
        let (e, b, ws) = (&mut sc.e[last], &sc.b[last], &mut sc.ws);
        let coarsest: &FemSystem<D> = &self.levels[last];
        for ((cu, cb), (&ei, &bi)) in sc.cu.iter_mut().zip(&mut sc.cb).zip(e.iter().zip(b)) {
            (*cu, *cb) = (ei.to_f64(), bi.to_f64());
        }
        let opts = CgOptions {
            tol: self.opts.coarse_tol,
            ..Default::default()
        };
        ws.run(coarsest, &self.coarse_pre, &mut sc.cu, &sc.cb, opts);
        for ((ei, &x), &fx) in e.iter_mut().zip(&sc.cu).zip(fixed(last)) {
            *ei = if fx { E::ZERO } else { E::from_f64(x) };
        }
        for l in (0..last).rev() {
            self.transfer_into(l, false, &sc.e[l + 1], &mut sc.s[l], &mut sc.t);
            let s = &sc.s[l];
            par_row_blocks(&mut sc.e[l], 1, |i0, e| {
                for (ei, &c) in e.iter_mut().zip(&s[i0..]) {
                    *ei += c;
                }
            });
            stencil(l).smooth(&mut sc.e[l], &sc.b[l], omega, post, &mut sc.s[l]);
        }
    }
}

impl<const D: usize> Precond for GridHierarchy<D> {
    /// `z ≈ K⁻¹ r` via one V-cycle from a zero initial error.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.pool.run(
            || self.scratch(),
            |sc| {
                sc.b[0].copy_from_slice(r);
                sc.e[0].fill(0.0);
                self.cycle(&|l| self.levels[l].stencil(), sc);
                z.copy_from_slice(&sc.e[0]);
            },
        );
        self.levels[0].mask(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{PcgStep, PcgWorkspace};

    fn nu_var<const D: usize>(g: &Grid<D>) -> Vec<f64> {
        (0..g.num_nodes())
            .map(|i| {
                let c = g.node_coords(i);
                let mut s = 1.0;
                for (k, &x) in c.iter().enumerate() {
                    s *= ((k + 2) as f64 * x).sin().mul_add(0.4, 1.0);
                }
                s.abs() + 0.3
            })
            .collect()
    }

    fn hier2d(m: usize) -> GridHierarchy<2> {
        let g: Grid<2> = Grid::cube(m);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap()
    }

    /// `f` at the node coordinates (x first) of an `n`-shaped grid.
    fn nodal<const D: usize>(n: [usize; D], f: impl Fn([f64; D]) -> f64) -> Vec<f64> {
        let g = Grid::new(n);
        (0..g.num_nodes()).map(|i| f(g.node_coords(i))).collect()
    }

    #[test]
    fn resample_identity_at_same_dims() {
        let f = nodal([6, 7], |[x, y]| (3.0 * x).sin() + y * y + 1.0);
        let r = resample(&f, [6, 7], [6, 7]);
        assert!(r.iter().zip(&f).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn resample_mixed_up_and_down_shapes() {
        // Axes grow and shrink in one call, so an intermediate shape
        // (32×32 here) is larger than both ends.
        let f = |[x, y]: [f64; 2]| 2.0 * x - 3.0 * y + x * y + 1.0;
        let r = resample(&nodal([16, 32], f), [16, 32], [32, 16]);
        let want = nodal([32, 16], f);
        assert!(r.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-12));
        let g = |[x, y, z]: [f64; 3]| x + 2.0 * y - z + 0.5 * x * y * z;
        let r = resample(&nodal([4, 16, 8], g), [4, 16, 8], [16, 3, 9]);
        let want = nodal([16, 3, 9], g);
        assert!(r.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-12));
    }

    #[test]
    fn down_then_up_roundtrip_is_close_for_smooth_field() {
        // Smooth (low-frequency) fields survive a V-shaped resample well.
        let pi = std::f64::consts::PI;
        let f = nodal([33, 33], |[x, y]| (pi * x).sin() * (pi * y).cos());
        let up = resample(&resample(&f, [33, 33], [17, 17]), [17, 17], [33, 33]);
        let err: f64 = up.iter().zip(&f).map(|(a, b)| (a - b) * (a - b)).sum();
        let norm: f64 = f.iter().map(|a| a * a).sum();
        assert!((err / norm).sqrt() < 0.02);
    }

    #[test]
    fn depth_on_power_of_two_grid() {
        // 64 -> 32 -> 16 -> 8 -> 4: stop once an axis is <= coarse_n.
        let h = hier2d(64);
        assert_eq!(h.num_levels(), 5);
        assert_eq!(h.dims_at(1), [32, 32]);
        assert_eq!(h.dims_at(4), [4, 4]);
    }

    #[test]
    fn nested_grid_reduces_to_classical_stencil() {
        // On 2^j+1 grids the sampled transfer is the [1/2, 1, 1/2]
        // stencil: restriction of a constant-1 interior residual onto an
        // interior coarse node sums to 4 in 2D.
        let h = hier2d(17);
        assert_eq!(h.dims_at(1), [9, 9]);
        let fine = vec![1.0; h.level(0).num_nodes()];
        let r = h.restrict(0, &fine);
        let cgrid = &h.level(1).grid;
        let mid = cgrid.node([4, 4]);
        assert!((r[mid] - 4.0).abs() < 1e-12, "got {}", r[mid]);
    }

    #[test]
    fn vcycle_pcg_converges_on_power_of_two_grid() {
        let h = hier2d(64);
        let sys = h.finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h, &u, &rhs);
        let mut iters = 0;
        for _ in 0..60 {
            iters += 1;
            match ws.step(sys, &h, &mut u) {
                PcgStep::Advanced(rn) if rn <= 1e-10 * r0 => break,
                PcgStep::Advanced(_) => {}
                PcgStep::Breakdown => panic!("breakdown"),
            }
        }
        let rel = sys.residual_norm(&u, &rhs) / r0;
        assert!(rel <= 1e-9, "rel residual {rel} after {iters} iters");
        // Multigrid preconditioning must beat plain Jacobi CG by a wide
        // margin: tens of iterations, not hundreds.
        assert!(iters <= 40, "MG-PCG took {iters} iterations");
    }

    #[test]
    fn vcycle_pcg_converges_in_3d() {
        let g: Grid<3> = Grid::cube(16);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h = GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap();
        let sys = h.finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h, &u, &rhs);
        for _ in 0..50 {
            if let PcgStep::Advanced(rn) = ws.step(sys, &h, &mut u) {
                if rn <= 1e-10 * r0 {
                    break;
                }
            }
        }
        assert!(sys.residual_norm(&u, &rhs) / r0 <= 1e-9);
    }

    #[test]
    fn anisotropic_hierarchy_preconditions_pcg() {
        // Rotated diag(s, s/ratio) tensor field; the rediscretized coarse
        // tensors must stay SPD (convex combinations) and the V-cycle must
        // still precondition CG to fast convergence.
        let g: Grid<2> = Grid::cube(32);
        let nn = g.num_nodes();
        let mut t = vec![0.0; 3 * nn];
        let (sn, cs) = 0.5f64.sin_cos();
        for i in 0..nn {
            let c = g.node_coords(i);
            let s = 1.0 + 0.4 * (3.0 * c[0]).sin() * (2.0 * c[1]).cos() + 0.5;
            let a = s;
            let b = s / 6.0;
            t[i] = a * cs * cs + b * sn * sn;
            t[nn + i] = a * sn * sn + b * cs * cs;
            t[2 * nn + i] = (a - b) * cs * sn;
        }
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h = GridHierarchy::build_with_operator(
            g,
            PdeOperator::AnisoDiffusion,
            &t,
            &bc,
            HierarchyOptions::default(),
        )
        .unwrap();
        // Every level re-validated SPD at construction (with_operator).
        assert!(h.num_levels() >= 3);
        let sys = h.finest();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h, &u, &rhs);
        let mut iters = 0;
        for _ in 0..80 {
            iters += 1;
            match ws.step(sys, &h, &mut u) {
                PcgStep::Advanced(rn) if rn <= 1e-10 * r0 => break,
                PcgStep::Advanced(_) => {}
                PcgStep::Breakdown => panic!("breakdown"),
            }
        }
        let rel = sys.residual_norm(&u, &rhs) / r0;
        assert!(rel <= 1e-9, "rel residual {rel} after {iters} iters");
    }

    #[test]
    fn scalar_build_is_bitwise_identical_through_operator_path() {
        // build() delegates to build_with_operator(Poisson) — coarse ν and
        // every level's diag must match the historical path exactly.
        let h = hier2d(24);
        for l in 0..h.num_levels() {
            assert_eq!(h.nu_at(l).len(), h.level(l).num_nodes());
        }
        let g: Grid<2> = Grid::cube(24);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h2 = GridHierarchy::build_with_operator(
            g,
            PdeOperator::Poisson,
            &nu,
            &bc,
            HierarchyOptions::default(),
        )
        .unwrap();
        for l in 0..h.num_levels() {
            assert!(h
                .nu_at(l)
                .iter()
                .zip(h2.nu_at(l))
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn solution_matches_classical_gmg_on_nested_grid() {
        // Classical GMG — the stationary iteration u ← u + V(r), one V-cycle
        // per step — and MG-PCG (`solve`) reach the same solution.
        let h = hier2d(33);
        let sys = h.finest();
        let nn = sys.num_nodes();
        let (rhs, mut r, mut e) = (vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]);
        let mut u_ref = vec![0.0; nn];
        sys.impose_bc(&mut u_ref);
        let r0 = sys.residual_norm(&u_ref, &rhs);
        let mut cycles = 0;
        while sys.residual_norm(&u_ref, &rhs) > 1e-11 * r0 {
            cycles += 1;
            assert!(cycles <= 60, "classical GMG stalled");
            sys.residual_into(&u_ref, &rhs, &mut r);
            Precond::apply(&h, &r, &mut e);
            u_ref.iter_mut().zip(&e).for_each(|(u, e)| *u += e);
        }
        let opts = CgOptions {
            tol: 1e-11,
            ..Default::default()
        };
        let (u, st) = h.solve(None, None, opts).unwrap();
        assert!(st.converged, "{st:?}");
        let err: f64 = u
            .iter()
            .zip(&u_ref)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = u_ref.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err / norm < 1e-7, "rel err {}", err / norm);
    }
}
