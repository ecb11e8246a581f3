//! Solver-level regression tests: the shared CG loop, typed errors on the
//! public solve surface, and the pooled V-cycle scratch.

use mgd_fem::hierarchy::{GridHierarchy, HierarchyOptions};
use mgd_fem::pcg::{self, PcgStep, PcgWorkspace, Precond};
use mgd_fem::{CgOptions, Dirichlet, FemError, FemSystem, Grid, JacobiPrecond, MixedHierarchy};

fn nu_var<const D: usize>(g: &Grid<D>) -> Vec<f64> {
    (0..g.num_nodes())
        .map(|i| {
            let c = g.node_coords(i);
            c.iter()
                .fold(1.0, |s, &x| s * (3.0 * x).sin().mul_add(0.4, 1.0))
                + 0.3
        })
        .collect()
}

#[test]
fn nan_rhs_stops_cg_within_one_iteration() {
    let g: Grid<2> = Grid::cube(17);
    let nn = g.num_nodes();
    let sys = FemSystem::new(g, nu_var(&g), Dirichlet::x_faces(&g, 1.0, 0.0)).unwrap();
    let mut rhs = vec![0.0; nn];
    rhs[nn / 2] = f64::NAN;
    let mut u = vec![0.0; nn];
    sys.impose_bc(&mut u);
    let pre = JacobiPrecond::of(&sys);
    let stats = pcg::solve(&sys, &pre, &mut u, &rhs, CgOptions::default()).unwrap();
    assert!(stats.iterations <= 1, "{stats:?}");
    assert!(!stats.converged);
}

#[test]
fn hierarchy_solve_rejects_mis_sized_forcing_and_warm_start() {
    let g: Grid<2> = Grid::cube(9);
    let nn = g.num_nodes();
    let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
    let h = GridHierarchy::build(g, &nu_var(&g), &bc, HierarchyOptions::default()).unwrap();
    let short = vec![0.0; nn - 1];
    let opts = CgOptions::default();
    let err = h.solve(Some(&short), None, opts).unwrap_err();
    assert!(
        matches!(err, FemError::SizeMismatch { what: "f", .. }),
        "{err}"
    );
    let err = h.solve(None, Some(&short), opts).unwrap_err();
    assert!(
        matches!(err, FemError::SizeMismatch { what: "u0", .. }),
        "{err}"
    );
}

/// Runs `iters` MG-PCG iterations, asserting after each that the pool has
/// allocated exactly once (on the first V-cycle).
fn pcg_allocates_once(sys: &FemSystem<3>, pre: &dyn Precond, misses: &dyn Fn() -> usize) {
    let nn = sys.num_nodes();
    let rhs = vec![0.0; nn];
    let mut u = vec![0.0; nn];
    sys.impose_bc(&mut u);
    let mut ws = PcgWorkspace::start(sys, pre, &u, &rhs);
    for _ in 0..8 {
        assert!(matches!(ws.step(sys, pre, &mut u), PcgStep::Advanced(_)));
        assert_eq!(misses(), 1);
    }
}

#[test]
fn vcycle_scratch_is_allocated_once_per_solve() {
    let g: Grid<3> = Grid::new([17, 12, 16]);
    let (nu, bc) = (nu_var(&g), Dirichlet::x_faces(&g, 1.0, 0.0));
    let h = GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap();
    pcg_allocates_once(h.finest(), &h, &|| h.scratch_misses());
    let h = GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap();
    let m = MixedHierarchy::new(h);
    pcg_allocates_once(m.inner().finest(), &m, &|| m.scratch_misses());
}
