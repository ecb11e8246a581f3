//! Certified learned-multigrid solving (`mgd_hybrid`).
//!
//! The repo has two answer paths with opposite failure modes: FEM
//! multigrid (exact but pays full price per query) and U-Net surrogate
//! inference (fast but carries no error bound). This crate merges them
//! the way learned-multigrid work (Greenfeld et al., MGCNN) does: the
//! learned component runs *inside* a classical iteration whose progress
//! is measured by the **true residual**, so the network can only
//! accelerate the solve — never corrupt the answer.
//!
//! The learned component is the paper's warm start
//! ([`StrategyKind::InitialGuess`]): the surrogate's prediction is the
//! iterate multigrid-preconditioned CG starts from. The no-network
//! [`StrategyKind::PureMultigrid`] baseline runs the same loop from the
//! zero (BC-imposed) iterate. Both run under the [`solve_certified`]
//! driver: per-step true-residual tracking, a stall detector, and
//! automatic demotion to pure FEM stages (pure MG-PCG, then Jacobi-CG as
//! the last resort) whenever the guess is missing, non-finite or the wrong
//! length, or the run stalls, breaks down or emits non-finite values.
//! Every [`CertifiedSolution`] carries a residual norm recomputed from
//! scratch on the returned iterate.
//!
//! The multigrid machinery comes from `mgd_fem::hierarchy`, whose
//! non-nested interpolation transfers coarsen the `2^k`-node grids the
//! network is trained on as well as classical `2^j + 1` grids.

mod certify;
mod strategy;
mod system;

pub use certify::{solve_certified, CertifiedSolution, CertifyOptions, StallPolicy};
pub use strategy::{NoSurrogate, StrategyKind, Surrogate};
pub use system::{ErasedHierarchy, ErasedSystem, HybridError};

#[cfg(test)]
mod tests {
    use super::*;
    use mgd_fem::hierarchy::HierarchyOptions;

    /// Variable diffusivity over a dims-shaped grid (x is the fastest axis).
    fn nu_field(dims: &[usize]) -> Vec<f64> {
        let n: usize = dims.iter().product();
        let nx = dims[dims.len() - 1];
        (0..n)
            .map(|i| {
                let x = (i % nx) as f64 / (nx - 1) as f64;
                let y = (i / nx) as f64 / (n / nx) as f64;
                ((2.5 * x).sin() * (1.7 * y).cos()).mul_add(0.5, 1.2)
            })
            .collect()
    }

    fn setup(dims: &[usize]) -> (ErasedSystem, ErasedHierarchy) {
        let nu = nu_field(dims);
        let sys = ErasedSystem::poisson(dims, &nu).unwrap();
        let hier = ErasedHierarchy::build(&sys, HierarchyOptions::default()).unwrap();
        (sys, hier)
    }

    /// A crude-but-finite oracle: the 1D profile u = 1 − x at any dims.
    fn profile_surrogate(dims: &[usize], _nu: &[f64]) -> Option<Vec<f64>> {
        let n: usize = dims.iter().product();
        let nx = dims[dims.len() - 1];
        Some(
            (0..n)
                .map(|i| 1.0 - (i % nx) as f64 / (nx - 1) as f64)
                .collect(),
        )
    }

    /// A sabotaged oracle: every value is NaN (as from NaN weights).
    fn nan_surrogate(dims: &[usize], _nu: &[f64]) -> Option<Vec<f64>> {
        Some(vec![f64::NAN; dims.iter().product()])
    }

    #[test]
    fn baseline_certifies_on_power_of_two_grid() {
        let (sys, hier) = setup(&[32, 32]);
        let opts = CertifyOptions::default();
        let sol = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &opts,
        );
        assert!(sol.converged, "{:?}", sol.residual_history);
        assert!(!sol.fell_back);
        assert!(sol.rel_residual <= opts.tol);
        assert_eq!(sol.strategy_used, "pure-multigrid");
        // The certificate is a recomputed true residual of the returned u.
        let rhs = vec![0.0; sys.num_nodes()];
        let check = sys.residual_norm(&sol.u, &rhs);
        assert!((check - sol.residual_norm).abs() <= 1e-12 * (1.0 + check));
    }

    #[test]
    fn residual_history_is_monotone() {
        let (sys, hier) = setup(&[32, 32]);
        for kind in [StrategyKind::PureMultigrid, StrategyKind::InitialGuess] {
            let sol = solve_certified(
                &sys,
                &hier,
                &profile_surrogate,
                kind,
                None,
                &CertifyOptions::default(),
            );
            assert!(sol.converged, "{kind:?}");
            for w in sol.residual_history.windows(2) {
                assert!(w[1] <= w[0], "{kind:?}: residual grew {w:?}");
            }
        }
    }

    #[test]
    fn strategies_agree_on_the_solution() {
        let (sys, hier) = setup(&[32, 32]);
        let opts = CertifyOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let kinds = [StrategyKind::PureMultigrid, StrategyKind::InitialGuess];
        let sols: Vec<_> = kinds
            .iter()
            .map(|&k| solve_certified(&sys, &hier, &profile_surrogate, k, None, &opts))
            .collect();
        let norm0: f64 = sols[0].u.iter().map(|x| x * x).sum::<f64>().sqrt();
        for (k, s) in kinds.iter().zip(&sols) {
            assert!(s.converged, "{k:?}");
            let diff: f64 =
                s.u.iter()
                    .zip(&sols[0].u)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
            assert!(diff / norm0 < 1e-6, "{k:?} diverges: rel {}", diff / norm0);
        }
    }

    #[test]
    fn nan_surrogate_demotes_and_still_converges() {
        let (sys, hier) = setup(&[32, 32]);
        let opts = CertifyOptions::default();
        let kind = StrategyKind::InitialGuess;
        let sol = solve_certified(&sys, &hier, &nan_surrogate, kind, None, &opts);
        assert!(sol.fell_back, "should demote on NaN prediction");
        assert!(sol.converged, "fallback must still hit tol");
        assert!(sol.rel_residual <= opts.tol);
        assert!(sol.u.iter().all(|x| x.is_finite()));
        assert_eq!(sol.strategy_used, "pure-multigrid");
    }

    #[test]
    fn stalled_multigrid_demotes_to_jacobi_cg() {
        // No MG-PCG block cuts the residual 1e6-fold, so this stall policy
        // demotes pure multigrid after one outer step to the last resort.
        let (sys, hier) = setup(&[16, 16]);
        let opts = CertifyOptions {
            stall: StallPolicy {
                rho: 1e-6,
                window: 1,
            },
            ..Default::default()
        };
        let sol = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &opts,
        );
        assert_eq!(sol.strategy_used, "jacobi-cg");
        assert!(sol.fell_back);
        assert!(sol.converged, "{:?}", sol.residual_history);
        let check = sys.residual_norm(&sol.u, &vec![0.0; sys.num_nodes()]);
        assert_eq!(check.to_bits(), sol.residual_norm.to_bits());
    }

    #[test]
    fn unavailable_surrogate_runs_pure_fallback() {
        let (sys, hier) = setup(&[16, 16]);
        let sol = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::InitialGuess,
            None,
            &CertifyOptions::default(),
        );
        assert!(sol.fell_back);
        assert!(sol.converged);
    }

    #[test]
    fn wrong_length_guess_demotes_and_still_converges() {
        let (sys, hier) = setup(&[32, 32]);
        let opts = CertifyOptions::default();
        for len in [sys.num_nodes() - 1, sys.num_nodes() + 1, 0] {
            let short =
                move |_dims: &[usize], _nu: &[f64]| -> Option<Vec<f64>> { Some(vec![0.5; len]) };
            let sol = solve_certified(&sys, &hier, &short, StrategyKind::InitialGuess, None, &opts);
            assert!(sol.fell_back, "a {len}-value guess must demote");
            assert_eq!(sol.strategy_used, "pure-multigrid");
            assert!(sol.converged, "{len}: {:?}", sol.residual_history);
            assert!(sol.rel_residual <= opts.tol);
        }
    }

    fn solve_with_rhs(rhs: &[f64]) -> CertifiedSolution {
        let (sys, hier) = setup(&[16, 16]);
        solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            Some(rhs),
            &CertifyOptions::default(),
        )
    }

    #[test]
    #[should_panic(expected = "rhs has length 257, the system has 256 nodes")]
    fn too_long_rhs_panics() {
        solve_with_rhs(&[0.0; 257]);
    }

    #[test]
    #[should_panic(expected = "rhs has length 255, the system has 256 nodes")]
    fn too_short_rhs_panics() {
        solve_with_rhs(&[0.0; 255]);
    }

    #[test]
    fn zero_stall_window_reads_as_one() {
        // Read literally, a zero window compares each residual with itself,
        // which stalls every non-final stage after one step and ends the
        // solve in Jacobi-CG.
        let (sys, hier) = setup(&[32, 32]);
        let solve = |window| {
            let opts = CertifyOptions {
                stall: StallPolicy { rho: 0.9, window },
                ..Default::default()
            };
            let kind = StrategyKind::InitialGuess;
            solve_certified(&sys, &hier, &profile_surrogate, kind, None, &opts)
        };
        let (zero, one) = (solve(0), solve(1));
        assert_eq!(zero.strategy_used, "initial-guess");
        assert!(!zero.fell_back && zero.converged);
        assert_eq!(zero.iterations, one.iterations);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&zero.u), bits(&one.u));
        assert_eq!(bits(&zero.residual_history), bits(&one.residual_history));
    }

    #[test]
    fn good_guess_saves_iterations() {
        let (sys, hier) = setup(&[32, 32]);
        let opts = CertifyOptions::default();
        // Oracle = the exact discrete solution (from a baseline solve).
        let exact = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &CertifyOptions { tol: 1e-12, ..opts },
        );
        assert!(exact.converged);
        let u_star = exact.u.clone();
        let oracle =
            move |_dims: &[usize], _nu: &[f64]| -> Option<Vec<f64>> { Some(u_star.clone()) };
        let seeded = solve_certified(
            &sys,
            &hier,
            &oracle,
            StrategyKind::InitialGuess,
            None,
            &opts,
        );
        let baseline = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &opts,
        );
        assert!(seeded.converged && !seeded.fell_back);
        assert!(
            seeded.iterations < baseline.iterations,
            "seeded {} vs baseline {}",
            seeded.iterations,
            baseline.iterations
        );
    }

    #[test]
    fn mixed_hierarchy_certifies_to_f64_tolerance() {
        // The f32 V-cycle is only a preconditioner: the certificate is an
        // f64 true residual, so Precision::Mixed must still hit the same
        // 1e-8 relative target as the full-f64 hierarchy.
        let dims = [64usize, 64];
        let nu = nu_field(&dims);
        let sys = ErasedSystem::poisson(&dims, &nu).unwrap();
        let hier = ErasedHierarchy::build_with_precision(
            &sys,
            HierarchyOptions::default(),
            mgd_tensor::Precision::Mixed,
        )
        .unwrap();
        let opts = CertifyOptions::default();
        let sol = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &opts,
        );
        assert!(sol.converged, "{:?}", sol.residual_history);
        assert!(sol.rel_residual <= opts.tol);
        // The certificate is a from-scratch f64 residual of the returned u.
        let rhs = vec![0.0; sys.num_nodes()];
        let check = sys.residual_norm(&sol.u, &rhs);
        assert!((check - sol.residual_norm).abs() <= 1e-12 * (1.0 + check));
        // And the answer agrees with the all-f64 hierarchy's solve.
        let hier64 = ErasedHierarchy::build(&sys, HierarchyOptions::default()).unwrap();
        let sol64 = solve_certified(
            &sys,
            &hier64,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &opts,
        );
        let norm: f64 = sol64.u.iter().map(|x| x * x).sum::<f64>().sqrt();
        let diff: f64 = sol
            .u
            .iter()
            .zip(&sol64.u)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(diff / norm < 1e-6, "mixed diverges: rel {}", diff / norm);
    }

    #[test]
    fn mixed_hierarchy_drives_learned_strategies_in_3d() {
        let dims = [16usize, 16, 16];
        let nu = nu_field(&dims);
        let sys = ErasedSystem::poisson(&dims, &nu).unwrap();
        let hier = ErasedHierarchy::build_with_precision(
            &sys,
            HierarchyOptions::default(),
            mgd_tensor::Precision::Mixed,
        )
        .unwrap();
        let opts = CertifyOptions::default();
        let kind = StrategyKind::InitialGuess;
        let sol = solve_certified(&sys, &hier, &profile_surrogate, kind, None, &opts);
        assert!(sol.converged, "{:?}", sol.residual_history);
        assert!(sol.rel_residual <= opts.tol);
    }

    #[test]
    fn f64_and_f32_precisions_build_plain_hierarchies() {
        let dims = [16usize, 16];
        let nu = nu_field(&dims);
        let sys = ErasedSystem::poisson(&dims, &nu).unwrap();
        for p in [mgd_tensor::Precision::F64, mgd_tensor::Precision::F32] {
            let h = ErasedHierarchy::build_with_precision(&sys, HierarchyOptions::default(), p)
                .unwrap();
            assert!(matches!(h, ErasedHierarchy::D2(_)), "{p}");
        }
        let h = ErasedHierarchy::build_with_precision(
            &sys,
            HierarchyOptions::default(),
            mgd_tensor::Precision::Mixed,
        )
        .unwrap();
        assert!(matches!(h, ErasedHierarchy::D2Mixed(_)));
    }

    #[test]
    fn hierarchy_shares_the_systems_finest_level() {
        let (sys, hier) = setup(&[16, 16, 16]);
        let (ErasedSystem::D3(s), ErasedHierarchy::D3(h)) = (&sys, &hier) else {
            panic!("3D dims build 3D variants");
        };
        assert!(std::ptr::eq(&**s, h.finest()));
    }

    #[test]
    fn three_d_certified_solve() {
        let (sys, hier) = setup(&[16, 16, 16]);
        let opts = CertifyOptions::default();
        let sol = solve_certified(
            &sys,
            &hier,
            &profile_surrogate,
            StrategyKind::InitialGuess,
            None,
            &opts,
        );
        assert!(sol.converged);
        assert!(sol.rel_residual <= opts.tol);
    }
}
