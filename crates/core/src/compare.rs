//! Network-vs-FEM comparisons (paper §4.3, Tables 3–5 and 7).

use crate::error::MgdResult;
use crate::loss::{cg_solve, FemLoss};
use mgd_field::Dataset;
use mgd_nn::Model;
use mgd_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Quantitative comparison of one predicted field against the FEM solution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FieldComparison {
    /// ω of the compared sample.
    pub omega: Vec<f64>,
    /// Relative L2 error ‖u_nn − u_fem‖ / ‖u_fem‖.
    pub rel_l2: f64,
    /// Max-norm error.
    pub linf: f64,
    /// Ritz energy of the prediction.
    pub energy_nn: f64,
    /// Ritz energy of the FEM solution (the attainable minimum).
    pub energy_fem: f64,
    /// Network inference wall-clock (one forward pass), seconds.
    pub inference_seconds: f64,
    /// FEM solve wall-clock, seconds.
    pub fem_seconds: f64,
    /// Jacobi-CG iterations of the cold FEM solve.
    pub fem_iterations: usize,
    /// Jacobi-CG iterations when warm-started from the prediction (§3.1.2's
    /// "excellent starting point" claim; compare with `fem_iterations`).
    pub warm_start_iterations: usize,
}

/// Runs the network on one sample and imposes the exact BCs, returning the
/// spatial field.
pub fn predict_field<M: Model + ?Sized>(
    net: &mut M,
    data: &Dataset,
    sample: usize,
    dims: &[usize],
) -> MgdResult<Tensor> {
    let loss = FemLoss::new(dims)?;
    let x = data.try_batch_inputs(&[sample], dims)?;
    let u = forward_with_bc(net, &x, &loss);
    Ok(Tensor::from_vec(dims.to_vec(), u.into_vec()))
}

/// One inference forward of the batch `x` with `loss`'s boundary values
/// imposed on every sample.
fn forward_with_bc<M: Model + ?Sized>(net: &mut M, x: &Tensor, loss: &FemLoss) -> Tensor {
    let mut u = net.forward(x, false);
    loss.apply_bc_batch(&mut u);
    u
}

/// Full §4.3-style comparison for one sample (paper default physics).
pub fn compare_with_fem<M: Model + ?Sized>(
    net: &mut M,
    data: &Dataset,
    sample: usize,
    dims: &[usize],
) -> MgdResult<FieldComparison> {
    let loss = FemLoss::new(dims)?;
    compare_with_fem_loss(net, data, sample, dims, &loss)
}

/// [`compare_with_fem`] against an explicit loss: the FEM ground truth, the
/// energies, and the warm-start study all use the loss's operator (e.g.
/// anisotropic tensor diffusion), boundary data, and forcing. The cold and
/// warm solves both run Jacobi-CG through the one CG loop on the loss's
/// validated [`FemLoss::system`], so invalid coefficients are an error.
/// Jacobi-CG, not [`FemLoss::fem_solve`]'s MG-PCG, because only it shows
/// the §3.1.2 warm start: 104 → 102 iterations on the trained 2D
/// consistency test, where MG-PCG reads 11 → 11.
/// The dataset must produce coefficient blocks matching the operator
/// (`Dataset::with_anisotropy` for tensor operators).
pub fn compare_with_fem_loss<M: Model + ?Sized>(
    net: &mut M,
    data: &Dataset,
    sample: usize,
    dims: &[usize],
    loss: &FemLoss,
) -> MgdResult<FieldComparison> {
    let x = data.try_batch_inputs(&[sample], dims)?;

    let t0 = Instant::now();
    let u_nn_b = forward_with_bc(net, &x, loss);
    let inference_seconds = t0.elapsed().as_secs_f64();
    let u_nn = Tensor::from_vec(dims.to_vec(), u_nn_b.as_slice().to_vec());

    let nu = data.nu_field(sample, dims);
    let t1 = Instant::now();
    let (sys, rhs) = loss.system(nu.as_slice())?;
    let jacobi = sys.jacobi();
    let opts = mgd_fem::CgOptions {
        tol: 1e-10,
        max_iter: 50_000,
        ..Default::default()
    };
    let (u_fem_v, stats) = cg_solve(&sys, &jacobi, &rhs, None, opts)?;
    let fem_seconds = t1.elapsed().as_secs_f64();
    let u_fem = Tensor::from_vec(dims.to_vec(), u_fem_v);

    // Warm start from the prediction, solving to the *same absolute*
    // residual the cold solve reached (a relative tolerance would penalize
    // the warm start for its smaller initial residual).
    let warm_opts = mgd_fem::CgOptions {
        tol: 0.0,
        abs_tol: stats.residual.max(mgd_tensor::F64_DIV_GUARD),
        max_iter: 50_000,
    };
    let (_, warm_stats) = cg_solve(&sys, &jacobi, &rhs, Some(u_nn.as_slice()), warm_opts)?;

    let energy_nn = loss.energy_batch(std::slice::from_ref(&nu), &u_nn_b);
    let energy_fem = loss.energy_batch(
        &[nu],
        &Tensor::from_vec(u_nn_b.shape().clone(), u_fem.as_slice().to_vec()),
    );

    Ok(FieldComparison {
        omega: data.omegas[sample].clone(),
        rel_l2: u_nn.rel_l2_error(&u_fem),
        linf: u_nn.sub(&u_fem).norm_inf(),
        energy_nn,
        energy_fem,
        inference_seconds,
        fem_seconds,
        fem_iterations: stats.iterations,
        warm_start_iterations: warm_stats.iterations,
    })
}

/// Writes a spatial field (2D, or one z-slice of 3D) as CSV for external
/// plotting — the stand-in for the paper's field visualizations.
pub fn dump_field_csv(field: &Tensor, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let (ny, nx, slice_off) = match *field.dims() {
        [ny, nx] => (ny, nx, 0usize),
        [nz, ny, nx] => (ny, nx, (nz / 2) * ny * nx), // mid z-slice
        _ => panic!("dump_field_csv expects rank 2 or 3"),
    };
    let mut f = std::fs::File::create(path)?;
    let data = field.as_slice();
    for j in 0..ny {
        let row: Vec<String> = (0..nx)
            .map(|i| format!("{:.6e}", data[slice_off + j * nx + i]))
            .collect();
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgd_field::{DiffusivityModel, InputEncoding};
    use mgd_nn::{UNet, UNetConfig};

    fn setup() -> (UNet, Dataset) {
        let net = UNet::new(UNetConfig {
            depth: 2,
            base_filters: 4,
            two_d: true,
            seed: 8,
            ..Default::default()
        });
        (
            net,
            Dataset::sobol(4, DiffusivityModel::paper(), InputEncoding::LogNu),
        )
    }

    #[test]
    fn predict_field_has_exact_bcs() {
        let (mut net, data) = setup();
        let f = predict_field(&mut net, &data, 0, &[16, 16]).unwrap();
        for j in 0..16 {
            assert_eq!(f.at(&[j, 0]), 1.0);
            assert_eq!(f.at(&[j, 15]), 0.0);
        }
    }

    #[test]
    fn comparison_fields_are_consistent() {
        let (mut net, data) = setup();
        let c = compare_with_fem(&mut net, &data, 1, &[16, 16]).unwrap();
        // Untrained network: finite but nonzero error; FEM energy is the
        // minimum so energy_nn >= energy_fem.
        assert!(c.rel_l2.is_finite() && c.rel_l2 > 0.0);
        assert!(c.energy_nn >= c.energy_fem - 1e-9);
        assert!(c.fem_iterations > 0);
        assert!(c.fem_seconds > 0.0);
        assert_eq!(c.omega.len(), 4);
    }

    #[test]
    fn anisotropic_comparison_runs_end_to_end() {
        use crate::loss::LossSpec;
        use mgd_fem::PdeOperator;
        use mgd_field::Anisotropy;
        let dims = [16usize, 16];
        let data = Dataset::sobol(4, DiffusivityModel::paper(), InputEncoding::LogNu)
            .with_anisotropy(Anisotropy::new(4.0, 0.5).unwrap())
            .unwrap();
        let mut net = UNet::new(UNetConfig {
            depth: 2,
            base_filters: 4,
            two_d: true,
            in_channels: 3,
            seed: 8,
            ..Default::default()
        });
        let spec = LossSpec {
            op: PdeOperator::AnisoDiffusion,
            ..LossSpec::default()
        };
        let loss = FemLoss::with_spec(&dims, &spec).unwrap();
        let c = compare_with_fem_loss(&mut net, &data, 1, &dims, &loss).unwrap();
        assert!(c.rel_l2.is_finite() && c.rel_l2 > 0.0);
        // FEM energy is the attainable minimum for *this* operator too.
        assert!(c.energy_nn >= c.energy_fem - 1e-9);
        assert!(c.fem_iterations > 0);
    }

    #[test]
    fn dump_csv_roundtrip_shape() {
        let f = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let dir = std::env::temp_dir().join("mgd_compare_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("f.csv");
        dump_field_csv(&f, &p).unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert_eq!(s.lines().count(), 2);
        assert_eq!(s.lines().next().unwrap().split(',').count(), 3);
        std::fs::remove_file(&p).ok();
    }
}
