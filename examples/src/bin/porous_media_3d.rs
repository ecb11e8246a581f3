//! Flow through a porous medium — the paper's motivating 3D application
//! (§5 lists "flow through porous media" as a deployment target).
//!
//! Trains a 3D MGDiffNet on the log-permeability family of Eq. 10 and
//! inspects the pressure field it predicts through a cross-section.
//!
//! `cargo run --release -p mgd-examples --bin porous_media_3d`

use mgd_examples::ascii_heatmap;
use mgd_tensor::Tensor;
use mgdiffnet::prelude::*;

fn main() {
    let res = 16usize;
    let dims = vec![res, res, res];
    println!("porous-media pressure surrogate at {res}^3 (scaled-down 3D run)\n");

    let data = Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu);
    let mut net = UNet::new(UNetConfig {
        two_d: false,
        depth: 2,
        base_filters: 4,
        seed: 7,
        ..Default::default()
    });
    let mut opt = Adam::new(3e-3);
    let comm = ThreadComm::solo();
    let train = TrainConfig {
        batch_size: 4,
        max_epochs: 25,
        patience: 5,
        ..Default::default()
    };
    let mg = MgConfig {
        cycle: CycleKind::HalfV,
        levels: 2,
        fixed_epochs: 2,
        adapt: false,
        cycles: 1,
    };
    let log = MultigridTrainer::new(mg, train, dims.clone())
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    println!(
        "trained in {:.1}s across {} phases; final energy loss {:.5}",
        log.total_seconds,
        log.phases.len(),
        log.final_loss
    );

    // Predict and compare for one permeability realization.
    let cmp = compare_with_fem(&mut net, &data, 0, &dims).unwrap();
    println!("\nsample 0 (ω = {:?}):", data.omegas[0]);
    println!(
        "  rel L2 vs FEM: {:.4}   max err: {:.4}",
        cmp.rel_l2, cmp.linf
    );
    println!(
        "  Darcy energy (nn/fem): {:.5} / {:.5}",
        cmp.energy_nn, cmp.energy_fem
    );

    let field = predict_field(&mut net, &data, 0, &dims).unwrap();
    // Mid-depth slice of the 3D pressure field.
    let mid = res / 2;
    let slice_data: Vec<f64> = (0..res * res)
        .map(|k| field.as_slice()[mid * res * res + k])
        .collect();
    let slice = Tensor::from_vec([res, res], slice_data);
    println!("\npressure through the mid z-plane (flow from left to right):\n");
    println!("{}", ascii_heatmap(&slice, res));

    // Effective flux estimate: mean -ν ∂u/∂x over the outlet face.
    let nu = data.nu_field(0, &dims);
    let h = 1.0 / (res - 1) as f64;
    let mut flux = 0.0;
    for k in 0..res {
        for j in 0..res {
            let i1 = (k * res + j) * res + (res - 1);
            let i0 = i1 - 1;
            flux -= nu.as_slice()[i1] * (field.as_slice()[i1] - field.as_slice()[i0]) / h;
        }
    }
    flux /= (res * res) as f64;
    println!("estimated mean outlet Darcy flux: {flux:.4}");

    // Dump permeability + pressure for ParaView/VisIt.
    let out = std::env::temp_dir().join("porous_media_3d.vtk");
    mgd_field::vtk::write_structured_points(&out, &[("nu", &nu), ("pressure", &field)]).unwrap();
    println!("wrote VTK dump: {}", out.display());
}
