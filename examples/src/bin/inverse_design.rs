//! Inverse design with the trained surrogate (the paper's §1 motivation:
//! "hundreds or thousands of simulations are necessary to obtain an
//! optimal design").
//!
//! A hidden ω* generates a target solution field; we recover ω by
//! minimizing the field mismatch using only *surrogate* forward passes —
//! no FEM solves in the optimization loop. Nelder–Mead over the 4
//! parameters keeps the example dependency-free.
//!
//! `cargo run --release -p mgd-examples --bin inverse_design`

use mgd_tensor::Tensor;
use mgdiffnet::prelude::*;

fn predict(net: &mut UNet, model: &DiffusivityModel, omega: &[f64], dims: &[usize]) -> Tensor {
    let data = Dataset::from_omegas(vec![omega.to_vec()], model.clone(), InputEncoding::LogNu);
    predict_field(net, &data, 0, dims).unwrap()
}

fn main() {
    let dims = vec![32usize, 32];
    let model = DiffusivityModel::paper();
    println!("inverse design: recover omega from a target field via the surrogate\n");

    // 1. Train the surrogate on the ω family.
    let data = Dataset::sobol(24, model.clone(), InputEncoding::LogNu);
    let mut net = UNet::new(UNetConfig {
        two_d: true,
        depth: 2,
        base_filters: 8,
        seed: 3,
        ..Default::default()
    });
    let mut opt = Adam::new(3e-3);
    let comm = ThreadComm::solo();
    let train = TrainConfig {
        batch_size: 8,
        max_epochs: 60,
        patience: 8,
        ..Default::default()
    };
    let mg = MgConfig {
        cycle: CycleKind::HalfV,
        levels: 2,
        fixed_epochs: 2,
        adapt: false,
        cycles: 1,
    };
    println!("training surrogate ...");
    let log = MultigridTrainer::new(mg, train, dims.clone())
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    println!(
        "  done in {:.1}s, loss {:.5}\n",
        log.total_seconds, log.final_loss
    );

    // 2. Hidden truth: the FEM field for ω* (we only get the field, not ω*).
    let omega_true = vec![1.1, -0.7, 0.4, -1.9];
    let loss_fns = FemLoss::new(&dims).unwrap();
    let nu_true = model.rasterize(&omega_true, &dims);
    let (u_target_v, stats) = loss_fns
        .fem_solve(nu_true.as_slice(), None, 1e-10)
        .expect("valid coefficient field");
    assert!(stats.converged);
    let target = Tensor::from_vec(dims.clone(), u_target_v);

    // 3. Nelder–Mead on ω -> ||surrogate(ω) − target||².
    let mut evals = 0usize;
    let mut objective = |om: &[f64]| -> f64 {
        evals += 1;
        let pred = predict(&mut net, &model, om, &dims);
        let d = pred.sub(&target);
        d.dot(&d)
    };
    let mut simplex: Vec<Vec<f64>> = (0..5)
        .map(|i| {
            let mut v = vec![0.0; 4];
            if i > 0 {
                v[i - 1] = 1.5;
            }
            v
        })
        .collect();
    let mut fvals: Vec<f64> = simplex.iter().map(|v| objective(v)).collect();
    for it in 0..120 {
        // Order simplex by objective.
        let mut idx: Vec<usize> = (0..simplex.len()).collect();
        idx.sort_by(|&a, &b| fvals[a].partial_cmp(&fvals[b]).unwrap());
        let ordered: Vec<Vec<f64>> = idx.iter().map(|&i| simplex[i].clone()).collect();
        let fordered: Vec<f64> = idx.iter().map(|&i| fvals[i]).collect();
        simplex = ordered;
        fvals = fordered;
        if it % 20 == 0 {
            println!(
                "  iter {it:>3}: best mismatch {:.5}, omega {:?}",
                fvals[0],
                simplex[0]
                    .iter()
                    .map(|x| (x * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            );
        }
        // Centroid of all but worst.
        let n = simplex.len() - 1;
        let mut centroid = [0.0; 4];
        for v in &simplex[..n] {
            for d in 0..4 {
                centroid[d] += v[d] / n as f64;
            }
        }
        let worst = simplex[n].clone();
        let reflect: Vec<f64> = (0..4)
            .map(|d| centroid[d] + (centroid[d] - worst[d]))
            .collect();
        let fr = objective(&reflect);
        if fr < fvals[0] {
            let expand: Vec<f64> = (0..4)
                .map(|d| centroid[d] + 2.0 * (centroid[d] - worst[d]))
                .collect();
            let fe = objective(&expand);
            if fe < fr {
                simplex[n] = expand;
                fvals[n] = fe;
            } else {
                simplex[n] = reflect;
                fvals[n] = fr;
            }
        } else if fr < fvals[n - 1] {
            simplex[n] = reflect;
            fvals[n] = fr;
        } else {
            let contract: Vec<f64> = (0..4)
                .map(|d| centroid[d] + 0.5 * (worst[d] - centroid[d]))
                .collect();
            let fc = objective(&contract);
            if fc < fvals[n] {
                simplex[n] = contract;
                fvals[n] = fc;
            } else {
                // Shrink toward the best vertex.
                let best = simplex[0].clone();
                for v in simplex.iter_mut().skip(1) {
                    for d in 0..4 {
                        v[d] = best[d] + 0.5 * (v[d] - best[d]);
                    }
                }
                for i in 1..simplex.len() {
                    fvals[i] = objective(&simplex[i]);
                }
            }
        }
    }
    let best = &simplex[0];
    println!("\ntrue   omega: {omega_true:?}");
    println!(
        "found  omega: {:?}",
        best.iter()
            .map(|x| (x * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!("surrogate evaluations: {evals} (zero FEM solves in the loop)");
    // Validate with one FEM solve at the recovered ω.
    let nu_found = model.rasterize(best, &dims);
    let (u_found, _) = loss_fns
        .fem_solve(nu_found.as_slice(), None, 1e-10)
        .expect("valid coefficient field");
    let err = Tensor::from_vec(dims.clone(), u_found).rel_l2_error(&target);
    println!("FEM field at recovered omega vs target: rel L2 = {err:.4}");
}
