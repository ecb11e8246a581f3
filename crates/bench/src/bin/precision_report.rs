//! Machine-readable precision benchmark: the f32 fast path end to end.
//!
//! Measures the three layers of the generic-element refactor against their
//! f64 baselines and writes one JSON report:
//!
//! - **GEMM ceiling** — square matmuls through the f64 (8×16) and f32
//!   (8×32) microkernels; the f32/f64 speedup bounds what any higher layer
//!   can hope for.
//! - **U-Net forward** — `Model::share` vs `Model::share_f32` serving
//!   views on 2D and 3D inputs, plus the max elementwise deviation of the
//!   f32 forward (must sit below the f32 `Element::EQUIV_TOL`).
//! - **Certified solve** — wall-clock to a 1e-8 relative residual with the
//!   f64 V-cycle preconditioner vs the mixed-precision one
//!   (`Precision::Mixed`); both must converge, and the solutions must
//!   agree — the f32 V-cycle steers convergence only, the certificate is
//!   always f64.
//!
//! ```text
//! cargo run --release -p mgd-bench --bin precision_report             # full
//! cargo run --release -p mgd-bench --bin precision_report -- --quick  # CI smoke
//! cargo run --release -p mgd-bench --bin precision_report -- out.json
//! ```
//!
//! Default output path: `results/BENCH_precision.json`.

use mgd_fem::hierarchy::HierarchyOptions;
use mgd_hybrid::{
    solve_certified, CertifyOptions, ErasedHierarchy, ErasedSystem, NoSurrogate, StrategyKind,
};
use mgd_nn::{Model, UNet, UNetConfig, Workspace};
use mgd_tensor::matmul::gemm;
use mgd_tensor::{Element, Precision, Tensor};
use serde_json::{json, Value};
use std::time::Instant;

/// Times `f` adaptively: repeats until ~`budget_s` seconds or `max_reps`,
/// returns the minimum wall time in milliseconds.
fn time_ms<F: FnMut()>(mut f: F, budget_s: f64, max_reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut reps = 0;
    while reps < max_reps && (reps < 2 || start.elapsed().as_secs_f64() < budget_s) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        reps += 1;
    }
    best
}

fn gemm_case(n: usize, budget_s: f64) -> Value {
    let a64: Vec<f64> = (0..n * n)
        .map(|i| ((i * 37 % 101) as f64) / 101.0)
        .collect();
    let b64: Vec<f64> = (0..n * n).map(|i| ((i * 53 % 89) as f64) / 89.0).collect();
    let mut c64 = vec![0.0f64; n * n];
    let t64 = time_ms(
        || gemm(n, n, n, &a64, false, &b64, false, &mut c64, false),
        budget_s,
        200,
    );
    let a32: Vec<f32> = a64.iter().map(|&v| v as f32).collect();
    let b32: Vec<f32> = b64.iter().map(|&v| v as f32).collect();
    let mut c32 = vec![0.0f32; n * n];
    let t32 = time_ms(
        || gemm(n, n, n, &a32, false, &b32, false, &mut c32, false),
        budget_s,
        200,
    );
    let gflop = 2.0 * (n as f64).powi(3) / 1e9;
    json!({
        "name": format!("gemm_{n}"),
        "f64_ms": t64,
        "f32_ms": t32,
        "f64_gflops": gflop / (t64 / 1e3),
        "f32_gflops": gflop / (t32 / 1e3),
        "f32_speedup": t64 / t32,
    })
}

fn unet_case(name: &str, two_d: bool, n: usize, budget_s: f64) -> Value {
    let net = UNet::new(UNetConfig {
        two_d,
        depth: 2,
        base_filters: 8,
        seed: 7,
        ..Default::default()
    });
    let shared = net.share().expect("UNet has a shared view");
    let shared32 = net.share_f32().expect("UNet has an f32 view");
    let dims = if two_d {
        vec![1, 1, 1, n, n]
    } else {
        vec![1, 1, n, n, n]
    };
    let vol: usize = dims.iter().product();
    let x = Tensor::from_vec(
        dims.clone(),
        (0..vol)
            .map(|i| ((i * 31 % 67) as f64) / 67.0 + 0.5)
            .collect::<Vec<f64>>(),
    );
    let x32 = x.cast::<f32>();
    let mut ws = Workspace::new();
    let mut ws32 = Workspace::<f32>::new();
    let y64 = shared.infer(&x, &mut ws);
    let y32 = shared32.infer(&x32, &mut ws32);
    let worst = y64
        .as_slice()
        .iter()
        .zip(y32.as_slice())
        .map(|(a, &b)| (a - f64::from(b)).abs())
        .fold(0.0f64, f64::max);
    let t64 = time_ms(
        || {
            let _ = shared.infer(&x, &mut ws);
        },
        budget_s,
        50,
    );
    let t32 = time_ms(
        || {
            let _ = shared32.infer(&x32, &mut ws32);
        },
        budget_s,
        50,
    );
    json!({
        "name": name,
        "f64_ms": t64,
        "f32_ms": t32,
        "f32_speedup": t64 / t32,
        "f32_max_abs_dev": worst,
        "f32_tol": <f32 as Element>::EQUIV_TOL,
    })
}

/// Variable diffusivity over a dims-shaped grid.
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

fn certified_case(name: &str, dims: &[usize], tol: f64) -> Value {
    let nu = nu_field(dims);
    let sys = ErasedSystem::poisson(dims, &nu).expect("system");
    let opts = CertifyOptions {
        tol,
        ..Default::default()
    };
    let run = |precision: Precision, label: &str| {
        let t_build = Instant::now();
        let hier =
            ErasedHierarchy::build_with_precision(&sys, HierarchyOptions::default(), precision)
                .expect("hierarchy");
        let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
        let t_solve = Instant::now();
        let sol = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &opts,
        );
        let solve_ms = t_solve.elapsed().as_secs_f64() * 1e3;
        assert!(
            sol.converged,
            "{name}/{label}: certified solve failed to reach {tol}"
        );
        (build_ms, solve_ms, sol)
    };
    let (f64_build, f64_solve, sol64) = run(Precision::F64, "f64");
    let (mix_build, mix_solve, solm) = run(Precision::Mixed, "mixed");
    let norm: f64 = sol64.u.iter().map(|x| x * x).sum::<f64>().sqrt();
    let diff: f64 = sol64
        .u
        .iter()
        .zip(&solm.u)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let rel = diff / norm.max(f64::MIN_POSITIVE);
    assert!(
        rel < 1e-6,
        "{name}: mixed solution diverged from f64 (rel {rel})"
    );
    json!({
        "name": name,
        "tol": tol,
        "f64_build_ms": f64_build,
        "f64_solve_ms": f64_solve,
        "f64_outer_iters": sol64.iterations,
        "f64_rel_residual": sol64.rel_residual,
        "mixed_build_ms": mix_build,
        "mixed_solve_ms": mix_solve,
        "mixed_outer_iters": solm.iterations,
        "mixed_rel_residual": solm.rel_residual,
        "mixed_speedup": f64_solve / mix_solve,
        "solution_rel_l2_diff": rel,
    })
}

fn main() {
    let mut quick = false;
    let mut out_path = "results/BENCH_precision.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => out_path = other.to_string(),
        }
    }
    let budget = if quick { 0.2 } else { 1.5 };

    let mut gemms = vec![gemm_case(256, budget)];
    if !quick {
        gemms.push(gemm_case(512, budget));
        gemms.push(gemm_case(1024, budget));
    }
    eprintln!("gemm cases done");

    let mut forwards = vec![unet_case("unet2d_64", true, 64, budget)];
    if !quick {
        forwards.push(unet_case("unet2d_128", true, 128, budget));
        forwards.push(unet_case("unet3d_32", false, 32, budget));
    }
    eprintln!("unet cases done");

    let mut certified = vec![certified_case("poisson2d_64", &[64, 64], 1e-8)];
    if !quick {
        certified.push(certified_case("poisson2d_128", &[128, 128], 1e-8));
        certified.push(certified_case("poisson3d_32", &[32, 32, 32], 1e-8));
    }
    eprintln!("certified cases done");

    let report = json!({
        "bench": "precision",
        "mode": if quick { "quick" } else { "full" },
        "gemm": gemms,
        "unet_forward": forwards,
        "certified": certified,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&out_path, &rendered).expect("write report");
    println!("{rendered}");
    eprintln!("wrote {out_path}");

    // Gate: the report doubles as a smoke test — the f32 forward must sit
    // inside the documented tolerance and the f32 GEMM must actually be
    // faster (it is the whole point of the fast path).
    for case in report["unet_forward"].as_array().expect("array") {
        let name = case["name"].as_str().unwrap_or("?");
        let dev = case["f32_max_abs_dev"].as_f64().unwrap_or(f64::NAN);
        let tol = case["f32_tol"].as_f64().unwrap_or(0.0);
        assert!(dev < tol, "{name}: f32 forward deviates {dev} (tol {tol})");
    }
    for case in report["gemm"].as_array().expect("array") {
        let name = case["name"].as_str().unwrap_or("?");
        let s = case["f32_speedup"].as_f64().unwrap_or(0.0);
        assert!(s > 1.0, "{name}: f32 GEMM slower than f64 ({s}x)");
    }
    eprintln!("precision gates passed");
}
