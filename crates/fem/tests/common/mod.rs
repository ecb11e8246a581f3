//! Deterministic random fields shared by `tests/proptests.rs` and the
//! crate's unit tests (`src/lib.rs` includes this file by path).

use super::PdeOperator;

/// `n` values in `[lo, hi)` hashed from `seed`.
pub fn field(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed.wrapping_mul(0xD1B54A32D192ED03));
            lo + (hi - lo) * ((h >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// Random SPD coefficient block for `op`: scalar ν, or per node
/// `T = L Lᵀ + 0.1 I` from a random lower-triangular `L`.
pub fn spd_coeff<const D: usize>(op: PdeOperator, nn: usize, seed: u64) -> Vec<f64> {
    if op == PdeOperator::Poisson {
        return field(nn, seed, 0.1, 5.0);
    }
    let r = |k: u64, lo, hi| field(nn, seed.wrapping_mul(31).wrapping_add(k), lo, hi);
    let (l00, l11, l22) = (r(1, 0.5, 2.0), r(2, 0.5, 2.0), r(3, 0.5, 2.0));
    let (l10, l20, l21) = (r(4, -1.0, 1.0), r(5, -1.0, 1.0), r(6, -1.0, 1.0));
    let mut t = vec![0.0; op.ncomp(D) * nn];
    for i in 0..nn {
        let l = [
            [l00[i], 0.0, 0.0],
            [l10[i], l11[i], 0.0],
            [l20[i], l21[i], l22[i]],
        ];
        let tt = |a: usize, b: usize| {
            (0..D).map(|k| l[a][k] * l[b][k]).sum::<f64>() + if a == b { 0.1 } else { 0.0 }
        };
        let comps: &[(usize, usize)] = if D == 2 {
            &[(0, 0), (1, 1), (0, 1)]
        } else {
            &[(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
        };
        for (c, &(a, b)) in comps.iter().enumerate() {
            t[c * nn + i] = tt(a, b);
        }
    }
    t
}
