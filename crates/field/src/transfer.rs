//! Grid-transfer operators between nodal resolutions.
//!
//! Multilinear resampling moves discrete fields between multigrid levels of
//! the training hierarchy (paper §3.1.2). Both grids are uniform over
//! `[0,1]^d` with nodes at `k / (n - 1)`; resampling is exact for
//! multilinear functions, so prolongation of a coarse field and restriction
//! of a fine field are consistent with the FEM basis used by the loss.

use mgd_tensor::par::maybe_par_rows;
use mgd_tensor::Tensor;

/// Multilinear resampling of a nodal field to a new resolution.
///
/// Supports rank-2 `(ny, nx)` and rank-3 `(nz, ny, nx)` fields; upsampling
/// and downsampling are both just interpolation at the target nodes (the
/// analytic fields of this paper are smooth, so no anti-alias prefilter is
/// applied; block-average coarsening is available as [`coarsen_average`]).
pub fn resample(field: &Tensor, to_dims: &[usize]) -> Tensor {
    match (field.dims(), to_dims) {
        (&[sy, sx], &[ty, tx]) => {
            let mut out = Tensor::zeros([ty, tx]);
            let src = field.as_slice();
            maybe_par_rows(out.as_mut_slice(), tx, |j, row| {
                let y = axis_pos(j, ty, sy);
                for (i, v) in row.iter_mut().enumerate() {
                    let x = axis_pos(i, tx, sx);
                    *v = bilinear(src, sy, sx, y, x);
                }
            });
            out
        }
        (&[sz, sy, sx], &[tz, ty, tx]) => {
            let mut out = Tensor::zeros([tz, ty, tx]);
            let src = field.as_slice();
            maybe_par_rows(out.as_mut_slice(), tx, |kj, row| {
                let k = kj / ty;
                let j = kj % ty;
                let z = axis_pos(k, tz, sz);
                let y = axis_pos(j, ty, sy);
                for (i, v) in row.iter_mut().enumerate() {
                    let x = axis_pos(i, tx, sx);
                    *v = trilinear(src, sz, sy, sx, z, y, x);
                }
            });
            out
        }
        (s, t) => panic!("resample: unsupported ranks {s:?} -> {t:?}"),
    }
}

/// Block-average coarsening by a factor of 2 along every axis.
///
/// Requires every extent to be even; produces extents halved. Used for ν
/// maps when a smoothing restriction is preferred over pointwise sampling.
pub fn coarsen_average(field: &Tensor) -> Tensor {
    match field.dims() {
        &[ny, nx] => {
            assert!(ny % 2 == 0 && nx % 2 == 0, "extents must be even");
            let (cy, cx) = (ny / 2, nx / 2);
            let mut out = Tensor::zeros([cy, cx]);
            let src = field.as_slice();
            for j in 0..cy {
                for i in 0..cx {
                    let mut s = 0.0;
                    for dj in 0..2 {
                        for di in 0..2 {
                            s += src[(2 * j + dj) * nx + 2 * i + di];
                        }
                    }
                    *out.at_mut(&[j, i]) = s * 0.25;
                }
            }
            out
        }
        &[nz, ny, nx] => {
            assert!(
                nz % 2 == 0 && ny % 2 == 0 && nx % 2 == 0,
                "extents must be even"
            );
            let (cz, cy, cx) = (nz / 2, ny / 2, nx / 2);
            let mut out = Tensor::zeros([cz, cy, cx]);
            let src = field.as_slice();
            for k in 0..cz {
                for j in 0..cy {
                    for i in 0..cx {
                        let mut s = 0.0;
                        for dk in 0..2 {
                            for dj in 0..2 {
                                for di in 0..2 {
                                    s += src[((2 * k + dk) * ny + 2 * j + dj) * nx + 2 * i + di];
                                }
                            }
                        }
                        *out.at_mut(&[k, j, i]) = s * 0.125;
                    }
                }
            }
            out
        }
        d => panic!("coarsen_average: unsupported rank {d:?}"),
    }
}

/// Position of target node `i` (of `tn`) in source index coordinates (of `sn`).
#[inline]
fn axis_pos(i: usize, tn: usize, sn: usize) -> f64 {
    if tn <= 1 {
        0.0
    } else {
        i as f64 / (tn - 1) as f64 * (sn - 1) as f64
    }
}

#[inline]
fn split(p: f64, n: usize) -> (usize, usize, f64) {
    let i0 = (p.floor() as usize).min(n.saturating_sub(2));
    let i1 = (i0 + 1).min(n - 1);
    (i0, i1, p - i0 as f64)
}

#[inline]
fn bilinear(src: &[f64], ny: usize, nx: usize, y: f64, x: f64) -> f64 {
    let (j0, j1, fy) = split(y, ny);
    let (i0, i1, fx) = split(x, nx);
    let a = src[j0 * nx + i0] * (1.0 - fx) + src[j0 * nx + i1] * fx;
    let b = src[j1 * nx + i0] * (1.0 - fx) + src[j1 * nx + i1] * fx;
    a * (1.0 - fy) + b * fy
}

#[inline]
fn trilinear(src: &[f64], nz: usize, ny: usize, nx: usize, z: f64, y: f64, x: f64) -> f64 {
    let (k0, k1, fz) = split(z, nz);
    let plane = |k: usize| bilinear(&src[k * ny * nx..(k + 1) * ny * nx], ny, nx, y, x);
    plane(k0) * (1.0 - fz) + plane(k1) * fz
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_field_2d(ny: usize, nx: usize) -> Tensor {
        let mut t = Tensor::zeros([ny, nx]);
        for j in 0..ny {
            for i in 0..nx {
                let x = i as f64 / (nx - 1) as f64;
                let y = j as f64 / (ny - 1) as f64;
                *t.at_mut(&[j, i]) = 2.0 * x - 3.0 * y + 1.0;
            }
        }
        t
    }

    #[test]
    fn resample_exact_for_linear_2d() {
        let f = linear_field_2d(8, 8);
        for &(ty, tx) in &[(4usize, 4usize), (16, 16), (8, 16), (5, 13)] {
            let r = resample(&f, &[ty, tx]);
            let want = linear_field_2d(ty, tx);
            assert!(r.rel_l2_error(&want) < 1e-12, "{ty}x{tx}");
        }
    }

    #[test]
    fn resample_identity_at_same_dims() {
        let f = linear_field_2d(6, 7);
        let r = resample(&f, &[6, 7]);
        assert!(r.rel_l2_error(&f) < 1e-14);
    }

    #[test]
    fn resample_preserves_constants_3d() {
        let f = Tensor::full([4, 4, 4], 3.5);
        let r = resample(&f, &[7, 5, 9]);
        assert_eq!(r.dims(), &[7, 5, 9]);
        for i in 0..r.len() {
            assert!((r[i] - 3.5).abs() < 1e-14);
        }
    }

    #[test]
    fn resample_exact_for_trilinear_3d() {
        let mk = |nz: usize, ny: usize, nx: usize| {
            let mut t = Tensor::zeros([nz, ny, nx]);
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        let x = i as f64 / (nx - 1) as f64;
                        let y = j as f64 / (ny - 1) as f64;
                        let z = k as f64 / (nz - 1) as f64;
                        *t.at_mut(&[k, j, i]) = x + 2.0 * y - z + 0.5;
                    }
                }
            }
            t
        };
        let f = mk(4, 6, 8);
        let r = resample(&f, &[8, 3, 5]);
        let want = mk(8, 3, 5);
        assert!(r.rel_l2_error(&want) < 1e-12);
    }

    #[test]
    fn down_then_up_roundtrip_is_close_for_smooth_field() {
        // Smooth (low-frequency) fields survive a V-shaped resample well.
        let ny = 33;
        let mut f = Tensor::zeros([ny, ny]);
        for j in 0..ny {
            for i in 0..ny {
                let x = i as f64 / (ny - 1) as f64;
                let y = j as f64 / (ny - 1) as f64;
                *f.at_mut(&[j, i]) =
                    (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).cos();
            }
        }
        let down = resample(&f, &[17, 17]);
        let up = resample(&down, &[33, 33]);
        assert!(up.rel_l2_error(&f) < 0.02);
    }

    #[test]
    fn coarsen_average_2d() {
        let f = Tensor::from_vec([2, 4], vec![1.0, 3.0, 5.0, 7.0, 1.0, 3.0, 5.0, 7.0]);
        let c = coarsen_average(&f);
        assert_eq!(c.dims(), &[1, 2]);
        assert_eq!(c.as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn coarsen_average_3d_preserves_mean() {
        let mut f = Tensor::zeros([4, 4, 4]);
        for i in 0..f.len() {
            f[i] = (i % 7) as f64;
        }
        let c = coarsen_average(&f);
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert!((c.mean() - f.mean()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn coarsen_average_odd_panics() {
        let _ = coarsen_average(&Tensor::zeros([3, 4]));
    }
}
