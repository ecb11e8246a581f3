//! ω-indexed datasets of parametric diffusivity maps.
//!
//! The training data of the paper is not stored fields but *parameters*: a
//! Sobol sample of ω ∈ [−3,3]⁴ (65,536 points for the 2D studies, 1,024 for
//! 256³). Fields are rasterized on demand at whatever multigrid level is
//! being trained, which is what makes the multigrid hierarchy cheap.

use crate::aniso::Anisotropy;
use crate::diffusivity::DiffusivityModel;
use crate::sobol::Sobol;
use crate::OMEGA_RANGE;
use mgd_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Typed failures of the data layer (rasterization, batching, sampling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldError {
    /// Spatial dims must be rank 2 (`[ny, nx]`) or 3 (`[nz, ny, nx]`).
    BadRank {
        /// Rank received.
        got: usize,
    },
    /// A sample index exceeded the dataset size.
    SampleOutOfRange {
        /// Offending index.
        sample: usize,
        /// Dataset length.
        len: usize,
    },
    /// An ω vector's dimension disagreed with the diffusivity model.
    OmegaDimMismatch {
        /// Dimension received.
        got: usize,
        /// Dimension the model expects.
        expected: usize,
    },
    /// A batch entry's spatial shape disagreed with the others.
    ShapeMismatch {
        /// Shape of the offending entry.
        got: Vec<usize>,
        /// Shape required.
        expected: Vec<usize>,
    },
    /// An empty batch or dataset where at least one element is required.
    Empty,
    /// Anisotropy knobs that cannot yield an SPD tensor field.
    InvalidAnisotropy {
        /// What was wrong (human-readable).
        reason: &'static str,
    },
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::BadRank { got } => {
                write!(f, "expected 2 or 3 spatial dims, got rank {got}")
            }
            FieldError::SampleOutOfRange { sample, len } => {
                write!(f, "sample index {sample} out of range for dataset of {len}")
            }
            FieldError::OmegaDimMismatch { got, expected } => {
                write!(
                    f,
                    "omega has {got} modes, diffusivity model expects {expected}"
                )
            }
            FieldError::ShapeMismatch { got, expected } => {
                write!(
                    f,
                    "field shape {got:?} does not match expected {expected:?}"
                )
            }
            FieldError::Empty => write!(f, "empty batch/dataset"),
            FieldError::InvalidAnisotropy { reason } => {
                write!(f, "invalid anisotropy: {reason}")
            }
        }
    }
}

impl std::error::Error for FieldError {}

/// Stacks per-sample spatial fields (`[ny, nx]` or `[nz, ny, nx]`, all
/// identical shapes) into one NCDHW batch tensor `[B, 1, (nz,) ny, nx]` —
/// the batched-inference entry point: N requests become one tensor pass.
pub fn stack_fields(fields: &[Tensor]) -> Result<Tensor, FieldError> {
    let first = fields.first().ok_or(FieldError::Empty)?;
    let rank = first.dims().len();
    if rank != 2 && rank != 3 {
        return Err(FieldError::BadRank { got: rank });
    }
    stack_fields_with(fields, rank)
}

/// [`stack_fields`] with an explicit spatial rank, resolving the
/// channel/depth ambiguity of rank-3 per-sample tensors: with
/// `spatial_rank == 2` a `[C, ny, nx]` field stacks to `[B, C, 1, ny, nx]`
/// (multi-channel 2D, e.g. tensor coefficients); with `spatial_rank == 3`
/// the same shape is read as `[nz, ny, nx]` single-channel 3D. Rank-4
/// fields are always `[C, nz, ny, nx]`.
pub fn stack_fields_with(fields: &[Tensor], spatial_rank: usize) -> Result<Tensor, FieldError> {
    let first = fields.first().ok_or(FieldError::Empty)?;
    let dims = first.dims().to_vec();
    if spatial_rank != 2 && spatial_rank != 3 {
        return Err(FieldError::BadRank { got: spatial_rank });
    }
    let mut out = match (spatial_rank, &dims[..]) {
        (2, [ny, nx]) => Tensor::zeros([fields.len(), 1, 1, *ny, *nx]),
        (2, [c, ny, nx]) => Tensor::zeros([fields.len(), *c, 1, *ny, *nx]),
        (3, [nz, ny, nx]) => Tensor::zeros([fields.len(), 1, *nz, *ny, *nx]),
        (3, [c, nz, ny, nx]) => Tensor::zeros([fields.len(), *c, *nz, *ny, *nx]),
        _ => return Err(FieldError::BadRank { got: dims.len() }),
    };
    let vol: usize = dims.iter().product();
    for (i, fld) in fields.iter().enumerate() {
        if fld.dims() != &dims[..] {
            return Err(FieldError::ShapeMismatch {
                got: fld.dims().to_vec(),
                expected: dims,
            });
        }
        out.as_mut_slice()[i * vol..(i + 1) * vol].copy_from_slice(fld.as_slice());
    }
    Ok(out)
}

/// What the network sees as its input channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputEncoding {
    /// `log ν` — the bounded KL-expansion field (default).
    LogNu,
    /// Raw ν = exp(log ν); spans orders of magnitude.
    RawNu,
}

impl InputEncoding {
    /// Encodes a raw coefficient field ν into the network's input channel
    /// (identity for [`InputEncoding::RawNu`], elementwise `ln` for
    /// [`InputEncoding::LogNu`]). Used by serving paths that receive ν
    /// fields directly rather than ω parameters.
    pub fn encode(&self, nu: &Tensor) -> Tensor {
        match self {
            InputEncoding::RawNu => nu.clone(),
            InputEncoding::LogNu => {
                let mut out = nu.clone();
                for v in out.as_mut_slice() {
                    *v = v.ln();
                }
                out
            }
        }
    }

    /// Encodes a coefficient block with `ncomp` channels. One channel
    /// delegates to [`encode`](Self::encode) (bitwise-identical scalar
    /// path); multi-channel `LogNu` uses `asinh` per entry instead of `ln`
    /// because tensor off-diagonals are zero or negative where `ln` is
    /// undefined, while `asinh` is log-like for large magnitudes and
    /// smooth through zero.
    pub fn encode_coeff(&self, coeff: &Tensor, ncomp: usize) -> Tensor {
        if ncomp <= 1 {
            return self.encode(coeff);
        }
        match self {
            InputEncoding::RawNu => coeff.clone(),
            InputEncoding::LogNu => {
                let mut out = coeff.clone();
                for v in out.as_mut_slice() {
                    *v = v.asinh();
                }
                out
            }
        }
    }
}

/// A set of PDE-parameter samples with on-demand rasterization.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The parameter vectors ω.
    pub omegas: Vec<Vec<f64>>,
    /// The diffusivity model shared by all samples.
    pub model: DiffusivityModel,
    /// Input encoding for network consumption.
    pub encoding: InputEncoding,
    /// Optional anisotropy: when set, coefficient fields are symmetric
    /// tensors derived from the scalar KL field.
    pub aniso: Option<Anisotropy>,
}

impl Dataset {
    /// Sobol-samples `n` parameter vectors in the paper's box [−3,3]^m.
    pub fn sobol(n: usize, model: DiffusivityModel, encoding: InputEncoding) -> Self {
        let mut sobol = Sobol::new(model.num_modes());
        let omegas = sobol.take_in_box(n, OMEGA_RANGE.0, OMEGA_RANGE.1);
        Dataset {
            omegas,
            model,
            encoding,
            aniso: None,
        }
    }

    /// Dataset from explicit ω vectors (e.g. the paper's anecdotal values).
    pub fn from_omegas(
        omegas: Vec<Vec<f64>>,
        model: DiffusivityModel,
        encoding: InputEncoding,
    ) -> Self {
        for om in &omegas {
            assert_eq!(om.len(), model.num_modes(), "omega dimension mismatch");
        }
        Dataset {
            omegas,
            model,
            encoding,
            aniso: None,
        }
    }

    /// Attaches anisotropy knobs (validated), turning every coefficient
    /// field into a symmetric tensor field.
    pub fn with_anisotropy(mut self, aniso: Anisotropy) -> Result<Self, FieldError> {
        aniso.validate()?;
        self.aniso = Some(aniso);
        Ok(self)
    }

    /// Coefficient components per node for `rank` spatial dims (1 for the
    /// scalar model, `rank(rank+1)/2` with anisotropy attached).
    pub fn ncomp(&self, rank: usize) -> usize {
        match self.aniso {
            Some(_) => Anisotropy::ncomp(rank),
            None => 1,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.omegas.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.omegas.is_empty()
    }

    /// Deterministic epoch shuffle: every worker derives the identical
    /// permutation from `(seed, epoch)`, which the Eq. 15 sharding invariant
    /// relies on.
    pub fn epoch_permutation(&self, seed: u64, epoch: u64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.omegas.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        idx.shuffle(&mut rng);
        idx
    }

    /// Rasterizes the input field for one sample on nodal `dims`
    /// (`[ny, nx]` or `[nz, ny, nx]`). With anisotropy attached the result
    /// gains a leading channel axis (`[C, spatial...]`) and multi-channel
    /// encoding ([`InputEncoding::encode_coeff`]).
    pub fn input_field(&self, sample: usize, dims: &[usize]) -> Tensor {
        if self.aniso.is_some() {
            let nu = self.nu_field(sample, dims);
            return self.encoding.encode_coeff(&nu, self.ncomp(dims.len()));
        }
        let om = &self.omegas[sample];
        match self.encoding {
            InputEncoding::LogNu => self.model.rasterize_log(om, dims),
            InputEncoding::RawNu => self.model.rasterize(om, dims),
        }
    }

    /// Rasterizes the *coefficient* field (always raw) used by the FEM
    /// energy loss, independent of the network input encoding: `[spatial]`
    /// scalar ν, or component-major `[C, spatial...]` tensor components
    /// when anisotropy is attached.
    pub fn nu_field(&self, sample: usize, dims: &[usize]) -> Tensor {
        let scalar = self.model.rasterize(&self.omegas[sample], dims);
        match self.aniso {
            None => scalar,
            Some(a) => tensorize(&scalar, a, dims),
        }
    }

    /// Rasterizes a batch of samples into an NCDHW tensor
    /// `[B, C, (nz,) ny, nx]` whose channel axis is [`Self::ncomp`] wide (the
    /// trainer/serving hot path). 2D grids get a unit depth axis so 2D and
    /// 3D share the conv kernels.
    pub fn try_batch_inputs(
        &self,
        samples: &[usize],
        dims: &[usize],
    ) -> Result<Tensor, FieldError> {
        self.check_samples(samples)?;
        if dims.len() != 2 && dims.len() != 3 {
            return Err(FieldError::BadRank { got: dims.len() });
        }
        let vol: usize = dims.iter().product::<usize>() * self.ncomp(dims.len());
        let fields = mgd_tensor::par::maybe_par_map_collect(samples.len(), vol, |i| {
            self.input_field(samples[i], dims)
        });
        stack_fields_with(&fields, dims.len())
    }

    /// Rasterizes the ν fields for a batch, one `[spatial...]` (scalar) or
    /// `[C, spatial...]` (tensor) field per sample (the energy-loss hot
    /// path).
    pub fn try_batch_nu(
        &self,
        samples: &[usize],
        dims: &[usize],
    ) -> Result<Vec<Tensor>, FieldError> {
        self.check_samples(samples)?;
        if dims.len() != 2 && dims.len() != 3 {
            return Err(FieldError::BadRank { got: dims.len() });
        }
        let vol: usize = dims.iter().product();
        Ok(mgd_tensor::par::maybe_par_map_collect(
            samples.len(),
            vol,
            |i| self.nu_field(samples[i], dims),
        ))
    }

    fn check_samples(&self, samples: &[usize]) -> Result<(), FieldError> {
        if samples.is_empty() {
            return Err(FieldError::Empty);
        }
        for &s in samples {
            if s >= self.omegas.len() {
                return Err(FieldError::SampleOutOfRange {
                    sample: s,
                    len: self.omegas.len(),
                });
            }
        }
        Ok(())
    }
}

/// Expands a scalar field `[spatial...]` into component-major symmetric
/// tensor planes `[C, spatial...]` under the given anisotropy.
pub fn tensorize(scalar: &Tensor, a: Anisotropy, dims: &[usize]) -> Tensor {
    let rank = dims.len();
    let nc = Anisotropy::ncomp(rank);
    let vol: usize = dims.iter().product();
    let mut shape = Vec::with_capacity(rank + 1);
    shape.push(nc);
    shape.extend_from_slice(dims);
    let mut out = Tensor::zeros(shape);
    let data = out.as_mut_slice();
    let mut t = [0.0; 6];
    for (i, &s) in scalar.as_slice().iter().enumerate() {
        a.tensor_components(s, rank, &mut t);
        for (c, &tc) in t.iter().enumerate().take(nc) {
            data[c * vol + i] = tc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusivity::DiffusivityModel;

    fn ds(n: usize) -> Dataset {
        Dataset::sobol(n, DiffusivityModel::paper(), InputEncoding::LogNu)
    }

    #[test]
    fn sobol_dataset_in_box() {
        let d = ds(64);
        assert_eq!(d.len(), 64);
        for om in &d.omegas {
            assert_eq!(om.len(), 4);
            assert!(om.iter().all(|&w| (-3.0..3.0).contains(&w)));
        }
    }

    #[test]
    fn permutation_is_deterministic_and_epoch_dependent() {
        let d = ds(32);
        let p1 = d.epoch_permutation(7, 0);
        let p2 = d.epoch_permutation(7, 0);
        let p3 = d.epoch_permutation(7, 1);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn batch_inputs_shape_2d_and_3d() {
        let d = ds(4);
        let b2 = d.try_batch_inputs(&[0, 1, 2], &[8, 8]).unwrap();
        assert_eq!(b2.dims(), &[3, 1, 1, 8, 8]);
        let b3 = d.try_batch_inputs(&[0, 1], &[4, 8, 8]).unwrap();
        assert_eq!(b3.dims(), &[2, 1, 4, 8, 8]);
    }

    #[test]
    fn batch_inputs_matches_single_rasterization() {
        let d = ds(3);
        let b = d.try_batch_inputs(&[2, 0], &[8, 8]).unwrap();
        let f2 = d.input_field(2, &[8, 8]);
        let f0 = d.input_field(0, &[8, 8]);
        assert_eq!(&b.as_slice()[0..64], f2.as_slice());
        assert_eq!(&b.as_slice()[64..128], f0.as_slice());
    }

    #[test]
    fn stack_fields_matches_batch_inputs() {
        let d = ds(3);
        let fields: Vec<Tensor> = (0..3).map(|s| d.input_field(s, &[8, 8])).collect();
        let stacked = stack_fields(&fields).unwrap();
        assert_eq!(stacked, d.try_batch_inputs(&[0, 1, 2], &[8, 8]).unwrap());
    }

    #[test]
    fn stack_fields_rejects_bad_input() {
        assert_eq!(stack_fields(&[]), Err(FieldError::Empty));
        let a = Tensor::ones([4, 4]);
        let b = Tensor::ones([8, 8]);
        assert!(matches!(
            stack_fields(&[a.clone(), b]),
            Err(FieldError::ShapeMismatch { .. })
        ));
        let r1 = Tensor::ones([4]);
        assert_eq!(stack_fields(&[r1]), Err(FieldError::BadRank { got: 1 }));
        let _ = a;
    }

    #[test]
    fn try_batch_inputs_reports_typed_errors() {
        let d = ds(2);
        assert!(matches!(
            d.try_batch_inputs(&[5], &[8, 8]),
            Err(FieldError::SampleOutOfRange { sample: 5, len: 2 })
        ));
        assert!(matches!(
            d.try_batch_inputs(&[0], &[8]),
            Err(FieldError::BadRank { got: 1 })
        ));
        assert!(d.try_batch_inputs(&[0, 1], &[8, 8]).is_ok());
    }

    #[test]
    fn aniso_fields_gain_channel_axis() {
        let d = ds(3)
            .with_anisotropy(Anisotropy::new(4.0, 0.5).unwrap())
            .unwrap();
        assert_eq!(d.ncomp(2), 3);
        assert_eq!(d.ncomp(3), 6);
        let nu = d.nu_field(0, &[8, 8]);
        assert_eq!(nu.dims(), &[3, 8, 8]);
        let inp = d.input_field(0, &[8, 8]);
        assert_eq!(inp.dims(), &[3, 8, 8]);
        let b = d.try_batch_inputs(&[0, 1], &[8, 8]).unwrap();
        assert_eq!(b.dims(), &[2, 3, 1, 8, 8]);
        let b3 = d.try_batch_inputs(&[0], &[4, 8, 8]).unwrap();
        assert_eq!(b3.dims(), &[1, 6, 4, 8, 8]);
    }

    #[test]
    fn aniso_components_match_scalar_rotation() {
        let a = Anisotropy::new(3.0, 0.4).unwrap();
        let d = ds(1).with_anisotropy(a).unwrap();
        let scalar = d.model.rasterize(&d.omegas[0], &[8, 8]);
        let nu = d.nu_field(0, &[8, 8]);
        let vol = 64;
        let mut t = [0.0; 3];
        for i in (0..vol).step_by(7) {
            a.tensor_components(scalar[i], 2, &mut t);
            for c in 0..3 {
                assert_eq!(nu.as_slice()[c * vol + i].to_bits(), t[c].to_bits());
            }
        }
    }

    #[test]
    fn multi_channel_lognu_uses_asinh() {
        let d = ds(1)
            .with_anisotropy(Anisotropy::new(2.0, 0.3).unwrap())
            .unwrap();
        let nu = d.nu_field(0, &[8, 8]);
        let inp = d.input_field(0, &[8, 8]);
        for i in 0..nu.len() {
            assert!((inp.as_slice()[i] - nu.as_slice()[i].asinh()).abs() < 1e-15);
        }
    }

    #[test]
    fn encode_maps_nu_to_network_input() {
        let d = ds(1);
        let nu = d.nu_field(0, &[8, 8]);
        let enc = InputEncoding::LogNu.encode(&nu);
        let direct = d.input_field(0, &[8, 8]);
        for i in 0..enc.len() {
            assert!((enc[i] - direct[i]).abs() < 1e-12);
        }
        assert_eq!(InputEncoding::RawNu.encode(&nu).as_slice(), nu.as_slice());
    }

    #[test]
    fn encoding_changes_input_not_nu() {
        let mut d = ds(2);
        let log_in = d.input_field(0, &[8, 8]);
        d.encoding = InputEncoding::RawNu;
        let raw_in = d.input_field(0, &[8, 8]);
        for i in 0..log_in.len() {
            assert!((raw_in[i] - log_in[i].exp()).abs() < 1e-12);
        }
        let nu = d.nu_field(0, &[8, 8]);
        assert_eq!(nu.as_slice(), raw_in.as_slice());
    }
}
