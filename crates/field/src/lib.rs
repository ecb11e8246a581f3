//! Parametric coefficient fields and sampling for MGDiffNet.
//!
//! Implements the data side of the paper:
//! - [`sobol`]: a from-scratch Sobol quasi-random sequence (gray-code
//!   construction, Joe–Kuo direction numbers) — §4.1 samples the PDE
//!   parameter ω with "a quasi-random Sobol sampling methodology".
//! - [`diffusivity`]: the log-permeability expansion of paper Eq. 10,
//!   `ν(x; ω) = exp(Σ ωᵢ λᵢ ξᵢ(x) ηᵢ(y) [ζᵢ(z)])`, rasterized onto nodal
//!   grids at any multigrid resolution.
//! - [`dataset`]: ω-indexed datasets with deterministic shuffling, batch
//!   rasterization into NCDHW tensors, and padding for worker divisibility
//!   (paper §3.2: augment so `Ns` divides evenly among `p` workers).

pub mod aniso;
pub mod dataset;
pub mod diffusivity;
pub mod sobol;
pub mod vtk;

pub use aniso::Anisotropy;
pub use dataset::{stack_fields, stack_fields_with, tensorize, Dataset, FieldError, InputEncoding};
pub use diffusivity::{DiffusivityModel, ThreeDMode, OMEGA_RANGE, PAPER_MODES};
pub use sobol::Sobol;
