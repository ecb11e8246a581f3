//! The [`Model`] abstraction: what a trainable solver network must provide.
//!
//! The trainers and the `SolverEngine` facade in `mgdiffnet` are generic
//! over this trait instead of the concrete [`UNet`], so alternative
//! architectures (different backbones, learned multigrid operators per
//! *Neural Multigrid Architectures*, quantized inference networks) plug in
//! without touching the training loops. A `Box<dyn Model>` is itself a
//! `Model`, which is what lets the engine hold an architecture chosen at
//! runtime while the trainers stay statically generic.

use crate::layer::Layer;
use crate::spatial::SlabOpts;
use crate::unet::UNet;
use crate::workspace::Workspace;
use mgd_dist::{Comm, HaloElement};
use mgd_tensor::{Element, GemmElement, Tensor};
use std::sync::Arc;

/// A read-only, thread-shareable view of a trained model, generic over the
/// inference element type (default `f64`).
///
/// This is the serving-side counterpart of [`Model`]: `infer` takes `&self`
/// and keeps any per-call state in the caller's [`Workspace`], so one
/// `Arc<dyn InferModel>` can answer predictions from any number of threads
/// simultaneously — the contract the `EngineSnapshot` hot-swap publishing
/// in `mgdiffnet` is built on. `f64` implementations must be bitwise
/// identical to the exclusive `forward(x, false)` path of the same weights;
/// an `InferModel<f32>` view runs the same kernels at single precision
/// (one rounding away from the `f64` masters, half the memory traffic).
pub trait InferModel<E: Element = f64>: Send + Sync {
    /// Inference forward pass with caller-owned scratch.
    fn infer(&self, x: &Tensor<E>, ws: &mut Workspace<E>) -> Tensor<E>;
}

impl<E: GemmElement + HaloElement> InferModel<E> for UNet<E> {
    fn infer(&self, x: &Tensor<E>, ws: &mut Workspace<E>) -> Tensor<E> {
        UNet::infer(self, x, ws)
    }
}

/// A read-only, thread-shareable view of a model for **slab-decomposed**
/// serving, generic over the inference element type.
///
/// The spatial counterpart of [`InferModel`]: `infer_slab` takes `&self`
/// and caller-owned scratch, so one `Arc<dyn SlabModel>` can be shared by
/// every rank of a persistent pool — no per-request replicas, no mutex.
/// Obtained from [`Model::share_slab`] / [`Model::share_slab_f32`], which
/// also prepack the stencil GEMM panels once so every slab, layer, and
/// request reuses them.
pub trait SlabModel<E: Element = f64>: Send + Sync {
    /// Slab-size alignment along the split axis (the pool-alignment rule);
    /// never zero for a type implementing this trait.
    fn spatial_align(&self) -> usize;

    /// Slab-decomposed inference forward (collective across `comm`); see
    /// [`crate::spatial::infer_slab`].
    fn infer_slab(
        &self,
        slab: &Tensor<E>,
        comm: &dyn Comm,
        ws: &mut Workspace<E>,
        opts: &SlabOpts,
    ) -> Tensor<E>;
}

impl<E: GemmElement + HaloElement> SlabModel<E> for UNet<E> {
    fn spatial_align(&self) -> usize {
        1 << self.cfg.depth
    }

    fn infer_slab(
        &self,
        slab: &Tensor<E>,
        comm: &dyn Comm,
        ws: &mut Workspace<E>,
        opts: &SlabOpts,
    ) -> Tensor<E> {
        crate::spatial::infer_slab(self, slab, comm, ws, opts)
    }
}

/// A trainable network usable by the MGDiffNet trainers.
///
/// Everything gradient-related comes from [`Layer`] (forward/backward,
/// parameter and buffer access); `Model` adds the solver-level contract:
/// inference without training-time side effects and optional capacity
/// growth on multigrid refinement (§4.1.2 architectural adaptation).
pub trait Model: Layer {
    /// Inference forward pass (no batch-statistic updates, no activation
    /// caching beyond what the layer keeps anyway).
    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.forward(x, false)
    }

    /// Grows the model's capacity when multigrid training first moves to a
    /// finer level (the paper's architectural adaptation). Returns whether
    /// anything changed; the default is a fixed architecture.
    fn deepen(&mut self) -> bool {
        false
    }

    /// Deep copy of this model as a fresh boxed trait object.
    ///
    /// Data-parallel training replicates the model once per rank through
    /// this hook (each in-process worker owns its replica; a broadcast from
    /// rank 0 then makes the weights bitwise identical). For a `Clone`
    /// architecture the implementation is one line:
    /// `Box::new(self.clone())`.
    fn clone_model(&self) -> Box<dyn Model>;

    /// Slab-size alignment this model requires along the split axis for
    /// spatial (slab-decomposed) inference, or `0` when the architecture
    /// does not support it. The U-Net returns `2^depth` — the
    /// pool-alignment rule of [`crate::spatial`].
    fn spatial_align(&self) -> usize {
        0
    }

    /// Slab-decomposed inference forward: `slab` is this rank's contiguous
    /// slab of the input along the split axis, and every rank of `comm`
    /// calls this collectively. Returns the owned output slab, or `None`
    /// when the architecture does not support spatial decomposition
    /// ([`Self::spatial_align`] `== 0`).
    fn predict_slab(&mut self, slab: &Tensor, comm: &dyn Comm) -> Option<Tensor> {
        let _ = (slab, comm);
        None
    }

    /// Exports a read-only, thread-shareable copy of this model's current
    /// weights for concurrent serving, or `None` when the architecture has
    /// no `&self` inference path. The copy is a deep snapshot: later
    /// training steps on `self` do not affect it.
    ///
    /// Serving runs only on these views: the `SolverEngine` in `mgdiffnet`
    /// rejects, at build time, a model that lacks the view its precision
    /// and parallelism need (this one for f64 on one rank). Whether a
    /// `share*` method returns a view must not change with the weights: the
    /// engine re-exports the view after every weight change and panics if
    /// a view it built with has gone.
    fn share(&self) -> Option<Arc<dyn InferModel>> {
        None
    }

    /// Exports a **single-precision** read-only serving view: the current
    /// `f64` master weights converted once to `f32`, or `None` when the
    /// architecture has no `f32` inference path. Serving through this view
    /// halves weight/activation memory traffic; outputs differ from the
    /// `f64` path by accumulated rounding only (see the `Element`
    /// equivalence tolerances). Needed for f32 and mixed-precision serving
    /// on one rank; the contract of [`Self::share`] applies.
    fn share_f32(&self) -> Option<Arc<dyn InferModel<f32>>> {
        None
    }

    /// Exports a read-only, thread-shareable **slab-inference** snapshot
    /// (deep copy with GEMM weight panels prepacked), or `None` when the
    /// architecture does not support spatial decomposition. Needed for f64
    /// serving on more than one slab rank; the contract of [`Self::share`]
    /// applies.
    fn share_slab(&self) -> Option<Arc<dyn SlabModel>> {
        None
    }

    /// Single-precision counterpart of [`Self::share_slab`]: the `f64`
    /// masters converted once to `f32` and prepacked. Needed for f32 and
    /// mixed-precision serving on more than one slab rank.
    fn share_slab_f32(&self) -> Option<Arc<dyn SlabModel<f32>>> {
        None
    }
}

impl Model for UNet {
    fn deepen(&mut self) -> bool {
        *self = self.deepened();
        true
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn spatial_align(&self) -> usize {
        1 << self.cfg.depth
    }

    fn predict_slab(&mut self, slab: &Tensor, comm: &dyn Comm) -> Option<Tensor> {
        let mut ws = Workspace::new();
        Some(crate::spatial::infer_slab(
            self,
            slab,
            comm,
            &mut ws,
            &SlabOpts::default(),
        ))
    }

    fn share(&self) -> Option<Arc<dyn InferModel>> {
        Some(Arc::new(self.clone()))
    }

    fn share_f32(&self) -> Option<Arc<dyn InferModel<f32>>> {
        Some(Arc::new(self.to_f32()))
    }

    fn share_slab(&self) -> Option<Arc<dyn SlabModel>> {
        let mut snap = self.clone();
        snap.prepack();
        Some(Arc::new(snap))
    }

    fn share_slab_f32(&self) -> Option<Arc<dyn SlabModel<f32>>> {
        let mut snap = self.to_f32();
        snap.prepack();
        Some(Arc::new(snap))
    }
}

impl Layer for Box<dyn Model> {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        (**self).forward(x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        (**self).backward(grad_out)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        (**self).backward_params(grad_out)
    }

    fn params(&mut self) -> Vec<&mut crate::param::Param> {
        (**self).params()
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        (**self).buffers()
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl Model for Box<dyn Model> {
    fn predict(&mut self, x: &Tensor) -> Tensor {
        (**self).predict(x)
    }

    fn deepen(&mut self) -> bool {
        (**self).deepen()
    }

    fn clone_model(&self) -> Box<dyn Model> {
        (**self).clone_model()
    }

    fn spatial_align(&self) -> usize {
        (**self).spatial_align()
    }

    fn predict_slab(&mut self, slab: &Tensor, comm: &dyn Comm) -> Option<Tensor> {
        (**self).predict_slab(slab, comm)
    }

    fn share(&self) -> Option<Arc<dyn InferModel>> {
        (**self).share()
    }

    fn share_f32(&self) -> Option<Arc<dyn InferModel<f32>>> {
        (**self).share_f32()
    }

    fn share_slab(&self) -> Option<Arc<dyn SlabModel>> {
        (**self).share_slab()
    }

    fn share_slab_f32(&self) -> Option<Arc<dyn SlabModel<f32>>> {
        (**self).share_slab_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::UNetConfig;

    fn tiny() -> UNet {
        UNet::new(UNetConfig {
            depth: 1,
            base_filters: 2,
            two_d: true,
            seed: 11,
            ..Default::default()
        })
    }

    #[test]
    fn unet_is_a_model() {
        fn takes_model<M: Model>(m: &mut M) -> Tensor {
            m.predict(&Tensor::zeros([1, 1, 1, 4, 4]))
        }
        let mut net = tiny();
        let y = takes_model(&mut net);
        assert_eq!(y.dims(), &[1, 1, 1, 4, 4]);
    }

    #[test]
    fn boxed_model_delegates() {
        let mut boxed: Box<dyn Model> = Box::new(tiny());
        let y = boxed.predict(&Tensor::zeros([1, 1, 1, 4, 4]));
        assert_eq!(y.dims(), &[1, 1, 1, 4, 4]);
        assert!(boxed.name().starts_with("UNet"));
        assert!(boxed.deepen(), "UNet adaptation grows the net");
        // Depth 2 now: needs resolutions divisible by 4.
        let y = boxed.predict(&Tensor::zeros([1, 1, 1, 8, 8]));
        assert_eq!(y.dims(), &[1, 1, 1, 8, 8]);
    }

    #[test]
    fn deepen_matches_deepened() {
        let mut a = tiny();
        let b = a.deepened();
        assert!(Model::deepen(&mut a));
        assert_eq!(a.cfg, b.cfg);
    }
}
