//! The MGDiffNet U-Net (paper §3.1.2 and §4.1).
//!
//! Fully convolutional: convolutions, factor-2 max-pool downsampling,
//! factor-2 transpose-convolution upsampling, skip connections by channel
//! concatenation, batch norm + LeakyReLU in every block, Sigmoid head.
//! Because no layer depends on the input resolution, one set of weights
//! serves every multigrid level — the property the whole training scheme is
//! built on. `depth` down/up stages with `base_filters · 2^i` channels
//! reproduce the paper's "starting filter size 16, doubled with depth".

use crate::act::{LeakyReLU, Sigmoid};
use crate::conv::Conv3d;
use crate::convt::ConvTranspose3d;
use crate::layer::{Dims5, Layer};
use crate::lowering::ConvBackend;
use crate::norm::BatchNorm;
use crate::param::Param;
use crate::pool::MaxPool3d;
use crate::workspace::Workspace;
use mgd_tensor::{Element, GemmElement, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct UNetConfig {
    /// Input channels (1: the coefficient field).
    pub in_channels: usize,
    /// Output channels (1: the solution field).
    pub out_channels: usize,
    /// Number of pool/upsample stages (paper: 3).
    pub depth: usize,
    /// Channels of the first encoder block (paper: 16).
    pub base_filters: usize,
    /// 2D mode: unit depth axis, `(1,k,k)` kernels, `(1,2,2)` pools.
    pub two_d: bool,
    /// LeakyReLU negative slope.
    pub leaky_slope: f64,
    /// Enable batch normalization (paper: yes).
    pub batch_norm: bool,
    /// Sigmoid on the head (paper: yes — predictions live in (0,1)).
    pub final_sigmoid: bool,
    /// Weight-init RNG seed (replicated across data-parallel workers so all
    /// replicas start identical).
    pub seed: u64,
    /// Convolution kernel implementation for every conv/transpose-conv
    /// layer (default [`ConvBackend::Gemm`]; `Direct` keeps the reference
    /// sliding-window loops for equivalence testing and bisection).
    #[serde(default)]
    pub conv_backend: ConvBackend,
}

impl Default for UNetConfig {
    fn default() -> Self {
        UNetConfig {
            in_channels: 1,
            out_channels: 1,
            depth: 3,
            base_filters: 16,
            two_d: false,
            leaky_slope: 0.01,
            batch_norm: true,
            final_sigmoid: true,
            seed: 0,
            conv_backend: ConvBackend::default(),
        }
    }
}

impl UNetConfig {
    /// The paper's 2D configuration.
    pub fn paper_2d() -> Self {
        UNetConfig {
            two_d: true,
            ..Default::default()
        }
    }

    /// The paper's 3D configuration.
    pub fn paper_3d() -> Self {
        UNetConfig::default()
    }

    /// Channel count of encoder level `i`.
    pub fn channels(&self, i: usize) -> usize {
        self.base_filters << i
    }
}

/// Conv → (BatchNorm) → LeakyReLU.
///
/// Generic over the inference element type; training always instantiates
/// the default `f64`.
#[derive(Clone, Debug)]
pub struct ConvBlock<E: Element = f64> {
    pub(crate) conv: Conv3d<E>,
    pub(crate) bn: Option<BatchNorm<E>>,
    pub(crate) act: LeakyReLU,
}

impl ConvBlock {
    fn new(in_c: usize, out_c: usize, cfg: &UNetConfig, rng: &mut StdRng) -> Self {
        let k = if cfg.two_d { (1, 3, 3) } else { (3, 3, 3) };
        ConvBlock {
            conv: Conv3d::same(in_c, out_c, k, rng).with_backend(cfg.conv_backend),
            bn: if cfg.batch_norm {
                Some(BatchNorm::new(out_c))
            } else {
                None
            },
            act: LeakyReLU::new(cfg.leaky_slope),
        }
    }
}

impl<E: Element> ConvBlock<E> {
    /// Converts every layer's weights to another element type (through
    /// `f64`); the copy carries no training state.
    pub fn cast_as<T: Element>(&self) -> ConvBlock<T> {
        ConvBlock {
            conv: self.conv.cast_as(),
            bn: self.bn.as_ref().map(|b| b.cast_as()),
            act: self.act.clone(),
        }
    }
}

impl<E: GemmElement> ConvBlock<E> {
    /// Shared-state inference forward through conv → (bn) → act, bitwise
    /// identical to `forward(x, false)` at the default `f64`.
    pub fn infer(&self, x: &Tensor<E>, ws: &mut Workspace<E>) -> Tensor<E> {
        let mut h = self.conv.infer(x, ws);
        if let Some(bn) = &self.bn {
            h = bn.infer(&h);
        }
        self.act.infer(&h)
    }

    /// Applies this block's post-conv stages (batch norm and LeakyReLU) to
    /// `h` in place: one fused memory walk, bitwise identical to
    /// `bn.infer` followed by `act.infer`, with zero allocations. The
    /// slab-serving path uses this so each block touches exactly one
    /// output tensor.
    pub fn finish_inplace(&self, h: &mut Tensor<E>) {
        match &self.bn {
            Some(bn) => bn.infer_leaky_inplace(h, self.act.alpha),
            None => self.act.infer_inplace(h),
        }
    }
}

impl Layer for ConvBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = self.conv.forward(x, train);
        if let Some(bn) = &mut self.bn {
            h = bn.forward(&h, train);
        }
        self.act.forward(&h, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = self.act.backward(grad_out);
        if let Some(bn) = &mut self.bn {
            g = bn.backward(&g);
        }
        self.conv.backward(&g)
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv.params();
        if let Some(bn) = &mut self.bn {
            p.extend(bn.params());
        }
        p
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        match &mut self.bn {
            Some(bn) => bn.buffers(),
            None => Vec::new(),
        }
    }

    fn name(&self) -> String {
        format!("ConvBlock[{}]", self.conv.name())
    }
}

/// Concatenates two NCDHW tensors along the channel axis.
pub fn concat_channels<E: Element>(a: &Tensor<E>, b: &Tensor<E>) -> Tensor<E> {
    let da = Dims5::of(a);
    let db = Dims5::of(b);
    assert_eq!(
        (da.n, da.d, da.h, da.w),
        (db.n, db.d, db.h, db.w),
        "spatial/batch mismatch"
    );
    let mut out: Tensor<E> = Tensor::zeros([da.n, da.c + db.c, da.d, da.h, da.w]);
    let vol = da.vol();
    let (asl, bsl, osl) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    for n in 0..da.n {
        let o_base = n * (da.c + db.c) * vol;
        osl[o_base..o_base + da.c * vol]
            .copy_from_slice(&asl[n * da.c * vol..(n + 1) * da.c * vol]);
        osl[o_base + da.c * vol..o_base + (da.c + db.c) * vol]
            .copy_from_slice(&bsl[n * db.c * vol..(n + 1) * db.c * vol]);
    }
    out
}

/// Splits a channel-concatenated gradient back into its two halves.
pub fn split_channels<E: Element>(g: &Tensor<E>, c_first: usize) -> (Tensor<E>, Tensor<E>) {
    let d = Dims5::of(g);
    assert!(c_first < d.c);
    let c_second = d.c - c_first;
    let vol = d.vol();
    let mut a: Tensor<E> = Tensor::zeros([d.n, c_first, d.d, d.h, d.w]);
    let mut b: Tensor<E> = Tensor::zeros([d.n, c_second, d.d, d.h, d.w]);
    let gs = g.as_slice();
    for n in 0..d.n {
        let g_base = n * d.c * vol;
        a.as_mut_slice()[n * c_first * vol..(n + 1) * c_first * vol]
            .copy_from_slice(&gs[g_base..g_base + c_first * vol]);
        b.as_mut_slice()[n * c_second * vol..(n + 1) * c_second * vol]
            .copy_from_slice(&gs[g_base + c_first * vol..g_base + d.c * vol]);
    }
    (a, b)
}

/// Per-sample spatial volume (voxels) above which a batched [`UNet::infer`]
/// runs sample-by-sample instead of carrying the whole batch through every
/// layer. Batched activations are `n×` larger than per-sample ones, so above
/// ~16² per sample a batch-8 forward evicts its own working set between
/// layers and *loses* to request-at-a-time (ROADMAP item 3); chunking the
/// batch keeps every intermediate cache-resident. Per-sample values are
/// bitwise identical either way — every inference op treats batch samples
/// independently.
const BATCH_CHUNK_VOL: usize = 256;

/// The MGDiffNet U-Net.
///
/// Generic over the inference element type `E`: training, checkpointing and
/// the exclusive [`Layer`] surface always run at the default `f64` (master
/// weights), while [`UNet::to_f32`] derives a single-precision replica whose
/// [`UNet::infer`] path halves memory traffic on the serving fast path.
#[derive(Clone, Debug)]
pub struct UNet<E: Element = f64> {
    /// Architecture parameters.
    pub cfg: UNetConfig,
    pub(crate) enc: Vec<ConvBlock<E>>,
    pub(crate) pools: Vec<MaxPool3d>,
    pub(crate) bottleneck: ConvBlock<E>,
    /// `ups[i]` upsamples from level `i+1` channels to level `i`.
    pub(crate) ups: Vec<ConvTranspose3d<E>>,
    /// `merges[i]` fuses `[up_out ‖ skip]` (2·c_i channels) down to c_i.
    pub(crate) merges: Vec<ConvBlock<E>>,
    pub(crate) head: Conv3d<E>,
    pub(crate) sigmoid: Option<Sigmoid>,
}

impl UNet {
    /// Builds the network with deterministic Kaiming initialization.
    pub fn new(cfg: UNetConfig) -> Self {
        assert!(cfg.depth >= 1, "depth must be >= 1");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut enc = Vec::new();
        let mut pools = Vec::new();
        for i in 0..cfg.depth {
            let in_c = if i == 0 {
                cfg.in_channels
            } else {
                cfg.channels(i - 1)
            };
            enc.push(ConvBlock::new(in_c, cfg.channels(i), &cfg, &mut rng));
            pools.push(MaxPool3d::down2(cfg.two_d));
        }
        let bottleneck = ConvBlock::new(
            cfg.channels(cfg.depth - 1),
            cfg.channels(cfg.depth),
            &cfg,
            &mut rng,
        );
        let mut ups = Vec::new();
        let mut merges = Vec::new();
        for i in 0..cfg.depth {
            ups.push(
                ConvTranspose3d::up2(cfg.channels(i + 1), cfg.channels(i), cfg.two_d, &mut rng)
                    .with_backend(cfg.conv_backend),
            );
            merges.push(ConvBlock::new(
                2 * cfg.channels(i),
                cfg.channels(i),
                &cfg,
                &mut rng,
            ));
        }
        let head = Conv3d::new(
            cfg.channels(0),
            cfg.out_channels,
            (1, 1, 1),
            (1, 1, 1),
            (0, 0, 0),
            &mut rng,
        )
        .with_backend(cfg.conv_backend);
        let sigmoid = if cfg.final_sigmoid {
            Some(Sigmoid::new())
        } else {
            None
        };
        UNet {
            cfg,
            enc,
            pools,
            bottleneck,
            ups,
            merges,
            head,
            sigmoid,
        }
    }

    /// Single-precision serving replica: every weight converted to `f32`
    /// (one rounding from the `f64` masters), batch-norm running statistics
    /// kept in `f64` and folded per channel at inference. The replica
    /// carries no training state — it exists for [`UNet::infer`], where it
    /// halves weight and activation memory traffic.
    pub fn to_f32(&self) -> UNet<f32> {
        self.cast_as()
    }
}

impl<E: Element> UNet<E> {
    /// Converts every layer's weights to another element type (through
    /// `f64`). See [`UNet::to_f32`].
    pub fn cast_as<T: Element>(&self) -> UNet<T> {
        UNet {
            cfg: self.cfg,
            enc: self.enc.iter().map(|b| b.cast_as()).collect(),
            pools: self.pools.clone(),
            bottleneck: self.bottleneck.cast_as(),
            ups: self.ups.iter().map(|u| u.cast_as()).collect(),
            merges: self.merges.iter().map(|m| m.cast_as()).collect(),
            head: self.head.cast_as(),
            sigmoid: self.sigmoid.clone(),
        }
    }

    /// Validates that an input resolution survives `depth` poolings.
    pub fn check_input_dims(&self, dims: &Dims5) {
        let div = 1usize << self.cfg.depth;
        if !self.cfg.two_d {
            assert!(
                dims.d.is_multiple_of(div),
                "depth {} not divisible by {div}",
                dims.d
            );
        } else {
            assert!(dims.d == 1, "2D network expects unit depth axis");
        }
        assert!(
            dims.h.is_multiple_of(div),
            "height {} not divisible by {div}",
            dims.h
        );
        assert!(
            dims.w.is_multiple_of(div),
            "width {} not divisible by {div}",
            dims.w
        );
    }
}

impl<E: GemmElement> UNet<E> {
    /// Prepacks the GEMM weight panels of every stencil convolution
    /// (encoder, bottleneck, merge blocks, and the head) so subsequent
    /// `&self` inference calls reuse them instead of repacking per call
    /// — see [`Conv3d::prepack`](crate::conv::Conv3d::prepack). Call once
    /// on a serving snapshot; training invalidates the panels.
    pub fn prepack(&mut self) {
        for block in &mut self.enc {
            block.conv.prepack();
        }
        self.bottleneck.conv.prepack();
        for block in &mut self.merges {
            block.conv.prepack();
        }
        self.head.prepack();
    }

    /// Shared-state inference forward: the full U-Net traversal of
    /// [`Layer::forward`] with `train = false`, but `&self` — every layer's
    /// transient buffers live in the caller's [`Workspace`], so one network
    /// behind an `Arc` serves any number of concurrent callers with
    /// bitwise-identical results to the exclusive path (at the default
    /// `f64`).
    ///
    /// Batches above `BATCH_CHUNK_VOL` voxels per sample run
    /// sample-by-sample so intermediate activations stay cache-resident;
    /// per-sample outputs are bitwise identical to the all-at-once pass.
    pub fn infer(&self, x: &Tensor<E>, ws: &mut Workspace<E>) -> Tensor<E> {
        let din = Dims5::of(x);
        self.check_input_dims(&din);
        if din.n > 1 && din.vol() > BATCH_CHUNK_VOL {
            let in_vol = din.c * din.vol();
            let out_vol = self.cfg.out_channels * din.vol();
            let mut y: Tensor<E> =
                Tensor::zeros([din.n, self.cfg.out_channels, din.d, din.h, din.w]);
            let xs = x.as_slice();
            for ni in 0..din.n {
                let sample = Tensor::from_vec(
                    vec![1, din.c, din.d, din.h, din.w],
                    xs[ni * in_vol..(ni + 1) * in_vol].to_vec(),
                );
                let out = self.infer_one(&sample, ws);
                y.as_mut_slice()[ni * out_vol..(ni + 1) * out_vol].copy_from_slice(out.as_slice());
            }
            return y;
        }
        self.infer_one(x, ws)
    }

    /// One unchunked traversal (any batch size).
    fn infer_one(&self, x: &Tensor<E>, ws: &mut Workspace<E>) -> Tensor<E> {
        let depth = self.cfg.depth;
        let mut skips: Vec<Tensor<E>> = Vec::with_capacity(depth);
        let mut h = x.clone();
        for i in 0..depth {
            h = self.enc[i].infer(&h, ws);
            skips.push(h.clone());
            h = self.pools[i].infer(&h);
        }
        h = self.bottleneck.infer(&h, ws);
        for i in (0..depth).rev() {
            h = self.ups[i].infer(&h, ws);
            h = concat_channels(&h, &skips[i]);
            h = self.merges[i].infer(&h, ws);
        }
        h = self.head.infer(&h, ws);
        if let Some(s) = &self.sigmoid {
            h = s.infer(&h);
        }
        h
    }
}

impl UNet {
    /// Inference convenience (no caching).
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        self.forward(x, false)
    }

    /// Builds the depth+1 network of the paper's architectural-adaptation
    /// study (§4.1.2): the old bottleneck becomes the new deepest encoder
    /// block (its learned weights are kept); a fresh bottleneck, upsampler
    /// and merge block are inserted at the new deepest level with random
    /// weights ("one convolutional layer and two transpose convolutional
    /// layers ... initialized with random weights"); everything else is
    /// copied.
    pub fn deepened(&self) -> UNet {
        let mut cfg = self.cfg;
        cfg.depth += 1;
        cfg.seed = self.cfg.seed.wrapping_add(0x5EED);
        let mut new = UNet::new(cfg);
        for i in 0..self.cfg.depth {
            new.enc[i] = self.enc[i].clone();
            new.ups[i] = self.ups[i].clone();
            new.merges[i] = self.merges[i].clone();
        }
        // Old bottleneck: channels(depth-1) -> channels(depth) — exactly the
        // shape of the new deepest encoder block.
        new.enc[self.cfg.depth] = self.bottleneck.clone();
        new.head = self.head.clone();
        new
    }

    /// Total learnable scalar count.
    pub fn num_parameters(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

impl Layer for UNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.check_input_dims(&Dims5::of(x));
        let depth = self.cfg.depth;
        let mut skips: Vec<Tensor> = Vec::with_capacity(depth);
        let mut h = x.clone();
        for i in 0..depth {
            h = self.enc[i].forward(&h, train);
            skips.push(h.clone());
            h = self.pools[i].forward(&h, train);
        }
        h = self.bottleneck.forward(&h, train);
        for i in (0..depth).rev() {
            h = self.ups[i].forward(&h, train);
            h = concat_channels(&h, &skips[i]);
            h = self.merges[i].forward(&h, train);
        }
        h = self.head.forward(&h, train);
        if let Some(s) = &mut self.sigmoid {
            h = s.forward(&h, train);
        }
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let depth = self.cfg.depth;
        let mut g = grad_out.clone();
        if let Some(s) = &mut self.sigmoid {
            g = s.backward(&g);
        }
        g = self.head.backward(&g);
        let mut skip_grads: Vec<Option<Tensor>> = vec![None; depth];
        for i in 0..depth {
            g = self.merges[i].backward(&g);
            let (g_up, g_skip) = split_channels(&g, self.cfg.channels(i));
            skip_grads[i] = Some(g_skip);
            g = self.ups[i].backward(&g_up);
        }
        g = self.bottleneck.backward(&g);
        for i in (0..depth).rev() {
            g = self.pools[i].backward(&g);
            g.add_assign(skip_grads[i].as_ref().expect("skip grad missing"));
            g = self.enc[i].backward(&g);
        }
        g
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        for b in &mut self.enc {
            out.extend(b.params());
        }
        out.extend(self.bottleneck.params());
        for u in &mut self.ups {
            out.extend(u.params());
        }
        for m in &mut self.merges {
            out.extend(m.params());
        }
        out.extend(self.head.params());
        out
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        let mut out = Vec::new();
        for b in &mut self.enc {
            out.extend(b.buffers());
        }
        out.extend(self.bottleneck.buffers());
        for m in &mut self.merges {
            out.extend(m.buffers());
        }
        out
    }

    fn name(&self) -> String {
        format!(
            "UNet(depth={}, base={}, {})",
            self.cfg.depth,
            self.cfg.base_filters,
            if self.cfg.two_d { "2D" } else { "3D" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradient, FD_EPS_COARSE, FD_TOL_COARSE};

    fn small_cfg() -> UNetConfig {
        UNetConfig {
            depth: 2,
            base_filters: 2,
            two_d: true,
            seed: 9,
            ..Default::default()
        }
    }

    #[test]
    fn forward_shape_matches_input() {
        let mut net = UNet::new(small_cfg());
        let y = net.forward(&Tensor::zeros([2, 1, 1, 8, 8]), false);
        assert_eq!(y.dims(), &[2, 1, 1, 8, 8]);
    }

    /// The fused in-place bn+act pass must be bitwise the two-tensor
    /// pipeline, in both the bn and the bn-less arm — including negative
    /// values that take the leaky slope.
    #[test]
    fn finish_inplace_is_bitwise_the_layer_pipeline() {
        let mut rng = StdRng::seed_from_u64(11);
        for batch_norm in [true, false] {
            let cfg = UNetConfig {
                batch_norm,
                ..small_cfg()
            };
            let mut net = UNet::new(cfg);
            // Non-trivial running stats so the affine map actually scales.
            net.forward(
                &Tensor::rand_uniform([2, 1, 1, 8, 8], -2.0, 2.0, &mut rng),
                true,
            );
            let block = &net.enc[0];
            let h = Tensor::rand_uniform([2, 2, 1, 4, 4], -3.0, 3.0, &mut rng);
            let mut fused = h.clone();
            block.finish_inplace(&mut fused);
            let mut expect = h;
            if let Some(bn) = &block.bn {
                expect = bn.infer(&expect);
            }
            expect = block.act.infer(&expect);
            let same = fused
                .as_slice()
                .iter()
                .zip(expect.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "fused pass diverged (batch_norm = {batch_norm})");
        }
    }

    #[test]
    fn output_in_unit_interval_with_sigmoid() {
        let mut net = UNet::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform([1, 1, 1, 8, 8], -2.0, 2.0, &mut rng);
        let y = net.forward(&x, false);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn resolution_agnostic_forward() {
        // The same weights accept multiple resolutions (multigrid property).
        let mut net = UNet::new(small_cfg());
        for m in [8usize, 16, 32] {
            let y = net.forward(&Tensor::zeros([1, 1, 1, m, m]), false);
            assert_eq!(y.dims(), &[1, 1, 1, m, m]);
        }
    }

    #[test]
    fn three_d_forward_shape() {
        let cfg = UNetConfig {
            depth: 2,
            base_filters: 2,
            two_d: false,
            seed: 3,
            ..Default::default()
        };
        let mut net = UNet::new(cfg);
        let y = net.forward(&Tensor::zeros([1, 1, 4, 8, 8]), false);
        assert_eq!(y.dims(), &[1, 1, 4, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_input_rejected() {
        let mut net = UNet::new(small_cfg());
        let _ = net.forward(&Tensor::zeros([1, 1, 1, 6, 8]), false);
    }

    #[test]
    fn deterministic_init() {
        let mut a = UNet::new(small_cfg());
        let mut b = UNet::new(small_cfg());
        let pa = a
            .params()
            .iter()
            .map(|p| p.data.clone())
            .collect::<Vec<_>>();
        let pb = b
            .params()
            .iter()
            .map(|p| p.data.clone())
            .collect::<Vec<_>>();
        assert_eq!(pa, pb);
    }

    #[test]
    fn parameter_count_reasonable() {
        // Paper-scale 3D network: depth 3, base 16 -> a few hundred k params.
        let mut net = UNet::new(UNetConfig::paper_3d());
        let n = net.num_parameters();
        assert!(n > 100_000 && n < 5_000_000, "{n}");
    }

    #[test]
    fn deepened_keeps_learned_weights() {
        let mut old = UNet::new(small_cfg());
        let enc0_w = old.enc[0].conv.weight.data.clone();
        let bott_w = old.bottleneck.conv.weight.data.clone();
        let mut new = old.deepened();
        assert_eq!(new.cfg.depth, 3);
        assert_eq!(new.enc[0].conv.weight.data, enc0_w);
        assert_eq!(
            new.enc[2].conv.weight.data, bott_w,
            "old bottleneck becomes deepest encoder"
        );
        // And it still runs at a resolution divisible by 2^3.
        let y = new.forward(&Tensor::zeros([1, 1, 1, 16, 16]), false);
        assert_eq!(y.dims(), &[1, 1, 1, 16, 16]);
        let _ = old.forward(&Tensor::zeros([1, 1, 1, 8, 8]), false);
    }

    #[test]
    fn concat_split_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::rand_uniform([2, 3, 1, 4, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([2, 2, 1, 4, 4], -1.0, 1.0, &mut rng);
        let cat = concat_channels(&a, &b);
        assert_eq!(cat.dims(), &[2, 5, 1, 4, 4]);
        let (a2, b2) = split_channels(&cat, 3);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        // Train a few steps first so batch-norm running stats are
        // non-trivial, then compare the exclusive and shared-state paths.
        let mut net = UNet::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..3 {
            let x = Tensor::rand_uniform([2, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
            let _ = net.forward(&x, true);
        }
        let x = Tensor::rand_uniform([2, 1, 1, 16, 16], -2.0, 2.0, &mut rng);
        let y = net.forward(&x, false);
        let mut ws = Workspace::new();
        let yi = net.infer(&x, &mut ws);
        assert!(y
            .as_slice()
            .iter()
            .zip(yi.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Workspace reuse across calls (and resolutions) stays identical.
        let x2 = Tensor::rand_uniform([1, 1, 1, 8, 8], -2.0, 2.0, &mut rng);
        let y2 = net.forward(&x2, false);
        let yi2 = net.infer(&x2, &mut ws);
        assert!(y2
            .as_slice()
            .iter()
            .zip(yi2.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn infer_batch_chunking_matches_forward_bitwise() {
        // 32×32 per sample exceeds BATCH_CHUNK_VOL, so a batch-3 infer runs
        // sample-by-sample; values must stay bitwise equal to the all-at-
        // once exclusive forward.
        let mut net = UNet::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..2 {
            let x = Tensor::rand_uniform([2, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
            let _ = net.forward(&x, true);
        }
        let x = Tensor::rand_uniform([3, 1, 1, 32, 32], -2.0, 2.0, &mut rng);
        const { assert!(32 * 32 > BATCH_CHUNK_VOL, "test must exercise the chunker") };
        let y = net.forward(&x, false);
        let yi = net.infer(&x, &mut Workspace::new());
        assert_eq!(y.dims(), yi.dims());
        assert!(y
            .as_slice()
            .iter()
            .zip(yi.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn f32_infer_matches_f64_within_tol() {
        use mgd_tensor::Element;
        // Train a few steps so batch-norm running stats are non-trivial,
        // then compare the f32 replica against the f64 master path.
        let mut net = UNet::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..3 {
            let x = Tensor::rand_uniform([2, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
            let _ = net.forward(&x, true);
        }
        let net32 = net.to_f32();
        let x = Tensor::rand_uniform([2, 1, 1, 16, 16], -2.0, 2.0, &mut rng);
        let y64 = net.infer(&x, &mut Workspace::new());
        let y32 = net32.infer(&x.cast::<f32>(), &mut Workspace::<f32>::new());
        let err = y64.rel_l2_error(&y32.cast::<f64>());
        assert!(
            err < <f32 as Element>::EQUIV_TOL,
            "f32 infer drifted {err} from f64"
        );
    }

    #[test]
    fn f32_infer_is_bitwise_deterministic() {
        // Repeat runs — fresh workspace, reused workspace, and concurrent
        // shared readers — must produce identical f32 bit patterns.
        let mut net = UNet::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(43);
        let _ = net.forward(
            &Tensor::rand_uniform([2, 1, 1, 8, 8], -1.0, 1.0, &mut rng),
            true,
        );
        let net32 = net.to_f32();
        let x = Tensor::rand_uniform([1, 1, 1, 16, 16], -1.0, 1.0, &mut rng).cast::<f32>();
        let mut ws = Workspace::<f32>::new();
        let y1 = net32.infer(&x, &mut ws);
        let y2 = net32.infer(&x, &mut ws);
        let y3 = net32.infer(&x, &mut Workspace::<f32>::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let net32 = &net32;
                    let x = &x;
                    s.spawn(move || net32.infer(x, &mut Workspace::<f32>::new()))
                })
                .collect();
            for h in handles {
                let y = h.join().expect("reader thread panicked");
                assert!(y
                    .as_slice()
                    .iter()
                    .zip(y1.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        });
        for other in [&y2, &y3] {
            assert!(y1
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn infer_matches_forward_bitwise_3d_direct() {
        let cfg = UNetConfig {
            depth: 2,
            base_filters: 2,
            two_d: false,
            seed: 13,
            conv_backend: ConvBackend::Direct,
            ..Default::default()
        };
        let mut net = UNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(22);
        let x = Tensor::rand_uniform([1, 1, 4, 8, 8], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, false);
        let yi = net.infer(&x, &mut Workspace::new());
        assert!(y
            .as_slice()
            .iter()
            .zip(yi.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn shared_model_serves_concurrent_threads() {
        use crate::model::Model;
        // share() exports an Arc'd read-only view; four threads predict the
        // same input simultaneously with no &mut anywhere and must agree
        // bitwise with the exclusive serial path.
        let mut net = UNet::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(23);
        let x = Tensor::rand_uniform([1, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let expect = net.forward(&x, false);
        let shared = net.share().expect("UNet supports shared inference");
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let shared = &shared;
                    let x = &x;
                    s.spawn(move || shared.infer(x, &mut Workspace::new()))
                })
                .collect();
            for h in handles {
                let y = h.join().expect("reader thread panicked");
                assert!(y
                    .as_slice()
                    .iter()
                    .zip(expect.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        });
    }

    #[test]
    fn unet_end_to_end_gradcheck() {
        // Small end-to-end check: validates the full skip/concat wiring.
        let cfg = UNetConfig {
            depth: 2,
            base_filters: 2,
            two_d: true,
            batch_norm: false, // keep fd noise low for the composite check
            seed: 4,
            ..Default::default()
        };
        let net = UNet::new(cfg);
        check_layer_gradient(
            Box::new(net),
            &[1, 1, 1, 8, 8],
            0.0,
            FD_EPS_COARSE,
            FD_TOL_COARSE,
        );
    }

    #[test]
    fn unet_with_bn_gradcheck() {
        let cfg = UNetConfig {
            depth: 1,
            base_filters: 2,
            two_d: true,
            seed: 5,
            ..Default::default()
        };
        let net = UNet::new(cfg);
        check_layer_gradient(
            Box::new(net),
            &[2, 1, 1, 4, 4],
            0.0,
            FD_EPS_COARSE,
            FD_TOL_COARSE,
        );
    }
}
