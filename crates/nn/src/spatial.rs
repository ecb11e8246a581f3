//! Slab-decomposed (spatial model-parallel) U-Net inference.
//!
//! The paper's §5 outlook — "scaling beyond megavoxels to gigavoxels" via
//! "model-parallel distributed deep learning" — needs the *network*, not
//! just the FEM solver, to run without any rank ever materializing a
//! full-resolution activation. This module implements that forward path:
//! the input field is carved into `p` contiguous slabs along its slowest
//! non-unit spatial axis (depth for 3D problems, height for 2D), each rank
//! walks the whole U-Net on its slab, and thin halo planes are exchanged
//! over a [`Comm`] right before every stencil application.
//!
//! ## Halo-width rule
//!
//! Only the `same`-padded stencil convolutions couple neighbouring planes
//! along the split axis, and their reach is exactly the padding `(k-1)/2`
//! — one plane for the U-Net's 3×3×3 blocks. [`infer_slab`] therefore
//! exchanges one halo plane per side before each `Conv3d` (encoder,
//! bottleneck and merge blocks) and computes **only the owned output
//! planes** through the restricted gathered-GEMM lowering
//! ([`Conv3d::infer_planes_into`]). Every owned output element then sees
//! exactly the operand values the serial pass sees, in the same
//! accumulation order, so the assembled result is **bitwise identical** to
//! the serial forward at any rank count. All other layers are local:
//! `MaxPool3d`/`ConvTranspose3d` with `k = s = 2` never straddle a cut
//! (see the alignment rule), batch norm at inference is a per-channel
//! affine map from running statistics, activations are pointwise, and the
//! 1×1×1 head has zero reach.
//!
//! ## Halo/compute overlap
//!
//! Each halo conv posts its boundary planes ([`mgd_dist::exchange_post`])
//! and immediately computes the *interior* output planes from the
//! unextended local slab — those planes read only owned input (plus the
//! true zero padding on domain-edge ranks), so no copy into a
//! halo-extended buffer is needed and the bits match the serial pass.
//! When the neighbour planes arrive, the two boundary row-bands are
//! computed from thin `3·halo`-plane band tensors and written into the
//! same output. This keeps a full-slab extend-copy off the critical path
//! and lets the interior GEMM run while planes are in flight on true
//! multi-worker transports. A slab shallower than `2·halo` planes at some
//! level has no interior: its one band is the whole halo-extended slab,
//! whose owned output planes are bitwise identical too. A slab of exactly
//! `2^depth` planes takes one band at the one-plane bottleneck.
//!
//! ## One walk
//!
//! The serial [`UNet::infer`] is this walk on a one-rank communicator,
//! where every halo conv is a plain [`Conv3d::infer`]: "slab == serial" is
//! a property of one code path, not an agreement between two.
//!
//! ## Pool-alignment rule
//!
//! Slab sizes must be positive multiples of `2^depth` along the split
//! axis ([`mgd_dist::SlabPartition::aligned`]) so that every factor-2
//! pool/upsample boundary at every level lands on a slab cut; the slab
//! then stays a whole number of (even) planes at all `depth + 1` levels
//! and pooling/upsampling remain rank-local. Violations are caught as
//! typed errors at engine-build time, and [`infer_slab`] re-asserts
//! them defensively.
//!
//! ## Out-of-core streaming
//!
//! With [`SlabOpts::spill_dir`] set, each encoder skip tensor is written
//! to a scratch file the moment it is produced and read back right before
//! the decoder concatenates it — the skips are exactly the long-lived
//! half of the forward's footprint, so spilling them caps the per-rank
//! resident set near the largest single-level working set and lets a rank
//! serve slabs whose full activation ladder would not fit in memory.
//! Spill files round-trip bit-exactly (wire-format packing), so results
//! are unchanged, and the I/O streams through bounded ~8 MiB chunk
//! buffers on both the write and read side — the read side decodes
//! straight into the decoder's concat buffer — so spilling never adds a
//! tensor-sized transient of its own.
//!
//! Per-rank activation memory is modeled by [`activation_peak_elems_opts`]
//! (live-tensor peak, per mode); [`measured_peak_elems`] reports the
//! instrumented live peak of the most recent multi-rank [`infer_slab`]
//! walks so serving harnesses can check the model against reality.

use crate::conv::Conv3d;
use crate::layer::Dims5;
use crate::unet::{concat_channels, ConvBlock, UNet, UNetConfig};
use crate::workspace::Workspace;
use mgd_dist::{carve_planes, exchange_post, place_planes, Comm, HaloElement, SlabLayout};
use mgd_tensor::{GemmElement, Tensor};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Which NCDHW axis a spatial decomposition splits.
///
/// 3D problems split the depth (z) axis; 2D problems — whose tensors carry
/// a unit depth axis — split the height axis. Both map onto the same
/// `[pre, split, post]` plane arithmetic of [`mgd_dist::halo`] and the
/// same flattened `(o_d, o_h)` anchor-row ranges of the GEMM lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitAxis {
    /// Split along the depth axis (3D problems).
    Depth,
    /// Split along the height axis (2D problems; requires `d == 1`).
    Height,
}

impl SplitAxis {
    /// The `[pre, split, post]` view of an NCDHW tensor split along this
    /// axis.
    pub fn layout(&self, d: &Dims5) -> SlabLayout {
        match self {
            SplitAxis::Depth => SlabLayout {
                pre: d.n * d.c,
                split: d.d,
                post: d.h * d.w,
            },
            SplitAxis::Height => {
                assert_eq!(d.d, 1, "height split needs a unit depth axis");
                SlabLayout {
                    pre: d.n * d.c,
                    split: d.h,
                    post: d.w,
                }
            }
        }
    }

    /// Extent of the split axis in `d`.
    pub fn extent(&self, d: &Dims5) -> usize {
        match self {
            SplitAxis::Depth => d.d,
            SplitAxis::Height => d.h,
        }
    }
}

impl<E: mgd_tensor::Element> UNet<E> {
    /// The axis [`infer_slab`] splits for this architecture.
    pub fn split_axis(&self) -> SplitAxis {
        if self.cfg.two_d {
            SplitAxis::Height
        } else {
            SplitAxis::Depth
        }
    }
}

/// Options of the slab-decomposed forward. Every setting preserves the
/// bitwise (at `f64`) equivalence with the serial forward — it trades
/// memory and latency, never values.
#[derive(Clone, Debug, Default)]
pub struct SlabOpts {
    /// When set, encoder skip tensors are spilled to scratch files in this
    /// directory and re-loaded by the decoder — the out-of-core streaming
    /// mode for domains whose activation ladder exceeds memory.
    pub spill_dir: Option<PathBuf>,
}

/// Instrumented per-rank live-activation peak (elements) since the last
/// [`reset_measured_peak`], maxed across every multi-rank [`infer_slab`]
/// walk of every rank.
static MEASURED_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Resets the instrumented activation-peak tracker.
pub fn reset_measured_peak() {
    MEASURED_PEAK.store(0, Ordering::Relaxed);
}

/// Largest per-rank live-activation element count any [`infer_slab`] walk
/// over more than one rank reached since the last [`reset_measured_peak`].
/// One-rank walks (the serial [`UNet::infer`]) are not counted. Counts the
/// same tensor population as [`activation_peak_elems_opts`] (activations
/// only — no weights, GEMM workspace, or assembled I/O fields), so the
/// model can be asserted against it.
pub fn measured_peak_elems() -> usize {
    MEASURED_PEAK.load(Ordering::Relaxed)
}

/// Running live-element counter for one rank's walk; it publishes to
/// [`MEASURED_PEAK`] only when the walk is a slab walk (`publish`).
#[derive(Default)]
struct PeakMeter {
    live: usize,
    publish: bool,
}

impl PeakMeter {
    fn alloc(&mut self, elems: usize) {
        self.live += elems;
        if self.publish {
            MEASURED_PEAK.fetch_max(self.live, Ordering::Relaxed);
        }
    }

    fn free(&mut self, elems: usize) {
        self.live = self.live.saturating_sub(elems);
    }
}

/// Halo width and owned split extent of a `same` stencil conv on `d`.
fn conv_halo<E: mgd_tensor::Element>(
    conv: &Conv3d<E>,
    d: &Dims5,
    axis: SplitAxis,
) -> (usize, usize) {
    let (pd, ph, _) = conv.padding();
    match axis {
        SplitAxis::Depth => (pd, d.d),
        SplitAxis::Height => {
            assert_eq!(d.d, 1, "height split needs a unit depth axis");
            (ph, d.h)
        }
    }
}

/// Builds a band input of the conv: the received `below` planes, owned
/// planes `owned` of `x`, then the received `above` planes.
fn band_tensor<E: GemmElement>(
    x: &Tensor<E>,
    layout: &SlabLayout,
    axis: SplitAxis,
    below: Option<&[E]>,
    owned: Range<usize>,
    above: Option<&[E]>,
) -> Tensor<E> {
    let planes = |recv: Option<&[E]>| recv.map_or(0, |r| r.len() / (layout.pre * layout.post));
    let lo = planes(below);
    let band_layout = layout.with_split(lo + owned.len() + planes(above));
    let mut data = vec![E::ZERO; band_layout.len()];
    if let Some(below) = below {
        place_planes(&mut data, &band_layout, 0, below);
    }
    let own_planes = carve_planes(x.as_slice(), layout, owned.start, owned.end);
    place_planes(&mut data, &band_layout, lo, &own_planes);
    if let Some(above) = above {
        place_planes(&mut data, &band_layout, lo + owned.len(), above);
    }
    let d = Dims5::of(x);
    let dims = match axis {
        SplitAxis::Depth => vec![d.n, d.c, band_layout.split, d.h, d.w],
        SplitAxis::Height => vec![d.n, d.c, 1, band_layout.split, d.w],
    };
    Tensor::from_vec(dims, data)
}

/// Exchanges the conv's halo planes with ring neighbours and computes the
/// owned output planes of a `same` stencil convolution: post the boundary
/// planes, compute the interior while they are in flight, then the bands
/// that need the received planes.
fn halo_conv_infer<E: GemmElement + HaloElement>(
    conv: &Conv3d<E>,
    x: &Tensor<E>,
    comm: &dyn Comm,
    axis: SplitAxis,
    tag: &mut u64,
    meter: &mut PeakMeter,
) -> Tensor<E> {
    let d = Dims5::of(x);
    let (halo, own) = conv_halo(conv, &d, axis);
    if comm.size() == 1 || halo == 0 {
        // No neighbours (or no reach): the slab is self-contained.
        let y = conv.infer(x);
        meter.alloc(y.len());
        return y;
    }
    let t = *tag;
    *tag += 2;
    let layout = axis.layout(&d);
    let pending = exchange_post(comm, x.as_slice(), &layout, halo, t);
    let (lo, hi) = (pending.lo, pending.hi);
    let odims = match axis {
        SplitAxis::Depth => vec![d.n, conv.out_c, own, d.h, d.w],
        SplitAxis::Height => vec![d.n, conv.out_c, 1, own, d.w],
    };
    let mut y: Tensor<E> = Tensor::zeros(odims);
    meter.alloc(y.len());
    // Interior output planes `lo..own-hi` read only owned input planes
    // (plus the true domain padding on edge ranks), so the unextended slab
    // yields serial-identical bits. A slab shallower than 2·halo has none.
    let shallow = own < 2 * halo;
    if !shallow {
        conv.infer_planes_into(x, lo..own - hi, axis, &mut y, lo);
    }
    let (below, above) = pending.finish(comm);
    // Each band's kept output planes never read its artificial zero
    // padding — bitwise equal to the serial planes they fill in. Two thin
    // bands of the received halo plus the 2·halo nearest owned planes; a
    // shallow slab takes one band, the whole halo-extended slab.
    let mut band_into = |below, owned: Range<usize>, above, keep: Range<usize>, dst0| {
        let band = band_tensor(x, &layout, axis, below, owned, above);
        meter.alloc(band.len());
        conv.infer_planes_into(&band, keep, axis, &mut y, dst0);
        meter.free(band.len());
    };
    if shallow {
        band_into(below.as_deref(), 0..own, above.as_deref(), lo..lo + own, 0);
    } else {
        if below.is_some() {
            band_into(below.as_deref(), 0..2 * halo, None, halo..2 * halo, 0);
        }
        if above.is_some() {
            let owned = own - 2 * halo..own;
            band_into(None, owned, above.as_deref(), halo..2 * halo, own - halo);
        }
    }
    y
}

/// One Conv → (BatchNorm) → LeakyReLU block with halo exchange before the
/// stencil. Batch norm runs in inference mode (running statistics — a
/// rank-local per-channel affine map), so no cross-rank statistics are
/// needed.
fn halo_block_infer<E: GemmElement + HaloElement>(
    block: &ConvBlock<E>,
    x: Tensor<E>,
    comm: &dyn Comm,
    axis: SplitAxis,
    tag: &mut u64,
    meter: &mut PeakMeter,
) -> Tensor<E> {
    let mut h = halo_conv_infer(&block.conv, &x, comm, axis, tag, meter);
    // The input is dead once the stencil has consumed it; dropping it here
    // (instead of after the block returns) keeps the fused bn/act pass
    // from holding input + conv output resident at once.
    meter.free(x.len());
    drop(x);
    // Batch norm + activation fused into one in-place walk over the conv
    // output — bitwise identical to the two-tensor pipeline, but with no
    // extra allocations and two fewer full read/write passes per block.
    block.finish_inplace(&mut h);
    h
}

/// Spill-file sequence number. Names also carry the process id, and a
/// name that already exists is skipped, so walks in this process or in
/// another one sharing the scratch dir never open each other's files.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// An encoder skip tensor awaiting its decoder level: resident in memory,
/// or spilled to a scratch file (out-of-core streaming mode).
enum Skip<E: mgd_tensor::Element> {
    Resident(Tensor<E>),
    Spilled { file: SpillFile, dims: Vec<usize> },
}

/// A spilled skip's scratch file, removed on drop: after the decoder has
/// read it back, or when the walk unwinds first (a panicking rank, or one
/// woken by a poisoned communicator).
struct SpillFile(PathBuf);

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Elements per spill I/O chunk. Spill files are written and read as a
/// sequence of independently wire-packed chunks of this many elements, so
/// the transient pack/unpack buffers stay bounded (~8 MiB of wire words)
/// no matter how large the skip tensor is — a whole-payload `Vec` here
/// would silently add a full tensor-size resident spike per rank that the
/// activation meter never sees. Even, so f32 pair-packing never splits a
/// wire word across chunks.
const SPILL_CHUNK_ELEMS: usize = 1 << 20;

/// Writes `vals` to `w` as chunked wire words (see [`SPILL_CHUNK_ELEMS`]).
fn write_spill_stream<E: HaloElement>(w: &mut impl Write, vals: &[E], path: &Path) {
    let mut bytes = Vec::with_capacity(8 * E::wire_words(SPILL_CHUNK_ELEMS.min(vals.len())));
    for chunk in vals.chunks(SPILL_CHUNK_ELEMS) {
        let wire = E::pack_wire(chunk);
        bytes.clear();
        for word in &wire {
            bytes.extend_from_slice(&word.to_bits().to_le_bytes());
        }
        w.write_all(&bytes)
            .unwrap_or_else(|e| panic!("skip spill to {} failed: {e}", path.display()));
    }
}

/// Fills `out` from `r`, expecting the chunked wire layout written by
/// [`write_spill_stream`] for a payload of exactly `out.len()` elements.
fn read_spill_stream<E: HaloElement>(r: &mut impl Read, out: &mut [E], path: &Path) {
    let mut bytes = vec![0u8; 8 * E::wire_words(SPILL_CHUNK_ELEMS.min(out.len().max(1)))];
    let mut wire = Vec::with_capacity(E::wire_words(SPILL_CHUNK_ELEMS.min(out.len().max(1))));
    for chunk in out.chunks_mut(SPILL_CHUNK_ELEMS) {
        let nbytes = 8 * E::wire_words(chunk.len());
        r.read_exact(&mut bytes[..nbytes])
            .unwrap_or_else(|e| panic!("skip load from {} failed: {e}", path.display()));
        wire.clear();
        wire.extend(
            bytes[..nbytes]
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))),
        );
        chunk.copy_from_slice(&E::unpack_wire(&wire, chunk.len()));
    }
}

impl<E: GemmElement + HaloElement> Skip<E> {
    /// Streams `h` to a scratch file via the bit-exact wire packing,
    /// holding only one bounded chunk buffer beyond the tensor itself.
    fn spill(h: &Tensor<E>, dir: &Path, rank: usize) -> Self {
        let pid = std::process::id();
        // The guard is made only once `create_new` succeeded: it must never
        // remove a file this walk does not own.
        let (file, guard) = loop {
            let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("mgd-skip-p{pid}-r{rank}-{seq}.bin"));
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => break (file, SpillFile(path)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("skip spill to {} failed: {e}", path.display()),
            }
        };
        let path = &guard.0;
        let mut w = std::io::BufWriter::new(file);
        write_spill_stream(&mut w, h.as_slice(), path);
        w.flush()
            .unwrap_or_else(|e| panic!("skip spill to {} failed: {e}", path.display()));
        Skip::Spilled {
            file: guard,
            dims: h.dims().to_vec(),
        }
    }
}

/// Concatenates `h` with a skip along the channel axis, consuming the skip.
///
/// The streaming (spilled) arm keeps the peak at `h + cat` / `cat + skip`
/// instead of `h + skip + cat`: `h`'s channels are copied into the concat
/// buffer and freed *before* the skip is read back from scratch, so the
/// upsampled field and the skip are never resident together.
fn concat_skip<E: GemmElement + HaloElement>(
    h: Tensor<E>,
    skip: Skip<E>,
    meter: &mut PeakMeter,
) -> Tensor<E> {
    match skip {
        Skip::Resident(s) => {
            let cat = concat_channels(&h, &s);
            meter.alloc(cat.len());
            meter.free(s.len());
            meter.free(h.len());
            cat
        }
        Skip::Spilled { file, dims } => {
            let path = &file.0;
            let dh = Dims5::of(&h);
            assert_eq!(dims.len(), 5);
            let (sc, sd, shh, sw) = (dims[1], dims[2], dims[3], dims[4]);
            assert_eq!(
                (dh.n, dh.d, dh.h, dh.w),
                (dims[0], sd, shh, sw),
                "spatial/batch mismatch with spilled skip"
            );
            let vol = dh.vol();
            let mut cat: Tensor<E> = Tensor::zeros([dh.n, dh.c + sc, dh.d, dh.h, dh.w]);
            meter.alloc(cat.len());
            {
                let (hsl, osl) = (h.as_slice(), cat.as_mut_slice());
                for n in 0..dh.n {
                    let o_base = n * (dh.c + sc) * vol;
                    osl[o_base..o_base + dh.c * vol]
                        .copy_from_slice(&hsl[n * dh.c * vol..(n + 1) * dh.c * vol]);
                }
            }
            meter.free(h.len());
            drop(h);
            // Stream the spilled skip straight into `cat`'s tail channels,
            // one bounded chunk at a time — the skip tensor itself is never
            // re-materialized. Chunk boundaries follow the writer's layout
            // (multiples of SPILL_CHUNK_ELEMS in source index space), so
            // each read decodes exactly one written chunk.
            let reader = std::fs::File::open(path)
                .unwrap_or_else(|e| panic!("skip load from {} failed: {e}", path.display()));
            let mut r = std::io::BufReader::new(reader);
            let total: usize = dims.iter().product();
            let batch_elems = sc * vol;
            let mut buf = vec![E::default(); SPILL_CHUNK_ELEMS.min(total)];
            meter.alloc(buf.len());
            let mut src = 0usize;
            while src < total {
                let len = SPILL_CHUNK_ELEMS.min(total - src);
                read_spill_stream(&mut r, &mut buf[..len], path);
                let osl = cat.as_mut_slice();
                let mut off = 0usize;
                while off < len {
                    let gidx = src + off;
                    let (n, bo) = (gidx / batch_elems, gidx % batch_elems);
                    let run = (batch_elems - bo).min(len - off);
                    let o_base = n * (dh.c + sc) * vol + dh.c * vol + bo;
                    osl[o_base..o_base + run].copy_from_slice(&buf[off..off + run]);
                    off += run;
                }
                src += len;
            }
            meter.free(buf.len());
            drop(r);
            drop(file);
            cat
        }
    }
}

/// Slab-decomposed inference forward of the U-Net (see the module docs).
///
/// `slab` is this rank's contiguous slab of the NCDHW input along the
/// split axis; its split extent must be a positive multiple of `2^depth`
/// (the pool-alignment rule). Every rank of `comm` must call this
/// collectively against identically-configured models (shared or
/// replicated — the network is only read). Returns the owned slab of the
/// output — stitching the rank-ordered results yields a field bitwise
/// identical (at `f64`) to the serial forward on the full input, for
/// every [`SlabOpts`] setting.
pub fn infer_slab<E: GemmElement + HaloElement>(
    net: &UNet<E>,
    slab: &Tensor<E>,
    comm: &dyn Comm,
    _ws: &mut Workspace<E>,
    opts: &SlabOpts,
) -> Tensor<E> {
    walk(net, slab.clone(), comm, opts)
}

/// The U-Net inference walk over this rank's slab `h`, consumed as the
/// first activation. On a one-rank `comm` the slab is the whole field and
/// this is the serial [`UNet::infer`].
pub(crate) fn walk<E: GemmElement + HaloElement>(
    net: &UNet<E>,
    mut h: Tensor<E>,
    comm: &dyn Comm,
    opts: &SlabOpts,
) -> Tensor<E> {
    let axis = net.split_axis();
    // The slab must survive `depth` poolings on its own: this is exactly
    // the per-rank pool-alignment rule (engine-validated; re-checked here).
    net.check_input_dims(&Dims5::of(&h));
    let depth = net.cfg.depth;
    let mut tag = 0u64;
    let mut meter = PeakMeter {
        live: 0,
        publish: comm.size() > 1,
    };
    meter.alloc(h.len());
    let mut skips: Vec<Skip<E>> = Vec::with_capacity(depth);
    for i in 0..depth {
        h = halo_block_infer(&net.enc[i], h, comm, axis, &mut tag, &mut meter);
        match &opts.spill_dir {
            // Streaming mode: the skip goes to scratch now and comes back
            // right before its decoder level — no resident copy retained.
            Some(dir) => skips.push(Skip::spill(&h, dir, comm.rank())),
            None => {
                skips.push(Skip::Resident(h.clone()));
                meter.alloc(h.len());
            }
        }
        let pooled = net.pools[i].infer(&h);
        meter.alloc(pooled.len());
        meter.free(h.len());
        h = pooled;
    }
    h = halo_block_infer(&net.bottleneck, h, comm, axis, &mut tag, &mut meter);
    for i in (0..depth).rev() {
        let up = net.ups[i].infer(&h);
        meter.alloc(up.len());
        meter.free(h.len());
        h = up;
        // Consume (not borrow) the skip so its slab is freed immediately —
        // the decoder's contribution to the per-rank memory bound.
        let skip = skips.pop().expect("one skip per level");
        h = concat_skip(h, skip, &mut meter);
        h = halo_block_infer(&net.merges[i], h, comm, axis, &mut tag, &mut meter);
    }
    let head = net.head.infer(&h);
    meter.alloc(head.len());
    meter.free(h.len());
    h = head;
    let out = net.sigmoid.infer(&h);
    meter.alloc(out.len());
    meter.free(h.len());
    out
}

/// Models the peak number of live activation scalars of one rank's
/// [`infer_slab`] walk with **default options** (no spill).
/// See [`activation_peak_elems_opts`].
pub fn activation_peak_elems(
    cfg: &UNetConfig,
    batch: usize,
    dims: [usize; 3],
    halo_sides: usize,
) -> usize {
    activation_peak_elems_opts(cfg, batch, dims, halo_sides, &SlabOpts::default())
}

/// Models the peak number of live activation scalars (elements of the
/// inference type) of one rank's [`infer_slab`] walk over a
/// `[batch, in_c, …]` slab with spatial dims `dims` (`[d, h, w]`; use
/// `d = 1` for 2D networks), under the given [`SlabOpts`].
///
/// `halo_sides` is the number of neighbours exchanging halos with this
/// rank (0 for a serial/full-field forward, 1 for edge ranks, 2 for
/// interior ranks). The model counts the tensors the forward holds alive
/// simultaneously (input, conv output, halo planes plus a boundary band —
/// the whole halo-extended slab where the level's slab is too shallow to
/// overlap — retained or transiently-loaded skips per the spill
/// mode) level by level; it is an activation model, not an allocator
/// trace — weights, GEMM scratch and the assembled I/O fields are
/// excluded. Multiply by the element byte width for bytes. The walk's
/// instrumented counterpart is [`measured_peak_elems`], which never
/// exceeds this model.
pub fn activation_peak_elems_opts(
    cfg: &UNetConfig,
    batch: usize,
    dims: [usize; 3],
    halo_sides: usize,
    opts: &SlabOpts,
) -> usize {
    let [d0, h0, w0] = dims;
    assert!(!cfg.two_d || d0 == 1, "2D networks take a unit depth axis");
    let depth = cfg.depth;
    let spill = opts.spill_dir.is_some();
    let split0 = if cfg.two_d { h0 } else { d0 };
    // Spatial volume and per-plane (split-axis) volume at level l.
    let vol = |l: usize| -> usize {
        if cfg.two_d {
            (h0 >> l) * (w0 >> l)
        } else {
            (d0 >> l) * (h0 >> l) * (w0 >> l)
        }
    };
    let plane = |l: usize| -> usize {
        if cfg.two_d {
            w0 >> l
        } else {
            (h0 >> l) * (w0 >> l)
        }
    };
    let halo = |c: usize, l: usize| batch * c * halo_sides * plane(l);
    let t = |c: usize, l: usize| batch * c * vol(l);
    let ch = |i: usize| cfg.channels(i);

    let mut peak = 0usize;
    let mut skips = 0usize;
    let mut live = t(cfg.in_channels, 0);
    peak = peak.max(live);
    // One conv block. Two thin bands (whenever the level's slab is at
    // least 2 planes deep — halo width 1): x + out + received planes + one
    // transient 3-plane boundary band, no extended copy. One band
    // (shallower slabs): x + the halo-extended slab + out; a rank without
    // neighbours is charged the same, a bound on its plain conv. Then
    // bn/act briefly double the output.
    macro_rules! block {
        ($c_in:expr, $c_out:expr, $l:expr) => {{
            let out = t($c_out, $l);
            let overlapped = halo_sides > 0 && (split0 >> $l) >= 2;
            if overlapped {
                let band = 3 * batch * $c_in * plane($l);
                peak = peak.max(skips + live + out + halo($c_in, $l) + band);
            } else {
                peak = peak.max(skips + 2 * live + halo($c_in, $l) + out);
            }
            peak = peak.max(skips + 2 * out);
            live = out;
        }};
    }
    for i in 0..depth {
        let c_in = if i == 0 { cfg.in_channels } else { ch(i - 1) };
        block!(c_in, ch(i), i);
        if !spill {
            skips += live; // skip clone retained until the decoder consumes it
        }
        let pooled = t(ch(i), i + 1);
        peak = peak.max(skips + live + pooled);
        live = pooled;
    }
    block!(ch(depth - 1), ch(depth), depth);
    for i in (0..depth).rev() {
        let up = t(ch(i), i);
        peak = peak.max(skips + live + up);
        live = up;
        let skip_sz = t(ch(i), i);
        let cat = t(2 * ch(i), i);
        if spill {
            // Streaming concat: `h` is copied into the concat buffer and
            // freed before the skip is read back, so the two phases are
            // `h + cat` then `cat + skip` — never all three at once.
            peak = peak.max(skips + live + cat).max(skips + cat + skip_sz);
        } else {
            peak = peak.max(skips + live + cat);
            skips -= skip_sz; // skip freed right after concat
        }
        live = cat;
        block!(2 * ch(i), ch(i), i);
    }
    let head = t(UNetConfig::OUT_CHANNELS, 0);
    peak = peak.max(live + 2 * head); // head output + sigmoid output
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use mgd_dist::{carve_planes, SlabPartition};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn net(two_d: bool, depth: usize, seed: u64) -> UNet {
        UNet::new(UNetConfig {
            depth,
            base_filters: 2,
            two_d,
            seed,
            ..Default::default()
        })
    }

    /// Serializes the tests that run slab forwards: the activation meter
    /// they feed is process-wide, so a concurrent slab forward would leak
    /// into `measured_peak_stays_within_model`'s reading.
    fn slab_lock() -> std::sync::MutexGuard<'static, ()> {
        static SLAB_FORWARDS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SLAB_FORWARDS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spill_dir() -> PathBuf {
        let dir = std::env::temp_dir().join("mgd-spatial-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spatial_matches_serial(
        two_d: bool,
        depth: usize,
        dims: [usize; 3],
        p: usize,
        opts: &SlabOpts,
    ) {
        let mut reference = net(two_d, depth, 42);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::rand_uniform(vec![2, 1, dims[0], dims[1], dims[2]], -1.0, 1.0, &mut rng);
        let serial = reference.predict(&x);
        let d5 = Dims5::of(&x);
        let axis = reference.split_axis();
        let extent = axis.extent(&d5);
        let part = SlabPartition::aligned(extent, p, 1 << depth).unwrap();
        let layout = axis.layout(&d5);
        let shared = Arc::new(net(two_d, depth, 42));
        let jobs: Vec<(Tensor, std::ops::Range<usize>)> = (0..p)
            .map(|r| {
                let owned = part.owned_planes(r);
                let data = carve_planes(x.as_slice(), &layout, owned.start, owned.end);
                let sdims = match axis {
                    SplitAxis::Depth => vec![2, 1, owned.len(), dims[1], dims[2]],
                    SplitAxis::Height => vec![2, 1, 1, owned.len(), dims[2]],
                };
                (Tensor::from_vec(sdims, data), owned)
            })
            .collect();
        let results = mgd_dist::launch_with(jobs, |comm, (slab, owned)| {
            let mut ws = Workspace::new();
            (owned, infer_slab(&shared, &slab, &comm, &mut ws, opts))
        });
        // Stitch owned output slabs and compare bitwise.
        let out_layout = axis.layout(&Dims5::of(&serial));
        for (owned, out) in results {
            let expect = carve_planes(serial.as_slice(), &out_layout, owned.start, owned.end);
            assert_eq!(out.as_slice().len(), expect.len());
            for (i, (a, b)) in out.as_slice().iter().zip(&expect).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "two_d={two_d} depth={depth} p={p} opts={opts:?} owned={owned:?} \
                     elem {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn spatial_forward_is_bitwise_serial_2d() {
        let _slabs = slab_lock();
        for p in [2usize, 3, 4] {
            spatial_matches_serial(true, 2, [1, 16, 12], p, &SlabOpts::default());
        }
    }

    #[test]
    fn spatial_forward_is_bitwise_serial_3d() {
        let _slabs = slab_lock();
        for p in [2usize, 3] {
            spatial_matches_serial(false, 1, [8, 8, 4], p, &SlabOpts::default());
            spatial_matches_serial(false, 2, [16, 8, 4], p, &SlabOpts::default());
        }
    }

    /// A slab of exactly `2^depth` planes is one plane deep at the
    /// bottleneck, too shallow to overlap: that conv computes its one band,
    /// the whole halo-extended slab, which must match serial too.
    #[test]
    fn overlap_off_is_bitwise_serial_too() {
        let _slabs = slab_lock();
        for p in [2usize, 4] {
            spatial_matches_serial(true, 2, [1, 4 * p, 12], p, &SlabOpts::default());
            spatial_matches_serial(false, 2, [4 * p, 8, 4], p, &SlabOpts::default());
        }
    }

    #[test]
    fn skip_spill_is_bitwise_serial() {
        let _slabs = slab_lock();
        let opts = SlabOpts {
            spill_dir: Some(spill_dir()),
        };
        spatial_matches_serial(false, 2, [16, 8, 4], 2, &opts);
        spatial_matches_serial(true, 2, [1, 16, 12], 4, &opts);
    }

    /// The chunked spill stream must round-trip bit-exactly across chunk
    /// boundaries — including an f32 payload whose ragged tail leaves a
    /// half-empty wire word — using only bounded buffers.
    #[test]
    fn spill_stream_roundtrips_across_chunk_boundaries() {
        let _slabs = slab_lock();
        fn roundtrip<E: HaloElement + PartialEq + std::fmt::Debug>(vals: &[E]) {
            let path = Path::new("spill-stream-roundtrip");
            let mut file = Vec::new();
            write_spill_stream(&mut file, vals, path);
            assert_eq!(
                file.len(),
                8 * E::wire_words(SPILL_CHUNK_ELEMS) * (vals.len() / SPILL_CHUNK_ELEMS)
                    + 8 * E::wire_words(vals.len() % SPILL_CHUNK_ELEMS)
            );
            let mut out = vec![E::default(); vals.len()];
            read_spill_stream(&mut file.as_slice(), &mut out, path);
            assert_eq!(out, vals);
        }
        // 2.5 chunks of f64 with a signed zero on a chunk boundary.
        let mut v64: Vec<f64> = (0..SPILL_CHUNK_ELEMS * 2 + SPILL_CHUNK_ELEMS / 2 + 3)
            .map(|i| (i as f64).sin())
            .collect();
        v64[SPILL_CHUNK_ELEMS] = -0.0;
        roundtrip(&v64);
        // Odd-length f32: the last wire word carries one value.
        let v32: Vec<f32> = (0..SPILL_CHUNK_ELEMS + 7)
            .map(|i| (i as f32).cos())
            .collect();
        roundtrip(&v32);
        // NaN payload bits must survive the stream (compared as bits —
        // NaN != NaN under PartialEq).
        v64[1] = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut back = vec![0.0f64; v64.len()];
        let mut file = Vec::new();
        write_spill_stream(&mut file, &v64, Path::new("bits"));
        read_spill_stream(&mut file.as_slice(), &mut back, Path::new("bits"));
        let eq = v64
            .iter()
            .zip(&back)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(eq, "bit patterns must survive the stream");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// The overlapped halo path is bitwise-equal to serial over random
        /// resolution / depth / dimensionality / rank count (satellite
        /// coverage for the overlap rewrite).
        #[test]
        fn overlapped_slab_forward_is_bitwise_serial(
            two_d_bit in 0usize..=1,
            depth in 1usize..=2,
            p in 2usize..=4,
            mult in 1usize..=3,
            cross in 1usize..=3,
        ) {
            let two_d = two_d_bit == 1;
            // Split extent must admit p aligned slabs: p · mult · 2^depth.
            let split = p * mult * (1 << depth);
            let other = cross * (1 << depth);
            let dims = if two_d { [1, split, other] } else { [split, other, 4] };
            let _slabs = slab_lock();
            spatial_matches_serial(two_d, depth, dims, p, &SlabOpts::default());
        }
    }

    /// A [`Comm`] that panics on rank 1's third `recv` — the bottleneck
    /// exchange of a depth-2 walk, after that rank has spilled both skips.
    struct PanicOnThirdRecv {
        inner: mgd_dist::ThreadComm,
        recvs: std::cell::Cell<usize>,
    }

    impl Comm for PanicOnThirdRecv {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn allreduce_sum(&self, buf: &mut [f64]) {
            self.inner.allreduce_sum(buf);
        }
        fn allreduce_max(&self, buf: &mut [f64]) {
            self.inner.allreduce_max(buf);
        }
        fn broadcast(&self, root: usize, buf: &mut [f64]) {
            self.inner.broadcast(root, buf);
        }
        fn barrier(&self) {
            self.inner.barrier();
        }
        fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
            self.inner.send(to, tag, data);
        }
        fn recv(&self, from: usize, tag: u64) -> Vec<f64> {
            self.recvs.set(self.recvs.get() + 1);
            if self.rank() == 1 && self.recvs.get() == 3 {
                panic!("injected fault on rank 1's third recv");
            }
            self.inner.recv(from, tag)
        }
    }

    #[test]
    fn spill_files_are_removed_when_a_rank_unwinds() {
        let _slabs = slab_lock();
        let dir = std::env::temp_dir().join(format!("mgd-spill-unwind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = SlabOpts {
            spill_dir: Some(dir.clone()),
        };
        let shared = Arc::new(net(false, 2, 42));
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(vec![1, 1, 16, 8, 4], -1.0, 1.0, &mut rng);
        let layout = SplitAxis::Depth.layout(&Dims5::of(&x));
        let slabs: Vec<Tensor> = [0..8, 8..16]
            .into_iter()
            .map(|o| {
                Tensor::from_vec(
                    vec![1, 1, 8, 8, 4],
                    carve_planes(x.as_slice(), &layout, o.start, o.end),
                )
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mgd_dist::launch_with(slabs, |comm, slab| {
                let comm = PanicOnThirdRecv {
                    inner: comm,
                    recvs: std::cell::Cell::new(0),
                };
                infer_slab(&shared, &slab, &comm, &mut Workspace::new(), &opts)
            })
        }));
        let payload = outcome.expect_err("the injected fault must fail the walk");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("rank panicked"), "{msg}");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(left.is_empty(), "spill files leaked: {left:?}");
    }

    /// A spill never opens a file that already exists. Decoys sit under
    /// the next 64 names this process could pick (another process sharing
    /// the scratch dir, or a stale run, holds them): each keeps its bytes,
    /// and the skip still round-trips bitwise.
    #[test]
    fn spill_skips_names_that_already_exist() {
        let _slabs = slab_lock();
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("mgd-spill-decoys-{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (rank, next) = (1, SPILL_SEQ.load(Ordering::Relaxed));
        let decoys: Vec<(PathBuf, Vec<u8>)> = (next..next + 64)
            .map(|seq| {
                let path = dir.join(format!("mgd-skip-p{pid}-r{rank}-{seq}.bin"));
                let bytes = format!("decoy {seq}").into_bytes();
                std::fs::write(&path, &bytes).unwrap();
                (path, bytes)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let h = Tensor::rand_uniform(vec![2, 1, 3, 4, 5], -1.0, 1.0, &mut rng);
        let s = Tensor::rand_uniform(vec![2, 2, 3, 4, 5], -1.0, 1.0, &mut rng);
        let skip = Skip::spill(&s, &dir, rank);
        let cat = concat_skip(h.clone(), skip, &mut PeakMeter::default());
        let expect = concat_channels(&h, &s);
        let same = cat
            .as_slice()
            .iter()
            .zip(expect.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        for (path, bytes) in &decoys {
            let got = std::fs::read(path);
            assert_eq!(
                got.as_ref().ok(),
                Some(bytes),
                "decoy {} was touched",
                path.display()
            );
        }
        let left = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(same, "the spilled skip must round-trip bitwise");
        assert_eq!(left, decoys.len(), "the spill file outlived its skip");
    }

    #[test]
    fn single_rank_slab_matches_predict() {
        let _slabs = slab_lock();
        let mut a = net(false, 2, 5);
        let b = net(false, 2, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(vec![1, 1, 8, 8, 8], -1.0, 1.0, &mut rng);
        let serial = a.predict(&x);
        let results = mgd_dist::launch_with(vec![b], |comm, mut replica| {
            replica.predict_slab(&x, &comm).expect("the U-Net splits")
        });
        assert_eq!(serial.as_slice(), results[0].as_slice());
    }

    #[test]
    fn model_trait_exposes_spatial_hooks() {
        let _slabs = slab_lock();
        let m: Box<dyn Model> = Box::new(net(true, 2, 3));
        assert_eq!(m.spatial_align(), 4);
        let x = Tensor::zeros([1, 1, 1, 8, 8]);
        let y = mgd_dist::launch_with(vec![m], |comm, mut replica| replica.predict_slab(&x, &comm))
            .pop()
            .unwrap();
        assert!(y.is_some());
    }

    /// A serial `UNet::infer` is the walk on one rank, and it stays off the
    /// slab meter: a concurrent full-field forward must not inflate the
    /// peak that `measured_peak_stays_within_model` reads.
    #[test]
    fn serial_infer_leaves_the_slab_meter_alone() {
        let _slabs = slab_lock();
        reset_measured_peak();
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::rand_uniform(vec![1, 1, 16, 8, 4], -1.0, 1.0, &mut rng);
        let y = net(false, 2, 42).infer(&x, &mut Workspace::new());
        assert_eq!(y.dims(), x.dims());
        assert_eq!(
            measured_peak_elems(),
            0,
            "a one-rank walk published its peak"
        );
    }

    #[test]
    fn activation_model_scales_down_with_slabs() {
        let cfg = UNetConfig {
            depth: 3,
            base_filters: 16,
            ..Default::default()
        };
        let full = activation_peak_elems(&cfg, 1, [64, 64, 64], 0);
        let slab = activation_peak_elems(&cfg, 1, [16, 64, 64], 2);
        assert!(slab < full / 2, "slab {slab} vs full {full}");
        // The halo contribution is visible but small.
        let edge = activation_peak_elems(&cfg, 1, [16, 64, 64], 1);
        assert!(edge <= slab);
    }

    #[test]
    fn activation_model_shrinks_with_overlap_and_spill() {
        let cfg = UNetConfig {
            depth: 3,
            base_filters: 16,
            ..Default::default()
        };
        let dims = [16, 64, 64];
        let alone = activation_peak_elems(&cfg, 1, dims, 0);
        let interior = activation_peak_elems(&cfg, 1, dims, 2);
        let streamed = activation_peak_elems_opts(
            &cfg,
            1,
            dims,
            2,
            &SlabOpts {
                spill_dir: Some(PathBuf::from("/tmp")),
            },
        );
        // Without neighbours the model charges the one-band
        // accounting (input, a same-size copy, output). An interior rank's
        // overlapped walk holds two received planes and a 3-plane band per
        // conv instead of the copy, so it peaks lower despite the halos.
        assert!(
            interior < alone,
            "overlap drops the extended copy: {interior} vs {alone}"
        );
        assert!(
            streamed < interior,
            "spilling skips caps the resident set: {streamed} vs {interior}"
        );
    }

    #[test]
    fn measured_peak_stays_within_model() {
        let _slabs = slab_lock();
        // (options, global depth, label): the minimal 4-plane slab falls
        // back to the extended copy at its one-plane bottleneck.
        for (opts, d, label) in [
            (SlabOpts::default(), 16, "overlap"),
            (SlabOpts::default(), 8, "fallback"),
            (
                SlabOpts {
                    spill_dir: Some(spill_dir()),
                },
                16,
                "spill",
            ),
        ] {
            reset_measured_peak();
            spatial_matches_serial(false, 2, [d, 8, 4], 2, &opts);
            let measured = measured_peak_elems();
            // Per-rank slab: d/2 planes; the model's 2 halo sides bound
            // both ranks.
            let cfg = UNetConfig {
                depth: 2,
                base_filters: 2,
                ..Default::default()
            };
            let model = activation_peak_elems_opts(&cfg, 2, [d / 2, 8, 4], 2, &opts);
            assert!(measured > 0, "{label}: meter did not run");
            assert!(
                measured <= model,
                "{label}: measured {measured} exceeds model {model}"
            );
        }
    }
}
