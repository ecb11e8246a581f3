//! Z-slab partitioning and tagged halo-plane exchange over a [`Comm`].
//!
//! This is the spatial-decomposition substrate of the workspace: the
//! slab-decomposed U-Net forward (`mgd_nn::spatial`) partitions the
//! slowest varying spatial axis into `p` contiguous slabs and refreshes
//! thin halo regions at the cuts before every stencil application.
//!
//! Fields are viewed through a [`SlabLayout`] as a row-major
//! `[pre, split, post]` array, where `split` is the partitioned axis:
//!
//! - an NCDHW tensor split along depth is `[n·c, d, h·w]`;
//! - an NCDHW tensor with a unit depth axis (2D problems) split along
//!   height is `[n·c, h, w]`.
//!
//! One "plane" is therefore `pre · post` scalars gathered from `pre`
//! strided chunks of `post` contiguous values. [`carve_planes`] /
//! [`assemble_planes`] move slabs between the global field and per-rank
//! storage, and [`exchange_post`] / [`PendingHalo::finish`] perform one
//! tagged halo exchange: every rank posts its boundary planes to its ring
//! neighbours, computes whatever needs only owned planes, then collects
//! the neighbours' planes.
//!
//! All constructors are fallible: an over-decomposed or misaligned
//! partition surfaces as a typed [`PartitionError`] at configuration time
//! instead of panicking inside a rank (which would poison the communicator
//! and take every peer down with an opaque `rank panicked`).

use crate::comm::Comm;

/// A scalar that can ride the `f64` wire format of [`Comm`] messages.
///
/// `f64` maps one-to-one; `f32` bit-packs two values per wire word, so an
/// f32 halo exchange moves **half the bytes** of the f64 exchange — the
/// mechanism behind reduced-precision slab serving. Pack/unpack round-trips
/// are bit-exact (no value ever passes through a float conversion).
pub trait HaloElement: Copy + Default + Send + Sync + 'static {
    /// Packs values into `f64` wire words.
    fn pack_wire(vals: &[Self]) -> Vec<f64>;
    /// Unpacks exactly `len` values from `wire`.
    fn unpack_wire(wire: &[f64], len: usize) -> Vec<Self>;
    /// Number of `f64` wire words that `len` packed values occupy —
    /// lets streaming consumers size bounded I/O buffers without
    /// materializing a whole packed payload.
    fn wire_words(len: usize) -> usize;
}

impl HaloElement for f64 {
    fn pack_wire(vals: &[f64]) -> Vec<f64> {
        vals.to_vec()
    }

    fn unpack_wire(wire: &[f64], len: usize) -> Vec<f64> {
        assert_eq!(wire.len(), len, "f64 wire length mismatch");
        wire.to_vec()
    }

    fn wire_words(len: usize) -> usize {
        len
    }
}

impl HaloElement for f32 {
    fn pack_wire(vals: &[f32]) -> Vec<f64> {
        // Two f32 bit patterns per wire word (high half first); a ragged
        // tail leaves the low half zero. Bit-level, so NaN payloads and
        // signed zeros survive unchanged.
        vals.chunks(2)
            .map(|pair| {
                let hi = (pair[0].to_bits() as u64) << 32;
                let lo = pair.get(1).map_or(0, |v| v.to_bits() as u64);
                f64::from_bits(hi | lo)
            })
            .collect()
    }

    fn unpack_wire(wire: &[f64], len: usize) -> Vec<f32> {
        assert_eq!(wire.len(), len.div_ceil(2), "f32 wire length mismatch");
        let mut out = Vec::with_capacity(len);
        for (i, w) in wire.iter().enumerate() {
            let bits = w.to_bits();
            out.push(f32::from_bits((bits >> 32) as u32));
            if 2 * i + 1 < len {
                out.push(f32::from_bits(bits as u32));
            }
        }
        out
    }

    fn wire_words(len: usize) -> usize {
        len.div_ceil(2)
    }
}

/// Why a [`SlabPartition`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// Fewer indivisible split units (aligned plane blocks) than ranks:
    /// at least one rank would own nothing.
    OverDecomposed {
        /// Number of indivisible units along the split axis.
        units: usize,
        /// Requested rank count.
        ranks: usize,
    },
    /// The split extent is not a multiple of the required alignment.
    Misaligned {
        /// Total planes along the split axis.
        extent: usize,
        /// Required slab-size multiple.
        align: usize,
    },
    /// A degenerate request (zero ranks, planes or alignment).
    Degenerate {
        /// Total planes along the split axis.
        extent: usize,
        /// Requested rank count.
        ranks: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::OverDecomposed { units, ranks } => write!(
                f,
                "over-decomposed slab partition: {units} split unit(s) cannot \
                 give each of {ranks} ranks at least one"
            ),
            PartitionError::Misaligned { extent, align } => write!(
                f,
                "misaligned slab partition: extent {extent} is not a \
                 multiple of the required slab alignment {align}"
            ),
            PartitionError::Degenerate { extent, ranks } => write!(
                f,
                "degenerate slab partition: extent {extent} across {ranks} rank(s)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A partition of one spatial axis into `p` contiguous slabs.
///
/// Rank `r` owns planes `starts[r]..starts[r+1]`, so the slabs tile the
/// axis exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlabPartition {
    /// First owned plane per rank (len p+1); `starts[p]` is the extent.
    pub starts: Vec<usize>,
}

impl SlabPartition {
    /// Splits `extent` planes across `p` ranks so every slab size is a
    /// positive multiple of `align` — the convention of the slab-
    /// decomposed U-Net forward, where `align = 2^depth` keeps every
    /// pool/upsample boundary on a slab cut.
    pub fn aligned(extent: usize, p: usize, align: usize) -> Result<Self, PartitionError> {
        if p == 0 || extent == 0 || align == 0 {
            return Err(PartitionError::Degenerate { extent, ranks: p });
        }
        if !extent.is_multiple_of(align) {
            return Err(PartitionError::Misaligned { extent, align });
        }
        let blocks = extent / align;
        if p > blocks {
            return Err(PartitionError::OverDecomposed {
                units: blocks,
                ranks: p,
            });
        }
        let mut starts = Vec::with_capacity(p + 1);
        for r in 0..=p {
            starts.push((r * blocks / p) * align);
        }
        debug_assert_eq!(starts[p], extent);
        Ok(SlabPartition { starts })
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Owned plane range of `rank`.
    pub fn owned_planes(&self, rank: usize) -> std::ops::Range<usize> {
        self.starts[rank]..self.starts[rank + 1]
    }
}

/// Row-major `[pre, split, post]` view of a field: `split` is the
/// partitioned axis, one plane is `pre` strided chunks of `post` scalars.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabLayout {
    /// Product of the axes slower than the split axis.
    pub pre: usize,
    /// Extent of the split axis.
    pub split: usize,
    /// Product of the axes faster than the split axis.
    pub post: usize,
}

impl SlabLayout {
    /// Total scalars described by this layout.
    pub fn len(&self) -> usize {
        self.pre * self.split * self.post
    }

    /// Whether the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same field with a different split extent (e.g. a carved slab).
    pub fn with_split(&self, split: usize) -> SlabLayout {
        SlabLayout { split, ..*self }
    }
}

/// Copies planes `[r0, r1)` of `src` (shaped by `layout`) into a fresh
/// contiguous `[pre, r1 - r0, post]` slab.
pub fn carve_planes<T: Copy>(src: &[T], layout: &SlabLayout, r0: usize, r1: usize) -> Vec<T> {
    assert_eq!(src.len(), layout.len(), "layout/source length mismatch");
    assert!(r0 <= r1 && r1 <= layout.split, "plane range out of bounds");
    let count = r1 - r0;
    let mut out = Vec::with_capacity(layout.pre * count * layout.post);
    for pre in 0..layout.pre {
        let base = (pre * layout.split + r0) * layout.post;
        out.extend_from_slice(&src[base..base + count * layout.post]);
    }
    out
}

/// Scatters a contiguous `[pre, count, post]` slab into planes starting at
/// `r0` of `dst` (shaped by `layout`). The inverse of [`carve_planes`].
pub fn place_planes<T: Copy>(dst: &mut [T], layout: &SlabLayout, r0: usize, slab: &[T]) {
    assert_eq!(
        dst.len(),
        layout.len(),
        "layout/destination length mismatch"
    );
    assert!(
        slab.len().is_multiple_of((layout.pre * layout.post).max(1)),
        "slab is not a whole number of planes"
    );
    let count = slab.len() / (layout.pre * layout.post);
    assert!(r0 + count <= layout.split, "slab overflows the split axis");
    for pre in 0..layout.pre {
        let base = (pre * layout.split + r0) * layout.post;
        dst[base..base + count * layout.post]
            .copy_from_slice(&slab[pre * count * layout.post..(pre + 1) * count * layout.post]);
    }
}

/// Stitches rank-ordered owned slabs (each `[pre, own_r, post]`) back into
/// one `[pre, Σ own_r, post]` field.
pub fn assemble_planes<T: Copy + Default>(slabs: &[Vec<T>], pre: usize, post: usize) -> Vec<T> {
    let plane = pre * post;
    let total: usize = slabs
        .iter()
        .map(|s| {
            assert!(
                s.len().is_multiple_of(plane.max(1)),
                "slab is not a whole number of planes"
            );
            s.len() / plane.max(1)
        })
        .sum();
    let layout = SlabLayout {
        pre,
        split: total,
        post,
    };
    let mut out = vec![T::default(); layout.len()];
    let mut at = 0usize;
    for slab in slabs {
        place_planes(&mut out, &layout, at, slab);
        at += slab.len() / plane.max(1);
    }
    out
}

/// An in-flight halo exchange: the boundary planes have been posted to the
/// ring neighbours, the matching receives have not happened yet.
///
/// This is the overlap hook of the slab forward — between
/// [`exchange_post`] and [`PendingHalo::finish`] the caller is free to do
/// arbitrary local work (e.g. compute the interior output rows that depend
/// only on owned planes) while the neighbour planes are in flight.
#[derive(Debug)]
pub struct PendingHalo {
    /// Halo planes expected below the owned range (0 on rank 0).
    pub lo: usize,
    /// Halo planes expected above the owned range (0 on the last rank).
    pub hi: usize,
    /// Scalars per halo block (`pre · halo · post`).
    elems: usize,
    tag: u64,
}

impl PendingHalo {
    /// Blocks until both neighbour halo blocks have arrived and returns
    /// `(from_below, from_above)` — each a contiguous `[pre, halo, post]`
    /// slab, `None` on the respective domain edge.
    pub fn finish<T: HaloElement, C: Comm + ?Sized>(
        self,
        comm: &C,
    ) -> (Option<Vec<T>>, Option<Vec<T>>) {
        let rank = comm.rank();
        let above = (self.hi > 0).then(|| {
            let wire = comm.recv(rank + 1, self.tag);
            T::unpack_wire(&wire, self.elems)
        });
        let below = (self.lo > 0).then(|| {
            let wire = comm.recv(rank - 1, self.tag + 1);
            T::unpack_wire(&wire, self.elems)
        });
        (below, above)
    }
}

/// Posts this rank's `halo` boundary planes to each existing ring
/// neighbour (tags `tag` downward, `tag + 1` upward) without blocking,
/// returning the [`PendingHalo`] whose `finish` collects the neighbours'
/// planes.
///
/// `local` is this rank's owned slab viewed as `[pre, own, post]` through
/// `layout` (`layout.split` = `own`). Every rank must call this with the
/// same `tag` in the same program order (collective-like discipline);
/// unbounded channels make the symmetric send-then-receive order safe.
/// Requires `halo <= own` so each rank can feed its neighbours.
pub fn exchange_post<T: HaloElement, C: Comm + ?Sized>(
    comm: &C,
    local: &[T],
    layout: &SlabLayout,
    halo: usize,
    tag: u64,
) -> PendingHalo {
    let own = layout.split;
    assert_eq!(local.len(), layout.len(), "layout/slab length mismatch");
    assert!(
        halo <= own,
        "halo width {halo} exceeds the owned slab extent {own}"
    );
    let rank = comm.rank();
    let p = comm.size();
    if halo == 0 || p == 1 {
        return PendingHalo {
            lo: 0,
            hi: 0,
            elems: 0,
            tag,
        };
    }
    if rank > 0 {
        let planes = carve_planes(local, layout, 0, halo);
        comm.send(rank - 1, tag, T::pack_wire(&planes));
    }
    if rank + 1 < p {
        let planes = carve_planes(local, layout, own - halo, own);
        comm.send(rank + 1, tag + 1, T::pack_wire(&planes));
    }
    PendingHalo {
        lo: if rank > 0 { halo } else { 0 },
        hi: if rank + 1 < p { halo } else { 0 },
        elems: layout.pre * halo * layout.post,
        tag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_comm::{launch, ThreadComm};

    #[test]
    fn unit_partition_covers_all_planes_evenly() {
        for n in [5usize, 9, 16] {
            for p in 1..=4 {
                let part = SlabPartition::aligned(n, p, 1).unwrap();
                let mut covered = vec![0usize; n];
                for r in 0..p {
                    for pl in part.owned_planes(r) {
                        covered[pl] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "n={n} p={p}: {covered:?}");
                let sizes: Vec<usize> = (0..p).map(|r| part.owned_planes(r).len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "n={n} p={p}: {sizes:?}");
            }
        }
    }

    #[test]
    fn aligned_partition_tiles_with_aligned_slabs() {
        for (extent, p, align) in [(16usize, 2usize, 4usize), (24, 3, 4), (40, 5, 8), (8, 1, 8)] {
            let part = SlabPartition::aligned(extent, p, align).unwrap();
            assert_eq!(part.num_ranks(), p);
            let mut covered = 0usize;
            for r in 0..p {
                let owned = part.owned_planes(r);
                assert_eq!(owned.start, covered, "slabs must tile contiguously");
                assert!(!owned.is_empty());
                assert!(owned.len().is_multiple_of(align), "{owned:?} vs {align}");
                covered = owned.end;
            }
            assert_eq!(covered, extent);
        }
    }

    #[test]
    fn constructors_reject_bad_configs() {
        assert!(matches!(
            SlabPartition::aligned(9, 0, 1),
            Err(PartitionError::Degenerate { .. })
        ));
        assert!(matches!(
            SlabPartition::aligned(4, 5, 1),
            Err(PartitionError::OverDecomposed { units: 4, ranks: 5 })
        ));
        assert!(matches!(
            SlabPartition::aligned(12, 2, 8),
            Err(PartitionError::Misaligned {
                extent: 12,
                align: 8
            })
        ));
        assert!(matches!(
            SlabPartition::aligned(16, 5, 4),
            Err(PartitionError::OverDecomposed { units: 4, ranks: 5 })
        ));
        let msg = SlabPartition::aligned(16, 5, 4).unwrap_err().to_string();
        assert!(msg.contains("over-decomposed"), "{msg}");
    }

    #[test]
    fn carve_place_assemble_roundtrip() {
        let layout = SlabLayout {
            pre: 3,
            split: 5,
            post: 4,
        };
        let field: Vec<f64> = (0..layout.len()).map(|i| i as f64).collect();
        let part = SlabPartition::aligned(5, 5, 1).unwrap();
        let slabs: Vec<Vec<f64>> = (0..5)
            .map(|r| {
                let o = part.owned_planes(r);
                carve_planes(&field, &layout, o.start, o.end)
            })
            .collect();
        let back = assemble_planes(&slabs, layout.pre, layout.post);
        assert_eq!(back, field);
        // Uneven carve too.
        let a = carve_planes(&field, &layout, 0, 2);
        let b = carve_planes(&field, &layout, 2, 5);
        assert_eq!(assemble_planes(&[a, b], layout.pre, layout.post), field);
    }

    #[test]
    fn exchange_delivers_neighbour_planes() {
        // 3 ranks, each owning 2 planes of a [pre=2, 6, post=3] field whose
        // value encodes the global plane index.
        let layout = SlabLayout {
            pre: 2,
            split: 6,
            post: 3,
        };
        let global: Vec<f64> = (0..layout.len())
            .map(|i| ((i / layout.post) % layout.split) as f64)
            .collect();
        let own = layout.with_split(2);
        let results = launch(3, |comm| {
            let r = comm.rank();
            let local = carve_planes(&global, &layout, 2 * r, 2 * r + 2);
            let pending = exchange_post(&comm, &local, &own, 1, 40);
            let (lo, hi) = (pending.lo, pending.hi);
            (r, lo, hi, pending.finish::<f64, _>(&comm))
        });
        for (r, lo, hi, (below, above)) in results {
            // Halo widths are 0 on the domain edges, and so is what arrives.
            assert_eq!(lo, usize::from(r > 0));
            assert_eq!(hi, usize::from(r < 2));
            assert_eq!(below.is_some(), r > 0);
            assert_eq!(above.is_some(), r < 2);
            // Each received [pre, 1, post] block is the neighbour's boundary
            // plane, carrying its global index.
            if let Some(below) = below {
                assert_eq!(below, vec![(2 * r - 1) as f64; 6], "rank {r} below");
            }
            if let Some(above) = above {
                assert_eq!(above, vec![(2 * r + 2) as f64; 6], "rank {r} above");
            }
        }
    }

    #[test]
    fn exchange_with_zero_halo_is_identity() {
        let layout = SlabLayout {
            pre: 1,
            split: 3,
            post: 2,
        };
        let local: Vec<f64> = (0..6).map(f64::from).collect();
        // No reach, or no neighbours: nothing is posted and nothing arrives.
        let mut results = launch(2, |comm| {
            let pending = exchange_post(&comm, &local, &layout, 0, 7);
            ((pending.lo, pending.hi), pending.finish::<f64, _>(&comm))
        });
        let solo = ThreadComm::solo();
        let pending = exchange_post(&solo, &local, &layout, 1, 7);
        results.push(((pending.lo, pending.hi), pending.finish::<f64, _>(&solo)));
        for (widths, received) in results {
            assert_eq!(widths, (0, 0));
            assert_eq!(received, (None, None));
        }
    }
}
