//! Element coloring for race-free parallel assembly.
//!
//! Two elements of a structured grid share a node iff their multi-indices
//! differ by at most 1 along every axis. Grouping elements by the *parity*
//! of their multi-index (2^D colors) therefore guarantees that any two
//! same-color elements differ by ≥ 2 along some axis whenever they differ at
//! all — so their `2^D`-node supports are disjoint and scatter-adds within a
//! color cannot race. Colors are processed sequentially; elements within a
//! color in parallel.

use crate::grid::Grid;
use mgd_tensor::par::maybe_par_for;

/// Iterates all elements color-by-color, calling `f(element_linear_index)`
/// in parallel within each color.
///
/// `work_hint` estimates the per-element cost in "slice elements touched"
/// for the parallelism threshold.
pub fn for_each_element_colored<const D: usize, F>(grid: &Grid<D>, work_hint: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    let ne = grid.elements();
    for color in 0..(1usize << D) {
        // Element counts of this color along each axis.
        let mut cnt = [0usize; D];
        let mut total = 1usize;
        for d in 0..D {
            let parity = (color >> (D - 1 - d)) & 1;
            cnt[d] = (ne[d] + 1).saturating_sub(parity) / 2;
            total *= cnt[d];
        }
        if total == 0 {
            continue;
        }
        maybe_par_for(total, work_hint, |lin| {
            // Decompose the color-local index into a full element index.
            let mut rem = lin;
            let mut el = [0usize; D];
            for d in (0..D).rev() {
                let parity = (color >> (D - 1 - d)) & 1;
                el[d] = (rem % cnt[d]) * 2 + parity;
                rem /= cnt[d];
            }
            // Re-linearize in global element ordering.
            let mut e = 0usize;
            for d in 0..D {
                e = e * ne[d] + el[d];
            }
            f(e);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgd_tensor::par::SyncSlice;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn visits_every_element_exactly_once_2d() {
        let g: Grid<2> = Grid::new([4, 6]);
        let seen: Vec<AtomicUsize> = (0..g.num_elements()).map(|_| AtomicUsize::new(0)).collect();
        for_each_element_colored(&g, 1, |e| {
            seen[e].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn visits_every_element_exactly_once_3d() {
        let g: Grid<3> = Grid::new([3, 4, 5]);
        let seen: Vec<AtomicUsize> = (0..g.num_elements()).map(|_| AtomicUsize::new(0)).collect();
        for_each_element_colored(&g, 1, |e| {
            seen[e].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn same_color_elements_are_node_disjoint() {
        let g: Grid<3> = Grid::cube(5);
        let ne = g.elements();
        let s = g.strides();
        // Enumerate colors manually and check pairwise disjointness of node
        // sets within each color (exhaustive at this size).
        for color in 0..8usize {
            let mut members = Vec::new();
            for e in 0..g.num_elements() {
                let el = g.element_multi(e);
                let c = (0..3).fold(0usize, |acc, d| acc << 1 | (el[d] & 1));
                if c == color {
                    members.push(el);
                }
            }
            let nodes = |el: [usize; 3]| -> Vec<usize> {
                let base = g.element_base(el);
                (0..8).map(|l| base + g.local_offset(&s, l)).collect()
            };
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    let na = nodes(a);
                    let nb = nodes(b);
                    assert!(na.iter().all(|x| !nb.contains(x)), "{a:?} vs {b:?}");
                }
            }
            let _ = ne;
        }
    }

    #[test]
    fn parallel_scatter_adds_match_serial() {
        let g: Grid<2> = Grid::new([9, 9]);
        let s = g.strides();
        let mut out_par = vec![0.0; g.num_nodes()];
        {
            let sync = SyncSlice::new(&mut out_par);
            for_each_element_colored(&g, 1 << 20, |e| {
                let el = g.element_multi(e);
                let base = g.element_base(el);
                for l in 0..4 {
                    // SAFETY: same-color elements touch disjoint nodes.
                    unsafe { sync.add(base + g.local_offset(&s, l), 1.0) };
                }
            });
        }
        // Serial reference: each node accumulates one contribution per
        // incident element.
        let mut out_ser = vec![0.0; g.num_nodes()];
        for e in 0..g.num_elements() {
            let el = g.element_multi(e);
            let base = g.element_base(el);
            for l in 0..4 {
                out_ser[base + g.local_offset(&s, l)] += 1.0;
            }
        }
        assert_eq!(out_par, out_ser);
    }
}
