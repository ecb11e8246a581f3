//! Multigrid training schedules (paper §3.1.2, Figure 3).
//!
//! A *schedule* is a sequence of (level, budget) phases over a resolution
//! hierarchy; level 0 is the finest grid (the paper's "Level 1") and level
//! `L−1` the coarsest. Following the paper: restriction (downward) visits
//! train for a fixed number of epochs — "convergence is not necessary at
//! the higher resolutions in the beginning" — while the coarsest level and
//! every prolongation (upward) visit train to convergence under early
//! stopping.

/// The four cycle shapes of Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleKind {
    /// Down to the coarsest, then straight back up.
    V,
    /// γ = 2 recursion below the finest level.
    W,
    /// F-cycle: full descent, then a V-cycle after each new ascent
    /// (`F(l) = l, F(l+1), l, V(l+1)`).
    F,
    /// No descent training: start at the coarsest, only prolongate
    /// (the paper's winner at high resolution).
    HalfV,
    /// Degenerate schedule: train only the finest level (the "Base"
    /// comparison rows of Tables 1 and 2).
    Base,
}

impl CycleKind {
    /// All paper cycles (excluding the Base control).
    pub const ALL: [CycleKind; 4] = [CycleKind::V, CycleKind::W, CycleKind::F, CycleKind::HalfV];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            CycleKind::V => "V Cycle",
            CycleKind::W => "W Cycle",
            CycleKind::F => "F Cycle",
            CycleKind::HalfV => "Half-V Cycle",
            CycleKind::Base => "Base",
        }
    }
}

/// Epoch budget for one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Train exactly this many epochs (restriction visits).
    Fixed(usize),
    /// Train until early stopping fires (coarsest + prolongation visits).
    Converge,
}

/// One stop of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Hierarchy level (0 = finest).
    pub level: usize,
    /// Epoch budget.
    pub budget: Budget,
}

/// The raw level visiting order of a cycle over `levels` grids.
pub fn level_sequence(kind: CycleKind, levels: usize) -> Vec<usize> {
    assert!(levels >= 1);
    match kind {
        CycleKind::Base => vec![0],
        CycleKind::HalfV => (0..levels).rev().collect(),
        CycleKind::V => v_seq(0, levels),
        CycleKind::W => w_seq(0, levels),
        CycleKind::F => f_seq(0, levels),
    }
}

fn v_seq(l: usize, levels: usize) -> Vec<usize> {
    if l + 1 == levels {
        return vec![l];
    }
    let mut out = vec![l];
    out.extend(v_seq(l + 1, levels));
    out.push(l);
    out
}

/// Textbook W-cycle: the finest level recurses once, intermediate levels
/// twice, revisiting the level after each recursion
/// (4 levels → 1 2 3 4 3 4 3 2 3 4 3 4 3 2 1).
fn w_seq(l: usize, levels: usize) -> Vec<usize> {
    if l + 1 == levels {
        return vec![l];
    }
    let gamma = if l == 0 { 1 } else { 2 };
    let mut out = vec![l];
    for _ in 0..gamma {
        out.extend(w_seq(l + 1, levels));
        out.push(l);
    }
    out
}

/// F-cycle, built exactly as §2.3 describes it: "It starts with the
/// restriction to the coarsest grid like the V-cycle. After having reached
/// each level the first time [during prolongation], a restriction to the
/// coarsest grid is performed." The cost lands between V and W
/// (4 levels → 13 visits vs V's 7 and W's 15).
fn f_seq(start: usize, levels: usize) -> Vec<usize> {
    debug_assert_eq!(start, 0);
    if levels == 1 {
        return vec![0];
    }
    let coarsest = levels - 1;
    let mut seq: Vec<usize> = (0..=coarsest).collect();
    for target in (0..coarsest).rev() {
        // Ascend from the coarsest to `target` (first prolongation arrival).
        seq.extend((target..coarsest).rev());
        // Then restrict back down to the coarsest — unless we just reached
        // the finest level, which ends the cycle.
        if target > 0 {
            seq.extend(target + 1..=coarsest);
        }
    }
    seq
}

/// Assigns budgets to a level sequence: a visit that *descends* next (the
/// following visit is coarser) trains `fixed_epochs`; every other visit —
/// prolongation arrivals, coarsest-level stops, and the final visit —
/// trains to convergence.
pub fn schedule(kind: CycleKind, levels: usize, fixed_epochs: usize) -> Vec<Phase> {
    let seq = level_sequence(kind, levels);
    let n = seq.len();
    seq.iter()
        .enumerate()
        .map(|(i, &level)| {
            let descending = i + 1 < n && seq[i + 1] > level;
            let budget = if descending {
                Budget::Fixed(fixed_epochs)
            } else {
                Budget::Converge
            };
            Phase { level, budget }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v_cycle_shape() {
        assert_eq!(level_sequence(CycleKind::V, 3), vec![0, 1, 2, 1, 0]);
        assert_eq!(level_sequence(CycleKind::V, 4), vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn half_v_shape() {
        assert_eq!(level_sequence(CycleKind::HalfV, 4), vec![3, 2, 1, 0]);
    }

    #[test]
    fn w_cycle_matches_textbook_picture() {
        // Figure 3 / Hackbusch: 4 levels -> 1 2 3 4 3 4 3 2 3 4 3 4 3 2 1
        // (our levels are 0-based).
        assert_eq!(
            level_sequence(CycleKind::W, 4),
            vec![0, 1, 2, 3, 2, 3, 2, 1, 2, 3, 2, 3, 2, 1, 0]
        );
        assert_eq!(level_sequence(CycleKind::W, 3), vec![0, 1, 2, 1, 2, 1, 0]);
    }

    #[test]
    fn f_cycle_shape() {
        // 3 levels: descend 0 1 2; reach 1 -> restrict 2; reach 0 -> done.
        assert_eq!(level_sequence(CycleKind::F, 3), vec![0, 1, 2, 1, 2, 1, 0]);
        // 4 levels: 13 visits, between V (7) and W (15).
        assert_eq!(
            level_sequence(CycleKind::F, 4),
            vec![0, 1, 2, 3, 2, 3, 2, 1, 2, 3, 2, 1, 0]
        );
        let v = level_sequence(CycleKind::V, 4).len();
        let f = level_sequence(CycleKind::F, 4).len();
        let w = level_sequence(CycleKind::W, 4).len();
        assert!(v < f && f < w, "{v} {f} {w}");
    }

    #[test]
    fn all_cycles_start_and_end_sensibly() {
        for kind in CycleKind::ALL {
            for levels in 2..=4 {
                let seq = level_sequence(kind, levels);
                // Visits every level at least once.
                for l in 0..levels {
                    assert!(seq.contains(&l), "{kind:?} {levels}: missing level {l}");
                }
                // Ends at the finest level (the network must finish at the
                // target resolution).
                assert_eq!(*seq.last().unwrap(), 0, "{kind:?}");
                // Steps move by exactly one level at a time, except Half-V's
                // implicit initial jump (it *starts* coarse).
                for w in seq.windows(2) {
                    assert!(
                        w[0].abs_diff(w[1]) == 1,
                        "{kind:?} {levels}: non-adjacent step {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn budgets_follow_paper_rule() {
        // V over 3 levels: descents fixed, coarsest + ascents converge.
        let s = schedule(CycleKind::V, 3, 5);
        let budgets: Vec<Budget> = s.iter().map(|p| p.budget).collect();
        assert_eq!(
            budgets,
            vec![
                Budget::Fixed(5),
                Budget::Fixed(5),
                Budget::Converge,
                Budget::Converge,
                Budget::Converge
            ]
        );
    }

    #[test]
    fn half_v_trains_everything_to_convergence() {
        let s = schedule(CycleKind::HalfV, 4, 5);
        assert!(s.iter().all(|p| p.budget == Budget::Converge));
    }

    #[test]
    fn base_is_single_finest_phase() {
        let s = schedule(CycleKind::Base, 4, 5);
        assert_eq!(
            s,
            vec![Phase {
                level: 0,
                budget: Budget::Converge
            }]
        );
    }

    #[test]
    fn single_level_degenerates_gracefully() {
        for kind in CycleKind::ALL {
            let s = schedule(kind, 1, 3);
            assert_eq!(s.len(), 1);
            assert_eq!(s[0].level, 0);
        }
    }
}
