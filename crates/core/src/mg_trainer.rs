//! Multigrid training over a resolution hierarchy (paper §3.1.2).
//!
//! Executes a [`crate::cycle`] schedule with a single resolution-agnostic
//! network: each phase re-rasterizes the analytic coefficient fields at the
//! phase's resolution and trains the *same* weights there. Optionally the
//! network is deepened on each first arrival at a finer level
//! (§4.1.2 architectural adaptation).

use crate::cycle::{schedule, Budget, CycleKind, Phase};
use crate::error::{MgdError, MgdResult};
use crate::loss::LossSpec;
use crate::trainer::{TrainConfig, Trainer};
use mgd_dist::Comm;
use mgd_field::Dataset;
use mgd_nn::{Model, Optimizer};

/// Multigrid schedule configuration.
#[derive(Clone, Copy, Debug)]
pub struct MgConfig {
    /// Which cycle to run.
    pub cycle: CycleKind,
    /// Number of hierarchy levels (level l trains at `finest / 2^l`).
    pub levels: usize,
    /// Epochs for restriction (descending) visits.
    pub fixed_epochs: usize,
    /// Deepen the network on each first arrival at a finer level
    /// (architectural adaptation, §4.1.2).
    pub adapt: bool,
    /// Number of consecutive cycles (the paper restricts itself to one but
    /// notes the extension to several, §3.1.2).
    pub cycles: usize,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig {
            cycle: CycleKind::HalfV,
            levels: 3,
            fixed_epochs: 3,
            adapt: false,
            cycles: 1,
        }
    }
}

/// Record of one schedule phase.
#[derive(Clone, Debug)]
pub struct PhaseLog {
    /// Hierarchy level (0 = finest).
    pub level: usize,
    /// Spatial dims trained at.
    pub dims: Vec<usize>,
    /// Budget that governed the phase.
    pub budget: Budget,
    /// Epochs actually trained.
    pub epochs: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Loss at the end of the phase.
    pub final_loss: f64,
    /// Loss trajectory (per epoch) within the phase.
    pub losses: Vec<f64>,
}

/// Record of a full multigrid run.
#[derive(Clone, Debug)]
pub struct MgRunLog {
    /// The cycle that ran.
    pub cycle: CycleKind,
    /// Per-phase records.
    pub phases: Vec<PhaseLog>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Final loss at the finest level.
    pub final_loss: f64,
}

impl MgRunLog {
    /// Seconds spent per level (for the paper's Figure 7 pie charts).
    pub fn seconds_per_level(&self, levels: usize) -> Vec<f64> {
        let mut out = vec![0.0; levels];
        for p in &self.phases {
            out[p.level] += p.seconds;
        }
        out
    }

    /// Cumulative wall-clock until the training loss first reached
    /// `target`, interpolated at per-epoch granularity. `None` when the run
    /// never got there.
    ///
    /// Losses at different levels are comparable because the Ritz energy of
    /// any discretization approximates the same continuum Dirichlet energy
    /// — which is exactly why multigrid training works (paper §3.1.2).
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        let mut t = 0.0;
        for ph in &self.phases {
            let per_epoch = if ph.epochs > 0 {
                ph.seconds / ph.epochs as f64
            } else {
                0.0
            };
            for &loss in &ph.losses {
                t += per_epoch;
                if loss <= target {
                    return Some(t);
                }
            }
        }
        None
    }
}

/// Runs multigrid training schedules.
pub struct MultigridTrainer {
    /// Schedule configuration.
    pub mg: MgConfig,
    /// Per-phase trainer configuration.
    pub train: TrainConfig,
    /// Finest-level spatial dims.
    pub finest_dims: Vec<usize>,
    /// Physics trained at every level (operator, boundary, forcing). The
    /// forcing field is resampled per level by [`crate::loss::FemLoss`].
    pub spec: LossSpec,
}

impl MultigridTrainer {
    /// Creates a runner with the paper's default physics (scalar Poisson);
    /// `finest_dims` must survive halving `levels - 1` times so every level
    /// still feeds the network. Violations are typed
    /// [`MgdError::InvalidConfig`]s.
    pub fn new(mg: MgConfig, train: TrainConfig, finest_dims: Vec<usize>) -> MgdResult<Self> {
        Self::with_spec(mg, train, finest_dims, LossSpec::default())
    }

    /// [`Self::new`] with explicit physics, trained identically at every
    /// hierarchy level.
    pub fn with_spec(
        mg: MgConfig,
        train: TrainConfig,
        finest_dims: Vec<usize>,
        spec: LossSpec,
    ) -> MgdResult<Self> {
        if mg.levels == 0 {
            return Err(MgdError::InvalidConfig(
                "levels must be >= 1 (got 0)".into(),
            ));
        }
        if finest_dims.len() != 2 && finest_dims.len() != 3 {
            return Err(MgdError::InvalidConfig(format!(
                "finest_dims must be rank 2 or 3, got {finest_dims:?}"
            )));
        }
        for &d in &finest_dims {
            if d >> (mg.levels - 1) < 2 {
                return Err(MgdError::InvalidConfig(format!(
                    "dim {d} collapses below 2 nodes at level {} of the hierarchy",
                    mg.levels - 1
                )));
            }
            if mg.levels > 1 && d % (1 << (mg.levels - 1)) != 0 {
                return Err(MgdError::InvalidConfig(format!(
                    "dim {d} is not divisible by 2^(levels-1) = {}",
                    1 << (mg.levels - 1)
                )));
            }
        }
        Ok(MultigridTrainer {
            mg,
            train,
            finest_dims,
            spec,
        })
    }

    /// Spatial dims at a hierarchy level.
    pub fn dims_at_level(&self, level: usize) -> Vec<usize> {
        self.finest_dims
            .iter()
            .map(|&d| {
                let c = d >> level;
                debug_assert!(c >= 2, "level {level} collapses dim {d}");
                c
            })
            .collect()
    }

    /// The schedule this configuration generates (`cycles` repetitions).
    pub fn phases(&self) -> Vec<Phase> {
        let one = schedule(self.mg.cycle, self.mg.levels, self.mg.fixed_epochs);
        let reps = self.mg.cycles.max(1);
        let mut out = Vec::with_capacity(one.len() * reps);
        for _ in 0..reps {
            out.extend(one.iter().copied());
        }
        out
    }

    /// Executes the schedule, mutating `net` (deepening it in place on
    /// adaptation steps via [`Model::deepen`]).
    pub fn run<M: Model, O: Optimizer, C: Comm>(
        &self,
        net: &mut M,
        opt: &mut O,
        data: &Dataset,
        comm: &C,
    ) -> MgdResult<MgRunLog> {
        let phases = self.phases();
        let mut log = MgRunLog {
            cycle: self.mg.cycle,
            phases: Vec::new(),
            total_seconds: 0.0,
            final_loss: f64::NAN,
        };
        let mut global_epoch = 0u64;
        let mut finest_seen = usize::MAX; // coarsest-is-largest sentinel
        for ph in phases {
            // Architectural adaptation: deepen on each *first* move to a
            // finer level than previously trained (paper: "after training
            // at each coarse resolution and moving to the finer
            // resolution").
            if self.mg.adapt && finest_seen != usize::MAX && ph.level < finest_seen {
                net.deepen();
            }
            finest_seen = finest_seen.min(ph.level);
            let dims = self.dims_at_level(ph.level);
            let mut trainer =
                Trainer::with_spec(net, opt, data, comm, dims.clone(), self.train, &self.spec)?;
            trainer.global_epoch = global_epoch;
            trainer.sync_initial_params();
            let tl = match ph.budget {
                Budget::Fixed(n) => trainer.train_fixed(n)?,
                Budget::Converge => trainer.train_to_convergence()?,
            };
            global_epoch = trainer.global_epoch;
            log.total_seconds += tl.total_seconds;
            log.final_loss = tl.final_loss;
            log.phases.push(PhaseLog {
                level: ph.level,
                dims,
                budget: ph.budget,
                epochs: tl.epochs.len(),
                seconds: tl.total_seconds,
                final_loss: tl.final_loss,
                losses: tl.epochs.iter().map(|e| e.loss).collect(),
            });
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgd_dist::ThreadComm;
    use mgd_field::{DiffusivityModel, InputEncoding};
    use mgd_nn::{Adam, UNet, UNetConfig};

    fn setup() -> (UNet, Adam, Dataset) {
        let net = UNet::new(UNetConfig {
            depth: 2,
            base_filters: 4,
            two_d: true,
            seed: 2,
            ..Default::default()
        });
        (
            net,
            Adam::new(3e-3),
            Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu),
        )
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            batch_size: 4,
            max_epochs: 12,
            patience: 3,
            min_delta: 1e-3,
            seed: 7,
        }
    }

    #[test]
    fn dims_at_level_halves() {
        let t = MultigridTrainer::new(MgConfig::default(), TrainConfig::default(), vec![64, 64])
            .unwrap();
        assert_eq!(t.dims_at_level(0), vec![64, 64]);
        assert_eq!(t.dims_at_level(2), vec![16, 16]);
    }

    #[test]
    fn half_v_runs_coarse_to_fine() {
        let (mut net, mut opt, data) = setup();
        let comm = ThreadComm::solo();
        let mg = MgConfig {
            cycle: CycleKind::HalfV,
            levels: 2,
            fixed_epochs: 2,
            adapt: false,
            cycles: 1,
        };
        let t = MultigridTrainer::new(mg, quick_cfg(), vec![32, 32]).unwrap();
        let log = t.run(&mut net, &mut opt, &data, &comm).unwrap();
        assert_eq!(log.phases.len(), 2);
        assert_eq!(log.phases[0].dims, vec![16, 16]);
        assert_eq!(log.phases[1].dims, vec![32, 32]);
        assert!(log.final_loss.is_finite());
        assert!(log.total_seconds > 0.0);
    }

    #[test]
    fn v_cycle_budgets_respected() {
        let (mut net, mut opt, data) = setup();
        let comm = ThreadComm::solo();
        let mg = MgConfig {
            cycle: CycleKind::V,
            levels: 2,
            fixed_epochs: 2,
            adapt: false,
            cycles: 1,
        };
        let t = MultigridTrainer::new(mg, quick_cfg(), vec![32, 32]).unwrap();
        let log = t.run(&mut net, &mut opt, &data, &comm).unwrap();
        // V over 2 levels: [0 Fixed(2), 1 Converge, 0 Converge].
        assert_eq!(log.phases.len(), 3);
        assert_eq!(log.phases[0].epochs, 2);
        assert!(log.phases[1].epochs <= 12);
    }

    #[test]
    fn adaptation_deepens_network_once_per_refinement() {
        let (mut net, mut opt, data) = setup();
        assert_eq!(net.cfg.depth, 2);
        let comm = ThreadComm::solo();
        let mg = MgConfig {
            cycle: CycleKind::HalfV,
            levels: 2,
            fixed_epochs: 1,
            adapt: true,
            cycles: 1,
        };
        let t = MultigridTrainer::new(mg, quick_cfg(), vec![32, 32]).unwrap();
        let _ = t.run(&mut net, &mut opt, &data, &comm).unwrap();
        // One refinement step (level 1 -> 0) => depth 2 -> 3.
        assert_eq!(net.cfg.depth, 3);
    }

    #[test]
    fn multiple_cycles_repeat_schedule() {
        let mg = MgConfig {
            cycle: CycleKind::V,
            levels: 2,
            fixed_epochs: 1,
            adapt: false,
            cycles: 3,
        };
        let t = MultigridTrainer::new(mg, quick_cfg(), vec![32, 32]).unwrap();
        let phases = t.phases();
        // One V cycle over 2 levels = 3 phases; repeated 3x.
        assert_eq!(phases.len(), 9);
        assert_eq!(phases[0].level, phases[3].level);
        // And it actually trains through all of them.
        let (mut net, mut opt, data) = setup();
        let comm = ThreadComm::solo();
        let log = t.run(&mut net, &mut opt, &data, &comm).unwrap();
        assert_eq!(log.phases.len(), 9);
    }

    #[test]
    fn seconds_per_level_partitions_total() {
        let (mut net, mut opt, data) = setup();
        let comm = ThreadComm::solo();
        let mg = MgConfig {
            cycle: CycleKind::V,
            levels: 2,
            fixed_epochs: 1,
            adapt: false,
            cycles: 1,
        };
        let t = MultigridTrainer::new(mg, quick_cfg(), vec![32, 32]).unwrap();
        let log = t.run(&mut net, &mut opt, &data, &comm).unwrap();
        let per = log.seconds_per_level(2);
        assert!((per.iter().sum::<f64>() - log.total_seconds).abs() < 1e-9);
        assert!(per.iter().all(|&s| s > 0.0));
    }
}
