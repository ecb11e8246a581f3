//! Algorithm 1: data-(parallel) training of the neural solver.
//!
//! Per mini-batch: rasterize the coefficient fields, forward the network,
//! impose the boundary values exactly, evaluate the FEM energy loss,
//! backpropagate its gradient, all-reduce-average gradients across workers,
//! and step the optimizer. Serial training is the `p = 1` special case,
//! run on the one rank of [`mgd_dist::ThreadComm::solo`].
//!
//! The trainer is generic over [`Model`] and [`Optimizer`] (any
//! architecture/update rule the `mgd_nn` traits admit) and returns typed
//! [`MgdError`]s instead of panicking on bad configurations or numerical
//! blow-ups.

use crate::error::{MgdError, MgdResult};
use crate::loss::FemLoss;
use crate::stopper::EarlyStopping;
use mgd_dist::{average_gradients, broadcast_params, global_minibatches, local_minibatch, Comm};
use mgd_field::Dataset;
use mgd_nn::param::{flatten_grads, flatten_params, unflatten_grads, unflatten_params};
use mgd_nn::{Model, Optimizer};
use std::time::Instant;

/// Trainer hyper-parameters (paper §4.1: Adam, lr 1e-5, global batch 64 for
/// the 2D studies — our scaled defaults use a larger lr and smaller batch
/// so the scaled-down experiments converge in CI-friendly time).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Global mini-batch size (split evenly across workers).
    pub batch_size: usize,
    /// Shuffling seed (shared by all workers — required for Eq. 15).
    pub seed: u64,
    /// Hard cap on epochs for `Budget::Converge` phases.
    pub max_epochs: usize,
    /// Early-stopping patience (epochs).
    pub patience: usize,
    /// Early-stopping minimum relative improvement.
    pub min_delta: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 8,
            seed: 0,
            max_epochs: 200,
            patience: 8,
            min_delta: 1e-3,
        }
    }
}

impl TrainConfig {
    /// Validates the hyper-parameters against a worker count.
    pub fn validate(&self, workers: usize) -> MgdResult<()> {
        if self.batch_size == 0 {
            return Err(MgdError::InvalidConfig("batch_size must be >= 1".into()));
        }
        if !self.batch_size.is_multiple_of(workers) {
            return Err(MgdError::InvalidConfig(format!(
                "global batch {} must divide across {} workers",
                self.batch_size, workers
            )));
        }
        if self.max_epochs == 0 {
            return Err(MgdError::InvalidConfig("max_epochs must be >= 1".into()));
        }
        Ok(())
    }
}

/// Per-epoch record.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (within the phase).
    pub epoch: u64,
    /// Mean energy loss over the epoch's mini-batches (globally averaged).
    pub loss: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Seconds inside collectives.
    pub comm_seconds: f64,
}

/// A phase/run record.
#[derive(Clone, Debug, Default)]
pub struct TrainLog {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Final epoch loss.
    pub final_loss: f64,
}

/// Binds network, optimizer, dataset and communicator for one resolution.
pub struct Trainer<'a, M: Model, O: Optimizer, C: Comm> {
    /// The resolution-agnostic network.
    pub net: &'a mut M,
    /// The optimizer (moments persist across resolutions until the
    /// parameter structure changes).
    pub opt: &'a mut O,
    /// Training data (ω samples; fields rasterized on demand).
    pub data: &'a Dataset,
    /// Communicator (`ThreadComm::solo()` for serial runs).
    pub comm: &'a C,
    /// Spatial dims trained at (`[ny, nx]` or `[nz, ny, nx]`).
    pub dims: Vec<usize>,
    /// Hyper-parameters.
    pub cfg: TrainConfig,
    loss: FemLoss,
    /// Monotonic epoch counter across phases (keeps shuffles fresh).
    pub global_epoch: u64,
}

impl<'a, M: Model, O: Optimizer, C: Comm> Trainer<'a, M, O, C> {
    /// Creates a trainer for one resolution.
    ///
    /// Fails with [`MgdError::InvalidConfig`] when the batch size does not
    /// divide across the communicator's workers or the grid dims are
    /// unusable.
    pub fn new(
        net: &'a mut M,
        opt: &'a mut O,
        data: &'a Dataset,
        comm: &'a C,
        dims: Vec<usize>,
        cfg: TrainConfig,
    ) -> MgdResult<Self> {
        Self::with_spec(
            net,
            opt,
            data,
            comm,
            dims,
            cfg,
            &crate::loss::LossSpec::default(),
        )
    }

    /// [`Self::new`] with explicit physics (operator, boundary, forcing).
    /// Algorithm 1 is unchanged: only the energy evaluated per mini-batch
    /// differs, so every operator trains through the same loop.
    pub fn with_spec(
        net: &'a mut M,
        opt: &'a mut O,
        data: &'a Dataset,
        comm: &'a C,
        dims: Vec<usize>,
        cfg: TrainConfig,
        spec: &crate::loss::LossSpec,
    ) -> MgdResult<Self> {
        cfg.validate(comm.size())?;
        if data.is_empty() {
            return Err(MgdError::Field(mgd_field::FieldError::Empty));
        }
        let loss = FemLoss::with_spec(&dims, spec)?;
        Ok(Trainer {
            net,
            opt,
            data,
            comm,
            dims,
            cfg,
            loss,
            global_epoch: 0,
        })
    }

    /// Synchronizes replicas from rank 0 (call once before distributed
    /// training; harmless for p = 1).
    pub fn sync_initial_params(&mut self) {
        if self.comm.size() > 1 {
            let mut params = self.net.params();
            let mut flat = Vec::new();
            flatten_params(&params, &mut flat);
            broadcast_params(self.comm, &mut flat);
            unflatten_params(&mut params, &flat);
        }
    }

    /// Runs one epoch (Algorithm 1's inner loop) and returns its stats.
    ///
    /// A non-finite loss or gradient aborts with [`MgdError::NonFinite`]
    /// instead of panicking, so callers can lower the learning rate and
    /// retry from a checkpoint.
    pub fn train_epoch(&mut self) -> MgdResult<EpochStats> {
        let start = Instant::now();
        let p = self.comm.size();
        let mut perm = self
            .data
            .epoch_permutation(self.cfg.seed, self.global_epoch);
        // Wrap-pad so every global mini-batch is full and divides across
        // workers (the paper's dataset-augmentation step).
        mgd_dist::pad_indices(&mut perm, self.cfg.batch_size);
        let mbs = global_minibatches(&perm, self.cfg.batch_size);
        let mut loss_sum = 0.0;
        let mut comm_seconds = 0.0;
        for mb in &mbs {
            let local = local_minibatch(mb, self.comm.rank(), p);
            let x = self.data.try_batch_inputs(local, &self.dims)?;
            let mut u = self.net.forward(&x, true);
            self.loss.apply_bc_batch(&mut u);
            let nu = self.data.try_batch_nu(local, &self.dims)?;
            let (j, grad_u) = self.loss.energy_grad_batch(&nu, &u);
            if p == 1 && (!j.is_finite() || grad_u.has_non_finite()) {
                return Err(MgdError::NonFinite {
                    epoch: self.global_epoch,
                    loss: j,
                });
            }
            // Through the masking, ∂J/∂y = ∂J/∂u · χ_int (grad_u is already
            // masked), so it backpropagates directly; nothing reads the
            // input gradient, so none is formed.
            self.net.backward_params(&grad_u);
            // Average gradients and the reported loss across workers.
            let mut params = self.net.params();
            if p > 1 {
                let mut flat = Vec::new();
                flatten_grads(&params, &mut flat);
                let grads_len = flat.len();
                flat.push(j); // piggyback the scalar loss on the same ring
                comm_seconds += average_gradients(self.comm, &mut flat);
                let j_avg = flat.pop().ok_or(MgdError::ShapeMismatch {
                    expected: vec![grads_len + 1],
                    got: vec![0],
                })?;
                // Distributed blow-up detection happens *after* the
                // all-reduce on purpose: a NaN/Inf on any one rank
                // propagates through the sum, so every rank observes the
                // identical non-finite average and aborts in the same
                // mini-batch — a pre-reduce local check would leave the
                // healthy ranks deadlocked in the next collective.
                if !j_avg.is_finite() || flat.iter().any(|g| !g.is_finite()) {
                    return Err(MgdError::NonFinite {
                        epoch: self.global_epoch,
                        loss: j_avg,
                    });
                }
                unflatten_grads(&mut params, &flat);
                loss_sum += j_avg;
            } else {
                loss_sum += j;
            }
            self.opt.step(&mut params);
            mgd_nn::optim::zero_grads(&mut params);
        }
        self.global_epoch += 1;
        Ok(EpochStats {
            epoch: self.global_epoch - 1,
            loss: loss_sum / mbs.len() as f64,
            seconds: start.elapsed().as_secs_f64(),
            comm_seconds,
        })
    }

    /// Trains for a fixed number of epochs.
    pub fn train_fixed(&mut self, epochs: usize) -> MgdResult<TrainLog> {
        let mut log = TrainLog::default();
        for _ in 0..epochs {
            let s = self.train_epoch()?;
            log.total_seconds += s.seconds;
            log.final_loss = s.loss;
            log.epochs.push(s);
        }
        Ok(log)
    }

    /// Trains until early stopping (or the `max_epochs` cap) fires.
    pub fn train_to_convergence(&mut self) -> MgdResult<TrainLog> {
        let mut stopper = EarlyStopping::new(self.cfg.patience, self.cfg.min_delta);
        let mut log = TrainLog::default();
        for _ in 0..self.cfg.max_epochs {
            let s = self.train_epoch()?;
            log.total_seconds += s.seconds;
            log.final_loss = s.loss;
            log.epochs.push(s);
            if stopper.update(s.loss) {
                break;
            }
        }
        Ok(log)
    }

    /// Evaluation loss over an explicit sample set (no parameter updates).
    pub fn eval_loss(&mut self, samples: &[usize]) -> MgdResult<f64> {
        let x = self.data.try_batch_inputs(samples, &self.dims)?;
        let mut u = self.net.forward(&x, false);
        self.loss.apply_bc_batch(&mut u);
        let nu = self.data.try_batch_nu(samples, &self.dims)?;
        Ok(self.loss.energy_batch(&nu, &u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgd_dist::ThreadComm;
    use mgd_field::{DiffusivityModel, InputEncoding};
    use mgd_nn::{Adam, Layer, UNet, UNetConfig};

    fn tiny_setup() -> (UNet, Adam, Dataset) {
        let net = UNet::new(UNetConfig {
            depth: 2,
            base_filters: 4,
            two_d: true,
            seed: 1,
            ..Default::default()
        });
        let opt = Adam::new(3e-3);
        let data = Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu);
        (net, opt, data)
    }

    #[test]
    fn loss_decreases_over_training() {
        let (mut net, mut opt, data) = tiny_setup();
        let comm = ThreadComm::solo();
        let cfg = TrainConfig {
            batch_size: 4,
            max_epochs: 30,
            ..Default::default()
        };
        let mut tr = Trainer::new(&mut net, &mut opt, &data, &comm, vec![16, 16], cfg).unwrap();
        let log = tr.train_fixed(30).unwrap();
        let first = log.epochs.first().unwrap().loss;
        let last = log.final_loss;
        assert!(
            last < first,
            "training must reduce the energy: {first} -> {last}"
        );
    }

    #[test]
    fn training_approaches_fem_energy() {
        // The FEM solution is the energy minimizer over this grid; a
        // converged network's energy must close most of the gap from the
        // initial prediction.
        let (mut net, mut opt, data) = tiny_setup();
        let comm = ThreadComm::solo();
        let cfg = TrainConfig {
            batch_size: 4,
            max_epochs: 120,
            patience: 15,
            ..Default::default()
        };
        let dims = vec![16, 16];
        let loss_fns = FemLoss::new(&dims).unwrap();
        // FEM reference energy averaged over the dataset.
        let mut fem_energy = 0.0;
        for s in 0..data.len() {
            let nu = data.nu_field(s, &dims);
            let (u, stats) = loss_fns.fem_solve(nu.as_slice(), None, 1e-10).unwrap();
            assert!(stats.converged);
            let ub = mgd_tensor::Tensor::from_vec([1, 1, 1, 16, 16], u);
            fem_energy += loss_fns.energy_batch(&[nu], &ub) / data.len() as f64;
        }
        let mut tr = Trainer::new(&mut net, &mut opt, &data, &comm, dims.clone(), cfg).unwrap();
        let all: Vec<usize> = (0..data.len()).collect();
        let initial = tr.eval_loss(&all).unwrap();
        let _ = tr.train_to_convergence().unwrap();
        let trained = tr.eval_loss(&all).unwrap();
        let gap0 = initial - fem_energy;
        let gap1 = trained - fem_energy;
        assert!(gap1 >= -1e-6, "cannot beat the FEM minimizer");
        assert!(
            gap1 < 0.5 * gap0,
            "network should close >=50% of the energy gap: {gap0} -> {gap1} (fem {fem_energy})"
        );
    }

    #[test]
    fn anisotropic_spec_trains_through_same_loop() {
        use crate::loss::LossSpec;
        use mgd_field::Anisotropy;
        let mut net = UNet::new(UNetConfig {
            depth: 2,
            base_filters: 4,
            two_d: true,
            in_channels: 3,
            seed: 1,
            ..Default::default()
        });
        let mut opt = Adam::new(3e-3);
        let data = Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu)
            .with_anisotropy(Anisotropy::new(4.0, 0.5).unwrap())
            .unwrap();
        let comm = ThreadComm::solo();
        let cfg = TrainConfig {
            batch_size: 4,
            max_epochs: 20,
            ..Default::default()
        };
        let spec = LossSpec {
            op: mgd_fem::PdeOperator::AnisoDiffusion,
            ..LossSpec::default()
        };
        let mut tr =
            Trainer::with_spec(&mut net, &mut opt, &data, &comm, vec![16, 16], cfg, &spec).unwrap();
        let log = tr.train_fixed(20).unwrap();
        let first = log.epochs.first().unwrap().loss;
        assert!(log.final_loss.is_finite());
        assert!(
            log.final_loss < first,
            "aniso energy must descend: {first} -> {}",
            log.final_loss
        );
    }

    #[test]
    fn eval_does_not_change_params() {
        let (mut net, mut opt, data) = tiny_setup();
        let comm = ThreadComm::solo();
        let cfg = TrainConfig {
            batch_size: 4,
            ..Default::default()
        };
        let before: Vec<f64> = {
            let mut flat = Vec::new();
            flatten_params(&net.params(), &mut flat);
            flat
        };
        let mut tr = Trainer::new(&mut net, &mut opt, &data, &comm, vec![16, 16], cfg).unwrap();
        let _ = tr.eval_loss(&[0, 1]).unwrap();
        let after: Vec<f64> = {
            let mut flat = Vec::new();
            flatten_params(&tr.net.params(), &mut flat);
            flat
        };
        assert_eq!(before, after);
    }

    #[test]
    fn batch_size_must_divide_workers() {
        // The old API panicked here; the redesign reports a typed error on
        // every rank instead.
        let results = mgd_dist::launch(2, |comm| {
            let (mut net, mut opt, data) = tiny_setup();
            let cfg = TrainConfig {
                batch_size: 3,
                ..Default::default()
            };
            matches!(
                Trainer::new(&mut net, &mut opt, &data, &comm, vec![16, 16], cfg),
                Err(MgdError::InvalidConfig(_))
            )
        });
        assert!(results.into_iter().all(|rejected| rejected));
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let (mut net, mut opt, _) = tiny_setup();
        let data = Dataset::from_omegas(vec![], DiffusivityModel::paper(), InputEncoding::LogNu);
        let comm = ThreadComm::solo();
        let cfg = TrainConfig::default();
        assert!(matches!(
            Trainer::new(&mut net, &mut opt, &data, &comm, vec![16, 16], cfg),
            Err(MgdError::Field(mgd_field::FieldError::Empty))
        ));
    }
}
