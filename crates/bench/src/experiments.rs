//! Common harness configuration.

use mgd_field::{Dataset, DiffusivityModel, InputEncoding};
use mgd_nn::{Adam, UNet, UNetConfig};
use mgdiffnet::TrainConfig;

/// Scaled-down vs paper-scale parameter sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Finishes in minutes on a laptop; same code paths, smaller grids,
    /// fewer samples/epochs. This is the default.
    Quick,
    /// The paper's sizes (e.g. 512², 128³, 65,536 samples). Expect hours to
    /// days on a single machine — provided for completeness.
    Full,
}

/// Parsed command-line arguments shared by the harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Experiment scale.
    pub scale: ExperimentScale,
    /// RNG / shuffle seed.
    pub seed: u64,
}

impl HarnessArgs {
    /// Parses `--full` and `--seed N` from `std::env::args`.
    pub fn parse() -> Self {
        let mut scale = ExperimentScale::Quick;
        let mut seed = 0u64;
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => scale = ExperimentScale::Full,
                "--seed" => {
                    i += 1;
                    seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer");
                }
                "--help" | "-h" => {
                    println!("flags: --full (paper-scale parameters), --seed N");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other} (try --help)"),
            }
            i += 1;
        }
        HarnessArgs { scale, seed }
    }
}

/// Standard 2D training setup for the harnesses.
pub fn setup_2d(
    samples: usize,
    base_filters: usize,
    depth: usize,
    seed: u64,
) -> (UNet, Adam, Dataset) {
    let net = UNet::new(UNetConfig {
        two_d: true,
        depth,
        base_filters,
        seed,
        ..Default::default()
    });
    let opt = Adam::new(3e-3);
    let data = Dataset::sobol(samples, DiffusivityModel::paper(), InputEncoding::LogNu);
    (net, opt, data)
}

/// Standard 3D training setup for the harnesses.
pub fn setup_3d(
    samples: usize,
    base_filters: usize,
    depth: usize,
    seed: u64,
) -> (UNet, Adam, Dataset) {
    let net = UNet::new(UNetConfig {
        two_d: false,
        depth,
        base_filters,
        seed,
        ..Default::default()
    });
    let opt = Adam::new(3e-3);
    let data = Dataset::sobol(samples, DiffusivityModel::paper(), InputEncoding::LogNu);
    (net, opt, data)
}

/// Harness-default trainer configuration.
pub fn train_cfg(batch: usize, max_epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        batch_size: batch,
        seed,
        max_epochs,
        patience: 6,
        min_delta: 1e-3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_produce_consistent_nets() {
        let (mut net, _, data) = setup_2d(4, 2, 2, 3);
        assert!(net.num_parameters() > 0);
        assert_eq!(data.len(), 4);
        let (mut net3, _, _) = setup_3d(2, 2, 2, 3);
        assert!(!net3.cfg.two_d);
        assert!(net3.num_parameters() > net.num_parameters() / 10);
    }
}
