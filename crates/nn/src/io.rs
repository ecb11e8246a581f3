//! Weight checkpointing.
//!
//! [`WeightSnapshot`] captures weights and buffers through the [`Model`]
//! trait: it works for any network the trainers accept (including a
//! `Box<dyn Model>`), and restores into a structurally identical instance,
//! returning an error when the structure disagrees.

use crate::model::Model;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// Architecture-agnostic parameter/buffer snapshot taken through the
/// [`Model`] trait.
#[derive(Clone, Serialize, Deserialize)]
pub struct WeightSnapshot {
    /// Model identifier at capture time (restore sanity check).
    pub model_name: String,
    /// Element type the weights were captured at (`"f64"` for master
    /// weights; empty in pre-tag snapshots, normalized to `"f64"` by
    /// [`WeightSnapshot::precision`]). Values are stored as `f64` either
    /// way, so restoring converts implicitly; the tag records how much
    /// precision the numbers actually carry.
    #[serde(default)]
    pub precision: String,
    /// Flat parameter tensors in `params()` order (shape, data).
    pub tensors: Vec<(Vec<usize>, Vec<f64>)>,
    /// Persistent buffers in `buffers()` order.
    pub buffers: Vec<Vec<f64>>,
}

impl WeightSnapshot {
    /// Captures the weights of any model (always at `f64` master
    /// precision — training never runs in `f32`).
    pub fn capture<M: Model + ?Sized>(net: &mut M) -> Self {
        let model_name = net.name();
        let tensors = net
            .params()
            .iter()
            .map(|p| (p.data.dims().to_vec(), p.data.as_slice().to_vec()))
            .collect();
        let buffers = net.buffers().iter().map(|b| b.to_vec()).collect();
        WeightSnapshot {
            model_name,
            precision: String::from("f64"),
            tensors,
            buffers,
        }
    }

    /// Capture-time element type, with pre-tag snapshots (empty field)
    /// reading as `"f64"`.
    pub fn precision(&self) -> &str {
        if self.precision.is_empty() {
            "f64"
        } else {
            &self.precision
        }
    }

    /// Loads the snapshot into a structurally identical model instance.
    ///
    /// Returns an error (leaving `net` partially updated only on the
    /// matching prefix of parameters — callers should discard it then)
    /// when the parameter or buffer structure disagrees.
    pub fn restore<M: Model + ?Sized>(&self, net: &mut M) -> Result<(), String> {
        let model_name = net.name();
        let mut params = net.params();
        if params.len() != self.tensors.len() {
            return Err(format!(
                "snapshot has {} parameter tensors, model '{model_name}' has {}",
                self.tensors.len(),
                params.len()
            ));
        }
        for (i, (p, (shape, data))) in params.iter_mut().zip(self.tensors.iter()).enumerate() {
            if p.data.dims() != &shape[..] {
                return Err(format!(
                    "parameter {i}: snapshot shape {:?} != model shape {:?}",
                    shape,
                    p.data.dims()
                ));
            }
            p.data.as_mut_slice().copy_from_slice(data);
        }
        let mut bufs = net.buffers();
        if bufs.len() != self.buffers.len() {
            return Err(format!(
                "snapshot has {} buffers, model has {}",
                self.buffers.len(),
                bufs.len()
            ));
        }
        for (i, (dst, src)) in bufs.iter_mut().zip(self.buffers.iter()).enumerate() {
            if dst.len() != src.len() {
                return Err(format!(
                    "buffer {i}: snapshot len {} != model len {}",
                    src.len(),
                    dst.len()
                ));
            }
            dst.copy_from_slice(src);
        }
        Ok(())
    }

    /// Serializes to a JSON file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        let s = serde_json::to_string(self).map_err(std::io::Error::other)?;
        f.write_all(s.as_bytes())
    }

    /// Deserializes from a JSON file.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let mut s = String::new();
        std::fs::File::open(path)?.read_to_string(&mut s)?;
        serde_json::from_str(&s).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::{UNet, UNetConfig};
    use mgd_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weight_snapshot_roundtrip_through_model_trait() {
        let cfg = UNetConfig {
            depth: 2,
            base_filters: 2,
            two_d: true,
            seed: 21,
            ..Default::default()
        };
        let mut net: Box<dyn Model> = Box::new(UNet::new(cfg));
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::rand_uniform([1, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let y0 = net.predict(&x);
        let snap = WeightSnapshot::capture(&mut net);
        let dir = std::env::temp_dir().join("mgd_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        snap.save(&path).unwrap();
        // Restore into a differently seeded but structurally equal net.
        let mut other = UNet::new(UNetConfig { seed: 99, ..cfg });
        assert!(other.predict(&x).rel_l2_error(&y0) > 1e-6, "different init");
        WeightSnapshot::load(&path)
            .unwrap()
            .restore(&mut other)
            .unwrap();
        assert!(other.predict(&x).rel_l2_error(&y0) < 1e-15);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_roundtrip_preserves_outputs() {
        // A checkpoint of a net whose depth was adapted (§4.1.2) is a weight
        // snapshot on file; restoring it into a fresh net of the adapted
        // depth reproduces the outputs.
        let cfg = UNetConfig {
            depth: 2,
            base_filters: 2,
            two_d: true,
            seed: 17,
            ..Default::default()
        };
        let mut net = UNet::new(cfg).deepened();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform([1, 1, 1, 16, 16], -1.0, 1.0, &mut rng);
        let y0 = net.predict(&x);
        let dir = std::env::temp_dir().join("mgd_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        WeightSnapshot::capture(&mut net).save(&path).unwrap();
        let mut net2 = UNet::new(UNetConfig {
            depth: 3,
            seed: 99,
            ..cfg
        });
        assert!(net2.predict(&x).rel_l2_error(&y0) > 1e-6, "different init");
        WeightSnapshot::load(&path)
            .unwrap()
            .restore(&mut net2)
            .unwrap();
        assert!(net2.predict(&x).rel_l2_error(&y0) < 1e-15);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weight_snapshot_rejects_structure_mismatch() {
        let cfg = UNetConfig {
            depth: 1,
            base_filters: 2,
            two_d: true,
            seed: 1,
            ..Default::default()
        };
        let mut net = UNet::new(cfg);
        let snap = WeightSnapshot::capture(&mut net);
        let mut deeper = net.deepened();
        assert!(snap.restore(&mut deeper).is_err());
    }
}
