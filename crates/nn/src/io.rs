//! Weight checkpointing.
//!
//! [`WeightSnapshot`] captures weights and buffers through the [`Model`]
//! trait: it works for any network the trainers accept (including a
//! `Box<dyn Model>`), and restores into a structurally identical instance,
//! returning an error when the structure disagrees.
//!
//! On disk a snapshot is one compact JSON object with the keys
//! `model_name`, `precision`, `tensors` (an array of `[shape, data]`
//! pairs) and `buffers` (an array of arrays), in that order.
//! [`WeightSnapshot::save`] is its one writer and [`WeightSnapshot::load`]
//! its one reader; floats are written shortest-roundtrip, so a save/load
//! cycle is bitwise.

use crate::model::Model;
use serde_json::Value;
use std::io::{Error, ErrorKind, Write};
use std::path::Path;

/// Architecture-agnostic parameter/buffer snapshot taken through the
/// [`Model`] trait.
#[derive(Clone)]
pub struct WeightSnapshot {
    /// Model identifier at capture time (restore sanity check).
    pub model_name: String,
    /// Element type the weights were captured at (`"f64"` for master
    /// weights; empty in pre-tag snapshots, normalized to `"f64"` by
    /// [`WeightSnapshot::precision`]). Values are stored as `f64` either
    /// way, so restoring converts implicitly; the tag records how much
    /// precision the numbers actually carry.
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

    /// Writes the snapshot to a JSON file (the format in the module docs).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let doc = serde_json::json!({
            "model_name": self.model_name,
            "precision": self.precision,
            "tensors": self.tensors,
            "buffers": self.buffers,
        });
        let text = serde_json::to_string(&doc).map_err(Error::other)?;
        std::fs::File::create(path)?.write_all(text.as_bytes())
    }

    /// Reads a snapshot written by [`WeightSnapshot::save`]. A missing
    /// `precision` key (pre-tag files) reads as empty. Malformed JSON, a
    /// missing or mistyped key, and a tensor whose data length is not its
    /// shape's volume are [`ErrorKind::InvalidData`].
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let bad = |key: &str, e: &dyn std::fmt::Display| {
            Error::new(ErrorKind::InvalidData, format!("weight file `{key}`: {e}"))
        };
        let mut doc: Value = serde_json::from_str(&std::fs::read_to_string(path)?)
            .map_err(|e| bad("(document)", &e))?;
        let precision = match doc.get_mut("precision") {
            Some(v) => serde_json::from_value(v.take()).map_err(|e| bad("precision", &e))?,
            None => String::new(),
        };
        let mut take = |key: &str| {
            let v = doc.get_mut(key).map(Value::take);
            v.ok_or_else(|| bad(key, &"missing key"))
        };
        let (model_name, tensors, buffers) =
            (take("model_name")?, take("tensors")?, take("buffers")?);
        let snap = WeightSnapshot {
            model_name: serde_json::from_value(model_name).map_err(|e| bad("model_name", &e))?,
            precision,
            tensors: serde_json::from_value(tensors).map_err(|e| bad("tensors", &e))?,
            buffers: serde_json::from_value(buffers).map_err(|e| bad("buffers", &e))?,
        };
        for (i, (shape, data)) in snap.tensors.iter().enumerate() {
            let volume = shape.iter().try_fold(1usize, |v, &d| v.checked_mul(d));
            if volume != Some(data.len()) {
                let msg = format!("tensor {i} has shape {shape:?} but {} values", data.len());
                return Err(bad("tensors", &msg));
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::unet::{UNet, UNetConfig};
    use mgd_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn small_net(seed: u64) -> UNet {
        UNet::new(UNetConfig {
            depth: 2,
            base_filters: 2,
            two_d: true,
            seed,
            ..Default::default()
        })
    }

    fn scratch_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mgd_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Every parameter and buffer value of `net`, as bits, in capture order.
    fn bits(net: &mut UNet) -> Vec<u64> {
        let snap = WeightSnapshot::capture(net);
        let params = snap.tensors.iter().flat_map(|(_, d)| d);
        let bufs = snap.buffers.iter().flatten();
        params.chain(bufs).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn file_roundtrip_is_bitwise_on_every_parameter_and_buffer() {
        let mut net = small_net(5);
        // Values with long shortest-roundtrip forms, subnormals and signed
        // zeros, in the parameters and in the batch-norm buffers alike.
        let mut rng = StdRng::seed_from_u64(11);
        let awkward = [0.1, -0.0, 1e-310, f64::MIN_POSITIVE, 1.0 / 3.0, -7.5e300];
        for p in net.params() {
            for (j, x) in p.data.as_mut_slice().iter_mut().enumerate() {
                *x = awkward
                    .get(j)
                    .copied()
                    .unwrap_or_else(|| rng.gen_range(-2.0..2.0));
            }
        }
        for b in net.buffers() {
            for x in b.iter_mut() {
                *x = rng.gen_range(-2.0..2.0);
            }
        }
        let path = scratch_path("bitwise.json");
        WeightSnapshot::capture(&mut net).save(&path).unwrap();
        let mut other = small_net(99);
        assert_ne!(bits(&mut other), bits(&mut net), "different init");
        WeightSnapshot::load(&path)
            .unwrap()
            .restore(&mut other)
            .unwrap();
        assert_eq!(bits(&mut other), bits(&mut net));
        assert!(!net.buffers().is_empty(), "the net must carry buffers");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_without_precision_key_loads_as_f64() {
        let mut net = small_net(5);
        let path = scratch_path("pre_tag.json");
        WeightSnapshot::capture(&mut net).save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let pre_tag = text.replace("\"precision\":\"f64\",", "");
        assert_ne!(pre_tag, text, "the writer emits the precision key");
        std::fs::write(&path, pre_tag).unwrap();
        let snap = WeightSnapshot::load(&path).unwrap();
        assert_eq!(snap.precision, "");
        assert_eq!(snap.precision(), "f64");
        let mut other = small_net(99);
        snap.restore(&mut other).unwrap();
        assert_eq!(bits(&mut other), bits(&mut net));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_files_are_invalid_data() {
        let mut net = small_net(5);
        let path = scratch_path("malformed.json");
        WeightSnapshot::capture(&mut net).save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc =
            |tensors: &str| format!(r#"{{"model_name":"m","tensors":{tensors},"buffers":[]}}"#);
        let bad = [
            ("truncated", text[..text.len() / 2].to_string()),
            ("tensors not an array", doc(r#"{"a":1}"#)),
            ("non-numeric value", doc(r#"[[[1],["x"]]]"#)),
            ("data shorter than shape", doc("[[[2],[1.0]]]")),
        ];
        for (what, text) in bad {
            std::fs::write(&path, &text).unwrap();
            let err = WeightSnapshot::load(&path).err();
            let kind = err.as_ref().map(std::io::Error::kind);
            assert_eq!(
                kind,
                Some(std::io::ErrorKind::InvalidData),
                "{what}: {err:?}"
            );
        }
        // The same document with a well-formed entry loads.
        std::fs::write(&path, doc("[[[1],[0.5]]]")).unwrap();
        assert_eq!(
            WeightSnapshot::load(&path).unwrap().tensors,
            [(vec![1], vec![0.5])]
        );
        std::fs::remove_file(&path).ok();
    }
}
