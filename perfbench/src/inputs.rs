//! Workload inputs, generated from the in-repo model zoo and the seed.

use ss_models::{zoo, Network, ValueGen};
use ss_tensor::{FixedType, Tensor};

use crate::schedule::SplitMix;

/// A named tensor set one workload runs on.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Record names (store keys), one per tensor.
    pub names: Vec<String>,
    /// The tensors.
    pub tensors: Vec<Tensor>,
}

impl Inputs {
    /// Total values across every tensor.
    #[must_use]
    pub fn values(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    fn push(&mut self, name: String, tensor: Tensor) {
        self.names.push(name);
        self.tensors.push(tensor);
    }
}

/// An 8-bit generator with the statistics of a zoo layer's 16-bit one
/// (width target capped to what 8 bits can hold).
fn eight_bit(width: f64, sparsity: f64, dtype: FixedType) -> ValueGen {
    ValueGen::from_width_target(width.min(6.0), sparsity, dtype)
}

/// Every weight tensor of `resnet50` with its geometry divided by
/// `divisor` (2 in the full run: 54 records of 1 Ki to 576 Ki values,
/// about 6.4 M values).
#[must_use]
pub fn resnet50_weights(seed: u64, divisor: usize) -> Inputs {
    let net = zoo::resnet50().scaled_down(divisor);
    let mut out = Inputs {
        names: Vec::new(),
        tensors: Vec::new(),
    };
    for l in 0..net.layers().len() {
        out.push(format!("layer{l:02}.weight"), net.weight_tensor(l, seed));
    }
    out
}

/// `count` small tensors with lengths spread evenly over 64 to 1024
/// values: even ones int16 weights, odd ones uint8 activations, each
/// with the statistics of a random `resnet50` layer. The seed changes
/// the values and statistics, not the sizes.
#[must_use]
pub fn small_pool(seed: u64, count: usize) -> Inputs {
    let net = zoo::resnet50();
    let mut rng = SplitMix::new(seed ^ 0x5A11_9001);
    let mut out = Inputs {
        names: Vec::new(),
        tensors: Vec::new(),
    };
    for i in 0..count {
        let len = 64 + (1024 - 64) * i / (count - 1).max(1);
        let layer = i % net.layers().len();
        let tensor_seed = rng.next_u64();
        let tensor = if i % 2 == 0 {
            net.weight_gen(layer).tensor_flat(len, tensor_seed)
        } else {
            let s = net.layers()[layer].stats();
            eight_bit(s.act_width, s.act_sparsity, FixedType::U8).tensor_flat(len, tensor_seed)
        };
        out.push(format!("small{i:03}"), tensor);
    }
    out
}

/// Weights and input activations of one network, at 16 bits (the zoo's
/// containers) or 8 bits (int8 weights, uint8 activations).
fn network_tensors(out: &mut Inputs, net: &Network, seed: u64, eight: bool, act_every: usize) {
    for l in 0..net.layers().len() {
        let s = net.layers()[l].stats();
        let w = if eight {
            let count = net.layers()[l].weight_count();
            eight_bit(s.wgt_width, s.wgt_sparsity, FixedType::I8)
                .tensor_flat(count, seed ^ ((l as u64) << 8))
        } else {
            net.weight_tensor(l, seed)
        };
        out.push(format!("{}.{l:02}.weight", net.name()), w);
        if l % act_every == 0 {
            let a = if eight {
                let count = net.layers()[l].input_count();
                eight_bit(s.act_width, s.act_sparsity, FixedType::U8)
                    .tensor_flat(count, seed ^ ((l as u64) << 8) ^ 1)
            } else {
                net.input_tensor(l, seed)
            };
            out.push(format!("{}.{l:02}.input", net.name()), a);
        }
    }
}

/// The `codec_batch` batch: 16-bit `resnet50` and 8-bit `mobilenet`
/// weights plus some of their input activations, at scaled geometry
/// (divisors 16 and 8 in the full run, about 0.2 M values).
#[must_use]
pub fn codec_batch(seed: u64, smoke: bool) -> Inputs {
    let (r, m) = if smoke { (32, 16) } else { (16, 8) };
    let mut out = Inputs {
        names: Vec::new(),
        tensors: Vec::new(),
    };
    network_tensors(&mut out, &zoo::resnet50().scaled_down(r), seed, false, 6);
    network_tensors(&mut out, &zoo::mobilenet().scaled_down(m), seed, true, 3);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded() {
        let a = small_pool(5, 6);
        let b = small_pool(5, 6);
        let c = small_pool(6, 6);
        assert_eq!(a.tensors, b.tensors);
        assert_ne!(a.tensors, c.tensors);
        assert!(a.tensors.iter().all(|t| (64..=1024).contains(&t.len())));
        assert_eq!(a.tensors[0].dtype(), FixedType::I16);
        assert_eq!(a.tensors[1].dtype(), FixedType::U8);
    }

    #[test]
    fn batch_mixes_widths() {
        let b = codec_batch(1, true);
        assert_eq!(b.names.len(), b.tensors.len());
        for dtype in [FixedType::I16, FixedType::U16, FixedType::I8, FixedType::U8] {
            assert!(b.tensors.iter().any(|t| t.dtype() == dtype), "{dtype:?}");
        }
    }
}
