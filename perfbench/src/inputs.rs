//! Inputs generated from the run's seed before anything is served: for
//! each source stream, a start-up window and one cycle of corrupted
//! slices with their clean ground truth.

use crate::workload::Workload;
use sofia_datagen::{Corruptor, TensorStream};
use sofia_tensor::{DenseTensor, ObservedTensor};

/// The dataset proxies' own observation noise (`Dataset::stream`).
const NOISE_SIGMA: f64 = 0.05;

pub struct Source {
    /// Seed of this source's model init (fixed per source).
    pub init_seed: u64,
    pub startup: Vec<ObservedTensor>,
    /// Corrupted slices of one input cycle, in stream order.
    pub slices: Vec<ObservedTensor>,
    /// Clean ground truth aligned with `slices`.
    pub truth: Vec<DenseTensor>,
}

impl Source {
    /// The slice served at tick `k` (the input cycle repeats; its length
    /// is a whole number of seasons, so the seasonal phase is continuous).
    pub fn slice(&self, k: usize) -> &ObservedTensor {
        &self.slices[k % self.slices.len()]
    }

    pub fn truth(&self, k: usize) -> &DenseTensor {
        &self.truth[k % self.truth.len()]
    }
}

/// SplitMix64 step: decorrelates the per-source seeds derived from one
/// run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn generate(workload: &Workload, seed: u64) -> Vec<Source> {
    let startup_len = workload.config().startup_len();
    (0..workload.sources as u64)
        .map(|j| {
            // The dataset proxy is fixed per source, as a real dataset
            // is; the seed draws its observation noise and the §VI-A
            // missing entries and outliers.
            let stream = workload
                .dataset
                .stream(j)
                .with_noise(NOISE_SIGMA, mix(seed, 2 * j + 1));
            let corruptor = Corruptor::new(
                workload.corruption(),
                stream.max_abs_over_season(),
                mix(seed, 2 * j + 2),
            );
            let observe = |t: usize| {
                let clean = stream.clean_slice(t);
                (corruptor.corrupt(&clean, t), clean)
            };
            let startup = (0..startup_len).map(|t| observe(t).0).collect();
            let (slices, truth) = (startup_len..startup_len + workload.cycle)
                .map(observe)
                .unzip();
            Source {
                init_seed: j,
                startup,
                slices,
                truth,
            }
        })
        .collect()
}
