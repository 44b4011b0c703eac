//! Observation masks — the indicator tensor `Ω` of Eq. (3).

use crate::dense::DenseTensor;
use crate::shape::Shape;
use rand::Rng;

/// A binary observation mask over a tensor: `mask[i] == true` iff the
/// corresponding entry is observed.
///
/// The mask caches the list of observed flat offsets so that algorithms can
/// iterate over `Ω` in `O(|Ω|)` — this is what makes the per-step cost of
/// SOFIA linear in the number of *observed* entries (Lemma 2).
#[derive(Clone, PartialEq, Eq)]
pub struct Mask {
    shape: Shape,
    observed: Vec<bool>,
    observed_offsets: Vec<usize>,
}

impl Mask {
    /// Fully observed mask.
    pub fn all_observed(shape: Shape) -> Self {
        let len = shape.len();
        Self {
            shape,
            observed: vec![true; len],
            observed_offsets: (0..len).collect(),
        }
    }

    /// Fully missing mask.
    pub fn all_missing(shape: Shape) -> Self {
        let len = shape.len();
        Self {
            shape,
            observed: vec![false; len],
            observed_offsets: Vec::new(),
        }
    }

    /// Builds a mask from a boolean vector in row-major order.
    pub fn from_vec(shape: Shape, observed: Vec<bool>) -> Self {
        assert_eq!(observed.len(), shape.len(), "mask length mismatch");
        let observed_offsets = observed
            .iter()
            .enumerate()
            .filter(|(_, &o)| o)
            .map(|(i, _)| i)
            .collect();
        Self {
            shape,
            observed,
            observed_offsets,
        }
    }

    /// Random mask where each entry is observed independently with
    /// probability `1 - missing_fraction`. This reproduces the
    /// "X% of randomly selected entries are ignored" protocol of §VI-A.
    pub fn random(shape: Shape, missing_fraction: f64, rng: &mut impl Rng) -> Self {
        assert!(
            (0.0..=1.0).contains(&missing_fraction),
            "missing fraction must be in [0,1]"
        );
        let observed: Vec<bool> = (0..shape.len())
            .map(|_| rng.gen::<f64>() >= missing_fraction)
            .collect();
        Self::from_vec(shape, observed)
    }

    /// The mask's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Whether the entry at `index` is observed.
    #[inline]
    pub fn is_observed(&self, index: &[usize]) -> bool {
        self.observed[self.shape.offset(index)]
    }

    /// Whether the entry at flat `offset` is observed.
    #[inline]
    pub fn is_observed_flat(&self, offset: usize) -> bool {
        self.observed[offset]
    }

    /// The observed flag of every entry, in row-major order.
    #[inline]
    pub fn observed_flags(&self) -> &[bool] {
        &self.observed
    }

    /// Flat offsets of all observed entries, ascending.
    #[inline]
    pub fn observed_offsets(&self) -> &[usize] {
        &self.observed_offsets
    }

    /// Number of observed entries `|Ω|`.
    #[inline]
    pub fn count_observed(&self) -> usize {
        self.observed_offsets.len()
    }

    /// Fraction of observed entries.
    pub fn observed_fraction(&self) -> f64 {
        self.count_observed() as f64 / self.shape.len() as f64
    }

    /// The indicator tensor `Ω` as a dense 0/1 tensor (Eq. (3)).
    pub fn to_dense(&self) -> DenseTensor {
        DenseTensor::from_vec(
            self.shape.clone(),
            self.observed
                .iter()
                .map(|&o| if o { 1.0 } else { 0.0 })
                .collect(),
        )
    }

    /// `Ω ⊛ X`: zeroes out the unobserved entries of `x`.
    pub fn apply(&self, x: &DenseTensor) -> DenseTensor {
        assert_eq!(x.shape(), &self.shape, "mask/tensor shape mismatch");
        let mut out = DenseTensor::zeros(self.shape.clone());
        for &off in &self.observed_offsets {
            out.set_flat(off, x.get_flat(off));
        }
        out
    }

    /// Frobenius norm restricted to observed entries:
    /// `‖Ω ⊛ X‖_F` without materializing the masked tensor.
    pub fn masked_norm(&self, x: &DenseTensor) -> f64 {
        assert_eq!(x.shape(), &self.shape, "mask/tensor shape mismatch");
        self.observed_offsets
            .iter()
            .map(|&off| {
                let v = x.get_flat(off);
                v * v
            })
            .sum::<f64>()
            .sqrt()
    }

    /// `‖Ω ⊛ (A - B)‖_F` without allocating the difference.
    pub fn masked_diff_norm(&self, a: &DenseTensor, b: &DenseTensor) -> f64 {
        assert_eq!(a.shape(), &self.shape, "mask/tensor shape mismatch");
        assert_eq!(b.shape(), &self.shape, "mask/tensor shape mismatch");
        self.observed_offsets
            .iter()
            .map(|&off| {
                let d = a.get_flat(off) - b.get_flat(off);
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Stacks `(N-1)`-way masks along a new trailing (temporal) mode, the
    /// mask analogue of [`DenseTensor::stack`].
    pub fn stack(masks: &[&Mask]) -> Mask {
        assert!(!masks.is_empty(), "cannot stack zero masks");
        let base = masks[0].shape().clone();
        for m in masks {
            assert_eq!(m.shape(), &base, "all stacked masks must share a shape");
        }
        let out_shape = base.with_appended_mode(masks.len());
        let t_count = masks.len();
        let mut observed = vec![false; out_shape.len()];
        for (t, m) in masks.iter().enumerate() {
            for off in 0..base.len() {
                observed[off * t_count + t] = m.observed[off];
            }
        }
        Mask::from_vec(out_shape, observed)
    }

    /// Extracts the mask slice at position `t` of the last mode.
    pub fn slice_last_mode(&self, t: usize) -> Mask {
        let n = self.shape.order();
        assert!(n >= 2, "need at least 2 modes to slice");
        let t_count = self.shape.dim(n - 1);
        assert!(t < t_count, "slice index out of bounds");
        let out_shape = self.shape.without_mode(n - 1);
        let observed: Vec<bool> = (0..out_shape.len())
            .map(|off| self.observed[off * t_count + t])
            .collect();
        Mask::from_vec(out_shape, observed)
    }
}

impl std::fmt::Debug for Mask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Mask({}, {}/{} observed)",
            self.shape,
            self.count_observed(),
            self.shape.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_observed_and_missing() {
        let s = Shape::new(&[3, 3]);
        let all = Mask::all_observed(s.clone());
        assert_eq!(all.count_observed(), 9);
        assert!((all.observed_fraction() - 1.0).abs() < 1e-15);
        let none = Mask::all_missing(s);
        assert_eq!(none.count_observed(), 0);
    }

    #[test]
    fn from_vec_offsets_sorted_and_correct() {
        let s = Shape::new(&[2, 2]);
        let m = Mask::from_vec(s, vec![true, false, false, true]);
        assert_eq!(m.observed_offsets(), &[0, 3]);
        assert!(m.is_observed(&[0, 0]));
        assert!(!m.is_observed(&[0, 1]));
        assert!(m.is_observed(&[1, 1]));
    }

    #[test]
    fn random_mask_fraction_close() {
        let mut rng = SmallRng::seed_from_u64(7);
        let s = Shape::new(&[100, 100]);
        let m = Mask::random(s, 0.3, &mut rng);
        let frac = m.observed_fraction();
        assert!((frac - 0.7).abs() < 0.03, "observed fraction {frac}");
    }

    #[test]
    fn apply_zeroes_missing() {
        let s = Shape::new(&[2, 2]);
        let m = Mask::from_vec(s.clone(), vec![true, false, true, false]);
        let x = DenseTensor::from_vec(s, vec![1.0, 2.0, 3.0, 4.0]);
        let y = m.apply(&x);
        assert_eq!(y.data(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn masked_norm_matches_apply() {
        let mut rng = SmallRng::seed_from_u64(3);
        let s = Shape::new(&[4, 5]);
        let m = Mask::random(s.clone(), 0.4, &mut rng);
        let x = DenseTensor::from_fn(s, |idx| (idx[0] + 2 * idx[1]) as f64 - 3.0);
        let direct = m.masked_norm(&x);
        let via_apply = m.apply(&x).frobenius_norm();
        assert!((direct - via_apply).abs() < 1e-12);
    }

    #[test]
    fn masked_diff_norm_matches_manual() {
        let s = Shape::new(&[2, 2]);
        let m = Mask::from_vec(s.clone(), vec![true, true, false, true]);
        let a = DenseTensor::from_vec(s.clone(), vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseTensor::from_vec(s, vec![0.0, 0.0, 100.0, 1.0]);
        let expected = (1.0f64 + 4.0 + 9.0).sqrt();
        assert!((m.masked_diff_norm(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn to_dense_is_indicator() {
        let s = Shape::new(&[2, 2]);
        let m = Mask::from_vec(s, vec![true, false, false, true]);
        assert_eq!(m.to_dense().data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn stack_and_slice_roundtrip() {
        let s = Shape::new(&[2, 2]);
        let m0 = Mask::from_vec(s.clone(), vec![true, false, true, false]);
        let m1 = Mask::from_vec(s, vec![false, true, true, true]);
        let stacked = Mask::stack(&[&m0, &m1]);
        assert_eq!(stacked.shape().dims(), &[2, 2, 2]);
        assert_eq!(stacked.count_observed(), 5);
        assert_eq!(stacked.slice_last_mode(0), m0);
        assert_eq!(stacked.slice_last_mode(1), m1);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn from_vec_length_mismatch_panics() {
        Mask::from_vec(Shape::new(&[2, 2]), vec![true]);
    }
}
