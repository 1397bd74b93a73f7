use crate::{width, FixedType, GroupIter, Shape, Signedness, TensorError};

/// A shaped buffer of fixed-point values with a declared container type.
///
/// Values are held as `i32` but every element is validated against the
/// container ([`FixedType`]) at construction, so a `Tensor` upholds the
/// invariant *every value fits its container* — the precondition for all
/// width bookkeeping downstream.
///
/// The innermost shape dimension is stored contiguously, so
/// [`Tensor::groups`] chunks along the channel dimension as the paper
/// specifies for its group formation.
///
/// # Examples
///
/// ```
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), ss_tensor::TensorError> {
/// let t = Tensor::from_vec(
///     Shape::flat(4),
///     FixedType::U8,
///     vec![3, 0, 200, 17],
/// )?;
/// assert_eq!(t.profiled_width(), 8); // 200 needs 8 bits
/// assert_eq!(t.num_zero(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor {
    shape: Shape,
    dtype: FixedType,
    data: Vec<i32>,
}

impl Tensor {
    /// Creates a tensor, validating length and per-value range.
    ///
    /// # Errors
    ///
    /// * [`TensorError::ShapeMismatch`] if `data.len()` differs from the
    ///   shape's element count.
    /// * [`TensorError::ValueOutOfRange`] if any value does not fit `dtype`.
    pub fn from_vec(shape: Shape, dtype: FixedType, data: Vec<i32>) -> Result<Self, TensorError> {
        if shape.num_elements() != data.len() {
            return Err(TensorError::ShapeMismatch {
                shape,
                data_len: data.len(),
            });
        }
        check_range(dtype, &data)?;
        Ok(Self { shape, dtype, data })
    }

    /// Creates an all-zero tensor of the given shape and container.
    #[must_use]
    pub fn zeros(shape: Shape, dtype: FixedType) -> Self {
        let n = shape.num_elements();
        Self {
            shape,
            dtype,
            data: vec![0; n],
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The declared container type.
    #[must_use]
    pub fn dtype(&self) -> FixedType {
        self.dtype
    }

    /// Container signedness (shorthand for `dtype().signedness()`).
    #[must_use]
    pub fn signedness(&self) -> Signedness {
        self.dtype.signedness()
    }

    /// Flat value slice, innermost dimension contiguous.
    #[must_use]
    pub fn values(&self) -> &[i32] {
        &self.data
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of zero-valued elements.
    #[must_use]
    pub fn num_zero(&self) -> usize {
        self.data.iter().filter(|&&v| v == 0).count()
    }

    /// Number of non-zero elements.
    #[must_use]
    pub fn num_nonzero(&self) -> usize {
        self.len() - self.num_zero()
    }

    /// Fraction of zero elements (0.0 for an empty tensor).
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.num_zero() as f64 / self.len() as f64
        }
    }

    /// Uncompressed footprint in bits: `len × container width`.
    #[must_use]
    pub fn container_bits(&self) -> u64 {
        self.len() as u64 * u64::from(self.dtype.bits())
    }

    /// Per-layer profiled width: the width the worst value needs. This is
    /// the "static"/Profile width of the paper's Figures 1–2.
    #[must_use]
    pub fn profiled_width(&self) -> u8 {
        width::profiled_width(&self.data, self.signedness())
    }

    /// Average effective width at the given group size (paper Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    #[must_use]
    pub fn effective_width(&self, group_size: usize) -> f64 {
        width::effective_width(&self.data, self.signedness(), group_size)
    }

    /// Iterates over groups of `group_size` values along the innermost
    /// dimension (the last group of each tensor may be shorter).
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidGroupSize`] if `group_size == 0`.
    pub fn groups(&self, group_size: usize) -> Result<GroupIter<'_>, TensorError> {
        GroupIter::new(&self.data, group_size)
    }

    /// Consumes the tensor, returning its flat data.
    #[must_use]
    pub fn into_values(self) -> Vec<i32> {
        self.data
    }

    /// Replaces the tensor's contents in place from a flat value buffer,
    /// returning the previous buffer for reuse.
    ///
    /// The shape becomes `flat(values.len())` (the dimension buffer is
    /// reused, not reallocated) and every incoming value is validated
    /// against `dtype`, so the container invariant holds exactly as it
    /// does for [`Tensor::from_vec`]. A decode loop that swaps buffers
    /// through this method — as `ss-core`'s `CodecSession::decode_into`
    /// does — touches the heap zero times per tensor at steady state.
    ///
    /// # Errors
    ///
    /// [`TensorError::ValueOutOfRange`] if any value does not fit `dtype`;
    /// the tensor is unchanged (the new buffer is dropped).
    pub fn replace_flat(
        &mut self,
        dtype: FixedType,
        values: Vec<i32>,
    ) -> Result<Vec<i32>, TensorError> {
        check_range(dtype, &values)?;
        self.shape.make_flat(values.len());
        self.dtype = dtype;
        Ok(std::mem::replace(&mut self.data, values))
    }
}

/// Refuses values that do not fit `dtype`: one branch-free fold over
/// them ([`FixedType::contains_all`]), and a search for the first
/// offending index only when it fails.
fn check_range(dtype: FixedType, values: &[i32]) -> Result<(), TensorError> {
    if dtype.contains_all(values) {
        return Ok(());
    }
    out_of_range(dtype, values)
}

/// The error for the first value of `values` that `dtype` cannot hold.
#[cold]
#[inline(never)]
fn out_of_range(dtype: FixedType, values: &[i32]) -> Result<(), TensorError> {
    match values.iter().position(|&v| !dtype.contains(v)) {
        Some(index) => Err(TensorError::ValueOutOfRange {
            index,
            value: values.get(index).copied().unwrap_or(0),
            dtype,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let err = Tensor::from_vec(Shape::new(vec![2, 2]), FixedType::I8, vec![1, 2, 3]);
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn construction_validates_range() {
        let err = Tensor::from_vec(Shape::flat(2), FixedType::I8, vec![1, 130]);
        assert!(matches!(
            err,
            Err(TensorError::ValueOutOfRange {
                index: 1,
                value: 130,
                ..
            })
        ));
        let err = Tensor::from_vec(Shape::flat(1), FixedType::U8, vec![-1]);
        assert!(err.is_err());
    }

    #[test]
    fn zeros_and_sparsity() {
        let z = Tensor::zeros(Shape::new(vec![4, 4]), FixedType::U8);
        assert_eq!(z.len(), 16);
        assert_eq!(z.num_zero(), 16);
        assert_eq!(z.sparsity(), 1.0);
        assert_eq!(z.profiled_width(), 0);

        let t = t(vec![0, 5, 0, -3]);
        assert_eq!(t.num_nonzero(), 2);
        assert!((t.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn container_bits() {
        let t = t(vec![1, 2, 3, 4]);
        assert_eq!(t.container_bits(), 64);
        let t8 = Tensor::from_vec(Shape::flat(4), FixedType::U8, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(t8.container_bits(), 32);
    }

    #[test]
    fn profiled_width_uses_signedness() {
        let signed = t(vec![0, 5, -9]);
        assert_eq!(signed.profiled_width(), 5); // |−9| -> 4 bits + sign
        let unsigned = Tensor::from_vec(Shape::flat(3), FixedType::U16, vec![0, 5, 9]).unwrap();
        assert_eq!(unsigned.profiled_width(), 4);
    }

    #[test]
    fn groups_rejects_zero() {
        let t = t(vec![1, 2]);
        assert!(t.groups(0).is_err());
        assert_eq!(t.groups(1).unwrap().count(), 2);
    }

    #[test]
    fn replace_flat_swaps_buffers_and_validates() {
        let mut t =
            Tensor::from_vec(Shape::new(vec![2, 2]), FixedType::I16, vec![1, 2, 3, 4]).unwrap();
        let old = t.replace_flat(FixedType::U8, vec![0, 200, 7]).unwrap();
        assert_eq!(old, vec![1, 2, 3, 4]);
        assert_eq!(t.shape(), &Shape::flat(3));
        assert_eq!(t.dtype(), FixedType::U8);
        assert_eq!(t.values(), &[0, 200, 7]);
        // Equal to the from_vec construction of the same tensor.
        let fresh = Tensor::from_vec(Shape::flat(3), FixedType::U8, vec![0, 200, 7]).unwrap();
        assert_eq!(t, fresh);
        // Out-of-range values are rejected and the tensor is unchanged.
        let err = t.replace_flat(FixedType::U8, vec![300]);
        assert!(matches!(err, Err(TensorError::ValueOutOfRange { .. })));
        assert_eq!(t, fresh);
    }

    #[test]
    fn range_checks_name_the_first_value_out_of_range() {
        for (dtype, values, index, value) in [
            (FixedType::I8, vec![1, -127, 128, 300], 2, 128),
            (FixedType::I8, vec![0, -128], 1, -128),
            (FixedType::U8, vec![255, 0, -1, 256], 2, -1),
            (FixedType::I16, vec![7, i32::MIN], 1, i32::MIN),
            (FixedType::signed(1).unwrap(), vec![0, 0, 1], 2, 1),
        ] {
            let err = Tensor::from_vec(Shape::flat(values.len()), dtype, values.clone());
            assert_eq!(
                err,
                Err(TensorError::ValueOutOfRange {
                    index,
                    value,
                    dtype
                }),
                "{dtype}: {values:?}"
            );
            let mut t = Tensor::zeros(Shape::flat(1), FixedType::U8);
            assert_eq!(t.replace_flat(dtype, values).map(|_| ()), err.map(|_| ()));
        }
        assert!(FixedType::I16.contains_all(&[-32767, 32767, 0]));
        assert!(FixedType::U16.contains_all(&[]));
        assert!(!FixedType::I16.contains(i32::MIN));
    }

    #[test]
    fn empty_tensor() {
        let e = Tensor::from_vec(Shape::flat(0), FixedType::I8, vec![]).unwrap();
        assert!(e.is_empty());
        assert_eq!(e.sparsity(), 0.0);
        assert_eq!(e.groups(16).unwrap().count(), 0);
    }
}
