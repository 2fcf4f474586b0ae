use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a [`crate::Tensor`].
///
/// A `Shape` is an ordered list of axis sizes. Scalars are represented by an
/// empty dimension list (rank 0, one element).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from axis sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Creates a scalar (rank 0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The axis sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dims; 1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of a given axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::InvalidAxis { axis, rank: self.rank() })
    }

    /// Row-major (C-order) strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Computes the flat row-major offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank does not match or any coordinate is
    /// out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch { expected: self.rank(), actual: index.len() });
        }
        let strides = self.strides();
        let mut off = 0usize;
        for (axis, (&i, (&d, &s))) in
            index.iter().zip(self.0.iter().zip(strides.iter())).enumerate()
        {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { axis, index: i, size: d });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Returns the shape obtained by broadcasting `self` with `other`
    /// following NumPy / ONNX broadcasting rules.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastError`] if the shapes are
    /// incompatible.
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let a = &self.0;
        let b = &other.0;
        let rank = a.len().max(b.len());
        let mut out = vec![0usize; rank];
        for i in 0..rank {
            let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
            let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
            out[i] = if da == db || db == 1 {
                da
            } else if da == 1 {
                db
            } else {
                return Err(TensorError::BroadcastError {
                    left: a.clone(),
                    right: b.clone(),
                });
            };
        }
        Ok(Shape(out))
    }

    /// Interprets a rank-4 shape as `(n, c, h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 shapes.
    pub fn as_nchw(&self) -> Result<(usize, usize, usize, usize)> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: self.rank() });
        }
        Ok((self.0[0], self.0[1], self.0[2], self.0[3]))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.num_elements(), 24);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).unwrap();
                    assert!(off < 24);
                    assert!(seen.insert(off), "offsets must be unique");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn offset_out_of_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { axis: 0, index: 2, size: 2 })
        ));
        assert!(matches!(s.offset(&[0]), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(&[2, 1, 4]);
        let b = Shape::new(&[3, 1]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::new(&[2, 3, 4]));
        let c = Shape::new(&[5]);
        assert!(a.broadcast(&c).is_err());
        // Identical shapes broadcast to themselves.
        assert_eq!(a.broadcast(&a).unwrap(), a);
    }

    #[test]
    fn nchw_view() {
        let s = Shape::new(&[1, 3, 224, 224]);
        assert_eq!(s.as_nchw().unwrap(), (1, 3, 224, 224));
        assert!(Shape::new(&[2, 2]).as_nchw().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape::new(&[1, 3, 8, 8]).to_string(), "[1x3x8x8]");
    }
}
