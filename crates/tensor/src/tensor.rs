use crate::{Layout, Result, Shape, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, `f32` n-dimensional array.
///
/// `Tensor` is the value type flowing along graph edges, across checkpoint
/// boundaries and through the monitor's consistency checks. Storage is always
/// contiguous in C order for the canonical `NCHW` interpretation; executors
/// that prefer other layouts convert explicitly via [`Tensor::to_nhwc`] /
/// [`Tensor::from_nhwc`].
#[derive(Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// Deserialization enforces the same invariant as [`Tensor::from_vec`]
/// (`shape.num_elements() == data.len()`): a peer with valid channel keys
/// must still not be able to smuggle a malformed tensor into the monitor's
/// kernels or metrics.
impl<'de> Deserialize<'de> for Tensor {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            shape: Shape,
            data: Vec<f32>,
        }
        let raw = Raw::deserialize(deserializer)?;
        // The dims are the peer's: their product may not fit a `usize`
        // (`Shape::num_elements` would panic in debug and wrap in release).
        let claimed = raw.shape.dims().iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if claimed != Some(raw.data.len()) {
            return Err(serde::de::Error::custom(format!(
                "tensor shape {} does not describe the {} elements supplied",
                raw.shape,
                raw.data.len()
            )));
        }
        Ok(Tensor { shape: raw.shape, data: raw.data })
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when `data.len()` differs
    /// from the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.num_elements() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Creates a one-filled tensor.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor { shape, data: vec![1.0; n] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor { shape, data: vec![value; n] }
    }

    /// Creates a scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// Creates a tensor with elements drawn uniformly from `[-scale, scale]`.
    ///
    /// Used by the model zoo to initialise weights deterministically from a
    /// seeded RNG so that every variant of a model shares identical
    /// parameters.
    pub fn random_uniform<R: Rng>(rng: &mut R, dims: &[usize], scale: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let data = (0..n).map(|_| rng.gen_range(-scale..=scale)).collect();
        Tensor { shape, data }
    }

    /// Kaiming-style initialisation for a conv/linear weight: uniform in
    /// `±sqrt(2 / fan_in)`.
    pub fn kaiming<R: Rng>(rng: &mut R, dims: &[usize], fan_in: usize) -> Self {
        let scale = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::random_uniform(rng, dims, scale)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's dims as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank of the tensor.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Element assignment by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let target = Shape::new(dims);
        if target.num_elements() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.len(),
                to: target.num_elements(),
            });
        }
        Ok(Tensor { shape: target, data: self.data.clone() })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let data =
            self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Broadcasting element-wise combination following ONNX semantics.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastError`] if the shapes are not
    /// broadcast-compatible.
    pub fn broadcast_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape == other.shape {
            return self.zip_with(other, f);
        }
        let out_shape = self.shape.broadcast(other.shape())?;
        let rank = out_shape.rank();
        let out_dims = out_shape.dims().to_vec();
        let pad = |s: &Shape| -> Vec<usize> {
            let mut v = vec![1usize; rank - s.rank()];
            v.extend_from_slice(s.dims());
            v
        };
        let a_dims = pad(&self.shape);
        let b_dims = pad(other.shape());
        let a_strides = Shape::new(&a_dims).strides();
        let b_strides = Shape::new(&b_dims).strides();
        let n = out_shape.num_elements();
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; rank];
        for _ in 0..n {
            let mut ao = 0usize;
            let mut bo = 0usize;
            for d in 0..rank {
                let ai = if a_dims[d] == 1 { 0 } else { idx[d] };
                let bi = if b_dims[d] == 1 { 0 } else { idx[d] };
                ao += ai * a_strides[d];
                bo += bi * b_strides[d];
            }
            data.push(f(self.data[ao], other.data[bo]));
            // increment the multi-index
            for d in (0..rank).rev() {
                idx[d] += 1;
                if idx[d] < out_dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(Tensor { shape: out_shape, data })
    }

    /// Sum of all elements (sequential left-to-right accumulation).
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Returns `f32::INFINITY` for empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in flattened order (`None` when empty).
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// L2 norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt() as f32
    }

    /// Converts a rank-4 `NCHW` tensor to `NHWC` element order.
    ///
    /// The returned tensor's logical shape stays `[n, h, w, c]` (the
    /// physical dims of the new order).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 tensors.
    pub fn to_nhwc(&self) -> Result<Tensor> {
        let (n, c, h, w) = self.shape.as_nchw()?;
        let mut out = vec![0.0f32; self.len()];
        for in_ in 0..n {
            for ic in 0..c {
                for ih in 0..h {
                    for iw in 0..w {
                        let src = ((in_ * c + ic) * h + ih) * w + iw;
                        let dst = ((in_ * h + ih) * w + iw) * c + ic;
                        out[dst] = self.data[src];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, h, w, c])
    }

    /// Converts a rank-4 `NHWC` tensor (shape `[n, h, w, c]`) back to
    /// canonical `NCHW`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 tensors.
    pub fn from_nhwc(&self) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: self.rank() });
        }
        let d = self.dims();
        let (n, h, w, c) = (d[0], d[1], d[2], d[3]);
        let mut out = vec![0.0f32; self.len()];
        for in_ in 0..n {
            for ih in 0..h {
                for iw in 0..w {
                    for ic in 0..c {
                        let src = ((in_ * h + ih) * w + iw) * c + ic;
                        let dst = ((in_ * c + ic) * h + ih) * w + iw;
                        out[dst] = self.data[src];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, h, w])
    }

    /// Returns the layout-converted copy of a rank-4 tensor, or a clone if
    /// `layout` is already the canonical `NCHW`.
    ///
    /// # Errors
    ///
    /// Propagates rank errors from the conversion.
    pub fn to_layout(&self, layout: Layout) -> Result<Tensor> {
        match layout {
            Layout::Nchw => Ok(self.clone()),
            Layout::Nhwc => self.to_nhwc(),
        }
    }

    /// Serializes the tensor into a compact little-endian byte buffer
    /// (`rank:u32, dims:u64..., data:f32le...`) — a standalone convenience
    /// for storage/interop; the checkpoint transport serializes whole
    /// protocol messages through `mvtee-codec` instead.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 * self.rank() + 4 * self.len());
        out.extend_from_slice(&(self.rank() as u32).to_le_bytes());
        for &d in self.dims() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes a tensor produced by [`Tensor::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] on truncated or malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Tensor> {
        let fail = || TensorError::ShapeDataMismatch { expected: 0, actual: bytes.len() };
        if bytes.len() < 4 {
            return Err(fail());
        }
        let rank = u32::from_le_bytes(bytes[0..4].try_into().expect("sliced")) as usize;
        let mut off = 4usize;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            if off + 8 > bytes.len() {
                return Err(fail());
            }
            dims.push(u64::from_le_bytes(bytes[off..off + 8].try_into().expect("sliced")) as usize);
            off += 8;
        }
        let n: usize = dims.iter().product();
        if bytes.len() != off + 4 * n {
            return Err(TensorError::ShapeDataMismatch { expected: off + 4 * n, actual: bytes.len() });
        }
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            let s = off + 4 * i;
            data.push(f32::from_le_bytes(bytes[s..s + 4].try_into().expect("sliced")));
        }
        Tensor::from_vec(data, &dims)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} {{ ", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.len() > PREVIEW {
            write!(f, ", … ({} total)", self.len())?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Dims whose product overflows — here wrapping to 0, the length of
    /// the empty data — are a codec error, not a panic and not a tensor
    /// whose shape contradicts its data.
    #[test]
    fn deserialize_rejects_an_overflowing_shape() {
        let mut bytes = Vec::new();
        for word in [2u64, 1 << 63, 2, 0] {
            // rank, the two dims, then the length of `data`
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert!(mvtee_codec::from_bytes::<Tensor>(&bytes).is_err());
        let honest = mvtee_codec::to_bytes(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(mvtee_codec::from_bytes::<Tensor>(&honest).unwrap(), Tensor::ones(&[2, 3]));
    }

    #[test]
    fn construction_checks_len() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::ShapeDataMismatch { expected: 6, actual: 5 })
        ));
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn reshape_preserves_order() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let relu = a.map(|x| x.max(0.0));
        assert_eq!(relu.data(), &[1.0, 0.0]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let sum = a.zip_with(&b, |x, y| x + y).unwrap();
        assert_eq!(sum.data(), &[4.0, 2.0]);
        assert!(a.zip_with(&Tensor::zeros(&[3]), |x, _| x).is_err());
    }

    #[test]
    fn broadcast_add_bias() {
        // [1,2,2,2] + [2] broadcast over last axis? ONNX-style requires
        // trailing alignment: [1,2,2,2] + [1,2,1,1]-style channel bias.
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let bias = Tensor::from_vec(vec![10.0, 20.0], &[2, 1, 1]).unwrap();
        let y = x.broadcast_with(&bias, |a, b| a + b).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        assert_eq!(y.get(&[0, 0, 1, 1]).unwrap(), 11.0);
        assert_eq!(y.get(&[0, 1, 0, 0]).unwrap(), 21.0);
    }

    #[test]
    fn broadcast_scalar() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let s = Tensor::scalar(2.0);
        let y = x.broadcast_with(&s, |a, b| a * b).unwrap();
        assert_eq!(y.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 5.0, -3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 3.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.argmax(), Some(1));
        assert!(Tensor::from_vec(vec![], &[0]).unwrap().argmax().is_none());
    }

    #[test]
    fn nhwc_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::random_uniform(&mut rng, &[2, 3, 4, 5], 1.0);
        let nhwc = t.to_nhwc().unwrap();
        assert_eq!(nhwc.dims(), &[2, 4, 5, 3]);
        let back = nhwc.from_nhwc().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn nhwc_rejects_wrong_rank() {
        assert!(Tensor::zeros(&[2, 2]).to_nhwc().is_err());
        assert!(Tensor::zeros(&[2, 2]).from_nhwc().is_err());
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::random_uniform(&mut rng, &[3, 7], 2.0);
        let bytes = t.to_bytes();
        let back = Tensor::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn bytes_rejects_truncation() {
        let t = Tensor::ones(&[4]);
        let mut bytes = t.to_bytes();
        bytes.pop();
        assert!(Tensor::from_bytes(&bytes).is_err());
        assert!(Tensor::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn scalar_round_trips_through_bytes() {
        let t = Tensor::scalar(3.5);
        assert_eq!(Tensor::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn deterministic_random_init() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let ta = Tensor::random_uniform(&mut a, &[10], 1.0);
        let tb = Tensor::random_uniform(&mut b, &[10], 1.0);
        assert_eq!(ta, tb);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("total"));
        assert!(!format!("{:?}", Tensor::scalar(0.0)).is_empty());
    }
}
