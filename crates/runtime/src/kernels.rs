//! Operator kernels shared by the executor families.
//!
//! Each executor family picks different kernel strategies (direct vs im2col
//! convolution, NCHW vs NHWC layout, sequential vs pairwise-tree
//! accumulation), reproducing the implementation heterogeneity of real
//! inference stacks.

use crate::blas::Blas;
use crate::cache::PackedGemm;
use crate::pool::{ThreadPool, INLINE};
use crate::scratch;
use crate::simd;
use crate::strategy::GemmStrategy;
use crate::{Result, RuntimeError};
use mvtee_graph::op::{ActivationKind, PoolKind};
use mvtee_tensor::Tensor;

/// Floating-point accumulation strategy for reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Accumulation {
    /// Left-to-right summation (ORT-like and reference kernels).
    Sequential,
    /// Pairwise/tree summation (TVM-like schedules).
    Tree,
}

/// Sums a slice with the chosen accumulation order.
pub fn reduce_sum(values: &[f32], acc: Accumulation) -> f32 {
    match acc {
        Accumulation::Sequential => values.iter().sum(),
        Accumulation::Tree => tree_sum(values),
    }
}

/// Fixed-shape pairwise summation: the recursion splits at `n / 2`
/// regardless of how the values were produced, so the reduction tree —
/// and therefore the rounding — is a pure function of the slice length.
/// The deterministic pool leans on this to combine per-chunk partials.
pub fn tree_sum(values: &[f32]) -> f32 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        n => {
            let mid = n / 2;
            tree_sum(&values[..mid]) + tree_sum(&values[mid..])
        }
    }
}

/// Convolution attributes, extracted from [`mvtee_graph::Op::Conv`].
#[derive(Debug, Clone, Copy)]
pub struct ConvAttrs {
    /// Kernel `(kh, kw)`.
    pub kernel: (usize, usize),
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Padding `(ph, pw)`.
    pub padding: (usize, usize),
    /// Group count.
    pub groups: usize,
}

pub(crate) fn conv_out_dims(h: usize, w: usize, a: &ConvAttrs) -> (usize, usize) {
    let oh = (h + 2 * a.padding.0 - a.kernel.0) / a.stride.0 + 1;
    let ow = (w + 2 * a.padding.1 - a.kernel.1) / a.stride.1 + 1;
    (oh, ow)
}

/// Direct NCHW convolution (the reference kernel).
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape inconsistencies.
pub fn conv2d_direct(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, a: &ConvAttrs) -> Result<Tensor> {
    let (n, c, h, wd) = x.shape().as_nchw()?;
    let (oc, icg, kh, kw) = w.shape().as_nchw()?;
    if (kh, kw) != a.kernel || c % a.groups != 0 || oc % a.groups != 0 || icg != c / a.groups {
        return Err(RuntimeError::Kernel {
            node: "conv".into(),
            reason: format!("shape mismatch: x={:?} w={:?} attrs={a:?}", x.dims(), w.dims()),
        });
    }
    let (oh, ow) = conv_out_dims(h, wd, a);
    let oc_per_group = oc / a.groups;
    let xs = x.data();
    let ws = w.data();
    let mut out = vec![0.0f32; n * oc * oh * ow];
    for b_i in 0..n {
        for g in 0..a.groups {
            for ocg in 0..oc_per_group {
                let o = g * oc_per_group + ocg;
                let bias_v = bias.map(|t| t.data()[o]).unwrap_or(0.0);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ic in 0..icg {
                            let c_in = g * icg + ic;
                            for ky in 0..kh {
                                let iy = (oy * a.stride.0 + ky) as isize - a.padding.0 as isize;
                                if iy < 0 || iy as usize >= h {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix =
                                        (ox * a.stride.1 + kx) as isize - a.padding.1 as isize;
                                    if ix < 0 || ix as usize >= wd {
                                        continue;
                                    }
                                    let xi = ((b_i * c + c_in) * h + iy as usize) * wd
                                        + ix as usize;
                                    let wi = ((o * icg + ic) * kh + ky) * kw + kx;
                                    acc += xs[xi] * ws[wi];
                                }
                            }
                        }
                        out[((b_i * oc + o) * oh + oy) * ow + ox] = acc + bias_v;
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, oc, oh, ow])?)
}

/// im2col + GEMM convolution (the ORT/TVM-style lowered kernel).
///
/// Builds the `[ic/g · kh · kw, oh · ow]` patch matrix per batch and group,
/// then multiplies with the `[oc/g, ic/g · kh · kw]` filter matrix through
/// the supplied [`Blas`] backend.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape inconsistencies.
pub fn conv2d_im2col(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    a: &ConvAttrs,
    blas: &dyn Blas,
) -> Result<Tensor> {
    conv2d_im2col_with(&INLINE, x, w, bias, a, blas, GemmStrategy::Scalar)
}

/// [`conv2d_im2col`] splitting the im2col fill, the inner product (over
/// output channels) and the bias epilogue over `pool`, under an explicit
/// kernel strategy for the inner product. `Scalar` fills the
/// `[patch, cols]` column matrix and runs the row-panel BLAS GEMM;
/// `SimdMicrokernel` fills it **transposed** (`[cols, patch]`) so both the
/// filter row and the patch column are contiguous, then runs one
/// fixed-tree [`simd::dot8`] per output element. Either writes each
/// group's product straight into its contiguous slice of the output, and
/// the bias (`+ 0.0` without one) is added there in place.
///
/// The column matrix is the calling thread's scratch, except under
/// `Scalar` for a 1×1, stride-1, unpadded conv with one group: its column
/// matrix is the input plane itself, which the GEMM reads in place.
/// Everything else — a depthwise conv included — fills the column matrix;
/// the fast routes of [`crate::packed`] are chosen at prepare time, in
/// front of this kernel.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape inconsistencies.
pub fn conv2d_im2col_with(
    pool: &ThreadPool,
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    a: &ConvAttrs,
    blas: &dyn Blas,
    strategy: GemmStrategy,
) -> Result<Tensor> {
    let (n, c, h, wd) = x.shape().as_nchw()?;
    let (oc, icg, kh, kw) = w.shape().as_nchw()?;
    if (kh, kw) != a.kernel || c % a.groups != 0 || oc % a.groups != 0 || icg != c / a.groups {
        return Err(RuntimeError::Kernel {
            node: "conv-im2col".into(),
            reason: format!("shape mismatch: x={:?} w={:?} attrs={a:?}", x.dims(), w.dims()),
        });
    }
    let (oh, ow) = conv_out_dims(h, wd, a);
    let oc_per_group = oc / a.groups;
    let patch = icg * kh * kw;
    let cols = oh * ow;
    let xs = x.data();
    let ws = w.data();
    let mut out = vec![0.0f32; n * oc * oh * ow];
    let in_place = strategy == GemmStrategy::Scalar
        && a.groups == 1
        && (kh, kw) == (1, 1)
        && a.stride == (1, 1)
        && a.padding == (0, 0);
    // One im2col row block per input channel: `kh·kw` patch rows.
    let ic_rows = kh * kw * cols;
    scratch::with(if in_place { 0 } else { patch * cols }, |col| {
        for b_i in 0..n {
            for g in 0..a.groups {
                let w_base = g * oc_per_group * patch;
                let out_base = (b_i * oc + g * oc_per_group) * cols;
                let dst = &mut out[out_base..out_base + oc_per_group * cols];
                match strategy {
                    GemmStrategy::SimdMicrokernel => {
                        // Transposed im2col: one contiguous [patch] row per
                        // output pixel, chunked over pixels.
                        pool.for_each_chunk(cols, patch, col, |_, p0, _p1, block| {
                            block.fill(0.0);
                            for (local, prow) in block.chunks_mut(patch).enumerate() {
                                let pix = p0 + local;
                                let (oy, ox) = (pix / ow, pix % ow);
                                for ic in 0..icg {
                                    let c_in = g * icg + ic;
                                    for ky in 0..kh {
                                        let iy = (oy * a.stride.0 + ky) as isize
                                            - a.padding.0 as isize;
                                        if iy < 0 || iy as usize >= h {
                                            continue;
                                        }
                                        let x_base = ((b_i * c + c_in) * h + iy as usize) * wd;
                                        for kx in 0..kw {
                                            let ix = (ox * a.stride.1 + kx) as isize
                                                - a.padding.1 as isize;
                                            if ix < 0 || ix as usize >= wd {
                                                continue;
                                            }
                                            prow[(ic * kh + ky) * kw + kx] =
                                                xs[x_base + ix as usize];
                                        }
                                    }
                                }
                            }
                        });
                        // One dot8 per (output channel, pixel) over two
                        // contiguous rows, chunked over output channels.
                        let colt: &[f32] = col;
                        pool.for_each_chunk(oc_per_group, cols, dst, |_, o0, o1, block| {
                            for o in o0..o1 {
                                let wr = &ws[w_base + o * patch..w_base + (o + 1) * patch];
                                let row = &mut block[(o - o0) * cols..(o - o0 + 1) * cols];
                                for (p, v) in row.iter_mut().enumerate() {
                                    *v = simd::dot8(wr, &colt[p * patch..(p + 1) * patch]);
                                }
                            }
                        });
                    }
                    GemmStrategy::Scalar => {
                        let col: &[f32] = if in_place {
                            &xs[b_i * c * cols..(b_i + 1) * c * cols]
                        } else {
                            // im2col for this batch/group — input channels
                            // are disjoint row blocks of the patch matrix,
                            // so they chunk freely.
                            pool.for_each_chunk(icg, ic_rows, col, |_, ic0, _, block| {
                                block.fill(0.0);
                                for (local, rows) in block.chunks_mut(ic_rows).enumerate() {
                                    let c_in = g * icg + ic0 + local;
                                    for ky in 0..kh {
                                        for kx in 0..kw {
                                            let row = ky * kw + kx;
                                            for oy in 0..oh {
                                                let iy = (oy * a.stride.0 + ky) as isize
                                                    - a.padding.0 as isize;
                                                if iy < 0 || iy as usize >= h {
                                                    continue;
                                                }
                                                let x_base =
                                                    ((b_i * c + c_in) * h + iy as usize) * wd;
                                                let row_base = row * cols + oy * ow;
                                                for ox in 0..ow {
                                                    let ix = (ox * a.stride.1 + kx) as isize
                                                        - a.padding.1 as isize;
                                                    if ix < 0 || ix as usize >= wd {
                                                        continue;
                                                    }
                                                    rows[row_base + ox] = xs[x_base + ix as usize];
                                                }
                                            }
                                        }
                                    }
                                }
                            });
                            col
                        };
                        // filters[oc/g, patch] · col[patch, cols], row-panelled
                        // over output channels.
                        let filters = &ws[w_base..w_base + oc_per_group * patch];
                        pool.par_gemm(blas, oc_per_group, cols, patch, filters, col, dst);
                    }
                }
            }
        }
    });
    // Bias epilogue over every (batch, channel) plane, in place. When two
    // NaNs meet in one addition, which payload survives is the compiler's
    // choice of operand order, so a NaN product adds `0.0` instead: it
    // keeps its own payload, quieted, and no addition sees two NaNs.
    pool.for_each_chunk(n * oc, cols, &mut out, |_, p0, _, block| {
        for (p, plane) in (p0..).zip(block.chunks_mut(cols)) {
            let bias_v = bias.map(|t| t.data()[p % oc]).unwrap_or(0.0);
            for v in plane {
                *v += if v.is_nan() { 0.0 } else { bias_v };
            }
        }
    });
    Ok(Tensor::from_vec(out, &[n, oc, oh, ow])?)
}

/// Writes the `[cols, rows]` transpose of the row-major `[rows, cols]`
/// matrix `src` into `dst`.
pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (r, row) in src.chunks_exact(cols).take(rows).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + r] = v;
        }
    }
}

/// `true` when every value is finite. A fold without short-circuit, so
/// the check vectorises.
pub(crate) fn all_finite(values: &[f32]) -> bool {
    values.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// Direct NHWC convolution: input and output are `[n, h, w, c]`-ordered
/// (the TVM-like executor's internal layout). The filter stays in OIHW.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape inconsistencies.
pub fn conv2d_nhwc_direct(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    a: &ConvAttrs,
) -> Result<Tensor> {
    conv2d_nhwc_direct_with(&INLINE, x, w, bias, a)
}

/// [`conv2d_nhwc_direct`] with the `(batch, output-row)` loop split over
/// `pool`. Every output element is a lane-local accumulation, so chunking
/// the rows cannot change any value.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape inconsistencies.
pub fn conv2d_nhwc_direct_with(
    pool: &ThreadPool,
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    a: &ConvAttrs,
) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(RuntimeError::Kernel {
            node: "conv-nhwc".into(),
            reason: format!("expected rank-4 NHWC input, got {:?}", x.dims()),
        });
    }
    let d = x.dims();
    let (n, h, wd, c) = (d[0], d[1], d[2], d[3]);
    let (oc, icg, kh, kw) = w.shape().as_nchw()?;
    if (kh, kw) != a.kernel || c % a.groups != 0 || oc % a.groups != 0 || icg != c / a.groups {
        return Err(RuntimeError::Kernel {
            node: "conv-nhwc".into(),
            reason: format!("shape mismatch: x={:?} w={:?} attrs={a:?}", x.dims(), w.dims()),
        });
    }
    let (oh, ow) = conv_out_dims(h, wd, a);
    let oc_per_group = oc / a.groups;
    let xs = x.data();
    let ws = w.data();
    let mut out = vec![0.0f32; n * oh * ow * oc];
    pool.for_each_chunk(n * oh, ow * oc, &mut out, |_, r0, r1, block| {
        for r in r0..r1 {
            let b_i = r / oh;
            let oy = r % oh;
            let row_base = (r - r0) * ow * oc;
            for ox in 0..ow {
                for g in 0..a.groups {
                    for ocg in 0..oc_per_group {
                        let o = g * oc_per_group + ocg;
                        let mut acc = bias.map(|t| t.data()[o]).unwrap_or(0.0);
                        for ky in 0..kh {
                            let iy = (oy * a.stride.0 + ky) as isize - a.padding.0 as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * a.stride.1 + kx) as isize - a.padding.1 as isize;
                                if ix < 0 || ix as usize >= wd {
                                    continue;
                                }
                                let x_base =
                                    ((b_i * h + iy as usize) * wd + ix as usize) * c + g * icg;
                                let w_base = ((o * icg) * kh + ky) * kw + kx;
                                for ic in 0..icg {
                                    acc += xs[x_base + ic] * ws[w_base + ic * kh * kw];
                                }
                            }
                        }
                        block[row_base + ox * oc + o] = acc;
                    }
                }
            }
        }
    });
    Ok(Tensor::from_vec(out, &[n, oh, ow, oc])?)
}

/// Spatial pooling over NCHW input.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on rank problems.
pub fn pool2d(
    x: &Tensor,
    kind: PoolKind,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    acc: Accumulation,
) -> Result<Tensor> {
    pool2d_with(&INLINE, x, kind, kernel, stride, padding, acc)
}

/// [`pool2d`] with the `(batch, channel)` plane loop split over `pool`.
/// Each window reduction stays whole inside its plane, so chunking cannot
/// change any value.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on rank problems.
pub fn pool2d_with(
    pool: &ThreadPool,
    x: &Tensor,
    kind: PoolKind,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    acc: Accumulation,
) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let oh = (h + 2 * padding.0 - kernel.0) / stride.0 + 1;
    let ow = (w + 2 * padding.1 - kernel.1) / stride.1 + 1;
    let xs = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    pool.for_each_chunk(n * c, oh * ow, &mut out, |_, p0, p1, block| {
        let mut window: Vec<f32> = Vec::with_capacity(kernel.0 * kernel.1);
        for p in p0..p1 {
            let plane_base = (p - p0) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    window.clear();
                    for ky in 0..kernel.0 {
                        let iy = (oy * stride.0 + ky) as isize - padding.0 as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..kernel.1 {
                            let ix = (ox * stride.1 + kx) as isize - padding.1 as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            window.push(xs[(p * h + iy as usize) * w + ix as usize]);
                        }
                    }
                    let v = match kind {
                        PoolKind::Max => {
                            window.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                        }
                        PoolKind::Average => {
                            if window.is_empty() {
                                0.0
                            } else {
                                reduce_sum(&window, acc) / window.len() as f32
                            }
                        }
                    };
                    block[plane_base + oy * ow + ox] = v;
                }
            }
        }
    });
    Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
}

/// Global average pooling to `[n, c, 1, 1]`.
///
/// # Errors
///
/// Returns rank errors for non-rank-4 input.
pub fn global_avg_pool(x: &Tensor, acc: Accumulation) -> Result<Tensor> {
    global_avg_pool_with(&INLINE, x, acc)
}

/// [`global_avg_pool`] reducing each large plane through
/// [`ThreadPool::reduce_slice`]: per-chunk partials in the caller's
/// accumulation order, combined by the fixed-shape [`tree_sum`]. The
/// split is a pure function of the plane size, so every thread count
/// (including 1) computes identical bytes.
///
/// [`ThreadPool::reduce_slice`]: crate::pool::ThreadPool::reduce_slice
///
/// # Errors
///
/// Returns rank errors for non-rank-4 input.
pub fn global_avg_pool_with(pool: &ThreadPool, x: &Tensor, acc: Accumulation) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let plane = h * w;
    let xs = x.data();
    let mut out = vec![0.0f32; n * c];
    for (p, slot) in out.iter_mut().enumerate() {
        let base = p * plane;
        *slot = pool.reduce_slice(&xs[base..base + plane], acc) / plane as f32;
    }
    Ok(Tensor::from_vec(out, &[n, c, 1, 1])?)
}

/// Inference batch normalisation.
///
/// # Errors
///
/// Returns rank errors for non-rank-4 input.
pub fn batch_norm(
    x: &Tensor,
    scale: &Tensor,
    bias: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    epsilon: f32,
) -> Result<Tensor> {
    batch_norm_with(&INLINE, x, scale, bias, mean, var, epsilon)
}

/// [`batch_norm`] with the `(batch, channel)` plane loop split over
/// `pool`. The transform is element-wise per plane, so iteration order is
/// irrelevant to the result.
///
/// # Errors
///
/// Returns rank errors for non-rank-4 input.
pub fn batch_norm_with(
    pool: &ThreadPool,
    x: &Tensor,
    scale: &Tensor,
    bias: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    epsilon: f32,
) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let plane = h * w;
    let xs = x.data();
    let mut out = vec![0.0f32; xs.len()];
    pool.for_each_chunk(n * c, plane, &mut out, |_, p0, p1, block| {
        for p in p0..p1 {
            let ch = p % c;
            let inv_std = 1.0 / (var.data()[ch] + epsilon).sqrt();
            let a = scale.data()[ch] * inv_std;
            let b = bias.data()[ch] - mean.data()[ch] * a;
            let src = &xs[p * plane..(p + 1) * plane];
            let dst = &mut block[(p - p0) * plane..(p - p0 + 1) * plane];
            for (d, &v) in dst.iter_mut().zip(src.iter()) {
                *d = v * a + b;
            }
        }
    });
    Ok(Tensor::from_vec(out, x.dims())?)
}

/// Layer normalisation over the last axis (transformer-family models).
///
/// `y = (x - mean) / sqrt(var + eps) * gamma + beta`, statistics computed
/// per last-axis lane with the configured accumulation order.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on rank-0 input or mismatched params.
pub fn layer_norm(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    epsilon: f32,
    acc: Accumulation,
) -> Result<Tensor> {
    layer_norm_with(&INLINE, x, gamma, beta, epsilon, acc)
}

/// [`layer_norm`] splitting the lane loop over `pool`, with the per-lane
/// `centered` lane in the thread's scratch, taken once per chunk.
/// Each lane's statistics are computed whole inside a single chunk in
/// the caller's accumulation order, so results are bit-identical to
/// the sequential kernel at every thread count.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on rank-0 input or mismatched params.
pub fn layer_norm_with(
    pool: &ThreadPool,
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    epsilon: f32,
    acc: Accumulation,
) -> Result<Tensor> {
    let dims = x.dims();
    let Some(&d) = dims.last() else {
        return Err(RuntimeError::Kernel {
            node: "layernorm".into(),
            reason: "rank-0 input".into(),
        });
    };
    if gamma.dims() != [d] || beta.dims() != [d] {
        return Err(RuntimeError::Kernel {
            node: "layernorm".into(),
            reason: format!(
                "param shapes {:?}/{:?} must be [{d}]",
                gamma.dims(),
                beta.dims()
            ),
        });
    }
    let lanes = x.len() / d.max(1);
    let xs = x.data();
    let mut out = vec![0.0f32; xs.len()];
    pool.for_each_chunk(lanes, d, &mut out, |_, l0, l1, block| scratch::with(d, |centered| {
        for lane in l0..l1 {
            let base = lane * d;
            let slice = &xs[base..base + d];
            let mean = reduce_sum(slice, acc) / d as f32;
            for (c, &v) in centered.iter_mut().zip(slice.iter()) {
                *c = (v - mean) * (v - mean);
            }
            let var = reduce_sum(centered, acc) / d as f32;
            let inv_std = 1.0 / (var + epsilon).sqrt();
            let dst = &mut block[(lane - l0) * d..(lane - l0 + 1) * d];
            for i in 0..d {
                dst[i] = (slice[i] - mean) * inv_std * gamma.data()[i] + beta.data()[i];
            }
        }
    }));
    Ok(Tensor::from_vec(out, dims)?)
}

/// Local response normalisation across channels (ONNX `LRN`).
///
/// # Errors
///
/// Returns rank errors for non-rank-4 input.
pub fn lrn(x: &Tensor, size: usize, alpha: f32, beta: f32, bias: f32) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    let plane = h * w;
    let xs = x.data();
    let mut out = vec![0.0f32; xs.len()];
    let half = size / 2;
    for b_i in 0..n {
        for ch in 0..c {
            let lo = ch.saturating_sub(half);
            let hi = (ch + half).min(c - 1);
            for i in 0..plane {
                let mut sq = 0.0f32;
                for cc in lo..=hi {
                    let v = xs[(b_i * c + cc) * plane + i];
                    sq += v * v;
                }
                let denom = (bias + alpha * sq / size as f32).powf(beta);
                out[(b_i * c + ch) * plane + i] = xs[(b_i * c + ch) * plane + i] / denom;
            }
        }
    }
    Ok(Tensor::from_vec(out, x.dims())?)
}

/// Evaluates `$body` with `$f` bound to the element-wise epilogue of
/// `$act`, an `Option<ActivationKind>`: the identity for `None`, else a
/// closure calling [`ActivationKind::apply`] for that one kind. One `match`
/// per call; each arm is its own copy of `$body`, specialised to one kind,
/// which the compiler can inline and vectorise (the same operations, so
/// the same bits).
macro_rules! with_epilogue {
    ($act:expr, |$f:ident| $body:expr) => {
        with_epilogue!(@arms $act, $f, $body;
            Relu, Relu6, Sigmoid, Silu, HardSigmoid, HardSwish, Tanh, Abs)
    };
    (@arms $act:expr, $f:ident, $body:expr; $($k:ident),*) => {
        match $act {
            None => {
                let $f = |v: f32| v;
                $body
            }
            $(Some(mvtee_graph::op::ActivationKind::$k) => {
                let $f = |v: f32| mvtee_graph::op::ActivationKind::$k.apply(v);
                $body
            })*
        }
    };
}
pub(crate) use with_epilogue;

/// Element-wise activation into a new tensor: one `match` per call, then a
/// loop specialised to that kind (`with_epilogue!`).
pub fn activation(x: &Tensor, kind: ActivationKind) -> Tensor {
    with_epilogue!(Some(kind), |f| x.map(f))
}

/// Element-wise activation over `x`'s own buffer: a conv that absorbed the
/// activation after it applies it here when its route's store loop did not.
pub fn activate_in_place(x: &mut Tensor, kind: ActivationKind) {
    with_epilogue!(Some(kind), |f| x.map_inplace(f))
}

/// Fully connected layer `y = x · wᵀ + b` through a BLAS backend.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape problems.
pub fn gemm_fc(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, blas: &dyn Blas) -> Result<Tensor> {
    gemm_fc_with(&INLINE, x, w, bias, blas, None, GemmStrategy::Scalar)
}

/// [`gemm_fc`] over `pool` with an optional pre-packed weight, under
/// an explicit kernel strategy.
///
/// * `Scalar` — row-panel BLAS `par_gemm` over the `[k, m]` transpose
///   (`packed` at prepare when it matches the weight shape, else derived
///   per call in the thread's scratch). The row split preserves the
///   per-element ascending-`k` accumulation order of every BLAS backend,
///   so it is byte-identical to the sequential kernel.
/// * `SimdMicrokernel` — `w` is `[m, k]` row-major, i.e. its rows already
///   *are* the contiguous columns the 8-lane dot product needs, so this
///   path runs with **no transpose or pack at all**, one fixed-tree
///   [`simd::dot8`] per output element.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape problems.
pub fn gemm_fc_with(
    pool: &ThreadPool,
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    blas: &dyn Blas,
    packed: Option<&PackedGemm>,
    strategy: GemmStrategy,
) -> Result<Tensor> {
    if x.rank() != 2 || w.rank() != 2 || x.dims()[1] != w.dims()[1] {
        return Err(RuntimeError::Kernel {
            node: "gemm".into(),
            reason: format!("shape mismatch: x={:?} w={:?}", x.dims(), w.dims()),
        });
    }
    let (n, k) = (x.dims()[0], x.dims()[1]);
    let m = w.dims()[0];
    let mut out = vec![0.0f32; n * m];
    match strategy {
        GemmStrategy::SimdMicrokernel => {
            let xd = x.data();
            let ws = w.data();
            if n == 1 {
                // Batch-1: parallelise over output features instead of the
                // degenerate row dimension. Each element is an independent
                // dot product, so the split never moves an addition.
                pool.for_each_chunk(m, 1, &mut out, |_, o0, o1, chunk| {
                    for (local, o) in (o0..o1).enumerate() {
                        chunk[local] = simd::dot8(xd, &ws[o * k..(o + 1) * k]);
                    }
                });
            } else {
                pool.for_each_chunk(n, m, &mut out, |_, r0, r1, block| {
                    for r in r0..r1 {
                        let xr = &xd[r * k..(r + 1) * k];
                        let row = &mut block[(r - r0) * m..(r - r0 + 1) * m];
                        for (o, v) in row.iter_mut().enumerate() {
                            *v = simd::dot8(xr, &ws[o * k..(o + 1) * k]);
                        }
                    }
                });
            }
        }
        GemmStrategy::Scalar => {
            match packed.filter(|p| p.k == k && p.m == m) {
                Some(p) => pool.par_gemm(blas, n, m, k, x.data(), &p.wt, &mut out),
                // One-shot pack: transpose w to [k, m] for row-major GEMM,
                // in the thread's scratch.
                None => scratch::with(k * m, |wt| {
                    transpose(w.data(), m, k, wt);
                    pool.par_gemm(blas, n, m, k, x.data(), wt, &mut out);
                }),
            }
        }
    }
    // The conv epilogue's rule: a NaN product adds `0.0` instead of the
    // bias, so no addition sees two NaNs and the compiler's choice of
    // operand order (which differs between a vectorised body and its
    // tail) cannot pick the payload.
    if let Some(b) = bias {
        let bd = b.data();
        pool.for_each_chunk(n, m, &mut out, |_, r0, r1, block| {
            for row in block[..(r1 - r0) * m].chunks_mut(m) {
                for (v, &bv) in row.iter_mut().zip(bd.iter()) {
                    *v += if v.is_nan() { 0.0 } else { bv };
                }
            }
        });
    }
    Ok(Tensor::from_vec(out, &[n, m])?)
}

/// Plain matrix multiplication of rank-2 tensors.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape problems.
pub fn matmul(a: &Tensor, b: &Tensor, blas: &dyn Blas) -> Result<Tensor> {
    matmul_with(&INLINE, a, b, blas, GemmStrategy::Scalar)
}

/// [`matmul`] over `pool` under an explicit kernel strategy. `Scalar`
/// runs the deterministic row-panel BLAS GEMM (no prepacked weight exists
/// for a dynamic right-hand side);
/// `SimdMicrokernel` derives a one-shot `[n, k]` transpose of `b` in the
/// thread's scratch, then runs one fixed-tree [`simd::dot8`] per output
/// element over the two contiguous rows.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on shape problems.
pub fn matmul_with(
    pool: &ThreadPool,
    a: &Tensor,
    b: &Tensor,
    blas: &dyn Blas,
    strategy: GemmStrategy,
) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 || a.dims()[1] != b.dims()[0] {
        return Err(RuntimeError::Kernel {
            node: "matmul".into(),
            reason: format!("shape mismatch: a={:?} b={:?}", a.dims(), b.dims()),
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = vec![0.0f32; m * n];
    match strategy {
        GemmStrategy::SimdMicrokernel => {
            // One-shot pack of b to [n, k] (bᵀ) in the thread's scratch.
            scratch::with(n * k, |bt| {
                transpose(b.data(), k, n, bt);
                let (ad, bt): (&[f32], &[f32]) = (a.data(), bt);
                pool.for_each_chunk(m, n, &mut out, |_, r0, r1, block| {
                    for r in r0..r1 {
                        let ar = &ad[r * k..(r + 1) * k];
                        let row = &mut block[(r - r0) * n..(r - r0 + 1) * n];
                        for (j, v) in row.iter_mut().enumerate() {
                            *v = simd::dot8(ar, &bt[j * k..(j + 1) * k]);
                        }
                    }
                });
            });
        }
        GemmStrategy::Scalar => {
            pool.par_gemm(blas, m, n, k, a.data(), b.data(), &mut out);
        }
    }
    Ok(Tensor::from_vec(out, &[m, n])?)
}

/// Softmax along `axis` with max-subtraction for stability.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] when `axis` is out of range.
pub fn softmax(x: &Tensor, axis: usize, acc: Accumulation) -> Result<Tensor> {
    softmax_with(&INLINE, x, axis, acc)
}

/// [`softmax`] splitting the outer loop over `pool`, with the per-lane
/// gather buffer in the thread's scratch, taken once per chunk. Every
/// softmax lane (max, exp, sum, divide) is computed whole inside one
/// chunk, so the reduction order — and therefore the bytes — match
/// the sequential kernel at every thread count.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] when `axis` is out of range.
pub fn softmax_with(pool: &ThreadPool, x: &Tensor, axis: usize, acc: Accumulation) -> Result<Tensor> {
    let dims = x.dims();
    if axis >= dims.len() {
        return Err(RuntimeError::Kernel {
            node: "softmax".into(),
            reason: format!("axis {axis} out of range for {:?}", dims),
        });
    }
    let axis_len = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let outer: usize = dims[..axis].iter().product();
    let xs = x.data();
    let mut out = vec![0.0f32; xs.len()];
    let stride = axis_len * inner;
    pool.for_each_chunk(outer, stride, &mut out, |_, o0, o1, block| scratch::with(axis_len, |lane| {
        for o in o0..o1 {
            let dst = &mut block[(o - o0) * stride..(o - o0 + 1) * stride];
            for i in 0..inner {
                for (j, l) in lane.iter_mut().enumerate() {
                    *l = xs[(o * axis_len + j) * inner + i];
                }
                let max = lane.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                for l in lane.iter_mut() {
                    *l = (*l - max).exp();
                }
                let denom = reduce_sum(lane, acc);
                for (j, &l) in lane.iter().enumerate() {
                    dst[j * inner + i] = l / denom;
                }
            }
        }
    }));
    Ok(Tensor::from_vec(out, dims)?)
}

/// Concatenation along `axis`.
///
/// # Errors
///
/// Returns [`RuntimeError::Kernel`] on mismatched shapes.
pub fn concat(inputs: &[&Tensor], axis: usize) -> Result<Tensor> {
    if inputs.is_empty() {
        return Err(RuntimeError::Kernel { node: "concat".into(), reason: "no inputs".into() });
    }
    let first = inputs[0].dims();
    if axis >= first.len() {
        return Err(RuntimeError::Kernel {
            node: "concat".into(),
            reason: format!("axis {axis} out of range"),
        });
    }
    let mut out_dims = first.to_vec();
    out_dims[axis] = inputs.iter().map(|t| t.dims()[axis]).sum();
    for t in inputs {
        if t.rank() != first.len() {
            return Err(RuntimeError::Kernel {
                node: "concat".into(),
                reason: "rank mismatch".into(),
            });
        }
        for (d, (&a, &b)) in first.iter().zip(t.dims()).enumerate() {
            if d != axis && a != b {
                return Err(RuntimeError::Kernel {
                    node: "concat".into(),
                    reason: format!("dim {d} mismatch: {a} vs {b}"),
                });
            }
        }
    }
    let outer: usize = first[..axis].iter().product();
    let inner: usize = first[axis + 1..].iter().product();
    let total: usize = out_dims.iter().product();
    let mut out = Vec::with_capacity(total);
    for o in 0..outer {
        for t in inputs {
            let ax = t.dims()[axis];
            let base = o * ax * inner;
            out.extend_from_slice(&t.data()[base..base + ax * inner]);
        }
    }
    Ok(Tensor::from_vec(out, &out_dims)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{BlasKind, NaiveBlas};
    use mvtee_tensor::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attrs(k: usize, s: usize, p: usize, g: usize) -> ConvAttrs {
        ConvAttrs { kernel: (k, k), stride: (s, s), padding: (p, p), groups: g }
    }

    #[test]
    fn activation_kernel_equals_apply_bit_for_bit() {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0042),
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x8040_0000),
            6.0,
            -6.0,
            1e30,
            -1e30,
            0.5,
            -2.75,
        ];
        // 1 003 elements: the vectorised loop's body and a scalar tail.
        let values: Vec<f32> = specials.iter().copied().cycle().take(1003).collect();
        let x = Tensor::from_vec(values.clone(), &[1003]).unwrap();
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Relu6,
            ActivationKind::Sigmoid,
            ActivationKind::Silu,
            ActivationKind::HardSigmoid,
            ActivationKind::HardSwish,
            ActivationKind::Tanh,
            ActivationKind::Abs,
        ] {
            let got: Vec<u32> = activation(&x, kind).data().iter().map(|v| v.to_bits()).collect();
            // One opaque call per element: the reference stays scalar.
            let apply = |v| std::hint::black_box(kind).apply(std::hint::black_box(v));
            let want: Vec<u32> = values.iter().map(|&v| apply(v).to_bits()).collect();
            assert_eq!(got, want, "{kind}");
        }
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with identity weights reproduces the input channels.
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d_direct(&x, &w, None, &attrs(1, 1, 0, 1)).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_known_values() {
        // 2x2 input, 2x2 all-ones kernel, no pad: output = sum of all = 10.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv2d_direct(&x, &w, None, &attrs(2, 1, 0, 1)).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 10.0);
    }

    #[test]
    fn conv_padding_and_stride() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d_direct(&x, &w, None, &attrs(3, 2, 1, 1)).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        // Top-left window covers 2x2 ones (corner), center windows more.
        assert_eq!(y.get(&[0, 0, 0, 0]).unwrap(), 4.0);
        assert_eq!(y.get(&[0, 0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn conv_bias_applied() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![5.0, -1.0], &[2]).unwrap();
        let y = conv2d_direct(&x, &w, Some(&b), &attrs(1, 1, 0, 1)).unwrap();
        assert_eq!(y.get(&[0, 0, 0, 0]).unwrap(), 5.0);
        assert_eq!(y.get(&[0, 1, 1, 1]).unwrap(), -1.0);
    }

    #[allow(clippy::too_many_arguments)]
    fn random_conv_case(
        seed: u64,
        n: usize,
        c: usize,
        h: usize,
        oc: usize,
        k: usize,
        s: usize,
        p: usize,
        g: usize,
    ) -> (Tensor, Tensor, Tensor, ConvAttrs) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&mut rng, &[n, c, h, h], 1.0);
        let w = Tensor::random_uniform(&mut rng, &[oc, c / g, k, k], 0.5);
        let b = Tensor::random_uniform(&mut rng, &[oc], 0.5);
        (x, w, b, attrs(k, s, p, g))
    }

    #[test]
    fn im2col_matches_direct() {
        for (seed, g) in [(1u64, 1usize), (2, 2), (3, 4)] {
            let (x, w, b, a) = random_conv_case(seed, 2, 4, 9, 8, 3, 2, 1, g);
            let direct = conv2d_direct(&x, &w, Some(&b), &a).unwrap();
            for kind in BlasKind::ALL {
                let blas = kind.instantiate();
                let im2col = conv2d_im2col(&x, &w, Some(&b), &a, blas.as_ref()).unwrap();
                assert!(
                    metrics::allclose(&direct, &im2col, 1e-4, 1e-5),
                    "groups {g} blas {kind}: max diff {}",
                    metrics::max_abs_diff(&direct, &im2col)
                );
            }
        }
    }

    #[test]
    fn nhwc_matches_nchw() {
        let (x, w, b, a) = random_conv_case(7, 1, 6, 8, 4, 3, 1, 1, 1);
        let direct = conv2d_direct(&x, &w, Some(&b), &a).unwrap();
        let x_nhwc = x.to_nhwc().unwrap();
        let y_nhwc = conv2d_nhwc_direct(&x_nhwc, &w, Some(&b), &a).unwrap();
        let back = y_nhwc.from_nhwc().unwrap();
        assert!(metrics::allclose(&direct, &back, 1e-4, 1e-5));
    }

    #[test]
    fn depthwise_conv() {
        let (x, w, b, a) = random_conv_case(9, 1, 6, 8, 6, 3, 1, 1, 6);
        let direct = conv2d_direct(&x, &w, Some(&b), &a).unwrap();
        let x_nhwc = x.to_nhwc().unwrap();
        let nhwc = conv2d_nhwc_direct(&x_nhwc, &w, Some(&b), &a).unwrap().from_nhwc().unwrap();
        assert!(metrics::allclose(&direct, &nhwc, 1e-4, 1e-5));
    }

    #[test]
    fn max_pool_values() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = pool2d(&x, PoolKind::Max, (2, 2), (2, 2), (0, 0), Accumulation::Sequential)
            .unwrap();
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_excludes_padding() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = pool2d(&x, PoolKind::Average, (3, 3), (1, 1), (1, 1), Accumulation::Sequential)
            .unwrap();
        // Every window only averages real elements => all ones.
        for &v in y.data() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gap_matches_mean() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = global_avg_pool(&x, Accumulation::Sequential).unwrap();
        assert_eq!(y.dims(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let t = global_avg_pool(&x, Accumulation::Tree).unwrap();
        assert!(metrics::allclose(&y, &t, 1e-6, 1e-7));
    }

    #[test]
    fn batch_norm_standardises() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let one = Tensor::ones(&[1]);
        let zero = Tensor::zeros(&[1]);
        let mean = Tensor::from_vec(vec![2.5], &[1]).unwrap();
        let var = Tensor::from_vec(vec![1.25], &[1]).unwrap();
        let y = batch_norm(&x, &one, &zero, &mean, &var, 0.0).unwrap();
        let m: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!(m.abs() < 1e-6);
        let v: f32 = y.data().iter().map(|x| x * x).sum::<f32>() / 4.0;
        assert!((v - 1.0).abs() < 1e-5);
    }

    #[test]
    fn layer_norm_standardises_lanes() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4])
            .unwrap();
        let gamma = Tensor::ones(&[4]);
        let beta = Tensor::zeros(&[4]);
        let y = layer_norm(&x, &gamma, &beta, 0.0, Accumulation::Sequential).unwrap();
        for lane in y.data().chunks(4) {
            let mean: f32 = lane.iter().sum::<f32>() / 4.0;
            let var: f32 = lane.iter().map(|v| v * v).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "lane mean {mean}");
            assert!((var - 1.0).abs() < 1e-4, "lane var {var}");
        }
    }

    #[test]
    fn layer_norm_applies_affine_params() {
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]).unwrap();
        let gamma = Tensor::from_vec(vec![2.0, 2.0], &[2]).unwrap();
        let beta = Tensor::from_vec(vec![10.0, 10.0], &[2]).unwrap();
        let y = layer_norm(&x, &gamma, &beta, 0.0, Accumulation::Sequential).unwrap();
        assert!((y.data()[0] - 8.0).abs() < 1e-5);
        assert!((y.data()[1] - 12.0).abs() < 1e-5);
    }

    #[test]
    fn layer_norm_accumulation_orders_agree() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::random_uniform(&mut rng, &[8, 64], 5.0);
        let gamma = Tensor::ones(&[64]);
        let beta = Tensor::zeros(&[64]);
        let a = layer_norm(&x, &gamma, &beta, 1e-5, Accumulation::Sequential).unwrap();
        let b = layer_norm(&x, &gamma, &beta, 1e-5, Accumulation::Tree).unwrap();
        assert!(metrics::allclose(&a, &b, 1e-4, 1e-5));
    }

    #[test]
    fn layer_norm_rejects_bad_params() {
        let x = Tensor::zeros(&[2, 4]);
        let bad = Tensor::zeros(&[3]);
        let good = Tensor::zeros(&[4]);
        assert!(layer_norm(&x, &bad, &good, 1e-5, Accumulation::Sequential).is_err());
        // Rank-0 input has no last axis to normalise over.
        let one = Tensor::ones(&[1]);
        assert!(
            layer_norm(&Tensor::scalar(1.0), &one, &one, 1e-5, Accumulation::Sequential)
                .is_err()
        );
    }

    #[test]
    fn lrn_reduces_magnitude() {
        let x = Tensor::full(&[1, 4, 2, 2], 2.0);
        let y = lrn(&x, 3, 1e-2, 0.75, 1.0).unwrap();
        for &v in y.data() {
            assert!(v < 2.0 && v > 0.0);
        }
    }

    #[test]
    fn gemm_fc_known() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        // w: [3 out, 2 in]
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 10.0, 100.0], &[3]).unwrap();
        let y = gemm_fc(&x, &w, Some(&b), &NaiveBlas).unwrap();
        assert_eq!(y.data(), &[1.0, 12.0, 103.0]);
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let y = matmul(&a, &b, &NaiveBlas).unwrap();
        assert_eq!(y.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 400.0, 500.0, 600.0], &[2, 3]).unwrap();
        for acc in [Accumulation::Sequential, Accumulation::Tree] {
            let y = softmax(&x, 1, acc).unwrap();
            for row in y.data().chunks(3) {
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
                assert!(row.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0], &[1, 1]).unwrap();
        let y = concat(&[&a, &b], 1).unwrap();
        assert_eq!(y.dims(), &[1, 3]);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_channel_blocks() {
        let a = Tensor::full(&[1, 1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2, 2], 2.0);
        let y = concat(&[&a, &b], 1).unwrap();
        assert_eq!(y.dims(), &[1, 3, 2, 2]);
        assert_eq!(y.get(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(y.get(&[0, 1, 0, 0]).unwrap(), 2.0);
        assert_eq!(y.get(&[0, 2, 1, 1]).unwrap(), 2.0);
    }

    #[test]
    fn tree_sum_equals_sequential_for_exact_values() {
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(reduce_sum(&vals, Accumulation::Tree), reduce_sum(&vals, Accumulation::Sequential));
        assert_eq!(reduce_sum(&[], Accumulation::Tree), 0.0);
        assert_eq!(reduce_sum(&[7.0], Accumulation::Tree), 7.0);
    }

    #[test]
    fn kernels_reject_bad_shapes() {
        let x = Tensor::zeros(&[2, 2]);
        let w = Tensor::zeros(&[1, 1, 1, 1]);
        assert!(conv2d_direct(&x, &w, None, &attrs(1, 1, 0, 1)).is_err());
        assert!(softmax(&x, 5, Accumulation::Sequential).is_err());
        assert!(concat(&[], 0).is_err());
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b, &NaiveBlas).is_err());
    }
}
