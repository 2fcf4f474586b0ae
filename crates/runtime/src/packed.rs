//! Conv routes whose operands are packed once, at
//! [`Engine::prepare`](crate::Engine::prepare).
//!
//! On MnasNet's tail — feature maps of 4×4 and smaller — a convolution is
//! a few hundred multiply-adds, and what a call costs is its fixed part:
//! the depthwise kernel built a tap list per call and walked it channel by
//! channel in runs of one to four elements; a pointwise conv on a 1×1
//! plane ran one dependent addition chain per output row. Two routes move
//! that work to prepare time, when the weights are known:
//!
//! * [`PackedDepthwise`] — a depthwise conv whose output plane is at most
//!   [`SMALL_PLANE`] wide runs channels-in-lanes, from weights packed as
//!   `[tap][channel]`, over each output position's valid taps, listed once.
//! * [`PackedPointwise`] — a 1×1, stride-1, unpadded conv on a 1×1 plane
//!   runs as a GEMV over weights packed as `[k][m]` panels, so the `k`
//!   loop vectorises across output rows.
//!
//! Both compute the generic im2col path's bytes under
//! [`RowOrder::AscendingK`]: every output element is `+0.0`, plus its
//! products `w · x` in ascending `kk` (rounded, no FMA), plus the bias
//! (`+ 0.0` without one). Whether the backend skips zero weights does not
//! matter here: with finite operands a skipped product is `±0.0`, and
//! adding `±0.0` changes no bit of an accumulator that starts at `+0.0`
//! (a sum is `−0.0` only when both addends are, so it is never `−0.0`).
//!
//! The NaN gate: when two NaNs meet in one addition, which payload
//! survives depends on the operand order the compiler picked, so a route
//! runs only where every NaN is the one an overflow's `inf − inf` makes.
//! Weights and bias must be finite, which [`ConvRoute::plan`] checks once;
//! the input must be finite, which [`ConvRoute::run`] checks on every
//! call. `run` returns `None` for anything else, and the caller falls back
//! to [`kernels::conv2d_im2col_with`].
//!
//! Every output element depends only on its own operands, so the routes
//! run on the caller's thread and their bytes are those of every thread
//! count. A packed route is read-only after `plan`: one prepared model is
//! shared by every variant thread that runs it.

use crate::blas::RowOrder;
use crate::kernels::{self, all_finite as finite, ConvAttrs};
use mvtee_tensor::Tensor;

/// The widest output plane the depthwise route takes.
pub const SMALL_PLANE: usize = 4;

/// Output rows per pointwise weight panel: the GEMV keeps one panel's
/// accumulators in registers for the whole `k` loop.
const PANEL: usize = 16;

/// The kernel a convolution runs, chosen once at prepare time.
#[derive(Debug)]
pub enum ConvRoute {
    /// Whatever [`kernels::conv2d_im2col_with`] does with the operands.
    Generic,
    /// [`PackedDepthwise`], falling back to `Generic` per call.
    Depthwise(PackedDepthwise),
    /// [`PackedPointwise`], falling back to `Generic` per call.
    Pointwise(PackedPointwise),
}

impl ConvRoute {
    /// The route of a conv over input dims `x_dims` with weights `w` and
    /// `bias`, on a backend that declares `order`. Anything a packed route
    /// does not take — an undeclared order, non-finite weights or bias, a
    /// shape outside both routes — is `Generic`.
    pub fn plan(
        x_dims: &[usize],
        w: &Tensor,
        bias: Option<&Tensor>,
        a: &ConvAttrs,
        order: RowOrder,
    ) -> ConvRoute {
        let (&[_, c, h, wd], &[oc, icg, kh, kw]) = (x_dims, w.dims()) else {
            return ConvRoute::Generic;
        };
        let fits = (kh, kw) == a.kernel
            && c > 0
            && a.stride.0 > 0
            && a.stride.1 > 0
            && h + 2 * a.padding.0 >= kh
            && wd + 2 * a.padding.1 >= kw
            && bias.is_none_or(|b| b.dims() == [oc]);
        if !matches!(order, RowOrder::AscendingK { .. })
            || !fits
            || !finite(w.data())
            || !bias.is_none_or(|b| finite(b.data()))
        {
            return ConvRoute::Generic;
        }
        let bias = bias.map_or_else(|| vec![0.0; oc], |b| b.data().to_vec());
        let (oh, ow) = kernels::conv_out_dims(h, wd, a);
        if a.groups == c && oc == c && icg == 1 && ow <= SMALL_PLANE {
            ConvRoute::Depthwise(PackedDepthwise::pack(w, bias, a, (c, h, wd), (oh, ow)))
        } else if a.groups == 1
            && oc > 0
            && icg == c
            && (kh, kw, h, wd) == (1, 1, 1, 1)
            && a.stride == (1, 1)
            && a.padding == (0, 0)
        {
            ConvRoute::Pointwise(PackedPointwise::pack(w, bias))
        } else {
            ConvRoute::Generic
        }
    }

    /// Runs the packed route on `x`: `None` when the route is `Generic`,
    /// when `x` is not the shape it was planned for, or when `x` holds a
    /// non-finite value.
    pub fn run(&self, x: &Tensor) -> Option<Tensor> {
        match self {
            ConvRoute::Generic => None,
            ConvRoute::Depthwise(p) => p.run(x),
            ConvRoute::Pointwise(p) => p.run(x),
        }
    }

    /// A short name for the route (`generic`, `depthwise-lanes`,
    /// `pointwise-gemv`).
    pub fn name(&self) -> &'static str {
        match self {
            ConvRoute::Generic => "generic",
            ConvRoute::Depthwise(_) => "depthwise-lanes",
            ConvRoute::Pointwise(_) => "pointwise-gemv",
        }
    }
}

/// A depthwise conv on a small output plane, packed for channels-in-lanes.
#[derive(Debug)]
pub struct PackedDepthwise {
    /// `(c, h, w)` of the input it was packed for.
    input: (usize, usize, usize),
    /// `(oh, ow)`.
    output: (usize, usize),
    /// `lanes[kk·c + ch]`: channel `ch`'s weight at tap `kk`.
    lanes: Vec<f32>,
    /// One bias per channel, `0.0` without a bias.
    bias: Vec<f32>,
    /// `(kk, input position)` of every valid tap, output position by
    /// output position, each position's taps in ascending `kk`.
    taps: Vec<(usize, usize)>,
    /// Output position `p`'s taps are `taps[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
}

impl PackedDepthwise {
    fn pack(
        w: &Tensor,
        bias: Vec<f32>,
        a: &ConvAttrs,
        (c, h, wd): (usize, usize, usize),
        (oh, ow): (usize, usize),
    ) -> Self {
        let (kh, kw) = a.kernel;
        let taps_per_channel = kh * kw;
        let mut lanes = vec![0.0f32; taps_per_channel * c];
        for (ch, wc) in w.data().chunks_exact(taps_per_channel).enumerate() {
            for (kk, &v) in wc.iter().enumerate() {
                lanes[kk * c + ch] = v;
            }
        }
        // Padding taps are left out: the generic column matrix holds `0.0`
        // there, and `w · 0.0 = ±0.0` changes no bit (`w` is finite).
        let inside = |o: usize, k: usize, s: usize, p: usize, len: usize| {
            (o * s + k).checked_sub(p).filter(|&i| i < len)
        };
        let mut taps = Vec::new();
        let mut starts = vec![0];
        for oy in 0..oh {
            for ox in 0..ow {
                for ky in 0..kh {
                    let Some(iy) = inside(oy, ky, a.stride.0, a.padding.0, h) else {
                        continue;
                    };
                    for kx in 0..kw {
                        if let Some(ix) = inside(ox, kx, a.stride.1, a.padding.1, wd) {
                            taps.push((ky * kw + kx, iy * wd + ix));
                        }
                    }
                }
                starts.push(taps.len());
            }
        }
        PackedDepthwise {
            input: (c, h, wd),
            output: (oh, ow),
            lanes,
            bias,
            taps,
            starts,
        }
    }

    fn run(&self, x: &Tensor) -> Option<Tensor> {
        let (c, h, wd) = self.input;
        let &[n, xc, xh, xw] = x.dims() else {
            return None;
        };
        if (xc, xh, xw) != self.input || !finite(x.data()) {
            return None;
        }
        let (oh, ow) = self.output;
        let (hw, plane) = (h * wd, oh * ow);
        let mut out = vec![0.0f32; n * c * plane];
        // One accumulator row, then (unless the input plane is a single
        // pixel, already channel-contiguous) the input turned position-major.
        let mut scratch = vec![0.0f32; if hw == 1 { c } else { (hw + 1) * c }];
        let (acc, transposed) = scratch.split_at_mut(c);
        for (xb, ob) in x
            .data()
            .chunks_exact(c * hw)
            .zip(out.chunks_exact_mut(c * plane))
        {
            let lanes_in: &[f32] = if hw == 1 {
                xb
            } else {
                for (ch, src) in xb.chunks_exact(hw).enumerate() {
                    for (pos, &v) in src.iter().enumerate() {
                        transposed[pos * c + ch] = v;
                    }
                }
                transposed
            };
            for p in 0..plane {
                acc.fill(0.0);
                for &(kk, pos) in &self.taps[self.starts[p]..self.starts[p + 1]] {
                    let wl = &self.lanes[kk * c..(kk + 1) * c];
                    let xl = &lanes_in[pos * c..(pos + 1) * c];
                    for ((s, &wv), &xv) in acc.iter_mut().zip(wl).zip(xl) {
                        *s += wv * xv;
                    }
                }
                for (ch, (&s, &b)) in acc.iter().zip(&self.bias).enumerate() {
                    ob[ch * plane + p] = s + b;
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow]).ok()
    }
}

/// A pointwise conv on a 1×1 plane, packed for a GEMV.
#[derive(Debug)]
pub struct PackedPointwise {
    /// Input channels.
    k: usize,
    /// Output channels.
    m: usize,
    /// `⌈m / PANEL⌉` panels of `[k][PANEL]`: panel `p` holds output rows
    /// `p·PANEL..` transposed, zero past `m`.
    panels: Vec<f32>,
    /// One bias per output channel, `0.0` without a bias.
    bias: Vec<f32>,
}

impl PackedPointwise {
    fn pack(w: &Tensor, bias: Vec<f32>) -> Self {
        let (m, k) = (w.dims()[0], w.dims()[1]);
        let mut panels = vec![0.0f32; m.div_ceil(PANEL) * k * PANEL];
        for (o, row) in w.data().chunks_exact(k).enumerate() {
            let panel = &mut panels[(o / PANEL) * k * PANEL..];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * PANEL + o % PANEL] = v;
            }
        }
        PackedPointwise { k, m, panels, bias }
    }

    fn run(&self, x: &Tensor) -> Option<Tensor> {
        let (k, m) = (self.k, self.m);
        let &[n, xc, 1, 1] = x.dims() else {
            return None;
        };
        if xc != k || !finite(x.data()) {
            return None;
        }
        let mut out = vec![0.0f32; n * m];
        for (xb, ob) in x.data().chunks_exact(k).zip(out.chunks_exact_mut(m)) {
            let blocks = self.panels.chunks_exact(k * PANEL);
            for ((panel, dst), bias) in blocks
                .zip(ob.chunks_mut(PANEL))
                .zip(self.bias.chunks(PANEL))
            {
                let mut acc = [0.0f32; PANEL];
                for (row, &xv) in panel.chunks_exact(PANEL).zip(xb) {
                    for (s, &wv) in acc.iter_mut().zip(row) {
                        *s += wv * xv;
                    }
                }
                for ((d, &s), &b) in dst.iter_mut().zip(&acc).zip(bias) {
                    *d = s + b;
                }
            }
        }
        Tensor::from_vec(out, &[n, m, 1, 1]).ok()
    }
}
