//! Conv routes whose operands are packed once, at
//! [`Engine::prepare`](crate::Engine::prepare).
//!
//! On MnasNet the fixed part of a convolution dominates: a column matrix
//! built and read back, a GEMM whose accumulators live in memory, a pool
//! region, a tap list per call. Four routes move that work to prepare
//! time, when the weights and shapes are known:
//!
//! * [`PackedDepthwise`] (`depthwise-lanes`) — a depthwise conv whose
//!   output plane is at most [`SMALL_PLANE`] wide runs channels-in-lanes,
//!   from weights packed as `[tap][channel]`, over each output position's
//!   valid taps, listed once.
//! * [`DepthwiseRows`] (`depthwise-rows`) — every wider depthwise conv
//!   keeps a tile of output rows in registers and adds each tap's
//!   contiguous run of input to it.
//! * [`DirectRows`] (`direct-rows`) — a dense conv whose patch
//!   (`icg·kh·kw`) is at most [`DIRECT_PATCH`], with a kernel larger than
//!   1×1, keeps one output row of two output channels in registers, so
//!   each input load feeds both.
//! * [`PackedPointwise`] (`pointwise-gemv`) — a 1×1, stride-1, unpadded
//!   conv on a 1×1 plane runs as a GEMV over weights packed as `[k][m]`
//!   panels, so the `k` loop vectorises across output rows.
//!
//! The two row routes read a per-call copy of the input rows, padded and,
//! for a column stride `s`, split into `s` column phases: padded column
//! `s·j + p` is element `j` of phase `p`. Output column `ox` of tap
//! `(ky, kx)` reads padded column `s·ox + kx`, which is element
//! `ox + kx / s` of phase `kx % s`, so every tap's run over a tile is one
//! contiguous read. The split costs a division per phase, none per
//! element.
//!
//! All four compute the generic im2col path's bytes under
//! [`RowOrder::AscendingK`]: every output element is `+0.0`, plus its
//! products `w · x` in ascending `kk` (rounded, no FMA), plus the bias
//! (`+ 0.0` without one). Whether the backend skips zero weights does not
//! matter here, nor whether a route adds a padding tap as `w · 0.0` or
//! leaves it out: with finite operands such a product is `±0.0`, and
//! adding `±0.0` changes no bit of an accumulator that starts at `+0.0`
//! (a sum is `−0.0` only when both addends are, so it is never `−0.0`).
//!
//! A conv the engine fused with the activation after it passes that
//! [`ActivationKind`] to [`ConvRoute::run`], and each route applies
//! [`ActivationKind::apply`] to every element as it stores it, after the
//! bias: the bits the separate activation op would have written.
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
//! shared by every variant thread that runs it, and the row routes' input
//! copy is the calling thread's own.

use crate::blas::RowOrder;
use crate::kernels::{self, all_finite as finite, with_epilogue, ConvAttrs};
use mvtee_graph::op::ActivationKind;
use mvtee_tensor::Tensor;
use std::cell::RefCell;

/// The widest output plane the depthwise-lanes route takes.
pub const SMALL_PLANE: usize = 4;

/// The largest patch (`icg·kh·kw`) the direct-rows route takes: the 3×3×3
/// stems. Wider patches run faster on the route too, but it keeps a packed
/// copy of the weights beside the originals the fallback reads, so the
/// bound keeps that copy small.
pub const DIRECT_PATCH: usize = 32;

/// Output channels per direct-rows tile: each input load feeds all of them.
const TILE_CHANNELS: usize = 2;

/// Output columns per row-route tile.
const TILE_COLS: usize = 8;

/// Output rows per depthwise-rows tile: four independent addition chains
/// per column overlap where one row at a time waits on each addition.
const TILE_ROWS: usize = 4;

/// Output rows per pointwise weight panel: the GEMV keeps one panel's
/// accumulators in registers for the whole `k` loop.
const PANEL: usize = 16;

thread_local! {
    /// The row routes' padded, phase-split input copy and the lanes
    /// route's position-major one. A prepared model is shared by every
    /// thread that runs it, so the buffer is the thread's, not the route's.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The kernel a convolution runs, chosen once at prepare time.
#[derive(Debug)]
pub enum ConvRoute {
    /// Whatever [`kernels::conv2d_im2col_with`] does with the operands.
    Generic,
    /// [`PackedDepthwise`], falling back to `Generic` per call.
    Depthwise(PackedDepthwise),
    /// [`DepthwiseRows`], falling back to `Generic` per call.
    DepthwiseRows(DepthwiseRows),
    /// [`DirectRows`], falling back to `Generic` per call.
    DirectRows(DirectRows),
    /// [`PackedPointwise`], falling back to `Generic` per call.
    Pointwise(PackedPointwise),
}

impl ConvRoute {
    /// The route of a conv over input dims `x_dims` with weights `w` and
    /// `bias`, on a backend that declares `order`. Anything a packed route
    /// does not take — an undeclared order, non-finite weights or bias, a
    /// shape outside every route — is `Generic`.
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
            && c * h * wd > 0
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
        let depthwise = a.groups == c && oc == c && icg == 1;
        let dense = a.groups == 1 && oc > 0 && icg == c;
        if depthwise && ow <= SMALL_PLANE {
            ConvRoute::Depthwise(PackedDepthwise::pack(w, bias, a, (c, h, wd), (oh, ow)))
        } else if depthwise {
            let rows = Rows::plan(a, (c, h, wd), (oh, ow), 1, TILE_ROWS);
            ConvRoute::DepthwiseRows(DepthwiseRows { rows, weights: w.data().to_vec(), bias })
        } else if dense
            && (kh, kw, h, wd) == (1, 1, 1, 1)
            && a.stride == (1, 1)
            && a.padding == (0, 0)
        {
            ConvRoute::Pointwise(PackedPointwise::pack(w, bias))
        } else if dense && kh * kw > 1 && icg * kh * kw <= DIRECT_PATCH {
            ConvRoute::DirectRows(DirectRows::pack(w, bias, a, (c, h, wd), (oh, ow)))
        } else {
            ConvRoute::Generic
        }
    }

    /// Runs the packed route on `x`, applying `act` to every element as it
    /// stores it: `None` when the route is `Generic`, when `x` is not the
    /// shape it was planned for, or when `x` holds a non-finite value.
    pub fn run(&self, x: &Tensor, act: Option<ActivationKind>) -> Option<Tensor> {
        with_epilogue!(act, |f| match self {
            ConvRoute::Generic => None,
            ConvRoute::Depthwise(p) => p.run(x, f),
            ConvRoute::DepthwiseRows(p) => p.run(x, f),
            ConvRoute::DirectRows(p) => p.run(x, f),
            ConvRoute::Pointwise(p) => p.run(x, f),
        })
    }

    /// A short name for the route (`generic`, `depthwise-lanes`,
    /// `depthwise-rows`, `direct-rows`, `pointwise-gemv`).
    pub fn name(&self) -> &'static str {
        match self {
            ConvRoute::Generic => "generic",
            ConvRoute::Depthwise(_) => "depthwise-lanes",
            ConvRoute::DepthwiseRows(_) => "depthwise-rows",
            ConvRoute::DirectRows(_) => "direct-rows",
            ConvRoute::Pointwise(_) => "pointwise-gemv",
        }
    }
}

/// The `[n, c, h, w]` input `x` as `n` batch elements of `c·h·w`, and its
/// output buffer, when `x` is the input a route was planned for and every
/// value in it is finite.
fn batches(x: &Tensor, input: (usize, usize, usize), out_len: usize) -> Option<(usize, Vec<f32>)> {
    let &[n, xc, xh, xw] = x.dims() else {
        return None;
    };
    ((xc, xh, xw) == input && finite(x.data())).then(|| (n, vec![0.0f32; n * out_len]))
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
        // Padding taps are left out (see the module docs).
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

    fn run(&self, x: &Tensor, f: impl Fn(f32) -> f32) -> Option<Tensor> {
        let (c, h, wd) = self.input;
        let (oh, ow) = self.output;
        let (hw, plane) = (h * wd, oh * ow);
        let (n, mut out) = batches(x, self.input, c * plane)?;
        SCRATCH.with_borrow_mut(|scratch| {
            // One accumulator row, then (unless the input plane is a single
            // pixel, already channel-contiguous) the input turned
            // position-major.
            scratch.clear();
            scratch.resize(if hw == 1 { c } else { (hw + 1) * c }, 0.0);
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
                        ob[ch * plane + p] = f(s + b);
                    }
                }
            }
        });
        Tensor::from_vec(out, &[n, c, oh, ow]).ok()
    }
}

/// The geometry the two row routes share: where, in the per-call input
/// copy, each tap's run of input lies.
///
/// The copy holds, per input channel, `rows` padded rows of `sw` phases of
/// `width` elements each (zero where the padded row has no input). A tile
/// reads whole tiles' worth of columns and rows, past the output's last
/// column or row when the output is not a whole number of tiles; `width`
/// and `rows` include those reads, and their results are never stored.
#[derive(Debug)]
struct Rows {
    /// `(c, h, w)` of the input it was planned for.
    input: (usize, usize, usize),
    /// `(oh, ow)`.
    output: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    /// Padded rows kept per channel: every row a tile reads.
    rows: usize,
    /// Elements per phase row: every column a tile reads.
    width: usize,
    /// `taps[kk]`: where tap `kk`'s run starts for output row 0 and
    /// output column 0, over the first `tap_channels` input channels.
    taps: Vec<usize>,
}

impl Rows {
    fn plan(
        a: &ConvAttrs,
        (c, h, wd): (usize, usize, usize),
        (oh, ow): (usize, usize),
        tap_channels: usize,
        tile_rows: usize,
    ) -> Rows {
        let ((kh, kw), (sh, sw), (_, pw)) = (a.kernel, a.stride, a.padding);
        let rows = (oh.div_ceil(tile_rows) * tile_rows - 1) * sh + kh;
        let width = (wd + 2 * pw)
            .div_ceil(sw)
            .max(ow.div_ceil(TILE_COLS) * TILE_COLS + (kw - 1) / sw);
        let mut taps = Vec::with_capacity(tap_channels * kh * kw);
        for ic in 0..tap_channels {
            for ky in 0..kh {
                for kx in 0..kw {
                    taps.push(((ic * rows + ky) * sw + kx % sw) * width + kx / sw);
                }
            }
        }
        Rows {
            input: (c, h, wd),
            output: (oh, ow),
            stride: a.stride,
            padding: a.padding,
            rows,
            width,
            taps,
        }
    }

    /// Elements per input channel in the copy.
    fn channel_len(&self) -> usize {
        self.rows * self.stride.1 * self.width
    }

    /// How far apart two consecutive output rows' runs start.
    fn row_step(&self) -> usize {
        self.stride.0 * self.stride.1 * self.width
    }

    /// Copies one batch element's planes into `copy`, padded and split
    /// into column phases.
    fn fill(&self, xb: &[f32], copy: &mut Vec<f32>) {
        let (c, h, wd) = self.input;
        let ((ph, pw), sw, width) = (self.padding, self.stride.1, self.width);
        copy.clear();
        copy.resize(c * self.channel_len(), 0.0);
        let kept = self.rows.saturating_sub(ph).min(h);
        for (ic, plane) in xb.chunks_exact(h * wd).enumerate() {
            for (iy, src) in plane.chunks_exact(wd).take(kept).enumerate() {
                let start = (ic * self.rows + iy + ph) * sw * width;
                let dst = &mut copy[start..start + sw * width];
                // Input column `ix` is padded column `ix + pw`: element
                // `(ix + pw) / sw` of phase `(ix + pw) % sw`.
                match sw {
                    1 => dst[pw..pw + wd].copy_from_slice(src),
                    2 => {
                        let (even, odd) = dst.split_at_mut(width);
                        let (first, second) = if pw % 2 == 0 {
                            (&mut even[pw / 2..], &mut odd[pw / 2..])
                        } else {
                            (&mut odd[pw / 2..], &mut even[pw / 2 + 1..])
                        };
                        let (pairs, tail) = src.as_chunks::<2>();
                        for ((pair, a), b) in pairs.iter().zip(first.iter_mut()).zip(second) {
                            (*a, *b) = (pair[0], pair[1]);
                        }
                        if let [v] = tail {
                            first[pairs.len()] = *v;
                        }
                    }
                    _ => {
                        for (ix, &v) in src.iter().enumerate() {
                            let col = ix + pw;
                            dst[(col % sw) * width + col / sw] = v;
                        }
                    }
                }
            }
        }
    }
}

/// A depthwise conv on a plane wider than [`SMALL_PLANE`]: per channel,
/// tiles of `TILE_ROWS` output rows by `TILE_COLS` columns held in
/// registers while the channel's taps are added in ascending `kk`.
#[derive(Debug)]
pub struct DepthwiseRows {
    rows: Rows,
    /// `weights[ch·kh·kw + kk]`, the conv's own layout.
    weights: Vec<f32>,
    /// One bias per channel, `0.0` without a bias.
    bias: Vec<f32>,
}

impl DepthwiseRows {
    fn run(&self, x: &Tensor, f: impl Fn(f32) -> f32) -> Option<Tensor> {
        let g = &self.rows;
        let (c, h, wd) = g.input;
        let (oh, ow) = g.output;
        let (n, mut out) = batches(x, g.input, c * oh * ow)?;
        let (taps, channel_len, row_step) = (g.taps.len(), g.channel_len(), g.row_step());
        SCRATCH.with_borrow_mut(|copy| {
            for (xb, ob) in x
                .data()
                .chunks_exact(c * h * wd)
                .zip(out.chunks_exact_mut(c * oh * ow))
            {
                g.fill(xb, copy);
                let planes = ob.chunks_exact_mut(oh * ow);
                let channels = copy.chunks_exact(channel_len).zip(self.weights.chunks_exact(taps));
                for ((src, wc), (dst, &b)) in channels.zip(planes.zip(&self.bias)) {
                    for oy in (0..oh).step_by(TILE_ROWS) {
                        for ox in (0..ow).step_by(TILE_COLS) {
                            let acc = depthwise_tile(src, &g.taps, wc, oy * row_step + ox, row_step);
                            let cols = TILE_COLS.min(ow - ox);
                            for (r, a) in acc.iter().enumerate().take(oh - oy) {
                                let d = &mut dst[(oy + r) * ow + ox..][..cols];
                                for (d, &s) in d.iter_mut().zip(a) {
                                    *d = f(s + b);
                                }
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(out, &[n, c, oh, ow]).ok()
    }
}

/// A dense conv with a small patch: per output row, tiles of
/// `TILE_CHANNELS` output channels by `TILE_COLS` columns held in
/// registers while the patch's taps are added in ascending `kk`.
#[derive(Debug)]
pub struct DirectRows {
    rows: Rows,
    /// Output channels.
    m: usize,
    /// `⌈m / TILE_CHANNELS⌉` blocks of `[kk][TILE_CHANNELS]`, zero past
    /// `m`.
    weights: Vec<f32>,
    /// `⌈m / TILE_CHANNELS⌉` blocks of `TILE_CHANNELS` biases, zero past
    /// `m` and without a bias.
    bias: Vec<f32>,
}

impl DirectRows {
    fn pack(
        w: &Tensor,
        mut bias: Vec<f32>,
        a: &ConvAttrs,
        input: (usize, usize, usize),
        output: (usize, usize),
    ) -> Self {
        let (m, patch) = (w.dims()[0], w.len() / w.dims()[0]);
        let blocks = m.div_ceil(TILE_CHANNELS);
        let mut weights = vec![0.0f32; blocks * patch * TILE_CHANNELS];
        for (o, row) in w.data().chunks_exact(patch).enumerate() {
            let block = &mut weights[(o / TILE_CHANNELS) * patch * TILE_CHANNELS..];
            for (kk, &v) in row.iter().enumerate() {
                block[kk * TILE_CHANNELS + o % TILE_CHANNELS] = v;
            }
        }
        bias.resize(blocks * TILE_CHANNELS, 0.0);
        let rows = Rows::plan(a, input, output, input.0, 1);
        DirectRows { rows, m, weights, bias }
    }

    fn run(&self, x: &Tensor, f: impl Fn(f32) -> f32) -> Option<Tensor> {
        let g = &self.rows;
        let (c, h, wd) = g.input;
        let (oh, ow) = g.output;
        let m = self.m;
        let plane = oh * ow;
        let (n, mut out) = batches(x, g.input, m * plane)?;
        let (patch, row_step) = (g.taps.len(), g.row_step());
        SCRATCH.with_borrow_mut(|copy| {
            for (xb, ob) in x
                .data()
                .chunks_exact(c * h * wd)
                .zip(out.chunks_exact_mut(m * plane))
            {
                g.fill(xb, copy);
                let blocks = self.weights.chunks_exact(patch * TILE_CHANNELS);
                for (blk, (wb, bb)) in blocks.zip(self.bias.chunks_exact(TILE_CHANNELS)).enumerate() {
                    let (wb, _) = wb.as_chunks::<TILE_CHANNELS>();
                    let o0 = blk * TILE_CHANNELS;
                    for oy in 0..oh {
                        for ox in (0..ow).step_by(TILE_COLS) {
                            let acc = dense_tile(copy, &g.taps, wb, oy * row_step + ox);
                            let cols = TILE_COLS.min(ow - ox);
                            for (o, (a, &b)) in acc.iter().zip(bb).enumerate().take(m - o0) {
                                let d = &mut ob[(o0 + o) * plane + oy * ow + ox..][..cols];
                                for (d, &s) in d.iter_mut().zip(a) {
                                    *d = f(s + b);
                                }
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(out, &[n, m, oh, ow]).ok()
    }
}

/// One depthwise-rows tile: `TILE_ROWS` output rows, `row_step` apart in
/// `src`, of `TILE_COLS` columns from `at`, each the sum of the channel's
/// taps `w[kk] · x` in ascending `kk`.
fn depthwise_tile(
    src: &[f32],
    taps: &[usize],
    w: &[f32],
    at: usize,
    row_step: usize,
) -> [[f32; TILE_COLS]; TILE_ROWS] {
    let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
    for (&tap, &wv) in taps.iter().zip(w) {
        for (r, a) in acc.iter_mut().enumerate() {
            let start = at + tap + r * row_step;
            let xr: &[f32; TILE_COLS] = src[start..start + TILE_COLS].try_into().expect("tile run");
            for j in 0..TILE_COLS {
                a[j] += wv * xr[j];
            }
        }
    }
    acc
}

/// One direct-rows tile: `TILE_CHANNELS` output channels of `TILE_COLS`
/// columns from `at`, each the sum of its taps `w[kk] · x` in ascending
/// `kk`.
fn dense_tile(
    copy: &[f32],
    taps: &[usize],
    w: &[[f32; TILE_CHANNELS]],
    at: usize,
) -> [[f32; TILE_COLS]; TILE_CHANNELS] {
    let mut acc = [[0.0f32; TILE_COLS]; TILE_CHANNELS];
    for (&tap, wk) in taps.iter().zip(w) {
        let start = at + tap;
        let xr: &[f32; TILE_COLS] = copy[start..start + TILE_COLS].try_into().expect("tile run");
        for o in 0..TILE_CHANNELS {
            for j in 0..TILE_COLS {
                acc[o][j] += wk[o] * xr[j];
            }
        }
    }
    acc
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
    wt: Vec<f32>,
    /// One bias per output channel, `0.0` without a bias.
    bias: Vec<f32>,
}

impl PackedPointwise {
    fn pack(w: &Tensor, bias: Vec<f32>) -> Self {
        let (m, k) = (w.dims()[0], w.dims()[1]);
        let mut wt = vec![0.0f32; m.div_ceil(PANEL) * k * PANEL];
        for (o, row) in w.data().chunks_exact(k).enumerate() {
            let panel = &mut wt[(o / PANEL) * k * PANEL..];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * PANEL + o % PANEL] = v;
            }
        }
        PackedPointwise { k, m, wt, bias }
    }

    fn run(&self, x: &Tensor, f: impl Fn(f32) -> f32) -> Option<Tensor> {
        let (k, m) = (self.k, self.m);
        let (n, mut out) = batches(x, (k, 1, 1), m)?;
        for (xb, ob) in x.data().chunks_exact(k).zip(out.chunks_exact_mut(m)) {
            let blocks = self.wt.chunks_exact(k * PANEL);
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
                    *d = f(s + b);
                }
            }
        }
        Tensor::from_vec(out, &[n, m, 1, 1]).ok()
    }
}
