//! The one-pass vote gives the verdicts of the vote it replaced, bit for
//! bit. That vote is kept here as the oracle: `Metric::check` with its two
//! NaN scans before the metric, and `evaluate` comparing every pair and
//! self-checking each output in the cluster loop. Whole verdicts are
//! compared — `selected` bits, `agreeing`, `dissenting`, `majority` and
//! `detail` — over panels of up to five variants with crashes, differing
//! tensor counts and shape mismatches, under both policies and every
//! metric, on values with signed zeros, infinities, NaN payloads and
//! subnormals, and at lengths around the check's block size.

use mvtee::config::VotingPolicy;
use mvtee::voting::{evaluate, VariantOutput, Verdict};
use mvtee_tensor::metrics::{allclose, cosine_similarity, max_abs_diff, mse, Metric};
use mvtee_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Metric::check` before the fused pass.
fn oracle_check(metric: Metric, a: &Tensor, b: &Tensor) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    if a.data().iter().any(|v| v.is_nan()) || b.data().iter().any(|v| v.is_nan()) {
        return false;
    }
    match metric {
        Metric::Cosine { min_similarity } => cosine_similarity(a, b) >= min_similarity,
        Metric::Mse { max_mse } => mse(a, b) <= max_mse,
        Metric::MaxAbsDiff { max_diff } => max_abs_diff(a, b) <= max_diff,
        Metric::AllClose { rtol, atol } => allclose(a, b, rtol, atol),
    }
}

/// `evaluate` before the one-pass vote.
fn oracle_evaluate(outputs: &[VariantOutput], metric: Metric, policy: VotingPolicy) -> Verdict {
    let n = outputs.len();
    let healthy: Vec<(usize, &Vec<Tensor>)> = outputs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            VariantOutput::Ok(t) => Some((i, t)),
            VariantOutput::Crashed(_) => None,
        })
        .collect();
    let crashed: Vec<usize> = outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, VariantOutput::Crashed(_)))
        .map(|(i, _)| i)
        .collect();
    if healthy.is_empty() {
        return Verdict::Diverged {
            majority: None,
            dissenting: (0..n).collect(),
            detail: "all variants crashed".into(),
        };
    }
    let self_valid = |t: &Vec<Tensor>| t.iter().all(|x| oracle_check(metric, x, x));
    let k = healthy.len();
    let mut cluster: Vec<usize> = (0..k).collect();
    for i in 0..k {
        for j in (i + 1)..k {
            let consistent = healthy[i].1.len() == healthy[j].1.len()
                && healthy[i]
                    .1
                    .iter()
                    .zip(healthy[j].1.iter())
                    .all(|(a, b)| oracle_check(metric, a, b));
            if consistent {
                let (ci, cj) = (cluster[i], cluster[j]);
                if ci != cj {
                    for c in cluster.iter_mut() {
                        if *c == cj {
                            *c = ci;
                        }
                    }
                }
            }
        }
    }
    let mut best_cluster: Option<(usize, Vec<usize>)> = None;
    let mut roots: Vec<usize> = cluster.clone();
    roots.sort_unstable();
    roots.dedup();
    for root in roots {
        let members: Vec<usize> = (0..k)
            .filter(|&i| cluster[i] == root && self_valid(healthy[i].1))
            .collect();
        if members.is_empty() {
            continue;
        }
        let better = best_cluster.as_ref().map(|(_, m)| members.len() > m.len()).unwrap_or(true);
        if better {
            best_cluster = Some((root, members));
        }
    }
    let Some((_, members)) = best_cluster else {
        return Verdict::Diverged {
            majority: None,
            dissenting: (0..n).collect(),
            detail: "no self-consistent output".into(),
        };
    };
    let agreeing: Vec<usize> = members.iter().map(|&i| healthy[i].0).collect();
    let selected = healthy[members[0]].1.clone();
    let consensus = match policy {
        VotingPolicy::Unanimous => agreeing.len() == n,
        VotingPolicy::Majority => agreeing.len() * 2 > n,
    };
    if consensus && crashed.is_empty() && agreeing.len() == healthy.len() {
        Verdict::Agree { selected, agreeing }
    } else if consensus {
        let dissenting: Vec<usize> = (0..n).filter(|i| !agreeing.contains(i)).collect();
        match policy {
            VotingPolicy::Majority => Verdict::Diverged {
                majority: Some(selected),
                dissenting: dissenting.clone(),
                detail: format!("majority of {} with {} dissenting", agreeing.len(), dissenting.len()),
            },
            VotingPolicy::Unanimous => Verdict::Diverged {
                majority: Some(selected),
                dissenting: dissenting.clone(),
                detail: format!("unanimity broken by {} variants", dissenting.len()),
            },
        }
    } else {
        let dissenting: Vec<usize> = (0..n).filter(|i| !agreeing.contains(i)).collect();
        Verdict::Diverged {
            majority: if agreeing.len() * 2 > n { Some(selected) } else { None },
            dissenting,
            detail: format!("largest consistent cluster has {} of {} variants", agreeing.len(), n),
        }
    }
}

/// Every metric the panels use, plus thresholds at the edges: zero with
/// either sign, negative, infinite and NaN.
fn metrics() -> Vec<Metric> {
    vec![
        Metric::exact(),
        Metric::strict(),
        Metric::relaxed(),
        Metric::Cosine { min_similarity: 0.999 },
        Metric::Cosine { min_similarity: 0.0 },
        Metric::Mse { max_mse: 1e-6 },
        Metric::Mse { max_mse: f32::INFINITY },
        Metric::MaxAbsDiff { max_diff: -0.0 },
        Metric::MaxAbsDiff { max_diff: 1e-3 },
        Metric::MaxAbsDiff { max_diff: -1.0 },
        Metric::MaxAbsDiff { max_diff: f32::INFINITY },
        Metric::MaxAbsDiff { max_diff: f32::NAN },
        Metric::AllClose { rtol: 0.0, atol: 0.0 },
        Metric::AllClose { rtol: 1e-3, atol: -1e-4 },
    ]
}

/// Elements that stress a fused pass: signed zeros, infinities (so that
/// `inf - inf` arises), quiet and signalling NaN payloads, subnormals.
const EDGES: [u32; 12] = [
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_0000,
    0xffc1_2345,
    0x7f80_0001,
    0x0000_0001,
    0x807f_ffff,
    0x3f80_0000,
    0x3f80_0001,
    0x7f7f_ffff,
];

/// Lengths below, at and around the check's 64-element block.
const LENGTHS: [usize; 8] = [0, 1, 5, 63, 64, 65, 130, 200];

fn edge(rng: &mut StdRng) -> f32 {
    f32::from_bits(EDGES[rng.gen_range(0..EDGES.len())])
}

/// A base output of one or two tensors, mostly ordinary values with edge
/// values sprinkled in at `edge_share`.
fn base_output(rng: &mut StdRng, edge_share: f64) -> Vec<Tensor> {
    let count = rng.gen_range(1..=2usize);
    (0..count)
        .map(|_| {
            let len = LENGTHS[rng.gen_range(0..LENGTHS.len())];
            let data = (0..len)
                .map(|_| if rng.gen_bool(edge_share) { edge(rng) } else { rng.gen_range(-2.0f32..2.0) })
                .collect();
            Tensor::from_vec(data, &[len]).unwrap()
        })
        .collect()
}

/// How one variant's output relates to the panel's base output.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// The base, bit for bit.
    Same,
    /// The base with one or a few elements nudged by an ulp or swapped for
    /// an edge value (a sign-flipped zero, a NaN, an infinity).
    Nudged,
    /// The second base: a cluster of its own.
    Other,
    /// A NaN added to the base.
    Nan,
    /// The base's data under a different shape with as many elements.
    Reshaped,
    /// The base with one tensor more or less.
    Arity,
    /// A crashed variant.
    Crashed,
}

const KINDS: [Kind; 7] =
    [Kind::Same, Kind::Nudged, Kind::Other, Kind::Nan, Kind::Reshaped, Kind::Arity, Kind::Crashed];

fn output_of(kind: Kind, base: &[Tensor], other: &[Tensor], rng: &mut StdRng) -> VariantOutput {
    let mut tensors = base.to_vec();
    match kind {
        Kind::Same => {}
        Kind::Nudged | Kind::Nan => {
            for t in tensors.iter_mut().filter(|t| !t.is_empty()) {
                let mut data = t.data().to_vec();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let at = rng.gen_range(0..data.len());
                    data[at] = match kind {
                        Kind::Nan => f32::from_bits(0x7fc0_0000 | rng.gen_range(0..0x40_0000u32)),
                        _ if rng.gen_bool(0.5) => f32::from_bits(data[at].to_bits() ^ 1),
                        _ => edge(rng),
                    };
                }
                *t = Tensor::from_vec(data, t.dims()).unwrap();
            }
        }
        Kind::Other => tensors = other.to_vec(),
        Kind::Reshaped => {
            let t = &tensors[0];
            tensors[0] = Tensor::from_vec(t.data().to_vec(), &[1, t.len()]).unwrap();
        }
        Kind::Arity if tensors.len() > 1 => {
            tensors.pop();
        }
        Kind::Arity => tensors.push(tensors[0].clone()),
        Kind::Crashed => return VariantOutput::Crashed("sigsegv".into()),
    }
    VariantOutput::Ok(tensors)
}

fn bits(tensors: &[Tensor]) -> Vec<(Vec<usize>, Vec<u32>)> {
    tensors.iter().map(|t| (t.dims().to_vec(), t.data().iter().map(|v| v.to_bits()).collect())).collect()
}

/// A verdict with its tensors as bits, comparable whatever NaNs it holds.
fn fingerprint(v: &Verdict) -> String {
    match v {
        Verdict::Agree { selected, agreeing } => format!("Agree {:?} {agreeing:?}", bits(selected)),
        Verdict::Diverged { majority, dissenting, detail } => {
            format!("Diverged {:?} {dissenting:?} {detail}", majority.as_deref().map(bits))
        }
    }
}

fn assert_same_verdicts(outputs: &[VariantOutput]) {
    for metric in metrics() {
        for policy in [VotingPolicy::Unanimous, VotingPolicy::Majority] {
            let got = fingerprint(&evaluate(outputs, metric, policy));
            let want = fingerprint(&oracle_evaluate(outputs, metric, policy));
            assert_eq!(got, want, "{metric:?} {policy:?} on {outputs:?}");
        }
        for (a, b) in outputs.iter().zip(outputs.iter().rev()) {
            if let (VariantOutput::Ok(a), VariantOutput::Ok(b)) = (a, b) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(metric.check(x, y), oracle_check(metric, x, y), "{metric:?}");
                }
            }
        }
    }
}

/// Every assignment of kinds to the variants of a panel of one to four,
/// and every assignment of {same, nudged, other, NaN, crashed} to a panel
/// of five: every dissent pattern, under every metric and both policies.
#[test]
fn every_dissent_pattern_gives_the_oracle_verdict() {
    let mut rng = StdRng::seed_from_u64(36);
    for k in 1..=5usize {
        let kinds: &[Kind] = if k < 5 { &KINDS } else { &KINDS[..4] };
        let patterns = kinds.len().pow(k as u32);
        for pattern in 0..patterns {
            let base = base_output(&mut rng, 0.05);
            let other = base_output(&mut rng, 0.05);
            let mut code = pattern;
            let outputs: Vec<VariantOutput> = (0..k)
                .map(|_| {
                    let kind = kinds[code % kinds.len()];
                    code /= kinds.len();
                    output_of(kind, &base, &other, &mut rng)
                })
                .collect();
            assert_same_verdicts(&outputs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Drawn panels: any mix of kinds, with edge values dense enough that
    /// infinities meet infinities and NaN payloads turn up unasked.
    #[test]
    fn drawn_panels_give_the_oracle_verdict(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edge_share = [0.0, 0.1, 0.5][rng.gen_range(0..3usize)];
        let base = base_output(&mut rng, edge_share);
        let other = base_output(&mut rng, edge_share);
        let k = rng.gen_range(1..=5usize);
        let outputs: Vec<VariantOutput> = (0..k)
            .map(|_| {
                let kind = KINDS[rng.gen_range(0..KINDS.len())];
                output_of(kind, &base, &other, &mut rng)
            })
            .collect();
        assert_same_verdicts(&outputs);
    }
}
