//! Cross-process checkpoint voting (§4.3).
//!
//! At a slow-path checkpoint the monitor evaluates the variant outputs
//! pairwise under the partition's consistency metric and applies the
//! voting policy. "Different voting mechanisms imply varying levels of
//! agreement"; MVTEE defaults to unanimous consent.

use crate::config::VotingPolicy;
use mvtee_tensor::metrics::Metric;
use mvtee_tensor::Tensor;

/// One variant's contribution to a checkpoint.
#[derive(Debug, Clone)]
pub enum VariantOutput {
    /// The variant produced output tensors.
    Ok(Vec<Tensor>),
    /// The variant crashed (or its channel died).
    Crashed(String),
}

impl VariantOutput {
    /// Whether this output is healthy and consistent with `chosen` under
    /// `metric`, tensor by tensor.
    pub fn agrees_with(&self, chosen: &[Tensor], metric: Metric) -> bool {
        match self {
            VariantOutput::Crashed(_) => false,
            VariantOutput::Ok(t) => {
                t.len() == chosen.len() && t.iter().zip(chosen).all(|(a, b)| metric.check(a, b))
            }
        }
    }
}

/// The verdict for one checkpoint evaluation.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Consensus reached; the selected (replicable) output.
    Agree {
        /// The output the monitor replicates to the next stage.
        selected: Vec<Tensor>,
        /// Indices of variants that agreed.
        agreeing: Vec<usize>,
    },
    /// Divergence detected.
    Diverged {
        /// The largest consistent cluster's output, if any (used by the
        /// continue-with-majority response).
        majority: Option<Vec<Tensor>>,
        /// Variant indices outside the majority cluster (dissenters and
        /// crashed variants).
        dissenting: Vec<usize>,
        /// Human-readable detail.
        detail: String,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Agree`].
    pub fn is_agreement(&self) -> bool {
        matches!(self, Verdict::Agree { .. })
    }
}

/// Groups outputs into consistency clusters under `metric` (transitive
/// closure of pairwise consistency — fine for the tight thresholds MVTEE
/// uses) and applies `policy`.
///
/// Crashed variants never join a cluster. With a single healthy output the
/// verdict is agreement iff it is the only variant and it did not crash
/// (the degenerate slow-path-with-one-variant case still checks for NaNs
/// via the metric's self-check).
pub fn evaluate(outputs: &[VariantOutput], metric: Metric, policy: VotingPolicy) -> Verdict {
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

    // Self-validity, once per output: each must pass the metric against
    // itself (rejects NaN outputs even without a peer).
    let valid: Vec<bool> =
        healthy.iter().map(|(_, t)| t.iter().all(|x| metric.check(x, x))).collect();

    // Union-find style clustering on pairwise consistency. A pair already
    // in one cluster is not compared: the union is decided, so a unanimous
    // panel costs k − 1 compares.
    let k = healthy.len();
    let mut cluster: Vec<usize> = (0..k).collect();
    for i in 0..k {
        for j in (i + 1)..k {
            let (ci, cj) = (cluster[i], cluster[j]);
            if ci == cj {
                continue;
            }
            let consistent = healthy[i].1.len() == healthy[j].1.len()
                && healthy[i]
                    .1
                    .iter()
                    .zip(healthy[j].1.iter())
                    .all(|(a, b)| metric.check(a, b));
            if consistent {
                for c in cluster.iter_mut() {
                    if *c == cj {
                        *c = ci;
                    }
                }
            }
        }
    }
    // Invalid singletons (NaN) drop out of their own cluster.
    let mut best_cluster: Option<(usize, Vec<usize>)> = None; // (root, members)
    let mut roots: Vec<usize> = cluster.clone();
    roots.sort_unstable();
    roots.dedup();
    for root in roots {
        let members: Vec<usize> = (0..k).filter(|&i| cluster[i] == root && valid[i]).collect();
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
        // Majority policy with minority dissent / crashes.
        let dissenting: Vec<usize> =
            (0..n).filter(|i| !agreeing.contains(i)).collect();
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
            detail: format!(
                "largest consistent cluster has {} of {} variants",
                agreeing.len(),
                n
            ),
        }
    }
}

/// Quorum check used by asynchronous cross-validation: do the `arrived`
/// outputs already contain a cluster that is a strict majority of the
/// *full* panel of `total` variants? Returns the cluster's output if so.
pub fn has_quorum(arrived: &[VariantOutput], total: usize, metric: Metric) -> Option<Vec<Tensor>> {
    match evaluate(arrived, metric, VotingPolicy::Majority) {
        Verdict::Agree { selected, agreeing } => {
            (agreeing.len() * 2 > total).then_some(selected)
        }
        Verdict::Diverged { majority: Some(selected), dissenting, .. } => {
            let cluster = arrived.len() - dissenting.len();
            (cluster * 2 > total).then_some(selected)
        }
        Verdict::Diverged { .. } => None,
    }
}

#[cfg(test)]
mod quorum_tests {
    use super::*;

    fn ok(v: &[f32]) -> VariantOutput {
        VariantOutput::Ok(vec![Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()])
    }

    #[test]
    fn quorum_reached_with_two_of_three() {
        let arrived = [ok(&[1.0]), ok(&[1.0])];
        assert!(has_quorum(&arrived, 3, Metric::strict()).is_some());
    }

    #[test]
    fn no_quorum_with_one_of_three() {
        let arrived = [ok(&[1.0])];
        assert!(has_quorum(&arrived, 3, Metric::strict()).is_none());
    }

    #[test]
    fn no_quorum_on_split() {
        let arrived = [ok(&[1.0]), ok(&[9.0])];
        assert!(has_quorum(&arrived, 3, Metric::strict()).is_none());
    }

    #[test]
    fn quorum_despite_one_dissenter_in_five() {
        let arrived = [ok(&[1.0]), ok(&[1.0]), ok(&[1.0]), ok(&[7.0])];
        let q = has_quorum(&arrived, 5, Metric::strict());
        assert!(q.is_some());
        assert_eq!(q.unwrap()[0].data(), &[1.0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Vec<Tensor> {
        vec![Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()]
    }

    fn ok(v: &[f32]) -> VariantOutput {
        VariantOutput::Ok(t(v))
    }

    #[test]
    fn unanimous_agreement() {
        let outs = [ok(&[1.0, 2.0]), ok(&[1.0, 2.0]), ok(&[1.0, 2.0])];
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Unanimous);
        match v {
            Verdict::Agree { agreeing, .. } => assert_eq!(agreeing, vec![0, 1, 2]),
            other => panic!("expected agreement, got {other:?}"),
        }
    }

    #[test]
    fn single_dissenter_detected() {
        let outs = [ok(&[1.0, 2.0]), ok(&[1.0, 2.0]), ok(&[9.0, 9.0])];
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Unanimous);
        match v {
            Verdict::Diverged { majority, dissenting, .. } => {
                assert_eq!(dissenting, vec![2]);
                assert!(majority.is_some());
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn majority_policy_tolerates_minority() {
        let outs = [ok(&[1.0]), ok(&[1.0]), ok(&[5.0])];
        // Majority policy still reports the dissent (as Diverged with a
        // majority output) so the monitor can respond.
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Majority);
        match v {
            Verdict::Diverged { majority: Some(sel), dissenting, .. } => {
                assert_eq!(sel[0].data(), &[1.0]);
                assert_eq!(dissenting, vec![2]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn crash_breaks_unanimity() {
        let outs = [ok(&[1.0]), VariantOutput::Crashed("sigsegv".into()), ok(&[1.0])];
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Unanimous);
        match v {
            Verdict::Diverged { majority: Some(_), dissenting, .. } => {
                assert_eq!(dissenting, vec![1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_crashed() {
        let outs = [
            VariantOutput::Crashed("a".into()),
            VariantOutput::Crashed("b".into()),
        ];
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Majority);
        match v {
            Verdict::Diverged { majority, dissenting, .. } => {
                assert!(majority.is_none());
                assert_eq!(dissenting, vec![0, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nan_output_is_not_self_valid() {
        let outs = [ok(&[f32::NAN])];
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Unanimous);
        assert!(!v.is_agreement());
    }

    #[test]
    fn single_healthy_variant_agrees() {
        let outs = [ok(&[3.0, 4.0])];
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Unanimous);
        assert!(v.is_agreement());
    }

    #[test]
    fn relaxed_metric_tolerates_benign_noise() {
        let outs = [ok(&[1.0, 2.0]), ok(&[1.00001, 2.00002])];
        let strict = evaluate(&outs, Metric::strict(), VotingPolicy::Unanimous);
        let relaxed = evaluate(&outs, Metric::relaxed(), VotingPolicy::Unanimous);
        assert!(!strict.is_agreement() || strict.is_agreement()); // metric-dependent
        assert!(relaxed.is_agreement());
    }

    #[test]
    fn two_way_split_has_no_majority() {
        let outs = [ok(&[1.0]), ok(&[5.0])];
        let v = evaluate(&outs, Metric::strict(), VotingPolicy::Majority);
        match v {
            Verdict::Diverged { majority, .. } => assert!(majority.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_divergence() {
        let a = VariantOutput::Ok(vec![Tensor::ones(&[2])]);
        let b = VariantOutput::Ok(vec![Tensor::ones(&[3])]);
        let v = evaluate(&[a, b], Metric::relaxed(), VotingPolicy::Unanimous);
        assert!(!v.is_agreement());
    }

    #[test]
    fn arity_mismatch_is_divergence() {
        let a = VariantOutput::Ok(vec![Tensor::ones(&[2]), Tensor::ones(&[2])]);
        let b = VariantOutput::Ok(vec![Tensor::ones(&[2])]);
        let v = evaluate(&[a, b], Metric::relaxed(), VotingPolicy::Unanimous);
        assert!(!v.is_agreement());
    }
}
