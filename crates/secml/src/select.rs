//! Feature selection.
//!
//! §5.2: the main challenge is "to refine the trained model, including
//! filtering features that are irrelevant to the prediction". Two standard
//! filters: Pearson-correlation ranking against the target, and information
//! gain of a median split against a binary label.

/// Target-side moments for [`pearson_column`]: `(mean, Σ(y-mean)²)`.
/// Shared across every column so the out-of-core path computes them once.
pub fn pearson_target_stats(target: &[f64]) -> (f64, f64) {
    let n = target.len() as f64;
    let my = target.iter().sum::<f64>() / n;
    let syy: f64 = target.iter().map(|v| (v - my) * (v - my)).sum();
    (my, syy)
}

/// Pearson correlation of one column (in row order) with the target,
/// given the target moments from [`pearson_target_stats`].
pub fn pearson_column(col: &[f64], target: &[f64], my: f64, syy: f64) -> f64 {
    let n = col.len() as f64;
    let mx = col.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in col.iter().zip(target) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
    }
    if sxx < 1e-12 || syy < 1e-12 {
        0.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    }
}

/// Entropy of a binary label vector — the parent entropy passed to
/// [`info_gain_column`].
pub fn label_entropy(labels: &[usize]) -> f64 {
    entropy(labels.iter().copied())
}

/// Information gain of the *best* binary split of one column (in row
/// order) against a binary label — the Weka `InfoGainAttributeEval`
/// role — given the precomputed parent entropy. The candidate thresholds
/// are the midpoints between consecutive distinct sorted values, and the
/// maximum gain is reported.
pub fn info_gain_column(col: &[f64], labels: &[usize], parent: f64) -> f64 {
    let n = col.len() as f64;
    // Sort (value, label) pairs by value; sweep split points,
    // maintaining left-side counts incrementally.
    let mut pairs: Vec<(f64, usize)> = col.iter().zip(labels).map(|(&v, &l)| (v, l)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total_ones = labels.iter().filter(|&&l| l == 1).count();
    let mut left_n = 0usize;
    let mut left_ones = 0usize;
    let mut best = 0.0f64;
    for w in 0..pairs.len().saturating_sub(1) {
        left_n += 1;
        left_ones += (pairs[w].1 == 1) as usize;
        if pairs[w].0 == pairs[w + 1].0 {
            continue; // not a valid split point
        }
        let right_n = pairs.len() - left_n;
        let right_ones = total_ones - left_ones;
        let h = |ones: usize, count: usize| {
            if count == 0 {
                return 0.0;
            }
            let p1 = ones as f64 / count as f64;
            let p0 = 1.0 - p1;
            let mut e = 0.0;
            for p in [p0, p1] {
                if p > 0.0 {
                    e -= p * p.log2();
                }
            }
            e
        };
        let weighted = (left_n as f64 / n) * h(left_ones, left_n)
            + (right_n as f64 / n) * h(right_ones, right_n);
        best = best.max(parent - weighted);
    }
    best
}

fn entropy(labels: impl Iterator<Item = usize>) -> f64 {
    let mut n = 0usize;
    let mut ones = 0usize;
    for l in labels {
        n += 1;
        ones += (l == 1) as usize;
    }
    if n == 0 {
        return 0.0;
    }
    let p1 = ones as f64 / n as f64;
    let p0 = 1.0 - p1;
    let mut h = 0.0;
    for p in [p0, p1] {
        if p > 0.0 {
            h -= p * p.log2();
        }
    }
    h
}

/// Indices of the top-`k` columns by absolute score, descending.
pub fn top_k(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].abs().total_cmp(&scores[a].abs()).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pearson(col: &[f64], target: &[f64]) -> f64 {
        let (my, syy) = pearson_target_stats(target);
        pearson_column(col, target, my, syy)
    }

    fn info_gain(col: &[f64], labels: &[usize]) -> f64 {
        info_gain_column(col, labels, label_entropy(labels))
    }

    #[test]
    fn pearson_identifies_informative_column() {
        // One column tracks the target; the other alternates as noise.
        let signal: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let noise: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let target: Vec<f64> = (0..20).map(|i| 2.0 * i as f64).collect();
        assert!(pearson(&signal, &target) > 0.999);
        assert!(pearson(&noise, &target).abs() < 0.2);
    }

    #[test]
    fn pearson_negative_correlation() {
        let col: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let target: Vec<f64> = (0..10).map(|i| -(i as f64)).collect();
        assert!(pearson(&col, &target) < -0.999);
    }

    #[test]
    fn pearson_constant_column_is_zero() {
        let target: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(pearson(&[5.0; 10], &target), 0.0);
    }

    #[test]
    fn info_gain_perfect_split_is_one_bit() {
        let col: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let labels: Vec<usize> = (0..20).map(|i| (i >= 10) as usize).collect();
        let gain = info_gain(&col, &labels);
        assert!((gain - 1.0).abs() < 1e-9, "gain = {gain}");
    }

    #[test]
    fn info_gain_uninformative_is_near_zero() {
        let col: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
        let labels: Vec<usize> = (0..20).map(|i| ((i / 2) % 2 == 0) as usize).collect();
        let gain = info_gain(&col, &labels);
        assert!(gain < 0.05, "gain = {gain}");
    }

    #[test]
    fn top_k_orders_by_abs_and_truncates() {
        let idx = top_k(&[0.1, -0.9, 0.5, 0.2], 2);
        assert_eq!(idx, vec![1, 2]);
        // k larger than length returns all.
        assert_eq!(top_k(&[0.3, 0.1], 5).len(), 2);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy([0, 0, 0, 0].into_iter()), 0.0);
        assert!((entropy([0, 1, 0, 1].into_iter()) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(std::iter::empty()), 0.0);
    }
}
