//! Order statistics and self-time arithmetic used by the benchmark.

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `xs` by the "exclusive" method —
/// the default of Python's `statistics.quantiles(data, n=4)` — so the
/// benchmark's own spread figures match the ones a reader recomputes
/// in Python. Fewer than two values give that value (or 0) three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative (or > 4) after clamping: Python extrapolates there too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Index of the lower-median element of `xs` in its original order, so
/// a caller can report one whole sample (all of whose parts add up)
/// instead of per-field medians that belong to different samples.
pub fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx.get(xs.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0)
}

/// Self time of a layer: the summed length of its `parents` intervals
/// minus the part of them that the union of `children` intervals
/// covers. Children may overlap each other and may fall partly or
/// wholly outside every parent; only the covered part is subtracted,
/// so no instant is counted twice.
pub fn self_time(parents: &[(f64, f64)], children: &[(f64, f64)]) -> f64 {
    let union = union(children);
    parents
        .iter()
        .map(|&(ps, pe)| {
            let first = union.partition_point(|&(_, ce)| ce <= ps);
            let covered: f64 = union[first..]
                .iter()
                .take_while(|&&(cs, _)| cs < pe)
                .map(|&(cs, ce)| ce.min(pe) - cs.max(ps))
                .sum();
            (pe - ps) - covered
        })
        .sum()
}

/// Sorted, disjoint union of intervals.
fn union(intervals: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_index_points_at_the_lower_median_sample() {
        let xs = [9.0, 1.0, 5.0, 3.0];
        assert_eq!(xs[median_index(&xs)], 3.0);
        assert_eq!(median_index(&[2.0]), 0);
        assert_eq!(median_index(&[]), 0);
    }

    #[test]
    fn self_time_subtracts_only_the_covered_child_interval() {
        // Parent [0, 10]; children [1, 3] and [2, 4] overlap (union
        // [1, 4], 3 s) and [9, 12] sticks out of the parent (1 s inside).
        let children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0), (20.0, 21.0)];
        assert_eq!(self_time(&[(0.0, 10.0)], &children), 6.0);
        // Two parents share nothing: [20, 21] is wholly covered.
        assert_eq!(self_time(&[(0.0, 10.0), (20.0, 21.0)], &children), 6.0);
        // No children: self time is the parent's length.
        assert_eq!(self_time(&[(1.0, 2.5)], &[]), 1.5);
        // A child covering the whole parent leaves nothing.
        assert_eq!(self_time(&[(1.0, 2.0)], &[(0.0, 3.0)]), 0.0);
    }
}
