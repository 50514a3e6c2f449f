//! Order statistics the benchmark reports: medians, the tail percentile
//! a sample can support, and the quartile spread the acceptance rule
//! is stated in.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample (a layer that did not run).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The smallest value; 0 for an empty sample. On a shared host
/// interference only adds time: the fastest of several goes is the one
/// least disturbed.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [u32; 5] = [50, 75, 80, 90, 95];

/// The highest percentile of [`TAIL_LADDER`], capped at `cap`, that
/// still has at least ten of `n` samples beyond it. Below twenty
/// samples not even the median has them: `None`.
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= cap && (n as f64) * (1.0 - f64::from(p) / 100.0) >= 10.0 - 1e-9)
}

/// Value at percentile `p` (nearest rank).
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((f64::from(p) / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of a timing sample: `(percentile used, value)`. With fewer
/// than twenty samples the percentile is 50 and the value the median.
pub fn tail(values: &[f64], cap: u32) -> (u32, f64) {
    match tail_percentile(values.len(), cap) {
        Some(p) => (p, percentile(values, p)),
        None => (50, median(values)),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method). Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread of one metric. 0 when it cannot be
/// taken (fewer than two values, or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19, 95), None);
        assert_eq!(tail_percentile(20, 95), Some(50));
        assert_eq!(tail_percentile(40, 95), Some(75));
        assert_eq!(tail_percentile(50, 95), Some(80));
        assert_eq!(tail_percentile(99, 95), Some(80));
        assert_eq!(tail_percentile(100, 95), Some(90));
        assert_eq!(tail_percentile(200, 95), Some(95));
        assert_eq!(tail_percentile(200, 90), Some(90));
        // 100 samples 1..=100: p90 is the 90th value, ten lie beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 90), (90, 90.0));
        assert_eq!(tail(&v[..10], 90), (50, 5.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), 0.0);
    }
}
