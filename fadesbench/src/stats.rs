//! Order statistics shared by `run` and `compare`.

/// Sorted copy of `v` (NaN-free input assumed: every sample is a
/// measured duration, count or ratio).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// computes them (the default "exclusive" method), so spreads printed
/// here match what an outside script gets from the same values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let d = sorted(v);
    let ld = d.len();
    match ld {
        0 => None,
        1 => Some([d[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut q = [0.0; 3];
            for (i, out) in (1..4).zip(q.iter_mut()) {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *out = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
            }
            Some(q)
        }
    }
}

/// The `p`-th percentile (0–100) with linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let d = sorted(v);
    if d.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (d.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    d[lo] + (d[hi] - d[lo]) * (rank - lo as f64)
}

/// The median (0 for an empty sample).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The fastest of repeated timings of identical work (0 for an empty
/// sample).
///
/// On the reference machine the campaign code runs at full speed or up
/// to 2× slower while another tenant shares the physical core (a
/// dependent-multiply loop timed beside it keeps its speed), switching
/// many times a second in a mix that drifts over minutes. A slow repeat
/// measures the neighbour, not the code. The fastest repeat is at full
/// speed whenever one repeat was; every quantile above it moves with the
/// share of slow time.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
    }
}
