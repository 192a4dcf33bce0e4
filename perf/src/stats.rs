//! Order statistics over repeated measurements.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from the same values in Python. One value is its own
/// quartiles; two or three values extrapolate exactly as Python does.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let m = (ld + 1) as i64;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = i * m - j * 4;
                let j = j as usize;
                (s[j - 1] * (4 - delta) as f64 + s[j] * delta as f64) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// The distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest percentile that still has at least `beyond` samples above
/// it, as `(percentile, value)` by nearest rank: with `n` samples the
/// value at ascending position `n - beyond` is the `(n - beyond) / n`
/// percentile. `None` with `beyond` samples or fewer.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= beyond {
        return None;
    }
    let rank = n - beyond;
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

/// The 90th percentile (nearest rank), reported only when the sample count
/// resolves it: the highest percentile with ten samples beyond it must be
/// at least the 90th.
pub fn p90(xs: &[f64]) -> Option<f64> {
    let (pct, _) = tail(xs, 10)?;
    if pct < 90.0 {
        return None;
    }
    let s = sorted(xs);
    let rank = (0.9 * s.len() as f64).ceil() as usize;
    Some(s[rank.max(1) - 1])
}

/// Geometric mean of positive ratios; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}
