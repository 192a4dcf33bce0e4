//! Order statistics: the numbers `perf` reports and compares.

use perf::stats::{geomean, median, p90, quartiles, spread, tail};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

/// Expected values are Python's `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method), which the driver of the benchmark uses.
#[test]
fn quartiles_match_python_exclusive_method() {
    let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
    assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
    let (q1, q3) = quartiles(&[7.0, 1.0, 3.0, 5.0, 9.0]).unwrap();
    assert!(close(q1, 2.0) && close(q3, 8.0), "{q1} {q3}");
    // Two values extrapolate beyond the data, as Python does.
    let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
    assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
    assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
    assert_eq!(quartiles(&[]), None);
    let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
    assert!(close(s, 5.5 / 5.5));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&xs, 10), Some((90.0, 90.0)));
    let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
    assert_eq!(tail(&xs, 10), Some((75.0, 30.0)));
    // Ten samples leave nothing with ten beyond it.
    assert_eq!(tail(&xs[..10], 10), None);
    assert_eq!(tail(&xs[..11], 10).map(|(p, _)| p), Some(100.0 / 11.0));
}

#[test]
fn p90_needs_a_hundred_samples() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(p90(&xs), Some(90.0));
    let xs: Vec<f64> = (1..=150).map(f64::from).collect();
    assert_eq!(p90(&xs), Some(135.0));
    let xs: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(p90(&xs), None);
}

#[test]
fn geomean_of_ratios() {
    assert!(close(geomean(&[0.5, 2.0]).unwrap(), 1.0));
    assert!(close(geomean(&[2.0, 8.0]).unwrap(), 4.0));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, -2.0]), None);
}
