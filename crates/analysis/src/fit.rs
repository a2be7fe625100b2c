//! Small numerical utilities: linear least squares (for the Figure 11
//! latency fit and the Figure 13 energy-model fit) and fairness statistics.

/// Solves the linear least-squares problem `min ‖Xβ − y‖₂` by the normal
/// equations with Gaussian elimination (adequate for the handful of
/// parameters the experiments fit).
///
/// `xs` holds one row of regressors per observation.
///
/// # Panics
///
/// Panics if the inputs are empty, ragged, or the normal matrix is singular
/// (collinear regressors).
pub fn least_squares(xs: &[Vec<f64>], ys: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no observations");
    assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
    let p = xs[0].len();
    assert!(p > 0, "no regressors");
    for row in xs {
        assert_eq!(row.len(), p, "ragged design matrix");
    }
    // Normal equations: (XᵀX) β = Xᵀy.
    let mut a = vec![vec![0.0f64; p + 1]; p];
    for (row, &y) in xs.iter().zip(ys) {
        for i in 0..p {
            for j in 0..p {
                a[i][j] += row[i] * row[j];
            }
            a[i][p] += row[i] * y;
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..p {
        let pivot = (col..p)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("nonempty");
        a.swap(col, pivot);
        assert!(
            a[col][col].abs() > 1e-12,
            "singular normal matrix (collinear regressors)"
        );
        for row in 0..p {
            if row == col {
                continue;
            }
            let f = a[row][col] / a[col][col];
            // `j` indexes two rows of `a` at once; an iterator can't.
            #[allow(clippy::needless_range_loop)]
            for j in col..=p {
                a[row][j] -= f * a[col][j];
            }
        }
    }
    (0..p).map(|i| a[i][p] / a[i][i]).collect()
}

/// Fits `y ≈ a + b·x` and returns `(a, b)`.
///
/// # Panics
///
/// Panics if fewer than two observations are given or all `x` are equal.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert!(x.len() >= 2, "need at least two points");
    let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![1.0, v]).collect();
    let beta = least_squares(&rows, y);
    (beta[0], beta[1])
}

/// Jain's fairness index of a set of allocations: 1.0 when perfectly fair,
/// approaching `1/n` under total starvation of all but one party.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fairness of an empty set is undefined");
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Mean of a slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty set");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recovers_exact_line() {
        let x = [0.0, 1.0, 2.0, 3.0, 6.0];
        let y: Vec<f64> = x.iter().map(|v| 80.7 + 39.1 * v).collect();
        let (a, b) = linear_fit(&x, &y);
        assert!((a - 80.7).abs() < 1e-9);
        assert!((b - 39.1).abs() < 1e-9);
    }

    #[test]
    fn recovers_multivariate_coefficients() {
        // y = 42.7 + 0.837*h + 34.4*q + 0.250*n*q (the Fig 13 model form).
        let truth = [42.7, 0.837, 34.4, 0.250];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for h in [0.0, 32.0, 96.0, 192.0] {
            for q in [0.25, 0.5, 1.0] {
                for n in [0.0, 64.0, 128.0] {
                    xs.push(vec![1.0, h, q, n * q]);
                    ys.push(truth[0] + truth[1] * h + truth[2] * q + truth[3] * n * q);
                }
            }
        }
        let beta = least_squares(&xs, &ys);
        for (b, t) in beta.iter().zip(truth) {
            assert!((b - t).abs() < 1e-9, "{beta:?}");
        }
    }

    #[test]
    fn fairness_extremes() {
        assert!((jain_fairness(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let starved = jain_fairness(&[100.0, 0.0, 0.0, 0.0]);
        assert!((starved - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn collinear_regressors_detected() {
        let xs = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        least_squares(&xs, &[1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn noiseless_fit_is_exact(a in -100.0f64..100.0, b in -10.0f64..10.0) {
            let x: Vec<f64> = (0..10).map(f64::from).collect();
            let y: Vec<f64> = x.iter().map(|v| a + b * v).collect();
            let (fa, fb) = linear_fit(&x, &y);
            prop_assert!((fa - a).abs() < 1e-6);
            prop_assert!((fb - b).abs() < 1e-6);
        }

        #[test]
        fn fairness_in_unit_interval(xs in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            let j = jain_fairness(&xs);
            prop_assert!(j >= 1.0 / xs.len() as f64 - 1e-9);
            prop_assert!(j <= 1.0 + 1e-9);
        }
    }
}
