//! Regression quality metrics. The paper reports RMSE per path (Fig 6);
//! MAE and R² are provided for the extended evaluation.

/// The metrics' one precondition: paired, non-empty slices.
fn check_pair(y_true: &[f64], y_pred: &[f64]) {
    // detlint: allow(bare-panic) — metrics score evaluations (Fig 6,
    // model selection), never a consult; every caller pairs one
    // window's targets with its predictions, so a mismatch is a caller
    // bug, documented under `# Panics`.
    assert!(
        y_true.len() == y_pred.len() && !y_true.is_empty(),
        "length mismatch or empty input"
    );
}

/// Root mean squared error.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn rmse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    check_pair(y_true, y_pred);
    let mse = y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / y_true.len() as f64;
    mse.sqrt()
}

/// Mean absolute error.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    check_pair(y_true, y_pred);
    y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / y_true.len() as f64
}

/// Coefficient of determination R². A constant-true-value input yields
/// 0.0 for perfect predictions and -inf otherwise, following scikit-learn's
/// convention of guarding the zero-variance case.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn r2(y_true: &[f64], y_pred: &[f64]) -> f64 {
    check_pair(y_true, y_pred);
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum();
    let ss_tot: f64 = y_true.iter().map(|t| (t - mean) * (t - mean)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 {
            0.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&y, &y), 0.0);
        assert_eq!(mae(&y, &y), 0.0);
        assert_eq!(r2(&y, &y), 1.0);
    }

    #[test]
    fn known_errors() {
        let t = [0.0, 0.0, 0.0, 0.0];
        let p = [1.0, -1.0, 1.0, -1.0];
        assert_eq!(rmse(&t, &p), 1.0);
        assert_eq!(mae(&t, &p), 1.0);
    }

    #[test]
    fn rmse_penalizes_large_errors_more_than_mae() {
        let t = [0.0, 0.0];
        let p = [0.0, 2.0];
        assert!(rmse(&t, &p) > mae(&t, &p));
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2(&t, &p).abs() < 1e-12);
    }

    #[test]
    fn r2_constant_target_convention() {
        let t = [5.0, 5.0];
        assert_eq!(r2(&t, &[5.0, 5.0]), 0.0);
        assert_eq!(r2(&t, &[5.0, 6.0]), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
