//! What-if tuning of the sampling parameter `s` (paper §5.2, Algorithm 1).
//!
//! The tuner replays the observed demand history: for every candidate
//! window `s`, it slides over the history, estimates the derivative from
//! the last `s` points, predicts the next demand change, and scores the
//! candidate by mean absolute prediction error. Bursty workloads (AIS,
//! with its seasonal shipping patterns) favour small `s`; steady ones
//! (MODIS) favour larger windows that smooth noise.

/// Result of running Algorithm 1 over a demand history.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleTuningReport {
    /// Mean absolute prediction error (GB) for each s = 1..=ψ.
    /// `errors[k]` is the error of window `s = k + 1`; `NaN` when the
    /// history is too short to evaluate that window.
    pub errors: Vec<f64>,
    /// The winning window (1-based), i.e. the argmin of `errors`.
    pub best: usize,
}

/// Mean absolute error of one window `s` predicting demand deltas over
/// `history` (the inner loop of Algorithm 1). Returns `None` when the
/// history is too short (needs at least `s + 2` observations).
pub fn prediction_error(history: &[f64], s: usize) -> Option<f64> {
    assert!(s >= 1, "window must be at least 1");
    let d = history.len();
    if d < s + 2 {
        return None;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    // Paper indexing: for i in s+1..=d evaluate Δest against Δ_i = l_{i+1} − l_i,
    // which needs l_{i+1}; with 0-based indexing i runs over [s, d-1).
    for i in s..d - 1 {
        let delta_est = (history[i] - history[i - s]) / s as f64;
        let delta_actual = history[i + 1] - history[i];
        total += (delta_actual - delta_est).abs();
        count += 1;
    }
    Some(total / count as f64)
}

/// Algorithm 1: evaluate windows `s = 1..=psi` on `history`, returning the
/// per-window mean errors and the argmin. Windows the history cannot
/// support score `NaN` and are never selected.
pub fn tune_samples(history: &[f64], psi: usize) -> SampleTuningReport {
    assert!(psi >= 1, "must explore at least s = 1");
    let errors: Vec<f64> =
        (1..=psi).map(|s| prediction_error(history, s).unwrap_or(f64::NAN)).collect();
    let best = errors
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.is_nan())
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaNs here"))
        .map(|(i, _)| i + 1)
        .unwrap_or(1);
    SampleTuningReport { errors, best }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_growth_is_perfectly_predicted_by_any_window() {
        let history: Vec<f64> = (0..12).map(|i| 10.0 * i as f64).collect();
        for s in 1..=4 {
            let err = prediction_error(&history, s).unwrap();
            assert!(err < 1e-9, "s={s} err={err}");
        }
    }

    #[test]
    fn alternating_demand_favours_windows_matching_the_period() {
        // Demand grows by 0, 20, 0, 20, ... — a period-2 pattern. A window
        // of 2 averages a full period (Δest = 10 always, error 10), while
        // s = 1 swings between 0 and 20 (error 20).
        let mut history = vec![0.0];
        for i in 0..14 {
            let inc = if i % 2 == 0 { 0.0 } else { 20.0 };
            history.push(history.last().unwrap() + inc);
        }
        let e1 = prediction_error(&history, 1).unwrap();
        let e2 = prediction_error(&history, 2).unwrap();
        assert!(e2 < e1, "period-matching window must win: e1={e1} e2={e2}");
        let report = tune_samples(&history, 4);
        assert!(report.best == 2 || report.best == 4, "even windows win: {report:?}");
    }

    #[test]
    fn volatile_recent_shifts_favour_small_windows() {
        // A sudden regime change: old slope 1, new slope 30. Small windows
        // adapt fastest.
        let mut history: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut last = *history.last().unwrap();
        for _ in 0..4 {
            last += 30.0;
            history.push(last);
        }
        let e1 = prediction_error(&history, 1).unwrap();
        let e4 = prediction_error(&history, 4).unwrap();
        assert!(e1 < e4, "e1={e1} e4={e4}");
    }

    #[test]
    fn short_history_yields_nan_slots() {
        let history = [1.0, 2.0, 3.0];
        let report = tune_samples(&history, 4);
        assert!(!report.errors[0].is_nan()); // s=1 evaluable with 3 points
        assert!(report.errors[2].is_nan());
        assert!(report.errors[3].is_nan());
        assert_eq!(report.best, 1);
    }

    #[test]
    fn empty_history_defaults_to_one() {
        let report = tune_samples(&[], 3);
        assert_eq!(report.best, 1);
        assert!(report.errors.iter().all(|e| e.is_nan()));
    }
}
