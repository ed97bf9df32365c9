//! Percentile helpers that carry their sample count.

/// A tail percentile is only reported with at least this many samples
/// beyond it (choosing-metrics: "the highest percentile that has at
/// least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// One order statistic and the number of samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples when `n` is even);
/// `None` on an empty sample.
pub fn median(samples: &[f64]) -> Option<Quantile> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let value = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Quantile { value, n })
}

/// The nearest-rank `p`-th percentile (`0 < p < 1`), refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Result<Quantile, String> {
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("percentile {p} is outside (0, 1)"));
    }
    let v = sorted(samples);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of n={n} has {beyond} samples beyond it, needs {MIN_BEYOND}",
            p * 100.0
        ));
    }
    Ok(Quantile {
        value: v[rank - 1],
        n,
    })
}
