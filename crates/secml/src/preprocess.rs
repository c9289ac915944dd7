//! Feature preprocessing.
//!
//! §5.2 lists "determining necessary data transformation for numeric
//! features" among the main challenges of the training phase. The corpus
//! features span six orders of magnitude (LoC vs ratios), so the linear
//! models need standardization, and heavy-tailed counts benefit from the
//! `log1p` transform the paper's own Figure 2 applies (log-log bucketing).

/// Per-column z-score standardizer (`(x − mean) / std`).
#[derive(Debug, Clone, Default)]
pub struct Standardizer {
    pub means: Vec<f64>,
    pub stds: Vec<f64>,
}

impl Standardizer {
    /// Fit on the rows (columns with zero variance get std 1 so they map
    /// to 0 rather than NaN).
    pub fn fit(rows: &[Vec<f64>]) -> Standardizer {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let n = rows.len().max(1) as f64;
        let mut means = vec![0.0; cols];
        for row in rows {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; cols];
        for row in rows {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Standardizer { means, stds }
    }

    /// Transform rows in place.
    pub fn transform(&self, rows: &mut [Vec<f64>]) {
        for row in rows {
            self.transform_row(row);
        }
    }

    /// Transform one row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }
}

/// Per-column min-max scaler onto `[0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct MinMaxScaler {
    pub mins: Vec<f64>,
    pub maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Fit on the rows.
    pub fn fit(rows: &[Vec<f64>]) -> MinMaxScaler {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mins = vec![f64::INFINITY; cols];
        let mut maxs = vec![f64::NEG_INFINITY; cols];
        for row in rows {
            for ((lo, hi), v) in mins.iter_mut().zip(&mut maxs).zip(row) {
                *lo = lo.min(*v);
                *hi = hi.max(*v);
            }
        }
        MinMaxScaler { mins, maxs }
    }

    /// Transform one row in place (constant columns map to 0).
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((v, lo), hi) in row.iter_mut().zip(&self.mins).zip(&self.maxs) {
            let range = hi - lo;
            *v = if range < 1e-12 {
                0.0
            } else {
                (*v - lo) / range
            };
        }
    }

    /// Transform rows in place.
    pub fn transform(&self, rows: &mut [Vec<f64>]) {
        for row in rows {
            self.transform_row(row);
        }
    }
}

/// The signed log1p `sign(x)·ln(1+|x|)`: `ln(1 + x)` for non-negative
/// values, mirrored for negative ones so the transform stays monotone.
/// Training and scoring both transform rows through this one function.
pub fn signed_log1p(v: f64) -> f64 {
    v.signum() * v.abs().ln_1p()
}

/// Apply [`signed_log1p`] to every value.
pub fn log1p_rows(rows: &mut [Vec<f64>]) {
    for row in rows {
        for v in row.iter_mut() {
            *v = signed_log1p(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_zero_mean_unit_variance() {
        let mut rows = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let s = Standardizer::fit(&rows);
        s.transform(&mut rows);
        for col in 0..2 {
            let vals: Vec<f64> = rows.iter().map(|r| r[col]).collect();
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-10);
            assert!((var - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn standardizer_constant_column_maps_to_zero() {
        let mut rows = vec![vec![7.0], vec![7.0], vec![7.0]];
        let s = Standardizer::fit(&rows);
        s.transform(&mut rows);
        assert!(rows.iter().all(|r| r[0] == 0.0));
    }

    #[test]
    fn standardizer_applies_train_stats_to_test() {
        let train = vec![vec![0.0], vec![10.0]];
        let s = Standardizer::fit(&train);
        let mut test = vec![vec![5.0]];
        s.transform(&mut test);
        assert!(test[0][0].abs() < 1e-10); // 5 is the train mean
    }

    #[test]
    fn minmax_scales_to_unit_interval() {
        let mut rows = vec![vec![2.0], vec![4.0], vec![6.0]];
        let s = MinMaxScaler::fit(&rows);
        s.transform(&mut rows);
        assert_eq!(rows, vec![vec![0.0], vec![0.5], vec![1.0]]);
    }

    #[test]
    fn minmax_constant_column() {
        let mut rows = vec![vec![3.0], vec![3.0]];
        let s = MinMaxScaler::fit(&rows);
        s.transform(&mut rows);
        assert!(rows.iter().all(|r| r[0] == 0.0));
    }

    #[test]
    fn log1p_is_monotone_and_signed() {
        let mut rows = vec![vec![0.0, 10.0, 100.0, -10.0]];
        log1p_rows(&mut rows);
        assert_eq!(rows[0][0], 0.0);
        assert!(rows[0][1] < rows[0][2]);
        assert!((rows[0][3] + rows[0][1]).abs() < 1e-12); // symmetric
    }
}
