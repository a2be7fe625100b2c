//! The per-flit router energy model and its least-squares fit.

use anton_analysis::fit::least_squares;
use anton_sim::sim::EnergyCounters;

use crate::experiment::EnergyMeasurement;

/// The fitted energy model `E = c₀ + c₁·h + (c₂ + c₃·n)(a/r)` pJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Data-independent per-flit energy `c₀` (pJ).
    pub fixed_pj: f64,
    /// Energy per datapath bit flip `c₁` (pJ).
    pub per_flip_pj: f64,
    /// Activation energy `c₂` (pJ).
    pub activation_pj: f64,
    /// Activation energy per set payload bit `c₃` (pJ).
    pub per_set_bit_pj: f64,
}

impl EnergyModel {
    /// The paper's fitted coefficients: `E = 42.7 + 0.837h + (34.4 + 0.250n)(a/r)`.
    /// The simulator only counts activity ([`EnergyCounters`]); these are
    /// the coefficients that price it.
    pub fn paper() -> EnergyModel {
        EnergyModel {
            fixed_pj: 42.7,
            per_flip_pj: 0.837,
            activation_pj: 34.4,
            per_set_bit_pj: 0.250,
        }
    }

    /// Energy in picojoules of the activity `c` counted.
    pub fn energy_pj(&self, c: &EnergyCounters) -> f64 {
        c.flits as f64 * self.fixed_pj
            + c.flips as f64 * self.per_flip_pj
            + c.activations as f64 * self.activation_pj
            + c.set_bits as f64 * self.per_set_bit_pj
    }

    /// Predicted per-flit energy (pJ) for mean flip count `h`, mean set
    /// payload bits `n`, and activations-per-flit `a/r`.
    pub fn predict(&self, h: f64, n: f64, a_over_r: f64) -> f64 {
        self.fixed_pj
            + self.per_flip_pj * h
            + (self.activation_pj + self.per_set_bit_pj * n) * a_over_r
    }

    /// Fits the model to a set of measurements by linear least squares over
    /// the regressors `[1, h, a/r, n·(a/r)]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than four linearly independent measurements are
    /// provided (the paper varies payload pattern and injection rate to
    /// span the space).
    pub fn fit(measurements: &[EnergyMeasurement]) -> EnergyModel {
        assert!(
            measurements.len() >= 4,
            "need at least four measurements to fit"
        );
        let xs: Vec<Vec<f64>> = measurements
            .iter()
            .map(|m| vec![1.0, m.h_mean, m.a_over_r, m.n_mean * m.a_over_r])
            .collect();
        let ys: Vec<f64> = measurements.iter().map(|m| m.energy_pj_per_flit).collect();
        let beta = least_squares(&xs, &ys);
        EnergyModel {
            fixed_pj: beta[0],
            per_flip_pj: beta[1],
            activation_pj: beta[2],
            per_set_bit_pj: beta[3],
        }
    }

    /// Root-mean-square prediction error over a measurement set.
    pub fn rms_error(&self, measurements: &[EnergyMeasurement]) -> f64 {
        let se: f64 = measurements
            .iter()
            .map(|m| {
                let e = self.predict(m.h_mean, m.n_mean, m.a_over_r) - m.energy_pj_per_flit;
                e * e
            })
            .sum();
        (se / measurements.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(model: &EnergyModel) -> Vec<EnergyMeasurement> {
        let mut out = Vec::new();
        for &h in &[0.0, 32.0, 64.0, 128.0] {
            for &n in &[0.0, 64.0, 128.0] {
                for &aor in &[0.2, 0.5, 1.0] {
                    out.push(EnergyMeasurement {
                        rate: 0.5,
                        h_mean: h,
                        n_mean: n,
                        a_over_r: aor,
                        energy_pj_per_flit: model.predict(h, n, aor),
                    });
                }
            }
        }
        out
    }

    #[test]
    fn fit_recovers_paper_coefficients() {
        let truth = EnergyModel::paper();
        let fitted = EnergyModel::fit(&synthetic(&truth));
        assert!((fitted.fixed_pj - 42.7).abs() < 1e-9);
        assert!((fitted.per_flip_pj - 0.837).abs() < 1e-9);
        assert!((fitted.activation_pj - 34.4).abs() < 1e-9);
        assert!((fitted.per_set_bit_pj - 0.250).abs() < 1e-9);
        assert!(fitted.rms_error(&synthetic(&truth)) < 1e-9);
    }

    #[test]
    fn energy_flat_below_half_rate_falls_above() {
        // With a = min(r, 1-r) maximized, a/r = 1 for r <= 0.5 and falls as
        // (1-r)/r beyond — the Figure 13 shape.
        let m = EnergyModel::paper();
        let e = |r: f64| {
            let aor = (r.min(1.0 - r) / r).max(0.0);
            m.predict(64.0, 64.0, aor)
        };
        assert!((e(0.25) - e(0.5)).abs() < 1e-9, "flat below r=0.5");
        assert!(e(0.75) < e(0.5), "energy falls beyond r=0.5");
        assert!(e(1.0) < e(0.75));
    }
}
