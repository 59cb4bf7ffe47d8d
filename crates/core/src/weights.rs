//! Per-dimension SSE weights (Def. 5).
//!
//! The error measure weighs each aggregate dimension `d` with a positive
//! weight `w_d`; the SSE uses `w_d²`. The paper defers the choice of
//! weights to feature-weighting literature and uses 1 everywhere, which is
//! [`Weights::uniform`].

use crate::error::CoreError;

/// Validated positive weights, stored squared for direct use in SSE sums.
#[derive(Debug, Clone, PartialEq)]
pub struct Weights {
    squared: Vec<f64>,
}

impl Weights {
    /// Unit weights for a `p`-dimensional relation — the paper's default.
    pub fn uniform(p: usize) -> Self {
        Self { squared: vec![1.0; p] }
    }

    /// Creates weights from `w_1..w_p`. Each must be positive, and its
    /// square a normal finite `f64`: a square that overflows to `∞` makes
    /// every SSE `∞`, and one that underflows makes every SSE `0`, and
    /// either way the error no longer orders reductions.
    pub fn new(weights: &[f64]) -> Result<Self, CoreError> {
        for (d, &w) in weights.iter().enumerate() {
            if !(w > 0.0 && (w * w).is_normal()) {
                return Err(CoreError::invalid_weights(format!(
                    "weight {w} at dimension {d} must be positive, with a finite, normal square"
                )));
            }
        }
        Ok(Self { squared: weights.iter().map(|w| w * w).collect() })
    }

    /// Number of dimensions the weights cover.
    pub fn dims(&self) -> usize {
        self.squared.len()
    }

    /// The squared weight `w_d²`.
    #[inline]
    pub fn squared(&self, d: usize) -> f64 {
        self.squared[d]
    }

    /// All squared weights.
    #[inline]
    pub fn squared_all(&self) -> &[f64] {
        &self.squared
    }

    /// Checks the weights match a relation of dimensionality `p`.
    pub fn check_dims(&self, p: usize) -> Result<(), CoreError> {
        if self.dims() == p {
            Ok(())
        } else {
            Err(CoreError::WeightDimensionMismatch { got: self.dims(), expected: p })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_square_to_one() {
        let w = Weights::uniform(3);
        assert_eq!(w.dims(), 3);
        assert_eq!(w.squared(1), 1.0);
    }

    #[test]
    fn rejects_non_positive_and_non_finite() {
        // 1e200² overflows to ∞ and 1e-200² underflows to 0.
        for w in [0.0, -2.0, f64::NAN, f64::INFINITY, 1e200, 1e-200] {
            let err = Weights::new(&[1.0, w]).unwrap_err();
            assert!(
                err.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter),
                "{w}: {err}"
            );
        }
    }

    #[test]
    fn squares_are_stored() {
        let w = Weights::new(&[2.0, 3.0]).unwrap();
        assert_eq!(w.squared(0), 4.0);
        assert_eq!(w.squared(1), 9.0);
        assert!(Weights::new(&[1e150]).unwrap().squared(0).is_normal());
    }

    #[test]
    fn dimension_check() {
        let w = Weights::uniform(2);
        assert!(w.check_dims(2).is_ok());
        assert!(matches!(
            w.check_dims(3),
            Err(CoreError::WeightDimensionMismatch { got: 2, expected: 3 })
        ));
    }
}
