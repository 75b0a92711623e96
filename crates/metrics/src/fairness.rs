//! Load imbalance across cores.
//!
//! The whole point of RPCValet is evening out per-core load; Jain's
//! fairness index quantifies how uneven an assignment actually was: 1.0
//! for a perfectly even split and `1/n` when one core of `n` receives
//! everything.

/// Jain's fairness index over per-entity totals:
/// `(Σx)² / (n · Σx²)`, in `(0, 1]`.
///
/// Returns 1.0 for an empty or all-zero input (nothing is unfair about
/// no work).
///
/// # Example
/// ```
/// use metrics::fairness::jain_index;
/// assert_eq!(jain_index(&[10.0, 10.0, 10.0, 10.0]), 1.0);
/// assert_eq!(jain_index(&[40.0, 0.0, 0.0, 0.0]), 0.25);
/// ```
pub fn jain_index(x: &[f64]) -> f64 {
    let n = x.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = x.iter().sum();
    let sum_sq: f64 = x.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        let skewed = jain_index(&[100.0, 1.0, 1.0, 1.0]);
        assert!(skewed < 0.3 && skewed > 0.25);
    }

    #[test]
    fn jain_scale_invariant() {
        let a = jain_index(&[1.0, 2.0, 3.0]);
        let b = jain_index(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
