//! The §6.3 hybrid service-time construction for Fig. 9's model curves.
//!
//! "We measure the mean service time S̄ on our implementation; a part D
//! of this service time is synthetically generated to follow one of the
//! distributions in §5, and the rest, S̄ − D, is spent on the rest of the
//! microbenchmark's code. We conservatively assume that this S̄ − D part
//! of the service time follows a fixed distribution."

use dist::{ServiceDist, SyntheticKind};

/// Builds the theoretical service-time model: a fixed `S̄ − D` component
/// plus the distributed `D` component of the given synthetic kind
/// (mean 600 ns, including its own 300 ns base).
///
/// # Panics
/// Panics if `measured_s_bar_ns` is smaller than the distributed part's
/// mean (no room for the fixed component would mean mis-measured S̄).
///
/// # Example
/// ```
/// use dist::SyntheticKind;
/// use queueing::hybrid::hybrid_service;
///
/// let svc = hybrid_service(820.0, SyntheticKind::Exponential);
/// assert!((svc.mean_ns() - 820.0).abs() < 1.0);
/// ```
pub fn hybrid_service(measured_s_bar_ns: f64, kind: SyntheticKind) -> ServiceDist {
    let d = kind.processing_time();
    let d_mean = d.mean_ns();
    assert!(
        measured_s_bar_ns >= d_mean,
        "measured S̄ ({measured_s_bar_ns} ns) below the distributed mean ({d_mean} ns)"
    );
    ServiceDist::shifted(measured_s_bar_ns - d_mean, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{QueueingModel, QxU, RunParams};

    #[test]
    fn hybrid_mean_matches_measured_s_bar() {
        for kind in SyntheticKind::ALL {
            let svc = hybrid_service(820.0, kind);
            assert!(
                (svc.mean_ns() - 820.0).abs() < 2.0,
                "{kind}: {}",
                svc.mean_ns()
            );
        }
    }

    #[test]
    fn hybrid_variance_is_damped_by_fixed_part() {
        // Adding a fixed component leaves absolute variance unchanged but
        // lowers the SCV, which is why the paper calls the assumption
        // conservative (a lower-variance model under-predicts tails).
        let pure = SyntheticKind::Exponential.processing_time();
        let hybrid = hybrid_service(1_200.0, SyntheticKind::Exponential);
        // Compare empirical p99/mean ratios at equal load.
        let m_pure = QueueingModel::new(QxU::SINGLE_16, pure);
        let m_hybrid = QueueingModel::new(QxU::SINGLE_16, hybrid);
        let params = RunParams {
            load: 0.8,
            requests: 150_000,
            warmup: 15_000,
            seed: 9,
        };
        let r_pure = m_pure.run(&params);
        let r_hybrid = m_hybrid.run(&params);
        assert!(
            r_hybrid.p99_over_mean_service() < r_pure.p99_over_mean_service(),
            "hybrid p99/S̄ {} should be below pure {}",
            r_hybrid.p99_over_mean_service(),
            r_pure.p99_over_mean_service()
        );
    }

    #[test]
    #[should_panic(expected = "below the distributed mean")]
    fn rejects_impossible_s_bar() {
        hybrid_service(100.0, SyntheticKind::Fixed);
    }
}
