//! M/M/c queueing formulas for the paper's *user-oriented performance*
//! extension (Section V).
//!
//! The reproduced paper notes that redundancy designs should eventually be
//! judged under client load too and proposes queueing models as future
//! work; this module provides the standard Erlang-C machinery so the
//! workspace can report mean response/waiting times per design (see
//! `redeval perf`).

use std::error::Error;
use std::fmt;

/// Error returned for unstable or malformed queue parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueError {
    /// Arrival rate, service rate or server count was non-positive/NaN.
    InvalidParameter,
    /// Offered load ≥ capacity: the queue grows without bound.
    Unstable {
        /// Utilization `λ/(cµ)` (≥ 1).
        utilization: f64,
    },
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::InvalidParameter => write!(f, "queue parameters must be positive"),
            QueueError::Unstable { utilization } => {
                write!(f, "queue is unstable (utilization {utilization:.3})")
            }
        }
    }
}

impl Error for QueueError {}

/// An M/M/c queue: Poisson arrivals at rate `λ`, `c` identical exponential
/// servers at rate `µ` each, infinite buffer.
///
/// # Examples
///
/// ```
/// use redeval_avail::mmc::Mmc;
///
/// # fn main() -> Result<(), redeval_avail::mmc::QueueError> {
/// let q = Mmc::new(3.0, 2.0, 2)?; // ρ = 0.75
/// assert!((q.utilization() - 0.75).abs() < 1e-12);
/// assert!(q.mean_response_time() > 1.0 / 2.0); // waiting adds latency
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmc {
    arrival_rate: f64,
    service_rate: f64,
    servers: u32,
}

impl Mmc {
    /// Creates a queue after validating stability.
    ///
    /// # Errors
    ///
    /// * [`QueueError::InvalidParameter`] for non-positive inputs;
    /// * [`QueueError::Unstable`] when `λ ≥ c·µ`.
    pub fn new(arrival_rate: f64, service_rate: f64, servers: u32) -> Result<Self, QueueError> {
        if !(arrival_rate.is_finite()
            && arrival_rate > 0.0
            && service_rate.is_finite()
            && service_rate > 0.0)
            || servers == 0
        {
            return Err(QueueError::InvalidParameter);
        }
        let rho = arrival_rate / (servers as f64 * service_rate);
        if rho >= 1.0 {
            return Err(QueueError::Unstable { utilization: rho });
        }
        Ok(Mmc {
            arrival_rate,
            service_rate,
            servers,
        })
    }

    /// Per-server utilization `ρ = λ/(cµ)`.
    pub fn utilization(&self) -> f64 {
        self.arrival_rate / (self.servers as f64 * self.service_rate)
    }

    /// Offered load `a = λ/µ` (in Erlangs).
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// The Erlang-C probability that an arriving job must wait.
    pub fn probability_of_waiting(&self) -> f64 {
        let a = self.offered_load();
        let c = self.servers as usize;
        let rho = self.utilization();
        // Σ_{k<c} a^k/k!  computed incrementally.
        let mut term = 1.0;
        let mut sum = 0.0;
        for k in 0..c {
            if k > 0 {
                term *= a / k as f64;
            }
            sum += term;
        }
        // a^c / c!
        let tail = term * a / c as f64;
        let tail = tail / (1.0 - rho);
        tail / (sum + tail)
    }

    /// Mean number of jobs waiting in the queue (`Lq`).
    pub fn mean_queue_length(&self) -> f64 {
        self.probability_of_waiting() * self.utilization() / (1.0 - self.utilization())
    }

    /// Mean time spent waiting before service (`Wq`).
    pub fn mean_waiting_time(&self) -> f64 {
        self.mean_queue_length() / self.arrival_rate
    }

    /// Mean response time (`W = Wq + 1/µ`).
    pub fn mean_response_time(&self) -> f64 {
        self.mean_waiting_time() + 1.0 / self.service_rate
    }
}

/// Mean response time of a tier whose server count fluctuates: weights the
/// per-count M/M/c response time by the probability of each up-count.
///
/// Jobs arriving while **zero** servers are up are counted via
/// `penalty_when_down` (e.g. a timeout); pass `None` to skip those states
/// (conditional response time).
///
/// # Errors
///
/// Returns an error when any reachable up-count makes the queue unstable
/// or parameters are invalid.
pub fn availability_weighted_response_time(
    arrival_rate: f64,
    service_rate: f64,
    up_distribution: &[(u32, f64)],
    penalty_when_down: Option<f64>,
) -> Result<f64, QueueError> {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(up, p) in up_distribution {
        if p == 0.0 {
            continue;
        }
        if up == 0 {
            if let Some(penalty) = penalty_when_down {
                num += p * penalty;
                den += p;
            }
            continue;
        }
        let q = Mmc::new(arrival_rate, service_rate, up)?;
        num += p * q.mean_response_time();
        den += p;
    }
    if den == 0.0 {
        return Err(QueueError::InvalidParameter);
    }
    Ok(num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_closed_form() {
        // M/M/1: W = 1/(µ-λ).
        let q = Mmc::new(0.5, 1.0, 1).unwrap();
        assert!((q.mean_response_time() - 2.0).abs() < 1e-12);
        assert!((q.probability_of_waiting() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_known_value() {
        // a = 2 Erlang, c = 3: C(3,2) = 4/9 ≈ 0.4444.
        let q = Mmc::new(2.0, 1.0, 3).unwrap();
        assert!((q.probability_of_waiting() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn more_servers_reduce_waiting() {
        let q2 = Mmc::new(1.5, 1.0, 2).unwrap();
        let q3 = Mmc::new(1.5, 1.0, 3).unwrap();
        assert!(q3.mean_waiting_time() < q2.mean_waiting_time());
        assert!(q3.mean_response_time() < q2.mean_response_time());
    }

    #[test]
    fn unstable_queue_rejected() {
        assert!(matches!(
            Mmc::new(2.0, 1.0, 2),
            Err(QueueError::Unstable { .. })
        ));
        assert!(matches!(
            Mmc::new(3.0, 1.0, 2),
            Err(QueueError::Unstable { .. })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert_eq!(Mmc::new(0.0, 1.0, 1), Err(QueueError::InvalidParameter));
        assert_eq!(Mmc::new(1.0, -1.0, 2), Err(QueueError::InvalidParameter));
        assert_eq!(Mmc::new(1.0, 1.0, 0), Err(QueueError::InvalidParameter));
        assert_eq!(
            Mmc::new(f64::NAN, 1.0, 1),
            Err(QueueError::InvalidParameter)
        );
    }

    #[test]
    fn weighted_response_time_interpolates() {
        // Tier with 2 servers 90% of the time, 1 server 10%.
        let w = availability_weighted_response_time(0.5, 1.0, &[(2, 0.9), (1, 0.1)], None).unwrap();
        let w2 = Mmc::new(0.5, 1.0, 2).unwrap().mean_response_time();
        let w1 = Mmc::new(0.5, 1.0, 1).unwrap().mean_response_time();
        assert!((w - (0.9 * w2 + 0.1 * w1)).abs() < 1e-12);
        assert!(w2 < w && w < w1);
    }

    #[test]
    fn down_penalty_applies() {
        let with =
            availability_weighted_response_time(0.5, 1.0, &[(1, 0.99), (0, 0.01)], Some(30.0))
                .unwrap();
        let without =
            availability_weighted_response_time(0.5, 1.0, &[(1, 0.99), (0, 0.01)], None).unwrap();
        assert!(with > without);
    }

    #[test]
    fn little_law_consistency() {
        let q = Mmc::new(2.5, 1.2, 4).unwrap();
        // L = λW (Little's law) = Lq + a.
        let l = q.mean_queue_length() + q.offered_load();
        assert!((q.arrival_rate * q.mean_response_time() - l).abs() < 1e-12);
    }
}
