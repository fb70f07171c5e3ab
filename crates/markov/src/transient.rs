//! Transient analysis of CTMCs by uniformization (Jensen's method).

use crate::matrix::Csr;
use crate::SolveError;

/// Truncation error bound for the Poisson series.
const EPSILON: f64 = 1e-12;

/// Safety factor applied to the uniformization rate (≥ 1).
const RATE_FACTOR: f64 = 1.02;

/// Computes `π(t) = π(0) · e^{Qt}` by uniformization.
///
/// `rates` is the off-diagonal rate matrix; `initial` the distribution at
/// time zero (it is normalized defensively).
///
/// # Errors
///
/// Returns [`SolveError::InvalidRate`] style errors upstream; here, a
/// non-finite or negative `t` is reported as `InvalidRate` on (0,0).
pub fn transient(rates: &Csr, initial: &[f64], t: f64) -> Result<Vec<f64>, SolveError> {
    let n = rates.rows();
    if n == 0 {
        return Err(SolveError::Empty);
    }
    assert_eq!(initial.len(), n, "initial distribution length mismatch");
    if !t.is_finite() || t < 0.0 {
        return Err(SolveError::InvalidRate {
            from: 0,
            to: 0,
            value: t,
        });
    }
    let mut p0: Vec<f64> = initial.to_vec();
    let s: f64 = p0.iter().sum();
    if s <= 0.0 {
        return Err(SolveError::Singular);
    }
    for p in p0.iter_mut() {
        *p /= s;
    }
    if t == 0.0 {
        return Ok(p0);
    }

    let exit: Vec<f64> = (0..n)
        .map(|i| rates.row(i).iter().map(|e| e.value).sum())
        .collect();
    let max_exit = exit.iter().cloned().fold(0.0, f64::max);
    if max_exit == 0.0 {
        // No transitions at all: distribution is constant.
        return Ok(p0);
    }
    let lambda = max_exit * RATE_FACTOR;
    let lt = lambda * t;

    let (k_lo, weights) = poisson_weights(lt, EPSILON);

    // y_k = π(0) P^k where P = I + Q/Λ.
    let mut y = p0;
    let mut result = vec![0.0; n];
    let k_hi = k_lo + weights.len() - 1;
    for k in 0..=k_hi {
        if k >= k_lo {
            let w = weights[k - k_lo];
            for (r, yi) in result.iter_mut().zip(y.iter()) {
                *r += w * yi;
            }
        }
        if k == k_hi {
            break;
        }
        // y ← y P  (P = I + Q/Λ, built on the fly).
        let mut next = vec![0.0; n];
        for i in 0..n {
            let yi = y[i];
            if yi == 0.0 {
                continue;
            }
            next[i] += yi * (1.0 - exit[i] / lambda);
            for e in rates.row(i) {
                if e.index != i {
                    next[e.index] += yi * e.value / lambda;
                }
            }
        }
        y = next;
    }
    // Renormalize to absorb the truncated tail mass.
    let s: f64 = result.iter().sum();
    if s > 0.0 {
        for r in result.iter_mut() {
            *r /= s;
        }
    }
    Ok(result)
}

/// Normalized Poisson(λt) weights with left/right truncation.
///
/// Works for arbitrarily large `lt` without under/overflow by building the
/// unnormalized pmf outwards from the mode.
fn poisson_weights(lt: f64, epsilon: f64) -> (usize, Vec<f64>) {
    let mode = lt.floor() as usize;
    // Relative cut-off: weights below cutoff×w_mode are dropped.
    let cutoff = (epsilon / 10.0).max(1e-300);

    // Expand right from the mode.
    let mut right = vec![1.0f64];
    let mut k = mode;
    loop {
        let w = right.last().copied().expect("nonempty") * lt / (k + 1) as f64;
        if w < cutoff || !w.is_finite() {
            break;
        }
        right.push(w);
        k += 1;
        if k > mode + 10_000_000 {
            break;
        }
    }
    // Expand left from the mode.
    let mut left: Vec<f64> = Vec::new();
    let mut w = 1.0f64;
    let mut kk = mode;
    while kk > 0 {
        w *= kk as f64 / lt;
        if w < cutoff {
            break;
        }
        left.push(w);
        kk -= 1;
    }
    let k_lo = mode - left.len();
    let mut weights: Vec<f64> = left.into_iter().rev().collect();
    weights.extend(right);
    let sum: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= sum;
    }
    (k_lo, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_weights_sum_to_one() {
        for &lt in &[0.1, 1.0, 25.0, 3000.0] {
            let (_, w) = poisson_weights(lt, 1e-12);
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "lt={lt}");
        }
    }

    #[test]
    fn poisson_weights_match_pmf_small() {
        let lt = 2.0f64;
        let (k_lo, w) = poisson_weights(lt, 1e-12);
        // pmf(k) = e^-2 2^k / k!
        let pmf = |k: usize| {
            let mut v = (-lt).exp();
            for i in 1..=k {
                v *= lt / i as f64;
            }
            v
        };
        for (off, &wi) in w.iter().enumerate() {
            let k = k_lo + off;
            assert!((wi - pmf(k)).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn poisson_weights_huge_mean_no_overflow() {
        let (k_lo, w) = poisson_weights(5e5, 1e-10);
        assert!(!w.is_empty());
        assert!(w.iter().all(|x| x.is_finite()));
        // Mean of the truncated distribution ≈ lt.
        let mean: f64 = w
            .iter()
            .enumerate()
            .map(|(off, wi)| (k_lo + off) as f64 * wi)
            .sum();
        assert!((mean - 5e5).abs() / 5e5 < 1e-3);
    }

    #[test]
    fn no_transitions_is_constant() {
        let r = Csr::from_triplets(2, 2, &[]);
        let p = transient(&r, &[0.25, 0.75], 10.0).unwrap();
        assert_eq!(p, vec![0.25, 0.75]);
    }

    #[test]
    fn pure_death_matches_exponential() {
        // 0 -> 1 at rate r: p0(t) = exp(-r t).
        let rate = 0.7;
        let r = Csr::from_triplets(2, 2, &[(0, 1, rate)]);
        for &t in &[0.0, 0.3, 1.0, 5.0] {
            let p = transient(&r, &[1.0, 0.0], t).unwrap();
            assert!((p[0] - (-rate * t).exp()).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn initial_distribution_is_normalized() {
        let r = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let p = transient(&r, &[2.0, 2.0], 0.5).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[0] - 0.5).abs() < 1e-12); // symmetric chain stays uniform
    }

    #[test]
    fn negative_time_rejected() {
        let r = Csr::from_triplets(1, 1, &[]);
        assert!(transient(&r, &[1.0], -1.0).is_err());
    }
}
