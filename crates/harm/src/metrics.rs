//! Security-metric definitions and aggregation configuration.

use std::fmt;

/// How OR gates in attack trees combine child probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrCombine {
    /// The attacker takes the single best option: `max(p_i)`.
    Max,
    /// Independent attempts: `1 − Π(1 − p_i)` (noisy-or).
    #[default]
    NoisyOr,
}

/// How the network-level attack success probability aggregates over attack
/// paths.
///
/// The paper's references (\[18\],\[20\]) define `ASP = max over paths`, but
/// its Figure 6(b) shows redundancy *increasing* ASP, which only holds for
/// the multi-path aggregations; see `EXPERIMENTS.md` for the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AspStrategy {
    /// `max_ap Π_{h∈ap} p_h` — the single most likely path.
    MaxPath,
    /// `1 − Π_ap (1 − asp_ap)` — paths treated as independent attempts.
    #[default]
    NoisyOrPaths,
    /// Exact network reliability: the probability that at least one attack
    /// path has **all** of its hosts compromised, with host compromises as
    /// independent Bernoulli events. Falls back to
    /// [`NoisyOrPaths`](Self::NoisyOrPaths) when more than
    /// [`RELIABILITY_HOST_LIMIT`](crate::Harm::RELIABILITY_HOST_LIMIT)
    /// distinct hosts appear on attack paths.
    Reliability,
}

/// Configuration for [`crate::Harm::metrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// OR-gate combination inside attack trees.
    pub or_combine: OrCombine,
    /// Across-path aggregation for ASP.
    pub asp: AspStrategy,
    /// Upper bound on enumerated attack paths.
    pub max_paths: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            or_combine: OrCombine::default(),
            asp: AspStrategy::default(),
            max_paths: 1_000_000,
        }
    }
}

/// The paper's five security metrics plus extension metrics.
///
/// Produced by [`crate::Harm::metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityMetrics {
    /// `AIM` — attack impact at the network level (max over paths of the
    /// summed host impacts). 0.0 when no attack path exists.
    pub attack_impact: f64,
    /// `ASP` — attack success probability at the network level.
    pub attack_success_probability: f64,
    /// `NoEV` — total number of exploitable vulnerabilities over all hosts.
    pub exploitable_vulnerabilities: usize,
    /// `NoAP` — number of attack paths.
    pub attack_paths: usize,
    /// `NoEP` — number of entry points (attacker-reachable exploitable
    /// hosts).
    pub entry_points: usize,
    /// Extension: number of hops on the shortest attack path.
    pub shortest_path_length: Option<usize>,
    /// Extension: mean number of hops over all attack paths (0.0 if none).
    pub mean_path_length: f64,
    /// Extension: maximal per-path risk `aim_ap · asp_ap`.
    pub risk: f64,
}

/// A path prefix — its impact sum and probability product — before its
/// first host: the start values of `Iterator::sum` and
/// `Iterator::product`.
pub(crate) fn empty_prefix() -> (f64, f64) {
    (std::iter::empty::<f64>().sum(), 1.0)
}

/// `prefix` grown by one host of `(impact, probability)`, as one more
/// step of `Iterator::sum` and `Iterator::product` over the path grows
/// it.
pub(crate) fn extend(prefix: (f64, f64), (impact, probability): (f64, f64)) -> (f64, f64) {
    (prefix.0 + impact, prefix.1 * probability)
}

/// Every path metric, folded over the paths in walk order from the start
/// values the store-then-fold evaluation used. Both walks — the host
/// walk of [`Harm::metrics`](crate::Harm::metrics) and the tier walk of
/// [`TierDag::metrics`](crate::TierDag::metrics) — update it through
/// [`add`](Self::add) alone.
#[derive(Debug, Clone)]
pub(crate) struct PathFold {
    /// Paths folded (`NoAP`).
    pub(crate) paths: usize,
    /// `max` of path impacts, from `0.0`.
    aim: f64,
    /// `max` of path probabilities, from `0.0`.
    max_probability: f64,
    /// `Π (1 − p)` over paths, from `1.0`.
    miss: f64,
    /// `max` of `impact · probability`, from `0.0`.
    risk: f64,
    shortest: Option<usize>,
    total_len: usize,
}

impl PathFold {
    pub(crate) fn new() -> Self {
        PathFold {
            paths: 0,
            aim: 0.0,
            max_probability: 0.0,
            miss: 1.0,
            risk: 0.0,
            shortest: None,
            total_len: 0,
        }
    }

    /// Folds `n` consecutive copies of one path of `len` hosts with the
    /// given impact sum and probability product.
    ///
    /// Maxima, minima and integer sums do not depend on order or
    /// multiplicity, so they take the path once; the noisy-or product
    /// does, so it multiplies once per copy. With `n = 1` this is the
    /// per-path update of the host walk.
    ///
    /// The product stops early where the rest cannot change it: `q = 1`
    /// leaves `miss` as it is, and once `miss` is ±0 a finite `q` keeps
    /// it ±0 — [`finish`](Self::finish) reads only `1 − miss`, the same
    /// for either sign.
    pub(crate) fn add(&mut self, (impact, probability): (f64, f64), len: usize, n: usize) {
        self.paths += n;
        self.aim = self.aim.max(impact);
        self.max_probability = self.max_probability.max(probability);
        let q = 1.0 - probability;
        if q != 1.0 {
            let absorbs = q.is_finite();
            for _ in 0..n {
                if absorbs && self.miss == 0.0 {
                    break;
                }
                self.miss *= q;
            }
        }
        self.risk = self.risk.max(impact * probability);
        self.shortest = Some(self.shortest.map_or(len, |s| s.min(len)));
        self.total_len += len * n;
    }

    /// The metric suite. `reliability` is the exact
    /// [`AspStrategy::Reliability`] ASP when the walk could compute it;
    /// without it that strategy falls back to the noisy-or value.
    pub(crate) fn finish(
        &self,
        config: &MetricsConfig,
        reliability: Option<f64>,
        exploitable_vulnerabilities: usize,
        entry_points: usize,
    ) -> SecurityMetrics {
        let noisy_or = 1.0 - self.miss;
        let (asp, mean_len) = if self.paths == 0 {
            (0.0, 0.0)
        } else {
            let asp = match config.asp {
                AspStrategy::MaxPath => self.max_probability,
                AspStrategy::NoisyOrPaths => noisy_or,
                AspStrategy::Reliability => reliability.unwrap_or(noisy_or),
            };
            (asp, self.total_len as f64 / self.paths as f64)
        };
        SecurityMetrics {
            attack_impact: self.aim,
            attack_success_probability: asp,
            exploitable_vulnerabilities,
            attack_paths: self.paths,
            entry_points,
            shortest_path_length: self.shortest,
            mean_path_length: mean_len,
            risk: self.risk,
        }
    }
}

impl fmt::Display for SecurityMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AIM={:.1} ASP={:.3} NoEV={} NoAP={} NoEP={}",
            self.attack_impact,
            self.attack_success_probability,
            self.exploitable_vulnerabilities,
            self.attack_paths,
            self.entry_points
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_noisy_or() {
        let c = MetricsConfig::default();
        assert_eq!(c.or_combine, OrCombine::NoisyOr);
        assert_eq!(c.asp, AspStrategy::NoisyOrPaths);
    }

    #[test]
    fn display_shows_paper_names() {
        let m = SecurityMetrics {
            attack_impact: 52.2,
            attack_success_probability: 1.0,
            exploitable_vulnerabilities: 26,
            attack_paths: 8,
            entry_points: 3,
            shortest_path_length: Some(3),
            mean_path_length: 3.5,
            risk: 52.2,
        };
        let s = m.to_string();
        assert!(s.contains("AIM=52.2"));
        assert!(s.contains("NoAP=8"));
    }

    /// `fold` after one `add` of a path of `probability`, and the ASP it
    /// finishes with, next to the per-copy product the early exit
    /// replaces.
    fn noisy_or_after(mut fold: PathFold, probability: f64, n: usize) -> (f64, f64, f64) {
        let mut miss = fold.miss;
        for _ in 0..n {
            miss *= 1.0 - probability;
        }
        fold.add((1.0, probability), 2, n);
        let asp = fold
            .finish(&MetricsConfig::default(), None, 0, 0)
            .attack_success_probability;
        (fold.miss, miss, asp)
    }

    #[test]
    fn noisy_or_stops_at_zero_with_the_same_asp() {
        // A certain path repeated `max_paths` times: one multiplication
        // reaches `miss = 0`, and the ASP is the per-copy product's.
        let n = MetricsConfig::default().max_paths;
        let (early, full, asp) = noisy_or_after(PathFold::new(), 1.0, n);
        assert_eq!((early.to_bits(), full.to_bits()), (0, 0));
        assert_eq!(asp.to_bits(), (1.0 - full).to_bits());
        // A negative `q` flips the sign of a zero `miss` on every copy;
        // `1 − miss` is the same for both signs.
        let mut fold = PathFold::new();
        fold.add((1.0, 1.0), 1, 1);
        let (early, full, asp) = noisy_or_after(fold, 1.5, 3);
        assert_eq!(early, full);
        assert_eq!(asp.to_bits(), (1.0 - full).to_bits());
    }

    #[test]
    fn noisy_or_keeps_multiplying_a_non_finite_q() {
        // `0 · ∞` and `0 · NaN` are NaN: a zero `miss` absorbs only
        // finite factors.
        for probability in [f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            let mut fold = PathFold::new();
            fold.add((1.0, 1.0), 1, 1);
            assert_eq!(fold.miss, 0.0);
            let (early, full, asp) = noisy_or_after(fold, probability, 3);
            assert!(early.is_nan() && full.is_nan(), "p = {probability}");
            assert!(asp.is_nan());
        }
    }

    #[test]
    fn noisy_or_skips_a_q_of_one() {
        // `p = 0` (and `p` too small to move `1 − p`) multiplies by 1.
        let mut fold = PathFold::new();
        fold.add((1.0, 0.25), 1, 3);
        for probability in [0.0, -0.0, 1e-300] {
            let (early, full, _) = noisy_or_after(fold.clone(), probability, 5);
            assert_eq!(early.to_bits(), full.to_bits(), "p = {probability}");
            assert_eq!(early.to_bits(), fold.miss.to_bits());
        }
    }
}
