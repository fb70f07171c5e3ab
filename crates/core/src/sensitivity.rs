//! Parameter sensitivity analysis: which input rate moves the
//! capacity-oriented availability most?
//!
//! The paper picks redundancy designs from point estimates of Table IV
//! parameters; this module quantifies how sensitive the COA conclusion is
//! to each of them, by central finite differences on the full pipeline
//! (lower-layer SRN solve → aggregation → product-form COA). Elasticities
//! (`d log COA-loss / d log θ`) make parameters with different units
//! comparable. The perturbed specs are the variants of one
//! [`Sweep`], run on the caller's [`Pool`] with its tier solves resolved
//! through the caller's [`AnalysisCache`].

use std::sync::Arc;

use redeval_avail::{Durations, ServerParams};

use crate::exec::{AnalysisCache, Pool, Sweep};
use crate::spec::{Design, NetworkSpec};
use crate::EvalError;

/// Which duration parameter of a tier's servers is perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parameter {
    /// Mean application patch duration (1/α_svc).
    ServicePatch,
    /// Mean OS patch duration (1/α_os).
    OsPatch,
    /// Mean OS reboot after patch (1/β_os).
    OsRebootPatch,
    /// Mean service reboot after patch (1/β_svc).
    ServiceRebootPatch,
    /// Mean patch interval (1/τ_p).
    PatchInterval,
}

impl Parameter {
    /// All analysed parameters.
    pub const ALL: [Parameter; 5] = [
        Parameter::ServicePatch,
        Parameter::OsPatch,
        Parameter::OsRebootPatch,
        Parameter::ServiceRebootPatch,
        Parameter::PatchInterval,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Parameter::ServicePatch => "1/α_svc (app patch)",
            Parameter::OsPatch => "1/α_os (os patch)",
            Parameter::OsRebootPatch => "1/β_os (os reboot)",
            Parameter::ServiceRebootPatch => "1/β_svc (svc reboot)",
            Parameter::PatchInterval => "1/τ_p (patch interval)",
        }
    }

    fn get(self, p: &ServerParams) -> f64 {
        match self {
            Parameter::ServicePatch => p.svc_patch.as_hours(),
            Parameter::OsPatch => p.os_patch.as_hours(),
            Parameter::OsRebootPatch => p.os_reboot_patch.as_hours(),
            Parameter::ServiceRebootPatch => p.svc_reboot_patch.as_hours(),
            Parameter::PatchInterval => p.patch_interval.as_hours(),
        }
    }

    fn set(self, p: &mut ServerParams, hours: f64) {
        let d = Durations::hours(hours);
        match self {
            Parameter::ServicePatch => p.svc_patch = d,
            Parameter::OsPatch => p.os_patch = d,
            Parameter::OsRebootPatch => p.os_reboot_patch = d,
            Parameter::ServiceRebootPatch => p.svc_reboot_patch = d,
            Parameter::PatchInterval => p.patch_interval = d,
        }
    }
}

/// Sensitivity of the COA *loss* (`1 − COA`) to one tier parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Tier name.
    pub tier: String,
    /// The perturbed parameter.
    pub parameter: Parameter,
    /// Base value (hours).
    pub value_hours: f64,
    /// Finite-difference derivative `d(1−COA)/dθ` (per hour).
    pub derivative: f64,
    /// Elasticity `d log(1−COA) / d log θ` — dimensionless.
    pub elasticity: f64,
}

/// Computes COA-loss sensitivities of every `(tier, parameter)` pair by
/// central differences with relative step `rel_step` (e.g. `0.05`),
/// sorted by descending |elasticity|.
///
/// The base spec and both perturbations of every pair (`θ ± θ·rel_step`)
/// are the spec variants of one [`Sweep`] of the design `counts`, run as
/// one batch on `pool`. The variants resolve tier solves through the
/// caller's `cache`, so each perturbation solves only its perturbed
/// tier. Pairs are merged in grid order before the stable sort, and a
/// cache hit returns the numbers a fresh solve would, so the ranking is
/// bitwise-identical for any pool size and any cache state.
///
/// # Errors
///
/// Propagates pipeline errors.
///
/// # Panics
///
/// Panics when `rel_step` is not within `(0, 0.5)`.
pub fn coa_sensitivities(
    spec: &NetworkSpec,
    counts: &[u32],
    rel_step: f64,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<Vec<Sensitivity>, EvalError> {
    assert!(
        rel_step > 0.0 && rel_step < 0.5,
        "relative step must be in (0, 0.5)"
    );
    // The base spec, then each (tier, parameter) pair's `θ + step` and
    // `θ − step` specs.
    let mut pairs = Vec::new();
    let mut variants = vec![(String::new(), spec.clone())];
    for (ti, tier) in spec.tiers().iter().enumerate() {
        for param in Parameter::ALL {
            let theta = param.get(&tier.params);
            let step = theta * rel_step;
            for value in [theta + step, theta - step] {
                let mut tiers = spec.tiers().to_vec();
                param.set(&mut tiers[ti].params, value);
                let varied = NetworkSpec::new(tiers, spec.edges().to_vec());
                variants.push((String::new(), varied));
            }
            pairs.push((&tier.name, param, theta, step));
        }
    }
    let evals = Sweep::new(spec.clone())
        .variants(variants)
        .designs(vec![Design::new("", counts.to_vec())])
        .run(pool, cache)?;
    let base_loss = 1.0 - evals[0].coa;
    let mut out: Vec<Sensitivity> = pairs
        .iter()
        .zip(evals[1..].chunks_exact(2))
        .map(|(&(tier, param, theta, step), perturbed)| {
            let hi = 1.0 - perturbed[0].coa;
            let lo = 1.0 - perturbed[1].coa;
            let derivative = (hi - lo) / (2.0 * step);
            let elasticity = if base_loss > 0.0 {
                derivative * theta / base_loss
            } else {
                0.0
            };
            Sensitivity {
                tier: tier.clone(),
                parameter: param,
                value_hours: theta,
                derivative,
                elasticity,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.elasticity
            .abs()
            .partial_cmp(&a.elasticity.abs())
            .expect("finite elasticities")
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;

    /// An empty cache for an analysis whose solves nothing else shares.
    fn fresh_cache() -> Arc<AnalysisCache> {
        Arc::new(AnalysisCache::new())
    }

    #[test]
    fn longer_patches_increase_loss() {
        let spec = case_study::network();
        let sens =
            coa_sensitivities(&spec, &[1, 2, 2, 1], 0.05, &Pool::new(1), &fresh_cache()).unwrap();
        // Every patch/reboot duration has a positive derivative (longer
        // downtime → more loss); the patch interval has a negative one
        // (rarer patching → less loss).
        for s in &sens {
            match s.parameter {
                Parameter::PatchInterval => {
                    assert!(s.derivative < 0.0, "{s:?}");
                }
                _ => assert!(s.derivative >= -1e-12, "{s:?}"),
            }
        }
    }

    #[test]
    fn interval_elasticity_near_minus_one() {
        // Loss ≈ Σ cycle/interval, so d log loss / d log interval ≈ −1
        // for each tier; combined over 4 tiers still ≈ −1 per tier
        // contribution. Check the dns tier's interval elasticity.
        let spec = case_study::network();
        let sens =
            coa_sensitivities(&spec, &[1, 1, 1, 1], 0.05, &Pool::new(1), &fresh_cache()).unwrap();
        let dns_interval = sens
            .iter()
            .find(|s| s.tier == "dns" && s.parameter == Parameter::PatchInterval)
            .unwrap();
        // dns contributes ~ its share of the loss; elasticity of the
        // total loss to one tier's interval is −share (≈ −0.15..−0.3).
        assert!(dns_interval.elasticity < -0.05);
        assert!(dns_interval.elasticity > -1.0);
    }

    #[test]
    fn single_point_tiers_dominate_under_redundancy() {
        // In the case-study design (web and app duplicated), a redundant
        // server's downtime costs 1/6 of capacity while the db/dns tiers
        // zero the reward — so the single-server tiers top the ranking.
        let spec = case_study::network();
        let sens =
            coa_sensitivities(&spec, &[1, 2, 2, 1], 0.05, &Pool::new(1), &fresh_cache()).unwrap();
        let top_tiers: Vec<&str> = sens[..3].iter().map(|s| s.tier.as_str()).collect();
        assert!(
            top_tiers.iter().all(|t| *t == "db" || *t == "dns"),
            "{top_tiers:?}"
        );
        // Duplicating a tier strictly reduces the magnitude of its own
        // patch-duration sensitivity: compare app's OS-patch elasticity
        // between the non-redundant and the case-study design.
        let flat =
            coa_sensitivities(&spec, &[1, 1, 1, 1], 0.05, &Pool::new(1), &fresh_cache()).unwrap();
        let el = |list: &[Sensitivity]| {
            list.iter()
                .find(|s| s.tier == "app" && s.parameter == Parameter::OsPatch)
                .unwrap()
                .derivative
        };
        assert!(el(&flat) > el(&sens), "{} vs {}", el(&flat), el(&sens));
    }

    #[test]
    #[should_panic(expected = "relative step")]
    fn bad_step_panics() {
        let spec = case_study::network();
        let _ = coa_sensitivities(&spec, &[1, 2, 2, 1], 0.9, &Pool::new(1), &fresh_cache());
    }

    #[test]
    fn is_bitwise_identical_across_pool_sizes() {
        let spec = case_study::network();
        let seq =
            coa_sensitivities(&spec, &[1, 2, 2, 1], 0.05, &Pool::new(1), &fresh_cache()).unwrap();
        let par =
            coa_sensitivities(&spec, &[1, 2, 2, 1], 0.05, &Pool::new(4), &fresh_cache()).unwrap();
        assert_eq!(seq, par);
    }
}
