//! CVSS v2.0 base metrics and scoring equations.
//!
//! Implements the base-metric group of the CVSS v2.0 specification:
//! access vector (AV), access complexity (AC), authentication (Au) and the
//! three impact metrics C/I/A, together with the impact, exploitability and
//! base-score equations.

use std::fmt;
use std::str::FromStr;

use crate::ParseVectorError;

/// How the vulnerability is accessed (AV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessVector {
    /// `AV:L` — local access required.
    Local,
    /// `AV:A` — adjacent network.
    AdjacentNetwork,
    /// `AV:N` — remotely exploitable.
    Network,
}

impl AccessVector {
    /// Numerical weight from the v2 specification.
    pub fn weight(self) -> f64 {
        match self {
            AccessVector::Local => 0.395,
            AccessVector::AdjacentNetwork => 0.646,
            AccessVector::Network => 1.0,
        }
    }

    /// Canonical vector token, e.g. `"N"`.
    pub fn token(self) -> &'static str {
        match self {
            AccessVector::Local => "L",
            AccessVector::AdjacentNetwork => "A",
            AccessVector::Network => "N",
        }
    }
}

/// Complexity of the attack required once access is obtained (AC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessComplexity {
    /// `AC:H` — specialized conditions exist.
    High,
    /// `AC:M` — somewhat specialized conditions.
    Medium,
    /// `AC:L` — no specialized conditions.
    Low,
}

impl AccessComplexity {
    /// Numerical weight from the v2 specification.
    pub fn weight(self) -> f64 {
        match self {
            AccessComplexity::High => 0.35,
            AccessComplexity::Medium => 0.61,
            AccessComplexity::Low => 0.71,
        }
    }

    /// Canonical vector token, e.g. `"L"`.
    pub fn token(self) -> &'static str {
        match self {
            AccessComplexity::High => "H",
            AccessComplexity::Medium => "M",
            AccessComplexity::Low => "L",
        }
    }
}

/// Number of times an attacker must authenticate (Au).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Authentication {
    /// `Au:M` — two or more instances of authentication.
    Multiple,
    /// `Au:S` — one instance of authentication.
    Single,
    /// `Au:N` — no authentication required.
    None,
}

impl Authentication {
    /// Numerical weight from the v2 specification.
    pub fn weight(self) -> f64 {
        match self {
            Authentication::Multiple => 0.45,
            Authentication::Single => 0.56,
            Authentication::None => 0.704,
        }
    }

    /// Canonical vector token, e.g. `"N"`.
    pub fn token(self) -> &'static str {
        match self {
            Authentication::Multiple => "M",
            Authentication::Single => "S",
            Authentication::None => "N",
        }
    }
}

/// Degree of loss for one of the C/I/A impact metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Impact {
    /// `:N` — no impact.
    None,
    /// `:P` — partial impact.
    Partial,
    /// `:C` — complete impact.
    Complete,
}

impl Impact {
    /// Numerical weight from the v2 specification.
    pub fn weight(self) -> f64 {
        match self {
            Impact::None => 0.0,
            Impact::Partial => 0.275,
            Impact::Complete => 0.660,
        }
    }

    /// Canonical vector token, e.g. `"C"`.
    pub fn token(self) -> &'static str {
        match self {
            Impact::None => "N",
            Impact::Partial => "P",
            Impact::Complete => "C",
        }
    }
}

/// A complete CVSS v2.0 base vector.
///
/// Construct directly, with [`BaseVector::new`], or by parsing the canonical
/// `AV:_/AC:_/Au:_/C:_/I:_/A:_` form (an optional `CVSS2#` or `(`/`)`
/// NVD-style wrapping is tolerated).
///
/// # Examples
///
/// ```
/// use redeval_cvss::v2::BaseVector;
///
/// # fn main() -> Result<(), redeval_cvss::ParseVectorError> {
/// let v: BaseVector = "AV:N/AC:M/Au:N/C:C/I:C/A:C".parse()?;
/// assert_eq!(v.base_score(), 9.3);
/// assert_eq!(v.exploitability_subscore(), 8.6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaseVector {
    /// Access vector (AV).
    pub access_vector: AccessVector,
    /// Access complexity (AC).
    pub access_complexity: AccessComplexity,
    /// Authentication (Au).
    pub authentication: Authentication,
    /// Confidentiality impact (C).
    pub confidentiality: Impact,
    /// Integrity impact (I).
    pub integrity: Impact,
    /// Availability impact (A).
    pub availability: Impact,
}

/// Rounds to one decimal, as all CVSS v2 scores are reported.
fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

impl BaseVector {
    /// Creates a base vector from its six metrics.
    pub fn new(
        access_vector: AccessVector,
        access_complexity: AccessComplexity,
        authentication: Authentication,
        confidentiality: Impact,
        integrity: Impact,
        availability: Impact,
    ) -> Self {
        BaseVector {
            access_vector,
            access_complexity,
            authentication,
            confidentiality,
            integrity,
            availability,
        }
    }

    /// The raw (unrounded) impact subscore:
    /// `10.41 * (1 - (1-C)(1-I)(1-A))`.
    pub fn impact_subscore_raw(&self) -> f64 {
        10.41
            * (1.0
                - (1.0 - self.confidentiality.weight())
                    * (1.0 - self.integrity.weight())
                    * (1.0 - self.availability.weight()))
    }

    /// The impact subscore rounded to one decimal (0.0–10.0).
    ///
    /// This is the paper's **attack impact** value (Table I).
    pub fn impact_subscore(&self) -> f64 {
        round1(self.impact_subscore_raw().min(10.0))
    }

    /// The raw (unrounded) exploitability subscore:
    /// `20 * AV * AC * Au`.
    pub fn exploitability_subscore_raw(&self) -> f64 {
        20.0 * self.access_vector.weight()
            * self.access_complexity.weight()
            * self.authentication.weight()
    }

    /// The exploitability subscore rounded to one decimal (0.0–10.0).
    pub fn exploitability_subscore(&self) -> f64 {
        round1(self.exploitability_subscore_raw().min(10.0))
    }

    /// The `f(impact)` factor of the base equation: 0 when the impact
    /// subscore is 0, otherwise 1.176.
    pub fn f_impact(&self) -> f64 {
        if self.impact_subscore_raw() == 0.0 {
            0.0
        } else {
            1.176
        }
    }

    /// The CVSS v2 base score, rounded to one decimal.
    ///
    /// `((0.6*Impact) + (0.4*Exploitability) - 1.5) * f(Impact)`.
    pub fn base_score(&self) -> f64 {
        let impact = self.impact_subscore_raw().min(10.0);
        let expl = self.exploitability_subscore_raw().min(10.0);
        round1(((0.6 * impact) + (0.4 * expl) - 1.5) * self.f_impact()).clamp(0.0, 10.0)
    }

    /// The paper's *attack impact* value: the impact subscore.
    pub fn attack_impact(&self) -> f64 {
        self.impact_subscore()
    }

    /// The paper's *attack success probability*: exploitability / 10.
    ///
    /// Always within `0.0..=1.0`.
    pub fn attack_success_probability(&self) -> f64 {
        self.exploitability_subscore() / 10.0
    }

    /// Whether the paper would classify this vulnerability as *critical*,
    /// i.e. whether the base score strictly exceeds `threshold`
    /// (the paper uses 8.0).
    pub fn is_critical(&self, threshold: f64) -> bool {
        self.base_score() > threshold
    }

    /// The canonical vector string, e.g. `"AV:N/AC:L/Au:N/C:C/I:C/A:C"`.
    pub fn to_vector_string(&self) -> String {
        format!(
            "AV:{}/AC:{}/Au:{}/C:{}/I:{}/A:{}",
            self.access_vector.token(),
            self.access_complexity.token(),
            self.authentication.token(),
            self.confidentiality.token(),
            self.integrity.token(),
            self.availability.token()
        )
    }
}

impl fmt::Display for BaseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_vector_string())
    }
}

impl FromStr for BaseVector {
    type Err = ParseVectorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let s = s.strip_prefix("CVSS2#").unwrap_or(s);
        let s = s.strip_prefix('(').unwrap_or(s);
        let s = s.strip_suffix(')').unwrap_or(s);
        if let Some(rest) = s.strip_prefix("CVSS:") {
            return Err(ParseVectorError::VersionMismatch {
                found: format!("CVSS:{}", rest.split('/').next().unwrap_or("")),
            });
        }

        let mut av = None;
        let mut ac = None;
        let mut au = None;
        let mut c = None;
        let mut i = None;
        let mut a = None;

        for comp in s.split('/') {
            let (key, value) =
                comp.split_once(':')
                    .ok_or_else(|| ParseVectorError::MalformedComponent {
                        component: comp.to_string(),
                    })?;
            let invalid = || ParseVectorError::InvalidValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            let dup = || ParseVectorError::DuplicateMetric {
                key: key.to_string(),
            };
            match key {
                "AV" => {
                    let v = match value {
                        "L" => AccessVector::Local,
                        "A" => AccessVector::AdjacentNetwork,
                        "N" => AccessVector::Network,
                        _ => return Err(invalid()),
                    };
                    if av.replace(v).is_some() {
                        return Err(dup());
                    }
                }
                "AC" => {
                    let v = match value {
                        "H" => AccessComplexity::High,
                        "M" => AccessComplexity::Medium,
                        "L" => AccessComplexity::Low,
                        _ => return Err(invalid()),
                    };
                    if ac.replace(v).is_some() {
                        return Err(dup());
                    }
                }
                "Au" => {
                    let v = match value {
                        "M" => Authentication::Multiple,
                        "S" => Authentication::Single,
                        "N" => Authentication::None,
                        _ => return Err(invalid()),
                    };
                    if au.replace(v).is_some() {
                        return Err(dup());
                    }
                }
                "C" | "I" | "A" => {
                    let v = match value {
                        "N" => Impact::None,
                        "P" => Impact::Partial,
                        "C" => Impact::Complete,
                        _ => return Err(invalid()),
                    };
                    let slot = match key {
                        "C" => &mut c,
                        "I" => &mut i,
                        _ => &mut a,
                    };
                    if slot.replace(v).is_some() {
                        return Err(dup());
                    }
                }
                _ => {
                    return Err(ParseVectorError::UnknownMetric {
                        key: key.to_string(),
                    })
                }
            }
        }

        Ok(BaseVector {
            access_vector: av.ok_or(ParseVectorError::MissingMetric { key: "AV" })?,
            access_complexity: ac.ok_or(ParseVectorError::MissingMetric { key: "AC" })?,
            authentication: au.ok_or(ParseVectorError::MissingMetric { key: "Au" })?,
            confidentiality: c.ok_or(ParseVectorError::MissingMetric { key: "C" })?,
            integrity: i.ok_or(ParseVectorError::MissingMetric { key: "I" })?,
            availability: a.ok_or(ParseVectorError::MissingMetric { key: "A" })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> BaseVector {
        s.parse().expect("valid vector")
    }

    #[test]
    fn spec_example_cve_2002_0392() {
        // The canonical v2 spec example: AV:N/AC:L/Au:N/C:N/I:N/A:C -> 7.8.
        let v = parse("AV:N/AC:L/Au:N/C:N/I:N/A:C");
        assert_eq!(v.base_score(), 7.8);
        assert_eq!(v.impact_subscore(), 6.9);
        assert_eq!(v.exploitability_subscore(), 10.0);
    }

    #[test]
    fn spec_example_cve_2003_0818() {
        // AV:N/AC:L/Au:N/C:C/I:C/A:C -> 10.0.
        let v = parse("AV:N/AC:L/Au:N/C:C/I:C/A:C");
        assert_eq!(v.base_score(), 10.0);
        assert_eq!(v.impact_subscore(), 10.0);
        assert_eq!(v.exploitability_subscore(), 10.0);
    }

    #[test]
    fn spec_example_cve_2003_0062() {
        // AV:L/AC:H/Au:N/C:C/I:C/A:C -> 6.2.
        let v = parse("AV:L/AC:H/Au:N/C:C/I:C/A:C");
        assert_eq!(v.base_score(), 6.2);
        assert_eq!(v.exploitability_subscore(), 1.9);
    }

    #[test]
    fn zero_impact_scores_zero() {
        let v = parse("AV:N/AC:L/Au:N/C:N/I:N/A:N");
        assert_eq!(v.impact_subscore(), 0.0);
        assert_eq!(v.base_score(), 0.0);
        assert_eq!(v.f_impact(), 0.0);
    }

    #[test]
    fn paper_probability_values() {
        // Table I probability 1.0 = AV:N/AC:L/Au:N.
        let remote = parse("AV:N/AC:L/Au:N/C:C/I:C/A:C");
        assert_eq!(remote.attack_success_probability(), 1.0);
        // Table I probability 0.39 = AV:L/AC:L/Au:N (local kernel vulns).
        let local = parse("AV:L/AC:L/Au:N/C:C/I:C/A:C");
        assert_eq!(local.attack_success_probability(), 0.39);
        // Table I probability 0.86 = AV:N/AC:M/Au:N (CVE-2015-3152).
        let medium = parse("AV:N/AC:M/Au:N/C:P/I:N/A:N");
        assert_eq!(medium.attack_success_probability(), 0.86);
    }

    #[test]
    fn paper_impact_values() {
        assert_eq!(parse("AV:N/AC:L/Au:N/C:C/I:C/A:C").attack_impact(), 10.0);
        assert_eq!(parse("AV:N/AC:L/Au:N/C:P/I:P/A:P").attack_impact(), 6.4);
        assert_eq!(parse("AV:N/AC:L/Au:N/C:P/I:N/A:N").attack_impact(), 2.9);
    }

    #[test]
    fn criticality_threshold_is_strict() {
        let v = parse("AV:N/AC:L/Au:N/C:C/I:C/A:C"); // 10.0
        assert!(v.is_critical(8.0));
        let w = parse("AV:L/AC:L/Au:N/C:C/I:C/A:C"); // 7.2
        assert!(!w.is_critical(8.0));
        assert!(!v.is_critical(10.0)); // strict comparison
    }

    #[test]
    fn roundtrip_display_parse() {
        let v = parse("AV:A/AC:M/Au:S/C:P/I:C/A:N");
        let s = v.to_string();
        assert_eq!(s, "AV:A/AC:M/Au:S/C:P/I:C/A:N");
        assert_eq!(parse(&s), v);
    }

    #[test]
    fn tolerates_nvd_wrapping() {
        assert_eq!(
            parse("(AV:N/AC:L/Au:N/C:C/I:C/A:C)"),
            parse("AV:N/AC:L/Au:N/C:C/I:C/A:C")
        );
        assert_eq!(
            parse("CVSS2#AV:N/AC:L/Au:N/C:C/I:C/A:C"),
            parse("AV:N/AC:L/Au:N/C:C/I:C/A:C")
        );
    }

    #[test]
    fn rejects_missing_metric() {
        let err = "AV:N/AC:L/Au:N/C:C/I:C".parse::<BaseVector>().unwrap_err();
        assert_eq!(err, ParseVectorError::MissingMetric { key: "A" });
    }

    #[test]
    fn rejects_duplicate_metric() {
        let err = "AV:N/AV:L/AC:L/Au:N/C:C/I:C/A:C"
            .parse::<BaseVector>()
            .unwrap_err();
        assert_eq!(err, ParseVectorError::DuplicateMetric { key: "AV".into() });
    }

    #[test]
    fn rejects_unknown_metric() {
        let err = "AV:N/AC:L/Au:N/C:C/I:C/A:C/XX:Y"
            .parse::<BaseVector>()
            .unwrap_err();
        assert_eq!(err, ParseVectorError::UnknownMetric { key: "XX".into() });
    }

    #[test]
    fn rejects_invalid_value() {
        let err = "AV:Q/AC:L/Au:N/C:C/I:C/A:C"
            .parse::<BaseVector>()
            .unwrap_err();
        assert_eq!(
            err,
            ParseVectorError::InvalidValue {
                key: "AV".into(),
                value: "Q".into()
            }
        );
    }

    #[test]
    fn rejects_v3_prefix() {
        let err = "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
            .parse::<BaseVector>()
            .unwrap_err();
        assert!(matches!(err, ParseVectorError::VersionMismatch { .. }));
    }

    #[test]
    fn rejects_component_without_colon() {
        let err = "AVN/AC:L/Au:N/C:C/I:C/A:C"
            .parse::<BaseVector>()
            .unwrap_err();
        assert!(matches!(err, ParseVectorError::MalformedComponent { .. }));
    }
}
