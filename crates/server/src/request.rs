//! The request model: one decoder per `POST` body, built from one
//! envelope decoder and one decoder per shared field, with each request
//! type's canonical cache-key form next to its decoder.
//!
//! Every body goes through the same steps — UTF-8, JSON, an object
//! holding only the endpoint's keys, then the embedded `scenario` (or,
//! for `/v1/generate`, the `family`) — and every rejection is the
//! finished 4xx response: a structured `Report` with `ok: false` whose
//! `at` path names the offending field, never an echo of raw request
//! bytes (quoted input is `output::snippet`-capped).
//!
//! The limits below are the single source of truth for both front
//! doors: the HTTP decoders here and the `redeval` CLI flags.

use std::ops::RangeInclusive;

use redeval::decision::ScatterBounds;
use redeval::output::{cache_key_bytes, parse_json, snippet, Json, Value};
use redeval::scenario::generate::{Family, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::{EvalError, PatchPolicy, ScenarioError};

use crate::http::Response;
use crate::service::{error_response, eval_error_response};

/// Accepted per-tier count bounds of a searched design space
/// (`max_redundancy`, `--max-redundancy`).
pub const MAX_REDUNDANCY_RANGE: RangeInclusive<u32> = 1..=8;

/// Accepted Gauss-Seidel round caps (`max_iters`, `--max-iters`).
pub const MAX_ITERS_RANGE: RangeInclusive<u32> = 1..=64;

/// Most entries accepted in a sweep request's grid-parameter arrays.
pub const MAX_GRID_AXIS: usize = 32;

/// Largest generator seed (2⁵³, the largest integer every JSON number
/// carries exactly), so `POST /v1/generate` and `redeval gen --seed`
/// accept the same seeds.
pub const MAX_SEED: u64 = 1 << 53;

/// A decoded `POST /v1/sweep` body: the embedded scenario document plus
/// the optional grid axes layered over it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The scenario document (fully validated).
    pub doc: ScenarioDoc,
    /// Patch-interval variants in days, applied to every tier.
    pub patch_windows_days: Option<Vec<f64>>,
    /// Patch policies overriding the document's list.
    pub policies: Option<Vec<PatchPolicy>>,
    /// Replaces the document's designs with the full design space
    /// `1..=max_redundancy` per tier.
    pub max_redundancy: Option<u32>,
}

/// A decoded `POST /v1/optimize` body: the embedded scenario document
/// plus the pruned-search knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// The scenario document (fully validated).
    pub doc: ScenarioDoc,
    /// Patch policies overriding the document's list.
    pub policies: Option<Vec<PatchPolicy>>,
    /// Per-tier count bound of the searched space (default
    /// [`redeval::optimize::DEFAULT_MAX_REDUNDANCY`]).
    pub max_redundancy: Option<u32>,
    /// Administrator bounds (φ, ψ) selecting the satisfying region.
    pub bounds: Option<ScatterBounds>,
}

/// A decoded `POST /v1/equilibrium` body: the embedded scenario
/// document plus the Gauss-Seidel iteration knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumRequest {
    /// The scenario document (fully validated).
    pub doc: ScenarioDoc,
    /// Patch policies overriding the document's list (the defender's
    /// policy axis).
    pub policies: Option<Vec<PatchPolicy>>,
    /// Per-tier count bound of the defender's design space (default
    /// [`redeval::optimize::DEFAULT_MAX_REDUNDANCY`]).
    pub max_redundancy: Option<u32>,
    /// Gauss-Seidel round cap (default
    /// [`redeval::equilibrium::DEFAULT_MAX_ITERS`]).
    pub max_iters: Option<u32>,
}

/// A decoded `POST /v1/generate` body: a generator family plus its
/// knobs, which are clamped to the family's ranges downstream rather
/// than rejected, matching the CLI and the in-process API.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GenerateRequest {
    pub(crate) family: Family,
    pub(crate) params: GenParams,
    pub(crate) seed: u64,
}

/// A rejected body: the finished 4xx response (boxed — it is large).
pub(crate) type Rejection = Box<Response>;

/// A `POST` body type: how it decodes and what its cache key hashes.
pub(crate) trait PostRequest: Sized {
    /// Decodes and fully validates a body.
    fn decode(body: &[u8]) -> Result<Self, Rejection>;

    /// The bytes whose SHA-256 addresses the response:
    /// [`cache_key_bytes`] over the request kind, the canonical params
    /// (every knob present, absent ⇒ `null`) and the canonical document.
    fn cache_key(&self) -> Vec<u8>;
}

/// `POST /v1/eval`: the body *is* the scenario document.
impl PostRequest for ScenarioDoc {
    fn decode(body: &[u8]) -> Result<Self, Rejection> {
        ScenarioDoc::from_value(&parse_body(body)?).map_err(|e| reject(&e))
    }

    fn cache_key(&self) -> Vec<u8> {
        cache_key_bytes("eval", &Json::Null, &self.to_json())
    }
}

impl PostRequest for SweepRequest {
    fn decode(body: &[u8]) -> Result<Self, Rejection> {
        let env = Envelope::decode(
            body,
            &[
                "scenario",
                "patch_windows_days",
                "policies",
                "max_redundancy",
            ],
        )?;
        Ok(SweepRequest {
            doc: env.scenario()?,
            patch_windows_days: env.patch_windows_days()?,
            policies: env.policies()?,
            max_redundancy: env.count("max_redundancy", MAX_REDUNDANCY_RANGE)?,
        })
    }

    fn cache_key(&self) -> Vec<u8> {
        let days = self
            .patch_windows_days
            .as_ref()
            .map(|days| Json::Arr(days.iter().map(|&d| Json::Num(d)).collect()));
        let params = params([
            ("patch_windows_days", days.unwrap_or(Json::Null)),
            ("policies", policies_json(self.policies.as_deref())),
            ("max_redundancy", count_json(self.max_redundancy)),
        ]);
        cache_key_bytes("sweep", &params, &self.doc.to_json())
    }
}

impl PostRequest for OptimizeRequest {
    fn decode(body: &[u8]) -> Result<Self, Rejection> {
        let env = Envelope::decode(body, &["scenario", "policies", "max_redundancy", "bounds"])?;
        Ok(OptimizeRequest {
            doc: env.scenario()?,
            policies: env.policies()?,
            max_redundancy: env.count("max_redundancy", MAX_REDUNDANCY_RANGE)?,
            bounds: env.bounds()?,
        })
    }

    fn cache_key(&self) -> Vec<u8> {
        let bounds = self.bounds.map(|b| {
            params([
                ("max_asp", Json::Num(b.max_asp)),
                ("min_coa", Json::Num(b.min_coa)),
            ])
        });
        let params = params([
            ("policies", policies_json(self.policies.as_deref())),
            ("max_redundancy", count_json(self.max_redundancy)),
            ("bounds", bounds.unwrap_or(Json::Null)),
        ]);
        cache_key_bytes("optimize", &params, &self.doc.to_json())
    }
}

impl PostRequest for EquilibriumRequest {
    fn decode(body: &[u8]) -> Result<Self, Rejection> {
        let env = Envelope::decode(
            body,
            &["scenario", "policies", "max_redundancy", "max_iters"],
        )?;
        Ok(EquilibriumRequest {
            doc: env.scenario()?,
            policies: env.policies()?,
            max_redundancy: env.count("max_redundancy", MAX_REDUNDANCY_RANGE)?,
            max_iters: env.count("max_iters", MAX_ITERS_RANGE)?,
        })
    }

    fn cache_key(&self) -> Vec<u8> {
        let params = params([
            ("policies", policies_json(self.policies.as_deref())),
            ("max_redundancy", count_json(self.max_redundancy)),
            ("max_iters", count_json(self.max_iters)),
        ]);
        cache_key_bytes("equilibrium", &params, &self.doc.to_json())
    }
}

impl PostRequest for GenerateRequest {
    fn decode(body: &[u8]) -> Result<Self, Rejection> {
        const FAMILIES: &str = "one of ecommerce_fleet, iot_swarm, microservice_mesh";
        let env = Envelope::decode(
            body,
            &[
                "family",
                "seed",
                "tiers",
                "redundancy",
                "designs",
                "policies",
            ],
        )?;
        let name = env
            .field("family")
            .ok_or_else(|| invalid("family", format!("missing key `family` ({FAMILIES})")))?
            .as_str()
            .ok_or_else(|| invalid("family", "expected a family name string"))?;
        let family = Family::parse(name).ok_or_else(|| {
            invalid(
                "family",
                format!("unknown family `{}` ({FAMILIES})", snippet(name)),
            )
        })?;
        let seed = env.uint("seed", MAX_SEED)?.unwrap_or(0);
        let knob = |name: &str, default: u32| -> Result<u32, Rejection> {
            let n = env.uint(name, u64::from(u32::MAX))?;
            Ok(n.map_or(default, |n| u32::try_from(n).unwrap_or(u32::MAX)))
        };
        let defaults = GenParams::default();
        let params = GenParams {
            tiers: knob("tiers", defaults.tiers)?,
            redundancy: knob("redundancy", defaults.redundancy)?,
            designs: knob("designs", defaults.designs)?,
            policies: knob("policies", defaults.policies)?,
        };
        Ok(GenerateRequest {
            family,
            params,
            seed,
        })
    }

    /// Keyed by the *clamped* knobs, so two requests that resolve to the
    /// same document share one entry.
    fn cache_key(&self) -> Vec<u8> {
        let clamped = self.params.clamped(self.family);
        let params = params([
            ("family", Json::Str(self.family.key().to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("tiers", Json::Num(f64::from(clamped.tiers))),
            ("redundancy", Json::Num(f64::from(clamped.redundancy))),
            ("designs", Json::Num(f64::from(clamped.designs))),
            ("policies", Json::Num(f64::from(clamped.policies))),
        ]);
        cache_key_bytes("generate", &params, "")
    }
}

/// The UTF-8 check and JSON parse every `POST` body goes through.
fn parse_body(body: &[u8]) -> Result<Json, Rejection> {
    let text = std::str::from_utf8(body).map_err(|_| {
        Box::new(error_response(
            400,
            "encoding",
            vec![(
                "message".into(),
                Value::from("request body is not valid UTF-8"),
            )],
        ))
    })?;
    parse_json(text).map_err(|e| {
        reject(&EvalError::Scenario(ScenarioError::Json {
            line: e.line,
            col: e.col,
            message: e.message,
        }))
    })
}

/// A request envelope: a JSON object holding only its endpoint's keys
/// (unknown keys are rejected like everywhere else in the scenario
/// schema), with one decoder per shared field.
struct Envelope(Vec<(String, Json)>);

impl Envelope {
    fn decode(body: &[u8], allowed: &[&str]) -> Result<Envelope, Rejection> {
        let Json::Obj(entries) = parse_body(body)? else {
            return Err(invalid("request", "expected an object"));
        };
        only_keys(&entries, allowed, "request")?;
        Ok(Envelope(entries))
    }

    fn field(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The embedded, fully validated scenario document.
    fn scenario(&self) -> Result<ScenarioDoc, Rejection> {
        let value = self.field("scenario").ok_or_else(|| {
            invalid(
                "request",
                "missing key `scenario` (the embedded scenario document)",
            )
        })?;
        ScenarioDoc::from_value(value).map_err(|e| reject(&e))
    }

    /// An optional grid axis: an array of 1..=[`MAX_GRID_AXIS`] items,
    /// each decoded by `item` (whose error message is reported at
    /// `name[i]`).
    fn axis<T>(
        &self,
        name: &str,
        item: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, Rejection> {
        let Some(value) = self.field(name) else {
            return Ok(None);
        };
        let items = value
            .as_arr()
            .ok_or_else(|| invalid(name, "expected an array"))?;
        if items.is_empty() || items.len() > MAX_GRID_AXIS {
            return Err(invalid(
                name,
                format!("expected 1..={MAX_GRID_AXIS} entries"),
            ));
        }
        let decoded = items
            .iter()
            .enumerate()
            .map(|(i, v)| item(v).map_err(|message| invalid(&format!("{name}[{i}]"), message)));
        decoded.collect::<Result<_, _>>().map(Some)
    }

    /// `policies`: policy strings in any `PatchPolicy` spelling.
    fn policies(&self) -> Result<Option<Vec<PatchPolicy>>, Rejection> {
        self.axis("policies", |v| {
            let s = v.as_str().ok_or("expected a policy string")?;
            s.parse().map_err(|e| format!("{e}"))
        })
    }

    /// `patch_windows_days`: positive, finite day counts.
    fn patch_windows_days(&self) -> Result<Option<Vec<f64>>, Rejection> {
        self.axis("patch_windows_days", |v| {
            v.as_f64()
                .filter(|d| d.is_finite() && *d > 0.0)
                .ok_or_else(|| "expected a positive number of days".into())
        })
    }

    /// An optional integer count within `range` (`max_redundancy`,
    /// `max_iters`).
    fn count(&self, name: &str, range: RangeInclusive<u32>) -> Result<Option<u32>, Rejection> {
        let (lo, hi) = (*range.start(), *range.end());
        self.field(name)
            .map(|v| {
                v.as_f64()
                    .filter(|n| n.fract() == 0.0 && (f64::from(lo)..=f64::from(hi)).contains(n))
                    .map(|n| n as u32)
                    .ok_or_else(|| invalid(name, format!("expected an integer in {lo}..={hi}")))
            })
            .transpose()
    }

    /// An optional non-negative integer of at most `max` (the generator
    /// knobs).
    fn uint(&self, name: &str, max: u64) -> Result<Option<u64>, Rejection> {
        self.field(name)
            .map(|v| {
                v.as_f64()
                    .filter(|n| n.fract() == 0.0 && (0.0..=max as f64).contains(n))
                    .map(|n| n as u64)
                    .ok_or_else(|| {
                        invalid(
                            name,
                            format!("expected a non-negative integer (at most {max})"),
                        )
                    })
            })
            .transpose()
    }

    /// `bounds`: `{"max_asp": φ, "min_coa": ψ}`, both finite.
    fn bounds(&self) -> Result<Option<ScatterBounds>, Rejection> {
        let Some(value) = self.field("bounds") else {
            return Ok(None);
        };
        let obj = value.as_obj().ok_or_else(|| {
            invalid(
                "bounds",
                "expected an object {\"max_asp\": φ, \"min_coa\": ψ}",
            )
        })?;
        only_keys(obj, &["max_asp", "min_coa"], "bounds")?;
        let num = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_f64)
                .filter(|n| n.is_finite())
                .ok_or_else(|| invalid(&format!("bounds.{name}"), "expected a finite number"))
        };
        Ok(Some(ScatterBounds {
            max_asp: num("max_asp")?,
            min_coa: num("min_coa")?,
        }))
    }
}

/// A schema rejection at the dotted path `at`.
fn invalid(at: &str, message: impl Into<String>) -> Rejection {
    reject(&EvalError::Scenario(ScenarioError::Invalid {
        at: at.to_string(),
        message: message.into(),
    }))
}

/// Rejects the first key of an object that `allowed` does not list.
fn only_keys(entries: &[(String, Json)], allowed: &[&str], at: &str) -> Result<(), Rejection> {
    match entries.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(invalid(at, format!("unknown key `{}`", snippet(k)))),
        None => Ok(()),
    }
}

fn reject(e: &EvalError) -> Rejection {
    Box::new(eval_error_response(e))
}

/// A canonical params object, keys in the given order.
fn params<const N: usize>(entries: [(&str, Json); N]) -> Json {
    Json::Obj(entries.map(|(k, v)| (k.to_string(), v)).into())
}

/// Policies in their `Display` form, so `"all"` and `"patch all"` share
/// a cache entry.
fn policies_json(policies: Option<&[PatchPolicy]>) -> Json {
    policies.map_or(Json::Null, |ps| {
        Json::Arr(ps.iter().map(|p| Json::Str(p.to_string())).collect())
    })
}

fn count_json(count: Option<u32>) -> Json {
    count.map_or(Json::Null, |n| Json::Num(f64::from(n)))
}
