//! Declarative scenario documents: define, load and evaluate arbitrary
//! networks without recompiling.
//!
//! A [`ScenarioDoc`] is the data-file counterpart of a hand-built
//! [`NetworkSpec`]: vulnerabilities (as CVSS v2 vector strings or explicit
//! impact/probability pairs), named attack trees, tiers with their
//! Table-IV-style rate parameters, tier-level topology edges, named
//! redundancy designs, patch policies and the security-metric
//! configuration. Documents serialize to a canonical JSON form
//! ([`ScenarioDoc::to_json`], schema [`SCHEMA`]) and load back through the
//! dependency-free parser in [`output`](crate::output)
//! ([`ScenarioDoc::from_json`]); `parse ∘ serialize` is the identity on
//! every valid document, at full `f64` precision.
//!
//! Loaded documents are **validated, never trusted**: every structural
//! defect (unknown vulnerability id, dangling tree reference, zero-server
//! tier, missing entry/target, out-of-range CVSS values, …) surfaces as a
//! typed [`ScenarioError`] inside [`EvalError::Scenario`], with a
//! `where`-path telling the author which field to fix. Nothing on the
//! scenario path panics on user data.
//!
//! The paper's Figure-2 case study is itself expressed as the reference
//! built-in document ([`builtin::paper_case_study`]) — the hand-built
//! [`case_study::network`](crate::case_study::network) is derived from it,
//! so the entire golden corpus continuously proves that the scenario path
//! reproduces the paper bit-for-bit. Further built-ins
//! ([`builtin::BUILTINS`]) open non-paper workloads: a six-tier e-commerce
//! stack, an IoT sensor fleet with multiple entry and target tiers, and a
//! seven-tier microservice mesh.
//!
//! # Examples
//!
//! Round-trip the paper network through JSON and evaluate it:
//!
//! ```
//! use redeval::scenario::{builtin, ScenarioDoc};
//! use redeval::{Design, Pool, Sweep};
//!
//! # fn main() -> Result<(), redeval::EvalError> {
//! let json = builtin::paper_case_study().to_json();
//! let doc = ScenarioDoc::from_json(&json)?;
//! let evals = Sweep::from_scenario(&doc)?
//!     .designs(vec![Design::new("base", vec![1, 2, 2, 1])])
//!     .run(&Pool::new(1))?;
//! assert!((evals[0].coa - 0.99707).abs() < 5e-5);
//! # Ok(())
//! # }
//! ```

use std::fmt::{self, Write as _};

use redeval_avail::{Durations, ServerParams};
use redeval_cvss::v2::BaseVector;
use redeval_cvss::ParseVectorError;
use redeval_harm::{AspStrategy, AttackTree, MetricsConfig, OrCombine, Vulnerability};

use crate::output::{
    parse_json, push_f64, push_joined, push_json_display, push_json_str, snippet, Json,
};
use crate::spec::{Design, NetworkSpec, TierSpec};
use crate::{EvalError, PatchPolicy};

pub mod builtin;
pub mod generate;

/// Identifies the scenario-file schema (bumped on breaking changes).
pub const SCHEMA: &str = "redeval-scenario/1";

/// An error in a scenario document: JSON syntax or schema/consistency
/// violations, each pointing at the offending location.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The document is not well-formed JSON.
    Json {
        /// 1-based line of the syntax error.
        line: usize,
        /// 1-based column of the syntax error.
        col: usize,
        /// Parser message.
        message: String,
    },
    /// The document is well-formed JSON but violates the scenario schema
    /// or its consistency rules.
    Invalid {
        /// Dotted path of the offending field, e.g. `tiers[2].count`.
        at: String,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json { line, col, message } => {
                write!(
                    f,
                    "JSON syntax error at line {line}, column {col}: {message}"
                )
            }
            ScenarioError::Invalid { at, message } => write!(f, "{at}: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Shorthand constructor for schema violations; the only place an `at`
/// path is rendered.
fn invalid(at: impl fmt::Display, message: impl Into<String>) -> EvalError {
    EvalError::Scenario(ScenarioError::Invalid {
        at: at.to_string(),
        message: message.into(),
    })
}

/// The dotted path of a document field (`tiers[2].params.hw_mtbf_h`),
/// kept as borrowed steps and rendered only when an error is built, so a
/// valid document formats no path at all.
#[derive(Clone, Copy)]
enum At<'a> {
    /// A top-level name: `document`, `schema`, `metrics`, …
    Root(&'a str),
    /// `parent.key`.
    Key(&'a At<'a>, &'a str),
    /// `parent[index]`.
    Index(&'a At<'a>, usize),
    /// `parent[name]`, the name capped by [`snippet`].
    Name(&'a At<'a>, &'a str),
}

impl<'a> At<'a> {
    fn key(&'a self, key: &'a str) -> At<'a> {
        At::Key(self, key)
    }

    fn index(&'a self, index: usize) -> At<'a> {
        At::Index(self, index)
    }
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            At::Root(name) => f.write_str(name),
            At::Key(parent, key) => write!(f, "{parent}.{key}"),
            At::Index(parent, index) => write!(f, "{parent}[{index}]"),
            At::Name(parent, name) => write!(f, "{parent}[{}]", snippet(name)),
        }
    }
}

/// Where a vulnerability's impact/probability numbers come from.
#[derive(Debug, Clone, PartialEq)]
pub enum VulnSource {
    /// A CVSS v2 base vector string (`"AV:N/AC:L/Au:N/C:C/I:C/A:C"`);
    /// impact, probability and base score are derived exactly as the
    /// paper does (Table I).
    Vector(String),
    /// Explicit paper-style values.
    Explicit {
        /// Attack impact (CVSS v2 impact subscore, `0.0..=10.0`).
        impact: f64,
        /// Attack success probability (`0.0..=1.0`).
        probability: f64,
        /// Optional explicit CVSS base score (`0.0..=10.0`); derived from
        /// impact and probability when absent.
        base_score: Option<f64>,
    },
}

/// One vulnerability record of a scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnDef {
    /// Document-local id referenced by trees (`"v1web"`).
    pub id: String,
    /// Optional CVE identifier (provenance; shown in DOT exports).
    pub cve: Option<String>,
    /// The numbers, by vector or explicitly.
    pub source: VulnSource,
}

/// A node of a named attack tree: a vulnerability reference or an AND/OR
/// gate over child nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeDef {
    /// A leaf referencing a [`VulnDef`] by id.
    Vuln(String),
    /// All children must be exploited.
    And(Vec<TreeDef>),
    /// Any child suffices.
    Or(Vec<TreeDef>),
}

/// One tier of a scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct TierDef {
    /// Tier name (unique; also used in edges and design names).
    pub name: String,
    /// Baseline number of redundant servers.
    pub count: u32,
    /// Failure/recovery/patch rates (Table IV form). The params' service
    /// name is the tier name.
    pub params: ServerParams,
    /// Name of the tier's attack tree, `None` when its servers carry no
    /// exploitable vulnerabilities.
    pub tree: Option<String>,
    /// Whether the external attacker reaches this tier directly.
    pub entry: bool,
    /// Whether compromising a server of this tier achieves the goal.
    pub target: bool,
}

/// A complete declarative scenario: everything needed to build a
/// [`NetworkSpec`] plus the evaluation axes (designs, policies, metric
/// configuration). See the [module docs](self) for the JSON form.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDoc {
    /// Machine name (`[a-zA-Z0-9_-]+`; file stems and CLI keys).
    pub name: String,
    /// Human title.
    pub title: String,
    /// Free-text description (may be empty).
    pub description: String,
    /// The vulnerability catalogue.
    pub vulnerabilities: Vec<VulnDef>,
    /// Named attack trees over the catalogue, in document order.
    pub trees: Vec<(String, TreeDef)>,
    /// The tiers, in document order.
    pub tiers: Vec<TierDef>,
    /// Tier-level reachability by tier name.
    pub edges: Vec<(String, String)>,
    /// Redundancy designs to evaluate (per-tier counts).
    pub designs: Vec<Design>,
    /// Patch policies to evaluate, in order; the first one is the
    /// document's primary policy.
    pub policies: Vec<PatchPolicy>,
    /// Security-metric configuration.
    pub metrics: MetricsConfig,
}

impl ScenarioDoc {
    /// A minimal document with the given name/title, the default metrics
    /// and the paper's default policy; fill in the rest field by field.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        ScenarioDoc {
            name: name.into(),
            title: title.into(),
            description: String::new(),
            vulnerabilities: Vec::new(),
            trees: Vec::new(),
            tiers: Vec::new(),
            edges: Vec::new(),
            designs: Vec::new(),
            policies: vec![PatchPolicy::CriticalOnly(8.0)],
            metrics: MetricsConfig::default(),
        }
    }

    /// The design named after the tiers' baseline counts (used when a
    /// document lists no designs of its own).
    pub fn base_design(&self) -> Design {
        let names: Vec<&str> = self.tiers.iter().map(|t| t.name.as_str()).collect();
        let counts: Vec<u32> = self.tiers.iter().map(|t| t.count).collect();
        Design::new(Design::conventional_name(&names, &counts), counts)
    }

    /// Validates the document without building anything callers keep.
    ///
    /// # Errors
    ///
    /// The same errors [`to_spec`](Self::to_spec) reports.
    pub fn validate(&self) -> Result<(), EvalError> {
        self.to_spec().map(|_| ())
    }

    /// Resolves and validates the document into a [`NetworkSpec`].
    ///
    /// Resolution rules:
    ///
    /// * vulnerability leaves resolve through the catalogue; a record with
    ///   a CVE serves its vulnerability under the display id
    ///   `"<id> (<cve>)"`, keeping provenance visible in DOT exports;
    /// * vector-sourced records derive impact/probability/base score from
    ///   the CVSS v2 equations (identical, to the bit, with Table I's
    ///   values for the paper records);
    /// * edges resolve tier names to indices; designs are checked against
    ///   the tier count.
    ///
    /// # Errors
    ///
    /// [`EvalError::Scenario`] for catalogue/tree/tier/design defects,
    /// [`EvalError::InvalidSpec`] for structural network defects.
    pub fn to_spec(&self) -> Result<NetworkSpec, EvalError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(invalid(
                "name",
                format!(
                    "`{}` is not a valid scenario name (use [a-zA-Z0-9_-]+)",
                    snippet(&self.name)
                ),
            ));
        }
        // An empty network is the most fundamental defect; report it
        // before the derived checks (designs, policies) can obscure it.
        if self.tiers.is_empty() {
            return Err(crate::error::SpecIssue::EmptyTiers.into());
        }

        // Resolve the vulnerability catalogue.
        let mut vulns: Vec<(&str, Vulnerability)> = Vec::with_capacity(self.vulnerabilities.len());
        let vulns_at = At::Root("vulnerabilities");
        for (i, def) in self.vulnerabilities.iter().enumerate() {
            let at = vulns_at.index(i);
            if def.id.is_empty() {
                return Err(invalid(at.key("id"), "id must not be empty"));
            }
            if vulns.iter().any(|(id, _)| *id == def.id) {
                return Err(invalid(
                    at.key("id"),
                    format!("duplicate vulnerability id `{}`", snippet(&def.id)),
                ));
            }
            let display_id = match &def.cve {
                Some(cve) => format!("{} ({cve})", def.id),
                None => def.id.clone(),
            };
            let v = match &def.source {
                VulnSource::Vector(s) => {
                    // Cap both the echoed vector and the CVSS parser's
                    // message (which quotes input components) so a
                    // hostile request body never bounces back whole.
                    let vector: BaseVector = s.parse().map_err(|e: ParseVectorError| {
                        invalid(
                            at.key("vector"),
                            format!("`{}`: {}", snippet(s), snippet(&e.to_string())),
                        )
                    })?;
                    Vulnerability::from_cvss_v2(display_id, &vector)
                }
                VulnSource::Explicit {
                    impact,
                    probability,
                    base_score,
                } => {
                    if !(0.0..=10.0).contains(impact) {
                        return Err(invalid(
                            at.key("impact"),
                            format!("{impact} outside 0..=10"),
                        ));
                    }
                    if !(0.0..=1.0).contains(probability) {
                        return Err(invalid(
                            at.key("probability"),
                            format!("{probability} outside 0..=1"),
                        ));
                    }
                    if let Some(b) = base_score {
                        if !(0.0..=10.0).contains(b) {
                            return Err(invalid(
                                at.key("base_score"),
                                format!("{b} outside 0..=10"),
                            ));
                        }
                    }
                    let mut v = Vulnerability::new(display_id, *impact, *probability);
                    v.base_score = *base_score;
                    v
                }
            };
            vulns.push((&def.id, v));
        }
        let vuln_of = |id: &str| vulns.iter().find(|(i, _)| *i == id).map(|(_, v)| v.clone());

        // Build the named attack trees.
        let mut trees: Vec<(&str, AttackTree)> = Vec::with_capacity(self.trees.len());
        let trees_at = At::Root("trees");
        for (name, def) in &self.trees {
            let at = At::Name(&trees_at, name);
            if name.is_empty() {
                return Err(invalid("trees", "tree name must not be empty"));
            }
            if trees.iter().any(|(n, _)| *n == name.as_str()) {
                return Err(invalid(
                    "trees",
                    format!("duplicate tree name `{}`", snippet(name)),
                ));
            }
            trees.push((name, build_tree(def, at, &vuln_of)?));
        }

        // Resolve the tiers.
        let mut tier_specs: Vec<TierSpec> = Vec::with_capacity(self.tiers.len());
        let tiers_at = At::Root("tiers");
        for (i, tier) in self.tiers.iter().enumerate() {
            let at = tiers_at.index(i);
            if tier.name.is_empty() {
                return Err(invalid(at.key("name"), "tier name must not be empty"));
            }
            if tier_specs.iter().any(|t| t.name == tier.name) {
                return Err(invalid(
                    at.key("name"),
                    format!("duplicate tier name `{}`", snippet(&tier.name)),
                ));
            }
            if tier.count == 0 {
                return Err(invalid(at.key("count"), "a tier needs at least one server"));
            }
            let tree = match &tier.tree {
                None => None,
                Some(name) => Some(
                    trees
                        .iter()
                        .find(|(n, _)| *n == name.as_str())
                        .map(|(_, t)| t.clone())
                        .ok_or_else(|| {
                            invalid(at.key("tree"), format!("unknown tree `{}`", snippet(name)))
                        })?,
                ),
            };
            tier_specs.push(TierSpec {
                name: tier.name.clone(),
                count: tier.count,
                params: tier.params.clone(),
                tree,
                entry: tier.entry,
                target: tier.target,
            });
        }

        // Resolve the edges by tier name.
        let index_of = |name: &str| self.tiers.iter().position(|t| t.name == name);
        let mut edges = Vec::with_capacity(self.edges.len());
        let edges_at = At::Root("edges");
        for (i, (from, to)) in self.edges.iter().enumerate() {
            let at = edges_at.index(i);
            let a = index_of(from)
                .ok_or_else(|| invalid(at, format!("unknown tier `{}`", snippet(from))))?;
            let b = index_of(to)
                .ok_or_else(|| invalid(at, format!("unknown tier `{}`", snippet(to))))?;
            edges.push((a, b));
        }

        // The evaluation axes must be usable as-is.
        let designs_at = At::Root("designs");
        for (i, d) in self.designs.iter().enumerate() {
            let at = designs_at.index(i);
            if d.counts.len() != self.tiers.len() {
                return Err(invalid(
                    at,
                    format!(
                        "design `{}` has {} counts, the scenario has {} tiers",
                        snippet(&d.name),
                        d.counts.len(),
                        self.tiers.len()
                    ),
                ));
            }
            if let Some(t) = d.counts.iter().position(|&c| c == 0) {
                return Err(invalid(
                    at,
                    format!(
                        "design `{}` asks for zero `{}` servers",
                        snippet(&d.name),
                        snippet(&self.tiers[t].name)
                    ),
                ));
            }
        }
        if self.designs.is_empty() {
            return Err(invalid("designs", "at least one design required"));
        }
        if self.policies.is_empty() {
            return Err(invalid("policies", "at least one policy required"));
        }
        if self.metrics.max_paths == 0 {
            return Err(invalid("metrics.max_paths", "must be at least 1"));
        }

        NetworkSpec::try_new(tier_specs, edges)
    }

    /// Serializes the document to its canonical JSON form: two-space
    /// indent, keys in schema order, floats in shortest round-trip form.
    /// [`from_json`](Self::from_json) recovers an equal document,
    /// bit-for-bit.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        push_json_str(&mut out, SCHEMA);
        out.push_str(",\n  \"name\": ");
        push_json_str(&mut out, &self.name);
        out.push_str(",\n  \"title\": ");
        push_json_str(&mut out, &self.title);
        out.push_str(",\n  \"description\": ");
        push_json_str(&mut out, &self.description);
        out.push_str(",\n");

        write_block(
            &mut out,
            "vulnerabilities",
            &self.vulnerabilities,
            |out, v| {
                out.push_str("{\"id\": ");
                push_json_str(out, &v.id);
                if let Some(cve) = &v.cve {
                    out.push_str(", \"cve\": ");
                    push_json_str(out, cve);
                }
                match &v.source {
                    VulnSource::Vector(s) => {
                        out.push_str(", \"vector\": ");
                        push_json_str(out, s);
                    }
                    VulnSource::Explicit {
                        impact,
                        probability,
                        base_score,
                    } => {
                        out.push_str(", \"impact\": ");
                        push_f64(out, *impact);
                        out.push_str(", \"probability\": ");
                        push_f64(out, *probability);
                        if let Some(b) = base_score {
                            out.push_str(", \"base_score\": ");
                            push_f64(out, *b);
                        }
                    }
                }
                out.push('}');
            },
        );

        write_block(&mut out, "trees", &self.trees, |out, (name, def)| {
            out.push_str("{\"name\": ");
            push_json_str(out, name);
            out.push_str(", \"tree\": ");
            write_tree(out, def);
            out.push('}');
        });

        write_block(&mut out, "tiers", &self.tiers, |out, t| {
            out.push_str("{\"name\": ");
            push_json_str(out, &t.name);
            let _ = write!(out, ", \"count\": {}, \"tree\": ", t.count);
            match &t.tree {
                Some(name) => push_json_str(out, name),
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ", \"entry\": {}, \"target\": {}, \"params\": {{",
                t.entry, t.target
            );
            push_joined(
                out,
                PARAM_KEYS.iter().zip(param_durations(&t.params)),
                |out, (k, d)| {
                    out.push('"');
                    out.push_str(k);
                    out.push_str("\": ");
                    push_f64(out, d.as_hours());
                },
            );
            out.push_str("}}");
        });

        write_block(&mut out, "edges", &self.edges, |out, (a, b)| {
            out.push('[');
            push_json_str(out, a);
            out.push_str(", ");
            push_json_str(out, b);
            out.push(']');
        });

        write_block(&mut out, "designs", &self.designs, |out, d| {
            out.push_str("{\"name\": ");
            push_json_str(out, &d.name);
            out.push_str(", \"counts\": [");
            push_joined(out, &d.counts, |out, c| {
                let _ = write!(out, "{c}");
            });
            out.push_str("]}");
        });

        out.push_str("  \"policies\": [");
        push_joined(&mut out, &self.policies, push_json_display);
        let _ = writeln!(
            out,
            "],\n  \"metrics\": {{\"or_combine\": \"{}\", \"asp\": \"{}\", \"max_paths\": {}}}",
            or_combine_token(self.metrics.or_combine),
            asp_token(self.metrics.asp),
            self.metrics.max_paths
        );
        out.push_str("}\n");
        out
    }

    /// Parses a scenario document from JSON.
    ///
    /// Accepts the canonical form plus these authoring conveniences:
    /// `description`, `designs`, `policies`, `metrics` and per-tier
    /// `params`/`tree`/`entry`/`target` may be omitted (defaults: empty
    /// description, the base-counts design, the paper's `critical>8`
    /// policy, default metrics, enterprise-default parameters, no tree,
    /// not entry, not target). Unknown keys are rejected — a typo must
    /// fail loudly, not silently fall back to a default.
    ///
    /// The returned document is fully validated (see
    /// [`to_spec`](Self::to_spec)).
    ///
    /// # Errors
    ///
    /// [`EvalError::Scenario`] with [`ScenarioError::Json`] for syntax
    /// errors and [`ScenarioError::Invalid`] for schema violations.
    pub fn from_json(text: &str) -> Result<ScenarioDoc, EvalError> {
        let root = parse_json(text).map_err(|e| {
            EvalError::Scenario(ScenarioError::Json {
                line: e.line,
                col: e.col,
                message: e.message,
            })
        })?;
        let doc = decode_doc(&root)?;
        doc.validate()?;
        Ok(doc)
    }

    /// Parses a scenario document from an already-parsed JSON value —
    /// the entry point for containers that embed a scenario inside a
    /// larger document (e.g. the `scenario` field of a `/v1/sweep`
    /// request body). Same schema rules, defaults and full validation as
    /// [`from_json`](Self::from_json).
    ///
    /// # Errors
    ///
    /// [`EvalError::Scenario`] with [`ScenarioError::Invalid`] for schema
    /// violations (syntax errors cannot occur: the input is already
    /// parsed).
    pub fn from_value(value: &Json) -> Result<ScenarioDoc, EvalError> {
        let doc = decode_doc(value)?;
        doc.validate()?;
        Ok(doc)
    }
}

/// Writes one `"key": [...]` block with one array item per line, each
/// appended to `out` by `render`.
fn write_block<T>(out: &mut String, key: &str, items: &[T], render: impl Fn(&mut String, &T)) {
    out.push_str("  \"");
    out.push_str(key);
    if items.is_empty() {
        out.push_str("\": [],\n");
        return;
    }
    out.push_str("\": [\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str("    ");
        render(out, item);
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
}

/// Appends a tree node as compact JSON (`{"vuln": id}`, `{"and": [...]}`
/// or `{"or": [...]}`).
fn write_tree(out: &mut String, def: &TreeDef) {
    let (gate, children) = match def {
        TreeDef::Vuln(id) => {
            out.push_str("{\"vuln\": ");
            push_json_str(out, id);
            out.push('}');
            return;
        }
        TreeDef::And(children) => ("{\"and\": [", children),
        TreeDef::Or(children) => ("{\"or\": [", children),
    };
    out.push_str(gate);
    push_joined(out, children, write_tree);
    out.push_str("]}");
}

/// The 13 duration parameters, in [`ServerParams`] declaration order;
/// shared by the serializer and the parser so they can never disagree.
const PARAM_KEYS: [&str; 13] = [
    "hw_mtbf_h",
    "hw_repair_h",
    "os_mtbf_h",
    "os_repair_h",
    "os_patch_h",
    "os_reboot_patch_h",
    "os_reboot_failure_h",
    "svc_mtbf_h",
    "svc_repair_h",
    "svc_patch_h",
    "svc_reboot_patch_h",
    "svc_reboot_failure_h",
    "patch_interval_h",
];

fn param_durations(p: &ServerParams) -> [Durations; 13] {
    [
        p.hw_mtbf,
        p.hw_repair,
        p.os_mtbf,
        p.os_repair,
        p.os_patch,
        p.os_reboot_patch,
        p.os_reboot_failure,
        p.svc_mtbf,
        p.svc_repair,
        p.svc_patch,
        p.svc_reboot_patch,
        p.svc_reboot_failure,
        p.patch_interval,
    ]
}

fn build_tree(
    def: &TreeDef,
    at: At<'_>,
    vuln_of: &dyn Fn(&str) -> Option<Vulnerability>,
) -> Result<AttackTree, EvalError> {
    match def {
        TreeDef::Vuln(id) => vuln_of(id)
            .map(AttackTree::leaf)
            .ok_or_else(|| invalid(at, format!("unknown vulnerability `{}`", snippet(id)))),
        TreeDef::And(children) | TreeDef::Or(children) => {
            if children.is_empty() {
                return Err(invalid(at, "a gate needs at least one child"));
            }
            let built: Vec<AttackTree> = children
                .iter()
                .map(|c| build_tree(c, at, vuln_of))
                .collect::<Result<_, _>>()?;
            Ok(match def {
                TreeDef::And(_) => AttackTree::and(built),
                _ => AttackTree::or(built),
            })
        }
    }
}

fn or_combine_token(oc: OrCombine) -> &'static str {
    match oc {
        OrCombine::Max => "max",
        OrCombine::NoisyOr => "noisy-or",
    }
}

fn asp_token(asp: AspStrategy) -> &'static str {
    match asp {
        AspStrategy::MaxPath => "max-path",
        AspStrategy::NoisyOrPaths => "noisy-or-paths",
        AspStrategy::Reliability => "reliability",
    }
}

// ---------------------------------------------------------------------------
// JSON → ScenarioDoc decoding.

/// A required object, with every present key checked against `allowed`.
fn as_obj<'a>(
    j: &'a Json,
    at: At<'_>,
    allowed: &[&str],
) -> Result<&'a [(String, Json)], EvalError> {
    let entries = j
        .as_obj()
        .ok_or_else(|| invalid(at, "expected an object"))?;
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return Err(invalid(at, format!("unknown key `{}`", snippet(k))));
        }
    }
    Ok(entries)
}

fn get<'a>(entries: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<'a>(entries: &'a [(String, Json)], at: At<'_>, key: &str) -> Result<&'a Json, EvalError> {
    get(entries, key).ok_or_else(|| invalid(at, format!("missing key `{key}`")))
}

/// The required string at `at.key`, reporting a missing key at `at`.
fn req_str<'a>(entries: &'a [(String, Json)], at: At<'_>, key: &str) -> Result<&'a str, EvalError> {
    as_str(req(entries, at, key)?, at.key(key))
}

fn as_str<'a>(j: &'a Json, at: At<'_>) -> Result<&'a str, EvalError> {
    j.as_str().ok_or_else(|| invalid(at, "expected a string"))
}

fn as_bool(j: &Json, at: At<'_>) -> Result<bool, EvalError> {
    j.as_bool().ok_or_else(|| invalid(at, "expected a boolean"))
}

fn as_f64(j: &Json, at: At<'_>) -> Result<f64, EvalError> {
    j.as_f64().ok_or_else(|| invalid(at, "expected a number"))
}

fn as_count(j: &Json, at: At<'_>, max: f64) -> Result<f64, EvalError> {
    let x = as_f64(j, at)?;
    if x.fract() != 0.0 || x < 0.0 || x > max {
        return Err(invalid(at, format!("expected an integer in 0..={max}")));
    }
    Ok(x)
}

fn as_arr<'a>(j: &'a Json, at: At<'_>) -> Result<&'a [Json], EvalError> {
    j.as_arr().ok_or_else(|| invalid(at, "expected an array"))
}

fn decode_doc(root: &Json) -> Result<ScenarioDoc, EvalError> {
    let document = At::Root("document");
    let entries = as_obj(
        root,
        document,
        &[
            "schema",
            "name",
            "title",
            "description",
            "vulnerabilities",
            "trees",
            "tiers",
            "edges",
            "designs",
            "policies",
            "metrics",
        ],
    )?;
    // A missing key is reported at `document`; a top-level field itself
    // is named without that prefix.
    let schema = as_str(req(entries, document, "schema")?, At::Root("schema"))?;
    if schema != SCHEMA {
        return Err(invalid(
            "schema",
            format!(
                "`{}` is not supported (expected `{SCHEMA}`)",
                snippet(schema)
            ),
        ));
    }
    let name = as_str(req(entries, document, "name")?, At::Root("name"))?.to_owned();
    let title = as_str(req(entries, document, "title")?, At::Root("title"))?.to_owned();
    let description = match get(entries, "description") {
        Some(j) => as_str(j, At::Root("description"))?.to_owned(),
        None => String::new(),
    };

    let at = At::Root("vulnerabilities");
    let mut vulnerabilities = Vec::new();
    for (i, j) in as_arr(req(entries, document, "vulnerabilities")?, at)?
        .iter()
        .enumerate()
    {
        vulnerabilities.push(decode_vuln(j, at.index(i))?);
    }

    let at = At::Root("trees");
    let mut trees = Vec::new();
    for (i, j) in as_arr(req(entries, document, "trees")?, at)?
        .iter()
        .enumerate()
    {
        let at = at.index(i);
        let e = as_obj(j, at, &["name", "tree"])?;
        let tree_name = req_str(e, at, "name")?.to_owned();
        let def = decode_tree(req(e, at, "tree")?, at.key("tree"))?;
        trees.push((tree_name, def));
    }

    let at = At::Root("tiers");
    let mut tiers = Vec::new();
    for (i, j) in as_arr(req(entries, document, "tiers")?, at)?
        .iter()
        .enumerate()
    {
        tiers.push(decode_tier(j, at.index(i))?);
    }

    let at = At::Root("edges");
    let mut edges = Vec::new();
    for (i, j) in as_arr(req(entries, document, "edges")?, at)?
        .iter()
        .enumerate()
    {
        let at = at.index(i);
        let pair = as_arr(j, at)?;
        if pair.len() != 2 {
            return Err(invalid(at, "expected a [from, to] pair of tier names"));
        }
        edges.push((
            as_str(&pair[0], at.index(0))?.to_owned(),
            as_str(&pair[1], at.index(1))?.to_owned(),
        ));
    }

    // Only a *missing* `designs` key defaults to the base design; an
    // explicit empty array is a schema violation (caught by `validate`),
    // the same way an explicit empty `policies` is.
    let designs_present = get(entries, "designs").is_some();
    let designs = match get(entries, "designs") {
        None => Vec::new(),
        Some(j) => {
            let at = At::Root("designs");
            let mut out = Vec::new();
            for (i, d) in as_arr(j, at)?.iter().enumerate() {
                let at = at.index(i);
                let e = as_obj(d, at, &["name", "counts"])?;
                let dname = req_str(e, at, "name")?.to_owned();
                let counts_at = at.key("counts");
                let mut counts = Vec::new();
                for (k, c) in as_arr(req(e, at, "counts")?, counts_at)?.iter().enumerate() {
                    counts.push(as_count(c, counts_at.index(k), f64::from(u32::MAX))? as u32);
                }
                out.push(Design::new(dname, counts));
            }
            out
        }
    };

    let policies = match get(entries, "policies") {
        None => vec![PatchPolicy::CriticalOnly(8.0)],
        Some(j) => {
            let at = At::Root("policies");
            let mut out = Vec::new();
            for (i, p) in as_arr(j, at)?.iter().enumerate() {
                let at = at.index(i);
                out.push(
                    as_str(p, at)?
                        .parse::<PatchPolicy>()
                        .map_err(|e| invalid(at, e.to_string()))?,
                );
            }
            out
        }
    };

    let metrics = match get(entries, "metrics") {
        None => MetricsConfig::default(),
        Some(j) => decode_metrics(j)?,
    };

    let mut doc = ScenarioDoc {
        name,
        title,
        description,
        vulnerabilities,
        trees,
        tiers,
        edges,
        designs,
        policies,
        metrics,
    };
    if !designs_present && !doc.tiers.is_empty() {
        doc.designs = vec![doc.base_design()];
    }
    Ok(doc)
}

fn decode_vuln(j: &Json, at: At<'_>) -> Result<VulnDef, EvalError> {
    let e = as_obj(
        j,
        at,
        &["id", "cve", "vector", "impact", "probability", "base_score"],
    )?;
    let id = req_str(e, at, "id")?.to_owned();
    let cve = match get(e, "cve") {
        Some(c) => Some(as_str(c, at.key("cve"))?.to_owned()),
        None => None,
    };
    let source = match (get(e, "vector"), get(e, "impact")) {
        (Some(v), None) => {
            if get(e, "probability").is_some() || get(e, "base_score").is_some() {
                return Err(invalid(
                    at,
                    "give either `vector` or explicit `impact`/`probability`, not both",
                ));
            }
            VulnSource::Vector(as_str(v, at.key("vector"))?.to_owned())
        }
        (None, Some(imp)) => VulnSource::Explicit {
            impact: as_f64(imp, at.key("impact"))?,
            probability: as_f64(req(e, at, "probability")?, at.key("probability"))?,
            base_score: match get(e, "base_score") {
                Some(b) => Some(as_f64(b, at.key("base_score"))?),
                None => None,
            },
        },
        (Some(_), Some(_)) => {
            return Err(invalid(
                at,
                "give either `vector` or explicit `impact`/`probability`, not both",
            ));
        }
        (None, None) => {
            return Err(invalid(
                at,
                "needs a `vector` or an explicit `impact`/`probability` pair",
            ));
        }
    };
    Ok(VulnDef { id, cve, source })
}

fn decode_tree(j: &Json, at: At<'_>) -> Result<TreeDef, EvalError> {
    let e = as_obj(j, at, &["vuln", "and", "or"])?;
    match (get(e, "vuln"), get(e, "and"), get(e, "or")) {
        (Some(v), None, None) => Ok(TreeDef::Vuln(as_str(v, at.key("vuln"))?.to_owned())),
        (None, Some(children), None) => Ok(TreeDef::And(decode_children(children, at.key("and"))?)),
        (None, None, Some(children)) => Ok(TreeDef::Or(decode_children(children, at.key("or"))?)),
        _ => Err(invalid(
            at,
            "a tree node is exactly one of {\"vuln\": id}, {\"and\": [...]}, {\"or\": [...]}",
        )),
    }
}

/// The children of a gate at `at` (`….and` or `….or`).
fn decode_children(j: &Json, at: At<'_>) -> Result<Vec<TreeDef>, EvalError> {
    as_arr(j, at)?
        .iter()
        .enumerate()
        .map(|(i, c)| decode_tree(c, at.index(i)))
        .collect()
}

fn decode_tier(j: &Json, at: At<'_>) -> Result<TierDef, EvalError> {
    let e = as_obj(
        j,
        at,
        &["name", "count", "tree", "entry", "target", "params"],
    )?;
    let name = req_str(e, at, "name")?.to_owned();
    let count = as_count(req(e, at, "count")?, at.key("count"), f64::from(u32::MAX))? as u32;
    let tree = match get(e, "tree") {
        None => None,
        Some(t) if t.is_null() => None,
        Some(t) => Some(as_str(t, at.key("tree"))?.to_owned()),
    };
    let entry = match get(e, "entry") {
        Some(b) => as_bool(b, at.key("entry"))?,
        None => false,
    };
    let target = match get(e, "target") {
        Some(b) => as_bool(b, at.key("target"))?,
        None => false,
    };
    let params = match get(e, "params") {
        None => ServerParams::builder(name.clone()).build(),
        Some(p) => decode_params(p, at.key("params"), &name)?,
    };
    Ok(TierDef {
        name,
        count,
        params,
        tree,
        entry,
        target,
    })
}

fn decode_params(j: &Json, at: At<'_>, tier_name: &str) -> Result<ServerParams, EvalError> {
    let e = as_obj(j, at, &PARAM_KEYS)?;
    let mut hours = [0.0f64; 13];
    for (slot, key) in hours.iter_mut().zip(PARAM_KEYS) {
        let field = at.key(key);
        let x = as_f64(req(e, at, key)?, field)?;
        if !x.is_finite() || x <= 0.0 {
            return Err(invalid(field, "a mean duration must be a positive number"));
        }
        *slot = x;
    }
    let d = |i: usize| Durations::hours(hours[i]);
    Ok(ServerParams {
        name: tier_name.to_string(),
        hw_mtbf: d(0),
        hw_repair: d(1),
        os_mtbf: d(2),
        os_repair: d(3),
        os_patch: d(4),
        os_reboot_patch: d(5),
        os_reboot_failure: d(6),
        svc_mtbf: d(7),
        svc_repair: d(8),
        svc_patch: d(9),
        svc_reboot_patch: d(10),
        svc_reboot_failure: d(11),
        patch_interval: d(12),
    })
}

fn decode_metrics(j: &Json) -> Result<MetricsConfig, EvalError> {
    let at = At::Root("metrics");
    let e = as_obj(j, at, &["or_combine", "asp", "max_paths"])?;
    let mut m = MetricsConfig::default();
    if let Some(oc) = get(e, "or_combine") {
        let at = at.key("or_combine");
        m.or_combine = match as_str(oc, at)? {
            "max" => OrCombine::Max,
            "noisy-or" => OrCombine::NoisyOr,
            other => {
                return Err(invalid(
                    at,
                    format!("`{}` is not one of max, noisy-or", snippet(other)),
                ));
            }
        };
    }
    if let Some(asp) = get(e, "asp") {
        let at = at.key("asp");
        m.asp = match as_str(asp, at)? {
            "max-path" => AspStrategy::MaxPath,
            "noisy-or-paths" => AspStrategy::NoisyOrPaths,
            "reliability" => AspStrategy::Reliability,
            other => {
                return Err(invalid(
                    at,
                    format!(
                        "`{}` is not one of max-path, noisy-or-paths, reliability",
                        snippet(other)
                    ),
                ));
            }
        };
    }
    if let Some(mp) = get(e, "max_paths") {
        let x = as_count(mp, at.key("max_paths"), 9.007_199_254_740_992e15)?;
        m.max_paths = x as usize;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_doc() -> ScenarioDoc {
        let mut doc = ScenarioDoc::new("tiny", "Tiny two-tier network");
        doc.description = "A web tier feeding a database.".into();
        doc.vulnerabilities = vec![
            VulnDef {
                id: "v-web".into(),
                cve: Some("CVE-2016-0001".into()),
                source: VulnSource::Vector("AV:N/AC:L/Au:N/C:C/I:C/A:C".into()),
            },
            VulnDef {
                id: "v-db".into(),
                cve: None,
                source: VulnSource::Explicit {
                    impact: 2.9,
                    probability: 0.86,
                    base_score: None,
                },
            },
        ];
        doc.trees = vec![
            (
                "web".into(),
                TreeDef::Or(vec![TreeDef::Vuln("v-web".into())]),
            ),
            ("db".into(), TreeDef::Or(vec![TreeDef::Vuln("v-db".into())])),
        ];
        doc.tiers = vec![
            TierDef {
                name: "web".into(),
                count: 2,
                params: ServerParams::builder("web").build(),
                tree: Some("web".into()),
                entry: true,
                target: false,
            },
            TierDef {
                name: "db".into(),
                count: 1,
                params: ServerParams::builder("db").build(),
                tree: Some("db".into()),
                entry: false,
                target: true,
            },
        ];
        doc.edges = vec![("web".into(), "db".into())];
        doc.designs = vec![doc.base_design()];
        doc
    }

    #[test]
    fn round_trips_through_canonical_json() {
        let doc = tiny_doc();
        let json = doc.to_json();
        let back = ScenarioDoc::from_json(&json).unwrap();
        assert_eq!(back, doc);
        // And the canonical form is a fixed point.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn to_spec_builds_the_expected_network() {
        let spec = tiny_doc().to_spec().unwrap();
        assert_eq!(spec.tiers().len(), 2);
        assert_eq!(spec.total_servers(), 3);
        assert_eq!(spec.edges(), [(0, 1)]);
        let harm = spec.build_harm();
        assert_eq!(harm.graph().host_count(), 3);
        // The CVE id is folded into the display id.
        let m = harm.metrics(&MetricsConfig::default());
        assert_eq!(m.exploitable_vulnerabilities, 3);
    }

    #[test]
    fn defaults_fill_in_when_optional_keys_are_missing() {
        let json = r#"{
            "schema": "redeval-scenario/1",
            "name": "mini",
            "title": "Minimal",
            "vulnerabilities": [{"id": "v", "impact": 10, "probability": 1}],
            "trees": [{"name": "t", "tree": {"vuln": "v"}}],
            "tiers": [
                {"name": "web", "count": 2, "tree": "t", "entry": true, "target": true}
            ],
            "edges": []
        }"#;
        let doc = ScenarioDoc::from_json(json).unwrap();
        assert_eq!(doc.description, "");
        assert_eq!(doc.policies, vec![PatchPolicy::CriticalOnly(8.0)]);
        assert_eq!(doc.metrics, MetricsConfig::default());
        assert_eq!(doc.designs, vec![Design::new("2 WEB", vec![2])]);
        // Omitted params are the enterprise defaults, named after the tier.
        assert_eq!(doc.tiers[0].params, ServerParams::builder("web").build());
        doc.validate().unwrap();
    }

    #[test]
    fn explicit_empty_designs_fail_instead_of_silently_defaulting() {
        // A *missing* designs key defaults to the base design; an
        // explicit `"designs": []` is a schema violation, matching the
        // behaviour of an explicit empty `policies`.
        let json = tiny_doc().to_json();
        assert!(json.contains("\"designs\": ["));
        let emptied = {
            let start = json.find("\"designs\": [").unwrap();
            let end = start + json[start..].find("],").unwrap() + 2;
            format!("{}\"designs\": [],{}", &json[..start], &json[end..])
        };
        let e = ScenarioDoc::from_json(&emptied).unwrap_err();
        assert!(
            e.to_string().contains("at least one design"),
            "expected a designs error, got: {e}"
        );
    }

    #[test]
    fn unknown_keys_and_bad_schema_fail_loudly() {
        let bad_key = tiny_doc().to_json().replace("\"title\"", "\"titel\"");
        let e = ScenarioDoc::from_json(&bad_key).unwrap_err();
        assert!(e.to_string().contains("titel"), "{e}");
        let bad_schema = tiny_doc().to_json().replace("scenario/1", "scenario/9");
        let e = ScenarioDoc::from_json(&bad_schema).unwrap_err();
        assert!(e.to_string().contains("not supported"), "{e}");
        let e = ScenarioDoc::from_json("{ nope").unwrap_err();
        assert!(matches!(
            e,
            EvalError::Scenario(ScenarioError::Json { line: 1, .. })
        ));
    }

    #[test]
    fn validation_pinpoints_the_offending_field() {
        let cases: Vec<(ScenarioDoc, &str)> = vec![
            (
                {
                    let mut d = tiny_doc();
                    d.name = "no spaces!".into();
                    d
                },
                "name",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.vulnerabilities.push(d.vulnerabilities[0].clone());
                    d
                },
                "vulnerabilities[2].id",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.trees[0].1 = TreeDef::Vuln("ghost".into());
                    d
                },
                "unknown vulnerability `ghost`",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.tiers[0].tree = Some("ghost".into());
                    d
                },
                "unknown tree `ghost`",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.tiers[0].count = 0;
                    d
                },
                "tiers[0].count",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.edges.push(("web".into(), "ghost".into()));
                    d
                },
                "edges[1]",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.designs = vec![Design::new("bad", vec![1])];
                    d
                },
                "designs[0]",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.designs = vec![Design::new("zero", vec![1, 0])];
                    d
                },
                "zero `db` servers",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.policies.clear();
                    d
                },
                "policies",
            ),
            (
                {
                    let mut d = tiny_doc();
                    d.vulnerabilities[1].source = VulnSource::Explicit {
                        impact: 11.0,
                        probability: 0.5,
                        base_score: None,
                    };
                    d
                },
                "vulnerabilities[1].impact",
            ),
        ];
        for (doc, needle) in cases {
            let e = doc.validate().unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "expected `{needle}` in `{e}`"
            );
        }
    }

    #[test]
    fn structural_network_errors_come_back_as_invalid_spec() {
        let mut no_entry = tiny_doc();
        no_entry.tiers[0].entry = false;
        assert!(matches!(
            no_entry.validate(),
            Err(EvalError::InvalidSpec(crate::error::SpecIssue::NoEntryTier))
        ));
        let mut no_target = tiny_doc();
        no_target.tiers[1].target = false;
        assert!(matches!(
            no_target.validate(),
            Err(EvalError::InvalidSpec(
                crate::error::SpecIssue::NoTargetTier
            ))
        ));
    }

    #[test]
    fn vector_and_explicit_sources_are_mutually_exclusive() {
        let json = r#"{
            "schema": "redeval-scenario/1",
            "name": "x", "title": "x",
            "vulnerabilities": [
                {"id": "v", "vector": "AV:N/AC:L/Au:N/C:C/I:C/A:C", "impact": 10}
            ],
            "trees": [], "tiers": [], "edges": []
        }"#;
        let e = ScenarioDoc::from_json(json).unwrap_err();
        assert!(e.to_string().contains("not both"), "{e}");
    }

    #[test]
    fn from_value_matches_from_json() {
        let doc = tiny_doc();
        let value = parse_json(&doc.to_json()).unwrap();
        assert_eq!(ScenarioDoc::from_value(&value).unwrap(), doc);
        // And it validates, not just decodes.
        let bad = parse_json(r#"{"schema": "redeval-scenario/1"}"#).unwrap();
        assert!(ScenarioDoc::from_value(&bad).is_err());
    }

    #[test]
    fn error_messages_cap_echoed_user_strings() {
        use crate::output::SNIPPET_MAX;
        // Every message that quotes document text must stay bounded even
        // when the document smuggles in kilobytes of junk.
        let huge = "Q".repeat(64 * 1024);
        let cases: Vec<ScenarioDoc> = vec![
            {
                let mut d = tiny_doc();
                d.name = format!("bad name {huge}");
                d
            },
            {
                let mut d = tiny_doc();
                d.trees[0].1 = TreeDef::Vuln(huge.clone());
                d
            },
            {
                let mut d = tiny_doc();
                d.tiers[0].tree = Some(huge.clone());
                d
            },
            {
                let mut d = tiny_doc();
                d.edges.push((huge.clone(), "db".into()));
                d
            },
            {
                let mut d = tiny_doc();
                d.designs = vec![Design::new(huge.clone(), vec![1])];
                d
            },
            {
                let mut d = tiny_doc();
                d.vulnerabilities[0].source = VulnSource::Vector(huge.clone());
                d
            },
        ];
        for doc in cases {
            let msg = doc.validate().unwrap_err().to_string();
            assert!(
                msg.len() < 4 * SNIPPET_MAX + 200,
                "error echoed {} bytes: {}…",
                msg.len(),
                &msg[..120.min(msg.len())]
            );
            assert!(!msg.contains(&huge[..200]), "raw input echoed back");
        }
        // Schema-level echoes (unknown keys, bad schema tag) are capped
        // too.
        let json = format!(
            "{{\"schema\": \"redeval-scenario/1\", \"name\": \"x\", \"title\": \"x\", \
             \"vulnerabilities\": [], \"trees\": [], \"tiers\": [], \"edges\": [], \
             \"{huge}\": 1}}"
        );
        let msg = ScenarioDoc::from_json(&json).unwrap_err().to_string();
        assert!(msg.len() < 4 * SNIPPET_MAX + 200, "{} bytes", msg.len());
    }

    #[test]
    fn policies_round_trip_with_exact_thresholds() {
        let mut doc = tiny_doc();
        doc.policies = vec![
            PatchPolicy::None,
            PatchPolicy::CriticalOnly(7.15),
            PatchPolicy::All,
        ];
        let back = ScenarioDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back.policies, doc.policies);
    }

    #[test]
    fn metrics_tokens_cover_every_variant() {
        for oc in [OrCombine::Max, OrCombine::NoisyOr] {
            for asp in [
                AspStrategy::MaxPath,
                AspStrategy::NoisyOrPaths,
                AspStrategy::Reliability,
            ] {
                let mut doc = tiny_doc();
                doc.metrics = MetricsConfig {
                    or_combine: oc,
                    asp,
                    max_paths: 1234,
                };
                let back = ScenarioDoc::from_json(&doc.to_json()).unwrap();
                assert_eq!(back.metrics, doc.metrics);
            }
        }
    }
}
