//! The append-only JSON writers against the `format!`-based serializers
//! they replaced, byte for byte.
//!
//! The oracles below are the earlier bodies of `Report::to_json`,
//! `Json::to_compact`, `cache_key_bytes` and `ScenarioDoc::to_json`, with
//! their own copies of the earlier `json_escape` and `fmt_f64`, so a
//! change to the library's escaping or float spelling shows up here as a
//! byte difference. The library keeps one writer; the oracles live only
//! in this test.
//!
//! Inputs are adversarial: every control byte, `"`, `\`, DEL,
//! multi-byte UTF-8 and emoji in every string; ±0, subnormals,
//! `f64::MIN_POSITIVE`, ±`f64::MAX`, NaN and ±∞ among the floats;
//! `i64::MIN` and `i64::MAX` among the integers.

use std::fmt::Write as _;

use proptest::prelude::*;
use redeval::output::{
    cache_key_bytes, fmt_f64, json_escape, push_json_f64, push_json_str, Item, Json, Report,
    Series, Table, Value,
};
use redeval::scenario::{builtin, generate, ScenarioDoc, TierDef, TreeDef, VulnDef, VulnSource};
use redeval::{Design, Durations, PatchPolicy, ServerParams};
use redeval_harm::{AspStrategy, MetricsConfig, OrCombine};

// ---------------------------------------------------------------------------
// Oracles: the serializers as they were, one `format!` per value.

fn oracle_fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "Infinity".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Infinity".to_string()
    } else {
        format!("{x}")
    }
}

fn oracle_json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn oracle_value_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Num(x) if x.is_finite() => oracle_fmt_f64(*x),
        Value::Num(x) => format!("\"{}\"", oracle_fmt_f64(*x)),
        Value::Str(s) => format!("\"{}\"", oracle_json_escape(s)),
    }
}

fn oracle_report_json(r: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"schema\": \"{}\",",
        oracle_json_escape(redeval::output::SCHEMA)
    );
    let _ = writeln!(out, "  \"report\": \"{}\",", oracle_json_escape(&r.name));
    let _ = writeln!(out, "  \"title\": \"{}\",", oracle_json_escape(&r.title));
    let _ = writeln!(out, "  \"ok\": {},", r.ok);
    out.push_str("  \"items\": [");
    for (i, item) in r.items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        match item {
            Item::Note(text) => {
                let _ = write!(
                    out,
                    "    {{\"kind\": \"note\", \"text\": \"{}\"}}",
                    oracle_json_escape(text)
                );
            }
            Item::Keys(entries) => {
                out.push_str("    {\"kind\": \"keys\", \"entries\": {");
                for (j, (k, v)) in entries.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "\"{}\": {}",
                        oracle_json_escape(k),
                        oracle_value_json(v)
                    );
                }
                out.push_str("}}");
            }
            Item::Table(t) => {
                let _ = write!(
                    out,
                    "    {{\"kind\": \"table\", \"name\": \"{}\", \"columns\": [{}], \"rows\": [",
                    oracle_json_escape(&t.name),
                    t.columns
                        .iter()
                        .map(|c| format!("\"{}\"", oracle_json_escape(c)))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                for (j, row) in t.rows.iter().enumerate() {
                    out.push_str(if j == 0 { "\n" } else { ",\n" });
                    let _ = write!(
                        out,
                        "      [{}]",
                        row.iter()
                            .map(oracle_value_json)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
                if t.rows.is_empty() {
                    out.push_str("]}");
                } else {
                    out.push_str("\n    ]}");
                }
            }
            Item::Series(s) => {
                let _ = write!(
                    out,
                    "    {{\"kind\": \"series\", \"name\": \"{}\", \"index\": [{}], \"values\": [{}]}}",
                    oracle_json_escape(&s.name),
                    s.index
                        .iter()
                        .map(|l| format!("\"{}\"", oracle_json_escape(l)))
                        .collect::<Vec<_>>()
                        .join(", "),
                    s.values
                        .iter()
                        .map(|&v| oracle_value_json(&Value::Num(v)))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
    }
    if r.items.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

fn oracle_compact(j: &Json) -> String {
    match j {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) if x.is_finite() => oracle_fmt_f64(*x),
        Json::Num(x) => format!("\"{}\"", oracle_fmt_f64(*x)),
        Json::Str(s) => format!("\"{}\"", oracle_json_escape(s)),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(oracle_compact).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(entries) => {
            let inner: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", oracle_json_escape(k), oracle_compact(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

fn oracle_cache_key_bytes(kind: &str, params: &Json, canonical_body: &str) -> Vec<u8> {
    format!(
        "{{\"kind\": \"{}\", \"params\": {}, \"body\": {}}}",
        oracle_json_escape(kind),
        oracle_compact(params),
        canonical_body
    )
    .into_bytes()
}

fn oracle_write_block<T>(out: &mut String, key: &str, items: &[T], render: impl Fn(&T) -> String) {
    if items.is_empty() {
        let _ = writeln!(out, "  \"{key}\": [],");
        return;
    }
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, item) in items.iter().enumerate() {
        let sep = if i + 1 < items.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{sep}", render(item));
    }
    let _ = writeln!(out, "  ],");
}

fn oracle_tree_json(def: &TreeDef) -> String {
    match def {
        TreeDef::Vuln(id) => format!("{{\"vuln\": \"{}\"}}", oracle_json_escape(id)),
        TreeDef::And(children) => format!(
            "{{\"and\": [{}]}}",
            children
                .iter()
                .map(oracle_tree_json)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        TreeDef::Or(children) => format!(
            "{{\"or\": [{}]}}",
            children
                .iter()
                .map(oracle_tree_json)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

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

fn oracle_params_json(p: &ServerParams) -> String {
    let durations = [
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
    ];
    let fields: Vec<String> = PARAM_KEYS
        .iter()
        .zip(durations)
        .map(|(k, d)| format!("\"{k}\": {}", oracle_fmt_f64(d.as_hours())))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn oracle_scenario_json(doc: &ScenarioDoc) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"schema\": \"{}\",",
        oracle_json_escape(redeval::scenario::SCHEMA)
    );
    let _ = writeln!(out, "  \"name\": \"{}\",", oracle_json_escape(&doc.name));
    let _ = writeln!(out, "  \"title\": \"{}\",", oracle_json_escape(&doc.title));
    let _ = writeln!(
        out,
        "  \"description\": \"{}\",",
        oracle_json_escape(&doc.description)
    );
    oracle_write_block(&mut out, "vulnerabilities", &doc.vulnerabilities, |v| {
        let mut line = format!("{{\"id\": \"{}\"", oracle_json_escape(&v.id));
        if let Some(cve) = &v.cve {
            let _ = write!(line, ", \"cve\": \"{}\"", oracle_json_escape(cve));
        }
        match &v.source {
            VulnSource::Vector(s) => {
                let _ = write!(line, ", \"vector\": \"{}\"", oracle_json_escape(s));
            }
            VulnSource::Explicit {
                impact,
                probability,
                base_score,
            } => {
                let _ = write!(
                    line,
                    ", \"impact\": {}, \"probability\": {}",
                    oracle_fmt_f64(*impact),
                    oracle_fmt_f64(*probability)
                );
                if let Some(b) = base_score {
                    let _ = write!(line, ", \"base_score\": {}", oracle_fmt_f64(*b));
                }
            }
        }
        line.push('}');
        line
    });
    oracle_write_block(&mut out, "trees", &doc.trees, |(name, def)| {
        format!(
            "{{\"name\": \"{}\", \"tree\": {}}}",
            oracle_json_escape(name),
            oracle_tree_json(def)
        )
    });
    oracle_write_block(&mut out, "tiers", &doc.tiers, |t| {
        let tree = match &t.tree {
            Some(name) => format!("\"{}\"", oracle_json_escape(name)),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\": \"{}\", \"count\": {}, \"tree\": {}, \"entry\": {}, \
             \"target\": {}, \"params\": {}}}",
            oracle_json_escape(&t.name),
            t.count,
            tree,
            t.entry,
            t.target,
            oracle_params_json(&t.params)
        )
    });
    oracle_write_block(&mut out, "edges", &doc.edges, |(a, b)| {
        format!(
            "[\"{}\", \"{}\"]",
            oracle_json_escape(a),
            oracle_json_escape(b)
        )
    });
    oracle_write_block(&mut out, "designs", &doc.designs, |d| {
        format!(
            "{{\"name\": \"{}\", \"counts\": [{}]}}",
            oracle_json_escape(&d.name),
            d.counts
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    });
    let policies: Vec<String> = doc
        .policies
        .iter()
        .map(|p| format!("\"{}\"", oracle_json_escape(&p.to_string())))
        .collect();
    let _ = writeln!(out, "  \"policies\": [{}],", policies.join(", "));
    let or_combine = match doc.metrics.or_combine {
        OrCombine::Max => "max",
        OrCombine::NoisyOr => "noisy-or",
    };
    let asp = match doc.metrics.asp {
        AspStrategy::MaxPath => "max-path",
        AspStrategy::NoisyOrPaths => "noisy-or-paths",
        AspStrategy::Reliability => "reliability",
    };
    let _ = writeln!(
        out,
        "  \"metrics\": {{\"or_combine\": \"{}\", \"asp\": \"{}\", \"max_paths\": {}}}",
        or_combine, asp, doc.metrics.max_paths
    );
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------------
// Adversarial inputs.

/// String pieces: every control byte, the two JSON specials, DEL, plain
/// ASCII, and 2-, 3- and 4-byte UTF-8 (emoji included).
fn atoms() -> Vec<String> {
    let mut atoms: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
    for s in [
        "\"",
        "\\",
        "\u{7f}",
        "a",
        "Z",
        " ",
        "/",
        "é",
        "∑",
        "😀",
        "👩‍💻",
        "\u{2028}",
        "\\u0041",
        "tier",
    ] {
        atoms.push(s.to_string());
    }
    atoms
}

fn any_text() -> BoxedStrategy<String> {
    let atoms = atoms();
    let n = atoms.len();
    prop::collection::vec(0..n, 0..10)
        .prop_map(move |picks| picks.iter().map(|&i| atoms[i].as_str()).collect())
        .boxed()
}

/// The floats a canonical writer must spell exactly.
const SPECIAL_FLOATS: [f64; 19] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308, // largest subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.1,
    1.0 / 3.0,
    1e21,
    1e-7,
    0.99707,
    1.0,
    -3.0,
    720.0,
];

fn any_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        (0..SPECIAL_FLOATS.len()).prop_map(|i| SPECIAL_FLOATS[i]),
        (0u64..u64::MAX).prop_map(f64::from_bits),
        -1e6f64..1e6,
    ]
    .boxed()
}

fn any_i64() -> BoxedStrategy<i64> {
    prop_oneof![
        (0usize..5).prop_map(|i| [i64::MIN, i64::MAX, 0, -1, 1][i]),
        (0u64..u64::MAX).prop_map(|b| b as i64),
    ]
    .boxed()
}

fn any_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        any_i64().prop_map(Value::Int),
        any_f64().prop_map(Value::Num),
        any_text().prop_map(Value::Str),
    ]
    .boxed()
}

fn any_item() -> BoxedStrategy<Item> {
    let table = (
        any_text(),
        prop::collection::vec(any_text(), 1..4),
        prop::collection::vec(prop::collection::vec(any_value(), 4..5), 0..4),
    )
        .prop_map(|(name, columns, rows)| {
            let mut t = Table::new(name, columns);
            let width = t.columns.len();
            for row in rows {
                t.add_row(row.into_iter().take(width).collect());
            }
            Item::Table(t)
        });
    let series = prop::collection::vec((any_text(), any_f64()), 0..5).prop_map(|points| {
        let (index, values) = points.into_iter().unzip();
        Item::Series(Series::new("s", index, values))
    });
    prop_oneof![
        any_text().prop_map(Item::Note),
        prop::collection::vec((any_text(), any_value()), 0..5).prop_map(Item::Keys),
        table,
        series,
    ]
    .boxed()
}

fn any_report() -> BoxedStrategy<Report> {
    (
        any_text(),
        any_text(),
        (0u8..2),
        prop::collection::vec(any_item(), 0..6),
    )
        .prop_map(|(name, title, ok, items)| Report {
            name,
            title,
            ok: ok == 1,
            items,
        })
        .boxed()
}

fn any_json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        (0u8..2).prop_map(|b| Json::Bool(b == 1)),
        any_f64().prop_map(Json::Num),
        any_text().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((any_text(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

fn any_tree() -> BoxedStrategy<TreeDef> {
    any_text()
        .prop_map(TreeDef::Vuln)
        .prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..3).prop_map(TreeDef::And),
                prop::collection::vec(inner, 0..3).prop_map(TreeDef::Or),
            ]
        })
}

/// A positive finite float, the domain of `Durations` (subnormals and
/// `f64::MAX` included).
fn any_duration() -> BoxedStrategy<f64> {
    any_f64()
        .prop_map(|x| {
            let x = x.abs();
            if x.is_finite() && x > 0.0 {
                x
            } else {
                f64::MIN_POSITIVE
            }
        })
        .boxed()
}

fn any_params() -> BoxedStrategy<ServerParams> {
    prop::collection::vec(any_duration(), 13..14)
        .prop_map(|h| {
            let d = |i: usize| Durations::hours(h[i]);
            ServerParams {
                name: String::new(),
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
            }
        })
        .boxed()
}

fn any_vuln() -> BoxedStrategy<VulnDef> {
    let source = prop_oneof![
        any_text().prop_map(VulnSource::Vector),
        (any_f64(), any_f64()).prop_map(|(impact, probability)| VulnSource::Explicit {
            impact,
            probability,
            base_score: None,
        }),
        (any_f64(), any_f64(), any_f64()).prop_map(|(impact, probability, b)| {
            VulnSource::Explicit {
                impact,
                probability,
                base_score: Some(b),
            }
        }),
    ];
    (any_text(), (0u8..2, any_text()), source)
        .prop_map(|(id, (has_cve, cve), source)| VulnDef {
            id,
            cve: (has_cve == 1).then_some(cve),
            source,
        })
        .boxed()
}

fn any_tier() -> BoxedStrategy<TierDef> {
    (
        any_text(),
        (0u64..u64::from(u32::MAX) + 1),
        any_params(),
        (0u8..2, any_text()),
        (0u8..2, 0u8..2),
    )
        .prop_map(
            |(name, count, params, (has_tree, tree), (entry, target))| TierDef {
                name,
                count: count as u32,
                params,
                tree: (has_tree == 1).then_some(tree),
                entry: entry == 1,
                target: target == 1,
            },
        )
        .boxed()
}

fn any_policy() -> BoxedStrategy<PatchPolicy> {
    prop_oneof![
        Just(PatchPolicy::None),
        Just(PatchPolicy::All),
        any_f64().prop_map(PatchPolicy::CriticalOnly),
    ]
    .boxed()
}

fn any_metrics() -> BoxedStrategy<MetricsConfig> {
    (0u8..2, 0u8..3, 0u64..u64::MAX)
        .prop_map(|(oc, asp, max_paths)| MetricsConfig {
            or_combine: [OrCombine::Max, OrCombine::NoisyOr][usize::from(oc)],
            asp: [
                AspStrategy::MaxPath,
                AspStrategy::NoisyOrPaths,
                AspStrategy::Reliability,
            ][usize::from(asp)],
            max_paths: max_paths as usize,
        })
        .boxed()
}

fn any_doc() -> BoxedStrategy<ScenarioDoc> {
    (
        (any_text(), any_text(), any_text()),
        prop::collection::vec(any_vuln(), 0..4),
        prop::collection::vec((any_text(), any_tree()), 0..3),
        prop::collection::vec(any_tier(), 0..4),
        prop::collection::vec((any_text(), any_text()), 0..3),
        prop::collection::vec(
            (any_text(), prop::collection::vec(0u32..u32::MAX, 0..4)),
            0..3,
        ),
        prop::collection::vec(any_policy(), 0..3),
        any_metrics(),
    )
        .prop_map(
            |(
                (name, title, description),
                vulns,
                trees,
                tiers,
                edges,
                designs,
                policies,
                metrics,
            )| {
                ScenarioDoc {
                    name,
                    title,
                    description,
                    vulnerabilities: vulns,
                    trees,
                    tiers,
                    edges,
                    designs: designs
                        .into_iter()
                        .map(|(name, counts)| Design::new(name, counts))
                        .collect(),
                    policies,
                    metrics,
                }
            },
        )
        .boxed()
}

// ---------------------------------------------------------------------------
// The contracts.

#[test]
fn escape_and_float_wrappers_match_the_oracles() {
    for atom in atoms() {
        assert_eq!(json_escape(&atom), oracle_json_escape(&atom), "{atom:?}");
        let mut quoted = String::new();
        push_json_str(&mut quoted, &atom);
        assert_eq!(quoted, format!("\"{}\"", oracle_json_escape(&atom)));
    }
    let all: String = atoms().concat();
    assert_eq!(json_escape(&all), oracle_json_escape(&all));
    for x in SPECIAL_FLOATS {
        assert_eq!(fmt_f64(x), oracle_fmt_f64(x), "{x:?}");
        let mut out = String::new();
        push_json_f64(&mut out, x);
        assert_eq!(out, oracle_value_json(&Value::Num(x)), "{x:?}");
    }
}

#[test]
fn every_builtin_and_generated_document_serializes_as_before() {
    for entry in builtin::BUILTINS {
        let doc = (entry.build)();
        assert_eq!(doc.to_json(), oracle_scenario_json(&doc), "{}", doc.name);
    }
    for family in generate::FAMILIES {
        let doc = generate::generate(family, &generate::GenParams::default(), 7);
        assert_eq!(doc.to_json(), oracle_scenario_json(&doc), "{}", doc.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn report_json_matches_the_oracle(report in any_report()) {
        prop_assert_eq!(report.to_json(), oracle_report_json(&report));
    }

    #[test]
    fn scenario_json_matches_the_oracle(doc in any_doc()) {
        prop_assert_eq!(doc.to_json(), oracle_scenario_json(&doc));
    }

    #[test]
    fn compact_json_and_cache_keys_match_the_oracle(
        kind in any_text(),
        params in any_json(),
        body in any_text(),
    ) {
        prop_assert_eq!(params.to_compact(), oracle_compact(&params));
        prop_assert_eq!(
            cache_key_bytes(&kind, &params, &body),
            oracle_cache_key_bytes(&kind, &params, &body)
        );
    }
}
