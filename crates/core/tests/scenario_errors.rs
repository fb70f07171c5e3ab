//! Exact error paths of the scenario decoder and validator.
//!
//! Each case takes one valid document, breaks exactly one thing in it and
//! asserts the complete `ScenarioError::Invalid { at, message }`, so a
//! change to how a path is built or rendered shows up as a string
//! difference here. Every key `decode_doc` reads appears at least once
//! (wrong type, missing, or an unknown sibling), as does every rule
//! `ScenarioDoc::to_spec` checks.

use redeval::output::{parse_json, Json};
use redeval::scenario::{ScenarioDoc, ScenarioError};
use redeval::EvalError;

/// Two tiers and every optional key, all valid.
const BASE: &str = r#"{
  "schema": "redeval-scenario/1",
  "name": "pin",
  "title": "Exact error paths",
  "description": "Two tiers, every key the decoder reads.",
  "vulnerabilities": [
    {"id": "v-web", "cve": "CVE-2016-0001", "vector": "AV:N/AC:L/Au:N/C:C/I:C/A:C"},
    {"id": "v-db", "impact": 2.9, "probability": 0.86, "base_score": 5}
  ],
  "trees": [
    {"name": "web", "tree": {"or": [{"vuln": "v-web"}, {"and": [{"vuln": "v-web"}, {"vuln": "v-db"}]}]}},
    {"name": "db", "tree": {"vuln": "v-db"}}
  ],
  "tiers": [
    {"name": "web", "count": 2, "tree": "web", "entry": true, "target": false},
    {"name": "db", "count": 1, "tree": "db", "entry": false, "target": true, "params": {
      "hw_mtbf_h": 8760, "hw_repair_h": 2, "os_mtbf_h": 1440, "os_repair_h": 1,
      "os_patch_h": 0.5, "os_reboot_patch_h": 0.2, "os_reboot_failure_h": 0.1,
      "svc_mtbf_h": 720, "svc_repair_h": 0.5, "svc_patch_h": 0.3,
      "svc_reboot_patch_h": 0.1, "svc_reboot_failure_h": 0.1, "patch_interval_h": 720}}
  ],
  "edges": [["web", "db"]],
  "designs": [{"name": "2-1", "counts": [2, 1]}],
  "policies": ["critical>8", "all"],
  "metrics": {"or_combine": "max", "asp": "max-path", "max_paths": 1000}
}"#;

/// One change to the base document. Paths are dot-separated object keys
/// and array indices (`tiers.1.params.hw_mtbf_h`); values are JSON text.
enum Edit {
    /// Replace the whole document.
    Root(&'static str),
    /// Replace the value at a path.
    Set(String, String),
    /// Delete the object entry or array element at a path.
    Remove(&'static str),
    /// Append `key: value` to the object at a path.
    Add(&'static str, &'static str, &'static str),
}

fn set(path: &str, value: &str) -> Edit {
    Edit::Set(path.to_string(), value.to_string())
}

fn json(text: &str) -> Json {
    parse_json(text).unwrap_or_else(|e| panic!("bad test JSON {text}: {e}"))
}

fn node<'a>(mut cur: &'a mut Json, path: &str) -> &'a mut Json {
    for step in path.split('.').filter(|s| !s.is_empty()) {
        cur = match cur {
            Json::Obj(entries) => {
                &mut entries
                    .iter_mut()
                    .find(|(k, _)| k == step)
                    .unwrap_or_else(|| panic!("no key `{step}` in {path}"))
                    .1
            }
            Json::Arr(items) => &mut items[step.parse::<usize>().expect("array index")],
            _ => panic!("{path} runs through a scalar"),
        };
    }
    cur
}

fn apply(edit: &Edit) -> Json {
    let mut doc = json(BASE);
    match edit {
        Edit::Root(text) => doc = json(text),
        Edit::Set(path, value) => *node(&mut doc, path) = json(value),
        Edit::Remove(path) => {
            let (parent, last) = path.rsplit_once('.').unwrap_or(("", path));
            match node(&mut doc, parent) {
                Json::Obj(entries) => entries.retain(|(k, _)| k != last),
                Json::Arr(items) => {
                    items.remove(last.parse::<usize>().expect("array index"));
                }
                _ => panic!("{path} has no container"),
            }
        }
        Edit::Add(path, key, value) => match node(&mut doc, path) {
            Json::Obj(entries) => entries.push((key.to_string(), json(value))),
            _ => panic!("{path} is not an object"),
        },
    }
    doc
}

fn invalid_of(result: Result<ScenarioDoc, EvalError>) -> (String, String) {
    match result {
        Err(EvalError::Scenario(ScenarioError::Invalid { at, message })) => (at, message),
        other => panic!("expected ScenarioError::Invalid, got {other:?}"),
    }
}

fn cases() -> Vec<(Edit, &'static str, String)> {
    let s = |x: &str| x.to_string();
    let both = s("give either `vector` or explicit `impact`/`probability`, not both");
    let neither = s("needs a `vector` or an explicit `impact`/`probability` pair");
    let count = s("expected an integer in 0..=4294967295");
    let node_shape =
        s("a tree node is exactly one of {\"vuln\": id}, {\"and\": [...]}, {\"or\": [...]}");
    let mut cases = vec![
        // The document object and its keys.
        (Edit::Root("[]"), "document", s("expected an object")),
        (
            Edit::Add("", "titel", "\"x\""),
            "document",
            s("unknown key `titel`"),
        ),
        (
            Edit::Remove("schema"),
            "document",
            s("missing key `schema`"),
        ),
        (Edit::Remove("name"), "document", s("missing key `name`")),
        (Edit::Remove("title"), "document", s("missing key `title`")),
        (
            Edit::Remove("vulnerabilities"),
            "document",
            s("missing key `vulnerabilities`"),
        ),
        (Edit::Remove("trees"), "document", s("missing key `trees`")),
        (Edit::Remove("tiers"), "document", s("missing key `tiers`")),
        (Edit::Remove("edges"), "document", s("missing key `edges`")),
        (set("schema", "1"), "schema", s("expected a string")),
        (
            set("schema", "\"redeval-scenario/9\""),
            "schema",
            s("`redeval-scenario/9` is not supported (expected `redeval-scenario/1`)"),
        ),
        (set("name", "1"), "name", s("expected a string")),
        (
            set("name", "\"no spaces!\""),
            "name",
            s("`no spaces!` is not a valid scenario name (use [a-zA-Z0-9_-]+)"),
        ),
        (set("title", "null"), "title", s("expected a string")),
        (
            set("description", "[]"),
            "description",
            s("expected a string"),
        ),
        (
            set("vulnerabilities", "{}"),
            "vulnerabilities",
            s("expected an array"),
        ),
        (set("trees", "{}"), "trees", s("expected an array")),
        (set("tiers", "{}"), "tiers", s("expected an array")),
        (set("edges", "{}"), "edges", s("expected an array")),
        (set("designs", "{}"), "designs", s("expected an array")),
        (set("policies", "{}"), "policies", s("expected an array")),
        // Vulnerabilities.
        (
            set("vulnerabilities.0", "\"v\""),
            "vulnerabilities[0]",
            s("expected an object"),
        ),
        (
            Edit::Add("vulnerabilities.0", "cvss", "1"),
            "vulnerabilities[0]",
            s("unknown key `cvss`"),
        ),
        (
            Edit::Remove("vulnerabilities.0.id"),
            "vulnerabilities[0]",
            s("missing key `id`"),
        ),
        (
            set("vulnerabilities.0.id", "7"),
            "vulnerabilities[0].id",
            s("expected a string"),
        ),
        (
            set("vulnerabilities.0.cve", "7"),
            "vulnerabilities[0].cve",
            s("expected a string"),
        ),
        (
            set("vulnerabilities.0.vector", "7"),
            "vulnerabilities[0].vector",
            s("expected a string"),
        ),
        (
            Edit::Add("vulnerabilities.0", "impact", "10"),
            "vulnerabilities[0]",
            both.clone(),
        ),
        (
            Edit::Add("vulnerabilities.0", "probability", "1"),
            "vulnerabilities[0]",
            both.clone(),
        ),
        (
            Edit::Add("vulnerabilities.0", "base_score", "1"),
            "vulnerabilities[0]",
            both,
        ),
        (
            Edit::Remove("vulnerabilities.0.vector"),
            "vulnerabilities[0]",
            neither.clone(),
        ),
        (
            Edit::Remove("vulnerabilities.1.impact"),
            "vulnerabilities[1]",
            neither,
        ),
        (
            set("vulnerabilities.1.impact", "\"high\""),
            "vulnerabilities[1].impact",
            s("expected a number"),
        ),
        (
            Edit::Remove("vulnerabilities.1.probability"),
            "vulnerabilities[1]",
            s("missing key `probability`"),
        ),
        (
            set("vulnerabilities.1.probability", "true"),
            "vulnerabilities[1].probability",
            s("expected a number"),
        ),
        (
            set("vulnerabilities.1.base_score", "null"),
            "vulnerabilities[1].base_score",
            s("expected a number"),
        ),
        (
            set("vulnerabilities.0.vector", "\"AV:X/AC:L/Au:N/C:C/I:C/A:C\""),
            "vulnerabilities[0].vector",
            s("`AV:X/AC:L/Au:N/C:C/I:C/A:C`: invalid value `X` for metric `AV`"),
        ),
        (
            set("vulnerabilities.1.impact", "11"),
            "vulnerabilities[1].impact",
            s("11 outside 0..=10"),
        ),
        (
            set("vulnerabilities.1.probability", "1.5"),
            "vulnerabilities[1].probability",
            s("1.5 outside 0..=1"),
        ),
        (
            set("vulnerabilities.1.base_score", "-1"),
            "vulnerabilities[1].base_score",
            s("-1 outside 0..=10"),
        ),
        (
            set("vulnerabilities.1.id", "\"v-web\""),
            "vulnerabilities[1].id",
            s("duplicate vulnerability id `v-web`"),
        ),
        (
            set("vulnerabilities.0.id", "\"\""),
            "vulnerabilities[0].id",
            s("id must not be empty"),
        ),
        // Trees.
        (set("trees.0", "[]"), "trees[0]", s("expected an object")),
        (
            Edit::Add("trees.0", "kind", "1"),
            "trees[0]",
            s("unknown key `kind`"),
        ),
        (
            Edit::Remove("trees.0.name"),
            "trees[0]",
            s("missing key `name`"),
        ),
        (
            set("trees.0.name", "false"),
            "trees[0].name",
            s("expected a string"),
        ),
        (
            Edit::Remove("trees.0.tree"),
            "trees[0]",
            s("missing key `tree`"),
        ),
        (
            set("trees.0.tree", "\"v-web\""),
            "trees[0].tree",
            s("expected an object"),
        ),
        (
            Edit::Add("trees.0.tree", "xor", "[]"),
            "trees[0].tree",
            s("unknown key `xor`"),
        ),
        (
            Edit::Add("trees.0.tree", "vuln", "\"v-web\""),
            "trees[0].tree",
            node_shape.clone(),
        ),
        (set("trees.0.tree", "{}"), "trees[0].tree", node_shape),
        (
            set("trees.0.tree.or", "{}"),
            "trees[0].tree.or",
            s("expected an array"),
        ),
        (
            set("trees.0.tree.or.0.vuln", "3"),
            "trees[0].tree.or[0].vuln",
            s("expected a string"),
        ),
        (
            set("trees.0.tree.or.1.and.1", "null"),
            "trees[0].tree.or[1].and[1]",
            s("expected an object"),
        ),
        (
            set("trees.0.tree.or.1.and.0.vuln", "\"ghost\""),
            "trees[web]",
            s("unknown vulnerability `ghost`"),
        ),
        (
            set("trees.0.tree.or.1.and", "[]"),
            "trees[web]",
            s("a gate needs at least one child"),
        ),
        (
            set(
                "trees.1",
                r#"{"name": "d\"b\n", "tree": {"vuln": "ghost"}}"#,
            ),
            r#"trees[d\"b\n]"#,
            s("unknown vulnerability `ghost`"),
        ),
        (
            set(
                "trees.1",
                &format!(r#"{{"name": "{}", "tree": {{"or": []}}}}"#, "x".repeat(60)),
            ),
            // The name is capped like any echoed text.
            "trees[xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx…]",
            s("a gate needs at least one child"),
        ),
        (
            set("trees.1.name", "\"web\""),
            "trees",
            s("duplicate tree name `web`"),
        ),
        (
            set("trees.0.name", "\"\""),
            "trees",
            s("tree name must not be empty"),
        ),
        // Tiers.
        (set("tiers.0", "1"), "tiers[0]", s("expected an object")),
        (
            Edit::Add("tiers.0", "replicas", "2"),
            "tiers[0]",
            s("unknown key `replicas`"),
        ),
        (
            Edit::Remove("tiers.0.name"),
            "tiers[0]",
            s("missing key `name`"),
        ),
        (
            set("tiers.0.name", "0"),
            "tiers[0].name",
            s("expected a string"),
        ),
        (
            Edit::Remove("tiers.0.count"),
            "tiers[0]",
            s("missing key `count`"),
        ),
        (
            set("tiers.0.count", "\"2\""),
            "tiers[0].count",
            s("expected a number"),
        ),
        (set("tiers.0.count", "1.5"), "tiers[0].count", count.clone()),
        (set("tiers.0.count", "-1"), "tiers[0].count", count.clone()),
        (
            set("tiers.0.count", "4294967296"),
            "tiers[0].count",
            count.clone(),
        ),
        (
            set("tiers.0.tree", "1"),
            "tiers[0].tree",
            s("expected a string"),
        ),
        (
            set("tiers.0.entry", "\"yes\""),
            "tiers[0].entry",
            s("expected a boolean"),
        ),
        (
            set("tiers.1.target", "1"),
            "tiers[1].target",
            s("expected a boolean"),
        ),
        (
            set("tiers.1.params", "[]"),
            "tiers[1].params",
            s("expected an object"),
        ),
        (
            Edit::Add("tiers.1.params", "mtbf_h", "1"),
            "tiers[1].params",
            s("unknown key `mtbf_h`"),
        ),
        (
            Edit::Remove("tiers.1.params.os_patch_h"),
            "tiers[1].params",
            s("missing key `os_patch_h`"),
        ),
        (
            set("tiers.1.params.svc_patch_h", "\"1h\""),
            "tiers[1].params.svc_patch_h",
            s("expected a number"),
        ),
        (
            set("tiers.0.count", "0"),
            "tiers[0].count",
            s("a tier needs at least one server"),
        ),
        (
            set("tiers.0.tree", "\"ghost\""),
            "tiers[0].tree",
            s("unknown tree `ghost`"),
        ),
        (
            set("tiers.1.name", "\"web\""),
            "tiers[1].name",
            s("duplicate tier name `web`"),
        ),
        (
            set("tiers.0.name", "\"\""),
            "tiers[0].name",
            s("tier name must not be empty"),
        ),
        // Edges.
        (
            set("edges.0", "\"web\""),
            "edges[0]",
            s("expected an array"),
        ),
        (
            set("edges.0", "[\"web\"]"),
            "edges[0]",
            s("expected a [from, to] pair of tier names"),
        ),
        (set("edges.0.0", "1"), "edges[0][0]", s("expected a string")),
        (
            set("edges.0.1", "null"),
            "edges[0][1]",
            s("expected a string"),
        ),
        (
            set("edges.0.1", "\"ghost\""),
            "edges[0]",
            s("unknown tier `ghost`"),
        ),
        // Designs.
        (
            set("designs.0", "[2, 1]"),
            "designs[0]",
            s("expected an object"),
        ),
        (
            Edit::Add("designs.0", "policy", "\"all\""),
            "designs[0]",
            s("unknown key `policy`"),
        ),
        (
            Edit::Remove("designs.0.name"),
            "designs[0]",
            s("missing key `name`"),
        ),
        (
            set("designs.0.name", "21"),
            "designs[0].name",
            s("expected a string"),
        ),
        (
            Edit::Remove("designs.0.counts"),
            "designs[0]",
            s("missing key `counts`"),
        ),
        (
            set("designs.0.counts", "\"2-1\""),
            "designs[0].counts",
            s("expected an array"),
        ),
        (
            set("designs.0.counts.0", "\"2\""),
            "designs[0].counts[0]",
            s("expected a number"),
        ),
        (
            set("designs.0.counts.1", "1.5"),
            "designs[0].counts[1]",
            count,
        ),
        (
            set("designs.0.counts", "[2]"),
            "designs[0]",
            s("design `2-1` has 1 counts, the scenario has 2 tiers"),
        ),
        (
            set("designs.0.counts.1", "0"),
            "designs[0]",
            s("design `2-1` asks for zero `db` servers"),
        ),
        (
            set("designs", "[]"),
            "designs",
            s("at least one design required"),
        ),
        // Policies.
        (
            set("policies.1", "8"),
            "policies[1]",
            s("expected a string"),
        ),
        (
            set("policies.1", "\"sometimes\""),
            "policies[1]",
            s(
                "unknown patch policy `sometimes` (expected `none`, `all` or `critical>T` \
               with a CVSS threshold T)",
            ),
        ),
        (
            set("policies", "[]"),
            "policies",
            s("at least one policy required"),
        ),
        // Metrics.
        (set("metrics", "[]"), "metrics", s("expected an object")),
        (
            Edit::Add("metrics", "depth", "3"),
            "metrics",
            s("unknown key `depth`"),
        ),
        (
            set("metrics.or_combine", "1"),
            "metrics.or_combine",
            s("expected a string"),
        ),
        (
            set("metrics.or_combine", "\"min\""),
            "metrics.or_combine",
            s("`min` is not one of max, noisy-or"),
        ),
        (
            set("metrics.asp", "null"),
            "metrics.asp",
            s("expected a string"),
        ),
        (
            set("metrics.asp", "\"avg\""),
            "metrics.asp",
            s("`avg` is not one of max-path, noisy-or-paths, reliability"),
        ),
        (
            set("metrics.max_paths", "\"many\""),
            "metrics.max_paths",
            s("expected a number"),
        ),
        (
            set("metrics.max_paths", "-3"),
            "metrics.max_paths",
            s("expected an integer in 0..=9007199254740992"),
        ),
        (
            set("metrics.max_paths", "0"),
            "metrics.max_paths",
            s("must be at least 1"),
        ),
    ];
    // Each of the 13 rate parameters, non-positive.
    const PARAM_PATHS: [&str; 13] = [
        "tiers[1].params.hw_mtbf_h",
        "tiers[1].params.hw_repair_h",
        "tiers[1].params.os_mtbf_h",
        "tiers[1].params.os_repair_h",
        "tiers[1].params.os_patch_h",
        "tiers[1].params.os_reboot_patch_h",
        "tiers[1].params.os_reboot_failure_h",
        "tiers[1].params.svc_mtbf_h",
        "tiers[1].params.svc_repair_h",
        "tiers[1].params.svc_patch_h",
        "tiers[1].params.svc_reboot_patch_h",
        "tiers[1].params.svc_reboot_failure_h",
        "tiers[1].params.patch_interval_h",
    ];
    for (i, at) in PARAM_PATHS.into_iter().enumerate() {
        let key = at.rsplit('.').next().expect("a dotted path");
        cases.push((
            set(
                &format!("tiers.1.params.{key}"),
                if i % 2 == 0 { "0" } else { "-1.5" },
            ),
            at,
            s("a mean duration must be a positive number"),
        ));
    }
    cases
}

#[test]
fn the_base_document_is_valid() {
    let doc = ScenarioDoc::from_value(&json(BASE)).unwrap();
    assert_eq!(doc.tiers.len(), 2);
    assert_eq!(ScenarioDoc::from_json(BASE).unwrap(), doc);
}

#[test]
fn every_broken_field_reports_its_exact_path_and_message() {
    let mut failures = Vec::new();
    for (edit, at, message) in cases() {
        let doc = apply(&edit);
        let want = (at.to_string(), message);
        let got = invalid_of(ScenarioDoc::from_value(&doc));
        // The text path decodes the same value the same way.
        assert_eq!(invalid_of(ScenarioDoc::from_json(&doc.to_compact())), got);
        if got != want {
            failures.push(format!("want {want:?}\n     got {got:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
