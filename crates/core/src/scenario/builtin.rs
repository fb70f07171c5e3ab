//! The bundled scenario gallery.
//!
//! [`paper_case_study`] is the reference document: the paper's Figure-2
//! network expressed as data. [`case_study::network`]
//! is built *from* it, so every golden report continuously proves that the
//! scenario path reproduces the paper bit-for-bit. The other entries open
//! non-paper workloads — deeper stacks, multiple entry and target tiers,
//! branching topologies — all runnable through
//! [`Sweep::from_scenario`](crate::Sweep::from_scenario) and the
//! `redeval eval --scenario` CLI without recompiling anything.

use redeval_avail::{Durations, ServerParams};
use redeval_harm::MetricsConfig;

use crate::case_study;
use crate::spec::Design;
use crate::PatchPolicy;

use super::{ScenarioDoc, TierDef, TreeDef, VulnDef, VulnSource};

/// One gallery entry: machine name, one-line description and the builder.
#[derive(Debug, Clone, Copy)]
pub struct BuiltinScenario {
    /// Machine name (CLI key and export-file stem).
    pub name: &'static str,
    /// One-line description (shown by `redeval scenario list`).
    pub about: &'static str,
    /// Builds the document.
    pub build: fn() -> ScenarioDoc,
}

/// Every bundled scenario, in gallery order.
pub const BUILTINS: &[BuiltinScenario] = &[
    BuiltinScenario {
        name: "paper_case_study",
        about: "the paper's Figure-2 network (1 DNS + 2 WEB + 2 APP + 1 DB), Tables I/IV data",
        build: paper_case_study,
    },
    BuiltinScenario {
        name: "ecommerce",
        about: "six-tier e-commerce stack (CDN to database) with a vuln-free cache tier",
        build: ecommerce,
    },
    BuiltinScenario {
        name: "iot_fleet",
        about: "IoT sensor fleet with two entry tiers and two attack targets",
        build: iot_fleet,
    },
    BuiltinScenario {
        name: "microservices_mesh",
        about: "seven-tier microservice mesh with a branching call graph",
        build: microservices_mesh,
    },
];

/// Looks a bundled scenario up by name.
pub fn find(name: &str) -> Option<&'static BuiltinScenario> {
    BUILTINS.iter().find(|s| s.name == name)
}

/// Shorthand for a vector-sourced vulnerability record.
fn vuln(id: &str, cve: Option<&str>, vector: &str) -> VulnDef {
    VulnDef {
        id: id.into(),
        cve: cve.map(Into::into),
        source: VulnSource::Vector(vector.into()),
    }
}

/// Shorthand for an explicit impact/probability record.
fn vuln_explicit(id: &str, impact: f64, probability: f64) -> VulnDef {
    VulnDef {
        id: id.into(),
        cve: None,
        source: VulnSource::Explicit {
            impact,
            probability,
            base_score: None,
        },
    }
}

fn leaf(id: &str) -> TreeDef {
    TreeDef::Vuln(id.into())
}

/// The paper's complete case study as a scenario document: Table I
/// vulnerabilities (as reconstructed CVSS v2 vectors), the four attack
/// trees, Table IV parameters, the Figure-2 topology and the five
/// redundancy designs of Section IV.
pub fn paper_case_study() -> ScenarioDoc {
    let mut doc = ScenarioDoc::new(
        "paper_case_study",
        "Ge, Kim & Kim (DSN 2017) — example enterprise network of Figure 2",
    );
    doc.description = "1 DNS + 2 WEB + 2 APP + 1 DB; attacker enters at the DMZ \
                       (DNS and web), the database is the attack goal. Vulnerability \
                       data from Table I, SRN rates from Table IV."
        .into();
    doc.vulnerabilities = case_study::VULNERABILITIES
        .iter()
        .map(|r| vuln(r.id, Some(r.cve), r.vector))
        .collect();
    doc.trees = vec![
        ("dns".into(), TreeDef::Or(vec![leaf("v1dns")])),
        (
            "web".into(),
            TreeDef::Or(vec![
                leaf("v1web"),
                leaf("v2web"),
                leaf("v3web"),
                TreeDef::And(vec![leaf("v4web"), leaf("v5web")]),
            ]),
        ),
        (
            "app".into(),
            TreeDef::Or(vec![
                leaf("v1app"),
                leaf("v2app"),
                leaf("v3app"),
                TreeDef::And(vec![leaf("v4app"), leaf("v5app")]),
            ]),
        ),
        (
            "db".into(),
            TreeDef::Or(vec![
                leaf("v1db"),
                leaf("v2db"),
                TreeDef::And(vec![leaf("v3db"), leaf("v4db")]),
                leaf("v5db"),
            ]),
        ),
    ];
    doc.tiers = vec![
        TierDef {
            name: "dns".into(),
            count: 1,
            params: case_study::dns_params(),
            tree: Some("dns".into()),
            entry: true,
            target: false,
        },
        TierDef {
            name: "web".into(),
            count: 2,
            params: case_study::web_params(),
            tree: Some("web".into()),
            entry: true,
            target: false,
        },
        TierDef {
            name: "app".into(),
            count: 2,
            params: case_study::app_params(),
            tree: Some("app".into()),
            entry: false,
            target: false,
        },
        TierDef {
            name: "db".into(),
            count: 1,
            params: case_study::db_params(),
            tree: Some("db".into()),
            entry: false,
            target: true,
        },
    ];
    doc.edges = vec![
        ("dns".into(), "web".into()),
        ("web".into(), "app".into()),
        ("app".into(), "db".into()),
    ];
    doc.designs = case_study::five_designs();
    doc.policies = vec![PatchPolicy::CriticalOnly(8.0)];
    doc.metrics = MetricsConfig::default();
    doc
}

/// A six-tier e-commerce stack: CDN → load balancer → web → API →
/// {cache, DB}. The cache carries no exploitable vulnerability (a
/// `"tree": null` tier), so attack paths must take the direct API→DB hop
/// while availability still counts the cache servers.
pub fn ecommerce() -> ScenarioDoc {
    let mut doc = ScenarioDoc::new("ecommerce", "Six-tier e-commerce stack (CDN to database)");
    doc.description = "CDN and load-balancer front a web/API stack with a \
                       vulnerability-free cache tier; the customer database is \
                       the target. Demonstrates >4 tiers and a null-tree tier."
        .into();
    doc.vulnerabilities = vec![
        vuln("cdn-takeover", None, "AV:N/AC:M/Au:N/C:P/I:P/A:N"),
        vuln("lb-header-smuggle", None, "AV:N/AC:M/Au:N/C:P/I:P/A:P"),
        vuln(
            "web-rce",
            Some("CVE-2017-5638"),
            "AV:N/AC:L/Au:N/C:C/I:C/A:C",
        ),
        vuln_explicit("web-xss-chain", 6.4, 0.86),
        vuln("api-auth-bypass", None, "AV:N/AC:L/Au:N/C:C/I:P/A:N"),
        vuln_explicit("api-ssrf", 6.4, 0.8),
        vuln(
            "db-sqli",
            Some("CVE-2016-6662"),
            "AV:N/AC:L/Au:N/C:C/I:C/A:C",
        ),
        vuln_explicit("db-priv-esc", 10.0, 0.39),
    ];
    doc.trees = vec![
        ("cdn".into(), TreeDef::Or(vec![leaf("cdn-takeover")])),
        ("lb".into(), TreeDef::Or(vec![leaf("lb-header-smuggle")])),
        (
            "web".into(),
            TreeDef::Or(vec![leaf("web-rce"), leaf("web-xss-chain")]),
        ),
        (
            "api".into(),
            TreeDef::Or(vec![
                leaf("api-auth-bypass"),
                TreeDef::And(vec![leaf("api-ssrf"), leaf("web-xss-chain")]),
            ]),
        ),
        (
            "db".into(),
            TreeDef::Or(vec![
                leaf("db-sqli"),
                TreeDef::And(vec![leaf("api-ssrf"), leaf("db-priv-esc")]),
            ]),
        ),
    ];
    let front_params = |name: &str| {
        ServerParams::builder(name)
            .service_patch(Durations::minutes(5.0), Durations::minutes(5.0))
            .os_patch(Durations::minutes(10.0), Durations::minutes(10.0))
            .build()
    };
    let app_params = |name: &str| {
        ServerParams::builder(name)
            .service_patch(Durations::minutes(15.0), Durations::minutes(5.0))
            .os_patch(Durations::minutes(20.0), Durations::minutes(10.0))
            .build()
    };
    doc.tiers = vec![
        TierDef {
            name: "cdn".into(),
            count: 2,
            params: front_params("cdn"),
            tree: Some("cdn".into()),
            entry: true,
            target: false,
        },
        TierDef {
            name: "lb".into(),
            count: 2,
            params: front_params("lb"),
            tree: Some("lb".into()),
            entry: false,
            target: false,
        },
        TierDef {
            name: "web".into(),
            count: 3,
            params: app_params("web"),
            tree: Some("web".into()),
            entry: false,
            target: false,
        },
        TierDef {
            name: "api".into(),
            count: 2,
            params: app_params("api"),
            tree: Some("api".into()),
            entry: false,
            target: false,
        },
        TierDef {
            name: "cache".into(),
            count: 2,
            params: front_params("cache"),
            tree: None,
            entry: false,
            target: false,
        },
        TierDef {
            name: "db".into(),
            count: 1,
            params: ServerParams::builder("db")
                .service_patch(Durations::minutes(10.0), Durations::minutes(5.0))
                .os_patch(Durations::minutes(30.0), Durations::minutes(10.0))
                .build(),
            tree: Some("db".into()),
            entry: false,
            target: true,
        },
    ];
    doc.edges = vec![
        ("cdn".into(), "lb".into()),
        ("lb".into(), "web".into()),
        ("web".into(), "api".into()),
        ("api".into(), "cache".into()),
        ("api".into(), "db".into()),
        ("cache".into(), "db".into()),
    ];
    doc.designs = vec![
        doc.base_design(),
        Design::new("beefy web edge", vec![2, 2, 4, 2, 2, 1]),
        Design::new("replicated db", vec![2, 2, 3, 2, 2, 2]),
    ];
    doc.policies = vec![PatchPolicy::CriticalOnly(8.0), PatchPolicy::All];
    doc
}

/// An IoT sensor fleet: sensors and the gateway's exposed management
/// interface are **both** entry tiers, and compromising either the
/// historian or the SCADA controller achieves the goal — a
/// multi-entry/multi-target topology the paper's Figure 2 cannot express.
pub fn iot_fleet() -> ScenarioDoc {
    let mut doc = ScenarioDoc::new(
        "iot_fleet",
        "IoT sensor fleet with two entry tiers and two targets",
    );
    doc.description = "Sensors and the gateway management interface are both \
                       attacker-reachable; the data historian and the SCADA \
                       controller are both attack goals."
        .into();
    doc.vulnerabilities = vec![
        vuln("sensor-default-creds", None, "AV:N/AC:L/Au:N/C:P/I:P/A:P"),
        vuln_explicit("sensor-fw-downgrade", 6.4, 0.61),
        vuln(
            "gw-mgmt-rce",
            Some("CVE-2016-10401"),
            "AV:N/AC:L/Au:N/C:C/I:C/A:C",
        ),
        vuln("broker-weak-acl", None, "AV:N/AC:M/Au:S/C:P/I:P/A:N"),
        vuln_explicit("historian-sqli", 6.4, 0.86),
        vuln("scada-proto-abuse", None, "AV:A/AC:L/Au:N/C:C/I:C/A:C"),
        vuln_explicit("scada-logic-bomb", 10.0, 0.39),
    ];
    doc.trees = vec![
        (
            "sensor".into(),
            TreeDef::Or(vec![
                leaf("sensor-default-creds"),
                leaf("sensor-fw-downgrade"),
            ]),
        ),
        ("gateway".into(), TreeDef::Or(vec![leaf("gw-mgmt-rce")])),
        ("broker".into(), TreeDef::Or(vec![leaf("broker-weak-acl")])),
        (
            "historian".into(),
            TreeDef::Or(vec![leaf("historian-sqli")]),
        ),
        (
            "scada".into(),
            TreeDef::Or(vec![
                leaf("scada-proto-abuse"),
                TreeDef::And(vec![leaf("broker-weak-acl"), leaf("scada-logic-bomb")]),
            ]),
        ),
    ];
    let embedded = |name: &str| {
        ServerParams::builder(name)
            .os_failure(Durations::hours(720.0), Durations::hours(2.0))
            .service_failure(Durations::hours(168.0), Durations::hours(1.0))
            .service_patch(Durations::minutes(30.0), Durations::minutes(10.0))
            .os_patch(Durations::minutes(45.0), Durations::minutes(15.0))
            .patch_interval(Durations::days(90.0))
            .build()
    };
    let backend = |name: &str| {
        ServerParams::builder(name)
            .service_patch(Durations::minutes(15.0), Durations::minutes(5.0))
            .os_patch(Durations::minutes(20.0), Durations::minutes(10.0))
            .build()
    };
    doc.tiers = vec![
        TierDef {
            name: "sensor".into(),
            count: 3,
            params: embedded("sensor"),
            tree: Some("sensor".into()),
            entry: true,
            target: false,
        },
        TierDef {
            name: "gateway".into(),
            count: 2,
            params: embedded("gateway"),
            tree: Some("gateway".into()),
            entry: true,
            target: false,
        },
        TierDef {
            name: "broker".into(),
            count: 1,
            params: backend("broker"),
            tree: Some("broker".into()),
            entry: false,
            target: false,
        },
        TierDef {
            name: "historian".into(),
            count: 1,
            params: backend("historian"),
            tree: Some("historian".into()),
            entry: false,
            target: true,
        },
        TierDef {
            name: "scada".into(),
            count: 1,
            params: backend("scada"),
            tree: Some("scada".into()),
            entry: false,
            target: true,
        },
    ];
    doc.edges = vec![
        ("sensor".into(), "gateway".into()),
        ("gateway".into(), "broker".into()),
        ("broker".into(), "historian".into()),
        ("broker".into(), "scada".into()),
    ];
    doc.designs = vec![
        doc.base_design(),
        Design::new("redundant backend", vec![3, 2, 2, 2, 2]),
    ];
    doc.policies = vec![
        PatchPolicy::None,
        PatchPolicy::CriticalOnly(8.0),
        PatchPolicy::All,
    ];
    doc
}

/// A seven-tier microservice mesh with a branching call graph: the edge
/// proxies fan out through auth into three service lanes (orders →
/// payments, orders → queue, inventory) that reconverge on the database.
pub fn microservices_mesh() -> ScenarioDoc {
    let mut doc = ScenarioDoc::new(
        "microservices_mesh",
        "Seven-tier microservice mesh with a branching call graph",
    );
    doc.description = "Edge proxies feed an auth service that fans out into \
                       orders/payments, a work queue and inventory, all \
                       reconverging on the shared database."
        .into();
    doc.vulnerabilities = vec![
        vuln("edge-path-traversal", None, "AV:N/AC:L/Au:N/C:P/I:N/A:N"),
        vuln("edge-tls-downgrade", None, "AV:N/AC:M/Au:N/C:P/I:P/A:N"),
        vuln(
            "auth-jwt-forgery",
            Some("CVE-2015-9235"),
            "AV:N/AC:L/Au:N/C:C/I:C/A:C",
        ),
        vuln_explicit("orders-idor", 6.4, 1.0),
        vuln_explicit("payments-replay", 6.4, 0.61),
        vuln(
            "queue-deserialization",
            Some("CVE-2015-5254"),
            "AV:N/AC:L/Au:N/C:C/I:C/A:C",
        ),
        vuln_explicit("inventory-grpc-fuzz", 2.9, 0.86),
        vuln("db-weak-auth", None, "AV:N/AC:L/Au:S/C:C/I:C/A:C"),
        vuln_explicit("db-priv-esc", 10.0, 0.39),
    ];
    doc.trees = vec![
        (
            "edge".into(),
            TreeDef::Or(vec![
                leaf("edge-path-traversal"),
                leaf("edge-tls-downgrade"),
            ]),
        ),
        ("auth".into(), TreeDef::Or(vec![leaf("auth-jwt-forgery")])),
        ("orders".into(), TreeDef::Or(vec![leaf("orders-idor")])),
        (
            "payments".into(),
            TreeDef::Or(vec![TreeDef::And(vec![
                leaf("payments-replay"),
                leaf("orders-idor"),
            ])]),
        ),
        (
            "queue".into(),
            TreeDef::Or(vec![leaf("queue-deserialization")]),
        ),
        (
            "inventory".into(),
            TreeDef::Or(vec![leaf("inventory-grpc-fuzz")]),
        ),
        (
            "db".into(),
            TreeDef::Or(vec![
                leaf("db-weak-auth"),
                TreeDef::And(vec![leaf("inventory-grpc-fuzz"), leaf("db-priv-esc")]),
            ]),
        ),
    ];
    let svc = |name: &str| {
        ServerParams::builder(name)
            .service_patch(Durations::minutes(5.0), Durations::minutes(2.0))
            .os_patch(Durations::minutes(10.0), Durations::minutes(5.0))
            .patch_interval(Durations::days(14.0))
            .build()
    };
    let tier = |name: &str, count: u32, tree: Option<&str>, entry: bool, target: bool| TierDef {
        name: name.into(),
        count,
        params: svc(name),
        tree: tree.map(Into::into),
        entry,
        target,
    };
    doc.tiers = vec![
        tier("edge", 2, Some("edge"), true, false),
        tier("auth", 2, Some("auth"), false, false),
        tier("orders", 2, Some("orders"), false, false),
        tier("payments", 1, Some("payments"), false, false),
        tier("queue", 1, Some("queue"), false, false),
        tier("inventory", 1, Some("inventory"), false, false),
        tier("db", 1, Some("db"), false, true),
    ];
    doc.edges = vec![
        ("edge".into(), "auth".into()),
        ("auth".into(), "orders".into()),
        ("auth".into(), "inventory".into()),
        ("orders".into(), "payments".into()),
        ("orders".into(), "queue".into()),
        ("payments".into(), "db".into()),
        ("queue".into(), "db".into()),
        ("inventory".into(), "db".into()),
    ];
    doc.designs = vec![
        doc.base_design(),
        Design::new("scaled lanes", vec![2, 2, 3, 2, 2, 2, 1]),
        Design::new("replicated db", vec![2, 2, 2, 1, 1, 1, 2]),
    ];
    doc.policies = vec![PatchPolicy::CriticalOnly(8.0), PatchPolicy::All];
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::exec::{default_threads, AnalysisCache, Pool, Sweep};

    #[test]
    fn gallery_names_are_unique_and_findable() {
        for (i, a) in BUILTINS.iter().enumerate() {
            assert!(find(a.name).is_some());
            for b in &BUILTINS[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate scenario name");
            }
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn every_builtin_validates_and_round_trips() {
        for s in BUILTINS {
            let doc = (s.build)();
            assert_eq!(doc.name, s.name, "doc name must match gallery key");
            doc.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            let back = ScenarioDoc::from_json(&doc.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(back, doc, "{} round-trips", s.name);
        }
    }

    #[test]
    fn every_builtin_evaluates_end_to_end() {
        let pool = Pool::new(default_threads());
        for s in BUILTINS {
            let doc = (s.build)();
            let evals = Sweep::from_scenario(&doc)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name))
                .run(&pool, &Arc::new(AnalysisCache::new()))
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(evals.len(), doc.designs.len() * doc.policies.len());
            for e in &evals {
                assert!(e.coa > 0.9 && e.coa < 1.0, "{}: COA {}", s.name, e.coa);
                assert!(
                    e.before.attack_paths > 0,
                    "{}: no attack paths before patch",
                    s.name
                );
            }
        }
    }

    #[test]
    fn paper_doc_resolves_to_the_figure_2_network() {
        // `case_study::network()` is *derived from* this document, so it
        // cannot serve as an independent oracle; everything here is
        // checked against the paper's literal Figure-2/Table-I values.
        let spec = paper_case_study().to_spec().unwrap();
        assert_eq!(spec.edges(), [(0, 1), (1, 2), (2, 3)]);
        let expect = [
            ("dns", 1u32, true, false),
            ("web", 2, true, false),
            ("app", 2, false, false),
            ("db", 1, false, true),
        ];
        assert_eq!(spec.tiers().len(), expect.len());
        for (t, (name, count, entry, target)) in spec.tiers().iter().zip(expect) {
            assert_eq!(t.name, name);
            assert_eq!(t.count, count);
            assert_eq!(t.entry, entry);
            assert_eq!(t.target, target);
            assert_eq!(t.params.name, name);
        }
        // Table-I tree impacts: 10.0 / 12.9 / 16.4 / 12.9.
        for (t, impact) in spec.tiers().iter().zip([10.0, 12.9, 16.4, 12.9]) {
            let tree = t.tree.as_ref().expect("every paper tier has a tree");
            assert!(
                (tree.impact() - impact).abs() < 1e-12,
                "{}: impact {} != {impact}",
                t.name,
                tree.impact()
            );
        }
        // Patch cycles reconstruct Table V's MTTRs: 40/35/60/55 minutes.
        for (t, minutes) in spec.tiers().iter().zip([40.0, 35.0, 60.0, 55.0]) {
            assert!(
                (t.params.patch_cycle().as_hours() - minutes / 60.0).abs() < 1e-12,
                "{}: patch cycle",
                t.name
            );
        }
        // And the Figure-2 HARM shape: 6 hosts, 8 paths, 3 entry points.
        let m = spec
            .build_harm()
            .metrics(&redeval_harm::MetricsConfig::default());
        assert_eq!(spec.build_harm().graph().host_count(), 6);
        assert_eq!(m.attack_paths, 8);
        assert_eq!(m.entry_points, 3);
        assert!((m.attack_impact - 52.2).abs() < 1e-9);
    }

    #[test]
    fn gallery_covers_non_paper_topologies() {
        // Acceptance: at least one bundled scenario with >4 tiers or
        // multiple entry/target tiers.
        let six = ecommerce();
        assert!(six.tiers.len() > 4);
        let iot = iot_fleet();
        assert_eq!(iot.tiers.iter().filter(|t| t.entry).count(), 2);
        assert_eq!(iot.tiers.iter().filter(|t| t.target).count(), 2);
        let mesh = microservices_mesh();
        assert_eq!(mesh.tiers.len(), 7);
    }
}
