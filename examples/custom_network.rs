//! Modelling your own network: a heterogeneous two-DMZ deployment that is
//! *not* the paper's case study, built from scratch with the public API.
//!
//! Demonstrates: custom attack trees (AND/OR structure), CVSS-vector-driven
//! vulnerability data, per-tier failure/patch parameters, heterogeneous
//! redundancy (the paper's Section V extension), and the multi-metric
//! decision function of Equation (4).
//!
//! Run with: `cargo run --example custom_network`

use redeval::decision::MultiBounds;
use redeval::{
    AnalysisCache, AttackTree, Design, Durations, NetworkSpec, Pool, ServerParams, Sweep, TierSpec,
    Vulnerability,
};
use redeval_cvss::v2::BaseVector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Vulnerabilities straight from CVSS v2 vectors.
    let vpn_rce: BaseVector = "AV:N/AC:M/Au:N/C:C/I:C/A:C".parse()?;
    let portal_sqli: BaseVector = "AV:N/AC:L/Au:S/C:P/I:P/A:P".parse()?;
    let broker_dos: BaseVector = "AV:N/AC:L/Au:N/C:N/I:N/A:C".parse()?;
    let kernel_lpe: BaseVector = "AV:L/AC:L/Au:N/C:C/I:C/A:C".parse()?;
    let ledger_auth: BaseVector = "AV:N/AC:H/Au:S/C:C/I:C/A:N".parse()?;

    let vpn_tree = AttackTree::leaf(Vulnerability::from_cvss_v2("CVE-VPN-1", &vpn_rce));
    // The portal needs SQLi *and* a local privilege escalation for root.
    let portal_tree = AttackTree::or(vec![
        AttackTree::and(vec![
            AttackTree::leaf(Vulnerability::from_cvss_v2("CVE-PORTAL-1", &portal_sqli)),
            AttackTree::leaf(Vulnerability::from_cvss_v2("CVE-KERNEL-1", &kernel_lpe)),
        ]),
        AttackTree::leaf(Vulnerability::from_cvss_v2("CVE-BROKER-1", &broker_dos)),
    ]);
    let ledger_tree = AttackTree::leaf(Vulnerability::from_cvss_v2("CVE-LEDGER-1", &ledger_auth));

    // Heterogeneous tiers: the ledger patches slowly (database-style), the
    // VPN concentrator reboots fast.
    let spec = NetworkSpec::new(
        vec![
            TierSpec {
                name: "vpn".into(),
                count: 2,
                params: ServerParams::builder("vpn")
                    .service_patch(Durations::minutes(5.0), Durations::minutes(2.0))
                    .os_patch(Durations::minutes(10.0), Durations::minutes(5.0))
                    .build(),
                tree: Some(vpn_tree),
                entry: true,
                target: false,
            },
            TierSpec {
                name: "portal".into(),
                count: 2,
                params: ServerParams::builder("portal")
                    .service_patch(Durations::minutes(15.0), Durations::minutes(5.0))
                    .os_patch(Durations::minutes(20.0), Durations::minutes(10.0))
                    .build(),
                tree: Some(portal_tree),
                entry: false,
                target: false,
            },
            TierSpec {
                name: "ledger".into(),
                count: 1,
                params: ServerParams::builder("ledger")
                    .service_patch(Durations::minutes(30.0), Durations::minutes(10.0))
                    .os_patch(Durations::minutes(30.0), Durations::minutes(10.0))
                    .service_failure(Durations::hours(1000.0), Durations::minutes(45.0))
                    .build(),
                tree: Some(ledger_tree),
                entry: false,
                target: true,
            },
        ],
        vec![(0, 1), (1, 2)],
    );

    // Print the HARM for inspection (Graphviz DOT).
    let harm = spec.build_harm();
    println!("--- HARM (render with `dot -Tsvg`) ---");
    println!("{}", harm.to_dot());

    let designs = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2], [3, 2, 2]]
        .iter()
        .map(|counts| {
            let name = counts
                .iter()
                .zip(["vpn", "portal", "ledger"])
                .map(|(c, n)| format!("{c} {n}"))
                .collect::<Vec<_>>()
                .join(" + ");
            Design::new(name, counts.to_vec())
        })
        .collect();
    let evals = Sweep::new(spec)
        .designs(designs)
        .run(&Pool::new(2), &std::sync::Arc::new(AnalysisCache::new()))?;
    let bounds = MultiBounds {
        max_asp: 0.5,
        max_noev: 8,
        max_noap: 4,
        max_noep: 2,
        min_coa: 0.9955,
    };

    println!("--- designs ---");
    for e in &evals {
        println!(
            "{:<28} ASP {:>6.4}  NoEV {:>2}  NoAP {:>2}  COA {:.5}  ok={}",
            e.name,
            e.after.attack_success_probability,
            e.after.exploitable_vulnerabilities,
            e.after.attack_paths,
            e.coa,
            bounds.satisfied(e)
        );
    }
    Ok(())
}
