//! Bring your own network as a data file: author a scenario document in
//! code, serialize it to the canonical JSON that `redeval eval --scenario`
//! consumes, load it back, and evaluate the full design × policy grid —
//! no recompilation between network variants.
//!
//! Run with: `cargo run --example scenario_file`

use std::sync::Arc;

use redeval::exec::{default_threads, AnalysisCache, Pool, Sweep};
use redeval::scenario::{builtin, ScenarioDoc, TierDef, TreeDef, VulnDef, VulnSource};
use redeval::{Design, PatchPolicy, ServerParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Author a document. (In practice you would start from
    //    `redeval scenario export <name> > mine.json` and edit the file.)
    let mut doc = ScenarioDoc::new("two-dmz", "Two-DMZ deployment from a data file");
    doc.description = "A VPN DMZ and a web DMZ feeding one ledger database.".into();
    doc.vulnerabilities = vec![
        VulnDef {
            id: "vpn-rce".into(),
            cve: None,
            source: VulnSource::Vector("AV:N/AC:M/Au:N/C:C/I:C/A:C".into()),
        },
        VulnDef {
            id: "portal-sqli".into(),
            cve: None,
            source: VulnSource::Vector("AV:N/AC:L/Au:S/C:P/I:P/A:P".into()),
        },
        VulnDef {
            id: "ledger-auth".into(),
            cve: None,
            source: VulnSource::Explicit {
                impact: 9.2,
                probability: 0.49,
                base_score: None,
            },
        },
    ];
    doc.trees = vec![
        (
            "vpn".into(),
            TreeDef::Or(vec![TreeDef::Vuln("vpn-rce".into())]),
        ),
        (
            "portal".into(),
            TreeDef::Or(vec![TreeDef::Vuln("portal-sqli".into())]),
        ),
        (
            "ledger".into(),
            TreeDef::Or(vec![TreeDef::And(vec![
                TreeDef::Vuln("portal-sqli".into()),
                TreeDef::Vuln("ledger-auth".into()),
            ])]),
        ),
    ];
    let tier = |name: &str, count, tree: &str, entry, target| TierDef {
        name: name.into(),
        count,
        params: ServerParams::builder(name).build(),
        tree: Some(tree.into()),
        entry,
        target,
    };
    doc.tiers = vec![
        tier("vpn", 2, "vpn", true, false),
        tier("portal", 2, "portal", true, false),
        tier("ledger", 1, "ledger", false, true),
    ];
    doc.edges = vec![
        ("vpn".into(), "portal".into()),
        ("vpn".into(), "ledger".into()),
        ("portal".into(), "ledger".into()),
    ];
    doc.designs = vec![
        doc.base_design(),
        Design::new("hardened ledger", vec![2, 2, 2]),
    ];
    doc.policies = vec![PatchPolicy::CriticalOnly(8.0), PatchPolicy::All];

    // 2. Serialize to the interchange form and load it back, exactly as
    //    the CLI would from a file on disk.
    let json = doc.to_json();
    let loaded = ScenarioDoc::from_json(&json)?;
    assert_eq!(loaded, doc, "canonical JSON round-trips");
    println!(
        "document `{}`: {} bytes of canonical JSON, {} tiers, {} designs",
        loaded.name,
        json.len(),
        loaded.tiers.len(),
        loaded.designs.len()
    );

    // 3. Evaluate the declared grid on the batch engine's worker pool,
    //    its tier solves kept in one cache for the rest of the run.
    let pool = Pool::new(default_threads());
    let cache = Arc::new(AnalysisCache::new());
    println!(
        "\n{:<28} {:>8} {:>6} {:>9}",
        "scenario", "asp", "noap", "coa"
    );
    for e in Sweep::from_scenario(&loaded)?.run(&pool, &cache)? {
        println!(
            "{:<28} {:>8.4} {:>6} {:>9.5}",
            e.name, e.after.attack_success_probability, e.after.attack_paths, e.coa
        );
    }

    // 4. The bundled gallery works the same way — here is the paper's
    //    network loaded through its own exported document.
    let paper = ScenarioDoc::from_json(&builtin::paper_case_study().to_json())?;
    let evals = Sweep::from_scenario(&paper)?.run(&pool, &cache)?;
    println!(
        "\npaper case study via the scenario API: {} designs, best COA {:.5}",
        evals.len(),
        evals.iter().map(|e| e.coa).fold(f64::MIN, f64::max)
    );
    Ok(())
}
