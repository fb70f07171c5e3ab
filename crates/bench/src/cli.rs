//! The unified `redeval` command-line interface.
//!
//! One dispatcher over the report registry (`reports::REGISTRY`) and the
//! declarative scenario API:
//!
//! ```console
//! $ redeval table 2                 # any artifact, text to stdout
//! $ redeval fig 6 --format csv     # deterministic CSV
//! $ redeval report --all --format json --out reports/
//! $ redeval report --all --bless   # regenerate tests/golden/
//! $ redeval scenario list          # the bundled scenario gallery
//! $ redeval scenario export ecommerce > mine.json
//! $ redeval scenario validate mine.json
//! $ redeval eval --scenario mine.json --policy all
//! $ redeval design-space --max-redundancy 4
//! $ redeval full-report > report.md
//! ```
//!
//! Subcommands are registry names (`table2`, `sweep`, `design_space`, …;
//! dashes and underscores are interchangeable), plus the `table N` /
//! `fig N` spellings, `report --all`, `list`, the `scenario` family, the
//! scenario analyses (`eval`, `optimize`, `equilibrium`; one run path),
//! `full-report`, `gen` and `serve`. Command-specific flags are checked
//! against `FLAG_OWNERS`, and the numeric limits are the HTTP decoders'
//! own constants (`redeval_server::MAX_*`). Report-producing commands
//! take `--format text|json|csv` and `--out DIR`; with `--out`, each
//! report is written to `DIR/<name>.<ext>` instead of stdout.
//!
//! Exit codes: `0` success, `1` a report's embedded consistency check
//! failed (e.g. a region deviates from the paper) or a scenario failed
//! validation, `2` usage error.

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use redeval::decision::ScatterBounds;
use redeval::exec::{AnalysisCache, Pool};
use redeval::output::{Report, Table, Value};
use redeval::scenario::generate::{self, Family, GenParams};
use redeval::scenario::{builtin, ScenarioDoc};
use redeval::{EvalError, PatchPolicy, Telemetry};
use redeval_server::{
    EquilibriumRequest, OptimizeRequest, MAX_ITERS_RANGE, MAX_REDUNDANCY_RANGE, MAX_SEED,
};

use crate::reports::{self, REGISTRY};

/// Where blessed goldens live. Anchored at compile time to this crate's
/// manifest directory (like `tests/golden.rs` does), so `--bless` lands
/// in the repo's corpus whatever the invocation CWD is.
pub const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

/// Where a bare `--profile` writes the Chrome-trace file.
pub const DEFAULT_TRACE_FILE: &str = "redeval.trace.json";

/// Usage text (also shown on `--help`).
pub const USAGE: &str = "\
redeval — unified reproduction CLI (Ge, Kim & Kim, DSN 2017)

USAGE:
    redeval <COMMAND> [--format text|json|csv] [--out DIR]

COMMANDS:
    table <1..6>         one of the paper's Tables I-VI
    fig <3|45|6|7>       one of the paper's Figures 3-7
    <name>               any report by registry name (see `list`)
    report --all         every report; with --out DIR, one file each
    report --all --bless regenerate the golden corpus (tests/golden/*.json)
    list                 reports and bundled scenarios (honors --format json)
    design-space [--max-redundancy N]
                         exhaustive design-space search of the case study
                         at per-tier bound N (default 3, the registry report)
    full-report          markdown report over the paper's five designs;
                         with --out DIR, writes DIR/full_report.md

    eval --scenario FILE|NAME [--policy P] [--profile[=FILE]]
                         evaluate a scenario file (or bundled scenario)
                         end-to-end (designs × policies); --policy
                         overrides its policy list (none | all | critical>T)
    optimize [--scenario FILE|NAME] [--max-redundancy N] [--policy P]
             [--bounds ASP,COA] [--profile[=FILE]]
                         pruned branch-and-bound search of the per-tier
                         redundancy space: the Pareto frontier on
                         (after-patch ASP, COA), byte-identical to the
                         exhaustive sweep but without materializing the
                         grid; without --scenario, searches the paper
                         case study with its Equation (3) bounds
    equilibrium [--scenario FILE|NAME] [--max-redundancy N] [--policy P]
                [--max-iters K] [--profile[=FILE]]
                         attacker–defender equilibrium: Gauss-Seidel
                         best-response iteration between the pruned
                         design/policy search and an entry-subset
                         attacker; deterministic at any thread count;
                         without --scenario, analyzes the paper case
                         study
    scenario list        the bundled scenario gallery
    scenario export NAME print a bundled scenario's canonical JSON
    scenario validate FILE...
                         parse + validate scenario files (exit 1 on failure)

    gen <FAMILY> [--seed N] [--tiers K] [--redundancy R] [--designs D]
                 [--policies P]
                         emit a seeded, byte-deterministic scenario
                         (canonical JSON) of an archetype family:
                         ecommerce_fleet | iot_swarm | microservice_mesh

    serve [--addr A] [--threads N] [--cache-cap BYTES] [--cache-dir DIR]
                         run the HTTP evaluation server (DESIGN.md §9):
                         POST /v1/eval, POST /v1/sweep, POST /v1/optimize,
                         POST /v1/equilibrium, POST /v1/generate,
                         GET /v1/scenarios, GET /v1/reports, GET /v1/stats,
                         GET /metrics, GET /healthz

OPTIONS:
    --format <FMT>       text (default), json, or csv
    --out <DIR>          write DIR/<name>.<ext> instead of stdout
    --addr <A>           serve: listen address (default 127.0.0.1:7878)
    --threads <N>        serve: worker-pool size 1..=1024 (default: all
                         cores)
    --cache-cap <BYTES>  serve: result-cache budget (default 67108864)
    --cache-dir <DIR>    serve: persist results under DIR so a restarted
                         server answers repeats warm (DESIGN.md §12)
    --max-redundancy <N> optimize/equilibrium/design-space: per-tier count
                         bound 1..=8 (default 4; design-space 3)
    --bounds <ASP,COA>   optimize: decision bounds φ,ψ selecting the
                         satisfying region (e.g. --bounds 0.2,0.9962)
    --max-iters <K>      equilibrium: best-response round cap 1..=64
                         (default 16)
    --profile[=FILE]     eval/optimize/equilibrium: record wall-clock
                         spans and deterministic counters; writes a
                         Chrome-trace JSON (chrome://tracing, Perfetto)
                         to FILE (default redeval.trace.json) and a
                         span/counter summary to stderr — the report on
                         stdout stays byte-identical (DESIGN.md §14)
    --seed <N>           gen: generator seed 0..=2^53 (default 0)
    --tiers <K>          gen: total tiers (family-specific range; default 12)
    --redundancy <R>     gen: host-count bound 1..=8 (default 3)
    --designs <D>        gen: extra designs beyond base, 0..=6 (default 2)
    --policies <P>       gen: patch policies 1..=4 (default 2)
    -h, --help           this text

EXIT CODES: 0 ok; 1 a consistency/validation check failed; 2 usage error.
";

/// The commands that analyze one scenario.
const ANALYSES: &[&str] = &["eval", "optimize", "equilibrium"];

/// The worker counts `serve --threads` accepts. The server spawns that
/// many pool workers and that many connection workers, so a mistyped
/// count must be a usage error, not thousands of threads.
const THREADS_RANGE: RangeInclusive<usize> = 1..=1024;

/// Every command-specific flag and the commands that accept it; the
/// remaining flags (`--format`, `--out`, `--help`) apply to any command.
const FLAG_OWNERS: &[(&str, &[&str])] = &[
    ("--all", &["report"]),
    ("--bless", &["report"]),
    ("--scenario", ANALYSES),
    ("--policy", ANALYSES),
    ("--profile", ANALYSES),
    (
        "--max-redundancy",
        &["optimize", "equilibrium", "design_space"],
    ),
    ("--bounds", &["optimize"]),
    ("--max-iters", &["equilibrium"]),
    ("--addr", &["serve"]),
    ("--threads", &["serve"]),
    ("--cache-cap", &["serve"]),
    ("--cache-dir", &["serve"]),
    ("--seed", &["gen"]),
    ("--tiers", &["gen"]),
    ("--redundancy", &["gen"]),
    ("--designs", &["gen"]),
    ("--policies", &["gen"]),
];

/// Output format of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-oriented aligned text (default).
    Text,
    /// Canonical JSON — the golden-corpus format.
    Json,
    /// CSV blocks per table/series.
    Csv,
}

impl Format {
    fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }

    fn extension(self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Json => "json",
            Format::Csv => "csv",
        }
    }

    fn render(self, report: &Report) -> String {
        match self {
            Format::Text => report.to_text(),
            Format::Json => report.to_json(),
            Format::Csv => report.to_csv(),
        }
    }
}

/// What a parsed command line asks for.
#[derive(Debug, PartialEq)]
enum Cmd {
    /// Print the usage text.
    Help,
    /// The combined report/scenario listing (a [`Report`] itself, so it
    /// honors `--format json` for tooling).
    List,
    /// Registry reports to build, in order.
    Reports(Vec<&'static str>),
    /// `design-space --max-redundancy N`: the registry's design-space
    /// search at per-tier bound N.
    DesignSpace(u32),
    /// `full-report`: the five-design markdown report.
    FullReport,
    /// List the bundled scenario gallery.
    ScenarioList,
    /// Print a bundled scenario's canonical JSON.
    ScenarioExport(String),
    /// Parse + validate scenario files.
    ScenarioValidate(Vec<String>),
    /// `eval`, `optimize` or `equilibrium` on one scenario.
    Analyze {
        /// The analysis and its own knobs.
        analysis: Analysis,
        /// `--scenario`: a bundled scenario name or a file path; `None`
        /// analyzes the command's default request.
        scenario: Option<String>,
        /// Overrides the scenario's policy list when present.
        policy: Option<PatchPolicy>,
        /// Chrome-trace output path of `--profile`.
        profile: Option<String>,
    },
    /// Emit a generated scenario's canonical JSON.
    Gen {
        /// Archetype family.
        family: Family,
        /// Generator knobs (defaults overridden by flags).
        params: GenParams,
        /// Generator seed.
        seed: u64,
    },
    /// Run the HTTP evaluation server.
    Serve {
        /// Listen address.
        addr: String,
        /// Worker-pool size.
        threads: usize,
        /// Result-cache byte budget.
        cache_cap: usize,
        /// Persistent cache directory (`None` = memory tier only).
        cache_dir: Option<String>,
    },
}

/// The scenario analyses and their command-specific knobs.
#[derive(Debug, PartialEq)]
enum Analysis {
    /// `eval`: every design × policy of the scenario.
    Eval,
    /// `optimize`: pruned branch-and-bound search of the redundancy
    /// design space.
    Optimize {
        /// Per-tier count bound of the searched space.
        max_redundancy: Option<u32>,
        /// Decision bounds (φ, ψ) selecting the satisfying region.
        bounds: Option<ScatterBounds>,
    },
    /// `equilibrium`: attacker–defender best-response iteration.
    Equilibrium {
        /// Per-tier count bound of the defender's design space.
        max_redundancy: Option<u32>,
        /// Gauss-Seidel round cap.
        max_iters: Option<u32>,
    },
}

impl Analysis {
    /// Builds the analysis report on `pool` and `cache`. Without a
    /// scenario, `optimize` and `equilibrium` analyze the paper case
    /// study (`optimize` under its Equation (3) bounds unless `--bounds`
    /// replaces them), and with no knob at all their report *is* the
    /// registry report, named after its registry key.
    fn report(
        &self,
        doc: Option<ScenarioDoc>,
        policies: Option<Vec<PatchPolicy>>,
        pool: &Pool,
        cache: &Arc<AnalysisCache>,
    ) -> Result<Report, EvalError> {
        let bare = doc.is_none() && policies.is_none();
        match *self {
            Analysis::Eval => {
                let mut doc = doc.expect("parse requires `eval --scenario`");
                if let Some(policies) = policies {
                    doc.policies = policies;
                }
                reports::scenario::eval_report_on(&doc, pool, cache)
            }
            Analysis::Optimize {
                max_redundancy,
                bounds,
            } => {
                let default = reports::optimize::default_request();
                let (doc, default_bounds) = match doc {
                    Some(doc) => (doc, None),
                    None => (default.doc, default.bounds),
                };
                let req = OptimizeRequest {
                    doc,
                    policies,
                    max_redundancy,
                    bounds: bounds.or(default_bounds),
                };
                let mut report = reports::optimize::optimize_report_on(&req, pool, cache)?;
                if bare && max_redundancy.is_none() && bounds.is_none() {
                    report.name = "optimize".into();
                }
                Ok(report)
            }
            Analysis::Equilibrium {
                max_redundancy,
                max_iters,
            } => {
                let req = EquilibriumRequest {
                    doc: doc.unwrap_or_else(|| reports::equilibrium::default_request().doc),
                    policies,
                    max_redundancy,
                    max_iters,
                };
                let mut report = reports::equilibrium::equilibrium_report_on(&req, pool, cache)?;
                if bare && max_redundancy.is_none() && max_iters.is_none() {
                    report.name = "equilibrium".into();
                }
                Ok(report)
            }
        }
    }
}

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Invocation {
    cmd: Cmd,
    format: Format,
    out: Option<String>,
}

/// Parses a flag's numeric value.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a number"))
}

/// Parses a flag's numeric value and checks it against its limit (the
/// same constant the HTTP decoders apply).
fn in_range<T: FromStr + PartialOrd + Display>(
    flag: &str,
    value: &str,
    range: RangeInclusive<T>,
) -> Result<T, String> {
    let n = number(flag, value)?;
    if !range.contains(&n) {
        return Err(format!(
            "{flag}: `{n}` is not in {}..={}",
            range.start(),
            range.end()
        ));
    }
    Ok(n)
}

/// Parses `--bounds ASP,COA`.
fn parse_bounds(value: &str) -> Result<ScatterBounds, String> {
    let (asp, coa) = value
        .split_once(',')
        .ok_or_else(|| format!("--bounds: `{value}` is not `ASP,COA`"))?;
    let finite = |s: &str, what: &str| {
        s.trim()
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("--bounds: `{s}` is not a finite {what}"))
    };
    Ok(ScatterBounds {
        max_asp: finite(asp, "ASP bound")?,
        min_coa: finite(coa, "COA bound")?,
    })
}

/// The commands accepting a flag, as prose: "`a`, `b` and `c`".
fn command_list(commands: &[&str]) -> String {
    let quoted: Vec<String> = commands.iter().map(|c| format!("`{c}`")).collect();
    match quoted.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
        _ => quoted.concat(),
    }
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut positional: Vec<&str> = Vec::new();
    // The command-specific flags given, with the commands owning each.
    let mut given: Vec<(&str, &[&str])> = Vec::new();
    let mut format = Format::Text;
    let mut explicit_format = false;
    let mut out: Option<String> = None;
    let (mut bless, mut help) = (false, false);
    let mut scenario: Option<String> = None;
    let mut policy: Option<PatchPolicy> = None;
    let mut profile: Option<String> = None;
    let mut max_redundancy: Option<u32> = None;
    let mut bounds: Option<ScatterBounds> = None;
    let mut max_iters: Option<u32> = None;
    let mut addr: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut cache_cap: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut gen_params = GenParams::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        // `--profile` takes an *optional* value, so only the `=` spelling
        // carries one — a separate positional would be ambiguous.
        let (flag, inline) = match arg.split_once('=') {
            Some(("--profile", path)) => ("--profile", Some(path)),
            _ => (arg.as_str(), None),
        };
        let mut value = || {
            rest.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--format" => {
                let v = value()?;
                format = Format::parse(v).ok_or_else(|| format!("unknown format `{v}`"))?;
                explicit_format = true;
            }
            "--out" => out = Some(value()?.to_string()),
            // `report` runs everything; `--all` is its documented spelling.
            "--all" => {}
            "--bless" => bless = true,
            "-h" | "--help" => help = true,
            "--scenario" => scenario = Some(value()?.to_string()),
            "--policy" => policy = Some(value()?.parse().map_err(|e| format!("{e}"))?),
            "--profile" => match inline {
                Some("") => return Err("--profile= needs a file path".to_string()),
                path => profile = Some(path.unwrap_or(DEFAULT_TRACE_FILE).to_string()),
            },
            "--max-redundancy" => {
                max_redundancy = Some(in_range(flag, value()?, MAX_REDUNDANCY_RANGE)?);
            }
            "--max-iters" => max_iters = Some(in_range(flag, value()?, MAX_ITERS_RANGE)?),
            "--bounds" => bounds = Some(parse_bounds(value()?)?),
            "--addr" => addr = Some(value()?.to_string()),
            "--threads" => threads = Some(in_range(flag, value()?, THREADS_RANGE)?),
            "--cache-cap" => cache_cap = Some(number(flag, value()?)?),
            "--cache-dir" => cache_dir = Some(value()?.to_string()),
            "--seed" => seed = Some(in_range(flag, value()?, 0..=MAX_SEED)?),
            "--tiers" => gen_params.tiers = number(flag, value()?)?,
            "--redundancy" => gen_params.redundancy = number(flag, value()?)?,
            "--designs" => gen_params.designs = number(flag, value()?)?,
            "--policies" => gen_params.policies = number(flag, value()?)?,
            _ if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ => positional.push(flag),
        }
        if let Some(&owned) = FLAG_OWNERS.iter().find(|(name, _)| *name == flag) {
            given.push(owned);
        }
    }

    if help {
        return Ok(Invocation {
            cmd: Cmd::Help,
            format,
            out,
        });
    }
    let Some(&command) = positional.first() else {
        // A flag without a command is a mistyped invocation; exiting 0
        // with the usage text would let scripts treat the no-op as
        // success.
        if let Some((flag, owners)) = given.first() {
            return Err(format!(
                "`{flag}` needs a command: it belongs to {}",
                command_list(owners)
            ));
        }
        if explicit_format || out.is_some() {
            return Err("`--format`/`--out` need a command to render".to_string());
        }
        return Ok(Invocation {
            cmd: Cmd::Help,
            format,
            out,
        });
    };
    // Dashes and underscores are interchangeable in command names.
    let key = command.replace('-', "_");
    if let Some((flag, owners)) = given.iter().find(|(_, owners)| !owners.contains(&&*key)) {
        return Err(format!(
            "`{flag}` only applies to {}, not `{command}`",
            command_list(owners)
        ));
    }

    // Positionals the command consumes; anything beyond is an error.
    let mut consumed = 1;
    let cmd = match key.as_str() {
        "list" => Cmd::List,
        "report" => {
            if bless {
                // Blessing fixes both the format and the destination;
                // an explicit --format/--out would be silently ignored,
                // so reject the contradiction instead.
                if explicit_format || out.is_some() {
                    return Err("`--bless` implies `--format json --out tests/golden`; \
                         drop the explicit --format/--out"
                        .to_string());
                }
                format = Format::Json;
                out = Some(GOLDEN_DIR.to_string());
            }
            Cmd::Reports(REGISTRY.iter().map(|s| s.name).collect())
        }
        "eval" | "optimize" | "equilibrium" => {
            let analysis = match command {
                "eval" if scenario.is_none() => {
                    return Err("`eval` needs `--scenario <FILE|NAME>`".to_string())
                }
                "eval" => Analysis::Eval,
                "optimize" => Analysis::Optimize {
                    max_redundancy,
                    bounds,
                },
                _ => Analysis::Equilibrium {
                    max_redundancy,
                    max_iters,
                },
            };
            Cmd::Analyze {
                analysis,
                scenario,
                policy,
                profile,
            }
        }
        "gen" => {
            let key = positional
                .get(1)
                .ok_or("`gen` needs a family: ecommerce_fleet, iot_swarm or microservice_mesh")?;
            consumed = 2;
            let family = Family::parse(key).ok_or_else(|| {
                format!(
                    "unknown family `{key}` (expected ecommerce_fleet, iot_swarm \
                     or microservice_mesh)"
                )
            })?;
            // The emitted document *is* canonical JSON; another format
            // would be a lie (same contract as `scenario export`).
            if explicit_format && format != Format::Json {
                return Err(
                    "`gen` always writes canonical scenario JSON; drop the --format flag"
                        .to_string(),
                );
            }
            Cmd::Gen {
                family,
                params: gen_params,
                seed: seed.unwrap_or(0),
            }
        }
        "serve" => {
            if explicit_format || out.is_some() {
                return Err("`serve` speaks HTTP; it takes no --format/--out".to_string());
            }
            Cmd::Serve {
                addr: addr.unwrap_or_else(|| crate::serve::DEFAULT_ADDR.to_string()),
                threads: threads.unwrap_or_else(redeval::exec::default_threads),
                cache_cap: cache_cap.unwrap_or(crate::serve::DEFAULT_CACHE_CAP),
                cache_dir,
            }
        }
        "scenario" => {
            let sub = positional
                .get(1)
                .ok_or("`scenario` needs a subcommand: list, export or validate")?;
            consumed = 2;
            match *sub {
                "list" => Cmd::ScenarioList,
                "export" => {
                    let name = positional
                        .get(2)
                        .ok_or("`scenario export` needs a scenario name (see `scenario list`)")?;
                    consumed = 3;
                    let spec = builtin::find(name).ok_or_else(|| {
                        format!("unknown scenario `{name}`; see `redeval scenario list`")
                    })?;
                    // The export *is* JSON; another format would be a lie.
                    if explicit_format && format != Format::Json {
                        return Err("`scenario export` always writes canonical JSON; \
                                    drop the --format flag"
                            .to_string());
                    }
                    Cmd::ScenarioExport(spec.name.to_string())
                }
                "validate" => {
                    let files: Vec<String> =
                        positional[2..].iter().map(|s| s.to_string()).collect();
                    if files.is_empty() {
                        return Err("`scenario validate` needs at least one file".to_string());
                    }
                    consumed = positional.len();
                    if explicit_format || out.is_some() {
                        return Err("`scenario validate` prints a plain summary; it takes no \
                             --format/--out"
                            .to_string());
                    }
                    Cmd::ScenarioValidate(files)
                }
                other => {
                    return Err(format!(
                        "unknown scenario subcommand `{other}` (expected list, export, validate)"
                    ));
                }
            }
        }
        "design_space" => match max_redundancy {
            Some(bound) => Cmd::DesignSpace(bound),
            None => Cmd::Reports(vec!["design_space"]),
        },
        "full_report" => {
            // The report *is* markdown, which no --format names.
            if explicit_format {
                return Err("`full-report` always writes markdown; drop the --format flag".into());
            }
            Cmd::FullReport
        }
        "table" | "fig" => {
            let n = positional.get(1).ok_or_else(|| {
                format!("`{command}` needs a number (e.g. `redeval {command} 2`)")
            })?;
            consumed = 2;
            let name = format!("{command}{n}");
            let spec = reports::find(&name)
                .ok_or_else(|| format!("no report `{name}`; see `redeval list`"))?;
            Cmd::Reports(vec![spec.name])
        }
        other => {
            let spec = reports::find(other)
                .ok_or_else(|| format!("unknown command `{command}`; see `redeval list`"))?;
            Cmd::Reports(vec![spec.name])
        }
    };
    if positional.len() > consumed {
        return Err(format!("unexpected argument `{}`", positional[consumed]));
    }
    Ok(Invocation { cmd, format, out })
}

/// Writes `content` to `DIR/<stem>.<ext>` (creating DIR) or stdout.
fn emit_text(content: &str, stem: &str, ext: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(dir) => {
            let dir = Path::new(dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let path = dir.join(format!("{stem}.{ext}"));
            std::fs::write(&path, content)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{content}"),
    }
    Ok(())
}

/// Prints `error: {msg}` to stderr and returns the exit `code`.
fn fail(code: i32, msg: impl Display) -> i32 {
    eprintln!("error: {msg}");
    code
}

/// The combined listing as a [`Report`]: one table of registry reports,
/// one of bundled scenarios — so `redeval list --format json` gives
/// tooling a machine-readable index of both.
pub fn list_report() -> Report {
    let mut r = Report::new("list", "redeval — reports and bundled scenarios");
    let mut reports = Table::new("reports", ["name", "about"]);
    for spec in REGISTRY {
        reports.add_row(vec![Value::from(spec.name), Value::from(spec.about)]);
    }
    r.table(reports);
    r.table(scenario_table());
    r.table(generator_table());
    r
}

/// The generator families as a table (`redeval gen <family>`).
fn generator_table() -> Table {
    let mut t = Table::new("generators", ["family", "about"]);
    for family in generate::FAMILIES {
        t.add_row(vec![Value::from(family.key()), Value::from(family.about())]);
    }
    t
}

/// The bundled scenario gallery as a table (shared by `list` and
/// `scenario list`).
fn scenario_table() -> Table {
    let mut t = Table::new("scenarios", ["name", "about"]);
    for s in builtin::BUILTINS {
        t.add_row(vec![Value::from(s.name), Value::from(s.about)]);
    }
    t
}

/// The `scenario list` report. (Named `scenario_list`, not `scenarios` —
/// that name belongs to the partial-patch registry report, and `--out`
/// into one directory must never clobber it.)
pub fn scenario_list_report() -> Report {
    let mut r = Report::new(
        "scenario_list",
        "bundled scenarios (redeval scenario export <name>)",
    );
    r.table(scenario_table());
    r
}

/// Loads and fully validates a scenario file.
fn load_scenario(file: &str) -> Result<ScenarioDoc, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    ScenarioDoc::from_json(&text).map_err(|e| format!("{file}: {e}"))
}

/// Resolves `--scenario`: a bundled scenario name, else a file path.
fn resolve_scenario(name_or_file: &str) -> Result<ScenarioDoc, String> {
    match builtin::find(name_or_file) {
        Some(spec) => Ok((spec.build)()),
        None => load_scenario(name_or_file),
    }
}

/// Writes the `--profile` Chrome-trace file and prints the span/counter
/// summary to stderr (stdout belongs to the report).
fn write_profile(path: &str, telemetry: &Telemetry) -> Result<(), String> {
    std::fs::write(path, telemetry.chrome_trace_json())
        .map_err(|e| format!("cannot write profile trace {path}: {e}"))?;
    eprintln!("wrote profile trace {path}");
    eprint!("{}", telemetry.text_summary());
    Ok(())
}

/// The run's worker pool and solve cache, the cache mirroring its
/// counters into `telemetry`.
fn context(telemetry: Telemetry) -> (Pool, Arc<AnalysisCache>) {
    let pool = Pool::new(redeval::exec::default_threads());
    (pool, Arc::new(AnalysisCache::with_telemetry(telemetry)))
}

/// Runs the CLI on `args` (without the program name); returns the
/// process exit code.
pub fn run(args: &[String]) -> i32 {
    let invocation = match parse(args) {
        Ok(inv) => inv,
        Err(msg) => {
            eprint!("error: {msg}\n{USAGE}");
            return 2;
        }
    };
    let format = invocation.format;
    let out = invocation.out.as_deref();
    let emit = |report: &Report| -> Result<bool, i32> {
        emit_text(
            &format.render(report),
            &report.name,
            format.extension(),
            out,
        )
        .map(|()| report.ok)
        .map_err(|msg| fail(2, msg))
    };
    let emit_report = |report: &Report| match emit(report) {
        Ok(ok) => i32::from(!ok),
        Err(code) => code,
    };
    match &invocation.cmd {
        Cmd::Help => {
            print!("{USAGE}");
            0
        }
        Cmd::List => emit_report(&list_report()),
        Cmd::ScenarioList => emit_report(&scenario_list_report()),
        Cmd::ScenarioExport(name) => {
            let spec = builtin::find(name).expect("parse resolved the name");
            let json = ((spec.build)()).to_json();
            match emit_text(&json, name, "json", out) {
                Ok(()) => 0,
                Err(msg) => fail(2, msg),
            }
        }
        Cmd::ScenarioValidate(files) => {
            let mut all_ok = true;
            for file in files {
                match load_scenario(file) {
                    Ok(doc) => {
                        let servers: u64 = doc.tiers.iter().map(|t| u64::from(t.count)).sum();
                        println!(
                            "ok {file}: scenario `{}` — {} tiers, {servers} servers, \
                             {} designs, {} policies",
                            doc.name,
                            doc.tiers.len(),
                            doc.designs.len(),
                            doc.policies.len()
                        );
                    }
                    Err(msg) => {
                        all_ok = false;
                        eprintln!("error: {msg}");
                    }
                }
            }
            i32::from(!all_ok)
        }
        // The run path `eval`, `optimize` and `equilibrium` share:
        // resolve the scenario, build the report on one pool and cache,
        // write the trace under `--profile`, emit. `--profile` only swaps
        // in profiler telemetry; the report bytes are the same.
        Cmd::Analyze {
            analysis,
            scenario,
            policy,
            profile,
        } => {
            let doc = match scenario.as_deref().map(resolve_scenario).transpose() {
                Ok(doc) => doc,
                Err(msg) => return fail(1, msg),
            };
            let telemetry = match profile {
                Some(_) => Telemetry::profiler(),
                None => Telemetry::noop(),
            };
            let (pool, cache) = context(telemetry.clone());
            let report = match analysis.report(doc, policy.map(|p| vec![p]), &pool, &cache) {
                Ok(report) => report,
                Err(e) => match scenario {
                    Some(s) => return fail(1, format!("{s}: {e}")),
                    None => return fail(1, e),
                },
            };
            if let Some(Err(msg)) = profile.as_deref().map(|p| write_profile(p, &telemetry)) {
                return fail(2, msg);
            }
            emit_report(&report)
        }
        Cmd::Gen {
            family,
            params,
            seed,
        } => {
            let doc = generate::generate(*family, params, *seed);
            // Generators guarantee validity by construction; check it
            // anyway so a regression can never emit a broken document.
            if let Err(e) = doc.validate() {
                return fail(1, format!("generated scenario failed validation: {e}"));
            }
            match emit_text(&doc.to_json(), &doc.name, "json", out) {
                Ok(()) => 0,
                Err(msg) => fail(2, msg),
            }
        }
        Cmd::Serve {
            addr,
            threads,
            cache_cap,
            cache_dir,
        } => {
            let service = match cache_dir {
                Some(dir) => match crate::serve::service_with_disk(
                    *threads,
                    *cache_cap,
                    Path::new(dir),
                    crate::serve::DEFAULT_DISK_CAP,
                ) {
                    Ok(service) => service,
                    Err(e) => return fail(2, format!("cannot open cache dir {dir}: {e}")),
                },
                None => crate::serve::service(*threads, *cache_cap),
            };
            let server = match redeval_server::Server::bind(addr.as_str(), service, *threads) {
                Ok(server) => server,
                Err(e) => return fail(2, format!("cannot bind {addr}: {e}")),
            };
            if let Ok(local) = server.local_addr() {
                let persistence = match cache_dir {
                    Some(dir) => format!(", cache dir {dir}"),
                    None => String::new(),
                };
                eprintln!(
                    "redeval serve: listening on http://{local} \
                     ({threads} worker(s), cache cap {cache_cap} bytes{persistence})"
                );
            }
            match server.spawn() {
                Ok(handle) => {
                    handle.wait();
                    0
                }
                Err(e) => fail(2, format!("cannot start acceptors: {e}")),
            }
        }
        Cmd::DesignSpace(bound) => {
            let (pool, cache) = context(Telemetry::noop());
            emit_report(&reports::studies::design_space(*bound, &pool, &cache))
        }
        Cmd::FullReport => {
            let (pool, cache) = context(Telemetry::noop());
            let markdown = reports::full_report_markdown(&pool, &cache);
            match emit_text(&markdown, "full_report", "md", out) {
                Ok(()) => 0,
                Err(msg) => fail(2, msg),
            }
        }
        // One pool and one solve cache for the whole run, `report --all`
        // included: every report resolves its tiers through the same
        // cache, and neither changes a byte of any report.
        Cmd::Reports(names) => {
            let (pool, cache) = context(Telemetry::noop());
            let mut all_ok = true;
            for name in names {
                let spec = reports::find(name).expect("registry name resolves");
                match emit(&(spec.build)(&pool, &cache)) {
                    Ok(ok) => all_ok &= ok,
                    Err(code) => return code,
                }
            }
            if all_ok {
                0
            } else {
                fail(1, "a consistency check failed — see the report output")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn names(inv: &Invocation) -> &[&'static str] {
        match &inv.cmd {
            Cmd::Reports(names) => names,
            other => panic!("expected Reports, got {other:?}"),
        }
    }

    #[test]
    fn parses_table_and_fig_spellings() {
        let inv = parse(&args(&["table", "2"])).unwrap();
        assert_eq!(names(&inv), ["table2"]);
        let inv = parse(&args(&["fig", "45"])).unwrap();
        assert_eq!(names(&inv), ["fig45"]);
        let inv = parse(&args(&["table5"])).unwrap();
        assert_eq!(names(&inv), ["table5"]);
    }

    #[test]
    fn dashes_and_underscores_are_interchangeable() {
        let a = parse(&args(&["design-space"])).unwrap();
        let b = parse(&args(&["design_space"])).unwrap();
        assert_eq!(a.cmd, b.cmd);
        for command in ["design-space", "design_space"] {
            let inv = parse(&args(&[command, "--max-redundancy", "4"])).unwrap();
            assert_eq!(inv.cmd, Cmd::DesignSpace(4));
        }
        for command in ["full-report", "full_report"] {
            assert_eq!(parse(&args(&[command])).unwrap().cmd, Cmd::FullReport);
        }
    }

    #[test]
    fn design_space_and_full_report_take_their_own_knobs_only() {
        // Without the bound, `design-space` is the registry report.
        assert_eq!(
            names(&parse(&args(&["design-space"])).unwrap()),
            ["design_space"]
        );
        // The report is markdown: no --format names it, so any is refused.
        for format in ["text", "json", "csv"] {
            assert!(parse(&args(&["full-report", "--format", format])).is_err());
        }
        let inv = parse(&args(&["full-report", "--out", "docs"])).unwrap();
        assert_eq!(
            (inv.cmd, inv.out.as_deref()),
            (Cmd::FullReport, Some("docs"))
        );
        assert!(parse(&args(&["full-report", "--max-redundancy", "3"])).is_err());
        assert!(parse(&args(&["full-report", "extra"])).is_err());
        assert!(parse(&args(&["design-space", "4"])).is_err());
    }

    #[test]
    fn report_all_expands_to_the_whole_registry() {
        let inv = parse(&args(&["report", "--all", "--format", "json"])).unwrap();
        assert_eq!(names(&inv).len(), REGISTRY.len());
        assert_eq!(inv.format, Format::Json);
    }

    #[test]
    fn bless_forces_json_into_the_golden_dir() {
        let inv = parse(&args(&["report", "--all", "--bless"])).unwrap();
        assert_eq!(inv.format, Format::Json);
        assert_eq!(inv.out.as_deref(), Some(GOLDEN_DIR));
        // An explicit --format/--out contradicts --bless; reject rather
        // than silently rewrite the golden corpus.
        assert!(parse(&args(&["report", "--all", "--bless", "--format", "csv"])).is_err());
        assert!(parse(&args(&["report", "--all", "--bless", "--out", "/tmp/x"])).is_err());
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(parse(&args(&["no_such_report"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
        assert!(parse(&args(&["table"])).is_err());
        assert!(parse(&args(&["--format", "yaml"])).is_err());
    }

    #[test]
    fn rejects_misplaced_all_and_bless() {
        // Flag-only invocations must be usage errors, not panics.
        assert!(parse(&args(&["--all"])).is_err());
        assert!(parse(&args(&["--bless"])).is_err());
        // `--all`/`--bless` outside `report` would otherwise be silently
        // ignored — the user would believe the goldens were regenerated.
        assert!(parse(&args(&["table", "2", "--bless"])).is_err());
        assert!(parse(&args(&["regions", "--all"])).is_err());
    }

    #[test]
    fn rejects_trailing_positionals() {
        assert!(parse(&args(&["report", "regions"])).is_err());
        assert!(parse(&args(&["table", "2", "3"])).is_err());
        assert!(parse(&args(&["list", "extra"])).is_err());
        assert!(parse(&args(&["scenario", "list", "extra"])).is_err());
        assert!(parse(&args(&["scenario", "export", "ecommerce", "extra"])).is_err());
    }

    #[test]
    fn list_is_a_report_and_honors_format() {
        // `list` renders through the Report model, so tooling can ask for
        // the machine-readable form.
        assert_eq!(parse(&args(&["list"])).unwrap().cmd, Cmd::List);
        let inv = parse(&args(&["list", "--format", "json"])).unwrap();
        assert_eq!((inv.cmd, inv.format), (Cmd::List, Format::Json));
        let listing = list_report();
        let json = listing.to_json();
        assert!(json.contains("\"scenarios\"") && json.contains("\"reports\""));
        assert!(json.contains("scenario_suite") && json.contains("paper_case_study"));
    }

    #[test]
    fn parses_the_scenario_family() {
        assert_eq!(
            parse(&args(&["scenario", "list"])).unwrap().cmd,
            Cmd::ScenarioList
        );
        assert_eq!(
            parse(&args(&["scenario", "export", "iot_fleet"]))
                .unwrap()
                .cmd,
            Cmd::ScenarioExport("iot_fleet".into())
        );
        assert_eq!(
            parse(&args(&["scenario", "validate", "a.json", "b.json"]))
                .unwrap()
                .cmd,
            Cmd::ScenarioValidate(vec!["a.json".into(), "b.json".into()])
        );
        // Usage errors, not panics.
        assert!(parse(&args(&["scenario"])).is_err());
        assert!(parse(&args(&["scenario", "frobnicate"])).is_err());
        assert!(parse(&args(&["scenario", "export"])).is_err());
        assert!(parse(&args(&["scenario", "export", "no_such"])).is_err());
        assert!(parse(&args(&["scenario", "validate"])).is_err());
        // Export is always JSON; a contradictory format is rejected, the
        // explicit JSON spelling is fine.
        assert!(parse(&args(&[
            "scenario",
            "export",
            "ecommerce",
            "--format",
            "csv"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "scenario",
            "export",
            "ecommerce",
            "--format",
            "json"
        ]))
        .is_ok());
        // Validate prints a summary, not a report.
        assert!(parse(&args(&[
            "scenario", "validate", "a.json", "--format", "json"
        ]))
        .is_err());
    }

    #[test]
    fn parses_eval_with_scenario_and_policy() {
        let inv = parse(&args(&["eval", "--scenario", "mine.json"])).unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Eval,
                scenario: Some("mine.json".into()),
                policy: None,
                profile: None,
            }
        );
        let inv = parse(&args(&[
            "eval",
            "--scenario",
            "mine.json",
            "--policy",
            "critical>7.5",
            "--format",
            "csv",
        ]))
        .unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Eval,
                scenario: Some("mine.json".into()),
                policy: Some(PatchPolicy::CriticalOnly(7.5)),
                profile: None,
            }
        );
        assert_eq!(inv.format, Format::Csv);
        // `eval` without a file, bad policies, and `--scenario` on other
        // commands are usage errors.
        assert!(parse(&args(&["eval"])).is_err());
        assert!(parse(&args(&[
            "eval",
            "--scenario",
            "f.json",
            "--policy",
            "bogus"
        ]))
        .is_err());
        assert!(parse(&args(&["table", "2", "--scenario", "f.json"])).is_err());
        assert!(parse(&args(&["list", "--policy", "all"])).is_err());
    }

    #[test]
    fn parses_optimize_with_defaults_and_overrides() {
        let inv = parse(&args(&["optimize"])).unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Optimize {
                    max_redundancy: None,
                    bounds: None,
                },
                scenario: None,
                policy: None,
                profile: None,
            }
        );
        let inv = parse(&args(&[
            "optimize",
            "--scenario",
            "ecommerce",
            "--max-redundancy",
            "6",
            "--policy",
            "all",
            "--bounds",
            "0.2,0.9962",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Optimize {
                    max_redundancy: Some(6),
                    bounds: Some(ScatterBounds {
                        max_asp: 0.2,
                        min_coa: 0.9962,
                    }),
                },
                scenario: Some("ecommerce".into()),
                policy: Some(PatchPolicy::All),
                profile: None,
            }
        );
        assert_eq!(inv.format, Format::Json);
        // Usage errors: out-of-range or malformed knobs, misplaced flags.
        assert!(parse(&args(&["optimize", "--max-redundancy", "0"])).is_err());
        assert!(parse(&args(&["optimize", "--max-redundancy", "9"])).is_err());
        assert!(parse(&args(&["optimize", "--max-redundancy", "two"])).is_err());
        assert!(parse(&args(&["optimize", "--bounds", "0.2"])).is_err());
        assert!(parse(&args(&["optimize", "--bounds", "0.2,inf"])).is_err());
        assert!(parse(&args(&["optimize", "--bounds", "x,0.9"])).is_err());
        assert!(parse(&args(&["table", "2", "--max-redundancy", "3"])).is_err());
        assert!(parse(&args(&["eval", "--scenario", "f.json", "--bounds", "0,1"])).is_err());
        assert!(parse(&args(&["--bounds", "0,1"])).is_err());
        assert!(parse(&args(&["optimize", "extra"])).is_err());
    }

    #[test]
    fn parses_equilibrium_with_defaults_and_overrides() {
        let inv = parse(&args(&["equilibrium"])).unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Equilibrium {
                    max_redundancy: None,
                    max_iters: None,
                },
                scenario: None,
                policy: None,
                profile: None,
            }
        );
        let inv = parse(&args(&[
            "equilibrium",
            "--scenario",
            "iot_fleet",
            "--max-redundancy",
            "2",
            "--policy",
            "all",
            "--max-iters",
            "8",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Equilibrium {
                    max_redundancy: Some(2),
                    max_iters: Some(8),
                },
                scenario: Some("iot_fleet".into()),
                policy: Some(PatchPolicy::All),
                profile: None,
            }
        );
        assert_eq!(inv.format, Format::Json);
        // Usage errors: out-of-range or malformed knobs, misplaced flags.
        assert!(parse(&args(&["equilibrium", "--max-iters", "0"])).is_err());
        assert!(parse(&args(&["equilibrium", "--max-iters", "65"])).is_err());
        assert!(parse(&args(&["equilibrium", "--max-iters", "two"])).is_err());
        assert!(parse(&args(&["equilibrium", "--bounds", "0.2,0.9"])).is_err());
        assert!(parse(&args(&["optimize", "--max-iters", "4"])).is_err());
        assert!(parse(&args(&["table", "2", "--max-iters", "4"])).is_err());
        assert!(parse(&args(&["--max-iters", "4"])).is_err());
        assert!(parse(&args(&["equilibrium", "extra"])).is_err());
    }

    #[test]
    fn parses_profile_on_the_evaluation_commands() {
        // Bare form defaults the trace path; `=` pins it.
        let inv = parse(&args(&["optimize", "--profile"])).unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Optimize {
                    max_redundancy: None,
                    bounds: None,
                },
                scenario: None,
                policy: None,
                profile: Some(DEFAULT_TRACE_FILE.into()),
            }
        );
        let inv = parse(&args(&[
            "eval",
            "--scenario",
            "mine.json",
            "--profile=trace.json",
        ]))
        .unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Eval,
                scenario: Some("mine.json".into()),
                policy: None,
                profile: Some("trace.json".into()),
            }
        );
        let inv = parse(&args(&[
            "equilibrium",
            "--profile=eq.json",
            "--max-iters",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Analyze {
                analysis: Analysis::Equilibrium {
                    max_redundancy: None,
                    max_iters: Some(4),
                },
                scenario: None,
                policy: None,
                profile: Some("eq.json".into()),
            }
        );
        // Usage errors: an empty path, a command that never profiles,
        // and a bare flag without a command.
        assert!(parse(&args(&["optimize", "--profile="])).is_err());
        assert!(parse(&args(&["table", "2", "--profile"])).is_err());
        assert!(parse(&args(&["serve", "--profile"])).is_err());
        assert!(parse(&args(&["--profile"])).is_err());
    }

    #[test]
    fn parses_gen_with_defaults_and_overrides() {
        let inv = parse(&args(&["gen", "iot_swarm"])).unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Gen {
                family: Family::IotSwarm,
                params: GenParams::default(),
                seed: 0,
            }
        );
        let inv = parse(&args(&[
            "gen",
            "ecommerce-fleet",
            "--seed",
            "42",
            "--tiers",
            "120",
            "--redundancy",
            "2",
            "--designs",
            "1",
            "--policies",
            "3",
            "--out",
            "corpus/",
        ]))
        .unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Gen {
                family: Family::EcommerceFleet,
                params: GenParams {
                    tiers: 120,
                    redundancy: 2,
                    designs: 1,
                    policies: 3,
                },
                seed: 42,
            }
        );
        assert_eq!(inv.out.as_deref(), Some("corpus/"));
        // The document is canonical JSON: explicit json is fine, any
        // other format is a contradiction.
        assert!(parse(&args(&["gen", "mesh", "--format", "json"])).is_ok());
        assert!(parse(&args(&["gen", "mesh", "--format", "csv"])).is_err());
        // Usage errors: missing/unknown family, bad numbers, misplaced
        // generator flags, trailing positionals.
        assert!(parse(&args(&["gen"])).is_err());
        assert!(parse(&args(&["gen", "no_such_family"])).is_err());
        assert!(parse(&args(&["gen", "iot", "--seed", "NaN"])).is_err());
        assert!(parse(&args(&["gen", "iot", "--tiers"])).is_err());
        assert!(parse(&args(&["table", "2", "--seed", "1"])).is_err());
        assert!(parse(&args(&["--seed", "1"])).is_err());
        assert!(parse(&args(&["gen", "iot", "extra"])).is_err());
    }

    #[test]
    fn gen_seed_stops_at_the_json_exact_limit() {
        // `POST /v1/generate` rejects seeds above 2^53 (JSON numbers
        // cannot carry them exactly); the CLI must reject them too, or
        // the generator front doors stop agreeing on their inputs.
        let inv = parse(&args(&["gen", "iot", "--seed", "9007199254740992"])).unwrap();
        assert!(matches!(inv.cmd, Cmd::Gen { seed, .. } if seed == 1 << 53));
        for bad in ["9007199254740993", "18446744073709551615"] {
            assert!(
                parse(&args(&["gen", "iot", "--seed", bad])).is_err(),
                "accepted --seed {bad}"
            );
        }
        assert_eq!(
            run(&args(&[
                "gen",
                "iot_swarm",
                "--seed",
                "18446744073709551615"
            ])),
            2
        );
    }

    #[test]
    fn usage_states_the_shared_limits() {
        // The usage text spells out the limits the flags enforce; keep it
        // in step with the constants the HTTP decoders share.
        for range in [MAX_REDUNDANCY_RANGE, MAX_ITERS_RANGE] {
            let stated = format!("{}..={}", range.start(), range.end());
            assert!(USAGE.contains(&stated), "usage misses {stated}");
        }
        assert_eq!(MAX_SEED, 1 << 53, "usage states 0..=2^53");
    }

    #[test]
    fn misplaced_flags_name_every_command_that_accepts_them() {
        for cmdline in [
            &["--max-redundancy", "3"][..],
            &["table", "2", "--max-redundancy", "3"],
        ] {
            let err = parse(&args(cmdline)).unwrap_err();
            assert!(
                err.contains("`optimize`") && err.contains("`equilibrium`"),
                "{cmdline:?}: {err}"
            );
        }
        for &(flag, owners) in FLAG_OWNERS {
            let mut cmdline = vec![flag];
            match flag {
                "--all" | "--bless" | "--profile" => {}
                "--bounds" => cmdline.push("0.2,0.9"),
                "--policy" => cmdline.push("all"),
                _ => cmdline.push("1"),
            }
            let without_command = parse(&args(&cmdline)).unwrap_err();
            cmdline.insert(0, "list");
            let wrong_command = parse(&args(&cmdline)).unwrap_err();
            for owner in owners {
                let owner = format!("`{owner}`");
                assert!(without_command.contains(&owner), "{without_command}");
                assert!(wrong_command.contains(&owner), "{wrong_command}");
            }
        }
    }

    #[test]
    fn eval_resolves_bundled_scenario_names_like_optimize() {
        // The analyses share one `--scenario` resolution: a bundled name
        // first, else a file path.
        let dir = std::env::temp_dir().join(format!("redeval-cli-eval-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap();
        let code = run(&args(&[
            "eval",
            "--scenario",
            "paper_case_study",
            "--format",
            "json",
            "--out",
            out,
        ]));
        assert_eq!(code, 0);
        let written = std::fs::read_to_string(dir.join("eval_paper_case_study.json")).unwrap();
        let doc = builtin::paper_case_study();
        let expected = reports::scenario::eval_report(&doc).unwrap().to_json();
        assert_eq!(written, expected);
        // An unknown name that is no file either is a validation failure.
        assert_eq!(run(&args(&["eval", "--scenario", "no_such_scenario"])), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gen_command_writes_the_generated_document() {
        let dir = std::env::temp_dir().join(format!("redeval-cli-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let code = run(&args(&[
            "gen",
            "microservice_mesh",
            "--seed",
            "11",
            "--tiers",
            "9",
            "--out",
            dir.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let doc = generate::generate(
            Family::MicroserviceMesh,
            &GenParams {
                tiers: 9,
                ..GenParams::default()
            },
            11,
        );
        let written = std::fs::read_to_string(dir.join(format!("{}.json", doc.name))).unwrap();
        assert_eq!(written, doc.to_json(), "CLI bytes differ from the API's");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_includes_the_generator_families() {
        let json = list_report().to_json();
        for family in generate::FAMILIES {
            assert!(json.contains(family.key()), "missing {family}");
        }
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let inv = parse(&args(&["serve"])).unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Serve {
                addr: crate::serve::DEFAULT_ADDR.to_string(),
                threads: redeval::exec::default_threads(),
                cache_cap: crate::serve::DEFAULT_CACHE_CAP,
                cache_dir: None,
            }
        );
        let inv = parse(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "3",
            "--cache-cap",
            "1048576",
            "--cache-dir",
            "/tmp/redeval-cache",
        ]))
        .unwrap();
        assert_eq!(
            inv.cmd,
            Cmd::Serve {
                addr: "0.0.0.0:9000".into(),
                threads: 3,
                cache_cap: 1_048_576,
                cache_dir: Some("/tmp/redeval-cache".into()),
            }
        );
        // Usage errors: bad numbers, misplaced flags, stray output flags.
        assert!(parse(&args(&["serve", "--threads", "0"])).is_err());
        assert!(parse(&args(&["serve", "--threads", "many"])).is_err());
        assert!(parse(&args(&["serve", "--cache-cap", "big"])).is_err());
        assert!(parse(&args(&["serve", "--format", "json"])).is_err());
        assert!(parse(&args(&["serve", "--out", "/tmp/x"])).is_err());
        assert!(parse(&args(&["serve", "--cache-dir"])).is_err());
        assert!(parse(&args(&["table", "2", "--addr", "x"])).is_err());
        assert!(parse(&args(&["table", "2", "--cache-dir", "/tmp/x"])).is_err());
        assert!(parse(&args(&["--addr", "127.0.0.1:1"])).is_err());
        assert!(parse(&args(&["serve", "extra"])).is_err());
    }

    #[test]
    fn serve_threads_stop_at_the_bound() {
        // Parsing only: no pool or server is ever built here.
        let threads = |n: &str| -> Result<usize, String> {
            match parse(&args(&["serve", "--threads", n]))?.cmd {
                Cmd::Serve { threads, .. } => Ok(threads),
                other => panic!("expected Serve, got {other:?}"),
            }
        };
        assert_eq!(threads("1"), Ok(1));
        assert_eq!(threads("1024"), Ok(1024));
        for bad in ["0", "1025"] {
            let err = threads(bad).unwrap_err();
            assert!(
                err.contains("--threads") && err.contains("1..=1024"),
                "{err}"
            );
        }
        assert!(USAGE.contains("1..=1024"), "usage states the bound");
    }

    #[test]
    fn out_dir_is_created_with_parents() {
        // `--out DIR` must create DIR (including parents) rather than
        // erroring when it does not exist yet.
        let root = std::env::temp_dir().join(format!("redeval-cli-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nested = root.join("deep/nested/dir");
        assert!(!nested.exists());
        emit_text("payload\n", "report", "txt", Some(nested.to_str().unwrap())).unwrap();
        assert_eq!(
            std::fs::read_to_string(nested.join("report.txt")).unwrap(),
            "payload\n"
        );
        // Re-emitting into the now-existing directory keeps working.
        emit_text("again\n", "report", "txt", Some(nested.to_str().unwrap())).unwrap();
        assert_eq!(
            std::fs::read_to_string(nested.join("report.txt")).unwrap(),
            "again\n"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_args_ask_for_help() {
        assert_eq!(parse(&args(&[])).unwrap().cmd, Cmd::Help);
        assert_eq!(parse(&args(&["--help", "--all"])).unwrap().cmd, Cmd::Help);
    }

    #[test]
    fn flags_without_a_command_are_usage_errors() {
        // A mistyped invocation must not exit 0 with the usage text.
        for bad in [
            vec!["--scenario", "mine.json"],
            vec!["--policy", "all"],
            vec!["--format", "json"],
            vec!["--out", "/tmp/x"],
        ] {
            assert!(parse(&args(&bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn scenario_listing_report_name_avoids_the_registry() {
        // `scenario list --out DIR` and `report --all --out DIR` may
        // share a directory; the listing must never clobber the
        // `scenarios` (partial-patch study) registry report.
        let listing = scenario_list_report();
        assert_eq!(listing.name, "scenario_list");
        assert!(reports::find(&listing.name).is_none());
        assert!(reports::find("scenarios").is_some());
    }
}
