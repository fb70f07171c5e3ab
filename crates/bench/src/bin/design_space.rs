//! Extension (paper §V "systems"): exhaustive design-space search with
//! the paper's decision functions. Thin shim over
//! `redeval_bench::reports::studies::design_space`, parameterized by the
//! per-tier redundancy bound (equivalently: `redeval design-space` for
//! the default bound of 3), run on one pool and one solve cache. The
//! bound takes the range of the `redeval` `--max-redundancy` flag; a
//! malformed or out-of-range bound exits 2.
//!
//! Usage: `design_space [max_redundancy]`

use std::sync::Arc;

use redeval::exec::{default_threads, AnalysisCache, Pool};
use redeval_bench::cli;
use redeval_bench::reports::studies;
use redeval_server::MAX_REDUNDANCY_RANGE;

fn main() {
    let bound = std::env::args().nth(1).map_or(Ok(3), |arg| {
        cli::in_range("max_redundancy", &arg, MAX_REDUNDANCY_RANGE)
    });
    std::process::exit(match bound {
        Ok(max_redundancy) => {
            let (pool, cache) = (Pool::new(default_threads()), Arc::new(AnalysisCache::new()));
            cli::print_report(&studies::design_space(max_redundancy, &pool, &cache))
        }
        Err(msg) => {
            eprintln!("error: {msg}\nusage: design_space [max_redundancy]");
            2
        }
    });
}
