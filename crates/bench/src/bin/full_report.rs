//! Emits the complete markdown evaluation report for the paper's five
//! designs (pipe to a file for CI artifacts). Thin shim over
//! `redeval_bench::reports::full_report_markdown`, which renders through
//! `redeval::report::markdown_report` with the paper's region bounds, on
//! one pool and one solve cache.

use std::sync::Arc;

use redeval::exec::{default_threads, AnalysisCache, Pool};
use redeval_bench::reports::full_report_markdown;

fn main() {
    let (pool, cache) = (Pool::new(default_threads()), Arc::new(AnalysisCache::new()));
    print!("{}", full_report_markdown(&pool, &cache));
}
