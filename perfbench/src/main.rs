//! One run of one workload of the suca benchmark.
//!
//! ```text
//! suca-perfbench --workload <tenant_mix|pubsub_pipeline|kv_rate|bcl_ring> --seed <n> --trace <0|1> [--spans <dir>]
//! ```
//!
//! Prints one JSON line: host-time metrics, virtual-time metrics with
//! their sample counts, per-layer metrics (traced runs), correctness
//! checks, and operation counts. `perfbench/run.py` repeats runs,
//! takes medians and prints the benchmark's result.

mod cpu;
mod mix;
mod report;
mod ring;
mod spans;
mod stats;

use std::path::PathBuf;
use std::sync::OnceLock;

static SPANS_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Write the traced run's spans as TSV under `--spans`, if given.
pub fn write_spans(spans: &[spans::Span], workload: &str, seed: u64) {
    let Some(dir) = SPANS_DIR.get() else {
        return;
    };
    let path = dir.join(format!("{workload}_{seed}.tsv"));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans::to_tsv(spans)))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn usage() -> ! {
    eprintln!("usage: suca-perfbench --workload <tenant_mix|pubsub_pipeline|kv_rate|bcl_ring> --seed <n> --trace <0|1> [--spans <dir>]");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let v = args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                traced = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--spans" => {
                let _ = SPANS_DIR.set(PathBuf::from(v));
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(traced)) = (workload, seed, traced) else {
        usage()
    };
    let report = match workload.as_str() {
        "tenant_mix" => mix::run(mix::Kind::TenantMix, seed, traced),
        "pubsub_pipeline" => mix::run(mix::Kind::Services, seed, traced),
        "kv_rate" => mix::run(mix::Kind::KvRate, seed, traced),
        "bcl_ring" => ring::run(seed, traced),
        _ => usage(),
    };
    println!("{}", report.to_json(&workload, seed, traced));
}

/// Seed of simulation `k` of a run with seed `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    suca_sim::SimRng::fork(seed, &format!("sim{k}")).next_u64()
}
