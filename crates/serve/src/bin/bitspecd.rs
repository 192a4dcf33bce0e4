//! `bitspecd` — the batch compile-and-simulate request runner.
//!
//! Reads a request batch (stdin or `--file`), serves it through the
//! three-tier cache (memory → persistent store → compute) and streams
//! one JSONL result line per request with hit/miss provenance. See the
//! `serve` crate docs for the request protocol.
//!
//! ```text
//! bitspecd [--store DIR] [--store-cap BYTES[k|m|g]] [-j N]
//!          [--codegen-jobs N] [--ordered] [--file REQUESTS]
//! ```
//!
//! The benchmark (`perf/`) times this binary: cold into an empty store,
//! and disk-warm from fresh processes over a populated one.

use serve::{parse_requests, serve_batch, ServeStats};
use std::io::Read;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    store: Option<PathBuf>,
    store_cap: Option<u64>,
    jobs: usize,
    codegen_jobs: Option<usize>,
    ordered: bool,
    file: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bitspecd [--store DIR] [--store-cap BYTES[k|m|g]] [-j N] \
         [--codegen-jobs N] [--ordered] [--file REQUESTS]"
    );
    std::process::exit(2);
}

/// A worker count: a positive integer, or the usage text and exit 2.
fn parse_jobs(v: Option<&str>) -> usize {
    v.and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        store: None,
        store_cap: None,
        jobs: bitspec::pool::jobs(),
        codegen_jobs: None,
        ordered: false,
        file: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => a.store = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--store-cap" => {
                let v = it.next().unwrap_or_else(|| usage());
                match bitspec::store::parse_cap(v) {
                    Some(cap) => a.store_cap = Some(cap),
                    None => {
                        eprintln!("bitspecd: bad --store-cap value `{v}`");
                        std::process::exit(2);
                    }
                }
            }
            "--codegen-jobs" => a.codegen_jobs = Some(parse_jobs(it.next().map(String::as_str))),
            "--ordered" => a.ordered = true,
            "--file" => a.file = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "-j" | "--jobs" => a.jobs = parse_jobs(it.next().map(String::as_str)),
            s if s.starts_with("-j") => a.jobs = parse_jobs(Some(&s[2..])),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("bitspecd: unknown argument `{other}`");
                usage();
            }
        }
    }
    a
}

fn print_summary(stats: &ServeStats, wall: f64) {
    println!(
        "{{\"summary\": {{\"requests\": {}, \"cells\": {}, \"deduped\": {}, \
         \"memory_hits\": {}, \"disk_hits\": {}, \"computed\": {}, \"wall_s\": {wall:.6}, \
         \"throughput_rps\": {:.2}, \"suite_fp\": \"{:016x}\"}}}}",
        stats.requests,
        stats.cells,
        stats.deduped,
        stats.memory_hits,
        stats.disk_hits,
        stats.computed,
        if wall > 0.0 {
            stats.requests as f64 / wall
        } else {
            0.0
        },
        stats.suite_fp,
    );
}

/// Parses a batch from `--file`/stdin and streams its results.
fn serve_mode(a: &Args) {
    let text = match &a.file {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bitspecd: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| {
                    eprintln!("bitspecd: cannot read stdin: {e}");
                    std::process::exit(2);
                });
            buf
        }
    };
    let reqs = match parse_requests(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bitspecd: {e}");
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    let stats = serve_batch(&reqs, a.jobs, a.ordered, &|line| println!("{line}"));
    print_summary(&stats, t.elapsed().as_secs_f64());
}

fn main() {
    let a = parse_args();
    // --store/--store-cap override the BITSPEC_STORE_DIR /
    // BITSPEC_STORE_MAX_BYTES environment for this process.
    if let Some(dir) = &a.store {
        if let Err(e) = bitspec::store::Store::open(dir, a.store_cap) {
            eprintln!("bitspecd: cannot open store {}: {e}", dir.display());
            std::process::exit(2);
        }
        bitspec::store::configure(Some(dir), a.store_cap);
    }
    // `-j` fans requests across pool workers; `--codegen-jobs` further
    // fans each miss's backend across per-function codegen workers
    // (useful for few-request batches of large modules). Both settings
    // leave served artifacts bit-identical.
    if let Some(n) = a.codegen_jobs {
        bitspec::stages::set_codegen_workers(n);
    }
    serve_mode(&a);
}
