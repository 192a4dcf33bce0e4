//! # serve — the `bitspecd` batch compile-and-simulate layer
//!
//! ROADMAP item 1's front-end: accept batches of build/sim/experiment
//! requests, dedupe identical cells across requests, shard the unique
//! cells across `bitspec::pool` workers, and stream one JSONL result
//! line per request with hit/miss provenance (memory / disk / computed).
//! Artifact lookups go memory → persistent store → compute via
//! [`bench::run_cached_traced`], which returns each cell's
//! [`bitspec::Manifest`]. A result line and the batch's `suite_fp` read
//! only the manifest (`build_fp` is its program fingerprint), so a warmed
//! store turns a whole batch into reads of small manifests, and no cell
//! is rebuilt.
//!
//! ## Request protocol
//!
//! Line-oriented text; `#` starts a comment. Each line is a verb plus
//! `key=value` pairs:
//!
//! ```text
//! build crc32 config=bitspec
//! sim sha config=bitspec-min gate=0
//! experiment suite
//! ```
//!
//! * `build` — compile the workload, report build facts.
//! * `sim` — compile and simulate, report cycles and energy too (cells
//!   always carry both; the verb picks the fields emitted).
//! * `experiment suite` — expand to the full 112-cell evaluation matrix
//!   (every MiBench workload × [`bench::suite_configs`]).
//!
//! Config bases: `baseline`, `bitspec` (default), `bitspec-avg`,
//! `bitspec-min`, `nospec`, `compact`. Overrides: `gate=0|1`,
//! `verify=0|1`, `dts=0|1`, `compare_elim=0|1`, `bitmask=0|1`,
//! `unroll=N`.

use bench::{run_cached_traced, suite_configs};
use bitspec::fingerprint::cell_key;
use bitspec::fingerprint::Fnv;
use bitspec::memo::Source;
use bitspec::{pool, Arch, BitwidthHeuristic, BuildConfig, Manifest, Workload};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What a request asks for (cells always hold build + sim; the op picks
/// the fields the result line carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Build,
    Sim,
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in the batch (result lines echo it).
    pub id: usize,
    pub op: Op,
    pub workload: Workload,
    pub cfg: BuildConfig,
    /// Human-readable config label echoed in the result line.
    pub label: String,
}

/// A request-line parse failure (line number + message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn base_config(name: &str) -> Option<(BuildConfig, &'static str)> {
    Some(match name {
        "baseline" => (BuildConfig::baseline(), "baseline"),
        "bitspec" => (BuildConfig::bitspec(), "bitspec"),
        "bitspec-avg" => (
            BuildConfig::bitspec_with(BitwidthHeuristic::Avg),
            "bitspec-avg",
        ),
        "bitspec-min" => (
            BuildConfig::bitspec_with(BitwidthHeuristic::Min),
            "bitspec-min",
        ),
        "nospec" => (
            BuildConfig {
                arch: Arch::NoSpec,
                ..BuildConfig::bitspec()
            },
            "nospec",
        ),
        "compact" => (
            BuildConfig {
                arch: Arch::Compact,
                ..BuildConfig::baseline()
            },
            "compact",
        ),
        _ => return None,
    })
}

fn parse_flag(v: &str) -> Option<bool> {
    match v {
        "0" | "false" | "off" => Some(false),
        "1" | "true" | "on" => Some(true),
        _ => None,
    }
}

/// Stable labels for the [`bench::suite_configs`] matrix, in order.
pub fn suite_labels() -> Vec<&'static str> {
    vec![
        "baseline",
        "bitspec",
        "t2-max",
        "t2-avg",
        "t2-min",
        "no-compare-elim",
        "no-bitmask",
        "nospec",
    ]
}

/// The full 112-cell evaluation suite as a request batch (every MiBench
/// workload under every [`bench::suite_configs`] config, op = sim),
/// ids assigned from `first_id`.
pub fn suite_requests(first_id: usize) -> Vec<Request> {
    let cfgs = suite_configs();
    let labels = suite_labels();
    assert_eq!(cfgs.len(), labels.len(), "suite labels out of sync");
    let mut reqs = Vec::new();
    for name in mibench::names() {
        let w = mibench::workload(name, mibench::Input::Large);
        for (cfg, label) in cfgs.iter().zip(&labels) {
            reqs.push(Request {
                id: first_id + reqs.len(),
                op: Op::Sim,
                workload: w.clone(),
                cfg: cfg.clone(),
                label: (*label).to_string(),
            });
        }
    }
    reqs
}

/// Parses a whole request text (one request — or `experiment`
/// expansion — per line) into a batch.
///
/// # Errors
/// Returns the first offending line.
pub fn parse_requests(text: &str) -> Result<Vec<Request>, ParseError> {
    let mut reqs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().expect("non-empty line");
        let err = |msg: String| ParseError { line: lineno, msg };
        match verb {
            "build" | "sim" => {
                let name = parts
                    .next()
                    .ok_or_else(|| err(format!("`{verb}` needs a workload name")))?;
                if !mibench::names().contains(&name) {
                    return Err(err(format!("unknown workload `{name}`")));
                }
                let mut cfg = BuildConfig::bitspec();
                let mut label = String::from("bitspec");
                for kv in parts {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("expected key=value, got `{kv}`")))?;
                    match k {
                        "config" => {
                            let (c, l) = base_config(v)
                                .ok_or_else(|| err(format!("unknown config `{v}`")))?;
                            cfg = c;
                            label = l.to_string();
                        }
                        "gate" => {
                            cfg.empirical_gate = parse_flag(v)
                                .ok_or_else(|| err(format!("bad flag value `{v}`")))?;
                        }
                        "verify" => {
                            cfg.verify_each = parse_flag(v)
                                .ok_or_else(|| err(format!("bad flag value `{v}`")))?;
                        }
                        "dts" => {
                            cfg.dts = parse_flag(v)
                                .ok_or_else(|| err(format!("bad flag value `{v}`")))?;
                        }
                        "compare_elim" => {
                            cfg.compare_elim = parse_flag(v)
                                .ok_or_else(|| err(format!("bad flag value `{v}`")))?;
                        }
                        "bitmask" => {
                            cfg.bitmask_elision = parse_flag(v)
                                .ok_or_else(|| err(format!("bad flag value `{v}`")))?;
                        }
                        "unroll" => {
                            cfg.expander.unroll_factor = v
                                .parse()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or_else(|| err(format!("bad unroll factor `{v}`")))?;
                        }
                        _ => return Err(err(format!("unknown key `{k}`"))),
                    }
                }
                reqs.push(Request {
                    id: reqs.len(),
                    op: if verb == "build" { Op::Build } else { Op::Sim },
                    workload: mibench::workload(name, mibench::Input::Large),
                    cfg,
                    label,
                });
            }
            "experiment" => {
                let name = parts
                    .next()
                    .ok_or_else(|| err("`experiment` needs a name".to_string()))?;
                match name {
                    "suite" => reqs.extend(suite_requests(reqs.len())),
                    _ => return Err(err(format!("unknown experiment `{name}`"))),
                }
            }
            _ => return Err(err(format!("unknown verb `{verb}`"))),
        }
    }
    Ok(reqs)
}

/// Batch statistics: request/cell counts by provenance plus the combined
/// suite fingerprint (FNV-1a over each unique cell's `(cell key, program
/// fingerprint, outputs, cycles)` in first-occurrence order — two runs
/// covering the same cells producing the same `suite_fp` produced
/// bit-identical artifacts and results, however the cells were served).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    pub requests: usize,
    /// Unique cells after dedupe.
    pub cells: usize,
    /// Requests that shared another request's cell.
    pub deduped: usize,
    pub memory_hits: usize,
    pub disk_hits: usize,
    pub computed: usize,
    pub suite_fp: u64,
}

/// FNV over a sim output stream.
fn outputs_fnv(outputs: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for o in outputs {
        h.u32(*o);
    }
    h.finish()
}

/// Serves one batch: dedupes identical cells across requests (first
/// occurrence wins, later ones are flagged `dedup`), fans the unique
/// cells across `jobs` pool workers, and emits one JSONL line per
/// request through `emit`. With `ordered` the lines come out in request
/// order after the batch completes; without it each cell's lines stream
/// as soon as that cell finishes (order then depends on scheduling, the
/// *content* of every line does not). Returns the batch statistics;
/// wall-clock is the caller's to measure.
pub fn serve_batch(
    reqs: &[Request],
    jobs: usize,
    ordered: bool,
    emit: &(dyn Fn(&str) + Sync),
) -> ServeStats {
    // Dedupe on the structural cell key, preserving first-occurrence
    // order so the work list is deterministic.
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut uniques: Vec<&Request> = Vec::new();
    let mut req_cell: Vec<(u64, usize, bool)> = Vec::new(); // (key, unique idx, dedup)
    for r in reqs {
        let key = cell_key(&r.workload, &r.cfg);
        match index_of.get(&key) {
            Some(&ui) => req_cell.push((key, ui, true)),
            None => {
                let ui = uniques.len();
                index_of.insert(key, ui);
                uniques.push(r);
                req_cell.push((key, ui, false));
            }
        }
    }

    // Requests served by each unique cell, for streaming emission.
    let mut served_by: Vec<Vec<usize>> = vec![Vec::new(); uniques.len()];
    for (ri, (_, ui, _)) in req_cell.iter().enumerate() {
        served_by[*ui].push(ri);
    }

    let emit_line = |ri: usize, m: &Manifest, source: Source| {
        let r = &reqs[ri];
        let (key, _, dedup) = req_cell[ri];
        let build_fp = m.program_fp;
        let mut line = format!(
            "{{\"id\": {}, \"op\": \"{}\", \"workload\": \"{}\", \"config\": \"{}\", \
             \"key\": \"{key:016x}\", \"source\": \"{}\", \"dedup\": {dedup}, \
             \"build_fp\": \"{build_fp:016x}\", \"used_squeezed\": {}",
            r.id,
            match r.op {
                Op::Build => "build",
                Op::Sim => "sim",
            },
            r.workload.name,
            r.label,
            source.label(),
            m.used_squeezed,
        );
        if r.op == Op::Sim {
            line.push_str(&format!(
                ", \"outputs_fnv\": \"{:016x}\", \"cycles\": {}, \"energy_pj\": {:.4}",
                outputs_fnv(&m.sim.outputs),
                m.sim.cycles,
                m.sim.total_energy(),
            ));
        }
        line.push('}');
        emit(&line);
    };

    let emit_mutex = Mutex::new(());
    let results: Vec<(Arc<Manifest>, Source)> = pool::run_ordered(uniques.len(), jobs, |ui| {
        let r = uniques[ui];
        let (m, source) = run_cached_traced(&r.workload, &r.cfg);
        if !ordered {
            // Stream: this cell is done, emit every request it serves.
            let _g = emit_mutex.lock().expect("emit lock");
            for &ri in &served_by[ui] {
                emit_line(ri, &m, source);
            }
        }
        (m, source)
    });

    if ordered {
        for (ri, &(_, ui, _)) in req_cell.iter().enumerate() {
            emit_line(ri, &results[ui].0, results[ui].1);
        }
    }

    // Combined fingerprint over the unique cells in first-occurrence
    // order: any difference in keys, compiled programs or observable
    // results changes it. Hashing uniques (not raw requests) keeps the
    // fingerprint comparable between a batch and its deduped repeat.
    let mut h = Fnv::new();
    for (ui, r) in uniques.iter().enumerate() {
        let (m, _) = &results[ui];
        h.u64(cell_key(&r.workload, &r.cfg));
        h.u64(m.program_fp);
        h.u64(outputs_fnv(&m.sim.outputs));
        h.u64(m.sim.cycles);
    }

    let mut stats = ServeStats {
        requests: reqs.len(),
        cells: uniques.len(),
        deduped: reqs.len() - uniques.len(),
        memory_hits: 0,
        disk_hits: 0,
        computed: 0,
        suite_fp: h.finish(),
    };
    for (_, source) in &results {
        match source {
            Source::Memory => stats.memory_hits += 1,
            Source::Disk => stats.disk_hits += 1,
            Source::Computed => stats.computed += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_requests() {
        let reqs = parse_requests(
            "# comment\n\
             build crc32 config=baseline\n\
             sim sha config=bitspec-min gate=0\n",
        )
        .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].op, Op::Build);
        assert_eq!(reqs[0].label, "baseline");
        assert_eq!(reqs[1].op, Op::Sim);
        assert!(!reqs[1].cfg.empirical_gate);
        assert_eq!(reqs[1].cfg.heuristic, BitwidthHeuristic::Min);
    }

    #[test]
    fn parse_rejects_unknowns() {
        assert!(parse_requests("frobnicate crc32").is_err());
        assert!(parse_requests("build nonesuch").is_err());
        assert!(parse_requests("build crc32 config=warp").is_err());
        assert!(parse_requests("build crc32 gate=maybe").is_err());
        assert!(parse_requests("experiment nonesuch").is_err());
    }

    #[test]
    fn suite_expands_to_full_matrix() {
        let reqs = parse_requests("experiment suite").unwrap();
        assert_eq!(reqs.len(), mibench::names().len() * suite_configs().len());
        // Ids are the batch positions.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i);
        }
    }

    #[test]
    fn dedupe_collapses_identical_cells() {
        let text = "sim crc32 config=baseline\nsim crc32 config=baseline\n";
        let reqs = parse_requests(text).unwrap();
        let lines = Mutex::new(Vec::new());
        let stats = serve_batch(&reqs, 1, true, &|l| {
            lines.lock().unwrap().push(l.to_string());
        });
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cells, 1);
        assert_eq!(stats.deduped, 1);
        let lines = lines.into_inner().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"dedup\": false"));
        assert!(lines[1].contains("\"dedup\": true"));
        // Same cell, same fingerprints on both lines.
        let fp = |l: &str| {
            l.split("\"build_fp\": \"")
                .nth(1)
                .unwrap()
                .chars()
                .take(16)
                .collect::<String>()
        };
        assert_eq!(fp(&lines[0]), fp(&lines[1]));
    }
}
