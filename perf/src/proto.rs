//! The `bitspecd` request/JSONL protocol as the benchmark drives it: the
//! seeded suite batch it sends, and the parsing and checking of the lines
//! that come back. A malformed or missing line is a failed cell, never a
//! panic.

use crate::json::{self, Value};
use crate::oracle;
use std::collections::HashMap;

/// The eight suite configurations (`bench::suite_configs`, in order) as
/// request-line arguments: a base config plus overrides, so a seeded order
/// of single-cell requests covers exactly the cells of `experiment suite`.
pub const SUITE_CONFIGS: [&str; 8] = [
    "config=baseline",
    "config=bitspec",
    "config=bitspec gate=0",
    "config=bitspec-avg gate=0",
    "config=bitspec-min gate=0",
    "config=bitspec compare_elim=0",
    "config=bitspec bitmask=0",
    "config=nospec",
];

/// Indices into [`SUITE_CONFIGS`] of the pair the paper's ratio compares.
const BASELINE: usize = 0;
const BITSPEC: usize = 1;

/// One cell of the suite batch: a workload under one suite config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteCell {
    pub workload: &'static str,
    pub config: usize,
}

/// All 14 × 8 suite cells in the order `seed` picks.
pub fn suite_cells(seed: u64) -> Vec<SuiteCell> {
    let mut cells: Vec<SuiteCell> = mibench::names()
        .into_iter()
        .flat_map(|workload| {
            (0..SUITE_CONFIGS.len()).map(move |config| SuiteCell { workload, config })
        })
        .collect();
    crate::rng::shuffle(&mut cells, seed);
    cells
}

/// The request text for `cells`: one `sim` line each, so result line `id`
/// answers `cells[id]`.
pub fn request_text(cells: &[SuiteCell]) -> String {
    cells
        .iter()
        .map(|c| format!("sim {} {}\n", c.workload, SUITE_CONFIGS[c.config]))
        .collect()
}

/// The fields of one `sim` result line the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLine {
    pub id: usize,
    pub workload: String,
    /// The structural cell key (hex), stable across batch orders.
    pub key: String,
    /// `memory`, `disk` or `computed`.
    pub source: String,
    pub build_fp: String,
    pub outputs_fnv: u64,
    pub cycles: u64,
    pub energy_pj: f64,
}

/// The batch summary line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub requests: u64,
    pub cells: u64,
    pub disk_hits: u64,
    pub computed: u64,
}

/// One line of `bitspecd` output.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    Cell(CellLine),
    Summary(Summary),
}

fn field<'a>(v: &'a Value, k: &str) -> Result<&'a Value, String> {
    v.get(k).ok_or_else(|| format!("missing `{k}`"))
}

fn u64_field(v: &Value, k: &str) -> Result<u64, String> {
    field(v, k)?
        .as_u64()
        .ok_or_else(|| format!("`{k}` is not a count"))
}

fn str_field(v: &Value, k: &str) -> Result<String, String> {
    field(v, k)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{k}` is not a string"))
}

/// A 16-digit hex fingerprint field.
fn hex_field(v: &Value, k: &str) -> Result<u64, String> {
    let s = str_field(v, k)?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("`{k}` is not a 64-bit hex fingerprint"));
    }
    u64::from_str_radix(&s, 16).map_err(|_| format!("`{k}` is not a 64-bit hex fingerprint"))
}

/// Parses one output line.
///
/// # Errors
/// Describes why the line is not a well-formed `sim` result or summary.
pub fn parse_line(line: &str) -> Result<Line, String> {
    let v = json::parse(line)?;
    if let Some(s) = v.get("summary") {
        return Ok(Line::Summary(Summary {
            requests: u64_field(s, "requests")?,
            cells: u64_field(s, "cells")?,
            disk_hits: u64_field(s, "disk_hits")?,
            computed: u64_field(s, "computed")?,
        }));
    }
    let id = u64_field(&v, "id")?;
    hex_field(&v, "key")?;
    hex_field(&v, "build_fp")?;
    Ok(Line::Cell(CellLine {
        id: usize::try_from(id).map_err(|_| "`id` out of range")?,
        workload: str_field(&v, "workload")?,
        key: str_field(&v, "key")?,
        source: str_field(&v, "source")?,
        build_fp: str_field(&v, "build_fp")?,
        outputs_fnv: hex_field(&v, "outputs_fnv")?,
        cycles: u64_field(&v, "cycles")?,
        energy_pj: field(&v, "energy_pj")?
            .as_f64()
            .ok_or("`energy_pj` is not a number")?,
    }))
}

/// What one cell must reproduce on every later serve: its identity and
/// its results, compared bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    cell: SuiteCell,
    build_fp: String,
    cycles: u64,
    energy_bits: u64,
}

/// Per-cell results of the first serve in a run, keyed by the cell `key`
/// (never by the order-dependent `suite_fp`); every later serve must
/// match them exactly.
#[derive(Debug, Default)]
pub struct Reference(HashMap<String, Facts>);

/// The outcome of checking one served batch.
#[derive(Debug)]
pub struct Checked {
    /// Cells that failed any check (a nonzero exit fails them all).
    pub failed: usize,
    /// The line for each batch position that passed every check.
    pub cells: Vec<Option<CellLine>>,
    /// The first few reasons, for the log.
    pub problems: Vec<String>,
}

impl Checked {
    fn note(&mut self, msg: String) {
        if self.problems.len() < 5 {
            self.problems.push(msg);
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }
}

/// Checks `bitspecd`'s output for the batch `cells`: every position has
/// exactly one well-formed line naming its workload, served from
/// `source`, whose outputs match the pinned oracle and whose results match
/// `reference` (recording them there on first sight). `exit_ok` false (a
/// nonzero exit or a signal) fails every cell; so does a missing or
/// inconsistent summary.
pub fn check_suite(
    stdout: &str,
    exit_ok: bool,
    cells: &[SuiteCell],
    source: &str,
    reference: &mut Reference,
) -> Checked {
    let mut out = Checked {
        failed: 0,
        cells: vec![None; cells.len()],
        problems: Vec::new(),
    };
    let mut lines: Vec<Option<CellLine>> = vec![None; cells.len()];
    let mut seen = vec![false; cells.len()];
    let mut summary = None;
    let mut garbage = 0;
    for raw in stdout.lines().filter(|l| !l.trim().is_empty()) {
        match parse_line(raw) {
            Ok(Line::Summary(s)) => summary = Some(s),
            Ok(Line::Cell(c)) if c.id < cells.len() && !seen[c.id] => {
                seen[c.id] = true;
                let id = c.id;
                lines[id] = Some(c);
            }
            Ok(Line::Cell(c)) => {
                garbage += 1;
                out.note(format!("duplicate or out-of-range id {}", c.id));
            }
            Err(e) => {
                garbage += 1;
                out.note(format!("malformed line ({e}): {raw}"));
            }
        }
    }
    let n = cells.len() as u64;
    let batch_ok = exit_ok
        && garbage == 0
        && summary.is_some_and(|s| {
            s.requests == n
                && s.cells == n
                && if source == "disk" {
                    s.disk_hits == n
                } else {
                    s.computed == n
                }
        });
    if !batch_ok {
        out.note(format!(
            "batch failed: exit_ok={exit_ok}, malformed={garbage}, summary={summary:?}"
        ));
    }
    for (id, (cell, line)) in cells.iter().zip(lines).enumerate() {
        let Some(line) = line else {
            out.fail(format!("no line for id {id}"));
            continue;
        };
        if !batch_ok {
            out.failed += 1;
            continue;
        }
        if line.workload != cell.workload || line.source != source {
            out.fail(format!(
                "id {id}: got {} from {}, want {} from {source}",
                line.workload, line.source, cell.workload
            ));
            continue;
        }
        if Some(line.outputs_fnv) != oracle::pinned_fnv(cell.workload) {
            out.fail(format!(
                "id {id}: {} outputs differ from the pinned oracle",
                cell.workload
            ));
            continue;
        }
        let facts = Facts {
            cell: *cell,
            build_fp: line.build_fp.clone(),
            cycles: line.cycles,
            energy_bits: line.energy_pj.to_bits(),
        };
        match reference.0.get(&line.key) {
            Some(prev) if *prev != facts => {
                out.fail(format!(
                    "id {id}: key {} changed: {prev:?} -> {facts:?}",
                    line.key
                ));
                continue;
            }
            Some(_) => {}
            None => {
                reference.0.insert(line.key.clone(), facts);
            }
        }
        out.cells[id] = Some(line);
    }
    out
}

/// Geometric means over the workloads of BITSPEC ÷ BASELINE energy and
/// cycles, from one checked batch; `None` unless every workload has both
/// cells.
pub fn suite_ratios(cells: &[SuiteCell], checked: &Checked) -> Option<(f64, f64)> {
    let mut by: HashMap<(&str, usize), &CellLine> = HashMap::new();
    for (cell, line) in cells.iter().zip(&checked.cells) {
        by.insert((cell.workload, cell.config), line.as_ref()?);
    }
    let mut energy = Vec::new();
    let mut cycles = Vec::new();
    for w in mibench::names() {
        let b = by.get(&(w, BASELINE))?;
        let s = by.get(&(w, BITSPEC))?;
        energy.push(s.energy_pj / b.energy_pj);
        cycles.push(s.cycles as f64 / b.cycles as f64);
    }
    Some((
        crate::stats::geomean(&energy)?,
        crate::stats::geomean(&cycles)?,
    ))
}
