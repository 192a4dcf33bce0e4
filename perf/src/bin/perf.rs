//! `perf` — the benchmark's end-to-end load generator.
//!
//! ```text
//! perf [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!      [--out FILE] [--check [BASELINE]] [--smoke] --bitspecd PATH
//! perf compare A.json B.json
//! ```
//!
//! A single process drives one child at a time: a fresh `bitspecd` for the
//! suite workloads, a fresh `perf --child …` for the others, each running
//! `JOBS` (2) workers, passed to `bitspecd` explicitly as `-j 2`. Every timed repetition is a new process,
//! so "cold" is cold and the child's peak RSS is measurable. Untimed
//! set-up rounds come first — warm-up repetitions, or `suite-disk`'s
//! populate sweeps — and are reported as `setup_s`: the first run in a
//! sequence is markedly slower than the rest, so it is never timed.
//!
//! With `--workload` the last line of standard output is the result line
//! (`correct`, `attempted`, `failed`, and the end-to-end metrics
//! `BENCHMARK.json` lists). Without it every workload runs. Either way
//! the full report, with every metric's samples, is written to `--out`
//! (default `perf/out/report.json`). `--trace 1` runs `perf-trace`
//! instead. `--check` compares the run against a baseline report
//! (default `perf/baseline.json`) and exits 1 on a regression; `--smoke`
//! runs one short repetition of everything and exits 1 unless nothing
//! failed and the report reads back.
//!
//! Only the most stable interfaces are used here — the `bitspecd`
//! protocol, `bitspec::{build, simulate_with, BuildConfig,
//! ExpanderConfig, Workload}`, `bench::run_matrix` and mibench's
//! workloads — plus the front end and tree-walking interpreter for the
//! sim-inputs oracle.

use bench::pool;
use bitspec::{BuildConfig, SimConfig, Workload};
use mibench::Input;
use perf::cells::{self, PROGRAMS};
use perf::child::{self, Finished};
use perf::json::{self, Value};
use perf::metrics;
use perf::oracle;
use perf::proto::{self, Reference, SuiteCell};
use perf::report::{self, Report, WorkloadReport};
use perf::rng;
use perf::stats;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
         [--out FILE] [--check [BASELINE]] [--smoke] --bitspecd PATH\n       \
         perf compare A.json B.json"
    );
    std::process::exit(2);
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bitspecd: Option<PathBuf>,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    smoke: bool,
    child: Option<String>,
}

fn parse_args(argv: &[String]) -> Opts {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        bitspecd: None,
        out: None,
        check: None,
        smoke: false,
        child: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => o.workload = Some(value()),
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                o.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                o.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--bitspecd" => o.bitspecd = Some(PathBuf::from(value())),
            "--out" => o.out = Some(PathBuf::from(value())),
            "--child" => o.child = Some(value()),
            "--smoke" => o.smoke = true,
            "--check" => {
                o.check = Some(match it.peek() {
                    Some(p) if !p.starts_with("--") => PathBuf::from(it.next().expect("peeked")),
                    _ => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json")),
                })
            }
            _ => usage(),
        }
    }
    if let Some(w) = &o.workload {
        if !metrics::WORKLOADS.iter().any(|x| x.name == w) {
            eprintln!("perf: unknown workload `{w}`");
            usage();
        }
    }
    o
}

/// Workers every child runs (`-j`): the host this benchmark was defined
/// on has two CPUs.
const JOBS: usize = 2;

/// What every workload runner needs.
struct Ctx {
    seed: u64,
    seconds: f64,
    smoke: bool,
    bitspecd: PathBuf,
    /// Scratch space for this run's stores (removed at the end).
    tmp: PathBuf,
}

impl Ctx {
    /// Untimed set-up rounds (warm-up or populate sweeps) per workload;
    /// `setup_s` is their median.
    fn setup_rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            2
        }
    }

    /// Runs `rep` until `seconds` have elapsed and at least `min`
    /// repetitions ran; exactly once in smoke mode.
    fn repeat(&self, min: usize, mut rep: impl FnMut()) {
        let t = Instant::now();
        let mut n = 0;
        while n == 0 || (!self.smoke && (n < min || t.elapsed().as_secs_f64() < self.seconds)) {
            rep();
            n += 1;
        }
    }

    /// A command with the environment knobs that would change what the
    /// child does removed.
    fn command(&self, program: &Path) -> Command {
        let mut cmd = Command::new(program);
        for var in [
            "BITSPEC_STORE_DIR",
            "BITSPEC_STORE_MAX_BYTES",
            "BITSPEC_JOBS",
            "BITSPEC_PRINT_AFTER",
            "TURBO_STATS",
        ] {
            cmd.env_remove(var);
        }
        cmd
    }

    /// A fresh `perf --child` process of this binary.
    fn perf_child(&self, mode: &str, seed: u64) -> std::io::Result<Finished> {
        let exe = std::env::current_exe()?;
        let mut cmd = self.command(&exe);
        cmd.args(["--child", mode, "--seed", &seed.to_string()]);
        if self.smoke {
            cmd.arg("--smoke");
        }
        child::run(&mut cmd, "")
    }
}

fn mb(bytes: f64) -> f64 {
    bytes / 1e6
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// One `bitspecd` serve of the suite batch, checked.
struct Serve {
    fin: Option<Finished>,
    checked: proto::Checked,
}

fn serve(
    ctx: &Ctx,
    store: &Path,
    cells: &[SuiteCell],
    text: &str,
    source: &str,
    reference: &mut Reference,
) -> Serve {
    let mut cmd = ctx.command(&ctx.bitspecd);
    cmd.args(["-j", &JOBS.to_string(), "--store"]).arg(store);
    let fin = child::run(&mut cmd, text)
        .map_err(|e| eprintln!("perf: cannot run {}: {e}", ctx.bitspecd.display()))
        .ok();
    let (stdout, ok) = fin
        .as_ref()
        .map_or(("", false), |f| (f.stdout.as_str(), f.ok));
    let checked = proto::check_suite(stdout, ok, cells, source, reference);
    for p in &checked.problems {
        eprintln!("perf: {source} serve: {p}");
    }
    Serve { fin, checked }
}

/// Records one finished timed repetition of `cells` cells.
fn rep(r: &mut WorkloadReport, fin: &Finished, wall_s: f64, cells: usize) {
    r.push("wall_s", wall_s);
    r.push("cells_per_s", cells as f64 / wall_s);
    r.push("peak_rss_mb", mb(fin.peak_rss_kb as f64 * 1024.0));
}

/// Adds the failure share; any failure makes the workload incorrect.
fn finish(mut r: WorkloadReport) -> WorkloadReport {
    let share = if r.attempted == 0 {
        1.0
    } else {
        r.failed as f64 / r.attempted as f64
    };
    r.set("failed_share", vec![share]);
    r.correct &= r.failed == 0;
    r
}

/// Records a served suite batch's pinned ratios (a drift is incorrect).
fn suite_ratios(r: &mut WorkloadReport, cells: &[SuiteCell], served: &Serve) {
    if let Some((e, c)) = proto::suite_ratios(cells, &served.checked) {
        if !oracle::ratio_matches(e, oracle::SUITE_ENERGY_RATIO)
            || !oracle::ratio_matches(c, oracle::SUITE_CYCLES_RATIO)
        {
            eprintln!("perf: suite ratios moved: energy {e}, cycles {c}");
            r.correct = false;
        }
        r.push("energy_ratio", e);
        r.push("cycles_ratio", c);
    }
}

/// The suite batch of repetition `k`: its cells and request text.
fn batch(seed: u64, k: u64) -> (Vec<SuiteCell>, String) {
    let cells = proto::suite_cells(rng::derive(seed, k));
    let text = proto::request_text(&cells);
    (cells, text)
}

fn suite_cold(ctx: &Ctx) -> WorkloadReport {
    let mut r = WorkloadReport::new("suite-cold");
    let store = ctx.tmp.join("suite-cold-store");
    let mut reference = Reference::default();
    let mut k = 0;
    let mut sweep = |reference: &mut Reference| {
        k += 1;
        let (cells, text) = batch(ctx.seed, k);
        let _ = std::fs::remove_dir_all(&store);
        let served = serve(ctx, &store, &cells, &text, "computed", reference);
        let bytes = dir_bytes(&store);
        let _ = std::fs::remove_dir_all(&store);
        (cells, served, bytes)
    };
    for _ in 0..ctx.setup_rounds() {
        let (_, served, _) = sweep(&mut reference);
        r.correct &= served.checked.failed == 0;
        if let Some(f) = &served.fin {
            r.push("setup_s", f.wall_s);
        }
    }
    ctx.repeat(3, || {
        let (cells, served, bytes) = sweep(&mut reference);
        r.attempted += cells.len() as u64;
        r.failed += served.checked.failed as u64;
        if let Some(fin) = &served.fin {
            rep(&mut r, fin, fin.wall_s, cells.len());
            r.push("store_mb", mb(bytes as f64));
        }
        suite_ratios(&mut r, &cells, &served);
    });
    finish(r)
}

fn suite_disk(ctx: &Ctx) -> WorkloadReport {
    let mut r = WorkloadReport::new("suite-disk");
    let store = ctx.tmp.join("suite-disk-store");
    // Populate sweeps record the reference every disk serve must match,
    // so this also checks cold against disk results.
    let mut reference = Reference::default();
    let mut k = 0;
    let mut serve_next = |source: &str, reference: &mut Reference| {
        k += 1;
        let (cells, text) = batch(ctx.seed, k);
        let served = serve(ctx, &store, &cells, &text, source, reference);
        (cells, served)
    };
    for _ in 0..ctx.setup_rounds() {
        let _ = std::fs::remove_dir_all(&store);
        let (_, served) = serve_next("computed", &mut reference);
        r.correct &= served.checked.failed == 0;
        if let Some(f) = &served.fin {
            r.push("setup_s", f.wall_s);
        }
    }
    let (_, warm_up) = serve_next("disk", &mut reference);
    r.correct &= warm_up.checked.failed == 0;
    ctx.repeat(100, || {
        let (cells, served) = serve_next("disk", &mut reference);
        r.attempted += cells.len() as u64;
        r.failed += served.checked.failed as u64;
        if let Some(fin) = &served.fin {
            rep(&mut r, fin, fin.wall_s, cells.len());
        }
        suite_ratios(&mut r, &cells, &served);
    });
    let _ = std::fs::remove_dir_all(&store);
    if let Some(p90) = r.get("wall_s").and_then(|w| stats::p90(&w.values)) {
        r.push("wall_s_p90", p90);
    }
    finish(r)
}

/// Child mode `expander-grid`: `bench::run_matrix` over every MiBench
/// workload × grid corner (BASELINE), one result line per cell.
fn child_grid(seed: u64, smoke: bool, out: &mut impl Write) -> std::io::Result<()> {
    let (names, corners) = cells::grid_order(seed, smoke);
    let workloads: Vec<Workload> = names
        .iter()
        .map(|n| mibench::workload(n, Input::Large))
        .collect();
    let cfgs: Vec<BuildConfig> = corners
        .iter()
        .map(|&expander| BuildConfig {
            expander,
            ..BuildConfig::baseline()
        })
        .collect();
    let t = Instant::now();
    let rows = bench::run_matrix(&workloads, &cfgs, JOBS);
    let wall_s = t.elapsed().as_secs_f64();
    for (w, row) in workloads.iter().zip(&rows) {
        for (e, cell) in corners.iter().zip(row) {
            let (c, r) = (&cell.0, &cell.1);
            writeln!(
                out,
                "{{\"workload\": {}, \"corner\": \"{}\", \"build_fp\": \"{:016x}\", \
                 \"outputs_fnv\": \"{:016x}\", \"cycles\": {}, \"energy_pj\": {}, \"dyn_insts\": {}}}",
                json::quote(&w.name),
                cells::corner(e),
                bitspec::program_fingerprint(&c.program),
                oracle::outputs_fnv(&r.outputs),
                r.cycles,
                json::num(r.total_energy()),
                r.counts.dyn_insts
            )?;
        }
    }
    writeln!(
        out,
        "{{\"summary\": {{\"wall_s\": {}}}}}",
        json::num(wall_s)
    )
}

/// The tree-walking reference interpreter's outputs for `w`, run on the
/// unexpanded front-end module.
fn reference_outputs(w: &Workload) -> Result<Vec<u32>, String> {
    let m = lang::compile(&w.name, &w.source).map_err(|e| e.to_string())?;
    let mut i = interp::Interpreter::new(&m);
    i.set_reference(true);
    for (g, data) in &w.inputs {
        i.install_global(g, data);
    }
    i.run("main", &[])
        .map(|r| r.outputs)
        .map_err(|e| e.to_string())
}

/// Child mode `sim-inputs`: builds the 42 programs and the interpreter
/// oracle (set-up), then times `simulate_with` of every program on every
/// seeded input set, one result line per simulation.
fn child_sims(seed: u64, smoke: bool, out: &mut impl Write) -> std::io::Result<()> {
    let names = mibench::names();
    let sets = cells::input_seeds(seed, smoke);
    let t = Instant::now();
    let trained: Vec<Workload> = names
        .iter()
        .map(|n| mibench::workload(n, Input::Large))
        .collect();
    let cfgs: Vec<BuildConfig> = (0..PROGRAMS.len()).map(cells::program_config).collect();
    let programs = bench::run_matrix(&trained, &cfgs, JOBS);
    let seeded: Vec<Workload> = names
        .iter()
        .flat_map(|n| sets.iter().map(|&s| mibench::workload(n, Input::Seeded(s))))
        .collect();
    let expected = pool::run_ordered(seeded.len(), JOBS, |k| reference_outputs(&seeded[k]));
    let setup_s = t.elapsed().as_secs_f64();

    // Item i simulates program (w, p) on input set k.
    let (np, ns) = (PROGRAMS.len(), sets.len());
    let split = |i: usize| (i / (np * ns), i / ns % np, i % ns);
    let t = Instant::now();
    let results = pool::run_ordered(names.len() * np * ns, JOBS, |i| {
        let (w, p, k) = split(i);
        bitspec::simulate_with(
            &programs[w][p].0,
            &seeded[w * ns + k],
            &SimConfig::default(),
        )
    });
    let wall_s = t.elapsed().as_secs_f64();
    for (i, res) in results.iter().enumerate() {
        let (w, p, k) = split(i);
        let head = format!(
            "{{\"workload\": {}, \"program\": \"{}\", \"set\": {k}",
            json::quote(names[w]),
            PROGRAMS[p]
        );
        match (res, &expected[w * ns + k]) {
            (Ok(r), Ok(want)) => writeln!(
                out,
                "{head}, \"ok\": {}, \"outputs_fnv\": \"{:016x}\", \"cycles\": {}, \
                 \"energy_pj\": {}, \"dyn_insts\": {}}}",
                r.outputs == *want,
                oracle::outputs_fnv(&r.outputs),
                r.cycles,
                json::num(r.total_energy()),
                r.counts.dyn_insts
            )?,
            (Err(e), _) => writeln!(
                out,
                "{head}, \"ok\": false, \"error\": {}}}",
                json::quote(&e.to_string())
            )?,
            (_, Err(e)) => writeln!(
                out,
                "{head}, \"ok\": false, \"error\": {}}}",
                json::quote(e)
            )?,
        }
    }
    writeln!(
        out,
        "{{\"summary\": {{\"setup_s\": {}, \"wall_s\": {}}}}}",
        json::num(setup_s),
        json::num(wall_s)
    )
}

/// A child's result lines that passed their own checks, as
/// `(identity, facts, dyn_insts)`, plus its summary.
struct ChildOutput {
    lines: Vec<(String, String, u64)>,
    summary: Option<Value>,
}

/// Parses a `perf --child` output. `id` names a line's cell; a line is
/// dropped (and its cell fails) when it is malformed, reports
/// `"ok": false`, or (with `pinned`) its outputs differ from the
/// workload's pinned outputs.
fn parse_child(stdout: &str, id: &[&str], pinned: bool) -> ChildOutput {
    let mut out = ChildOutput {
        lines: Vec::new(),
        summary: None,
    };
    for raw in stdout.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = json::parse(raw) else {
            eprintln!("perf: malformed child line: {raw}");
            continue;
        };
        if let Some(s) = v.get("summary") {
            out.summary = Some(s.clone());
            continue;
        }
        let text = |k: &str| match v.get(k) {
            Some(Value::Str(s)) => Some(s.clone()),
            Some(Value::Num(x)) => Some(json::num(*x)),
            _ => None,
        };
        let ident: Option<Vec<String>> = id.iter().map(|k| text(k)).collect();
        let facts: Option<Vec<String>> = ["build_fp", "outputs_fnv", "cycles", "energy_pj"]
            .iter()
            .filter_map(|k| v.get(k).map(|_| text(k)))
            .collect();
        let dyn_insts = v.get("dyn_insts").and_then(Value::as_u64);
        let ok = v.get("ok").and_then(Value::as_bool).unwrap_or(true);
        let workload = v.get("workload").and_then(Value::as_str).unwrap_or("");
        let outputs = text("outputs_fnv").and_then(|h| u64::from_str_radix(&h, 16).ok());
        let pin_ok = !pinned || (outputs.is_some() && outputs == oracle::pinned_fnv(workload));
        match (ident, facts, dyn_insts) {
            (Some(ident), Some(facts), Some(d)) if ok && pin_ok => {
                out.lines.push((ident.join("|"), facts.join("|"), d));
            }
            _ => eprintln!("perf: child line failed its checks: {raw}"),
        }
    }
    out
}

/// Checks a child's lines against the `expect` cells it must report, once
/// each, with the facts earlier repetitions recorded (recording new ones);
/// returns the number of failed cells.
fn check_child(
    parsed: &ChildOutput,
    ok: bool,
    expect: usize,
    reference: &mut HashMap<String, String>,
) -> usize {
    if !ok || parsed.summary.is_none() {
        return expect;
    }
    let mut good = HashSet::new();
    let mut bad = HashSet::new();
    for (ident, facts, _) in &parsed.lines {
        let consistent = match reference.get(ident) {
            Some(prev) if prev != facts => {
                eprintln!("perf: {ident} changed between repetitions: {prev} -> {facts}");
                false
            }
            Some(_) => true,
            None => {
                reference.insert(ident.clone(), facts.clone());
                true
            }
        };
        if !consistent || !good.insert(ident) {
            bad.insert(ident);
        }
    }
    expect.saturating_sub(good.difference(&bad).count())
}

fn summary_f64(parsed: &ChildOutput, k: &str) -> Option<f64> {
    parsed.summary.as_ref()?.get(k)?.as_f64()
}

fn expander_grid(ctx: &Ctx) -> WorkloadReport {
    let mut r = WorkloadReport::new("expander-grid");
    let expect = mibench::names().len() * cells::grid(ctx.smoke).len();
    let id = ["workload", "corner"];
    let mut reference = HashMap::new();
    let mut k = 0;
    let mut run = |reference: &mut HashMap<String, String>| {
        k += 1;
        let fin = ctx
            .perf_child("expander-grid", rng::derive(ctx.seed, k))
            .map_err(|e| eprintln!("perf: cannot run the grid child: {e}"))
            .ok()?;
        let parsed = parse_child(&fin.stdout, &id, true);
        let failed = check_child(&parsed, fin.ok, expect, reference);
        Some((fin, parsed, failed))
    };
    for _ in 0..ctx.setup_rounds() {
        match run(&mut reference) {
            Some((fin, _, failed)) => {
                r.correct &= failed == 0;
                r.push("setup_s", fin.wall_s);
            }
            None => r.correct = false,
        }
    }
    ctx.repeat(3, || {
        r.attempted += expect as u64;
        let Some((fin, parsed, failed)) = run(&mut reference) else {
            r.failed += expect as u64;
            return;
        };
        r.failed += failed as u64;
        rep(&mut r, &fin, fin.wall_s, expect);
        // The tuner's objective: the corner with the fewest total dynamic
        // instructions across the workloads.
        let mut per_corner: HashMap<&str, u64> = HashMap::new();
        for (ident, _, d) in &parsed.lines {
            let corner = ident.rsplit('|').next().unwrap_or("");
            *per_corner.entry(corner).or_default() += d;
        }
        if failed == 0 {
            if let Some(best) = per_corner.values().min() {
                r.push("best_dyn_insts", *best as f64);
            }
        }
    });
    finish(r)
}

fn sim_inputs(ctx: &Ctx) -> WorkloadReport {
    let mut r = WorkloadReport::new("sim-inputs");
    let expect =
        mibench::names().len() * PROGRAMS.len() * cells::input_seeds(ctx.seed, ctx.smoke).len();
    let id = ["workload", "program", "set"];
    let mut reference = HashMap::new();
    let run = |r: &mut WorkloadReport, reference: &mut HashMap<String, String>| {
        let fin = ctx
            .perf_child("sim-inputs", ctx.seed)
            .map_err(|e| eprintln!("perf: cannot run the simulation child: {e}"))
            .ok()?;
        let parsed = parse_child(&fin.stdout, &id, false);
        let failed = check_child(&parsed, fin.ok, expect, reference);
        if let Some(setup) = summary_f64(&parsed, "setup_s") {
            r.push("setup_s", setup);
        }
        Some((fin, parsed, failed))
    };
    // The warm-up child is discarded; its set-up still counts as set-up.
    if !matches!(run(&mut r, &mut reference), Some((_, _, 0))) {
        r.correct = false;
    }
    ctx.repeat(3, || {
        r.attempted += expect as u64;
        let Some((fin, parsed, failed)) = run(&mut r, &mut reference) else {
            r.failed += expect as u64;
            return;
        };
        r.failed += failed as u64;
        if let Some(wall) = summary_f64(&parsed, "wall_s") {
            rep(&mut r, &fin, wall, expect);
            let insts: u64 = parsed.lines.iter().map(|(_, _, d)| d).sum();
            r.push("sim_minsts_per_s", insts as f64 / wall / 1e6);
        }
    });
    finish(r)
}

fn run_workload(ctx: &Ctx, name: &str) -> WorkloadReport {
    let t = Instant::now();
    let r = match name {
        "suite-cold" => suite_cold(ctx),
        "suite-disk" => suite_disk(ctx),
        "expander-grid" => expander_grid(ctx),
        _ => sim_inputs(ctx),
    };
    eprintln!("perf: {name} done in {:.1}s", t.elapsed().as_secs_f64());
    r
}

/// The human-readable summary of a report, one line per metric.
fn describe(report: &Report) -> String {
    let mut out = format!(
        "perf: seed {} · -j {} · nproc {} · {}s per workload\n",
        report.seed, report.jobs, report.nproc, report.seconds
    );
    for w in &report.workloads {
        out.push_str(&format!(
            "{}: correct={} attempted={} failed={}\n",
            w.workload, w.correct, w.attempted, w.failed
        ));
        for m in &w.metrics {
            let (q1, q3) = stats::quartiles(&m.values).unwrap_or((f64::NAN, f64::NAN));
            out.push_str(&format!(
                "  {:<18} {:>14.6} {:<8} q1 {:.6}  q3 {:.6}  n={}\n",
                m.name,
                m.median(),
                m.unit,
                q1,
                q3,
                m.values.len()
            ));
        }
    }
    out
}

fn load(path: &Path) -> Report {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf: cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    Report::from_json(&text).unwrap_or_else(|e| {
        eprintln!("perf: {} is not a perf report: {e}", path.display());
        std::process::exit(2);
    })
}

/// Prints the comparison of `b` against `a`; true when nothing regressed.
fn compare(a: &Report, b: &Report) -> bool {
    let rows = report::compare(a, b);
    print!("{}", report::render(&rows));
    let worse = rows
        .iter()
        .filter(|r| r.verdict == report::Verdict::Worse)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == report::Verdict::Unresolved)
        .count();
    println!(
        "{} comparisons: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    worse == 0
}

/// `--trace 1`: the traced run is `perf-trace`, built next to this binary.
fn run_trace(argv: &[String]) -> ! {
    let exe = std::env::current_exe().expect("own path");
    let trace = exe.with_file_name("perf-trace");
    let args: Vec<&String> = argv
        .iter()
        .scan(false, |skip, a| {
            let keep = !*skip && a != "--trace" && a != "--bitspecd";
            *skip = !*skip && (a == "--trace" || a == "--bitspecd");
            Some(keep.then_some(a))
        })
        .flatten()
        .collect();
    let status = Command::new(&trace)
        .args(args)
        .status()
        .unwrap_or_else(|e| {
            eprintln!("perf: cannot run {}: {e}", trace.display());
            std::process::exit(2);
        });
    std::process::exit(status.code().unwrap_or(1));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        let ok = compare(&load(Path::new(a)), &load(Path::new(b)));
        std::process::exit(i32::from(!ok));
    }
    let o = parse_args(&argv);
    if let Some(mode) = &o.child {
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        let r = match mode.as_str() {
            "expander-grid" => child_grid(o.seed, o.smoke, &mut out),
            "sim-inputs" => child_sims(o.seed, o.smoke, &mut out),
            _ => usage(),
        };
        if let Err(e) = r.and_then(|()| out.flush()) {
            eprintln!("perf: child output failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    if o.trace {
        run_trace(&argv);
    }
    let Some(bitspecd) = o.bitspecd.clone() else {
        eprintln!("perf: --bitspecd PATH is required (perf/run.sh passes it)");
        usage();
    };
    let tmp = perf::out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perf: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        smoke: o.smoke,
        bitspecd,
        tmp: tmp.clone(),
    };
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => metrics::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let report = Report {
        seed: o.seed,
        seconds: o.seconds,
        jobs: JOBS,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        workloads: names.iter().map(|n| run_workload(&ctx, n)).collect(),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    eprint!("{}", describe(&report));
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| perf::out_dir().join("report.json"));
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("perf: cannot write {}: {e}", out.display());
    }
    let mut ok = true;
    if o.smoke {
        let reread = std::fs::read_to_string(&out)
            .map_err(|e| e.to_string())
            .and_then(|t| Report::from_json(&t));
        let failed = report.workloads.iter().any(|w| w.failed > 0 || !w.correct);
        if failed || reread.as_ref() != Ok(&report) {
            eprintln!(
                "perf: smoke failed (failures: {failed}, report reads back: {:?})",
                reread.is_ok()
            );
            ok = false;
        }
    }
    if let Some(baseline) = &o.check {
        ok &= compare(&load(baseline), &report);
    }
    if let [w] = report.workloads.as_slice() {
        let listed = metrics::END_TO_END
            .iter()
            .filter(|m| m.listed)
            .map(|m| m.name);
        println!("{}", w.result_line(listed));
    }
    std::process::exit(i32::from(!ok));
}
