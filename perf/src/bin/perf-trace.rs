//! `perf-trace` — the benchmark's traced run.
//!
//! ```text
//! perf-trace [--workload W] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! Runs a workload's cells in this process at `-j 1`, calling the public
//! functions of each layer in the order `bitspec::build` composes them
//! and timing every call with a span: `stages::{front, expand, profile}`,
//! `opt::SqueezePass` through the benchmark's own `Tracer`,
//! `stages::check_module` and `sir::bitlint::lint_module`,
//! `stages::codegen` (whose pass records become the back-end sub-rows),
//! `stages::gate_ref` and the gate's training simulations,
//! `simulate_with`, and `wire::{encode,decode}_cell` with
//! `Store::{put,get}`.
//!
//! Set-up computes every cell once through `bitspec::build` +
//! `simulate_with` (the reference); each round then runs the cells once
//! without spans and once with them, alternating which goes first, from
//! cold caches. Every composed cell must reproduce the reference program
//! fingerprint and simulation result bit for bit. The layer table prints
//! busy, self and count per layer plus an explicit unattributed row (the
//! cell spans' own time), which sum exactly to the traced total; the
//! result line carries each per-layer metric's median over the rounds,
//! and the last round's spans are written to `perf/out/trace.json`.

use backend::{CodegenOpts, Program};
use bitspec::pipeline::{self, BuildTrace, PassTrace, Tracer};
use bitspec::stages::{self, FnHits, GateRef};
use bitspec::store::{self, Store};
use bitspec::{wire, Arch, BuildConfig, BuildError, Compiled, SimConfig, SimResult, Workload};
use mibench::Input;
use opt::{SqueezeConfig, SqueezePass, SqueezeReport};
use perf::cells;
use perf::json;
use perf::metrics::{self, LAYERS};
use perf::oracle;
use perf::proto;
use perf::report::WorkloadReport;
use perf::span::{self, Recorder, Span};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: perf-trace [--workload W] [--seed N] [--seconds S] [--smoke]");
    std::process::exit(2);
}

/// What a cell must reproduce: the linked program and its simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Facts {
    program_fp: u64,
    outputs: Vec<u32>,
    cycles: u64,
    energy_bits: u64,
}

impl Facts {
    fn of(c: &Compiled, r: &SimResult) -> Facts {
        Facts {
            program_fp: bitspec::program_fingerprint(&c.program),
            outputs: r.outputs.clone(),
            cycles: r.cycles,
            energy_bits: r.total_energy().to_bits(),
        }
    }
}

type Outcome = Result<Facts, String>;

/// Work counted at the layer boundaries of one pass.
#[derive(Debug, Default)]
struct Counts {
    expand_runs: u64,
    expanded_insts: u64,
    profile_runs: u64,
    profile_insts: u64,
    profile_ns: u64,
    /// Fingerprints of the expanded modules the profiler ran on.
    profiled: HashSet<Option<u64>>,
    narrowed: u64,
    gated: u64,
    gate_kept: u64,
    fn_total: u64,
    fn_hits: u64,
    turbo_insts: u64,
    turbo_ns: u64,
    dts_insts: u64,
    dts_ns: u64,
    dyn_insts: u64,
    misspecs: u64,
    wire_bytes: u64,
    cells_disk: u64,
    cells_computed: u64,
}

impl Counts {
    fn sim(&mut self, dts: bool, r: &SimResult, ns: u64) {
        let d = r.counts.dyn_insts;
        if dts {
            self.dts_insts += d;
            self.dts_ns += ns;
        } else {
            self.turbo_insts += d;
            self.turbo_ns += ns;
        }
        self.dyn_insts += d;
        self.misspecs += r.counts.misspecs;
    }
}

/// Million instructions per second.
fn minsts(insts: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        insts as f64 * 1e3 / ns as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The resolved training inputs (`Workload::train`).
fn train(w: &Workload) -> &[(String, Vec<u8>)] {
    if w.train_inputs.is_empty() {
        &w.inputs
    } else {
        &w.train_inputs
    }
}

/// The empirical gate's measurement: `p`'s energy on the training input.
fn energy_of(train: &[(String, Vec<u8>)], m: &sir::Module, p: &Program) -> Result<f64, BuildError> {
    let layout = interp::Layout::new(m);
    let inputs: Vec<(u32, Vec<u8>)> = train
        .iter()
        .filter_map(|(g, data)| {
            m.globals
                .iter()
                .position(|x| x.name == *g)
                .map(|gi| (layout.addr(sir::GlobalId(gi as u32)), data.clone()))
        })
        .collect();
    sim::run_batch(p, &SimConfig::default(), std::slice::from_ref(&inputs))
        .pop()
        .expect("one result per input set")
        .map(|r| r.total_energy())
        .map_err(BuildError::TrainSim)
}

/// Back-end pass records and the layer rows they become.
const BACKEND_ROWS: [(&str, &str); 6] = [
    ("isel", "backend.isel"),
    ("mir-verify", "backend.mir_verify"),
    ("regalloc", "backend.regalloc"),
    ("regalloc-verify", "backend.regalloc_verify"),
    ("emit", "backend.emit"),
    ("emit-verify", "backend.emit_verify"),
];

/// `stages::codegen` under a `backend.codegen` span. Its pass records
/// become the back-end sub-rows only when every function was compiled
/// fresh: the records aggregate cached functions' compute-time walls
/// too, so on a partial hit only `emit-verify` (always fresh) is split
/// out and the rest stays in `backend.codegen`.
fn codegen(
    rec: &mut Recorder,
    n: &mut Counts,
    m: &sir::Module,
    opts: &CodegenOpts,
    tr: &mut Tracer,
) -> Result<(Program, FnHits), BuildError> {
    rec.time("backend.codegen", |rec| {
        let mark = tr.mark();
        let (p, fns) = stages::codegen(m, opts, tr).map_err(BuildError::Verify)?;
        n.fn_total += u64::from(fns.total);
        n.fn_hits += u64::from(fns.hits);
        let rows: Vec<(&str, u64)> = tr.entries()[mark..]
            .iter()
            .filter(|e| fns.hits == 0 || e.name == "emit-verify")
            .filter_map(|e| {
                let row = BACKEND_ROWS.iter().find(|(p, _)| *p == e.name)?.1;
                Some((row, e.wall_ns))
            })
            .collect();
        rec.lay_out(&rows);
        Ok((p, fns))
    })
}

/// `bitspec::build`, composed from the layers' public functions with a
/// span around each call. Stays in step with `bitspec::build`: the
/// reference check fails the moment they diverge.
fn compose(
    rec: &mut Recorder,
    n: &mut Counts,
    w: &Workload,
    cfg: &BuildConfig,
) -> Result<Compiled, BuildError> {
    let policy = pipeline::policy(cfg.verify_each);
    let (_, front_hit) = rec.time("lang.front", |_| {
        stages::front(w, &mut Tracer::new(policy.clone()))
    })?;
    let (_, expand_hits) = rec.time("opt.expand", |_| {
        stages::expand(w, &cfg.expander, &mut Tracer::new(policy.clone()))
    })?;
    let mut tr = Tracer::new(policy.clone());
    let (expanded, pdata, mut stage_hits) = rec.time("interp.profile", |_| {
        stages::profile(w, &cfg.expander, cfg.reference_profiler, &mut tr)
    })?;
    let profile_ns = rec.last_ns();
    stage_hits.front = front_hit;
    stage_hits.expand = expand_hits.expand;
    // The replayed `dce` record describes the expanded module.
    let dce = tr.entries().iter().rev().find(|e| e.name == "dce");
    if !expand_hits.expand {
        n.expand_runs += 1;
        n.expanded_insts += dce.map_or(0, |e| u64::from(e.after.insts));
    }
    if !stage_hits.profile {
        n.profile_runs += 1;
        n.profile_insts += pdata.dyn_insts;
        n.profile_ns += profile_ns;
        n.profiled.insert(dce.and_then(|e| e.fingerprint));
    }
    let profile = Arc::clone(&pdata.profile);
    let opts = CodegenOpts {
        bitspec: matches!(cfg.arch, Arch::BitSpec | Arch::NoSpec),
        compact: cfg.arch == Arch::Compact,
        spill_prefer_orig: cfg.spill_prefer_orig,
    };
    let scfg = match cfg.arch {
        Arch::BitSpec => Some(SqueezeConfig {
            heuristic: cfg.heuristic,
            compare_elim: cfg.compare_elim,
            bitmask_elision: cfg.bitmask_elision,
            speculation: true,
        }),
        Arch::NoSpec => Some(SqueezeConfig {
            heuristic: cfg.heuristic,
            compare_elim: false,
            bitmask_elision: cfg.bitmask_elision,
            speculation: false,
        }),
        Arch::Baseline | Arch::Compact => None,
    };
    let (squeezed, squeeze) = match scfg {
        Some(scfg) => {
            let mut pass = SqueezePass::new(&profile, scfg);
            let module = rec
                .time("opt.squeeze", |rec| {
                    let mut module = (*expanded).clone();
                    let mark = tr.mark();
                    let r = tr.run_sir(&mut module, &mut pass);
                    // The pass manager's post-pass work (verify-each, IR
                    // stats, fingerprint, last-good copy) is the span
                    // minus the pass body it recorded.
                    if cfg.verify_each {
                        let body = tr.entries().get(mark).map_or(0, |e| e.wall_ns);
                        let (start, now) = (rec.open_start_ns().unwrap_or(0), rec.now_ns());
                        let verify = now.saturating_sub(start).saturating_sub(body);
                        rec.record("sir.verify", now - verify, now);
                    }
                    r.map(|()| module)
                })
                .map_err(BuildError::Verify)?;
            n.narrowed += pass.report.narrowed as u64;
            if !cfg.verify_each {
                rec.time("sir.verify", |_| stages::check_module(&module, &mut tr))
                    .map_err(BuildError::Verify)?;
            }
            (Some(module), pass.report)
        }
        None => {
            rec.time("sir.verify", |_| stages::check_module(&expanded, &mut tr))
                .map_err(BuildError::Verify)?;
            (None, SqueezeReport::default())
        }
    };
    if cfg.verify_each {
        let m: &sir::Module = squeezed.as_ref().unwrap_or(&expanded);
        rec.time("sir.bitlint", |_| {
            tr.run_check("bitlint", || sir::bitlint::lint_module(m))
        })
        .map_err(BuildError::Verify)?;
    }
    let train = train(w);
    let (module, program, used_squeezed) = match squeezed {
        Some(module) if cfg.empirical_gate && squeeze.narrowed > 0 => {
            // bitspec::build runs the two legs on two threads; at -j 1
            // they run one after the other.
            n.gated += 1;
            let mut leg = Tracer::new(policy.clone());
            let (cand, cand_fns) = codegen(rec, n, &module, &opts, &mut leg)?;
            let es = rec.time("sim.gate_train", |_| energy_of(train, &module, &cand))?;
            leg.record(PassTrace::new("gate.sim", rec.last_ns()));
            let cand_traces = leg.finish();
            let mut ref_fns = FnHits::default();
            let (gate, ref_hit) = rec.time("core.gate_ref", |rec| {
                stages::gate_ref(w, &cfg.expander, &policy, &opts, || {
                    let mut leg = Tracer::new(policy.clone());
                    let (program, fns) = codegen(rec, n, &expanded, &opts, &mut leg)?;
                    ref_fns = fns;
                    let energy =
                        rec.time("sim.gate_train", |_| energy_of(train, &expanded, &program))?;
                    let mut traces = leg.finish();
                    for e in &mut traces {
                        e.name = format!("gate-ref.{}", e.name);
                    }
                    traces.push(PassTrace::new("gate-ref.sim", rec.last_ns()));
                    Ok(GateRef {
                        program,
                        energy,
                        traces,
                    })
                })
            })?;
            stage_hits.add_fns(cand_fns);
            stage_hits.add_fns(ref_fns);
            tr.replay(&cand_traces, false);
            tr.replay(&gate.traces, ref_hit);
            if es <= gate.energy {
                n.gate_kept += 1;
                (Arc::new(module), cand, true)
            } else {
                (expanded, gate.program.clone(), false)
            }
        }
        Some(module) => {
            let (program, fns) = codegen(rec, n, &module, &opts, &mut tr)?;
            stage_hits.add_fns(fns);
            (Arc::new(module), program, false)
        }
        None => {
            let (program, fns) = codegen(rec, n, &expanded, &opts, &mut tr)?;
            stage_hits.add_fns(fns);
            (expanded, program, false)
        }
    };
    Ok(Compiled {
        module,
        program,
        profile,
        squeeze,
        config: cfg.clone(),
        profile_dyn_insts: pdata.dyn_insts,
        used_squeezed,
        stage_hits,
        trace: BuildTrace {
            passes: tr.finish(),
        },
    })
}

/// One cell of a build workload.
struct BuildCell {
    workload: Workload,
    cfg: BuildConfig,
}

/// How a pass reaches its cells.
enum Mode<'a> {
    /// `bitspec::build` + `simulate_with` (the reference; never traced).
    Reference,
    /// The composed layers (traced when the recorder records).
    Compose,
    /// Cells read back from a populated store.
    Disk(&'a Store),
}

/// Builds (or reads) and simulates every cell; with `put`, publishes each
/// cell to the active store the way `bench::run_cached_traced` does.
fn build_pass(
    rec: &mut Recorder,
    n: &mut Counts,
    cells: &[BuildCell],
    mode: &Mode,
    put: bool,
) -> Vec<Outcome> {
    let store = store::active();
    let mut out = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let (w, cfg) = (&cell.workload, &cell.cfg);
        rec.set_cell(Some(i as u32));
        let done = rec.time("cell", |rec| -> Result<(Compiled, SimResult), String> {
            let (c, r) = match mode {
                Mode::Disk(disk) => {
                    let bytes = rec
                        .time("core.store_get", |_| {
                            disk.get("cell", bitspec::fingerprint::cell_key(w, cfg))
                        })
                        .ok_or("cell missing from the store")?;
                    n.cells_disk += 1;
                    return rec
                        .time("core.wire_decode", |_| wire::decode_cell(&bytes))
                        .map_err(|e| e.to_string());
                }
                Mode::Reference => {
                    let c = bitspec::build(w, cfg).map_err(|e| e.to_string())?;
                    let r = bitspec::simulate_with(&c, w, &SimConfig::default())
                        .map_err(|e| e.to_string())?;
                    (c, r)
                }
                Mode::Compose => {
                    let c = compose(rec, n, w, cfg).map_err(|e| e.to_string())?;
                    let r = rec.time("sim.eval", |_| {
                        bitspec::simulate_with(&c, w, &SimConfig::default())
                    });
                    n.sim(
                        c.config.dts,
                        r.as_ref().map_err(|e| e.to_string())?,
                        rec.last_ns(),
                    );
                    (c, r.map_err(|e| e.to_string())?)
                }
            };
            n.cells_computed += 1;
            if let (true, Some(store)) = (put, &store) {
                let bytes = rec.time("core.wire_encode", |_| wire::encode_cell(&c, &r));
                n.wire_bytes += bytes.len() as u64;
                rec.time("core.store_put", |_| {
                    store.put("cell", bitspec::fingerprint::cell_key(w, cfg), &bytes)
                });
            }
            Ok((c, r))
        });
        rec.set_cell(None);
        out.push(done.map(|(c, r)| Facts::of(&c, &r)));
    }
    out
}

/// A sim-inputs cell: program `p` of workload `w` on input set `k`.
struct SimCell {
    program: usize,
    workload: Workload,
}

fn sim_pass(
    rec: &mut Recorder,
    n: &mut Counts,
    programs: &[Compiled],
    cells: &[SimCell],
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let c = &programs[cell.program];
        rec.set_cell(Some(i as u32));
        let r = rec.time("cell", |rec| {
            rec.time("sim.eval", |_| {
                bitspec::simulate_with(c, &cell.workload, &SimConfig::default())
            })
        });
        let ns = rec.last_ns();
        rec.set_cell(None);
        out.push(match r {
            Ok(r) => {
                n.sim(c.config.dts, &r, ns);
                Ok(Facts::of(c, &r))
            }
            Err(e) => Err(e.to_string()),
        });
    }
    out
}

/// A traced workload's cells and how a pass runs over them.
struct Plan {
    name: &'static str,
    /// Request text the suite workloads parse (under `serve.parse`).
    requests: Option<String>,
    cells: Vec<BuildCell>,
    sims: Vec<SimCell>,
    programs: Vec<Compiled>,
    /// Pinned outputs each cell must produce (build workloads).
    pinned: Vec<Option<&'static [u32]>>,
    /// The populated store suite-disk reads.
    disk: Option<Store>,
    /// Scratch root for this workload's stores.
    tmp: PathBuf,
}

impl Plan {
    /// One pass over the plan's cells from cold caches.
    fn pass(&self, rec: &mut Recorder, n: &mut Counts) -> Vec<Outcome> {
        stages::clear();
        match self.name {
            "suite-cold" => {
                // An empty store, as `bitspecd --store` gets on suite-cold.
                let dir = self.tmp.join("cold-store");
                let _ = std::fs::remove_dir_all(&dir);
                store::configure(Some(&dir), None);
            }
            _ => store::configure(None, None),
        }
        if let Some(text) = &self.requests {
            let parsed = rec.time("serve.parse", |_| serve::parse_requests(text));
            if parsed.map(|r| r.len()).ok() != Some(self.cells.len()) {
                return vec![Err("request text did not parse".to_string()); self.cells.len()];
            }
        }
        match self.name {
            "suite-disk" => build_pass(
                rec,
                n,
                &self.cells,
                &Mode::Disk(self.disk.as_ref().expect("populated")),
                false,
            ),
            "sim-inputs" => sim_pass(rec, n, &self.programs, &self.sims),
            name => build_pass(rec, n, &self.cells, &Mode::Compose, name == "suite-cold"),
        }
    }

    /// Entries in the store the pass wrote or read.
    fn store_entries(&self) -> u64 {
        let counts = match (&self.disk, store::active()) {
            (Some(disk), _) => store::entry_counts(disk),
            (None, Some(active)) => store::entry_counts(&active),
            (None, None) => return 0,
        };
        counts.values().map(|&c| c as u64).sum()
    }
}

/// Builds the plan for `name`, computing the reference outcomes through
/// `bitspec::build` + `simulate_with`.
fn plan(name: &'static str, seed: u64, smoke: bool, tmp: &Path) -> (Plan, Vec<Outcome>) {
    let mut p = Plan {
        name,
        requests: None,
        cells: Vec::new(),
        sims: Vec::new(),
        programs: Vec::new(),
        pinned: Vec::new(),
        disk: None,
        tmp: tmp.join(name),
    };
    stages::clear();
    store::configure(None, None);
    let mut n = Counts::default();
    let mut off = Recorder::off();
    match name {
        "suite-cold" | "suite-disk" => {
            let suite = proto::suite_cells(seed);
            let text = proto::request_text(&suite);
            let reqs = serve::parse_requests(&text).expect("the suite batch parses");
            p.cells = reqs
                .into_iter()
                .map(|r| BuildCell {
                    workload: r.workload,
                    cfg: r.cfg,
                })
                .collect();
            p.requests = Some(text);
        }
        "expander-grid" => {
            let (names, corners) = cells::grid_order(seed, smoke);
            for w in &names {
                for &expander in &corners {
                    p.cells.push(BuildCell {
                        workload: mibench::workload(w, Input::Large),
                        cfg: BuildConfig {
                            expander,
                            ..BuildConfig::baseline()
                        },
                    });
                }
            }
        }
        _ => {
            let sets = cells::input_seeds(seed, smoke);
            for w in mibench::names() {
                let trained = mibench::workload(w, Input::Large);
                for prog in 0..cells::PROGRAMS.len() {
                    let c = bitspec::build(&trained, &cells::program_config(prog))
                        .unwrap_or_else(|e| panic!("{w}: build failed: {e}"));
                    for &s in &sets {
                        p.sims.push(SimCell {
                            program: p.programs.len(),
                            workload: mibench::workload(w, Input::Seeded(s)),
                        });
                    }
                    p.programs.push(c);
                }
            }
            let reference = sim_pass(&mut off, &mut n, &p.programs, &p.sims);
            return (p, reference);
        }
    }
    p.pinned = p
        .cells
        .iter()
        .map(|c| oracle::pinned_outputs(&c.workload.name))
        .collect();
    if name == "suite-disk" {
        let dir = p.tmp.join("populated");
        let _ = std::fs::remove_dir_all(&dir);
        store::configure(Some(&dir), None);
        let reference = build_pass(&mut off, &mut n, &p.cells, &Mode::Reference, true);
        store::configure(None, None);
        p.disk = Some(Store::open(&dir, None).expect("the populated store opens"));
        return (p, reference);
    }
    let reference = build_pass(&mut off, &mut n, &p.cells, &Mode::Reference, false);
    (p, reference)
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(
    table: &span::Table,
    n: &Counts,
    entries: u64,
    overhead_pct: f64,
) -> BTreeMap<&'static str, f64> {
    let ms = |name: &str| table.self_ns(name) as f64 / 1e6;
    let mut m = BTreeMap::new();
    for l in &LAYERS {
        let v = match l.name {
            "opt.expand_runs" => n.expand_runs as f64,
            "opt.expanded_insts" => n.expanded_insts as f64,
            "interp.profile_runs" => n.profile_runs as f64,
            "interp.profile_minsts_per_s" => minsts(n.profile_insts, n.profile_ns),
            "interp.profile_useful_ratio" => ratio(n.profiled.len() as u64, n.profile_runs),
            "opt.squeeze_narrowed" => n.narrowed as f64,
            "core.gate_kept_ratio" => ratio(n.gate_kept, n.gated),
            "backend.fn_compiled" => (n.fn_total - n.fn_hits) as f64,
            "backend.fn_hit_ratio" => ratio(n.fn_hits, n.fn_total),
            "sim.turbo_minsts_per_s" => minsts(n.turbo_insts, n.turbo_ns),
            "sim.dts_minsts_per_s" => minsts(n.dts_insts, n.dts_ns),
            "sim.dyn_insts" => n.dyn_insts as f64,
            "sim.misspecs" => n.misspecs as f64,
            "bench.cells_disk" => n.cells_disk as f64,
            "core.wire_bytes" => n.wire_bytes as f64,
            "core.store_entries" => entries as f64,
            "bench.cells_computed" => n.cells_computed as f64,
            "unattributed_ms" => ms("cell"),
            "trace_overhead_pct" => overhead_pct,
            "traced_total_ms" => table.total_ns as f64 / 1e6,
            name => ms(name.strip_suffix("_ms").expect("timed layers end in _ms")),
        };
        m.insert(l.name, v);
    }
    m
}

/// Counts the outcomes that differ from the reference or from the
/// pinned outputs.
fn failures(got: &[Outcome], reference: &[Outcome], pinned: &[Option<&[u32]>]) -> u64 {
    let mut failed = 0;
    for (i, (g, want)) in got.iter().zip(reference).enumerate() {
        let ok = match (g, want) {
            (Ok(g), Ok(want)) => {
                g == want
                    && pinned
                        .get(i)
                        .copied()
                        .flatten()
                        .is_none_or(|p| g.outputs == p)
            }
            _ => false,
        };
        if !ok {
            failed += 1;
            if failed <= 5 {
                eprintln!("perf-trace: cell {i} differs: {g:?} vs {want:?}");
            }
        }
    }
    failed + reference.len().abs_diff(got.len()) as u64
}

/// The layer table as text.
fn render(name: &str, table: &span::Table) -> String {
    let mut out = format!(
        "{name}: {:<28} {:>12} {:>12} {:>8}\n",
        "layer", "busy ms", "self ms", "count"
    );
    for (layer, row) in &table.rows {
        let label = if layer == "cell" {
            "unattributed (cell)"
        } else {
            layer.as_str()
        };
        out.push_str(&format!(
            "{name}: {label:<28} {:>12.3} {:>12.3} {:>8}\n",
            row.busy_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.count
        ));
    }
    let sum: u64 = table.rows.values().map(|r| r.self_ns).sum();
    out.push_str(&format!(
        "{name}: {:<28} {:>12.3} {:>12.3}   (rows sum to {:.3})\n",
        "traced total",
        table.total_ns as f64 / 1e6,
        table.total_ns as f64 / 1e6,
        sum as f64 / 1e6
    ));
    out
}

struct Traced {
    report: WorkloadReport,
    spans: Vec<Span>,
    traced_ns: u64,
    untraced_ns: u64,
}

/// One pass over a plan's cells, traced or not.
struct Pass {
    outcomes: Vec<Outcome>,
    spans: Vec<Span>,
    counts: Counts,
    wall_ns: u64,
    store_entries: u64,
}

fn run_pass(plan: &Plan, traced: bool) -> Pass {
    let mut rec = if traced {
        Recorder::new()
    } else {
        Recorder::off()
    };
    let mut counts = Counts::default();
    let t = Instant::now();
    let outcomes = plan.pass(&mut rec, &mut counts);
    let wall_ns = t.elapsed().as_nanos() as u64;
    Pass {
        outcomes,
        spans: rec.take(),
        counts,
        wall_ns,
        store_entries: plan.store_entries(),
    }
}

fn trace_workload(name: &'static str, seed: u64, seconds: f64, smoke: bool, tmp: &Path) -> Traced {
    let (plan, reference) = plan(name, seed, smoke, tmp);
    let mut report = WorkloadReport::new(name);
    report.correct = reference.iter().all(Result::is_ok);
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last = (Vec::new(), span::Table::default(), 0, 0);
    let t = Instant::now();
    while rounds.is_empty() || (!smoke && t.elapsed().as_secs_f64() < seconds) {
        // Alternate which pass goes first, so warming favours neither.
        let (traced, untraced) = if rounds.len().is_multiple_of(2) {
            let u = run_pass(&plan, false);
            (run_pass(&plan, true), u)
        } else {
            let tr = run_pass(&plan, true);
            (tr, run_pass(&plan, false))
        };
        for pass in [&traced, &untraced] {
            report.attempted += pass.outcomes.len() as u64;
            report.failed += failures(&pass.outcomes, &reference, &plan.pinned);
        }
        let table = span::table(&traced.spans);
        let overhead = 100.0 * (traced.wall_ns as f64 / untraced.wall_ns as f64 - 1.0);
        rounds.push(layer_metrics(
            &table,
            &traced.counts,
            traced.store_entries,
            overhead,
        ));
        last = (traced.spans, table, traced.wall_ns, untraced.wall_ns);
    }
    store::configure(None, None);
    let _ = std::fs::remove_dir_all(tmp.join(name));
    for l in &LAYERS {
        report.set(l.name, rounds.iter().map(|r| r[l.name]).collect());
    }
    report.correct &= report.failed == 0;
    let (spans, table, traced_ns, untraced_ns) = last;
    eprint!("{}", render(name, &table));
    eprintln!(
        "{name}: {} rounds; last round traced {:.1} ms vs untraced {:.1} ms",
        rounds.len(),
        traced_ns as f64 / 1e6,
        untraced_ns as f64 / 1e6
    );
    Traced {
        report,
        spans,
        traced_ns,
        untraced_ns,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut smoke) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let names: Vec<&'static str> = match &workload {
        Some(w) => vec![
            metrics::WORKLOADS
                .iter()
                .find(|x| x.name == w)
                .unwrap_or_else(|| usage())
                .name,
        ],
        None => metrics::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    stages::set_codegen_workers(1);
    let tmp = perf::out_dir().join(format!("trace-tmp-{}", std::process::id()));
    let traced: Vec<Traced> = names
        .iter()
        .map(|&name| trace_workload(name, seed, seconds, smoke, &tmp))
        .collect();
    let _ = std::fs::remove_dir_all(&tmp);
    let body: Vec<String> = traced
        .iter()
        .map(|t| {
            format!(
                "{}: {{\"traced_ns\": {}, \"untraced_ns\": {}, \"spans\": {}}}",
                json::quote(&t.report.workload),
                t.traced_ns,
                t.untraced_ns,
                span::to_json(&t.spans)
            )
        })
        .collect();
    let path = perf::out_dir().join("trace.json");
    if let Err(e) = std::fs::write(&path, format!("{{{}}}\n", body.join(",\n"))) {
        eprintln!("perf-trace: cannot write {}: {e}", path.display());
    }
    let mut ok = true;
    for t in &traced {
        ok &= t.report.correct;
        println!("{}", t.report.result_line(LAYERS.iter().map(|l| l.name)));
    }
    if smoke && !ok {
        std::process::exit(1);
    }
}
