//! # bench — experiment harnesses for every table and figure
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//! `cargo run --release -p bench --bin fig08` regenerates the Figure 8
//! series, and so on for fig01/fig03/fig05/fig09–fig18, table2, rq3 and
//! rq7; `bin/tuner.rs` is the expander auto-tuner (§3.2.1). Harness
//! output is checked into `results/` and summarized in EXPERIMENTS.md.
//!
//! This library holds the shared run/format helpers.

use bitspec::memo::{Codec, Memo, Source};
use bitspec::{build, stages, wire, BuildConfig, Compiled, Manifest, SimConfig};
use bitspec::{SimResult, Workload};
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

pub use bitspec::pool;

/// Builds and simulates one workload under one configuration.
///
/// # Panics
/// Panics on build or simulation failure — harnesses are batch tools and
/// fail loudly.
pub fn run(w: &Workload, cfg: &BuildConfig) -> (Compiled, SimResult) {
    run_with(w, cfg, &SimConfig::default())
}

/// [`run`] with an explicit simulator configuration — harnesses use this
/// to pin an engine (`SimConfig::engine`) or mode instead of the default.
///
/// The evaluation simulation goes through the shared [`stages::sim`]
/// stage, keyed by [`bitspec::fingerprint::sim_key`] (program
/// fingerprint, resolved evaluation inputs, every `SimConfig` field and
/// the build's DTS flag). Cells whose builds link the same program —
/// expander-tuner corners that expand to one module, gate-rejected
/// squeezes — share one run, and a gated cell evaluated on its training
/// inputs under the default configuration (every MiBench workload)
/// reuses the run its empirical gate already made of the kept program.
/// [`bitspec::simulate_with`] itself stays un-memoized.
///
/// # Panics
/// Panics on build or simulation failure.
pub fn run_with(w: &Workload, cfg: &BuildConfig, sim_cfg: &SimConfig) -> (Compiled, SimResult) {
    let c = build(w, cfg).unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name));
    let r = evaluate(w, &c, None, sim_cfg);
    (c, r)
}

/// The evaluation run of `c` on `w`'s inputs through [`stages::sim`];
/// `program_fp` as there.
fn evaluate(w: &Workload, c: &Compiled, program_fp: Option<u64>, sim_cfg: &SimConfig) -> SimResult {
    let inputs = bitspec::resolve_inputs(&c.module, &w.inputs);
    let (run, _) = stages::sim(&c.program, program_fp, &inputs, sim_cfg, c.config.dts)
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", w.name));
    run.result.clone()
}

/// One build+simulate artifact, shared across harness call sites.
pub type Cell = Arc<(Compiled, SimResult)>;

/// One memoized cell: its manifest, and the full cell once this process
/// computed it. A manifest read from the store arrives without the cell;
/// [`run_cached`] recomputes it.
struct Entry {
    manifest: Arc<Manifest>,
    cell: OnceLock<Cell>,
}

fn encode_entry(e: &Entry) -> Vec<u8> {
    wire::encode(&*e.manifest)
}

fn decode_entry(bytes: &[u8]) -> Result<Entry, wire::WireError> {
    Ok(Entry {
        manifest: Arc::new(wire::decode(bytes)?),
        cell: OnceLock::new(),
    })
}

/// Cells, keyed by the structural [`bitspec::fingerprint::cell_key`]
/// (workload contents plus every `BuildConfig` field); the store holds
/// each as a manifest (`manifest` kind).
static CELLS: Memo<Entry> = Memo::new(
    "manifest",
    Some(Codec {
        enc: encode_entry,
        dec: decode_entry,
    }),
);

/// Like [`run`], but memoized in a process-wide artifact cache: a repeat
/// of the same (workload, config) cell — common across harnesses and
/// within the matrix sweeps — returns the shared artifact instead of
/// re-running the pipeline. A cell whose manifest came from the store is
/// recomputed, once per process: concurrent callers wait for it.
///
/// # Panics
/// Panics on build or simulation failure.
pub fn run_cached(w: &Workload, cfg: &BuildConfig) -> Cell {
    let (entry, _) = lookup(w, cfg);
    let cell = entry.cell.get_or_init(|| {
        let (c, r, _) = compute(w, cfg);
        Arc::new((c, r))
    });
    Arc::clone(cell)
}

/// A cell's manifest with hit/miss provenance, looked up memory → disk →
/// compute through a single-flight memo ([`bitspec::memo`]): concurrent
/// requests for one cell compute it once. With an active persistent store
/// ([`bitspec::store::active`]) a computed cell writes its manifest, so a
/// fresh process re-sweeping a warmed store serves disk hits that read
/// and decode manifests only. A corrupt or undecodable manifest is
/// counted as corrupt, deleted, and recomputed + republished.
///
/// # Panics
/// Panics on build or simulation failure.
pub fn run_cached_traced(w: &Workload, cfg: &BuildConfig) -> (Arc<Manifest>, Source) {
    let (entry, source) = lookup(w, cfg);
    (Arc::clone(&entry.manifest), source)
}

fn lookup(w: &Workload, cfg: &BuildConfig) -> (Arc<Entry>, Source) {
    let key = bitspec::fingerprint::cell_key(w, cfg);
    let Ok(found) = CELLS.get(key, false, || {
        let (c, r, program_fp) = compute(w, cfg);
        Ok::<_, Infallible>(Entry {
            manifest: Arc::new(Manifest::of(&c, &r, program_fp)),
            cell: OnceLock::from(Arc::new((c, r))),
        })
    });
    found
}

/// [`run`], also returning the linked program's fingerprint (the
/// manifest's `program_fp`), which the evaluation sim reuses.
fn compute(w: &Workload, cfg: &BuildConfig) -> (Compiled, SimResult, u64) {
    let c = build(w, cfg).unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name));
    let program_fp = bitspec::program_fingerprint(&c.program);
    let r = evaluate(w, &c, Some(program_fp), &SimConfig::default());
    (c, r, program_fp)
}

/// The full evaluation matrix the sweep harnesses share: the fig09 pair
/// (BASELINE + BITSPEC), the table2 heuristic study (gate off, per its
/// protocol), the rq3 ablations and fig12's no-speculation architecture —
/// eight configs differing only downstream of the profiling stage,
/// exactly the sharing a full experiment-suite run exhibits. The
/// `bitspecd` serve layer's `experiment suite` and the benchmark (`perf/`)
/// both sweep this set, so they describe the same 112-cell suite.
pub fn suite_configs() -> Vec<BuildConfig> {
    use bitspec::BitwidthHeuristic;
    let mut cfgs = vec![BuildConfig::baseline(), BuildConfig::bitspec()];
    for h in [
        BitwidthHeuristic::Max,
        BitwidthHeuristic::Avg,
        BitwidthHeuristic::Min,
    ] {
        cfgs.push(BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec_with(h)
        });
    }
    cfgs.push(BuildConfig {
        compare_elim: false,
        ..BuildConfig::bitspec()
    });
    cfgs.push(BuildConfig {
        bitmask_elision: false,
        ..BuildConfig::bitspec()
    });
    cfgs.push(BuildConfig {
        arch: bitspec::Arch::NoSpec,
        ..BuildConfig::bitspec()
    });
    cfgs
}

/// Drops every cached cell and simulation (tests use this to force
/// rebuilds).
pub fn clear_cache() {
    CELLS.clear();
    stages::clear_sims();
}

/// Runs every workload under one configuration across `workers` pool
/// threads; results are in workload order regardless of worker count.
pub fn run_suite(workloads: &[Workload], cfg: &BuildConfig, workers: usize) -> Vec<Cell> {
    pool::run_ordered(workloads.len(), workers, |i| run_cached(&workloads[i], cfg))
}

/// Runs the full workload × configuration matrix across `workers` pool
/// threads. `out[wi][ci]` is workload `wi` under config `ci`; the cells
/// are fanned out flat so a slow workload doesn't serialize a column.
pub fn run_matrix(workloads: &[Workload], cfgs: &[BuildConfig], workers: usize) -> Vec<Vec<Cell>> {
    matrix(workloads, cfgs, workers, run_cached)
}

/// [`run_matrix`] for harnesses that read only each cell's evaluation
/// result: `out[wi][ci]` is the [`SimResult`] of the cell's manifest
/// ([`run_cached_traced`]), so a disk-warm run reads manifests alone and
/// recomputes no cell.
pub fn run_matrix_sims(
    workloads: &[Workload],
    cfgs: &[BuildConfig],
    workers: usize,
) -> Vec<Vec<SimResult>> {
    matrix(workloads, cfgs, workers, |w, cfg| {
        run_cached_traced(w, cfg).0.sim.clone()
    })
}

/// `f` over the workload × configuration grid, fanned out flat across
/// `workers` pool threads and regrouped into rows in input order.
fn matrix<T: Send>(
    workloads: &[Workload],
    cfgs: &[BuildConfig],
    workers: usize,
    f: impl Fn(&Workload, &BuildConfig) -> T + Sync,
) -> Vec<Vec<T>> {
    let n = workloads.len() * cfgs.len();
    let flat = pool::run_ordered(n, workers, |k| {
        f(&workloads[k / cfgs.len()], &cfgs[k % cfgs.len()])
    });
    let mut rows = Vec::with_capacity(workloads.len());
    let mut it = flat.into_iter();
    for _ in 0..workloads.len() {
        rows.push(it.by_ref().take(cfgs.len()).collect());
    }
    rows
}

/// Percent change of `new` vs `old` (negative = reduction).
pub fn pct(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        100.0 * (new - old) / old
    }
}

/// Ratio `new / old` (1.0 = parity).
pub fn ratio(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        1.0
    } else {
        new / old
    }
}

/// Geometric mean of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Prints a figure header in a stable, grep-friendly format.
pub fn header(id: &str, title: &str) {
    println!("== {id}: {title}");
}

/// Formats a distribution row (percent at 8/16/32/64 bits).
pub fn dist_row(label: &str, d: [f64; 4]) -> String {
    format!(
        "{label:<16} 8b={:5.1}%  16b={:5.1}%  32b={:5.1}%  64b={:5.1}%",
        d[0], d[1], d[2], d[3]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert!((pct(90.0, 100.0) + 10.0).abs() < 1e-9);
        assert!((ratio(50.0, 100.0) - 0.5).abs() < 1e-9);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_configs_never_share_a_fingerprint() {
        use bitspec::{Arch, BitwidthHeuristic, ExpanderConfig};
        let w = bitspec::Workload::from_source("t", "void main() { }");
        let base = BuildConfig::bitspec();
        // One variant per BuildConfig field, each differing from `base` in
        // exactly that field.
        let variants = vec![
            BuildConfig {
                arch: Arch::NoSpec,
                ..base.clone()
            },
            BuildConfig {
                heuristic: BitwidthHeuristic::Min,
                ..base.clone()
            },
            BuildConfig {
                expander: ExpanderConfig {
                    unroll_factor: base.expander.unroll_factor + 1,
                    ..base.expander
                },
                ..base.clone()
            },
            BuildConfig {
                expander: ExpanderConfig {
                    max_func_size: base.expander.max_func_size + 1,
                    ..base.expander
                },
                ..base.clone()
            },
            BuildConfig {
                expander: ExpanderConfig {
                    max_loop_size: base.expander.max_loop_size + 1,
                    ..base.expander
                },
                ..base.clone()
            },
            BuildConfig {
                expander: ExpanderConfig {
                    enabled: false,
                    ..base.expander
                },
                ..base.clone()
            },
            BuildConfig {
                compare_elim: false,
                ..base.clone()
            },
            BuildConfig {
                bitmask_elision: false,
                ..base.clone()
            },
            BuildConfig {
                spill_prefer_orig: false,
                ..base.clone()
            },
            BuildConfig {
                dts: true,
                ..base.clone()
            },
            BuildConfig {
                empirical_gate: false,
                ..base.clone()
            },
            BuildConfig {
                verify_each: false,
                ..base.clone()
            },
            BuildConfig {
                reference_profiler: true,
                ..base.clone()
            },
        ];
        let key = bitspec::fingerprint::cell_key;
        let mut keys = vec![key(&w, &base)];
        for v in &variants {
            keys.push(key(&w, v));
        }
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "fingerprint collision: {keys:?}");
    }

    #[test]
    fn distinct_sim_configs_never_share_a_key() {
        use bitspec::{Engine, Workload};
        let w = Workload::from_source("t", "global u8 x[1]; void main() { out(x[0]); }")
            .with_input("x", vec![7]);
        let c = build(&w, &BuildConfig::baseline()).unwrap();
        let base = SimConfig::default();
        let mut energy = base.energy;
        energy.dram_access += 1.0;
        // One variant per SimConfig field, each differing from `base` in
        // exactly that field.
        let variants = [
            SimConfig {
                dts: true,
                ..base.clone()
            },
            SimConfig {
                fuel: base.fuel - 1,
                ..base.clone()
            },
            SimConfig {
                engine: Engine::Reference,
                ..base.clone()
            },
            SimConfig {
                energy,
                ..base.clone()
            },
        ];
        let key = |c: &Compiled, w: &Workload, cfg: &SimConfig| {
            bitspec::fingerprint::sim_key(c, &w.inputs, cfg)
        };
        let mut keys = vec![key(&c, &w, &base)];
        for v in &variants {
            keys.push(key(&c, &w, v));
        }
        // The build's own DTS flag and the evaluation inputs key too.
        let mut dts_build = c.clone();
        dts_build.config.dts = true;
        keys.push(key(&dts_build, &w, &base));
        let other_input = Workload {
            inputs: vec![("x".to_string(), vec![8])],
            ..w.clone()
        };
        keys.push(key(&c, &other_input, &base));
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "sim key collision: {keys:?}");
    }

    #[test]
    fn run_executes_pipeline() {
        let w = bitspec::Workload::from_source(
            "t",
            "void main() { u32 s = 0; for (u32 i = 0; i < 20; i++) { s += i; } out(s); }",
        );
        let (_, r) = run(&w, &bitspec::BuildConfig::bitspec());
        assert_eq!(r.outputs, vec![190]);
    }
}
