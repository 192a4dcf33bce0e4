//! Experiment-pipeline benchmarks: one target per paper table/figure.
//!
//! Each target exercises the code path that regenerates the corresponding
//! artifact on a representative workload (the full-suite sweeps live in the
//! `bin/figNN` harnesses; this harness tracks the cost of each experiment
//! pipeline). It is a plain `fn main` harness — no external benchmarking
//! framework — so the workspace builds and runs fully offline. Pass a
//! substring argument to run a subset of targets.

use std::hint::black_box;
use std::time::Instant;

use bitspec::{
    build, simulate, simulate_with, Arch, BitwidthHeuristic, BuildConfig, Engine, SimConfig,
};
use mibench::{workload, workload_with_train, Input};

fn run_cfg(name: &str, cfg: &BuildConfig) -> f64 {
    let w = workload(name, Input::Large);
    let c = build(&w, cfg).expect("build");
    simulate(&c, &w).expect("sim").total_energy()
}

struct Harness {
    filter: Option<String>,
}

impl Harness {
    fn bench<F: FnMut()>(&self, name: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let start = Instant::now();
        f();
        println!("{name:32} {:>10.1} ms", start.elapsed().as_secs_f64() * 1e3);
    }
}

fn main() {
    let h = Harness {
        filter: std::env::args().nth(1),
    };

    // Figure 1: bitwidth distribution measurement (profiling run).
    h.bench("fig01_distributions", || {
        let mut m = lang::compile("crc32", &mibench::source_of("crc32")).unwrap();
        opt::expand_module(&mut m, &opt::ExpanderConfig::default());
        opt::simplify::run(&mut m);
        let mut i = interp::Interpreter::new(&m);
        i.enable_profiling();
        for (gname, data) in mibench::inputs_for("crc32", Input::Large) {
            i.install_global(&gname, &data);
        }
        let r = i.run("main", &[]).unwrap();
        let p = i.take_profile().unwrap();
        black_box((
            r.stats.by_required,
            interp::demanded::distribution_demanded(&m, &p),
            interp::demanded::distribution_bb_coerced(&m, &p),
        ));
    });

    // Figure 3: one unrolling point of the expander sweep.
    h.bench("fig03_unroll", || {
        let mut m = lang::compile("bitcount", &mibench::source_of("bitcount")).unwrap();
        opt::expand_module(
            &mut m,
            &opt::ExpanderConfig {
                unroll_factor: 4,
                ..Default::default()
            },
        );
        black_box(m.static_size());
    });

    // Figure 5: heuristic classification.
    h.bench("fig05_classification", || {
        let mut m = lang::compile("sha", &mibench::source_of("sha")).unwrap();
        opt::expand_module(&mut m, &opt::ExpanderConfig::default());
        let mut i = interp::Interpreter::new(&m);
        i.enable_profiling();
        for (gname, data) in mibench::inputs_for("sha", Input::Large) {
            i.install_global(&gname, &data);
        }
        i.run("main", &[]).unwrap();
        let p = i.take_profile().unwrap();
        black_box((
            p.classification(&m, interp::Heuristic::Max),
            p.classification(&m, interp::Heuristic::Avg),
            p.classification(&m, interp::Heuristic::Min),
        ));
    });

    // Figures 8–11 share the RQ0/RQ1 pipeline: baseline + bitspec on one
    // benchmark.
    h.bench("fig08_energy", || {
        black_box(run_cfg("crc32", &BuildConfig::bitspec()));
    });
    h.bench("fig09_components", || {
        let w = workload("rijndael", Input::Large);
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        let r = simulate(&c, &w).unwrap();
        black_box((r.energy.alu, r.energy.regfile, r.energy.dcache));
    });
    h.bench("fig10_spills", || {
        let w = workload("stringsearch", Input::Large);
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        let r = simulate(&c, &w).unwrap();
        black_box((r.counts.spill_loads, r.counts.spill_stores, r.counts.copies));
    });
    h.bench("fig11_reg_accesses", || {
        let w = workload("susan-corners", Input::Large);
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        let r = simulate(&c, &w).unwrap();
        black_box((r.activity.reg_accesses_8, r.activity.reg_accesses_32));
    });

    // Figure 12: the no-speculation build.
    h.bench("fig12_nospec", || {
        black_box(run_cfg(
            "crc32",
            &BuildConfig {
                arch: Arch::NoSpec,
                ..BuildConfig::baseline()
            },
        ));
    });

    // RQ3 ablations.
    h.bench("rq3_ablations", || {
        black_box(run_cfg(
            "dijkstra",
            &BuildConfig {
                compare_elim: false,
                ..BuildConfig::bitspec()
            },
        ));
    });

    // Figure 13: expander-off build.
    h.bench("fig13_noexpander", || {
        black_box(run_cfg(
            "bitcount",
            &BuildConfig {
                expander: opt::ExpanderConfig {
                    enabled: false,
                    ..Default::default()
                },
                ..BuildConfig::bitspec()
            },
        ));
    });

    // Figure 14 / Table 2: aggressive heuristics.
    h.bench("fig14_heuristics", || {
        black_box(run_cfg(
            "dijkstra",
            &BuildConfig::bitspec_with(BitwidthHeuristic::Min),
        ));
    });
    h.bench("table2_misspecs", || {
        let w = workload("crc32", Input::Large);
        let c = build(&w, &BuildConfig::bitspec_with(BitwidthHeuristic::Min)).unwrap();
        let r = simulate(&c, &w).unwrap();
        black_box(r.counts.misspecs);
    });

    // Figures 15/16: alternate-input profiling.
    h.bench("fig15_alt_profile", || {
        let w = workload_with_train("qsort", Input::Large, Input::Alternate);
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        black_box(simulate(&c, &w).unwrap().total_energy());
    });
    h.bench("fig16_cross_input", || {
        let mut w = workload("susan-edges", Input::Large);
        w.train_inputs = vec![("image".into(), mibench::susan_image(Input::Seeded(3)))];
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        black_box(simulate(&c, &w).unwrap().counts.dyn_insts);
    });

    // RQ7 wide variants.
    h.bench("rq7_wide", || {
        let mut w = workload("stringsearch", Input::Large);
        w.source = mibench::rq7_wide_variant("stringsearch").unwrap();
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        black_box(simulate(&c, &w).unwrap().total_energy());
    });

    // Figure 17: DTS composition.
    h.bench("fig17_dts", || {
        let w = workload("crc32", Input::Large);
        let c = build(&w, &BuildConfig::bitspec()).unwrap();
        let r = simulate_with(
            &c,
            &w,
            &SimConfig {
                dts: true,
                ..Default::default()
            },
        )
        .unwrap();
        black_box(r.total_energy());
    });

    // Figure 18: compact ISA.
    h.bench("fig18_compact", || {
        black_box(run_cfg(
            "basicmath",
            &BuildConfig {
                arch: Arch::Compact,
                ..BuildConfig::baseline()
            },
        ));
    });

    // Microbenchmarks of the substrates themselves. The default engine
    // (turbo) and the retained reference on the same workload — the gap
    // between them is turbo's win.
    h.bench("substrate_simulator_throughput", || {
        let w = workload("sha", Input::Large);
        let c = build(&w, &BuildConfig::baseline()).unwrap();
        black_box(simulate(&c, &w).unwrap().counts.dyn_insts);
    });
    h.bench("substrate_simulator_reference", || {
        let w = workload("sha", Input::Large);
        let c = build(&w, &BuildConfig::baseline()).unwrap();
        let r = simulate_with(
            &c,
            &w,
            &SimConfig {
                engine: Engine::Reference,
                ..Default::default()
            },
        )
        .unwrap();
        black_box(r.counts.dyn_insts);
    });
    h.bench("substrate_compile_pipeline", || {
        let w = workload("rijndael", Input::Large);
        black_box(build(&w, &BuildConfig::bitspec()).unwrap().squeeze);
    });
}
