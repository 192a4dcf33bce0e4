//! The benchmark's definition: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics. `BENCHMARK.json`
//! and `perf/README.md` mirror these tables (a test keeps
//! `BENCHMARK.json` in step).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a name later issues use, and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "suite-cold",
        why: "112-cell suite served by a fresh bitspecd into an empty store: the regenerate-from-cold path and the store's write path",
    },
    Workload {
        name: "expander-grid",
        why: "224 BASELINE cells over the tuner's grid corners: expand and profile run per cell, no squeeze or gate, most codegen hits the fn cache",
    },
    Workload {
        name: "suite-disk",
        why: "the suite re-served by fresh bitspecd processes from a populated store: the store's read path, where compile layers do no work",
    },
    Workload {
        name: "sim-inputs",
        why: "42 prebuilt programs (baseline, bitspec, bitspec+DTS) on 16 seeded input sets: all simulation, no compiler",
    },
];

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression (0: must not move at all).
    pub bound: f64,
    /// Workloads that report it (empty: all of them).
    pub workloads: &'static [&'static str],
    /// Listed in `BENCHMARK.json` and printed on the result line. Every
    /// such metric is defined, and never 0, on every workload.
    pub listed: bool,
}

const SUITES: &[&str] = &["suite-cold", "suite-disk"];

pub const END_TO_END: [Metric; 11] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        listed: true,
    },
    Metric {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        listed: true,
    },
    Metric {
        name: "cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        workloads: &[],
        listed: false,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
        listed: true,
    },
    Metric {
        name: "wall_s_p90",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &["suite-disk"],
        listed: false,
    },
    Metric {
        name: "sim_minsts_per_s",
        unit: "Minst/s",
        better: Better::Higher,
        bound: 0.25,
        workloads: &["sim-inputs"],
        listed: false,
    },
    Metric {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        workloads: &[],
        listed: false,
    },
    Metric {
        name: "energy_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        workloads: SUITES,
        listed: false,
    },
    Metric {
        name: "cycles_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        workloads: SUITES,
        listed: false,
    },
    Metric {
        name: "store_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        workloads: &["suite-cold"],
        listed: false,
    },
    Metric {
        name: "best_dyn_insts",
        unit: "count",
        better: Better::Lower,
        bound: 0.0,
        workloads: &["expander-grid"],
        listed: false,
    },
];

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// Grouped by the end-to-end metric each should move (see the map in
/// `perf/README.md`).
pub const LAYERS: [Layer; 41] = [
    // expander-grid wall_s
    layer("opt.expand_ms", "ms", Lower),
    layer("opt.expand_runs", "count", Lower),
    layer("opt.expanded_insts", "count", Lower),
    layer("interp.profile_ms", "ms", Lower),
    layer("interp.profile_runs", "count", Lower),
    layer("interp.profile_minsts_per_s", "Minst/s", Higher),
    layer("interp.profile_useful_ratio", "ratio", Higher),
    // suite-cold wall_s
    layer("lang.front_ms", "ms", Lower),
    layer("opt.squeeze_ms", "ms", Lower),
    layer("opt.squeeze_narrowed", "count", Higher),
    layer("sir.verify_ms", "ms", Lower),
    layer("sir.bitlint_ms", "ms", Lower),
    layer("core.gate_ref_ms", "ms", Lower),
    layer("core.gate_kept_ratio", "ratio", Higher),
    layer("sim.gate_train_ms", "ms", Lower),
    layer("backend.codegen_ms", "ms", Lower),
    layer("backend.isel_ms", "ms", Lower),
    layer("backend.regalloc_ms", "ms", Lower),
    layer("backend.mir_verify_ms", "ms", Lower),
    layer("backend.regalloc_verify_ms", "ms", Lower),
    layer("backend.emit_ms", "ms", Lower),
    layer("backend.emit_verify_ms", "ms", Lower),
    layer("backend.fn_compiled", "count", Lower),
    layer("backend.fn_hit_ratio", "ratio", Higher),
    // sim-inputs sim_minsts_per_s
    layer("sim.eval_ms", "ms", Lower),
    layer("sim.turbo_minsts_per_s", "Minst/s", Higher),
    layer("sim.dts_minsts_per_s", "Minst/s", Higher),
    layer("sim.dyn_insts", "count", Lower),
    layer("sim.misspecs", "count", Lower),
    // suite-disk wall_s and wall_s_p90
    layer("core.store_get_ms", "ms", Lower),
    layer("core.wire_decode_ms", "ms", Lower),
    layer("serve.parse_ms", "ms", Lower),
    layer("bench.cells_disk", "count", Higher),
    // suite-cold wall_s and store_mb
    layer("core.store_put_ms", "ms", Lower),
    layer("core.wire_encode_ms", "ms", Lower),
    layer("core.wire_bytes", "B", Lower),
    layer("core.store_entries", "count", Lower),
    layer("bench.cells_computed", "count", Lower),
    // every workload
    layer("unattributed_ms", "ms", Lower),
    layer("trace_overhead_pct", "%", Lower),
    layer("traced_total_ms", "ms", Lower),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
