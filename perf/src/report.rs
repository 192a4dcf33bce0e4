//! Benchmark reports: per-workload metric samples, their JSON form, the
//! one-line result the benchmark prints last, and `perf compare`.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Metric};
use crate::stats;

/// Every sample of one metric on one workload (one per repetition, or one
/// per run for statistics over repetitions such as a percentile).
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

impl Samples {
    pub fn median(&self) -> f64 {
        stats::median(&self.values).unwrap_or(f64::NAN)
    }
}

/// One workload's results.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    /// Cells (or sims) attempted and failed over the timed repetitions.
    pub attempted: u64,
    pub failed: u64,
    /// No failure, and every determinism and pinned-oracle check held.
    pub correct: bool,
    pub metrics: Vec<Samples>,
}

impl WorkloadReport {
    pub fn new(workload: &str) -> WorkloadReport {
        WorkloadReport {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
        }
    }

    /// Adds (or replaces) metric `name`'s samples; the unit comes from the
    /// metric tables.
    pub fn set(&mut self, name: &str, values: Vec<f64>) {
        let unit = metrics::unit_of(name).unwrap_or("").to_string();
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Samples {
            name: name.to_string(),
            unit,
            values,
        });
    }

    /// Appends one sample of metric `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.values.push(value),
            None => self.set(name, vec![value]),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Samples> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted`, `failed` and the median of
    /// each metric in `names` with its unit.
    pub fn result_line<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> String {
        let metrics: Vec<String> = names
            .into_iter()
            .map(|n| {
                let (value, unit) = self
                    .get(n)
                    .map_or((f64::NAN, ""), |s| (s.median(), s.unit.as_str()));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(n),
                    json::num(value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A full run: every workload measured under one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub seed: u64,
    pub seconds: f64,
    /// Worker count every child was given (`-j`).
    pub jobs: usize,
    /// The host's available parallelism when the run was made.
    pub nproc: usize,
    pub workloads: Vec<WorkloadReport>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"jobs\": {},\n  \"nproc\": {},\n  \"workloads\": [",
            self.seed,
            json::num(self.seconds),
            self.jobs,
            self.nproc
        );
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"workload\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"metrics\": {{",
                json::quote(&w.workload),
                w.attempted,
                w.failed,
                w.correct
            ));
            for (j, m) in w.metrics.iter().enumerate() {
                let (q1, q3) = stats::quartiles(&m.values).unwrap_or((f64::NAN, f64::NAN));
                let values: Vec<String> = m.values.iter().map(|&v| json::num(v)).collect();
                out.push_str(&format!(
                    "{}\n      {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                    if j == 0 { "" } else { "," },
                    json::quote(&m.name),
                    json::quote(&m.unit),
                    json::num(m.median()),
                    json::num(q1),
                    json::num(q3),
                    m.values.len(),
                    values.join(", ")
                ));
            }
            out.push_str("\n    }}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Reads a report written by [`Report::to_json`].
    ///
    /// # Errors
    /// Describes the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = json::parse(text)?;
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number `{k}`"))
        };
        let mut workloads = Vec::new();
        for w in v
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("missing `workloads`")?
        {
            let name = w
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("missing `workload`")?;
            let mut wr = WorkloadReport::new(name);
            wr.attempted = num(w, "attempted")? as u64;
            wr.failed = num(w, "failed")? as u64;
            wr.correct = w
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("missing `correct`")?;
            for (mname, m) in w
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("missing `metrics`")?
            {
                let values = m
                    .get("samples")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("{name}/{mname}: missing `samples`"))?
                    .iter()
                    .map(|x| x.as_f64().unwrap_or(f64::NAN))
                    .collect();
                wr.metrics.push(Samples {
                    name: mname.clone(),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    values,
                });
            }
            workloads.push(wr);
        }
        Ok(Report {
            seed: num(&v, "seed")? as u64,
            seconds: num(&v, "seconds")?,
            jobs: num(&v, "jobs")? as usize,
            nproc: num(&v, "nproc")? as usize,
            workloads,
        })
    }
}

/// How a metric moved between a baseline and a candidate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound, so the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate samples `b` against baseline samples `a` of a metric
/// with direction `better` and regression bound `bound`. Returns the
/// relative change of the medians, signed so that positive is worse, and
/// the verdict:
///
/// * bound 0 (deterministic metrics): any change is better or worse;
/// * a spread (quartile distance over median, the wider of the two runs)
///   above the bound is unresolved, unless every candidate sample beats
///   every baseline sample (better) or loses to all of them by more than
///   the bound at the median (worse);
/// * otherwise worse beyond the bound, better when the gain exceeds the
///   baseline's own spread (or, for a single baseline sample, the
///   bound), else within bound.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return (f64::NAN, Verdict::Unresolved);
    };
    let diff = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let change = if ma != 0.0 {
        diff / ma.abs()
    } else if diff == 0.0 {
        0.0
    } else {
        diff.signum() * f64::INFINITY
    };
    if bound == 0.0 || ma == 0.0 {
        let v = if diff == 0.0 {
            Verdict::Within
        } else if diff > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
        return (change, v);
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread_a = stats::spread(a).unwrap_or(0.0);
    let spread = spread_a.max(stats::spread(b).unwrap_or(0.0));
    let v = if spread > bound {
        if b.iter().all(|&y| a.iter().all(|&x| beats(y, x))) {
            Verdict::Better
        } else if change > bound && b.iter().all(|&y| a.iter().all(|&x| beats(x, y))) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Worse
    } else if -change > bound || (a.len() > 1 && -change > spread_a) {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (change, v)
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub metric: &'static Metric,
    pub workload: String,
    pub change: f64,
    pub verdict: Verdict,
    text: String,
}

fn describe(s: &Samples) -> String {
    let (q1, q3) = stats::quartiles(&s.values).unwrap_or((f64::NAN, f64::NAN));
    format!(
        "{:.6} [{:.6}, {:.6}] n={}",
        s.median(),
        q1,
        q3,
        s.values.len()
    )
}

/// Compares every end-to-end metric on every workload both reports hold.
pub fn compare(a: &Report, b: &Report) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            continue;
        };
        for metric in &metrics::END_TO_END {
            let (Some(sa), Some(sb)) = (wa.get(metric.name), wb.get(metric.name)) else {
                continue;
            };
            let (change, verdict) = verdict(metric.better, metric.bound, &sa.values, &sb.values);
            rows.push(Row {
                metric,
                workload: wa.workload.clone(),
                change,
                verdict,
                text: format!(
                    "{:<14} {:<17} {:>8}  A {:<44} B {:<44} {:>+8.2}%  bound {:>4.0}%  {}",
                    wa.workload,
                    metric.name,
                    metric.unit,
                    describe(sa),
                    describe(sb),
                    100.0 * change,
                    100.0 * metric.bound,
                    verdict.label()
                ),
            });
        }
    }
    rows
}

/// The comparison as a table, one line per (workload, metric).
pub fn render(rows: &[Row]) -> String {
    rows.iter().map(|r| format!("{}\n", r.text)).collect()
}
