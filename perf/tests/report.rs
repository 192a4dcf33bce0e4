//! Reports: their JSON form, the result line, `perf compare` verdicts, and
//! `BENCHMARK.json` staying in step with the metric tables.

use perf::json::{self, Value};
use perf::metrics::{Better, END_TO_END, LAYERS, WORKLOADS};
use perf::report::{self, verdict, Report, Verdict, WorkloadReport};

fn sample_report(wall: &[f64]) -> Report {
    let mut w = WorkloadReport::new("suite-cold");
    w.attempted = 112;
    w.set("wall_s", wall.to_vec());
    w.set("energy_ratio", vec![0.873429033647012]);
    Report {
        seed: 1,
        seconds: 10.0,
        jobs: 2,
        nproc: 2,
        workloads: vec![w],
    }
}

#[test]
fn report_json_round_trips() {
    let r = sample_report(&[1.25, 1.2, 1.3000000000000003]);
    let back = Report::from_json(&r.to_json()).unwrap();
    assert_eq!(back, r);
    assert_eq!(back.workloads[0].get("wall_s").unwrap().unit, "s");
    assert!(Report::from_json("{\"seed\": 1}").is_err());
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let r = sample_report(&[1.0, 3.0, 2.0]);
    let line = r.workloads[0].result_line(["wall_s"]);
    let v = json::parse(&line).unwrap();
    let keys: Vec<&str> = v
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
    assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
    assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
}

#[test]
fn verdicts_follow_bound_and_spread() {
    let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00];
    let shift = |k: f64| base.iter().map(|x| x * k).collect::<Vec<_>>();
    assert_eq!(
        verdict(Better::Lower, 0.10, &base, &base).1,
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Lower, 0.10, &base, &shift(1.05)).1,
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Lower, 0.10, &base, &shift(1.20)).1,
        Verdict::Worse
    );
    assert_eq!(
        verdict(Better::Lower, 0.10, &base, &shift(0.80)).1,
        Verdict::Better
    );
    assert_eq!(
        verdict(Better::Higher, 0.10, &base, &shift(0.80)).1,
        Verdict::Worse
    );
    let (change, _) = verdict(Better::Lower, 0.10, &base, &shift(1.20));
    assert!((change - 0.20).abs() < 1e-9);
    // A spread wider than the bound cannot be resolved...
    let wide = [0.7, 1.0, 1.3, 0.8, 1.2];
    assert_eq!(
        verdict(Better::Lower, 0.10, &wide, &wide).1,
        Verdict::Unresolved
    );
    // ...unless every candidate sample beats every baseline sample.
    assert_eq!(
        verdict(Better::Lower, 0.10, &wide, &[0.5, 0.6]).1,
        Verdict::Better
    );
    // One baseline sample has no spread: only a gain beyond the bound
    // counts as better.
    assert_eq!(
        verdict(Better::Lower, 0.10, &[1.0], &[0.95]).1,
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Lower, 0.10, &[1.0], &[0.8]).1,
        Verdict::Better
    );
    // Deterministic metrics have bound 0: any move counts.
    assert_eq!(
        verdict(Better::Lower, 0.0, &[0.87], &[0.87]).1,
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Lower, 0.0, &[0.87], &[0.88]).1,
        Verdict::Worse
    );
    assert_eq!(
        verdict(Better::Lower, 0.0, &[0.0], &[0.01]).1,
        Verdict::Worse
    );

    let rows = report::compare(&sample_report(&base), &sample_report(&shift(1.5)));
    let wall = rows.iter().find(|r| r.metric.name == "wall_s").unwrap();
    assert_eq!(wall.verdict, Verdict::Worse);
    assert!(report::render(&rows).contains("worse"));
}

/// `BENCHMARK.json` lists the workloads, the end-to-end metrics marked
/// `listed` (with their units, directions and bounds) and the per-layer
/// metrics, exactly as the tables here define them.
#[test]
fn benchmark_json_mirrors_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |k: &str| -> Vec<String> {
        v.get(k)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|x| x.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    };
    let find = |k: &str, name: &str| -> Value {
        v.get(k)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .find(|x| x.get("name").and_then(Value::as_str) == Some(name))
            .unwrap()
            .clone()
    };
    assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_string()));
    for w in WORKLOADS {
        assert_eq!(
            find("workloads", w.name).get("why").and_then(Value::as_str),
            Some(w.why)
        );
    }
    let listed: Vec<_> = END_TO_END.iter().filter(|m| m.listed).collect();
    assert_eq!(
        names("end_to_end"),
        listed
            .iter()
            .map(|m| m.name.to_string())
            .collect::<Vec<_>>()
    );
    for m in listed {
        let e = find("end_to_end", m.name);
        assert_eq!(e.get("unit").and_then(Value::as_str), Some(m.unit));
        assert_eq!(
            e.get("better").and_then(Value::as_str),
            Some(m.better.label())
        );
        assert_eq!(e.get("bound").and_then(Value::as_f64), Some(m.bound));
        assert!(
            m.workloads.is_empty(),
            "{} must hold on every workload",
            m.name
        );
    }
    assert_eq!(names("per_layer"), LAYERS.map(|l| l.name.to_string()));
    for l in LAYERS {
        let e = find("per_layer", l.name);
        assert_eq!(e.get("unit").and_then(Value::as_str), Some(l.unit));
        assert_eq!(
            e.get("better").and_then(Value::as_str),
            Some(l.better.label())
        );
    }
}
