//! Span self times reconcile with the traced total.

use perf::span::{self, Recorder, Span};

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
        cell: Some(0),
    }
}

#[test]
fn self_times_of_a_synthetic_tree_sum_to_the_total() {
    // cell [0,100): front [5,20), codegen [20,90) with isel [20,50) and
    // emit [50,70); a second cell [100,130) with sim [110,130).
    let spans = vec![
        span("cell", 0, 100, None),
        span("front", 5, 20, Some(0)),
        span("codegen", 20, 90, Some(0)),
        span("isel", 20, 50, Some(2)),
        span("emit", 50, 70, Some(2)),
        span("cell", 100, 130, None),
        span("sim", 110, 130, Some(5)),
    ];
    let t = span::table(&spans);
    assert_eq!(t.total_ns, 130);
    assert_eq!(t.self_ns("cell"), 15 + 10, "gaps inside both cells");
    assert_eq!(t.self_ns("front"), 15);
    assert_eq!(t.self_ns("codegen"), 20, "70 busy minus its 50 of children");
    assert_eq!(t.rows["codegen"].busy_ns, 70);
    assert_eq!(
        t.self_ns("isel") + t.self_ns("emit") + t.self_ns("sim"),
        30 + 20 + 20
    );
    assert_eq!(t.rows["cell"].count, 2);
    let sum: u64 = t.rows.values().map(|r| r.self_ns).sum();
    assert_eq!(sum, t.total_ns, "rows plus unattributed sum to the total");
}

#[test]
fn recorded_spans_reconcile() {
    let mut rec = Recorder::new();
    for cell in 0..3 {
        rec.set_cell(Some(cell));
        rec.time("cell", |rec| {
            rec.time("front", |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
            rec.time("codegen", |rec| {
                std::hint::black_box((0..50_000u64).sum::<u64>());
                // Reported sub-phase timings, longer than the span itself:
                // clipped so the parent never goes negative.
                rec.lay_out(&[("isel", 1_000), ("emit", u64::MAX / 4)]);
            });
            rec.time("squeeze", |rec| {
                let now = rec.now_ns();
                rec.record("verify", now.saturating_sub(500), now);
            });
        });
    }
    let spans = rec.take();
    assert_eq!(spans.iter().filter(|s| s.name == "cell").count(), 3);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    let t = span::table(&spans);
    let sum: u64 = t.rows.values().map(|r| r.self_ns).sum();
    assert_eq!(sum, t.total_ns);
    assert_eq!(t.rows["isel"].count, 3);
    // A disabled recorder runs the closures and records nothing.
    let mut off = Recorder::off();
    assert_eq!(off.time("cell", |_| 7), 7);
    assert!(off.take().is_empty());
}

#[test]
fn spans_serialize_as_json() {
    let spans = vec![span("cell", 0, 10, None), span("front", 1, 2, Some(0))];
    let v = perf::json::parse(&span::to_json(&spans)).unwrap();
    let arr = v.as_array().unwrap();
    assert_eq!(arr.len(), 2);
    assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
    assert_eq!(arr[0].get("name").and_then(|n| n.as_str()), Some("cell"));
}
