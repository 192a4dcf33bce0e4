//! The `bitspecd` protocol as the benchmark drives it: the seeded batch,
//! the result-line parser, the batch checker and the outputs oracle.

use perf::json;
use perf::oracle;
use perf::proto::{self, Line, Reference, SUITE_CONFIGS};
use std::collections::BTreeSet;
use std::sync::Mutex;

const GOOD: &str =
    "{\"id\": 3, \"op\": \"sim\", \"workload\": \"crc32\", \"config\": \"baseline\", \
    \"key\": \"9d846a69c18a52a7\", \"source\": \"computed\", \"dedup\": false, \
    \"build_fp\": \"e820fafb00eb4a08\", \"used_squeezed\": false, \
    \"outputs_fnv\": \"eb6da06c4cfa9fa7\", \"cycles\": 233666, \"energy_pj\": 5130958.4000}";

#[test]
fn result_and_summary_lines_parse() {
    let Ok(Line::Cell(c)) = proto::parse_line(GOOD) else {
        panic!("good line rejected")
    };
    assert_eq!(c.id, 3);
    assert_eq!(c.workload, "crc32");
    assert_eq!(c.outputs_fnv, 0xeb6d_a06c_4cfa_9fa7);
    assert_eq!(c.cycles, 233_666);
    assert_eq!(c.energy_pj, 5_130_958.4);
    let summary = "{\"summary\": {\"requests\": 112, \"cells\": 112, \"deduped\": 0, \
        \"memory_hits\": 0, \"disk_hits\": 112, \"computed\": 0, \"wall_s\": 0.060961, \
        \"throughput_rps\": 1837.24, \"suite_fp\": \"ec8eb53dc4632e71\"}}";
    let Ok(Line::Summary(s)) = proto::parse_line(summary) else {
        panic!("summary rejected")
    };
    assert_eq!(
        (s.requests, s.cells, s.disk_hits, s.computed),
        (112, 112, 112, 0)
    );
}

#[test]
fn malformed_lines_are_errors_not_panics() {
    for bad in [
        "",
        "not json",
        "{\"id\": 3}",
        "{\"id\": -1, \"workload\": \"crc32\"}",
        &GOOD.replace("\"cycles\": 233666", "\"cycles\": \"many\""),
        &GOOD.replace("eb6da06c4cfa9fa7", "zzzz"),
        &GOOD.replace("\"id\": 3", "\"id\": 3.5"),
        &GOOD[..GOOD.len() - 1],
        "{\"summary\": {\"requests\": 1}}",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]",
    ] {
        assert!(proto::parse_line(bad).is_err(), "accepted: {bad}");
    }
    // Every single-byte corruption and every truncation is handled.
    let bytes = GOOD.as_bytes();
    for i in 0..bytes.len() {
        for b in [b'"', b'{', b'}', b'\\', b'0', b'x', b':', b',', 0xff] {
            let mut m = bytes.to_vec();
            m[i] = b;
            let _ = proto::parse_line(&String::from_utf8_lossy(&m));
        }
        let _ = proto::parse_line(&GOOD[..i]);
    }
}

#[test]
fn json_reader_handles_escapes_and_nesting() {
    let v =
        json::parse(r#"{"a": [1, -2.5e3, true, null], "s": "x\"\u00e9\ud83d\ude00\n"}"#).unwrap();
    assert_eq!(
        v.get("a").and_then(|a| a.as_array()).map(<[_]>::len),
        Some(4)
    );
    assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("x\"é😀\n"));
    assert!(json::parse("{\"a\": 01}").is_err());
    assert!(json::parse("{\"a\": 1,}").is_err());
    assert!(json::parse("\"\\ud800\"").is_err());
    assert_eq!(
        json::parse(&json::quote("tab\tquote\"")).unwrap().as_str(),
        Some("tab\tquote\"")
    );
}

/// A well-formed batch output for `cells`: pinned outputs, made-up
/// per-cell results, served from `source`.
fn fake_output(cells: &[proto::SuiteCell], source: &str) -> String {
    let mut out = String::new();
    for (id, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\": {id}, \"workload\": \"{}\", \"key\": \"{:016x}\", \"source\": \"{source}\", \
             \"build_fp\": \"{:016x}\", \"outputs_fnv\": \"{:016x}\", \"cycles\": {}, \"energy_pj\": {}.5}}\n",
            c.workload,
            mibench::names().iter().position(|w| *w == c.workload).unwrap() * 100 + c.config,
            c.config + 1,
            oracle::pinned_fnv(c.workload).unwrap(),
            1000 + c.config,
            2000 + c.config,
        ));
    }
    let n = cells.len();
    let (disk, computed) = if source == "disk" { (n, 0) } else { (0, n) };
    out.push_str(&format!(
        "{{\"summary\": {{\"requests\": {n}, \"cells\": {n}, \"disk_hits\": {disk}, \"computed\": {computed}, \"wall_s\": 0.5}}}}\n"
    ));
    out
}

#[test]
fn batch_checker_counts_every_kind_of_failure() {
    let cells = proto::suite_cells(7);
    let good = fake_output(&cells, "computed");
    let mut reference = Reference::default();
    let ok = proto::check_suite(&good, true, &cells, "computed", &mut reference);
    assert_eq!(ok.failed, 0, "{:?}", ok.problems);
    assert!(ok.cells.iter().all(Option::is_some));

    // A missing line fails its cell.
    let lines: Vec<&str> = good.lines().collect();
    let missing = lines[1..].join("\n");
    assert_eq!(
        proto::check_suite(&missing, true, &cells, "computed", &mut reference).failed,
        1
    );
    // A nonzero exit, a garbage line or a missing summary fails the batch.
    assert_eq!(
        proto::check_suite(&good, false, &cells, "computed", &mut reference).failed,
        cells.len()
    );
    let garbage = format!("{good}garbage\n");
    assert_eq!(
        proto::check_suite(&garbage, true, &cells, "computed", &mut reference).failed,
        cells.len()
    );
    let headless = lines[..lines.len() - 1].join("\n");
    assert_eq!(
        proto::check_suite(&headless, true, &cells, "computed", &mut reference).failed,
        cells.len()
    );
    // Served from the wrong tier.
    let from_disk = fake_output(&cells, "disk");
    assert_eq!(
        proto::check_suite(&from_disk, true, &cells, "computed", &mut reference).failed,
        cells.len()
    );
    // Results that drift from the reference, or outputs that drift from
    // the pinned oracle, fail just those cells.
    let drifted = good.replacen("\"cycles\": 1000", "\"cycles\": 1999", 1);
    assert_eq!(
        proto::check_suite(&drifted, true, &cells, "computed", &mut reference).failed,
        1
    );
    let fnv = format!("{:016x}", oracle::pinned_fnv(cells[0].workload).unwrap());
    let wrong = good.replacen(&fnv, "0000000000000000", 1);
    assert_eq!(
        proto::check_suite(&wrong, true, &cells, "computed", &mut reference).failed,
        1
    );
}

#[test]
fn suite_batch_is_a_seeded_permutation_of_experiment_suite() {
    let a = proto::suite_cells(1);
    assert_eq!(a, proto::suite_cells(1), "same seed, same order");
    assert_ne!(a, proto::suite_cells(2), "another seed, another order");
    assert_eq!(a.len(), mibench::names().len() * SUITE_CONFIGS.len());
    let key = |r: &serve::Request| bitspec::fingerprint::cell_key(&r.workload, &r.cfg);
    let ours: BTreeSet<u64> = serve::parse_requests(&proto::request_text(&a))
        .unwrap()
        .iter()
        .map(key)
        .collect();
    let suite: BTreeSet<u64> = serve::parse_requests("experiment suite")
        .unwrap()
        .iter()
        .map(key)
        .collect();
    assert_eq!(
        ours, suite,
        "the request lines name exactly the suite's cells"
    );
    // The request arguments name bench::suite_configs, in order.
    for (args, cfg) in SUITE_CONFIGS.iter().zip(bench::suite_configs()) {
        let parsed = &serve::parse_requests(&format!("sim crc32 {args}")).unwrap()[0];
        assert_eq!(
            bitspec::fingerprint::config_key(&parsed.cfg),
            bitspec::fingerprint::config_key(&cfg),
            "{args}"
        );
    }
    // Each repetition draws its own order from the run's seed.
    assert_eq!(perf::rng::derive(1, 3), perf::rng::derive(1, 3));
    assert_ne!(perf::rng::derive(1, 3), perf::rng::derive(1, 4));
    assert_ne!(perf::rng::derive(1, 3), perf::rng::derive(2, 3));
    assert_eq!(
        perf::cells::input_seeds(3, false),
        perf::cells::input_seeds(3, false)
    );
    assert_ne!(
        perf::cells::input_seeds(3, false),
        perf::cells::input_seeds(4, false)
    );
}

#[test]
fn outputs_fnv_equals_bitspecd_for_a_real_cell() {
    let reqs = serve::parse_requests("sim crc32 config=baseline").unwrap();
    let lines = Mutex::new(Vec::new());
    serve::serve_batch(&reqs, 1, true, &|l| {
        lines.lock().unwrap().push(l.to_string())
    });
    let lines = lines.into_inner().unwrap();
    let Ok(Line::Cell(c)) = proto::parse_line(&lines[0]) else {
        panic!("bitspecd line rejected: {}", lines[0])
    };
    let (_, sim) = bench::run(&reqs[0].workload, &reqs[0].cfg);
    assert_eq!(c.outputs_fnv, oracle::outputs_fnv(&sim.outputs));
    assert_eq!(Some(c.outputs_fnv), oracle::pinned_fnv("crc32"));
    assert_eq!(oracle::pinned_outputs("crc32"), Some(&sim.outputs[..]));
}
