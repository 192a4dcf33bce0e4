//! Hostile request lines: `parse_requests` takes 2,000 seeded mutations
//! of a valid batch (byte flips, truncation, spliced, duplicated or
//! emptied `key=value` pairs, a `u32::MAX` unroll factor) without
//! panicking. Each result is a batch or a `ParseError` naming a line that
//! lies inside the text.

use mibench::rng::Rng;
use serve::parse_requests;
use std::panic::catch_unwind;

const VALID: &str = "\
# a valid batch
build crc32 config=baseline
sim sha config=bitspec-min gate=0 verify=1
sim dijkstra config=nospec dts=on compare_elim=off bitmask=1 unroll=2
experiment suite
";

const CASES: u64 = 2000;

/// Uniform in `0..n` (`n > 0`).
fn below(rng: &mut Rng, n: usize) -> usize {
    rng.range(0, n as u64) as usize
}

/// Byte ranges of the `key=value` tokens in `text`.
fn pairs(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &b) in text.iter().chain(b" ").enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                if text[s..i].contains(&b'=') {
                    out.push((s, i));
                }
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// Applies one mutation to `text`.
fn mutate(rng: &mut Rng, text: &mut Vec<u8>) {
    let kvs = pairs(text);
    let at = below(rng, text.len() + 1);
    match below(rng, 6) {
        // Flip one bit of one byte (the result may not be UTF-8).
        0 if !text.is_empty() => {
            let i = below(rng, text.len());
            text[i] ^= 1 << below(rng, 8);
        }
        1 => text.truncate(at),
        // Splice a pair at any byte, mid-token included.
        2 if !kvs.is_empty() => {
            let (s, e) = kvs[below(rng, kvs.len())];
            let pair = text[s..e].to_vec();
            text.splice(at..at, pair);
        }
        // Duplicate a pair in place.
        3 if !kvs.is_empty() => {
            let (s, e) = kvs[below(rng, kvs.len())];
            let pair: Vec<u8> = [b" ".as_slice(), &text[s..e]].concat();
            text.splice(e..e, pair);
        }
        // Empty a pair's value.
        4 if !kvs.is_empty() => {
            let (s, e) = kvs[below(rng, kvs.len())];
            let eq = s + text[s..e].iter().position(|&b| b == b'=').expect("a pair") + 1;
            text.drain(eq..e);
        }
        // Insert a `u32::MAX` unroll factor at any byte (also the
        // fallback when a guard above fails).
        _ => {
            text.splice(at..at, b" unroll=4294967295 ".iter().copied());
        }
    }
}

#[test]
fn mutated_batches_parse_or_fail_on_a_line_of_the_text() {
    assert!(parse_requests(VALID).is_ok(), "the seed batch must parse");
    let mut rng = Rng::new(0x5EED);
    let (mut ok, mut err) = (0, 0);
    for case in 0..CASES {
        let mut bytes = VALID.as_bytes().to_vec();
        for _ in 0..1 + below(&mut rng, 3) {
            mutate(&mut rng, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        let lines = text.lines().count();
        match catch_unwind(|| parse_requests(&text)) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(e)) => {
                assert!(
                    (1..=lines).contains(&e.line),
                    "case {case}: `{e}` names a line outside the {lines}-line text:\n{text}"
                );
                err += 1;
            }
            Err(_) => panic!("case {case}: parse_requests panicked on:\n{text}"),
        }
    }
    // Both outcomes occur, or the mutations test only one path.
    assert!(ok > 0 && err > 0, "{ok} parsed, {err} rejected");
}
