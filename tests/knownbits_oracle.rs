//! Known-bits oracle over the MiBench suite: the sparse
//! `opt::knownbits::max_values` against the dense per-block solver it
//! replaced, on every function of every expanded suite module (the
//! modules NoSpec packing narrows).
//!
//! The dense solver survives here only as the oracle: a FIFO worklist
//! over per-block bound vectors (one `u64` per SSA value per block),
//! joined by elementwise max, widening every entry still changing in a
//! block visited more than 8 times. It shares the per-instruction
//! transfer `opt::knownbits::inst_max` with the sparse solve. Two checks:
//!
//! * the sparse bound is never looser than the dense one, value by value;
//! * every bound is sound against the workload's training profile: no
//!   profiled value needs more bits than its bound.

use bitspec::pipeline::{TracePolicy, Tracer};
use bitspec::stages;
use mibench::{names, workload, Input};
use opt::knownbits::{inst_max, max_values};
use sir::types::required_bits;
use sir::{BlockId, Function, ValueId};
use std::collections::VecDeque;

/// The dense fixpoint, collapsed to one bound per value by taking the
/// elementwise max over all block outputs.
fn dense_max_values(f: &Function) -> Vec<u64> {
    let (n, nv) = (f.blocks.len(), f.insts.len());
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|b| f.spec_succs(BlockId(b as u32)).map(|s| s.index()).collect())
        .collect();
    let mut preds = vec![Vec::new(); n];
    for (u, ss) in succs.iter().enumerate() {
        ss.iter().for_each(|&s| preds[s].push(u));
    }
    let mut output = vec![vec![0u64; nv]; n];
    let mut visits = vec![0u32; n];
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();
    while let Some(u) = work.pop_front() {
        queued[u] = false;
        visits[u] += 1;
        let mut max = vec![0u64; nv];
        for &p in &preds[u] {
            for (m, o) in max.iter_mut().zip(&output[p]) {
                *m = (*m).max(*o);
            }
        }
        for &v in &f.blocks[u].insts {
            if let Some(new) = inst_max(f, v, |x| max[x.index()]) {
                max[v.index()] = max[v.index()].max(new);
            }
        }
        if visits[u] > 8 {
            for (i, (m, o)) in max.iter_mut().zip(&output[u]).enumerate() {
                if m != o {
                    if let Some(w) = f.value_width(ValueId(i as u32)) {
                        *m = w.mask();
                    }
                }
            }
        }
        if max != output[u] {
            output[u] = max;
            for &s in &succs[u] {
                if !std::mem::replace(&mut queued[s], true) {
                    work.push_back(s);
                }
            }
        }
    }
    let mut max = vec![0u64; nv];
    for out in &output {
        for (m, o) in max.iter_mut().zip(out) {
            *m = (*m).max(*o);
        }
    }
    max
}

#[test]
fn sparse_bounds_are_no_looser_than_dense_and_sound_on_the_suite() {
    let (mut funcs, mut values, mut tighter, mut profiled) = (0, 0, 0, 0);
    for name in names() {
        let w = workload(name, Input::Large);
        let mut seen = Vec::new();
        for cfg in bench::suite_configs() {
            if seen.contains(&cfg.expander) {
                continue;
            }
            seen.push(cfg.expander);
            let mut tr = Tracer::new(TracePolicy::verify(false));
            let (m, pdata, _) =
                stages::profile(&w, &cfg.expander, false, &mut tr).expect("profile");
            for (fid, f) in m.func_ids().zip(&m.funcs) {
                let (sparse, dense) = (max_values(f), dense_max_values(f));
                for (i, (&s, &d)) in sparse.iter().zip(&dense).enumerate() {
                    let v = ValueId(i as u32);
                    assert!(
                        s <= d,
                        "{name} {} {v:?}: sparse bound {s:#x} looser than dense {d:#x}",
                        f.name
                    );
                    tighter += usize::from(s < d);
                    let st = pdata.profile.stats(fid, v);
                    if st.count > 0 {
                        assert!(
                            st.max_bits <= required_bits(s),
                            "{name} {} {v:?}: profiled {} bits, bound {s:#x}",
                            f.name,
                            st.max_bits
                        );
                        profiled += 1;
                    }
                }
                values += sparse.len();
                funcs += 1;
            }
        }
    }
    eprintln!("{funcs} functions, {values} values: {tighter} tighter, {profiled} profiled");
    assert!(profiled > 0, "no profiled value was checked");
    assert!(tighter > 0, "the sparse solve tightened no bound");
}
