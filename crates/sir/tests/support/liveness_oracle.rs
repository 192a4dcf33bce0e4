//! The liveness oracle: a plain `HashSet` fixpoint of the block-level
//! liveness equations (equation 2's misspeculation edges included, φ
//! operands live at the end of their predecessor), swept in reverse block
//! order until nothing changes. Tests compare `sir::liveness::Liveness`
//! against it. Shared by `crates/sir/tests/props.rs` and the suite-wide
//! `tests/liveness_oracle.rs`.

use sir::liveness::Liveness;
use sir::{BlockId, Function, Inst, ValueId};
use std::collections::HashSet;

/// Per-block live-in and live-out sets.
pub struct OracleLiveness {
    pub live_in: Vec<HashSet<ValueId>>,
    pub live_out: Vec<HashSet<ValueId>>,
}

/// Computes liveness for `f` the straightforward way.
pub fn compute(f: &Function) -> OracleLiveness {
    let n = f.blocks.len();
    // Per-block upward-exposed uses (excluding φ operands) and defs.
    let mut uevar: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
    let mut defs: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
    for b in f.block_ids() {
        let bi = b.index();
        for &v in &f.block(b).insts {
            let inst = f.inst(v);
            if !inst.is_phi() {
                for op in inst.operands() {
                    if !defs[bi].contains(&op) {
                        uevar[bi].insert(op);
                    }
                }
            }
            if inst.result_width().is_some() {
                defs[bi].insert(v);
            }
        }
        for op in f.block(b).term.operands() {
            if !defs[bi].contains(&op) {
                uevar[bi].insert(op);
            }
        }
    }
    // φ contributions: value v flowing along edge p→b is live-out of p.
    let mut phi_uses_out: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
    for b in f.block_ids() {
        for &v in &f.block(b).insts {
            if let Inst::Phi { incomings, .. } = f.inst(v) {
                for (p, val) in incomings {
                    phi_uses_out[p.index()].insert(*val);
                }
            } else {
                break;
            }
        }
    }
    let mut live_in: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<ValueId>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..n).rev() {
            let b = BlockId(bi as u32);
            let mut out: HashSet<ValueId> = phi_uses_out[bi].clone();
            for s in f.spec_succs(b) {
                out.extend(live_in[s.index()].iter().copied());
            }
            let mut inn: HashSet<ValueId> = uevar[bi].clone();
            inn.extend(out.iter().copied().filter(|v| !defs[bi].contains(v)));
            if out != live_out[bi] {
                live_out[bi] = out;
                changed = true;
            }
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
        }
    }
    OracleLiveness { live_in, live_out }
}

/// Asserts that [`Liveness::compute`] gives exactly the oracle's live-in
/// and live-out set for every block of `f`, through the rows' `iter`
/// (ascending), `contains` and `len`. `what` names `f` in failures.
pub fn assert_matches(f: &Function, what: &str) {
    let want = compute(f);
    let got = Liveness::compute(f);
    for b in f.block_ids() {
        let sides = [
            ("live-in", got.live_in_of(b), &want.live_in[b.index()]),
            ("live-out", got.live_out_of(b), &want.live_out[b.index()]),
        ];
        for (side, row, set) in sides {
            let listed: Vec<ValueId> = row.iter().collect();
            assert!(
                listed.windows(2).all(|w| w[0] < w[1]),
                "{what} {b} {side}: not ascending: {listed:?}"
            );
            let listed_set: HashSet<ValueId> = listed.iter().copied().collect();
            assert_eq!(&listed_set, set, "{what} {b} {side}");
            assert_eq!(row.len(), set.len(), "{what} {b} {side}: len");
            assert!(set.iter().all(|v| row.contains(*v)), "{what} {b} {side}");
        }
    }
}
