//! `bitlint` — the speculation-soundness checker over post-squeeze SIR.
//!
//! `verify` proves structural well-formedness; bitlint proves the stronger
//! *soundness* conditions the paper's transformation relies on:
//!
//! * **LINT-COVER** — every speculative (narrowed) instruction is covered:
//!   its block belongs to a region whose entry dominates it and whose
//!   handler exists, is reachable on the misspeculation edge, and is
//!   correctly cross-referenced (§3.1.1).
//! * **LINT-EQ8-LEAK** — no value defined inside a region is live into its
//!   handler (equation 8's precondition: the handler's live-set may only
//!   contain state from *before* the region, since region-local state is
//!   lost on misspeculation; this strengthens Theorem 3.1 from direct uses
//!   to all live flow-through).
//! * **LINT-EQ8-EXT** — the handler body consists solely of width
//!   extensions of slice (8-bit) values and resumes wide code via an
//!   unconditional branch out of the region (equation 8: the handler
//!   re-widens all slice-resident live state, and nothing else).
//! * **LINT-PREP-LS** — region blocks are load-only or store-only
//!   (equation 4), so re-execution cannot observe a partial store.
//! * **LINT-PREP-IDEM** — a region block containing speculative
//!   instructions holds only idempotent instructions (equation 5).
//! * **LINT-PREP-PHI** — φ-nodes are not mixed with speculative
//!   instructions in region blocks (equation 6).
//!
//! All diagnostics share the [`Diag`] format with the SIR verifier, the
//! SMIR verifier and the emit-layout checker.

use crate::diag::Diag;
use crate::dom::{def_blocks, DomTree};
use crate::func::Function;
use crate::inst::{Inst, Terminator};
use crate::liveness::Liveness;
use crate::module::Module;
use crate::types::{BlockId, Width};
use crate::verify::VerifyError;
use std::collections::HashSet;

/// Pass name stamped on diagnostics produced by bitlint.
pub const PASS: &str = "bitlint";

/// Lints every function of `m`.
///
/// # Errors
/// Returns all violations across the module.
pub fn lint_module(m: &Module) -> Result<(), VerifyError> {
    let mut problems = Vec::new();
    for f in &m.funcs {
        problems.extend(lint_function(f));
    }
    VerifyError::check(problems)
}

/// Lints a single function, returning all violations. Only handler
/// live-ins need liveness, so a region-free function stops after the
/// coverage check, which builds dominators only if it meets speculation.
pub fn lint_function(f: &Function) -> Vec<Diag> {
    let mut diags = Vec::new();
    check_cover(f, &mut diags);
    if f.regions.is_empty() {
        return diags;
    }
    let defs = def_blocks(f);
    let lv = Liveness::compute(f);
    for (ri, r) in f.regions.iter().enumerate() {
        let members: HashSet<BlockId> = r.blocks.iter().copied().collect();
        check_handler_leak(f, ri, r.handler, &members, &defs, &lv, &mut diags);
        check_handler_extends(f, ri, r.handler, &members, &mut diags);
        for &b in &r.blocks {
            check_prep(f, b, &mut diags);
        }
    }
    diags
}

fn diag(f: &Function, rule: &'static str, loc: impl ToString, msg: impl Into<String>) -> Diag {
    Diag::new(rule, PASS, &f.name, loc, msg)
}

/// LINT-COVER: speculative instructions are dominated by a covering region
/// entry with a live handler.
fn check_cover(f: &Function, diags: &mut Vec<Diag>) {
    let mut dt = None;
    for b in f.block_ids() {
        let has_spec = f.block(b).insts.iter().any(|&v| f.inst(v).is_speculative());
        if !has_spec {
            continue;
        }
        let Some(rid) = f.block(b).region else {
            diags.push(diag(
                f,
                "LINT-COVER",
                b,
                "speculative instruction not covered by any region",
            ));
            continue;
        };
        let r = &f.regions[rid.index()];
        let dt = dt.get_or_insert_with(|| DomTree::compute(f));
        if !dt.dominates(r.entry(), b) {
            diags.push(diag(
                f,
                "LINT-COVER",
                b,
                format!(
                    "region sr{} entry {} does not dominate {b}",
                    rid.index(),
                    r.entry()
                ),
            ));
        }
        if r.handler.index() >= f.blocks.len() {
            diags.push(diag(
                f,
                "LINT-COVER",
                b,
                format!("region sr{} handler out of range", rid.index()),
            ));
            continue;
        }
        if f.block(r.handler).handler_for != Some(rid) {
            diags.push(diag(
                f,
                "LINT-COVER",
                r.handler,
                format!(
                    "handler {} not cross-referenced to sr{}",
                    r.handler,
                    rid.index()
                ),
            ));
        }
        if dt.is_reachable(b) && !dt.is_reachable(r.handler) {
            diags.push(diag(
                f,
                "LINT-COVER",
                r.handler,
                format!(
                    "handler {} of sr{} unreachable on the misspeculation edge",
                    r.handler,
                    rid.index()
                ),
            ));
        }
    }
}

/// LINT-EQ8-LEAK: region-defined state must not be live into the handler.
fn check_handler_leak(
    f: &Function,
    ri: usize,
    handler: BlockId,
    members: &HashSet<BlockId>,
    defs: &[Option<BlockId>],
    lv: &Liveness,
    diags: &mut Vec<Diag>,
) {
    for v in lv.live_in_of(handler).iter() {
        if let Some(db) = defs[v.index()] {
            if members.contains(&db) {
                diags.push(diag(
                    f,
                    "LINT-EQ8-LEAK",
                    handler,
                    format!(
                        "sr{ri}: {v} defined in region block {db} is live into handler {handler}"
                    ),
                ));
            }
        }
    }
}

/// LINT-EQ8-EXT: the handler body is exactly the re-widening of
/// slice-resident state, resuming wide code outside the region.
fn check_handler_extends(
    f: &Function,
    ri: usize,
    handler: BlockId,
    members: &HashSet<BlockId>,
    diags: &mut Vec<Diag>,
) {
    for &v in &f.block(handler).insts {
        match f.inst(v) {
            Inst::Zext { arg, .. } | Inst::Sext { arg, .. } => {
                if f.value_width(*arg) != Some(Width::W8) {
                    diags.push(diag(
                        f,
                        "LINT-EQ8-EXT",
                        handler,
                        format!("sr{ri}: handler extension {v} widens a non-slice value {arg}"),
                    ));
                }
            }
            other => diags.push(diag(
                f,
                "LINT-EQ8-EXT",
                handler,
                format!("sr{ri}: handler contains non-extension instruction {v}: {other:?}"),
            )),
        }
    }
    match &f.block(handler).term {
        Terminator::Br(t) => {
            if members.contains(t) {
                diags.push(diag(
                    f,
                    "LINT-EQ8-EXT",
                    handler,
                    format!("sr{ri}: handler resumes inside its own region at {t}"),
                ));
            }
        }
        other => diags.push(diag(
            f,
            "LINT-EQ8-EXT",
            handler,
            format!("sr{ri}: handler must end in an unconditional branch, found {other:?}"),
        )),
    }
}

/// LINT-PREP-*: CFG-preparation invariants (equations 4–6) on one region
/// block.
fn check_prep(f: &Function, b: BlockId, diags: &mut Vec<Diag>) {
    let blk = f.block(b);
    let has_spec = blk.insts.iter().any(|&v| f.inst(v).is_speculative());
    let mut has_load = false;
    let mut has_store = false;
    for &v in &blk.insts {
        match f.inst(v) {
            Inst::Load { .. } => has_load = true,
            Inst::Store { .. } => has_store = true,
            _ => {}
        }
        if has_spec && !f.inst(v).is_idempotent() {
            diags.push(diag(
                f,
                "LINT-PREP-IDEM",
                b,
                format!("non-idempotent {v} shares a speculative block"),
            ));
        }
        if has_spec && f.inst(v).is_phi() {
            diags.push(diag(
                f,
                "LINT-PREP-PHI",
                b,
                format!("φ {v} mixed with speculative instructions"),
            ));
        }
    }
    if has_load && has_store {
        diags.push(diag(
            f,
            "LINT-PREP-LS",
            b,
            "region block contains both a load and a store",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    /// Builds `entry → r → x` with region {r}, handler h, where r holds one
    /// speculative add over a W8 const defined in entry. As in real
    /// squeezer output, the join block merges the speculative-path value
    /// with the handler-path fallback through a φ, so no region-defined
    /// value is live into the handler.
    fn spec_fn() -> Function {
        let mut f = Function::new("s", vec![], Some(Width::W8));
        let r = f.add_block();
        let h = f.add_block();
        let x = f.add_block();
        let c = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W8,
                value: 1,
            },
        );
        f.block_mut(f.entry).term = Terminator::Br(r);
        let v = f.append_inst(
            r,
            Inst::Bin {
                op: BinOp::Add,
                width: Width::W8,
                lhs: c,
                rhs: c,
                speculative: true,
            },
        );
        f.block_mut(r).term = Terminator::Br(x);
        f.block_mut(h).term = Terminator::Br(x);
        let m = f.append_inst(
            x,
            Inst::Phi {
                width: Width::W8,
                incomings: vec![(r, v), (h, c)],
            },
        );
        f.block_mut(x).term = Terminator::Ret(Some(m));
        f.add_region(vec![r], h);
        f
    }

    #[test]
    fn sound_region_passes() {
        let f = spec_fn();
        let diags = lint_function(&f);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn uncovered_speculation_flagged() {
        let mut f = spec_fn();
        // Mutation: delete the region and clear the block marks.
        f.regions.clear();
        for b in f.block_ids().collect::<Vec<_>>() {
            f.block_mut(b).region = None;
            f.block_mut(b).handler_for = None;
        }
        let diags = lint_function(&f);
        assert!(diags.iter().any(|d| d.rule == "LINT-COVER"), "{diags:?}");
    }

    #[test]
    fn region_defined_value_live_into_handler_flagged() {
        let mut f = spec_fn();
        let h = f.regions[0].handler;
        let v = f.block(BlockId(1)).insts[0]; // the speculative add in r
                                              // Mutation: handler re-widens the region-defined value.
        let z = f.add_inst(Inst::Zext {
            to: Width::W32,
            arg: v,
        });
        f.block_mut(h).insts.push(z);
        let diags = lint_function(&f);
        assert!(diags.iter().any(|d| d.rule == "LINT-EQ8-LEAK"), "{diags:?}");
    }

    #[test]
    fn handler_leaks_reported_in_value_order() {
        let mut f = spec_fn();
        let (r, h) = (BlockId(1), f.regions[0].handler);
        let c = f.block(f.entry).insts[0];
        let v = f.block(r).insts[0];
        let w = f.add_inst(Inst::Bin {
            op: BinOp::Add,
            width: Width::W8,
            lhs: c,
            rhs: v,
            speculative: false,
        });
        f.block_mut(r).insts.push(w);
        // Mutation: the handler re-widens both region-defined values, the
        // later one first.
        for arg in [w, v] {
            let z = f.add_inst(Inst::Zext {
                to: Width::W32,
                arg,
            });
            f.block_mut(h).insts.push(z);
        }
        let leaks = || -> Vec<String> {
            lint_function(&f)
                .into_iter()
                .filter(|d| d.rule == "LINT-EQ8-LEAK")
                .map(|d| d.to_string())
                .collect()
        };
        let first = leaks();
        assert_eq!(first.len(), 2, "{first:?}");
        assert!(first[0].contains(&format!("{v} defined")), "{first:?}");
        assert!(first[1].contains(&format!("{w} defined")), "{first:?}");
        for _ in 0..8 {
            assert_eq!(leaks(), first);
        }
    }

    #[test]
    fn non_extension_handler_body_flagged() {
        let mut f = spec_fn();
        let h = f.regions[0].handler;
        let c = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W8,
                value: 3,
            },
        );
        // Reorder: the const belongs to entry, but the *handler* gets an add.
        let a = f.add_inst(Inst::Bin {
            op: BinOp::Add,
            width: Width::W8,
            lhs: c,
            rhs: c,
            speculative: false,
        });
        f.block_mut(h).insts.push(a);
        let diags = lint_function(&f);
        assert!(diags.iter().any(|d| d.rule == "LINT-EQ8-EXT"), "{diags:?}");
    }

    #[test]
    fn load_store_mix_in_region_flagged() {
        let mut f = spec_fn();
        let r = BlockId(1);
        let addr = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W32,
                value: 64,
            },
        );
        let wv = f.append_inst(
            f.entry,
            Inst::Const {
                width: Width::W32,
                value: 9,
            },
        );
        let ld = f.add_inst(Inst::Load {
            width: Width::W32,
            addr,
            speculative: false,
            volatile: false,
        });
        let st = f.add_inst(Inst::Store {
            width: Width::W32,
            addr,
            value: wv,
            volatile: false,
        });
        f.block_mut(r).insts.push(ld);
        f.block_mut(r).insts.push(st);
        let diags = lint_function(&f);
        assert!(diags.iter().any(|d| d.rule == "LINT-PREP-LS"), "{diags:?}");
    }

    #[test]
    fn phi_mixed_with_speculation_flagged() {
        let mut f = spec_fn();
        let r = BlockId(1);
        let c = f.block(f.entry).insts[0];
        let phi = f.add_inst(Inst::Phi {
            width: Width::W8,
            incomings: vec![(f.entry, c)],
        });
        f.block_mut(r).insts.insert(0, phi);
        let diags = lint_function(&f);
        assert!(diags.iter().any(|d| d.rule == "LINT-PREP-PHI"), "{diags:?}");
    }
}
