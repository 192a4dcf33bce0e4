//! IR verifier.
//!
//! Checks structural SSA invariants (dominance, φ placement, width
//! agreement) plus the speculative-region rules of §3.1.1:
//!
//! * a handler cannot be contained in any speculative region,
//! * handlers are never the target of an ordinary branch,
//! * a block belongs to at most one region and a handler handles exactly one,
//! * speculative instructions only appear inside speculative regions,
//! * Theorem 3.1: no value defined within a region is used by its handler.
//!
//! Violations are reported as structured [`Diag`]s with stable rule IDs
//! (`SIR-*`), shared with the `bitlint` / SMIR / emit-layout checkers.

use crate::diag::Diag;
use crate::dom::{def_blocks, DomTree};
use crate::func::Function;
use crate::inst::{Inst, Terminator};
use crate::module::Module;
use crate::types::{BlockId, ValueId, Width};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Pass name stamped on diagnostics produced by this verifier.
pub const PASS: &str = "sir-verify";

/// Verification failure: one or more broken invariants in a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Name of the offending function (first offender for multi-function
    /// checks; each diagnostic carries its own function name too).
    pub func: String,
    /// The violated invariants.
    pub problems: Vec<Diag>,
    /// Pipeline pass after which verification rejected, when run under a
    /// [`crate::pass::Tracer`] (the dump-on-failure artifact).
    pub pass: Option<String>,
    /// Printed last-good IR — the module *before* the failing pass — when
    /// the tracer captured one.
    pub last_good: Option<String>,
}

impl VerifyError {
    /// Wraps a non-empty diagnostic list into an error.
    ///
    /// Returns `Ok(())` when `problems` is empty.
    pub fn check(problems: Vec<Diag>) -> Result<(), VerifyError> {
        match problems.first() {
            None => Ok(()),
            Some(first) => {
                let func = first.func.clone();
                Err(VerifyError {
                    func,
                    problems,
                    pass: None,
                    last_good: None,
                })
            }
        }
    }

    /// True when any diagnostic carries `rule`.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.problems.iter().any(|d| d.rule == rule)
    }

    /// Attaches the failing pass name and the last-good IR artifact.
    pub fn in_pass(mut self, pass: &str, last_good: String) -> VerifyError {
        self.pass = Some(pass.to_string());
        self.last_good = Some(last_good);
        self
    }

    /// The last-good IR artifact, if verification failed under a tracer.
    pub fn last_good_ir(&self) -> Option<&str> {
        self.last_good.as_deref()
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification of `{}` failed", self.func)?;
        if let Some(p) = &self.pass {
            write!(f, " after pass `{p}`")?;
        }
        write!(f, ":")?;
        for p in &self.problems {
            write!(f, "\n  - {p}")?;
        }
        Ok(())
    }
}

impl Error for VerifyError {}

/// Verifies every function in `m`, including call-signature agreement.
///
/// # Errors
/// Returns the first function's accumulated violations.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for f in &m.funcs {
        verify_function_in(f, Some(m))?;
    }
    Ok(())
}

/// Verifies a single function without module context (calls unchecked).
///
/// # Errors
/// Returns all violations found in `f`.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    verify_function_in(f, None)
}

fn verify_function_in(f: &Function, m: Option<&Module>) -> Result<(), VerifyError> {
    let mut d = Diags {
        func: &f.name,
        problems: Vec::new(),
    };
    // One predecessor map and one def-block table, shared by the checks.
    let preds = f.branch_preds();
    let defs = def_blocks(f);
    check_params(f, &mut d);
    check_blocks(f, &preds, &mut d);
    check_widths(f, m, &mut d);
    check_ssa(f, &defs, &mut d);
    check_regions(f, &preds, &defs, &mut d);
    VerifyError::check(d.problems)
}

/// Accumulator stamping the pass and function onto each diagnostic.
struct Diags<'a> {
    func: &'a str,
    problems: Vec<Diag>,
}

impl Diags<'_> {
    fn push(&mut self, rule: &'static str, loc: impl ToString, msg: impl Into<String>) {
        self.problems
            .push(Diag::new(rule, PASS, self.func, loc, msg));
    }
}

fn check_params(f: &Function, d: &mut Diags) {
    let entry = f.block(f.entry);
    if entry.insts.len() < f.params.len() {
        d.push(
            "SIR-PARAM",
            f.entry,
            "entry block shorter than parameter list",
        );
        return;
    }
    for (i, w) in f.params.iter().enumerate() {
        match f.inst(entry.insts[i]) {
            Inst::Param { index, width } if *index == i as u32 && width == w => {}
            other => d.push(
                "SIR-PARAM",
                f.entry,
                format!("entry slot {i} should be param {i} of {w}, found {other:?}"),
            ),
        }
    }
}

/// The defining block of `v` in a [`def_blocks`] table; `None` when `v`
/// is unplaced or out of range.
fn def_of(defs: &[Option<BlockId>], v: ValueId) -> Option<BlockId> {
    defs.get(v.index()).copied().flatten()
}

fn check_blocks(f: &Function, preds: &[Vec<BlockId>], d: &mut Diags) {
    for b in f.block_ids() {
        let blk = f.block(b);
        // φ-nodes first.
        let mut seen_non_phi = false;
        for &v in &blk.insts {
            let inst = f.inst(v);
            if inst.is_phi() {
                if seen_non_phi {
                    d.push("SIR-PHI-ORDER", b, format!("φ {v} after non-φ instruction"));
                }
            } else if !matches!(inst, Inst::Param { .. }) {
                seen_non_phi = true;
            }
        }
        // φ incoming edges must exactly match branch predecessors.
        let mut pred_set: Option<HashSet<BlockId>> = None;
        for &v in &blk.insts {
            if let Inst::Phi { incomings, .. } = f.inst(v) {
                let pred_set =
                    pred_set.get_or_insert_with(|| preds[b.index()].iter().copied().collect());
                let inc: HashSet<BlockId> = incomings.iter().map(|(p, _)| *p).collect();
                if inc != *pred_set {
                    d.push(
                        "SIR-PHI-EDGES",
                        b,
                        format!("φ {v} incoming blocks {inc:?} != predecessors {pred_set:?}"),
                    );
                }
                if inc.len() != incomings.len() {
                    d.push(
                        "SIR-PHI-EDGES",
                        b,
                        format!("φ {v} has duplicate incoming blocks"),
                    );
                }
            }
        }
        // Branch targets in range.
        for s in blk.term.successors() {
            if s.index() >= f.blocks.len() {
                d.push(
                    "SIR-BR-RANGE",
                    b,
                    format!("branch to out-of-range block {s}"),
                );
            }
        }
    }
}

fn check_widths(f: &Function, m: Option<&Module>, d: &mut Diags) {
    let w_of = |v: ValueId| f.value_width(v);
    for (vi, inst) in f.insts.iter().enumerate() {
        let v = ValueId(vi as u32);
        match inst {
            Inst::Bin {
                width, lhs, rhs, ..
            } => {
                for op in [lhs, rhs] {
                    if w_of(*op) != Some(*width) {
                        d.push(
                            "SIR-WIDTH",
                            v,
                            format!("bin operand {op} width mismatch ({width})"),
                        );
                    }
                }
            }
            Inst::Icmp {
                width, lhs, rhs, ..
            } => {
                for op in [lhs, rhs] {
                    if w_of(*op) != Some(*width) {
                        d.push("SIR-WIDTH", v, format!("icmp operand {op} width mismatch"));
                    }
                }
            }
            Inst::Zext { to, arg } | Inst::Sext { to, arg } => match w_of(*arg) {
                Some(fw) if fw < *to => {}
                _ => d.push("SIR-EXT", v, "extension must widen"),
            },
            Inst::Trunc { to, arg, .. } => match w_of(*arg) {
                Some(fw) if fw > *to => {}
                _ => d.push("SIR-EXT", v, "truncation must narrow"),
            },
            Inst::Load {
                addr,
                speculative,
                width,
                ..
            } => {
                if w_of(*addr) != Some(Width::W32) {
                    d.push("SIR-WIDTH", v, "load address must be i32");
                }
                if *speculative && *width != Width::W32 {
                    d.push("SIR-WIDTH", v, "speculative load must access i32");
                }
            }
            Inst::Store {
                width, addr, value, ..
            } => {
                if w_of(*addr) != Some(Width::W32) {
                    d.push("SIR-WIDTH", v, "store address must be i32");
                }
                if w_of(*value) != Some(*width) {
                    d.push("SIR-WIDTH", v, "store value width mismatch");
                }
            }
            Inst::Select {
                width,
                cond,
                tval,
                fval,
            } => {
                if w_of(*cond) != Some(Width::W1) {
                    d.push("SIR-WIDTH", v, "select condition must be i1");
                }
                for op in [tval, fval] {
                    if w_of(*op) != Some(*width) {
                        d.push("SIR-WIDTH", v, "select operand width mismatch");
                    }
                }
            }
            Inst::Call { callee, args, ret } => {
                if let Some(m) = m {
                    if callee.index() >= m.funcs.len() {
                        d.push("SIR-CALL", v, format!("call to unknown function {callee}"));
                        continue;
                    }
                    let cf = m.func(*callee);
                    if cf.params.len() != args.len() {
                        d.push(
                            "SIR-CALL",
                            v,
                            format!("call arity mismatch for `{}`", cf.name),
                        );
                    } else {
                        for (a, pw) in args.iter().zip(&cf.params) {
                            if w_of(*a) != Some(*pw) {
                                d.push("SIR-CALL", v, format!("call arg {a} width != param {pw}"));
                            }
                        }
                    }
                    if *ret != cf.ret {
                        d.push("SIR-CALL", v, "call return width mismatch");
                    }
                }
            }
            Inst::Phi {
                width, incomings, ..
            } => {
                for (_, val) in incomings {
                    if w_of(*val) != Some(*width) {
                        d.push("SIR-WIDTH", v, format!("φ incoming {val} width mismatch"));
                    }
                }
            }
            _ => {}
        }
    }
    for b in f.block_ids() {
        if let Terminator::CondBr { cond, .. } = &f.block(b).term {
            if w_of(*cond) != Some(Width::W1) {
                d.push("SIR-WIDTH", b, "condbr condition must be i1");
            }
        }
        if let Terminator::Ret(Some(v)) = &f.block(b).term {
            if w_of(*v) != f.ret {
                d.push("SIR-WIDTH", b, "return width mismatch");
            }
        }
    }
}

fn check_ssa(f: &Function, defs: &[Option<BlockId>], d: &mut Diags) {
    let dt = DomTree::compute(f);
    // Each value placed at most once.
    let mut placed = vec![false; f.insts.len()];
    for b in f.block_ids() {
        for &v in &f.block(b).insts {
            if std::mem::replace(&mut placed[v.index()], true) {
                d.push("SIR-SSA-PLACE", v, "placed in more than one block");
            }
        }
    }
    // Dominance of uses. Within a block, a def must precede its use:
    // `seen[v]` is stamped with the block once `v` has been passed in it.
    let mut seen = vec![0u32; f.insts.len()];
    for b in f.block_ids() {
        if !dt.is_reachable(b) {
            continue;
        }
        for &v in &f.block(b).insts {
            let inst = f.inst(v);
            if let Inst::Phi { incomings, .. } = inst {
                for (p, val) in incomings {
                    if let Some(db) = def_of(defs, *val) {
                        if !dt.is_reachable(*p) {
                            continue;
                        }
                        if !dt.dominates(db, *p) {
                            d.push(
                                "SIR-SSA-DOM",
                                v,
                                format!("φ incoming {val} from {p} not dominated by def in {db}"),
                            );
                        }
                    } else {
                        d.push(
                            "SIR-SSA-PLACE",
                            v,
                            format!("φ incoming {val} is not placed"),
                        );
                    }
                }
            } else {
                inst.for_each_operand(|op| check_use(defs, &dt, &seen, b, Some(v), op, d));
            }
            seen[v.index()] = stamp(b);
        }
        f.block(b)
            .term
            .for_each_operand(|op| check_use(defs, &dt, &seen, b, None, op, d));
    }
}

/// The [`check_ssa`] `seen` stamp of block `b` (0 means "not seen").
fn stamp(b: BlockId) -> u32 {
    b.index() as u32 + 1
}

/// Checks that `op`, used in block `b` by `user` (`None` for the
/// terminator), is placed and its definition dominates the use. The user
/// label is only formatted for a diagnostic.
fn check_use(
    defs: &[Option<BlockId>],
    dt: &DomTree,
    seen: &[u32],
    b: BlockId,
    user: Option<ValueId>,
    op: ValueId,
    d: &mut Diags,
) {
    let user = || user.map_or_else(|| "terminator".to_string(), |v| v.to_string());
    match def_of(defs, op) {
        None => d.push(
            "SIR-SSA-PLACE",
            b,
            format!("{}: operand {op} is not placed", user()),
        ),
        Some(db) if db == b => {
            if seen[op.index()] != stamp(b) {
                d.push(
                    "SIR-SSA-DOM",
                    b,
                    format!("{}: use of {op} before its definition", user()),
                );
            }
        }
        Some(db) => {
            if dt.is_reachable(db) && !dt.dominates(db, b) {
                d.push(
                    "SIR-SSA-DOM",
                    b,
                    format!("{}: def of {op} in {db} does not dominate use", user()),
                );
            }
        }
    }
}

fn check_regions(f: &Function, preds: &[Vec<BlockId>], defs: &[Option<BlockId>], d: &mut Diags) {
    let mut handler_of: Vec<Option<usize>> = vec![None; f.blocks.len()];
    for (ri, r) in f.regions.iter().enumerate() {
        if r.blocks.is_empty() {
            d.push("SIR-REGION", format!("sr{ri}"), "empty region");
            continue;
        }
        // Handler not inside any region.
        if f.block(r.handler).region.is_some() {
            d.push(
                "SIR-REGION",
                r.handler,
                format!("sr{ri}: handler {} inside a region", r.handler),
            );
        }
        // Handler not targeted by branches.
        if !preds[r.handler.index()].is_empty() {
            d.push(
                "SIR-REGION",
                r.handler,
                format!(
                    "sr{ri}: handler {} is a branch target of {:?}",
                    r.handler,
                    preds[r.handler.index()]
                ),
            );
        }
        // Handler handles exactly one region.
        if let Some(prev) = handler_of[r.handler.index()] {
            d.push(
                "SIR-REGION",
                r.handler,
                format!("sr{ri}: handler {} already handles sr{prev}", r.handler),
            );
        }
        handler_of[r.handler.index()] = Some(ri);
        // Blocks belong to this region (single membership by construction).
        let members: HashSet<BlockId> = r.blocks.iter().copied().collect();
        for &b in &r.blocks {
            if f.block(b).region != Some(crate::types::RegionId(ri as u32)) {
                d.push(
                    "SIR-REGION",
                    b,
                    format!("sr{ri}: block {b} membership out of sync"),
                );
            }
            // Single entry: outside branches may only target the entry.
            if b != r.entry() {
                for &p in &preds[b.index()] {
                    if !members.contains(&p) {
                        d.push(
                            "SIR-REGION",
                            b,
                            format!("sr{ri}: outside branch {p} → {b} enters region past entry"),
                        );
                    }
                }
            }
        }
        // No φ in handler (handlers begin with extensions, per §3.2.3 ③).
        for &v in &f.block(r.handler).insts {
            if f.inst(v).is_phi() {
                d.push(
                    "SIR-HANDLER-PHI",
                    r.handler,
                    format!("sr{ri}: handler {} contains φ {v}", r.handler),
                );
            }
        }
        // Theorem 3.1: handler must not use values defined in the region.
        for &v in &f.block(r.handler).insts {
            for op in f.inst(v).operands() {
                if let Some(db) = def_of(defs, op) {
                    if members.contains(&db) {
                        d.push(
                            "SIR-THM31",
                            r.handler,
                            format!(
                                "sr{ri}: handler uses {op} defined inside the region (Thm 3.1)"
                            ),
                        );
                    }
                }
            }
        }
        for op in f.block(r.handler).term.operands() {
            if let Some(db) = def_of(defs, op) {
                if members.contains(&db) {
                    d.push(
                        "SIR-THM31",
                        r.handler,
                        format!("sr{ri}: handler terminator uses {op} defined inside the region"),
                    );
                }
            }
        }
    }
    // Speculative instructions only inside regions.
    for b in f.block_ids() {
        let in_region = f.block(b).region.is_some();
        for &v in &f.block(b).insts {
            if f.inst(v).is_speculative() && !in_region {
                d.push(
                    "SIR-SPEC-REGION",
                    v,
                    "speculative instruction outside any region",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;
    use crate::module::Module;

    #[test]
    fn valid_function_passes() {
        let mut b = FunctionBuilder::new("ok", vec![Width::W32], Some(Width::W32));
        let x = b.param(0);
        let one = b.iconst(Width::W32, 1);
        let y = b.bin(BinOp::Add, Width::W32, x, one);
        b.ret(Some(y));
        assert!(verify_function(&b.finish()).is_ok());
    }

    #[test]
    fn width_mismatch_detected() {
        let mut b = FunctionBuilder::new("bad", vec![Width::W32], Some(Width::W32));
        let x = b.param(0);
        let narrow = b.iconst(Width::W8, 1);
        let y = b.bin(BinOp::Add, Width::W32, x, narrow);
        b.ret(Some(y));
        let err = verify_function(&b.finish()).unwrap_err();
        assert!(err.has_rule("SIR-WIDTH"));
        assert!(err
            .problems
            .iter()
            .any(|p| p.msg.contains("width mismatch")));
        assert!(err.to_string().contains("bad"));
        // Shared diagnostic format: rule [pass] func:loc: msg.
        assert!(err.to_string().contains("SIR-WIDTH [sir-verify] bad:"));
    }

    #[test]
    fn use_before_def_detected() {
        let mut f = Function::new("ubd", vec![], Some(Width::W32));
        let e = f.entry;
        // Create add that uses a later const.
        let c = f.add_inst(Inst::Const {
            width: Width::W32,
            value: 1,
        });
        let a = f.add_inst(Inst::Bin {
            op: BinOp::Add,
            width: Width::W32,
            lhs: c,
            rhs: c,
            speculative: false,
        });
        f.block_mut(e).insts.push(a);
        f.block_mut(e).insts.push(c);
        f.block_mut(e).term = Terminator::Ret(Some(a));
        let err = verify_function(&f).unwrap_err();
        assert!(err.has_rule("SIR-SSA-DOM"));
        assert!(err
            .problems
            .iter()
            .any(|p| p.msg.contains("before its definition")));
    }

    fn const32(value: u64) -> Inst {
        Inst::Const {
            width: Width::W32,
            value,
        }
    }

    fn add32(lhs: ValueId, rhs: ValueId) -> Inst {
        Inst::Bin {
            op: BinOp::Add,
            width: Width::W32,
            lhs,
            rhs,
            speculative: false,
        }
    }

    /// entry → a | b → m, branching on the i1 parameter.
    fn diamond(name: &str) -> (Function, [BlockId; 3]) {
        let mut f = Function::new(name, vec![Width::W1], Some(Width::W32));
        let (a, b, m) = (f.add_block(), f.add_block(), f.add_block());
        f.block_mut(f.entry).term = Terminator::CondBr {
            cond: f.param_value(0),
            if_true: a,
            if_false: b,
        };
        f.block_mut(a).term = Terminator::Br(m);
        f.block_mut(b).term = Terminator::Br(m);
        (f, [a, b, m])
    }

    /// Asserts `f` is rejected with a `rule` diagnostic whose message
    /// contains `msg`.
    fn assert_rejects(f: &Function, rule: &str, msg: &str) {
        let err = verify_function(f).unwrap_err();
        assert!(
            err.problems
                .iter()
                .any(|p| p.rule == rule && p.msg.contains(msg)),
            "expected {rule} `{msg}`, got: {err}"
        );
    }

    #[test]
    fn def_not_dominating_use_rejected() {
        let (mut f, [a, _, m]) = diamond("nodom");
        let x = f.append_inst(a, const32(1));
        let y = f.append_inst(m, add32(x, x));
        f.block_mut(m).term = Terminator::Ret(Some(y));
        assert_rejects(
            &f,
            "SIR-SSA-DOM",
            &format!("{y}: def of {x} in {a} does not dominate use"),
        );
    }

    #[test]
    fn undominated_phi_incoming_rejected() {
        let (mut f, [a, b, m]) = diamond("phidom");
        let x = f.append_inst(a, const32(1));
        let p = f.append_inst(
            m,
            Inst::Phi {
                width: Width::W32,
                incomings: vec![(a, x), (b, x)],
            },
        );
        f.block_mut(m).term = Terminator::Ret(Some(p));
        assert_rejects(
            &f,
            "SIR-SSA-DOM",
            &format!("φ incoming {x} from {b} not dominated by def in {a}"),
        );
    }

    #[test]
    fn unplaced_operands_rejected() {
        let mut f = Function::new("unplaced", vec![], Some(Width::W32));
        let e = f.entry;
        let c = f.add_inst(const32(1));
        let y = f.append_inst(e, add32(c, c));
        f.block_mut(e).term = Terminator::Ret(Some(c));
        assert_rejects(
            &f,
            "SIR-SSA-PLACE",
            &format!("{y}: operand {c} is not placed"),
        );
        assert_rejects(
            &f,
            "SIR-SSA-PLACE",
            &format!("terminator: operand {c} is not placed"),
        );
    }

    #[test]
    fn double_placement_rejected() {
        let (mut f, [a, b, m]) = diamond("twice");
        let x = f.append_inst(a, const32(1));
        f.block_mut(b).insts.push(x);
        f.block_mut(m).term = Terminator::Ret(None);
        f.ret = None;
        assert_rejects(&f, "SIR-SSA-PLACE", "placed in more than one block");
    }

    #[test]
    fn speculative_inst_outside_region_rejected() {
        let mut b = FunctionBuilder::new("spec", vec![], Some(Width::W8));
        let x = b.iconst(Width::W8, 1);
        let mut f = b.finish();
        let y = f.append_inst(
            f.entry,
            Inst::Bin {
                op: BinOp::Add,
                width: Width::W8,
                lhs: x,
                rhs: x,
                speculative: true,
            },
        );
        f.block_mut(f.entry).term = Terminator::Ret(Some(y));
        let err = verify_function(&f).unwrap_err();
        assert!(err.has_rule("SIR-SPEC-REGION"));
    }

    #[test]
    fn handler_branch_target_rejected() {
        let mut f = Function::new("h", vec![], None);
        let r = f.add_block();
        let h = f.add_block();
        f.block_mut(f.entry).term = Terminator::Br(r);
        f.block_mut(r).term = Terminator::Br(h); // illegal: branch to handler
        f.block_mut(h).term = Terminator::Ret(None);
        f.add_region(vec![r], h);
        let err = verify_function(&f).unwrap_err();
        assert!(err.has_rule("SIR-REGION"));
        assert!(err.problems.iter().any(|p| p.msg.contains("branch target")));
    }

    #[test]
    fn theorem_3_1_violation_rejected() {
        let mut f = Function::new("t31", vec![], Some(Width::W32));
        let r = f.add_block();
        let h = f.add_block();
        let x = f.add_block();
        f.block_mut(f.entry).term = Terminator::Br(r);
        let v = f.append_inst(
            r,
            Inst::Const {
                width: Width::W32,
                value: 7,
            },
        );
        f.block_mut(r).term = Terminator::Br(x);
        // handler illegally uses v (defined inside the region)
        f.block_mut(h).term = Terminator::Ret(Some(v));
        f.block_mut(x).term = Terminator::Ret(Some(v));
        f.add_region(vec![r], h);
        let err = verify_function(&f).unwrap_err();
        assert!(err.has_rule("SIR-THM31"));
        assert!(err
            .problems
            .iter()
            .any(|p| p.msg.contains("defined inside the region")));
    }

    #[test]
    fn call_signature_checked_at_module_level() {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::new("callee", vec![Width::W32], Some(Width::W32));
        let p = callee.param(0);
        callee.ret(Some(p));
        let cid = m.add_function(callee.finish());
        let mut caller = FunctionBuilder::new("caller", vec![], Some(Width::W32));
        let narrow = caller.iconst(Width::W8, 3);
        let r = caller.call(cid, vec![narrow], Some(Width::W32));
        caller.ret(Some(r));
        m.add_function(caller.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.has_rule("SIR-CALL"));
        assert!(err.problems.iter().any(|p| p.msg.contains("call arg")));
    }
}
