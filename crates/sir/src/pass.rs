//! Pass infrastructure: named passes, per-pass instrumentation, and a
//! tracer shared by every pipeline layer.
//!
//! The Figure 4 pipeline used to be a chain of hand-called free functions
//! with `verify_each` threaded as a raw bool through half a dozen
//! signatures. This module is the common substrate of the replacement:
//!
//! * [`SirPass`] — a named transformation over a [`Module`]. Adapters in
//!   `opt` wrap the expander, simplify, DCE and the squeezer; the
//!   back-end records its (MIR-level) passes through the same tracer.
//! * [`Tracer`] — owns the cross-cutting concerns: per-pass wall time,
//!   IR-delta counters ([`IrStats`] before → after), post-pass
//!   verification per [`TracePolicy`], `BITSPEC_PRINT_AFTER`-style
//!   textual dumps, post-pass IR fingerprints (the fuzzer's divergence
//!   probe), and dump-on-failure artifacts when a verifier rejects.
//! * [`PassTrace`] — one record per executed pass; the `core::pipeline`
//!   layer aggregates these into a per-build JSON report.
//!
//! Fingerprints are structural FNV-1a hashes of the IR ([`ir_fingerprint`]),
//! not of its printed form, so they cost one linear walk and are collected
//! unconditionally — which keeps stage-cached traces comparable no matter
//! which instrumentation options the cache-filling build used.

use crate::module::Module;
use crate::print;
use crate::verify::{self, VerifyError};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Coarse IR size counters, recorded before and after every pass.
///
/// The same struct serves SIR and MIR: `funcs`/`blocks`/`insts` mean the
/// obvious thing in both, `regions` counts speculative regions, and
/// `slices` counts 8-bit (slice-class) values — zero until the squeezer
/// narrows something, byte-class vregs in the back-end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrStats {
    pub funcs: u32,
    pub blocks: u32,
    pub insts: u32,
    pub regions: u32,
    pub slices: u32,
}

impl IrStats {
    /// Counters for a SIR module. `insts` counts *placed* instructions
    /// (arena slots may be dead), `slices` counts placed W8 values.
    pub fn of_module(m: &Module) -> IrStats {
        let mut s = IrStats {
            funcs: m.funcs.len() as u32,
            ..IrStats::default()
        };
        for f in &m.funcs {
            s.blocks += f.blocks.len() as u32;
            s.regions += f.regions.len() as u32;
            for b in &f.blocks {
                s.insts += b.insts.len() as u32;
                s.slices += b
                    .insts
                    .iter()
                    .filter(|v| f.value_width(**v) == Some(crate::Width::W8))
                    .count() as u32;
            }
        }
        s
    }
}

/// One executed (or cache-replayed) pass.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// Registered pass name; sub-phases use a dotted suffix
    /// (`squeeze.prepare`).
    pub name: String,
    /// Wall-clock time of the pass body. Cache-replayed entries keep the
    /// wall time of the run that computed them.
    pub wall_ns: u64,
    pub before: IrStats,
    pub after: IrStats,
    /// Structural fingerprint of the IR *after* the pass (see
    /// [`ir_fingerprint`]); `None` for entries with no fingerprintable
    /// artifact (analyses, verification-only entries).
    pub fingerprint: Option<u64>,
    /// Served from a stage cache (the pass did not re-run in this build).
    pub cached: bool,
    /// Post-pass verification ran and passed.
    pub verified: bool,
    /// `BITSPEC_PRINT_AFTER` capture of the post-pass IR, when requested.
    pub dump: Option<String>,
}

impl PassTrace {
    /// A bare entry with `name` and wall time; the builder-style helpers
    /// fill in the rest.
    pub fn new(name: impl Into<String>, wall_ns: u64) -> PassTrace {
        PassTrace {
            name: name.into(),
            wall_ns,
            before: IrStats::default(),
            after: IrStats::default(),
            fingerprint: None,
            cached: false,
            verified: false,
            dump: None,
        }
    }

    pub fn stats(mut self, before: IrStats, after: IrStats) -> PassTrace {
        self.before = before;
        self.after = after;
        self
    }

    pub fn fingerprinted(mut self, fp: u64) -> PassTrace {
        self.fingerprint = Some(fp);
        self
    }

    pub fn verified(mut self, ok: bool) -> PassTrace {
        self.verified = ok;
        self
    }
}

/// What `BITSPEC_PRINT_AFTER` selects.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PrintAfter {
    /// No dumps (the default).
    #[default]
    None,
    /// Dump after every pass.
    All,
    /// Dump after the named pass (sub-phases match their parent prefix).
    Pass(String),
}

impl PrintAfter {
    /// Parses the `BITSPEC_PRINT_AFTER` value: `all`, empty (= all), or a
    /// pass name.
    pub fn parse(v: &str) -> PrintAfter {
        match v {
            "" | "all" | "ALL" => PrintAfter::All,
            name => PrintAfter::Pass(name.to_string()),
        }
    }

    /// Whether a pass named `name` should be dumped.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            PrintAfter::None => false,
            PrintAfter::All => true,
            PrintAfter::Pass(p) => {
                name == p
                    || name
                        .strip_prefix(p.as_str())
                        .is_some_and(|r| r.starts_with('.'))
            }
        }
    }
}

/// The manager-owned policy that replaces the `verify_each` bool formerly
/// threaded through every pipeline signature.
#[derive(Debug, Clone, Default)]
pub struct TracePolicy {
    /// Run the appropriate verifier after every pass (SIR verifier for
    /// middle-end passes, SMIR/layout verifiers in the back-end) and fail
    /// the build on rejection.
    pub verify_each: bool,
    /// Dump post-pass IR for matching passes (kept in the trace; also
    /// echoed to stderr when `echo_dumps`).
    pub print_after: PrintAfter,
    /// Echo dumps and dump-on-failure artifacts to stderr as they happen
    /// (CLI use; tests read them from the trace instead).
    pub echo_dumps: bool,
}

impl TracePolicy {
    /// The default policy for a build with the given verification setting.
    pub fn verify(verify_each: bool) -> TracePolicy {
        TracePolicy {
            verify_each,
            ..TracePolicy::default()
        }
    }
}

/// A named transformation over a SIR module, run under a [`Tracer`].
///
/// Adapters in `opt` (and `sir` itself) implement this for every
/// middle-end transformation; [`Tracer::run_sir`] wraps `run` with the
/// instrumentation and verification the manager owns. `run` may record
/// dotted sub-phase entries through the tracer it is handed.
pub trait SirPass {
    /// The registered pass name (stable; golden-order tests key on it).
    fn name(&self) -> &'static str;
    /// Applies the transformation.
    fn run(&mut self, m: &mut Module, tr: &mut Tracer);
}

/// FNV-1a as a [`Hasher`], so `#[derive(Hash)]` types feed a stable,
/// process-independent fingerprint (the std `DefaultHasher` is randomly
/// keyed per process and useless for cross-run comparison).
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Structural fingerprint of a module: every global, function signature,
/// block (placed instructions + terminator) and region feeds one FNV-1a
/// stream. Two modules fingerprint equal iff they are structurally
/// identical, so per-pass fingerprints pin down the first pass at which
/// two builds diverge — the fuzzer's triage probe, and the direct test
/// that instrumentation keeps builds bit-identical.
pub fn ir_fingerprint(m: &Module) -> u64 {
    let mut h = FnvHasher::default();
    m.name.hash(&mut h);
    (m.globals.len() as u64).hash(&mut h);
    for g in &m.globals {
        g.name.hash(&mut h);
        g.size.hash(&mut h);
        g.align.hash(&mut h);
        g.init.hash(&mut h);
    }
    (m.funcs.len() as u64).hash(&mut h);
    for f in &m.funcs {
        hash_function(f, &mut h);
    }
    h.finish()
}

/// Structural fingerprint of a single function: the per-function slice of
/// [`ir_fingerprint`]. The function-level codegen cache keys on this. The
/// name participates (renaming a function invalidates it), and call-site
/// operands carry symbolic `FuncId`s, so reordering functions invalidates
/// exactly the callers whose callee ids changed — never silently hits.
pub fn fn_fingerprint(f: &crate::Function) -> u64 {
    let mut h = FnvHasher::default();
    hash_function(f, &mut h);
    h.finish()
}

fn hash_function(f: &crate::Function, h: &mut FnvHasher) {
    f.name.hash(h);
    f.params.hash(h);
    f.ret.hash(h);
    f.entry.hash(h);
    (f.blocks.len() as u64).hash(h);
    for b in &f.blocks {
        // Hash placed instructions by content, not arena id, but keep
        // the ids too: operand references are ids, so renumbering is a
        // structural difference.
        (b.insts.len() as u64).hash(h);
        for &v in &b.insts {
            v.hash(h);
            f.inst(v).hash(h);
        }
        b.term.hash(h);
        b.region.hash(h);
        b.handler_for.hash(h);
    }
    (f.regions.len() as u64).hash(h);
    for r in &f.regions {
        r.blocks.hash(h);
        r.handler.hash(h);
    }
}

/// Collects [`PassTrace`] records and applies the [`TracePolicy`] around
/// every pass. One tracer accumulates the whole build; stages replay
/// their cached traces into it.
#[derive(Debug, Clone)]
pub struct Tracer {
    pub policy: TracePolicy,
    entries: Vec<PassTrace>,
}

impl Tracer {
    pub fn new(policy: TracePolicy) -> Tracer {
        Tracer {
            policy,
            entries: Vec::new(),
        }
    }

    /// Whether post-pass verification is on (cache keys and back-compat
    /// shims still need the raw bool).
    pub fn verify_each(&self) -> bool {
        self.policy.verify_each
    }

    /// Runs `pass` over `m` with full instrumentation: wall time,
    /// IR-delta stats, post-pass fingerprint, post-pass verification per
    /// policy (with a dump-on-failure artifact naming the failing pass and
    /// carrying the last-good IR), and print-after capture.
    ///
    /// Sub-phase entries the pass records end up *after* the parent entry.
    ///
    /// # Errors
    /// Returns the verifier's rejection when `verify_each` is set and the
    /// post-pass module is ill-formed.
    pub fn run_sir(&mut self, m: &mut Module, pass: &mut dyn SirPass) -> Result<(), VerifyError> {
        let name = pass.name();
        // Last-good IR for the failure artifact: render lazily — only when
        // a verifier actually rejects — from a pre-pass structural copy.
        // The copy itself is only taken when verification is armed.
        let last_good = self.policy.verify_each.then(|| m.clone());
        let before = IrStats::of_module(m);
        let start = self.entries.len();
        let t = Instant::now();
        pass.run(m, self);
        let wall = t.elapsed().as_nanos() as u64;
        let after = IrStats::of_module(m);
        let mut entry = PassTrace::new(name, wall)
            .stats(before, after)
            .fingerprinted(ir_fingerprint(m));
        if self.policy.verify_each {
            if let Err(e) = verify::verify_module(m) {
                let good = last_good
                    .as_ref()
                    .map(print::print_module)
                    .unwrap_or_default();
                if self.policy.echo_dumps {
                    eprintln!("; verification failed after pass `{name}`: {e}");
                    eprintln!("; last-good IR (before `{name}`):\n{good}");
                    eprintln!("; failing IR (after `{name}`):\n{}", print::print_module(m));
                }
                self.entries.push(entry.verified(false));
                return Err(e.in_pass(name, good));
            }
            entry.verified = true;
        }
        if self.policy.print_after.matches(name) {
            let dump = print::print_module(m);
            if self.policy.echo_dumps {
                eprintln!("; IR after {name}\n{dump}");
            }
            entry.dump = Some(dump);
        }
        self.entries.push(entry);
        // Parent before its sub-phases.
        self.entries[start..].rotate_right(1);
        Ok(())
    }

    /// Runs a named *check* (a verifier that inspects but never mutates —
    /// `bitlint`, SMIR verification, layout checks) and records a timed,
    /// verified-flagged entry for it.
    ///
    /// # Errors
    /// Propagates the check's rejection after recording the entry.
    pub fn run_check(
        &mut self,
        name: &str,
        check: impl FnOnce() -> Result<(), VerifyError>,
    ) -> Result<(), VerifyError> {
        let t = Instant::now();
        let r = check();
        let wall = t.elapsed().as_nanos() as u64;
        self.record(PassTrace::new(name, wall).verified(r.is_ok()));
        r
    }

    /// Records a pre-built entry (back-end passes, sub-phases, analyses).
    pub fn record(&mut self, entry: PassTrace) {
        if self.policy.echo_dumps {
            if let Some(d) = &entry.dump {
                eprintln!("; IR after {}\n{d}", entry.name);
            }
        }
        self.entries.push(entry);
    }

    /// Replays stage-cached entries; `cached` marks them as served from
    /// the cache (an entry already replayed-from-cache stays marked).
    pub fn replay(&mut self, entries: &[PassTrace], cached: bool) {
        for e in entries {
            self.entries.push(PassTrace {
                cached: e.cached || cached,
                ..e.clone()
            });
        }
    }

    /// The entries recorded so far.
    pub fn entries(&self) -> &[PassTrace] {
        &self.entries
    }

    /// The number of entries recorded so far: the index the next one
    /// gets, so `entries()[mark..]` are those recorded after the call.
    pub fn mark(&self) -> usize {
        self.entries.len()
    }

    /// Consumes the tracer, returning the full trace.
    pub fn finish(self) -> Vec<PassTrace> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::{BinOp, Width};

    fn demo_module() -> Module {
        let mut m = Module::new("demo");
        let mut b = FunctionBuilder::new("add1", vec![Width::W32], Some(Width::W32));
        let x = b.param(0);
        let one = b.iconst(Width::W32, 1);
        let y = b.bin(BinOp::Add, Width::W32, x, one);
        b.ret(Some(y));
        m.add_function(b.finish());
        m
    }

    struct Nop;
    impl SirPass for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn run(&mut self, _m: &mut Module, _tr: &mut Tracer) {}
    }

    #[test]
    fn stats_count_placed_insts() {
        let m = demo_module();
        let s = IrStats::of_module(&m);
        assert_eq!(s.funcs, 1);
        assert_eq!(s.blocks, 1);
        assert_eq!(s.insts, 3);
        assert_eq!(s.regions, 0);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = demo_module();
        let b = demo_module();
        assert_eq!(ir_fingerprint(&a), ir_fingerprint(&b));
        let mut c = demo_module();
        c.funcs[0].insts[1] = crate::Inst::Const {
            width: Width::W32,
            value: 2,
        };
        assert_ne!(ir_fingerprint(&a), ir_fingerprint(&c));
    }

    #[test]
    fn nop_pass_records_verified_entry() {
        let mut m = demo_module();
        let mut tr = Tracer::new(TracePolicy::verify(true));
        tr.run_sir(&mut m, &mut Nop).unwrap();
        let e = &tr.entries()[0];
        assert_eq!(e.name, "nop");
        assert!(e.verified);
        assert_eq!(e.before, e.after);
        assert_eq!(e.fingerprint, Some(ir_fingerprint(&m)));
    }

    #[test]
    fn print_after_matches_pass_and_subphases() {
        let p = PrintAfter::Pass("squeeze".to_string());
        assert!(p.matches("squeeze"));
        assert!(p.matches("squeeze.prepare"));
        assert!(!p.matches("squeezer"));
        assert!(!p.matches("dce"));
        assert!(PrintAfter::All.matches("anything"));
        assert!(!PrintAfter::None.matches("anything"));
        assert_eq!(PrintAfter::parse("all"), PrintAfter::All);
        assert_eq!(PrintAfter::parse("dce"), PrintAfter::Pass("dce".into()));
    }

    #[test]
    fn print_after_captures_dump() {
        let mut m = demo_module();
        let mut tr = Tracer::new(TracePolicy {
            verify_each: true,
            print_after: PrintAfter::All,
            echo_dumps: false,
        });
        tr.run_sir(&mut m, &mut Nop).unwrap();
        let dump = tr.entries()[0].dump.as_deref().expect("dump captured");
        assert!(dump.contains("func add1"));
    }

    struct Corrupt;
    impl SirPass for Corrupt {
        fn name(&self) -> &'static str {
            "corrupt"
        }
        fn run(&mut self, m: &mut Module, _tr: &mut Tracer) {
            // Width mismatch (W8 add over W32 operands): the verifier must
            // reject this.
            m.funcs[0].insts[2] = crate::Inst::Bin {
                op: BinOp::Add,
                width: Width::W8,
                lhs: crate::ValueId(0),
                rhs: crate::ValueId(1),
                speculative: false,
            };
        }
    }

    #[test]
    fn failing_pass_is_named_with_last_good_ir() {
        let mut m = demo_module();
        let mut tr = Tracer::new(TracePolicy::verify(true));
        let err = tr.run_sir(&mut m, &mut Corrupt).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("corrupt"), "error names the pass: {msg}");
        assert!(
            err.last_good_ir()
                .is_some_and(|ir| ir.contains("func add1")),
            "failure artifact carries the last-good IR"
        );
        assert!(!tr.entries()[0].verified);
    }
}
