//! Compact deterministic binary serialization for build artifacts.
//!
//! The persistent artifact store ([`crate::store`]) needs stable bytes:
//! two processes encoding the same artifact must produce identical
//! payloads, and `encode(decode(bytes)) == bytes` must hold so artifacts
//! can be republished without churn. The workspace is std-only, so this
//! is a hand-rolled codec: LEB128 varints for integers, fixed 8-byte
//! `to_bits` for floats (bit-exact round-trip), length-prefixed byte
//! strings, and explicit one-byte tags for enums.
//!
//! Determinism rules:
//! * Struct fields are encoded in declaration order, via *exhaustive
//!   destructuring* — adding a field without deciding how it serializes
//!   is a compile error, not a silently stale store.
//! * Nothing derived from a `HashMap` is ever written. The two derived
//!   fields of [`backend::Program`] (`addr_index`, `pre`) are rebuilt on
//!   decode exactly as `emit::link` builds them.
//! * Decoding validates every enum tag and checks the payload is fully
//!   consumed; any mismatch is a [`WireError`], which the store treats
//!   as a corrupt entry (recompute + rewrite).

use crate::stages::{GateRef, ProfileData, SirStage, StageHits};
use crate::{Arch, BuildConfig, BuildTrace, Compiled, SimResult};
use interp::profile::VarStats;
use interp::{Heuristic, Profile};
use isa::inst::SAluOp;
use isa::{AluOp, Cond, MInst, MemWidth, Operand, Reg, Slice, SliceOperand};
use opt::{ExpanderConfig, SqueezeReport};
use sim::machine::Counts;
use sir::pass::{IrStats, PassTrace};
use sir::{
    Block, BlockId, Cc, FuncId, Function, Global, GlobalId, Inst, Module, Region, RegionId,
    Terminator, ValueId, Width,
};
use std::sync::Arc;

/// A decode failure: truncated payload, bad enum tag, trailing garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type Res<T> = Result<T, WireError>;

fn bad(what: &str) -> WireError {
    WireError(what.to_string())
}

// ---------------------------------------------------------------------------
// Primitive encoder / decoder
// ---------------------------------------------------------------------------

/// Byte-buffer encoder with varint framing helpers.
pub struct Enc {
    buf: Vec<u8>,
}

impl Default for Enc {
    fn default() -> Self {
        Self::new()
    }
}

impl Enc {
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub fn bool(&mut self, x: bool) {
        self.u8(u8::from(x));
    }

    /// LEB128 unsigned varint.
    pub fn vu(&mut self, mut x: u64) {
        loop {
            let b = (x & 0x7f) as u8;
            x >>= 7;
            if x == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn vi(&mut self, x: i64) {
        self.vu(((x << 1) ^ (x >> 63)) as u64);
    }

    /// Fixed 8-byte float (`to_bits`, little-endian) — bit-exact.
    pub fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.vu(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Slice decoder mirroring [`Enc`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub fn u8(&mut self) -> Res<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| bad("eof"))?;
        self.pos += 1;
        Ok(b)
    }

    pub fn bool(&mut self) -> Res<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("bool tag")),
        }
    }

    pub fn vu(&mut self) -> Res<u64> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(bad("varint overflow"));
            }
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    pub fn vi(&mut self) -> Res<i64> {
        let x = self.vu()?;
        Ok(((x >> 1) as i64) ^ -((x & 1) as i64))
    }

    pub fn f64(&mut self) -> Res<f64> {
        if self.pos + 8 > self.buf.len() {
            return Err(bad("eof in f64"));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    pub fn bytes(&mut self) -> Res<Vec<u8>> {
        let n = self.vu()? as usize;
        if self.pos + n > self.buf.len() {
            return Err(bad("eof in bytes"));
        }
        let v = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(v)
    }

    pub fn str(&mut self) -> Res<String> {
        String::from_utf8(self.bytes()?).map_err(|_| bad("invalid utf-8"))
    }

    fn vu32(&mut self) -> Res<u32> {
        u32::try_from(self.vu()?).map_err(|_| bad("u32 overflow"))
    }

    fn vusize(&mut self) -> Res<usize> {
        usize::try_from(self.vu()?).map_err(|_| bad("usize overflow"))
    }

    /// Checks the whole payload was consumed (trailing garbage is a
    /// schema mismatch, not something to ignore).
    pub fn finish(&self) -> Res<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes"))
        }
    }
}

fn dec_vec<T>(d: &mut Dec, mut f: impl FnMut(&mut Dec) -> Res<T>) -> Res<Vec<T>> {
    let n = d.vusize()?;
    // Sanity bound: no artifact holds more elements than payload bytes.
    if n > d.buf.len() {
        return Err(bad("vec length exceeds payload"));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(f(d)?);
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// SIR
// ---------------------------------------------------------------------------

fn put_width(e: &mut Enc, w: Width) {
    e.u8(match w {
        Width::W1 => 0,
        Width::W8 => 1,
        Width::W16 => 2,
        Width::W32 => 3,
        Width::W64 => 4,
    });
}

fn get_width(d: &mut Dec) -> Res<Width> {
    Ok(match d.u8()? {
        0 => Width::W1,
        1 => Width::W8,
        2 => Width::W16,
        3 => Width::W32,
        4 => Width::W64,
        _ => return Err(bad("width tag")),
    })
}

fn put_opt_width(e: &mut Enc, w: Option<Width>) {
    match w {
        None => e.u8(0),
        Some(w) => {
            e.u8(1);
            put_width(e, w);
        }
    }
}

fn get_opt_width(d: &mut Dec) -> Res<Option<Width>> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(get_width(d)?),
        _ => return Err(bad("option tag")),
    })
}

fn put_binop(e: &mut Enc, op: sir::BinOp) {
    use sir::BinOp::*;
    e.u8(match op {
        Add => 0,
        Sub => 1,
        Mul => 2,
        Udiv => 3,
        Urem => 4,
        Sdiv => 5,
        Srem => 6,
        And => 7,
        Or => 8,
        Xor => 9,
        Shl => 10,
        Lshr => 11,
        Ashr => 12,
    });
}

fn get_binop(d: &mut Dec) -> Res<sir::BinOp> {
    use sir::BinOp::*;
    Ok(match d.u8()? {
        0 => Add,
        1 => Sub,
        2 => Mul,
        3 => Udiv,
        4 => Urem,
        5 => Sdiv,
        6 => Srem,
        7 => And,
        8 => Or,
        9 => Xor,
        10 => Shl,
        11 => Lshr,
        12 => Ashr,
        _ => return Err(bad("binop tag")),
    })
}

fn put_cc(e: &mut Enc, cc: Cc) {
    use Cc::*;
    e.u8(match cc {
        Eq => 0,
        Ne => 1,
        Ult => 2,
        Ule => 3,
        Ugt => 4,
        Uge => 5,
        Slt => 6,
        Sle => 7,
        Sgt => 8,
        Sge => 9,
    });
}

fn get_cc(d: &mut Dec) -> Res<Cc> {
    use Cc::*;
    Ok(match d.u8()? {
        0 => Eq,
        1 => Ne,
        2 => Ult,
        3 => Ule,
        4 => Ugt,
        5 => Uge,
        6 => Slt,
        7 => Sle,
        8 => Sgt,
        9 => Sge,
        _ => return Err(bad("cc tag")),
    })
}

fn put_inst(e: &mut Enc, i: &Inst) {
    match i {
        Inst::Param { index, width } => {
            e.u8(0);
            e.vu(u64::from(*index));
            put_width(e, *width);
        }
        Inst::Const { width, value } => {
            e.u8(1);
            put_width(e, *width);
            e.vu(*value);
        }
        Inst::GlobalAddr { global } => {
            e.u8(2);
            e.vu(u64::from(global.0));
        }
        Inst::Alloca { size } => {
            e.u8(3);
            e.vu(u64::from(*size));
        }
        Inst::Bin {
            op,
            width,
            lhs,
            rhs,
            speculative,
        } => {
            e.u8(4);
            put_binop(e, *op);
            put_width(e, *width);
            e.vu(u64::from(lhs.0));
            e.vu(u64::from(rhs.0));
            e.bool(*speculative);
        }
        Inst::Icmp {
            cc,
            width,
            lhs,
            rhs,
        } => {
            e.u8(5);
            put_cc(e, *cc);
            put_width(e, *width);
            e.vu(u64::from(lhs.0));
            e.vu(u64::from(rhs.0));
        }
        Inst::Zext { to, arg } => {
            e.u8(6);
            put_width(e, *to);
            e.vu(u64::from(arg.0));
        }
        Inst::Sext { to, arg } => {
            e.u8(7);
            put_width(e, *to);
            e.vu(u64::from(arg.0));
        }
        Inst::Trunc {
            to,
            arg,
            speculative,
        } => {
            e.u8(8);
            put_width(e, *to);
            e.vu(u64::from(arg.0));
            e.bool(*speculative);
        }
        Inst::Load {
            width,
            addr,
            volatile,
            speculative,
        } => {
            e.u8(9);
            put_width(e, *width);
            e.vu(u64::from(addr.0));
            e.bool(*volatile);
            e.bool(*speculative);
        }
        Inst::Store {
            width,
            addr,
            value,
            volatile,
        } => {
            e.u8(10);
            put_width(e, *width);
            e.vu(u64::from(addr.0));
            e.vu(u64::from(value.0));
            e.bool(*volatile);
        }
        Inst::Select {
            width,
            cond,
            tval,
            fval,
        } => {
            e.u8(11);
            put_width(e, *width);
            e.vu(u64::from(cond.0));
            e.vu(u64::from(tval.0));
            e.vu(u64::from(fval.0));
        }
        Inst::Call { callee, args, ret } => {
            e.u8(12);
            e.vu(u64::from(callee.0));
            e.vu(args.len() as u64);
            for a in args {
                e.vu(u64::from(a.0));
            }
            put_opt_width(e, *ret);
        }
        Inst::Phi { width, incomings } => {
            e.u8(13);
            put_width(e, *width);
            e.vu(incomings.len() as u64);
            for (b, v) in incomings {
                e.vu(u64::from(b.0));
                e.vu(u64::from(v.0));
            }
        }
        Inst::Output { value } => {
            e.u8(14);
            e.vu(u64::from(value.0));
        }
    }
}

fn get_inst(d: &mut Dec) -> Res<Inst> {
    Ok(match d.u8()? {
        0 => Inst::Param {
            index: d.vu32()?,
            width: get_width(d)?,
        },
        1 => Inst::Const {
            width: get_width(d)?,
            value: d.vu()?,
        },
        2 => Inst::GlobalAddr {
            global: GlobalId(d.vu32()?),
        },
        3 => Inst::Alloca { size: d.vu32()? },
        4 => Inst::Bin {
            op: get_binop(d)?,
            width: get_width(d)?,
            lhs: ValueId(d.vu32()?),
            rhs: ValueId(d.vu32()?),
            speculative: d.bool()?,
        },
        5 => Inst::Icmp {
            cc: get_cc(d)?,
            width: get_width(d)?,
            lhs: ValueId(d.vu32()?),
            rhs: ValueId(d.vu32()?),
        },
        6 => Inst::Zext {
            to: get_width(d)?,
            arg: ValueId(d.vu32()?),
        },
        7 => Inst::Sext {
            to: get_width(d)?,
            arg: ValueId(d.vu32()?),
        },
        8 => Inst::Trunc {
            to: get_width(d)?,
            arg: ValueId(d.vu32()?),
            speculative: d.bool()?,
        },
        9 => Inst::Load {
            width: get_width(d)?,
            addr: ValueId(d.vu32()?),
            volatile: d.bool()?,
            speculative: d.bool()?,
        },
        10 => Inst::Store {
            width: get_width(d)?,
            addr: ValueId(d.vu32()?),
            value: ValueId(d.vu32()?),
            volatile: d.bool()?,
        },
        11 => Inst::Select {
            width: get_width(d)?,
            cond: ValueId(d.vu32()?),
            tval: ValueId(d.vu32()?),
            fval: ValueId(d.vu32()?),
        },
        12 => Inst::Call {
            callee: FuncId(d.vu32()?),
            args: dec_vec(d, |d| Ok(ValueId(d.vu32()?)))?,
            ret: get_opt_width(d)?,
        },
        13 => Inst::Phi {
            width: get_width(d)?,
            incomings: dec_vec(d, |d| Ok((BlockId(d.vu32()?), ValueId(d.vu32()?))))?,
        },
        14 => Inst::Output {
            value: ValueId(d.vu32()?),
        },
        _ => return Err(bad("inst tag")),
    })
}

fn put_term(e: &mut Enc, t: &Terminator) {
    match t {
        Terminator::Br(b) => {
            e.u8(0);
            e.vu(u64::from(b.0));
        }
        Terminator::CondBr {
            cond,
            if_true,
            if_false,
        } => {
            e.u8(1);
            e.vu(u64::from(cond.0));
            e.vu(u64::from(if_true.0));
            e.vu(u64::from(if_false.0));
        }
        Terminator::Ret(v) => {
            e.u8(2);
            match v {
                None => e.u8(0),
                Some(v) => {
                    e.u8(1);
                    e.vu(u64::from(v.0));
                }
            }
        }
        Terminator::Unreachable => e.u8(3),
    }
}

fn get_term(d: &mut Dec) -> Res<Terminator> {
    Ok(match d.u8()? {
        0 => Terminator::Br(BlockId(d.vu32()?)),
        1 => Terminator::CondBr {
            cond: ValueId(d.vu32()?),
            if_true: BlockId(d.vu32()?),
            if_false: BlockId(d.vu32()?),
        },
        2 => Terminator::Ret(match d.u8()? {
            0 => None,
            1 => Some(ValueId(d.vu32()?)),
            _ => return Err(bad("option tag")),
        }),
        3 => Terminator::Unreachable,
        _ => return Err(bad("terminator tag")),
    })
}

fn put_opt_region(e: &mut Enc, r: Option<RegionId>) {
    match r {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            e.vu(u64::from(r.0));
        }
    }
}

fn get_opt_region(d: &mut Dec) -> Res<Option<RegionId>> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(RegionId(d.vu32()?)),
        _ => return Err(bad("option tag")),
    })
}

fn put_function(e: &mut Enc, f: &Function) {
    let Function {
        name,
        params,
        ret,
        insts,
        blocks,
        regions,
        entry,
    } = f;
    e.str(name);
    e.vu(params.len() as u64);
    for w in params {
        put_width(e, *w);
    }
    put_opt_width(e, *ret);
    e.vu(insts.len() as u64);
    for i in insts {
        put_inst(e, i);
    }
    e.vu(blocks.len() as u64);
    for b in blocks {
        let Block {
            insts,
            term,
            region,
            handler_for,
        } = b;
        e.vu(insts.len() as u64);
        for v in insts {
            e.vu(u64::from(v.0));
        }
        put_term(e, term);
        put_opt_region(e, *region);
        put_opt_region(e, *handler_for);
    }
    e.vu(regions.len() as u64);
    for r in regions {
        let Region { blocks, handler } = r;
        e.vu(blocks.len() as u64);
        for b in blocks {
            e.vu(u64::from(b.0));
        }
        e.vu(u64::from(handler.0));
    }
    e.vu(u64::from(entry.0));
}

fn get_function(d: &mut Dec) -> Res<Function> {
    let name = d.str()?;
    let params = dec_vec(d, get_width)?;
    let ret = get_opt_width(d)?;
    let insts = dec_vec(d, get_inst)?;
    let blocks = dec_vec(d, |d| {
        Ok(Block {
            insts: dec_vec(d, |d| Ok(ValueId(d.vu32()?)))?,
            term: get_term(d)?,
            region: get_opt_region(d)?,
            handler_for: get_opt_region(d)?,
        })
    })?;
    let regions = dec_vec(d, |d| {
        Ok(Region {
            blocks: dec_vec(d, |d| Ok(BlockId(d.vu32()?)))?,
            handler: BlockId(d.vu32()?),
        })
    })?;
    let entry = BlockId(d.vu32()?);
    Ok(Function {
        name,
        params,
        ret,
        insts,
        blocks,
        regions,
        entry,
    })
}

fn put_module(e: &mut Enc, m: &Module) {
    let Module {
        name,
        funcs,
        globals,
    } = m;
    e.str(name);
    e.vu(funcs.len() as u64);
    for f in funcs {
        put_function(e, f);
    }
    e.vu(globals.len() as u64);
    for g in globals {
        let Global {
            name,
            size,
            init,
            align,
        } = g;
        e.str(name);
        e.vu(u64::from(*size));
        e.bytes(init);
        e.vu(u64::from(*align));
    }
}

fn get_module(d: &mut Dec) -> Res<Module> {
    let name = d.str()?;
    let funcs = dec_vec(d, get_function)?;
    let globals = dec_vec(d, |d| {
        Ok(Global {
            name: d.str()?,
            size: d.vu32()?,
            init: d.bytes()?,
            align: d.vu32()?,
        })
    })?;
    Ok(Module {
        name,
        funcs,
        globals,
    })
}

// ---------------------------------------------------------------------------
// Pass traces
// ---------------------------------------------------------------------------

fn put_ir_stats(e: &mut Enc, s: &IrStats) {
    let IrStats {
        funcs,
        blocks,
        insts,
        regions,
        slices,
    } = s;
    e.vu(u64::from(*funcs));
    e.vu(u64::from(*blocks));
    e.vu(u64::from(*insts));
    e.vu(u64::from(*regions));
    e.vu(u64::from(*slices));
}

fn get_ir_stats(d: &mut Dec) -> Res<IrStats> {
    Ok(IrStats {
        funcs: d.vu32()?,
        blocks: d.vu32()?,
        insts: d.vu32()?,
        regions: d.vu32()?,
        slices: d.vu32()?,
    })
}

fn put_pass_trace(e: &mut Enc, t: &PassTrace) {
    let PassTrace {
        name,
        wall_ns,
        before,
        after,
        fingerprint,
        cached,
        verified,
        dump,
    } = t;
    e.str(name);
    e.vu(*wall_ns);
    put_ir_stats(e, before);
    put_ir_stats(e, after);
    match fingerprint {
        None => e.u8(0),
        Some(fp) => {
            e.u8(1);
            e.vu(*fp);
        }
    }
    e.bool(*cached);
    e.bool(*verified);
    match dump {
        None => e.u8(0),
        Some(s) => {
            e.u8(1);
            e.str(s);
        }
    }
}

fn get_pass_trace(d: &mut Dec) -> Res<PassTrace> {
    let name = d.str()?;
    let wall_ns = d.vu()?;
    let before = get_ir_stats(d)?;
    let after = get_ir_stats(d)?;
    let fingerprint = match d.u8()? {
        0 => None,
        1 => Some(d.vu()?),
        _ => return Err(bad("option tag")),
    };
    let cached = d.bool()?;
    let verified = d.bool()?;
    let dump = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        _ => return Err(bad("option tag")),
    };
    Ok(PassTrace {
        name,
        wall_ns,
        before,
        after,
        fingerprint,
        cached,
        verified,
        dump,
    })
}

fn put_traces(e: &mut Enc, ts: &[PassTrace]) {
    e.vu(ts.len() as u64);
    for t in ts {
        put_pass_trace(e, t);
    }
}

fn get_traces(d: &mut Dec) -> Res<Vec<PassTrace>> {
    dec_vec(d, get_pass_trace)
}

// ---------------------------------------------------------------------------
// Machine instructions / programs
// ---------------------------------------------------------------------------

fn put_reg(e: &mut Enc, r: Reg) {
    e.u8(r.0);
}

fn get_reg(d: &mut Dec) -> Res<Reg> {
    let n = d.u8()?;
    if n > 15 {
        return Err(bad("register index"));
    }
    Ok(Reg(n))
}

fn put_slice(e: &mut Enc, s: Slice) {
    e.u8(s.reg.0);
    e.u8(s.byte);
}

fn get_slice(d: &mut Dec) -> Res<Slice> {
    let reg = get_reg(d)?;
    let byte = d.u8()?;
    if byte > 3 {
        return Err(bad("slice byte index"));
    }
    Ok(Slice { reg, byte })
}

fn put_alu_op(e: &mut Enc, op: AluOp) {
    use AluOp::*;
    e.u8(match op {
        Add => 0,
        Adds => 1,
        Adc => 2,
        Sub => 3,
        Subs => 4,
        Sbc => 5,
        Sbcs => 6,
        And => 7,
        Orr => 8,
        Eor => 9,
        Lsl => 10,
        Lsr => 11,
        Asr => 12,
        Mul => 13,
        Udiv => 14,
        Sdiv => 15,
    });
}

fn get_alu_op(d: &mut Dec) -> Res<AluOp> {
    use AluOp::*;
    Ok(match d.u8()? {
        0 => Add,
        1 => Adds,
        2 => Adc,
        3 => Sub,
        4 => Subs,
        5 => Sbc,
        6 => Sbcs,
        7 => And,
        8 => Orr,
        9 => Eor,
        10 => Lsl,
        11 => Lsr,
        12 => Asr,
        13 => Mul,
        14 => Udiv,
        15 => Sdiv,
        _ => return Err(bad("alu op tag")),
    })
}

fn put_salu_op(e: &mut Enc, op: SAluOp) {
    use SAluOp::*;
    e.u8(match op {
        Add => 0,
        Sub => 1,
        And => 2,
        Orr => 3,
        Eor => 4,
        Lsl => 5,
        Lsr => 6,
        Asr => 7,
    });
}

fn get_salu_op(d: &mut Dec) -> Res<SAluOp> {
    use SAluOp::*;
    Ok(match d.u8()? {
        0 => Add,
        1 => Sub,
        2 => And,
        3 => Orr,
        4 => Eor,
        5 => Lsl,
        6 => Lsr,
        7 => Asr,
        _ => return Err(bad("slice alu op tag")),
    })
}

fn put_cond(e: &mut Enc, c: Cond) {
    use Cond::*;
    e.u8(match c {
        Eq => 0,
        Ne => 1,
        Lo => 2,
        Ls => 3,
        Hi => 4,
        Hs => 5,
        Lt => 6,
        Le => 7,
        Gt => 8,
        Ge => 9,
    });
}

fn get_cond(d: &mut Dec) -> Res<Cond> {
    use Cond::*;
    Ok(match d.u8()? {
        0 => Eq,
        1 => Ne,
        2 => Lo,
        3 => Ls,
        4 => Hi,
        5 => Hs,
        6 => Lt,
        7 => Le,
        8 => Gt,
        9 => Ge,
        _ => return Err(bad("cond tag")),
    })
}

fn put_mem_width(e: &mut Enc, w: MemWidth) {
    e.u8(match w {
        MemWidth::B => 0,
        MemWidth::H => 1,
        MemWidth::W => 2,
    });
}

fn get_mem_width(d: &mut Dec) -> Res<MemWidth> {
    Ok(match d.u8()? {
        0 => MemWidth::B,
        1 => MemWidth::H,
        2 => MemWidth::W,
        _ => return Err(bad("mem width tag")),
    })
}

fn put_operand(e: &mut Enc, o: &Operand) {
    match o {
        Operand::Reg(r) => {
            e.u8(0);
            put_reg(e, *r);
        }
        Operand::Imm(x) => {
            e.u8(1);
            e.vu(u64::from(*x));
        }
    }
}

fn get_operand(d: &mut Dec) -> Res<Operand> {
    Ok(match d.u8()? {
        0 => Operand::Reg(get_reg(d)?),
        1 => Operand::Imm(d.vu32()?),
        _ => return Err(bad("operand tag")),
    })
}

fn put_slice_operand(e: &mut Enc, o: &SliceOperand) {
    match o {
        SliceOperand::Slice(s) => {
            e.u8(0);
            put_slice(e, *s);
        }
        SliceOperand::Imm(x) => {
            e.u8(1);
            e.u8(*x);
        }
    }
}

fn get_slice_operand(d: &mut Dec) -> Res<SliceOperand> {
    Ok(match d.u8()? {
        0 => SliceOperand::Slice(get_slice(d)?),
        1 => SliceOperand::Imm(d.u8()?),
        _ => return Err(bad("slice operand tag")),
    })
}

fn put_minst(e: &mut Enc, i: &MInst) {
    match i {
        MInst::Alu { op, rd, rn, src2 } => {
            e.u8(0);
            put_alu_op(e, *op);
            put_reg(e, *rd);
            put_reg(e, *rn);
            put_operand(e, src2);
        }
        MInst::MovImm { rd, imm } => {
            e.u8(1);
            put_reg(e, *rd);
            e.vu(u64::from(*imm));
        }
        MInst::Mov { rd, rm } => {
            e.u8(2);
            put_reg(e, *rd);
            put_reg(e, *rm);
        }
        MInst::Cmp { rn, src2 } => {
            e.u8(3);
            put_reg(e, *rn);
            put_operand(e, src2);
        }
        MInst::CSet { rd, cond } => {
            e.u8(4);
            put_reg(e, *rd);
            put_cond(e, *cond);
        }
        MInst::MovCc { rd, rm, cond } => {
            e.u8(5);
            put_reg(e, *rd);
            put_reg(e, *rm);
            put_cond(e, *cond);
        }
        MInst::Umull { rdlo, rdhi, rn, rm } => {
            e.u8(6);
            put_reg(e, *rdlo);
            put_reg(e, *rdhi);
            put_reg(e, *rn);
            put_reg(e, *rm);
        }
        MInst::Extend {
            rd,
            rm,
            from,
            signed,
        } => {
            e.u8(7);
            put_reg(e, *rd);
            put_reg(e, *rm);
            put_mem_width(e, *from);
            e.bool(*signed);
        }
        MInst::Load {
            rd,
            rn,
            offset,
            width,
            spill,
        } => {
            e.u8(8);
            put_reg(e, *rd);
            put_reg(e, *rn);
            e.vi(i64::from(*offset));
            put_mem_width(e, *width);
            e.bool(*spill);
        }
        MInst::LoadIdx {
            rd,
            rn,
            bidx,
            shift,
            width,
        } => {
            e.u8(9);
            put_reg(e, *rd);
            put_reg(e, *rn);
            put_slice(e, *bidx);
            e.u8(*shift);
            put_mem_width(e, *width);
        }
        MInst::Store {
            rs,
            rn,
            offset,
            width,
            spill,
        } => {
            e.u8(10);
            put_reg(e, *rs);
            put_reg(e, *rn);
            e.vi(i64::from(*offset));
            put_mem_width(e, *width);
            e.bool(*spill);
        }
        MInst::Push { regs } => {
            e.u8(11);
            e.vu(regs.len() as u64);
            for r in regs {
                put_reg(e, *r);
            }
        }
        MInst::Pop { regs } => {
            e.u8(12);
            e.vu(regs.len() as u64);
            for r in regs {
                put_reg(e, *r);
            }
        }
        MInst::B { target } => {
            e.u8(13);
            e.vu(*target as u64);
        }
        MInst::Bc { cond, target } => {
            e.u8(14);
            put_cond(e, *cond);
            e.vu(*target as u64);
        }
        MInst::Bl { target } => {
            e.u8(15);
            e.vu(*target as u64);
        }
        MInst::Ret => e.u8(16),
        MInst::Out { rn } => {
            e.u8(17);
            put_reg(e, *rn);
        }
        MInst::Halt => e.u8(18),
        MInst::Nop => e.u8(19),
        MInst::SAlu {
            op,
            bd,
            bn,
            src2,
            speculative,
        } => {
            e.u8(20);
            put_salu_op(e, *op);
            put_slice(e, *bd);
            put_slice(e, *bn);
            put_slice_operand(e, src2);
            e.bool(*speculative);
        }
        MInst::SCmp { bn, src2 } => {
            e.u8(21);
            put_slice(e, *bn);
            put_slice_operand(e, src2);
        }
        MInst::SLoadSpec { bd, rn, offset } => {
            e.u8(22);
            put_slice(e, *bd);
            put_reg(e, *rn);
            e.vi(i64::from(*offset));
        }
        MInst::SLoadIdx {
            bd,
            rn,
            bidx,
            shift,
            speculative,
        } => {
            e.u8(23);
            put_slice(e, *bd);
            put_reg(e, *rn);
            put_slice(e, *bidx);
            e.u8(*shift);
            e.bool(*speculative);
        }
        MInst::SLoad {
            bd,
            rn,
            offset,
            spill,
        } => {
            e.u8(24);
            put_slice(e, *bd);
            put_reg(e, *rn);
            e.vi(i64::from(*offset));
            e.bool(*spill);
        }
        MInst::SStore {
            bs,
            rn,
            offset,
            spill,
        } => {
            e.u8(25);
            put_slice(e, *bs);
            put_reg(e, *rn);
            e.vi(i64::from(*offset));
            e.bool(*spill);
        }
        MInst::SExtend { rd, bn, signed } => {
            e.u8(26);
            put_reg(e, *rd);
            put_slice(e, *bn);
            e.bool(*signed);
        }
        MInst::STrunc {
            bd,
            rn,
            speculative,
        } => {
            e.u8(27);
            put_slice(e, *bd);
            put_reg(e, *rn);
            e.bool(*speculative);
        }
        MInst::SMov { bd, bs } => {
            e.u8(28);
            put_slice(e, *bd);
            put_slice(e, *bs);
        }
        MInst::SMovImm { bd, imm } => {
            e.u8(29);
            put_slice(e, *bd);
            e.u8(*imm);
        }
        MInst::SetDelta { bytes } => {
            e.u8(30);
            e.vu(u64::from(*bytes));
        }
        MInst::SpecCheck { rn } => {
            e.u8(31);
            put_reg(e, *rn);
        }
    }
}

fn get_minst(d: &mut Dec) -> Res<MInst> {
    Ok(match d.u8()? {
        0 => MInst::Alu {
            op: get_alu_op(d)?,
            rd: get_reg(d)?,
            rn: get_reg(d)?,
            src2: get_operand(d)?,
        },
        1 => MInst::MovImm {
            rd: get_reg(d)?,
            imm: d.vu32()?,
        },
        2 => MInst::Mov {
            rd: get_reg(d)?,
            rm: get_reg(d)?,
        },
        3 => MInst::Cmp {
            rn: get_reg(d)?,
            src2: get_operand(d)?,
        },
        4 => MInst::CSet {
            rd: get_reg(d)?,
            cond: get_cond(d)?,
        },
        5 => MInst::MovCc {
            rd: get_reg(d)?,
            rm: get_reg(d)?,
            cond: get_cond(d)?,
        },
        6 => MInst::Umull {
            rdlo: get_reg(d)?,
            rdhi: get_reg(d)?,
            rn: get_reg(d)?,
            rm: get_reg(d)?,
        },
        7 => MInst::Extend {
            rd: get_reg(d)?,
            rm: get_reg(d)?,
            from: get_mem_width(d)?,
            signed: d.bool()?,
        },
        8 => MInst::Load {
            rd: get_reg(d)?,
            rn: get_reg(d)?,
            offset: i32::try_from(d.vi()?).map_err(|_| bad("offset overflow"))?,
            width: get_mem_width(d)?,
            spill: d.bool()?,
        },
        9 => MInst::LoadIdx {
            rd: get_reg(d)?,
            rn: get_reg(d)?,
            bidx: get_slice(d)?,
            shift: d.u8()?,
            width: get_mem_width(d)?,
        },
        10 => MInst::Store {
            rs: get_reg(d)?,
            rn: get_reg(d)?,
            offset: i32::try_from(d.vi()?).map_err(|_| bad("offset overflow"))?,
            width: get_mem_width(d)?,
            spill: d.bool()?,
        },
        11 => MInst::Push {
            regs: dec_vec(d, get_reg)?,
        },
        12 => MInst::Pop {
            regs: dec_vec(d, get_reg)?,
        },
        13 => MInst::B {
            target: d.vusize()?,
        },
        14 => MInst::Bc {
            cond: get_cond(d)?,
            target: d.vusize()?,
        },
        15 => MInst::Bl {
            target: d.vusize()?,
        },
        16 => MInst::Ret,
        17 => MInst::Out { rn: get_reg(d)? },
        18 => MInst::Halt,
        19 => MInst::Nop,
        20 => MInst::SAlu {
            op: get_salu_op(d)?,
            bd: get_slice(d)?,
            bn: get_slice(d)?,
            src2: get_slice_operand(d)?,
            speculative: d.bool()?,
        },
        21 => MInst::SCmp {
            bn: get_slice(d)?,
            src2: get_slice_operand(d)?,
        },
        22 => MInst::SLoadSpec {
            bd: get_slice(d)?,
            rn: get_reg(d)?,
            offset: i32::try_from(d.vi()?).map_err(|_| bad("offset overflow"))?,
        },
        23 => MInst::SLoadIdx {
            bd: get_slice(d)?,
            rn: get_reg(d)?,
            bidx: get_slice(d)?,
            shift: d.u8()?,
            speculative: d.bool()?,
        },
        24 => MInst::SLoad {
            bd: get_slice(d)?,
            rn: get_reg(d)?,
            offset: i32::try_from(d.vi()?).map_err(|_| bad("offset overflow"))?,
            spill: d.bool()?,
        },
        25 => MInst::SStore {
            bs: get_slice(d)?,
            rn: get_reg(d)?,
            offset: i32::try_from(d.vi()?).map_err(|_| bad("offset overflow"))?,
            spill: d.bool()?,
        },
        26 => MInst::SExtend {
            rd: get_reg(d)?,
            bn: get_slice(d)?,
            signed: d.bool()?,
        },
        27 => MInst::STrunc {
            bd: get_slice(d)?,
            rn: get_reg(d)?,
            speculative: d.bool()?,
        },
        28 => MInst::SMov {
            bd: get_slice(d)?,
            bs: get_slice(d)?,
        },
        29 => MInst::SMovImm {
            bd: get_slice(d)?,
            imm: d.u8()?,
        },
        30 => MInst::SetDelta { bytes: d.vu32()? },
        31 => MInst::SpecCheck { rn: get_reg(d)? },
        _ => return Err(bad("minst tag")),
    })
}

fn put_program(e: &mut Enc, p: &backend::Program) {
    // `addr_index` and `pre` are derived (HashMap iteration order would
    // break byte-stability); they are rebuilt on decode.
    let backend::Program {
        insts,
        addrs,
        entry,
        halt,
        func_entries,
        func_names,
        global_inits,
        mem_size,
        compact,
        addr_index: _,
        spec_targets,
        pre: _,
    } = p;
    e.vu(insts.len() as u64);
    for i in insts {
        put_minst(e, i);
    }
    e.vu(addrs.len() as u64);
    for a in addrs {
        e.vu(u64::from(*a));
    }
    e.vu(*entry as u64);
    e.vu(*halt as u64);
    e.vu(func_entries.len() as u64);
    for f in func_entries {
        e.vu(*f as u64);
    }
    e.vu(func_names.len() as u64);
    for n in func_names {
        e.str(n);
    }
    e.vu(global_inits.len() as u64);
    for (addr, bytes) in global_inits {
        e.vu(u64::from(*addr));
        e.bytes(bytes);
    }
    e.vu(u64::from(*mem_size));
    e.bool(*compact);
    e.vu(spec_targets.len() as u64);
    for (s, b, h) in spec_targets {
        e.vu(*s as u64);
        e.vu(*b as u64);
        e.vu(*h as u64);
    }
}

fn get_program(d: &mut Dec) -> Res<backend::Program> {
    let insts = dec_vec(d, get_minst)?;
    let addrs = dec_vec(d, |d| d.vu32())?;
    let entry = d.vusize()?;
    let halt = d.vusize()?;
    let func_entries = dec_vec(d, |d| d.vusize())?;
    let func_names = dec_vec(d, |d| d.str())?;
    let global_inits = dec_vec(d, |d| Ok((d.vu32()?, d.bytes()?)))?;
    let mem_size = d.vu32()?;
    let compact = d.bool()?;
    let spec_targets = dec_vec(d, |d| Ok((d.vusize()?, d.vusize()?, d.vusize()?)))?;
    if addrs.len() != insts.len() {
        return Err(bad("addrs/insts length mismatch"));
    }
    // Rebuild the derived tables exactly as `emit::link` does.
    let addr_index = addrs.iter().enumerate().map(|(i, a)| (*a, i)).collect();
    let pre = insts
        .iter()
        .map(|i| backend::PreInst::of(i, compact))
        .collect();
    Ok(backend::Program {
        insts,
        addrs,
        entry,
        halt,
        func_entries,
        func_names,
        global_inits,
        mem_size,
        compact,
        addr_index,
        spec_targets,
        pre,
    })
}

// ---------------------------------------------------------------------------
// Profiles, sim results
// ---------------------------------------------------------------------------

fn put_profile(e: &mut Enc, p: &Profile) {
    let funcs = p.raw();
    e.vu(funcs.len() as u64);
    for f in funcs {
        e.vu(f.len() as u64);
        for s in f {
            let VarStats {
                count,
                sum_bits,
                max_bits,
                min_bits,
            } = s;
            e.vu(*count);
            e.vu(*sum_bits);
            e.vu(u64::from(*max_bits));
            e.vu(u64::from(*min_bits));
        }
    }
}

fn get_profile(d: &mut Dec) -> Res<Profile> {
    let funcs = dec_vec(d, |d| {
        dec_vec(d, |d| {
            Ok(VarStats {
                count: d.vu()?,
                sum_bits: d.vu()?,
                max_bits: d.vu32()?,
                min_bits: d.vu32()?,
            })
        })
    })?;
    Ok(Profile::from_raw(funcs))
}

fn put_sim_result(e: &mut Enc, r: &SimResult) {
    let SimResult {
        outputs,
        cycles,
        counts,
        activity,
        energy,
    } = r;
    e.vu(outputs.len() as u64);
    for o in outputs {
        e.vu(u64::from(*o));
    }
    e.vu(*cycles);
    let Counts {
        dyn_insts,
        branches,
        taken_branches,
        misspecs,
        spill_loads,
        spill_stores,
        copies,
        loads,
        stores,
    } = counts;
    e.vu(*dyn_insts);
    e.vu(*branches);
    e.vu(*taken_branches);
    e.vu(*misspecs);
    e.vu(*spill_loads);
    e.vu(*spill_stores);
    e.vu(*copies);
    e.vu(*loads);
    e.vu(*stores);
    let sim::energy::Activity {
        alu_word_ops,
        alu_slice_ops,
        spec_monitored_ops,
        speccheck_ops,
        mul_ops,
        umull_ops,
        div_ops,
        extend_ops,
        rf_read_units,
        rf_write_units,
        reg_accesses_32,
        reg_accesses_8,
        fetch_slots,
        l1d_accesses,
        l2_accesses,
        dram_accesses,
        l2_from_i,
        dram_from_i,
        cycles: a_cycles,
        dts_core_scaled,
    } = activity;
    e.vu(*alu_word_ops);
    e.vu(*alu_slice_ops);
    e.vu(*spec_monitored_ops);
    e.vu(*speccheck_ops);
    e.vu(*mul_ops);
    e.vu(*umull_ops);
    e.vu(*div_ops);
    e.vu(*extend_ops);
    e.vu(*rf_read_units);
    e.vu(*rf_write_units);
    e.vu(*reg_accesses_32);
    e.vu(*reg_accesses_8);
    e.vu(*fetch_slots);
    e.vu(*l1d_accesses);
    e.vu(*l2_accesses);
    e.vu(*dram_accesses);
    e.vu(*l2_from_i);
    e.vu(*dram_from_i);
    e.vu(*a_cycles);
    e.f64(*dts_core_scaled);
    let sim::energy::EnergyBreakdown {
        alu,
        regfile,
        icache,
        dcache,
        pipeline,
    } = energy;
    e.f64(*alu);
    e.f64(*regfile);
    e.f64(*icache);
    e.f64(*dcache);
    e.f64(*pipeline);
}

fn get_sim_result(d: &mut Dec) -> Res<SimResult> {
    let outputs = dec_vec(d, |d| d.vu32())?;
    let cycles = d.vu()?;
    let counts = Counts {
        dyn_insts: d.vu()?,
        branches: d.vu()?,
        taken_branches: d.vu()?,
        misspecs: d.vu()?,
        spill_loads: d.vu()?,
        spill_stores: d.vu()?,
        copies: d.vu()?,
        loads: d.vu()?,
        stores: d.vu()?,
    };
    let activity = sim::energy::Activity {
        alu_word_ops: d.vu()?,
        alu_slice_ops: d.vu()?,
        spec_monitored_ops: d.vu()?,
        speccheck_ops: d.vu()?,
        mul_ops: d.vu()?,
        umull_ops: d.vu()?,
        div_ops: d.vu()?,
        extend_ops: d.vu()?,
        rf_read_units: d.vu()?,
        rf_write_units: d.vu()?,
        reg_accesses_32: d.vu()?,
        reg_accesses_8: d.vu()?,
        fetch_slots: d.vu()?,
        l1d_accesses: d.vu()?,
        l2_accesses: d.vu()?,
        dram_accesses: d.vu()?,
        l2_from_i: d.vu()?,
        dram_from_i: d.vu()?,
        cycles: d.vu()?,
        dts_core_scaled: d.f64()?,
    };
    let energy = sim::energy::EnergyBreakdown {
        alu: d.f64()?,
        regfile: d.f64()?,
        icache: d.f64()?,
        dcache: d.f64()?,
        pipeline: d.f64()?,
    };
    Ok(SimResult {
        outputs,
        cycles,
        counts,
        activity,
        energy,
    })
}

// ---------------------------------------------------------------------------
// Build configuration + Compiled
// ---------------------------------------------------------------------------

fn put_config(e: &mut Enc, c: &BuildConfig) {
    let BuildConfig {
        arch,
        heuristic,
        expander,
        compare_elim,
        bitmask_elision,
        spill_prefer_orig,
        dts,
        empirical_gate,
        verify_each,
        reference_profiler,
    } = c;
    e.u8(match arch {
        Arch::Baseline => 0,
        Arch::BitSpec => 1,
        Arch::NoSpec => 2,
        Arch::Compact => 3,
    });
    e.u8(match heuristic {
        Heuristic::Max => 0,
        Heuristic::Avg => 1,
        Heuristic::Min => 2,
    });
    let ExpanderConfig {
        unroll_factor,
        max_func_size,
        max_loop_size,
        enabled,
    } = expander;
    e.vu(u64::from(*unroll_factor));
    e.vu(*max_func_size as u64);
    e.vu(*max_loop_size as u64);
    e.bool(*enabled);
    e.bool(*compare_elim);
    e.bool(*bitmask_elision);
    e.bool(*spill_prefer_orig);
    e.bool(*dts);
    e.bool(*empirical_gate);
    e.bool(*verify_each);
    e.bool(*reference_profiler);
}

fn get_config(d: &mut Dec) -> Res<BuildConfig> {
    let arch = match d.u8()? {
        0 => Arch::Baseline,
        1 => Arch::BitSpec,
        2 => Arch::NoSpec,
        3 => Arch::Compact,
        _ => return Err(bad("arch tag")),
    };
    let heuristic = match d.u8()? {
        0 => Heuristic::Max,
        1 => Heuristic::Avg,
        2 => Heuristic::Min,
        _ => return Err(bad("heuristic tag")),
    };
    let expander = ExpanderConfig {
        unroll_factor: d.vu32()?,
        max_func_size: d.vusize()?,
        max_loop_size: d.vusize()?,
        enabled: d.bool()?,
    };
    Ok(BuildConfig {
        arch,
        heuristic,
        expander,
        compare_elim: d.bool()?,
        bitmask_elision: d.bool()?,
        spill_prefer_orig: d.bool()?,
        dts: d.bool()?,
        empirical_gate: d.bool()?,
        verify_each: d.bool()?,
        reference_profiler: d.bool()?,
    })
}

fn put_compiled(e: &mut Enc, c: &Compiled) {
    let Compiled {
        module,
        program,
        profile,
        squeeze,
        config,
        profile_dyn_insts,
        used_squeezed,
        stage_hits,
        trace,
    } = c;
    put_module(e, module);
    put_program(e, program);
    put_profile(e, profile);
    let SqueezeReport {
        narrowed,
        regions,
        spec_truncs,
        compares_eliminated,
        bitmasks_elided,
    } = squeeze;
    e.vu(*narrowed as u64);
    e.vu(*regions as u64);
    e.vu(*spec_truncs as u64);
    e.vu(*compares_eliminated as u64);
    e.vu(*bitmasks_elided as u64);
    put_config(e, config);
    e.vu(*profile_dyn_insts);
    e.bool(*used_squeezed);
    let StageHits {
        front,
        expand,
        profile: profile_hit,
        fn_hits,
        fn_total,
    } = stage_hits;
    e.bool(*front);
    e.bool(*expand);
    e.bool(*profile_hit);
    e.vu(u64::from(*fn_hits));
    e.vu(u64::from(*fn_total));
    put_traces(e, &trace.passes);
}

fn get_compiled(d: &mut Dec) -> Res<Compiled> {
    let module = Arc::new(get_module(d)?);
    let program = get_program(d)?;
    let profile = Arc::new(get_profile(d)?);
    let squeeze = SqueezeReport {
        narrowed: d.vusize()?,
        regions: d.vusize()?,
        spec_truncs: d.vusize()?,
        compares_eliminated: d.vusize()?,
        bitmasks_elided: d.vusize()?,
    };
    let config = get_config(d)?;
    let profile_dyn_insts = d.vu()?;
    let used_squeezed = d.bool()?;
    let stage_hits = StageHits {
        front: d.bool()?,
        expand: d.bool()?,
        profile: d.bool()?,
        fn_hits: d.vu32()?,
        fn_total: d.vu32()?,
    };
    let trace = BuildTrace {
        passes: get_traces(d)?,
    };
    Ok(Compiled {
        module,
        program,
        profile,
        squeeze,
        config,
        profile_dyn_insts,
        used_squeezed,
        stage_hits,
        trace,
    })
}

// ---------------------------------------------------------------------------
// Top-level artifact entry points
// ---------------------------------------------------------------------------

/// Encodes a [`Compiled`] artifact.
pub fn encode_compiled(c: &Compiled) -> Vec<u8> {
    let mut e = Enc::new();
    put_compiled(&mut e, c);
    e.into_bytes()
}

/// Decodes a [`Compiled`] artifact, rebuilding the derived program tables.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_compiled(bytes: &[u8]) -> Res<Compiled> {
    let mut d = Dec::new(bytes);
    let c = get_compiled(&mut d)?;
    d.finish()?;
    Ok(c)
}

/// Encodes a [`SimResult`].
pub fn encode_sim_result(r: &SimResult) -> Vec<u8> {
    let mut e = Enc::new();
    put_sim_result(&mut e, r);
    e.into_bytes()
}

/// Decodes a [`SimResult`].
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_sim_result(bytes: &[u8]) -> Res<SimResult> {
    let mut d = Dec::new(bytes);
    let r = get_sim_result(&mut d)?;
    d.finish()?;
    Ok(r)
}

/// Encodes one bench cell: a build artifact plus its evaluation-input
/// simulation result.
pub fn encode_cell(c: &Compiled, r: &SimResult) -> Vec<u8> {
    let mut e = Enc::new();
    put_compiled(&mut e, c);
    put_sim_result(&mut e, r);
    e.into_bytes()
}

/// Decodes one bench cell.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_cell(bytes: &[u8]) -> Res<(Compiled, SimResult)> {
    let mut d = Dec::new(bytes);
    let c = get_compiled(&mut d)?;
    let r = get_sim_result(&mut d)?;
    d.finish()?;
    Ok((c, r))
}

/// Encodes a stage-cache SIR artifact (frontend or expanded module).
pub fn encode_sir_stage(s: &SirStage) -> Vec<u8> {
    // `content` is derived from the module and recomputed on decode.
    let SirStage {
        module,
        traces,
        content: _,
    } = s;
    let mut e = Enc::new();
    put_module(&mut e, module);
    put_traces(&mut e, traces);
    e.into_bytes()
}

/// Decodes a stage-cache SIR artifact.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_sir_stage(bytes: &[u8]) -> Res<SirStage> {
    let mut d = Dec::new(bytes);
    let module = Arc::new(get_module(&mut d)?);
    let traces = get_traces(&mut d)?;
    d.finish()?;
    Ok(SirStage::new(module, traces))
}

/// Encodes a stage-cache profiling artifact.
pub fn encode_profile_data(p: &ProfileData) -> Vec<u8> {
    let ProfileData {
        profile,
        dyn_insts,
        traces,
    } = p;
    let mut e = Enc::new();
    put_profile(&mut e, profile);
    e.vu(*dyn_insts);
    put_traces(&mut e, traces);
    e.into_bytes()
}

/// Decodes a stage-cache profiling artifact.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_profile_data(bytes: &[u8]) -> Res<ProfileData> {
    let mut d = Dec::new(bytes);
    let profile = Arc::new(get_profile(&mut d)?);
    let dyn_insts = d.vu()?;
    let traces = get_traces(&mut d)?;
    d.finish()?;
    Ok(ProfileData {
        profile,
        dyn_insts,
        traces,
    })
}

/// Encodes the empirical gate's memoized reference leg.
pub fn encode_gate_ref(g: &GateRef) -> Vec<u8> {
    let GateRef {
        program,
        energy,
        traces,
    } = g;
    let mut e = Enc::new();
    put_program(&mut e, program);
    e.f64(*energy);
    put_traces(&mut e, traces);
    e.into_bytes()
}

/// Decodes the empirical gate's memoized reference leg.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_gate_ref(bytes: &[u8]) -> Res<GateRef> {
    let mut d = Dec::new(bytes);
    let program = get_program(&mut d)?;
    let energy = d.f64()?;
    let traces = get_traces(&mut d)?;
    d.finish()?;
    Ok(GateRef {
        program,
        energy,
        traces,
    })
}

fn put_fn_code(e: &mut Enc, c: &backend::emit::FnCode) {
    let backend::emit::FnCode {
        name,
        insts,
        fixups,
        block_starts,
        spec_pairs,
    } = c;
    e.str(name);
    e.vu(insts.len() as u64);
    for i in insts {
        put_minst(e, i);
    }
    e.vu(fixups.len() as u64);
    for (slot, f) in fixups {
        e.vu(*slot as u64);
        match f {
            backend::emit::FnFixup::Block(b) => {
                e.u8(0);
                e.vu(u64::from(b.0));
            }
            backend::emit::FnFixup::Func(fid) => {
                e.u8(1);
                e.vu(u64::from(fid.0));
            }
        }
    }
    e.vu(block_starts.len() as u64);
    for (b, i) in block_starts {
        e.vu(u64::from(b.0));
        e.vu(*i as u64);
    }
    e.vu(spec_pairs.len() as u64);
    for (spec, branch, handler) in spec_pairs {
        e.vu(*spec as u64);
        e.vu(*branch as u64);
        e.vu(u64::from(handler.0));
    }
}

fn get_fn_code(d: &mut Dec) -> Res<backend::emit::FnCode> {
    use backend::mir::MBlockId;
    Ok(backend::emit::FnCode {
        name: d.str()?,
        insts: dec_vec(d, get_minst)?,
        fixups: dec_vec(d, |d| {
            let slot = d.vusize()?;
            let f = match d.u8()? {
                0 => backend::emit::FnFixup::Block(MBlockId(d.vu32()?)),
                1 => backend::emit::FnFixup::Func(sir::FuncId(d.vu32()?)),
                _ => return Err(bad("bad FnFixup tag")),
            };
            Ok((slot, f))
        })?,
        block_starts: dec_vec(d, |d| Ok((MBlockId(d.vu32()?), d.vusize()?)))?,
        spec_pairs: dec_vec(d, |d| Ok((d.vusize()?, d.vusize()?, MBlockId(d.vu32()?))))?,
    })
}

/// Encodes a function-level codegen artifact (the `fnmir` store kind).
/// Only clean artifacts are published — verification accepted, no dump
/// payload — so diagnostics and dumps are not part of the format; the
/// verdict bools are carried for trace fidelity.
pub fn encode_fn_artifact(a: &backend::FnArtifact) -> Vec<u8> {
    let backend::FnArtifact {
        code,
        mid,
        alloc,
        t_isel,
        t_mirv,
        t_ra,
        t_rav,
        t_emit,
        mirv_ok,
        rav_ok,
        mirv_problems,
        rav_problems,
        isel_dump,
        ra_dump,
    } = a;
    debug_assert!(
        mirv_problems.is_empty()
            && rav_problems.is_empty()
            && isel_dump.is_none()
            && ra_dump.is_none(),
        "only clean fn artifacts are published"
    );
    let mut e = Enc::new();
    put_fn_code(&mut e, code);
    put_ir_stats(&mut e, mid);
    put_ir_stats(&mut e, alloc);
    e.vu(*t_isel);
    e.vu(*t_mirv);
    e.vu(*t_ra);
    e.vu(*t_rav);
    e.vu(*t_emit);
    e.bool(*mirv_ok);
    e.bool(*rav_ok);
    e.into_bytes()
}

/// Decodes a function-level codegen artifact.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_fn_artifact(bytes: &[u8]) -> Res<backend::FnArtifact> {
    let mut d = Dec::new(bytes);
    let code = get_fn_code(&mut d)?;
    let mid = get_ir_stats(&mut d)?;
    let alloc = get_ir_stats(&mut d)?;
    let t_isel = d.vu()?;
    let t_mirv = d.vu()?;
    let t_ra = d.vu()?;
    let t_rav = d.vu()?;
    let t_emit = d.vu()?;
    let mirv_ok = d.bool()?;
    let rav_ok = d.bool()?;
    d.finish()?;
    Ok(backend::FnArtifact {
        code,
        mid,
        alloc,
        t_isel,
        t_mirv,
        t_ra,
        t_rav,
        t_emit,
        mirv_ok,
        rav_ok,
        mirv_problems: Vec::new(),
        rav_problems: Vec::new(),
        isel_dump: None,
        ra_dump: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut e = Enc::new();
            e.vu(x);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(d.vu().unwrap(), x);
            d.finish().unwrap();
        }
        for x in [0i64, -1, 1, -64, 63, i32::MIN as i64, i64::MAX, i64::MIN] {
            let mut e = Enc::new();
            e.vi(x);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(d.vi().unwrap(), x);
        }
    }

    #[test]
    fn float_bits_roundtrip() {
        for x in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, 1e300, -7.25] {
            let mut e = Enc::new();
            e.f64(x);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(d.f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut e = Enc::new();
        e.str("hello");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..bytes.len() - 1]);
        assert!(d.str().is_err());
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut e = Enc::new();
        e.vu(7);
        let mut bytes = e.into_bytes();
        bytes.push(0);
        let mut d = Dec::new(&bytes);
        d.vu().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn compiled_roundtrip_is_byte_stable() {
        let w = crate::Workload::from_source(
            "wire-roundtrip",
            "void main() { u32 s = 0; for (u32 i = 0; i < 50; i++) { s += i & 7; } out(s); }",
        );
        let c = crate::build(&w, &crate::BuildConfig::bitspec()).unwrap();
        let r = crate::simulate(&c, &w).unwrap();
        let bytes = encode_cell(&c, &r);
        let (c2, r2) = decode_cell(&bytes).unwrap();
        // Bit-identical re-encode (round-trip stability).
        assert_eq!(encode_cell(&c2, &r2), bytes);
        // Fingerprint-stable program and identical observable results.
        assert_eq!(
            backend::program_fingerprint(&c2.program),
            backend::program_fingerprint(&c.program)
        );
        assert_eq!(r2.outputs, r.outputs);
        assert_eq!(r2.cycles, r.cycles);
        assert_eq!(*c2.profile, *c.profile);
        // The derived tables were rebuilt, not copied.
        assert_eq!(c2.program.addr_index, c.program.addr_index);
        assert_eq!(c2.program.pre, c.program.pre);
    }

    #[test]
    fn corrupt_tag_is_detected() {
        let w = crate::Workload::from_source("wire-corrupt", "void main() { out(3); }");
        let c = crate::build(&w, &crate::BuildConfig::baseline()).unwrap();
        let bytes = encode_compiled(&c);
        let mut bad = bytes.clone();
        // Stomp a byte somewhere in the middle: either a decode error or a
        // changed artifact, never a silent panic.
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let _ = decode_compiled(&bad);
        // Truncation is always an error.
        assert!(decode_compiled(&bytes[..bytes.len() - 1]).is_err());
    }
}
