//! Compact deterministic binary serialization for build artifacts.
//!
//! The persistent artifact store ([`crate::store`]) needs stable bytes:
//! two processes encoding the same artifact must produce identical
//! payloads, and `encode(decode(bytes)) == bytes` must hold so artifacts
//! can be republished without churn. The workspace is std-only, so this
//! is a hand-rolled codec over one trait, [`Wire`], whose bytes follow
//! the Rust type of each field:
//! * `u8` is one raw byte, `bool` one byte (0/1);
//! * `u32`, `u64` and `usize` are LEB128 varints, `i32` a zigzag varint;
//! * `f64` is its 8 `to_bits` bytes, little-endian (bit-exact);
//! * `String` and `Vec<T>` are a varint length, then the bytes or elements;
//! * `Option<T>` is a 0/1 tag then the value, tuples are their fields in
//!   order, `Arc<T>` is `T`, and an enum is a one-byte tag then its fields.
//!
//! Determinism rules:
//! * Struct fields are encoded in the order `wire_struct!` lists them,
//!   via *exhaustive destructuring* — adding a field without deciding how
//!   it serializes is a compile error, not a silently stale store. Each
//!   enum's tag table is one `wire_enum!` list that drives both
//!   directions.
//! * Nothing derived from a `HashMap` is ever written. The two derived
//!   fields of [`backend::Program`] (`addr_index`, `pre`) are rebuilt on
//!   decode exactly as `emit::link` builds them.
//! * Decoding is canonical and never panics: it validates every enum tag,
//!   register and id range, rejects overlong varints, bounds every length
//!   prefix by the bytes left, and checks the payload is fully consumed.
//!   Any accepted payload re-encodes to exactly itself; anything else is a
//!   [`WireError`], which the store treats as a corrupt entry (recompute +
//!   rewrite).

use crate::stages::StageHits;
use crate::{Arch, BuildConfig, BuildTrace, Compiled, Manifest, SimResult};
use backend::Program;
use interp::profile::VarStats;
use interp::{Heuristic, Profile};
use isa::inst::SAluOp;
use isa::{AluOp, Cond, MInst, MemWidth, Operand, Reg, Slice, SliceOperand};
use opt::{ExpanderConfig, SqueezeReport};
use sim::energy::{Activity, EnergyBreakdown};
use sim::machine::Counts;
use sir::pass::{IrStats, PassTrace};
use sir::{
    BinOp, Block, BlockId, Cc, FuncId, Function, Global, GlobalId, Inst, Module, Region, RegionId,
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

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
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

    /// LEB128 unsigned varint, canonical only: an overlong encoding (a
    /// zero final byte after the first) would not re-encode to itself.
    #[inline]
    pub fn vu(&mut self) -> Res<u64> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.vu_multi(),
        }
    }

    fn vu_multi(&mut self) -> Res<u64> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(bad("varint overflow"));
            }
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(bad("overlong varint"));
                }
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
        if self.remaining() < 8 {
            return Err(bad("eof in f64"));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    pub fn bytes(&mut self) -> Res<Vec<u8>> {
        let n = self.vu()?;
        if n > self.remaining() as u64 {
            return Err(bad("eof in bytes"));
        }
        let n = n as usize;
        let v = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(v)
    }

    pub fn str(&mut self) -> Res<String> {
        String::from_utf8(self.bytes()?).map_err(|_| bad("invalid utf-8"))
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

// ---------------------------------------------------------------------------
// The trait, its entry points and the declaration macros
// ---------------------------------------------------------------------------

/// A type with one deterministic byte encoding.
pub trait Wire: Sized {
    fn put(&self, e: &mut Enc);
    /// # Errors
    /// Returns a [`WireError`] on truncation, a bad tag or an out-of-range
    /// value.
    fn get(d: &mut Dec) -> Res<Self>;
}

/// Encodes one artifact.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.put(&mut e);
    e.into_bytes()
}

/// Decodes one artifact from a whole payload.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags, out-of-range values
/// or trailing bytes.
pub fn decode<T: Wire>(bytes: &[u8]) -> Res<T> {
    let mut d = Dec::new(bytes);
    let v = T::get(&mut d)?;
    d.finish()?;
    Ok(v)
}

/// Encodes one bench cell: a build artifact plus its evaluation-input
/// simulation result (the `(Compiled, SimResult)` encoding, without
/// cloning either half).
pub fn encode_cell(c: &Compiled, r: &SimResult) -> Vec<u8> {
    let mut e = Enc::new();
    c.put(&mut e);
    r.put(&mut e);
    e.into_bytes()
}

/// Decodes one bench cell.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad tags or trailing bytes.
pub fn decode_cell(bytes: &[u8]) -> Res<(Compiled, SimResult)> {
    decode(bytes)
}

#[inline]
fn dec_vec<T>(d: &mut Dec, mut get: impl FnMut(&mut Dec) -> Res<T>) -> Res<Vec<T>> {
    let n = d.vu()?;
    // Every element takes at least one byte, so a length beyond the bytes
    // left is a corrupt prefix; this also bounds the allocation.
    if n > d.remaining() as u64 {
        return Err(bad("vec length exceeds payload"));
    }
    let mut v = Vec::with_capacity(n as usize);
    for _ in 0..n {
        v.push(get(d)?);
    }
    Ok(v)
}

/// `Wire` for `u32` id newtypes: the id as a varint.
macro_rules! wire_id {
    ($($ty:ident),* $(,)?) => { $(
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Enc) {
                self.0.put(e);
            }
            #[inline]
            fn get(d: &mut Dec) -> Res<Self> {
                u32::get(d).map($ty)
            }
        }
    )* };
}

/// `Wire` for structs: the listed fields, in list order. The list must
/// name every field (the destructuring has no `..`).
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident),* $(,)? })*) => { $(
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Enc) {
                let $ty { $($f),* } = self;
                $($f.put(e);)*
            }
            #[inline]
            fn get(d: &mut Dec) -> Res<Self> {
                $(let $f = Wire::get(d)?;)*
                Ok($ty { $($f),* })
            }
        }
    )* };
}

/// `Wire` for enums: one tag list drives both directions. Each entry is
/// `tag Variant`, `tag Variant { fields }` or `tag Variant(fields)`, the
/// fields encoded in list order after the tag byte.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal $var:ident $({ $($f:ident),* $(,)? })? $(( $($t:ident),* ))?),* $(,)?
    }) => {
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Enc) {
                match self {
                    $(Self::$var $({ $($f),* })? $(( $($t),* ))? => {
                        e.u8($tag);
                        $($($f.put(e);)*)?
                        $($($t.put(e);)*)?
                    })*
                }
            }
            #[inline]
            fn get(d: &mut Dec) -> Res<Self> {
                Ok(match d.u8()? {
                    $($tag => {
                        $($(let $f = Wire::get(d)?;)*)?
                        $($(let $t = Wire::get(d)?;)*)?
                        Self::$var $({ $($f),* })? $(( $($t),* ))?
                    })*
                    _ => return Err(bad(concat!($what, " tag"))),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------------

impl Wire for u8 {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.u8(*self);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        d.u8()
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.bool(*self);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        d.bool()
    }
}

impl Wire for u64 {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.vu(*self);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        d.vu()
    }
}

impl Wire for u32 {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.vu(u64::from(*self));
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        u32::try_from(d.vu()?).map_err(|_| bad("u32 overflow"))
    }
}

impl Wire for usize {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.vu(*self as u64);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        usize::try_from(d.vu()?).map_err(|_| bad("usize overflow"))
    }
}

impl Wire for i32 {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.vi(i64::from(*self));
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        i32::try_from(d.vi()?).map_err(|_| bad("i32 overflow"))
    }
}

impl Wire for f64 {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.f64(*self);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        d.f64()
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        d.str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.vu(self.len() as u64);
        for x in self {
            x.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        dec_vec(d, T::get)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(x) => {
                e.u8(1);
                x.put(e);
            }
        }
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            _ => Err(bad("option tag")),
        }
    }
}

impl<T: Wire> Wire for Arc<T> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        T::get(d).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
        self.2.put(e);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        Ok((A::get(d)?, B::get(d)?, C::get(d)?))
    }
}

// ---------------------------------------------------------------------------
// SIR
// ---------------------------------------------------------------------------

wire_id!(ValueId, BlockId, FuncId, GlobalId, RegionId);

wire_enum!(Width, "width" { 0 W1, 1 W8, 2 W16, 3 W32, 4 W64 });

wire_enum!(BinOp, "binop" {
    0 Add, 1 Sub, 2 Mul, 3 Udiv, 4 Urem, 5 Sdiv, 6 Srem,
    7 And, 8 Or, 9 Xor, 10 Shl, 11 Lshr, 12 Ashr,
});

wire_enum!(Cc, "cc" {
    0 Eq, 1 Ne, 2 Ult, 3 Ule, 4 Ugt, 5 Uge, 6 Slt, 7 Sle, 8 Sgt, 9 Sge,
});

wire_enum!(Inst, "inst" {
    0 Param { index, width },
    1 Const { width, value },
    2 GlobalAddr { global },
    3 Alloca { size },
    4 Bin { op, width, lhs, rhs, speculative },
    5 Icmp { cc, width, lhs, rhs },
    6 Zext { to, arg },
    7 Sext { to, arg },
    8 Trunc { to, arg, speculative },
    9 Load { width, addr, volatile, speculative },
    10 Store { width, addr, value, volatile },
    11 Select { width, cond, tval, fval },
    12 Call { callee, args, ret },
    13 Phi { width, incomings },
    14 Output { value },
});

wire_enum!(Terminator, "terminator" {
    0 Br(target),
    1 CondBr { cond, if_true, if_false },
    2 Ret(value),
    3 Unreachable,
});

wire_struct! {
    Function { name, params, ret, insts, blocks, regions, entry }
    Block { insts, term, region, handler_for }
    Region { blocks, handler }
    Global { name, size, init, align }
}

impl Wire for Module {
    fn put(&self, e: &mut Enc) {
        let Module {
            name,
            funcs,
            globals,
        } = self;
        name.put(e);
        funcs.put(e);
        globals.put(e);
    }

    fn get(d: &mut Dec) -> Res<Self> {
        let name = Wire::get(d)?;
        // Each function is checked while it is still hot in cache; its
        // callee and global ids once the module's counts are known.
        let (mut callees, mut globals_used) = (0, 0);
        let funcs = dec_vec(d, |d| {
            let f = Function::get(d)?;
            let (c, g) = check_ids(&f)?;
            callees = callees.max(c);
            globals_used = globals_used.max(g);
            Ok(f)
        })?;
        let globals: Vec<Global> = Wire::get(d)?;
        if callees > funcs.len() || globals_used > globals.len() {
            return Err(bad("id out of range"));
        }
        Ok(Module {
            name,
            funcs,
            globals,
        })
    }
}

/// Rejects a decoded function that holds an out-of-range value, block or
/// region id (or entry block): every IR walk indexes its arenas by these
/// ids and would panic on a dangling one. Returns how many functions and
/// globals its callee and global ids need the module to have.
fn check_ids(f: &Function) -> Res<(usize, usize)> {
    let in_range = |id: u32, n: usize| (id as usize) < n;
    let (nv, nb, nr) = (f.insts.len(), f.blocks.len(), f.regions.len());
    let (mut callees, mut globals) = (0, 0);
    let mut ok = in_range(f.entry.0, nb);
    for i in &f.insts {
        i.for_each_operand(|v| ok &= in_range(v.0, nv));
        match i {
            Inst::Phi { incomings, .. } => {
                ok &= incomings.iter().all(|(b, _)| in_range(b.0, nb));
            }
            Inst::Call { callee, .. } => callees = callees.max(callee.0 as usize + 1),
            Inst::GlobalAddr { global } => globals = globals.max(global.0 as usize + 1),
            _ => {}
        }
    }
    for b in &f.blocks {
        ok &= b.insts.iter().all(|v| in_range(v.0, nv));
        b.term.for_each_operand(|v| ok &= in_range(v.0, nv));
        ok &= b
            .term
            .successor_slots()
            .iter()
            .flatten()
            .all(|s| in_range(s.0, nb));
        ok &= [b.region, b.handler_for]
            .iter()
            .flatten()
            .all(|r| in_range(r.0, nr));
    }
    for r in &f.regions {
        ok &= in_range(r.handler.0, nb) && r.blocks.iter().all(|b| in_range(b.0, nb));
    }
    if ok {
        Ok((callees, globals))
    } else {
        Err(bad("id out of range"))
    }
}

// ---------------------------------------------------------------------------
// Pass traces
// ---------------------------------------------------------------------------

wire_struct! {
    IrStats { funcs, blocks, insts, regions, slices }
    PassTrace { name, wall_ns, before, after, fingerprint, cached, verified, dump }
    BuildTrace { passes }
}

// ---------------------------------------------------------------------------
// Machine instructions / programs
// ---------------------------------------------------------------------------

impl Wire for Reg {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.u8(self.0);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        match d.u8()? {
            n @ 0..=15 => Ok(Reg(n)),
            _ => Err(bad("register index")),
        }
    }
}

impl Wire for Slice {
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.reg.put(e);
        e.u8(self.byte);
    }
    #[inline]
    fn get(d: &mut Dec) -> Res<Self> {
        let reg = Reg::get(d)?;
        match d.u8()? {
            byte @ 0..=3 => Ok(Slice { reg, byte }),
            _ => Err(bad("slice byte index")),
        }
    }
}

wire_enum!(AluOp, "alu op" {
    0 Add, 1 Adds, 2 Adc, 3 Sub, 4 Subs, 5 Sbc, 6 Sbcs, 7 And,
    8 Orr, 9 Eor, 10 Lsl, 11 Lsr, 12 Asr, 13 Mul, 14 Udiv, 15 Sdiv,
});

wire_enum!(SAluOp, "slice alu op" {
    0 Add, 1 Sub, 2 And, 3 Orr, 4 Eor, 5 Lsl, 6 Lsr, 7 Asr,
});

wire_enum!(Cond, "cond" {
    0 Eq, 1 Ne, 2 Lo, 3 Ls, 4 Hi, 5 Hs, 6 Lt, 7 Le, 8 Gt, 9 Ge,
});

wire_enum!(MemWidth, "mem width" { 0 B, 1 H, 2 W });

wire_enum!(Operand, "operand" { 0 Reg(r), 1 Imm(x) });

wire_enum!(SliceOperand, "slice operand" { 0 Slice(s), 1 Imm(x) });

wire_enum!(MInst, "minst" {
    0 Alu { op, rd, rn, src2 },
    1 MovImm { rd, imm },
    2 Mov { rd, rm },
    3 Cmp { rn, src2 },
    4 CSet { rd, cond },
    5 MovCc { rd, rm, cond },
    6 Umull { rdlo, rdhi, rn, rm },
    7 Extend { rd, rm, from, signed },
    8 Load { rd, rn, offset, width, spill },
    9 LoadIdx { rd, rn, bidx, shift, width },
    10 Store { rs, rn, offset, width, spill },
    11 Push { regs },
    12 Pop { regs },
    13 B { target },
    14 Bc { cond, target },
    15 Bl { target },
    16 Ret,
    17 Out { rn },
    18 Halt,
    19 Nop,
    20 SAlu { op, bd, bn, src2, speculative },
    21 SCmp { bn, src2 },
    22 SLoadSpec { bd, rn, offset },
    23 SLoadIdx { bd, rn, bidx, shift, speculative },
    24 SLoad { bd, rn, offset, spill },
    25 SStore { bs, rn, offset, spill },
    26 SExtend { rd, bn, signed },
    27 STrunc { bd, rn, speculative },
    28 SMov { bd, bs },
    29 SMovImm { bd, imm },
    30 SetDelta { bytes },
    31 SpecCheck { rn },
});

impl Wire for Program {
    fn put(&self, e: &mut Enc) {
        // `addr_index` and `pre` are derived (HashMap iteration order would
        // break byte-stability); they are rebuilt on decode.
        let Program {
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
        } = self;
        insts.put(e);
        addrs.put(e);
        entry.put(e);
        halt.put(e);
        func_entries.put(e);
        func_names.put(e);
        global_inits.put(e);
        mem_size.put(e);
        compact.put(e);
        spec_targets.put(e);
    }

    fn get(d: &mut Dec) -> Res<Self> {
        let insts: Vec<MInst> = Wire::get(d)?;
        let addrs: Vec<u32> = Wire::get(d)?;
        let entry: usize = Wire::get(d)?;
        let halt: usize = Wire::get(d)?;
        let func_entries: Vec<usize> = Wire::get(d)?;
        let func_names = Wire::get(d)?;
        let global_inits = Wire::get(d)?;
        let mem_size = Wire::get(d)?;
        let compact = Wire::get(d)?;
        let spec_targets: Vec<(usize, usize, usize)> = Wire::get(d)?;
        if addrs.len() != insts.len() {
            return Err(bad("addrs/insts length mismatch"));
        }
        // Every control-flow index must name an instruction: the simulator
        // indexes `insts` with them unchecked.
        let branch_targets = insts.iter().filter_map(|i| match i {
            MInst::B { target } | MInst::Bc { target, .. } | MInst::Bl { target } => Some(*target),
            _ => None,
        });
        let in_range = [entry, halt]
            .into_iter()
            .chain(func_entries.iter().copied())
            .chain(branch_targets)
            .chain(spec_targets.iter().flat_map(|&(s, b, h)| [s, b, h]))
            .all(|i| i < insts.len());
        if !in_range {
            return Err(bad("control-flow index out of range"));
        }
        // Rebuild the derived tables exactly as `emit::link` does.
        let addr_index = addrs.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        let pre = insts
            .iter()
            .map(|i| backend::PreInst::of(i, compact))
            .collect();
        Ok(Program {
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
}

// ---------------------------------------------------------------------------
// Profiles, sim results
// ---------------------------------------------------------------------------

wire_struct! {
    VarStats { count, sum_bits, max_bits, min_bits }
}

impl Wire for Profile {
    fn put(&self, e: &mut Enc) {
        e.vu(self.raw().len() as u64);
        for f in self.raw() {
            f.put(e);
        }
    }

    fn get(d: &mut Dec) -> Res<Self> {
        dec_vec(d, Wire::get).map(Profile::from_raw)
    }
}

wire_struct! {
    SimResult { outputs, cycles, counts, activity, energy }
    Counts {
        dyn_insts, branches, taken_branches, misspecs, spill_loads, spill_stores, copies,
        loads, stores,
    }
    Activity {
        alu_word_ops, alu_slice_ops, spec_monitored_ops, speccheck_ops, mul_ops, umull_ops,
        div_ops, extend_ops, rf_read_units, rf_write_units, reg_accesses_32, reg_accesses_8,
        fetch_slots, l1d_accesses, l2_accesses, dram_accesses, l2_from_i, dram_from_i, cycles,
        dts_core_scaled,
    }
    EnergyBreakdown { alu, regfile, icache, dcache, pipeline }
}

// ---------------------------------------------------------------------------
// Build configuration + Compiled
// ---------------------------------------------------------------------------

wire_enum!(Arch, "arch" { 0 Baseline, 1 BitSpec, 2 NoSpec, 3 Compact });

wire_enum!(Heuristic, "heuristic" { 0 Max, 1 Avg, 2 Min });

wire_struct! {
    BuildConfig {
        arch, heuristic, expander, compare_elim, bitmask_elision, spill_prefer_orig, dts,
        empirical_gate, verify_each, reference_profiler,
    }
    ExpanderConfig { unroll_factor, max_func_size, max_loop_size, enabled }
    SqueezeReport { narrowed, regions, spec_truncs, compares_eliminated, bitmasks_elided }
    StageHits { front, expand, profile, fn_hits, fn_total }
    Compiled {
        module, program, profile, squeeze, config, profile_dyn_insts, used_squeezed,
        stage_hits, trace,
    }
    Manifest {
        config, used_squeezed, squeeze, profile_dyn_insts, stage_hits, trace, sim, program_fp,
    }
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
    fn overlong_varints_and_huge_lengths_are_errors() {
        // 0 and 127 padded with a zero continuation byte: decodable values,
        // but they would not re-encode to the same bytes.
        assert!(Dec::new(&[0x80, 0x00]).vu().is_err());
        assert!(Dec::new(&[0xff, 0x00]).vu().is_err());
        assert_eq!(Dec::new(&[0x80, 0x01]).vu(), Ok(128));
        // A length prefix near u64::MAX must not overflow the bounds check.
        let hostile = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert!(Dec::new(&hostile).bytes().is_err());
        assert!(decode::<Vec<u8>>(&hostile).is_err());
    }

    #[test]
    fn dangling_ids_are_errors() {
        let m = lang::compile(
            "wire-ids",
            "global u8 g[4]; u32 f(u32 x) { return x + g[1]; } void main() { out(f(3)); }",
        )
        .unwrap();
        let bytes = encode(&m);
        assert_eq!(encode(&decode::<Module>(&bytes).unwrap()), bytes);
        let f = m.funcs.iter().position(|f| f.name == "f").unwrap();
        let main = m.funcs.iter().position(|f| f.name == "main").unwrap();
        let find = |fi: usize, p: fn(&Inst) -> bool| m.funcs[fi].insts.iter().position(p).unwrap();
        let call = find(main, |i| matches!(i, Inst::Call { .. }));
        let gaddr = find(f, |i| matches!(i, Inst::GlobalAddr { .. }));
        let bin = find(f, |i| matches!(i, Inst::Bin { .. }));
        let plant: [&dyn Fn(&mut Module); 6] = [
            &|m| {
                m.funcs[main].insts[call] = Inst::Call {
                    callee: FuncId(m.funcs.len() as u32),
                    args: vec![],
                    ret: None,
                }
            },
            &|m| {
                m.funcs[f].insts[gaddr] = Inst::GlobalAddr {
                    global: GlobalId(m.globals.len() as u32),
                }
            },
            &|m| {
                let n = m.funcs[f].insts.len() as u32;
                if let Inst::Bin { rhs, .. } = &mut m.funcs[f].insts[bin] {
                    *rhs = ValueId(n);
                }
            },
            &|m| m.funcs[f].blocks[0].insts.push(ValueId(u32::MAX)),
            &|m| m.funcs[f].blocks[0].term = Terminator::Br(BlockId(99)),
            &|m| m.funcs[f].entry = BlockId(99),
        ];
        for (k, plant) in plant.iter().enumerate() {
            let mut bad = m.clone();
            plant(&mut bad);
            assert!(decode::<Module>(&encode(&bad)).is_err(), "plant {k}");
        }
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
        let bytes = encode(&c);
        let mut bad = bytes.clone();
        // Stomp a byte somewhere in the middle: either a decode error or a
        // changed artifact, never a silent panic.
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let _ = decode::<Compiled>(&bad);
        // Truncation is always an error.
        assert!(decode::<Compiled>(&bytes[..bytes.len() - 1]).is_err());
    }
}
