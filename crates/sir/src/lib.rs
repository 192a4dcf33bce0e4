//! # SIR — Speculative Intermediate Representation
//!
//! The compiler IR for the BITSPEC reproduction (§3.1 of the paper). SIR is a
//! typed, SSA-form integer IR modelled on LLVM IR, extended with
//! *speculative regions*: single-entry single-exit sequences of basic blocks
//! that carry a *handler* block invoked if and only if an instruction inside
//! the region misspeculates.
//!
//! The crate provides:
//!
//! * the IR data structures ([`Module`], [`Function`], [`Inst`], …),
//! * a convenient [`builder::FunctionBuilder`],
//! * CFG analyses (predecessors/successors, [`dom`]inators, [`liveness`],
//!   natural [`loops`]),
//! * a structural + semantic [`verify`]er that also checks the speculative
//!   region well-formedness rules of §3.1.1 (including Theorem 3.1),
//! * a human-readable [printer](mod@print) used by tests and debugging, and
//! * the [`pass`] infrastructure shared by every pipeline layer: the
//!   [`pass::SirPass`] trait, the instrumenting [`pass::Tracer`]
//!   (per-pass wall time, IR deltas, fingerprints, print-after dumps,
//!   post-pass verification policy) and structural IR fingerprints.
//!
//! ```
//! use sir::builder::FunctionBuilder;
//! use sir::{Module, Width, BinOp};
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("add1", vec![Width::W32], Some(Width::W32));
//! let x = b.param(0);
//! let one = b.iconst(Width::W32, 1);
//! let y = b.bin(BinOp::Add, Width::W32, x, one);
//! b.ret(Some(y));
//! m.add_function(b.finish());
//! assert!(sir::verify::verify_module(&m).is_ok());
//! ```

pub mod bitlint;
pub mod bitset;
pub mod builder;
pub mod dataflow;
pub mod diag;
pub mod dom;
pub mod func;
pub mod inst;
pub mod liveness;
pub mod loops;
pub mod module;
pub mod pass;
pub mod print;
pub mod types;
pub mod verify;

pub use diag::Diag;
pub use func::{Block, Function, Region};
pub use inst::{BinOp, Cc, Inst, Terminator};
pub use module::{Global, Module};
pub use types::{BlockId, FuncId, GlobalId, RegionId, ValueId, Width};
