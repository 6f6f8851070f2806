//! The pre-decoded fast-path execution engine.
//!
//! [`crate::interp`] pays a real price for every executed bytecode:
//! it re-derives the handler address, rebuilds the dispatch and
//! per-op work [`InstrMix`](jem_energy::InstrMix)es, and walks all
//! instruction classes twice to charge them. None of that depends on
//! anything but the opcode, so this module performs a **one-time
//! translation** of a method's `Vec<Op>` into a flattened
//! [`DecodedMethod`] stream whose entries carry
//!
//! * a precompiled [`ChargeSeq`] index — the handler I-cache address
//!   and the folded instruction counts of
//!   `step + dispatch_mix + op_work_mix`, built once per VM by
//!   [`CostCache`];
//! * pre-resolved operands (validated local slots, callee arity for
//!   static calls);
//! * **fused superinstructions** for the hot op sequences the energy
//!   flamegraphs show (`Load+Load+IArith`, `IConst+IArith`,
//!   `Load+Store`, compare-and-branch, `Load+Load+ALoad`);
//! * a **monomorphic inline cache** per virtual call site.
//!
//! # Bit-exactness
//!
//! The fast path is *observationally identical* to the reference
//! interpreter: the simulated machine receives the same I-cache
//! accesses at the same addresses (a merged replay whose epoch memo
//! proves every fetch resident credits them as hits, see
//! [`jem_energy::cache`]), the same instruction and miss counts — the
//! machine derives instruction and DRAM energy from those counts, so
//! folding them is exact — the same step-budget increments at the
//! same points, and errors surface at the same execution points with
//! the same machine state. Fused
//! superinstructions replay each component's charge plan and budget
//! bump *before* executing the combined semantics; this is safe
//! because every non-final component (loads, constants) is
//! side-effect-free and infallible once its local slot has been
//! validated at decode time. `crates/jvm/tests/fastpath_equiv.rs`
//! enforces the equivalence property across randomized programs.
//!
//! # Caching
//!
//! Decoded code is a **derived artifact**: keyed by
//! [`MethodId`], rebuilt on demand, never serialized. Checkpoint
//! snapshots (`jem_core::ckpt`) therefore need no format change, and a
//! resumed run with a cold decode cache is bit-identical to the warm
//! uninterrupted run.

use crate::arith;
use crate::bytecode::{ClassId, Cond, FBin, IBin, MethodId, Op};
use crate::class::Method;
use crate::costs;
use crate::value::{Type, Value};
use crate::vm::Vm;
use crate::VmError;
use jem_energy::{ChargeSeq, InstrClass, MemOp};
use std::cell::Cell;

/// Number of distinct interpreter handlers (dense opcode indices).
pub const NUM_HANDLERS: usize = 43;

/// Plan indices (== [`costs`] opcode indices) for the handlers the
/// decoded engine references directly.
const P_ICONST: usize = 0;
const P_FCONST: usize = 1;
const P_NULLCONST: usize = 2;
const P_LOAD: usize = 3;
const P_STORE: usize = 4;
const P_POP: usize = 5;
const P_DUP: usize = 6;
const P_SWAP: usize = 7;
const P_IARITH: usize = 8; // + ibin index, 8..=17
const P_INEG: usize = 18;
const P_ICMP: usize = 19;
const P_FARITH: usize = 20;
const P_FNEG: usize = 24;
const P_FCMP: usize = 25;
const P_I2F: usize = 26;
const P_F2I: usize = 27;
const P_GOTO: usize = 28;
const P_ICMPBR: usize = 29;
const P_BRZ: usize = 30;
const P_NEWARR: usize = 31;
const P_ALOAD: usize = 32;
const P_ASTORE: usize = 33;
const P_ARRLEN: usize = 34;
const P_NEW: usize = 35;
const P_GETFIELD: usize = 36;
const P_PUTFIELD: usize = 37;
const P_CALL: usize = 38;
const P_CALLVIRT: usize = 39;
const P_RET: usize = 40;
const P_RETVAL: usize = 41;
const P_NOP: usize = 42;

/// Simulated address of the second fetch heap-op handlers issue (the
/// element/field touch), mirroring `handler_address(op) + 4`.
const fn aux_pc(plan_idx: usize) -> u64 {
    costs::INTERP_CODE_BASE + plan_idx as u64 * costs::HANDLER_STRIDE + 4
}

/// One precompiled [`ChargeSeq`] per interpreter handler plus merged
/// seqs — the cached cost mixes — for every fused superinstruction
/// shape. A handler's seq folds the handler fetch, the dispatch mix and
/// the per-op work mix of [`crate::costs`] — the three charges the
/// reference interpreter recomputes on every executed bytecode; a
/// merged seq folds the whole fused sequence's dispatches into one
/// replay.
#[derive(Debug)]
pub struct CostCache {
    plans: [ChargeSeq; NUM_HANDLERS],
    /// `Load; Load; IArith op` merged, indexed by `IBin`.
    ll_iarith: [ChargeSeq; 10],
    /// `Load; IConst; IArith op` merged, indexed by `IBin`.
    lic_iarith: [ChargeSeq; 10],
    /// `Load; IArith op` merged, indexed by `IBin`.
    l_iarith: [ChargeSeq; 10],
    /// `IConst; IArith op` merged, indexed by `IBin`.
    ic_iarith: [ChargeSeq; 10],
    /// `Load; Store` merged.
    load_store: ChargeSeq,
    /// `IConst; Store` merged.
    iconst_store: ChargeSeq,
    /// `Load; Load; ICmpBr` merged.
    ll_icmpbr: ChargeSeq,
    /// `Load; IConst; ICmpBr` merged.
    lic_icmpbr: ChargeSeq,
    /// `Load; Load; ALoad` merged.
    ll_aload: ChargeSeq,
}

impl Default for CostCache {
    /// Build the per-handler plans and merged seqs.
    fn default() -> Self {
        let rep = representative_ops();
        let plans: [ChargeSeq; NUM_HANDLERS] = std::array::from_fn(|i| {
            let op = &rep[i];
            debug_assert!(costs::opcode_index(op) as usize == i || matches!(op, Op::FArith(_)));
            ChargeSeq::compile(
                costs::INTERP_CODE_BASE + i as u64 * costs::HANDLER_STRIDE,
                InstrClass::Branch,
                &[costs::dispatch_mix(), costs::op_work_mix(op)],
            )
        });
        let m2 = |i: usize, j: usize| ChargeSeq::merge(&[&plans[i], &plans[j]]);
        let m3 =
            |i: usize, j: usize, k: usize| ChargeSeq::merge(&[&plans[i], &plans[j], &plans[k]]);
        CostCache {
            ll_iarith: std::array::from_fn(|i| m3(P_LOAD, P_LOAD, P_IARITH + i)),
            lic_iarith: std::array::from_fn(|i| m3(P_LOAD, P_ICONST, P_IARITH + i)),
            l_iarith: std::array::from_fn(|i| m2(P_LOAD, P_IARITH + i)),
            ic_iarith: std::array::from_fn(|i| m2(P_ICONST, P_IARITH + i)),
            load_store: m2(P_LOAD, P_STORE),
            iconst_store: m2(P_ICONST, P_STORE),
            ll_icmpbr: m3(P_LOAD, P_LOAD, P_ICMPBR),
            lic_icmpbr: m3(P_LOAD, P_ICONST, P_ICMPBR),
            ll_aload: m3(P_LOAD, P_LOAD, P_ALOAD),
            plans,
        }
    }
}

impl CostCache {
    /// The plan for handler index `idx`.
    #[inline]
    pub fn plan(&self, idx: usize) -> &ChargeSeq {
        &self.plans[idx]
    }
}

/// One op with each dense opcode index (indices 21–23 are unassigned
/// gaps in the handler layout and reuse the `FArith` shape, which owns
/// index 20 for all four float operators).
fn representative_ops() -> [Op; NUM_HANDLERS] {
    [
        Op::IConst(0),
        Op::FConst(0.0),
        Op::NullConst,
        Op::Load(0),
        Op::Store(0),
        Op::Pop,
        Op::Dup,
        Op::Swap,
        Op::IArith(IBin::Add),
        Op::IArith(IBin::Sub),
        Op::IArith(IBin::Mul),
        Op::IArith(IBin::Div),
        Op::IArith(IBin::Rem),
        Op::IArith(IBin::And),
        Op::IArith(IBin::Or),
        Op::IArith(IBin::Xor),
        Op::IArith(IBin::Shl),
        Op::IArith(IBin::Shr),
        Op::INeg,
        Op::ICmp,
        Op::FArith(FBin::Add),
        Op::FArith(FBin::Sub), // gap: same handler shape as 20
        Op::FArith(FBin::Mul), // gap
        Op::FArith(FBin::Div), // gap
        Op::FNeg,
        Op::FCmp,
        Op::I2F,
        Op::F2I,
        Op::Goto(0),
        Op::ICmpBr(Cond::Eq, 0),
        Op::BrZ(Cond::Eq, 0),
        Op::NewArr(Type::Int),
        Op::ALoad(Type::Int),
        Op::AStore(Type::Int),
        Op::ArrLen,
        Op::New(ClassId(0)),
        Op::GetField(0, Type::Int),
        Op::PutField(0),
        Op::Call(MethodId(0)),
        Op::CallVirt { slot: 0, argc: 0 },
        Op::Ret,
        Op::RetVal,
        Op::Nop,
    ]
}

/// Plan index for an integer-arithmetic handler.
#[inline]
const fn iarith_plan(b: IBin) -> usize {
    P_IARITH
        + match b {
            IBin::Add => 0,
            IBin::Sub => 1,
            IBin::Mul => 2,
            IBin::Div => 3,
            IBin::Rem => 4,
            IBin::And => 5,
            IBin::Or => 6,
            IBin::Xor => 7,
            IBin::Shl => 8,
            IBin::Shr => 9,
        }
}

/// Inline-cache cell of one virtual call site: `(receiver class,
/// resolved target)`. [`IC_EMPTY`] marks a cold site.
type InlineCache = Cell<(u32, MethodId)>;

const IC_EMPTY: (u32, MethodId) = (u32::MAX, MethodId(0));

/// One decoded instruction.
///
/// Plain variants mirror [`Op`] with operands pre-resolved; fused
/// variants execute a whole hot sequence in one dispatch. Local-slot
/// operands of plain `Load`/`Store` and of every fused variant are
/// validated against `nlocals` at decode time; out-of-range slots
/// decode to `BadLoad`/`BadStore`, which charge and then fail exactly
/// like the reference interpreter.
#[derive(Debug)]
pub enum DOp {
    /// Push an integer constant.
    IConst(i32),
    /// Push a float constant.
    FConst(f64),
    /// Push `null`.
    NullConst,
    /// Push local `n` (slot validated at decode time).
    Load(u16),
    /// Pop into local `n` (slot validated at decode time).
    Store(u16),
    /// `Load` with an out-of-range slot: charge, then `BadLocal`.
    BadLoad(u16),
    /// `Store` with an out-of-range slot: charge, pop, then `BadLocal`.
    BadStore(u16),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the two topmost values.
    Swap,
    /// Pop two ints, push the binary result.
    IArith(IBin),
    /// Negate the top int.
    INeg,
    /// Pop two ints, push the comparison result.
    ICmp,
    /// Pop two floats, push the binary result.
    FArith(FBin),
    /// Negate the top float.
    FNeg,
    /// Pop two floats, push the comparison result.
    FCmp,
    /// int → float.
    I2F,
    /// float → int.
    F2I,
    /// Unconditional jump.
    Goto(u32),
    /// Pop two ints, conditional jump.
    ICmpBr(Cond, u32),
    /// Pop one int, compare against zero, conditional jump.
    BrZ(Cond, u32),
    /// Pop length, allocate an array, push its reference.
    NewArr(Type),
    /// Pop index and array ref, push the element.
    ALoad,
    /// Pop value, index and array ref; store the element.
    AStore,
    /// Pop array ref, push its length.
    ArrLen,
    /// Allocate an instance, push its reference.
    New(ClassId),
    /// Pop object ref, push field `n`.
    GetField(u16),
    /// Pop value and object ref; store into field `n`.
    PutField(u16),
    /// Static call with the callee's arity pre-resolved.
    Call {
        /// Callee.
        target: MethodId,
        /// Pre-resolved argument count.
        nargs: u32,
    },
    /// Virtual call with a monomorphic inline cache.
    CallVirt {
        /// Vtable slot.
        slot: u16,
        /// Non-receiver argument count.
        argc: u8,
        /// `(class, target)` of the last dispatch from this site.
        ic: InlineCache,
    },
    /// Return with no value.
    Ret,
    /// Return the top of stack.
    RetVal,
    /// No-op.
    Nop,

    // ---- fused superinstructions ----
    /// `Load a; Load b; IArith op`.
    LoadLoadIArith(u16, u16, IBin),
    /// `Load a; IConst k; IArith op`.
    LoadIConstIArith(u16, i32, IBin),
    /// `Load b; IArith op` (left operand already on the stack).
    LoadIArith(u16, IBin),
    /// `IConst k; IArith op` (left operand already on the stack).
    IConstIArith(i32, IBin),
    /// `Load src; Store dst` (local-to-local move).
    LoadStore(u16, u16),
    /// `IConst k; Store dst` (constant into a local).
    IConstStore(i32, u16),
    /// `Load a; Load b; ICmpBr cond, t`.
    LoadLoadICmpBr(u16, u16, Cond, u32),
    /// `Load a; IConst k; ICmpBr cond, t`.
    LoadIConstICmpBr(u16, i32, Cond, u32),
    /// `Load arr; Load idx; ALoad` (array element read).
    LoadLoadALoad(u16, u16),
}

/// One decoded slot: the operation plus how many original bytecode
/// slots it spans (1 for plain ops, 2–3 for superinstructions).
#[derive(Debug)]
pub struct DecodedOp {
    /// The decoded operation.
    pub op: DOp,
    /// Original slots consumed (fall-through advance).
    pub len: u8,
}

/// A method translated for the fast path. Slots map 1:1 onto the
/// original bytecode indices, so branch targets need no relocation;
/// the interior slots of a fused sequence are kept in plain decoded
/// form but are unreachable (fusion never spans a branch target).
#[derive(Debug)]
pub struct DecodedMethod {
    /// Decoded code, index-compatible with the original `Vec<Op>`.
    pub ops: Vec<DecodedOp>,
    /// Local-variable slots.
    pub nlocals: u16,
    /// Whether the signature declares a return value.
    pub ret_is_some: bool,
}

/// Plain (unfused) decoding of one op.
fn decode_plain(op: &Op, nlocals: u16) -> DOp {
    match *op {
        Op::IConst(v) => DOp::IConst(v),
        Op::FConst(v) => DOp::FConst(v),
        Op::NullConst => DOp::NullConst,
        Op::Load(n) => {
            if n < nlocals {
                DOp::Load(n)
            } else {
                DOp::BadLoad(n)
            }
        }
        Op::Store(n) => {
            if n < nlocals {
                DOp::Store(n)
            } else {
                DOp::BadStore(n)
            }
        }
        Op::Pop => DOp::Pop,
        Op::Dup => DOp::Dup,
        Op::Swap => DOp::Swap,
        Op::IArith(b) => DOp::IArith(b),
        Op::INeg => DOp::INeg,
        Op::ICmp => DOp::ICmp,
        Op::FArith(b) => DOp::FArith(b),
        Op::FNeg => DOp::FNeg,
        Op::FCmp => DOp::FCmp,
        Op::I2F => DOp::I2F,
        Op::F2I => DOp::F2I,
        Op::Goto(t) => DOp::Goto(t),
        Op::ICmpBr(c, t) => DOp::ICmpBr(c, t),
        Op::BrZ(c, t) => DOp::BrZ(c, t),
        Op::NewArr(ty) => DOp::NewArr(ty),
        Op::ALoad(_) => DOp::ALoad,
        Op::AStore(_) => DOp::AStore,
        Op::ArrLen => DOp::ArrLen,
        Op::New(cid) => DOp::New(cid),
        Op::GetField(slot, _) => DOp::GetField(slot),
        Op::PutField(slot) => DOp::PutField(slot),
        Op::Call(mid) => DOp::Call {
            target: mid,
            // Arity resolved lazily by the engine on first execution
            // would cost a branch per call; resolving here needs the
            // program, which `decode_method` threads through.
            nargs: 0,
        },
        Op::CallVirt { slot, argc } => DOp::CallVirt {
            slot,
            argc,
            ic: Cell::new(IC_EMPTY),
        },
        Op::Ret => DOp::Ret,
        Op::RetVal => DOp::RetVal,
        Op::Nop => DOp::Nop,
    }
}

/// Translate `method` into its decoded fast-path form.
///
/// `callee_arity(mid)` pre-resolves static-call arities (the reference
/// interpreter re-reads them from the program on every call).
pub fn decode_method(method: &Method, callee_arity: &dyn Fn(MethodId) -> u32) -> DecodedMethod {
    let code = &method.code;
    let nlocals = method.nlocals;

    // Slots any branch can land on: fusion must not swallow them.
    let mut is_target = vec![false; code.len()];
    for op in code {
        if let Op::Goto(t) | Op::ICmpBr(_, t) | Op::BrZ(_, t) = *op {
            if let Some(flag) = is_target.get_mut(t as usize) {
                *flag = true;
            }
        }
    }

    let in_range = |n: u16| n < nlocals;
    let free = |i: usize| i < code.len() && !is_target[i];

    let mut ops = Vec::with_capacity(code.len());
    let mut i = 0usize;
    while i < code.len() {
        // Try the longest fusion first; every component local slot
        // must be statically in range so interior semantics cannot
        // fail or charge.
        let fused: Option<(DOp, u8)> = match code[i] {
            Op::Load(a) if in_range(a) && free(i + 1) => match code[i + 1] {
                Op::Load(b) if in_range(b) && free(i + 2) => match code[i + 2] {
                    Op::IArith(op) => Some((DOp::LoadLoadIArith(a, b, op), 3)),
                    Op::ICmpBr(c, t) => Some((DOp::LoadLoadICmpBr(a, b, c, t), 3)),
                    Op::ALoad(_) => Some((DOp::LoadLoadALoad(a, b), 3)),
                    _ => None,
                },
                Op::IConst(k) if free(i + 2) => match code[i + 2] {
                    Op::IArith(op) => Some((DOp::LoadIConstIArith(a, k, op), 3)),
                    Op::ICmpBr(c, t) => Some((DOp::LoadIConstICmpBr(a, k, c, t), 3)),
                    _ => None,
                },
                Op::IArith(op) => Some((DOp::LoadIArith(a, op), 2)),
                Op::Store(d) if in_range(d) => Some((DOp::LoadStore(a, d), 2)),
                _ => None,
            },
            Op::IConst(k) if free(i + 1) => match code[i + 1] {
                Op::IArith(op) => Some((DOp::IConstIArith(k, op), 2)),
                Op::Store(d) if in_range(d) => Some((DOp::IConstStore(k, d), 2)),
                _ => None,
            },
            _ => None,
        };

        match fused {
            Some((dop, len)) => {
                ops.push(DecodedOp { op: dop, len });
                // Interior slots: unreachable (not branch targets),
                // decoded plainly to keep 1:1 index mapping.
                for k in 1..len as usize {
                    ops.push(DecodedOp {
                        op: decode_plain(&code[i + k], nlocals),
                        len: 1,
                    });
                }
                i += len as usize;
            }
            None => {
                let mut dop = decode_plain(&code[i], nlocals);
                if let DOp::Call { target, nargs } = &mut dop {
                    *nargs = callee_arity(*target);
                }
                ops.push(DecodedOp { op: dop, len: 1 });
                i += 1;
            }
        }
    }

    DecodedMethod {
        ops,
        nlocals,
        ret_is_some: method.sig.ret.is_some(),
    }
}

// ---------------------------------------------------------------------
// Batched interpreter runs
//
// A *run* is a maximal straight-line stretch of decoded ops whose
// charges can be replayed as one merged [`ChargeSeq`] and whose budget
// bumps can be folded into a single addition, before the per-op
// semantics execute. Bit-exactness holds because every **interior** op
// of a run is machine-free (its only machine interaction is the
// hoisted handler charge) and statically infallible, so the machine
// event sequence and every possible error point are unchanged; only
// the **final** op of a run may fail, branch, return, or touch the
// machine mid-semantics (heap micro-accesses, calls), and by then the
// hoisted charges exactly equal the per-op charges the reference
// interpreter would have issued.
//
// Infallibility is proved by a conservative forward dataflow analysis
// over the decoded stream: an abstract stack/locals state of
// [`STy`]s, met at join points, `Unknown` once depth information is
// lost. The single soundness caveat is unverified code whose callee
// returns a value when its signature (or the consistent vtable view)
// says it does not, or vice versa — the only way the runtime stack
// depth can diverge from the static model. Every call site therefore
// carries its expected return presence ([`MethodRuns::call_ret`]);
// the engine compares it against the actual return and sets a
// per-frame *taint* flag on mismatch, after which the frame never
// enters a batched run again and falls back to per-op execution.

/// Sentinel in [`MethodRuns::run_at`]: no batched run starts here.
pub const NO_RUN: u32 = u32::MAX;

/// One batched straight-line stretch of decoded ops.
#[derive(Debug)]
pub struct InterpRun {
    /// Number of decoded ops covered (≥ 2).
    pub nops: u32,
    /// The merged charge replay of every covered handler plan; its
    /// [`ChargeSeq::steps`] are the run's budget bumps — one per
    /// original bytecode, so fused ops contribute 2–3.
    pub seq: ChargeSeq,
}

/// Batched-run metadata of one decoded method. A derived artifact —
/// keyed by [`MethodId`] in the VM, rebuilt on demand, never
/// serialized.
#[derive(Debug)]
pub struct MethodRuns {
    /// Index into `runs` of the run starting at each decoded slot
    /// ([`NO_RUN`] = none).
    pub run_at: Vec<u32>,
    /// The batched runs.
    pub runs: Vec<InterpRun>,
    /// Expected return presence per call-site slot: 0 = no value,
    /// 1 = value, 2 = statically unknown (don't care). A runtime
    /// mismatch taints the frame (see module notes above).
    pub call_ret: Vec<u8>,
}

/// Abstract operand type. `Any` is the lattice bottom: a value of
/// unknown kind. `Int`/`Float` are *guarantees* — every runtime value
/// in an untainted frame at this position is of that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum STy {
    Int,
    Float,
    Any,
}

#[inline]
fn meet(a: STy, b: STy) -> STy {
    if a == b {
        a
    } else {
        STy::Any
    }
}

/// Abstract frame state. `Unknown` (absorbing at joins) means the
/// stack depth itself is no longer tracked — only unconditionally
/// infallible ops may join a run from here.
#[derive(Debug, Clone)]
enum AState {
    Known { stack: Vec<STy>, locals: Vec<STy> },
    Unknown,
}

/// Static effect of one decoded op.
struct Eff {
    /// Cannot raise a [`VmError`] from the analyzed state.
    infallible: bool,
    /// Semantics touch the machine (heap micro-charges, allocation
    /// mixes, calls) — may only be the *final* op of a run.
    machine_mid: bool,
    /// Falls through to the next slot.
    fall: bool,
    /// Branch-target successor.
    target: Option<u32>,
}

const FALL: Eff = Eff {
    infallible: true,
    machine_mid: false,
    fall: true,
    target: None,
};
/// Guaranteed runtime error before any successor.
const NO_SUCC: Eff = Eff {
    infallible: false,
    machine_mid: false,
    fall: false,
    target: None,
};
const MID: Eff = Eff {
    infallible: false,
    machine_mid: true,
    fall: true,
    target: None,
};

#[inline]
fn fallible_fall(infallible: bool) -> Eff {
    Eff {
        infallible,
        machine_mid: false,
        fall: true,
        target: None,
    }
}

#[inline]
fn divrem(b: IBin) -> bool {
    matches!(b, IBin::Div | IBin::Rem)
}

/// The branch target of a decoded op, if any.
fn branch_target(dop: &DOp) -> Option<u32> {
    match *dop {
        DOp::Goto(t)
        | DOp::ICmpBr(_, t)
        | DOp::BrZ(_, t)
        | DOp::LoadLoadICmpBr(_, _, _, t)
        | DOp::LoadIConstICmpBr(_, _, _, t) => Some(t),
        _ => None,
    }
}

/// Return presence of virtual slot `slot` across every class that
/// provides it: `Some(r)` when all agree (or `Some(false)` when none
/// provides it — the call site can only raise `BadVSlot`), `None`
/// when providers disagree (unverified program).
fn virt_ret(program: &crate::class::Program, slot: u16) -> Option<bool> {
    let mut ret: Option<bool> = None;
    for class in &program.classes {
        if let Some(&t) = class.vtable.get(slot as usize) {
            let r = program.method(t).sig.ret.is_some();
            match ret {
                None => ret = Some(r),
                Some(p) if p != r => return None,
                _ => {}
            }
        }
    }
    Some(ret.unwrap_or(false))
}

/// Transfer function: mutate `st` by `dop`'s stack effect and report
/// its static effect.
fn apply_dop(dop: &DOp, st: &mut AState, program: &crate::class::Program) -> Eff {
    let (stack, locals) = match st {
        AState::Unknown => {
            // Depth unknown: only control flow and the ops that are
            // infallible from *any* state matter.
            return match *dop {
                DOp::Goto(t) => Eff {
                    infallible: true,
                    machine_mid: false,
                    fall: false,
                    target: Some(t),
                },
                DOp::ICmpBr(_, t)
                | DOp::BrZ(_, t)
                | DOp::LoadLoadICmpBr(_, _, _, t)
                | DOp::LoadIConstICmpBr(_, _, _, t) => Eff {
                    infallible: false,
                    machine_mid: false,
                    fall: true,
                    target: Some(t),
                },
                DOp::Ret | DOp::RetVal | DOp::BadLoad(_) | DOp::BadStore(_) => NO_SUCC,
                DOp::IConst(_)
                | DOp::FConst(_)
                | DOp::NullConst
                | DOp::Load(_)
                | DOp::Nop
                | DOp::LoadStore(_, _)
                | DOp::IConstStore(_, _) => FALL,
                DOp::NewArr(_)
                | DOp::ALoad
                | DOp::AStore
                | DOp::ArrLen
                | DOp::New(_)
                | DOp::GetField(_)
                | DOp::PutField(_)
                | DOp::Call { .. }
                | DOp::CallVirt { .. }
                | DOp::LoadLoadALoad(_, _) => MID,
                _ => fallible_fall(false),
            };
        }
        AState::Known { stack, locals } => (stack, locals),
    };

    macro_rules! pop {
        () => {
            match stack.pop() {
                Some(t) => t,
                // Guaranteed stack underflow at runtime.
                None => return NO_SUCC,
            }
        };
    }

    let mut make_unknown = false;
    let eff = match *dop {
        DOp::IConst(_) => {
            stack.push(STy::Int);
            FALL
        }
        DOp::FConst(_) => {
            stack.push(STy::Float);
            FALL
        }
        DOp::NullConst => {
            stack.push(STy::Any);
            FALL
        }
        DOp::Load(n) => {
            stack.push(locals[n as usize]);
            FALL
        }
        DOp::Store(n) => {
            let v = pop!();
            locals[n as usize] = v;
            FALL
        }
        DOp::BadLoad(_) | DOp::BadStore(_) => NO_SUCC,
        DOp::Pop => {
            pop!();
            FALL
        }
        DOp::Dup => {
            let t = match stack.last() {
                Some(&t) => t,
                None => return NO_SUCC,
            };
            stack.push(t);
            FALL
        }
        DOp::Swap => {
            let a = pop!();
            let b = pop!();
            stack.push(a);
            stack.push(b);
            FALL
        }
        DOp::IArith(b) => {
            let rb = pop!();
            let ra = pop!();
            stack.push(STy::Int);
            fallible_fall(ra == STy::Int && rb == STy::Int && !divrem(b))
        }
        DOp::INeg => {
            let a = pop!();
            stack.push(STy::Int);
            fallible_fall(a == STy::Int)
        }
        DOp::ICmp => {
            let b = pop!();
            let a = pop!();
            stack.push(STy::Int);
            fallible_fall(a == STy::Int && b == STy::Int)
        }
        DOp::FArith(_) => {
            let b = pop!();
            let a = pop!();
            stack.push(STy::Float);
            fallible_fall(a == STy::Float && b == STy::Float)
        }
        DOp::FNeg => {
            let a = pop!();
            stack.push(STy::Float);
            fallible_fall(a == STy::Float)
        }
        DOp::FCmp => {
            let b = pop!();
            let a = pop!();
            stack.push(STy::Int);
            fallible_fall(a == STy::Float && b == STy::Float)
        }
        DOp::I2F => {
            let a = pop!();
            stack.push(STy::Float);
            fallible_fall(a == STy::Int)
        }
        DOp::F2I => {
            let a = pop!();
            stack.push(STy::Int);
            fallible_fall(a == STy::Float)
        }
        DOp::Goto(t) => Eff {
            infallible: true,
            machine_mid: false,
            fall: false,
            target: Some(t),
        },
        DOp::ICmpBr(_, t) => {
            let b = pop!();
            let a = pop!();
            Eff {
                infallible: a == STy::Int && b == STy::Int,
                machine_mid: false,
                fall: true,
                target: Some(t),
            }
        }
        DOp::BrZ(_, t) => {
            let a = pop!();
            Eff {
                infallible: a == STy::Int,
                machine_mid: false,
                fall: true,
                target: Some(t),
            }
        }
        DOp::NewArr(_) => {
            pop!();
            stack.push(STy::Any);
            MID
        }
        DOp::ALoad => {
            pop!();
            pop!();
            stack.push(STy::Any);
            MID
        }
        DOp::AStore => {
            pop!();
            pop!();
            pop!();
            MID
        }
        DOp::ArrLen => {
            pop!();
            stack.push(STy::Int);
            MID
        }
        DOp::New(_) => {
            stack.push(STy::Any);
            MID
        }
        DOp::GetField(_) => {
            pop!();
            stack.push(STy::Any);
            MID
        }
        DOp::PutField(_) => {
            pop!();
            pop!();
            MID
        }
        DOp::Call { target, nargs } => {
            for _ in 0..nargs {
                pop!();
            }
            if program.method(target).sig.ret.is_some() {
                stack.push(STy::Any);
            }
            MID
        }
        DOp::CallVirt { slot, argc, .. } => {
            for _ in 0..=argc {
                pop!();
            }
            match virt_ret(program, slot) {
                Some(true) => stack.push(STy::Any),
                Some(false) => {}
                None => make_unknown = true,
            }
            MID
        }
        DOp::Ret => NO_SUCC,
        DOp::RetVal => {
            pop!();
            NO_SUCC
        }
        DOp::Nop => FALL,

        DOp::LoadLoadIArith(a, b, op) => {
            let (ta, tb) = (locals[a as usize], locals[b as usize]);
            stack.push(STy::Int);
            fallible_fall(ta == STy::Int && tb == STy::Int && !divrem(op))
        }
        DOp::LoadIConstIArith(a, k, op) => {
            let ta = locals[a as usize];
            stack.push(STy::Int);
            fallible_fall(ta == STy::Int && (!divrem(op) || k != 0))
        }
        DOp::LoadIArith(b, op) => {
            let ta = pop!();
            let tb = locals[b as usize];
            stack.push(STy::Int);
            fallible_fall(ta == STy::Int && tb == STy::Int && !divrem(op))
        }
        DOp::IConstIArith(k, op) => {
            let ta = pop!();
            stack.push(STy::Int);
            fallible_fall(ta == STy::Int && (!divrem(op) || k != 0))
        }
        DOp::LoadStore(s, d) => {
            locals[d as usize] = locals[s as usize];
            FALL
        }
        DOp::IConstStore(_, d) => {
            locals[d as usize] = STy::Int;
            FALL
        }
        DOp::LoadLoadICmpBr(a, b, _, t) => Eff {
            infallible: locals[a as usize] == STy::Int && locals[b as usize] == STy::Int,
            machine_mid: false,
            fall: true,
            target: Some(t),
        },
        DOp::LoadIConstICmpBr(a, _, _, t) => Eff {
            infallible: locals[a as usize] == STy::Int,
            machine_mid: false,
            fall: true,
            target: Some(t),
        },
        DOp::LoadLoadALoad(_, _) => {
            stack.push(STy::Any);
            MID
        }
    };
    if make_unknown {
        *st = AState::Unknown;
    }
    eff
}

/// Join `src` into `dst`; true when `dst` changed.
fn merge_into(dst: &mut Option<AState>, src: &AState) -> bool {
    match dst {
        None => {
            *dst = Some(src.clone());
            true
        }
        Some(AState::Unknown) => false,
        Some(AState::Known { stack, locals }) => match src {
            AState::Unknown => {
                *dst = Some(AState::Unknown);
                true
            }
            AState::Known {
                stack: s2,
                locals: l2,
            } => {
                if stack.len() != s2.len() {
                    // Depth disagreement at a join: depth unknown.
                    *dst = Some(AState::Unknown);
                    return true;
                }
                let mut changed = false;
                for (a, b) in stack.iter_mut().zip(s2).chain(locals.iter_mut().zip(l2)) {
                    let m = meet(*a, *b);
                    if m != *a {
                        *a = m;
                        changed = true;
                    }
                }
                changed
            }
        },
    }
}

/// The handler-plan indices one decoded op charges (1 for plain ops,
/// 2–3 for fused superinstructions), in reference order.
fn dop_plans(dop: &DOp, out: &mut Vec<usize>) {
    match *dop {
        DOp::IConst(_) => out.push(P_ICONST),
        DOp::FConst(_) => out.push(P_FCONST),
        DOp::NullConst => out.push(P_NULLCONST),
        DOp::Load(_) | DOp::BadLoad(_) => out.push(P_LOAD),
        DOp::Store(_) | DOp::BadStore(_) => out.push(P_STORE),
        DOp::Pop => out.push(P_POP),
        DOp::Dup => out.push(P_DUP),
        DOp::Swap => out.push(P_SWAP),
        DOp::IArith(b) => out.push(iarith_plan(b)),
        DOp::INeg => out.push(P_INEG),
        DOp::ICmp => out.push(P_ICMP),
        DOp::FArith(_) => out.push(P_FARITH),
        DOp::FNeg => out.push(P_FNEG),
        DOp::FCmp => out.push(P_FCMP),
        DOp::I2F => out.push(P_I2F),
        DOp::F2I => out.push(P_F2I),
        DOp::Goto(_) => out.push(P_GOTO),
        DOp::ICmpBr(..) => out.push(P_ICMPBR),
        DOp::BrZ(..) => out.push(P_BRZ),
        DOp::NewArr(_) => out.push(P_NEWARR),
        DOp::ALoad => out.push(P_ALOAD),
        DOp::AStore => out.push(P_ASTORE),
        DOp::ArrLen => out.push(P_ARRLEN),
        DOp::New(_) => out.push(P_NEW),
        DOp::GetField(_) => out.push(P_GETFIELD),
        DOp::PutField(_) => out.push(P_PUTFIELD),
        DOp::Call { .. } => out.push(P_CALL),
        DOp::CallVirt { .. } => out.push(P_CALLVIRT),
        DOp::Ret => out.push(P_RET),
        DOp::RetVal => out.push(P_RETVAL),
        DOp::Nop => out.push(P_NOP),
        DOp::LoadLoadIArith(_, _, b) => out.extend([P_LOAD, P_LOAD, iarith_plan(b)]),
        DOp::LoadIConstIArith(_, _, b) => out.extend([P_LOAD, P_ICONST, iarith_plan(b)]),
        DOp::LoadIArith(_, b) => out.extend([P_LOAD, iarith_plan(b)]),
        DOp::IConstIArith(_, b) => out.extend([P_ICONST, iarith_plan(b)]),
        DOp::LoadStore(_, _) => out.extend([P_LOAD, P_STORE]),
        DOp::IConstStore(_, _) => out.extend([P_ICONST, P_STORE]),
        DOp::LoadLoadICmpBr(..) => out.extend([P_LOAD, P_LOAD, P_ICMPBR]),
        DOp::LoadIConstICmpBr(..) => out.extend([P_LOAD, P_ICONST, P_ICMPBR]),
        DOp::LoadLoadALoad(_, _) => out.extend([P_LOAD, P_LOAD, P_ALOAD]),
    }
}

/// Partition `dm` into batched runs.
///
/// Runs begin at branch targets or after a run-terminating op, span
/// only statically infallible machine-free interiors, and end at the
/// first fallible / machine-touching / control-transferring op
/// (inclusive). Single-op stretches get no run (nothing to batch).
pub fn compile_runs(
    program: &crate::class::Program,
    method: MethodId,
    dm: &DecodedMethod,
    cc: &CostCache,
) -> MethodRuns {
    let n = dm.ops.len();
    let mut run_at = vec![NO_RUN; n];
    let mut call_ret = vec![2u8; n];
    let mut runs = Vec::new();
    if n == 0 {
        return MethodRuns {
            run_at,
            runs,
            call_ret,
        };
    }

    // Branch targets are always run leaders (fusion already
    // guarantees they are never fused-op interiors).
    let mut is_target = vec![false; n];
    for d in &dm.ops {
        if let Some(t) = branch_target(&d.op) {
            if let Some(f) = is_target.get_mut(t as usize) {
                *f = true;
            }
        }
    }

    // Expected return presence of every call site (taint reference).
    let mut i = 0usize;
    while i < n {
        match &dm.ops[i].op {
            DOp::Call { target, .. } => {
                call_ret[i] = u8::from(program.method(*target).sig.ret.is_some());
            }
            DOp::CallVirt { slot, .. } => {
                call_ret[i] = match virt_ret(program, *slot) {
                    Some(r) => u8::from(r),
                    None => 2,
                };
            }
            _ => {}
        }
        i += dm.ops[i].len as usize;
    }

    // Forward dataflow fixpoint over executable slots. Entry mirrors
    // the engine: non-argument locals are `Int(0)`, arguments are
    // caller-supplied (`Any`).
    let nargs = program
        .method(method)
        .invoke_arity()
        .min(dm.nlocals as usize);
    let mut entry_locals = vec![STy::Int; dm.nlocals as usize];
    for l in entry_locals.iter_mut().take(nargs) {
        *l = STy::Any;
    }
    let mut states: Vec<Option<AState>> = vec![None; n];
    states[0] = Some(AState::Known {
        stack: Vec::new(),
        locals: entry_locals,
    });
    let mut work = vec![0usize];
    while let Some(i) = work.pop() {
        let Some(st0) = states[i].clone() else {
            continue;
        };
        let mut st = st0;
        let eff = apply_dop(&dm.ops[i].op, &mut st, program);
        if eff.fall {
            let next = i + dm.ops[i].len as usize;
            if next < n && merge_into(&mut states[next], &st) {
                work.push(next);
            }
        }
        if let Some(t) = eff.target {
            if (t as usize) < n && merge_into(&mut states[t as usize], &st) {
                work.push(t as usize);
            }
        }
    }

    // Greedy maximal runs over the linear head walk.
    let mut plan_idxs: Vec<usize> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let Some(st0) = &states[i] else {
            // Unreachable (in untainted frames) — no run.
            i += dm.ops[i].len as usize;
            continue;
        };
        let mut st = st0.clone();
        let mut j = i;
        let mut nops = 0u32;
        plan_idxs.clear();
        loop {
            if j >= n || (j > i && is_target[j]) {
                break;
            }
            let d = &dm.ops[j];
            let eff = apply_dop(&d.op, &mut st, program);
            dop_plans(&d.op, &mut plan_idxs);
            nops += 1;
            j += d.len as usize;
            if !eff.infallible || eff.machine_mid || !eff.fall || eff.target.is_some() {
                break;
            }
        }
        if nops >= 2 {
            let plans: Vec<&ChargeSeq> = plan_idxs.iter().map(|&p| cc.plan(p)).collect();
            run_at[i] = runs.len() as u32;
            runs.push(InterpRun {
                nops,
                seq: ChargeSeq::merge(&plans),
            });
            i = j;
        } else {
            i += dm.ops[i].len as usize;
        }
    }

    MethodRuns {
        run_at,
        runs,
        call_ret,
    }
}

/// Execute `method` on the decoded fast path with the given arguments.
///
/// Observationally identical to [`crate::interp::run`] — same results,
/// same energy/cycle/step accounting bit-for-bit, same errors.
///
/// # Errors
/// Any [`VmError`] raised by the executed code.
pub fn run(vm: &mut Vm<'_>, method: MethodId, args: Vec<Value>) -> Result<Option<Value>, VmError> {
    let dm = vm.decoded_code(method);
    let cc = vm.cost_cache();
    let mr = vm.decoded_runs(method);

    // Locals and operand stack are pooled; the wrapper keeps the
    // recycling off the hot path and covers every exit (returns and
    // errors alike).
    let mut locals = vm.take_buf();
    let mut stack = vm.take_buf();
    let out = run_inner(vm, &dm, &cc, &mr, args, &mut locals, &mut stack);
    vm.put_buf(locals);
    vm.put_buf(stack);
    out
}

/// Where control goes after one op's semantics on the batched path.
enum Flow {
    /// Continue at `pc` (already advanced; branch arms overwrote it).
    Next,
    /// Method return.
    Return(Option<Value>),
}

fn run_inner(
    vm: &mut Vm<'_>,
    dm: &DecodedMethod,
    cc: &CostCache,
    mr: &MethodRuns,
    args: Vec<Value>,
    locals: &mut Vec<Value>,
    stack: &mut Vec<Value>,
) -> Result<Option<Value>, VmError> {
    locals.resize(dm.nlocals as usize, Value::Int(0));
    locals[..args.len()].copy_from_slice(&args);
    vm.machine.charge_mix(&costs::arg_copy_mix(args.len()));
    vm.put_buf(args);

    let mut pc: usize = 0;
    // Set once a callee's actual return presence contradicts the
    // static model (unverified code); disables batched runs for the
    // rest of this frame, whose abstract stack depths are now suspect.
    let mut tainted = false;

    macro_rules! pop {
        () => {
            stack.pop().ok_or(VmError::StackUnderflow)?
        };
    }
    // Charge one original bytecode: replay its plan (handler fetch +
    // dispatch + op work) and bump the step budget — the exact
    // accounting sequence of the reference interpreter.
    macro_rules! charge {
        ($idx:expr) => {
            vm.machine.step_charge_seq(cc.plan($idx));
            vm.bump_steps(1)?;
        };
    }
    // Charge a whole fused sequence with one merged replay (bit-exact
    // with the per-plan sequence — see
    // [`jem_energy::Machine::step_charge_seq`]) when the remaining
    // step budget covers it; otherwise fall back to per-plan charging
    // so a budget error surfaces at the exact reference point with the
    // exact reference machine state.
    macro_rules! charge_fused {
        ($seq:expr, $($idx:expr),+) => {
            let seq = $seq;
            if vm.options.step_budget.saturating_sub(vm.steps) >= seq.steps() {
                vm.machine.step_charge_seq(seq);
                vm.bump_steps(seq.steps())?;
            } else {
                $( charge!($idx); )+
            }
        };
    }

    loop {
        let d = dm.ops.get(pc).ok_or(VmError::FellOffEnd)?;

        // Batched fast path: one merged charge replay and one budget
        // bump for the whole straight-line run, then pure semantics
        // ([`op_sem`]). Requires an untainted frame (exact static
        // stack model) and enough budget headroom that no mid-run
        // budget error could have fired on the reference path.
        if !tainted && mr.run_at[pc] != NO_RUN {
            let run = &mr.runs[mr.run_at[pc] as usize];
            if vm.options.step_budget.saturating_sub(vm.steps) >= run.seq.steps() {
                vm.machine.step_charge_seq(&run.seq);
                vm.bump_steps(run.seq.steps())?;
                let mut flow = Flow::Next;
                // Count-based: a final backward branch must not
                // re-enter this loop (its target's own run, or the
                // per-op path, handles the next dispatch).
                for _ in 0..run.nops {
                    let d = &dm.ops[pc];
                    let cur = pc;
                    pc += d.len as usize;
                    flow = op_sem(
                        vm,
                        &d.op,
                        locals,
                        stack,
                        &mut pc,
                        mr.call_ret[cur],
                        &mut tainted,
                    )?;
                }
                match flow {
                    Flow::Next => continue,
                    Flow::Return(v) => return Ok(v),
                }
            }
        }

        let cur = pc;
        pc += d.len as usize;
        match &d.op {
            DOp::IConst(v) => {
                charge!(P_ICONST);
                stack.push(Value::Int(*v));
            }
            DOp::FConst(v) => {
                charge!(P_FCONST);
                stack.push(Value::Float(*v));
            }
            DOp::NullConst => {
                charge!(P_NULLCONST);
                stack.push(Value::Null);
            }
            DOp::Load(n) => {
                charge!(P_LOAD);
                stack.push(locals[*n as usize]);
            }
            DOp::Store(n) => {
                charge!(P_STORE);
                let v = pop!();
                locals[*n as usize] = v;
            }
            DOp::BadLoad(n) => {
                charge!(P_LOAD);
                return Err(VmError::BadLocal(*n));
            }
            DOp::BadStore(n) => {
                charge!(P_STORE);
                let _ = pop!();
                return Err(VmError::BadLocal(*n));
            }
            DOp::Pop => {
                charge!(P_POP);
                let _ = pop!();
            }
            DOp::Dup => {
                charge!(P_DUP);
                let v = *stack.last().ok_or(VmError::StackUnderflow)?;
                stack.push(v);
            }
            DOp::Swap => {
                charge!(P_SWAP);
                let a = pop!();
                let b = pop!();
                stack.push(a);
                stack.push(b);
            }
            DOp::IArith(opk) => {
                charge!(iarith_plan(*opk));
                let b = pop!().as_int()?;
                let a = pop!().as_int()?;
                stack.push(Value::Int(arith::ibin(*opk, a, b)?));
            }
            DOp::INeg => {
                charge!(P_INEG);
                let a = pop!().as_int()?;
                stack.push(Value::Int(a.wrapping_neg()));
            }
            DOp::ICmp => {
                charge!(P_ICMP);
                let b = pop!().as_int()?;
                let a = pop!().as_int()?;
                stack.push(Value::Int(arith::icmp(a, b)));
            }
            DOp::FArith(opk) => {
                charge!(P_FARITH);
                let b = pop!().as_float()?;
                let a = pop!().as_float()?;
                stack.push(Value::Float(arith::fbin(*opk, a, b)));
            }
            DOp::FNeg => {
                charge!(P_FNEG);
                let a = pop!().as_float()?;
                stack.push(Value::Float(-a));
            }
            DOp::FCmp => {
                charge!(P_FCMP);
                let b = pop!().as_float()?;
                let a = pop!().as_float()?;
                stack.push(Value::Int(arith::fcmp(a, b)));
            }
            DOp::I2F => {
                charge!(P_I2F);
                let a = pop!().as_int()?;
                stack.push(Value::Float(f64::from(a)));
            }
            DOp::F2I => {
                charge!(P_F2I);
                let a = pop!().as_float()?;
                stack.push(Value::Int(arith::f2i(a)));
            }
            DOp::Goto(t) => {
                charge!(P_GOTO);
                pc = *t as usize;
            }
            DOp::ICmpBr(cond, t) => {
                charge!(P_ICMPBR);
                let b = pop!().as_int()?;
                let a = pop!().as_int()?;
                if cond.eval(a, b) {
                    pc = *t as usize;
                }
            }
            DOp::BrZ(cond, t) => {
                charge!(P_BRZ);
                let a = pop!().as_int()?;
                if cond.eval(a, 0) {
                    pc = *t as usize;
                }
            }
            DOp::NewArr(ty) => {
                charge!(P_NEWARR);
                let len = pop!().as_int()?;
                if len < 0 {
                    return Err(VmError::NegativeArrayLength(len));
                }
                let bytes = match ty {
                    Type::Float => 8,
                    _ => 4,
                } * len as u64;
                vm.machine.charge_mix(&costs::alloc_zero_mix(bytes));
                let h = vm.heap.alloc_array(*ty, len as usize);
                stack.push(Value::Ref(h));
            }
            DOp::ALoad => {
                charge!(P_ALOAD);
                let idx = pop!().as_int()?;
                let arr = pop!().as_ref()?;
                if idx < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        index: usize::MAX,
                        len: vm.heap.array_len(arr)?,
                    });
                }
                let v = vm.heap.array_get(arr, idx as usize)?;
                let addr = vm.heap.element_address(arr, idx as usize);
                vm.machine
                    .step(aux_pc(P_ALOAD), InstrClass::Load, MemOp::Read(addr));
                stack.push(v);
            }
            DOp::AStore => {
                charge!(P_ASTORE);
                let val = pop!();
                let idx = pop!().as_int()?;
                let arr = pop!().as_ref()?;
                if idx < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        index: usize::MAX,
                        len: vm.heap.array_len(arr)?,
                    });
                }
                vm.heap.array_set(arr, idx as usize, val)?;
                let addr = vm.heap.element_address(arr, idx as usize);
                vm.machine
                    .step(aux_pc(P_ASTORE), InstrClass::Store, MemOp::Write(addr));
            }
            DOp::ArrLen => {
                charge!(P_ARRLEN);
                let arr = pop!().as_ref()?;
                let len = vm.heap.array_len(arr)?;
                let addr = vm.heap.address_of(arr);
                vm.machine
                    .step(aux_pc(P_ARRLEN), InstrClass::Load, MemOp::Read(addr));
                stack.push(Value::Int(len as i32));
            }
            DOp::New(cid) => {
                charge!(P_NEW);
                let class = vm.program.class(*cid);
                vm.machine
                    .charge_mix(&costs::alloc_zero_mix(8 * class.field_types.len() as u64));
                let h = vm.heap.alloc_object(cid.0, &class.field_types);
                stack.push(Value::Ref(h));
            }
            DOp::GetField(slot) => {
                charge!(P_GETFIELD);
                let obj = pop!().as_ref()?;
                let v = vm.heap.field_get(obj, *slot as usize)?;
                let addr = vm.heap.field_address(obj, *slot as usize);
                vm.machine
                    .step(aux_pc(P_GETFIELD), InstrClass::Load, MemOp::Read(addr));
                stack.push(v);
            }
            DOp::PutField(slot) => {
                charge!(P_PUTFIELD);
                let val = pop!();
                let obj = pop!().as_ref()?;
                vm.heap.field_set(obj, *slot as usize, val)?;
                let addr = vm.heap.field_address(obj, *slot as usize);
                vm.machine
                    .step(aux_pc(P_PUTFIELD), InstrClass::Store, MemOp::Write(addr));
            }
            DOp::Call { target, nargs } => {
                charge!(P_CALL);
                let nargs = *nargs as usize;
                if stack.len() < nargs {
                    return Err(VmError::StackUnderflow);
                }
                let split = stack.len() - nargs;
                let mut cargs = vm.take_buf();
                cargs.extend_from_slice(&stack[split..]);
                stack.truncate(split);
                let ret = vm.invoke(*target, cargs)?;
                if mr.call_ret[cur] != 2 && u8::from(ret.is_some()) != mr.call_ret[cur] {
                    tainted = true;
                }
                if let Some(v) = ret {
                    stack.push(v);
                }
            }
            DOp::CallVirt { slot, argc, ic } => {
                charge!(P_CALLVIRT);
                let nargs = *argc as usize;
                if stack.len() < nargs + 1 {
                    return Err(VmError::StackUnderflow);
                }
                let split = stack.len() - nargs - 1;
                let mut cargs = vm.take_buf();
                cargs.extend_from_slice(&stack[split..]);
                stack.truncate(split);
                let recv = cargs[0].as_ref()?;
                let class = vm.heap.class_of(recv)?;
                let (cached_class, cached_target) = ic.get();
                let target = if cached_class == class {
                    cached_target
                } else {
                    let vtable = &vm.program.class(ClassId(class)).vtable;
                    let t = *vtable.get(*slot as usize).ok_or(VmError::BadVSlot(*slot))?;
                    ic.set((class, t));
                    t
                };
                let ret = vm.invoke(target, cargs)?;
                if mr.call_ret[cur] != 2 && u8::from(ret.is_some()) != mr.call_ret[cur] {
                    tainted = true;
                }
                if let Some(v) = ret {
                    stack.push(v);
                }
            }
            DOp::Ret => {
                charge!(P_RET);
                return Ok(None);
            }
            DOp::RetVal => {
                charge!(P_RETVAL);
                let v = pop!();
                debug_assert!(dm.ret_is_some);
                return Ok(Some(v));
            }
            DOp::Nop => {
                charge!(P_NOP);
            }

            // ---- fused superinstructions ----
            //
            // Each replays its components' charge plans and budget
            // bumps in original order *before* the combined semantics;
            // interior components are infallible and chargeless (slots
            // validated at decode), so error points and machine state
            // match the reference interpreter exactly.
            DOp::LoadLoadIArith(a, b, opk) => {
                charge_fused!(
                    &cc.ll_iarith[iarith_plan(*opk) - P_IARITH],
                    P_LOAD,
                    P_LOAD,
                    iarith_plan(*opk)
                );
                let vb = locals[*b as usize].as_int()?;
                let va = locals[*a as usize].as_int()?;
                stack.push(Value::Int(arith::ibin(*opk, va, vb)?));
            }
            DOp::LoadIConstIArith(a, k, opk) => {
                charge_fused!(
                    &cc.lic_iarith[iarith_plan(*opk) - P_IARITH],
                    P_LOAD,
                    P_ICONST,
                    iarith_plan(*opk)
                );
                let va = locals[*a as usize].as_int()?;
                stack.push(Value::Int(arith::ibin(*opk, va, *k)?));
            }
            DOp::LoadIArith(b, opk) => {
                charge_fused!(
                    &cc.l_iarith[iarith_plan(*opk) - P_IARITH],
                    P_LOAD,
                    iarith_plan(*opk)
                );
                let vb = locals[*b as usize].as_int()?;
                let va = pop!().as_int()?;
                stack.push(Value::Int(arith::ibin(*opk, va, vb)?));
            }
            DOp::IConstIArith(k, opk) => {
                charge_fused!(
                    &cc.ic_iarith[iarith_plan(*opk) - P_IARITH],
                    P_ICONST,
                    iarith_plan(*opk)
                );
                let va = pop!().as_int()?;
                stack.push(Value::Int(arith::ibin(*opk, va, *k)?));
            }
            DOp::LoadStore(src, dst) => {
                charge_fused!(&cc.load_store, P_LOAD, P_STORE);
                locals[*dst as usize] = locals[*src as usize];
            }
            DOp::IConstStore(k, dst) => {
                charge_fused!(&cc.iconst_store, P_ICONST, P_STORE);
                locals[*dst as usize] = Value::Int(*k);
            }
            DOp::LoadLoadICmpBr(a, b, cond, t) => {
                charge_fused!(&cc.ll_icmpbr, P_LOAD, P_LOAD, P_ICMPBR);
                let vb = locals[*b as usize].as_int()?;
                let va = locals[*a as usize].as_int()?;
                if cond.eval(va, vb) {
                    pc = *t as usize;
                }
            }
            DOp::LoadIConstICmpBr(a, k, cond, t) => {
                charge_fused!(&cc.lic_icmpbr, P_LOAD, P_ICONST, P_ICMPBR);
                let va = locals[*a as usize].as_int()?;
                if cond.eval(va, *k) {
                    pc = *t as usize;
                }
            }
            DOp::LoadLoadALoad(arr_l, idx_l) => {
                charge_fused!(&cc.ll_aload, P_LOAD, P_LOAD, P_ALOAD);
                let idx = locals[*idx_l as usize].as_int()?;
                let arr = locals[*arr_l as usize].as_ref()?;
                if idx < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        index: usize::MAX,
                        len: vm.heap.array_len(arr)?,
                    });
                }
                let v = vm.heap.array_get(arr, idx as usize)?;
                let addr = vm.heap.element_address(arr, idx as usize);
                vm.machine
                    .step(aux_pc(P_ALOAD), InstrClass::Load, MemOp::Read(addr));
                stack.push(v);
            }
        }
    }
}

/// The charge-free semantics of one decoded op, used by the batched
/// run path after the whole run's charges have been hoisted. `pc` has
/// already been advanced past the op; branch arms overwrite it.
/// `expect_ret` is the call site's statically expected return
/// presence (2 = don't care); a runtime mismatch sets `tainted`.
///
/// Must mirror the per-op arms of [`run_inner`] exactly, minus the
/// `charge!`/`charge_fused!` lines — `fastpath_equiv` exercises both
/// paths against the reference interpreter.
fn op_sem(
    vm: &mut Vm<'_>,
    dop: &DOp,
    locals: &mut [Value],
    stack: &mut Vec<Value>,
    pc: &mut usize,
    expect_ret: u8,
    tainted: &mut bool,
) -> Result<Flow, VmError> {
    macro_rules! pop {
        () => {
            stack.pop().ok_or(VmError::StackUnderflow)?
        };
    }

    match dop {
        DOp::IConst(v) => {
            stack.push(Value::Int(*v));
        }
        DOp::FConst(v) => {
            stack.push(Value::Float(*v));
        }
        DOp::NullConst => {
            stack.push(Value::Null);
        }
        DOp::Load(n) => {
            stack.push(locals[*n as usize]);
        }
        DOp::Store(n) => {
            let v = pop!();
            locals[*n as usize] = v;
        }
        DOp::BadLoad(n) => {
            return Err(VmError::BadLocal(*n));
        }
        DOp::BadStore(n) => {
            let _ = pop!();
            return Err(VmError::BadLocal(*n));
        }
        DOp::Pop => {
            let _ = pop!();
        }
        DOp::Dup => {
            let v = *stack.last().ok_or(VmError::StackUnderflow)?;
            stack.push(v);
        }
        DOp::Swap => {
            let a = pop!();
            let b = pop!();
            stack.push(a);
            stack.push(b);
        }
        DOp::IArith(opk) => {
            let b = pop!().as_int()?;
            let a = pop!().as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, a, b)?));
        }
        DOp::INeg => {
            let a = pop!().as_int()?;
            stack.push(Value::Int(a.wrapping_neg()));
        }
        DOp::ICmp => {
            let b = pop!().as_int()?;
            let a = pop!().as_int()?;
            stack.push(Value::Int(arith::icmp(a, b)));
        }
        DOp::FArith(opk) => {
            let b = pop!().as_float()?;
            let a = pop!().as_float()?;
            stack.push(Value::Float(arith::fbin(*opk, a, b)));
        }
        DOp::FNeg => {
            let a = pop!().as_float()?;
            stack.push(Value::Float(-a));
        }
        DOp::FCmp => {
            let b = pop!().as_float()?;
            let a = pop!().as_float()?;
            stack.push(Value::Int(arith::fcmp(a, b)));
        }
        DOp::I2F => {
            let a = pop!().as_int()?;
            stack.push(Value::Float(f64::from(a)));
        }
        DOp::F2I => {
            let a = pop!().as_float()?;
            stack.push(Value::Int(arith::f2i(a)));
        }
        DOp::Goto(t) => {
            *pc = *t as usize;
        }
        DOp::ICmpBr(cond, t) => {
            let b = pop!().as_int()?;
            let a = pop!().as_int()?;
            if cond.eval(a, b) {
                *pc = *t as usize;
            }
        }
        DOp::BrZ(cond, t) => {
            let a = pop!().as_int()?;
            if cond.eval(a, 0) {
                *pc = *t as usize;
            }
        }
        DOp::NewArr(ty) => {
            let len = pop!().as_int()?;
            if len < 0 {
                return Err(VmError::NegativeArrayLength(len));
            }
            let bytes = match ty {
                Type::Float => 8,
                _ => 4,
            } * len as u64;
            vm.machine.charge_mix(&costs::alloc_zero_mix(bytes));
            let h = vm.heap.alloc_array(*ty, len as usize);
            stack.push(Value::Ref(h));
        }
        DOp::ALoad => {
            let idx = pop!().as_int()?;
            let arr = pop!().as_ref()?;
            if idx < 0 {
                return Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: vm.heap.array_len(arr)?,
                });
            }
            let v = vm.heap.array_get(arr, idx as usize)?;
            let addr = vm.heap.element_address(arr, idx as usize);
            vm.machine
                .step(aux_pc(P_ALOAD), InstrClass::Load, MemOp::Read(addr));
            stack.push(v);
        }
        DOp::AStore => {
            let val = pop!();
            let idx = pop!().as_int()?;
            let arr = pop!().as_ref()?;
            if idx < 0 {
                return Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: vm.heap.array_len(arr)?,
                });
            }
            vm.heap.array_set(arr, idx as usize, val)?;
            let addr = vm.heap.element_address(arr, idx as usize);
            vm.machine
                .step(aux_pc(P_ASTORE), InstrClass::Store, MemOp::Write(addr));
        }
        DOp::ArrLen => {
            let arr = pop!().as_ref()?;
            let len = vm.heap.array_len(arr)?;
            let addr = vm.heap.address_of(arr);
            vm.machine
                .step(aux_pc(P_ARRLEN), InstrClass::Load, MemOp::Read(addr));
            stack.push(Value::Int(len as i32));
        }
        DOp::New(cid) => {
            let class = vm.program.class(*cid);
            vm.machine
                .charge_mix(&costs::alloc_zero_mix(8 * class.field_types.len() as u64));
            let h = vm.heap.alloc_object(cid.0, &class.field_types);
            stack.push(Value::Ref(h));
        }
        DOp::GetField(slot) => {
            let obj = pop!().as_ref()?;
            let v = vm.heap.field_get(obj, *slot as usize)?;
            let addr = vm.heap.field_address(obj, *slot as usize);
            vm.machine
                .step(aux_pc(P_GETFIELD), InstrClass::Load, MemOp::Read(addr));
            stack.push(v);
        }
        DOp::PutField(slot) => {
            let val = pop!();
            let obj = pop!().as_ref()?;
            vm.heap.field_set(obj, *slot as usize, val)?;
            let addr = vm.heap.field_address(obj, *slot as usize);
            vm.machine
                .step(aux_pc(P_PUTFIELD), InstrClass::Store, MemOp::Write(addr));
        }
        DOp::Call { target, nargs } => {
            let nargs = *nargs as usize;
            if stack.len() < nargs {
                return Err(VmError::StackUnderflow);
            }
            let split = stack.len() - nargs;
            let mut cargs = vm.take_buf();
            cargs.extend_from_slice(&stack[split..]);
            stack.truncate(split);
            let ret = vm.invoke(*target, cargs)?;
            if expect_ret != 2 && u8::from(ret.is_some()) != expect_ret {
                *tainted = true;
            }
            if let Some(v) = ret {
                stack.push(v);
            }
        }
        DOp::CallVirt { slot, argc, ic } => {
            let nargs = *argc as usize;
            if stack.len() < nargs + 1 {
                return Err(VmError::StackUnderflow);
            }
            let split = stack.len() - nargs - 1;
            let mut cargs = vm.take_buf();
            cargs.extend_from_slice(&stack[split..]);
            stack.truncate(split);
            let recv = cargs[0].as_ref()?;
            let class = vm.heap.class_of(recv)?;
            let (cached_class, cached_target) = ic.get();
            let target = if cached_class == class {
                cached_target
            } else {
                let vtable = &vm.program.class(ClassId(class)).vtable;
                let t = *vtable.get(*slot as usize).ok_or(VmError::BadVSlot(*slot))?;
                ic.set((class, t));
                t
            };
            let ret = vm.invoke(target, cargs)?;
            if expect_ret != 2 && u8::from(ret.is_some()) != expect_ret {
                *tainted = true;
            }
            if let Some(v) = ret {
                stack.push(v);
            }
        }
        DOp::Ret => {
            return Ok(Flow::Return(None));
        }
        DOp::RetVal => {
            let v = pop!();
            return Ok(Flow::Return(Some(v)));
        }
        DOp::Nop => {}

        // ---- fused superinstructions ----
        DOp::LoadLoadIArith(a, b, opk) => {
            let vb = locals[*b as usize].as_int()?;
            let va = locals[*a as usize].as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, vb)?));
        }
        DOp::LoadIConstIArith(a, k, opk) => {
            let va = locals[*a as usize].as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, *k)?));
        }
        DOp::LoadIArith(b, opk) => {
            let vb = locals[*b as usize].as_int()?;
            let va = pop!().as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, vb)?));
        }
        DOp::IConstIArith(k, opk) => {
            let va = pop!().as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, *k)?));
        }
        DOp::LoadStore(src, dst) => {
            locals[*dst as usize] = locals[*src as usize];
        }
        DOp::IConstStore(k, dst) => {
            locals[*dst as usize] = Value::Int(*k);
        }
        DOp::LoadLoadICmpBr(a, b, cond, t) => {
            let vb = locals[*b as usize].as_int()?;
            let va = locals[*a as usize].as_int()?;
            if cond.eval(va, vb) {
                *pc = *t as usize;
            }
        }
        DOp::LoadIConstICmpBr(a, k, cond, t) => {
            let va = locals[*a as usize].as_int()?;
            if cond.eval(va, *k) {
                *pc = *t as usize;
            }
        }
        DOp::LoadLoadALoad(arr_l, idx_l) => {
            let idx = locals[*idx_l as usize].as_int()?;
            let arr = locals[*arr_l as usize].as_ref()?;
            if idx < 0 {
                return Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: vm.heap.array_len(arr)?,
                });
            }
            let v = vm.heap.array_get(arr, idx as usize)?;
            let addr = vm.heap.element_address(arr, idx as usize);
            vm.machine
                .step(aux_pc(P_ALOAD), InstrClass::Load, MemOp::Read(addr));
            stack.push(v);
        }
    }
    Ok(Flow::Next)
}
