//! Pre-decoded execution form and superblock charge planning for the
//! native executor.
//!
//! Installing native code compiles a [`NativeCode`] object into an
//! [`XCode`]: the executable plan [`crate::exec`] actually runs. It
//! contains two cooperating artifacts, both derived (never
//! serialized):
//!
//! 1. **A pre-decoded instruction stream** ([`XOp`]) — the NIR
//!    flattened into a dense array of small fixed-size ops with every
//!    field pre-resolved: register numbers narrowed to `u16`, binary
//!    operators split into per-op variants (no inner operator match at
//!    run time), call argument lists pooled into one flat side table,
//!    and each virtual call's inline-cache slot index precomputed.
//! 2. **Charge plans** — a per-instruction [`SeqPlan`] (the
//!    reference-shaped path) plus one merged plan per *segment*
//!    ([`Seg`]): a superblock whose charging is deferred until all of
//!    its semantics have run.
//!
//! # Segments
//!
//! A segment starts at every block entry and after every call or
//! allocation. It follows unconditional `Jmp` chains into blocks it
//! has not visited yet, and ends at a `Br`, a `Ret`, a `Jmp` back to a
//! block it already visited, or just before the next `Call`,
//! `CallVirt`, `NewArr` or `NewObj`. Those four are the only ops whose
//! semantics touch the simulated [`Machine`](jem_energy::Machine)
//! (calls recurse into the VM, allocations charge a zeroing mix); they
//! run on the per-instruction path.
//!
//! # Why deferred charging is bit-exact
//!
//! The reference execution model interleaves accounting and semantics
//! per instruction: charge the instruction's emitted micro sequence,
//! then run its semantics, then the next instruction. Inside a segment
//! no semantics touch the machine, so the machine sees the same event
//! sequence when every charge lands after the segment's last
//! semantics, provided each stream keeps its own order:
//!
//! * the merged plan replays I-cache fetches (each op at its own fetch
//!   offsets, see [`SeqPlan::compile_at`]) and D-cache accesses in op
//!   order;
//! * each heap micro's address is read from the registers just before
//!   its op's semantics run — the register state the reference
//!   charges from — and handed to [`Machine::step_seq`] in issue
//!   order, one address per heap micro (no segment allocates, so no
//!   address moves in between);
//! * everything else is an integer count — instructions per class,
//!   misses, cycles — from which the machine derives Core and DRAM
//!   energy, so a different interleaving of I- and D-cache misses
//!   leaves it unchanged.
//!
//! # Errors and the step budget
//!
//! If op *k* of a segment fails, the reference has charged ops
//! `0..=k` (op *k* is charged before its semantics run) and nothing
//! after. The executor then skips the merged plan and replays the
//! per-instruction plans of ops `0..=k` with their recorded addresses,
//! bumping the same steps, before it returns the error. No op inside a
//! segment therefore has to be proven infallible.
//!
//! A segment is only entered when the remaining step budget covers all
//! of it, so neither the folded bump nor a prefix replay can cross the
//! budget; otherwise the per-instruction path reproduces the reference
//! budget error exactly.
//!
//! [`Machine::step_seq`]: jem_energy::Machine::step_seq

use crate::bytecode::{Cond, FBin, IBin};
use crate::costs::NATIVE_INSTR_BYTES;
use crate::emit::{Micro, MicroMem, NativeCode};
use crate::nir::{NInst, VReg};
use crate::value::Type;
use jem_energy::{InstrClass, MachineConfig, SeqDataRef, SeqPlan};

/// Sentinel for [`XBlock::seg_at`] slots where no segment starts.
pub const NO_SEG: u32 = u32::MAX;

/// Sentinel register number meaning "absent" (void call destination,
/// void return). Valid registers are `< NONE` — enforced at decode.
pub const NONE: u16 = u16::MAX;

/// One pre-decoded executable instruction. Fixed 16-byte layout, every
/// field pre-resolved; semantics are identical to the corresponding
/// [`NInst`] as executed by the reference path.
#[derive(Debug, Clone)]
pub enum XOp {
    /// `r[d] = v`
    IConst {
        /// Destination.
        d: u16,
        /// Immediate.
        v: i32,
    },
    /// `r[d] = v` (float)
    FConst {
        /// Destination.
        d: u16,
        /// Immediate.
        v: f64,
    },
    /// `r[d] = null`
    NullConst {
        /// Destination.
        d: u16,
    },
    /// `r[d] = r[s]`
    Mov {
        /// Destination.
        d: u16,
        /// Source.
        s: u16,
    },
    /// `r[d] = r[a] + r[b]` (wrapping)
    IAdd {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] - r[b]` (wrapping)
    ISub {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] * r[b]` (wrapping)
    IMul {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] / r[b]` (traps on zero)
    IDiv {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] % r[b]` (traps on zero)
    IRem {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] & r[b]`
    IAnd {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] | r[b]`
    IOr {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] ^ r[b]`
    IXor {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] << (r[b] & 31)`
    IShl {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] >> (r[b] & 31)` (arithmetic)
    IShr {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] << k`
    IShlImm {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
        /// Shift amount.
        k: u8,
    },
    /// `r[d] = -r[a]` (wrapping)
    INeg {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = sign(r[a] - r[b])`
    ICmp {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] + r[b]` (float)
    FAdd {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] - r[b]` (float)
    FSub {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] * r[b]` (float)
    FMul {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] / r[b]` (float, IEEE — no trap)
    FDiv {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = -r[a]` (float)
    FNeg {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = sign(r[a] - r[b])` (float, NaN → -1)
    FCmp {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = (float) r[a]`
    I2F {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = (int) r[a]` (truncating, saturating)
    F2I {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = new ty[r[len]]`
    NewArr {
        /// Destination.
        d: u16,
        /// Element type.
        ty: Type,
        /// Length register.
        len: u16,
    },
    /// `r[d] = new class()`
    NewObj {
        /// Destination.
        d: u16,
        /// Class id.
        class: u32,
    },
    /// `r[d] = r[arr][r[idx]]`
    ALoad {
        /// Destination.
        d: u16,
        /// Array register.
        arr: u16,
        /// Index register.
        idx: u16,
    },
    /// `r[arr][r[idx]] = r[val]`
    AStore {
        /// Array register.
        arr: u16,
        /// Index register.
        idx: u16,
        /// Value register.
        val: u16,
    },
    /// `r[d] = r[arr].length`
    ArrLen {
        /// Destination.
        d: u16,
        /// Array register.
        arr: u16,
    },
    /// `r[d] = r[obj].field[slot]`
    GetField {
        /// Destination.
        d: u16,
        /// Object register.
        obj: u16,
        /// Field slot.
        slot: u16,
    },
    /// `r[obj].field[slot] = r[val]`
    PutField {
        /// Object register.
        obj: u16,
        /// Field slot.
        slot: u16,
        /// Value register.
        val: u16,
    },
    /// Static call; argument registers at
    /// `args_pool[argi..argi + argc]`.
    Call {
        /// Destination, or [`NONE`] for void.
        d: u16,
        /// Argument count.
        argc: u16,
        /// Callee method id.
        target: u32,
        /// Start index into [`XCode::args_pool`].
        argi: u32,
    },
    /// Virtual call; argument registers (receiver excluded) at
    /// `args_pool[argi..argi + argc]`.
    CallVirt {
        /// Destination, or [`NONE`] for void.
        d: u16,
        /// Vtable slot.
        slot: u16,
        /// Receiver register.
        recv: u16,
        /// Argument count.
        argc: u16,
        /// Precomputed inline-cache slot (the call's emitted
        /// instruction offset).
        ic: u32,
        /// Start index into [`XCode::args_pool`].
        argi: u32,
    },
    /// Unconditional jump.
    Jmp {
        /// Target block.
        t: u32,
    },
    /// Conditional branch on an integer compare.
    Br {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
        /// Taken target.
        t: u32,
        /// Fall-through target.
        e: u32,
    },
    /// Return `r[v]` ([`NONE`] for void).
    Ret {
        /// Returned register or [`NONE`].
        v: u16,
    },
}

/// The executable plan for one installed method: pre-decoded ops plus
/// charge plans, compiled against one machine's I-cache geometry. A
/// derived artifact — cache-reconstructable from
/// the [`NativeCode`], never serialized.
#[derive(Debug)]
pub struct XCode {
    /// Per-block executable form.
    pub blocks: Vec<XBlock>,
    /// Segments, indexed by [`XBlock::seg_at`].
    pub segs: Vec<Seg>,
    /// Register file size.
    pub nregs: u32,
    /// Pooled call-argument registers (see [`XOp::Call`]).
    pub args_pool: Vec<u16>,
}

/// One basic block of an [`XCode`]: decoded ops, the per-instruction
/// charge plans (the reference-shaped path) and the segment starts.
#[derive(Debug)]
pub struct XBlock {
    /// Pre-decoded instructions.
    pub ops: Vec<XOp>,
    /// Per-instruction batched charge plan (one straight-line emitted
    /// micro sequence each).
    pub plans: Vec<SeqPlan>,
    /// `seg_at[ii]` is the index into [`XCode::segs`] of the segment
    /// starting at instruction `ii`, or [`NO_SEG`].
    pub seg_at: Vec<u32>,
}

/// One segment: a superblock whose charging is deferred until its
/// semantics have run (see the module docs).
#[derive(Debug)]
pub struct Seg {
    /// The covered ops in execution order, copied across followed
    /// jumps.
    pub ops: Box<[XOp]>,
    /// Per op: its number of heap micros, i.e. how many addresses the
    /// executor records before the op runs.
    pub heap: Box<[u8]>,
    /// Per op: the `(block, instruction)` of its per-instruction plan,
    /// replayed on the error path.
    pub src: Box<[(u32, u32)]>,
    /// Step-budget cost of the whole segment: `Σ max(1, micros_i)`,
    /// matching what the per-instruction path would bump.
    pub steps: u64,
    /// The merged charge plan.
    pub plan: SeqPlan,
    /// `(block, instruction)` where execution continues when the last
    /// op falls through, i.e. the segment ended before a call or an
    /// allocation.
    pub resume: (u32, u32),
}

/// The `(byte offset, class, data ref)` micros of one emitted
/// instruction, as the reference executor would step them. The spill
/// cursor resets per instruction, mirroring the executor's frame
/// addressing.
fn inst_micros(seq: &[Micro], off: u32, out: &mut Vec<(u64, InstrClass, SeqDataRef)>) {
    let mut spill_cursor = 0u64;
    for (i, m) in seq.iter().enumerate() {
        let store = m.class == InstrClass::Store;
        let mem = match m.mem {
            MicroMem::None => SeqDataRef::None,
            MicroMem::Frame => {
                spill_cursor += 1;
                SeqDataRef::Frame {
                    store,
                    offset: spill_cursor * 8,
                }
            }
            MicroMem::Heap => SeqDataRef::Heap { store },
        };
        out.push((
            (u64::from(off) + i as u64) * NATIVE_INSTR_BYTES,
            m.class,
            mem,
        ));
    }
}

/// Narrow a register number, enforcing the `u16` decode invariant.
fn r(v: VReg) -> u16 {
    debug_assert!(v.0 < u32::from(NONE));
    v.0 as u16
}

/// Decode one NIR instruction. `ic` is the instruction's emitted
/// offset (inline-cache slot for virtual calls); call argument
/// registers are appended to `pool`.
fn decode_op(inst: &NInst, ic: u32, pool: &mut Vec<u16>) -> XOp {
    match inst {
        NInst::IConst { d, v } => XOp::IConst { d: r(*d), v: *v },
        NInst::FConst { d, v } => XOp::FConst { d: r(*d), v: *v },
        NInst::NullConst { d } => XOp::NullConst { d: r(*d) },
        NInst::Mov { d, s } => XOp::Mov { d: r(*d), s: r(*s) },
        NInst::IBinOp { op, d, a, b } => {
            let (d, a, b) = (r(*d), r(*a), r(*b));
            match op {
                IBin::Add => XOp::IAdd { d, a, b },
                IBin::Sub => XOp::ISub { d, a, b },
                IBin::Mul => XOp::IMul { d, a, b },
                IBin::Div => XOp::IDiv { d, a, b },
                IBin::Rem => XOp::IRem { d, a, b },
                IBin::And => XOp::IAnd { d, a, b },
                IBin::Or => XOp::IOr { d, a, b },
                IBin::Xor => XOp::IXor { d, a, b },
                IBin::Shl => XOp::IShl { d, a, b },
                IBin::Shr => XOp::IShr { d, a, b },
            }
        }
        NInst::IShlImm { d, a, k } => XOp::IShlImm {
            d: r(*d),
            a: r(*a),
            k: *k,
        },
        NInst::INegOp { d, a } => XOp::INeg { d: r(*d), a: r(*a) },
        NInst::ICmpOp { d, a, b } => XOp::ICmp {
            d: r(*d),
            a: r(*a),
            b: r(*b),
        },
        NInst::FBinOp { op, d, a, b } => {
            let (d, a, b) = (r(*d), r(*a), r(*b));
            match op {
                FBin::Add => XOp::FAdd { d, a, b },
                FBin::Sub => XOp::FSub { d, a, b },
                FBin::Mul => XOp::FMul { d, a, b },
                FBin::Div => XOp::FDiv { d, a, b },
            }
        }
        NInst::FNegOp { d, a } => XOp::FNeg { d: r(*d), a: r(*a) },
        NInst::FCmpOp { d, a, b } => XOp::FCmp {
            d: r(*d),
            a: r(*a),
            b: r(*b),
        },
        NInst::I2FOp { d, a } => XOp::I2F { d: r(*d), a: r(*a) },
        NInst::F2IOp { d, a } => XOp::F2I { d: r(*d), a: r(*a) },
        NInst::NewArr { d, ty, len } => XOp::NewArr {
            d: r(*d),
            ty: *ty,
            len: r(*len),
        },
        NInst::NewObj { d, class } => XOp::NewObj {
            d: r(*d),
            class: class.0,
        },
        NInst::ALoadOp { d, arr, idx, .. } => XOp::ALoad {
            d: r(*d),
            arr: r(*arr),
            idx: r(*idx),
        },
        NInst::AStoreOp { arr, idx, val, .. } => XOp::AStore {
            arr: r(*arr),
            idx: r(*idx),
            val: r(*val),
        },
        NInst::ArrLenOp { d, arr } => XOp::ArrLen {
            d: r(*d),
            arr: r(*arr),
        },
        NInst::GetFieldOp { d, obj, slot, .. } => XOp::GetField {
            d: r(*d),
            obj: r(*obj),
            slot: *slot,
        },
        NInst::PutFieldOp { obj, slot, val } => XOp::PutField {
            obj: r(*obj),
            slot: *slot,
            val: r(*val),
        },
        NInst::CallOp { d, target, args } => {
            let argi = pool.len() as u32;
            pool.extend(args.iter().map(|&a| r(a)));
            XOp::Call {
                d: d.map_or(NONE, r),
                argc: args.len() as u16,
                target: target.0,
                argi,
            }
        }
        NInst::CallVirtOp {
            d,
            slot,
            recv,
            args,
        } => {
            let argi = pool.len() as u32;
            pool.extend(args.iter().map(|&a| r(a)));
            XOp::CallVirt {
                d: d.map_or(NONE, r),
                slot: *slot,
                recv: r(*recv),
                argc: args.len() as u16,
                ic,
                argi,
            }
        }
        NInst::Jmp { target } => XOp::Jmp { t: target.0 },
        NInst::BrCond {
            cond,
            a,
            b,
            then_,
            else_,
        } => XOp::Br {
            cond: *cond,
            a: r(*a),
            b: r(*b),
            t: then_.0,
            e: else_.0,
        },
        NInst::Ret { val } => XOp::Ret {
            v: val.map_or(NONE, r),
        },
    }
}

/// Whether `op`'s semantics touch the machine: calls recurse into
/// the VM and allocations charge a zeroing mix. Segments end before
/// these ops.
fn touches_machine(op: &XOp) -> bool {
    matches!(
        op,
        XOp::Call { .. } | XOp::CallVirt { .. } | XOp::NewArr { .. } | XOp::NewObj { .. }
    )
}

/// Build the segment starting at instruction `ii` of block `b`, or
/// `None` when that instruction touches the machine.
fn segment(
    line_bytes: u32,
    code: &NativeCode,
    blocks: &[XBlock],
    mut b: usize,
    mut ii: usize,
    scratch: &mut Vec<(u64, InstrClass, SeqDataRef)>,
) -> Option<Seg> {
    let mut visited = vec![b];
    let (mut ops, mut heap, mut src) = (Vec::new(), Vec::new(), Vec::new());
    let mut steps = 0u64;
    scratch.clear();
    loop {
        let op = &blocks[b].ops[ii];
        if touches_machine(op) {
            break;
        }
        let seq = &code.micros[b][ii];
        inst_micros(seq, code.offsets[b][ii], scratch);
        steps += (seq.len() as u64).max(1);
        ops.push(op.clone());
        heap.push(
            u8::try_from(blocks[b].plans[ii].heap_micros())
                .expect("an emitted instruction has at most one heap micro"),
        );
        src.push((b as u32, ii as u32));
        ii += 1;
        match *op {
            XOp::Jmp { t } if !visited.contains(&(t as usize)) => {
                b = t as usize;
                ii = 0;
                visited.push(b);
            }
            XOp::Jmp { .. } | XOp::Br { .. } | XOp::Ret { .. } => break,
            _ => {}
        }
    }
    (!ops.is_empty()).then(|| Seg {
        ops: ops.into_boxed_slice(),
        heap: heap.into_boxed_slice(),
        src: src.into_boxed_slice(),
        steps,
        plan: SeqPlan::compile_at(line_bytes, scratch),
        resume: (b as u32, ii as u32),
    })
}

/// Compile `code` into its executable plan against `config`'s I-cache
/// geometry: pre-decoded ops, per-instruction charge
/// plans and segments. Grouping at `line_bytes.min(32)` is sound
/// because code bases are 32-byte aligned (see
/// [`SeqPlan::compile_at`]).
///
/// # Panics
/// If the function uses ≥ `u16::MAX` virtual registers (far beyond
/// anything the JIT emits).
pub fn compile(config: &MachineConfig, code: &NativeCode) -> XCode {
    assert!(
        code.func.nregs < u32::from(NONE),
        "register file too large to pre-decode"
    );
    let line_bytes = config.icache.map_or(32, |c| c.line_bytes).min(32);
    let mut scratch: Vec<(u64, InstrClass, SeqDataRef)> = Vec::new();
    let mut args_pool: Vec<u16> = Vec::new();
    let mut blocks: Vec<XBlock> = code
        .func
        .blocks
        .iter()
        .enumerate()
        .map(|(b, block)| {
            let offs = &code.offsets[b];
            let n = block.insts.len();
            let mut ops = Vec::with_capacity(n);
            let mut plans = Vec::with_capacity(n);
            for (ii, inst) in block.insts.iter().enumerate() {
                ops.push(decode_op(inst, offs[ii], &mut args_pool));
                scratch.clear();
                inst_micros(&code.micros[b][ii], offs[ii], &mut scratch);
                plans.push(SeqPlan::compile_at(line_bytes, &scratch));
            }
            XBlock {
                ops,
                plans,
                seg_at: vec![NO_SEG; n],
            }
        })
        .collect();

    let mut segs = Vec::new();
    for b in 0..blocks.len() {
        for ii in 0..blocks[b].ops.len() {
            if ii > 0 && !touches_machine(&blocks[b].ops[ii - 1]) {
                continue;
            }
            if let Some(seg) = segment(line_bytes, code, &blocks, b, ii, &mut scratch) {
                blocks[b].seg_at[ii] = segs.len() as u32;
                segs.push(seg);
            }
        }
    }

    XCode {
        blocks,
        segs,
        nregs: code.func.nregs,
        args_pool,
    }
}
