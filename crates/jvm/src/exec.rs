//! The native-code executor.
//!
//! Runs a method's pre-decoded executable plan (an
//! [`XCode`], compiled at install time from the JIT's
//! [`NativeCode`](crate::emit::NativeCode)): NIR semantics over a
//! virtual register file, with every emitted micro-instruction issued
//! to the simulated [`Machine`](jem_energy::Machine) — instruction
//! fetches walk the method's code region (so big, heavily inlined
//! Local3 bodies exert real I-cache pressure), heap accesses touch
//! their true simulated addresses, and spilled registers generate
//! frame traffic.
//!
//! The hot loop interprets compact fixed-size [`XOp`]s rather than the
//! NIR itself: register numbers are pre-narrowed, operators pre-split
//! into per-op variants, inline-cache slots precomputed, so dispatch
//! is one match on a 16-byte op with no nested decoding. Stretches
//! between calls and allocations run as segments, charged once after
//! their semantics (see [`crate::runplan`]).
//!
//! Results are bit-identical to the interpreter's: both engines share
//! [`crate::arith`] and the same heap.

use crate::arith::{f2i, fcmp, icmp};
use crate::bytecode::{ClassId, MethodId};
use crate::costs;
use crate::runplan::{Seg, XCode, XOp, NONE, NO_SEG};
use crate::value::{Type, Value};
use crate::vm::Vm;
use crate::VmError;
use std::cell::Cell;

/// Where control goes after one instruction's semantics.
enum Ctl {
    /// Fall through to the next instruction.
    Next,
    /// Jump to a block.
    Jump(u32),
    /// Return from the method.
    Ret(Option<Value>),
}

/// Execute a method's pre-decoded plan `x` (installed at simulated
/// address `base`) with `args`.
///
/// `ics` holds the method's monomorphic inline caches, indexed by the
/// virtual call's emitted instruction offset: `(class << 32) | target`
/// packed per site, `u64::MAX` when cold. The cache memoizes the
/// immutable program's vtable lookups, so hits are observationally
/// identical to the full resolution path.
///
/// `x` also carries the batched charge plans compiled at install time
/// for this VM's machine: per-instruction plans plus one merged plan
/// per segment, charged once after the segment's semantics ran (see
/// [`crate::runplan`]); replaying either is bit-exact with stepping
/// the micros one by one (see [`jem_energy::Machine::step_seq`]).
///
/// # Errors
/// Any [`VmError`] raised by the executed code.
pub fn run(
    vm: &mut Vm<'_>,
    x: &XCode,
    base: u64,
    ics: &[Cell<u64>],
    args: Vec<Value>,
) -> Result<Option<Value>, VmError> {
    // The register file is pooled; the wrapper keeps recycling off the
    // hot path and covers every exit (returns and errors alike).
    let mut regs = vm.take_buf();
    let out = run_inner(vm, x, base, ics, args, &mut regs);
    vm.put_buf(regs);
    out
}

fn run_inner(
    vm: &mut Vm<'_>,
    x: &XCode,
    base: u64,
    ics: &[Cell<u64>],
    args: Vec<Value>,
    regs: &mut Vec<Value>,
) -> Result<Option<Value>, VmError> {
    regs.resize(x.nregs as usize, Value::Int(0));
    regs[..args.len()].copy_from_slice(&args);
    vm.machine.charge_mix(&costs::arg_copy_mix(args.len()));
    vm.put_buf(args);

    let frame_base = costs::FRAME_BASE + u64::from(vm.depth()) * 8192;

    let mut block = 0usize;
    let mut ii = 0usize;

    'blocks: loop {
        // Hoist the per-block slices: the inner loop then indexes flat
        // slices instead of chasing nested spines per instruction.
        let xb = &x.blocks[block];
        let ops = &xb.ops[..];

        loop {
            // Segment path: a segment starts here and the remaining
            // step budget covers all of it, so its charges are deferred
            // until its semantics ran (see [`crate::runplan`]).
            let si = xb.seg_at[ii];
            if si != NO_SEG {
                let seg = &x.segs[si as usize];
                if vm.options.step_budget.saturating_sub(vm.steps) >= seg.steps {
                    match run_seg(vm, x, seg, base, frame_base, ics, regs)? {
                        Ctl::Next => (block, ii) = (seg.resume.0 as usize, seg.resume.1 as usize),
                        Ctl::Jump(b) => (block, ii) = (b as usize, 0),
                        Ctl::Ret(v) => return Ok(v),
                    }
                    continue 'blocks;
                }
            }

            // Per-instruction path: calls, allocations and step-budget
            // cutoffs. Heap addresses are resolved before charging so
            // the D-cache sees the true locations.
            let op = &ops[ii];
            let plan = &xb.plans[ii];
            let mut addrs = std::mem::take(&mut vm.heap_addrs);
            addrs.clear();
            if plan.heap_micros() > 0 {
                addrs.resize(plan.heap_micros(), heap_addr(vm, regs, op));
            }
            vm.machine.step_seq(plan, base, frame_base, &addrs);
            vm.heap_addrs = addrs;
            vm.bump_steps(plan.len().max(1))?;

            match step_semantics(vm, regs, op, ics, &x.args_pool)? {
                Ctl::Next => ii += 1,
                Ctl::Jump(b) => {
                    block = b as usize;
                    ii = 0;
                    continue 'blocks;
                }
                Ctl::Ret(v) => return Ok(v),
            }
        }
    }
}

/// Run one segment: every op's semantics first, recording each heap
/// micro's address before its op runs, then one charge for the whole
/// segment. If op `k` fails, charge only the prefix `0..=k` through the
/// per-instruction plans — exactly what the reference charged — and
/// return the error. The caller has checked the step budget covers the
/// whole segment.
fn run_seg(
    vm: &mut Vm<'_>,
    x: &XCode,
    seg: &Seg,
    base: u64,
    frame_base: u64,
    ics: &[Cell<u64>],
    regs: &mut [Value],
) -> Result<Ctl, VmError> {
    let mut addrs = std::mem::take(&mut vm.heap_addrs);
    addrs.clear();
    let mut ctl = Ctl::Next;
    for (k, (op, &nheap)) in seg.ops.iter().zip(seg.heap.iter()).enumerate() {
        if nheap > 0 {
            let a = heap_addr(vm, regs, op);
            addrs.extend(std::iter::repeat_n(a, usize::from(nheap)));
        }
        // Only the last op's control transfer counts: interior `Jmp`s
        // were followed when the segment was built.
        ctl = match step_semantics(vm, regs, op, ics, &x.args_pool) {
            Ok(c) => c,
            Err(e) => {
                let mut rest = &addrs[..];
                for &(b, i) in &seg.src[..=k] {
                    let plan = &x.blocks[b as usize].plans[i as usize];
                    let (now, later) = rest.split_at(plan.heap_micros());
                    vm.machine.step_seq(plan, base, frame_base, now);
                    rest = later;
                    vm.bump_steps(plan.len().max(1))?;
                }
                vm.heap_addrs = addrs;
                return Err(e);
            }
        };
    }
    vm.machine.step_seq(&seg.plan, base, frame_base, &addrs);
    vm.heap_addrs = addrs;
    vm.bump_steps(seg.steps)?;
    Ok(ctl)
}

/// The simulated heap address `op` touches, from the registers as they
/// are before its semantics run; `None` when the operands are not a
/// reference (and a non-negative index), in which case the op fails.
#[inline]
fn heap_addr(vm: &Vm<'_>, regs: &[Value], op: &XOp) -> Option<u64> {
    match op {
        XOp::ALoad { arr, idx, .. } | XOp::AStore { arr, idx, .. } => {
            match (regs[*arr as usize], regs[*idx as usize]) {
                (Value::Ref(h), Value::Int(i)) if i >= 0 => {
                    Some(vm.heap.element_address(h, i as usize))
                }
                _ => None,
            }
        }
        XOp::ArrLen { arr, .. } => match regs[*arr as usize] {
            Value::Ref(h) => Some(vm.heap.address_of(h)),
            _ => None,
        },
        XOp::GetField { obj, slot, .. } | XOp::PutField { obj, slot, .. } => {
            match regs[*obj as usize] {
                Value::Ref(h) => Some(vm.heap.field_address(h, *slot as usize)),
                _ => None,
            }
        }
        XOp::CallVirt { recv, .. } => match regs[*recv as usize] {
            Value::Ref(h) => Some(vm.heap.address_of(h)),
            _ => None,
        },
        _ => None,
    }
}

/// One instruction's semantics. Charging is the caller's: before it on
/// the per-instruction path, after the whole segment on the segment
/// path. Inlined into both paths: a call per op would cost as much as
/// the op itself.
#[inline(always)]
fn step_semantics(
    vm: &mut Vm<'_>,
    regs: &mut [Value],
    op: &XOp,
    ics: &[Cell<u64>],
    pool: &[u16],
) -> Result<Ctl, VmError> {
    macro_rules! geti {
        ($r:expr) => {
            regs[$r as usize].as_int()?
        };
    }
    macro_rules! getf {
        ($r:expr) => {
            regs[$r as usize].as_float()?
        };
    }
    macro_rules! getref {
        ($r:expr) => {
            regs[$r as usize].as_ref()?
        };
    }
    macro_rules! set {
        ($r:expr, $v:expr) => {
            regs[$r as usize] = $v
        };
    }
    // Flattened integer/float binary ops: operands load left-to-right
    // then apply, exactly as `arith::ibin`/`arith::fbin` would.
    macro_rules! ibin {
        ($d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
            let $x = geti!(*$a);
            let $y = geti!(*$b);
            set!(*$d, Value::Int($e));
        }};
    }
    macro_rules! fbin {
        ($d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
            let $x = getf!(*$a);
            let $y = getf!(*$b);
            set!(*$d, Value::Float($e));
        }};
    }

    match op {
        XOp::IConst { d, v } => set!(*d, Value::Int(*v)),
        XOp::FConst { d, v } => set!(*d, Value::Float(*v)),
        XOp::NullConst { d } => set!(*d, Value::Null),
        XOp::Mov { d, s } => set!(*d, regs[*s as usize]),
        XOp::IAdd { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_add(y)),
        XOp::ISub { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_sub(y)),
        XOp::IMul { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_mul(y)),
        XOp::IDiv { d, a, b } => {
            let x = geti!(*a);
            let y = geti!(*b);
            if y == 0 {
                return Err(VmError::DivByZero);
            }
            set!(*d, Value::Int(x.wrapping_div(y)));
        }
        XOp::IRem { d, a, b } => {
            let x = geti!(*a);
            let y = geti!(*b);
            if y == 0 {
                return Err(VmError::DivByZero);
            }
            set!(*d, Value::Int(x.wrapping_rem(y)));
        }
        XOp::IAnd { d, a, b } => ibin!(d, a, b, |x, y| x & y),
        XOp::IOr { d, a, b } => ibin!(d, a, b, |x, y| x | y),
        XOp::IXor { d, a, b } => ibin!(d, a, b, |x, y| x ^ y),
        XOp::IShl { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_shl(y as u32 & 31)),
        XOp::IShr { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_shr(y as u32 & 31)),
        XOp::IShlImm { d, a, k } => {
            let r = geti!(*a).wrapping_shl(u32::from(*k));
            set!(*d, Value::Int(r));
        }
        XOp::INeg { d, a } => {
            let r = geti!(*a).wrapping_neg();
            set!(*d, Value::Int(r));
        }
        XOp::ICmp { d, a, b } => ibin!(d, a, b, |x, y| icmp(x, y)),
        XOp::FAdd { d, a, b } => fbin!(d, a, b, |x, y| x + y),
        XOp::FSub { d, a, b } => fbin!(d, a, b, |x, y| x - y),
        XOp::FMul { d, a, b } => fbin!(d, a, b, |x, y| x * y),
        XOp::FDiv { d, a, b } => fbin!(d, a, b, |x, y| x / y),
        XOp::FNeg { d, a } => {
            let r = -getf!(*a);
            set!(*d, Value::Float(r));
        }
        XOp::FCmp { d, a, b } => {
            let x = getf!(*a);
            let y = getf!(*b);
            set!(*d, Value::Int(fcmp(x, y)));
        }
        XOp::I2F { d, a } => {
            let r = f64::from(geti!(*a));
            set!(*d, Value::Float(r));
        }
        XOp::F2I { d, a } => {
            let r = f2i(getf!(*a));
            set!(*d, Value::Int(r));
        }
        XOp::NewArr { d, ty, len } => {
            let n = geti!(*len);
            if n < 0 {
                return Err(VmError::NegativeArrayLength(n));
            }
            let bytes = match ty {
                Type::Float => 8,
                _ => 4,
            } * n as u64;
            vm.machine.charge_mix(&costs::alloc_zero_mix(bytes));
            let h = vm.heap.alloc_array(*ty, n as usize);
            set!(*d, Value::Ref(h));
        }
        XOp::NewObj { d, class } => {
            let c = vm.program.class(ClassId(*class));
            vm.machine
                .charge_mix(&costs::alloc_zero_mix(8 * c.field_types.len() as u64));
            let h = vm.heap.alloc_object(*class, &c.field_types);
            set!(*d, Value::Ref(h));
        }
        XOp::ALoad { d, arr, idx } => {
            let h = getref!(*arr);
            let i = geti!(*idx);
            if i < 0 {
                return Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: vm.heap.array_len(h)?,
                });
            }
            let v = vm.heap.array_get(h, i as usize)?;
            set!(*d, v);
        }
        XOp::AStore { arr, idx, val } => {
            let h = getref!(*arr);
            let i = geti!(*idx);
            if i < 0 {
                return Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: vm.heap.array_len(h)?,
                });
            }
            vm.heap.array_set(h, i as usize, regs[*val as usize])?;
        }
        XOp::ArrLen { d, arr } => {
            let h = getref!(*arr);
            let n = vm.heap.array_len(h)?;
            set!(*d, Value::Int(n as i32));
        }
        XOp::GetField { d, obj, slot } => {
            let h = getref!(*obj);
            let v = vm.heap.field_get(h, *slot as usize)?;
            set!(*d, v);
        }
        XOp::PutField { obj, slot, val } => {
            let h = getref!(*obj);
            vm.heap.field_set(h, *slot as usize, regs[*val as usize])?;
        }
        XOp::Call {
            d,
            argc,
            target,
            argi,
        } => {
            let mut argv = vm.take_buf();
            let args = &pool[*argi as usize..*argi as usize + *argc as usize];
            argv.extend(args.iter().map(|&r| regs[r as usize]));
            let ret = vm.invoke(MethodId(*target), argv)?;
            if *d != NONE {
                if let Some(v) = ret {
                    set!(*d, v);
                }
            }
        }
        XOp::CallVirt {
            d,
            slot,
            recv,
            argc,
            ic,
            argi,
        } => {
            let h = getref!(*recv);
            let class = vm.heap.class_of(h)?;
            let ic = ics.get(*ic as usize);
            let cached = ic.map_or(u64::MAX, Cell::get);
            let target = if (cached >> 32) as u32 == class {
                MethodId(cached as u32)
            } else {
                let vtable = &vm.program.class(ClassId(class)).vtable;
                let t = *vtable.get(*slot as usize).ok_or(VmError::BadVSlot(*slot))?;
                if let Some(c) = ic {
                    c.set((u64::from(class) << 32) | u64::from(t.0));
                }
                t
            };
            let mut argv = vm.take_buf();
            argv.push(Value::Ref(h));
            let args = &pool[*argi as usize..*argi as usize + *argc as usize];
            argv.extend(args.iter().map(|&r| regs[r as usize]));
            let ret = vm.invoke(target, argv)?;
            if *d != NONE {
                if let Some(v) = ret {
                    set!(*d, v);
                }
            }
        }
        XOp::Jmp { t } => return Ok(Ctl::Jump(*t)),
        XOp::Br { cond, a, b, t, e } => {
            return Ok(Ctl::Jump(if cond.eval(geti!(*a), geti!(*b)) {
                *t
            } else {
                *e
            }));
        }
        XOp::Ret { v } => {
            return Ok(Ctl::Ret(if *v == NONE {
                None
            } else {
                Some(regs[*v as usize])
            }));
        }
    }
    Ok(Ctl::Next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::jit;
    use crate::verify::verify_program;
    use crate::vm::Vm;
    use std::rc::Rc;

    /// Compile + install `f` at the given level, run, and return
    /// (result, energy_nj, cycles).
    fn run_compiled(
        mb: ModuleBuilder,
        name: &str,
        level: crate::emit::OptLevel,
        args: Vec<Value>,
    ) -> (Option<Value>, f64, u64) {
        let p = mb.compile().unwrap();
        verify_program(&p).unwrap();
        let id = p.find_method(MODULE_CLASS, name).unwrap();
        let mut vm = Vm::client(&p);
        let compiled = jit::compile(&p, id, level);
        vm.install_native(id, Rc::new(compiled.code));
        let out = vm.invoke(id, args).unwrap();
        (out, vm.machine.energy().nanojoules(), vm.machine.cycles())
    }

    fn sum_module() -> ModuleBuilder {
        let mut m = ModuleBuilder::new();
        m.func(
            "sum",
            vec![("n", DType::Int)],
            Some(DType::Int),
            vec![
                let_("acc", iconst(0)),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![assign("acc", var("acc").add(var("i")))],
                ),
                ret(var("acc")),
            ],
        );
        m
    }

    #[test]
    fn compiled_sum_matches_interpreter() {
        for level in crate::emit::OptLevel::ALL {
            let (out, _, _) = run_compiled(sum_module(), "sum", level, vec![Value::Int(50)]);
            assert_eq!(out, Some(Value::Int(1225)), "{level}");
        }
    }

    #[test]
    fn compiled_code_uses_less_energy_than_interpreter() {
        let p = sum_module().compile().unwrap();
        let id = p.find_method(MODULE_CLASS, "sum").unwrap();

        let mut interp_vm = Vm::client(&p);
        interp_vm.invoke(id, vec![Value::Int(500)]).unwrap();
        let interp_energy = interp_vm.machine.energy();

        let mut native_vm = Vm::client(&p);
        let compiled = jit::compile(&p, id, crate::emit::OptLevel::L1);
        native_vm.install_native(id, Rc::new(compiled.code));
        native_vm.invoke(id, vec![Value::Int(500)]).unwrap();
        let native_energy = native_vm.machine.energy();

        let ratio = interp_energy.ratio(native_energy);
        assert!(
            ratio > 2.5 && ratio < 15.0,
            "interpreter/native energy ratio {ratio}"
        );
    }

    #[test]
    fn optimized_code_is_cheaper_to_run() {
        let (out1, e1, c1) = run_compiled(
            sum_module(),
            "sum",
            crate::emit::OptLevel::L1,
            vec![Value::Int(2000)],
        );
        let (out2, e2, c2) = run_compiled(
            sum_module(),
            "sum",
            crate::emit::OptLevel::L2,
            vec![Value::Int(2000)],
        );
        assert_eq!(out1, out2);
        assert!(e2 < e1, "L2 ({e2}) should beat L1 ({e1})");
        assert!(c2 < c1, "L2 cycles ({c2}) should beat L1 ({c1})");
    }

    #[test]
    fn mixed_mode_calls_work_both_ways() {
        // callee compiled, caller interpreted — and vice versa.
        let mut m = ModuleBuilder::new();
        m.func(
            "double",
            vec![("x", DType::Int)],
            Some(DType::Int),
            vec![ret(var("x").mul(iconst(2)))],
        );
        m.func(
            "main",
            vec![("x", DType::Int)],
            Some(DType::Int),
            vec![ret(call("double", vec![var("x")]).add(iconst(1)))],
        );
        let p = m.compile().unwrap();
        let dbl = p.find_method(MODULE_CLASS, "double").unwrap();
        let main = p.find_method(MODULE_CLASS, "main").unwrap();

        // Case 1: only callee compiled.
        let mut vm = Vm::client(&p);
        let c = jit::compile(&p, dbl, crate::emit::OptLevel::L1);
        vm.install_native(dbl, Rc::new(c.code));
        assert_eq!(
            vm.invoke(main, vec![Value::Int(21)]).unwrap(),
            Some(Value::Int(43))
        );

        // Case 2: only caller compiled.
        let mut vm = Vm::client(&p);
        let c = jit::compile(&p, main, crate::emit::OptLevel::L1);
        vm.install_native(main, Rc::new(c.code));
        assert_eq!(
            vm.invoke(main, vec![Value::Int(21)]).unwrap(),
            Some(Value::Int(43))
        );
    }

    #[test]
    fn runtime_errors_surface_from_native_code() {
        let mut m = ModuleBuilder::new();
        m.func(
            "div",
            vec![("a", DType::Int), ("b", DType::Int)],
            Some(DType::Int),
            vec![ret(var("a").div(var("b")))],
        );
        let p = m.compile().unwrap();
        let id = p.find_method(MODULE_CLASS, "div").unwrap();
        let mut vm = Vm::client(&p);
        let c = jit::compile(&p, id, crate::emit::OptLevel::L2);
        vm.install_native(id, Rc::new(c.code));
        assert_eq!(
            vm.invoke(id, vec![Value::Int(1), Value::Int(0)]),
            Err(VmError::DivByZero)
        );
    }

    #[test]
    fn arrays_virtuals_and_floats_in_native_code() {
        let mut m = ModuleBuilder::new();
        m.class("Acc", None, &[("total", DType::Float)]);
        m.virtual_method(
            "Acc",
            "add",
            vec![("x", DType::Float)],
            None,
            vec![set_field(
                var("this"),
                "total",
                var("this").field("total").add(var("x")),
            )],
        );
        m.func(
            "main",
            vec![("n", DType::Int)],
            Some(DType::Float),
            vec![
                let_("a", new_arr(DType::Float, var("n"))),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![set_index(
                        var("a"),
                        var("i"),
                        var("i").to_f().mul(fconst(0.5)),
                    )],
                ),
                let_("acc", new_obj("Acc")),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![expr_stmt(
                        var("acc").vcall("add", vec![var("a").index(var("i"))]),
                    )],
                ),
                ret(var("acc").field("total")),
            ],
        );
        for level in crate::emit::OptLevel::ALL {
            let (out, _, _) = run_compiled(
                {
                    // rebuild the module each time (ModuleBuilder is
                    // consumed by compile)
                    let mut m2 = ModuleBuilder::new();
                    m2.class("Acc", None, &[("total", DType::Float)]);
                    m2.virtual_method(
                        "Acc",
                        "add",
                        vec![("x", DType::Float)],
                        None,
                        vec![set_field(
                            var("this"),
                            "total",
                            var("this").field("total").add(var("x")),
                        )],
                    );
                    m2.func(
                        "main",
                        vec![("n", DType::Int)],
                        Some(DType::Float),
                        vec![
                            let_("a", new_arr(DType::Float, var("n"))),
                            for_(
                                "i",
                                iconst(0),
                                var("n"),
                                vec![set_index(
                                    var("a"),
                                    var("i"),
                                    var("i").to_f().mul(fconst(0.5)),
                                )],
                            ),
                            let_("acc", new_obj("Acc")),
                            for_(
                                "i",
                                iconst(0),
                                var("n"),
                                vec![expr_stmt(
                                    var("acc").vcall("add", vec![var("a").index(var("i"))]),
                                )],
                            ),
                            ret(var("acc").field("total")),
                        ],
                    );
                    m2
                },
                "main",
                level,
                vec![Value::Int(10)],
            );
            // 0.5 * (0 + 1 + ... + 9) = 22.5
            assert_eq!(out, Some(Value::Float(22.5)), "{level}");
        }
    }
}
