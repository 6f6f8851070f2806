//! Differential tests for the native executor's segment charging.
//!
//! The executor charges a whole segment (a superblock of machine-free
//! ops, see `jem_jvm::runplan`) once, after the segment's semantics
//! ran, and on an error replays only the prefix the reference charged.
//! The reference here is the same executable plan with every segment
//! removed: each op is then charged through its own `SeqPlan` before
//! its semantics run, in order — the per-instruction path.
//!
//! Both must agree on the returned value or error and on the full
//! machine fingerprint (steps, cycles, energy bits, per-component
//! bits, instruction mix, cache statistics and residency):
//!
//! 1. **Random programs** (proptest) at L1–L3: the `prop_jit_equiv`
//!    generator extended with faults that land inside segments —
//!    division and remainder by zero, negative and out-of-range array
//!    indices, field access through a null reference — plus
//!    allocations and a static call, which split segments. Every
//!    step-budget cutoff of each run is checked.
//! 2. **One program per fault kind** (deterministic), each with the
//!    fault in the middle of a segment, at every level and cutoff.

use jem_jvm::dsl::*;
use jem_jvm::runplan::{self, XCode, XOp, NO_SEG};
use jem_jvm::verify::verify_program;
use jem_jvm::{compile, exec, MethodCode, MethodId, OptLevel, Program, Value, Vm, VmError};
use proptest::prelude::*;
use std::rc::Rc;

/// Everything observable about a finished VM, with energies captured
/// as raw bit patterns.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    steps: u64,
    cycles: u64,
    energy_bits: u64,
    component_bits: Vec<(String, u64)>,
    mix: Vec<(String, u64)>,
    icache: Option<jem_energy::CacheStats>,
    dcache: Option<jem_energy::CacheStats>,
    state: jem_energy::MachineState,
}

fn fingerprint(vm: &Vm) -> Fingerprint {
    let m = &vm.machine;
    Fingerprint {
        steps: vm.steps,
        cycles: m.cycles(),
        energy_bits: m.energy().joules().to_bits(),
        component_bits: m
            .breakdown()
            .iter()
            .map(|(c, e)| (format!("{c:?}"), e.joules().to_bits()))
            .collect(),
        mix: {
            use jem_energy::InstrClass::*;
            let mix = m.mix();
            [Load, Store, Branch, AluSimple, AluComplex, Nop]
                .iter()
                .map(|c| (format!("{c:?}"), mix.count(*c)))
                .collect()
        },
        icache: m.icache_stats(),
        dcache: m.dcache_stats(),
        state: m.export_state(),
    }
}

type Outcome = (Result<Option<Value>, VmError>, Fingerprint);

/// The reference plan: `code` compiled for `vm`'s machine with every
/// segment removed, so each op runs on the per-instruction path.
fn unsegmented(vm: &Vm, code: &jem_jvm::NativeCode) -> XCode {
    let mut x = runplan::compile(vm.machine.config(), code);
    x.segs.clear();
    for b in &mut x.blocks {
        b.seg_at.fill(NO_SEG);
    }
    x
}

/// Run `id(args)` compiled at `level` on a fresh client VM under
/// `budget`, through the installed (segmented) plan or the reference.
fn run_native(
    program: &Program,
    id: MethodId,
    level: OptLevel,
    args: &[Value],
    budget: u64,
    segmented: bool,
) -> Outcome {
    let mut vm = Vm::client(program);
    vm.options.step_budget = budget;
    vm.install_native(id, Rc::new(compile(program, id, level).code));
    let MethodCode::Native {
        code,
        base,
        ics,
        plans,
    } = vm.code_of(id).clone()
    else {
        unreachable!("native code was just installed")
    };
    let x = if segmented {
        plans
    } else {
        Rc::new(unsegmented(&vm, &code))
    };
    let got = exec::run(&mut vm, &x, base, &ics, args.to_vec());
    (got, fingerprint(&vm))
}

/// Both executors agree on the full run and on every step-budget
/// cutoff from 0 to past its end. Returns the full run's result.
fn assert_agree_at_every_cutoff(
    program: &Program,
    id: MethodId,
    level: OptLevel,
    args: &[Value],
    ctx: &str,
) -> Result<Option<Value>, VmError> {
    let (full, full_fp) = run_native(program, id, level, args, u64::MAX, false);
    let (seg, seg_fp) = run_native(program, id, level, args, u64::MAX, true);
    assert_eq!(seg, full, "result diverged at {level}: {ctx}");
    assert_eq!(seg_fp, full_fp, "machine diverged at {level}: {ctx}");
    let total = full_fp.steps;
    for budget in 0..=total + 1 {
        let (r, r_fp) = run_native(program, id, level, args, budget, false);
        let (s, s_fp) = run_native(program, id, level, args, budget, true);
        assert_eq!(s, r, "result diverged at {level}, budget {budget}: {ctx}");
        assert_eq!(
            s_fp, r_fp,
            "machine diverged at {level}, budget {budget}: {ctx}"
        );
        if budget < total {
            assert_eq!(r, Err(VmError::StepBudgetExceeded), "budget {budget}");
        } else {
            assert_eq!(r, full, "budget {budget} covers the whole run");
        }
    }
    full
}

// ---------------------------------------------------------------
// 1. Random programs
// ---------------------------------------------------------------

/// `prop_jit_equiv`'s expression AST plus faulting and
/// segment-splitting forms. Locals v0..v2 are int parameters, `arr` a
/// 16-element array, `o` a `Cell` reference that statements may null.
#[derive(Debug, Clone)]
enum E {
    Const(i32),
    Var(u8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Shl(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    // arr[e & 15]
    Load(Box<E>),
    // arr[(e & 31) - 8]: negative or out of range for half the values
    LoadAny(Box<E>),
    // o.x, null once a `Drop` ran
    Field,
    // g(e), a static call
    Call(Box<E>),
}

#[derive(Debug, Clone)]
enum S {
    Assign(u8, E),
    Store(E, E),    // arr[e1 & 15] = e2
    StoreAny(E, E), // arr[(e1 & 31) - 8] = e2
    SetField(E),    // o.x = e
    Drop,           // o = null
    Renew,          // o = new Cell()
    If(E, E, Vec<S>, Vec<S>),
    Loop(u8, Vec<S>), // bounded 0..k loop over a fresh counter
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-64i32..64).prop_map(E::Const),
        (0u8..3).prop_map(E::Var),
        Just(E::Field),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Rem(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Shl(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Load(Box::new(a))),
            inner.clone().prop_map(|a| E::LoadAny(Box::new(a))),
            inner.clone().prop_map(|a| E::Call(Box::new(a))),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    let base = prop_oneof![
        ((0u8..3), expr_strategy()).prop_map(|(v, e)| S::Assign(v, e)),
        (expr_strategy(), expr_strategy()).prop_map(|(i, v)| S::Store(i, v)),
        (expr_strategy(), expr_strategy()).prop_map(|(i, v)| S::StoreAny(i, v)),
        expr_strategy().prop_map(S::SetField),
        Just(S::Drop),
        Just(S::Renew),
    ];
    base.prop_recursive(2, 16, 4, |inner| {
        let stmts = prop::collection::vec(inner, 1..4);
        prop_oneof![
            (
                expr_strategy(),
                expr_strategy(),
                stmts.clone(),
                stmts.clone()
            )
                .prop_map(|(a, b, t, e)| S::If(a, b, t, e)),
            ((1u8..4), stmts).prop_map(|(k, b)| S::Loop(k, b)),
        ]
    })
}

fn any_index(e: &E) -> Expr {
    to_expr(e).bitand(iconst(31)).sub(iconst(8))
}

fn to_expr(e: &E) -> Expr {
    match e {
        E::Const(c) => iconst(*c),
        E::Var(v) => var(&format!("v{v}")),
        E::Add(a, b) => to_expr(a).add(to_expr(b)),
        E::Sub(a, b) => to_expr(a).sub(to_expr(b)),
        E::Mul(a, b) => to_expr(a).mul(to_expr(b)),
        E::Div(a, b) => to_expr(a).div(to_expr(b)),
        E::Rem(a, b) => to_expr(a).rem(to_expr(b)),
        E::Shl(a, b) => to_expr(a).shl(to_expr(b)),
        E::Xor(a, b) => to_expr(a).bitxor(to_expr(b)),
        E::Load(i) => var("arr").index(to_expr(i).bitand(iconst(15))),
        E::LoadAny(i) => var("arr").index(any_index(i)),
        E::Field => var("o").field("x"),
        E::Call(a) => call("g", vec![to_expr(a)]),
    }
}

fn to_stmts(stmts: &[S], fresh: &mut u32) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            S::Assign(v, e) => assign(&format!("v{v}"), to_expr(e)),
            S::Store(i, v) => set_index(var("arr"), to_expr(i).bitand(iconst(15)), to_expr(v)),
            S::StoreAny(i, v) => set_index(var("arr"), any_index(i), to_expr(v)),
            S::SetField(e) => set_field(var("o"), "x", to_expr(e)),
            S::Drop => assign("o", null(DType::Obj("Cell".into()))),
            S::Renew => assign("o", new_obj("Cell")),
            S::If(a, b, t, e) => {
                let mut f1 = *fresh;
                let body_t = to_stmts(t, &mut f1);
                let body_e = to_stmts(e, &mut f1);
                *fresh = f1;
                if_else(to_expr(a).lt(to_expr(b)), body_t, body_e)
            }
            S::Loop(k, b) => {
                let name = format!("i{fresh}");
                *fresh += 1;
                let body = to_stmts(b, fresh);
                for_(&name, iconst(0), iconst(i32::from(*k)), body)
            }
        })
        .collect()
}

/// The module skeleton around a statement list: `f(v0, v1, v2)` seeds
/// `arr` and `o`, runs `body`, then folds the state into one value.
fn build_with(body_stmts: Vec<Stmt>) -> (Program, MethodId) {
    let mut m = ModuleBuilder::new();
    m.class("Cell", None, &[("x", DType::Int)]);
    m.func(
        "g",
        vec![("x", DType::Int)],
        Some(DType::Int),
        vec![ret(var("x").mul(iconst(3)).bitxor(var("x").shr(iconst(2))))],
    );
    let mut body = vec![
        let_("arr", new_arr(DType::Int, iconst(16))),
        for_(
            "s",
            iconst(0),
            iconst(16),
            vec![set_index(
                var("arr"),
                var("s"),
                var("v0").add(var("s").mul(iconst(7))),
            )],
        ),
        let_("o", new_obj("Cell")),
        set_field(var("o"), "x", var("v1")),
    ];
    body.extend(body_stmts);
    body.push(let_("acc", var("v0").bitxor(var("v1")).bitxor(var("v2"))));
    body.push(for_(
        "t",
        iconst(0),
        iconst(16),
        vec![assign(
            "acc",
            var("acc")
                .mul(iconst(31))
                .add(var("arr").index(var("t")))
                .bitxor(var("acc").shr(iconst(7))),
        )],
    ));
    body.push(ret(var("acc")));
    m.func(
        "f",
        vec![("v0", DType::Int), ("v1", DType::Int), ("v2", DType::Int)],
        Some(DType::Int),
        body,
    );
    let p = m.compile().expect("generated programs compile");
    verify_program(&p).expect("generated programs verify");
    let id = p.find_method(MODULE_CLASS, "f").expect("f exists");
    (p, id)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn segments_match_per_op_charging(
        stmts in prop::collection::vec(stmt_strategy(), 1..5),
        a in -1000i32..1000,
        b in -1000i32..1000,
        c in -1000i32..1000,
    ) {
        let mut fresh = 0;
        let (program, id) = build_with(to_stmts(&stmts, &mut fresh));
        let args = [Value::Int(a), Value::Int(b), Value::Int(c)];
        for level in OptLevel::ALL {
            let _ = assert_agree_at_every_cutoff(&program, id, level, &args, &format!("{stmts:?}"));
        }
    }
}

// ---------------------------------------------------------------
// 2. One fault per kind, mid-segment
// ---------------------------------------------------------------

/// Each statement list faults with the given error, with the faulting
/// op between machine-free ops of the same segment (register
/// arithmetic before it, more arithmetic and a store after it).
#[test]
fn faults_inside_segments_charge_only_the_prefix() {
    // v0 = 5, v1 = 0, v2 = -3 at run time.
    let around = |fault: Expr| {
        vec![
            assign("v2", var("v2").mul(iconst(7)).add(var("v0"))),
            assign("v0", var("v0").add(fault).bitxor(var("v2"))),
            set_index(var("arr"), iconst(3), var("v0").add(iconst(1))),
        ]
    };
    let cases: Vec<(&str, Vec<Stmt>, VmError)> = vec![
        (
            "div by zero",
            around(var("v2").div(var("v1"))),
            VmError::DivByZero,
        ),
        (
            "rem by zero",
            around(var("v2").rem(var("v1"))),
            VmError::DivByZero,
        ),
        (
            "negative index",
            around(var("arr").index(var("v2"))),
            VmError::IndexOutOfBounds {
                index: usize::MAX,
                len: 16,
            },
        ),
        (
            "index past the end",
            around(var("arr").index(var("v0").add(iconst(100)))),
            VmError::IndexOutOfBounds {
                index: 105,
                len: 16,
            },
        ),
        (
            "null field",
            {
                let mut s = vec![assign("o", null(DType::Obj("Cell".into())))];
                s.extend(around(var("o").field("x")));
                s
            },
            VmError::NullDeref,
        ),
    ];
    let args = [Value::Int(5), Value::Int(0), Value::Int(-3)];
    for (name, stmts, want) in cases {
        let (program, id) = build_with(stmts);
        for level in OptLevel::ALL {
            let got = assert_agree_at_every_cutoff(&program, id, level, &args, name);
            assert_eq!(got, Err(want.clone()), "{name} at {level}");
        }
    }
}

// ---------------------------------------------------------------
// 3. Segment shapes
// ---------------------------------------------------------------

/// Ops whose semantics touch the machine; segments end before them.
fn touches_machine(op: &XOp) -> bool {
    matches!(
        op,
        XOp::Call { .. } | XOp::CallVirt { .. } | XOp::NewArr { .. } | XOp::NewObj { .. }
    )
}

/// Every segment starts at a block entry or after a call or
/// allocation, holds no op that touches the machine, follows jumps
/// into the next op's block, ends at a terminator or just before a
/// call or allocation, and merges exactly its ops' per-instruction
/// plans.
#[test]
fn segments_follow_jumps_and_stop_at_calls() {
    let mut fresh = 0;
    let stmts = [
        S::If(
            E::Var(0),
            E::Const(3),
            vec![S::Assign(1, E::Call(Box::new(E::Var(1))))],
            vec![S::Assign(
                2,
                E::Add(Box::new(E::Var(2)), Box::new(E::Field)),
            )],
        ),
        S::Loop(3, vec![S::Renew, S::Store(E::Var(2), E::Var(1))]),
    ];
    let (program, id) = build_with(to_stmts(&stmts, &mut fresh));
    let mut interior_jumps = 0;
    for level in OptLevel::ALL {
        let vm = Vm::client(&program);
        let x = runplan::compile(vm.machine.config(), &compile(&program, id, level).code);
        for (b, xb) in x.blocks.iter().enumerate() {
            for (ii, &si) in xb.seg_at.iter().enumerate() {
                let starts = ii == 0 || touches_machine(&xb.ops[ii - 1]);
                let expect = starts && !touches_machine(&xb.ops[ii]);
                assert_eq!(si != NO_SEG, expect, "{level} b{b} i{ii}");
            }
        }
        for seg in &x.segs {
            let n = seg.ops.len();
            assert_eq!((seg.heap.len(), seg.src.len()), (n, n));
            let plan_of = |k: usize| {
                let (b, i) = seg.src[k];
                &x.blocks[b as usize].plans[i as usize]
            };
            assert_eq!(seg.plan.len(), (0..n).map(|k| plan_of(k).len()).sum());
            assert_eq!(seg.steps, (0..n).map(|k| plan_of(k).len().max(1)).sum());
            for (k, op) in seg.ops.iter().enumerate() {
                let (b, i) = seg.src[k];
                assert_eq!(usize::from(seg.heap[k]), plan_of(k).heap_micros());
                assert_eq!(
                    std::mem::discriminant(op),
                    std::mem::discriminant(&x.blocks[b as usize].ops[i as usize])
                );
                assert!(!touches_machine(op));
                if k + 1 == n {
                    break;
                }
                match op {
                    XOp::Jmp { t } => {
                        interior_jumps += 1;
                        assert_eq!(seg.src[k + 1], (*t, 0));
                    }
                    XOp::Br { .. } | XOp::Ret { .. } => panic!("terminator inside a segment"),
                    _ => assert_eq!(seg.src[k + 1], (b, i + 1)),
                }
            }
            if !matches!(
                seg.ops[n - 1],
                XOp::Jmp { .. } | XOp::Br { .. } | XOp::Ret { .. }
            ) {
                let (b, i) = seg.resume;
                assert!(touches_machine(&x.blocks[b as usize].ops[i as usize]));
            }
        }
    }
    assert!(interior_jumps > 0, "some segment follows a jump");
}
