//! Soundness of the I-cache epoch memo in batched charge replays.
//!
//! `ChargeSeq` and `SeqPlan` remember the I-cache epoch (and, for a
//! `SeqPlan`, the code base) at which one full replay saw no miss, and
//! then credit every fetch as a hit without a lookup. This property
//! drives random replays, each repeated, interleaved with conflicting
//! fetches, `reset`, `import_state` and mid-stream clones that keep
//! running on the same plans, and compares every machine against a
//! twin that steps each fetch one by one (`step` + `charge_mix` for
//! interpreter dispatches, one `step` per native micro).

use jem_energy::{
    CacheConfig, ChargeSeq, Component, InstrClass, InstrMix, Machine, MachineConfig, MachineState,
    MemOp, SeqDataRef, SeqPlan,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A 1 KB I-cache (32 lines) and 512 B D-cache, so the small address
/// ranges below conflict often.
fn config() -> MachineConfig {
    MachineConfig {
        icache: Some(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
        }),
        dcache: Some(CacheConfig {
            size_bytes: 512,
            line_bytes: 32,
        }),
        ..MachineConfig::mobile_client()
    }
}

fn class(g: &mut SmallRng) -> InstrClass {
    InstrClass::ALL[g.gen_range(0..6)]
}

/// A merged interpreter charge replay and the `(pc, lead, mix)`
/// dispatches it stands for (one of them: a plain handler's seq).
struct SeqCase {
    parts: Vec<(u64, InstrClass, InstrMix)>,
    seq: ChargeSeq,
}

/// A native segment plan plus the micros it folds.
struct PlanCase {
    micros: Vec<(u64, InstrClass, SeqDataRef)>,
    plan: SeqPlan,
}

fn seq_case(g: &mut SmallRng) -> SeqCase {
    let parts: Vec<(u64, InstrClass, InstrMix)> = (0..1 + g.gen_range(0..4u64))
        .map(|_| {
            // Handler addresses within 4 KB: four times the I-cache.
            let pc = g.gen_range(0..4096) & !3;
            let mix = InstrMix::new()
                .with(class(g), 1 + g.gen_range(0..3))
                .with(class(g), g.gen_range(0..2));
            (pc, class(g), mix)
        })
        .collect();
    let plans: Vec<ChargeSeq> = parts
        .iter()
        .map(|&(pc, lead, mix)| ChargeSeq::compile(pc, lead, &[mix]))
        .collect();
    let seq = ChargeSeq::merge(&plans.iter().collect::<Vec<_>>());
    SeqCase { parts, seq }
}

fn plan_case(g: &mut SmallRng) -> PlanCase {
    let n: u64 = g.gen_range(0..24);
    let mut off = g.gen_range(0..2048) & !3;
    let micros: Vec<(u64, InstrClass, SeqDataRef)> = (0..n)
        .map(|_| {
            // Mostly sequential, sometimes a jump (a followed `Jmp`).
            off = if g.gen_range(0..6) == 0 {
                g.gen_range(0..2048) & !3
            } else {
                off + 4
            };
            let mem = match g.gen_range(0..4) {
                0 => SeqDataRef::Frame {
                    store: g.gen_range(0..2) == 0,
                    offset: g.gen_range(0..64) * 8,
                },
                1 => SeqDataRef::Heap {
                    store: g.gen_range(0..2) == 0,
                },
                _ => SeqDataRef::None,
            };
            (off, class(g), mem)
        })
        .collect();
    let plan = SeqPlan::compile_at(32, &micros);
    PlanCase { micros, plan }
}

/// The fast machine under test and its per-fetch reference twin.
#[derive(Clone)]
struct Pair {
    fast: Machine,
    slow: Machine,
    saved: Option<(MachineState, MachineState)>,
}

fn replay_seq(p: &mut Pair, c: &SeqCase) {
    p.fast.step_charge_seq(&c.seq);
    for &(pc, lead, mix) in &c.parts {
        p.slow.step(pc, lead, MemOp::None);
        p.slow.charge_mix(&mix);
    }
}

fn replay_plan(p: &mut Pair, c: &PlanCase, code_base: u64, heap: &[Option<u64>]) {
    p.fast.step_seq(&c.plan, code_base, 0x8000, heap);
    let mut heap = heap.iter();
    for &(off, class, mem) in &c.micros {
        let op = match mem {
            SeqDataRef::None => MemOp::None,
            SeqDataRef::Frame {
                store: true,
                offset,
            } => MemOp::Write(0x8000 + offset),
            SeqDataRef::Frame { offset, .. } => MemOp::Read(0x8000 + offset),
            SeqDataRef::Heap { store } => match heap.next().copied().flatten() {
                Some(a) if store => MemOp::Write(a),
                Some(a) => MemOp::Read(a),
                None => MemOp::None,
            },
        };
        p.slow.step(code_base + off, class, op);
    }
}

/// Counters, cache tags and stats, power state and ledger; then the
/// full breakdown bit for bit.
fn assert_same(p: &Pair, what: &str) -> Result<(), TestCaseError> {
    let (f, s) = (&p.fast, &p.slow);
    prop_assert_eq!(f.export_state(), s.export_state(), "state after {}", what);
    for c in Component::ALL {
        let (x, y) = (f.breakdown()[c], s.breakdown()[c]);
        prop_assert_eq!(
            x.nanojoules().to_bits(),
            y.nanojoules().to_bits(),
            "{} after {}",
            c.name(),
            what
        );
    }
    Ok(())
}

fn run_script(seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let mut g = SmallRng::seed_from_u64(seed);
    let seqs: Vec<SeqCase> = (0..4).map(|_| seq_case(&mut g)).collect();
    let plans: Vec<PlanCase> = (0..4).map(|_| plan_case(&mut g)).collect();
    // Line-aligned code bases; 0x400 apart, i.e. aliasing in the 1 KB
    // I-cache, and one far away.
    let bases = [0x3000_0000u64, 0x3000_0400, 0x3000_0040, 0x3100_0000];
    let mut pairs = vec![Pair {
        fast: Machine::new(config()),
        slow: Machine::new(config()),
        saved: None,
    }];
    for step in 0..steps {
        let k = g.gen_range(0..pairs.len());
        let what = format!("step {step} (seed {seed})");
        match g.gen_range(0..16) {
            0..=4 => {
                let c = &seqs[g.gen_range(0..seqs.len())];
                for _ in 0..1 + g.gen_range(0..4) {
                    replay_seq(&mut pairs[k], c);
                }
            }
            5..=9 => {
                let c = &plans[g.gen_range(0..plans.len())];
                let base = bases[g.gen_range(0..bases.len())];
                for _ in 0..1 + g.gen_range(0..4) {
                    let heap: Vec<Option<u64>> = (0..c.plan.heap_micros())
                        .map(|_| (g.gen_range(0..5) != 0).then(|| 0x9000 + g.gen_range(0..2048)))
                        .collect();
                    replay_plan(&mut pairs[k], c, base, &heap);
                }
            }
            10..=11 => {
                // A conflicting fetch (and data access) stepped directly.
                let pc = bases[g.gen_range(0..bases.len())] + (g.gen_range(0..2048) & !3);
                let p = &mut pairs[k];
                let class = class(&mut g);
                let mem = MemOp::Read(0x9000 + g.gen_range(0..2048));
                p.fast.step(pc, class, mem);
                p.slow.step(pc, class, mem);
            }
            12 => {
                let p = &mut pairs[k];
                p.fast.reset();
                p.slow.reset();
            }
            13 => {
                let p = &mut pairs[k];
                p.saved = Some((p.fast.export_state(), p.slow.export_state()));
            }
            14 => {
                let p = &mut pairs[k];
                if let Some((f, s)) = &p.saved {
                    p.fast.import_state(f);
                    p.slow.import_state(s);
                }
            }
            _ => {
                // A clone that keeps running on the same plans (and
                // their memos) beside the original.
                if pairs.len() < 4 {
                    let c = pairs[k].clone();
                    pairs.push(c);
                }
            }
        }
        assert_same(&pairs[k], &what)?;
    }
    for p in &pairs {
        assert_same(p, "the script")?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Memoized replays leave every machine — clones included — in
    /// the state per-fetch stepping produces: cycles, mix, cache
    /// counters and tags, and ledger bits.
    #[test]
    fn memoized_replays_match_per_fetch_stepping(seed in any::<u64>()) {
        run_script(seed, 400)?;
    }
}
