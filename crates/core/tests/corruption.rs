//! Corruption corpus for the crash-safety decoders: every loader that
//! reads bytes off disk after a crash — [`RunSnapshot::decode`],
//! [`CkptFile::decode`], [`decode_result`], the `.jtb` loader and the
//! salvage pass — must survive truncation, bit flips and garbage with
//! a typed error, never a panic and never silently-wrong data.

use jem_core::ckpt::{run_scenario_ckpt, CkptFile, InflightCkpt, RunSnapshot};
use jem_core::{decode_result, encode_result, Profile, ResilienceConfig, Strategy, Workload};
use jem_jvm::dsl::*;
use jem_jvm::{Heap, MethodAttrs, MethodId, Program, Value};
use jem_obs::{jtb_bytes, load_trace_bytes, salvage_jtb, TraceShard};
use jem_sim::{Scenario, Situation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Kernel {
    program: Program,
    method: MethodId,
}

impl Kernel {
    fn new() -> Kernel {
        let mut m = ModuleBuilder::new();
        m.func_with_attrs(
            "kernel",
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
            MethodAttrs {
                potential: true,
                size_param: Some(0),
                ..Default::default()
            },
        );
        let program = m.compile().unwrap();
        let method = program.find_method(MODULE_CLASS, "kernel").unwrap();
        Kernel { program, method }
    }
}

impl Workload for Kernel {
    fn name(&self) -> &str {
        "kernel"
    }
    fn description(&self) -> &str {
        "linear kernel"
    }
    fn program(&self) -> &Program {
        &self.program
    }
    fn potential_method(&self) -> MethodId {
        self.method
    }
    fn sizes(&self) -> Vec<u32> {
        vec![16, 32, 64]
    }
    fn size_meaning(&self) -> &str {
        "loop bound"
    }
    fn make_args(&self, _heap: &mut Heap, size: u32, _rng: &mut SmallRng) -> Vec<Value> {
        vec![Value::Int(size as i32)]
    }
}

/// One real mid-run snapshot, one completed result, and a populated
/// `.jck` container — the corpus seeds.
fn corpus() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let w = Kernel::new();
    let p = Profile::build(&w, 1);
    let scenario = Scenario::paper(Situation::Uniform, &w.sizes(), 9).with_runs(8);
    let mut snap_bytes = None;
    let mut hook = |s: &RunSnapshot, _w: Option<Vec<u8>>| snap_bytes = Some(s.encode());
    let result = run_scenario_ckpt(
        &w,
        &p,
        &scenario,
        Strategy::AdaptiveAdaptive,
        &ResilienceConfig::default(),
        None,
        None,
        4,
        Some(&mut hook),
    )
    .expect("run");
    let snap = snap_bytes.expect("one boundary at invocation 4");
    let result_bytes = encode_result(&result);
    let file = CkptFile {
        fingerprint: "corpus runs=8".into(),
        completed: vec![("unit/a".into(), result_bytes.clone())],
        writer_state: Some(vec![1, 2, 3, 4]),
        inflight: Some(InflightCkpt {
            unit: "unit/b".into(),
            snapshot: snap.clone(),
        }),
    };
    (snap, result_bytes, file.encode())
}

/// A small but complete `.jtb` stream.
fn jtb_corpus() -> Vec<u8> {
    let w = Kernel::new();
    let p = Profile::build(&w, 1);
    let scenario = Scenario::paper(Situation::Uniform, &w.sizes(), 9).with_runs(6);
    let mut sink = jem_obs::RingSink::new(100_000);
    run_scenario_ckpt(
        &w,
        &p,
        &scenario,
        Strategy::AdaptiveAdaptive,
        &ResilienceConfig::default(),
        Some(&mut sink),
        None,
        0,
        None,
    )
    .expect("run");
    jtb_bytes(&[TraceShard::new("corpus", sink.into_events())])
}

#[test]
fn truncated_inputs_give_typed_errors() {
    let (snap, result, file) = corpus();
    // Every strict prefix of a snapshot either fails to parse or
    // leaves trailing structure unaccounted — both are typed errors.
    for cut in 0..snap.len() {
        assert!(
            RunSnapshot::decode(&snap[..cut]).is_err(),
            "snapshot truncated to {cut} bytes decoded"
        );
    }
    for cut in 0..result.len() {
        assert!(
            decode_result(&result[..cut]).is_err(),
            "result truncated to {cut} bytes decoded"
        );
    }
    // The .jck trailer checksums the whole container, so any
    // truncation is caught before field parsing starts.
    for cut in 0..file.len() {
        assert!(
            CkptFile::decode(&file[..cut]).is_err(),
            ".jck truncated to {cut} bytes decoded"
        );
    }
}

#[test]
fn bit_flips_never_panic_and_checksums_catch_them() {
    let (snap, result, file) = corpus();
    // Unchecksummed decoders must never panic on a flip (a flip can
    // still decode — the .jck checksum above them is the integrity
    // gate); the checksummed .jck must reject every single-bit flip.
    for i in 0..snap.len() {
        let mut b = snap.clone();
        b[i] ^= 1 << (i % 8);
        let _ = RunSnapshot::decode(&b);
    }
    for i in 0..result.len() {
        let mut b = result.clone();
        b[i] ^= 1 << (i % 8);
        let _ = decode_result(&b);
    }
    for i in 0..file.len() {
        let mut b = file.clone();
        b[i] ^= 1 << (i % 8);
        assert!(
            CkptFile::decode(&b).is_err(),
            ".jck with bit {} of byte {i} flipped decoded",
            i % 8
        );
    }
}

/// FNV-1a-64, the `.jck` trailer checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn version_1_checkpoints_are_refused() {
    // A version-1 snapshot stored each machine's whole energy ledger;
    // read as version 2 it would add the instruction Core and DRAM
    // energy derived from the counts a second time. It must be refused
    // with a typed error, not resumed.
    let (_, _, file) = corpus();
    assert!(CkptFile::decode(&file).is_ok());
    // Magic, then the version varint.
    assert_eq!(file[4], 2, "current .jck version");
    let mut v1 = file[..file.len() - 8].to_vec();
    v1[4] = 1;
    let sum = fnv64(&v1);
    v1.extend_from_slice(&sum.to_le_bytes());
    let err = CkptFile::decode(&v1).expect_err("a v1 checkpoint decoded");
    assert!(
        err.to_string().contains("unsupported checkpoint version 1"),
        "{err}"
    );
}

#[test]
fn garbage_inputs_give_typed_errors() {
    let mut rng = SmallRng::seed_from_u64(42);
    for len in [0usize, 1, 7, 64, 513, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert!(RunSnapshot::decode(&garbage).is_err(), "garbage len {len}");
        assert!(decode_result(&garbage).is_err(), "garbage len {len}");
        assert!(CkptFile::decode(&garbage).is_err(), "garbage len {len}");
        assert!(load_trace_bytes(&garbage).is_err(), "garbage len {len}");
    }
}

#[test]
fn torn_jtb_always_salvages_or_errors_cleanly() {
    let bytes = jtb_corpus();
    assert!(load_trace_bytes(&bytes).is_ok(), "corpus must be valid");
    // A torn file (any truncation) either salvages to a loadable
    // recovered trace or reports a typed error — and the loader on
    // the raw torn bytes errors rather than panicking.
    for cut in 0..bytes.len() {
        let torn = &bytes[..cut];
        if cut < bytes.len() {
            let _ = load_trace_bytes(torn);
        }
        match salvage_jtb(torn) {
            Ok((salvaged, report)) => {
                let loaded = load_trace_bytes(&salvaged)
                    .unwrap_or_else(|e| panic!("salvaged cut={cut} does not load: {e}"));
                if !report.already_complete {
                    assert!(
                        loaded.recovered.is_some(),
                        "salvaged cut={cut} missing its recovered marker"
                    );
                }
            }
            Err(_) => {
                // Tears inside the header are unsalvageable by
                // contract; everything after it must salvage.
                assert!(
                    cut < 16,
                    "salvage refused a torn file with an intact header (cut={cut})"
                );
            }
        }
    }
    // Bit flips in the body: salvage and load must not panic.
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..200 {
        let i = rng.gen_range(0..bytes.len());
        let mut b = bytes.clone();
        b[i] ^= 1 << rng.gen_range(0..8);
        let _ = load_trace_bytes(&b);
        let _ = salvage_jtb(&b);
    }
}
