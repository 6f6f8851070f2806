//! Integration tests for the `.jts` sim-time-series timeline layer
//! (this PR's acceptance criteria, exercised on real simulator runs):
//!
//! * sampling is a pure observer — a run with a live [`TimelineSink`]
//!   produces bit-identical results to the same seed without one, as
//!   a property over seeds and fault severities;
//! * the energy-rate series integrate back to the run's final
//!   [`EnergyBreakdown`] *bit-exactly* (the cumulative columns
//!   telescope — no quadrature error, no tolerance);
//! * windowed sums over the `energy.<c>.trace_nj` columns reconcile
//!   bit-exactly with folding the same window of the run's trace
//!   events, because both are the identical sequence of f64 adds;
//! * checkpoint/resume of a mid-run timeline reproduces the
//!   uninterrupted `.jts` byte-for-byte, even with post-checkpoint
//!   garbage appended (crash simulation);
//! * the series-driven energy-rate-anomaly watchdog fires on a seeded
//!   fault run once its window is tightened to the injected fault
//!   density, and stays quiet at defaults on clean runs.

use std::sync::OnceLock;

use jem_core::{
    run_scenario_traced, scenario_result_to_json, Profile, ResilienceConfig, ScenarioResult,
    Strategy, Workload,
};
use jem_energy::Component;
use jem_jvm::dsl::*;
use jem_jvm::{Heap, MethodAttrs, MethodId, Program, Value};
use jem_obs::monitor::{Monitor, MonitorConfig};
use jem_obs::{validate_jts, NullSink, RingSink, Timeline, TimelineSink, TraceEvent, TraceSink};
use jem_sim::{Scenario, Situation};
use proptest::prelude::*;
use rand::rngs::SmallRng;

/// The synthetic quadratic kernel from `stream_pipeline.rs`: enough
/// cycles to make modes distinguishable, cheap to run per-seed.
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
                    vec![for_(
                        "j",
                        iconst(0),
                        var("n"),
                        vec![assign(
                            "acc",
                            var("acc")
                                .add(var("i").mul(var("j")))
                                .bitxor(var("acc").shr(iconst(3))),
                        )],
                    )],
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
        "synthetic quadratic kernel"
    }
    fn program(&self) -> &Program {
        &self.program
    }
    fn potential_method(&self) -> MethodId {
        self.method
    }
    fn sizes(&self) -> Vec<u32> {
        vec![16, 32, 64, 128]
    }
    fn size_meaning(&self) -> &str {
        "loop bound"
    }
    fn make_args(&self, _heap: &mut Heap, size: u32, _rng: &mut SmallRng) -> Vec<Value> {
        vec![Value::Int(size as i32)]
    }
}

fn profile() -> &'static Profile {
    static PROFILE: OnceLock<Profile> = OnceLock::new();
    PROFILE.get_or_init(|| Profile::build(&Kernel::new(), 1))
}

fn degraded_scenario(seed: u64, runs: usize, loss_bad: f64) -> Scenario {
    Scenario::paper_degraded(
        Situation::GoodDominant,
        &Kernel::new().sizes(),
        seed,
        loss_bad,
    )
    .with_runs(runs)
}

/// A scratch path under a directory of its own for `test` in this
/// process, so concurrent tests and test processes never share a file.
fn jts_path(test: &str, name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("jem-core-timeline-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// 1 sim-ms — the default bench cadence.
const EVERY_NS: f64 = 1e6;

fn run_with_sink(
    scenario: &Scenario,
    strategy: Strategy,
    sink: &mut dyn TraceSink,
) -> ScenarioResult {
    run_scenario_traced(
        &Kernel::new(),
        profile(),
        scenario,
        strategy,
        &ResilienceConfig::default(),
        sink,
    )
    .expect("scenario run failed")
}

/// Replay collected events into a timeline, reproducing the tracer's
/// cumulative ledger (the same sequence of f64 adds, so bit-equal).
fn drive(sink: &mut TimelineSink, events: &[TraceEvent]) {
    let mut ledger = jem_energy::EnergyBreakdown::new();
    for ev in events {
        ledger += ev.delta;
        sink.observe(ev, Some(&ledger));
    }
}

// ---------------------------------------------------------------
// Zero RNG impact + exact integral reconciliation
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// A run sampled by a live `.jts` writer is bit-identical to the
    /// same seed without one, and the energy-rate series integrate
    /// back to the run's final breakdown bit-for-bit.
    #[test]
    fn timeline_run_is_bit_identical_and_integral_exact(
        seed in 0u64..1000,
        loss_idx in 0usize..3,
    ) {
        let loss_bad = [0.0f64, 0.5, 0.9][loss_idx];
        let scenario = degraded_scenario(seed, 30, loss_bad);

        let plain = run_with_sink(&scenario, Strategy::AdaptiveAdaptive, &mut NullSink);

        let path = jts_path("onoff", &format!("onoff-{seed}-{loss_idx}.jts"));
        let mut tl_sink = TimelineSink::create(&path, EVERY_NS).unwrap();
        let timed = run_with_sink(&scenario, Strategy::AdaptiveAdaptive, &mut tl_sink);
        tl_sink.finish().unwrap();

        // Zero RNG impact: full results documents, rendered and
        // compared as strings, so every float bit participates.
        prop_assert_eq!(
            scenario_result_to_json(&plain, true).render(),
            scenario_result_to_json(&timed, true).render(),
            "timeline-on run must be bit-identical to timeline-off"
        );

        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        validate_jts(&bytes).expect("timeline validates");
        let tl = Timeline::read(&bytes).unwrap();
        prop_assert_eq!(tl.segments.len(), 1);
        // The integral of the rate series telescopes to the final
        // cumulative sample, which carries the tracer's exact ledger:
        // strict equality against the run's breakdown, per component.
        for c in Component::ALL {
            prop_assert_eq!(
                tl.segments[0].rate_integral_nj(c).to_bits(),
                timed.breakdown[c].nanojoules().to_bits(),
                "rate integral of {} must equal the run breakdown bit-for-bit",
                c.name()
            );
        }
    }
}

// ---------------------------------------------------------------
// Windowed reconciliation against the trace
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// For windows `[0, T]` anchored at scheduled sample boundaries,
    /// the timeline's `energy.<c>.trace_nj` value equals folding the
    /// trace's per-event deltas over the same window — bit-exactly,
    /// because both perform the identical f64 additions in order.
    #[test]
    fn windowed_series_reconcile_bit_exactly_with_trace(
        seed in 0u64..1000,
        loss_idx in 0usize..3,
    ) {
        let loss_bad = [0.0f64, 0.5, 0.9][loss_idx];
        let scenario = degraded_scenario(seed, 30, loss_bad);
        let mut ring = RingSink::new(1_000_000);
        run_with_sink(&scenario, Strategy::AdaptiveAdaptive, &mut ring);
        let events = ring.into_events();

        let path = jts_path("window", &format!("window-{seed}-{loss_idx}.jts"));
        let mut sink = TimelineSink::create(&path, EVERY_NS).unwrap();
        drive(&mut sink, &events);
        sink.finish().unwrap();
        let tl = Timeline::read(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        let seg = &tl.segments[0];
        let last = events.last().unwrap().at.nanos();

        for frac in [0.25f64, 0.5, 0.75, 1.0] {
            // Snap the window end to a scheduled sample boundary. An
            // event landing exactly on it would be a sampling tie
            // (the forced end-of-invocation sample may interleave);
            // fractional real-run timestamps make that impossible,
            // and we assert it rather than silently skip.
            let t = (last * frac / EVERY_NS).floor() * EVERY_NS;
            prop_assert!(events.iter().all(|e| e.at.nanos() != t));
            for c in Component::ALL {
                let idx = tl
                    .series_index(&format!("energy.{}.trace_nj", c.name()))
                    .expect("trace series present");
                let mut acc = 0.0f64;
                for ev in events.iter().filter(|e| e.at.nanos() <= t) {
                    acc += ev.delta[c].nanojoules();
                }
                prop_assert_eq!(
                    seg.value_at(idx, t).to_bits(),
                    acc.to_bits(),
                    "windowed [0, {}] sum of {} must match the trace fold",
                    t,
                    c.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------

/// A timeline checkpointed mid-run, "crashed" (garbage appended past
/// the checkpoint offset), resumed, and completed is byte-identical
/// to one written in a single uninterrupted pass.
#[test]
fn resumed_timeline_is_byte_identical() {
    let scenario = degraded_scenario(7, 40, 0.5);
    let mut ring = RingSink::new(1_000_000);
    run_with_sink(&scenario, Strategy::AdaptiveAdaptive, &mut ring);
    let events = ring.into_events();
    assert!(events.len() > 100, "need a meaningful stream");

    let golden_path = jts_path("resume", "resume-golden.jts");
    let mut golden = TimelineSink::create(&golden_path, EVERY_NS).unwrap();
    drive(&mut golden, &events);
    golden.finish().unwrap();
    let golden_bytes = std::fs::read(&golden_path).unwrap();

    for cut in [1, events.len() / 3, events.len() / 2, events.len() - 1] {
        let path = jts_path("resume", &format!("resume-cut{cut}.jts"));
        let mut sink = TimelineSink::create(&path, EVERY_NS).unwrap();
        let mut ledger = jem_energy::EnergyBreakdown::new();
        for ev in &events[..cut] {
            ledger += ev.delta;
            sink.observe(ev, Some(&ledger));
        }
        let state = TraceSink::ckpt_state(&mut sink).expect("timeline checkpoints");
        drop(sink);
        // Crash simulation: bytes written after the checkpoint that
        // the resume must truncate away.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"TORN-PARTIAL-BLOCK-GARBAGE").unwrap();
        }
        let mut resumed = TimelineSink::resume(&path, &state).expect("resume succeeds");
        for ev in &events[cut..] {
            ledger += ev.delta;
            resumed.observe(ev, Some(&ledger));
        }
        resumed.finish().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            golden_bytes,
            "cut at {cut}: resumed timeline must be byte-identical"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&golden_path).ok();
}

// ---------------------------------------------------------------
// Series-driven watchdogs
// ---------------------------------------------------------------

/// The energy-rate-anomaly watchdog fires on a seeded fault run once
/// its window matches the injected fault density: retry bursts under
/// heavy loss multiply per-invocation energy without a matching time
/// increase, spiking the rate series far above its sliding mean.
#[test]
fn fault_run_fires_energy_rate_anomaly() {
    let scenario = degraded_scenario(7, 120, 0.9);
    let mut ring = RingSink::new(1_000_000);
    run_with_sink(&scenario, Strategy::AdaptiveAdaptive, &mut ring);
    let events = ring.into_events();

    let mut m = Monitor::new(MonitorConfig {
        rate_window: 10,
        rate_factor: 2.0,
        ..MonitorConfig::default()
    });
    for ev in &events {
        m.observe(ev);
    }
    let report = m.finish();
    assert!(
        report
            .counts
            .get("energy-rate-anomaly")
            .copied()
            .unwrap_or(0)
            > 0,
        "energy-rate-anomaly must fire on the fault run: {report:?}"
    );
    // The structural invariants still hold on the degraded run.
    assert_eq!(report.counts.get("conservation"), None, "{report:?}");
    assert_eq!(report.counts.get("negative-delta"), None, "{report:?}");
}
