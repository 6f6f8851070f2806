//! The workloads: what a set-up builds, what one pass runs, and which
//! default-seed cells anchor the run to its references.

use crate::attrib::{secs, Acc, Clock, ObsSink, Region, Span, StampSink};
use crate::cells::{CellRun, References};
use jem_apps::workload_by_name;
use jem_core::{
    encode_result, restore_run, run_scenario_ckpt, run_scenario_with, Profile, ResilienceConfig,
    RunSnapshot, ScenarioResult, Strategy, Workload as App,
};
use jem_jvm::costs::serialize_mix;
use jem_jvm::{compile, serial, Heap, OptLevel, Value, Vm};
use jem_obs::{load_trace_path, FileSink, Json, MonitorConfig, MonitorTee, TimelineSink};
use jem_obs::{Timeline, TraceProfile};
use jem_sim::{parallel::sweep, Scenario, Situation};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Seed every bin passes to `Profile::build` (a calibration seed, not
/// a scenario seed: it stays fixed so set-up work is the same for
/// every workload seed).
const PROFILE_SEED: u64 = 42;

/// paper-grid apps with their index in `all_workloads()`, which fig7
/// adds to its base seed.
const GRID_APPS: [(&str, u64); 5] = [("fe", 0), ("pf", 1), ("sort", 5), ("jess", 6), ("db", 7)];
/// Invocations per paper-grid scenario (`fig7 --runs 8`, the
/// committed baseline).
const GRID_RUNS: usize = 8;
/// Seed families. Family 0 uses the bins' seeds (for paper-grid,
/// fig7's workload seed + app index); family k adds
/// `k * FAMILY_STRIDE`. Both workloads run family p in their pass p,
/// so a run sees a fresh size, channel and fault
/// draw on every pass and its medians move less from one workload
/// seed to the next than a single repeated draw would.
const FAMILY_STRIDE: u64 = 10_000;
/// Families the benchmark's own references cover at the default seed
/// (paper-grid 0–2, observed-faults 0–1).
const GRID_REF_FAMILIES: usize = 3;
const FAULT_REF_FAMILIES: usize = 2;

/// observed-faults apps (smallest size each).
const FAULT_APPS: [&str; 5] = ["jess", "db", "pf", "sort", "fe"];
/// Bad-state loss severities: the faults bin's five plus 0.1 and 0.4.
const SEVERITIES: [f64; 7] = [0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9];
/// Invocations per observed-faults scenario (`faults --runs 60`).
const FAULT_RUNS: usize = 60;
/// `.jts` sample cadence, 10 sim-ms. The bins default to 1 sim-ms;
/// at that cadence the timeline's size follows the simulated time a
/// cell's fault draws produce, which made peak memory swing by half
/// between workload seeds.
const SAMPLE_EVERY_NS: f64 = 1e7;

/// Where observed-faults writes its trace and timeline: a directory
/// of this process inside the checkout, removed at exit.
pub fn io_dir() -> String {
    format!(".bench_io/{}", std::process::id())
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 7 grid: apps × situations × strategies, 2 workers.
    PaperGrid,
    /// Short invocations over a degraded network with every observer
    /// attached and a checkpoint at every invocation boundary.
    ObservedFaults,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-grid" => Some(Workload::PaperGrid),
            "observed-faults" => Some(Workload::ObservedFaults),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::ObservedFaults => "observed-faults",
        }
    }

    /// The seed the corresponding bench bin uses, so that the default
    /// run reproduces the committed baselines.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperGrid => 1000,
            Workload::ObservedFaults => 7,
        }
    }

    /// The benchmark's own reference file.
    pub fn refs_path(self) -> String {
        format!("perfbench/refs/{}.json", self.name())
    }

    /// References at the default seed: the benchmark's own file with
    /// the committed baselines laid over it.
    pub fn references(self) -> Result<References, String> {
        self.overlay(References::load_own(&self.refs_path())?)
    }

    /// Passes whose cells have references at the default seed.
    pub fn ref_passes(self) -> usize {
        match self {
            Workload::PaperGrid => GRID_REF_FAMILIES,
            Workload::ObservedFaults => FAULT_REF_FAMILIES,
        }
    }

    /// Lay the committed baselines over `refs`.
    pub fn overlay(self, mut refs: References) -> Result<References, String> {
        match self {
            Workload::PaperGrid => overlay_fig7(&mut refs)?,
            Workload::ObservedFaults => {}
        }
        Ok(refs)
    }
}

/// At most two workers, as the host the workloads were sized on.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

fn load_baseline(name: &str) -> Result<Json, String> {
    let path = format!("bench/baselines/{name}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("results")
        .cloned()
        .ok_or_else(|| format!("{path}: missing 'results'"))
}

fn overlay_fig7(refs: &mut References) -> Result<(), String> {
    let doc = load_baseline("BENCH_fig7.json")?;
    if doc.get("runs").and_then(Json::as_u64) != Some(GRID_RUNS as u64) {
        return Err("BENCH_fig7.json was not recorded with --runs 8".into());
    }
    for cell in doc.get("cells").and_then(Json::as_array).unwrap_or(&[]) {
        let (Some(app), Some(sit)) = (
            cell.get("bench").and_then(Json::as_str),
            cell.get("situation").and_then(Json::as_str),
        ) else {
            continue;
        };
        if !GRID_APPS.iter().any(|(a, _)| *a == app) {
            continue;
        }
        for e in cell
            .get("energies_nj")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            if let (Some(s), Some(nj)) = (
                e.get("strategy").and_then(Json::as_str),
                e.get("nj").and_then(Json::as_f64),
            ) {
                let fields = Json::object().with("total_energy_nj", nj);
                refs.overlay(&format!("{app}/{sit}/{s}"), &fields);
            }
        }
    }
    Ok(())
}

/// References of the anchor's `BENCH_faults.json` cells (fe over its
/// full size range at the faults bin's defaults).
pub fn faults_baseline() -> Result<References, String> {
    let doc = load_baseline("BENCH_faults.json")?;
    if doc.get("runs").and_then(Json::as_u64) != Some(FAULT_RUNS as u64)
        || doc.get("seed").and_then(Json::as_u64) != Some(7)
    {
        return Err("BENCH_faults.json was not recorded with --runs 60 --seed 7".into());
    }
    let mut refs = References::default();
    for point in doc.get("points").and_then(Json::as_array).unwrap_or(&[]) {
        let loss = point.get("loss_bad").and_then(Json::as_f64).unwrap_or(-1.0);
        if loss != ANCHOR_LOSS {
            continue;
        }
        for (policy, ..) in POLICIES {
            if let Some(r) = point.get(policy) {
                refs.overlay(&format!("fe/full/loss{loss:.2}/{policy}"), r);
            }
        }
    }
    Ok(refs)
}

/// The anchor's baseline severity: the harshest the faults bin runs.
const ANCHOR_LOSS: f64 = 0.9;

/// Resilience policies of observed-faults: resilient AA, naive AA, AL.
const POLICIES: [(&str, Strategy, bool); 3] = [
    ("aa", Strategy::AdaptiveAdaptive, true),
    ("aa_naive", Strategy::AdaptiveAdaptive, false),
    ("al", Strategy::AdaptiveLocal, true),
];

fn policy_config(resilient: bool) -> ResilienceConfig {
    if resilient {
        ResilienceConfig::default()
    } else {
        ResilienceConfig::naive()
    }
}

/// What a set-up builds.
pub struct Setup {
    /// The apps, constructed.
    pub apps: Vec<Box<dyn App>>,
    /// Their profiles.
    pub profiles: Vec<Profile>,
}

/// Build a workload's apps and their profiles. With `acc`, the set-up
/// is timed per layer.
pub fn setup(w: Workload, acc: Option<&mut Acc>) -> Setup {
    let by_name = |n: &str| workload_by_name(n).expect("known app");
    let t = Instant::now();
    let apps: Vec<Box<dyn App>> = match w {
        Workload::PaperGrid => GRID_APPS.iter().map(|(n, _)| by_name(n)).collect(),
        Workload::ObservedFaults => FAULT_APPS.iter().map(|n| by_name(n)).collect(),
    };
    let t_apps = t.elapsed().as_secs_f64();
    let workers = workers();
    let refs: Vec<&dyn App> = apps.iter().map(AsRef::as_ref).collect();
    let start = Instant::now();
    let built = sweep(&refs, workers, |app| {
        Span::time(|| Profile::build(*app, PROFILE_SEED))
    });
    let end = Instant::now();
    if let Some(acc) = acc {
        acc.time("apps.build_s", t_apps);
        let spans: Vec<Span> = built.iter().map(|(_, s)| *s).collect();
        acc.time(
            "estimate.profile_s",
            spans.iter().map(Span::secs).sum::<f64>() / workers as f64,
        );
        acc.time(
            "parallel.idle_s",
            Region::of(&spans, workers, start, end).idle,
        );
    }
    Setup {
        apps,
        profiles: built.into_iter().map(|(p, _)| p).collect(),
    }
}

/// One pass over a workload's cells.
pub struct Pass {
    /// Pass wall seconds.
    pub wall: f64,
    /// Every cell, in a fixed order.
    pub cells: Vec<CellRun>,
    /// Per-layer times (traced passes) and simulated counts (always).
    pub acc: Acc,
    /// Executor figures of the pass.
    pub region: Region,
}

/// Run a scenario, turning errors and panics into a failed cell.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(panic) => Err(format!(
            "panicked: {}",
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        )),
    }
}

/// Run one plain or host-stamped scenario cell.
fn plain_cell(
    key: String,
    app: &dyn App,
    profile: &Profile,
    scenario: &Scenario,
    strategy: Strategy,
    resilience: &ResilienceConfig,
    acc: Option<&mut Acc>,
) -> CellRun {
    let t = Instant::now();
    let result = match acc {
        None => guarded(|| {
            run_scenario_with(app, profile, scenario, strategy, resilience)
                .map_err(|e| format!("{e:?}"))
        }),
        Some(acc) => {
            let clock = RefCell::new(Clock::new(profile));
            let r = guarded(|| {
                let mut stamp = StampSink::new(&clock, None);
                run_scenario_ckpt(
                    app,
                    profile,
                    scenario,
                    strategy,
                    resilience,
                    Some(&mut stamp),
                    None,
                    0,
                    None,
                )
                .map_err(|e| e.to_string())
            });
            acc.merge(&clock.into_inner().finish(), 1.0);
            r
        }
    };
    CellRun {
        key,
        ms: t.elapsed().as_secs_f64() * 1e3,
        result,
        extra: Ok(()),
        snapshot_bytes: 0,
        faulty: !scenario.faults.is_none(),
    }
}

/// Simulated counts of a finished cell (exact; identical on every
/// pass at one seed).
fn count_sim(acc: &mut Acc, cell: &CellRun) {
    let Ok(r) = &cell.result else { return };
    let s = &r.stats;
    acc.count("sim.client_instructions", r.instructions as f64);
    acc.count("runtime.mode.interp", s.interpreted as f64);
    acc.count("runtime.mode.l1", s.local[0] as f64);
    acc.count("runtime.mode.l2", s.local[1] as f64);
    acc.count("runtime.mode.l3", s.local[2] as f64);
    acc.count("runtime.mode.remote", s.remote as f64);
    acc.count(
        "remote.attempts",
        (s.remote + s.retries + s.fallbacks) as f64,
    );
    acc.count("resilience.retries", s.retries as f64);
    acc.count("resilience.fallbacks", s.fallbacks as f64);
    acc.count("resilience.breaker_trips", s.breaker_trips as f64);
    acc.count("ckpt.snapshot_bytes", cell.snapshot_bytes as f64);
}

/// Run pass `index` of `w` at workload seed `seed`: seed family
/// `index`.
pub fn pass(w: Workload, setup: &Setup, seed: u64, index: usize, traced: bool) -> Pass {
    let family = index as u64;
    let start = Instant::now();
    let (cells, acc, spans) = match w {
        Workload::PaperGrid => grid_pass(setup, seed, family, traced),
        Workload::ObservedFaults => faults_pass(setup, seed, family, traced),
    };
    let end = Instant::now();
    let region = Region::of(&spans, workers(), start, end);
    let mut acc = acc;
    for cell in &cells {
        count_sim(&mut acc, cell);
    }
    if traced {
        acc.time("parallel.idle_s", region.idle);
    }
    Pass {
        wall: secs(start, end),
        cells,
        acc,
        region,
    }
}

type PassParts = (Vec<CellRun>, Acc, Vec<Span>);

/// Cell name of a paper-grid cell (family 0 carries fig7's names).
fn grid_key(app: &str, sit: Situation, s: Strategy, family: u64) -> String {
    match family {
        0 => format!("{app}/{}/{}", sit.key(), s.key()),
        k => format!("{app}/{}/{}/s{k}", sit.key(), s.key()),
    }
}

/// Run `f` over `items` through `jem_sim::parallel::sweep` on the
/// pass's workers, each item with its own accumulator. Layer times
/// come back divided by the worker count (see [`Acc::merge`]).
fn swept<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T, &mut Acc) -> R + Sync,
) -> (Vec<R>, Acc, Vec<Span>) {
    let workers = workers();
    let done = sweep(items, workers, |item| {
        Span::time(|| {
            let mut acc = Acc::default();
            let r = f(item, &mut acc);
            (r, acc)
        })
    });
    let mut acc = Acc::default();
    let mut out = Vec::with_capacity(done.len());
    let mut spans = Vec::with_capacity(done.len());
    for ((r, a), span) in done {
        acc.merge(&a, workers as f64);
        out.push(r);
        spans.push(span);
    }
    (out, acc, spans)
}

fn grid_pass(setup: &Setup, seed: u64, k: u64, traced: bool) -> PassParts {
    let items: Vec<(usize, Situation)> = (0..GRID_APPS.len())
        .flat_map(|ai| Situation::ALL.map(|sit| (ai, sit)))
        .collect();
    let (cells, acc, spans) = swept(&items, |&(ai, sit), acc| {
        let app = setup.apps[ai].as_ref();
        let scenario_seed = seed.wrapping_add(k * FAMILY_STRIDE + GRID_APPS[ai].1);
        let scenario = Scenario::paper(sit, &app.sizes(), scenario_seed).with_runs(GRID_RUNS);
        Strategy::ALL
            .iter()
            .map(|&s| {
                plain_cell(
                    grid_key(app.name(), sit, s, k),
                    app,
                    &setup.profiles[ai],
                    &scenario,
                    s,
                    &ResilienceConfig::default(),
                    traced.then_some(&mut *acc),
                )
            })
            .collect::<Vec<_>>()
    });
    (cells.into_iter().flatten().collect(), acc, spans)
}

/// One observed-faults cell to run: name, app index, scenario and
/// policy.
struct FaultCell {
    key: String,
    app: usize,
    scenario: Scenario,
    strategy: Strategy,
    resilience: ResilienceConfig,
}

/// observed-faults cells of seed family `k` at workload seed `seed`:
/// every app at its smallest size × severity × policy (family k adds
/// `k * FAMILY_STRIDE` to the seed).
fn fault_cells(setup: &Setup, seed: u64, k: u64) -> Vec<FaultCell> {
    let mut out = Vec::new();
    for (ai, app) in setup.apps.iter().enumerate() {
        let size = app.sizes()[0];
        for loss in SEVERITIES {
            let scenario = Scenario::paper_degraded(
                Situation::GoodDominant,
                &[size],
                seed.wrapping_add(k * FAMILY_STRIDE),
                loss,
            )
            .with_runs(FAULT_RUNS);
            for (policy, strategy, resilient) in POLICIES {
                let family = if k == 0 {
                    String::new()
                } else {
                    format!("/s{k}")
                };
                out.push(FaultCell {
                    key: format!("{}/{size}/loss{loss:.2}/{policy}{family}", app.name()),
                    app: ai,
                    scenario: scenario.clone(),
                    strategy,
                    resilience: policy_config(resilient),
                });
            }
        }
    }
    out
}

fn faults_pass(setup: &Setup, seed: u64, k: u64, traced: bool) -> PassParts {
    let (cells, acc, spans) = swept(&fault_cells(setup, seed, k), |c, acc| {
        observed_cell(
            c.key.clone(),
            setup.apps[c.app].as_ref(),
            &setup.profiles[c.app],
            &c.scenario,
            c.strategy,
            &c.resilience,
            acc,
            traced,
        )
    });
    (cells, acc, spans)
}

/// One observed-faults cell: the scenario with `.jtb` trace, `.jts`
/// timeline and monitors attached and a snapshot encoded at every
/// invocation boundary; then the trace is folded and reconciled, the
/// timeline decoded and reconciled, and the last snapshot decoded and
/// resumed to completion, which must reproduce the result exactly.
#[allow(clippy::too_many_arguments)]
fn observed_cell(
    key: String,
    app: &dyn App,
    profile: &Profile,
    scenario: &Scenario,
    strategy: Strategy,
    resilience: &ResilienceConfig,
    acc: &mut Acc,
    traced: bool,
) -> CellRun {
    // One trace/timeline pair per worker thread.
    let thread = format!("{:?}", std::thread::current().id());
    let name: String = thread.chars().filter(char::is_ascii_digit).collect();
    let jtb = format!("{}/observed-{name}.jtb", io_dir());
    let jts = format!("{}/observed-{name}.jts", io_dir());
    let t = Instant::now();
    let clock = RefCell::new(Clock::new(profile));
    let mut snapshot_bytes = 0u64;
    let mut last_snapshot = Vec::new();
    let result = guarded(|| {
        let mut obs = ObsSink {
            file: FileSink::create(&jtb).map_err(|e| format!("{jtb}: {e}"))?,
            timeline: TimelineSink::create(&jts, SAMPLE_EVERY_NS)
                .map_err(|e| format!("{jts}: {e}"))?,
            tee: MonitorTee::new(MonitorConfig::default()),
            timing: traced.then(Acc::default),
        };
        if traced {
            clock.borrow_mut().lap("obs.trace_s");
        }
        let mut hook = |snap: &RunSnapshot, _writer: Option<Vec<u8>>| {
            if traced {
                clock.borrow_mut().lap("ckpt.capture_s");
            }
            last_snapshot = snap.encode();
            snapshot_bytes += last_snapshot.len() as u64;
            if traced {
                clock.borrow_mut().lap("ckpt.encode_s");
            }
        };
        let result = if traced {
            let mut stamp = StampSink::new(&clock, Some(&mut obs));
            run_scenario_ckpt(
                app,
                profile,
                scenario,
                strategy,
                resilience,
                Some(&mut stamp),
                None,
                1,
                Some(&mut hook),
            )
        } else {
            run_scenario_ckpt(
                app,
                profile,
                scenario,
                strategy,
                resilience,
                Some(&mut obs),
                None,
                1,
                Some(&mut hook),
            )
        }
        .map_err(|e| e.to_string())?;
        if traced {
            clock.borrow_mut().lap("runtime.vm_setup_s");
        }
        // Close the observers, each timed as its own layer.
        let t0 = Instant::now();
        obs.tee.finish();
        let t1 = Instant::now();
        obs.file.finish().map_err(|e| format!("{jtb}: {e}"))?;
        let t2 = Instant::now();
        obs.timeline.finish().map_err(|e| format!("{jts}: {e}"))?;
        if let Some(mut timing) = obs.timing.take() {
            timing.time("obs.monitor_s", secs(t0, t1));
            timing.time("obs.trace_s", secs(t1, t2));
            timing.time("obs.timeline_s", t2.elapsed().as_secs_f64());
            acc.merge(&timing, 1.0);
        }
        Ok(result)
    });
    acc.merge(&clock.into_inner().acc, 1.0);
    let extra = match &result {
        Ok(r) => guarded(|| {
            let t_read = Instant::now();
            read_back(&jtb, &jts, r, acc)?;
            let t_restore = Instant::now();
            resume_last(
                app,
                profile,
                scenario,
                strategy,
                resilience,
                &last_snapshot,
                r,
            )?;
            if traced {
                acc.time("obs.read_s", secs(t_read, t_restore));
                acc.time("ckpt.restore_s", t_restore.elapsed().as_secs_f64());
            }
            Ok(())
        }),
        Err(_) => Ok(()),
    };
    CellRun {
        key,
        ms: t.elapsed().as_secs_f64() * 1e3,
        result,
        extra,
        snapshot_bytes,
        faulty: true,
    }
}

/// Fold the `.jtb` trace and decode the `.jts` timeline; both must
/// reconcile with the run's energy breakdown.
fn read_back(jtb: &str, jts: &str, r: &ScenarioResult, acc: &mut Acc) -> Result<(), String> {
    let loaded = load_trace_path(jtb)?;
    let events: Vec<_> = loaded.shards.into_iter().flat_map(|s| s.events).collect();
    acc.count("obs.events", events.len() as f64);
    TraceProfile::fold(&events).reconcile(&r.breakdown, 1e-9)?;
    let bytes = std::fs::read(jts).map_err(|e| format!("{jts}: {e}"))?;
    acc.count("obs.timeline_bytes", bytes.len() as f64);
    acc.count(
        "obs.trace_bytes",
        std::fs::metadata(jtb).map(|m| m.len()).unwrap_or(0) as f64,
    );
    let timeline = Timeline::read(&bytes)?;
    let seg = timeline.segments.last().ok_or("timeline has no segment")?;
    for c in jem_energy::Component::ALL {
        let (got, want) = (seg.rate_integral_nj(c), r.breakdown[c].nanojoules());
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "timeline {} integral {got} != run breakdown {want}",
                c.name()
            ));
        }
    }
    Ok(())
}

/// Decode the last boundary snapshot, check it re-encodes to the same
/// bytes, restore it and run the remaining invocation: the resumed
/// result must encode identically to the uninterrupted one.
fn resume_last(
    app: &dyn App,
    profile: &Profile,
    scenario: &Scenario,
    strategy: Strategy,
    resilience: &ResilienceConfig,
    snapshot: &[u8],
    whole: &ScenarioResult,
) -> Result<(), String> {
    let snap = RunSnapshot::decode(snapshot).map_err(|e| e.to_string())?;
    if snap.encode() != snapshot {
        return Err("snapshot does not re-encode to its own bytes".into());
    }
    restore_run(app, profile, scenario, resilience, &snap).map_err(|e| e.to_string())?;
    let resumed = run_scenario_ckpt(
        app,
        profile,
        scenario,
        strategy,
        resilience,
        None,
        Some(&snap),
        0,
        None,
    )
    .map_err(|e| e.to_string())?;
    if encode_result(&resumed) != encode_result(whole) {
        return Err("run resumed from the last snapshot differs from the whole run".into());
    }
    Ok(())
}

/// The cells a committed baseline records, run plainly after the
/// timed phase so that every run, whatever its seed, is checked
/// against the baselines: paper-grid's fig7 cells (seed family 0 at
/// the default seed; skipped when the run used that seed, its first
/// pass was checked already), and the `BENCH_faults.json` cells at the
/// anchor severity (fe over its full size range, which
/// observed-faults' own cells do not run).
pub fn anchor(w: Workload, setup: &Setup, at_default: bool) -> Vec<CellRun> {
    match w {
        Workload::PaperGrid if at_default => Vec::new(),
        Workload::PaperGrid => grid_pass(setup, w.default_seed(), 0, false).0,
        Workload::ObservedFaults => {
            let fe = setup
                .apps
                .iter()
                .position(|a| a.name() == "fe")
                .expect("fe is an observed-faults app");
            let app = setup.apps[fe].as_ref();
            let scenario =
                Scenario::paper_degraded(Situation::GoodDominant, &app.sizes(), 7, ANCHOR_LOSS)
                    .with_runs(FAULT_RUNS);
            POLICIES
                .iter()
                .map(|&(policy, strategy, resilient)| {
                    plain_cell(
                        format!("fe/full/loss{ANCHOR_LOSS:.2}/{policy}"),
                        app,
                        &setup.profiles[fe],
                        &scenario,
                        strategy,
                        &policy_config(resilient),
                        None,
                    )
                })
                .collect()
        }
    }
}

/// Replay the public sub-calls `Profile::build` makes for `app` —
/// `jem_jvm::compile` of every plan method at every level, then
/// `Vm::invoke` interpreted, native at each level and on the server
/// at every calibration size — timing each kind. A breakdown of
/// `estimate.profile_s`, measured outside the traced wall.
pub fn replay_profile(app: &dyn App, profile: &Profile, acc: &mut Acc) {
    let program = app.program();
    let method = profile.method;
    for level in OptLevel::ALL {
        for &m in &profile.plan {
            let t = Instant::now();
            let c = compile(program, m, level);
            acc.time("jit.compile_s", t.elapsed().as_secs_f64());
            acc.count("jit.work_units", c.report.work_units as f64);
        }
    }
    let install = |vm: &mut Vm<'_>, level: OptLevel| {
        for cm in &profile.compiled[level.index()] {
            vm.install_native(cm.method, Rc::new(cm.code.clone()));
        }
    };
    for (i, &size) in app.calibration_sizes().iter().enumerate() {
        let rng = SmallRng::seed_from_u64(PROFILE_SEED ^ (i as u64) << 32);
        let t = Instant::now();
        let mut vm = Vm::client(program);
        let args = app.make_args(&mut vm.heap, size, &mut rng.clone());
        let _ = vm.invoke(method, args);
        acc.time("estimate.calib_interp_s", t.elapsed().as_secs_f64());
        for level in OptLevel::ALL {
            let t = Instant::now();
            let mut vm = Vm::client(program);
            install(&mut vm, level);
            let args = app.make_args(&mut vm.heap, size, &mut rng.clone());
            let _ = vm.invoke(method, args);
            acc.time("estimate.calib_native_s", t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let mut heap = Heap::new();
        let args = app.make_args(&mut heap, size, &mut rng.clone());
        if let Ok(payload) = serial::serialize_args(&heap, &args) {
            let mut server = Vm::server(program);
            install(&mut server, OptLevel::L3);
            server
                .machine
                .charge_mix(&serialize_mix(payload.len() as u64));
            if let Ok(server_args) = serial::deserialize_args(&mut server.heap, &payload) {
                if let Ok(result) = server.invoke(method, server_args) {
                    let _ = serial::serialize(&server.heap, result.unwrap_or(Value::Null));
                }
            }
        }
        acc.time("estimate.calib_server_s", t.elapsed().as_secs_f64());
    }
}
