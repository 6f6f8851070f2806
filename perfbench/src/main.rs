//! Host-time benchmark of the jem simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|observed-faults \
//!     [--seed N] [--seconds S] [--trace 0|1] [--write-refs]
//! ```
//!
//! Run from the repository root. One run repeats closed-loop passes
//! over the workload's cells for about `--seconds`, one fresh seed
//! family per pass, with set-ups timed between passes (median =
//! `setup_s`); it checks every simulated output, and
//! prints a report whose last line is one JSON object. With
//! `--trace 1` it then runs one traced set-up and pass and reports
//! per-layer host time instead of the end-to-end metrics. See
//! `perfbench/README.md` for the workloads and metrics.

mod attrib;
mod cells;
mod workloads;

use attrib::{secs, Acc};
use cells::{Checker, References};
use jem_core::Strategy;
use jem_obs::Json;
use jem_sim::Situation;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{io_dir, Pass, Setup, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_refs: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            f if known.contains(&f) => i += 2,
            "--write-refs" => i += 1,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = match value("--seed") {
        None => workload.default_seed(),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seed wants an unsigned integer, got '{v}'"))?,
    };
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace wants 0 or 1, got '{v}'")),
    };
    let seconds = match value("--seconds") {
        None => 10.0,
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("--seconds wants a number, got '{v}'"))?,
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        write_refs: argv.iter().any(|a| a == "--write-refs"),
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// "min … max" of `v`, to six decimals.
fn range(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{lo:.6} … {hi:.6}")
}

/// Nearest-rank percentile of `sorted`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident memory of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Create this process's I/O directory.
fn open_io() -> Result<(), String> {
    let dir = io_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))
}

/// Remove this process's I/O directory (and its parent once empty).
fn close_io() {
    let _ = std::fs::remove_dir_all(io_dir());
    let _ = std::fs::remove_dir(".bench_io");
}

/// Metrics object of the final JSON line.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    let mut doc = Json::object();
    for (name, value, unit) in metrics {
        doc = doc.with(
            name,
            Json::object().with("value", *value).with("unit", *unit),
        );
    }
    doc
}

/// Regenerate the benchmark's own references at the default seed:
/// every cell the committed baselines do not fully cover.
fn write_refs(w: Workload) -> Result<(), String> {
    open_io()?;
    let covered = w.overlay(References::default())?;
    let setup = workloads::setup(w, None);
    let passes: Vec<Pass> = (0..w.ref_passes())
        .map(|i| workloads::pass(w, &setup, w.default_seed(), i, false))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let cells: Vec<_> = passes
        .iter()
        .flat_map(|p| &p.cells)
        .filter(|c| !covered.complete(&c.key) && seen.insert(c.key.as_str()))
        .collect();
    let path = w.refs_path();
    cells::write_refs(&path, w.name(), w.default_seed(), &cells)?;
    eprintln!("wrote {} cells to {path}", cells.len());
    close_io();
    Ok(())
}

/// Average normalised energies (L1 = 100) per situation over the
/// grid's apps, with AL's and AA's saving vs the best static strategy
/// beside the paper's reported AL savings.
fn print_paper_savings(pass: &Pass) {
    let energy = |key: &str| {
        pass.cells
            .iter()
            .find(|c| c.key == key)
            .and_then(|c| c.result.as_ref().ok())
            .map(|r| r.total_energy.nanojoules())
    };
    let apps: Vec<&str> = {
        let mut a: Vec<&str> = pass
            .cells
            .iter()
            .filter(|c| c.key.split('/').count() == 3)
            .filter_map(|c| c.key.split('/').next())
            .collect();
        a.dedup();
        a
    };
    println!(
        "paper savings at seed family 0 (deterministic, not gated; mean over {} apps, L1 = 100):",
        apps.len()
    );
    for (sit, paper) in Situation::ALL.iter().zip([25, 10, 22]) {
        let mut avg = vec![0.0; Strategy::ALL.len()];
        for app in &apps {
            let Some(l1) = energy(&format!("{app}/{}/L1", sit.key())) else {
                return;
            };
            for (i, s) in Strategy::ALL.iter().enumerate() {
                let Some(e) = energy(&format!("{app}/{}/{}", sit.key(), s.key())) else {
                    return;
                };
                avg[i] += e / l1 * 100.0 / apps.len() as f64;
            }
        }
        let at = |s: Strategy| avg[Strategy::ALL.iter().position(|&x| x == s).expect("listed")];
        let (best, best_v) = Strategy::STATIC
            .iter()
            .map(|&s| (s, at(s)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("static strategies");
        println!(
            "  situation {:>3}: best static {} = {:.1}; AL saves {:.1}%, AA saves {:.1}% (paper: AL saves {paper}%)",
            sit.key(),
            best.key(),
            best_v,
            (1.0 - at(Strategy::AdaptiveLocal) / best_v) * 100.0,
            (1.0 - at(Strategy::AdaptiveAdaptive) / best_v) * 100.0,
        );
    }
}

/// Host seconds of one set-up window (at least one set-up).
const SETUP_WINDOW_S: f64 = 0.2;

/// Time set-ups of `w` for about `SETUP_WINDOW_S`; push each one's
/// seconds to `times` and return the last set-up.
fn sample_setups(w: Workload, times: &mut Vec<f64>) -> Setup {
    let t_window = Instant::now();
    loop {
        let t = Instant::now();
        let setup = workloads::setup(w, None);
        times.push(t.elapsed().as_secs_f64());
        if t_window.elapsed().as_secs_f64() >= SETUP_WINDOW_S {
            return setup;
        }
    }
}

/// Exact simulated counts of one pass.
const SIM_COUNTS: [&str; 11] = [
    "sim.client_instructions",
    "runtime.mode.interp",
    "runtime.mode.l1",
    "runtime.mode.l2",
    "runtime.mode.l3",
    "runtime.mode.remote",
    "remote.attempts",
    "resilience.retries",
    "resilience.fallbacks",
    "resilience.breaker_trips",
    "ckpt.snapshot_bytes",
];

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let refs = w.references()?;
    let faults_refs = match w {
        Workload::ObservedFaults => Some(workloads::faults_baseline()?),
        _ => None,
    };
    let at_default = args.seed == w.default_seed();
    let pass_refs = at_default.then_some(&refs);
    let mut checker = Checker::new();
    open_io()?;

    // Set-up: sampled once before the timed phase and again after
    // every pass, so `setup_s` sees the host over the whole run, as
    // `wall_s` does, rather than in one window before it.
    let mut setup_times = Vec::new();
    let mut setup = sample_setups(w, &mut setup_times);

    // Timed phase: closed-loop passes for about `seconds`.
    let t_timed = Instant::now();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut first: Option<Pass> = None;
    loop {
        let index = walls.len();
        let refs = (index < w.ref_passes()).then_some(pass_refs).flatten();
        let p = workloads::pass(w, &setup, args.seed, index, false);
        // Only pass 0 runs again, so only its outputs are kept for the
        // repetition check; keeping every pass's would grow the
        // process by the run's length and show in `peak_rss_mb`.
        for c in &p.cells {
            checker.check(c, refs, index == 0);
            latencies.push(c.ms);
        }
        walls.push(p.wall);
        first.get_or_insert(p);
        let t = Instant::now();
        setup = sample_setups(w, &mut setup_times);
        let window = t.elapsed().as_secs_f64();
        if t_timed.elapsed().as_secs_f64() + median(&walls) + window > args.seconds {
            break;
        }
    }
    let rss = peak_rss_mb();
    let first = first.expect("at least one pass");

    // Every pass runs a fresh seed family, so no timed cell repeats:
    // re-run pass 0 untimed so every run checks exact repetition (with
    // `--trace 1` the traced pass 0 does it).
    if !args.trace {
        for c in &workloads::pass(w, &setup, args.seed, 0, false).cells {
            checker.check(c, None, true);
        }
    }

    // Baseline anchor: cells a committed baseline records.
    let anchor_refs = match &faults_refs {
        Some(fr) => fr,
        None => &refs,
    };
    for c in workloads::anchor(w, &setup, at_default) {
        checker.check(&c, Some(anchor_refs), false);
    }

    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let (setup_s, wall_s) = (median(&setup_times), median(&walls));
    let instr = first.acc.c("sim.client_instructions");
    println!(
        "perfbench {} seed={} workers={} passes={} cells/pass={} set-up samples={} (closed loop, one process)",
        w.name(),
        args.seed,
        workloads::workers(),
        walls.len(),
        first.cells.len(),
        setup_times.len()
    );
    println!(
        "setup_s          = {setup_s:.6} s (median of {} set-up samples spread over the run; {})",
        setup_times.len(),
        range(&setup_times)
    );
    println!(
        "wall_s           = {wall_s:.4} s (median of {} passes; {})",
        walls.len(),
        range(&walls)
    );
    // Reported, not gated: at one seed the instruction count is fixed,
    // so this is `wall_s` restated; across seeds it only adds the
    // variance of the instruction count.
    println!(
        "sim_minstr_per_s = {:.2} Minstr/s (client instructions only; server-side simulated instructions are excluded)",
        instr / wall_s / 1e6
    );
    let (p50, p90) = (percentile(&latencies, 0.5), percentile(&latencies, 0.9));
    println!("cell_p50_ms      = {p50:.3} ms (n={n})");
    println!(
        "cell_p90_ms      = {p90:.3} ms (n={n}, {} samples above)",
        latencies.iter().filter(|&&x| x > p90).count()
    );
    println!("peak_rss_mb      = {rss:.1} MB");
    println!(
        "error_rate       = {}/{} = {} (failed/attempted cells, incl. {} checked against references)",
        checker.failed,
        checker.attempted,
        checker.failed as f64 / checker.attempted as f64,
        checker.referenced
    );
    for (key, why) in checker.failures().take(10) {
        println!("  FAILED {key}: {why}");
    }
    println!("exact simulated counts per pass (checked for exact repetition; not timed):");
    for k in SIM_COUNTS {
        println!("  {k} = {}", first.acc.c(k));
    }
    if w == Workload::PaperGrid {
        print_paper_savings(&first);
    }

    let metrics = if !args.trace {
        metrics_json(&[
            ("setup_s", setup_s, "s"),
            ("wall_s", wall_s, "s"),
            ("cell_p50_ms", p50, "ms"),
            ("cell_p90_ms", p90, "ms"),
            ("peak_rss_mb", rss, "MB"),
        ])
    } else {
        traced(w, args.seed, setup_s + walls[0], &mut checker, pass_refs)
    };
    close_io();
    println!(
        "{}",
        Json::object()
            .with("correct", checker.failed == 0)
            .with("attempted", checker.attempted)
            .with("failed", checker.failed)
            .with("metrics", metrics)
            .render()
    );
    Ok(())
}

/// One traced set-up and pass: per-layer host time, partitioning the
/// traced wall, plus the profile-building breakdown replayed after it.
fn traced(
    w: Workload,
    seed: u64,
    untraced_wall: f64,
    checker: &mut Checker,
    refs: Option<&References>,
) -> Json {
    let mut acc = Acc::default();
    let t0 = Instant::now();
    let setup = workloads::setup(w, Some(&mut acc));
    let p = workloads::pass(w, &setup, seed, 0, true);
    let traced_wall = secs(t0, Instant::now());
    for c in &p.cells {
        checker.check(c, refs, true);
    }
    acc.merge(&p.acc, 1.0);

    // Breakdown of profile building, replayed outside the traced wall.
    let mut replay = Acc::default();
    for (app, profile) in setup.apps.iter().zip(&setup.profiles) {
        workloads::replay_profile(app.as_ref(), profile, &mut replay);
    }

    let attributed: f64 = acc.times.values().sum();
    let unattributed = traced_wall - attributed;
    println!("traced run: wall {traced_wall:.4} s, attributed {attributed:.4} s, unattributed {unattributed:.4} s");
    for (k, v) in &acc.times {
        println!("  {k:<24} {v:>10.4} s  {:>5.1}%", v / traced_wall * 100.0);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(&str, f64, &str)> = vec![
        ("traced.wall_s", traced_wall, "s"),
        (
            "traced.overhead_ratio",
            traced_wall / untraced_wall - 1.0,
            "ratio",
        ),
        ("unattributed_s", unattributed, "s"),
        ("parallel.busy_share", p.region.busy_share, "ratio"),
        ("parallel.tail_s", p.region.tail, "s"),
        (
            "interp.ns_per_instr",
            ratio(acc.c("interp.ns"), acc.c("interp.instr")),
            "ns",
        ),
        (
            "native.ns_per_instr",
            ratio(acc.c("native.ns"), acc.c("native.instr")),
            "ns",
        ),
        (
            "remote.success_ratio",
            ratio(acc.c("runtime.mode.remote"), acc.c("remote.attempts")),
            "ratio",
        ),
    ];
    for k in PARTITION {
        m.push((k, acc.t(k), "s"));
    }
    let obs_counts = ["obs.events", "obs.trace_bytes", "obs.timeline_bytes"];
    for k in SIM_COUNTS.into_iter().chain(obs_counts) {
        let unit = if k.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        m.push((k, acc.c(k), unit));
    }
    for k in REPLAY {
        m.push((k, replay.t(k), "s"));
    }
    m.push(("jit.work_units", replay.c("jit.work_units"), "count"));
    metrics_json(&m)
}

/// Layer times that partition the traced wall (with `unattributed_s`).
const PARTITION: [&str; 15] = [
    "apps.build_s",
    "estimate.profile_s",
    "runtime.vm_setup_s",
    "runtime.decide_s",
    "runtime.compile_s",
    "runtime.local_exec_s",
    "runtime.remote_s",
    "obs.trace_s",
    "obs.timeline_s",
    "obs.monitor_s",
    "obs.read_s",
    "ckpt.capture_s",
    "ckpt.encode_s",
    "ckpt.restore_s",
    "parallel.idle_s",
];

/// Profile-building breakdown from the replay.
const REPLAY: [&str; 4] = [
    "estimate.calib_interp_s",
    "estimate.calib_native_s",
    "estimate.calib_server_s",
    "jit.compile_s",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_refs {
        return match write_refs(args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
