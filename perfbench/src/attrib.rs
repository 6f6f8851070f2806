//! Host-time attribution from the benchmark's own side of the API.
//!
//! Nothing here reaches into the simulator: layer times come from
//! timing calls into public functions and from a [`StampSink`], a
//! `TraceSink` that stamps every sim-time trace event with a monotonic
//! host clock and charges the interval since the previous event to the
//! runtime layer that event closes (decision, compilation, local
//! execution, remote protocol). Observer sinks are timed by wrappers
//! around their `record` calls, checkpoint capture by the gap between
//! the invocation-end event and the boundary hook.

use jem_core::runtime::decision_mix;
use jem_core::Profile;
use jem_energy::EnergyBreakdown;
use jem_jvm::costs::{compile_work_mix, compiler_init_mix};
use jem_jvm::OptLevel;
use jem_obs::{FileSink, MonitorTee, TimelineSink, TraceEvent, TraceEventKind, TraceSink};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::thread::ThreadId;
use std::time::Instant;

/// Layer times (host seconds) and counts.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    /// Host seconds per layer metric.
    pub times: BTreeMap<&'static str, f64>,
    /// Counts (and raw engine samples) per metric.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Acc {
    /// Charge `secs` to layer `k`.
    pub fn time(&mut self, k: &'static str, secs: f64) {
        *self.times.entry(k).or_default() += secs;
    }

    /// Add `n` to count `k`.
    pub fn count(&mut self, k: &'static str, n: f64) {
        *self.counts.entry(k).or_default() += n;
    }

    /// Time charged to `k` (0 if none).
    pub fn t(&self, k: &str) -> f64 {
        self.times.get(k).copied().unwrap_or(0.0)
    }

    /// Count of `k` (0 if none).
    pub fn c(&self, k: &str) -> f64 {
        self.counts.get(k).copied().unwrap_or(0.0)
    }

    /// Fold another accumulator in. Times are divided by `workers`: in
    /// a parallel region each layer's summed thread time over the
    /// worker count is its share of the region's wall time, so layer
    /// shares of a region add up to its wall. Counts add unscaled.
    pub fn merge(&mut self, other: &Acc, workers: f64) {
        for (k, v) in &other.times {
            self.time(k, v / workers);
        }
        for (k, v) in &other.counts {
            self.count(k, *v);
        }
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// One item of a (possibly parallel) region: when and where it ran.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Item start.
    pub start: Instant,
    /// Item end.
    pub end: Instant,
    /// Worker thread that ran it.
    pub thread: ThreadId,
}

impl Span {
    /// Time `f` on the current thread.
    pub fn time<R>(f: impl FnOnce() -> R) -> (R, Span) {
        let start = Instant::now();
        let r = f();
        let span = Span {
            start,
            end: Instant::now(),
            thread: std::thread::current().id(),
        };
        (r, span)
    }

    /// Seconds the item took.
    pub fn secs(&self) -> f64 {
        secs(self.start, self.end)
    }
}

/// Executor figures of one region: `workers` threads over `spans`,
/// between `start` and `end`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Region {
    /// Σ item seconds / (workers × wall).
    pub busy_share: f64,
    /// Seconds from the first worker running out of items to the end.
    pub tail: f64,
    /// Idle worker time over the worker count (wall-equivalent).
    pub idle: f64,
}

impl Region {
    /// Summarise a region's item spans.
    pub fn of(spans: &[Span], workers: usize, start: Instant, end: Instant) -> Region {
        let wall = secs(start, end);
        let busy: f64 = spans.iter().map(Span::secs).sum();
        let mut last_end: HashMap<ThreadId, Instant> = HashMap::new();
        for s in spans {
            let e = last_end.entry(s.thread).or_insert(s.end);
            *e = (*e).max(s.end);
        }
        // A worker that never got an item was idle from the start.
        let first_idle = if last_end.len() < workers {
            start
        } else {
            last_end.values().copied().min().unwrap_or(start)
        };
        let w = workers as f64;
        Region {
            busy_share: if wall > 0.0 { busy / (w * wall) } else { 0.0 },
            tail: secs(first_idle, end),
            idle: (w * wall - busy).max(0.0) / w,
        }
    }
}

/// Per-invocation attribution state.
#[derive(Default)]
struct Inv {
    decided: bool,
    downloading: bool,
    downloaded: bool,
    remote: bool,
    fell_back: bool,
    compiled: Option<usize>,
}

/// The host clock of one cell, shared by its [`StampSink`] and its
/// checkpoint hook.
pub struct Clock<'p> {
    /// What this cell's intervals were charged to.
    pub acc: Acc,
    last: Instant,
    started: bool,
    profile: &'p Profile,
    instr_at_end: u64,
    compiler_loaded: bool,
    inv: Inv,
}

impl<'p> Clock<'p> {
    /// A clock starting now, for a cell running on `profile`.
    pub fn new(profile: &'p Profile) -> Clock<'p> {
        Clock {
            acc: Acc::default(),
            last: Instant::now(),
            started: false,
            profile,
            instr_at_end: 0,
            compiler_loaded: false,
            inv: Inv::default(),
        }
    }

    /// Charge the interval since the previous stamp to `layer`.
    pub fn lap(&mut self, layer: &'static str) -> f64 {
        let now = Instant::now();
        let dt = secs(self.last, now);
        self.acc.time(layer, dt);
        self.last = now;
        dt
    }

    /// Restart the interval now, leaving the time since the previous
    /// stamp unattributed here (it was timed by its own wrapper).
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }

    /// Close the cell: the stretch after its last event (result
    /// assembly) joins VM set-up.
    pub fn finish(mut self) -> Acc {
        self.lap("runtime.vm_setup_s");
        self.acc
    }

    fn event(&mut self, ev: &TraceEvent) {
        use TraceEventKind as K;
        let first = !std::mem::replace(&mut self.started, true);
        let layer = match &ev.kind {
            K::BreakerTransition { .. } | K::InvocationStart { .. } | K::Degraded { .. } => {
                "runtime.decide_s"
            }
            K::DecisionEvaluated { .. } => {
                self.inv.decided = true;
                "runtime.decide_s"
            }
            K::CompileStart { source, .. } => {
                self.inv.downloading = source == "download";
                "runtime.decide_s"
            }
            K::CompileEnd {
                source, ok, level, ..
            } => {
                self.inv.downloading = false;
                if source == "download" {
                    self.inv.downloaded |= *ok;
                } else {
                    self.inv.compiled = level_index(level);
                }
                "runtime.compile_s"
            }
            K::TxWindow { .. }
            | K::RxWindow { .. }
            | K::PowerDown { .. }
            | K::EarlyWake { .. }
            | K::RetryAttempt { .. } => {
                if self.inv.downloading {
                    "runtime.compile_s"
                } else {
                    self.inv.remote = true;
                    "runtime.remote_s"
                }
            }
            K::Fallback { reason } => {
                if reason.starts_with("rcomp-") {
                    "runtime.compile_s"
                } else {
                    self.inv.fell_back = true;
                    "runtime.remote_s"
                }
            }
            K::Alert { .. } => "runtime.decide_s",
            K::InvocationEnd {
                mode, instructions, ..
            } => {
                let remote = mode == "remote" && !self.inv.fell_back;
                let layer = if remote {
                    "runtime.remote_s"
                } else {
                    "runtime.local_exec_s"
                };
                let dt = self.lap(if first { "runtime.vm_setup_s" } else { layer });
                self.engine_sample(mode, *instructions, dt, remote);
                self.instr_at_end = *instructions;
                self.inv = Inv::default();
                return;
            }
        };
        self.lap(if first { "runtime.vm_setup_s" } else { layer });
    }

    /// Host ns per simulated instruction of the engine that ran this
    /// invocation, from invocations that executed locally only (no
    /// remote attempt, no download). Instructions the runtime charged
    /// for the decision and a local compilation are taken out.
    fn engine_sample(&mut self, mode: &str, instructions: u64, dt: f64, remote: bool) {
        let compiled = self.inv.compiled;
        let first_compile = compiled.is_some() && !self.compiler_loaded;
        self.compiler_loaded |= compiled.is_some();
        if remote || self.inv.remote || self.inv.fell_back || self.inv.downloaded {
            return;
        }
        let mut charged = 0;
        if self.inv.decided {
            charged += decision_mix().total();
        }
        if let Some(li) = compiled {
            charged += self.profile.compiled[li]
                .iter()
                .map(|cm| compile_work_mix(cm.work_units).total())
                .sum::<u64>();
            if first_compile {
                charged += compiler_init_mix().total();
            }
        }
        let executed = instructions
            .saturating_sub(self.instr_at_end)
            .saturating_sub(charged);
        let (ns, n) = if mode == "interpret" {
            ("interp.ns", "interp.instr")
        } else {
            ("native.ns", "native.instr")
        };
        self.acc.count(ns, dt * 1e9);
        self.acc.count(n, executed as f64);
    }
}

/// Index of the optimisation level a trace label names.
fn level_index(label: &str) -> Option<usize> {
    OptLevel::ALL.iter().position(|l| l.name() == label)
}

/// A trace sink that stamps events for a [`Clock`] and forwards them
/// to an optional inner sink (the workload's own observers).
pub struct StampSink<'c, 'p, 'i> {
    clock: &'c RefCell<Clock<'p>>,
    inner: Option<&'i mut dyn TraceSink>,
}

impl<'c, 'p, 'i> StampSink<'c, 'p, 'i> {
    /// Stamp into `clock`, forwarding to `inner`.
    pub fn new(clock: &'c RefCell<Clock<'p>>, inner: Option<&'i mut dyn TraceSink>) -> Self {
        StampSink { clock, inner }
    }
}

impl TraceSink for StampSink<'_, '_, '_> {
    fn record(&mut self, event: TraceEvent) {
        self.clock.borrow_mut().event(&event);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.record(event);
        }
        self.clock.borrow_mut().skip();
    }

    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        self.clock.borrow_mut().event(&event);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.record_with_ledger(event, ledger);
        }
        self.clock.borrow_mut().skip();
    }
}

/// Every observer the bench bins offer, on one event stream: the
/// `.jts` timeline sees the raw stream with the exact ledger, the
/// monitor tee injects its alerts into the `.jtb` trace file. With
/// `timing`, each observer's `record` is timed.
pub struct ObsSink {
    /// `.jtb` trace writer.
    pub file: FileSink,
    /// `.jts` timeline writer.
    pub timeline: TimelineSink,
    /// Online invariant monitors.
    pub tee: MonitorTee,
    /// Per-observer host seconds, when timed.
    pub timing: Option<Acc>,
}

/// Times the trace file's `record` inside the monitor tee.
struct TimedFile<'a> {
    file: &'a mut FileSink,
    secs: f64,
}

impl TraceSink for TimedFile<'_> {
    fn record(&mut self, event: TraceEvent) {
        let t = Instant::now();
        self.file.record(event);
        self.secs += t.elapsed().as_secs_f64();
    }
}

impl ObsSink {
    fn observe(&mut self, event: TraceEvent, ledger: Option<&EnergyBreakdown>) {
        let Some(acc) = self.timing.as_mut() else {
            self.timeline.observe(&event, ledger);
            self.tee.process(event, &mut self.file);
            return;
        };
        let t0 = Instant::now();
        self.timeline.observe(&event, ledger);
        let t1 = Instant::now();
        let mut file = TimedFile {
            file: &mut self.file,
            secs: 0.0,
        };
        self.tee.process(event, &mut file);
        let t2 = Instant::now();
        acc.time("obs.timeline_s", secs(t0, t1));
        acc.time("obs.trace_s", file.secs);
        acc.time("obs.monitor_s", secs(t1, t2) - file.secs);
    }
}

impl TraceSink for ObsSink {
    fn record(&mut self, event: TraceEvent) {
        self.observe(event, None);
    }

    fn record_with_ledger(&mut self, event: TraceEvent, ledger: &EnergyBreakdown) {
        self.observe(event, Some(ledger));
    }
}
