//! Checkpoint/restore for scenario runs.
//!
//! A [`RunSnapshot`] is the complete dynamic state of a scenario run
//! at an invocation boundary: the RNG's word state, the channel
//! process position, both machines' cycle/energy/cache state, the
//! server protocol tables, the EWMA predictor, circuit-breaker and
//! fault-chain positions, run statistics, the per-invocation reports
//! so far, and the tracer counters. Restoring it and running the
//! remaining invocations produces results — and traces —
//! **bit-identical** to the uninterrupted run: the loop below is the
//! same code path [`crate::experiment::run_scenario_with`] uses, and
//! capture is read-only (no RNG draws, no energy charged).
//!
//! Invocation boundaries are the natural cut: both heaps are empty
//! after [`EnergyAwareVm::end_invocation`], so no object graphs need
//! serializing. The only state that cannot be copied directly is the
//! client's installed native code (raw pointers into the code space);
//! it is reproduced by replaying `profile.install` for every
//! compilation the reports record, in order — installation is
//! deterministic, so code addresses come out identical.
//!
//! [`CkptFile`] is the on-disk container (`.jck`): versioned,
//! checksummed, and written atomically by the bench layer via
//! [`jem_obs::write_atomic`]. Everything is hand-rolled binary — the
//! workspace's vendored `serde` is a no-op stub.

use crate::estimate::Profile;
use crate::experiment::ScenarioResult;
use crate::fault::{FaultInjector, FaultState};
use crate::predict::MethodState;
use crate::remote::StatusEntry;
use crate::resilience::{BreakerSnapshot, BreakerState, ExecError, ResilienceConfig};
use crate::runtime::{EnergyAwareVm, InvocationReport, RunStats};
use crate::strategy::{Mode, Strategy};
use crate::workload::Workload;
use jem_energy::{
    CacheState, CacheStats, Component, Energy, EnergyBreakdown, InstrMix, MachineState, PowerState,
    SimTime,
};
use jem_jvm::OptLevel;
use jem_obs::{TraceSink, Tracer, TracerState};
use jem_radio::{ChannelClass, ChannelProcess};
use jem_sim::Scenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// Leading magic of a `.jck` checkpoint file.
pub const JCK_MAGIC: &[u8; 4] = b"JCK1";
/// Version 2: a machine's energy ledger holds only its `f64`-charged
/// components (active-idle Core, leakage, radio); instruction Core and
/// DRAM energy are derived from its counts. A version-1 snapshot
/// stored the whole ledger and would double-count them on resume.
const JCK_VERSION: u64 = 2;

/// A typed checkpoint decode/restore error — corruption and mismatch
/// are reported, never panicked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError(String);

impl CkptError {
    fn new(msg: impl Into<String>) -> CkptError {
        CkptError(msg.into())
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ckpt: {}", self.0)
    }
}

impl std::error::Error for CkptError {}

/// Why a checkpointed scenario run failed.
#[derive(Debug)]
pub enum ScenarioError {
    /// The underlying execution failed (a workload VM error).
    Exec(ExecError),
    /// The resume snapshot does not fit this scenario.
    Ckpt(CkptError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Exec(e) => write!(f, "execution failed: {e:?}"),
            ScenarioError::Ckpt(e) => write!(f, "{e}"),
        }
    }
}

// ---------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------

#[derive(Default)]
struct Enc {
    out: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }

    fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Bit-exact f64 (little-endian IEEE bits).
    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.out.extend_from_slice(b);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    fn energy(&mut self, e: Energy) {
        self.f64(e.nanojoules());
    }

    fn time(&mut self, t: SimTime) {
        self.f64(t.nanos());
    }

    fn breakdown(&mut self, b: &EnergyBreakdown) {
        for (_, e) in b.iter() {
            self.energy(e);
        }
    }

    fn opt_level(&mut self, l: Option<OptLevel>) {
        match l {
            None => self.u8(0),
            Some(l) => self.u8(1 + l.index() as u8),
        }
    }

    fn class(&mut self, c: ChannelClass) {
        let tag = ChannelClass::ALL
            .iter()
            .position(|&x| x == c)
            .expect("class in ALL");
        self.u8(tag as u8);
    }
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| CkptError::new("unexpected end of data"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(CkptError::new("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        u32::try_from(self.u64()?).map_err(|_| CkptError::new("u32 out of range"))
    }

    fn len(&mut self) -> Result<usize, CkptError> {
        let n = self.u64()? as usize;
        if n > self.data.len() - self.pos {
            return Err(CkptError::new("length prefix exceeds data"));
        }
        Ok(n)
    }

    fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::new(format!("bad bool tag {other}"))),
        }
    }

    fn f64(&mut self) -> Result<f64, CkptError> {
        if self.data.len() - self.pos < 8 {
            return Err(CkptError::new("unexpected end of data"));
        }
        let mut a = [0u8; 8];
        a.copy_from_slice(&self.data[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(a)))
    }

    fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.len()?;
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn str(&mut self) -> Result<String, CkptError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| CkptError::new("string not utf-8"))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, CkptError> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(self.f64()?),
            _ => return Err(CkptError::new("bad option tag")),
        })
    }

    fn energy(&mut self) -> Result<Energy, CkptError> {
        Ok(Energy::from_nanojoules(self.f64()?))
    }

    fn time(&mut self) -> Result<SimTime, CkptError> {
        Ok(SimTime::from_nanos(self.f64()?))
    }

    fn breakdown(&mut self) -> Result<EnergyBreakdown, CkptError> {
        let mut b = EnergyBreakdown::default();
        for c in Component::ALL {
            b.charge(c, self.energy()?);
        }
        Ok(b)
    }

    fn opt_level(&mut self) -> Result<Option<OptLevel>, CkptError> {
        Ok(match self.u8()? {
            0 => None,
            tag => Some(
                *OptLevel::ALL
                    .get(tag as usize - 1)
                    .ok_or_else(|| CkptError::new("bad opt-level tag"))?,
            ),
        })
    }

    fn class(&mut self) -> Result<ChannelClass, CkptError> {
        let tag = self.u8()? as usize;
        ChannelClass::ALL
            .get(tag)
            .copied()
            .ok_or_else(|| CkptError::new("bad channel-class tag"))
    }

    fn done(&self) -> Result<(), CkptError> {
        if self.pos != self.data.len() {
            return Err(CkptError::new("trailing bytes"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------
// Snapshot pieces
// ---------------------------------------------------------------

/// The dynamic position of a [`ChannelProcess`] — the specs stay in
/// the scenario; only the evolving part is checkpointed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelDyn {
    /// `Fixed` / `Iid`: nothing evolves.
    Stateless,
    /// `Sticky`: the most recent class.
    Sticky(ChannelClass),
    /// `Trace`: the replay cursor.
    Cursor(u64),
}

impl ChannelDyn {
    /// Capture the dynamic part of `channel`.
    pub fn capture(channel: &ChannelProcess) -> ChannelDyn {
        match channel {
            ChannelProcess::Fixed(_) | ChannelProcess::Iid(_) => ChannelDyn::Stateless,
            ChannelProcess::Sticky { current, .. } => ChannelDyn::Sticky(*current),
            ChannelProcess::Trace { cursor, .. } => ChannelDyn::Cursor(*cursor as u64),
        }
    }

    /// Patch the dynamic part onto a freshly cloned process of the
    /// same kind.
    ///
    /// # Errors
    /// If the snapshot was taken from a different process kind.
    pub fn apply(self, channel: &mut ChannelProcess) -> Result<(), CkptError> {
        match (self, channel) {
            (ChannelDyn::Stateless, ChannelProcess::Fixed(_) | ChannelProcess::Iid(_)) => Ok(()),
            (ChannelDyn::Sticky(c), ChannelProcess::Sticky { current, .. }) => {
                *current = c;
                Ok(())
            }
            (ChannelDyn::Cursor(k), ChannelProcess::Trace { classes, cursor }) => {
                if k as usize >= classes.len() {
                    return Err(CkptError::new("trace cursor out of range"));
                }
                *cursor = k as usize;
                Ok(())
            }
            _ => Err(CkptError::new(
                "checkpoint channel kind does not match the scenario",
            )),
        }
    }
}

fn enc_channel_dyn(e: &mut Enc, d: ChannelDyn) {
    match d {
        ChannelDyn::Stateless => e.u8(0),
        ChannelDyn::Sticky(c) => {
            e.u8(1);
            e.class(c);
        }
        ChannelDyn::Cursor(k) => {
            e.u8(2);
            e.u64(k);
        }
    }
}

fn dec_channel_dyn(d: &mut Dec<'_>) -> Result<ChannelDyn, CkptError> {
    Ok(match d.u8()? {
        0 => ChannelDyn::Stateless,
        1 => ChannelDyn::Sticky(d.class()?),
        2 => ChannelDyn::Cursor(d.u64()?),
        other => return Err(CkptError::new(format!("bad channel-dyn tag {other}"))),
    })
}

fn enc_cache(e: &mut Enc, c: &Option<CacheState>) {
    match c {
        None => e.u8(0),
        Some(c) => {
            e.u8(1);
            e.u64(c.tags.len() as u64);
            for &t in &c.tags {
                e.u64(t);
            }
            e.u64(c.stats.hits);
            e.u64(c.stats.misses);
        }
    }
}

fn dec_cache(d: &mut Dec<'_>) -> Result<Option<CacheState>, CkptError> {
    Ok(match d.u8()? {
        0 => None,
        1 => {
            let n = d.u64()? as usize;
            if n > d.data.len() - d.pos {
                return Err(CkptError::new("cache tag count exceeds data"));
            }
            let mut tags = Vec::with_capacity(n);
            for _ in 0..n {
                tags.push(d.u64()?);
            }
            let stats = CacheStats {
                hits: d.u64()?,
                misses: d.u64()?,
            };
            Some(CacheState { tags, stats })
        }
        _ => return Err(CkptError::new("bad cache option tag")),
    })
}

fn enc_machine(e: &mut Enc, m: &MachineState) {
    e.u64(m.cycles);
    e.time(m.extra_time);
    e.breakdown(&m.ledger);
    for c in m.mix.class_counts() {
        e.u64(c);
    }
    e.u64(m.mix.mem_accesses);
    e.u8(match m.state {
        PowerState::Active => 0,
        PowerState::PowerDown => 1,
    });
    enc_cache(e, &m.icache);
    enc_cache(e, &m.dcache);
}

fn dec_machine(d: &mut Dec<'_>) -> Result<MachineState, CkptError> {
    let cycles = d.u64()?;
    let extra_time = d.time()?;
    let ledger = d.breakdown()?;
    let mut counts = [0u64; 6];
    for c in &mut counts {
        *c = d.u64()?;
    }
    let mem_accesses = d.u64()?;
    let state = match d.u8()? {
        0 => PowerState::Active,
        1 => PowerState::PowerDown,
        other => return Err(CkptError::new(format!("bad power-state tag {other}"))),
    };
    Ok(MachineState {
        cycles,
        extra_time,
        ledger,
        mix: InstrMix::from_parts(counts, mem_accesses),
        state,
        icache: dec_cache(d)?,
        dcache: dec_cache(d)?,
    })
}

fn enc_mode(e: &mut Enc, m: Mode) {
    match m {
        Mode::Interpret => e.u8(0),
        Mode::Remote => e.u8(1),
        Mode::Local(l) => {
            e.u8(2);
            e.u8(l.index() as u8);
        }
    }
}

fn dec_mode(d: &mut Dec<'_>) -> Result<Mode, CkptError> {
    Ok(match d.u8()? {
        0 => Mode::Interpret,
        1 => Mode::Remote,
        2 => {
            let i = d.u8()? as usize;
            Mode::Local(
                *OptLevel::ALL
                    .get(i)
                    .ok_or_else(|| CkptError::new("bad opt-level tag"))?,
            )
        }
        other => return Err(CkptError::new(format!("bad mode tag {other}"))),
    })
}

fn enc_report(e: &mut Enc, r: &InvocationReport) {
    e.u32(r.size);
    e.class(r.true_class);
    e.class(r.chosen_class);
    enc_mode(e, r.mode);
    e.energy(r.energy);
    e.time(r.time);
    e.opt_level(r.compiled_locally);
    e.opt_level(r.compiled_remotely);
    e.bool(r.fell_back);
    e.u32(r.retries);
    e.energy(r.wasted_energy);
    e.bool(r.degraded);
    match r.predicted_energy {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            e.energy(p);
        }
    }
}

fn dec_report(d: &mut Dec<'_>) -> Result<InvocationReport, CkptError> {
    Ok(InvocationReport {
        size: d.u32()?,
        true_class: d.class()?,
        chosen_class: d.class()?,
        mode: dec_mode(d)?,
        energy: d.energy()?,
        time: d.time()?,
        compiled_locally: d.opt_level()?,
        compiled_remotely: d.opt_level()?,
        fell_back: d.bool()?,
        retries: d.u32()?,
        wasted_energy: d.energy()?,
        degraded: d.bool()?,
        predicted_energy: match d.u8()? {
            0 => None,
            1 => Some(d.energy()?),
            _ => return Err(CkptError::new("bad option tag")),
        },
    })
}

fn enc_stats(e: &mut Enc, s: &RunStats) {
    e.u64(s.remote);
    e.u64(s.interpreted);
    for l in s.local {
        e.u64(l);
    }
    e.u64(s.local_compiles);
    e.u64(s.remote_compiles);
    e.u64(s.fallbacks);
    e.u64(s.early_wakes);
    e.u64(s.retries);
    e.u64(s.breaker_trips);
    e.u64(s.breaker_recoveries);
    e.u64(s.degraded);
    e.time(s.degraded_time);
    e.energy(s.wasted_energy);
    e.u64(s.losses);
    e.u64(s.outages);
    e.u64(s.corrupt_responses);
    e.u64(s.rcomp_fallbacks);
}

fn dec_stats(d: &mut Dec<'_>) -> Result<RunStats, CkptError> {
    Ok(RunStats {
        remote: d.u64()?,
        interpreted: d.u64()?,
        local: [d.u64()?, d.u64()?, d.u64()?],
        local_compiles: d.u64()?,
        remote_compiles: d.u64()?,
        fallbacks: d.u64()?,
        early_wakes: d.u64()?,
        retries: d.u64()?,
        breaker_trips: d.u64()?,
        breaker_recoveries: d.u64()?,
        degraded: d.u64()?,
        degraded_time: d.time()?,
        wasted_energy: d.energy()?,
        losses: d.u64()?,
        outages: d.u64()?,
        corrupt_responses: d.u64()?,
        rcomp_fallbacks: d.u64()?,
    })
}

fn enc_breaker(e: &mut Enc, b: &BreakerSnapshot) {
    e.u8(match b.state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    });
    e.u32(b.consecutive_failures);
    e.u32(b.cooldown_left);
    e.u64(b.trips);
    e.u64(b.recoveries);
}

fn dec_breaker(d: &mut Dec<'_>) -> Result<BreakerSnapshot, CkptError> {
    let state = match d.u8()? {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        2 => BreakerState::HalfOpen,
        other => return Err(CkptError::new(format!("bad breaker-state tag {other}"))),
    };
    Ok(BreakerSnapshot {
        state,
        consecutive_failures: d.u32()?,
        cooldown_left: d.u32()?,
        trips: d.u64()?,
        recoveries: d.u64()?,
    })
}

// ---------------------------------------------------------------
// RunSnapshot
// ---------------------------------------------------------------

/// Complete dynamic state of a scenario run at an invocation
/// boundary. See the module docs for the completeness argument.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Invocations completed so far.
    pub invocation: usize,
    /// xoshiro256++ word state of the scenario RNG.
    pub rng: [u64; 4],
    /// Channel process position.
    pub channel: ChannelDyn,
    /// Client machine (cycles, energy ledger, caches, power state).
    pub client_machine: MachineState,
    /// Client bytecode steps counter.
    pub client_steps: u64,
    /// Server machine.
    pub server_machine: MachineState,
    /// Server bytecode steps counter.
    pub server_steps: u64,
    /// Server busy-until horizon (request pipelining).
    pub server_busy_until: SimTime,
    /// The server's mobile status table.
    pub status_table: Vec<StatusEntry>,
    /// Link byte counters.
    pub link_sent: u64,
    /// Link byte counters.
    pub link_received: u64,
    /// Pilot estimator EWMA value.
    pub pilot_tracked: Option<f64>,
    /// Pilot estimator observation count.
    pub pilot_observations: u64,
    /// EWMA weight on history for size prediction (configuration, but
    /// carried so ablation runs restore onto the right weights).
    pub method_u1: f64,
    /// EWMA weight for power prediction.
    pub method_u2: f64,
    /// Invocation counter `k`.
    pub method_k: u64,
    /// Predicted size EWMA value.
    pub method_size: Option<f64>,
    /// Predicted power EWMA value.
    pub method_power: Option<f64>,
    /// Currently installed compile level on the client.
    pub installed: Option<OptLevel>,
    /// Whether the client already paid the one-time compiler load.
    pub compiler_loaded: bool,
    /// Fault chain positions.
    pub faults: FaultState,
    /// Circuit breaker state.
    pub breaker: BreakerSnapshot,
    /// Run statistics so far.
    pub stats: RunStats,
    /// Per-invocation reports so far (also the install-replay log).
    pub reports: Vec<InvocationReport>,
    /// Tracer counters (sequence/invocation/ordinal, last breakdown).
    pub tracer: TracerState,
}

impl RunSnapshot {
    /// Serialize to the hand-rolled binary form embedded in
    /// [`CkptFile`].
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u64(self.invocation as u64);
        for w in self.rng {
            e.u64(w);
        }
        enc_channel_dyn(&mut e, self.channel);
        enc_machine(&mut e, &self.client_machine);
        e.u64(self.client_steps);
        enc_machine(&mut e, &self.server_machine);
        e.u64(self.server_steps);
        e.time(self.server_busy_until);
        e.u64(self.status_table.len() as u64);
        for s in &self.status_table {
            e.time(s.request_at);
            e.time(s.powered_down_until);
            e.time(s.result_ready_at);
            e.bool(s.queued);
        }
        e.u64(self.link_sent);
        e.u64(self.link_received);
        e.opt_f64(self.pilot_tracked);
        e.u64(self.pilot_observations);
        e.f64(self.method_u1);
        e.f64(self.method_u2);
        e.u64(self.method_k);
        e.opt_f64(self.method_size);
        e.opt_f64(self.method_power);
        e.opt_level(self.installed);
        e.bool(self.compiler_loaded);
        e.bool(self.faults.channel_bad);
        e.bool(self.faults.outage);
        e.bool(self.faults.slowdown);
        enc_breaker(&mut e, &self.breaker);
        enc_stats(&mut e, &self.stats);
        e.u64(self.reports.len() as u64);
        for r in &self.reports {
            enc_report(&mut e, r);
        }
        e.breakdown(&self.tracer.last);
        e.u64(self.tracer.seq);
        e.u64(self.tracer.invocation);
        e.u64(self.tracer.ordinal);
        e.out
    }

    /// Decode a snapshot serialized by [`RunSnapshot::encode`].
    ///
    /// # Errors
    /// A typed [`CkptError`] on any corruption — truncation, bad
    /// tags, trailing bytes.
    pub fn decode(data: &[u8]) -> Result<RunSnapshot, CkptError> {
        let mut d = Dec::new(data);
        let invocation = d.u64()? as usize;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = d.u64()?;
        }
        if rng == [0; 4] {
            return Err(CkptError::new("rng state is all-zero"));
        }
        let channel = dec_channel_dyn(&mut d)?;
        let client_machine = dec_machine(&mut d)?;
        let client_steps = d.u64()?;
        let server_machine = dec_machine(&mut d)?;
        let server_steps = d.u64()?;
        let server_busy_until = d.time()?;
        let n = d.u64()? as usize;
        if n > data.len() {
            return Err(CkptError::new("status table count exceeds data"));
        }
        let mut status_table = Vec::with_capacity(n);
        for _ in 0..n {
            status_table.push(StatusEntry {
                request_at: d.time()?,
                powered_down_until: d.time()?,
                result_ready_at: d.time()?,
                queued: d.bool()?,
            });
        }
        let link_sent = d.u64()?;
        let link_received = d.u64()?;
        let pilot_tracked = d.opt_f64()?;
        let pilot_observations = d.u64()?;
        let method_u1 = d.f64()?;
        let method_u2 = d.f64()?;
        let method_k = d.u64()?;
        let method_size = d.opt_f64()?;
        let method_power = d.opt_f64()?;
        let installed = d.opt_level()?;
        let compiler_loaded = d.bool()?;
        let faults = FaultState {
            channel_bad: d.bool()?,
            outage: d.bool()?,
            slowdown: d.bool()?,
        };
        let breaker = dec_breaker(&mut d)?;
        let stats = dec_stats(&mut d)?;
        let n = d.u64()? as usize;
        if n > data.len() {
            return Err(CkptError::new("report count exceeds data"));
        }
        let mut reports = Vec::with_capacity(n);
        for _ in 0..n {
            reports.push(dec_report(&mut d)?);
        }
        let tracer = TracerState {
            last: d.breakdown()?,
            seq: d.u64()?,
            invocation: d.u64()?,
            ordinal: d.u64()?,
        };
        d.done()?;
        if reports.len() != invocation {
            return Err(CkptError::new(
                "report count disagrees with invocation index",
            ));
        }
        Ok(RunSnapshot {
            invocation,
            rng,
            channel,
            client_machine,
            client_steps,
            server_machine,
            server_steps,
            server_busy_until,
            status_table,
            link_sent,
            link_received,
            pilot_tracked,
            pilot_observations,
            method_u1,
            method_u2,
            method_k,
            method_size,
            method_power,
            installed,
            compiler_loaded,
            faults,
            breaker,
            stats,
            reports,
            tracer,
        })
    }
}

/// Snapshot a run at an invocation boundary. Read-only: draws nothing
/// from the RNG and charges no energy, so a checkpointed run is
/// bit-identical to an unmonitored one.
pub fn capture_run(
    vm: &EnergyAwareVm<'_>,
    rng: &SmallRng,
    channel: &ChannelProcess,
    invocation: usize,
    reports: &[InvocationReport],
) -> RunSnapshot {
    let (pilot_tracked, pilot_observations) = vm.pilot.export_state();
    RunSnapshot {
        invocation,
        rng: rng.state(),
        channel: ChannelDyn::capture(channel),
        client_machine: vm.client.machine.export_state(),
        client_steps: vm.client.steps,
        server_machine: vm.server.vm.machine.export_state(),
        server_steps: vm.server.vm.steps,
        server_busy_until: vm.server.busy_until,
        status_table: vm.server.status_table.clone(),
        link_sent: vm.link.bytes_sent,
        link_received: vm.link.bytes_received,
        pilot_tracked,
        pilot_observations,
        method_u1: vm.state.size.u,
        method_u2: vm.state.power.u,
        method_k: vm.state.k,
        method_size: vm.state.size.value(),
        method_power: vm.state.power.value(),
        installed: vm.installed,
        compiler_loaded: vm.compiler_loaded,
        faults: vm.faults.export_state(),
        breaker: vm.breaker.export_state(),
        stats: vm.stats.clone(),
        reports: reports.to_vec(),
        tracer: vm.tracer.export_state(),
    }
}

/// Rebuild a runtime mid-run from `snap`: fresh client/server from
/// the workload and profile, native code reproduced by replaying the
/// reports' install log, every dynamic field restored. Returns the
/// runtime (without tracer — the caller attaches one with
/// [`Tracer::attached_with`] if tracing), the RNG, and the channel
/// process, ready to run invocation `snap.invocation`.
///
/// # Errors
/// A [`CkptError`] when the snapshot does not fit the scenario (wrong
/// channel kind, out-of-range cursor).
pub fn restore_run<'a>(
    workload: &'a dyn Workload,
    profile: &'a Profile,
    scenario: &Scenario,
    resilience: &ResilienceConfig,
    snap: &RunSnapshot,
) -> Result<(EnergyAwareVm<'a>, SmallRng, ChannelProcess), CkptError> {
    if snap.invocation > scenario.runs {
        return Err(CkptError::new(format!(
            "snapshot is {} invocations in, but the scenario only runs {}",
            snap.invocation, scenario.runs
        )));
    }
    let mut channel = scenario.channel.clone();
    snap.channel.apply(&mut channel)?;
    let mut vm = EnergyAwareVm::new(workload, profile)
        .with_faults(FaultInjector::from_spec(&scenario.faults))
        .with_resilience(*resilience);
    // Replay the install log: installation is deterministic, so the
    // code space comes out address-identical to the original run.
    for r in &snap.reports {
        if let Some(level) = r.compiled_locally {
            profile.install(&mut vm.client, level);
        }
        if let Some(level) = r.compiled_remotely {
            profile.install(&mut vm.client, level);
        }
    }
    vm.client.machine.import_state(&snap.client_machine);
    vm.client.steps = snap.client_steps;
    vm.server.vm.machine.import_state(&snap.server_machine);
    vm.server.vm.steps = snap.server_steps;
    vm.server.busy_until = snap.server_busy_until;
    vm.server.status_table = snap.status_table.clone();
    vm.link.bytes_sent = snap.link_sent;
    vm.link.bytes_received = snap.link_received;
    vm.pilot
        .import_state(snap.pilot_tracked, snap.pilot_observations);
    let mut state = MethodState::with_weights(snap.method_u1, snap.method_u2);
    state.k = snap.method_k;
    state.size.set_value(snap.method_size);
    state.power.set_value(snap.method_power);
    vm.state = state;
    vm.installed = snap.installed;
    vm.compiler_loaded = snap.compiler_loaded;
    vm.faults.import_state(&snap.faults);
    vm.breaker.import_state(&snap.breaker);
    vm.stats = snap.stats.clone();
    Ok((vm, SmallRng::from_state(snap.rng), channel))
}

// ---------------------------------------------------------------
// The resumable runner
// ---------------------------------------------------------------

/// Called at each checkpoint boundary with the snapshot and the trace
/// writer's serialized state (when the attached sink supports
/// checkpointing, e.g. a `.jtb` [`jem_obs::FileSink`]).
pub type BoundaryHook<'h> = dyn FnMut(&RunSnapshot, Option<Vec<u8>>) + 'h;

/// Run a scenario with optional checkpointing and resume. This is
/// **the** scenario loop — [`crate::experiment::run_scenario_with`]
/// delegates here with no resume and no cadence, so a checkpointed,
/// resumed, or plain run all execute identical code and produce
/// bit-identical results.
///
/// `every` is the checkpoint cadence in invocations (0 = never);
/// `on_boundary` receives each snapshot. The final invocation is not
/// checkpointed — the completed result supersedes it.
///
/// # Errors
/// [`ScenarioError::Exec`] for workload VM errors,
/// [`ScenarioError::Ckpt`] when `resume` does not fit the scenario.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_ckpt(
    workload: &dyn Workload,
    profile: &Profile,
    scenario: &Scenario,
    strategy: Strategy,
    resilience: &ResilienceConfig,
    sink: Option<&mut dyn TraceSink>,
    resume: Option<&RunSnapshot>,
    every: usize,
    mut on_boundary: Option<&mut BoundaryHook<'_>>,
) -> Result<ScenarioResult, ScenarioError> {
    let (mut vm, mut rng, mut channel, mut reports, start) = match resume {
        Some(snap) => {
            let (vm, rng, channel) = restore_run(workload, profile, scenario, resilience, snap)
                .map_err(ScenarioError::Ckpt)?;
            let mut reports = Vec::with_capacity(scenario.runs);
            reports.extend(snap.reports.iter().cloned());
            (vm, rng, channel, reports, snap.invocation)
        }
        None => (
            EnergyAwareVm::new(workload, profile)
                .with_faults(FaultInjector::from_spec(&scenario.faults))
                .with_resilience(*resilience),
            SmallRng::seed_from_u64(scenario.seed),
            scenario.channel.clone(),
            Vec::with_capacity(scenario.runs),
            0,
        ),
    };
    if let Some(sink) = sink {
        let tracer_state = resume.map(|s| s.tracer).unwrap_or_default();
        vm = vm.with_tracer(Tracer::attached_with(sink, &tracer_state));
    }

    for i in start..scenario.runs {
        let size = scenario.sizes.sample(&mut rng);
        let true_class = channel.advance(&mut rng);
        let report = vm
            .invoke_once(strategy, size, true_class, &mut rng)
            .map_err(|e| ScenarioError::Exec(e.into()))?;
        reports.push(report);
        vm.end_invocation();
        let done = i + 1;
        if every > 0 && done < scenario.runs && done % every == 0 {
            if let Some(hook) = on_boundary.as_mut() {
                let writer_state = vm.tracer.sink_ckpt_state();
                let snap = capture_run(&vm, &rng, &channel, done, &reports);
                hook(&snap, writer_state);
            }
        }
    }

    Ok(ScenarioResult {
        strategy,
        total_energy: vm.total_energy(),
        breakdown: vm.client.machine.breakdown(),
        total_time: vm.total_time(),
        invocations: scenario.runs,
        instructions: vm.client.machine.mix().total(),
        stats: vm.stats.clone(),
        reports,
    })
}

// ---------------------------------------------------------------
// The .jck container
// ---------------------------------------------------------------

/// The in-flight section of a [`CkptFile`]: one unit mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightCkpt {
    /// Name of the sweep unit being executed.
    pub unit: String,
    /// Encoded [`RunSnapshot`].
    pub snapshot: Vec<u8>,
}

/// The on-disk checkpoint container (`.jck`): a fingerprint binding
/// it to one bench invocation, the results of completed sweep units,
/// the `.jtb` trace writer's serialized position (so the resumed run
/// appends exactly where the checkpoint left the stream), and at most
/// one in-flight unit's [`RunSnapshot`]. Checksummed (FNV-1a over the
/// whole body) so bit flips surface as typed errors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CkptFile {
    /// Bench bin + argument digest; resume refuses a mismatch.
    pub fingerprint: String,
    /// Completed units: name → opaque encoded result, in completion
    /// order.
    pub completed: Vec<(String, Vec<u8>)>,
    /// Serialized `.jtb` writer state as of this checkpoint, when the
    /// sweep streams a trace.
    pub writer_state: Option<Vec<u8>>,
    /// The unit that was mid-run when the checkpoint was written.
    pub inflight: Option<InflightCkpt>,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl CkptFile {
    /// Serialize with magic, version, and trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.out.extend_from_slice(JCK_MAGIC);
        e.u64(JCK_VERSION);
        e.str(&self.fingerprint);
        e.u64(self.completed.len() as u64);
        for (name, payload) in &self.completed {
            e.str(name);
            e.bytes(payload);
        }
        match &self.writer_state {
            None => e.u8(0),
            Some(ws) => {
                e.u8(1);
                e.bytes(ws);
            }
        }
        match &self.inflight {
            None => e.u8(0),
            Some(inf) => {
                e.u8(1);
                e.str(&inf.unit);
                e.bytes(&inf.snapshot);
            }
        }
        let sum = fnv64(&e.out);
        e.out.extend_from_slice(&sum.to_le_bytes());
        e.out
    }

    /// Decode and verify a `.jck` image.
    ///
    /// # Errors
    /// Typed [`CkptError`]s for bad magic, version, checksum, or
    /// structure — corrupt checkpoints are reported, never panicked
    /// on and never silently half-applied.
    pub fn decode(data: &[u8]) -> Result<CkptFile, CkptError> {
        if data.len() < JCK_MAGIC.len() + 9 || &data[..4] != JCK_MAGIC {
            return Err(CkptError::new("not a .jck checkpoint (bad magic)"));
        }
        let body = &data[..data.len() - 8];
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&data[data.len() - 8..]);
        if fnv64(body) != u64::from_le_bytes(sum) {
            return Err(CkptError::new("checksum mismatch (corrupt checkpoint)"));
        }
        let mut d = Dec::new(&body[4..]);
        let version = d.u64()?;
        if version != JCK_VERSION {
            return Err(CkptError::new(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let fingerprint = d.str()?;
        let n = d.u64()? as usize;
        if n > body.len() {
            return Err(CkptError::new("unit count exceeds data"));
        }
        let mut completed = Vec::with_capacity(n);
        for _ in 0..n {
            let name = d.str()?;
            let payload = d.bytes()?.to_vec();
            completed.push((name, payload));
        }
        let writer_state = match d.u8()? {
            0 => None,
            1 => Some(d.bytes()?.to_vec()),
            _ => return Err(CkptError::new("bad option tag")),
        };
        let inflight = match d.u8()? {
            0 => None,
            1 => Some(InflightCkpt {
                unit: d.str()?,
                snapshot: d.bytes()?.to_vec(),
            }),
            _ => return Err(CkptError::new("bad inflight tag")),
        };
        d.done()?;
        Ok(CkptFile {
            fingerprint,
            completed,
            writer_state,
            inflight,
        })
    }

    /// Load and decode `path`.
    ///
    /// # Errors
    /// I/O errors (as [`CkptError`]) and every [`CkptFile::decode`]
    /// error.
    pub fn load(path: &str) -> Result<CkptFile, CkptError> {
        let bytes =
            std::fs::read(path).map_err(|e| CkptError::new(format!("cannot read {path}: {e}")))?;
        CkptFile::decode(&bytes)
    }
}

/// Serialize a completed unit's [`ScenarioResult`] for the
/// `completed` section of a [`CkptFile`]. Bit-exact: every f64 is
/// stored as its IEEE bits, so a decoded result renders the same
/// tables and JSON as the original.
pub fn encode_result(r: &ScenarioResult) -> Vec<u8> {
    let mut e = Enc::default();
    let tag = Strategy::ALL
        .iter()
        .position(|&s| s == r.strategy)
        .expect("strategy in ALL");
    e.u8(tag as u8);
    e.energy(r.total_energy);
    e.breakdown(&r.breakdown);
    e.time(r.total_time);
    e.u64(r.invocations as u64);
    e.u64(r.instructions);
    enc_stats(&mut e, &r.stats);
    e.u64(r.reports.len() as u64);
    for rep in &r.reports {
        enc_report(&mut e, rep);
    }
    e.out
}

/// Decode a [`ScenarioResult`] encoded by [`encode_result`].
///
/// # Errors
/// A typed [`CkptError`] on any corruption.
pub fn decode_result(data: &[u8]) -> Result<ScenarioResult, CkptError> {
    let mut d = Dec::new(data);
    let tag = d.u8()? as usize;
    let strategy = *Strategy::ALL
        .get(tag)
        .ok_or_else(|| CkptError::new("bad strategy tag"))?;
    let total_energy = d.energy()?;
    let breakdown = d.breakdown()?;
    let total_time = d.time()?;
    let invocations = d.u64()? as usize;
    let instructions = d.u64()?;
    let stats = dec_stats(&mut d)?;
    let n = d.u64()? as usize;
    if n > data.len() {
        return Err(CkptError::new("report count exceeds data"));
    }
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        reports.push(dec_report(&mut d)?);
    }
    d.done()?;
    Ok(ScenarioResult {
        strategy,
        total_energy,
        breakdown,
        total_time,
        invocations,
        instructions,
        stats,
        reports,
    })
}
