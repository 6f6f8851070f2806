//! The simulated execution machine: prices instruction events and
//! tracks time.
//!
//! A [`Machine`] is the meeting point between the MJVM (which produces
//! abstract instruction events while interpreting bytecode or running
//! JIT-generated native code) and the energy model. It simulates
//! instruction fetch through the I-cache, data accesses through the
//! D-cache, charges Fig 1 energies to an [`EnergyBreakdown`], and
//! counts cycles.
//!
//! Two machines exist in every experiment:
//!
//! * the **client**: a 100 MHz microSPARC-IIep-like core with 16 KB
//!   I-cache / 8 KB D-cache, whose energy we care about, and
//! * the **server**: a 750 MHz SPARC workstation with larger caches.
//!   Its energy is free (the paper optimizes *client* energy) but its
//!   cycle count determines how long the client stays powered down.
//!
//! During remote execution the paper places "the processor, memory and
//! the receiver into a power-down state" in which the processor still
//! burns leakage, "assumed to be 10 % of the normal power consumption".
//! [`Machine::power_down`] implements exactly that.

use crate::cache::{CacheConfig, CacheSim, CacheState, CacheStats};
use crate::itable::{EnergyTable, InstrClass, InstrMix};
use crate::meter::{Component, EnergyBreakdown};
use crate::units::{Energy, Power, SimTime};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Data-memory behaviour of one instruction event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// No data access.
    None,
    /// Data read from the given simulated byte address.
    Read(u64),
    /// Data write to the given simulated byte address.
    Write(u64),
}

/// CPU power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerState {
    /// Executing normally.
    Active,
    /// Powered down (remote execution in flight); only leakage burns.
    PowerDown,
}

/// Static configuration of a simulated machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Per-instruction energy table (Fig 1).
    pub table: EnergyTable,
    /// Instruction cache geometry (`None` disables fetch simulation).
    pub icache: Option<CacheConfig>,
    /// Data cache geometry (`None` disables data-access simulation).
    pub dcache: Option<CacheConfig>,
    /// Pipeline stall cycles per cache miss (DRAM latency).
    pub miss_penalty_cycles: u32,
    /// Nominal active power of core + memory, used to price leakage
    /// during power-down.
    pub nominal_power: Power,
    /// Fraction of nominal power burned while powered down (the paper
    /// assumes 0.10).
    pub leak_fraction: f64,
}

impl MachineConfig {
    /// The paper's mobile client: 100 MHz microSPARC-IIep, 16 KB
    /// I-cache, 8 KB D-cache, 32 MB off-chip DRAM.
    ///
    /// The nominal active power follows from the energy table itself:
    /// ~3.5 nJ/instruction at 100 MIPS is ~350 mW, consistent with the
    /// low-power embedded cores of the period.
    pub fn mobile_client() -> Self {
        MachineConfig {
            clock_hz: 100e6,
            table: EnergyTable::microsparc_iiep(),
            icache: Some(CacheConfig::client_icache()),
            dcache: Some(CacheConfig::client_dcache()),
            miss_penalty_cycles: 10,
            nominal_power: Power::from_milliwatts(350.0),
            leak_fraction: 0.10,
        }
    }

    /// The paper's remote server: a 750 MHz SPARC workstation. Caches
    /// are larger and the miss penalty (in cycles) higher, as on real
    /// workstation-class parts. Its energy ledger is maintained but
    /// never charged to the client.
    pub fn sparc_server() -> Self {
        MachineConfig {
            clock_hz: 750e6,
            table: EnergyTable::microsparc_iiep(),
            icache: Some(CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 32,
            }),
            dcache: Some(CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 32,
            }),
            miss_penalty_cycles: 40,
            nominal_power: Power::from_watts(25.0),
            leak_fraction: 0.10,
        }
    }

    /// Duration of one clock cycle.
    pub fn cycle_time(&self) -> SimTime {
        SimTime::from_nanos(1e9 / self.clock_hz)
    }
}

/// A running machine instance.
///
/// # The ledger
///
/// Every instruction-driven charge is a Fig 1 constant times an
/// integer count, so the machine keeps the counts and derives those
/// energies when the ledger is read ([`Machine::breakdown`]):
///
/// * instruction Core energy is `Σ_class energy(class) × count(class)`
///   over the executed [`InstrMix`], in [`InstrClass::ALL`] order;
/// * DRAM energy is `main_memory × mem_accesses` (every cache miss and
///   every summarized memory access of [`Machine::charge_mix`]).
///
/// Only charges that are not counts — active-idle Core energy,
/// leakage and radio — accumulate as `f64`s. Charging an instruction
/// is therefore a handful of integer adds, and batched replays
/// ([`ChargeSeq`], [`SeqPlan`]) fold any number of instructions into
/// one count delta: integer addition is associative, so a batched
/// replay and the per-instruction [`Machine::step`] calls it stands
/// for leave identical counts, and hence an identical ledger, bit for
/// bit.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    icache: Option<CacheSim>,
    dcache: Option<CacheSim>,
    cycles: u64,
    /// Wall time spent outside normal execution (power-down waits).
    extra_time: SimTime,
    /// The `f64`-charged part of the ledger: active-idle Core energy,
    /// leakage and radio. Its DRAM slot stays zero.
    ledger: EnergyBreakdown,
    mix: InstrMix,
    state: PowerState,
}

impl Machine {
    /// Build a machine in the [`PowerState::Active`] state.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            icache: config.icache.map(CacheSim::new),
            dcache: config.dcache.map(CacheSim::new),
            cycles: 0,
            extra_time: SimTime::ZERO,
            ledger: EnergyBreakdown::new(),
            mix: InstrMix::new(),
            state: PowerState::Active,
            config,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Execute one instruction event.
    ///
    /// `pc` is the simulated byte address the instruction was fetched
    /// from (drives the I-cache); `mem` describes its data access
    /// (drives the D-cache). Counts the instruction and every miss's
    /// DRAM access (priced when the ledger is read), and advances the
    /// cycle counter (1 cycle base + miss penalties).
    ///
    /// # Panics
    /// In debug builds, if called while powered down — the caller must
    /// wake the machine first.
    #[inline]
    pub fn step(&mut self, pc: u64, class: InstrClass, mem: MemOp) {
        debug_assert_eq!(self.state, PowerState::Active, "step while powered down");
        let mut misses = 0;
        if let Some(icache) = &mut self.icache {
            misses += u64::from(!icache.access(pc));
        }
        if let (MemOp::Read(addr) | MemOp::Write(addr), Some(dcache)) = (mem, &mut self.dcache) {
            misses += u64::from(!dcache.access(addr));
        }
        self.mix.record(class, 1);
        self.mix.mem_accesses += misses;
        self.cycles += 1 + misses * u64::from(self.config.miss_penalty_cycles);
    }

    /// Replay a precompiled [`ChargeSeq`]: one or more interpreter
    /// dispatches, batched.
    ///
    /// Equivalent to, for each folded dispatch in order,
    ///
    /// ```text
    /// machine.step(fetch_pc, lead_class, MemOp::None);
    /// machine.charge_mix(&mix_1);
    /// ...
    /// machine.charge_mix(&mix_n);
    /// ```
    ///
    /// The I-cache sees the same fetches in the same order — or, when
    /// the seq's epoch memo matches the cache, has them credited as the
    /// hits they provably are (see [`crate::cache`]) — and the counts
    /// and cycles are the same integer sums.
    #[inline]
    pub fn step_charge_seq(&mut self, seq: &ChargeSeq) {
        debug_assert_eq!(self.state, PowerState::Active, "step while powered down");
        let mut misses = 0;
        if let Some(icache) = &mut self.icache {
            if seq.hit_epoch.get() == icache.epoch() {
                icache.credit_hits(seq.fetch_pcs.len() as u64);
            } else {
                for &pc in seq.fetch_pcs.iter() {
                    misses += u64::from(!icache.access(pc));
                }
                if misses == 0 {
                    seq.hit_epoch.set(icache.epoch());
                }
            }
        }
        self.mix += seq.mix;
        self.mix.mem_accesses += misses;
        self.cycles += seq.mix_total + misses * u64::from(self.config.miss_penalty_cycles);
    }

    /// Replay a precompiled [`SeqPlan`]: one straight-line emitted
    /// micro-instruction sequence, batched.
    ///
    /// Equivalent to calling [`Machine::step`] once per micro at its
    /// fetch address `code_base + offset`:
    ///
    /// * **I-cache** — because `code_base` is line-aligned, the
    ///   grouping of consecutive fetches into cache lines is static.
    ///   Only the *first* fetch of each line is simulated; the
    ///   follow-on fetches are guaranteed hits (a direct-mapped line
    ///   just accessed cannot be evicted by fetches to other lines of
    ///   the same sequence, and hits never modify tags), so they are
    ///   credited in bulk via [`CacheSim::credit_hits`]. When the
    ///   plan's memo holds the cache's current epoch and this
    ///   `code_base`, an earlier replay of the same fetches from the
    ///   same tag array saw no miss, so every fetch is credited as a
    ///   hit without a lookup (see [`crate::cache`]).
    /// * **D-cache** — data-bearing micros are replayed individually,
    ///   in issue order, at their true addresses (`frame_base +
    ///   offset` for spills; for the *k*-th heap micro,
    ///   `heap_addrs[k]`, where `None` skips the access), because heap
    ///   locality is dynamic. `heap_addrs` holds exactly one entry per
    ///   heap micro ([`SeqPlan::heap_micros`]), in issue order.
    /// * **Counts and cycles** — the instruction counts, miss counts
    ///   and cycles are integer sums, so moving the D-cache misses
    ///   after the I-cache misses changes nothing.
    ///
    /// # Panics
    /// In debug builds, if called while powered down, if `code_base`
    /// is not aligned to the plan's line size, or if the plan was
    /// compiled for a different I-cache line size than this machine's.
    #[inline]
    pub fn step_seq(
        &mut self,
        plan: &SeqPlan,
        code_base: u64,
        frame_base: u64,
        heap_addrs: &[Option<u64>],
    ) {
        debug_assert_eq!(self.state, PowerState::Active, "step while powered down");
        debug_assert_eq!(
            heap_addrs.len(),
            plan.nheap as usize,
            "one heap address per heap micro"
        );
        debug_assert_eq!(
            code_base % u64::from(plan.line_bytes),
            0,
            "code base not line-aligned"
        );
        let penalty = u64::from(self.config.miss_penalty_cycles);
        let mut misses = 0u64;
        if let Some(icache) = &mut self.icache {
            debug_assert_eq!(
                icache.config().line_bytes % plan.line_bytes,
                0,
                "plan line grouping incompatible with I-cache line size"
            );
            if plan.hit_memo.get() == (icache.epoch(), code_base) {
                icache.credit_hits(plan.n);
            } else {
                for &(off, extra) in plan.lines.iter() {
                    misses += u64::from(!icache.access(code_base + off));
                    icache.credit_hits(u64::from(extra));
                }
                if misses == 0 {
                    plan.hit_memo.set((icache.epoch(), code_base));
                }
            }
        }
        if let Some(dcache) = &mut self.dcache {
            let mut heap = heap_addrs.iter();
            for mem in plan.mems.iter() {
                let addr = match *mem {
                    SeqDataRef::None => continue,
                    SeqDataRef::Frame { offset, .. } => frame_base + offset,
                    SeqDataRef::Heap { .. } => match heap.next() {
                        Some(&Some(a)) => a,
                        _ => continue,
                    },
                };
                misses += u64::from(!dcache.access(addr));
            }
        }
        self.mix += plan.mix;
        self.mix.mem_accesses += misses;
        self.cycles += plan.n + misses * penalty;
    }

    /// Bulk-charge an instruction mix without cache simulation — used
    /// for work whose memory behaviour is summarized rather than
    /// traced (e.g. JIT compiler passes, serialization loops). Each
    /// recorded memory access is priced as a DRAM access plus the miss
    /// penalty.
    #[inline]
    pub fn charge_mix(&mut self, mix: &InstrMix) {
        debug_assert_eq!(self.state, PowerState::Active, "charge while powered down");
        self.mix += *mix;
        self.cycles += mix.total() + mix.mem_accesses * u64::from(self.config.miss_penalty_cycles);
    }

    /// Enter the power-down state for `duration`: wall time advances,
    /// and leakage (10 % of nominal power) is charged.
    pub fn power_down(&mut self, duration: SimTime) {
        self.state = PowerState::PowerDown;
        let leak = self.config.nominal_power * self.config.leak_fraction;
        self.ledger.charge(Component::Leakage, leak.over(duration));
        self.extra_time += duration;
        self.state = PowerState::Active;
    }

    /// Busy-wait (active idle) for `duration`: wall time advances and
    /// the core burns nominal power — what happens when the client
    /// waits for the radio *without* powering down.
    pub fn active_idle(&mut self, duration: SimTime) {
        self.ledger
            .charge(Component::Core, self.config.nominal_power.over(duration));
        self.extra_time += duration;
    }

    /// Charge radio energy onto this machine's ledger.
    pub fn charge_radio(&mut self, tx: Energy, rx: Energy) {
        self.ledger.charge(Component::RadioTx, tx);
        self.ledger.charge(Component::RadioRx, rx);
    }

    /// Cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total elapsed simulated time (execution + waits).
    pub fn elapsed(&self) -> SimTime {
        SimTime::from_cycles(self.cycles, self.config.clock_hz) + self.extra_time
    }

    /// The energy ledger: the `f64`-charged components plus the
    /// instruction Core and DRAM energy derived from the counts (see
    /// the type docs).
    pub fn breakdown(&self) -> EnergyBreakdown {
        let table = &self.config.table;
        let mut b = self.ledger;
        b[Component::Core] += table.instr_energy(&self.mix);
        b[Component::Dram] = table.main_memory * self.mix.mem_accesses as f64;
        b
    }

    /// Total energy so far.
    pub fn energy(&self) -> Energy {
        self.breakdown().total()
    }

    /// Executed instruction histogram.
    pub fn mix(&self) -> InstrMix {
        self.mix
    }

    /// I-cache statistics, if an I-cache is configured.
    pub fn icache_stats(&self) -> Option<CacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// D-cache statistics, if a D-cache is configured.
    pub fn dcache_stats(&self) -> Option<CacheStats> {
        self.dcache.as_ref().map(|c| c.stats())
    }

    /// Snapshot of (cycles, energy) — used to meter a sub-interval.
    pub fn checkpoint(&self) -> MachineCheckpoint {
        MachineCheckpoint {
            cycles: self.cycles,
            extra_time: self.extra_time,
            energy: self.energy(),
        }
    }

    /// Energy and time consumed since `checkpoint`.
    pub fn since(&self, checkpoint: &MachineCheckpoint) -> (Energy, SimTime) {
        let energy = self.energy() - checkpoint.energy;
        let time = SimTime::from_cycles(self.cycles - checkpoint.cycles, self.config.clock_hz)
            + (self.extra_time - checkpoint.extra_time);
        (energy, time)
    }

    /// Snapshot the complete mutable state — counters, `f64` ledger,
    /// mix, power state and cache residency — for checkpointing.
    /// Restoring with [`Machine::import_state`] on a machine of the
    /// same configuration reproduces all subsequent accounting
    /// bit-exactly.
    pub fn export_state(&self) -> MachineState {
        MachineState {
            cycles: self.cycles,
            extra_time: self.extra_time,
            ledger: self.ledger,
            mix: self.mix,
            state: self.state,
            icache: self.icache.as_ref().map(CacheSim::export_state),
            dcache: self.dcache.as_ref().map(CacheSim::export_state),
        }
    }

    /// Restore state captured by [`Machine::export_state`].
    ///
    /// # Panics
    /// If the snapshot's cache presence or geometry does not match
    /// this machine's configuration.
    pub fn import_state(&mut self, state: &MachineState) {
        self.cycles = state.cycles;
        self.extra_time = state.extra_time;
        self.ledger = state.ledger;
        self.mix = state.mix;
        self.state = state.state;
        match (&mut self.icache, &state.icache) {
            (Some(sim), Some(s)) => sim.import_state(s),
            (None, None) => {}
            _ => panic!("machine state icache presence mismatch"),
        }
        match (&mut self.dcache, &state.dcache) {
            (Some(sim), Some(s)) => sim.import_state(s),
            (None, None) => {}
            _ => panic!("machine state dcache presence mismatch"),
        }
    }

    /// Reset energy/cycle accounting and caches (fresh run on the same
    /// configuration).
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.extra_time = SimTime::ZERO;
        self.ledger = EnergyBreakdown::new();
        self.mix = InstrMix::new();
        if let Some(c) = &mut self.icache {
            c.flush();
            c.reset_stats();
        }
        if let Some(c) = &mut self.dcache {
            c.flush();
            c.reset_stats();
        }
        self.state = PowerState::Active;
    }
}

/// Serializable snapshot of a [`Machine`]'s complete mutable state
/// (configuration excluded — it is static and re-derivable).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// Cycle counter.
    pub cycles: u64,
    /// Wall time spent outside normal execution.
    pub extra_time: SimTime,
    /// The `f64`-charged ledger components (active-idle Core, leakage,
    /// radio); instruction Core and DRAM energy are derived from `mix`.
    pub ledger: EnergyBreakdown,
    /// Executed instruction histogram and main-memory access count.
    pub mix: InstrMix,
    /// Power state.
    pub state: PowerState,
    /// I-cache residency, if configured.
    pub icache: Option<CacheState>,
    /// D-cache residency, if configured.
    pub dcache: Option<CacheState>,
}

/// Opaque snapshot returned by [`Machine::checkpoint`].
#[derive(Debug, Clone, Copy)]
pub struct MachineCheckpoint {
    cycles: u64,
    extra_time: SimTime,
    energy: Energy,
}

/// A precompiled batched charge replay of one or more interpreter
/// dispatches, for [`Machine::step_charge_seq`].
///
/// Each dispatch is the machine work the interpreter performs for one
/// executed bytecode: the instruction fetch (an I-cache access at the
/// handler's address) and the instruction counts of the lead
/// instruction plus fixed [`InstrMix`]es (dispatch overhead + per-op
/// operand traffic). [`ChargeSeq::compile`] builds one dispatch;
/// [`ChargeSeq::merge`] concatenates several — the "superinstruction"
/// charge form. The fetch addresses are kept individually (cache
/// outcomes stay dynamic, up to the epoch memo) and the counts are
/// summed. Seqs depend on nothing but the fetch addresses and mixes,
/// so they are built once and reused for the whole run.
#[derive(Debug, Clone)]
pub struct ChargeSeq {
    /// Fetch addresses of the folded dispatches, in order.
    fetch_pcs: Box<[u64]>,
    /// Folded instruction-count delta.
    mix: InstrMix,
    /// `mix.total()`: the base cycles (miss penalties are added
    /// dynamically).
    mix_total: u64,
    /// I-cache epoch at which one full replay saw no miss (0 = none):
    /// while the cache still has it, every fetch is a hit.
    hit_epoch: Cell<u64>,
}

impl ChargeSeq {
    /// Compile one dispatch: `step(fetch_pc, lead, MemOp::None)`
    /// followed by `charge_mix(m)` for each mix in `mixes`, in order.
    ///
    /// # Panics
    /// If a mix records main-memory accesses (those are cache misses of
    /// a traced access, which a static plan cannot know).
    pub fn compile(fetch_pc: u64, lead: InstrClass, mixes: &[InstrMix]) -> Self {
        let mut mix = InstrMix::new().with(lead, 1);
        for m in mixes {
            assert_eq!(
                m.mem_accesses, 0,
                "ChargeSeq cannot fold mixes with main-memory accesses"
            );
            mix += *m;
        }
        Self::new(Box::new([fetch_pc]), mix)
    }

    /// Concatenate `seqs` into one replay equivalent to replaying each
    /// in order.
    pub fn merge(seqs: &[&ChargeSeq]) -> Self {
        let mut mix = InstrMix::new();
        for s in seqs {
            mix += s.mix;
        }
        let fetch_pcs = seqs.iter().flat_map(|s| s.fetch_pcs.iter().copied());
        Self::new(fetch_pcs.collect(), mix)
    }

    fn new(fetch_pcs: Box<[u64]>, mix: InstrMix) -> Self {
        ChargeSeq {
            fetch_pcs,
            mix,
            mix_total: mix.total(),
            hit_epoch: Cell::new(0),
        }
    }

    /// Number of folded dispatches (= step-budget increments the
    /// caller owes when replaying this merged plan).
    #[inline]
    pub fn steps(&self) -> u64 {
        self.fetch_pcs.len() as u64
    }
}

/// Data access performed by one micro-instruction of a [`SeqPlan`].
///
/// Addresses are split into a static part (captured at compile time)
/// and a dynamic part (supplied to [`Machine::step_seq`] per replay),
/// mirroring how JIT-emitted code addresses its spill frame and heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqDataRef {
    /// No data access.
    None,
    /// Spill-frame access at `frame_base + offset`.
    Frame {
        /// Write (store) rather than read.
        store: bool,
        /// Byte offset from the frame base supplied at replay time.
        offset: u64,
    },
    /// Heap access at the address supplied at replay time.
    Heap {
        /// Write (store) rather than read.
        store: bool,
    },
}

/// A precompiled batched charge plan for one straight-line sequence of
/// emitted micro-instructions, replayed by [`Machine::step_seq`].
///
/// Compiled once per (sequence, I-cache geometry) — in practice when
/// native code is installed into a VM — and replayed on every
/// execution of the sequence. The plan pre-resolves everything static
/// about the accounting (line grouping of the consecutive fetches,
/// folded instruction counts) while keeping everything dynamic (cache
/// hit/miss outcomes, data addresses) live. Replay is equivalent to
/// the per-micro [`Machine::step`] loop — see [`Machine::step_seq`].
#[derive(Debug, Clone)]
pub struct SeqPlan {
    /// One entry per I-cache line the sequence's fetches touch, in
    /// first-touch order: byte offset (from the line-aligned code
    /// base) of the line's first fetch, plus the number of guaranteed
    /// follow-on hits to that line.
    lines: Box<[(u64, u32)]>,
    /// Data-bearing micros, in issue order.
    mems: Box<[SeqDataRef]>,
    /// Folded instruction counts of the whole sequence.
    mix: InstrMix,
    /// Micro count (= fetches = base cycles).
    n: u64,
    /// Number of [`SeqDataRef::Heap`] entries.
    nheap: u32,
    /// I-cache line size the line grouping assumes.
    line_bytes: u32,
    /// `(I-cache epoch, code base)` at which one full replay saw no
    /// miss (epoch 0 = none): while both still match, every fetch is a
    /// hit.
    hit_memo: Cell<(u64, u64)>,
}

impl SeqPlan {
    /// Compile a plan equivalent to, for each `(off, class, mem)` micro,
    /// `step(code_base + off, class, mem)` in slice order, assuming
    /// `code_base` will be aligned to `line_bytes`.
    ///
    /// The fetch offsets are explicit, so a caller can merge several
    /// consecutive emitted sequences (e.g. a straight-line run of JIT'd
    /// instructions) into one plan. Offsets need not be contiguous or
    /// even monotonic: only *consecutive* same-line fetches are grouped
    /// into guaranteed hits, which is sound regardless of the overall
    /// offset pattern.
    ///
    /// `line_bytes` is the grouping granule: any power of two that
    /// divides the target I-cache's actual line size is sound (two
    /// fetches within one granule are then always within one cache
    /// line), so callers unsure of the exact geometry can group
    /// conservatively, e.g. at `actual_line_bytes.min(32)` when code
    /// bases are 32-byte aligned.
    ///
    /// # Panics
    /// If `line_bytes` is not a power of two.
    pub fn compile_at(line_bytes: u32, micros: &[(u64, InstrClass, SeqDataRef)]) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lb = u64::from(line_bytes);
        let mut lines: Vec<(u64, u32)> = Vec::new();
        let mut mems = Vec::new();
        let mut mix = InstrMix::new();
        let mut nheap = 0u32;
        for &(off, class, mem) in micros {
            match lines.last_mut() {
                Some(&mut (first, ref mut extra)) if off / lb == first / lb => *extra += 1,
                _ => lines.push((off, 0)),
            }
            mix.record(class, 1);
            match mem {
                SeqDataRef::None => {}
                SeqDataRef::Frame { .. } => mems.push(mem),
                SeqDataRef::Heap { .. } => {
                    nheap += 1;
                    mems.push(mem);
                }
            }
        }
        SeqPlan {
            lines: lines.into_boxed_slice(),
            mems: mems.into_boxed_slice(),
            mix,
            n: micros.len() as u64,
            nheap,
            line_bytes,
            hit_memo: Cell::new((0, 0)),
        }
    }

    /// Number of micro-instructions the plan replays.
    #[inline]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when the plan replays no micros at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of heap-touching micros: the length of the address
    /// slice [`Machine::step_seq`] takes for this plan.
    #[inline]
    pub fn heap_micros(&self) -> usize {
        self.nheap as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> Machine {
        Machine::new(MachineConfig::mobile_client())
    }

    #[test]
    fn single_alu_instruction() {
        let mut m = client();
        m.step(0, InstrClass::AluSimple, MemOp::None);
        // First fetch misses the I-cache: 1 + 10 cycles, core energy
        // 2.846 nJ + one DRAM access 4.94 nJ.
        assert_eq!(m.cycles(), 11);
        assert!((m.breakdown()[Component::Core].nanojoules() - 2.846).abs() < 1e-9);
        assert!((m.breakdown()[Component::Dram].nanojoules() - 4.94).abs() < 1e-9);
    }

    #[test]
    fn hot_loop_hits_caches() {
        let mut m = client();
        // Re-execute the same instruction; after the first fetch the
        // line is resident, so each iteration is one cycle.
        m.step(0, InstrClass::AluSimple, MemOp::None);
        let c0 = m.cycles();
        for _ in 0..100 {
            m.step(0, InstrClass::AluSimple, MemOp::None);
        }
        assert_eq!(m.cycles() - c0, 100);
    }

    #[test]
    fn load_with_dcache_miss_and_hit() {
        let mut m = client();
        m.step(0, InstrClass::Load, MemOp::Read(0x8000));
        // icache miss + dcache miss: 1 + 10 + 10.
        assert_eq!(m.cycles(), 21);
        m.step(0, InstrClass::Load, MemOp::Read(0x8004));
        // Both hit now.
        assert_eq!(m.cycles(), 22);
        assert_eq!(m.mix().count(InstrClass::Load), 2);
    }

    #[test]
    fn charge_mix_bulk() {
        let mut m = client();
        let mix = InstrMix::new()
            .with(InstrClass::AluSimple, 10)
            .with(InstrClass::Load, 5)
            .with_mem(2);
        m.charge_mix(&mix);
        assert_eq!(m.cycles(), 15 + 2 * 10);
        let expect = 10.0 * 2.846 + 5.0 * 4.814 + 2.0 * 4.94;
        assert!((m.energy().nanojoules() - expect).abs() < 1e-9);
    }

    #[test]
    fn step_charge_seq_is_bit_exact_with_per_plan_replay() {
        // A merged ChargeSeq must leave the machine bit-identical to
        // replaying its component dispatches one at a time.
        let mixes = [
            InstrMix::new()
                .with(InstrClass::Load, 1)
                .with(InstrClass::AluSimple, 2),
            InstrMix::new().with(InstrClass::AluSimple, 1),
            InstrMix::new()
                .with(InstrClass::Load, 2)
                .with(InstrClass::Branch, 1)
                .with(InstrClass::AluComplex, 1),
        ];
        let plans: Vec<ChargeSeq> = (0..3)
            .map(|i| {
                ChargeSeq::compile(
                    0x1000_0000 + i * 0x40,
                    InstrClass::Branch,
                    &mixes[..=i as usize],
                )
            })
            .collect();
        let seq = ChargeSeq::merge(&plans.iter().collect::<Vec<_>>());
        assert_eq!(seq.steps(), 3);
        let mut slow = client();
        let mut fast = client();
        for rep in 0..1000u64 {
            // Interleave other traffic so accumulators hold ugly
            // partial sums and the fetched lines get evicted.
            slow.step(rep * 8192, InstrClass::Load, MemOp::Read(rep * 16));
            fast.step(rep * 8192, InstrClass::Load, MemOp::Read(rep * 16));
            for p in &plans {
                slow.step_charge_seq(p);
            }
            fast.step_charge_seq(&seq);
            assert_eq!(slow.breakdown(), fast.breakdown(), "rep {rep}");
        }
        assert_eq!(slow.export_state(), fast.export_state());
        assert_eq!(
            slow.energy().nanojoules().to_bits(),
            fast.energy().nanojoules().to_bits()
        );
    }

    #[test]
    fn step_seq_is_bit_exact_with_per_micro_steps() {
        // Replaying a SeqPlan must leave the machine bit-identical to
        // the per-micro step loop it compiles: same energy bits, same
        // cycles, mixes, and cache counters/residency. Every heap micro
        // takes its own address from the slice, in issue order, and a
        // `None` entry skips exactly that micro's access.
        use InstrClass::*;
        let seqs: Vec<(u64, Vec<(InstrClass, SeqDataRef)>)> = vec![
            // Unaligned start, crosses a 32-byte line boundary.
            (
                20,
                vec![
                    (Load, SeqDataRef::None),
                    (
                        AluSimple,
                        SeqDataRef::Frame {
                            store: false,
                            offset: 8,
                        },
                    ),
                    (
                        Store,
                        SeqDataRef::Frame {
                            store: true,
                            offset: 16,
                        },
                    ),
                    (Load, SeqDataRef::Heap { store: false }),
                    (Branch, SeqDataRef::None),
                ],
            ),
            // Empty sequence.
            (0, vec![]),
            // Long sequence spanning many lines.
            (
                64,
                (0..40)
                    .map(|i| {
                        (
                            if i % 3 == 0 { AluComplex } else { Nop },
                            if i % 7 == 0 {
                                SeqDataRef::Heap { store: i % 2 == 0 }
                            } else {
                                SeqDataRef::None
                            },
                        )
                    })
                    .collect(),
            ),
        ];
        let mut slow = client();
        let mut fast = client();
        let plans: Vec<SeqPlan> = seqs
            .iter()
            .map(|(start, micros)| {
                let at: Vec<(u64, InstrClass, SeqDataRef)> = micros
                    .iter()
                    .enumerate()
                    .map(|(i, &(class, mem))| (start + i as u64 * 4, class, mem))
                    .collect();
                SeqPlan::compile_at(32, &at)
            })
            .collect();
        let code_base = 0x3000_0040;
        let frame_base = 0x5000_2000;
        for rep in 0..500u64 {
            // Interleave unrelated traffic so accumulators hold ugly
            // partial sums and cache residency churns.
            slow.step(rep * 96, Load, MemOp::Read(rep * 40));
            fast.step(rep * 96, Load, MemOp::Read(rep * 40));
            for ((start, micros), plan) in seqs.iter().zip(&plans) {
                // A distinct address per heap micro. Entries are `None`
                // for a whole replay every fifth rep, and otherwise for
                // the micros `k` with `k % 3 == rep % 2`.
                let heap_addrs: Vec<Option<u64>> = (0..plan.heap_micros() as u64)
                    .map(|k| {
                        if rep % 5 == 4 || (k % 3 == rep % 2) {
                            None
                        } else {
                            Some(0x8000 + rep * 24 + k * 0x2a8)
                        }
                    })
                    .collect();
                let mut heap = heap_addrs.iter();
                let mut pc = code_base + start;
                for &(class, mem) in micros {
                    let op = match mem {
                        SeqDataRef::None => MemOp::None,
                        SeqDataRef::Frame { store, offset } => {
                            let a = frame_base + offset;
                            if store {
                                MemOp::Write(a)
                            } else {
                                MemOp::Read(a)
                            }
                        }
                        SeqDataRef::Heap { store } => match *heap.next().unwrap() {
                            Some(a) if store => MemOp::Write(a),
                            Some(a) => MemOp::Read(a),
                            None => MemOp::None,
                        },
                    };
                    slow.step(pc, class, op);
                    pc += 4;
                }
                assert!(heap.next().is_none(), "one address per heap micro");
                fast.step_seq(plan, code_base, frame_base, &heap_addrs);
                assert_eq!(slow.breakdown(), fast.breakdown(), "rep {rep}");
            }
        }
        assert_eq!(slow.cycles(), fast.cycles());
        assert_eq!(slow.mix(), fast.mix());
        assert_eq!(slow.icache_stats(), fast.icache_stats());
        assert_eq!(slow.dcache_stats(), fast.dcache_stats());
        assert_eq!(slow.export_state(), fast.export_state());
        assert_eq!(
            slow.energy().nanojoules().to_bits(),
            fast.energy().nanojoules().to_bits()
        );
    }

    #[test]
    fn ledger_is_the_closed_form_of_the_counts() {
        // Instruction Core energy and DRAM energy are the Fig 1
        // constants times the counts, however the counts were reached;
        // only active idle adds an f64 charge to Core.
        let mut m = client();
        for i in 0..10_000u64 {
            m.step(
                i * 36,
                InstrClass::ALL[(i % 6) as usize],
                MemOp::Read(i * 52),
            );
        }
        m.charge_mix(&InstrMix::new().with(InstrClass::Store, 7).with_mem(3));
        m.active_idle(SimTime::from_micros(2.0));
        let table = EnergyTable::microsparc_iiep();
        let mix = m.mix();
        let idle = Power::from_milliwatts(350.0).over(SimTime::from_micros(2.0));
        let b = m.breakdown();
        assert_eq!(b[Component::Core], table.instr_energy(&mix) + idle);
        assert_eq!(
            b[Component::Dram],
            table.main_memory * mix.mem_accesses as f64
        );
        assert_eq!(m.export_state().ledger[Component::Core], idle);
        assert_eq!(m.export_state().ledger[Component::Dram], Energy::ZERO);
    }

    #[test]
    fn power_down_burns_only_leakage() {
        let mut m = client();
        m.power_down(SimTime::from_millis(10.0));
        // 10 % of 350 mW for 10 ms = 350 uJ.
        let leak = m.breakdown()[Component::Leakage];
        assert!((leak.microjoules() - 350.0).abs() < 1e-6);
        assert_eq!(m.breakdown()[Component::Core], Energy::ZERO);
        assert!((m.elapsed().millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn power_down_is_cheaper_than_active_idle() {
        let mut a = client();
        let mut b = client();
        let t = SimTime::from_millis(5.0);
        a.power_down(t);
        b.active_idle(t);
        assert!(a.energy() < b.energy());
        assert!((b.energy().ratio(a.energy()) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn elapsed_combines_cycles_and_waits() {
        let mut m = client();
        m.charge_mix(&InstrMix::new().with(InstrClass::Nop, 100));
        m.power_down(SimTime::from_micros(1.0));
        // 100 cycles at 100 MHz = 1 us, plus 1 us wait.
        assert!((m.elapsed().micros() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_delta() {
        let mut m = client();
        m.charge_mix(&InstrMix::new().with(InstrClass::Nop, 10));
        let cp = m.checkpoint();
        m.charge_mix(&InstrMix::new().with(InstrClass::Nop, 5));
        let (e, t) = m.since(&cp);
        assert!((e.nanojoules() - 5.0 * 2.644).abs() < 1e-9);
        assert!((t.nanos() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn server_is_faster() {
        let client_cfg = MachineConfig::mobile_client();
        let server_cfg = MachineConfig::sparc_server();
        assert!(server_cfg.clock_hz > 7.0 * client_cfg.clock_hz);
        assert!(server_cfg.cycle_time() < client_cfg.cycle_time());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = client();
        m.step(0, InstrClass::Load, MemOp::Read(0));
        m.power_down(SimTime::from_millis(1.0));
        m.reset();
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.energy(), Energy::ZERO);
        assert_eq!(m.elapsed(), SimTime::ZERO);
        assert_eq!(m.mix().total(), 0);
    }

    #[test]
    fn radio_charges_land_in_radio_components() {
        let mut m = client();
        m.charge_radio(Energy::from_microjoules(3.0), Energy::from_microjoules(1.0));
        assert!((m.breakdown().communication().microjoules() - 4.0).abs() < 1e-9);
        assert_eq!(m.breakdown().computation(), Energy::ZERO);
    }
}
