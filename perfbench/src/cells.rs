//! Cell outputs and their correctness checks.
//!
//! A cell is one scenario run. Its simulated outputs (energy, sim
//! time, client instructions, `RunStats`) are checked three ways:
//!
//! * invariants that hold for every seed (invocation count, energy
//!   ledger sums, mode counts of static strategies);
//! * exact repetition: every later execution of the cell in the same
//!   process (another timed pass, the traced pass) must encode to the
//!   same bytes as the first (`jem_core::encode_result`);
//! * a reference at the workload's default seed. A cell covered by a
//!   committed `bench/baselines/BENCH_*.json` takes the fields that
//!   file records from it; every other field comes from the
//!   benchmark's own `perfbench/refs/<workload>.json`. Floating-point
//!   outputs are compared under bench-history's rel-1e-9 gate, counts
//!   exactly.

use jem_core::observe::stats_from_json;
use jem_core::{encode_result, scenario_result_to_json, RunStats, ScenarioResult, Strategy};
use jem_energy::Component;
use jem_obs::Json;
use std::collections::{BTreeMap, HashMap};

/// Relative tolerance of bench-history's energy gate.
const REL_TOL: f64 = 1e-9;

/// One execution of a cell: its result or the reason it failed.
pub struct CellRun {
    /// Stable cell name, e.g. `fe/i/AA`.
    pub key: String,
    /// Host milliseconds the cell took (scenario run only).
    pub ms: f64,
    /// The scenario result, or the error / panic message.
    pub result: Result<ScenarioResult, String>,
    /// Workload-specific checks made while running the cell (trace
    /// reconciliation, snapshot round trip, resume equality).
    pub extra: Result<(), String>,
    /// Encoded checkpoint bytes taken during the cell (0 without
    /// checkpoints).
    pub snapshot_bytes: u64,
    /// Whether the scenario injects faults (static strategies then
    /// may legitimately degrade).
    pub faulty: bool,
}

/// Simulated outputs compared against a reference.
#[derive(Debug, Clone, PartialEq)]
struct SimOut {
    energy_nj: f64,
    time_ns: f64,
    invocations: u64,
    instructions: u64,
    breakdown_nj: [f64; 5],
    stats: RunStats,
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

impl SimOut {
    fn from_json(doc: &Json) -> Result<SimOut, String> {
        let num = |d: &Json, k: &str| {
            d.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("reference lacks '{k}'"))
        };
        let breakdown = doc
            .get("breakdown_nj")
            .ok_or("reference lacks breakdown_nj")?;
        let mut breakdown_nj = [0.0; 5];
        for c in Component::ALL {
            breakdown_nj[c.index()] = num(breakdown, c.name())?;
        }
        Ok(SimOut {
            energy_nj: num(doc, "total_energy_nj")?,
            time_ns: num(doc, "total_time_ns")?,
            invocations: num(doc, "invocations")? as u64,
            instructions: num(doc, "sim_instructions")? as u64,
            breakdown_nj,
            stats: stats_from_json(doc.get("stats").ok_or("reference lacks stats")?)?,
        })
    }

    fn of(r: &ScenarioResult) -> SimOut {
        SimOut::from_json(&scenario_result_to_json(r, false)).expect("own encoding parses")
    }

    /// First difference from `want`, if any.
    fn diff(&self, want: &SimOut) -> Option<String> {
        let f = [
            ("total_energy_nj", self.energy_nj, want.energy_nj),
            ("total_time_ns", self.time_ns, want.time_ns),
            (
                "stats.wasted_energy_nj",
                self.stats.wasted_energy.nanojoules(),
                want.stats.wasted_energy.nanojoules(),
            ),
            (
                "stats.degraded_time_ns",
                self.stats.degraded_time.nanos(),
                want.stats.degraded_time.nanos(),
            ),
        ];
        for (name, got, exp) in f {
            if !close(got, exp) {
                return Some(format!("{name} {got} != reference {exp}"));
            }
        }
        for c in Component::ALL {
            let (got, exp) = (self.breakdown_nj[c.index()], want.breakdown_nj[c.index()]);
            if !close(got, exp) {
                return Some(format!("breakdown {} {got} != reference {exp}", c.name()));
            }
        }
        if self.invocations != want.invocations || self.instructions != want.instructions {
            return Some(format!(
                "invocations/instructions {}/{} != reference {}/{}",
                self.invocations, self.instructions, want.invocations, want.instructions
            ));
        }
        let counts = |s: &RunStats| {
            let mut s = s.clone();
            s.wasted_energy = jem_energy::Energy::ZERO;
            s.degraded_time = jem_energy::SimTime::ZERO;
            s
        };
        if counts(&self.stats) != counts(&want.stats) {
            return Some(format!(
                "run stats {:?} != reference {:?}",
                self.stats, want.stats
            ));
        }
        None
    }
}

/// Invariants of a finished cell that hold for every seed.
fn invariants(r: &ScenarioResult, faulty: bool) -> Result<(), String> {
    let runs = r.invocations as u64;
    if r.reports.len() as u64 != runs || runs == 0 {
        return Err(format!(
            "{} reports for {runs} invocations",
            r.reports.len()
        ));
    }
    let e = r.total_energy.nanojoules();
    if !(e.is_finite() && e > 0.0) {
        return Err(format!("total energy {e} nJ is not positive"));
    }
    if !close(r.breakdown.total().nanojoules(), e) {
        return Err(format!(
            "breakdown total {} != total energy {e}",
            r.breakdown.total().nanojoules()
        ));
    }
    let per_invocation: f64 = r.reports.iter().map(|x| x.energy.nanojoules()).sum();
    if !close(per_invocation, e) {
        return Err(format!(
            "invocation energies sum to {per_invocation}, total {e}"
        ));
    }
    let s = &r.stats;
    let executed = s.remote + s.interpreted + s.local.iter().sum::<u64>();
    if executed != runs {
        return Err(format!("mode counts sum to {executed}, expected {runs}"));
    }
    if !faulty {
        let ok = match r.strategy {
            Strategy::Remote => s.remote == runs,
            Strategy::Interpreter => s.interpreted == runs,
            st => match st.static_level() {
                Some(l) => s.local[l.index()] == runs && s.local_compiles == 1,
                None => true,
            },
        };
        if !ok {
            return Err(format!("static strategy {} ran {s:?}", r.strategy.key()));
        }
    }
    Ok(())
}

/// Reference outputs of one workload at its default seed.
#[derive(Default)]
pub struct References {
    cells: HashMap<String, Json>,
}

impl References {
    /// Load the benchmark's own reference file (absent only before
    /// the first `--write-refs`).
    pub fn load_own(path: &str) -> Result<References, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut cells = HashMap::new();
        for (key, value) in doc
            .get("cells")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: missing 'cells'"))?
        {
            cells.insert(key.clone(), value.clone());
        }
        Ok(References { cells })
    }

    /// Override (or add) one cell's reference with baseline fields.
    /// `fields` replaces whole top-level members of the result
    /// object; missing members keep the benchmark's own value.
    pub fn overlay(&mut self, key: &str, fields: &Json) {
        let base = self.cells.remove(key).unwrap_or_else(Json::object);
        let mut merged = base.as_object().map(<[_]>::to_vec).unwrap_or_default();
        for (k, v) in fields.as_object().unwrap_or(&[]) {
            match merged.iter_mut().find(|(mk, _)| mk == k) {
                Some(slot) => slot.1 = v.clone(),
                None => merged.push((k.clone(), v.clone())),
            }
        }
        self.cells.insert(key.to_string(), Json::Obj(merged));
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.cells.get(key)
    }

    /// Whether `key` has a complete reference (every compared field).
    pub fn complete(&self, key: &str) -> bool {
        self.get(key)
            .is_some_and(|doc| SimOut::from_json(doc).is_ok())
    }
}

/// Every check of one run, with the attempted/failed tally.
pub struct Checker {
    /// Encoded result and snapshot bytes of each cell's first execution.
    first: HashMap<String, (Vec<u8>, u64)>,
    /// Cell executions checked.
    pub attempted: u64,
    /// Cell executions that failed a check.
    pub failed: u64,
    /// Cells compared against a reference.
    pub referenced: u64,
    failures: BTreeMap<String, String>,
}

impl Checker {
    /// A checker with nothing checked yet.
    pub fn new() -> Checker {
        Checker {
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
            referenced: 0,
            failures: BTreeMap::new(),
        }
    }

    /// Check one cell execution against the invariants, (with
    /// `repeat`) its earlier executions at the run's seed, and (with
    /// `refs`) the reference.
    pub fn check(&mut self, cell: &CellRun, refs: Option<&References>, repeat: bool) {
        self.attempted += 1;
        if let Err(why) = self.verdict(cell, refs, repeat) {
            self.failed += 1;
            self.failures.entry(cell.key.clone()).or_insert(why);
        }
    }

    fn verdict(
        &mut self,
        cell: &CellRun,
        refs: Option<&References>,
        repeat: bool,
    ) -> Result<(), String> {
        let r = cell.result.as_ref().map_err(Clone::clone)?;
        cell.extra.clone()?;
        invariants(r, cell.faulty)?;
        if repeat {
            let bytes = (encode_result(r), cell.snapshot_bytes);
            match self.first.get(&cell.key) {
                Some(first) if *first != bytes => {
                    return Err("outputs differ from the cell's first execution".into())
                }
                Some(_) => {}
                None => {
                    self.first.insert(cell.key.clone(), bytes);
                }
            }
        }
        if let Some(refs) = refs {
            let want = refs
                .get(&cell.key)
                .ok_or_else(|| format!("no reference for cell {}", cell.key))?;
            self.referenced += 1;
            if let Some(d) = SimOut::of(r).diff(&SimOut::from_json(want)?) {
                return Err(d);
            }
        }
        Ok(())
    }

    /// Human-readable failure lines (first failure per cell).
    pub fn failures(&self) -> impl Iterator<Item = (&String, &String)> {
        self.failures.iter()
    }
}

/// Write the benchmark's own references for `cells` (compact JSON,
/// one cell per line so re-baselines diff cleanly).
pub fn write_refs(path: &str, workload: &str, seed: u64, cells: &[&CellRun]) -> Result<(), String> {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"cells\": {{\n");
    for (i, cell) in cells.iter().enumerate() {
        let r = cell
            .result
            .as_ref()
            .map_err(|e| format!("cell {} failed: {e}", cell.key))?;
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "  {}: {}{sep}\n",
            Json::from(cell.key.as_str()).render(),
            scenario_result_to_json(r, false).render()
        ));
    }
    out.push_str("}}\n");
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}
