//! The scenario schema: parsing, validation and expansion into concrete
//! [`ExperimentConfig`]s.
//!
//! A scenario file is declarative: it names the committee/load/duration/
//! seed *axes* (scalar or list — lists expand to the cross product), the
//! system variants to compare, the fault schedule, and optional analyses.
//! [`ScenarioSpec::parse`] rejects unknown keys, wrong types and
//! contradictory key pairs, so a typo'd knob fails loudly instead of
//! silently running the default. Whether the faults, the chaos and the
//! workload a file describes can run is not decided here twice:
//! [`ScenarioSpec::plan`] lowers them per run and the lowered
//! [`FaultSchedule`] / [`ByzantineSchedule`] / [`ChaosSchedule`] /
//! [`Workload`] — the values the simulator executes — validate
//! themselves. The full schema is documented in `docs/scenarios.md`.

use hammerhead::{HammerheadConfig, ScheduleConfig, ScoringRule};
use hh_sim::{
    Arrival, ByzantineSchedule, ChaosEntry, ChaosSchedule, ChaosTarget, ExperimentConfig,
    FaultSchedule, Network, Phase, SubmissionMode, SystemKind, Workload,
};
use hh_types::toml::{self, TomlError, Value};
use hh_types::{Committee, Stake, ValidatorId, TX_HEADER_BYTES};
use std::collections::BTreeMap;
use std::fmt;

/// Anything that can go wrong turning scenario text into a run plan.
#[derive(Clone, Debug)]
pub enum ScenarioError {
    /// The TOML itself does not parse.
    Toml(TomlError),
    /// The TOML parses but does not match the schema.
    Schema(String),
    /// The spec matches the schema but describes an unrunnable experiment.
    Invalid(String),
    /// Reading the scenario file failed.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Toml(e) => write!(f, "{e}"),
            ScenarioError::Schema(m) => write!(f, "schema error: {m}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
            ScenarioError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TomlError> for ScenarioError {
    fn from(e: TomlError) -> Self {
        ScenarioError::Toml(e)
    }
}

/// Which system a variant benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemSpec {
    /// Static stake-weighted round-robin Bullshark (the baseline).
    Bullshark,
    /// HammerHead reputation scheduling.
    Hammerhead,
    /// One pinned leader (the §7 extreme; ablations only).
    StaticLeader,
}

impl SystemSpec {
    fn parse(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "bullshark" | "round-robin" => Ok(SystemSpec::Bullshark),
            "hammerhead" => Ok(SystemSpec::Hammerhead),
            "static-leader" => Ok(SystemSpec::StaticLeader),
            other => Err(ScenarioError::Schema(format!(
                "unknown system `{other}` (expected bullshark, hammerhead or static-leader)"
            ))),
        }
    }

    /// The label used in output rows.
    pub fn label(self) -> &'static str {
        match self {
            SystemSpec::Bullshark => "bullshark",
            SystemSpec::Hammerhead => "hammerhead",
            SystemSpec::StaticLeader => "static-leader",
        }
    }
}

/// The schedule-exclusion budget (set `B`'s stake bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExclusionSpec {
    /// The committee's `f` (the paper's benchmark setting).
    F,
    /// A percentage of total committee stake (Sui mainnet runs 20%).
    Pct(u64),
}

impl ExclusionSpec {
    fn to_config(self, committee: &Committee) -> Option<Stake> {
        match self {
            ExclusionSpec::F => None,
            ExclusionSpec::Pct(pct) => {
                // Exact in 128 bits; a budget beyond `u64` is beyond `f`
                // too, which `HammerheadConfig::validate` turns away.
                let stake = committee.total_stake().0 as u128 * pct as u128 / 100;
                Some(Stake(u64::try_from(stake).unwrap_or(u64::MAX)))
            }
        }
    }

    fn label(self) -> String {
        match self {
            ExclusionSpec::F => "f".to_string(),
            ExclusionSpec::Pct(p) => format!("{p}%"),
        }
    }
}

/// Parses a scoring-rule name (`vote-based`, `leader-outcome`,
/// `vote-ema-<alpha>`).
pub fn parse_scoring(s: &str) -> Result<ScoringRule, ScenarioError> {
    if s == "vote-based" {
        return Ok(ScoringRule::VoteBased);
    }
    if s == "leader-outcome" {
        return Ok(ScoringRule::LeaderOutcome);
    }
    if let Some(alpha) = s.strip_prefix("vote-ema-") {
        let alpha_percent: u8 = alpha
            .parse()
            .map_err(|_| ScenarioError::Schema(format!("bad vote-ema alpha in `{s}`")))?;
        return Ok(ScoringRule::VoteEma { alpha_percent });
    }
    Err(ScenarioError::Schema(format!(
        "unknown scoring rule `{s}` (expected vote-based, leader-outcome or vote-ema-<alpha>)"
    )))
}

/// Formats a scoring rule back to its scenario-file name.
pub fn scoring_name(rule: ScoringRule) -> String {
    match rule {
        ScoringRule::VoteBased => "vote-based".to_string(),
        ScoringRule::LeaderOutcome => "leader-outcome".to_string(),
        ScoringRule::VoteEma { alpha_percent } => format!("vote-ema-{alpha_percent}"),
    }
}

/// A validator count: absolute, or derived from the committee size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountExpr {
    /// Exactly this many validators.
    Abs(u64),
    /// `max(1, committee_size / k)` — "one in every k", as in the paper's
    /// "10% of validators" (`"n/10"`) or "maximum tolerable faults"
    /// (`"n/3"`).
    DivN(u64),
}

impl CountExpr {
    fn parse(value: &Value) -> Result<Self, ScenarioError> {
        match value {
            Value::Int(i) if *i >= 0 => Ok(CountExpr::Abs(*i as u64)),
            Value::Str(s) => {
                let k = s
                    .strip_prefix("n/")
                    .and_then(|k| k.parse::<u64>().ok())
                    .filter(|k| *k > 0)
                    .ok_or_else(|| {
                        ScenarioError::Schema(format!(
                            "bad count `{s}` (expected an integer or \"n/<k>\")"
                        ))
                    })?;
                Ok(CountExpr::DivN(k))
            }
            other => Err(ScenarioError::Schema(format!(
                "bad count `{other:?}` (expected an integer or \"n/<k>\")"
            ))),
        }
    }

    /// Resolves against a committee size.
    pub fn resolve(self, committee_size: usize) -> usize {
        match self {
            CountExpr::Abs(k) => k as usize,
            CountExpr::DivN(k) => (committee_size / k as usize).max(1),
        }
    }

    fn to_value(self) -> Value {
        match self {
            CountExpr::Abs(k) => Value::Int(k as i64),
            CountExpr::DivN(k) => Value::Str(format!("n/{k}")),
        }
    }
}

/// One named system configuration under test.
#[derive(Clone, Debug, PartialEq)]
pub struct VariantSpec {
    /// Output label for this variant's rows.
    pub label: String,
    /// System override (defaults to hammerhead).
    pub system: SystemSpec,
    /// Pinned leader for [`SystemSpec::StaticLeader`].
    pub static_leader: u16,
    /// Scoring-rule override.
    pub scoring: Option<ScoringRule>,
    /// Period override.
    pub period_rounds: Option<u64>,
    /// Exclusion-budget override.
    pub exclusion: Option<ExclusionSpec>,
}

/// When a fault event fires or a window opens/closes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WhenSpec {
    /// At an absolute simulated second.
    Secs(u64),
    /// At this fraction of the run duration (resolved per-run, so a
    /// "degrade halfway" scenario scales with `--duration`).
    Frac(f64),
}

/// The integer a scenario gives for `key`, in units of `per_unit` µs, as
/// microseconds — the one place file units become the simulator's.
fn to_micros(value: u64, per_unit: u64, key: &str) -> Result<u64, ScenarioError> {
    value.checked_mul(per_unit).ok_or_else(|| {
        ScenarioError::Invalid(format!("{key} = {value} overflows 64-bit microseconds"))
    })
}

impl WhenSpec {
    /// Resolves to microseconds of simulated time for a run of
    /// `duration_secs`.
    ///
    /// # Errors
    ///
    /// Fails on a second count beyond the simulator's 64-bit microseconds.
    pub fn resolve_us(self, duration_secs: u64) -> Result<u64, ScenarioError> {
        match self {
            WhenSpec::Secs(secs) => to_micros(secs, 1_000_000, "a *_secs instant"),
            WhenSpec::Frac(frac) => Ok((duration_secs as f64 * frac * 1e6) as u64),
        }
    }

    /// [`WhenSpec::resolve_us`] of a window end, where absent means "until
    /// the run ends".
    fn resolve_end_us(end: Option<WhenSpec>, duration_secs: u64) -> Result<u64, ScenarioError> {
        end.map_or(Ok(u64::MAX), |end| end.resolve_us(duration_secs))
    }
}

/// Which validators a fault hits.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeSel {
    /// Explicit validator ids.
    Ids(Vec<u16>),
    /// The first `count` validators (low ids hold early leader slots).
    First(CountExpr),
}

/// One slowdown window from the scenario's fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowdownEntry {
    /// Affected validators.
    pub nodes: NodeSel,
    /// Window start.
    pub at: WhenSpec,
    /// Window end; `None` degrades until the end of the run.
    pub until: Option<WhenSpec>,
    /// Extra one-way delay while degraded, in milliseconds.
    pub extra_ms: u64,
}

/// One timed crash or recovery event (`[[faults.crash]]` /
/// `[[faults.recover]]`).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedFaultEntry {
    /// Affected validators.
    pub nodes: NodeSel,
    /// When the event fires.
    pub at: WhenSpec,
}

/// Which validators a partition cuts off from the rest.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionSel {
    /// Explicit groups on each side of the cut.
    Groups {
        /// One side.
        a: Vec<u16>,
        /// The other side.
        b: Vec<u16>,
    },
    /// The first `count` validators against everyone else (scales with
    /// the committee axis).
    IsolateFirst(CountExpr),
}

/// One partition window (`[[faults.partition]]`).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionEntry {
    /// The cut.
    pub sel: PartitionSel,
    /// Window start.
    pub from: WhenSpec,
    /// Heal time.
    pub until: WhenSpec,
}

/// The strategy of one `[[faults.byzantine]]` entry — the declarative
/// form of [`hh_sim::ByzantineStrategy`], with times in scenario units
/// (ms delays, whole-second flip periods).
#[derive(Clone, Debug, PartialEq)]
pub enum ByzantineStrategySpec {
    /// Broadcast a conflicting twin before every own vertex.
    Equivocate,
    /// Drop inbound vertex pushes from `targets`, forcing own proposals
    /// to wait for the slowest quorum.
    WithholdVotes {
        /// Victim validators whose pushes are ignored (≤ f of them).
        targets: Vec<u16>,
    },
    /// Hold every own broadcast back by a fixed delay.
    LazyLeader {
        /// Delay in milliseconds.
        delay_ms: u64,
    },
    /// Alternate honest and lazy half-periods.
    FlipFlop {
        /// Half-period length in seconds.
        flip_secs: u64,
        /// Delay in milliseconds during lazy half-periods.
        delay_ms: u64,
    },
}

/// One byzantine window (`[[faults.byzantine]]`).
#[derive(Clone, Debug, PartialEq)]
pub struct ByzantineEntrySpec {
    /// The attacker.
    pub node: u16,
    /// What it does.
    pub strategy: ByzantineStrategySpec,
    /// Window start.
    pub from: WhenSpec,
    /// Window end (`None` = until the run ends).
    pub until: Option<WhenSpec>,
}

/// One chaos window (`[[faults.chaos]]`) — the declarative form of
/// [`hh_sim::ChaosEntry`], with the reorder bound in milliseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosEntrySpec {
    /// The links afflicted: all of them unless the entry names one
    /// validator (`node`) or one directed link (`from` + `to`).
    pub target: ChaosTarget,
    /// Window start.
    pub from: WhenSpec,
    /// Window end (`None` = until the run ends).
    pub until: Option<WhenSpec>,
    /// Probability a frame is dropped outright.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's encoded bytes are flipped in flight.
    pub corrupt: f64,
    /// Maximum extra per-frame delay in milliseconds, drawn uniformly.
    pub reorder_ms: u64,
}

/// The scenario's fault schedule — the declarative form of
/// [`hh_sim::FaultSchedule`], resolved per planned run (committee size
/// and duration fix the `n/k` counts and `*_frac` times).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultsSpec {
    /// Explicitly crashed validator ids (from t=0).
    pub crashed: Vec<u16>,
    /// Crash the last `count` validators from t=0 (Fig. 2's setting).
    pub crash_last: Option<CountExpr>,
    /// Slowdown windows (the §1 incident's shape).
    pub slowdowns: Vec<SlowdownEntry>,
    /// Mid-run crash events.
    pub crashes: Vec<TimedFaultEntry>,
    /// Recovery events (each must follow a crash of the same validator;
    /// recovered nodes replay their WAL through `Validator::on_restart`).
    pub recovers: Vec<TimedFaultEntry>,
    /// Partition windows.
    pub partitions: Vec<PartitionEntry>,
    /// Byzantine strategy windows (the adversary suite).
    pub byzantine: Vec<ByzantineEntrySpec>,
    /// Adverse-network chaos windows (frame drop / duplicate / corrupt /
    /// reorder on selected links).
    pub chaos: Vec<ChaosEntrySpec>,
}

/// The arrival process of a `[workload]` table or `[[workload.phase]]`
/// entry — the declarative form of [`hh_sim::Arrival`], with rates as
/// scales on the run's `[load] tps` axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalSpec {
    /// Fixed-rate with ±10% jitter (the `[load] tps` sugar).
    Constant,
    /// Exponential inter-arrivals at the same mean rate.
    Poisson,
    /// `burst_secs` on at the scaled rate, `idle_secs` off, repeating.
    OnOff {
        /// Burst length, seconds.
        burst_secs: f64,
        /// Idle gap, seconds.
        idle_secs: f64,
    },
    /// Rate interpolated linearly across the phase (or whole run).
    Ramp {
        /// Scale at the phase start (default 0).
        from_scale: f64,
        /// Scale at the phase end.
        to_scale: f64,
    },
}

/// The rate of one workload phase, relative or absolute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateSpec {
    /// A multiplier on the run's `[load] tps` value (sweeps with the
    /// load axis).
    Scale(f64),
    /// An absolute rate in tx/s (divided by the run's load to recover
    /// the scale; requires a non-zero load).
    Tps(u64),
}

/// One `[[workload.phase]]` entry.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadPhaseSpec {
    /// Phase start (`from_secs` / `from_frac`); the first phase must
    /// start at 0.
    pub from: WhenSpec,
    /// The phase's rate (ignored by [`ArrivalSpec::Ramp`], which
    /// carries its own scales).
    pub rate: RateSpec,
    /// The arrival process in force.
    pub arrival: ArrivalSpec,
}

/// The `[workload]` table — the declarative form of
/// [`hh_sim::Workload`], resolved per planned run (duration fixes
/// `from_frac` instants, the load axis fixes absolute `tps` rates).
///
/// A scenario without this table runs the table's defaults: a constant
/// closed-loop workload at the `[load] tps` rate, the paper's client.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Open- vs closed-loop submission.
    pub mode: SubmissionMode,
    /// Modeled payload bytes per transaction.
    pub payload_bytes: u32,
    /// Heaviest/lightest per-client rate ratio (1 = uniform).
    pub spread: f64,
    /// Proposer block byte bound, when set.
    pub block_bytes: Option<u64>,
    /// Single-phase arrival process (used when `phases` is empty).
    pub arrival: ArrivalSpec,
    /// Multi-phase timeline; non-empty replaces `arrival`.
    pub phases: Vec<WorkloadPhaseSpec>,
}

impl WorkloadSpec {
    fn lower_arrival(arrival: &ArrivalSpec, scale: f64) -> Arrival {
        match *arrival {
            ArrivalSpec::Constant => Arrival::Constant { scale },
            ArrivalSpec::Poisson => Arrival::Poisson { scale },
            ArrivalSpec::OnOff { burst_secs, idle_secs } => {
                Arrival::OnOff { scale, burst_secs, idle_secs }
            }
            ArrivalSpec::Ramp { from_scale, to_scale } => Arrival::Ramp { from_scale, to_scale },
        }
    }

    /// Resolves the declarative workload against a run of `duration`
    /// seconds at `load_tps` offered load into the concrete
    /// [`hh_sim::Workload`], and validates the result. The default
    /// workload lowers to exactly [`Workload::constant`] — the `[load]
    /// tps` sugar.
    pub fn build(&self, duration: u64, load_tps: u64) -> Result<Workload, ScenarioError> {
        let duration_us = duration.saturating_mul(1_000_000);
        let phases = if self.phases.is_empty() {
            vec![Phase { from_us: 0, arrival: Self::lower_arrival(&self.arrival, 1.0) }]
        } else {
            let mut phases = Vec::with_capacity(self.phases.len());
            for spec in &self.phases {
                let scale = match spec.rate {
                    RateSpec::Scale(s) => s,
                    RateSpec::Tps(tps) => {
                        if load_tps == 0 {
                            return Err(ScenarioError::Invalid(
                                "a workload phase gives an absolute tps but the load axis \
                                 is 0 — use `scale`, or set [load] tps"
                                    .into(),
                            ));
                        }
                        tps as f64 / load_tps as f64
                    }
                };
                phases.push(Phase {
                    from_us: spec.from.resolve_us(duration)?,
                    arrival: Self::lower_arrival(&spec.arrival, scale),
                });
            }
            // `Workload::validate` below knows the timeline's shape but
            // not where the run ends.
            if let Some(late) = phases.iter().find(|p| p.from_us >= duration_us) {
                return Err(ScenarioError::Invalid(format!(
                    "workload phase at {} µs starts at or after the {duration}s run ends",
                    late.from_us
                )));
            }
            phases
        };
        let workload = Workload {
            phases,
            mode: self.mode,
            payload_bytes: self.payload_bytes,
            spread: self.spread,
        };
        workload.validate().map_err(|e| ScenarioError::Invalid(format!("workload: {e}")))?;
        Ok(workload)
    }
}

/// A named latency-measurement window over submission times.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSpec {
    /// Window name in the report.
    pub name: String,
    /// Start, as a fraction of the run duration (inclusive).
    pub from_frac: f64,
    /// End, as a fraction of the run duration (exclusive).
    pub to_frac: f64,
}

/// What a scenario asks to be measured beyond what every run reports.
/// (Which fault-derived blocks a report row carries follows from the
/// run's schedules, not from here.)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisSpec {
    /// Latency percentiles per named submission-time window.
    pub windows: Vec<WindowSpec>,
}

/// Scaled-down axis overrides applied by `--quick`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuickSpec {
    /// Committee-size axis override.
    pub sizes: Option<Vec<usize>>,
    /// Load axis override.
    pub tps: Option<Vec<u64>>,
    /// Duration axis override.
    pub duration_secs: Option<Vec<u64>>,
    /// Seed axis override.
    pub seeds: Option<Vec<u64>>,
    /// Period axis override.
    pub period_rounds: Option<Vec<u64>>,
}

/// A fully parsed scenario file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in output and by `hh-cli list`).
    pub name: String,
    /// Human description.
    pub description: String,
    /// The paper figure/section this scenario reproduces, if any.
    pub figure: Option<String>,
    /// Committee-size axis.
    pub committee_sizes: Vec<usize>,
    /// Offered-load axis (tx/s).
    pub load_tps: Vec<u64>,
    /// Run-length axis (simulated seconds).
    pub duration_secs: Vec<u64>,
    /// Warmup excluded from latency stats; default `max(1, duration/6)`.
    pub warmup_secs: Option<u64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Global Stabilization Time (0 = synchronous, the benchmark setting).
    pub gst_secs: u64,
    /// Client in-flight window in seconds of offered rate.
    pub client_window_secs: f64,
    /// Link-latency model.
    pub network: Network,
    /// Systems axis, used when `variants` is empty.
    pub systems: Vec<SystemSpec>,
    /// HammerHead period axis.
    pub period_rounds: Vec<u64>,
    /// HammerHead exclusion-budget axis.
    pub exclusion: Vec<ExclusionSpec>,
    /// HammerHead scoring-rule axis.
    pub scoring: Vec<ScoringRule>,
    /// The workload shape (`[workload]`; defaults to the `[load] tps`
    /// constant-rate sugar).
    pub workload: WorkloadSpec,
    /// Explicit variants; when non-empty they replace the systems ×
    /// hammerhead-knob axes.
    pub variants: Vec<VariantSpec>,
    /// Fault schedule applied to every run.
    pub faults: FaultsSpec,
    /// Latency windows.
    pub analysis: AnalysisSpec,
    /// `--quick` overrides.
    pub quick: QuickSpec,
}

// ---------------------------------------------------------------------------
// The schema machinery: field tables, one generic reader, one generic writer
// ---------------------------------------------------------------------------
//
// Every key of a scenario file is declared once, as a `Field` static
// listed in the `Section` of the TOML table it lives in. `Section::read`
// turns a raw TOML table into a `Row` (unknown keys rejected, values
// type-checked and normalised, required keys insisted on) and
// `Row::to_table` turns a `Row` back into TOML (defaults omitted), so the
// typed structs above are filled from rows and written to rows without a
// key or a default being spelled a second time. `docs/scenarios.md` is
// checked against the same tables by a unit test.

fn schema(message: String) -> ScenarioError {
    ScenarioError::Schema(message)
}

/// How a key's TOML value is typed, and which [`Cell`] it normalises to.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Str,
    U64,
    F64,
    /// One validator id.
    Id,
    /// A scalar or a non-empty list of non-negative integers.
    U64Axis,
    /// A string or a list of strings.
    StrAxis,
    /// A list of validator ids.
    Ids,
    /// A [`CountExpr`]: an integer or `"n/<k>"`.
    Count,
    /// A [`WhenSpec`]; the field's key is a prefix, and the file spells
    /// either `<key>_secs` or `<key>_frac`.
    When,
    /// A sub-table; absent reads as the empty table, so its own defaults
    /// apply.
    Table(&'static Section),
    /// An array of tables; absent reads as no entries.
    Tables(&'static Section),
}

/// What an absent key yields.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Def {
    /// Nothing: the typed field is an `Option`, or a cross-key rule decides.
    None,
    /// A schema error.
    Required,
    U64(u64),
    F64(f64),
    Str(&'static str),
}

/// One key of one TOML table.
#[derive(Debug)]
struct Field {
    key: &'static str,
    kind: Kind,
    default: Def,
    /// Written by the canonical form even when it holds its default: the
    /// axes and the discriminators (`model`, `mode`, `system`) stay
    /// visible in `hh-cli validate --dump`.
    shown: bool,
}

/// One TOML table: its name as error messages print it, and its keys.
#[derive(Debug)]
struct Section {
    name: &'static str,
    fields: &'static [&'static Field],
}

/// Declares the `Field` statics of one TOML table (`NAME = key, kind,
/// default;`, a trailing `shown` for [`Field::shown`]) and the `Section`
/// listing them after the fields it shares with tables declared elsewhere.
macro_rules! section {
    ($table:ident = $name:literal, shares [$($shared:ident),*], {
        $($field:ident = $key:literal, $kind:expr, $default:expr $(, $shown:ident)?;)*
    }) => {
        $(static $field: Field = Field::new($key, $kind, $default)$(.$shown())?;)*
        static $table: Section = Section { name: $name, fields: &[$(&$shared,)* $(&$field),*] };
    };
}

macro_rules! cells {
    ($($variant:ident($ty:ty)),* $(,)?) => {
        /// A normalised value.
        #[derive(Clone, Debug, PartialEq)]
        enum Cell {
            $($variant($ty)),*
        }
        $(
            impl From<$ty> for Cell {
                fn from(value: $ty) -> Cell {
                    Cell::$variant(value)
                }
            }
            impl TryFrom<Cell> for $ty {
                type Error = Cell;
                fn try_from(cell: Cell) -> Result<Self, Cell> {
                    match cell {
                        Cell::$variant(value) => Ok(value),
                        other => Err(other),
                    }
                }
            }
        )*
    };
}

cells! {
    Str(String),
    U64(u64),
    F64(f64),
    Id(u16),
    U64s(Vec<u64>),
    Strs(Vec<String>),
    Ids(Vec<u16>),
    Count(CountExpr),
    When(WhenSpec),
    Table(Row),
    Tables(Vec<Row>),
}

/// The normalised content of one TOML table: the cell of every key the
/// file (or the emitter) gave, in the section's field order.
#[derive(Clone, Debug)]
struct Row {
    section: &'static Section,
    cells: Vec<Option<Cell>>,
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        std::ptr::eq(self.section, other.section) && self.cells == other.cells
    }
}

fn as_u64(value: &Value, at: &str) -> Result<u64, ScenarioError> {
    match value {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(schema(format!("{at} must be a non-negative integer, got {other:?}"))),
    }
}

fn as_f64(value: &Value, at: &str) -> Result<f64, ScenarioError> {
    match value {
        Value::Float(x) => Ok(*x),
        Value::Int(i) => Ok(*i as f64),
        other => Err(schema(format!("{at} must be a number, got {other:?}"))),
    }
}

fn as_id(value: &Value, at: &str) -> Result<u16, ScenarioError> {
    match value {
        Value::Int(i) => u16::try_from(*i).ok(),
        _ => None,
    }
    .ok_or_else(|| schema(format!("bad validator id {value:?} in {at}")))
}

impl Kind {
    /// Type-checks one present value; `at` names the key in errors.
    fn normalise(self, value: &Value, at: &str) -> Result<Cell, ScenarioError> {
        let bad = |what: &str| schema(format!("{at} must be {what}, got {value:?}"));
        Ok(match (self, value) {
            (Kind::Str, Value::Str(s)) => s.clone().into(),
            (Kind::Str, _) => return Err(bad("a string")),
            (Kind::U64, v) => as_u64(v, at)?.into(),
            (Kind::F64, v) => as_f64(v, at)?.into(),
            (Kind::Id, v) => as_id(v, at)?.into(),
            (Kind::U64Axis, Value::Array(items)) if items.is_empty() => {
                return Err(schema(format!("{at} must not be empty")))
            }
            (Kind::U64Axis, Value::Array(items)) => items
                .iter()
                .map(|v| as_u64(v, &format!("every entry of {at}")))
                .collect::<Result<Vec<_>, _>>()?
                .into(),
            (Kind::U64Axis, v) => vec![as_u64(v, at)?].into(),
            (Kind::StrAxis, Value::Str(s)) => vec![s.clone()].into(),
            (Kind::StrAxis, Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s.clone()),
                    other => Err(schema(format!("{at} entries must be strings, got {other:?}"))),
                })
                .collect::<Result<Vec<_>, _>>()?
                .into(),
            (Kind::StrAxis, _) => return Err(bad("a string or list of strings")),
            (Kind::Ids, Value::Array(ids)) => {
                ids.iter().map(|v| as_id(v, at)).collect::<Result<Vec<_>, _>>()?.into()
            }
            (Kind::Ids, _) => return Err(bad("a list of validator ids")),
            (Kind::Count, v) => CountExpr::parse(v)?.into(),
            (Kind::When, _) => unreachable!("`Field::read` reads a `When` through its key pair"),
            (Kind::Table(section), Value::Table(t)) => section.read(t)?.into(),
            (Kind::Table(_), _) => return Err(bad("a table")),
            (Kind::Tables(section), Value::Array(items)) => items
                .iter()
                .map(|item| match item {
                    Value::Table(t) => section.read(t),
                    _ => Err(schema(format!("{} entries must be tables", section.name))),
                })
                .collect::<Result<Vec<_>, _>>()?
                .into(),
            (Kind::Tables(_), _) => return Err(bad("an array of tables")),
        })
    }
}

impl Field {
    const fn new(key: &'static str, kind: Kind, default: Def) -> Field {
        Field { key, kind, default, shown: false }
    }

    const fn shown(self) -> Field {
        Field { shown: true, ..self }
    }

    /// The TOML keys this field occupies.
    fn keys(&self) -> Vec<String> {
        match self.kind {
            Kind::When => vec![format!("{}_secs", self.key), format!("{}_frac", self.key)],
            _ => vec![self.key.to_string()],
        }
    }

    /// The declared default as the cell an absent key reads as.
    fn default_cell(&self) -> Option<Cell> {
        Some(match (self.kind, self.default) {
            (Kind::Table(section), Def::None) => Row::new(section).into(),
            (Kind::Tables(_), Def::None) => Vec::<Row>::new().into(),
            (_, Def::None | Def::Required) => return None,
            (Kind::Str, Def::Str(s)) => s.to_string().into(),
            (Kind::StrAxis, Def::Str(s)) => vec![s.to_string()].into(),
            (Kind::U64, Def::U64(x)) => x.into(),
            (Kind::U64Axis, Def::U64(x)) => vec![x].into(),
            (Kind::Id, Def::U64(x)) => u16::try_from(x).expect("a default id fits u16").into(),
            (Kind::When, Def::U64(secs)) => WhenSpec::Secs(secs).into(),
            (Kind::F64, Def::F64(x)) => x.into(),
            (kind, default) => panic!("`{}`: {default:?} is no default for {kind:?}", self.key),
        })
    }

    /// Reads this field's cell out of a raw table of `section`; `None`
    /// when the file does not give the key.
    fn read(
        &self,
        section: &Section,
        table: &BTreeMap<String, Value>,
    ) -> Result<Option<Cell>, ScenarioError> {
        let at = |key: &str| format!("`{key}` in {}", section.name);
        let keys = self.keys();
        let cell = match (self.kind, keys.as_slice()) {
            (Kind::When, [secs, frac]) => match (table.get(secs), table.get(frac)) {
                (Some(_), Some(_)) => {
                    return Err(schema(format!("{} sets both {secs} and {frac}", section.name)))
                }
                (Some(v), None) => Some(WhenSpec::Secs(as_u64(v, &at(secs))?).into()),
                (None, Some(v)) => match as_f64(v, &at(frac))? {
                    x if (0.0..=1.0).contains(&x) => Some(WhenSpec::Frac(x).into()),
                    x => {
                        return Err(schema(format!("{} must be within [0, 1], got {x}", at(frac))))
                    }
                },
                (None, None) => None,
            },
            (kind, _) => {
                table.get(self.key).map(|v| kind.normalise(v, &at(self.key))).transpose()?
            }
        };
        if cell.is_none() && self.default == Def::Required {
            return Err(schema(format!("{} requires `{}`", section.name, keys.join("` or `"))));
        }
        Ok(cell)
    }
}

impl Section {
    /// The generic reader: rejects unknown keys, type-checks and
    /// normalises every key present, insists on the required ones.
    fn read(&'static self, table: &BTreeMap<String, Value>) -> Result<Row, ScenarioError> {
        let allowed: Vec<String> = self.fields.iter().flat_map(|f| f.keys()).collect();
        if let Some(key) = table.keys().find(|key| !allowed.contains(key)) {
            return Err(schema(format!(
                "unknown key `{key}` in {} (allowed: {})",
                self.name,
                allowed.join(", ")
            )));
        }
        let cells = self.fields.iter().map(|f| f.read(self, table)).collect::<Result<_, _>>()?;
        Ok(Row { section: self, cells })
    }
}

impl Row {
    fn new(section: &'static Section) -> Row {
        Row { section, cells: vec![None; section.fields.len()] }
    }

    fn index(&self, field: &Field) -> usize {
        self.section
            .fields
            .iter()
            .position(|f| std::ptr::eq(*f, field))
            .unwrap_or_else(|| panic!("{} has no field `{}`", self.section.name, field.key))
    }

    /// Whether the key was given (a default does not count).
    fn has(&self, field: &Field) -> bool {
        self.cells[self.index(field)].is_some()
    }

    /// The field's value: what was given, else the declared default.
    fn opt<T: TryFrom<Cell>>(&self, field: &Field) -> Option<T> {
        let cell = self.cells[self.index(field)].clone().or_else(|| field.default_cell())?;
        Some(T::try_from(cell).unwrap_or_else(|_| panic!("`{}` read as the wrong type", field.key)))
    }

    /// [`Row::opt`] for a field that is required or has a default.
    fn get<T: TryFrom<Cell>>(&self, field: &Field) -> T {
        self.opt(field).unwrap_or_else(|| panic!("`{}` is optional; read it with opt", field.key))
    }

    fn with(mut self, field: &Field, value: impl Into<Cell>) -> Row {
        let index = self.index(field);
        self.cells[index] = Some(value.into());
        self
    }

    fn with_opt(self, field: &Field, value: Option<impl Into<Cell>>) -> Row {
        match value {
            Some(value) => self.with(field, value),
            None => self,
        }
    }

    /// The generic writer: every given cell as TOML, except a cell that
    /// holds its field's default (unless the field is `shown`), an empty
    /// sub-table and an empty array of tables.
    fn to_table(&self) -> BTreeMap<String, Value> {
        let int = |x: u64| Value::Int(x as i64);
        let mut out = BTreeMap::new();
        for (field, cell) in self.section.fields.iter().zip(&self.cells) {
            let Some(cell) = cell else { continue };
            if !field.shown && field.default_cell().as_ref() == Some(cell) {
                continue;
            }
            let value = match cell {
                Cell::Str(s) => Value::Str(s.clone()),
                Cell::U64(x) => int(*x),
                Cell::F64(x) => Value::Float(*x),
                Cell::Id(id) => int(*id as u64),
                Cell::U64s(xs) if xs.len() == 1 => int(xs[0]),
                Cell::U64s(xs) => Value::Array(xs.iter().map(|x| int(*x)).collect()),
                Cell::Strs(xs) => Value::Array(xs.iter().cloned().map(Value::Str).collect()),
                Cell::Ids(ids) => Value::Array(ids.iter().map(|id| int(*id as u64)).collect()),
                Cell::Count(count) => count.to_value(),
                Cell::When(WhenSpec::Secs(secs)) => {
                    out.insert(format!("{}_secs", field.key), int(*secs));
                    continue;
                }
                Cell::When(WhenSpec::Frac(frac)) => {
                    out.insert(format!("{}_frac", field.key), Value::Float(*frac));
                    continue;
                }
                Cell::Table(row) => match row.to_table() {
                    table if table.is_empty() => continue,
                    table => Value::Table(table),
                },
                Cell::Tables(rows) if rows.is_empty() => continue,
                Cell::Tables(rows) => {
                    Value::Array(rows.iter().map(|row| Value::Table(row.to_table())).collect())
                }
            };
            out.insert(field.key.to_string(), value);
        }
        out
    }
}

/// Cross-key rule shared by every scalar/plural and pct/stake pair: a
/// table may give at most one of two keys that set the same thing.
fn at_most_one(row: &Row, a: &Field, b: &Field) -> Result<(), ScenarioError> {
    if row.has(a) && row.has(b) {
        return Err(schema(format!(
            "{} sets both `{}` and `{}`; set only one of them",
            row.section.name, a.key, b.key
        )));
    }
    Ok(())
}

/// Cross-key rule shared by the arrival processes and the byzantine
/// strategies: of the `params` keys, only those the chosen variant
/// `takes` may be given.
fn only_params(
    row: &Row,
    params: &[&Field],
    takes: &[&Field],
    variant: &str,
) -> Result<(), ScenarioError> {
    match params.iter().find(|p| row.has(p) && !takes.iter().any(|t| std::ptr::eq(*t, **p))) {
        Some(stray) => Err(schema(format!(
            "`{}` in {} does not apply to {variant}",
            stray.key, row.section.name
        ))),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// The schema itself: one field table per TOML table, each followed by the
// code that fills its typed struct from a row and writes it back to one
// ---------------------------------------------------------------------------

section!(ROOT = "the scenario root", shares [], {
    NAME = "name", Kind::Str, Def::Required;
    DESCRIPTION = "description", Kind::Str, Def::Str("");
    FIGURE = "figure", Kind::Str, Def::None;
    COMMITTEE = "committee", Kind::Table(&COMMITTEE_TABLE), Def::None;
    LOAD = "load", Kind::Table(&LOAD_TABLE), Def::None;
    RUN = "run", Kind::Table(&RUN_TABLE), Def::None;
    NETWORK = "network", Kind::Table(&NETWORK_TABLE), Def::None;
    SYSTEMS = "systems", Kind::Table(&SYSTEMS_TABLE), Def::None;
    HAMMERHEAD = "hammerhead", Kind::Table(&HAMMERHEAD_TABLE), Def::None;
    WORKLOAD = "workload", Kind::Table(&WORKLOAD_TABLE), Def::None;
    VARIANT = "variant", Kind::Tables(&VARIANT_TABLE), Def::None;
    FAULTS = "faults", Kind::Table(&FAULTS_TABLE), Def::None;
    ANALYSIS = "analysis", Kind::Table(&ANALYSIS_TABLE), Def::None;
    QUICK = "quick", Kind::Table(&QUICK_TABLE), Def::None;
});

// `size` and `sizes` (like `seed` and `seeds`) name one axis; the
// canonical form writes the plural.
section!(COMMITTEE_TABLE = "[committee]", shares [], {
    SIZE = "size", Kind::U64Axis, Def::None;
    SIZES = "sizes", Kind::U64Axis, Def::U64(10), shown;
});

section!(LOAD_TABLE = "[load]", shares [], {
    TPS = "tps", Kind::U64Axis, Def::U64(500), shown;
});

section!(RUN_TABLE = "[run]", shares [], {
    DURATION_SECS = "duration_secs", Kind::U64Axis, Def::U64(60), shown;
    WARMUP_SECS = "warmup_secs", Kind::U64, Def::None;
    SEED = "seed", Kind::U64Axis, Def::None;
    SEEDS = "seeds", Kind::U64Axis, Def::U64(42), shown;
    GST_SECS = "gst_secs", Kind::U64, Def::U64(0);
    CLIENT_WINDOW_SECS = "client_window_secs", Kind::F64, Def::F64(2.0);
});

section!(NETWORK_TABLE = "[network]", shares [], {
    MODEL = "model", Kind::Str, Def::Str("geo"), shown;
    FLAT_MS = "flat_ms", Kind::U64, Def::U64(5), shown;
});

fn read_network(network: &Row) -> Result<Network, ScenarioError> {
    match network.get::<String>(&MODEL).as_str() {
        "geo" if network.has(&FLAT_MS) => {
            Err(schema("`network.flat_ms` only applies to model = \"flat\"".into()))
        }
        "geo" => Ok(Network::Geo),
        "flat" => Ok(Network::Flat { ms: network.get(&FLAT_MS) }),
        other => Err(schema(format!("unknown network model `{other}` (expected geo or flat)"))),
    }
}

fn write_network(network: Network) -> Row {
    let row = Row::new(&NETWORK_TABLE);
    match network {
        Network::Geo => row.with(&MODEL, "geo".to_string()),
        Network::Flat { ms } => row.with(&MODEL, "flat".to_string()).with(&FLAT_MS, ms),
    }
}

section!(SYSTEMS_TABLE = "[systems]", shares [], {
    SYSTEMS_RUN = "run", Kind::StrAxis, Def::Str("hammerhead"), shown;
});

// Without an exclusion-budget axis the budget is the committee's `f`.
section!(HAMMERHEAD_TABLE = "[hammerhead]", shares [], {
    PERIOD_ROUNDS = "period_rounds", Kind::U64Axis, Def::U64(20), shown;
    MAX_EXCLUDED_PCT = "max_excluded_pct", Kind::U64Axis, Def::None;
    SCORING = "scoring", Kind::StrAxis, Def::Str("vote-based");
});

fn read_exclusion_axis(hammerhead: &Row) -> Vec<ExclusionSpec> {
    match hammerhead.opt::<Vec<u64>>(&MAX_EXCLUDED_PCT) {
        Some(pcts) => pcts.into_iter().map(ExclusionSpec::Pct).collect(),
        None => vec![ExclusionSpec::F],
    }
}

/// # Panics
///
/// Panics on an axis that mixes `f` with percentages, which no file can
/// express.
fn write_exclusion_axis(hammerhead: Row, axis: &[ExclusionSpec]) -> Row {
    let mut pcts = Vec::new();
    for budget in axis {
        match budget {
            ExclusionSpec::F => assert_eq!(axis.len(), 1, "mixed exclusion axis {axis:?}"),
            ExclusionSpec::Pct(pct) => pcts.push(*pct),
        }
    }
    hammerhead.with_opt(&MAX_EXCLUDED_PCT, Some(pcts).filter(|xs| !xs.is_empty()))
}

// An arrival process is a name plus the parameters that name takes; the
// keys are shared by `[workload]` (single-phase form) and
// `[[workload.phase]]`.
section!(WORKLOAD_TABLE = "[workload]", shares [], {
    ARRIVAL = "arrival", Kind::Str, Def::Str("constant");
    MODE = "mode", Kind::Str, Def::Str("closed"), shown;
    PAYLOAD_BYTES = "payload_bytes", Kind::U64, Def::U64(0);
    SPREAD = "spread", Kind::F64, Def::F64(1.0);
    BLOCK_BYTES = "block_bytes", Kind::U64, Def::None;
    BURST_SECS = "burst_secs", Kind::F64, Def::None;
    IDLE_SECS = "idle_secs", Kind::F64, Def::None;
    RAMP_FROM_SCALE = "ramp_from_scale", Kind::F64, Def::F64(0.0);
    RAMP_TO_SCALE = "ramp_to_scale", Kind::F64, Def::None;
    PHASE = "phase", Kind::Tables(&PHASE_TABLE), Def::None;
});
static ARRIVAL_PARAMS: [&Field; 4] = [&BURST_SECS, &IDLE_SECS, &RAMP_FROM_SCALE, &RAMP_TO_SCALE];

fn read_arrival(row: &Row) -> Result<ArrivalSpec, ScenarioError> {
    let name: String = row.get(&ARRIVAL);
    let variant = format!("arrival = \"{name}\"");
    let param = |field: &Field| {
        row.opt::<f64>(field)
            .ok_or_else(|| schema(format!("{} {variant} requires {}", row.section.name, field.key)))
    };
    let (takes, arrival): (&[&Field], _) = match name.as_str() {
        "constant" => (&[], ArrivalSpec::Constant),
        "poisson" => (&[], ArrivalSpec::Poisson),
        "onoff" => (
            &[&BURST_SECS, &IDLE_SECS],
            ArrivalSpec::OnOff { burst_secs: param(&BURST_SECS)?, idle_secs: param(&IDLE_SECS)? },
        ),
        "ramp" => (
            &[&RAMP_FROM_SCALE, &RAMP_TO_SCALE],
            ArrivalSpec::Ramp {
                from_scale: row.get(&RAMP_FROM_SCALE),
                to_scale: param(&RAMP_TO_SCALE)?,
            },
        ),
        other => {
            return Err(schema(format!(
                "unknown arrival process `{other}` (expected constant, poisson, onoff or ramp)"
            )))
        }
    };
    only_params(row, &ARRIVAL_PARAMS, takes, &variant)?;
    Ok(arrival)
}

fn write_arrival(row: Row, arrival: &ArrivalSpec) -> Row {
    match *arrival {
        ArrivalSpec::Constant => row.with(&ARRIVAL, "constant".to_string()),
        ArrivalSpec::Poisson => row.with(&ARRIVAL, "poisson".to_string()),
        ArrivalSpec::OnOff { burst_secs, idle_secs } => row
            .with(&ARRIVAL, "onoff".to_string())
            .with(&BURST_SECS, burst_secs)
            .with(&IDLE_SECS, idle_secs),
        ArrivalSpec::Ramp { from_scale, to_scale } => row
            .with(&ARRIVAL, "ramp".to_string())
            .with(&RAMP_FROM_SCALE, from_scale)
            .with(&RAMP_TO_SCALE, to_scale),
    }
}

// Windows and phases start at `from` (default: the start of the run).
section!(PHASE_TABLE = "[[workload.phase]]",
    shares [ARRIVAL, BURST_SECS, IDLE_SECS, RAMP_FROM_SCALE, RAMP_TO_SCALE], {
    FROM = "from", Kind::When, Def::U64(0);
    SCALE = "scale", Kind::F64, Def::F64(1.0);
    PHASE_TPS = "tps", Kind::U64, Def::None;
});

/// A phase's rate is a `scale` or an absolute `tps`, not both; a ramp
/// carries its own scales and takes neither.
fn read_phase(phase: &Row) -> Result<WorkloadPhaseSpec, ScenarioError> {
    let arrival = read_arrival(phase)?;
    if matches!(arrival, ArrivalSpec::Ramp { .. }) && (phase.has(&SCALE) || phase.has(&PHASE_TPS)) {
        return Err(schema(
            "ramp phases take ramp_from_scale / ramp_to_scale, not scale or tps".into(),
        ));
    }
    at_most_one(phase, &SCALE, &PHASE_TPS)?;
    let rate = match phase.opt(&PHASE_TPS) {
        Some(tps) => RateSpec::Tps(tps),
        None => RateSpec::Scale(phase.get(&SCALE)),
    };
    Ok(WorkloadPhaseSpec { from: phase.get(&FROM), rate, arrival })
}

fn write_phase(phase: &WorkloadPhaseSpec) -> Row {
    let row = write_arrival(Row::new(&PHASE_TABLE).with(&FROM, phase.from), &phase.arrival);
    match (phase.rate, phase.arrival) {
        (_, ArrivalSpec::Ramp { .. }) => row,
        (RateSpec::Scale(scale), _) => row.with(&SCALE, scale),
        (RateSpec::Tps(tps), _) => row.with(&PHASE_TPS, tps),
    }
}

/// The single-phase arrival keys and a `[[workload.phase]]` timeline
/// exclude each other.
fn read_workload(workload: &Row) -> Result<WorkloadSpec, ScenarioError> {
    let mode = match workload.get::<String>(&MODE).as_str() {
        "closed" => SubmissionMode::Closed,
        "open" => SubmissionMode::Open,
        other => {
            return Err(schema(format!(
                "unknown workload mode `{other}` (expected closed or open)"
            )))
        }
    };
    // The cap on a payload is `Workload::validate`'s; here it only has to
    // survive the narrowing.
    let payload_bytes: u64 = workload.get(&PAYLOAD_BYTES);
    let payload_bytes = u32::try_from(payload_bytes).map_err(|_| {
        ScenarioError::Invalid(format!("workload payload_bytes {payload_bytes} does not fit u32"))
    })?;
    let block_bytes: Option<u64> = workload.opt(&BLOCK_BYTES);
    let one_tx = TX_HEADER_BYTES as u64 + payload_bytes as u64;
    if let Some(block_bytes) = block_bytes.filter(|b| *b < one_tx) {
        return Err(ScenarioError::Invalid(format!(
            "workload block_bytes {block_bytes} cannot fit one {one_tx}-byte transaction"
        )));
    }
    let phases =
        workload.get::<Vec<Row>>(&PHASE).iter().map(read_phase).collect::<Result<Vec<_>, _>>()?;
    let mut single_phase_keys = [&ARRIVAL].into_iter().chain(ARRIVAL_PARAMS);
    let arrival = match single_phase_keys.find(|key| workload.has(key)) {
        Some(key) if !phases.is_empty() => {
            return Err(schema(format!(
                "`workload.{}` conflicts with an explicit [[workload.phase]] timeline",
                key.key
            )))
        }
        _ => read_arrival(workload)?,
    };
    Ok(WorkloadSpec {
        mode,
        payload_bytes,
        spread: workload.get(&SPREAD),
        block_bytes,
        arrival,
        phases,
    })
}

fn write_workload(workload: &WorkloadSpec) -> Row {
    let mode = match workload.mode {
        SubmissionMode::Closed => "closed",
        SubmissionMode::Open => "open",
    };
    let row = Row::new(&WORKLOAD_TABLE)
        .with(&MODE, mode.to_string())
        .with(&PAYLOAD_BYTES, workload.payload_bytes as u64)
        .with(&SPREAD, workload.spread)
        .with_opt(&BLOCK_BYTES, workload.block_bytes);
    if workload.phases.is_empty() {
        write_arrival(row, &workload.arrival)
    } else {
        row.with(&PHASE, workload.phases.iter().map(write_phase).collect::<Vec<_>>())
    }
}

// A variant overrides one point of the `[hammerhead]` axes; `static_leader`
// is written for `system = "static-leader"` only.
section!(VARIANT_TABLE = "[[variant]]", shares [], {
    LABEL = "label", Kind::Str, Def::Required;
    SYSTEM = "system", Kind::Str, Def::Str("hammerhead"), shown;
    STATIC_LEADER = "static_leader", Kind::Id, Def::U64(0), shown;
    VARIANT_SCORING = "scoring", Kind::Str, Def::None;
    VARIANT_PERIOD_ROUNDS = "period_rounds", Kind::U64, Def::None;
    VARIANT_PCT = "max_excluded_pct", Kind::U64, Def::None;
});

fn read_variant(variant: &Row) -> Result<VariantSpec, ScenarioError> {
    Ok(VariantSpec {
        label: variant.get(&LABEL),
        system: SystemSpec::parse(&variant.get::<String>(&SYSTEM))?,
        static_leader: variant.get(&STATIC_LEADER),
        scoring: variant.opt::<String>(&VARIANT_SCORING).map(|s| parse_scoring(&s)).transpose()?,
        period_rounds: variant.opt(&VARIANT_PERIOD_ROUNDS),
        exclusion: variant.opt(&VARIANT_PCT).map(ExclusionSpec::Pct),
    })
}

fn write_variant(variant: &VariantSpec) -> Row {
    let leader = Some(variant.static_leader).filter(|_| variant.system == SystemSpec::StaticLeader);
    let row = Row::new(&VARIANT_TABLE)
        .with(&LABEL, variant.label.clone())
        .with(&SYSTEM, variant.system.label().to_string())
        .with_opt(&STATIC_LEADER, leader)
        .with_opt(&VARIANT_SCORING, variant.scoring.map(scoring_name))
        .with_opt(&VARIANT_PERIOD_ROUNDS, variant.period_rounds);
    match variant.exclusion {
        Some(ExclusionSpec::Pct(pct)) => row.with(&VARIANT_PCT, pct),
        Some(ExclusionSpec::F) | None => row,
    }
}

// Fault entries name their validators by exactly one of `nodes` (ids) or
// `first` (a count), and their instants as `When` fields; `UNTIL` open
// (absent = the end of the run), `HEAL` and `RESTART_AT` required.
section!(SLOWDOWN_TABLE = "[[faults.slowdown]]", shares [], {
    NODES = "nodes", Kind::Ids, Def::None;
    FIRST = "first", Kind::Count, Def::None;
    AT = "at", Kind::When, Def::U64(0);
    UNTIL = "until", Kind::When, Def::None;
    EXTRA_MS = "extra_ms", Kind::U64, Def::Required;
});

fn read_node_sel(entry: &Row) -> Result<NodeSel, ScenarioError> {
    match (entry.opt(&NODES), entry.opt(&FIRST)) {
        (Some(ids), None) => Ok(NodeSel::Ids(ids)),
        (None, Some(count)) => Ok(NodeSel::First(count)),
        _ => Err(schema(format!(
            "{} needs exactly one of `{}` (id list) or `{}` (count)",
            entry.section.name, NODES.key, FIRST.key
        ))),
    }
}

fn write_node_sel(entry: Row, sel: &NodeSel) -> Row {
    match sel {
        NodeSel::Ids(ids) => entry.with(&NODES, ids.clone()),
        NodeSel::First(count) => entry.with(&FIRST, *count),
    }
}

// `recover_at` on a crash is sugar for a `[[faults.recover]]` entry of the
// same validators; the canonical form writes the recover entry.
section!(CRASH_TABLE = "[[faults.crash]]", shares [NODES, FIRST, AT], {
    RECOVER_AT = "recover_at", Kind::When, Def::None;
});
section!(RECOVER_TABLE = "[[faults.recover]]", shares [NODES, FIRST], {
    RESTART_AT = "at", Kind::When, Def::Required;
});

// A partition is two explicit groups or the first `count` validators
// against the rest.
section!(PARTITION_TABLE = "[[faults.partition]]", shares [FROM], {
    GROUP_A = "a", Kind::Ids, Def::None;
    GROUP_B = "b", Kind::Ids, Def::None;
    ISOLATE_FIRST = "isolate_first", Kind::Count, Def::None;
    HEAL = "until", Kind::When, Def::Required;
});

fn read_partition(entry: &Row) -> Result<PartitionEntry, ScenarioError> {
    let groups = (entry.opt(&GROUP_A), entry.opt(&GROUP_B));
    let sel =
        match (groups, entry.opt(&ISOLATE_FIRST)) {
            ((Some(a), Some(b)), None) => PartitionSel::Groups { a, b },
            ((None, None), Some(count)) => PartitionSel::IsolateFirst(count),
            _ => return Err(schema(
                "[[faults.partition]] needs either both `a` and `b` id lists or `isolate_first` \
                 (count)"
                    .into(),
            )),
        };
    Ok(PartitionEntry { sel, from: entry.get(&FROM), until: entry.get(&HEAL) })
}

fn write_partition(entry: &PartitionEntry) -> Row {
    let row = Row::new(&PARTITION_TABLE).with(&FROM, entry.from).with(&HEAL, entry.until);
    match &entry.sel {
        PartitionSel::Groups { a, b } => row.with(&GROUP_A, a.clone()).with(&GROUP_B, b.clone()),
        PartitionSel::IsolateFirst(count) => row.with(&ISOLATE_FIRST, *count),
    }
}

// A byzantine strategy is a name plus the parameters that name takes.
section!(BYZANTINE_TABLE = "[[faults.byzantine]]", shares [FROM, UNTIL], {
    ATTACKER = "node", Kind::Id, Def::Required;
    STRATEGY = "strategy", Kind::Str, Def::Required;
    TARGETS = "targets", Kind::Ids, Def::None;
    DELAY_MS = "delay_ms", Kind::U64, Def::None;
    FLIP_SECS = "flip_secs", Kind::U64, Def::None;
});

fn read_byzantine(entry: &Row) -> Result<ByzantineEntrySpec, ScenarioError> {
    let name: String = entry.get(&STRATEGY);
    let variant = format!("the `{name}` strategy");
    let missing = |field: &Field| schema(format!("{variant} requires `{}`", field.key));
    let delay_ms = || entry.opt(&DELAY_MS).ok_or_else(|| missing(&DELAY_MS));
    let (takes, strategy): (&[&Field], _) = match name.as_str() {
        "equivocate" => (&[], ByzantineStrategySpec::Equivocate),
        "withhold_votes" => (
            &[&TARGETS],
            ByzantineStrategySpec::WithholdVotes {
                targets: entry.opt(&TARGETS).ok_or_else(|| missing(&TARGETS))?,
            },
        ),
        "lazy_leader" => {
            (&[&DELAY_MS], ByzantineStrategySpec::LazyLeader { delay_ms: delay_ms()? })
        }
        "flip_flop" => (
            &[&FLIP_SECS, &DELAY_MS],
            ByzantineStrategySpec::FlipFlop {
                flip_secs: entry.opt(&FLIP_SECS).ok_or_else(|| missing(&FLIP_SECS))?,
                delay_ms: delay_ms()?,
            },
        ),
        other => {
            return Err(schema(format!(
                "unknown byzantine strategy `{other}` (expected equivocate, withhold_votes, \
                 lazy_leader or flip_flop)"
            )))
        }
    };
    only_params(entry, &[&TARGETS, &DELAY_MS, &FLIP_SECS], takes, &variant)?;
    Ok(ByzantineEntrySpec {
        node: entry.get(&ATTACKER),
        strategy,
        from: entry.get(&FROM),
        until: entry.opt(&UNTIL),
    })
}

fn write_byzantine(entry: &ByzantineEntrySpec) -> Row {
    let row = Row::new(&BYZANTINE_TABLE)
        .with(&ATTACKER, entry.node)
        .with(&FROM, entry.from)
        .with_opt(&UNTIL, entry.until);
    let (name, row) = match &entry.strategy {
        ByzantineStrategySpec::Equivocate => ("equivocate", row),
        ByzantineStrategySpec::WithholdVotes { targets } => {
            ("withhold_votes", row.with(&TARGETS, targets.clone()))
        }
        ByzantineStrategySpec::LazyLeader { delay_ms } => {
            ("lazy_leader", row.with(&DELAY_MS, *delay_ms))
        }
        ByzantineStrategySpec::FlipFlop { flip_secs, delay_ms } => {
            ("flip_flop", row.with(&DELAY_MS, *delay_ms).with(&FLIP_SECS, *flip_secs))
        }
    };
    row.with(&STRATEGY, name.to_string())
}

// A chaos window afflicts every link, one validator's links (`node`), or
// one directed link (`from` + `to`).
section!(CHAOS_TABLE = "[[faults.chaos]]", shares [FROM, UNTIL], {
    CHAOS_NODE = "node", Kind::Id, Def::None;
    LINK_FROM = "from", Kind::Id, Def::None;
    LINK_TO = "to", Kind::Id, Def::None;
    DROP = "drop", Kind::F64, Def::F64(0.0);
    DUPLICATE = "duplicate", Kind::F64, Def::F64(0.0);
    CORRUPT = "corrupt", Kind::F64, Def::F64(0.0);
    REORDER_MS = "reorder_ms", Kind::U64, Def::U64(0);
});

fn read_chaos(entry: &Row) -> Result<ChaosEntrySpec, ScenarioError> {
    let target = match (entry.opt(&CHAOS_NODE), entry.opt(&LINK_FROM), entry.opt(&LINK_TO)) {
        (None, None, None) => ChaosTarget::AllLinks,
        (Some(node), None, None) => ChaosTarget::Node(node),
        (None, Some(from), Some(to)) => ChaosTarget::Pair { from, to },
        _ => {
            return Err(schema(
                "[[faults.chaos]] afflicts all links by default; narrow it with either `node` \
                 or the directed pair `from` + `to`, not a mix"
                    .into(),
            ))
        }
    };
    Ok(ChaosEntrySpec {
        target,
        from: entry.get(&FROM),
        until: entry.opt(&UNTIL),
        drop: entry.get(&DROP),
        duplicate: entry.get(&DUPLICATE),
        corrupt: entry.get(&CORRUPT),
        reorder_ms: entry.get(&REORDER_MS),
    })
}

fn write_chaos(entry: &ChaosEntrySpec) -> Row {
    let row = Row::new(&CHAOS_TABLE)
        .with(&FROM, entry.from)
        .with_opt(&UNTIL, entry.until)
        .with(&DROP, entry.drop)
        .with(&DUPLICATE, entry.duplicate)
        .with(&CORRUPT, entry.corrupt)
        .with(&REORDER_MS, entry.reorder_ms);
    match entry.target {
        ChaosTarget::AllLinks => row,
        ChaosTarget::Node(node) => row.with(&CHAOS_NODE, node),
        ChaosTarget::Pair { from, to } => row.with(&LINK_FROM, from).with(&LINK_TO, to),
    }
}

section!(FAULTS_TABLE = "[faults]", shares [], {
    CRASHED = "crashed", Kind::Ids, Def::None;
    CRASH_LAST = "crash_last", Kind::Count, Def::None;
    SLOWDOWN = "slowdown", Kind::Tables(&SLOWDOWN_TABLE), Def::None;
    CRASH = "crash", Kind::Tables(&CRASH_TABLE), Def::None;
    RECOVER = "recover", Kind::Tables(&RECOVER_TABLE), Def::None;
    PARTITION = "partition", Kind::Tables(&PARTITION_TABLE), Def::None;
    BYZANTINE = "byzantine", Kind::Tables(&BYZANTINE_TABLE), Def::None;
    CHAOS = "chaos", Kind::Tables(&CHAOS_TABLE), Def::None;
});

fn read_faults(faults: &Row) -> Result<FaultsSpec, ScenarioError> {
    let entries = |field: &Field| faults.get::<Vec<Row>>(field);
    let mut spec = FaultsSpec {
        crashed: faults.opt(&CRASHED).unwrap_or_default(),
        crash_last: faults.opt(&CRASH_LAST),
        partitions: entries(&PARTITION).iter().map(read_partition).collect::<Result<_, _>>()?,
        byzantine: entries(&BYZANTINE).iter().map(read_byzantine).collect::<Result<_, _>>()?,
        chaos: entries(&CHAOS).iter().map(read_chaos).collect::<Result<_, _>>()?,
        ..FaultsSpec::default()
    };
    for entry in entries(&SLOWDOWN) {
        spec.slowdowns.push(SlowdownEntry {
            nodes: read_node_sel(&entry)?,
            at: entry.get(&AT),
            until: entry.opt(&UNTIL),
            extra_ms: entry.get(&EXTRA_MS),
        });
    }
    // [[faults.recover]] first, then the `recover_at` sugar of each crash.
    for entry in entries(&RECOVER) {
        spec.recovers
            .push(TimedFaultEntry { nodes: read_node_sel(&entry)?, at: entry.get(&RESTART_AT) });
    }
    for entry in entries(&CRASH) {
        let nodes = read_node_sel(&entry)?;
        if let Some(at) = entry.opt(&RECOVER_AT) {
            spec.recovers.push(TimedFaultEntry { nodes: nodes.clone(), at });
        }
        spec.crashes.push(TimedFaultEntry { nodes, at: entry.get(&AT) });
    }
    Ok(spec)
}

fn write_faults(faults: &FaultsSpec) -> Row {
    let timed = |table: &'static Section, at: &Field, entries: &[TimedFaultEntry]| -> Vec<Row> {
        entries.iter().map(|e| write_node_sel(Row::new(table), &e.nodes).with(at, e.at)).collect()
    };
    let slowdowns = faults.slowdowns.iter().map(|s| {
        write_node_sel(Row::new(&SLOWDOWN_TABLE), &s.nodes)
            .with(&AT, s.at)
            .with_opt(&UNTIL, s.until)
            .with(&EXTRA_MS, s.extra_ms)
    });
    Row::new(&FAULTS_TABLE)
        .with_opt(&CRASHED, Some(faults.crashed.clone()).filter(|ids| !ids.is_empty()))
        .with_opt(&CRASH_LAST, faults.crash_last)
        .with(&SLOWDOWN, slowdowns.collect::<Vec<_>>())
        .with(&CRASH, timed(&CRASH_TABLE, &AT, &faults.crashes))
        .with(&RECOVER, timed(&RECOVER_TABLE, &RESTART_AT, &faults.recovers))
        .with(&PARTITION, faults.partitions.iter().map(write_partition).collect::<Vec<_>>())
        .with(&BYZANTINE, faults.byzantine.iter().map(write_byzantine).collect::<Vec<_>>())
        .with(&CHAOS, faults.chaos.iter().map(write_chaos).collect::<Vec<_>>())
}

section!(WINDOW_TABLE = "[[analysis.window]]", shares [], {
    WINDOW_NAME = "name", Kind::Str, Def::Required;
    FROM_FRAC = "from_frac", Kind::F64, Def::F64(0.0), shown;
    TO_FRAC = "to_frac", Kind::F64, Def::F64(1.0), shown;
});
section!(ANALYSIS_TABLE = "[analysis]", shares [], {
    WINDOW = "window", Kind::Tables(&WINDOW_TABLE), Def::None;
});

fn read_analysis(analysis: &Row) -> AnalysisSpec {
    let window = |w: &Row| WindowSpec {
        name: w.get(&WINDOW_NAME),
        from_frac: w.get(&FROM_FRAC),
        to_frac: w.get(&TO_FRAC),
    };
    AnalysisSpec { windows: analysis.get::<Vec<Row>>(&WINDOW).iter().map(window).collect() }
}

fn write_analysis(analysis: &AnalysisSpec) -> Row {
    let window = |w: &WindowSpec| {
        Row::new(&WINDOW_TABLE)
            .with(&WINDOW_NAME, w.name.clone())
            .with(&FROM_FRAC, w.from_frac)
            .with(&TO_FRAC, w.to_frac)
    };
    Row::new(&ANALYSIS_TABLE).with(&WINDOW, analysis.windows.iter().map(window).collect::<Vec<_>>())
}

section!(QUICK_TABLE = "[quick]", shares [], {
    QUICK_SIZES = "sizes", Kind::U64Axis, Def::None;
    QUICK_TPS = "tps", Kind::U64Axis, Def::None;
    QUICK_DURATION_SECS = "duration_secs", Kind::U64Axis, Def::None;
    QUICK_SEEDS = "seeds", Kind::U64Axis, Def::None;
    QUICK_PERIOD_ROUNDS = "period_rounds", Kind::U64Axis, Def::None;
});

fn to_usizes(xs: Vec<u64>) -> Vec<usize> {
    xs.into_iter().map(|x| x as usize).collect()
}

fn to_u64s(xs: &[usize]) -> Vec<u64> {
    xs.iter().map(|x| *x as u64).collect()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl Default for WorkloadSpec {
    /// Every `[workload]` key at its default.
    fn default() -> Self {
        read_workload(&Row::new(&WORKLOAD_TABLE)).expect("the defaults are a valid workload")
    }
}

impl ScenarioSpec {
    /// Parses and validates scenario TOML text.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(&toml::parse(text)?)
    }

    /// Builds a spec from an already-parsed TOML document (the hook
    /// `hh-cli --set` uses to patch knobs before schema validation).
    pub fn from_value(root_value: &Value) -> Result<Self, ScenarioError> {
        let table =
            root_value.as_table().ok_or_else(|| schema("scenario root must be a table".into()))?;
        let root = ROOT.read(table)?;
        let sub = |field: &Field| root.get::<Row>(field);
        let (committee, run, hammerhead, quick) =
            (sub(&COMMITTEE), sub(&RUN), sub(&HAMMERHEAD), sub(&QUICK));
        at_most_one(&committee, &SIZE, &SIZES)?;
        at_most_one(&run, &SEED, &SEEDS)?;
        let spec = ScenarioSpec {
            name: root.get(&NAME),
            description: root.get(&DESCRIPTION),
            figure: root.opt(&FIGURE),
            committee_sizes: to_usizes(
                committee.opt(&SIZE).unwrap_or_else(|| committee.get(&SIZES)),
            ),
            load_tps: sub(&LOAD).get(&TPS),
            duration_secs: run.get(&DURATION_SECS),
            warmup_secs: run.opt(&WARMUP_SECS),
            seeds: run.opt(&SEED).unwrap_or_else(|| run.get(&SEEDS)),
            gst_secs: run.get(&GST_SECS),
            client_window_secs: run.get(&CLIENT_WINDOW_SECS),
            network: read_network(&sub(&NETWORK))?,
            systems: sub(&SYSTEMS)
                .get::<Vec<String>>(&SYSTEMS_RUN)
                .iter()
                .map(|s| SystemSpec::parse(s))
                .collect::<Result<_, _>>()?,
            period_rounds: hammerhead.get(&PERIOD_ROUNDS),
            exclusion: read_exclusion_axis(&hammerhead),
            scoring: hammerhead
                .get::<Vec<String>>(&SCORING)
                .iter()
                .map(|s| parse_scoring(s))
                .collect::<Result<_, _>>()?,
            workload: read_workload(&sub(&WORKLOAD))?,
            variants: root
                .get::<Vec<Row>>(&VARIANT)
                .iter()
                .map(read_variant)
                .collect::<Result<_, _>>()?,
            faults: read_faults(&sub(&FAULTS))?,
            analysis: read_analysis(&sub(&ANALYSIS)),
            quick: QuickSpec {
                sizes: quick.opt(&QUICK_SIZES).map(to_usizes),
                tps: quick.opt(&QUICK_TPS),
                duration_secs: quick.opt(&QUICK_DURATION_SECS),
                seeds: quick.opt(&QUICK_SEEDS),
                period_rounds: quick.opt(&QUICK_PERIOD_ROUNDS),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec back to a TOML value (the canonical form used
    /// by round-trip tests and `hh-cli validate --dump`).
    pub fn to_value(&self) -> Value {
        let committee = Row::new(&COMMITTEE_TABLE).with(&SIZES, to_u64s(&self.committee_sizes));
        let run = Row::new(&RUN_TABLE)
            .with(&DURATION_SECS, self.duration_secs.clone())
            .with_opt(&WARMUP_SECS, self.warmup_secs)
            .with(&SEEDS, self.seeds.clone())
            .with(&GST_SECS, self.gst_secs)
            .with(&CLIENT_WINDOW_SECS, self.client_window_secs);
        let systems: Vec<String> = self.systems.iter().map(|s| s.label().to_string()).collect();
        let scoring: Vec<String> = self.scoring.iter().map(|s| scoring_name(*s)).collect();
        let hammerhead = Row::new(&HAMMERHEAD_TABLE)
            .with(&PERIOD_ROUNDS, self.period_rounds.clone())
            .with(&SCORING, scoring);
        let quick = Row::new(&QUICK_TABLE)
            .with_opt(&QUICK_SIZES, self.quick.sizes.as_deref().map(to_u64s))
            .with_opt(&QUICK_TPS, self.quick.tps.clone())
            .with_opt(&QUICK_DURATION_SECS, self.quick.duration_secs.clone())
            .with_opt(&QUICK_SEEDS, self.quick.seeds.clone())
            .with_opt(&QUICK_PERIOD_ROUNDS, self.quick.period_rounds.clone());
        let root = Row::new(&ROOT)
            .with(&NAME, self.name.clone())
            .with(&DESCRIPTION, self.description.clone())
            .with_opt(&FIGURE, self.figure.clone())
            .with(&COMMITTEE, committee)
            .with(&LOAD, Row::new(&LOAD_TABLE).with(&TPS, self.load_tps.clone()))
            .with(&RUN, run)
            .with(&NETWORK, write_network(self.network))
            .with(&SYSTEMS, Row::new(&SYSTEMS_TABLE).with(&SYSTEMS_RUN, systems))
            .with(&HAMMERHEAD, write_exclusion_axis(hammerhead, &self.exclusion))
            // `mode` is shown, so the table of a default workload would not
            // be empty; the canonical form leaves it out all the same.
            .with_opt(
                &WORKLOAD,
                (self.workload != WorkloadSpec::default()).then(|| write_workload(&self.workload)),
            )
            .with(&VARIANT, self.variants.iter().map(write_variant).collect::<Vec<_>>())
            .with(&FAULTS, write_faults(&self.faults))
            .with(&ANALYSIS, write_analysis(&self.analysis))
            .with(&QUICK, quick);
        Value::Table(root.to_table())
    }

    /// Serializes to canonical TOML text.
    pub fn to_toml(&self) -> String {
        toml::serialize(&self.to_value())
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// What every committee-size and duration axis must satisfy, as parsed
    /// and again after the `[quick]` / CLI overrides.
    fn check_axes(&self, sizes: &[usize], durations: &[u64]) -> Result<(), ScenarioError> {
        if let Some(small) = sizes.iter().find(|n| **n < 4) {
            return Err(ScenarioError::Invalid(format!(
                "committee size {small} cannot tolerate any fault (n = 3f + 1)"
            )));
        }
        if durations.contains(&0) {
            return Err(ScenarioError::Invalid("duration_secs must be positive".into()));
        }
        for duration in durations {
            to_micros(*duration, 1_000_000, DURATION_SECS.key)?;
        }
        if let Some(w) = self.warmup_secs {
            if let Some(short) = durations.iter().find(|d| **d <= w) {
                return Err(ScenarioError::Invalid(format!(
                    "warmup_secs {w} does not leave a measurement window in a {short}s run"
                )));
            }
        }
        Ok(())
    }

    /// What only the spec can know beyond per-key type checks. Whether the
    /// faults, the chaos and the workload are runnable is decided by the
    /// schedules they lower to, during [`ScenarioSpec::plan`], where the
    /// committee size and the run length are known.
    fn validate(&self) -> Result<(), ScenarioError> {
        self.check_axes(&self.committee_sizes, &self.duration_secs)?;
        if self.client_window_secs <= 0.0 {
            return Err(ScenarioError::Invalid("client_window_secs must be positive".into()));
        }
        let mut labels: Vec<&str> = self.variants.iter().map(|v| v.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != self.variants.len() {
            return Err(ScenarioError::Invalid("variant labels must be unique".into()));
        }
        for w in &self.analysis.windows {
            if !(0.0..=1.0).contains(&w.from_frac)
                || !(0.0..=1.0).contains(&w.to_frac)
                || w.from_frac >= w.to_frac
            {
                return Err(ScenarioError::Invalid(format!(
                    "analysis window `{}` must satisfy 0 <= from_frac < to_frac <= 1",
                    w.name
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Expansion into a run plan
// ---------------------------------------------------------------------------

/// Command-line-level adjustments applied while expanding a spec.
#[derive(Clone, Debug, Default)]
pub struct PlanOptions {
    /// Apply the scenario's `[quick]` overrides.
    pub quick: bool,
    /// Replace the duration axis.
    pub duration_override: Option<u64>,
    /// Replace the seed axis.
    pub seed_override: Option<u64>,
}

/// One fully resolved run: its output labels and simulator config.
#[derive(Clone, Debug)]
pub struct PlannedRun {
    /// Variant label (system name when no explicit variants are defined).
    pub variant: String,
    /// System label (`bullshark` / `hammerhead` / `static-leader`).
    pub system: String,
    /// Ordered key/value labels identifying the run in reports.
    pub labels: Vec<(String, String)>,
    /// Number of crashed validators.
    pub fault_count: usize,
    /// The simulator configuration.
    pub config: ExperimentConfig,
}

/// An expanded scenario: every concrete run, in a deterministic order.
#[derive(Clone, Debug)]
pub struct ScenarioPlan {
    /// Scenario name.
    pub name: String,
    /// Scenario description.
    pub description: String,
    /// Paper figure, if declared.
    pub figure: Option<String>,
    /// The runs, ordered committee → variant → duration → load → seed.
    pub runs: Vec<PlannedRun>,
}

/// The variants in force after merging the axis defaults.
fn effective_variants(spec: &ScenarioSpec, period_axis: &[u64]) -> Vec<VariantSpec> {
    if !spec.variants.is_empty() {
        return spec.variants.clone();
    }
    let mut out = Vec::new();
    for system in &spec.systems {
        match system {
            SystemSpec::Bullshark | SystemSpec::StaticLeader => out.push(VariantSpec {
                label: system.label().to_string(),
                system: *system,
                static_leader: 0,
                scoring: None,
                period_rounds: None,
                exclusion: None,
            }),
            SystemSpec::Hammerhead => {
                for &period in period_axis {
                    for &exclusion in &spec.exclusion {
                        for &scoring in &spec.scoring {
                            let mut label = "hammerhead".to_string();
                            if period_axis.len() > 1 {
                                label.push_str(&format!("-T{period}"));
                            }
                            if spec.exclusion.len() > 1 {
                                label.push_str(&format!("-ex{}", exclusion.label()));
                            }
                            if spec.scoring.len() > 1 {
                                label.push_str(&format!("-{}", scoring_name(scoring)));
                            }
                            out.push(VariantSpec {
                                label,
                                system: SystemSpec::Hammerhead,
                                static_leader: 0,
                                scoring: Some(scoring),
                                period_rounds: Some(period),
                                exclusion: Some(exclusion),
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

impl ScenarioSpec {
    /// Expands the axes into concrete runs, validating every combination.
    pub fn plan(&self, opts: &PlanOptions) -> Result<ScenarioPlan, ScenarioError> {
        fn axis<T: Clone>(quick: bool, over: &Option<Vec<T>>, base: &[T]) -> Vec<T> {
            over.as_ref().filter(|_| quick).cloned().unwrap_or_else(|| base.to_vec())
        }
        let sizes = axis(opts.quick, &self.quick.sizes, &self.committee_sizes);
        let loads = axis(opts.quick, &self.quick.tps, &self.load_tps);
        let mut durations = axis(opts.quick, &self.quick.duration_secs, &self.duration_secs);
        if let Some(d) = opts.duration_override {
            if d == 0 {
                return Err(ScenarioError::Invalid("duration override must be positive".into()));
            }
            durations = vec![d];
        }
        let mut seeds = axis(opts.quick, &self.quick.seeds, &self.seeds);
        if let Some(s) = opts.seed_override {
            seeds = vec![s];
        }
        let period_axis = axis(opts.quick, &self.quick.period_rounds, &self.period_rounds);
        // Quick/CLI overrides bypass parse-time validation, so the
        // effective axes are re-checked here.
        self.check_axes(&sizes, &durations)?;
        let variants = effective_variants(self, &period_axis);

        let mut runs = Vec::new();
        for &n in &sizes {
            let committee = Committee::new_equal_stake(n);
            let crashed = self.resolve_crashes(n)?;
            for variant in &variants {
                for &duration in &durations {
                    for &load in &loads {
                        for &seed in &seeds {
                            let config = self.build_config(
                                n, &committee, &crashed, variant, duration, load, seed,
                            )?;
                            // Fault count = distinct crashed validators
                            // anywhere on the timeline (mid-run crashes
                            // included).
                            let fault_count = config.faults.crashed_nodes().len();
                            let mut labels: Vec<(String, String)> = vec![
                                ("variant".into(), variant.label.clone()),
                                ("system".into(), variant.system.label().into()),
                                ("committee".into(), n.to_string()),
                                ("faults".into(), fault_count.to_string()),
                                ("load_tps".into(), load.to_string()),
                                ("duration_secs".into(), duration.to_string()),
                                ("seed".into(), seed.to_string()),
                            ];
                            if let ScheduleConfig::Hammerhead(hh) = &config.validator.schedule {
                                labels.push(("period_rounds".into(), hh.period_rounds.to_string()));
                                labels.push(("scoring".into(), scoring_name(hh.scoring_rule)));
                                labels.push((
                                    "exclusion".into(),
                                    variant.exclusion.unwrap_or(ExclusionSpec::F).label(),
                                ));
                            }
                            runs.push(PlannedRun {
                                variant: variant.label.clone(),
                                system: variant.system.label().to_string(),
                                labels,
                                fault_count,
                                config,
                            });
                        }
                    }
                }
            }
        }
        Ok(ScenarioPlan {
            name: self.name.clone(),
            description: self.description.clone(),
            figure: self.figure.clone(),
            runs,
        })
    }

    /// The validators down from t=0: `crashed` and the last `crash_last`.
    /// Whether they exist and number at most `f` is the fault schedule's
    /// call.
    fn resolve_crashes(&self, n: usize) -> Result<Vec<u16>, ScenarioError> {
        let mut crashed: Vec<u16> = self.faults.crashed.clone();
        if let Some(expr) = self.faults.crash_last {
            let count = expr.resolve(n);
            if count >= n {
                return Err(ScenarioError::Invalid(format!(
                    "crash_last resolves to {count} of {n} validators — nobody left alive"
                )));
            }
            crashed.extend(((n - count)..n).map(|i| i as u16));
        }
        crashed.sort_unstable();
        crashed.dedup();
        Ok(crashed)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_config(
        &self,
        n: usize,
        committee: &Committee,
        crashed: &[u16],
        variant: &VariantSpec,
        duration: u64,
        load: u64,
        seed: u64,
    ) -> Result<ExperimentConfig, ScenarioError> {
        // The baseline's round-robin; the other systems write their own
        // schedule below.
        let mut config = ExperimentConfig::paper(SystemKind::Bullshark, n, load);
        config.duration_secs = duration;
        config.warmup_secs = self.warmup_secs.unwrap_or((duration / 6).max(1));
        let edge = |frac| WhenSpec::Frac(frac).resolve_us(duration);
        for w in &self.analysis.windows {
            config.windows.push((w.name.clone(), edge(w.from_frac)?, edge(w.to_frac)?));
        }
        config.seed = seed;
        config.gst_secs = self.gst_secs;
        config.client_window_secs = self.client_window_secs;
        config.network = self.network;

        if variant.system == SystemSpec::Hammerhead {
            let hh = HammerheadConfig {
                period_rounds: variant.period_rounds.unwrap_or(self.period_rounds[0]),
                max_excluded_stake: variant
                    .exclusion
                    .unwrap_or(self.exclusion[0])
                    .to_config(committee),
                scoring_rule: variant.scoring.unwrap_or(self.scoring[0]),
            };
            hh.validate(committee).map_err(|e| {
                ScenarioError::Invalid(format!("variant `{}` on n = {n}: {e}", variant.label))
            })?;
            config.validator.schedule = ScheduleConfig::Hammerhead(hh);
        }
        if variant.system == SystemSpec::StaticLeader {
            let leader = variant.static_leader;
            if leader as usize >= n {
                return Err(ScenarioError::Invalid(format!(
                    "static_leader {leader} is outside the committee of {n}"
                )));
            }
            if crashed.contains(&leader) {
                return Err(ScenarioError::Invalid(format!(
                    "static_leader {leader} is crashed — the run would never commit"
                )));
            }
            config.validator.schedule = ScheduleConfig::StaticLeader(ValidatorId(leader));
        }

        config.workload = self.workload.build(duration, load)?;
        if let Some(bytes) = self.workload.block_bytes {
            config.validator.max_block_bytes = bytes as usize;
        }
        config.faults = self.build_fault_schedule(n, crashed, duration)?;
        config.byzantine = self.build_byzantine_schedule(n, duration)?;
        config.chaos = self.build_chaos_schedule(n, duration)?;
        Ok(config)
    }

    /// Resolves the `[[faults.chaos]]` entries against a committee of
    /// `n` and a run of `duration` seconds into the concrete
    /// [`hh_sim::ChaosSchedule`], and validates the result (rates
    /// outside `[0, 1]`, out-of-range validators, empty or effect-free
    /// windows, and ambiguously overlapping same-link windows are all
    /// rejected here).
    fn build_chaos_schedule(
        &self,
        n: usize,
        duration: u64,
    ) -> Result<ChaosSchedule, ScenarioError> {
        let mut schedule = ChaosSchedule::new();
        for entry in &self.faults.chaos {
            schedule = schedule.entry(ChaosEntry {
                target: entry.target,
                from_us: entry.from.resolve_us(duration)?,
                until_us: WhenSpec::resolve_end_us(entry.until, duration)?,
                drop: entry.drop,
                duplicate: entry.duplicate,
                corrupt: entry.corrupt,
                reorder_us: to_micros(entry.reorder_ms, 1_000, REORDER_MS.key)?,
            });
        }
        schedule.validate(n).map_err(|e| ScenarioError::Invalid(format!("chaos schedule: {e}")))?;
        Ok(schedule)
    }

    /// Resolves the `[[faults.byzantine]]` entries against a committee of
    /// `n` and a run of `duration` seconds into the concrete
    /// [`hh_sim::ByzantineSchedule`], and validates the result (more than
    /// `f` attackers, out-of-range nodes or targets, and overlapping
    /// windows per node are all rejected here).
    fn build_byzantine_schedule(
        &self,
        n: usize,
        duration: u64,
    ) -> Result<ByzantineSchedule, ScenarioError> {
        let mut schedule = ByzantineSchedule::new();
        for entry in &self.faults.byzantine {
            let from_us = entry.from.resolve_us(duration)?;
            let until_us = WhenSpec::resolve_end_us(entry.until, duration)?;
            let delay_us = |delay_ms: &u64| to_micros(*delay_ms, 1_000, DELAY_MS.key);
            schedule = match &entry.strategy {
                ByzantineStrategySpec::Equivocate => {
                    schedule.equivocate(entry.node, from_us, until_us)
                }
                ByzantineStrategySpec::WithholdVotes { targets } => {
                    schedule.withhold_votes(entry.node, targets.clone(), from_us, until_us)
                }
                ByzantineStrategySpec::LazyLeader { delay_ms } => {
                    schedule.lazy_leader(entry.node, delay_us(delay_ms)?, from_us, until_us)
                }
                ByzantineStrategySpec::FlipFlop { flip_secs, delay_ms } => schedule.flip_flop(
                    entry.node,
                    to_micros(*flip_secs, 1_000_000, FLIP_SECS.key)?,
                    delay_us(delay_ms)?,
                    from_us,
                    until_us,
                ),
            };
        }
        schedule
            .validate(n)
            .map_err(|e| ScenarioError::Invalid(format!("byzantine schedule: {e}")))?;
        Ok(schedule)
    }

    /// Resolves the declarative fault spec against a committee of `n` and
    /// a run of `duration` seconds into the concrete event timeline, and
    /// validates the result (recover-before-crash, contradictory windows,
    /// more than `f` concurrent crashes are all rejected here).
    fn build_fault_schedule(
        &self,
        n: usize,
        crashed: &[u16],
        duration: u64,
    ) -> Result<FaultSchedule, ScenarioError> {
        // Ids outside the committee are rejected by `schedule.validate(n)`,
        // which never sees an entry that lowers to no event at all.
        let resolve_nodes = |sel: &NodeSel, table: &Section| {
            let ids: Vec<u16> = match sel {
                NodeSel::Ids(ids) => ids.clone(),
                NodeSel::First(count) => (0..count.resolve(n).min(n) as u16).collect(),
            };
            if ids.is_empty() {
                return Err(ScenarioError::Invalid(format!("{} selects no validator", table.name)));
            }
            Ok(ids)
        };

        let mut schedule = FaultSchedule::new().crash_from_start(crashed.iter().copied());
        for entry in &self.faults.crashes {
            let at_us = entry.at.resolve_us(duration)?;
            for node in resolve_nodes(&entry.nodes, &CRASH_TABLE)? {
                schedule = schedule.crash(node, at_us);
            }
        }
        for entry in &self.faults.recovers {
            let at_us = entry.at.resolve_us(duration)?;
            for node in resolve_nodes(&entry.nodes, &RECOVER_TABLE)? {
                schedule = schedule.recover(node, at_us);
            }
        }
        for entry in &self.faults.slowdowns {
            let from_us = entry.at.resolve_us(duration)?;
            let until_us = WhenSpec::resolve_end_us(entry.until, duration)?;
            let extra_us = to_micros(entry.extra_ms, 1_000, EXTRA_MS.key)?;
            for node in resolve_nodes(&entry.nodes, &SLOWDOWN_TABLE)? {
                schedule = schedule.slowdown(node, from_us, until_us, extra_us);
            }
        }
        for entry in &self.faults.partitions {
            let (a, b) = match &entry.sel {
                PartitionSel::Groups { a, b } => (a.clone(), b.clone()),
                PartitionSel::IsolateFirst(count) => {
                    let k = count.resolve(n).min(n.saturating_sub(1));
                    ((0..k as u16).collect(), (k as u16..n as u16).collect())
                }
            };
            schedule = schedule.partition(
                a,
                b,
                entry.from.resolve_us(duration)?,
                entry.until.resolve_us(duration)?,
            );
        }
        schedule.validate(n).map_err(|e| ScenarioError::Invalid(format!("fault schedule: {e}")))?;
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "name = \"mini\"\n";

    #[test]
    fn minimal_spec_uses_paper_defaults() {
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.committee_sizes, vec![10]);
        assert_eq!(spec.load_tps, vec![500]);
        assert_eq!(spec.duration_secs, vec![60]);
        assert_eq!(spec.seeds, vec![42]);
        assert_eq!(spec.network, Network::Geo);
        assert_eq!(spec.systems, vec![SystemSpec::Hammerhead]);

        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs.len(), 1);
        let config = &plan.runs[0].config;
        assert_eq!(config.committee_size, 10);
        assert_eq!(config.load_tps, 500);
        assert_eq!(config.duration_secs, 60);
        assert_eq!(config.warmup_secs, 10, "default warmup is duration/6");
        assert_eq!(config.network, Network::Geo);
        let calibrated = hammerhead::ValidatorConfig {
            exec_rate_tps: 4_130,
            ..hammerhead::ValidatorConfig::hammerhead()
        };
        assert_eq!(config.validator, calibrated);
    }

    #[test]
    fn axes_expand_to_cross_product_in_stable_order() {
        let spec = ScenarioSpec::parse(
            r#"
name = "sweep"
[committee]
sizes = [10, 13]
[load]
tps = [100, 200]
[systems]
run = ["bullshark", "hammerhead"]
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs.len(), 8);
        // committee-major, then variant, then load.
        assert_eq!(plan.runs[0].labels[2].1, "10");
        assert_eq!(plan.runs[0].system, "bullshark");
        assert_eq!(plan.runs[0].config.load_tps, 100);
        assert_eq!(plan.runs[1].config.load_tps, 200);
        assert_eq!(plan.runs[2].system, "hammerhead");
        assert_eq!(plan.runs[4].labels[2].1, "13");
    }

    /// Every section reachable from the root, each once.
    fn all_sections() -> Vec<&'static Section> {
        let mut sections: Vec<&'static Section> = vec![&ROOT];
        let mut next = 0;
        while next < sections.len() {
            for field in sections[next].fields {
                if let Kind::Table(sub) | Kind::Tables(sub) = field.kind {
                    if !sections.iter().any(|s| std::ptr::eq(*s, sub)) {
                        sections.push(sub);
                    }
                }
            }
            next += 1;
        }
        sections
    }

    /// One well-typed value of `kind`, under the key it goes by.
    fn sample(field: &Field) -> (String, Value) {
        let value = match field.kind {
            Kind::Str => Value::Str("x".into()),
            Kind::StrAxis => Value::Array(vec![Value::Str("x".into()), Value::Str("y".into())]),
            Kind::U64 | Kind::Id | Kind::Count | Kind::When => Value::Int(1),
            Kind::U64Axis => Value::Array(vec![Value::Int(1), Value::Int(2)]),
            Kind::F64 => Value::Float(0.5),
            Kind::Ids => Value::Array(vec![Value::Int(1)]),
            Kind::Table(sub) => Value::Table(minimal(sub)),
            Kind::Tables(sub) => Value::Array(vec![Value::Table(minimal(sub))]),
        };
        (field.keys()[0].clone(), value)
    }

    /// The smallest raw table `section` accepts: its required keys only.
    fn minimal(section: &Section) -> BTreeMap<String, Value> {
        section.fields.iter().filter(|f| f.default == Def::Required).map(|f| sample(f)).collect()
    }

    /// Values of the wrong type for `field`, each under the key it goes by.
    fn wrong_values(field: &Field) -> Vec<(String, Value)> {
        let text = || Value::Str("seven".into());
        let values = match field.kind {
            Kind::Str => vec![Value::Int(1), Value::Array(vec![text()])],
            Kind::StrAxis => vec![Value::Int(1), Value::Array(vec![Value::Int(1)])],
            Kind::U64 => vec![text(), Value::Int(-1), Value::Float(1.5)],
            Kind::Id => vec![text(), Value::Int(-1), Value::Int(65_536)],
            Kind::U64Axis => vec![
                text(),
                Value::Int(-1),
                Value::Array(vec![]),
                Value::Array(vec![Value::Int(1), text()]),
            ],
            Kind::F64 => vec![text(), Value::Bool(true)],
            Kind::Ids => vec![Value::Int(1), Value::Array(vec![text()])],
            Kind::Count => {
                vec![Value::Float(1.5), text(), Value::Str("n/0".into()), Value::Int(-1)]
            }
            Kind::When => {
                let [secs, frac] = field.keys().try_into().unwrap();
                return vec![
                    (secs.clone(), text()),
                    (secs, Value::Int(-1)),
                    (frac.clone(), text()),
                    (frac, Value::Float(1.5)),
                ];
            }
            Kind::Table(_) => vec![Value::Int(1), Value::Array(vec![])],
            Kind::Tables(_) => vec![Value::Int(1), Value::Array(vec![Value::Int(1)])],
        };
        values.into_iter().map(|v| (field.key.to_string(), v)).collect()
    }

    /// The one place unknown-key rejection, per-kind type checking and
    /// default filling are asserted, for every key of every table.
    #[test]
    fn every_field_table_is_strict_typed_and_defaulted() {
        let sections = all_sections();
        let names: Vec<&str> = sections.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 20, "a table was added or lost: {names:?}");
        for section in sections {
            let base = minimal(section);
            let row = section.read(&base).unwrap_or_else(|e| panic!("{}: {e}", section.name));

            let mut typo = base.clone();
            typo.insert("no_such_key".into(), Value::Int(1));
            let err = section.read(&typo).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown key `no_such_key` in {} (allowed: ", section.name)),
                "{err}"
            );

            for &field in section.fields {
                let name = format!("`{}` in {}", field.key, section.name);
                for (key, value) in wrong_values(field) {
                    let mut table = base.clone();
                    table.insert(key.clone(), value.clone());
                    let err = match section.read(&table) {
                        Err(ScenarioError::Schema(message)) => message,
                        other => panic!("{name}: {key} = {value:?} gave {other:?}"),
                    };
                    assert!(!err.contains("unknown key"), "{name}: {err}");
                }
                if let Kind::When = field.kind {
                    let mut both = base.clone();
                    both.extend(field.keys().into_iter().map(|key| (key, Value::Int(0))));
                    let err = section.read(&both).unwrap_err().to_string();
                    assert!(err.contains("sets both"), "{name}: {err}");
                }

                // Given, the value reads back as given and is written back.
                let (key, value) = sample(field);
                let mut table = base.clone();
                table.insert(key.clone(), value);
                let given = section.read(&table).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(given.has(field), "{name}");
                // (An empty sub-table, which is what `sample` gives, is omitted.)
                let omitted = matches!(field.kind, Kind::Table(_));
                assert!(omitted || given.to_table().contains_key(&key), "{name} is not written");

                // Absent, it reads as exactly the declared default.
                if field.default == Def::Required {
                    let mut without = base.clone();
                    without.remove(&key);
                    let err = section.read(&without).unwrap_err().to_string();
                    assert!(err.contains(&format!("{} requires `{key}`", section.name)), "{err}");
                    continue;
                }
                assert!(!row.has(field), "{name}");
                let absent = row.cells[row.index(field)].clone().or_else(|| field.default_cell());
                let expected = match (field.default, field.kind) {
                    (Def::None, Kind::Table(sub)) => Some(Cell::Table(Row::new(sub))),
                    (Def::None, Kind::Tables(_)) => Some(Cell::Tables(Vec::new())),
                    (Def::None, _) => None,
                    (Def::U64(x), Kind::U64) => Some(Cell::U64(x)),
                    (Def::U64(x), Kind::U64Axis) => Some(Cell::U64s(vec![x])),
                    (Def::U64(x), Kind::Id) => Some(Cell::Id(x as u16)),
                    (Def::U64(x), Kind::When) => Some(Cell::When(WhenSpec::Secs(x))),
                    (Def::F64(x), Kind::F64) => Some(Cell::F64(x)),
                    (Def::Str(s), Kind::Str) => Some(Cell::Str(s.into())),
                    (Def::Str(s), Kind::StrAxis) => Some(Cell::Strs(vec![s.into()])),
                    (default, kind) => panic!("{name}: {default:?} cannot default a {kind:?}"),
                };
                assert_eq!(absent, expected, "{name}");
                // And a cell holding the default is written only if `shown`.
                if let Some(cell) = expected.filter(|_| !matches!(field.default, Def::None)) {
                    let written = Row::new(section).with(field, cell).to_table();
                    assert_eq!(!written.is_empty(), field.shown, "{name}: {written:?}");
                }
            }
        }
    }

    /// Each key, and each string default, is spelled once per `Field`
    /// static in the schema and nowhere else in it: the typed fill and
    /// the emitter go through the statics.
    #[test]
    fn every_key_literal_appears_once_per_field() {
        let source = include_str!("spec.rs");
        let schema = source
            .split("// The schema itself: one field table per TOML table")
            .nth(1)
            .and_then(|rest| rest.split("\n// Validation\n").next())
            .expect("the schema section markers are in place");
        let mut fields: Vec<&'static Field> = Vec::new();
        for section in all_sections() {
            for &field in section.fields {
                if !fields.iter().any(|f| std::ptr::eq(*f, field)) {
                    fields.push(field);
                }
            }
        }
        assert!(fields.len() > 80, "{} fields", fields.len());
        for field in &fields {
            let literal = format!("\"{}\"", field.key);
            let declared = fields
                .iter()
                .filter(|f| f.key == field.key || f.default == Def::Str(field.key))
                .count();
            assert_eq!(schema.matches(&literal).count(), declared, "{literal} is spelled again");
        }
    }

    /// `(key, type, default)` as the key tables of the docs print them.
    fn doc_row(field: &Field) -> [String; 3] {
        let keys: Vec<String> = field.keys().iter().map(|key| format!("`{key}`")).collect();
        let kind = match field.kind {
            Kind::Str => "string",
            Kind::StrAxis => "string or list",
            Kind::U64 => "int",
            Kind::U64Axis => "int or list",
            Kind::F64 => "float",
            Kind::Id => "id",
            Kind::Ids => "list of ids",
            Kind::Count => "int or `\"n/k\"`",
            Kind::When => "time",
            Kind::Table(_) | Kind::Tables(_) => unreachable!("sub-tables have their own heading"),
        };
        let default = match field.default {
            Def::None => "—".to_string(),
            Def::Required => "**required**".to_string(),
            Def::U64(x) => format!("`{x}`"),
            Def::F64(x) => format!("`{x:?}`"),
            Def::Str(s) => format!("`\"{s}\"`"),
        };
        [keys.join(" / "), kind.to_string(), default]
    }

    /// The first three columns of every key table in the docs are the
    /// field tables; only the descriptions are hand-written.
    #[test]
    fn docs_key_tables_match_the_field_tables() {
        let docs = [
            include_str!("../../../docs/scenarios.md"),
            include_str!("../../../docs/workloads.md"),
        ]
        .concat();
        let mut documented = 0;
        for section in all_sections() {
            let heading = match section.name {
                "the scenario root" => "## Top level".to_string(),
                name => format!("`{name}`"),
            };
            // Every block under a heading naming the table, up to the next
            // heading; only one of them carries the key table.
            let mut rows: Vec<[String; 3]> = Vec::new();
            let mut lines = docs.lines();
            while let Some(line) = lines.next() {
                if !(line.starts_with('#') && line.contains(&heading)) {
                    continue;
                }
                let block = lines.by_ref().take_while(|line| !line.starts_with('#'));
                let table = block
                    .skip_while(|line| !line.starts_with("| Key | Type | Default |"))
                    .skip(2)
                    .take_while(|line| line.starts_with('|'));
                rows.extend(table.map(|line| {
                    let cells: Vec<&str> = line.split(" | ").collect();
                    let key = cells[0].trim_start_matches("| ");
                    [key.to_string(), cells[1].to_string(), cells[2].to_string()]
                }));
            }
            let mut expected: Vec<[String; 3]> = section
                .fields
                .iter()
                .filter(|f| !matches!(f.kind, Kind::Table(_) | Kind::Tables(_)))
                .map(|f| doc_row(f))
                .collect();
            rows.sort();
            expected.sort();
            assert_eq!(rows, expected, "the key table of {} in docs/ is stale", section.name);
            documented += rows.len();
        }
        assert!(documented > 80, "{documented} keys documented");
    }

    /// The report switches are gone from the schema: a file that still
    /// sets one is told so, with what the table takes.
    #[test]
    fn removed_report_switches_are_unknown_keys() {
        for key in ["skipped_rounds", "schedule_churn", "reinclusion", "adversary", "chaos"] {
            let err = ScenarioSpec::parse(&format!("name = \"x\"\n[analysis]\n{key} = true\n"))
                .unwrap_err()
                .to_string();
            let expected = format!("unknown key `{key}` in [analysis] (allowed: window)");
            assert!(err.contains(&expected), "{err}");
        }
    }

    #[test]
    fn rejects_period_below_two() {
        let err = ScenarioSpec::parse("name = \"x\"\n[hammerhead]\nperiod_rounds = 1\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("period_rounds"), "{err}");
    }

    #[test]
    fn rejects_excluded_stake_above_f() {
        // f = 3 for n = 10; 40% of stake = 4 > f.
        let err = ScenarioSpec::parse("name = \"x\"\n[hammerhead]\nmax_excluded_pct = 40\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn crash_expressions_resolve_per_committee() {
        let spec = ScenarioSpec::parse(
            "name = \"x\"\n[committee]\nsizes = [10, 100]\n[faults]\ncrash_last = \"n/3\"\n",
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs[0].fault_count, 3);
        assert_eq!(plan.runs[1].fault_count, 33);
        // The last validators crash, not the first.
        assert_eq!(plan.runs[0].config.faults.crashed_nodes(), vec![7, 8, 9]);
    }

    #[test]
    fn variants_replace_system_axes() {
        let spec = ScenarioSpec::parse(
            r#"
name = "ablation"
[[variant]]
label = "vote-based"
scoring = "vote-based"
[[variant]]
label = "static"
system = "static-leader"
static_leader = 2
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs.len(), 2);
        assert_eq!(plan.runs[0].variant, "vote-based");
        assert_eq!(
            plan.runs[1].config.validator.schedule,
            ScheduleConfig::StaticLeader(ValidatorId(2))
        );
    }

    #[test]
    fn static_leader_must_be_alive() {
        let err = ScenarioSpec::parse(
            r#"
name = "x"
[faults]
crashed = [0]
[[variant]]
label = "static"
system = "static-leader"
static_leader = 0
"#,
        )
        .unwrap()
        .plan(&PlanOptions::default())
        .unwrap_err();
        assert!(err.to_string().contains("crashed"), "{err}");
    }

    #[test]
    fn quick_overrides_apply_only_with_flag() {
        let spec = ScenarioSpec::parse(
            r#"
name = "x"
[committee]
sizes = [10, 50]
[quick]
sizes = [10]
duration_secs = 5
"#,
        )
        .unwrap();
        assert_eq!(spec.plan(&PlanOptions::default()).unwrap().runs.len(), 2);
        let quick = spec.plan(&PlanOptions { quick: true, ..PlanOptions::default() }).unwrap();
        assert_eq!(quick.runs.len(), 1);
        assert_eq!(quick.runs[0].config.duration_secs, 5);
    }

    #[test]
    fn slowdown_fractions_scale_with_duration() {
        let spec = ScenarioSpec::parse(
            r#"
name = "incident"
[run]
duration_secs = 40
[[faults.slowdown]]
first = "n/10"
at_frac = 0.5
extra_ms = 800
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let config = &plan.runs[0].config;
        // n = 10 → one degraded validator, onset at 20s, +800 ms.
        assert_eq!(
            config.faults.events(),
            &[hh_sim::FaultEvent::Slowdown {
                node: 0,
                from_us: 20_000_000,
                until_us: u64::MAX,
                extra_us: 800_000,
            }]
        );
    }

    #[test]
    fn dynamic_fault_tables_lower_to_a_validated_schedule() {
        let spec = ScenarioSpec::parse(
            r#"
name = "dynamic"
[committee]
size = 7
[run]
duration_secs = 40
[[faults.crash]]
nodes = [3]
at_secs = 8
recover_at_secs = 16
[[faults.partition]]
isolate_first = 2
from_frac = 0.5
until_frac = 0.75
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let config = &plan.runs[0].config;
        use hh_sim::FaultEvent;
        assert_eq!(
            config.faults.events(),
            &[
                FaultEvent::Crash { node: 3, at_us: 8_000_000 },
                FaultEvent::Recover { node: 3, at_us: 16_000_000 },
                FaultEvent::Partition {
                    group_a: vec![0, 1],
                    group_b: vec![2, 3, 4, 5, 6],
                    from_us: 20_000_000,
                    until_us: 30_000_000,
                },
            ]
        );
        assert!(config.faults.has_recoveries());
        // The mid-run crash counts toward the faults label.
        assert_eq!(plan.runs[0].fault_count, 1);
    }

    #[test]
    fn contradictory_fault_schedules_are_rejected() {
        // Recovery with no preceding crash.
        let err =
            ScenarioSpec::parse("name = \"x\"\n[[faults.recover]]\nnodes = [1]\nat_secs = 5\n")
                .unwrap()
                .plan(&PlanOptions::default())
                .unwrap_err();
        assert!(err.to_string().contains("without a preceding crash"), "{err}");

        // Recovery scheduled before its crash.
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[[faults.crash]]\nnodes = [1]\nat_secs = 20\nrecover_at_secs = 10\n",
        )
        .unwrap()
        .plan(&PlanOptions::default())
        .unwrap_err();
        assert!(err.to_string().contains("without a preceding crash"), "{err}");

        // Crashing four of ten at once (f = 3), staggered via mid-run
        // crashes on top of crash_last.
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[faults]\ncrash_last = 3\n[[faults.crash]]\nnodes = [0]\nat_secs = 5\n",
        )
        .unwrap()
        .plan(&PlanOptions::default())
        .unwrap_err();
        assert!(err.to_string().contains("exceeds f"), "{err}");
    }

    #[test]
    fn spec_round_trips_through_toml() {
        let doc = r#"
name = "round"
description = "exercise most knobs"
figure = "Figure 9"
[committee]
sizes = [10, 50]
[load]
tps = [250, 500]
[run]
duration_secs = 30
warmup_secs = 5
seeds = [1, 2]
[network]
model = "flat"
flat_ms = 7
[systems]
run = ["bullshark", "hammerhead"]
[hammerhead]
period_rounds = [4, 20]
max_excluded_pct = [10, 20]
scoring = ["vote-based", "vote-ema-30"]
[faults]
crashed = [1]
crash_last = "n/5"
[[faults.slowdown]]
first = 2
at_frac = 0.5
until_frac = 0.75
extra_ms = 100
[[faults.crash]]
nodes = [0]
at_secs = 10
[[faults.recover]]
nodes = [0]
at_secs = 20
[[faults.partition]]
a = [0, 1]
b = [2, 3]
from_secs = 3
until_frac = 0.5
[[analysis.window]]
name = "late"
from_frac = 0.5
to_frac = 1.0
[quick]
sizes = [10]
tps = [250]
"#;
        let spec = ScenarioSpec::parse(doc).unwrap();
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again, "canonical form:\n{text}");
    }

    #[test]
    fn chaos_entries_parse_and_lower() {
        let spec = ScenarioSpec::parse(
            r#"
name = "chaos-parse"
[run]
duration_secs = 10
[[faults.chaos]]
until_frac = 0.5
drop = 0.3
duplicate = 0.1
[[faults.chaos]]
node = 2
from_frac = 0.5
corrupt = 0.2
reorder_ms = 40
[[faults.chaos]]
from = 0
to = 1
from_secs = 5
until_secs = 7
drop = 0.9
"#,
        )
        .unwrap();
        assert_eq!(spec.faults.chaos.len(), 3);
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let schedule = &plan.runs[0].config.chaos;
        let entries = schedule.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].target, hh_sim::ChaosTarget::AllLinks);
        assert_eq!(entries[0].until_us, 5_000_000, "frac of a 10s run");
        assert_eq!(entries[0].drop, 0.3);
        assert_eq!(entries[1].target, hh_sim::ChaosTarget::Node(2));
        assert_eq!(entries[1].until_us, u64::MAX, "open window runs to the end");
        assert_eq!(entries[1].reorder_us, 40_000, "ms sugar lowers to µs");
        assert_eq!(entries[2].target, hh_sim::ChaosTarget::Pair { from: 0, to: 1 });
        assert_eq!(entries[2].from_us, 5_000_000);
    }

    #[test]
    fn chaos_entries_round_trip_through_toml() {
        let doc = r#"
name = "chaos-round"
[[faults.chaos]]
until_frac = 0.4
drop = 0.25
reorder_ms = 15
[[faults.chaos]]
node = 1
from_frac = 0.4
until_frac = 0.8
duplicate = 0.5
[[faults.chaos]]
from = 2
to = 3
from_secs = 1
corrupt = 0.1
"#;
        let spec = ScenarioSpec::parse(doc).unwrap();
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again, "canonical form:\n{text}");
    }

    #[test]
    fn rejects_mixed_chaos_scope() {
        let err = ScenarioSpec::parse(
            "name = \"x\"\n[[faults.chaos]]\nnode = 1\nfrom = 0\nto = 2\ndrop = 0.5\n",
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Schema(_)), "{err}");
        let err = ScenarioSpec::parse("name = \"x\"\n[[faults.chaos]]\nfrom = 0\ndrop = 0.5\n")
            .unwrap_err();
        assert!(err.to_string().contains("`from` + `to`"), "{err}");
    }

    #[test]
    fn rejects_unrunnable_chaos_schedules_at_plan_time() {
        // Rate out of [0, 1].
        let err = ScenarioSpec::parse("name = \"x\"\n[[faults.chaos]]\ndrop = 1.5\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("chaos schedule"), "{err}");
        // Out-of-range validator for the committee of 10.
        let err = ScenarioSpec::parse("name = \"x\"\n[[faults.chaos]]\nnode = 10\ndrop = 0.5\n")
            .unwrap()
            .plan(&PlanOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("chaos schedule"), "{err}");
    }

    #[test]
    fn overridden_axes_are_revalidated() {
        // --duration below the explicit warmup leaves no measurement window.
        let spec = ScenarioSpec::parse("name = \"x\"\n[run]\nwarmup_secs = 6\n").unwrap();
        let err = spec
            .plan(&PlanOptions { duration_override: Some(5), ..PlanOptions::default() })
            .unwrap_err();
        assert!(err.to_string().contains("measurement window"), "{err}");

        // [quick] committee sizes below the n = 3f + 1 minimum.
        let spec = ScenarioSpec::parse("name = \"x\"\n[quick]\nsizes = 2\n").unwrap();
        assert!(spec.plan(&PlanOptions::default()).is_ok(), "non-quick path is unaffected");
        let err = spec.plan(&PlanOptions { quick: true, ..PlanOptions::default() }).unwrap_err();
        assert!(err.to_string().contains("committee size 2"), "{err}");
    }

    #[test]
    fn conflicting_scalar_and_plural_keys_rejected() {
        for doc in [
            "name = \"x\"\n[committee]\nsize = 50\nsizes = [10]\n",
            "name = \"x\"\n[run]\nseed = 1\nseeds = [2, 3]\n",
        ] {
            let err = ScenarioSpec::parse(doc).unwrap_err();
            assert!(err.to_string().contains("only one of"), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn exclusion_pct_derives_from_total_stake() {
        let spec =
            ScenarioSpec::parse("name = \"x\"\n[hammerhead]\nmax_excluded_pct = 30\n").unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        // Equal-stake committee of 10: total stake 10, 30% → 3 = f.
        let ScheduleConfig::Hammerhead(hh) = &plan.runs[0].config.validator.schedule else {
            panic!("the default system is hammerhead");
        };
        assert_eq!(hh.max_excluded_stake, Some(Stake(3)));
    }

    #[test]
    fn absent_workload_table_is_the_constant_sugar() {
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.workload, WorkloadSpec::default());
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let config = &plan.runs[0].config;
        assert_eq!(config.workload, Workload::constant(), "sugar lowers to the exact default");
        assert_eq!(config.validator.max_block_bytes, usize::MAX);
    }

    #[test]
    fn workload_table_parses_and_lowers() {
        let spec = ScenarioSpec::parse(
            r#"
name = "wl"
[load]
tps = 1000
[run]
duration_secs = 40
[workload]
arrival = "poisson"
mode = "open"
payload_bytes = 512
spread = 2.5
block_bytes = 65536
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let config = &plan.runs[0].config;
        assert_eq!(
            config.workload.phases,
            vec![Phase { from_us: 0, arrival: Arrival::Poisson { scale: 1.0 } }]
        );
        assert_eq!(config.workload.mode, SubmissionMode::Open);
        assert_eq!(config.workload.payload_bytes, 512);
        assert_eq!(config.workload.spread, 2.5);
        assert_eq!(config.validator.max_block_bytes, 65536);
    }

    #[test]
    fn workload_phases_resolve_fracs_and_absolute_rates() {
        let spec = ScenarioSpec::parse(
            r#"
name = "phased"
[load]
tps = 500
[run]
duration_secs = 40
[[workload.phase]]
scale = 0.5
[[workload.phase]]
from_frac = 0.25
arrival = "onoff"
burst_secs = 2.0
idle_secs = 2.0
[[workload.phase]]
from_secs = 30
tps = 1500
arrival = "poisson"
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let workload = &plan.runs[0].config.workload;
        assert_eq!(
            workload.phases,
            vec![
                Phase { from_us: 0, arrival: Arrival::Constant { scale: 0.5 } },
                Phase {
                    from_us: 10_000_000,
                    arrival: Arrival::OnOff { scale: 1.0, burst_secs: 2.0, idle_secs: 2.0 },
                },
                // tps 1500 against the 500 load axis → scale 3.
                Phase { from_us: 30_000_000, arrival: Arrival::Poisson { scale: 3.0 } },
            ]
        );
    }

    #[test]
    fn workload_schema_rejections() {
        for (doc, needle) in [
            ("name = \"x\"\n[workload]\narrival = \"sawtooth\"\n", "unknown arrival"),
            ("name = \"x\"\n[workload]\nmode = \"half-open\"\n", "unknown workload mode"),
            ("name = \"x\"\n[workload]\narrival = \"onoff\"\n", "requires burst_secs"),
            ("name = \"x\"\n[workload]\narrival = \"ramp\"\n", "requires ramp_to_scale"),
            (
                "name = \"x\"\n[workload]\narrival = \"constant\"\nburst_secs = 1.0\n",
                "does not apply",
            ),
            (
                "name = \"x\"\n[workload]\narrival = \"poisson\"\n[[workload.phase]]\nscale = 1.0\n",
                "conflicts with an explicit",
            ),
            (
                "name = \"x\"\n[[workload.phase]]\nscale = 1.0\ntps = 100\n",
                "both `scale` and `tps`",
            ),
            (
                "name = \"x\"\n[[workload.phase]]\narrival = \"ramp\"\nramp_to_scale = 2.0\nscale = 1.0\n",
                "ramp phases take",
            ),
        ] {
            let err = ScenarioSpec::parse(doc).unwrap_err();
            assert!(err.to_string().contains(needle), "doc {doc:?} gave {err}");
        }
    }

    #[test]
    fn workload_value_rejections() {
        for (doc, needle) in [
            ("name = \"x\"\n[workload]\npayload_bytes = 4294967296\n", "does not fit u32"),
            (
                "name = \"x\"\n[workload]\npayload_bytes = 512\nblock_bytes = 100\n",
                "cannot fit one",
            ),
        ] {
            let err = ScenarioSpec::parse(doc).unwrap_err();
            assert!(err.to_string().contains(needle), "doc {doc:?} gave {err}");
        }
    }

    /// The runnable-scenario rules, each with the validator that states
    /// it: every fragment is well-formed TOML of the right types, so it
    /// parses, and `plan()` — the gate `hh-cli run | matrix | list |
    /// validate` all go through — rejects it in the owner's words.
    #[test]
    fn schedule_owned_rules_reject_at_plan_time_in_the_schedules_words() {
        const SLOW: &str = "[[faults.slowdown]]\nfirst = 1\n";
        const CUT: &str = "[[faults.partition]]\n";
        const ONOFF: &str = "[workload]\narrival = \"onoff\"\n";
        const RAMP: &str = "arrival = \"ramp\"\n";
        let cases: &[(&str, String, &str)] = &[
            // FaultSchedule::validate
            ("fault schedule", format!("{SLOW}extra_ms = 0\n"), "validator 0 has zero extra delay"),
            (
                "fault schedule",
                format!("{SLOW}extra_ms = 5\nat_secs = 9\nuntil_secs = 3\n"),
                "slowdown window of validator 0 is empty (9000000µs..3000000µs)",
            ),
            (
                "fault schedule",
                format!("{SLOW}extra_ms = 5\nat_frac = 0.5\nuntil_frac = 0.5\n"),
                "slowdown window of validator 0 is empty",
            ),
            (
                "fault schedule",
                format!("{CUT}isolate_first = 1\nfrom_secs = 9\nuntil_secs = 3\n"),
                "partition window is empty (9000000µs..3000000µs)",
            ),
            (
                "fault schedule",
                format!("{CUT}isolate_first = 1\nfrom_frac = 0.6\nuntil_frac = 0.4\n"),
                "partition window is empty",
            ),
            (
                "fault schedule",
                format!("{CUT}a = []\nb = [1]\nuntil_secs = 5\n"),
                "partition groups must both be non-empty",
            ),
            (
                "fault schedule",
                format!("{CUT}a = [0, 1]\nb = [1, 2]\nuntil_secs = 5\n"),
                "validator 1 is on both sides of a partition",
            ),
            (
                "fault schedule",
                "[faults]\ncrashed = [10]\n".into(),
                "validator 10 is outside the committee of 10",
            ),
            (
                "fault schedule",
                "[faults]\ncrash_last = 4\n".into(),
                "4 validators crashed at once at 0µs exceeds f = 3 for a committee of 10",
            ),
            (
                "fault schedule",
                "[faults]\ncrashed = [0, 1]\ncrash_last = 2\n".into(),
                "exceeds f = 3",
            ),
            // ChaosSchedule::validate
            (
                "chaos schedule",
                "[[faults.chaos]]\nfrom_secs = 9\nuntil_secs = 3\ndrop = 0.5\n".into(),
                "chaos window 0 (all links) is empty (9000000µs..3000000µs)",
            ),
            (
                "chaos schedule",
                "[[faults.chaos]]\nfrom_frac = 0.6\nuntil_frac = 0.4\ndrop = 0.5\n".into(),
                "chaos window 0 (all links) is empty",
            ),
            // Workload::validate
            ("workload", "[workload]\nspread = 0.5\n".into(), "spread must be ≥ 1, got 0.5"),
            (
                "workload",
                "[workload]\npayload_bytes = 2097152\n".into(),
                "payload_bytes 2097152 exceeds the 1048576 cap",
            ),
            (
                "workload",
                format!("{ONOFF}burst_secs = 0.0\nidle_secs = 1.0\n"),
                "burst_secs must be at least 1 µs, got 0",
            ),
            (
                "workload",
                format!("{ONOFF}burst_secs = 1.0\nidle_secs = -1.0\n"),
                "idle_secs must be non-negative, got -1",
            ),
            (
                "workload",
                format!("[workload]\n{RAMP}ramp_from_scale = -1.0\nramp_to_scale = 1.0\n"),
                "ramp scales must be non-negative",
            ),
            (
                "workload",
                format!("[workload]\n{RAMP}ramp_to_scale = 0.0\n"),
                "ramp never leaves zero",
            ),
            (
                "workload",
                format!(
                    "[[workload.phase]]\n{RAMP}ramp_to_scale = 0.0\n\
                     [[workload.phase]]\nfrom_secs = 5\n"
                ),
                "ramp never leaves zero",
            ),
            ("workload", "[[workload.phase]]\nscale = -1.0\n".into(), "bad rate scale -1"),
            (
                "workload",
                "[[workload.phase]]\nscale = 0.0\n".into(),
                "every phase has zero rate — nothing ever arrives",
            ),
            (
                "workload",
                "[[workload.phase]]\nfrom_secs = 5\nscale = 1.0\n".into(),
                "the first phase must start at 0",
            ),
            (
                "workload",
                "[[workload.phase]]\n[[workload.phase]]\nfrom_secs = 0\nscale = 2.0\n".into(),
                "phase starts must be strictly ascending (0 then 0)",
            ),
            (
                "workload",
                "[[workload.phase]]\n[[workload.phase]]\nfrom_frac = 0.5\n\
                 [[workload.phase]]\nfrom_frac = 0.25\n"
                    .into(),
                "phase starts must be strictly ascending (30000000 then 15000000)",
            ),
        ];
        for (owner, fragment, message) in cases {
            let doc = format!("name = \"x\"\n{fragment}");
            let spec = ScenarioSpec::parse(&doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
            match spec.plan(&PlanOptions::default()) {
                Err(ScenarioError::Invalid(text)) => assert!(
                    text.starts_with(&format!("{owner}: ")) && text.contains(message),
                    "{doc:?} gave {text:?}"
                ),
                other => panic!("{doc:?} planned to {:?}", other.map(|plan| plan.runs.len())),
            }
        }
    }

    /// A file integer has no upper bound but `i64`'s; every one that is
    /// scaled into microseconds (or stake) is an invalid scenario, not a
    /// wrapped delay, when the product does not fit.
    #[test]
    fn integers_that_overflow_their_unit_conversion_are_invalid_scenarios() {
        const HUGE: i64 = i64::MAX;
        let byzantine = "[[faults.byzantine]]\nnode = 0\nstrategy =";
        for fragment in [
            format!("[run]\nduration_secs = {HUGE}\n"),
            format!("[hammerhead]\nmax_excluded_pct = {HUGE}\n"),
            format!("[[faults.slowdown]]\nfirst = 1\nextra_ms = {HUGE}\n"),
            format!("[[faults.slowdown]]\nfirst = 1\nextra_ms = 5\nuntil_secs = {HUGE}\n"),
            format!("[[faults.crash]]\nnodes = [0]\nat_secs = {HUGE}\n"),
            format!("[[faults.crash]]\nnodes = [0]\nrecover_at_secs = {HUGE}\n"),
            format!("[[faults.partition]]\nisolate_first = 1\nuntil_secs = {HUGE}\n"),
            format!("{byzantine} \"lazy_leader\"\ndelay_ms = {HUGE}\n"),
            format!("{byzantine} \"flip_flop\"\nflip_secs = {HUGE}\ndelay_ms = 5\n"),
            format!("{byzantine} \"flip_flop\"\nflip_secs = 5\ndelay_ms = {HUGE}\n"),
            format!("{byzantine} \"equivocate\"\nfrom_secs = {HUGE}\n"),
            format!("[[faults.chaos]]\ndrop = 0.5\nreorder_ms = {HUGE}\n"),
            format!("[[faults.chaos]]\ndrop = 0.5\nuntil_secs = {HUGE}\n"),
            format!("[[workload.phase]]\n[[workload.phase]]\nfrom_secs = {HUGE}\n"),
        ] {
            let doc = format!("name = \"x\"\n{fragment}");
            let planned = ScenarioSpec::parse(&doc).and_then(|s| s.plan(&PlanOptions::default()));
            match planned {
                Err(ScenarioError::Invalid(text)) => assert!(
                    text.contains("overflows") || text.contains("max_excluded_stake"),
                    "{doc:?} gave {text:?}"
                ),
                other => panic!("{doc:?} planned to {:?}", other.map(|plan| plan.runs.len())),
            }
        }
        // The `--duration` override is converted by the same rule.
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        let opts = PlanOptions { duration_override: Some(u64::MAX), ..PlanOptions::default() };
        assert!(matches!(spec.plan(&opts), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn fault_entries_that_select_no_validator_are_rejected() {
        for fragment in [
            "[[faults.crash]]\nnodes = []\n",
            "[[faults.crash]]\nfirst = 0\nrecover_at_secs = 5\n",
            "[[faults.slowdown]]\nfirst = 0\nextra_ms = 0\n",
        ] {
            let spec = ScenarioSpec::parse(&format!("name = \"x\"\n{fragment}")).unwrap();
            let err = spec.plan(&PlanOptions::default()).unwrap_err().to_string();
            assert!(err.contains("]] selects no validator"), "{fragment:?} gave {err}");
        }
    }

    #[test]
    fn workload_phase_beyond_duration_rejected_at_plan_time() {
        let spec = ScenarioSpec::parse(
            "name = \"x\"\n[run]\nduration_secs = 10\n\
             [[workload.phase]]\nscale = 1.0\n[[workload.phase]]\nfrom_secs = 20\nscale = 2.0\n",
        )
        .unwrap();
        let err = spec.plan(&PlanOptions::default()).unwrap_err();
        assert!(err.to_string().contains("starts at or after"), "{err}");
    }

    #[test]
    fn workload_round_trips_through_toml() {
        let doc = r#"
name = "wl-round"
[load]
tps = 800
[run]
duration_secs = 30
[workload]
mode = "open"
payload_bytes = 128
spread = 3.0
block_bytes = 32768
[[workload.phase]]
scale = 0.5
[[workload.phase]]
from_frac = 0.3
arrival = "onoff"
burst_secs = 1.5
idle_secs = 2.5
[[workload.phase]]
from_secs = 20
tps = 1200
arrival = "poisson"
[[workload.phase]]
from_frac = 0.9
arrival = "ramp"
ramp_from_scale = 1.0
ramp_to_scale = 2.0
"#;
        let spec = ScenarioSpec::parse(doc).unwrap();
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again, "canonical form:\n{text}");
        // An empty table is the absent one, and the canonical form omits it.
        let minimal = ScenarioSpec::parse("name = \"x\"\n[workload]\n").unwrap();
        assert_eq!(minimal, ScenarioSpec::parse("name = \"x\"\n").unwrap());
        assert!(!minimal.to_toml().contains("workload"), "{}", minimal.to_toml());
    }

    #[test]
    fn duration_and_seed_overrides() {
        let spec = ScenarioSpec::parse(
            "name = \"x\"\n[run]\nduration_secs = 60\nseeds = [1, 2]\n\
             [[analysis.window]]\nname = \"early\"\nto_frac = 0.25\n\
             [[analysis.window]]\nname = \"late\"\nfrom_frac = 0.5\n",
        )
        .unwrap();
        let plan = spec
            .plan(&PlanOptions {
                duration_override: Some(9),
                seed_override: Some(77),
                ..PlanOptions::default()
            })
            .unwrap();
        assert_eq!(plan.runs.len(), 1);
        assert_eq!(plan.runs[0].config.duration_secs, 9);
        assert_eq!(plan.runs[0].config.seed, 77);
        // Warmup and the analysis windows follow the overridden duration.
        assert_eq!(plan.runs[0].config.warmup_secs, 1);
        let windows = |plan: &ScenarioPlan| plan.runs[0].config.windows.clone();
        let (early, late) = ("early".to_string(), "late".to_string());
        assert_eq!(
            windows(&plan),
            [(early.clone(), 0, 2_250_000), (late.clone(), 4_500_000, 9_000_000)]
        );
        let as_written = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(windows(&as_written), [(early, 0, 15_000_000), (late, 30_000_000, 60_000_000)]);
    }
}
