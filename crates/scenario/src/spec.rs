//! The scenario schema: parsing, validation and expansion into concrete
//! [`ExperimentConfig`]s.
//!
//! A scenario file is declarative: it names the committee/load/duration/
//! seed *axes* (scalar or list — lists expand to the cross product), the
//! system variants to compare, the fault schedule, and optional analyses.
//! [`ScenarioSpec::parse`] rejects unknown keys and wrong types, so a
//! typo'd knob fails loudly instead of silently running the default. Every
//! table, the root included, stays the row the schema read it into:
//! [`ScenarioSpec::plan`] lowers the rows per run, judging which of an
//! entry's keys go together as it reads them, and the lowered
//! [`ScheduleConfig`] / [`FaultSchedule`] / [`ByzantineSchedule`] /
//! [`ChaosSchedule`] / [`Workload`] — the values the simulator executes —
//! validate themselves. The full schema is documented in
//! `docs/scenarios.md`.

use hammerhead::{HammerheadConfig, ScheduleConfig, ScoringRule};
use hh_sim::{
    Arrival, ByzantineEntry, ByzantineSchedule, ByzantineStrategy, ChaosEntry, ChaosSchedule,
    ChaosTarget, ExperimentConfig, FaultSchedule, Network, Phase, SubmissionMode, SystemKind,
    Workload,
};
use hh_types::toml::{self, TomlError, Value};
use hh_types::{Committee, Stake, ValidatorId, MAX_COMMITTEE_SIZE, TX_HEADER_BYTES};
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
}

/// A fully parsed scenario file: the row the schema read its root table
/// into, every sub-table a row inside it. [`ScenarioSpec::plan`] lowers the
/// rows per run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    root: Row,
}

// ---------------------------------------------------------------------------
// The schema machinery: field tables, one generic reader, one generic writer
// ---------------------------------------------------------------------------
//
// Every key of a scenario file is declared once, as a `Field` static
// listed in the `Section` of the TOML table it lives in. `Section::read`
// turns a raw TOML table into a `Row` (unknown keys rejected, values
// type-checked and normalised, required keys insisted on) and
// `Row::to_table` turns a `Row` back into TOML (defaults omitted). Every
// table stays a row, read where a run is lowered. No key or default is
// spelled a second time. `docs/scenarios.md` is checked against the same
// tables by a unit test.

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
    /// Nothing: the key is optional, or a cross-key rule decides.
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
    /// Written by the canonical form even when absent, as its default: the
    /// axes and the discriminators (`model`, `system`) stay visible in
    /// `hh-cli validate --dump`.
    shown: bool,
}

/// One TOML table: its name as error messages print it, and its keys.
struct Section {
    name: &'static str,
    fields: &'static [&'static Field],
}

impl fmt::Debug for Section {
    /// The name alone: a row prints its table, not the schema under it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
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
    /// Equal when every key reads the same, given or defaulted: the
    /// canonical form, which omits defaults, re-reads as an equal row.
    fn eq(&self, other: &Row) -> bool {
        let value = |row: &Row, i: usize| {
            row.cells[i].clone().or_else(|| row.section.fields[i].default_cell())
        };
        std::ptr::eq(self.section, other.section)
            && (0..self.cells.len()).all(|i| value(self, i) == value(other, i))
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

    /// The instant a `When` field names in a run of `duration` seconds, in
    /// µs; an optional one left out names the end of the run.
    fn instant_us(&self, field: &Field, duration: u64) -> Result<u64, ScenarioError> {
        self.opt::<WhenSpec>(field).map_or(Ok(u64::MAX), |when| when.resolve_us(duration))
    }

    /// An integer field given in units of `per_unit` µs, in µs.
    fn micros(&self, field: &Field, per_unit: u64) -> Result<u64, ScenarioError> {
        to_micros(self.get(field), per_unit, field.key)
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

    /// The generic writer: every given cell as TOML, and a `shown` field or
    /// a sub-table the file left out as its default; omitted are a scalar
    /// at its field's default (unless the field is `shown`), a sub-table
    /// that writes nothing and an empty array of tables.
    fn to_table(&self) -> BTreeMap<String, Value> {
        let int = |x: u64| Value::Int(x as i64);
        let mut out = BTreeMap::new();
        for (field, cell) in self.section.fields.iter().zip(&self.cells) {
            let scalar = !matches!(field.kind, Kind::Table(_));
            let absent = || field.default_cell().filter(|_| field.shown || !scalar);
            let Some(cell) = cell.clone().or_else(absent) else { continue };
            if scalar && !field.shown && field.default_cell().as_ref() == Some(&cell) {
                continue;
            }
            let value = match &cell {
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
// code that lowers its rows into what a run executes
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
    CLIENT_WINDOW_SECS = "client_window_secs", Kind::F64, Def::F64(2.0);
});

section!(NETWORK_TABLE = "[network]", shares [], {
    MODEL = "model", Kind::Str, Def::Str("geo"), shown;
    FLAT_MS = "flat_ms", Kind::U64, Def::U64(5);
});

fn lower_network(network: &Row) -> Result<Network, ScenarioError> {
    match network.get::<String>(&MODEL).as_str() {
        "geo" if network.has(&FLAT_MS) => {
            Err(schema("`network.flat_ms` only applies to model = \"flat\"".into()))
        }
        "geo" => Ok(Network::Geo),
        "flat" => Ok(Network::Flat { ms: network.get(&FLAT_MS) }),
        other => Err(schema(format!("unknown network model `{other}` (expected geo or flat)"))),
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

// An arrival process is a name plus the parameters that name takes; the
// keys are shared by `[workload]` (single-phase form) and
// `[[workload.phase]]`.
section!(WORKLOAD_TABLE = "[workload]", shares [], {
    ARRIVAL = "arrival", Kind::Str, Def::Str("constant");
    MODE = "mode", Kind::Str, Def::Str("closed");
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

/// The arrival process `row` names, at `scale` times the run's `[load]
/// tps` (a ramp carries its own scales); only the parameters the process
/// takes may be given.
fn lower_arrival(row: &Row, scale: f64) -> Result<Arrival, ScenarioError> {
    let name: String = row.get(&ARRIVAL);
    let variant = format!("arrival = \"{name}\"");
    let param = |field: &Field| {
        row.opt::<f64>(field)
            .ok_or_else(|| schema(format!("{} {variant} requires {}", row.section.name, field.key)))
    };
    let (takes, arrival): (&[&Field], _) = match name.as_str() {
        "constant" => (&[], Arrival::Constant { scale }),
        "poisson" => (&[], Arrival::Poisson { scale }),
        "onoff" => (
            &[&BURST_SECS, &IDLE_SECS],
            Arrival::OnOff {
                scale,
                burst_secs: param(&BURST_SECS)?,
                idle_secs: param(&IDLE_SECS)?,
            },
        ),
        "ramp" => (
            &[&RAMP_FROM_SCALE, &RAMP_TO_SCALE],
            Arrival::Ramp {
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

// Windows and phases start at `from` (default: the start of the run).
section!(PHASE_TABLE = "[[workload.phase]]",
    shares [ARRIVAL, BURST_SECS, IDLE_SECS, RAMP_FROM_SCALE, RAMP_TO_SCALE], {
    FROM = "from", Kind::When, Def::U64(0);
    SCALE = "scale", Kind::F64, Def::F64(1.0);
    PHASE_TPS = "tps", Kind::U64, Def::None;
});

/// Lowers the `[workload]` row for a run of `config`'s duration and load
/// into `config.workload` and the proposer's block bound; whether the
/// workload can run is [`ExperimentConfig::validate`]'s call. A scenario
/// without the table runs exactly [`Workload::constant`], the `[load] tps`
/// sugar.
///
/// The single-phase arrival keys and a `[[workload.phase]]` timeline
/// exclude each other; a phase's rate is a `scale` or an absolute `tps`
/// (divided by the run's load), not both, and a ramp takes neither.
fn lower_workload(workload: &Row, config: &mut ExperimentConfig) -> Result<(), ScenarioError> {
    let (duration, load_tps) = (config.duration_secs, config.load_tps);
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
    if let Some(block_bytes) = workload.opt::<u64>(&BLOCK_BYTES) {
        let one_tx = TX_HEADER_BYTES as u64 + payload_bytes as u64;
        if block_bytes < one_tx {
            return Err(ScenarioError::Invalid(format!(
                "workload block_bytes {block_bytes} cannot fit one {one_tx}-byte transaction"
            )));
        }
        config.validator.max_block_bytes = block_bytes as usize;
    }
    let timeline: Vec<Row> = workload.get(&PHASE);
    let mut single_phase_keys = [&ARRIVAL].into_iter().chain(ARRIVAL_PARAMS);
    let mut phases = Vec::with_capacity(timeline.len().max(1));
    if timeline.is_empty() {
        phases.push(Phase { from_us: 0, arrival: lower_arrival(workload, 1.0)? });
    } else if let Some(key) = single_phase_keys.find(|key| workload.has(key)) {
        return Err(schema(format!(
            "`workload.{}` conflicts with an explicit [[workload.phase]] timeline",
            key.key
        )));
    }
    for phase in &timeline {
        at_most_one(phase, &SCALE, &PHASE_TPS)?;
        let scale = match phase.opt::<u64>(&PHASE_TPS) {
            Some(_) if load_tps == 0 => {
                return Err(ScenarioError::Invalid(
                    "a workload phase gives an absolute tps but the load axis is 0 — use \
                     `scale`, or set [load] tps"
                        .into(),
                ))
            }
            Some(tps) => tps as f64 / load_tps as f64,
            None => phase.get(&SCALE),
        };
        let arrival = lower_arrival(phase, scale)?;
        if matches!(arrival, Arrival::Ramp { .. }) && (phase.has(&SCALE) || phase.has(&PHASE_TPS)) {
            return Err(schema(
                "ramp phases take ramp_from_scale / ramp_to_scale, not scale or tps".into(),
            ));
        }
        phases.push(Phase { from_us: phase.instant_us(&FROM, duration)?, arrival });
    }
    // `Workload::validate` knows the timeline's shape but not where the
    // run ends.
    let duration_us = duration.saturating_mul(1_000_000);
    if let Some(late) = phases.iter().find(|p| p.from_us >= duration_us) {
        return Err(ScenarioError::Invalid(format!(
            "workload phase at {} µs starts at or after the {duration}s run ends",
            late.from_us
        )));
    }
    config.workload = Workload { phases, mode, payload_bytes, spread: workload.get(&SPREAD) };
    Ok(())
}

// A variant names its system and the keys that system reads: one point of
// the `[hammerhead]` axes, or the pinned leader of a static-leader run.
section!(VARIANT_TABLE = "[[variant]]", shares [], {
    LABEL = "label", Kind::Str, Def::Required;
    SYSTEM = "system", Kind::Str, Def::Str("hammerhead"), shown;
    STATIC_LEADER = "static_leader", Kind::Id, Def::U64(0);
    VARIANT_SCORING = "scoring", Kind::Str, Def::None;
    VARIANT_PERIOD_ROUNDS = "period_rounds", Kind::U64, Def::None;
    VARIANT_PCT = "max_excluded_pct", Kind::U64, Def::None;
});

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

/// The validators a fault entry names, in a committee of `n`. Ids outside
/// the committee are the fault schedule's to reject, which never sees an
/// entry that lowers to no event at all.
fn lower_nodes(entry: &Row, n: usize) -> Result<Vec<u16>, ScenarioError> {
    let ids: Vec<u16> = match (entry.opt(&NODES), entry.opt::<CountExpr>(&FIRST)) {
        (Some(ids), None) => ids,
        (None, Some(count)) => (0..count.resolve(n).min(n) as u16).collect(),
        _ => {
            return Err(schema(format!(
                "{} needs exactly one of `{}` (id list) or `{}` (count)",
                entry.section.name, NODES.key, FIRST.key
            )))
        }
    };
    if ids.is_empty() {
        return Err(ScenarioError::Invalid(format!("{} selects no validator", entry.section.name)));
    }
    Ok(ids)
}

// `recover_at` on a crash is sugar for a `[[faults.recover]]` entry of the
// same validators, placed after every explicit one.
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

// A byzantine strategy is a name plus the parameters that name takes.
section!(BYZANTINE_TABLE = "[[faults.byzantine]]", shares [FROM, UNTIL], {
    ATTACKER = "node", Kind::Id, Def::Required;
    STRATEGY = "strategy", Kind::Str, Def::Required;
    TARGETS = "targets", Kind::Ids, Def::None;
    DELAY_MS = "delay_ms", Kind::U64, Def::None;
    FLIP_SECS = "flip_secs", Kind::U64, Def::None;
});

/// Lowers the `[[faults.byzantine]]` entries of a run of `duration`
/// seconds into the [`ByzantineSchedule`], in file order. More than `f`
/// attackers, out-of-range nodes or targets, and overlapping windows per
/// node are [`ByzantineSchedule::validate`]'s to reject.
fn lower_byzantine(faults: &Row, duration: u64) -> Result<ByzantineSchedule, ScenarioError> {
    let mut schedule = ByzantineSchedule::new();
    for entry in faults.get::<Vec<Row>>(&BYZANTINE) {
        let name: String = entry.get(&STRATEGY);
        let variant = format!("the `{name}` strategy");
        let missing = |field: &Field| schema(format!("{variant} requires `{}`", field.key));
        let micros = |field: &Field, per_unit: u64| match entry.opt::<u64>(field) {
            Some(value) => to_micros(value, per_unit, field.key),
            None => Err(missing(field)),
        };
        let (takes, strategy): (&[&Field], _) = match name.as_str() {
            "equivocate" => (&[], ByzantineStrategy::Equivocate),
            "withhold_votes" => (
                &[&TARGETS],
                ByzantineStrategy::WithholdVotes {
                    targets: entry.opt(&TARGETS).ok_or_else(|| missing(&TARGETS))?,
                },
            ),
            "lazy_leader" => (
                &[&DELAY_MS],
                ByzantineStrategy::LazyLeader { delay_us: micros(&DELAY_MS, 1_000)? },
            ),
            "flip_flop" => (
                &[&FLIP_SECS, &DELAY_MS],
                ByzantineStrategy::FlipFlop {
                    flip_us: micros(&FLIP_SECS, 1_000_000)?,
                    delay_us: micros(&DELAY_MS, 1_000)?,
                },
            ),
            other => {
                return Err(schema(format!(
                    "unknown byzantine strategy `{other}` (expected equivocate, withhold_votes, \
                     lazy_leader or flip_flop)"
                )))
            }
        };
        only_params(&entry, &[&TARGETS, &DELAY_MS, &FLIP_SECS], takes, &variant)?;
        schedule = schedule.entry(ByzantineEntry {
            node: entry.get(&ATTACKER),
            strategy,
            from_us: entry.instant_us(&FROM, duration)?,
            until_us: entry.instant_us(&UNTIL, duration)?,
        });
    }
    Ok(schedule)
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

/// Lowers the `[[faults.chaos]]` entries of a run of `duration` seconds
/// into the [`ChaosSchedule`], in file order. Rates outside `[0, 1]`,
/// out-of-range validators, empty or effect-free windows, and ambiguously
/// overlapping same-link windows are [`ChaosSchedule::validate`]'s to
/// reject.
fn lower_chaos(faults: &Row, duration: u64) -> Result<ChaosSchedule, ScenarioError> {
    let mut schedule = ChaosSchedule::new();
    for entry in faults.get::<Vec<Row>>(&CHAOS) {
        let target = match (entry.opt(&CHAOS_NODE), entry.opt(&LINK_FROM), entry.opt(&LINK_TO)) {
            (None, None, None) => ChaosTarget::AllLinks,
            (Some(node), None, None) => ChaosTarget::Node(node),
            (None, Some(from), Some(to)) => ChaosTarget::Pair { from, to },
            _ => {
                return Err(schema(
                    "[[faults.chaos]] afflicts all links by default; narrow it with either \
                     `node` or the directed pair `from` + `to`, not a mix"
                        .into(),
                ))
            }
        };
        schedule = schedule.entry(ChaosEntry {
            target,
            from_us: entry.instant_us(&FROM, duration)?,
            until_us: entry.instant_us(&UNTIL, duration)?,
            drop: entry.get(&DROP),
            duplicate: entry.get(&DUPLICATE),
            corrupt: entry.get(&CORRUPT),
            reorder_us: entry.micros(&REORDER_MS, 1_000)?,
        });
    }
    Ok(schedule)
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

/// The validators down from t=0 in a committee of `n`: `crashed` and the
/// last `crash_last`. Whether they exist and number at most `f` is the
/// fault schedule's call.
fn lower_crashed(faults: &Row, n: usize) -> Result<Vec<u16>, ScenarioError> {
    let mut crashed: Vec<u16> = faults.opt(&CRASHED).unwrap_or_default();
    if let Some(expr) = faults.opt::<CountExpr>(&CRASH_LAST) {
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

/// Lowers the crash, recovery, slowdown and partition entries for a
/// committee of `n` and a run of `duration` seconds, `crashed` (see
/// [`lower_crashed`]) down from t=0, into the [`FaultSchedule`].
/// Recover-before-crash, contradictory windows and more than `f`
/// concurrent crashes are [`FaultSchedule::validate`]'s to reject.
///
/// The simulator numbers same-instant events in insertion order, so the
/// order is part of a run's bytes: `crashed`, the crash entries, the
/// `[[faults.recover]]` entries, each crash's `recover_at`, the slowdowns,
/// the partitions — each kind in file order.
fn lower_fault_schedule(
    faults: &Row,
    n: usize,
    crashed: &[u16],
    duration: u64,
) -> Result<FaultSchedule, ScenarioError> {
    type Event = fn(FaultSchedule, u16, u64) -> FaultSchedule;
    // One event per validator `entry` names, at the instant `at` holds.
    let timed = |schedule: FaultSchedule, entry: &Row, at: &Field, event: Event| {
        let at_us = entry.instant_us(at, duration)?;
        let nodes = lower_nodes(entry, n)?;
        Ok::<_, ScenarioError>(nodes.into_iter().fold(schedule, |s, node| event(s, node, at_us)))
    };
    let entries = |field: &Field| faults.get::<Vec<Row>>(field);
    let crashes = entries(&CRASH);
    let mut schedule = FaultSchedule::new().crash_from_start(crashed.iter().copied());
    for entry in &crashes {
        schedule = timed(schedule, entry, &AT, FaultSchedule::crash)?;
    }
    for entry in &entries(&RECOVER) {
        schedule = timed(schedule, entry, &RESTART_AT, FaultSchedule::recover)?;
    }
    for entry in crashes.iter().filter(|entry| entry.has(&RECOVER_AT)) {
        schedule = timed(schedule, entry, &RECOVER_AT, FaultSchedule::recover)?;
    }
    for entry in &entries(&SLOWDOWN) {
        let from_us = entry.instant_us(&AT, duration)?;
        let until_us = entry.instant_us(&UNTIL, duration)?;
        let extra_us = entry.micros(&EXTRA_MS, 1_000)?;
        for node in lower_nodes(entry, n)? {
            schedule = schedule.slowdown(node, from_us, until_us, extra_us);
        }
    }
    for entry in &entries(&PARTITION) {
        let groups = (entry.opt(&GROUP_A), entry.opt(&GROUP_B));
        let (a, b): (Vec<u16>, Vec<u16>) = match (groups, entry.opt::<CountExpr>(&ISOLATE_FIRST)) {
            ((Some(a), Some(b)), None) => (a, b),
            ((None, None), Some(count)) => {
                let k = count.resolve(n).min(n.saturating_sub(1));
                ((0..k as u16).collect(), (k as u16..n as u16).collect())
            }
            _ => {
                return Err(schema(
                    "[[faults.partition]] needs either both `a` and `b` id lists or \
                     `isolate_first` (count)"
                        .into(),
                ))
            }
        };
        let (from_us, until_us) =
            (entry.instant_us(&FROM, duration)?, entry.instant_us(&HEAL, duration)?);
        schedule = schedule.partition(a, b, from_us, until_us);
    }
    Ok(schedule)
}

section!(WINDOW_TABLE = "[[analysis.window]]", shares [], {
    WINDOW_NAME = "name", Kind::Str, Def::Required;
    FROM_FRAC = "from_frac", Kind::F64, Def::F64(0.0), shown;
    TO_FRAC = "to_frac", Kind::F64, Def::F64(1.0), shown;
});
section!(ANALYSIS_TABLE = "[analysis]", shares [], {
    WINDOW = "window", Kind::Tables(&WINDOW_TABLE), Def::None;
});

/// The `[[analysis.window]]` latency windows over submission times, as
/// `(name, from_us, to_us)` of a run of `duration` seconds.
fn lower_windows(analysis: &Row, duration: u64) -> Result<Vec<(String, u64, u64)>, ScenarioError> {
    let mut windows = Vec::new();
    for window in analysis.get::<Vec<Row>>(&WINDOW) {
        let name: String = window.get(&WINDOW_NAME);
        let (from, to): (f64, f64) = (window.get(&FROM_FRAC), window.get(&TO_FRAC));
        if !(0.0..=1.0).contains(&from) || !(0.0..=1.0).contains(&to) || from >= to {
            return Err(ScenarioError::Invalid(format!(
                "analysis window `{name}` must satisfy 0 <= from_frac < to_frac <= 1"
            )));
        }
        let edge = |frac| WhenSpec::Frac(frac).resolve_us(duration);
        windows.push((name, edge(from)?, edge(to)?));
    }
    Ok(windows)
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

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Parses scenario TOML text and checks what the file alone decides.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(&toml::parse(text)?)
    }

    /// Builds a spec from an already-parsed TOML document (the hook
    /// [`crate::load_with_sets`] uses to patch knobs before schema
    /// validation).
    pub fn from_value(root_value: &Value) -> Result<Self, ScenarioError> {
        let table =
            root_value.as_table().ok_or_else(|| schema("scenario root must be a table".into()))?;
        let mut root = ROOT.read(table)?;
        // A singular spelling names the plural's axis; it is folded in here,
        // once, so only the plural is read or written past this point.
        for (sub, one, many) in [(&COMMITTEE, &SIZE, &SIZES), (&RUN, &SEED, &SEEDS)] {
            let mut row: Row = root.get(sub);
            at_most_one(&row, one, many)?;
            let index = row.index(one);
            if let Some(axis) = row.cells[index].take() {
                root = root.with(sub, row.with(many, axis));
            }
        }
        let spec = ScenarioSpec { root };
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec back to a TOML value (the canonical form used
    /// by round-trip tests and `hh-cli validate --dump`).
    pub fn to_value(&self) -> Value {
        Value::Table(self.root.to_table())
    }

    /// Serializes to canonical TOML text.
    pub fn to_toml(&self) -> String {
        toml::serialize(&self.to_value())
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// What every committee-size and duration axis must satisfy, as parsed and
/// again after the `[quick]` / CLI overrides.
fn check_axes(
    sizes: &[usize],
    durations: &[u64],
    warmup: Option<u64>,
) -> Result<(), ScenarioError> {
    if let Some(small) = sizes.iter().find(|n| **n < 4) {
        return Err(ScenarioError::Invalid(format!(
            "committee size {small} cannot tolerate any fault (n = 3f + 1)"
        )));
    }
    if let Some(large) = sizes.iter().find(|n| **n > MAX_COMMITTEE_SIZE) {
        return Err(ScenarioError::Invalid(format!(
            "committee size {large} exceeds {MAX_COMMITTEE_SIZE}, the number of validator ids"
        )));
    }
    if durations.contains(&0) {
        return Err(ScenarioError::Invalid("duration_secs must be positive".into()));
    }
    for duration in durations {
        to_micros(*duration, 1_000_000, DURATION_SECS.key)?;
    }
    if let Some(w) = warmup {
        if let Some(short) = durations.iter().find(|d| **d <= w) {
            return Err(ScenarioError::Invalid(format!(
                "warmup_secs {w} does not leave a measurement window in a {short}s run"
            )));
        }
    }
    Ok(())
}

impl ScenarioSpec {
    /// What only the spec can know beyond per-key type checks. What the
    /// other tables describe is judged as [`ScenarioSpec::plan`] lowers it,
    /// where the committee size and the run length are known.
    fn validate(&self) -> Result<(), ScenarioError> {
        let run: Row = self.root.get(&RUN);
        let sizes = to_usizes(self.root.get::<Row>(&COMMITTEE).get(&SIZES));
        check_axes(&sizes, &run.get::<Vec<u64>>(&DURATION_SECS), run.opt(&WARMUP_SECS))?;
        let client_window: f64 = run.get(&CLIENT_WINDOW_SECS);
        if client_window.is_nan() || client_window <= 0.0 {
            return Err(ScenarioError::Invalid("client_window_secs must be positive".into()));
        }
        if client_window.is_infinite() {
            return Err(ScenarioError::Invalid("client_window_secs must be finite".into()));
        }
        let variants: Vec<Row> = self.root.get(&VARIANT);
        let mut labels: Vec<String> = variants.iter().map(|v| v.get(&LABEL)).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != variants.len() {
            return Err(ScenarioError::Invalid("variant labels must be unique".into()));
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

/// A HammerHead `[[variant]]` row at one point of the `[hammerhead]` axes;
/// a key the row gives wins over the point's.
fn at_point(row: Row, period: u64, pct: Option<u64>, scoring: &str) -> Row {
    let period = row.opt(&VARIANT_PERIOD_ROUNDS).unwrap_or(period);
    let scoring = row.opt(&VARIANT_SCORING).unwrap_or_else(|| scoring.to_string());
    let pct = row.opt(&VARIANT_PCT).or(pct);
    row.with(&VARIANT_PERIOD_ROUNDS, period)
        .with(&VARIANT_SCORING, scoring)
        .with_opt(&VARIANT_PCT, pct)
}

impl ScenarioSpec {
    /// The `[[variant]]` rows a plan runs, each HammerHead one at its
    /// point of the `[hammerhead]` axes (`periods` is the period axis in
    /// effect). Without `[[variant]]` tables, one row per `[systems] run`
    /// entry, a `hammerhead` entry crossed with the axes; beside them,
    /// every axis is the one point a variant defaults to.
    fn variants(&self, hammerhead: &Row, periods: Vec<u64>) -> Result<Vec<Row>, ScenarioError> {
        let pcts: Vec<Option<u64>> = match hammerhead.opt::<Vec<u64>>(&MAX_EXCLUDED_PCT) {
            Some(pcts) => pcts.into_iter().map(Some).collect(),
            None => vec![None],
        };
        let scorings: Vec<String> = hammerhead
            .get::<Vec<String>>(&SCORING)
            .iter()
            .map(|s| parse_scoring(s).map(scoring_name))
            .collect::<Result<_, _>>()?;
        let given: Vec<Row> = self.root.get(&VARIANT);
        if !given.is_empty() {
            let axes = [
                (&PERIOD_ROUNDS, periods.len()),
                (&MAX_EXCLUDED_PCT, pcts.len()),
                (&SCORING, scorings.len()),
            ];
            if let Some((axis, len)) = axes.into_iter().find(|(_, len)| *len > 1) {
                return Err(schema(format!(
                    "`hammerhead.{}` holds {len} values beside [[variant]] tables, where it is \
                     the one value a variant defaults to; set it per variant instead",
                    axis.key
                )));
            }
            let point = |row: Row| match row.get::<String>(&SYSTEM).as_str() {
                "hammerhead" => at_point(row, periods[0], pcts[0], &scorings[0]),
                _ => row,
            };
            return Ok(given.into_iter().map(point).collect());
        }
        let mut rows = Vec::new();
        for system in self.root.get::<Row>(&SYSTEMS).get::<Vec<String>>(&SYSTEMS_RUN) {
            // Any other system's row takes its label from what it lowers to.
            let row = Row::new(&VARIANT_TABLE).with(&SYSTEM, system.clone());
            if system != "hammerhead" {
                rows.push(row);
                continue;
            }
            for &period in &periods {
                for &pct in &pcts {
                    for scoring in &scorings {
                        let mut label = "hammerhead".to_string();
                        if periods.len() > 1 {
                            label.push_str(&format!("-T{period}"));
                        }
                        if let Some(pct) = pct.filter(|_| pcts.len() > 1) {
                            label.push_str(&format!("-ex{pct}%"));
                        }
                        if scorings.len() > 1 {
                            label.push_str(&format!("-{scoring}"));
                        }
                        rows.push(at_point(row.clone().with(&LABEL, label), period, pct, scoring));
                    }
                }
            }
        }
        Ok(rows)
    }
}

/// Ordered key/value labels identifying a run in reports.
type Labels = Vec<(String, String)>;

/// Lowers a `[[variant]]` row, given or expanded, on `committee` with
/// `crashed` down from t=0: the label of its system, its schedule and the
/// report labels read off that schedule. Of the keys the systems share
/// out, only those its system reads may be given.
fn lower_variant(
    variant: &Row,
    committee: &Committee,
    crashed: &[u16],
) -> Result<(&'static str, ScheduleConfig, Labels), ScenarioError> {
    let name: String = variant.get(&SYSTEM);
    let params = [&STATIC_LEADER, &VARIANT_SCORING, &VARIANT_PERIOD_ROUNDS, &VARIANT_PCT];
    let (system, takes): (_, &[&Field]) = match name.as_str() {
        "bullshark" | "round-robin" => ("bullshark", &[]),
        "hammerhead" => ("hammerhead", &params[1..]),
        "static-leader" => ("static-leader", &params[..1]),
        other => {
            return Err(schema(format!(
                "unknown system `{other}` (expected bullshark, hammerhead or static-leader)"
            )))
        }
    };
    only_params(variant, &params, takes, &format!("system = \"{name}\""))?;
    let n = committee.size();
    match system {
        "hammerhead" => {
            let pct = variant.opt::<u64>(&VARIANT_PCT);
            // Exact in 128 bits; a budget beyond `u64` is beyond `f` too,
            // which `HammerheadConfig::validate` turns away.
            let stake = |pct: u64| {
                let stake = committee.total_stake().0 as u128 * pct as u128 / 100;
                Stake(u64::try_from(stake).unwrap_or(u64::MAX))
            };
            let scoring: String = variant.opt(&VARIANT_SCORING).expect("a variant at its point");
            let hh = HammerheadConfig {
                period_rounds: variant.opt(&VARIANT_PERIOD_ROUNDS).expect("a variant at its point"),
                max_excluded_stake: pct.map(stake),
                scoring_rule: parse_scoring(&scoring)?,
            };
            hh.validate(committee).map_err(|e| {
                let label: String = variant.get(&LABEL);
                ScenarioError::Invalid(format!("variant `{label}` on n = {n}: {e}"))
            })?;
            let labels = vec![
                ("period_rounds".into(), hh.period_rounds.to_string()),
                ("scoring".into(), scoring_name(hh.scoring_rule)),
                ("exclusion".into(), pct.map_or("f".into(), |pct| format!("{pct}%"))),
            ];
            Ok((system, ScheduleConfig::Hammerhead(hh), labels))
        }
        "static-leader" => {
            let leader: u16 = variant.get(&STATIC_LEADER);
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
            Ok((system, ScheduleConfig::StaticLeader(ValidatorId(leader)), Vec::new()))
        }
        _ => Ok((system, ScheduleConfig::RoundRobin, Vec::new())),
    }
}

impl ScenarioSpec {
    /// Expands the axes into concrete runs, lowering and validating every
    /// combination.
    pub fn plan(&self, opts: &PlanOptions) -> Result<ScenarioPlan, ScenarioError> {
        let sub = |field: &Field| self.root.get::<Row>(field);
        let (run, hammerhead, quick) = (sub(&RUN), sub(&HAMMERHEAD), sub(&QUICK));
        // A `[quick]` axis replaces the file's under `--quick` only.
        let axis = |row: &Row, field: &Field, quick_field: &Field| {
            quick
                .opt::<Vec<u64>>(quick_field)
                .filter(|_| opts.quick)
                .unwrap_or_else(|| row.get(field))
        };
        let sizes = to_usizes(axis(&sub(&COMMITTEE), &SIZES, &QUICK_SIZES));
        let loads = axis(&sub(&LOAD), &TPS, &QUICK_TPS);
        let mut durations = axis(&run, &DURATION_SECS, &QUICK_DURATION_SECS);
        if let Some(d) = opts.duration_override {
            if d == 0 {
                return Err(ScenarioError::Invalid("duration override must be positive".into()));
            }
            durations = vec![d];
        }
        let mut seeds = axis(&run, &SEEDS, &QUICK_SEEDS);
        if let Some(s) = opts.seed_override {
            seeds = vec![s];
        }
        let warmup = run.opt::<u64>(&WARMUP_SECS);
        // Quick/CLI overrides bypass parse-time validation, so the
        // effective axes are re-checked here.
        check_axes(&sizes, &durations, warmup)?;
        let network = lower_network(&sub(&NETWORK))?;
        let periods = axis(&hammerhead, &PERIOD_ROUNDS, &QUICK_PERIOD_ROUNDS);
        let variants = self.variants(&hammerhead, periods)?;
        let (workload, faults, analysis) = (sub(&WORKLOAD), sub(&FAULTS), sub(&ANALYSIS));

        let mut runs = Vec::new();
        for &n in &sizes {
            let committee = Committee::new_equal_stake(n);
            let crashed = lower_crashed(&faults, n)?;
            for variant in &variants {
                let (system, schedule, schedule_labels) =
                    lower_variant(variant, &committee, &crashed)?;
                let label = variant.opt::<String>(&LABEL).unwrap_or_else(|| system.to_string());
                for &duration in &durations {
                    for &load in &loads {
                        for &seed in &seeds {
                            // The paper's calibration, at the variant's
                            // schedule.
                            let mut config =
                                ExperimentConfig::paper(SystemKind::Bullshark, n, load);
                            config.duration_secs = duration;
                            config.warmup_secs = warmup.unwrap_or((duration / 6).max(1));
                            config.windows = lower_windows(&analysis, duration)?;
                            config.seed = seed;
                            config.client_window_secs = run.get(&CLIENT_WINDOW_SECS);
                            config.network = network;
                            config.validator.schedule = schedule.clone();
                            lower_workload(&workload, &mut config)?;
                            config.faults = lower_fault_schedule(&faults, n, &crashed, duration)?;
                            config.byzantine = lower_byzantine(&faults, duration)?;
                            config.chaos = lower_chaos(&faults, duration)?;
                            config.validate(&committee).map_err(ScenarioError::Invalid)?;
                            // Fault count = distinct crashed validators
                            // anywhere on the timeline (mid-run crashes
                            // included).
                            let fault_count = config.faults.crashed_nodes().len();
                            let mut labels: Labels = vec![
                                ("variant".into(), label.clone()),
                                ("system".into(), system.into()),
                                ("committee".into(), n.to_string()),
                                ("faults".into(), fault_count.to_string()),
                                ("load_tps".into(), load.to_string()),
                                ("duration_secs".into(), duration.to_string()),
                                ("seed".into(), seed.to_string()),
                            ];
                            labels.extend(schedule_labels.iter().cloned());
                            runs.push(PlannedRun {
                                variant: label.clone(),
                                system: system.to_string(),
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
            name: self.root.get(&NAME),
            description: self.root.get(&DESCRIPTION),
            figure: self.root.opt(&FIGURE),
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "name = \"mini\"\n";

    #[test]
    fn minimal_spec_uses_paper_defaults() {
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        assert_eq!(plan.runs.len(), 1);
        assert_eq!(plan.runs[0].system, "hammerhead");
        let config = &plan.runs[0].config;
        assert_eq!(config.committee_size, 10);
        assert_eq!(config.load_tps, 500);
        assert_eq!(config.duration_secs, 60);
        assert_eq!(config.seed, 42);
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
                // And its default, given or absent, is written only if `shown`.
                if let Some(cell) = expected.filter(|_| !matches!(field.default, Def::None)) {
                    for row in [Row::new(section), Row::new(section).with(field, cell)] {
                        let written = row.to_table();
                        assert_eq!(written.contains_key(&key), field.shown, "{name}: {written:?}");
                    }
                }
            }
        }
    }

    /// Each key, and each string default, is spelled once per `Field`
    /// static in the schema and nowhere else in it: the reader, the
    /// emitter and the lowering go through the statics.
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

    /// The report switches and `[run]`'s GST key (partial synchrony is a
    /// chaos window) are gone from the schema: a file that still sets one
    /// is told so, with what the table takes.
    #[test]
    fn removed_report_switches_are_unknown_keys() {
        let analysis = "window";
        let run = "duration_secs, warmup_secs, seed, seeds, client_window_secs";
        for (table, key, value, allowed) in [
            ("analysis", "skipped_rounds", "true", analysis),
            ("analysis", "schedule_churn", "true", analysis),
            ("analysis", "reinclusion", "true", analysis),
            ("analysis", "adversary", "true", analysis),
            ("analysis", "chaos", "true", analysis),
            // Spelled in two halves: `ci.sh` fails on any other mention.
            ("run", concat!("gst", "_secs"), "3", run),
        ] {
            let err = ScenarioSpec::parse(&format!("name = \"x\"\n[{table}]\n{key} = {value}\n"))
                .unwrap_err()
                .to_string();
            let expected = format!("unknown key `{key}` in [{table}] (allowed: {allowed})");
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

    /// A variant without a budget of its own runs the `[hammerhead]` one,
    /// and its label names that budget, as the `[systems]` expansion's does.
    #[test]
    fn a_variant_labels_the_budget_it_ran() {
        let axis = "name = \"x\"\n[committee]\nsize = 10\n[hammerhead]\nmax_excluded_pct = 20\n";
        for doc in [
            format!("{axis}[[variant]]\nlabel = \"hh\"\n"),
            format!("{axis}[systems]\nrun = \"hammerhead\"\n"),
        ] {
            let plan = ScenarioSpec::parse(&doc).unwrap().plan(&PlanOptions::default()).unwrap();
            let run = &plan.runs[0];
            let label = ("exclusion".to_string(), "20%".to_string());
            assert!(run.labels.contains(&label), "{doc:?}: {:?}", run.labels);
            let ScheduleConfig::Hammerhead(hh) = &run.config.validator.schedule else {
                panic!("{doc:?} runs hammerhead");
            };
            assert_eq!(hh.max_excluded_stake, Some(Stake(2)), "{doc:?}");
        }
    }

    /// Gives a one-variant scenario of `system` the `[[variant]]` keys
    /// `keys`: `Ok` when it plans, else the schema error's words.
    fn variant_keys(system: &str, keys: &str) -> Result<(), String> {
        let doc =
            format!("name = \"x\"\n[[variant]]\nlabel = \"v\"\nsystem = \"{system}\"\n{keys}");
        match ScenarioSpec::parse(&doc).unwrap().plan(&PlanOptions::default()) {
            Ok(_) => Ok(()),
            Err(ScenarioError::Schema(message)) => Err(message),
            Err(other) => panic!("{doc:?} gave {other}"),
        }
    }

    /// `keys` of a `[[variant]]` of `system`, each a schema error naming it.
    fn assert_strays(system: &str, keys: &[&str]) {
        for line in keys {
            let key = line.split(' ').next().unwrap();
            let expected =
                format!("`{key}` in [[variant]] does not apply to system = \"{system}\"");
            assert_eq!(variant_keys(system, &format!("{line}\n")), Err(expected));
        }
    }

    const SCHEDULE_KEYS: [&str; 3] =
        ["scoring = \"leader-outcome\"", "period_rounds = 4", "max_excluded_pct = 20"];

    #[test]
    fn a_bullshark_variant_takes_no_schedule_keys() {
        assert_strays("bullshark", &SCHEDULE_KEYS);
        assert_strays("bullshark", &["static_leader = 3"]);
        assert_eq!(variant_keys("bullshark", ""), Ok(()));
    }

    #[test]
    fn a_hammerhead_variant_takes_no_static_leader() {
        assert_strays("hammerhead", &["static_leader = 3"]);
        assert_eq!(variant_keys("hammerhead", &format!("{}\n", SCHEDULE_KEYS.join("\n"))), Ok(()));
    }

    #[test]
    fn a_static_leader_variant_takes_no_hammerhead_keys() {
        assert_strays("static-leader", &SCHEDULE_KEYS);
        assert_eq!(variant_keys("static-leader", "static_leader = 3\n"), Ok(()));
    }

    /// Beside `[[variant]]` tables a `[hammerhead]` axis, as `[quick]` and
    /// `--set` leave it, is the one value a variant defaults to.
    #[test]
    fn hammerhead_axes_beside_variants_hold_one_value() {
        // `hh-cli run scenarios/byzantine.toml --quick --set
        // hammerhead.period_rounds=4,20`
        let path = crate::repo_scenarios_dir().join("byzantine.toml");
        let sets = [crate::parse_set("hammerhead.period_rounds=4,20").unwrap()];
        let spec = crate::load_with_sets(&path, &sets).unwrap();
        let quick = PlanOptions { quick: true, ..PlanOptions::default() };
        let err = spec.plan(&quick).unwrap_err().to_string();
        assert!(
            err.starts_with("schema error: `hammerhead.period_rounds` holds 2 values"),
            "{err}"
        );
        for (axis, key) in [
            ("max_excluded_pct = [10, 20]", "max_excluded_pct"),
            ("scoring = [\"vote-based\", \"leader-outcome\"]", "scoring"),
        ] {
            let doc = format!("name = \"x\"\n[hammerhead]\n{axis}\n[[variant]]\nlabel = \"v\"\n");
            let err = plan_error(&doc).to_string();
            assert!(err.contains(&format!("`hammerhead.{key}` holds 2 values")), "{err}");
        }
        // A one-value `[quick]` axis is the one the variants read.
        let spec = ScenarioSpec::parse(
            "name = \"x\"\n[hammerhead]\nperiod_rounds = 8\n[[variant]]\nlabel = \"v\"\n\
             [quick]\nperiod_rounds = 4\n",
        )
        .unwrap();
        let period = |opts: &PlanOptions| match &spec.plan(opts).unwrap().runs[0]
            .config
            .validator
            .schedule
        {
            ScheduleConfig::Hammerhead(hh) => hh.period_rounds,
            other => panic!("{other:?}"),
        };
        assert_eq!(period(&PlanOptions::default()), 8);
        assert_eq!(period(&quick), 4);
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

    /// The simulator numbers same-instant events in insertion order, so the
    /// lowering's order is part of a run's bytes: `crashed` / `crash_last`,
    /// crashes, `[[faults.recover]]` entries, each crash's `recover_at`,
    /// slowdowns, partitions — whatever order the file gives them in.
    #[test]
    fn fault_events_keep_the_lowering_order() {
        let spec = ScenarioSpec::parse(
            r#"
name = "order"
[committee]
size = 10
[run]
duration_secs = 20
[faults]
crash_last = 1
[[faults.partition]]
isolate_first = 1
from_secs = 5
until_secs = 6
[[faults.slowdown]]
nodes = [3]
at_secs = 5
extra_ms = 10
[[faults.recover]]
nodes = [2]
at_secs = 5
[[faults.crash]]
nodes = [1]
at_secs = 2
recover_at_secs = 5
[[faults.crash]]
nodes = [2]
at_secs = 3
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        use hh_sim::FaultEvent::{Crash, Partition, Recover, Slowdown};
        let s = 1_000_000;
        assert_eq!(
            plan.runs[0].config.faults.events(),
            &[
                Crash { node: 9, at_us: 0 },
                Crash { node: 1, at_us: 2 * s },
                Crash { node: 2, at_us: 3 * s },
                Recover { node: 2, at_us: 5 * s },
                Recover { node: 1, at_us: 5 * s },
                Slowdown { node: 3, from_us: 5 * s, until_us: u64::MAX, extra_us: 10_000 },
                Partition {
                    group_a: vec![0],
                    group_b: (1..10).collect(),
                    from_us: 5 * s,
                    until_us: 6 * s,
                },
            ]
        );
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

    /// Parses `doc` and returns why it does not plan.
    fn plan_error(doc: &str) -> ScenarioError {
        let spec = ScenarioSpec::parse(doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
        spec.plan(&PlanOptions::default()).map(|plan| plan.runs.len()).unwrap_err()
    }

    #[test]
    fn rejects_mixed_chaos_scope() {
        let err =
            plan_error("name = \"x\"\n[[faults.chaos]]\nnode = 1\nfrom = 0\nto = 2\ndrop = 0.5\n");
        assert!(matches!(err, ScenarioError::Schema(_)), "{err}");
        let err = plan_error("name = \"x\"\n[[faults.chaos]]\nfrom = 0\ndrop = 0.5\n");
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

    /// A validator id is a `u16`: a larger committee would wrap ids (and
    /// keys) onto earlier members, so it is no scenario.
    #[test]
    fn committees_beyond_the_validator_ids_are_invalid() {
        let err = ScenarioSpec::parse("name = \"x\"\n[committee]\nsize = 65537\n").unwrap_err();
        let expected = "invalid scenario: committee size 65537 exceeds 65536, the number of \
                        validator ids";
        assert_eq!(err.to_string(), expected);
        // And a `[quick]` axis is held to the same bound.
        let spec = ScenarioSpec::parse("name = \"x\"\n[quick]\nsizes = 70000\n").unwrap();
        let err = spec.plan(&PlanOptions { quick: true, ..PlanOptions::default() }).unwrap_err();
        assert!(err.to_string().contains("committee size 70000 exceeds"), "{err}");
    }

    /// The reader turns an overflowing literal away, and a value patched in
    /// past it (as `hh-cli --set` patches) must still be a finite, positive
    /// window.
    #[test]
    fn client_window_must_be_finite_and_positive() {
        let err =
            ScenarioSpec::parse("name = \"x\"\n[run]\nclient_window_secs = 1e400\n").unwrap_err();
        assert!(err.to_string().contains("bad float `1e400`"), "{err}");
        for (window, words) in [
            (f64::NAN, "client_window_secs must be positive"),
            (-1.0, "client_window_secs must be positive"),
            (f64::INFINITY, "client_window_secs must be finite"),
        ] {
            let mut root = toml::parse(MINIMAL).unwrap();
            let Value::Table(table) = &mut root else { unreachable!("a document is a table") };
            let run = BTreeMap::from([("client_window_secs".to_string(), Value::Float(window))]);
            table.insert("run".into(), Value::Table(run));
            let err = ScenarioSpec::from_value(&root).unwrap_err();
            assert_eq!(err.to_string(), format!("invalid scenario: {words}"), "{window}");
        }
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
            let err = plan_error(doc);
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
            let err = plan_error(doc);
            assert!(err.to_string().contains(needle), "doc {doc:?} gave {err}");
        }
    }

    /// The runnable-scenario rules, each with the validator that states
    /// it: every fragment is well-formed TOML of the right types, so it
    /// parses, and `plan()` — the gate `hh-cli run | list | validate` all
    /// go through — rejects it in the owner's words.
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
