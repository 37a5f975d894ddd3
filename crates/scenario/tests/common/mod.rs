//! What the three `*_roundtrip.rs` property suites share: the generator's
//! random stream, the instants it picks, the tables every generated
//! scenario starts with, and the first invariant of each.

use hh_scenario::{PlanOptions, ScenarioSpec};

/// The run length of every generated scenario.
pub const DURATION_SECS: u64 = 20;

/// The root tables every generated scenario starts with: a committee of
/// `n` on a flat network, one 20 s run.
pub fn base(name: &str, n: usize) -> String {
    format!(
        "name = \"{name}\"\n[committee]\nsizes = {n}\n[run]\nduration_secs = {DURATION_SECS}\n\
         warmup_secs = 2\n[network]\nmodel = \"flat\"\n"
    )
}

/// Parses generated scenario text, which is always well-formed.
pub fn parse(text: &str) -> ScenarioSpec {
    ScenarioSpec::parse(text)
        .unwrap_or_else(|e| panic!("generated text does not parse: {e}\n{text}"))
}

/// An instant of a generated run, in whole seconds: spelled `<key>_secs`,
/// or `<key>_frac` where that is exact (multiples of 5 s are quarter
/// fractions of the 20 s run).
#[derive(Clone, Copy)]
pub struct When {
    pub secs: u64,
    frac: bool,
}

impl When {
    pub fn secs(secs: u64) -> When {
        When { secs, frac: false }
    }

    /// # Panics
    ///
    /// Panics unless `secs` is a quarter of the run.
    pub fn frac(secs: u64) -> When {
        assert!(secs.is_multiple_of(5), "{secs} s is no exact fraction of the run");
        When { secs, frac: true }
    }

    /// A random instant in `[lo_secs, hi_secs)`, spelled as a fraction a
    /// third of the time that is exact.
    pub fn random(rng: &mut Mix, lo_secs: u64, hi_secs: u64) -> When {
        let secs = lo_secs + rng.below(hi_secs.saturating_sub(lo_secs).max(1));
        When { secs, frac: rng.below(3) == 0 && secs.is_multiple_of(5) }
    }

    /// The line that gives `key` this instant.
    pub fn line(self, key: &str) -> String {
        match self.frac {
            true => format!("{key}_frac = {:?}\n", self.secs as f64 / DURATION_SECS as f64),
            false => format!("{key}_secs = {}\n", self.secs),
        }
    }

    /// The µs it resolves to.
    pub fn us(self) -> u64 {
        self.secs * 1_000_000
    }
}

/// SplitMix64 — drives the shape choices for one case.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// `plan()`'s verdict on a spec: the number of runs, or why not.
fn verdict(spec: &ScenarioSpec) -> Result<usize, String> {
    spec.plan(&PlanOptions::default()).map(|plan| plan.runs.len()).map_err(|e| e.to_string())
}

/// The TOML round trip: the canonical serialization of `spec` re-parses
/// to an equal spec whether or not `spec` can run — that is `plan()`'s
/// call alone — and the re-parse plans iff `spec` does, with the same
/// error text. A spec whose generator broke a rule (`spoiled` holds the
/// words it must be rejected in) must fail in the words of `owner`, the
/// validator that states the rule. Returns whether `spec` plans.
pub fn assert_round_trip(spec: &ScenarioSpec, owner: &str, spoiled: Option<&str>) -> bool {
    let text = spec.to_toml();
    let again = ScenarioSpec::parse(&text)
        .unwrap_or_else(|e| panic!("canonical TOML does not re-parse: {e}\n{text}"));
    assert_eq!(&again, spec, "canonical form:\n{text}");
    let planned = verdict(spec);
    assert_eq!(verdict(&again), planned, "canonical form:\n{text}");
    match (spoiled, &planned) {
        (Some(words), Err(error)) => assert!(
            error.starts_with(&format!("invalid scenario: {owner}: ")) && error.contains(words),
            "expected `{words}` in: {error}\n{text}"
        ),
        (Some(words), Ok(_)) => panic!("a spec with `{words}` planned:\n{text}"),
        (None, Err(error)) => panic!("a valid spec was rejected: {error}\n{text}"),
        (None, Ok(_)) => {}
    }
    planned.is_ok()
}
