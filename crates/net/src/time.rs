//! Simulation time.
//!
//! Time is a `u64` count of microseconds since simulation start. A second
//! newtype, [`Duration`], represents spans. Microsecond resolution keeps
//! arithmetic exact for multi-hour simulated runs while resolving sub-
//! millisecond network jitter.

use std::fmt;

/// An instant on the simulation clock (microseconds since start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// An instant `secs` seconds after start.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// An instant `ms` milliseconds after start.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Microseconds since start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since start, as a float (for metrics output).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl std::ops::Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

/// A span of simulation time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// A span of `secs` seconds.
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// A span of `ms` milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// A span of `us` microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// The span in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the span by an integer factor (saturating).
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_micros(7).as_micros(), 7);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        // Saturation, not wraparound.
        assert_eq!(SimTime::MAX + Duration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
        assert_eq!(Duration::from_millis(3).to_string(), "3.0ms");
        assert_eq!(Duration::from_micros(12).to_string(), "12us");
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(Duration::from_secs(1).saturating_mul(3), Duration::from_secs(3));
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
    }
}
