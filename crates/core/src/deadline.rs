//! Wall-clock budgets and deadlines.
//!
//! PR 5 gave `tit-replay` a `--max-wall` watchdog: when the wall-clock
//! budget expires, the replay checkpoints at the next safe point and
//! stops instead of being lost. The serving layer (`tit-serve`) needs
//! the same idea per *request*: every replay request carries a budget,
//! and a request that overruns returns a quantified partial result
//! instead of hogging a worker forever. This module is the one shared
//! vocabulary both enforce deadlines through.
//!
//! A [`Budget`] is a *declaration* — "this work may spend at most D
//! wall-clock seconds" (or is unlimited). Calling [`Budget::start`]
//! anchors it at the current instant and yields a [`Deadline`], the
//! *running* form that the simulation loop polls at its safe points.
//! Keeping the two separate makes the common bug impossible: a budget
//! stored in a config struct never starts ticking until the work
//! actually begins.

use std::time::{Duration, Instant};

/// A wall-clock spending limit that has not started ticking yet.
///
/// `Budget` is plain data (`Copy`, comparable), so it can live in
/// configuration structs, be defaulted, and be parsed from CLI flags or
/// request fields. [`Budget::start`] turns it into a running
/// [`Deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    limit: Option<Duration>,
}

impl Budget {
    /// No limit: [`Deadline::expired`] is always false.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget { limit: None }
    }

    /// At most `limit` of wall-clock time.
    #[must_use]
    pub fn limited(limit: Duration) -> Self {
        Budget { limit: Some(limit) }
    }

    /// At most `secs` seconds; negative or non-finite values clamp to a
    /// zero budget (already expired), mirroring how a watchdog treats a
    /// nonsensical limit as "stop at the first safe point". A finite
    /// limit longer than [`Duration`] holds saturates to
    /// [`Duration::MAX`], which never expires.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            Budget::limited(Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX))
        } else {
            Budget::limited(Duration::ZERO)
        }
    }

    /// The declared limit, `None` when unlimited.
    #[must_use]
    pub fn limit(&self) -> Option<Duration> {
        self.limit
    }

    /// True when no limit was declared.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.limit.is_none()
    }

    /// Anchors the budget at the current instant: the returned
    /// [`Deadline`] expires once the limit has elapsed from *now*. A
    /// limit that ends past the last [`Instant`] never expires.
    #[must_use]
    pub fn start(&self) -> Deadline {
        Deadline { at: self.limit.and_then(|l| Instant::now().checked_add(l)) }
    }
}

/// A running deadline produced by [`Budget::start`].
///
/// Cheap to copy and to poll; simulation loops consult
/// [`Deadline::expired`] at their safe points.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires (an unlimited budget, started).
    #[must_use]
    pub fn unlimited() -> Self {
        Deadline { at: None }
    }

    /// True once the budget has been spent. Never true for an unlimited
    /// budget.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before expiry: `None` when unlimited, zero once
    /// expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// True when this deadline can never expire. Lets hot loops skip
    /// the [`Instant::now`] call of [`Deadline::expired`] entirely.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.limit(), None);
        let d = b.start();
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        assert!(!Deadline::unlimited().expired());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Budget::limited(Duration::ZERO).start();
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_is_not_expired_yet() {
        let b = Budget::from_secs_f64(3600.0);
        assert_eq!(b.limit(), Some(Duration::from_secs(3600)));
        let d = b.start();
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3599));
    }

    #[test]
    fn nonsense_seconds_clamp_to_zero() {
        for s in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let b = Budget::from_secs_f64(s);
            assert_eq!(b.limit(), Some(Duration::ZERO), "secs={s}");
            assert!(b.start().expired(), "secs={s}");
        }
        // 0.0 itself is "no time at all", not "unlimited".
        assert!(Budget::from_secs_f64(0.0).start().expired());
    }

    #[test]
    fn limits_past_the_clock_never_expire() {
        // 1e19 s fits a Duration but not an Instant; 1e20 s and f64::MAX
        // fit neither.
        for secs in [1e19, 1e20, f64::MAX] {
            let b = Budget::from_secs_f64(secs);
            assert!(!b.is_unlimited(), "secs={secs}");
            let d = b.start();
            assert!(!d.expired(), "secs={secs}");
            assert_eq!(d.remaining(), None, "secs={secs}");
        }
        assert!(!Budget::limited(Duration::MAX).start().expired());
    }

    #[test]
    fn budget_is_plain_data() {
        let a = Budget::limited(Duration::from_millis(5));
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(Budget::default(), Budget::unlimited());
    }

    #[test]
    fn budget_does_not_tick_until_started() {
        let b = Budget::limited(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(20));
        // Declared 20ms ago, but started now: not expired.
        assert!(!b.start().expired());
    }
}
