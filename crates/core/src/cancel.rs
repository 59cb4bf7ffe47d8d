//! Cooperative cancellation for long-running reductions.
//!
//! A [`CancelToken`] is a cheap, shareable handle carrying an optional
//! cancellation flag and an optional deadline. The exact DP, the error
//! curve, and the greedy merge loops poll it at row/window (respectively
//! merge-batch) granularity, so an `n = 2·10⁶` run can be aborted from
//! another thread — or by a wall-clock deadline — within one row's worth
//! of work instead of running to completion. A fired token surfaces as
//! the typed errors [`CoreError::Cancelled`] /
//! [`CoreError::DeadlineExceeded`], both carrying the partial-progress
//! [`DpStats`] of the aborted run.
//!
//! The default token is *inert*: no allocation, and
//! [`CancelToken::check`] is a handful of branches — cheap enough to sit
//! inside the DP row fills (the `bench_dp` gate pins the overhead of an
//! armed token at ≤ 2 % on the hot row-fill point).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::dp::DpStats;
use crate::error::CoreError;

/// A shareable cancellation handle: an atomic flag, an optional deadline,
/// and (for tests) an optional check-count fuse. Clones share the flag —
/// cancelling any clone cancels them all — while the deadline is
/// per-token state, so a derived token (see
/// [`CancelToken::with_deadline_in`]) can tighten the deadline without
/// affecting its parent.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Shared cancellation flag; `None` on inert/deadline-only tokens.
    flag: Option<Arc<AtomicBool>>,
    /// Absolute deadline; checks fail once `Instant::now()` passes it.
    deadline: Option<Instant>,
    /// Test aid: remaining successful checks before the token trips.
    fuse: Option<Arc<AtomicUsize>>,
}

impl CancelToken {
    /// A cancellable token: [`CancelToken::cancel`] on any clone makes
    /// every subsequent [`CancelToken::check`] fail.
    pub fn new() -> Self {
        Self { flag: Some(Arc::new(AtomicBool::new(false))), deadline: None, fuse: None }
    }

    /// An inert token that never fires — the default everywhere a token
    /// is threaded through options. [`CancelToken::cancel`] on it is a
    /// no-op (there is no shared flag to raise).
    pub fn inert() -> Self {
        Self::default()
    }

    /// A cancellable token that also fails once the absolute `deadline`
    /// passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self { deadline: Some(deadline), ..Self::new() }
    }

    /// A cancellable token failing `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Test aid: a token whose `n`-th [`CancelToken::check`] (0-based)
    /// reports [`CoreError::Cancelled`] — the cancellation-point sweep
    /// uses it to abort a run at every single check site
    /// deterministically.
    pub fn cancel_after_checks(n: usize) -> Self {
        Self { flag: None, deadline: None, fuse: Some(Arc::new(AtomicUsize::new(n))) }
    }

    /// A token sharing this one's cancellation flag but additionally
    /// bounded by a deadline `timeout` from now (kept only if tighter
    /// than the existing deadline). This is how the Comparator derives
    /// per-method deadlines from one caller token.
    pub fn with_deadline_in(&self, timeout: Duration) -> Self {
        let candidate = Instant::now() + timeout;
        let deadline = match self.deadline {
            Some(d) if d <= candidate => Some(d),
            _ => Some(candidate),
        };
        Self { flag: self.flag.clone(), deadline, fuse: self.fuse.clone() }
    }

    /// Raises the shared cancellation flag. No-op on [`CancelToken::inert`]
    /// tokens, which carry no flag; every other constructor provides one.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token would fail a [`CancelToken::check`] right now
    /// (flag raised, fuse exhausted, or deadline passed). Does not
    /// consume a fuse step.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.as_ref().is_some_and(|f| f.load(Ordering::Relaxed)) {
            return true;
        }
        if self.fuse.as_ref().is_some_and(|f| f.load(Ordering::Relaxed) == 0) {
            return true;
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether this token can ever fire (false only for the inert
    /// default) — lets hot loops skip even the polling branch pattern
    /// when nothing is armed.
    pub fn is_armed(&self) -> bool {
        self.flag.is_some() || self.deadline.is_some() || self.fuse.is_some()
    }

    /// Polls the token: `Err(CoreError::Cancelled)` once the flag is
    /// raised (or the fuse exhausts), `Err(CoreError::DeadlineExceeded)`
    /// once the deadline passes, `Ok(())` otherwise. The errors carry
    /// default (empty) [`DpStats`]; the run loops overwrite them with
    /// the actual partial progress on the way out
    /// ([`CoreError::with_dp_progress`]).
    #[inline]
    pub fn check(&self) -> Result<(), CoreError> {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return Err(CoreError::Cancelled { stats: DpStats::default() });
            }
        }
        if let Some(fuse) = &self.fuse {
            let exhausted = fuse
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_err();
            if exhausted {
                return Err(CoreError::Cancelled { stats: DpStats::default() });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(CoreError::DeadlineExceeded { stats: DpStats::default() });
            }
        }
        Ok(())
    }
}

/// Tokens compare by identity of their shared state, not by value: two
/// clones are equal, two independently created tokens are not, and inert
/// tokens all compare equal. This keeps `DpOptions: PartialEq` meaningful
/// ("same run configuration").
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        let flags = match (&self.flag, &other.flag) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        let fuses = match (&self.fuse, &other.fuse) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        flags && fuses && self.deadline == other.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::inert();
        assert!(!t.is_armed());
        for _ in 0..1000 {
            t.check().unwrap();
        }
        t.cancel();
        t.check().unwrap();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_fires_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.check().unwrap();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(CoreError::Cancelled { .. })));
        assert!(matches!(clone.check(), Err(CoreError::Cancelled { .. })));
    }

    #[test]
    fn deadline_fires_as_deadline_exceeded() {
        let t = CancelToken::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(CoreError::DeadlineExceeded { .. })));
        // An explicit cancel takes precedence over the deadline report.
        t.cancel();
        assert!(matches!(t.check(), Err(CoreError::Cancelled { .. })));
    }

    #[test]
    fn far_deadline_does_not_fire() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(t.is_armed());
        t.check().unwrap();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn fuse_counts_checks() {
        let t = CancelToken::cancel_after_checks(3);
        for i in 0..3 {
            assert!(t.check().is_ok(), "check {i} should pass");
        }
        assert!(matches!(t.check(), Err(CoreError::Cancelled { .. })));
        assert!(matches!(t.check(), Err(CoreError::Cancelled { .. })));
        assert!(t.is_cancelled());
    }

    #[test]
    fn derived_deadline_shares_the_flag() {
        let base = CancelToken::new();
        let derived = base.with_deadline_in(Duration::from_secs(3600));
        derived.check().unwrap();
        base.cancel();
        assert!(matches!(derived.check(), Err(CoreError::Cancelled { .. })));
        // The tighter of two deadlines wins.
        let outer = CancelToken::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let inner = outer.with_deadline_in(Duration::from_secs(3600));
        assert!(matches!(inner.check(), Err(CoreError::DeadlineExceeded { .. })));
    }

    #[test]
    fn identity_equality() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_eq!(CancelToken::inert(), CancelToken::inert());
        assert_ne!(a, CancelToken::inert());
    }
}
