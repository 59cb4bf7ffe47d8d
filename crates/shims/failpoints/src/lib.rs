//! Failpoint injection harness, in the spirit of the `fail` crate (offline
//! stand-in: the build environment has no crates.io access).
//!
//! A *failpoint* is a named fault site compiled into production code. With
//! the `failpoints` cargo feature **off** (the default) every
//! [`fail_point!`] invocation expands to nothing — zero code, zero branches
//! on the hot paths. With the feature **on**, each invocation consults a
//! process-global registry and can be made to panic, sleep, run a callback,
//! or early-return a typed error, either programmatically ([`cfg()`],
//! [`cfg_callback`]) or from the `FAILPOINTS` environment variable.
//!
//! Action grammar (a subset of the `fail` crate's):
//!
//! ```text
//! FAILPOINTS = point=action[;point=action...]
//! action     = [N*]kind[(arg)]
//! kind       = off | panic | return | delay
//! ```
//!
//! `N*` fires the action at most `N` times, then the point goes inert.
//! `panic(msg)` panics with `msg` as payload, `delay(ms)` sleeps,
//! `return(msg)` makes the two-argument form of [`fail_point!`] early-return
//! through its closure. Callbacks are programmatic-only.
//!
//! Injection points live in the pool workers (`pool.worker`), CSV chunk
//! parsing (`csv.chunk`), DP row fills (`dp.fill_row`), the comparator
//! fan-out (`comparator.method.<name>`), and the serve tier's network and
//! cache seams (`serve.accept`, `serve.read`, `serve.write`,
//! `serve.handler`, `serve.cache`); see `tests/fault_injection.rs` in the
//! facade crate for the suite that drives them.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Central registry of every `fail_point!` site name in the workspace.
///
/// `pta-analyzer`'s `failpoint-registry` rule enforces the contract both
/// ways: every `fail_point!` call site must appear here exactly once, every
/// entry must match a live call site, and every entry must be exercised by
/// `tests/fault_injection.rs`. A trailing `*` marks a prefix entry for
/// sites whose name is built with `format!` (one entry covers the family).
pub const FAILPOINT_SITES: &[&str] = &[
    "pool.worker",
    "csv.chunk",
    "dp.fill_row",
    "comparator.method.*",
    "serve.accept",
    "serve.read",
    "serve.write",
    "serve.handler",
    "serve.cache",
];

/// What a triggered failpoint does.
#[derive(Clone)]
enum Action {
    /// Registered but inert (also the post-`N*` exhausted state).
    Off,
    /// Panic with the given payload message.
    Panic(String),
    /// Make the two-argument `fail_point!` form early-return `f(msg)`.
    Return(String),
    /// Sleep for the given number of milliseconds.
    Delay(u64),
    /// Run an arbitrary callback (programmatic only, e.g. "cancel the
    /// token the k-th time this row fill starts").
    Callback(std::sync::Arc<dyn Fn() + Send + Sync>),
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Off => write!(f, "off"),
            Action::Panic(m) => write!(f, "panic({m})"),
            Action::Return(m) => write!(f, "return({m})"),
            Action::Delay(ms) => write!(f, "delay({ms})"),
            Action::Callback(_) => write!(f, "callback"),
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    action: Action,
    /// `Some(n)`: fire at most `n` more times (the `N*` prefix).
    remaining: Option<usize>,
}

fn registry() -> &'static Mutex<HashMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Error returned by [`cfg()`] / [`FailScenario::setup`] on a malformed spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid failpoint spec: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_action(spec: &str) -> Result<Entry, ParseError> {
    let spec = spec.trim();
    let (remaining, body) = match spec.split_once('*') {
        Some((count, rest)) => {
            let n = count
                .trim()
                .parse::<usize>()
                .map_err(|_| ParseError(format!("bad count in {spec:?}")))?;
            (Some(n), rest.trim())
        }
        None => (None, spec),
    };
    let (kind, arg) = match body.split_once('(') {
        Some((kind, rest)) => {
            let arg = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseError(format!("unclosed argument in {spec:?}")))?;
            (kind.trim(), Some(arg))
        }
        None => (body, None),
    };
    let action = match kind {
        "off" => Action::Off,
        "panic" => Action::Panic(arg.unwrap_or("failpoint panic").to_string()),
        "return" => Action::Return(arg.unwrap_or("failpoint return").to_string()),
        "delay" => {
            let ms = arg
                .unwrap_or("")
                .trim()
                .parse::<u64>()
                .map_err(|_| ParseError(format!("bad delay in {spec:?}")))?;
            Action::Delay(ms)
        }
        other => return Err(ParseError(format!("unknown action kind {other:?}"))),
    };
    Ok(Entry { action, remaining })
}

/// Configures failpoint `name` from an action spec, e.g. `"panic(boom)"`,
/// `"delay(10)"`, `"2*return(bad row)"`, `"off"`.
pub fn cfg(name: impl Into<String>, spec: &str) -> Result<(), ParseError> {
    let entry = parse_action(spec)?;
    registry().lock().unwrap_or_else(PoisonError::into_inner).insert(name.into(), entry);
    Ok(())
}

/// Configures failpoint `name` to run `f` each time it is hit. The callback
/// runs inline at the fault site — keep it small and non-blocking.
pub fn cfg_callback(name: impl Into<String>, f: impl Fn() + Send + Sync + 'static) {
    let entry = Entry { action: Action::Callback(std::sync::Arc::new(f)), remaining: None };
    registry().lock().unwrap_or_else(PoisonError::into_inner).insert(name.into(), entry);
}

/// Removes the configuration for `name` (the point becomes a no-op).
pub fn remove(name: &str) {
    registry().lock().unwrap_or_else(PoisonError::into_inner).remove(name);
}

/// Removes every configured failpoint.
pub fn clear() {
    registry().lock().unwrap_or_else(PoisonError::into_inner).clear();
}

/// Names of currently configured failpoints (diagnostics).
pub fn list() -> Vec<String> {
    registry().lock().unwrap_or_else(PoisonError::into_inner).keys().cloned().collect()
}

/// Claims one firing of `name`, honoring the `N*` counter. Returns the
/// action to perform, or `None` when the point is unconfigured/exhausted.
fn claim(name: &str) -> Option<Action> {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let entry = reg.get_mut(name)?;
    if let Some(n) = entry.remaining.as_mut() {
        if *n == 0 {
            return None;
        }
        *n -= 1;
    }
    Some(entry.action.clone())
}

/// Evaluates the unit form of a failpoint: panics, delays, and callbacks
/// fire; `return` actions are ignored (there is nothing to return through).
/// Called by the expansion of `fail_point!(name)` — not directly.
#[doc(hidden)]
pub fn eval(name: &str) {
    match claim(name) {
        None | Some(Action::Off) | Some(Action::Return(_)) => {}
        // pta-lint: allow(no-panic-in-lib) — panicking *is* the configured
        // fault: the injected action exists to test panic isolation.
        Some(Action::Panic(msg)) => panic!("{msg}"),
        Some(Action::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(Action::Callback(f)) => f(),
    }
}

/// Evaluates the early-return form: like [`eval`], but a `return(msg)`
/// action yields `Some(msg)` for the call site to map into its error type.
#[doc(hidden)]
pub fn eval_return(name: &str) -> Option<String> {
    match claim(name) {
        None | Some(Action::Off) => None,
        // pta-lint: allow(no-panic-in-lib) — panicking *is* the configured
        // fault: the injected action exists to test panic isolation.
        Some(Action::Panic(msg)) => panic!("{msg}"),
        Some(Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        Some(Action::Callback(f)) => {
            f();
            None
        }
        Some(Action::Return(msg)) => Some(msg),
    }
}

/// RAII scope for env-driven failpoint runs: `setup` parses `FAILPOINTS`
/// into the registry, `Drop` clears it. Tests sharing one process must
/// serialize scenarios (the registry is global).
#[derive(Debug)]
pub struct FailScenario {
    _private: (),
}

impl FailScenario {
    /// Parses the `FAILPOINTS` environment variable (`point=action;...`)
    /// into the global registry, replacing whatever was configured.
    pub fn setup() -> Result<Self, ParseError> {
        clear();
        if let Ok(spec) = std::env::var("FAILPOINTS") {
            for pair in spec.split(';').filter(|s| !s.trim().is_empty()) {
                let (name, action) = pair
                    .split_once('=')
                    .ok_or_else(|| ParseError(format!("missing '=' in {pair:?}")))?;
                cfg(name.trim(), action)?;
            }
        }
        Ok(Self { _private: () })
    }

    /// Explicit teardown (also runs on drop).
    pub fn teardown(self) {}
}

impl Drop for FailScenario {
    fn drop(&mut self) {
        clear();
    }
}

/// Marks a named fault site.
///
/// `fail_point!("name")` — the unit form; `panic`/`delay`/callback actions
/// fire here. `fail_point!("name", |msg| expr)` — the early-return form;
/// a `return(msg)` action makes the enclosing function return `expr`
/// (typically an `Err` built from `msg`).
///
/// With the `failpoints` feature off both forms expand to nothing: the
/// arguments are not evaluated and no code is generated.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        $crate::eval(&*$name);
    }};
    ($name:expr, $ret:expr) => {{
        if let Some(__fp_msg) = $crate::eval_return(&*$name) {
            #[allow(clippy::redundant_closure_call)]
            return ($ret)(__fp_msg);
        }
    }};
}

/// Disabled expansion: no code, arguments unevaluated.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{}};
    ($name:expr, $ret:expr) => {{}};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests in this module serialize on a
    // lock so their configurations cannot interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_action("explode").is_err());
        assert!(parse_action("delay(abc)").is_err());
        assert!(parse_action("x*panic").is_err());
        assert!(parse_action("panic(unclosed").is_err());
    }

    #[test]
    fn unconfigured_point_is_inert() {
        let _g = serial();
        clear();
        eval("tests.nothing");
        assert_eq!(eval_return("tests.nothing"), None);
    }

    #[test]
    fn return_action_yields_message() {
        let _g = serial();
        clear();
        cfg("tests.ret", "return(bad row)").unwrap();
        assert_eq!(eval_return("tests.ret").as_deref(), Some("bad row"));
        // The unit form ignores `return` actions.
        eval("tests.ret");
        remove("tests.ret");
        assert_eq!(eval_return("tests.ret"), None);
    }

    #[test]
    fn counted_action_exhausts() {
        let _g = serial();
        clear();
        cfg("tests.count", "2*return(x)").unwrap();
        assert!(eval_return("tests.count").is_some());
        assert!(eval_return("tests.count").is_some());
        assert_eq!(eval_return("tests.count"), None);
        clear();
    }

    #[test]
    fn panic_action_panics_with_payload() {
        let _g = serial();
        clear();
        cfg("tests.panic", "panic(kaboom)").unwrap();
        let caught = std::panic::catch_unwind(|| eval("tests.panic"));
        clear();
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "kaboom");
    }

    #[test]
    fn callback_runs_each_hit() {
        let _g = serial();
        clear();
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hits.clone();
        cfg_callback("tests.cb", move || {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        eval("tests.cb");
        eval("tests.cb");
        clear();
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn scenario_round_trip() {
        let _g = serial();
        clear();
        // No FAILPOINTS in the test env: setup just clears.
        let sc = FailScenario::setup().unwrap();
        assert!(list().is_empty());
        cfg("tests.scoped", "delay(0)").unwrap();
        sc.teardown();
        assert!(list().is_empty());
    }
}
