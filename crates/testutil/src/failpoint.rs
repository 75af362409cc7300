//! A tiny deterministic fault-injection facility — no dependencies, no
//! overhead when disarmed.
//!
//! Production code plants named *sites* with [`hit`]; tests (or the
//! `DVA_FAILPOINTS` environment variable, via [`arm_from_env`]) *arm*
//! a site with a [`Failpoint`] describing when and how it fires. A
//! disarmed site costs one relaxed atomic load — nothing else, no lock,
//! no allocation — so the sites are safe to leave in hot serving paths.
//!
//! Triggers are deterministic: a site fires by *hit count* (`skip` the
//! first N matching hits, then fire up to `times` times) and optionally
//! only for hits whose *detail* string contains `filter`. Combined with
//! the repo's byte-identical simulation invariant, this makes every
//! chaos test reproducible: the same failpoint spec fires at the same
//! hit under any thread count when selected by `filter`.
//!
//! The environment grammar, one spec per `;`-separated segment:
//!
//! ```text
//! name=action[@SKIP][xTIMES][:filter]
//! ```
//!
//! where `action` is `panic` or `io_error`, `@SKIP` skips the first
//! SKIP matching hits (default 0), `xTIMES` caps the firings (default
//! unlimited), and `:filter` restricts matching to hits whose detail
//! contains the given substring. Example:
//! `DVA_FAILPOINTS="serve.cache.write=io_error x1;sim.point=panic:trfd|L30"`.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site and the hit's detail.
    Panic,
    /// Return an [`io::Error`] (kind `Other`) naming the site.
    IoError,
}

/// An armed fault: the action plus its deterministic trigger.
#[derive(Debug, Clone)]
pub struct Failpoint {
    /// What happens when the trigger condition is met.
    pub action: FailAction,
    /// Matching hits to let through before the first firing.
    pub skip: u64,
    /// Maximum number of firings (`u64::MAX` = unlimited).
    pub times: u64,
    /// Fire only on hits whose detail contains this substring
    /// (`None` = every hit matches).
    pub filter: Option<String>,
}

impl Failpoint {
    /// A failpoint firing on every matching hit, no skip, no filter.
    pub fn new(action: FailAction) -> Failpoint {
        Failpoint {
            action,
            skip: 0,
            times: u64::MAX,
            filter: None,
        }
    }

    /// Skips the first `skip` matching hits before firing.
    #[must_use]
    pub fn skip(mut self, skip: u64) -> Failpoint {
        self.skip = skip;
        self
    }

    /// Caps the firings at `times`.
    #[must_use]
    pub fn times(mut self, times: u64) -> Failpoint {
        self.times = times;
        self
    }

    /// Fires only on hits whose detail contains `filter`.
    #[must_use]
    pub fn filter(mut self, filter: impl Into<String>) -> Failpoint {
        self.filter = Some(filter.into());
        self
    }
}

#[derive(Debug)]
struct SiteState {
    point: Failpoint,
    /// Hits whose detail matched the filter (fired or not).
    matched: u64,
    /// Times the site actually fired.
    fired: u64,
}

/// Whether *any* site is armed — the disarmed fast path reads only this.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `name` with `point`, replacing any previous arming (and
/// resetting its counters).
pub fn arm(name: &str, point: Failpoint) {
    let mut sites = registry().lock().unwrap();
    sites.insert(
        name.to_string(),
        SiteState {
            point,
            matched: 0,
            fired: 0,
        },
    );
    ARMED.store(true, Ordering::Release);
}

/// Disarms `name`; a no-op when it was not armed.
pub fn disarm(name: &str) {
    let mut sites = registry().lock().unwrap();
    sites.remove(name);
    if sites.is_empty() {
        ARMED.store(false, Ordering::Release);
    }
}

/// Disarms every site.
pub fn disarm_all() {
    registry().lock().unwrap().clear();
    ARMED.store(false, Ordering::Release);
}

/// How many times `name` has fired since it was armed.
pub fn fired(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .get(name)
        .map_or(0, |site| site.fired)
}

/// A fault-injection site. `detail` is computed lazily — only when the
/// site is armed — and feeds both the trigger filter and the panic
/// message, so sites in hot paths stay free when disarmed.
///
/// Returns `Err` when an armed [`FailAction::IoError`] fires; callers
/// thread it into their own I/O result. [`FailAction::Panic`] does not
/// return.
///
/// # Panics
///
/// Panics when an armed [`FailAction::Panic`] fires.
pub fn hit(name: &str, detail: impl FnOnce() -> String) -> io::Result<()> {
    if !ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let action = {
        let mut sites = registry().lock().unwrap();
        let Some(site) = sites.get_mut(name) else {
            return Ok(());
        };
        let detail = detail();
        if let Some(filter) = &site.point.filter {
            if !detail.contains(filter.as_str()) {
                return Ok(());
            }
        }
        site.matched += 1;
        if site.matched <= site.point.skip || site.fired >= site.point.times {
            return Ok(());
        }
        site.fired += 1;
        (site.point.action, detail)
    };
    // The lock is released before firing: a panic here must not poison
    // the registry for the rest of the test process.
    match action {
        (FailAction::Panic, detail) => {
            panic!("failpoint {name} fired: {detail}")
        }
        (FailAction::IoError, detail) => Err(io::Error::other(format!(
            "failpoint {name} fired: {detail}"
        ))),
    }
}

/// Arms sites from the `DVA_FAILPOINTS` environment variable (see the
/// module docs for the grammar). Unset or empty means no arming; a
/// malformed spec panics — a chaos run with a mistyped spec silently
/// testing nothing is worse than a loud failure.
///
/// # Panics
///
/// Panics on a malformed spec.
pub fn arm_from_env() {
    let Ok(specs) = std::env::var("DVA_FAILPOINTS") else {
        return;
    };
    for spec in specs.split(';').filter(|s| !s.trim().is_empty()) {
        let (name, point) = parse_spec(spec.trim())
            .unwrap_or_else(|e| panic!("malformed DVA_FAILPOINTS spec {spec:?}: {e}"));
        arm(&name, point);
    }
}

/// Parses one `name=action[@SKIP][xTIMES][:filter]` spec.
fn parse_spec(spec: &str) -> Result<(String, Failpoint), String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| "missing '='".to_string())?;
    if name.is_empty() {
        return Err("empty site name".into());
    }
    let (trigger, filter) = match rest.split_once(':') {
        Some((trigger, filter)) => (trigger, Some(filter.to_string())),
        None => (rest, None),
    };
    let mut action_str = trigger.trim();
    let mut skip = 0;
    let mut times = u64::MAX;
    if let Some((head, times_str)) = action_str.split_once('x') {
        times = times_str
            .trim()
            .parse()
            .map_err(|_| format!("bad times {times_str:?}"))?;
        action_str = head.trim();
    }
    if let Some((head, skip_str)) = action_str.split_once('@') {
        skip = skip_str
            .trim()
            .parse()
            .map_err(|_| format!("bad skip {skip_str:?}"))?;
        action_str = head.trim();
    }
    let action = match action_str {
        "panic" => FailAction::Panic,
        "io_error" => FailAction::IoError,
        other => return Err(format!("unknown action {other:?}")),
    };
    let point = Failpoint {
        action,
        skip,
        times,
        filter,
    };
    Ok((name.to_string(), point))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so each test uses its own site
    // names and the suite stays order-independent.

    #[test]
    fn disarmed_sites_are_free() {
        assert!(hit("fp.test.never-armed", || unreachable!()).is_ok());
    }

    #[test]
    fn io_error_fires_with_skip_and_times() {
        arm(
            "fp.test.io",
            Failpoint::new(FailAction::IoError).skip(2).times(1),
        );
        assert!(hit("fp.test.io", || "a".into()).is_ok());
        assert!(hit("fp.test.io", || "b".into()).is_ok());
        let err = hit("fp.test.io", || "c".into()).unwrap_err();
        assert!(err.to_string().contains("fp.test.io"), "{err}");
        // `times(1)` is exhausted: subsequent hits pass through.
        assert!(hit("fp.test.io", || "d".into()).is_ok());
        assert_eq!(fired("fp.test.io"), 1);
        disarm("fp.test.io");
        assert!(hit("fp.test.io", || "e".into()).is_ok());
    }

    #[test]
    fn filters_select_by_detail() {
        arm(
            "fp.test.filter",
            Failpoint::new(FailAction::IoError).filter("target"),
        );
        assert!(hit("fp.test.filter", || "other hit".into()).is_ok());
        assert!(hit("fp.test.filter", || "the target hit".into()).is_err());
        assert!(hit("fp.test.filter", || "the target again".into()).is_err());
        disarm("fp.test.filter");
    }

    #[test]
    #[should_panic(expected = "failpoint fp.test.panic fired: boom-detail")]
    fn panic_action_panics_with_the_detail() {
        arm("fp.test.panic", Failpoint::new(FailAction::Panic));
        let _ = hit("fp.test.panic", || "boom-detail".into());
    }

    #[test]
    fn env_grammar_round_trips() {
        let (name, p) = parse_spec("serve.cache.write=io_error").unwrap();
        assert_eq!(name, "serve.cache.write");
        assert_eq!(p.action, FailAction::IoError);
        assert_eq!((p.skip, p.times), (0, u64::MAX));
        assert!(p.filter.is_none());

        let (name, p) = parse_spec("sim.point=panic@3x2:trfd|L30").unwrap();
        assert_eq!(name, "sim.point");
        assert_eq!(p.action, FailAction::Panic);
        assert_eq!((p.skip, p.times), (3, 2));
        assert_eq!(p.filter.as_deref(), Some("trfd|L30"));

        assert!(parse_spec("nonsense").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=panic@notanumber").is_err());
    }
}
