//! Deterministic fault-injection points for crash-recovery and
//! degradation testing.
//!
//! A *failpoint* is a named site in production code where a test can
//! inject a failure: a process crash (`abort`, indistinguishable from
//! `kill -9` to the recovery path), an unwinding panic, a sleep that
//! holds the thread, or a synthetic error the call site maps to its own
//! error type. Sites are compiled behind the `enabled` feature — the
//! default build inlines every hit to `Action::Nothing` with zero
//! registry, zero atomics, zero branches on config.
//!
//! Arming is a spec string:
//!
//! ```text
//! serve.journal.torn=crash@3,serve.worker.run=sleep(3000)@10,serve.worker.run=panic@20
//! ```
//!
//! Each entry is `name=action[@n]` where `action` is `crash`, `panic`,
//! `error` or `sleep(<ms>)`, and `@n` (1-based) fires the action on
//! exactly the *n*-th hit of that site — every other hit is a no-op.
//! Without `@n` the action fires on every hit. A name may repeat: its
//! arms share one hit counter. Malformed entries (no `=`, an unknown
//! action, an `@n` that is not a positive integer) are skipped. Hit
//! counting is deterministic, so a test that arms `crash@3` kills the
//! process at the same program point on every run.
//!
//! There are two ways to arm a spec:
//!
//! - **Process-wide**, from the `FLOWC_FAILPOINTS` environment variable,
//!   read once at the first hit. Tests use it to arm a spawned server
//!   binary.
//! - **Thread-scoped**, with [`scoped`]: the returned [`Scope`] arms its
//!   sites for the calling thread only, shadowing process-wide arms of
//!   the same name, until it is dropped. In-process tests use it, so
//!   tests running in parallel never see each other's faults.
//!
//! This is the same discipline as the conform crate's `broken-oracle`
//! plant (a deliberate bug behind a feature gate, used to prove the
//! harness catches it): the failpoints exist to prove the journal, the
//! atomic writers and the degradation ladder actually survive the
//! failures they claim to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::marker::PhantomData;

/// What a failpoint hit asks the call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Not armed (or armed for a different hit count): proceed normally.
    Nothing,
    /// Fail this operation with an injected error.
    Error,
    /// Crash the process here. Call sites that need to misbehave *before*
    /// dying (e.g. write half a record to simulate a torn tail) observe
    /// this and abort themselves; plain sites use [`fire`].
    Crash,
    /// Panic (unwind) here.
    Panic,
    /// Block the calling thread for this many milliseconds.
    Sleep(u64),
}

/// Guard returned by [`scoped`]: its arms apply to the calling thread
/// until it is dropped. Not `Send`, so it cannot disarm another thread.
#[must_use = "the scoped arms are removed when the Scope is dropped"]
pub struct Scope {
    #[cfg(feature = "enabled")]
    id: u64,
    _thread_bound: PhantomData<*const ()>,
}

#[cfg(feature = "enabled")]
mod registry {
    use super::Action;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// The arms of one site, sharing its hit counter.
    #[derive(Debug, Default)]
    struct Site {
        hits: u64,
        /// `(action, 1-based hit that fires; None fires every hit)`.
        arms: Vec<(Action, Option<u64>)>,
    }

    impl Site {
        fn hit(&mut self) -> Action {
            self.hits += 1;
            let hits = self.hits;
            self.arms
                .iter()
                .find(|(_, at)| at.is_none_or(|at| at == hits))
                .map_or(Action::Nothing, |&(action, _)| action)
        }
    }

    type Sites = HashMap<String, Site>;

    fn parse(spec: &str) -> Sites {
        let mut sites = Sites::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((name, rhs)) = entry.split_once('=') else {
                continue;
            };
            let (action, at) = match rhs.split_once('@') {
                Some((a, n)) => match n.trim().parse::<u64>() {
                    Ok(n) if n > 0 => (a, Some(n)),
                    _ => continue,
                },
                None => (rhs, None),
            };
            let action = match action.trim() {
                "crash" => Action::Crash,
                "error" => Action::Error,
                "panic" => Action::Panic,
                a => match a
                    .strip_prefix("sleep(")
                    .and_then(|a| a.strip_suffix(')'))
                    .and_then(|ms| ms.trim().parse().ok())
                {
                    Some(ms) => Action::Sleep(ms),
                    None => continue,
                },
            };
            sites
                .entry(name.trim().to_string())
                .or_default()
                .arms
                .push((action, at));
        }
        sites
    }

    fn global() -> &'static Mutex<Sites> {
        static GLOBAL: OnceLock<Mutex<Sites>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Mutex::new(
                std::env::var("FLOWC_FAILPOINTS").map_or_else(|_| Sites::new(), |s| parse(&s)),
            )
        })
    }

    thread_local! {
        /// This thread's live scopes, innermost last, tagged by scope id.
        static SCOPES: RefCell<Vec<(u64, Sites)>> = const { RefCell::new(Vec::new()) };
    }

    pub fn push_scope(spec: &str) -> u64 {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        SCOPES.with(|s| s.borrow_mut().push((id, parse(spec))));
        id
    }

    pub fn pop_scope(id: u64) {
        SCOPES.with(|s| s.borrow_mut().retain(|(i, _)| *i != id));
    }

    pub fn hit(name: &str) -> Action {
        let scoped = SCOPES.with(|s| {
            s.borrow_mut()
                .iter_mut()
                .rev()
                .find_map(|(_, sites)| sites.get_mut(name))
                .map(Site::hit)
        });
        scoped.unwrap_or_else(|| {
            let mut global = global().lock().unwrap_or_else(|e| e.into_inner());
            global.get_mut(name).map_or(Action::Nothing, Site::hit)
        })
    }
}

/// Records one hit of the failpoint `name` and returns the armed action
/// (if the hit count matches the arm). With the `enabled` feature off
/// this is a free inline no-op. `name` is anything displayable, so a
/// computed name (`format_args!("compact.rung.{rung}")`) is only
/// rendered when failpoints are compiled in.
#[cfg(feature = "enabled")]
pub fn hit(name: impl Display) -> Action {
    registry::hit(&name.to_string())
}

/// Records one hit of the failpoint `name` and returns the armed action.
/// This build has failpoints compiled out: always [`Action::Nothing`].
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn hit(_name: impl Display) -> Action {
    Action::Nothing
}

/// Hits `name` and performs its armed action: `crash` aborts the process
/// raw (`std::process::abort`, so no destructor, flush, or unwind runs —
/// exactly the guarantee-free death a `kill -9` delivers), `panic`
/// unwinds, and `sleep` blocks the thread. Returns `true` only when the
/// site is armed to `error`; the call site then fails with its own
/// error type.
#[inline]
pub fn fire(name: impl Display) -> bool {
    match hit(&name) {
        Action::Nothing => false,
        Action::Error => true,
        Action::Crash => std::process::abort(),
        Action::Panic => panic!("failpoint `{name}` fired"),
        Action::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
    }
}

/// Arms `spec` (the `FLOWC_FAILPOINTS` grammar) for the calling thread
/// only, until the returned [`Scope`] is dropped. Scoped arms shadow
/// process-wide arms of the same name, and each scope counts its own
/// hits. Threads the caller spawns are not armed. No-op when failpoints
/// are compiled out.
pub fn scoped(spec: &str) -> Scope {
    #[cfg(not(feature = "enabled"))]
    let _ = spec;
    Scope {
        #[cfg(feature = "enabled")]
        id: registry::push_scope(spec),
        _thread_bound: PhantomData,
    }
}

#[cfg(feature = "enabled")]
impl Drop for Scope {
    fn drop(&mut self) {
        registry::pop_scope(self.id);
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn scoped_arms_count_and_fire_deterministically() {
        // Unarmed points do nothing.
        assert_eq!(hit("nope"), Action::Nothing);
        assert!(!fire("nope"));

        let _fp = scoped(
            "t.exact=error@3,t.every=error,t.slow=sleep(1)@1,t.boom=panic,\
             t.multi=error@2,t.multi=panic@4",
        );
        // `@n` arms fire on exactly the n-th hit, once.
        assert!(!fire("t.exact"));
        assert!(!fire("t.exact"));
        assert!(fire("t.exact"));
        assert!(!fire("t.exact"), "one-shot: only the 3rd hit fires");

        // Unconditional arms fire every hit.
        assert!(fire("t.every"));
        assert!(fire("t.every"));

        assert_eq!(hit("t.slow"), Action::Sleep(1));
        assert_eq!(hit("t.slow"), Action::Nothing);
        assert!(std::panic::catch_unwind(|| fire("t.boom")).is_err());

        // A repeated name: both arms share one counter.
        let multi: Vec<Action> = (0..5).map(|_| hit("t.multi")).collect();
        use Action::{Error, Nothing, Panic};
        assert_eq!(multi, [Nothing, Error, Nothing, Panic, Nothing]);
    }

    #[test]
    fn malformed_entries_are_skipped() {
        let _fp =
            scoped("garbage,no-equals,x=warp@2,s=sleep(x),typo=crash@abc,zero=crash@0,z=error@1");
        for name in ["garbage", "x", "s", "typo", "zero"] {
            for _ in 0..3 {
                assert_eq!(hit(name), Action::Nothing, "{name} must not be armed");
            }
        }
        // Valid siblings still parse.
        assert!(fire("z"));
    }

    #[test]
    fn scopes_are_thread_local_shadow_outer_arms_and_disarm_on_drop() {
        let outer = scoped("t.site=error");
        std::thread::spawn(|| assert_eq!(hit("t.site"), Action::Nothing))
            .join()
            .unwrap();
        {
            let _inner = scoped("t.site=error@2");
            assert_eq!(hit("t.site"), Action::Nothing, "inner arm shadows outer");
            assert_eq!(hit("t.site"), Action::Error);
        }
        assert_eq!(hit("t.site"), Action::Error, "outer arm is back");
        drop(outer);
        assert_eq!(hit("t.site"), Action::Nothing, "drop disarms");
    }
}
