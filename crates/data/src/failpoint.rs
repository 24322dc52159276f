//! A seeded fail-point registry (fail-rs-style) for deterministic fault
//! injection.
//!
//! A *fail point* is a named site in production code — `"serve.step"`,
//! `"cache.shard"`, `"snapshot.load"` — where a test, chaos experiment or
//! example can inject a failure: either a panic (to exercise panic
//! isolation and lock poisoning) or an error (the site maps it to its own
//! typed error). Every build compiles every site; while nothing is
//! configured a site costs one relaxed atomic load. The registry lives in
//! the data substrate because every layer with a site depends on it.
//!
//! Triggers are **deterministic**: no wall clock, no global RNG. Counter
//! triggers ([`Trigger::Always`], [`Trigger::Nth`], [`Trigger::Prob`])
//! derive from a per-site call counter (exact under a fixed single-thread
//! call order); [`Trigger::KeyProb`] hashes a caller-supplied key (a
//! session id, a group id) with a fixed seed, so *which* keys fault is
//! independent of thread interleaving — the property the chaos harness
//! needs to predict the faulted set and pin survivor determinism.
//!
//! Configuration is global (the whole point is reaching sites buried
//! under several layers), so concurrently configured scenarios would
//! interfere; [`FailScenario::setup`] serializes scenarios behind one
//! process-wide lock and clears the registry on drop, the same contract
//! as fail-rs. The sites are live in every build, so a site armed outside
//! a scenario would fault every test in its process: [`configure`] panics
//! then, and a test binary that arms a site holds a scenario in every test.
//!
//! ```
//! use vexus_data::failpoint as fp;
//! let scenario = fp::FailScenario::setup();
//! fp::configure("demo.site", fp::Trigger::Nth(2), fp::FailAction::Error);
//! assert!(!fp::hit("demo.site")); // call 1
//! assert!(fp::hit("demo.site")); // call 2 fires
//! drop(scenario); // registry cleared
//! assert!(!fp::hit("demo.site"));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, TryLockError};

/// What a fired fail point does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site — exercises `catch_unwind`
    /// isolation and lock poisoning in the layers above.
    Panic,
    /// Make [`hit`]/[`hit_key`] return `true`; the site maps that to its
    /// own typed error.
    Error,
}

/// When a configured fail point fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every call.
    Always,
    /// Every `n`-th call (per-site call counter; `Nth(1)` = every call,
    /// `Nth(0)` never fires).
    Nth(u64),
    /// Each call independently with probability `p`, drawn from a seeded
    /// per-site counter stream — deterministic for a fixed call order.
    Prob {
        /// Fire probability in `[0, 1]`.
        p: f64,
        /// Stream seed.
        seed: u64,
    },
    /// Fires for the fixed subset of *keys* selected by
    /// [`key_selected`]`(seed, p, key)` — independent of call order and
    /// thread interleaving, so a harness can predict exactly which keys
    /// (sessions, shards, …) will fault.
    KeyProb {
        /// Fraction of the key space selected, in `[0, 1]`.
        p: f64,
        /// Selection seed.
        seed: u64,
    },
}

struct Site {
    trigger: Trigger,
    action: FailAction,
    calls: AtomicU64,
    fired: AtomicU64,
}

/// Number of configured sites; the fast path reads only this.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static RwLock<HashMap<String, Arc<Site>>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Arc<Site>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// SplitMix64 — the same mixer the data substrate uses for sharding.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a 64-bit hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The deterministic key-selection predicate behind [`Trigger::KeyProb`]:
/// whether `key` is in the seeded `p`-fraction of the key space. Public so
/// chaos harnesses can predict the faulted set without firing anything.
pub fn key_selected(seed: u64, p: f64, key: u64) -> bool {
    unit(splitmix64(seed ^ key.wrapping_mul(0xA24B_AED4_963E_E407))) < p
}

/// Configure (or reconfigure) a fail point. Takes effect immediately for
/// every thread; the per-site call/fired counters reset. Panics unless a
/// [`FailScenario`] holds the scenario lock (see the module docs).
pub fn configure(site: &str, trigger: Trigger, action: FailAction) {
    assert!(
        matches!(SCENARIO_LOCK.try_lock(), Err(TryLockError::WouldBlock)),
        "failpoint {site:?} configured outside a FailScenario"
    );
    let mut map = registry().write().unwrap_or_else(PoisonError::into_inner);
    map.insert(
        site.to_string(),
        Arc::new(Site {
            trigger,
            action,
            calls: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }),
    );
    ACTIVE.store(map.len(), Ordering::SeqCst);
}

/// Remove one fail point.
pub fn clear(site: &str) {
    let mut map = registry().write().unwrap_or_else(PoisonError::into_inner);
    map.remove(site);
    ACTIVE.store(map.len(), Ordering::SeqCst);
}

/// Remove every configured fail point.
pub fn clear_all() {
    let mut map = registry().write().unwrap_or_else(PoisonError::into_inner);
    map.clear();
    ACTIVE.store(0, Ordering::SeqCst);
}

/// How often `site` has fired since it was configured (0 when absent).
pub fn fired(site: &str) -> u64 {
    registry()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(site)
        .map(|s| s.fired.load(Ordering::SeqCst))
        .unwrap_or(0)
}

/// Evaluate a fail point with no key (counter triggers only;
/// [`Trigger::KeyProb`] sees key 0). Returns `true` when an
/// [`FailAction::Error`] fires; panics when a [`FailAction::Panic`]
/// fires; returns `false` otherwise — including always, at one relaxed
/// atomic load, when nothing is configured.
#[inline]
pub fn hit(site: &str) -> bool {
    hit_key(site, 0)
}

/// Evaluate a fail point at `site` for `key` (see [`hit`]).
#[inline]
pub fn hit_key(site: &str, key: u64) -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    hit_slow(site, key)
}

#[cold]
fn hit_slow(site: &str, key: u64) -> bool {
    let Some(s) = registry()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(site)
        .cloned()
    else {
        return false;
    };
    let call = s.calls.fetch_add(1, Ordering::SeqCst) + 1;
    let fire = match s.trigger {
        Trigger::Always => true,
        Trigger::Nth(n) => n != 0 && call % n == 0,
        Trigger::Prob { p, seed } => unit(splitmix64(seed ^ call)) < p,
        Trigger::KeyProb { p, seed } => key_selected(seed, p, key),
    };
    if !fire {
        return false;
    }
    s.fired.fetch_add(1, Ordering::SeqCst);
    match s.action {
        FailAction::Panic => panic!("failpoint {site:?} fired (injected panic, key {key})"),
        FailAction::Error => true,
    }
}

static SCENARIO_LOCK: Mutex<()> = Mutex::new(());

/// A globally exclusive fault-injection scenario: holds a process-wide
/// lock for its lifetime (scenarios in concurrently running tests
/// serialize instead of interfering) and clears the registry both on
/// setup and on drop.
pub struct FailScenario {
    _guard: MutexGuard<'static, ()>,
}

impl FailScenario {
    /// Acquire the scenario lock and start from an empty registry.
    pub fn setup() -> Self {
        // A test that panicked mid-scenario poisons the lock; the registry
        // is cleared below either way, so recovery is sound.
        let guard = SCENARIO_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        clear_all();
        Self { _guard: guard }
    }
}

impl Drop for FailScenario {
    fn drop(&mut self) {
        clear_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_sites_never_fire() {
        let _s = FailScenario::setup();
        assert!(!hit("nothing.here"));
        assert!(!hit_key("nothing.here", 42));
        assert_eq!(fired("nothing.here"), 0);
    }

    #[test]
    fn nth_trigger_counts_calls() {
        let _s = FailScenario::setup();
        configure("t.nth", Trigger::Nth(3), FailAction::Error);
        let fires: Vec<bool> = (0..9).map(|_| hit("t.nth")).collect();
        assert_eq!(
            fires,
            [false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(fired("t.nth"), 3);
        // Nth(0) never fires.
        configure("t.nth", Trigger::Nth(0), FailAction::Error);
        assert!((0..10).all(|_| !hit("t.nth")));
    }

    #[test]
    fn always_trigger_with_panic_action_panics_with_the_site_name() {
        let _s = FailScenario::setup();
        configure("t.boom", Trigger::Always, FailAction::Panic);
        let err = std::panic::catch_unwind(|| hit("t.boom")).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("t.boom"), "panic names the site: {msg}");
        assert_eq!(fired("t.boom"), 1);
    }

    #[test]
    fn prob_trigger_is_deterministic_for_a_fixed_call_order() {
        let _s = FailScenario::setup();
        configure(
            "t.prob",
            Trigger::Prob { p: 0.5, seed: 7 },
            FailAction::Error,
        );
        let a: Vec<bool> = (0..64).map(|_| hit("t.prob")).collect();
        configure(
            "t.prob",
            Trigger::Prob { p: 0.5, seed: 7 },
            FailAction::Error,
        );
        let b: Vec<bool> = (0..64).map(|_| hit("t.prob")).collect();
        assert_eq!(a, b, "same seed, same stream");
        let fires = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fires), "p=0.5 over 64 calls: {fires}");
    }

    #[test]
    fn key_prob_depends_only_on_the_key() {
        let _s = FailScenario::setup();
        configure(
            "t.key",
            Trigger::KeyProb { p: 0.25, seed: 42 },
            FailAction::Error,
        );
        // Whatever order keys arrive in, the same keys fire — and they
        // match the public predicate.
        let keys: Vec<u64> = (0..100).collect();
        let forward: Vec<bool> = keys.iter().map(|&k| hit_key("t.key", k)).collect();
        let backward: Vec<bool> = keys.iter().rev().map(|&k| hit_key("t.key", k)).collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
        for (&k, &f) in keys.iter().zip(&forward) {
            assert_eq!(f, key_selected(42, 0.25, k));
        }
        let selected = forward.iter().filter(|&&f| f).count();
        assert!(
            (5..=50).contains(&selected),
            "p=0.25 over 100 keys: {selected}"
        );
    }

    #[test]
    fn scenario_drop_clears_configuration() {
        {
            let _s = FailScenario::setup();
            configure("t.scoped", Trigger::Always, FailAction::Error);
            assert!(hit("t.scoped"));
        }
        assert!(!hit("t.scoped"));
    }
}
