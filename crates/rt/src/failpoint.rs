//! Deterministic fault injection at named sites.
//!
//! Sites are named `crate.component.point` (e.g. `qsim.dense.alloc`,
//! `core.grover.iterate`, `classical.bnb.node`) and are consulted through
//! [`check`]. Without the `failpoints` cargo feature, [`check`] compiles
//! to an inlined `Ok(())` — zero cost in production builds. With the
//! feature, tests arm sites in a process-global registry: a site armed
//! with `after = n` passes its first `n` hits and then returns
//! [`crate::RtError::Faulted`] on every subsequent hit until disarmed.
//!
//! The registry is process-global, so tests that arm failpoints must
//! serialize on `exclusive()`, which hands each holder a disarmed
//! registry even when the previous holder panicked before its own
//! `reset()` (both exported only under the feature).

/// Consults a named failpoint.
///
/// # Errors
/// Returns [`crate::RtError::Faulted`] when the site is armed and its
/// pass count is exhausted (only under the `failpoints` feature).
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_site: &'static str) -> Result<(), crate::RtError> {
    Ok(())
}

#[cfg(feature = "failpoints")]
pub use enabled::{armed_sites, check, disarm, exclusive, hits, reset};

#[cfg(feature = "failpoints")]
mod enabled {
    use crate::RtError;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    #[derive(Debug, Clone)]
    struct Armed {
        /// Hits that pass before the site starts faulting.
        after: u64,
        /// Hits observed so far.
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock() -> MutexGuard<'static, HashMap<String, Armed>> {
        registry().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serializes tests that use the process-global registry. Hold the
    /// guard for the whole test. Every site is disarmed when the guard is
    /// handed out, so a test that panicked while holding it leaves no
    /// armed site behind for the next holder.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = GATE
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        reset();
        guard
    }

    /// Consults a named failpoint (feature-on implementation).
    ///
    /// # Errors
    /// Returns [`RtError::Faulted`] when the site is armed and has been
    /// hit more than its configured pass count.
    pub fn check(site: &'static str) -> Result<(), RtError> {
        let mut reg = lock();
        if let Some(armed) = reg.get_mut(site) {
            armed.hits += 1;
            if armed.hits > armed.after {
                return Err(RtError::Faulted { site: site.into() });
            }
        }
        Ok(())
    }

    /// Arms `site`: the first `after` hits pass, every later hit faults.
    pub fn arm(site: &str, after: u64) {
        lock().insert(site.to_string(), Armed { after, hits: 0 });
    }

    /// Disarms one site.
    pub fn disarm(site: &str) {
        lock().remove(site);
    }

    /// Disarms every site.
    pub fn reset() {
        lock().clear();
    }

    /// Currently armed site names, sorted.
    pub fn armed_sites() -> Vec<String> {
        let mut v: Vec<String> = lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Hits observed at a site since it was armed (`None` if not armed).
    pub fn hits(site: &str) -> Option<u64> {
        lock().get(site).map(|a| a.hits)
    }
}

#[cfg(feature = "failpoints")]
pub use enabled::arm;

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::RtError;

    #[test]
    fn armed_site_passes_then_faults_deterministically() {
        let _guard = exclusive();
        reset();
        arm("rt.test.site", 2);
        assert_eq!(check_site(), Ok(()));
        assert_eq!(check_site(), Ok(()));
        assert_eq!(
            check_site(),
            Err(RtError::Faulted {
                site: "rt.test.site".into()
            })
        );
        assert_eq!(hits("rt.test.site"), Some(3));
        disarm("rt.test.site");
        assert_eq!(check_site(), Ok(()));
        reset();
    }

    fn check_site() -> Result<(), RtError> {
        check("rt.test.site")
    }

    #[test]
    fn unarmed_sites_always_pass() {
        let _guard = exclusive();
        reset();
        assert_eq!(check("rt.test.other"), Ok(()));
        assert!(armed_sites().is_empty());
    }
}
