//! The shared compiled-oracle cache.
//!
//! Compiling an MKP oracle (`U_check`, its inverse, and the diffusion
//! operator) dominates the setup cost of a quantum rung, and a serving
//! workload repeats instances: the same graph probed at several `k`s,
//! the same benchmark submitted by many tenants, the threshold sweep
//! inside one `qmkp` run touching every `t` for a fixed `(graph, k)`.
//! [`OracleCache`] memoises [`CompiledOracle`]s under a byte ceiling:
//!
//! * **Keying** — `(Graph::digest(), k, t)`. The digest folds the full
//!   adjacency structure, so equal keys mean isomorphic-as-labelled
//!   inputs and the artifact is safe to share.
//! * **Eviction** — least-recently-used, measured by a monotonic touch
//!   tick, charged by [`CompiledOracle::memory_bytes`]. Entries being
//!   compiled are never evicted. Evicted artifacts stay alive for any
//!   in-flight run still holding the `Arc`; the cache merely forgets
//!   them.
//! * **Single-flight** — the first request for a missing key installs a
//!   building marker and compiles outside the lock; duplicate
//!   requests wait on the flight's condvar and share the one artifact
//!   (counted as hits — they skipped a compile).
//!
//! Every lookup emits `serve.cache.{hits,misses,evictions}` counters,
//! plus a `serve.cache.bytes` gauge, so a recording session's Prometheus
//! dump shows cache effectiveness directly.

use qmkp_core::{CompiledOracle, OracleProvider};
use qmkp_graph::Graph;
use qmkp_rt::{RtContext, RtError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

type Key = (u64, usize, usize);

/// A compile in progress: duplicate requests park on `done` until the
/// leader publishes `result`.
#[derive(Debug, Default)]
struct Flight {
    result: Mutex<Option<Result<Arc<CompiledOracle>, RtError>>>,
    done: Condvar,
}

impl Flight {
    fn publish(&self, result: Result<Arc<CompiledOracle>, RtError>) {
        *self.result.lock().expect("flight lock") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<CompiledOracle>, RtError> {
        let mut slot = self.result.lock().expect("flight lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).expect("flight lock");
        }
    }
}

#[derive(Debug)]
enum Slot {
    /// A published artifact, charged against the byte ceiling.
    Ready {
        artifact: Arc<CompiledOracle>,
        last_used: u64,
    },
    /// A compile in flight; not yet charged, never evicted.
    Building(Arc<Flight>),
}

#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<Key, Slot>,
    /// Bytes of `Ready` artifacts currently charged.
    bytes: usize,
    /// Monotonic LRU clock; bumped on every touch.
    tick: u64,
}

/// Point-in-time cache statistics, for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a `Ready` entry or a shared in-flight
    /// compile — either way, no new compile.
    pub hits: u64,
    /// Lookups that had to start a compile.
    pub misses: u64,
    /// Entries dropped to fit the byte ceiling.
    pub evictions: u64,
    /// Compiles actually executed (`<= misses`: a failed compile
    /// removes its slot, so retries miss again).
    pub compiles: u64,
    /// Bytes of resident artifacts.
    pub bytes: usize,
    /// Resident entries (ready + building).
    pub entries: usize,
}

/// A byte-bounded, single-flight LRU cache of [`CompiledOracle`]s.
///
/// Plugs into the solver as an [`OracleProvider`]:
/// `qmkp::solve_with(&g, k, &config, &ctx, &cache)` skips oracle
/// construction and circuit compilation on every hit.
#[derive(Debug)]
pub struct OracleCache {
    state: Mutex<CacheState>,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compiles: AtomicU64,
}

impl OracleCache {
    /// An empty cache that evicts least-recently-used artifacts once
    /// resident compiled circuits exceed `max_bytes`.
    pub fn new(max_bytes: usize) -> Self {
        OracleCache {
            state: Mutex::new(CacheState::default()),
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
        }
    }

    /// The byte ceiling this cache evicts towards.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            bytes: state.bytes,
            entries: state.slots.len(),
        }
    }

    /// Returns the compiled oracle for `(g, k, t)`, compiling at most
    /// once per key no matter how many threads ask concurrently.
    ///
    /// # Errors
    /// Propagates the compile error ([`RtError::InvalidConfig`] for
    /// oversized instances) to every waiter of the failed flight; the
    /// slot is removed so a later request retries.
    pub fn get_or_build(
        &self,
        g: &Graph,
        k: usize,
        t: usize,
    ) -> Result<Arc<CompiledOracle>, RtError> {
        let key = (g.digest(), k, t);
        let flight = {
            let mut state = self.state.lock().expect("cache lock");
            state.tick += 1;
            let tick = state.tick;
            match state.slots.get_mut(&key) {
                Some(Slot::Ready {
                    artifact,
                    last_used,
                }) => {
                    *last_used = tick;
                    let artifact = Arc::clone(artifact);
                    drop(state);
                    self.count_hit();
                    return Ok(artifact);
                }
                Some(Slot::Building(flight)) => {
                    let flight = Arc::clone(flight);
                    drop(state);
                    // A shared flight is a hit: this request compiles
                    // nothing.
                    self.count_hit();
                    return flight.wait();
                }
                None => {
                    let flight = Arc::new(Flight::default());
                    state.slots.insert(key, Slot::Building(Arc::clone(&flight)));
                    flight
                }
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        qmkp_obs::counter("serve.cache.misses", &[], 1);

        // Compile outside the lock: concurrent lookups for *other* keys
        // proceed, duplicates for this key park on the flight.
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let built = CompiledOracle::build(g, k, t).map(Arc::new);

        let mut state = self.state.lock().expect("cache lock");
        match &built {
            Ok(artifact) => {
                state.tick += 1;
                let tick = state.tick;
                state.bytes += artifact.memory_bytes();
                state.slots.insert(
                    key,
                    Slot::Ready {
                        artifact: Arc::clone(artifact),
                        last_used: tick,
                    },
                );
                self.evict_lru(&mut state, key);
                qmkp_obs::gauge("serve.cache.bytes", &[], state.bytes as f64);
            }
            Err(_) => {
                state.slots.remove(&key);
            }
        }
        drop(state);
        flight.publish(built.clone());
        built
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        qmkp_obs::counter("serve.cache.hits", &[], 1);
    }

    /// Drops least-recently-used `Ready` entries (never `Building`
    /// markers, never the entry just inserted) until resident bytes fit
    /// the ceiling. A single artifact larger than the whole ceiling is
    /// allowed to stay: evicting it would make the cache useless for
    /// exactly the instances that are most expensive to recompile.
    fn evict_lru(&self, state: &mut CacheState, just_inserted: Key) {
        while state.bytes > self.max_bytes {
            let victim = state
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready { last_used, .. } if *key != just_inserted => {
                        Some((*last_used, *key))
                    }
                    _ => None,
                })
                .min()
                .map(|(_, key)| key);
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { artifact, .. }) = state.slots.remove(&victim) {
                state.bytes -= artifact.memory_bytes();
                self.evictions.fetch_add(1, Ordering::Relaxed);
                qmkp_obs::counter("serve.cache.evictions", &[], 1);
            }
        }
    }
}

impl OracleProvider for OracleCache {
    fn compiled_oracle(
        &self,
        g: &Graph,
        k: usize,
        t: usize,
        _ctx: &RtContext,
    ) -> Result<Arc<CompiledOracle>, RtError> {
        self.get_or_build(g, k, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_graph::gen::paper_fig1_graph;
    use std::sync::Barrier;

    #[test]
    fn hits_share_one_artifact() {
        let cache = OracleCache::new(usize::MAX);
        let g = paper_fig1_graph();
        let a = cache.get_or_build(&g, 2, 4).unwrap();
        let b = cache.get_or_build(&g, 2, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (1, 1, 1));
        assert_eq!(stats.bytes, a.memory_bytes());
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = OracleCache::new(usize::MAX);
        let g = paper_fig1_graph();
        let a = cache.get_or_build(&g, 2, 4).unwrap();
        let b = cache.get_or_build(&g, 2, 3).unwrap();
        let c = cache.get_or_build(&g, 1, 4).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn concurrent_identical_requests_compile_once() {
        const THREADS: usize = 8;
        let cache = Arc::new(OracleCache::new(usize::MAX));
        let barrier = Arc::new(Barrier::new(THREADS));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let g = paper_fig1_graph();
                barrier.wait();
                cache.get_or_build(&g, 2, 4).unwrap()
            }));
        }
        let artifacts: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &artifacts[1..] {
            assert!(
                Arc::ptr_eq(&artifacts[0], other),
                "single-flight: all callers share one artifact"
            );
        }
        let stats = cache.stats();
        assert_eq!(
            stats.compiles, 1,
            "exactly one compile across {THREADS} threads"
        );
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, THREADS - 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_ceiling() {
        let g = paper_fig1_graph();
        let one = CompiledOracle::build(&g, 2, 4).unwrap().memory_bytes();
        // Room for two artifacts of this instance family, not three.
        let cache = OracleCache::new(2 * one + one / 2);
        cache.get_or_build(&g, 2, 4).unwrap(); // A
        cache.get_or_build(&g, 2, 3).unwrap(); // B
        cache.get_or_build(&g, 2, 4).unwrap(); // touch A: B is now LRU
        cache.get_or_build(&g, 2, 2).unwrap(); // C evicts B
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "ceiling must force an eviction");
        assert!(
            stats.bytes <= cache.max_bytes(),
            "resident bytes {} exceed ceiling {}",
            stats.bytes,
            cache.max_bytes()
        );
        // A stayed (recently touched): hitting it again compiles nothing.
        let compiles = cache.stats().compiles;
        cache.get_or_build(&g, 2, 4).unwrap();
        assert_eq!(cache.stats().compiles, compiles, "A must still be resident");
    }

    #[test]
    fn failed_builds_are_not_cached() {
        // A 32-vertex oracle register is far wider than the simulator's
        // 128-qubit basis encoding, so the layout (and the build) fails.
        let g = Graph::new(32).unwrap();
        let cache = OracleCache::new(usize::MAX);
        assert!(matches!(
            cache.get_or_build(&g, 1, 1),
            Err(RtError::InvalidConfig(_))
        ));
        assert_eq!(cache.stats().entries, 0, "failed flight must be removed");
        // The next attempt retries (and fails again) rather than
        // hitting a poisoned slot.
        assert!(cache.get_or_build(&g, 1, 1).is_err());
        assert_eq!(cache.stats().misses, 2);
    }
}
