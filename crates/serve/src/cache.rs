//! Netlist-hash-keyed artifact cache with a memory-ceiling LRU policy.
//!
//! Compiling a netlist into its serving artifacts — the CSR simulation
//! program and, for `stats` requests, the separation table — costs far
//! more than any single request; the cache keys those artifacts by
//! [`Netlist::structural_fingerprint`] so repeated requests against the
//! same structure (by name *or* as an inline upload) pay the build once.
//!
//! Eviction is driven by real bytes, not entry counts: every artifact
//! bundle reports [`Artifacts::memory_bytes`], and inserts evict
//! least-recently-used entries until the configured ceiling holds. A
//! bundle that is still referenced by an in-flight request survives
//! eviction via its `Arc` — eviction only drops the cache's reference.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use iddq_core::AnalysisTier;
use iddq_logicsim::Simulator;
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::Netlist;

/// The owned artifact bundle for one circuit structure.
///
/// [`iddq_core::EvalContext`] borrows its netlist and so cannot live in a
/// cache; this bundle owns everything, tiered the same way: the compiled
/// simulator always, the gate separation table only when a `stats`
/// request at [`AnalysisTier::GateSep`] has been served.
#[derive(Debug)]
pub struct Artifacts {
    /// The owned circuit.
    pub netlist: Netlist,
    /// Compiled CSR evaluation program.
    pub sim: Simulator,
    /// Analysis tier materialized so far.
    tier: AnalysisTier,
    /// Gate-only table (`GateSep` tier).
    gate_table: Option<GateSeparationTable>,
}

impl Artifacts {
    /// Compiles `netlist` and materializes the analyses of `tier`.
    #[must_use]
    pub fn build(netlist: Netlist, tier: AnalysisTier, rho: u32) -> Self {
        let sim = Simulator::new(&netlist);
        let gate_table = match tier {
            AnalysisTier::Timing => None,
            AnalysisTier::GateSep => Some(GateSeparationTable::direct(&netlist, rho, 1)),
        };
        Artifacts {
            netlist,
            sim,
            tier,
            gate_table,
        }
    }

    /// The analysis tier this bundle carries.
    #[must_use]
    pub fn tier(&self) -> AnalysisTier {
        self.tier
    }

    /// The gate-only separation table, when built at `GateSep`.
    #[must_use]
    pub fn gate_table(&self) -> Option<&GateSeparationTable> {
        self.gate_table.as_ref()
    }

    /// Total heap footprint of the bundle: netlist + compiled program +
    /// whatever analyses are materialized.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.netlist.memory_bytes()
            + self.sim.memory_bytes()
            + self
                .gate_table
                .as_ref()
                .map_or(0, GateSeparationTable::memory_bytes)
    }
}

/// Cache observability counters (monotonic).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// `(hits, misses, evictions)` snapshot.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

struct Entry {
    artifacts: Arc<Artifacts>,
    bytes: usize,
    last_used: u64,
}

/// The LRU cache proper. All methods are `&self`; internal locking keeps
/// workers contention-free outside the brief map updates (builds happen
/// *outside* the lock).
pub struct ArtifactCache {
    ceiling: usize,
    inner: Mutex<HashMap<u64, Entry>>,
    tick: AtomicU64,
    stats: CacheStats,
}

impl ArtifactCache {
    /// A cache that evicts down to `ceiling_bytes` of artifact memory.
    #[must_use]
    pub fn new(ceiling_bytes: usize) -> Self {
        ArtifactCache {
            ceiling: ceiling_bytes,
            inner: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// The configured memory ceiling, bytes.
    #[must_use]
    pub fn ceiling_bytes(&self) -> usize {
        self.ceiling
    }

    /// Looks `key` up, refreshing its recency on a hit. A hit below
    /// `min_tier` counts as a miss (the caller rebuilds and re-inserts an
    /// upgraded bundle).
    #[must_use]
    pub fn lookup(&self, key: u64, min_tier: AnalysisTier) -> Option<Arc<Artifacts>> {
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(&key) {
            Some(entry) if entry.artifacts.tier() >= min_tier => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.artifacts))
            }
            _ => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until the ceiling holds. The entry just inserted is
    /// exempt: one oversized circuit must still be servable, it simply
    /// pins the cache at its own footprint until something else arrives.
    pub fn insert(&self, key: u64, artifacts: Arc<Artifacts>) {
        let bytes = artifacts.memory_bytes();
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key,
            Entry {
                artifacts,
                bytes,
                last_used: tick,
            },
        );
        while map.values().map(|e| e.bytes).sum::<usize>() > self.ceiling && map.len() > 1 {
            let oldest = map
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            match oldest {
                Some(k) => {
                    map.remove(&k);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Bytes currently held (sum of resident bundle footprints).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        map.values().map(|e| e.bytes).sum()
    }

    /// Number of resident bundles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::data;

    fn bundle(n: usize, tier: AnalysisTier) -> Arc<Artifacts> {
        Arc::new(Artifacts::build(data::ripple_adder(n), tier, 4))
    }

    #[test]
    fn hit_miss_and_tier_refusal() {
        let cache = ArtifactCache::new(usize::MAX);
        let a = bundle(4, AnalysisTier::Timing);
        let key = a.netlist.structural_fingerprint();
        assert!(cache.lookup(key, AnalysisTier::Timing).is_none());
        cache.insert(key, Arc::clone(&a));
        assert!(cache.lookup(key, AnalysisTier::Timing).is_some());
        // A Timing bundle cannot serve a GateSep request.
        assert!(cache.lookup(key, AnalysisTier::GateSep).is_none());
        let upgraded = bundle(4, AnalysisTier::GateSep);
        cache.insert(key, upgraded);
        assert!(cache.lookup(key, AnalysisTier::GateSep).is_some());
        let (hits, misses, _) = cache.stats().snapshot();
        assert_eq!((hits, misses), (2, 2));
    }

    #[test]
    fn eviction_is_lru_under_the_ceiling() {
        let a = bundle(4, AnalysisTier::Timing);
        let b = bundle(6, AnalysisTier::Timing);
        let c = bundle(8, AnalysisTier::Timing);
        let (ka, kb, kc) = (
            a.netlist.structural_fingerprint(),
            b.netlist.structural_fingerprint(),
            c.netlist.structural_fingerprint(),
        );
        // Ceiling fits two bundles including the largest (`c`).
        let cache = ArtifactCache::new(b.memory_bytes() + c.memory_bytes() + 64);
        cache.insert(ka, Arc::clone(&a));
        cache.insert(kb, Arc::clone(&b));
        assert_eq!(cache.len(), 2);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(cache.lookup(ka, AnalysisTier::Timing).is_some());
        cache.insert(kc, Arc::clone(&c));
        assert!(cache.lookup(ka, AnalysisTier::Timing).is_some());
        assert!(cache.lookup(kb, AnalysisTier::Timing).is_none());
        assert!(cache.lookup(kc, AnalysisTier::Timing).is_some());
        let (.., evictions) = cache.stats().snapshot();
        assert!(evictions >= 1);
    }

    #[test]
    fn oversized_single_entry_survives() {
        let a = bundle(8, AnalysisTier::Timing);
        let key = a.netlist.structural_fingerprint();
        let cache = ArtifactCache::new(1); // ceiling below any bundle
        cache.insert(key, Arc::clone(&a));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(key, AnalysisTier::Timing).is_some());
    }

    #[test]
    fn artifacts_report_tiered_memory() {
        let t = Artifacts::build(data::ripple_adder(8), AnalysisTier::Timing, 4);
        let s = Artifacts::build(data::ripple_adder(8), AnalysisTier::GateSep, 4);
        assert!(t.memory_bytes() > 0);
        let table = s.gate_table().expect("a GateSep bundle carries the table");
        assert_eq!(s.memory_bytes(), t.memory_bytes() + table.memory_bytes());
        assert!(t.gate_table().is_none());
    }
}
