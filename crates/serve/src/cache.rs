//! Netlist-hash-keyed artifact cache with a memory-ceiling LRU policy.
//!
//! Compiling a netlist into its serving artifacts — the CSR simulation
//! program and, for `stats` requests, the separation table — costs far
//! more than any single request; the cache keys those artifacts by
//! [`Netlist::structural_fingerprint`] so repeated requests against the
//! same structure (by name *or* as an inline upload) pay the build once.
//!
//! A request also reaches its bundle through an [`Alias`] — a named
//! circuit's `(name, seed)`, or an inline upload's whole text — mapped to
//! the fingerprint, so a cached circuit is answered without regenerating
//! or re-parsing it: the netlist is made only on a miss. Every alias names
//! a resident bundle; eviction drops the aliases of what it evicts, and a
//! bundle keeps the alias of one upload text at most.
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
    netlists_built: AtomicU64,
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

    /// Netlists made to resolve a request (named generations plus inline
    /// parses); a hit through an alias makes none.
    #[must_use]
    pub fn netlists_built(&self) -> u64 {
        self.netlists_built.load(Ordering::Relaxed)
    }

    fn add(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A circuit as a request gives it. Generation and parsing are
/// deterministic, so an alias always names the same structure; a stale
/// one only costs a miss.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Alias {
    /// A generated circuit: profile name as the request gave it, and
    /// generation seed.
    Named {
        /// Profile name.
        name: String,
        /// Generation seed.
        seed: u64,
    },
    /// An inline `.bench` upload, keyed by its whole text: the lookup
    /// hashes the text and compares it in full, so two different texts
    /// never share an alias. A text that fails to parse builds nothing
    /// and so never gets one.
    Upload(String),
}

/// A bundle resolved by [`ArtifactCache::lookup_or_build`].
#[derive(Debug)]
pub struct Resolved {
    /// The bundle, at least at the tier it was resolved for.
    pub artifacts: Arc<Artifacts>,
    /// Its structural fingerprint (the cache key).
    pub key: u64,
    /// Served from the cache rather than built.
    pub cache_hit: bool,
}

struct Entry {
    artifacts: Arc<Artifacts>,
    bytes: usize,
    last_used: u64,
}

/// The state under the cache's lock: the bundles by fingerprint, and the
/// aliases that name a resident bundle (never any other).
#[derive(Default)]
struct Resident {
    entries: HashMap<u64, Entry>,
    aliases: HashMap<Alias, u64>,
}

impl Resident {
    /// Records `alias` for the bundle under `key`. An upload alias
    /// replaces the bundle's previous one, so the alias map holds at most
    /// one upload text per resident bundle.
    fn record(&mut self, alias: Alias, key: u64) {
        if matches!(alias, Alias::Upload(_)) {
            self.aliases
                .retain(|a, k| *k != key || !matches!(a, Alias::Upload(_)));
        }
        self.aliases.insert(alias, key);
    }

    /// The bundle under `key` if it carries `min_tier`, its recency
    /// refreshed to `tick`.
    fn touch(&mut self, key: u64, min_tier: AnalysisTier, tick: u64) -> Option<Arc<Artifacts>> {
        let entry = self.entries.get_mut(&key)?;
        if entry.artifacts.tier() < min_tier {
            return None;
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.artifacts))
    }
}

/// The LRU cache proper. All methods are `&self`; internal locking keeps
/// workers contention-free outside the brief map updates (netlists,
/// plans and builds happen *outside* the lock).
pub struct ArtifactCache {
    ceiling: usize,
    inner: Mutex<Resident>,
    tick: AtomicU64,
    stats: CacheStats,
}

impl ArtifactCache {
    /// A cache that evicts down to `ceiling_bytes` of artifact memory.
    #[must_use]
    pub fn new(ceiling_bytes: usize) -> Self {
        ArtifactCache {
            ceiling: ceiling_bytes,
            inner: Mutex::new(Resident::default()),
            tick: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// The configured memory ceiling, bytes.
    #[must_use]
    pub fn ceiling_bytes(&self) -> usize {
        self.ceiling
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Resident> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Cache-through resolution of one request at (at least) `tier`,
    /// counted as exactly one hit or one miss:
    ///
    /// 1. a resident bundle that `alias` names answers without a netlist;
    /// 2. otherwise `make` produces the netlist (counted in
    ///    [`CacheStats::netlists_built`]), and a resident bundle with its
    ///    fingerprint at `tier` answers;
    /// 3. otherwise `plan` picks the tier to build at (at most `tier`), a
    ///    resident bundle at that tier answers, or one is built there and
    ///    inserted.
    ///
    /// A hit or a build records `alias` against the fingerprint, so the
    /// next request under the same name and seed takes step 1.
    ///
    /// # Errors
    ///
    /// Whatever `make` returns; nothing is counted then.
    pub fn lookup_or_build<E>(
        &self,
        alias: Option<Alias>,
        tier: AnalysisTier,
        make: impl FnOnce() -> Result<Netlist, E>,
        plan: impl FnOnce(&Netlist) -> AnalysisTier,
        rho: u32,
    ) -> Result<Resolved, E> {
        if let Some(alias) = &alias {
            let mut resident = self.lock();
            if let Some(&key) = resident.aliases.get(alias) {
                if let Some(artifacts) = resident.touch(key, tier, self.next_tick()) {
                    CacheStats::add(&self.stats.hits);
                    return Ok(Resolved {
                        artifacts,
                        key,
                        cache_hit: true,
                    });
                }
            }
        }
        let netlist = make()?;
        CacheStats::add(&self.stats.netlists_built);
        let key = netlist.structural_fingerprint();
        // The alias is recorded under the same lock as the hit, so it
        // never outlives the bundle it names.
        let lookup = |at| {
            let mut resident = self.lock();
            let hit = resident.touch(key, at, self.next_tick());
            if let (Some(_), Some(alias)) = (&hit, &alias) {
                resident.record(alias.clone(), key);
            }
            hit
        };
        let mut planned = tier;
        let mut hit = lookup(tier);
        if hit.is_none() {
            planned = plan(&netlist);
            if planned < tier {
                hit = lookup(planned);
            }
        }
        if let Some(artifacts) = hit {
            CacheStats::add(&self.stats.hits);
            return Ok(Resolved {
                artifacts,
                key,
                cache_hit: true,
            });
        }
        CacheStats::add(&self.stats.misses);
        let artifacts = Arc::new(Artifacts::build(netlist, planned, rho));
        self.insert(key, Arc::clone(&artifacts), alias);
        Ok(Resolved {
            artifacts,
            key,
            cache_hit: false,
        })
    }

    /// Inserts (or replaces) `key`, records `alias` for it, then evicts
    /// least-recently-used entries, and the aliases naming them, until
    /// the ceiling holds. The entry just inserted is exempt: one
    /// oversized circuit must still be servable, it simply pins the
    /// cache at its own footprint until something else arrives.
    fn insert(&self, key: u64, artifacts: Arc<Artifacts>, alias: Option<Alias>) {
        let bytes = artifacts.memory_bytes();
        let mut resident = self.lock();
        let tick = self.next_tick();
        resident.entries.insert(
            key,
            Entry {
                artifacts,
                bytes,
                last_used: tick,
            },
        );
        if let Some(alias) = alias {
            resident.record(alias, key);
        }
        while resident.entries.values().map(|e| e.bytes).sum::<usize>() > self.ceiling {
            let oldest = resident
                .entries
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(evicted) = oldest else { break };
            resident.entries.remove(&evicted);
            resident.aliases.retain(|_, k| *k != evicted);
            CacheStats::add(&self.stats.evictions);
        }
    }

    /// Bytes currently held (sum of resident bundle footprints).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.lock().entries.values().map(|e| e.bytes).sum()
    }

    /// Number of resident bundles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident aliases; each names a resident bundle.
    #[must_use]
    pub fn aliases(&self) -> usize {
        self.lock().aliases.len()
    }

    /// Hit/miss/eviction/netlist counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::data;
    use std::convert::Infallible;

    /// Resolves `ripple_adder(n)` at `tier`, planning no downgrade.
    fn resolve(
        cache: &ArtifactCache,
        n: usize,
        alias: Option<&str>,
        tier: AnalysisTier,
    ) -> Resolved {
        let alias = alias.map(|name| Alias::Named {
            name: name.to_owned(),
            seed: 1,
        });
        cache
            .lookup_or_build(
                alias,
                tier,
                || Ok::<_, Infallible>(data::ripple_adder(n)),
                |_| tier,
                4,
            )
            .unwrap()
    }

    #[test]
    fn hit_miss_and_tier_refusal() {
        let cache = ArtifactCache::new(usize::MAX);
        assert!(!resolve(&cache, 4, None, AnalysisTier::Timing).cache_hit);
        assert!(resolve(&cache, 4, None, AnalysisTier::Timing).cache_hit);
        // A Timing bundle cannot serve a GateSep request: it is rebuilt
        // at GateSep in place.
        let upgraded = resolve(&cache, 4, None, AnalysisTier::GateSep);
        assert!(!upgraded.cache_hit);
        assert_eq!(upgraded.artifacts.tier(), AnalysisTier::GateSep);
        assert!(resolve(&cache, 4, None, AnalysisTier::GateSep).cache_hit);
        assert_eq!(cache.len(), 1);
        let (hits, misses, _) = cache.stats().snapshot();
        assert_eq!((hits, misses), (2, 2));
        // Without an alias every lookup makes its netlist.
        assert_eq!(cache.stats().netlists_built(), 4);
        assert_eq!(cache.aliases(), 0);
    }

    #[test]
    fn an_alias_hit_makes_no_netlist() {
        let cache = ArtifactCache::new(usize::MAX);
        let first = resolve(&cache, 4, Some("adder"), AnalysisTier::Timing);
        assert!(!first.cache_hit);
        for _ in 0..3 {
            let again = cache
                .lookup_or_build(
                    Some(Alias::Named {
                        name: "adder".into(),
                        seed: 1,
                    }),
                    AnalysisTier::Timing,
                    || -> Result<Netlist, Infallible> { panic!("an alias hit makes no netlist") },
                    |_| panic!("an alias hit plans nothing"),
                    4,
                )
                .unwrap();
            assert!(again.cache_hit);
            assert_eq!(again.key, first.key);
            assert!(Arc::ptr_eq(&again.artifacts, &first.artifacts));
        }
        assert_eq!(cache.stats().netlists_built(), 1);
        assert_eq!(cache.stats().snapshot(), (3, 1, 0));
        assert_eq!(cache.aliases(), 1);
        // A fingerprint hit under a new name records that name too.
        assert!(resolve(&cache, 4, Some("adder4"), AnalysisTier::Timing).cache_hit);
        assert_eq!(cache.aliases(), 2);
        assert_eq!(cache.stats().netlists_built(), 2);
    }

    #[test]
    fn an_upload_alias_is_its_whole_text() {
        let cache = ArtifactCache::new(usize::MAX);
        let text = iddq_netlist::bench::to_bench(&data::ripple_adder(4));
        let upload = |text: &str| {
            cache
                .lookup_or_build(
                    Some(Alias::Upload(text.to_owned())),
                    AnalysisTier::Timing,
                    || iddq_netlist::bench::parse("inline", text),
                    |_| AnalysisTier::Timing,
                    4,
                )
                .unwrap()
        };
        let first = upload(&text);
        assert!(!first.cache_hit);
        assert!(upload(&text).cache_hit);
        assert_eq!(cache.stats().netlists_built(), 1);
        // The same structure in another text is a fingerprint hit, not an
        // alias hit, and its alias replaces the first text's.
        let renamed = format!("# another upload\n{text}");
        let second = upload(&renamed);
        assert!(second.cache_hit);
        assert_eq!(second.key, first.key);
        assert_eq!(cache.stats().netlists_built(), 2);
        assert_eq!(cache.aliases(), 1);
        assert!(upload(&renamed).cache_hit);
        assert_eq!(cache.stats().netlists_built(), 2);
        // A different structure never resolves through another's text.
        let other = upload(&iddq_netlist::bench::to_bench(&data::ripple_adder(5)));
        assert!(!other.cache_hit);
        assert_ne!(other.key, first.key);
        assert_eq!((cache.len(), cache.aliases()), (2, 2));
    }

    #[test]
    fn a_hit_at_the_requested_tier_is_never_planned() {
        let cache = ArtifactCache::new(usize::MAX);
        resolve(&cache, 4, None, AnalysisTier::GateSep);
        let hit = cache
            .lookup_or_build(
                None,
                AnalysisTier::GateSep,
                || Ok::<_, Infallible>(data::ripple_adder(4)),
                |_| panic!("a hit plans nothing"),
                4,
            )
            .unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.artifacts.tier(), AnalysisTier::GateSep);
    }

    #[test]
    fn a_planned_downgrade_hits_a_resident_lower_tier_once() {
        let cache = ArtifactCache::new(usize::MAX);
        resolve(&cache, 4, None, AnalysisTier::Timing);
        let hit = cache
            .lookup_or_build(
                None,
                AnalysisTier::GateSep,
                || Ok::<_, Infallible>(data::ripple_adder(4)),
                |_| AnalysisTier::Timing,
                4,
            )
            .unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.artifacts.tier(), AnalysisTier::Timing);
        assert_eq!(cache.stats().snapshot(), (1, 1, 0));
    }

    #[test]
    fn a_failed_make_counts_nothing() {
        let cache = ArtifactCache::new(usize::MAX);
        let failed = cache.lookup_or_build(
            Some(Alias::Named {
                name: "nope".into(),
                seed: 1,
            }),
            AnalysisTier::Timing,
            || Err("unknown circuit"),
            |_| AnalysisTier::Timing,
            4,
        );
        assert_eq!(failed.unwrap_err(), "unknown circuit");
        assert_eq!(cache.stats().snapshot(), (0, 0, 0));
        assert_eq!(cache.stats().netlists_built(), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.aliases(), 0);
    }

    #[test]
    fn eviction_is_lru_under_the_ceiling() {
        let bytes =
            |n| Artifacts::build(data::ripple_adder(n), AnalysisTier::Timing, 4).memory_bytes();
        // Ceiling fits two bundles including the largest (8 bits).
        let cache = ArtifactCache::new(bytes(6) + bytes(8) + 64);
        resolve(&cache, 4, Some("a"), AnalysisTier::Timing);
        resolve(&cache, 6, Some("b"), AnalysisTier::Timing);
        assert_eq!((cache.len(), cache.aliases()), (2, 2));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(resolve(&cache, 4, Some("a"), AnalysisTier::Timing).cache_hit);
        resolve(&cache, 8, Some("c"), AnalysisTier::Timing);
        let (.., evictions) = cache.stats().snapshot();
        assert_eq!(evictions, 1);
        assert_eq!((cache.len(), cache.aliases()), (2, 2));
        assert!(resolve(&cache, 4, Some("a"), AnalysisTier::Timing).cache_hit);
        assert!(resolve(&cache, 8, Some("c"), AnalysisTier::Timing).cache_hit);
        // `b`'s alias left with its bundle: the next request rebuilds.
        let built = cache.stats().netlists_built();
        assert!(!resolve(&cache, 6, Some("b"), AnalysisTier::Timing).cache_hit);
        assert_eq!(cache.stats().netlists_built(), built + 1);
        assert!(cache.aliases() <= cache.len());
    }

    #[test]
    fn oversized_single_entry_survives() {
        let cache = ArtifactCache::new(1); // ceiling below any bundle
        resolve(&cache, 8, Some("big"), AnalysisTier::Timing);
        assert_eq!((cache.len(), cache.aliases()), (1, 1));
        assert!(resolve(&cache, 8, Some("big"), AnalysisTier::Timing).cache_hit);
        // The next circuit evicts it, alias and all.
        resolve(&cache, 4, Some("small"), AnalysisTier::Timing);
        assert_eq!((cache.len(), cache.aliases()), (1, 1));
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
