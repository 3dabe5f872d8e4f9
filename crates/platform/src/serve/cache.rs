//! The cross-job judgment cache: once a pair of catalog items has been
//! judged at sufficient confidence, its verdict is an asset every later
//! job can reuse instead of re-buying the same comparisons.
//!
//! The paper's economy is the *cost of judgments* — two-phase max-finding
//! wins because it buys fewer and cheaper comparisons per correct answer.
//! A multi-tenant service multiplexing many jobs over shared worker pools
//! re-buys identical judgments whenever catalogs overlap; this module
//! amortizes them. A verdict is keyed by **content**, not by job:
//!
//! * the *value identity* of the two catalog items (their `f64` bit
//!   patterns, order-normalized) — two jobs that list the same item
//!   produce the same key regardless of local element ids,
//! * the **worker-class tier** that bought the verdict (a naïve-crowd
//!   majority never substitutes for an expert verification), and
//! * the **tie policy** the judging workers resolve indistinguishable
//!   pairs under (verdicts bought under different tie regimes are not
//!   exchangeable).
//!
//! The confidence/staleness policy deciding when a cached verdict may
//! substitute for a fresh judgment is [`CachePolicy`]: the cached verdict
//! must have been bought with **at least as many votes** as the new
//! request demands (confidence), and it must be **younger than
//! `max_age_ticks`** on the service's logical clock (staleness). Pairs of
//! bit-identical values are never cached or served — their outcome is an
//! element-id tie-break, an identity that value content cannot capture.
//!
//! Storage is a slab of slots threaded on an intrusive recency list (head
//! = least recently used, tail = most) plus a key → slot hash index. A hit
//! or a replacing insert moves its slot to the tail; an insert into a full
//! cache evicts the head by reusing its slot. Every operation is O(1), and
//! the slab grows one slot per new key, never up front to capacity.
//!
//! Determinism contract: the cache is a pure function of the insert and
//! lookup sequence. No wall clock and no hashing randomness (the index
//! hashes with a fixed, seedless function, and nothing ever iterates it),
//! and the recency list alone decides eviction — so a service run with a
//! cache is exactly as replayable as one without, and kill+resume re-warms
//! the cache to the identical state by re-running the same sequence.

use crowd_core::model::{TiePolicy, WorkerClass};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// When a cached verdict may substitute for fresh judgments, and how much
/// the store may retain. Part of [`ServeConfig`](crate::serve::ServeConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachePolicy {
    /// Master switch. Disabled, the service never consults or fills the
    /// cache and is byte-identical to the pre-cache service.
    pub enabled: bool,
    /// Maximum verdicts retained; an insert of a new key into a full
    /// cache evicts the least-recently-used entry (the head of the
    /// recency list) and reuses its slot. Slots are `u32`-indexed, so
    /// anything above `u32::MAX - 1` acts as that bound.
    pub capacity: usize,
    /// A cached verdict older than this many ticks is stale and will not
    /// be served (it stays stored until evicted or refreshed).
    /// `u64::MAX` disables staleness.
    pub max_age_ticks: u64,
}

impl CachePolicy {
    /// The default posture: enabled, 4096 verdicts, no staleness bound.
    pub fn default_on() -> Self {
        CachePolicy {
            enabled: true,
            capacity: 4096,
            max_age_ticks: u64::MAX,
        }
    }

    /// A disabled cache — the pre-cache service, byte for byte.
    pub fn disabled() -> Self {
        CachePolicy {
            enabled: false,
            capacity: 0,
            max_age_ticks: 0,
        }
    }

    /// Sets the entry capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the staleness bound.
    pub fn with_max_age(mut self, ticks: u64) -> Self {
        self.max_age_ticks = ticks;
        self
    }
}

/// Monotone counters describing everything the cache has done. `hits`
/// and `saved_comparisons` also surface in the service report; the rest
/// are observability-only so a zero-overlap cache-on run's *report* stays
/// byte-identical to a cache-off run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups attempted (cache enabled, distinguishable pair).
    pub lookups: u64,
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that missed (absent, under-voted, or stale).
    pub misses: u64,
    /// Verdicts written into the store.
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Comparisons (votes) the hits avoided buying.
    pub saved_comparisons: u64,
}

/// The content key: order-normalized value bits plus the worker-class
/// tier and tie policy the verdict was bought under. `lo < hi` always —
/// equal-bits pairs are rejected before keying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct VerdictKey {
    lo: u64,
    hi: u64,
    class: u8,
    tie: u8,
}

fn class_tag(class: WorkerClass) -> u8 {
    match class {
        WorkerClass::Naive => 0,
        WorkerClass::Expert => 1,
    }
}

fn tie_tag(tie: TiePolicy) -> u8 {
    match tie {
        TiePolicy::UniformRandom => 0,
        TiePolicy::Persistent => 1,
        TiePolicy::FavorLower => 2,
        TiePolicy::FavorHigher => 3,
        TiePolicy::FavorSmallerId => 4,
    }
}

/// A fixed, seedless multiply-xor hasher for [`VerdictKey`]'s fields.
/// Each word is xored into the state, which becomes the xor of both
/// halves of its 128-bit product with an odd constant, so the low-entropy
/// mantissa tails of `f64` bits still reach every bucket bit. Being
/// seedless is what keeps the cache deterministic without ordering
/// anything: the index is never iterated, so a hash only decides where a
/// key lives. Catalog values crafted to collide can at worst make a probe
/// walk the whole index, which `capacity` bounds.
#[derive(Debug, Clone, Copy)]
struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(0x243F_6A88_85A3_08D3)
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One stored verdict.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// True when the item with the *higher* value bits won.
    hi_won: bool,
    /// Votes the verdict was bought with — its confidence.
    votes: u32,
    /// Tick the verdict was stored (refreshed on re-insert).
    stored_tick: u64,
}

/// A slab slot: one stored verdict, linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: VerdictKey,
    verdict: Verdict,
    /// The next less recently used slot ([`NIL`] at the head).
    prev: u32,
    /// The next more recently used slot ([`NIL`] at the tail).
    next: u32,
}

/// The null slot link.
const NIL: u32 = u32::MAX;

/// The deterministic cross-job judgment store.
#[derive(Debug, Clone)]
pub struct JudgmentCache {
    policy: CachePolicy,
    /// Slot storage: grows by one slot per new key up to capacity, then
    /// recycles the least-recently-used slot.
    nodes: Vec<Node>,
    /// Key → slot.
    index: HashMap<VerdictKey, u32, BuildHasherDefault<KeyHasher>>,
    /// The least-recently-used slot, next to be evicted ([`NIL`] when
    /// empty).
    head: u32,
    /// The most-recently-used slot ([`NIL`] when empty).
    tail: u32,
    stats: CacheStats,
}

impl JudgmentCache {
    /// An empty cache under `policy`. Storage grows with use, never up
    /// front to `capacity`.
    pub fn new(policy: CachePolicy) -> Self {
        JudgmentCache {
            policy,
            nodes: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// The governing policy.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Everything the cache has done so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Verdicts currently stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn key(vk: f64, vj: f64, class: WorkerClass, tie: TiePolicy) -> Option<(VerdictKey, bool)> {
        let (kb, jb) = (vk.to_bits(), vj.to_bits());
        if kb == jb {
            // Bit-identical values: the outcome is an element-id
            // tie-break, not a property of the values. Never cached.
            return None;
        }
        let (lo, hi, k_is_hi) = if kb < jb {
            (kb, jb, false)
        } else {
            (jb, kb, true)
        };
        Some((
            VerdictKey {
                lo,
                hi,
                class: class_tag(class),
                tie: tie_tag(tie),
            },
            k_is_hi,
        ))
    }

    /// Consults the store for a verdict on `(vk, vj)` bought from `class`
    /// workers under `tie`, wanted at `votes` confidence, at logical time
    /// `tick`. Returns `Some(true)` when the cached verdict says the
    /// `vk` side wins, `Some(false)` for the `vj` side, `None` on a miss
    /// (absent, under-voted, stale, disabled, or a bit-identical pair —
    /// the last never counts as a lookup).
    pub fn lookup(
        &mut self,
        vk: f64,
        vj: f64,
        class: WorkerClass,
        tie: TiePolicy,
        votes: u32,
        tick: u64,
    ) -> Option<bool> {
        if !self.policy.enabled {
            return None;
        }
        let (key, k_is_hi) = Self::key(vk, vj, class, tie)?;
        self.stats.lookups += 1;
        let max_age = self.policy.max_age_ticks;
        let fresh_enough =
            |v: &Verdict| v.votes >= votes && tick.saturating_sub(v.stored_tick) <= max_age;
        match self.index.get(&key) {
            Some(&slot) if fresh_enough(&self.nodes[slot as usize].verdict) => {
                let hi_won = self.nodes[slot as usize].verdict.hi_won;
                self.touch(slot);
                self.stats.hits += 1;
                self.stats.saved_comparisons += u64::from(votes);
                Some(hi_won == k_is_hi)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a fully-paid verdict: `k_won` says the `vk` side won a
    /// clean `votes`-vote majority from `class` workers under `tie` at
    /// `tick`. An existing higher-confidence entry is kept; an equal or
    /// lower one is replaced (refreshing its staleness clock). No-op when
    /// disabled or the pair is bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        vk: f64,
        vj: f64,
        class: WorkerClass,
        tie: TiePolicy,
        k_won: bool,
        votes: u32,
        tick: u64,
    ) {
        if !self.policy.enabled || self.policy.capacity == 0 {
            return;
        }
        let Some((key, k_is_hi)) = Self::key(vk, vj, class, tie) else {
            return;
        };
        let verdict = Verdict {
            hi_won: k_won == k_is_hi,
            votes,
            stored_tick: tick,
        };
        if let Some(&slot) = self.index.get(&key) {
            let node = &mut self.nodes[slot as usize];
            if node.verdict.votes > votes {
                return;
            }
            node.verdict = verdict;
            self.touch(slot);
        } else {
            let slot = if self.nodes.len() < self.policy.capacity.min(NIL as usize) {
                self.nodes.push(Node {
                    key,
                    verdict,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() as u32 - 1
            } else {
                // Full: the least-recently-used slot takes the new verdict.
                let slot = self.head;
                self.unlink(slot);
                let node = &mut self.nodes[slot as usize];
                let evicted = std::mem::replace(&mut node.key, key);
                node.verdict = verdict;
                self.index.remove(&evicted);
                self.stats.evictions += 1;
                slot
            };
            self.index.insert(key, slot);
            self.push_back(slot);
        }
        self.stats.insertions += 1;
    }

    /// Makes `slot` the most recently used.
    fn touch(&mut self, slot: u32) {
        if slot != self.tail {
            self.unlink(slot);
            self.push_back(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_back(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: WorkerClass = WorkerClass::Naive;
    const E: WorkerClass = WorkerClass::Expert;
    const T: TiePolicy = TiePolicy::UniformRandom;

    fn cache(capacity: usize) -> JudgmentCache {
        JudgmentCache::new(CachePolicy::default_on().with_capacity(capacity))
    }

    #[test]
    fn round_trips_a_verdict_in_either_orientation() {
        let mut c = cache(16);
        c.insert(3.0, 7.0, N, T, false, 3, 0); // the 7.0 side won
        assert_eq!(c.lookup(3.0, 7.0, N, T, 3, 1), Some(false));
        assert_eq!(c.lookup(7.0, 3.0, N, T, 3, 1), Some(true), "orientation");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().saved_comparisons, 6);
    }

    #[test]
    fn class_and_tie_are_part_of_the_key() {
        let mut c = cache(16);
        c.insert(1.0, 2.0, N, T, false, 3, 0);
        assert_eq!(c.lookup(1.0, 2.0, E, T, 3, 0), None, "crowd ≠ expert");
        assert_eq!(
            c.lookup(1.0, 2.0, N, TiePolicy::FavorLower, 3, 0),
            None,
            "tie policy is part of the identity"
        );
        assert_eq!(c.lookup(1.0, 2.0, N, T, 3, 0), Some(false));
    }

    #[test]
    fn confidence_gate_rejects_under_voted_verdicts() {
        let mut c = cache(16);
        c.insert(1.0, 2.0, N, T, false, 3, 0);
        assert_eq!(c.lookup(1.0, 2.0, N, T, 5, 0), None, "3 < 5 votes");
        assert_eq!(c.lookup(1.0, 2.0, N, T, 2, 0), Some(false), "3 ≥ 2");
        // A higher-confidence insert upgrades; a lower one cannot demote.
        c.insert(1.0, 2.0, N, T, false, 5, 1);
        assert_eq!(c.lookup(1.0, 2.0, N, T, 5, 1), Some(false));
        c.insert(1.0, 2.0, N, T, true, 1, 2);
        assert_eq!(c.lookup(1.0, 2.0, N, T, 5, 2), Some(false), "kept 5-vote");
    }

    #[test]
    fn staleness_gate_expires_old_verdicts() {
        let mut c =
            JudgmentCache::new(CachePolicy::default_on().with_capacity(16).with_max_age(10));
        c.insert(1.0, 2.0, N, T, false, 3, 100);
        assert_eq!(c.lookup(1.0, 2.0, N, T, 3, 110), Some(false), "age 10 ok");
        assert_eq!(c.lookup(1.0, 2.0, N, T, 3, 111), None, "age 11 stale");
        // Re-inserting refreshes the clock.
        c.insert(1.0, 2.0, N, T, false, 3, 111);
        assert_eq!(c.lookup(1.0, 2.0, N, T, 3, 112), Some(false));
    }

    #[test]
    fn bit_identical_pairs_are_never_cached_or_counted() {
        let mut c = cache(16);
        c.insert(5.0, 5.0, N, T, true, 3, 0);
        assert!(c.is_empty());
        assert_eq!(c.lookup(5.0, 5.0, N, T, 3, 0), None);
        assert_eq!(c.stats().lookups, 0, "tie pairs are not lookups");
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let mut c = cache(2);
        c.insert(1.0, 2.0, N, T, false, 3, 0);
        c.insert(3.0, 4.0, N, T, false, 3, 1);
        // Touch the first entry so the second becomes LRU.
        assert_eq!(c.lookup(1.0, 2.0, N, T, 3, 2), Some(false));
        c.insert(5.0, 6.0, N, T, false, 3, 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.lookup(3.0, 4.0, N, T, 3, 4), None, "LRU entry evicted");
        assert_eq!(c.lookup(1.0, 2.0, N, T, 3, 4), Some(false), "MRU survives");
    }

    #[test]
    fn disabled_cache_does_nothing() {
        let mut c = JudgmentCache::new(CachePolicy::disabled());
        c.insert(1.0, 2.0, N, T, false, 3, 0);
        assert_eq!(c.lookup(1.0, 2.0, N, T, 3, 0), None);
        assert_eq!(c.stats(), CacheStats::default(), "no counters move");
    }

    /// The cache before the slab/list rewrite, kept as a reference model:
    /// a `BTreeMap` of verdicts stamped by a monotone use counter, with
    /// eviction scanning every entry for the smallest stamp.
    struct ScanMinModel {
        capacity: usize,
        max_age: u64,
        entries: std::collections::BTreeMap<ModelKey, ModelEntry>,
        use_seq: u64,
        stats: CacheStats,
    }

    /// `(lo bits, hi bits, class tag, tie tag)`.
    type ModelKey = (u64, u64, u8, u8);

    struct ModelEntry {
        hi_won: bool,
        votes: u32,
        stored_tick: u64,
        used: u64,
    }

    impl ScanMinModel {
        fn key(vk: f64, vj: f64, c: WorkerClass, t: TiePolicy) -> Option<(ModelKey, bool)> {
            let (kb, jb) = (vk.to_bits(), vj.to_bits());
            (kb != jb).then(|| ((kb.min(jb), kb.max(jb), class_tag(c), tie_tag(t)), kb > jb))
        }

        fn lookup(
            &mut self,
            vk: f64,
            vj: f64,
            c: WorkerClass,
            t: TiePolicy,
            votes: u32,
            tick: u64,
        ) -> Option<bool> {
            let (key, k_is_hi) = Self::key(vk, vj, c, t)?;
            self.stats.lookups += 1;
            match self.entries.get_mut(&key) {
                Some(e)
                    if e.votes >= votes && tick.saturating_sub(e.stored_tick) <= self.max_age =>
                {
                    self.use_seq += 1;
                    e.used = self.use_seq;
                    self.stats.hits += 1;
                    self.stats.saved_comparisons += u64::from(votes);
                    Some(e.hi_won == k_is_hi)
                }
                _ => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn insert(
            &mut self,
            vk: f64,
            vj: f64,
            c: WorkerClass,
            t: TiePolicy,
            k_won: bool,
            votes: u32,
            tick: u64,
        ) {
            let Some((key, k_is_hi)) = Self::key(vk, vj, c, t) else {
                return;
            };
            if self.entries.get(&key).is_some_and(|e| e.votes > votes) {
                return;
            }
            self.use_seq += 1;
            self.stats.insertions += 1;
            let fresh = ModelEntry {
                hi_won: k_won == k_is_hi,
                votes,
                stored_tick: tick,
                used: self.use_seq,
            };
            if self.entries.insert(key, fresh).is_none() && self.entries.len() > self.capacity {
                let lru = *self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.used)
                    .expect("nonempty")
                    .0;
                self.entries.remove(&lru);
                self.stats.evictions += 1;
            }
        }
    }

    #[test]
    fn matches_the_scan_min_model_at_service_scale() {
        use crate::fault::mix;
        const CAPACITY: usize = 4096;
        const TIES: [TiePolicy; 5] = [
            TiePolicy::UniformRandom,
            TiePolicy::Persistent,
            TiePolicy::FavorLower,
            TiePolicy::FavorHigher,
            TiePolicy::FavorSmallerId,
        ];
        // 40 values, `0.0` and `-0.0` among them: 780 pairs × 2 classes ×
        // 5 tie policies = 7800 keys, so a full cache evicts constantly.
        let pool: Vec<f64> = (0..40)
            .map(|i| match i {
                0 => 0.0,
                1 => -0.0,
                i => f64::from(i) * 0.37 - 3.0,
            })
            .collect();
        let max_age = 1500;
        let mut cache = JudgmentCache::new(
            CachePolicy::default_on()
                .with_capacity(CAPACITY)
                .with_max_age(max_age),
        );
        let mut model = ScanMinModel {
            capacity: CAPACITY,
            max_age,
            entries: Default::default(),
            use_seq: 0,
            stats: CacheStats::default(),
        };
        for i in 0..100_000u64 {
            let w = mix(i ^ 0xCAC4E);
            let field = |shift: u32, modulus: u64| ((w >> shift) % modulus) as usize;
            let (vk, vj) = (pool[field(0, 40)], pool[field(8, 40)]);
            let class = if field(16, 2) == 1 { E } else { N };
            let tie = TIES[field(17, 5)];
            let votes = 1 + field(24, 5) as u32;
            let tick = i / 16;
            if field(32, 2) == 1 {
                let k_won = field(33, 2) == 1;
                cache.insert(vk, vj, class, tie, k_won, votes, tick);
                model.insert(vk, vj, class, tie, k_won, votes, tick);
            } else {
                let got = cache.lookup(vk, vj, class, tie, votes, tick);
                assert_eq!(got, model.lookup(vk, vj, class, tie, votes, tick), "op {i}");
            }
            assert_eq!(cache.stats(), model.stats, "op {i}");
            assert_eq!(cache.len(), model.entries.len(), "op {i}");
        }
        let stats = cache.stats();
        assert!(stats.evictions > 10_000, "the cache must churn: {stats:?}");
        assert!(stats.hits > 1_000, "and serve hits: {stats:?}");
    }

    #[test]
    fn replays_identically() {
        let run = || {
            let mut c = cache(3);
            let mut trace = Vec::new();
            for i in 0..40u64 {
                let a = (i % 7) as f64;
                let b = ((i % 5) + 7) as f64;
                if i % 3 == 0 {
                    c.insert(a, b, N, T, i % 2 == 0, 3, i);
                }
                trace.push(c.lookup(a, b, N, T, 3, i));
            }
            (trace, c.stats())
        };
        assert_eq!(run(), run());
    }
}
