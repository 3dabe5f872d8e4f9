//! Property test of the judgment cache's hits and eviction order against
//! a reference LRU model.
//!
//! The model keeps its entries in a `Vec` ordered by recency (least
//! recently used first): a hit or a store moves an entry to the back, and
//! an insert past capacity drops the front. It never looks at use
//! counters, so it pins down the order any faster eviction structure must
//! reproduce: after every lookup and insert of a random stream, the
//! cache's answer, [`CacheStats`] and length must equal the model's.

use crowd_core::model::{TiePolicy, WorkerClass};
use crowd_platform::serve::{CachePolicy, CacheStats, JudgmentCache};
use proptest::prelude::*;

/// A small value pool, so streams revisit the same pairs and keep the
/// cache full. `0.0` and `-0.0` are distinct keys: the cache keys by bits.
const POOL: [f64; 6] = [0.0, -0.0, 1.0, 2.5, 3.0, 7.0];

#[derive(Debug, Clone, Copy)]
struct Op {
    insert: bool,
    vk: f64,
    vj: f64,
    class: WorkerClass,
    tie: TiePolicy,
    k_won: bool,
    votes: u32,
    tick: u64,
}

impl Op {
    /// Decodes one random word into an operation, a field per bit range.
    fn decode(w: u64) -> Op {
        let field = |shift: u32, modulus: u64| (w >> shift) % modulus;
        Op {
            insert: field(0, 2) == 1,
            vk: POOL[field(1, 8) as usize % POOL.len()],
            vj: POOL[field(4, 8) as usize % POOL.len()],
            class: if field(7, 2) == 1 {
                WorkerClass::Expert
            } else {
                WorkerClass::Naive
            },
            tie: if field(8, 2) == 1 {
                TiePolicy::FavorLower
            } else {
                TiePolicy::UniformRandom
            },
            k_won: field(9, 2) == 1,
            votes: 1 + field(10, 5) as u32,
            tick: field(16, 24),
        }
    }
}

/// One stored verdict of the model: who won, by bits, and how it was bought.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: (u64, u64, WorkerClass, TiePolicy),
    winner_bits: u64,
    votes: u32,
    stored_tick: u64,
}

/// The reference: a recency-ordered list, least recently used first.
struct LruModel {
    capacity: usize,
    max_age: u64,
    entries: Vec<Entry>,
    stats: CacheStats,
}

impl LruModel {
    fn key(op: &Op) -> Option<(u64, u64, WorkerClass, TiePolicy)> {
        let (k, j) = (op.vk.to_bits(), op.vj.to_bits());
        (k != j).then(|| (k.min(j), k.max(j), op.class, op.tie))
    }

    fn position(&self, key: (u64, u64, WorkerClass, TiePolicy)) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn lookup(&mut self, op: &Op) -> Option<bool> {
        let key = Self::key(op)?;
        self.stats.lookups += 1;
        let usable = self.position(key).filter(|&p| {
            let e = &self.entries[p];
            e.votes >= op.votes && op.tick.saturating_sub(e.stored_tick) <= self.max_age
        });
        let Some(p) = usable else {
            self.stats.misses += 1;
            return None;
        };
        let entry = self.entries.remove(p);
        self.entries.push(entry);
        self.stats.hits += 1;
        self.stats.saved_comparisons += u64::from(op.votes);
        Some(entry.winner_bits == op.vk.to_bits())
    }

    fn insert(&mut self, op: &Op) {
        let Some(key) = Self::key(op) else { return };
        if let Some(p) = self.position(key) {
            if self.entries[p].votes > op.votes {
                return;
            }
            self.entries.remove(p);
        }
        self.entries.push(Entry {
            key,
            winner_bits: if op.k_won { op.vk } else { op.vj }.to_bits(),
            votes: op.votes,
            stored_tick: op.tick,
        });
        self.stats.insertions += 1;
        if self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn eviction_and_hits_match_a_reference_lru(
        capacity in 1usize..=8,
        stale in any::<bool>(),
        max_age in 0u64..12,
        ops in prop::collection::vec(any::<u64>().prop_map(Op::decode), 1..200),
    ) {
        let max_age = if stale { max_age } else { u64::MAX };
        let mut cache = JudgmentCache::new(
            CachePolicy::default_on()
                .with_capacity(capacity)
                .with_max_age(max_age),
        );
        let mut model = LruModel {
            capacity,
            max_age,
            entries: Vec::new(),
            stats: CacheStats::default(),
        };
        for (i, op) in ops.iter().enumerate() {
            if op.insert {
                cache.insert(op.vk, op.vj, op.class, op.tie, op.k_won, op.votes, op.tick);
                model.insert(op);
            } else {
                let got = cache.lookup(op.vk, op.vj, op.class, op.tie, op.votes, op.tick);
                prop_assert_eq!(got, model.lookup(op), "op {}: {:?}", i, op);
            }
            prop_assert_eq!(cache.stats(), model.stats, "op {}: {:?}", i, op);
            prop_assert_eq!(cache.len(), model.entries.len(), "op {}", i);
        }
    }
}
