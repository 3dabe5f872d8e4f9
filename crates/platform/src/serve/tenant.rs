//! Tenants and their token-bucket comparison budgets.
//!
//! Every comparison the service performs is charged to exactly one
//! tenant, and admission control reserves a job's worst-case comparison
//! cost *up front* — so the bucket invariant is provable: the sum of
//! comparisons ever charged to a tenant can never exceed the tokens its
//! bucket ever dispensed (initial fill plus refills). Unused reservation
//! is refunded when the job completes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a tenant (a requester account multiplexed onto the
/// service).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Admission policy for one tenant: a token bucket denominated in
/// comparisons, full at tick 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantPolicy {
    /// The tenant the policy governs.
    pub tenant: TenantId,
    /// Maximum tokens the bucket can hold.
    pub capacity: u64,
    /// Tokens added per service tick (saturating at `capacity`).
    pub refill_per_tick: u64,
}

impl TenantPolicy {
    /// A policy with a full bucket at tick 0.
    pub fn new(tenant: TenantId, capacity: u64, refill_per_tick: u64) -> Self {
        TenantPolicy {
            tenant,
            capacity,
            refill_per_tick,
        }
    }
}

/// A live token bucket: lazily refilled on a logical clock, with a
/// monotone ledger of tokens granted and refunded so accounting proofs
/// need no event replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    policy: TenantPolicy,
    tokens: u64,
    last_tick: u64,
    granted: u64,
    refunded: u64,
}

impl TokenBucket {
    /// A bucket at tick 0 under `policy`.
    pub fn new(policy: TenantPolicy) -> Self {
        TokenBucket {
            tokens: policy.capacity,
            policy,
            last_tick: 0,
            granted: 0,
            refunded: 0,
        }
    }

    /// The governing policy.
    pub fn policy(&self) -> &TenantPolicy {
        &self.policy
    }

    /// Tokens currently available at `tick`.
    pub fn available(&mut self, tick: u64) -> u64 {
        self.advance(tick);
        self.tokens
    }

    /// Monotone total of tokens ever reserved through this bucket.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Monotone total of reserved tokens returned unused.
    pub fn refunded(&self) -> u64 {
        self.refunded
    }

    /// Lazily refills up to `tick`. Strictly monotone: a `tick` at or
    /// before `last_tick` is a no-op — it must not mint refill tokens
    /// or move the clock backwards. WAL resume replays the plan from
    /// tick 0, so a bucket restored mid-run will see ticks it has
    /// already credited; double-minting there would break the
    /// granted-bounds-charges ledger invariant.
    fn advance(&mut self, tick: u64) {
        if tick > self.last_tick {
            let elapsed = tick - self.last_tick;
            let refill = self.policy.refill_per_tick.saturating_mul(elapsed);
            self.tokens = self.tokens.saturating_add(refill).min(self.policy.capacity);
            self.last_tick = tick;
        }
    }

    /// Attempts to reserve `cost` tokens at `tick`. On success the tokens
    /// are removed and counted in [`granted`](TokenBucket::granted).
    pub fn try_reserve(&mut self, cost: u64, tick: u64) -> bool {
        self.advance(tick);
        if cost > self.tokens {
            return false;
        }
        self.tokens -= cost;
        self.granted += cost;
        true
    }

    /// Returns `tokens` of an earlier reservation unused. The refill is
    /// capped at the bucket capacity — an over-full bucket would let a
    /// tenant bank more than its policy allows.
    pub fn refund(&mut self, tokens: u64, tick: u64) {
        self.advance(tick);
        let headroom = self.policy.capacity - self.tokens;
        let back = tokens.min(headroom);
        self.tokens += back;
        self.refunded += back;
    }

    /// How many ticks past `tick` until `cost` tokens could be available,
    /// assuming no competing reservations. `u64::MAX` when the bucket can
    /// never hold `cost` (cost above capacity, or no refill and not
    /// enough banked).
    pub fn ticks_until(&mut self, cost: u64, tick: u64) -> u64 {
        self.advance(tick);
        if cost > self.policy.capacity {
            return u64::MAX;
        }
        if cost <= self.tokens {
            return 0;
        }
        let deficit = cost - self.tokens;
        if self.policy.refill_per_tick == 0 {
            return u64::MAX;
        }
        deficit.div_ceil(self.policy.refill_per_tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bucket at tick 0 holding `tokens` of its `capacity`: it starts
    /// full, and the rest is reserved at tick 0.
    fn bucket(capacity: u64, refill: u64, tokens: u64) -> TokenBucket {
        let mut b = TokenBucket::new(TenantPolicy::new(TenantId(0), capacity, refill));
        assert!(b.try_reserve(capacity - tokens, 0));
        b
    }

    #[test]
    fn reserve_and_refill() {
        let mut b = bucket(100, 10, 100);
        assert!(b.try_reserve(90, 0));
        assert_eq!(b.available(0), 10);
        assert!(!b.try_reserve(20, 0));
        // 2 ticks × 10 refill = 30 available.
        assert!(b.try_reserve(25, 2));
        assert_eq!(b.granted(), 115);
    }

    #[test]
    fn refill_saturates_at_capacity() {
        let mut b = bucket(100, 10, 100);
        assert_eq!(b.available(1_000_000), 100);
    }

    #[test]
    fn refund_is_capped_and_ledgered() {
        let mut b = bucket(100, 0, 100);
        assert!(b.try_reserve(80, 0));
        b.refund(60, 0);
        assert_eq!(b.available(0), 80);
        assert_eq!(b.refunded(), 60);
        // A refund never overfills the bucket.
        b.refund(1_000, 0);
        assert_eq!(b.available(0), 100);
        assert_eq!(b.refunded(), 80);
    }

    #[test]
    fn ticks_until_estimates_refill_time() {
        let mut b = bucket(100, 10, 5);
        assert_eq!(b.ticks_until(5, 0), 0);
        assert_eq!(b.ticks_until(25, 0), 2);
        assert_eq!(b.ticks_until(26, 0), 3);
        assert_eq!(b.ticks_until(101, 0), u64::MAX, "above capacity");
        let mut dry = bucket(100, 0, 5);
        assert_eq!(dry.ticks_until(6, 0), u64::MAX, "no refill");
    }

    #[test]
    fn granted_bounds_charges() {
        // The invariant admission control relies on: granted only moves
        // when a reservation succeeds, so anything charged against
        // reservations is bounded by the dispensed tokens.
        let mut b = bucket(50, 5, 50);
        let mut granted_expected = 0;
        for tick in 0..20 {
            if b.try_reserve(30, tick) {
                granted_expected += 30;
            }
        }
        assert_eq!(b.granted(), granted_expected);
        assert!(b.granted() <= 50 + 5 * 19);
    }

    #[test]
    fn replayed_and_non_monotone_ticks_never_mint_tokens() {
        // WAL resume replays the plan from tick 0 against buckets that
        // may already sit at a later tick, so `advance` must treat any
        // tick ≤ last_tick as a no-op: no refill minted, no clock
        // rewind, ledger untouched.
        let mut b = bucket(100, 10, 20);
        assert!(b.try_reserve(15, 4)); // clock now at tick 4
        let snapshot = b.clone();
        // Replay a journaled-looking tick sequence that runs backwards
        // through ticks the bucket has already credited.
        for &tick in &[4, 3, 2, 0, 4, 1] {
            assert_eq!(
                b.available(tick),
                snapshot.tokens,
                "tick {tick} minted refill"
            );
            assert!(!b.try_reserve(u64::MAX, tick));
            b.refund(0, tick);
        }
        assert_eq!(
            b, snapshot,
            "replayed ticks must leave the bucket bit-identical"
        );

        // And the ledger after a stale-tick reserve/refund pair matches
        // the same operations performed at the current tick.
        let mut replayed = snapshot.clone();
        let mut fresh = snapshot.clone();
        assert!(replayed.try_reserve(5, 1)); // stale tick: same funds as tick 4
        replayed.refund(5, 2);
        assert!(fresh.try_reserve(5, 4));
        fresh.refund(5, 4);
        assert_eq!(replayed.granted(), fresh.granted());
        assert_eq!(replayed.refunded(), fresh.refunded());
        assert_eq!(replayed.available(4), fresh.available(4));
    }
}
