//! Branchless bitmask arbitration core.
//!
//! The simulator's grant sites (SA1, SA2/output, serializer) originally
//! dispatched through `Box<dyn PortArbiter>` and walked per-requestor
//! branches. The paper's arbiter is a Kogge-Stone parallel-prefix network —
//! data-parallel by construction — so this module evaluates it the same way
//! in software: requests live in `u64` lanes, level selection is a handful
//! of mask operations, and the grant is extracted with a prefix-OR smear
//! ([`ks_suffix_or`]) followed by an edge detect ([`msb_one_hot`]).
//!
//! [`BitsetArbiter`] packs all three [`ArbiterKind`] policies into one
//! monomorphic enum so the simulator can keep dense `Vec<BitsetArbiter>`
//! state arrays instead of boxed trait objects. The inverse-weighted policy
//! maintains the Figure 6 accumulator bank with its priority vector cached
//! incrementally, so the hot path never rescans the bank.
//!
//! The boxed arbiters of [`crate::baseline`] and [`crate::iwarb`] remain the
//! reference model; per-grant equivalence (winner *and* accumulator state)
//! is property-tested in `tests/bitset_equiv.rs`.

use crate::{ArbRequest, ArbiterKind, PortArbiter};

/// Maximum number of request lanes: one machine word.
pub const MAX_LANES: usize = 64;

/// Mask of the low `k` lanes.
#[inline]
pub fn lane_mask(k: u32) -> u64 {
    debug_assert!((1..=MAX_LANES as u32).contains(&k));
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Kogge-Stone suffix OR: bit `i` of the result is the OR of bits `i..64`
/// of `x`. Six fixed stages — the software image of the paper's
/// `⌈log₂(K−1)⌉`-deep parallel-prefix network, saturated to a full word.
#[inline]
pub fn ks_suffix_or(x: u64) -> u64 {
    let mut s = x;
    s |= s >> 1;
    s |= s >> 2;
    s |= s >> 4;
    s |= s >> 8;
    s |= s >> 16;
    s |= s >> 32;
    s
}

/// One-hot mask of the most-significant set bit of `x` (zero when `x` is
/// zero): prefix-OR smear then edge detect, `grant = flat & !higher` in the
/// RTL's terms.
#[inline]
pub fn msb_one_hot(x: u64) -> u64 {
    let s = ks_suffix_or(x);
    s & !(s >> 1)
}

/// Branchless single-priority-level request selection: requests boosted by
/// the round-robin thermometer win over bare requests. Semantically the
/// 64-lane image of [`crate::priority::priority_arb_fast1`]'s level pick.
#[inline]
pub fn level_select1(req: u64, rr_therm: u64) -> u64 {
    let boosted = req & rr_therm;
    let m = ((boosted != 0) as u64).wrapping_neg();
    (boosted & m) | (req & !m)
}

/// Branchless two-priority-level request selection (the paper's `P = 2`):
/// level 2 is priority *and* round-robin boost, level 1 is either, level 0
/// is a bare request. Returns the surviving request set of the highest
/// non-empty level. 64-lane image of
/// [`crate::priority::priority_arb_fast2`]'s level pick.
#[inline]
pub fn level_select2(req: u64, pri: u64, rr_therm: u64) -> u64 {
    let l2 = req & pri & rr_therm;
    let l1 = req & (pri | rr_therm);
    let m2 = ((l2 != 0) as u64).wrapping_neg();
    let m1 = ((l1 != 0) as u64).wrapping_neg();
    (l2 & m2) | (l1 & !m2 & m1) | (req & !m1)
}

/// 64-lane constant-time evaluation of the two-level prioritized
/// round-robin arbiter: semantically identical to
/// [`crate::priority::priority_arb_fast2`] but over `u64` lanes, with the
/// winner extracted by Kogge-Stone prefix-OR instead of a count-leading-
/// zeros instruction. Equivalence against [`priority_arb_spec64`] is
/// property-tested.
#[inline]
pub fn priority_arb_fast2_64(req: u64, pri: u64, rr_therm: u64) -> Option<u32> {
    if req == 0 {
        return None;
    }
    Some(msb_one_hot(level_select2(req, pri, rr_therm)).trailing_zeros())
}

/// 64-lane round-robin thermometer update: after granting lane `g`, the
/// prefix mask `[0, g)` boosts exactly the lanes below the winner.
#[inline]
pub fn rr_therm_after_grant64(granted: u32) -> u64 {
    debug_assert!((granted as usize) < MAX_LANES);
    (1u64 << granted) - 1
}

/// The inverse-weighted policy's lane state: the Figure 6 accumulator bank
/// with its priority vector (`accum MSB clear` per lane) cached as a mask
/// and maintained incrementally on every grant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IwLanes {
    /// `M`, the number of inverse-weight bits.
    m_bits: u32,
    /// Patterns per input in the flattened weight table.
    npatterns: u32,
    /// Bit `i` set when lane `i` is high priority (accumulator MSB clear).
    pri_mask: u64,
    /// `(M+1)`-bit accumulators, one per lane.
    accum: Vec<u32>,
    /// `weights[input * npatterns + pattern]`.
    weights: Vec<u32>,
}

impl IwLanes {
    /// Applies one grant, mirroring `AccumulatorBank::grant` (Figure 6's
    /// `accum_nxt`), and folds the priority-vector change into `pri_mask`
    /// so [`BitsetArbiter::pick_mask`] never rescans the bank:
    ///
    /// * high-priority grant — only the winner's lane can change priority;
    /// * low-priority grant — the window shifts, every other lane's MSB
    ///   clears (all go high priority), and only the winner may stay low.
    fn apply_grant(&mut self, winner: u32, inv_weight: u32, k: u32) {
        let msb = 1u32 << self.m_bits;
        debug_assert!(inv_weight < msb, "inverse weight exceeds 2^M - 1");
        let wi = winner as usize;
        let low_grant = self.accum[wi] & msb != 0;
        if low_grant {
            for (i, a) in self.accum.iter_mut().enumerate() {
                let clipped = *a & (msb - 1);
                *a = if i == wi {
                    clipped + inv_weight
                } else if *a & msb == 0 {
                    // Underflow: high-priority non-granted lane clamps to 0.
                    0
                } else {
                    clipped
                };
            }
            self.pri_mask = lane_mask(k);
            if self.accum[wi] & msb != 0 {
                self.pri_mask &= !(1u64 << winner);
            }
        } else {
            let v = self.accum[wi] + inv_weight;
            self.accum[wi] = v;
            if v & msb != 0 {
                self.pri_mask &= !(1u64 << winner);
            }
        }
        debug_assert!(self.accum[wi] < 2 * msb, "accumulator overflow");
    }
}

/// Which selection rule a [`BitsetArbiter`] applies. One variant per
/// [`ArbiterKind`], monomorphic so the simulator's grant loops compile to a
/// jump table over dense state instead of virtual dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Policy {
    /// Single-level round-robin ([`crate::baseline::RoundRobinArbiter`]).
    RoundRobin,
    /// Oldest packet first ([`crate::baseline::AgeArbiter`]).
    Age,
    /// Two-level prioritized round-robin over the Figure 6 accumulator
    /// bank ([`crate::iwarb::InverseWeightedArbiter`]). Boxed: the lane
    /// state is ~3 words of header plus heap vectors, and the other
    /// policies should stay pointer-sized.
    InverseWeighted(Box<IwLanes>),
}

/// A monomorphic bitmask arbiter: any [`ArbiterKind`] policy over up to 64
/// request lanes, picked branchlessly from a `u64` request mask.
///
/// The hot-path entry point is [`BitsetArbiter::pick_mask`], which takes the
/// request set as a bitmask plus lazy per-lane attribute closures (pattern
/// tag, age) so callers never build request arrays. The [`PortArbiter`]
/// implementation adapts the slice interface for tests and benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitsetArbiter {
    k: u32,
    rr_therm: u64,
    policy: Policy,
}

impl BitsetArbiter {
    fn with_policy(k: usize, policy: Policy) -> BitsetArbiter {
        assert!(
            (1..=MAX_LANES).contains(&k),
            "input count {k} out of range 1..={MAX_LANES}"
        );
        BitsetArbiter {
            k: k as u32,
            rr_therm: 0,
            policy,
        }
    }

    /// A plain round-robin arbiter over `k` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds 64.
    pub fn round_robin(k: usize) -> BitsetArbiter {
        Self::with_policy(k, Policy::RoundRobin)
    }

    /// An age-based arbiter over `k` lanes (oldest packet wins, ties break
    /// toward the lowest lane).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds 64.
    pub fn age(k: usize) -> BitsetArbiter {
        Self::with_policy(k, Policy::Age)
    }

    /// An inverse-weighted arbiter from per-input, per-pattern inverse
    /// weights with `M = m_bits` weight bits. Mirrors
    /// [`crate::InverseWeightedArbiter::new`] up to the 64-lane limit.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, ragged, or longer than 64 inputs, if
    /// `m_bits` is outside `1..=16`, or if any weight exceeds `2^M − 1`.
    pub fn inverse_weighted(weights: Vec<Vec<u32>>, m_bits: u32) -> BitsetArbiter {
        let k = weights.len();
        assert!(
            (1..=MAX_LANES).contains(&k),
            "input count {k} out of range 1..={MAX_LANES}"
        );
        assert!(
            (1..=16).contains(&m_bits),
            "m_bits={m_bits} out of range 1..=16"
        );
        let npatterns = weights[0].len();
        assert!(npatterns > 0, "need at least one traffic pattern");
        let max_weight = (1u32 << m_bits) - 1;
        let mut flat = Vec::with_capacity(k * npatterns);
        for (i, w) in weights.iter().enumerate() {
            assert_eq!(w.len(), npatterns, "ragged weights at input {i}");
            for (n, &m) in w.iter().enumerate() {
                assert!(
                    m <= max_weight,
                    "weight m[{i}][{n}] = {m} exceeds 2^M - 1 = {max_weight}"
                );
            }
            flat.extend_from_slice(w);
        }
        Self::with_policy(
            k,
            Policy::InverseWeighted(Box::new(IwLanes {
                m_bits,
                npatterns: npatterns as u32,
                pri_mask: lane_mask(k as u32),
                accum: vec![0; k],
                weights: flat,
            })),
        )
    }

    /// An inverse-weighted arbiter with all weights equal (`2^M / 2`),
    /// matching [`crate::InverseWeightedArbiter::uniform`].
    pub fn uniform_iw(k: usize, m_bits: u32) -> BitsetArbiter {
        let w = (1u32 << m_bits) / 2;
        Self::inverse_weighted(vec![vec![w]; k], m_bits)
    }

    /// Instantiates the policy an [`ArbiterKind`] names over `k` lanes,
    /// mirroring the simulator's construction defaults (inverse-weighted
    /// starts from uniform weights until a weight program is installed).
    pub fn from_kind(kind: &ArbiterKind, k: usize) -> BitsetArbiter {
        match kind {
            ArbiterKind::RoundRobin => Self::round_robin(k),
            ArbiterKind::InverseWeighted { m_bits } => Self::uniform_iw(k, *m_bits),
            ArbiterKind::Age => Self::age(k),
        }
    }

    /// Number of request lanes.
    #[inline]
    pub fn num_lanes(&self) -> usize {
        self.k as usize
    }

    /// The current accumulator value of a lane. Zero for policies without
    /// an accumulator bank (for tests and debugging).
    pub fn accumulator(&self, input: usize) -> u32 {
        assert!(input < self.k as usize, "input out of range");
        match &self.policy {
            Policy::InverseWeighted(iw) => iw.accum[input],
            _ => 0,
        }
    }

    /// The cached high-priority lane mask (all lanes for policies without
    /// an accumulator bank).
    pub fn priorities(&self) -> u64 {
        match &self.policy {
            Policy::InverseWeighted(iw) => iw.pri_mask,
            _ => lane_mask(self.k),
        }
    }

    /// Grants one lane of `req`, committing the policy state, or `None`
    /// when `req` is empty (state untouched).
    ///
    /// `pattern_of` and `age_of` supply per-lane request attributes lazily:
    /// they are invoked at most once, for the winning lane only (`age_of`
    /// once per requesting lane under the age policy). Policies that ignore
    /// an attribute never call its closure, so round-robin monomorphizes to
    /// pure mask arithmetic.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `req` stays within the arbiter's lanes.
    #[inline]
    pub fn pick_mask<P, A>(&mut self, req: u64, pattern_of: P, age_of: A) -> Option<u32>
    where
        P: Fn(u32) -> u8,
        A: Fn(u32) -> u64,
    {
        debug_assert_eq!(req & !lane_mask(self.k), 0, "request bits beyond k");
        if req == 0 {
            return None;
        }
        match &mut self.policy {
            Policy::RoundRobin => {
                let winner = msb_one_hot(level_select1(req, self.rr_therm)).trailing_zeros();
                self.rr_therm = rr_therm_after_grant64(winner);
                Some(winner)
            }
            Policy::Age => {
                let mut rest = req;
                let mut best_lane = rest.trailing_zeros();
                let mut best_age = age_of(best_lane);
                rest &= rest - 1;
                while rest != 0 {
                    let lane = rest.trailing_zeros();
                    rest &= rest - 1;
                    let age = age_of(lane);
                    // Ascending lanes with a strict compare: ties break
                    // toward the lowest lane, as in `AgeArbiter`.
                    if age < best_age {
                        best_age = age;
                        best_lane = lane;
                    }
                }
                Some(best_lane)
            }
            Policy::InverseWeighted(iw) => {
                let winner =
                    msb_one_hot(level_select2(req, iw.pri_mask, self.rr_therm)).trailing_zeros();
                // Unknown pattern labels charge the last stored weight, as
                // in `InverseWeightedArbiter::pick`.
                let pattern = (pattern_of(winner) as u32).min(iw.npatterns - 1);
                let inv_weight = iw.weights[(winner * iw.npatterns + pattern) as usize];
                iw.apply_grant(winner, inv_weight, self.k);
                self.rr_therm = rr_therm_after_grant64(winner);
                Some(winner)
            }
        }
    }
}

impl PortArbiter for BitsetArbiter {
    fn num_inputs(&self) -> usize {
        self.k as usize
    }

    fn pick(&mut self, reqs: &[ArbRequest]) -> Option<usize> {
        if reqs.is_empty() {
            return None;
        }
        let mut req = 0u64;
        let mut pattern = [0u8; MAX_LANES];
        let mut age = [0u64; MAX_LANES];
        for r in reqs {
            assert!(
                r.input < self.k as usize,
                "request input {} out of range",
                r.input
            );
            assert!(
                req >> r.input & 1 == 0,
                "duplicate request for input {}",
                r.input
            );
            req |= 1 << r.input;
            pattern[r.input] = r.pattern;
            age[r.input] = r.age;
        }
        let winner = self.pick_mask(req, |i| pattern[i as usize], |i| age[i as usize])? as usize;
        reqs.iter().position(|r| r.input == winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::priority_arb_spec64;

    #[test]
    fn suffix_or_smears_down() {
        assert_eq!(ks_suffix_or(0), 0);
        assert_eq!(ks_suffix_or(0b1000), 0b1111);
        assert_eq!(ks_suffix_or(1u64 << 63), u64::MAX);
        assert_eq!(ks_suffix_or(0b10100), 0b11111);
    }

    #[test]
    fn msb_extraction_matches_leading_zeros() {
        for x in [0u64, 1, 2, 3, 0b1010, u64::MAX, 1 << 63, (1 << 63) | 1] {
            let expect = if x == 0 {
                0
            } else {
                1u64 << (63 - x.leading_zeros())
            };
            assert_eq!(msb_one_hot(x), expect, "x = {x:#b}");
        }
    }

    #[test]
    fn fast2_64_matches_spec_on_edges() {
        for (req, pri, therm) in [
            (0u64, 0u64, 0u64),
            (1, 0, 0),
            (u64::MAX, 0, 0),
            (u64::MAX, u64::MAX, u64::MAX),
            (0b1010, 0b0010, 0b0011),
            (1 << 63 | 1, 1, 0),
        ] {
            assert_eq!(
                priority_arb_fast2_64(req, pri, therm).map(|w| w as usize),
                priority_arb_spec64(req, pri, therm),
                "req={req:#b} pri={pri:#b} therm={therm:#b}"
            );
        }
    }

    #[test]
    fn empty_mask_yields_none_and_keeps_state() {
        let mut arb = BitsetArbiter::round_robin(4);
        arb.pick_mask(0b0110, |_| 0, |_| 0);
        let before = arb.clone();
        assert_eq!(arb.pick_mask(0, |_| 0, |_| 0), None);
        assert_eq!(arb, before);
    }

    #[test]
    fn round_robin_walks_all_lanes() {
        let mut arb = BitsetArbiter::round_robin(6);
        let mut served = Vec::new();
        for _ in 0..6 {
            served.push(arb.pick_mask(0b111111, |_| 0, |_| 0).unwrap());
        }
        served.sort_unstable();
        assert_eq!(served, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn age_prefers_oldest_with_low_lane_ties() {
        let mut arb = BitsetArbiter::age(8);
        let ages = [90u64, 0, 10, 0, 10, 0, 0, 50];
        assert_eq!(
            arb.pick_mask(0b1001_0101, |_| 0, |i| ages[i as usize]),
            Some(2)
        );
    }

    #[test]
    fn lanes_33_to_64_are_usable() {
        let mut arb = BitsetArbiter::round_robin(64);
        assert_eq!(arb.pick_mask(1u64 << 40, |_| 0, |_| 0), Some(40));
        // Thermometer now boosts lanes below 40; lane 10 beats lane 50.
        assert_eq!(arb.pick_mask(1 << 50 | 1 << 10, |_| 0, |_| 0), Some(10));
    }

    #[test]
    fn iw_single_lane_accumulates_weight() {
        let mut arb = BitsetArbiter::inverse_weighted(vec![vec![10], vec![10]], 5);
        assert_eq!(arb.pick_mask(0b01, |_| 0, |_| 0), Some(0));
        assert_eq!(arb.accumulator(0), 10);
        assert_eq!(arb.accumulator(1), 0);
    }

    #[test]
    fn iw_unknown_pattern_clamps_to_last_weight() {
        let mut arb = BitsetArbiter::inverse_weighted(vec![vec![7]], 5);
        assert_eq!(arb.pick_mask(1, |_| 9, |_| 0), Some(0));
        assert_eq!(arb.accumulator(0), 7);
    }

    #[test]
    #[should_panic(expected = "duplicate request")]
    fn trait_adapter_rejects_duplicates() {
        let mut arb = BitsetArbiter::round_robin(4);
        let r = ArbRequest {
            input: 2,
            pattern: 0,
            age: 0,
        };
        arb.pick(&[r, r]);
    }
}
