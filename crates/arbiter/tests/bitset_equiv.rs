//! Per-grant equivalence of the branchless bitmask arbitration core
//! ([`BitsetArbiter`]) against the reference arbiters.
//!
//! Two tiers:
//!
//! * up to 32 requestors, every policy is stepped in lockstep with its
//!   boxed reference implementation over random request streams — winners
//!   must agree on every grant, and the inverse-weighted policy must also
//!   agree on the full accumulator bank after every grant;
//! * 33..=64 requestors (beyond the reference arbiters' `u32` masks), the
//!   selection network is checked against [`priority_arb_spec64`] and the
//!   inverse-weighted policy against a direct scalar transcription of
//!   Figure 6's accumulator update.

use anton_arbiter::bitset::{lane_mask, priority_arb_fast2_64, rr_therm_after_grant64};
use anton_arbiter::priority::priority_arb_spec64;
use anton_arbiter::{
    AgeArbiter, ArbRequest, BitsetArbiter, InverseWeightedArbiter, PortArbiter, RoundRobinArbiter,
};
use proptest::prelude::*;

/// Deterministic per-step lane attributes derived from a stream seed
/// (splitmix64), so every (step, lane) pair gets an independent pattern
/// tag and age without carrying vectors around.
fn lane_attr(seed: u64, step: usize, lane: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + (step as u64) * 64 + lane as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn reqs_of_mask(mask: u64, seed: u64, step: usize, npatterns: u8) -> Vec<ArbRequest> {
    let mut reqs = Vec::new();
    let mut rest = mask;
    while rest != 0 {
        let lane = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let attr = lane_attr(seed, step, lane);
        reqs.push(ArbRequest {
            input: lane,
            pattern: (attr & 0xff) as u8 % npatterns,
            age: attr >> 8 & 0xffff,
        });
    }
    reqs
}

proptest! {
    /// Round-robin: winner-equal to `RoundRobinArbiter` on every grant.
    #[test]
    fn round_robin_matches_reference(
        k in 1usize..=32,
        stream in proptest::collection::vec(any::<u64>(), 1..60),
        seed in any::<u64>(),
    ) {
        let mask = lane_mask(k as u32);
        let mut bitset = BitsetArbiter::round_robin(k);
        let mut reference = RoundRobinArbiter::new(k);
        for (step, raw) in stream.iter().enumerate() {
            let req = raw & mask;
            let reqs = reqs_of_mask(req, seed, step, 4);
            let want = reference.pick(&reqs).map(|pos| reqs[pos].input);
            let got = bitset
                .pick_mask(req, |_| 0, |_| 0)
                .map(|w| w as usize);
            prop_assert_eq!(got, want, "step {} req {:#b}", step, req);
        }
    }

    /// Age: winner-equal to `AgeArbiter`, ages drawn per (step, lane).
    #[test]
    fn age_matches_reference(
        k in 1usize..=32,
        stream in proptest::collection::vec(any::<u64>(), 1..60),
        seed in any::<u64>(),
    ) {
        let mask = lane_mask(k as u32);
        let mut bitset = BitsetArbiter::age(k);
        let mut reference = AgeArbiter::new(k);
        for (step, raw) in stream.iter().enumerate() {
            let req = raw & mask;
            let reqs = reqs_of_mask(req, seed, step, 4);
            let want = reference.pick(&reqs).map(|pos| reqs[pos].input);
            let got = bitset
                .pick_mask(req, |_| 0, |i| lane_attr(seed, step, i as usize) >> 8 & 0xffff)
                .map(|w| w as usize);
            prop_assert_eq!(got, want, "step {} req {:#b}", step, req);
        }
    }

    /// Inverse-weighted: winner-equal to `InverseWeightedArbiter` AND the
    /// full accumulator bank agrees after every grant, over random weight
    /// tables and multi-pattern request streams (pattern tags may exceed
    /// the table so the clamp path is exercised too).
    #[test]
    fn inverse_weighted_matches_reference(
        k in 1usize..=32,
        npatterns in 1usize..=3,
        m_bits in 2u32..=6,
        wseed in any::<u64>(),
        stream in proptest::collection::vec(any::<u64>(), 1..60),
        seed in any::<u64>(),
    ) {
        let max_w = (1u32 << m_bits) - 1;
        let weights: Vec<Vec<u32>> = (0..k)
            .map(|i| {
                (0..npatterns)
                    .map(|n| (lane_attr(wseed, n, i) as u32) % (max_w + 1))
                    .collect()
            })
            .collect();
        let mask = lane_mask(k as u32);
        let mut bitset = BitsetArbiter::inverse_weighted(weights.clone(), m_bits);
        let mut reference = InverseWeightedArbiter::new(weights, m_bits);
        for (step, raw) in stream.iter().enumerate() {
            let req = raw & mask;
            // Pattern labels 0..=3: with npatterns <= 3 some labels overrun
            // the table and must clamp identically on both sides.
            let reqs = reqs_of_mask(req, seed, step, 4);
            let want = reference.pick(&reqs).map(|pos| reqs[pos].input);
            let got = bitset
                .pick_mask(
                    req,
                    |i| (lane_attr(seed, step, i as usize) & 0xff) as u8 % 4,
                    |_| 0,
                )
                .map(|w| w as usize);
            prop_assert_eq!(got, want, "step {} req {:#b}", step, req);
            for i in 0..k {
                prop_assert_eq!(
                    bitset.accumulator(i),
                    reference.accumulator(i),
                    "accumulator {} diverged at step {}",
                    i,
                    step
                );
            }
        }
    }

    /// The 64-lane selection network matches `priority_arb_spec64` for
    /// arbitrary request/priority masks and thermometer states.
    #[test]
    fn fast2_64_matches_spec(
        k in 1usize..=64,
        req_raw in any::<u64>(),
        pri_raw in any::<u64>(),
        g in 0usize..64,
    ) {
        let mask = lane_mask(k as u32);
        let req = req_raw & mask;
        let pri = pri_raw & mask;
        let therm = rr_therm_after_grant64((g % k) as u32) & mask;
        prop_assert_eq!(
            priority_arb_fast2_64(req, pri, therm).map(|w| w as usize),
            priority_arb_spec64(req, pri, therm)
        );
    }

    /// Beyond the reference arbiters' 32-lane ceiling: the inverse-weighted
    /// policy at 33..=64 lanes is stepped against a direct scalar
    /// transcription of Figure 6's accumulator update + the 64-lane spec
    /// selector.
    #[test]
    fn inverse_weighted_wide_lanes_match_scalar_spec(
        k in 33usize..=64,
        m_bits in 2u32..=6,
        wseed in any::<u64>(),
        stream in proptest::collection::vec(any::<u64>(), 1..40),
        seed in any::<u64>(),
    ) {
        let max_w = (1u32 << m_bits) - 1;
        let weights: Vec<u32> = (0..k)
            .map(|i| (lane_attr(wseed, 0, i) as u32) % (max_w + 1))
            .collect();
        let mask = lane_mask(k as u32);
        let mut bitset =
            BitsetArbiter::inverse_weighted(weights.iter().map(|&w| vec![w]).collect(), m_bits);
        // Scalar model: accumulators + thermometer, updated per Figure 6.
        let msb = 1u32 << m_bits;
        let mut accum = vec![0u32; k];
        let mut therm = 0u64;
        for (step, raw) in stream.iter().enumerate() {
            let req = raw & mask;
            let pri = accum
                .iter()
                .enumerate()
                .filter(|(_, &a)| a & msb == 0)
                .fold(0u64, |m, (i, _)| m | 1 << i);
            let want = priority_arb_spec64(req, pri, therm);
            let got = bitset
                .pick_mask(req, |_| 0, |_| 0)
                .map(|w| w as usize);
            prop_assert_eq!(got, want, "step {} req {:#b}", step, req);
            if let Some(w) = want {
                let low_grant = accum[w] & msb != 0;
                for (i, a) in accum.iter_mut().enumerate().take(k) {
                    let clipped = *a & (msb - 1);
                    *a = if i == w {
                        clipped + weights[w]
                    } else if low_grant {
                        if *a & msb == 0 { 0 } else { clipped }
                    } else {
                        *a
                    };
                }
                therm = rr_therm_after_grant64(w as u32);
                for (i, &a) in accum.iter().enumerate().take(k) {
                    prop_assert_eq!(bitset.accumulator(i), a, "lane {}", i);
                }
            }
        }
    }

    /// The `PortArbiter` adapter (request slices in arbitrary order) agrees
    /// with the boxed references too — this is the interface the proptest
    /// microbenchmark and any remaining slice-based callers use.
    #[test]
    fn trait_adapter_matches_reference(
        k in 1usize..=32,
        stream in proptest::collection::vec(any::<u64>(), 1..40),
        seed in any::<u64>(),
    ) {
        let mask = lane_mask(k as u32);
        let mut bitset = BitsetArbiter::uniform_iw(k, 5);
        let mut reference = InverseWeightedArbiter::uniform(k, 5);
        for (step, raw) in stream.iter().enumerate() {
            let req = raw & mask;
            let mut reqs = reqs_of_mask(req, seed, step, 2);
            // Present requests highest-input-first: grant indices are
            // positions within the slice, so ordering must not matter.
            reqs.reverse();
            let want = reference.pick(&reqs);
            let got = bitset.pick(&reqs);
            prop_assert_eq!(got, want, "step {} req {:#b}", step, req);
        }
    }
}
