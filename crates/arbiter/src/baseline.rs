//! Baseline arbiters the paper compares against.
//!
//! * [`RoundRobinArbiter`] — the locally fair arbiter that causes the
//!   throughput collapse beyond saturation in Figure 9's gray curves.
//! * [`AgeArbiter`] — age-based arbitration [Abts & Weisser, SC'07], the
//!   heavyweight equality-of-service scheme the paper deemed too expensive
//!   for an on-chip router.

use crate::priority::{priority_arb_fast1, rr_therm_after_grant};
use crate::{ArbRequest, PortArbiter};

/// A plain round-robin arbiter (single priority level).
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    k: usize,
    rr_therm: u32,
}

impl RoundRobinArbiter {
    /// Creates a round-robin arbiter over `k` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds 32.
    pub fn new(k: usize) -> RoundRobinArbiter {
        assert!(k > 0 && k <= 32, "input count {k} out of range 1..=32");
        RoundRobinArbiter { k, rr_therm: 0 }
    }
}

impl PortArbiter for RoundRobinArbiter {
    fn num_inputs(&self) -> usize {
        self.k
    }

    fn pick(&mut self, reqs: &[ArbRequest]) -> Option<usize> {
        if reqs.is_empty() {
            return None;
        }
        let mut req_mask = 0u32;
        for r in reqs {
            assert!(r.input < self.k, "request input {} out of range", r.input);
            req_mask |= 1 << r.input;
        }
        let winner =
            priority_arb_fast1(req_mask, self.rr_therm).expect("nonempty requests yield a grant");
        self.rr_therm = rr_therm_after_grant(winner);
        reqs.iter().position(|r| r.input == winner)
    }
}

/// Age-based arbitration: the oldest packet wins (ties break toward the
/// lowest input index).
#[derive(Debug, Clone)]
pub struct AgeArbiter {
    k: usize,
}

impl AgeArbiter {
    /// Creates an age-based arbiter over `k` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> AgeArbiter {
        assert!(k > 0, "input count must be positive");
        AgeArbiter { k }
    }
}

impl PortArbiter for AgeArbiter {
    fn num_inputs(&self) -> usize {
        self.k
    }

    fn pick(&mut self, reqs: &[ArbRequest]) -> Option<usize> {
        reqs.iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.age, r.input))
            .map(|(idx, _)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize]) -> Vec<ArbRequest> {
        inputs
            .iter()
            .map(|&i| ArbRequest {
                input: i,
                pattern: 0,
                age: i as u64,
            })
            .collect()
    }

    #[test]
    fn round_robin_is_fair() {
        let mut arb = RoundRobinArbiter::new(5);
        let rs = reqs(&[0, 1, 2, 3, 4]);
        let mut served = [0u32; 5];
        for _ in 0..500 {
            let w = arb.pick(&rs).unwrap();
            served[rs[w].input] += 1;
        }
        assert_eq!(served, [100; 5]);
    }

    #[test]
    fn round_robin_skips_idle_inputs() {
        let mut arb = RoundRobinArbiter::new(4);
        let rs = reqs(&[1, 3]);
        let mut served = [0u32; 4];
        for _ in 0..100 {
            let w = arb.pick(&rs).unwrap();
            served[rs[w].input] += 1;
        }
        assert_eq!(served, [0, 50, 0, 50]);
    }

    #[test]
    fn age_prefers_oldest() {
        let mut arb = AgeArbiter::new(4);
        let rs = vec![
            ArbRequest {
                input: 0,
                pattern: 0,
                age: 90,
            },
            ArbRequest {
                input: 2,
                pattern: 0,
                age: 10,
            },
            ArbRequest {
                input: 3,
                pattern: 0,
                age: 50,
            },
        ];
        assert_eq!(arb.pick(&rs), Some(1));
    }

    #[test]
    fn empty_requests() {
        assert_eq!(RoundRobinArbiter::new(3).pick(&[]), None);
        assert_eq!(AgeArbiter::new(3).pick(&[]), None);
    }
}
