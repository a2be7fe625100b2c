//! Exact-cycle wake scheduling for simulator components.
//!
//! The kernel's hot loop must not rescan every router, channel adapter, and
//! endpoint adapter each cycle: on a 4×4×4 machine that is thousands of
//! components, most of which have nothing to do on most cycles. Instead,
//! every state change that could enable a component to act schedules a wake
//! for it at the exact cycle the opportunity opens (a flit clearing the
//! receiver pipeline, a credit returning, a busy window or token bucket
//! expiring), and each cycle of [`Sim::run`](crate::sim::Sim::run)
//! processes only the woken components.
//!
//! A [`Scheduler`] is a small calendar wheel of per-cycle bitsets. Waking is
//! an O(1) bit set; draining a cycle is an ascending-index bit scan, which
//! preserves the strict component ordering the simulator's determinism
//! (shared RNG draws, packet-slab id allocation, delivery order) depends on.
//! Wakes are bounded to [`HORIZON`] cycles out — every wake source in the
//! simulator is a short structural delay (pipeline depths, packet flit
//! counts, serializer token refill), far below the bound.
//!
//! # Cost model
//!
//! Each cycle's bitset is three levels deep: bit `k` of a *mid* word says
//! leaf word `k` is non-zero, bit `k` of a *top* word says the same of mid
//! word `k`. A wake sets its leaf bit and, only when that leaf word was
//! empty, the two summary bits above it; a drain or clear descends from the
//! top words (one per 262 144 components) into set bits only. A cycle
//! therefore costs O(components woken + top words) whatever the machine
//! size — an idle cycle reads one zero word per wheel — and because every
//! level is scanned lowest bit first, the descent visits components in the
//! same ascending order as a flat scan.

/// Calendar depth in cycles (power of two). Wakes must target a cycle less
/// than this far in the future.
pub const HORIZON: u64 = 64;

/// Iterates the set bit positions of `w`, lowest first.
#[inline]
fn ones(mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            bit
        })
    })
}

/// A calendar wheel of component wake-ups with exact-cycle semantics.
#[derive(Debug)]
pub struct Scheduler {
    /// `u64` words per cycle at each level: `[leaf, mid, top]`.
    words: [usize; 3],
    /// `HORIZON` per-cycle component bitsets, flattened slot-major.
    leaf: Vec<u64>,
    /// Per-slot summary of `leaf`: one bit per non-zero leaf word.
    mid: Vec<u64>,
    /// Per-slot summary of `mid`: one bit per non-zero mid word.
    top: Vec<u64>,
    /// Slot of the cycle being processed (`now % HORIZON` of the last
    /// [`begin_cycle`](Self::begin_cycle)).
    cur: usize,
    /// Bitset words (all levels) read by [`end_cycle`](Self::end_cycle) so
    /// far.
    visited: u64,
}

impl Scheduler {
    /// Creates a scheduler for `n` components, all of them woken for
    /// cycle 0 (every component must get one bootstrap look).
    pub fn new(n: usize) -> Scheduler {
        let leaf_words = n.div_ceil(64);
        let mid_words = leaf_words.div_ceil(64);
        let words = [leaf_words, mid_words, mid_words.div_ceil(64)];
        // Slot 0 starts with the low `count` bits of each level set.
        let level = |per_slot: usize, count: usize| {
            let mut v = vec![0u64; per_slot * HORIZON as usize];
            for (i, w) in v.iter_mut().take(per_slot).enumerate() {
                let bits = count - i * 64;
                *w = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
            }
            v
        };
        Scheduler {
            words,
            leaf: level(words[0], n),
            mid: level(words[1], words[0]),
            top: level(words[2], words[1]),
            cur: 0,
            visited: 0,
        }
    }

    /// Schedules component `i` for processing at cycle `at` (`at == now`
    /// wakes it for the cycle in progress; its phase must not have been
    /// drained yet).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `HORIZON` or more cycles ahead.
    #[inline]
    pub fn schedule(&mut self, i: usize, at: u64, now: u64) {
        assert!(
            at.wrapping_sub(now) < HORIZON,
            "wake for component {i} at cycle {at} outside [{now}, {now}+{HORIZON})"
        );
        let slot = (at % HORIZON) as usize;
        let (l, m, t) = (i >> 6, i >> 12, i >> 18);
        let word = &mut self.leaf[slot * self.words[0] + l];
        let was_empty = *word == 0;
        *word |= 1 << (i & 63);
        // Only the first wake into a leaf word touches the summaries. ORing
        // them unconditionally is branch-free, but when most components
        // wake (saturation) every wake of a slot then read-modify-writes
        // the same mid and top word, a store-to-load chain that cost 5 % of
        // a run in which 768 wires woke on most cycles.
        if was_empty {
            self.mid[slot * self.words[1] + m] |= 1 << (l & 63);
            self.top[slot * self.words[2] + t] |= 1 << (m & 63);
        }
    }

    /// Starts a cycle: its slot becomes the current set.
    #[inline]
    pub fn begin_cycle(&mut self, now: u64) {
        self.cur = (now % HORIZON) as usize;
    }

    /// Whether no component is woken for the cycle in progress.
    #[inline]
    pub fn is_empty(&self) -> bool {
        let [_, _, tw] = self.words;
        self.top[self.cur * tw..][..tw].iter().all(|&w| w == 0)
    }

    /// Appends the current set's component indices to `out` in ascending
    /// order (the order every processing phase must use).
    pub fn snapshot_into(&self, out: &mut Vec<u32>) {
        let [lw, mw, tw] = self.words;
        let leaf = &self.leaf[self.cur * lw..][..lw];
        let mid = &self.mid[self.cur * mw..][..mw];
        for (t, &top) in self.top[self.cur * tw..][..tw].iter().enumerate() {
            for m in ones(top).map(|b| t * 64 + b) {
                for l in ones(mid[m]).map(|b| m * 64 + b) {
                    out.extend(ones(leaf[l]).map(|b| (l * 64 + b) as u32));
                }
            }
        }
    }

    /// Ends a cycle: clears the current set.
    pub fn end_cycle(&mut self) {
        let [lw, mw, tw] = self.words;
        let leaf = &mut self.leaf[self.cur * lw..][..lw];
        let mid = &mut self.mid[self.cur * mw..][..mw];
        let mut visited = tw;
        for (t, top) in self.top[self.cur * tw..][..tw].iter_mut().enumerate() {
            for m in ones(std::mem::take(top)).map(|b| t * 64 + b) {
                visited += 1;
                for l in ones(std::mem::take(&mut mid[m])).map(|b| m * 64 + b) {
                    visited += 1;
                    leaf[l] = 0;
                }
            }
        }
        self.visited += visited as u64;
    }

    /// Bitset words, summary levels included, that every
    /// [`end_cycle`](Self::end_cycle) so far has read. A cycle's
    /// [`snapshot_into`](Self::snapshot_into) descends into the same words,
    /// so this is the wheel's per-cycle work in host-independent units.
    pub fn words_visited(&self) -> u64 {
        self.visited
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    fn drain(s: &Scheduler) -> Vec<u32> {
        let mut v = Vec::new();
        s.snapshot_into(&mut v);
        v
    }

    #[test]
    fn all_components_wake_at_cycle_zero() {
        let mut s = Scheduler::new(130);
        s.begin_cycle(0);
        let got = drain(&s);
        assert_eq!(got.len(), 130);
        assert_eq!(got[0], 0);
        assert_eq!(got[129], 129);
        s.end_cycle();
        s.begin_cycle(1);
        assert!(drain(&s).is_empty(), "no wakes scheduled for cycle 1");
    }

    #[test]
    fn wakes_fire_at_their_exact_cycle_in_ascending_order() {
        let mut s = Scheduler::new(200);
        s.begin_cycle(0);
        s.end_cycle();
        s.schedule(150, 3, 1);
        s.schedule(7, 3, 1);
        s.schedule(64, 3, 1);
        s.schedule(9, 2, 1);
        s.begin_cycle(2);
        assert_eq!(drain(&s), vec![9]);
        s.end_cycle();
        s.begin_cycle(3);
        assert_eq!(drain(&s), vec![7, 64, 150]);
        s.end_cycle();
        s.begin_cycle(4);
        assert!(drain(&s).is_empty());
    }

    #[test]
    fn same_cycle_wake_joins_current_set() {
        let mut s = Scheduler::new(10);
        s.begin_cycle(0);
        s.end_cycle();
        s.begin_cycle(5);
        assert!(s.is_empty());
        s.schedule(3, 5, 5);
        assert!(!s.is_empty());
        assert_eq!(drain(&s), vec![3]);
    }

    #[test]
    fn duplicate_wakes_coalesce() {
        let mut s = Scheduler::new(10);
        s.begin_cycle(0);
        s.end_cycle();
        s.schedule(4, 2, 0);
        s.schedule(4, 2, 1);
        s.begin_cycle(2);
        assert_eq!(drain(&s), vec![4]);
    }

    #[test]
    fn wheel_wraps_around_the_horizon() {
        let mut s = Scheduler::new(3);
        s.begin_cycle(0);
        s.end_cycle();
        for t in 1..(3 * HORIZON) {
            s.schedule(1, t, t - 1);
            s.begin_cycle(t);
            assert_eq!(drain(&s), vec![1], "cycle {t}");
            s.end_cycle();
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn wake_beyond_horizon_is_rejected() {
        let mut s = Scheduler::new(4);
        s.schedule(0, HORIZON, 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn wake_in_the_past_is_rejected() {
        let mut s = Scheduler::new(4);
        s.schedule(0, 2, 3);
    }

    #[test]
    fn idle_cycle_visits_one_word_per_262144_components() {
        for (n, top_words) in [(100, 1), (61_440, 1), (262_144, 1), (491_520, 2)] {
            let mut s = Scheduler::new(n);
            s.begin_cycle(0);
            assert_eq!(drain(&s).len(), n);
            s.end_cycle();
            let after_bootstrap = s.words_visited();
            s.begin_cycle(1);
            assert!(s.is_empty());
            s.end_cycle();
            assert_eq!(s.words_visited() - after_bootstrap, top_words, "n={n}");
        }
    }

    /// Every level of slot `slot` summarises the level below exactly.
    fn assert_summaries_exact(s: &Scheduler, slot: usize) {
        let [lw, mw, tw] = s.words;
        let level = |v: &[u64], per_slot: usize| v[slot * per_slot..][..per_slot].to_vec();
        let (leaf, mid, top) = (level(&s.leaf, lw), level(&s.mid, mw), level(&s.top, tw));
        for (below, above) in [(&leaf, &mid), (&mid, &top)] {
            for (k, &w) in below.iter().enumerate() {
                let flagged = above[k / 64] >> (k % 64) & 1 == 1;
                assert_eq!(flagged, w != 0, "slot {slot} word {k}");
            }
        }
    }

    /// One cycle of a wake stream: `(component, cycles ahead)` wakes issued
    /// before the cycle begins (0 ahead is `Sim::inject` between steps),
    /// then same-cycle wakes issued after a first snapshot (mid-drain).
    type CycleWakes = (Vec<(usize, u64)>, Vec<usize>);

    fn cycle_wakes() -> impl Strategy<Value = Vec<CycleWakes>> {
        let ahead = proptest::collection::vec((0usize..1 << 20, 0..HORIZON), 0..12);
        let same = proptest::collection::vec(0usize..1 << 20, 0..3);
        proptest::collection::vec((ahead, same), 3 * HORIZON as usize..5 * HORIZON as usize)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Against a naive set-per-cycle reference: identical ascending
        /// snapshots every cycle over several horizon wrap-arounds, and no
        /// summary bit or leaf word survives `end_cycle`.
        #[test]
        fn matches_a_btreeset_per_cycle_reference(
            // Never a multiple of 64 or 4096; the last arm is above 4096, so
            // two mid words are live.
            n in (0usize..3, 1usize..64).prop_map(|(arm, r)| [r, 65 * r, 4096 + 65 * r][arm]),
            stream in cycle_wakes(),
        ) {
            let mut s = Scheduler::new(n);
            let mut reference: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); stream.len() + HORIZON as usize];
            reference[0] = (0..n as u32).collect();
            for (now, (ahead, same)) in stream.iter().enumerate() {
                for &(i, dt) in ahead {
                    s.schedule(i % n, now as u64 + dt, now as u64);
                    reference[now + dt as usize].insert((i % n) as u32);
                }
                s.begin_cycle(now as u64);
                let want: Vec<u32> = reference[now].iter().copied().collect();
                prop_assert_eq!(s.is_empty(), want.is_empty());
                prop_assert_eq!(drain(&s), want);
                for &i in same {
                    s.schedule(i % n, now as u64, now as u64);
                    reference[now].insert((i % n) as u32);
                }
                let want: Vec<u32> = reference[now].iter().copied().collect();
                prop_assert_eq!(drain(&s), want);
                assert_summaries_exact(&s, s.cur);
                s.end_cycle();
                // Empty at the top and exact below it: every word is zero.
                prop_assert!(s.is_empty());
                assert_summaries_exact(&s, s.cur);
            }
            for slot in 0..HORIZON as usize {
                assert_summaries_exact(&s, slot);
            }
        }
    }
}
