//! Property tests for the go-back-N link layer.
//!
//! An adversarial channel drops frames and flips bits in patterns the
//! CRC is guaranteed to catch (CRC-16/CCITT has Hamming distance 4 at this
//! frame length, so every ≤3-bit error and every ≤16-bit burst is
//! detected). Under any such pattern the protocol must deliver flits
//! in order, exactly once, and — once the channel heals — completely,
//! while the sender never holds more than `window` unacknowledged frames.

use std::collections::VecDeque;

use anton_link::channel::{LinkParams, LinkSim};
use anton_link::frame::{Frame, FLIT_BYTES, FRAME_BYTES};
use anton_link::gobackn::{GoBackNConfig, Receiver, Sender};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One-way propagation delay of the test channel, in frame slots.
const PROP_DELAY: u64 = 4;

/// How the adversary corrupts a frame it does not drop.
#[derive(Clone, Copy)]
enum Corruption {
    /// Flip 1–3 independent bits (weight below the CRC's Hamming distance).
    Flips,
    /// Flip bits within one contiguous run of ≤16 bits (within the CRC's
    /// guaranteed burst-detection length).
    Burst,
}

/// A lossy channel direction: drops frames and corrupts survivors.
struct Adversary {
    rng: StdRng,
    drop_p: f64,
    corrupt_p: f64,
    mode: Corruption,
}

impl Adversary {
    fn transmit(
        &mut self,
        mut wire: [u8; FRAME_BYTES],
        queue: &mut VecDeque<(u64, [u8; FRAME_BYTES])>,
        now: u64,
    ) {
        if self.drop_p > 0.0 && self.rng.gen_bool(self.drop_p) {
            return;
        }
        if self.corrupt_p > 0.0 && self.rng.gen_bool(self.corrupt_p) {
            match self.mode {
                Corruption::Flips => {
                    for _ in 0..self.rng.gen_range(1usize..=3) {
                        let bit = self.rng.gen_range(0..FRAME_BYTES * 8);
                        wire[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                Corruption::Burst => {
                    let len = self.rng.gen_range(1usize..=16);
                    let start = self.rng.gen_range(0..FRAME_BYTES * 8 - len + 1);
                    for (i, bit) in (start..start + len).enumerate() {
                        // Always flip the first bit so the burst is nonempty.
                        if i == 0 || self.rng.gen_bool(0.5) {
                            wire[bit / 8] ^= 1 << (bit % 8);
                        }
                    }
                }
            }
        }
        queue.push_back((now + PROP_DELAY, wire));
    }

    fn heal(&mut self) {
        self.drop_p = 0.0;
        self.corrupt_p = 0.0;
    }
}

/// Drives `total` serial-numbered flits through an adversarial full-duplex
/// channel, asserting in-order exactly-once delivery and the window bound
/// every slot; then heals the channel and asserts complete delivery.
fn exercise(
    seed: u64,
    window: u8,
    timeout: u64,
    total: u64,
    drop_p: f64,
    corrupt_p: f64,
    mode: Corruption,
) -> Result<(), TestCaseError> {
    let mut tx = Sender::new(GoBackNConfig { window, timeout });
    let mut rx = Receiver::new();
    let mut forward: VecDeque<(u64, [u8; FRAME_BYTES])> = VecDeque::new();
    let mut reverse: VecDeque<(u64, [u8; FRAME_BYTES])> = VecDeque::new();
    let mut adversary = Adversary {
        rng: StdRng::seed_from_u64(seed),
        drop_p,
        corrupt_p,
        mode,
    };
    let mut offered = 0u64;
    // Flits accepted so far; each accepted flit's serial is checked
    // against it.
    let mut checked = 0u64;
    let lossy_slots = 4 * total;
    let deadline = lossy_slots + 20 * total + 8 * timeout + 1_000;
    let mut now = 0u64;
    while now < deadline {
        if now == lossy_slots {
            adversary.heal();
        }
        if offered < total && tx.can_accept() {
            let mut payload = [0u8; FLIT_BYTES];
            payload[..8].copy_from_slice(&offered.to_le_bytes());
            tx.offer(payload);
            offered += 1;
        }
        while let Some(&(t, wire)) = reverse.front() {
            if t > now {
                break;
            }
            reverse.pop_front();
            if let Some(f) = Frame::decode(&wire) {
                tx.on_ack(f.ack, now);
            }
        }
        while let Some(&(t, wire)) = forward.front() {
            if t > now {
                break;
            }
            forward.pop_front();
            if let Some(f) = Frame::decode(&wire) {
                let before = rx.expected();
                let ack = rx.on_frame(&f);
                if ack != before {
                    let mut id = [0u8; 8];
                    id.copy_from_slice(&f.payload[..8]);
                    prop_assert_eq!(
                        u64::from_le_bytes(id),
                        checked,
                        "delivery out of order or duplicated at index {}",
                        checked
                    );
                    checked += 1;
                }
                adversary.transmit(Frame::ack(ack).encode(), &mut reverse, now);
            }
        }
        if let Some(f) = tx.next_frame(now, rx.expected()) {
            adversary.transmit(f.encode(), &mut forward, now);
        }
        prop_assert!(
            tx.in_flight() <= window as usize,
            "sender exceeded its window at slot {now}: {} > {window}",
            tx.in_flight()
        );
        if checked == total && tx.in_flight() == 0 {
            break;
        }
        now += 1;
    }
    prop_assert_eq!(rx.accepted(), checked);
    prop_assert_eq!(
        checked,
        total,
        "healed channel must deliver everything (offered {}, window {window}, timeout {timeout})",
        offered
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_flips_and_drops_never_reorder_or_corrupt(
        seed in any::<u64>(),
        window in 1u8..=64,
        timeout in 12u64..64,
        total in 300u64..700,
        drop_p in 0.0f64..0.4,
        corrupt_p in 0.0f64..0.4,
    ) {
        exercise(seed, window, timeout, total, drop_p, corrupt_p, Corruption::Flips)?;
    }

    #[test]
    fn burst_corruption_never_reorders_or_corrupts(
        seed in any::<u64>(),
        window in 1u8..=64,
        timeout in 12u64..64,
        total in 300u64..700,
        drop_p in 0.0f64..0.3,
        corrupt_p in 0.0f64..0.5,
    ) {
        exercise(seed, window, timeout, total, drop_p, corrupt_p, Corruption::Burst)?;
    }
}

/// Regression for the sequence-number wraparound defect: push well over two
/// full 8-bit sequence wraps (> 2 × 256 frames) through a lossy saturated
/// link and require in-order, no-duplicate delivery throughout. Before the
/// `on_ack` high-water guard, an aliased ack near the wrap could silently
/// discard unacknowledged frames, which shows up here as a serial-number
/// gap.
#[test]
fn lossy_link_stays_in_order_across_sequence_wraps() {
    let params = LinkParams {
        bit_error_rate: 1e-3,
        ..LinkParams::default()
    };
    let mut sim = LinkSim::new(
        params,
        GoBackNConfig {
            window: 64,
            timeout: 48,
        },
        StdRng::seed_from_u64(0xA2701),
    );
    // `run_saturated` checks each accepted flit's serial against the count
    // accepted before it.
    let stats = sim.run_saturated(30_000);
    assert!(
        stats.delivered > 2 * 256,
        "need more than two sequence wraps, delivered {}",
        stats.delivered
    );
    assert!(
        stats.retransmissions > 0,
        "errors must force retransmission"
    );
    // At most a window of offered flits is still unacknowledged: every
    // flit the sender released was delivered, and none twice.
    assert!(
        stats.delivered <= stats.offered && stats.offered - stats.delivered <= 64,
        "delivered {} of {} offered",
        stats.delivered,
        stats.offered
    );
}
