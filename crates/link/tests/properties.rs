//! Property tests for the go-back-N link layer.
//!
//! An adversarial channel drops frames and flips bits in patterns the
//! CRC is guaranteed to catch (CRC-16/CCITT has Hamming distance 4 at this
//! frame length, so every ≤3-bit error and every ≤16-bit burst is
//! detected). Under any such pattern the protocol must deliver flits
//! in order, exactly once, and — once the channel heals — completely,
//! while the sender never holds more than `window` unacknowledged frames.

use anton_link::frame::{Frame, FRAME_BYTES};
use anton_link::gobackn::GoBackNConfig;
use anton_link::{flip_bits, Link};
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
    /// The wire the link sends each frame through: what arrives, if
    /// anything, once the CRC has checked it.
    fn carry(&mut self, frame: Frame) -> Option<Frame> {
        if self.drop_p > 0.0 && self.rng.gen_bool(self.drop_p) {
            return None;
        }
        let mut wire = frame.encode();
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
        Frame::decode(&wire)
    }

    fn heal(&mut self) {
        self.drop_p = 0.0;
        self.corrupt_p = 0.0;
    }
}

/// Drives `total` serial-numbered flits through a [`Link`] whose wire is
/// the adversary, asserting the window bound every slot (the link itself
/// checks each accepted flit's serial: in order, exactly once); then heals
/// the channel and asserts complete delivery.
fn exercise(
    seed: u64,
    window: u8,
    timeout: u64,
    total: u64,
    drop_p: f64,
    corrupt_p: f64,
    mode: Corruption,
) -> Result<(), TestCaseError> {
    let mut link = Link::new(GoBackNConfig { window, timeout }, PROP_DELAY);
    let mut adversary = Adversary {
        rng: StdRng::seed_from_u64(seed),
        drop_p,
        corrupt_p,
        mode,
    };
    let mut offered = 0u64;
    let lossy_slots = 4 * total;
    let deadline = lossy_slots + 20 * total + 8 * timeout + 1_000;
    let mut now = 0u64;
    while now < deadline {
        if now == lossy_slots {
            adversary.heal();
        }
        if offered < total && link.sender().can_accept() {
            link.offer();
            offered += 1;
        }
        link.land(now, |f| adversary.carry(f));
        link.transmit(now, |f| adversary.carry(f));
        let in_flight = link.sender().in_flight();
        prop_assert!(
            in_flight <= window as usize,
            "sender exceeded its window at slot {now}: {in_flight} > {window}"
        );
        if link.receiver().accepted() == total && in_flight == 0 {
            break;
        }
        now += 1;
    }
    prop_assert_eq!(
        link.receiver().accepted(),
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
    let mut link = Link::new(
        GoBackNConfig {
            window: 64,
            timeout: 48,
        },
        PROP_DELAY,
    );
    let mut rng = StdRng::seed_from_u64(0xA2701);
    let mut wire = |f| flip_bits(&mut rng, 1e-3, f);
    // `land` checks each accepted flit's serial against the one it
    // expects.
    for now in 0..30_000 {
        if link.sender().can_accept() {
            link.offer();
        }
        link.land(now, &mut wire);
        link.transmit(now, &mut wire);
    }
    let delivered = link.receiver().accepted();
    assert!(
        delivered > 2 * 256,
        "need more than two sequence wraps, delivered {delivered}"
    );
    assert!(
        link.sender().retransmissions > 0,
        "errors must force retransmission"
    );
    // At most a window of offered flits is still unacknowledged: every
    // flit the sender released was delivered, and none twice.
    assert!(
        link.in_transit() <= 64,
        "delivered {delivered}, {} offered flits outstanding",
        link.in_transit()
    );
}
