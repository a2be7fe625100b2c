//! One direction of a torus channel running go-back-N over a wire the
//! caller supplies: the one landing/transmit loop that the simulator's
//! lossy-link shim, the Section 2.2 run and the link tests all drive.
//!
//! A [`Link`] holds the sender, the receiver and the data frames and acks
//! on the wire between them. The wire is a closure called once per frame
//! put on the link; it decides at send time what will arrive (`None` =
//! lost). Each offered flit carries its serial in its first eight bytes,
//! and the link checks every accepted flit's serial against the one it
//! expects, so in-order, exactly-once delivery holds on every run without
//! keeping the delivered flits.

use std::collections::VecDeque;

use rand::Rng;

use crate::frame::{Frame, FLIT_BYTES, FRAME_BYTES};
use crate::gobackn::{GoBackNConfig, Receiver, Sender};

/// SerDes lanes per torus channel and direction (Section 2.2).
pub const LANES: u32 = 8;
/// Line rate of one SerDes lane in Gb/s (Section 2.2).
pub const LANE_GBPS: f64 = 14.0;
/// Raw channel bandwidth in Gb/s per direction: 8 × 14 = 112.
pub const RAW_GBPS: f64 = LANES as f64 * LANE_GBPS;
/// Effective bandwidth after 24/30 framing, in Gb/s per direction, on an
/// error-free channel: 112 × 24 / 30 = 89.6.
pub const EFFECTIVE_GBPS: f64 = RAW_GBPS * FLIT_BYTES as f64 / FRAME_BYTES as f64;

/// Share of the raw channel bandwidth carried by `delivered` flits over
/// `slots` frame slots (at most [`EFFICIENCY`](crate::frame::EFFICIENCY) =
/// 0.8, reached by an error-free saturated link).
pub fn goodput_fraction(delivered: u64, slots: u64) -> f64 {
    (delivered as f64 * FLIT_BYTES as f64) / (slots as f64 * FRAME_BYTES as f64)
}

/// A wire that flips each of a frame's 240 bits independently with
/// probability `ber` and then checks its CRC: what arrives is the decoded
/// frame, or `None` when the CRC catches the corruption.
pub fn flip_bits<R: Rng>(rng: &mut R, ber: f64, frame: Frame) -> Option<Frame> {
    let mut wire = frame.encode();
    if ber > 0.0 {
        for byte in wire.iter_mut() {
            for bit in 0..8 {
                if rng.gen_bool(ber) {
                    *byte ^= 1 << bit;
                }
            }
        }
    }
    Frame::decode(&wire)
}

/// One link direction running go-back-N: the sender, the receiver, and the
/// data frames and cumulative acks on the wire between them, each stamped
/// with the slot it lands (`None` = lost on the wire).
#[derive(Debug)]
pub struct Link {
    /// One-way wire delay, in slots.
    latency: u64,
    sender: Sender,
    receiver: Receiver,
    data: VecDeque<(u64, Option<Frame>)>,
    acks: VecDeque<(u64, Option<u8>)>,
    /// Serial stamped on the next offered flit.
    next_serial: u64,
    /// Serial the next accepted flit must carry.
    next_expect: u64,
    /// Lost frames (data and acks) that have landed.
    lost: u64,
}

impl Link {
    /// Creates an idle link whose frames take `latency` slots to land.
    pub fn new(gbn: GoBackNConfig, latency: u64) -> Link {
        Link {
            latency,
            sender: Sender::new(gbn),
            receiver: Receiver::new(),
            data: VecDeque::new(),
            acks: VecDeque::new(),
            next_serial: 0,
            next_expect: 0,
            lost: 0,
        }
    }

    /// The go-back-N sender: its window room, next frame slot and
    /// cumulative frame counters.
    pub fn sender(&self) -> &Sender {
        &self.sender
    }

    /// The go-back-N receiver: its cumulative count of accepted flits.
    pub fn receiver(&self) -> &Receiver {
        &self.receiver
    }

    /// Offers the next flit, its payload stamped with its serial.
    ///
    /// # Panics
    ///
    /// Panics if the window is full; check [`Sender::can_accept`] first.
    pub fn offer(&mut self) {
        let mut payload = [0u8; FLIT_BYTES];
        payload[..8].copy_from_slice(&self.next_serial.to_le_bytes());
        self.sender.offer(payload);
        self.next_serial += 1;
    }

    /// Lands the acks due by `now`, then the data frames due, acking each
    /// one through `wire`. Returns how many flits the receiver accepted.
    ///
    /// # Panics
    ///
    /// Panics if an accepted flit is not the next serial offered (an
    /// out-of-order or duplicated delivery).
    pub fn land<W: FnMut(Frame) -> Option<Frame>>(&mut self, now: u64, mut wire: W) -> u32 {
        while let Some((_, ack)) = self.acks.pop_front_if(|&mut (t, _)| t <= now) {
            match ack {
                Some(ack) => self.sender.on_ack(ack, now),
                None => self.lost += 1,
            }
        }
        let mut accepted = 0;
        while let Some((_, frame)) = self.data.pop_front_if(|&mut (t, _)| t <= now) {
            let Some(frame) = frame else {
                self.lost += 1;
                continue;
            };
            let before = self.receiver.expected();
            let ack = self.receiver.on_frame(&frame);
            if ack != before {
                let serial = frame
                    .payload
                    .first_chunk()
                    .expect("a flit holds its serial");
                let serial = u64::from_le_bytes(*serial);
                assert_eq!(
                    serial, self.next_expect,
                    "go-back-N accepted flit {serial} while expecting {} \
                     (out-of-order or duplicated delivery)",
                    self.next_expect
                );
                self.next_expect += 1;
                accepted += 1;
            }
            let ack = wire(Frame::ack(ack)).map(|f| f.ack);
            self.acks.push_back((now + self.latency, ack));
        }
        accepted
    }

    /// Transmits the sender's next frame, if it has one at `now`, through
    /// `wire`; returns whether a frame went onto the link.
    pub fn transmit<W: FnMut(Frame) -> Option<Frame>>(&mut self, now: u64, mut wire: W) -> bool {
        let Some(frame) = self.sender.next_frame(now, self.receiver.expected()) else {
            return false;
        };
        self.data.push_back((now + self.latency, wire(frame)));
        true
    }

    /// The earliest slot a data frame or ack lands; `u64::MAX` with none on
    /// the wire.
    pub fn next_landing(&self) -> u64 {
        let data = self.data.front().map_or(u64::MAX, |&(t, _)| t);
        let ack = self.acks.front().map_or(u64::MAX, |&(t, _)| t);
        data.min(ack)
    }

    /// Whether nothing is on the wire and every offered flit is
    /// acknowledged.
    pub fn idle(&self) -> bool {
        self.data.is_empty() && self.acks.is_empty() && self.sender.in_flight() == 0
    }

    /// Flits offered and not yet accepted.
    pub fn in_transit(&self) -> u64 {
        self.next_serial - self.next_expect
    }

    /// Lost frames, data and acks, counted as each lands.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Tears the session down: discards every frame on the wire and every
    /// flit offered but not accepted, and restarts both state machines.
    /// Cumulative counters survive.
    pub fn reset(&mut self) {
        self.sender.restart();
        self.receiver.restart();
        self.data.clear();
        self.acks.clear();
        self.next_expect = self.next_serial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `slots` slots of a saturated link (a fresh flit offered
    /// whenever the window has room) with `prop_delay`-slot wires that flip
    /// bits at `ber`; returns the link and its goodput fraction.
    fn saturate(
        gbn: GoBackNConfig,
        prop_delay: u64,
        ber: f64,
        seed: u64,
        slots: u64,
    ) -> (Link, f64) {
        let mut link = Link::new(gbn, prop_delay);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire = |f| flip_bits(&mut rng, ber, f);
        for now in 0..slots {
            if link.sender().can_accept() {
                link.offer();
            }
            link.land(now, &mut wire);
            link.transmit(now, &mut wire);
        }
        let g = goodput_fraction(link.receiver().accepted(), slots);
        (link, g)
    }

    #[test]
    fn params_match_paper_bandwidths() {
        assert_eq!(RAW_GBPS, 112.0);
        assert_eq!(EFFECTIVE_GBPS, 89.6);
        assert!((RAW_GBPS * crate::EFFICIENCY - EFFECTIVE_GBPS).abs() < 1e-9);
    }

    #[test]
    fn error_free_link_reaches_full_framing_efficiency() {
        let gbn = GoBackNConfig {
            window: 32,
            timeout: 64,
        };
        let (link, g) = saturate(gbn, 4, 0.0, 1, 10_000);
        assert_eq!(link.sender().retransmissions, 0);
        assert!(g > 0.79, "goodput {g} below framing efficiency");
        assert!((g * RAW_GBPS - EFFECTIVE_GBPS).abs() < 1.0);
    }

    #[test]
    fn window_smaller_than_rtt_throttles() {
        // Window 2 with prop delay 8 (RTT 16 slots): bandwidth-delay product
        // unmet, so goodput falls well below the framing efficiency.
        let gbn = GoBackNConfig {
            window: 2,
            timeout: 64,
        };
        let (_, g) = saturate(gbn, 8, 0.0, 1, 10_000);
        assert!(g < 0.2, "goodput {g}");
    }

    #[test]
    fn delivery_is_in_order_exactly_once_under_errors() {
        let gbn = GoBackNConfig {
            window: 16,
            timeout: 48,
        };
        // `land` checks each accepted flit's serial against the one it
        // expects.
        let (link, _) = saturate(gbn, 4, 1e-3, 42, 20_000);
        assert!(
            link.sender().retransmissions > 0,
            "errors must force retransmission"
        );
        assert!(link.lost() > 0, "the CRC caught corrupted frames");
        let delivered = link.receiver().accepted();
        assert!(delivered > 0);
        // Every flit the sender released was acknowledged, so delivered;
        // none was delivered twice or before it was offered.
        let in_flight = link.sender().in_flight() as u64;
        let offered = delivered + link.in_transit();
        assert!(
            link.in_transit() <= in_flight,
            "delivered {delivered} of {offered} offered with {in_flight} in flight"
        );
    }

    #[test]
    fn goodput_degrades_with_error_rate() {
        let gbn = GoBackNConfig {
            window: 16,
            timeout: 48,
        };
        let mut last = f64::MAX;
        for ber in [0.0, 5e-4, 5e-3] {
            let (_, g) = saturate(gbn, 4, ber, 7, 20_000);
            assert!(
                g < last + 1e-9,
                "goodput should fall with BER ({g} after {last})"
            );
            last = g;
        }
        assert!(last < 0.5, "heavy BER should crush goodput, got {last}");
    }
}
