//! End-to-end link simulation: a full-duplex lossy channel running the
//! go-back-N protocol, used to validate the 112 → 89.6 Gb/s effective
//! bandwidth derate and the protocol's behaviour under injected bit errors.
//!
//! Each offered flit carries its serial in its first eight bytes; the
//! simulation checks every accepted flit's serial against the count
//! accepted before it, so in-order, exactly-once delivery holds on every
//! run without keeping the delivered flits.

use std::collections::VecDeque;

use rand::Rng;

use crate::frame::{Frame, EFFICIENCY, FLIT_BYTES, FRAME_BYTES};
use crate::gobackn::{GoBackNConfig, Receiver, Sender};

/// Physical parameters of one torus channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// SerDes lanes per channel (Anton 2: 8).
    pub lanes: u32,
    /// Line rate per lane in Gb/s (Anton 2: 14).
    pub lane_gbps: f64,
    /// One-way propagation delay in frame slots.
    pub prop_delay: u64,
    /// Independent probability that any single wire bit flips.
    pub bit_error_rate: f64,
}

impl Default for LinkParams {
    fn default() -> LinkParams {
        LinkParams {
            lanes: 8,
            lane_gbps: 14.0,
            prop_delay: 4,
            bit_error_rate: 0.0,
        }
    }
}

impl LinkParams {
    /// Raw channel bandwidth in Gb/s per direction (Anton 2: 112).
    pub fn raw_gbps(&self) -> f64 {
        f64::from(self.lanes) * self.lane_gbps
    }

    /// Effective bandwidth after framing, in Gb/s per direction, assuming an
    /// error-free channel (Anton 2: 89.6).
    pub fn effective_gbps(&self) -> f64 {
        self.raw_gbps() * EFFICIENCY
    }
}

/// Results of an end-to-end link simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkStats {
    /// Flits handed to the sender.
    pub offered: u64,
    /// Flits delivered in order at the receiver.
    pub delivered: u64,
    /// Data frames put on the wire.
    pub frames_sent: u64,
    /// Data frames that were retransmissions.
    pub retransmissions: u64,
    /// Wire frames dropped by CRC.
    pub corrupted: u64,
    /// Frame slots elapsed.
    pub slots: u64,
}

impl LinkStats {
    /// Goodput as a fraction of the raw channel bandwidth
    /// (≤ [`EFFICIENCY`] = 0.8; equality on an error-free saturated link).
    pub fn goodput_fraction(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        (self.delivered as f64 * FLIT_BYTES as f64) / (self.slots as f64 * FRAME_BYTES as f64)
    }

    /// Delivered bandwidth in Gb/s for the given physical parameters.
    pub fn goodput_gbps(&self, params: &LinkParams) -> f64 {
        self.goodput_fraction() * params.raw_gbps()
    }
}

/// A full-duplex link running go-back-N over a lossy channel.
#[derive(Debug)]
pub struct LinkSim<R: Rng> {
    params: LinkParams,
    sender: Sender,
    receiver: Receiver,
    /// Data frames in flight: (arrival slot, wire bytes).
    forward: VecDeque<(u64, [u8; FRAME_BYTES])>,
    /// Ack frames in flight.
    reverse: VecDeque<(u64, [u8; FRAME_BYTES])>,
    rng: R,
    now: u64,
    stats: LinkStats,
    next_payload: u64,
}

impl<R: Rng> LinkSim<R> {
    /// Creates a link simulation.
    pub fn new(params: LinkParams, gbn: GoBackNConfig, rng: R) -> LinkSim<R> {
        LinkSim {
            params,
            sender: Sender::new(gbn),
            receiver: Receiver::new(),
            forward: VecDeque::new(),
            reverse: VecDeque::new(),
            rng,
            now: 0,
            stats: LinkStats::default(),
            next_payload: 0,
        }
    }

    fn corrupt(&mut self, wire: &mut [u8; FRAME_BYTES]) {
        let ber = self.params.bit_error_rate;
        if ber <= 0.0 {
            return;
        }
        for byte in wire.iter_mut() {
            for bit in 0..8 {
                if self.rng.gen_bool(ber) {
                    *byte ^= 1 << bit;
                }
            }
        }
    }

    /// Runs `slots` frame slots with the sender saturated (a fresh flit is
    /// offered whenever the window has room), returning the statistics.
    pub fn run_saturated(&mut self, slots: u64) -> LinkStats {
        for _ in 0..slots {
            self.step(true);
        }
        self.stats.slots = self.now;
        self.stats.frames_sent = self.sender.frames_sent;
        self.stats.retransmissions = self.sender.retransmissions;
        self.stats.delivered = self.receiver.accepted();
        self.stats
    }

    /// Advances one frame slot. When `saturate` is set, new flits are
    /// offered whenever the window allows.
    fn step(&mut self, saturate: bool) {
        // Offer fresh payloads.
        if saturate && self.sender.can_accept() {
            let mut payload = [0u8; FLIT_BYTES];
            payload[..8].copy_from_slice(&self.next_payload.to_le_bytes());
            self.sender.offer(payload);
            self.next_payload += 1;
            self.stats.offered += 1;
        }
        // Deliver the reverse (ack) frame arriving this slot.
        while let Some(&(t, wire)) = self.reverse.front() {
            if t > self.now {
                break;
            }
            self.reverse.pop_front();
            if let Some(f) = Frame::decode(&wire) {
                self.sender.on_ack(f.ack, self.now);
            } else {
                self.stats.corrupted += 1;
            }
        }
        // Deliver the forward (data) frame arriving this slot; emit an ack.
        while let Some(&(t, wire)) = self.forward.front() {
            if t > self.now {
                break;
            }
            self.forward.pop_front();
            if let Some(f) = Frame::decode(&wire) {
                let serial = self.receiver.accepted();
                let ack = self.receiver.on_frame(&f);
                if self.receiver.accepted() > serial {
                    let got = u64::from_le_bytes(f.payload[..8].try_into().unwrap());
                    assert_eq!(
                        got, serial,
                        "go-back-N accepted flit {got} while expecting {serial} \
                         (out-of-order or duplicated delivery)"
                    );
                }
                let mut ack_wire = Frame::ack(ack).encode();
                self.corrupt(&mut ack_wire);
                self.reverse
                    .push_back((self.now + self.params.prop_delay, ack_wire));
            } else {
                self.stats.corrupted += 1;
            }
        }
        // Transmit this slot's data frame.
        if let Some(f) = self.sender.next_frame(self.now, self.receiver.expected()) {
            let mut wire = f.encode();
            self.corrupt(&mut wire);
            self.forward
                .push_back((self.now + self.params.prop_delay, wire));
        }
        self.now += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn params_match_paper_bandwidths() {
        let p = LinkParams::default();
        assert!((p.raw_gbps() - 112.0).abs() < 1e-9);
        assert!((p.effective_gbps() - 89.6).abs() < 1e-9);
    }

    #[test]
    fn error_free_link_reaches_full_framing_efficiency() {
        let mut sim = LinkSim::new(
            LinkParams::default(),
            GoBackNConfig {
                window: 32,
                timeout: 64,
            },
            StdRng::seed_from_u64(1),
        );
        let stats = sim.run_saturated(10_000);
        assert_eq!(stats.retransmissions, 0);
        assert!(
            stats.goodput_fraction() > 0.79,
            "goodput {} below framing efficiency",
            stats.goodput_fraction()
        );
        assert!((stats.goodput_gbps(&LinkParams::default()) - 89.6).abs() < 1.0);
    }

    #[test]
    fn window_smaller_than_rtt_throttles() {
        // Window 2 with prop delay 8 (RTT 16 slots): bandwidth-delay product
        // unmet, so goodput falls well below the framing efficiency.
        let params = LinkParams {
            prop_delay: 8,
            ..LinkParams::default()
        };
        let mut sim = LinkSim::new(
            params,
            GoBackNConfig {
                window: 2,
                timeout: 64,
            },
            StdRng::seed_from_u64(1),
        );
        let stats = sim.run_saturated(10_000);
        assert!(
            stats.goodput_fraction() < 0.2,
            "goodput {}",
            stats.goodput_fraction()
        );
    }

    #[test]
    fn delivery_is_in_order_exactly_once_under_errors() {
        let params = LinkParams {
            bit_error_rate: 1e-3,
            ..LinkParams::default()
        };
        let mut sim = LinkSim::new(
            params,
            GoBackNConfig {
                window: 16,
                timeout: 48,
            },
            StdRng::seed_from_u64(42),
        );
        // `run_saturated` checks each accepted flit's serial against the
        // count accepted before it.
        let stats = sim.run_saturated(20_000);
        assert!(
            stats.retransmissions > 0,
            "errors must force retransmission"
        );
        assert!(stats.delivered > 0);
        assert_eq!(stats.delivered, sim.receiver.accepted());
        // Every flit the sender released was acknowledged, so delivered;
        // none was delivered twice or before it was offered.
        let released = stats.offered - sim.sender.in_flight() as u64;
        assert!(
            (released..=stats.offered).contains(&stats.delivered),
            "delivered {} of {} offered with {} in flight",
            stats.delivered,
            stats.offered,
            sim.sender.in_flight()
        );
    }

    #[test]
    fn goodput_degrades_with_error_rate() {
        let mut last = f64::MAX;
        for ber in [0.0, 5e-4, 5e-3] {
            let params = LinkParams {
                bit_error_rate: ber,
                ..LinkParams::default()
            };
            let mut sim = LinkSim::new(
                params,
                GoBackNConfig {
                    window: 16,
                    timeout: 48,
                },
                StdRng::seed_from_u64(7),
            );
            let stats = sim.run_saturated(20_000);
            let g = stats.goodput_fraction();
            assert!(
                g < last + 1e-9,
                "goodput should fall with BER ({g} after {last})"
            );
            last = g;
        }
        assert!(last < 0.5, "heavy BER should crush goodput, got {last}");
    }
}
