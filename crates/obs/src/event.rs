//! The typed trace-event taxonomy recorded by the flight recorder.
//!
//! Each event carries the cycle it happened on, the component track it was
//! recorded against (a wire of the simulated machine), and — when the event
//! concerns a specific packet — the packet's dense id. Events serialize to
//! and parse from JSON so diagnostics like the deadlock report can round-trip
//! through `results/` files.

use anton_arbiter::GrantSite;

use crate::json::Json;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A packet entered the network at an endpoint adapter.
    Inject,
    /// A packet's head flit was launched onto a link.
    Hop {
        /// Virtual channel index occupied on the link.
        vc: u8,
        /// Packet length in flits (the link is busy this long).
        flits: u8,
    },
    /// A packet's torus virtual channel was promoted (dimension change or
    /// dateline crossing).
    VcPromotion {
        /// Torus VC before promotion.
        from: u8,
        /// Torus VC after promotion.
        to: u8,
    },
    /// An arbiter issued a grant.
    Grant {
        /// Which pipeline stage granted.
        site: GrantSite,
        /// How many requests competed.
        requests: u8,
        /// Winning input index (SA1: VC index; output/serializer: port).
        winner: u8,
    },
    /// The go-back-N link shim retransmitted a frame.
    Retransmit,
    /// The lossy link model dropped a frame.
    FrameDrop {
        /// `true` when the dropped frame was an acknowledgement.
        ack: bool,
    },
    /// A packet was delivered to its destination endpoint.
    Deliver,
    /// The deadlock watchdog found this component stalled.
    Stall {
        /// Cycles the simulator had gone without any flit movement.
        idle_cycles: u64,
    },
}

impl TraceEventKind {
    /// Stable lowercase name, used in serialized traces.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Inject => "inject",
            TraceEventKind::Hop { .. } => "hop",
            TraceEventKind::VcPromotion { .. } => "vc_promotion",
            TraceEventKind::Grant { .. } => "grant",
            TraceEventKind::Retransmit => "retransmit",
            TraceEventKind::FrameDrop { .. } => "frame_drop",
            TraceEventKind::Deliver => "deliver",
            TraceEventKind::Stall { .. } => "stall",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record sequence number (monotone across all tracks); merging
    /// rings by `seq` reconstructs exact recording order.
    pub seq: u64,
    /// Simulation cycle the event happened on.
    pub cycle: u64,
    /// Component track the event was recorded against.
    pub track: u32,
    /// Dense packet id, when the event concerns one packet.
    pub packet: Option<u64>,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Serializes the event (kind fields inline, `packet` null when absent).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq".to_string(), Json::from(self.seq)),
            ("cycle".to_string(), Json::from(self.cycle)),
            ("track".to_string(), Json::from(u64::from(self.track))),
            (
                "packet".to_string(),
                self.packet.map_or(Json::Null, Json::from),
            ),
            ("kind".to_string(), Json::from(self.kind.name())),
        ];
        match self.kind {
            TraceEventKind::Hop { vc, flits } => {
                pairs.push(("vc".to_string(), Json::from(u64::from(vc))));
                pairs.push(("flits".to_string(), Json::from(u64::from(flits))));
            }
            TraceEventKind::VcPromotion { from, to } => {
                pairs.push(("from".to_string(), Json::from(u64::from(from))));
                pairs.push(("to".to_string(), Json::from(u64::from(to))));
            }
            TraceEventKind::Grant {
                site,
                requests,
                winner,
            } => {
                pairs.push(("site".to_string(), Json::from(site.name())));
                pairs.push(("requests".to_string(), Json::from(u64::from(requests))));
                pairs.push(("winner".to_string(), Json::from(u64::from(winner))));
            }
            TraceEventKind::FrameDrop { ack } => {
                pairs.push(("ack".to_string(), Json::from(ack)));
            }
            TraceEventKind::Stall { idle_cycles } => {
                pairs.push(("idle_cycles".to_string(), Json::from(idle_cycles)));
            }
            TraceEventKind::Inject | TraceEventKind::Retransmit | TraceEventKind::Deliver => {}
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<TraceEventKind> {
        vec![
            TraceEventKind::Inject,
            TraceEventKind::Hop { vc: 3, flits: 9 },
            TraceEventKind::VcPromotion { from: 0, to: 1 },
            TraceEventKind::Grant {
                site: GrantSite::Sa1,
                requests: 4,
                winner: 2,
            },
            TraceEventKind::Grant {
                site: GrantSite::Serializer,
                requests: 1,
                winner: 0,
            },
            TraceEventKind::Retransmit,
            TraceEventKind::FrameDrop { ack: true },
            TraceEventKind::Deliver,
            TraceEventKind::Stall {
                idle_cycles: 50_000,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = TraceEvent {
                seq: i as u64,
                cycle: 1000 + i as u64,
                track: 7,
                packet: if i % 2 == 0 { Some(42) } else { None },
                kind,
            };
            let parsed = Json::parse(&ev.to_json().to_pretty_string()).unwrap();
            let uint = |k: &str| parsed.get(k).and_then(Json::as_u64);
            assert_eq!(uint("seq"), Some(ev.seq));
            assert_eq!(uint("cycle"), Some(ev.cycle));
            assert_eq!(uint("track"), Some(7));
            assert_eq!(
                parsed.get("packet"),
                Some(&ev.packet.map_or(Json::Null, Json::from))
            );
            assert_eq!(parsed.get("kind").and_then(Json::as_str), Some(kind.name()));
            let fields: Vec<(&str, Json)> = match kind {
                TraceEventKind::Hop { vc, flits } => {
                    vec![
                        ("vc", u64::from(vc).into()),
                        ("flits", u64::from(flits).into()),
                    ]
                }
                TraceEventKind::VcPromotion { from, to } => {
                    vec![
                        ("from", u64::from(from).into()),
                        ("to", u64::from(to).into()),
                    ]
                }
                TraceEventKind::Grant {
                    site,
                    requests,
                    winner,
                } => vec![
                    ("site", site.name().into()),
                    ("requests", u64::from(requests).into()),
                    ("winner", u64::from(winner).into()),
                ],
                TraceEventKind::FrameDrop { ack } => vec![("ack", ack.into())],
                TraceEventKind::Stall { idle_cycles } => vec![("idle_cycles", idle_cycles.into())],
                TraceEventKind::Inject | TraceEventKind::Retransmit | TraceEventKind::Deliver => {
                    vec![]
                }
            };
            let Json::Obj(pairs) = &parsed else {
                panic!("an event is an object")
            };
            assert_eq!(pairs.len(), 5 + fields.len(), "kind {i}: no stray fields");
            for (k, v) in fields {
                assert_eq!(parsed.get(k), Some(&v), "kind {i} field `{k}`");
            }
        }
    }
}
