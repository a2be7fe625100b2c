//! # anton-core
//!
//! Core model of the Anton 2 unified network, reproducing *"Unifying on-chip
//! and inter-node switching within the Anton 2 network"* (ISCA 2014).
//!
//! The Anton 2 supercomputer connects its ASICs in a channel-sliced 3D torus
//! and reuses each chip's 4×4 on-chip mesh as the switch for inter-node
//! traffic. This crate models everything structural about that network:
//!
//! * [`topology`] — the torus, its coordinates, slices, and datelines;
//! * [`chip`] — the on-chip mesh, skip channels, and adapter floorplan, and
//!   the on-chip routing rule ([`chip::ChipLayout::next_attach`]);
//! * [`routing`] — the route type ([`routing::RouteSpec`]: a slice and at
//!   most three single-direction runs) and oblivious minimal dimension-order
//!   inter-node routing;
//! * [`route_table`] — fault-aware route tables for degraded tori;
//! * [`onchip`] — direction-order on-chip routing (V⁻, U⁺, U⁻, V⁺);
//! * [`vc`] — the n+1-VC promotion algorithm for deadlock avoidance, plus
//!   the 2n baseline, and the dimension-boundary rule
//!   ([`vc::VcState::turn`]);
//! * [`multicast`] — table-based multicast trees;
//! * [`packet`] — fine-grained packets and flits;
//! * [`trace`] — the route program's chip traversal and the link-level
//!   traces folded from it;
//! * [`pattern`] — the traffic-pattern abstraction;
//! * [`config`] — machine-level configuration;
//! * [`timing`] — the core clock and the paper's latency calibration;
//! * [`net`] — the [`net::Topology`]/[`net::RoutingFunction`] trait layer
//!   that the symbolic deadlock certifier consumes;
//! * [`dimorder`] — the paper's dimension-order torus routing as a
//!   [`net::RoutingFunction`] transition system over the same chip
//!   traversal;
//! * [`table_routing`] — explicit [`route_table::RouteTable`] routes as a
//!   [`net::RoutingFunction`];
//! * [`mesh`] — a full-mesh topology with VC-free routing, the first
//!   non-torus instance.
//!
//! # Examples
//!
//! Trace a packet across a 512-node machine:
//!
//! ```
//! use anton_core::config::{GlobalEndpoint, MachineConfig};
//! use anton_core::chip::LocalEndpointId;
//! use anton_core::routing::{DimOrder, RouteSpec};
//! use anton_core::topology::{NodeCoord, Slice, TorusShape};
//! use anton_core::trace::trace_unicast;
//!
//! let cfg = MachineConfig::new(TorusShape::cube(8));
//! let src = GlobalEndpoint { node: cfg.shape.id(NodeCoord::new(0, 0, 0)), ep: LocalEndpointId(0) };
//! let dst = GlobalEndpoint { node: cfg.shape.id(NodeCoord::new(3, 5, 1)), ep: LocalEndpointId(9) };
//! let spec = RouteSpec::deterministic(
//!     &cfg.shape,
//!     NodeCoord::new(0, 0, 0),
//!     NodeCoord::new(3, 5, 1),
//!     DimOrder::XYZ,
//!     Slice(0),
//! );
//! let steps = trace_unicast(&cfg, src, dst, &spec, &|n, d| cfg.shape.hop_crosses_dateline(n, d));
//! assert!(!steps.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod config;
pub mod dimorder;
pub mod mesh;
pub mod multicast;
pub mod net;
pub mod onchip;
pub mod packet;
pub mod pattern;
pub mod route_table;
pub mod routing;
pub mod seed;
pub mod table_routing;
pub mod timing;
pub mod topology;
pub mod trace;
pub mod vc;

pub use chip::{ChanId, ChipLayout, LocalEndpointId, MeshCoord, MeshDir};
pub use config::{GlobalEndpoint, MachineConfig};
pub use dimorder::DimOrderRouting;
pub use mesh::{FullMesh, MeshRouting, MeshRule};
pub use net::{
    Arrival, DepEdge, LinkIdx, Progress, RoutePath, RouteState, RoutingFunction, Step, Topology,
    TorusTopology, Transitions,
};
pub use onchip::DirOrder;
pub use packet::{Packet, Payload};
pub use pattern::{Flow, TrafficPattern};
pub use route_table::{build_route_table, DownLinkSet, RouteTable, RouteTableError, TableMethod};
pub use routing::{DimOrder, RouteSpec};
pub use seed::derive_stream_seed;
pub use table_routing::TableRouting;
pub use topology::{Dim, NodeCoord, NodeId, OffsetChoices, Sign, Slice, TorusDir, TorusShape};
pub use vc::{TrafficClass, Vc, VcPolicy, VcState};
