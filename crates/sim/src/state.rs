//! Per-packet simulation state and the packet slab.

use anton_core::chip::LocalEndpointId;
use anton_core::config::GlobalEndpoint;
use anton_core::multicast::McGroupId;
use anton_core::packet::Packet;
use anton_core::routing::RouteSpec;
use anton_core::topology::{NodeId, Slice, TorusDir};
use anton_core::trace::GlobalLink;
use anton_core::vc::{Vc, VcState};

/// Dense id of an in-flight packet (slab index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u32);

/// Where an in-flight packet (or multicast copy) is headed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteProgress {
    /// A unicast packet following its route spec to `dst`.
    Unicast {
        /// Remaining inter-node route.
        spec: RouteSpec,
        /// Final destination endpoint.
        dst: GlobalEndpoint,
    },
    /// A unicast packet following an installed degraded route table —
    /// per-node next-hop lookup instead of a precomputed spec. The packet
    /// is pinned to the table set of the degradation epoch that (re)injected
    /// it; the install gate certifies the union of every epoch's tables, so
    /// mixed-set traffic in flight together stays deadlock-free.
    Table {
        /// Index into the simulator's installed table sets.
        set: u8,
        /// Slice whose table routes this packet.
        slice: Slice,
        /// Node the packet currently sits at (advanced at the serializer,
        /// like a spec's `take_hop`).
        cur: NodeId,
        /// Final destination endpoint.
        dst: GlobalEndpoint,
    },
    /// A multicast copy heading for a departure channel adapter on the
    /// current node; the next node's table continues the route.
    McExit {
        /// Multicast group for table lookups downstream.
        group: McGroupId,
        /// Tree index within the group.
        tree: u8,
        /// Torus direction of the next hop.
        dir: TorusDir,
        /// Slice of the tree.
        slice: Slice,
    },
    /// A multicast copy delivering to an endpoint of the current node.
    McDeliver {
        /// Multicast group (for accounting).
        group: McGroupId,
        /// Destination endpoint on the current node.
        ep: LocalEndpointId,
    },
}

/// Full state of one in-flight packet.
#[derive(Debug, Clone)]
pub struct PacketState {
    /// The packet header and payload.
    pub packet: Packet,
    /// Routing progress.
    pub route: RouteProgress,
    /// VC promotion state.
    pub vc: VcState,
    /// VC state to adopt after traversing the node-entry (adapter→router)
    /// link: entry links use the arriving dimension's T-phase VC, while the
    /// promoted state applies from the router onward.
    pub pending_vc: Option<VcState>,
    /// The torus direction this packet most recently arrived on (`None`
    /// after injection or local turns) — gates the skip-channel shortcut.
    pub arrived_via: Option<TorusDir>,
    /// Cycle the original packet entered the network.
    pub injected_at: u64,
    /// Inter-node hops taken so far.
    pub torus_hops: u16,
    /// Whether the packet was ever ejected from a failed link and
    /// re-entered over a degraded route table.
    pub rerouted: bool,
    /// Flits occupied on channels.
    pub flits: u8,
    /// Link-level route log (only when `SimParams::record_routes`).
    pub route_log: Option<Vec<(GlobalLink, Vc)>>,
}

/// Slab of in-flight packets with id reuse.
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<Option<PacketState>>,
    free: Vec<u32>,
    live: usize,
    /// Packets ever inserted (multicast copies count individually).
    created: u64,
    /// Packets ever removed (delivered or absorbed into copies).
    terminated: u64,
}

impl PacketSlab {
    /// Creates an empty slab.
    pub fn new() -> PacketSlab {
        PacketSlab::default()
    }

    /// Inserts a packet, returning its id.
    pub fn insert(&mut self, state: PacketState) -> PacketId {
        self.live += 1;
        self.created += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(state);
            PacketId(idx)
        } else {
            self.slots.push(Some(state));
            PacketId((self.slots.len() - 1) as u32)
        }
    }

    /// Removes and returns a packet.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn remove(&mut self, id: PacketId) -> PacketState {
        let state = self.slots[id.0 as usize].take().expect("stale packet id");
        self.free.push(id.0);
        self.live -= 1;
        self.terminated += 1;
        state
    }

    /// Borrows a packet.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn get(&self, id: PacketId) -> &PacketState {
        self.slots[id.0 as usize].as_ref().expect("stale packet id")
    }

    /// Mutably borrows a packet.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn get_mut(&mut self, id: PacketId) -> &mut PacketState {
        self.slots[id.0 as usize].as_mut().expect("stale packet id")
    }

    /// Number of live packets.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The most packets ever live at once: ids range below this.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Packets ever inserted into the slab.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Packets ever removed from the slab.
    pub fn terminated(&self) -> u64 {
        self.terminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::packet::Payload;
    use anton_core::routing::DimOrder;
    use anton_core::topology::NodeCoord;
    use anton_core::topology::{NodeId, TorusShape};
    use anton_core::vc::VcPolicy;

    fn dummy_state() -> PacketState {
        let shape = TorusShape::cube(4);
        let src = GlobalEndpoint {
            node: NodeId(0),
            ep: LocalEndpointId(0),
        };
        let dst = GlobalEndpoint {
            node: NodeId(1),
            ep: LocalEndpointId(0),
        };
        let spec = RouteSpec::deterministic(
            &shape,
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            DimOrder::XYZ,
            Slice(0),
        );
        PacketState {
            packet: Packet::write(src, dst, Payload::zeros(16)),
            route: RouteProgress::Unicast { spec, dst },
            vc: VcPolicy::Anton.start(),
            pending_vc: None,
            arrived_via: None,
            injected_at: 0,
            torus_hops: 0,
            rerouted: false,
            flits: 1,
            route_log: None,
        }
    }

    #[test]
    fn slab_reuses_slots() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(dummy_state());
        let b = slab.insert(dummy_state());
        assert_eq!(slab.live(), 2);
        slab.remove(a);
        let c = slab.insert(dummy_state());
        assert_eq!(c, a, "freed slot should be reused");
        assert_ne!(b, c);
        assert_eq!(slab.live(), 2);
    }

    #[test]
    #[should_panic(expected = "stale packet id")]
    fn stale_id_panics() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(dummy_state());
        slab.remove(a);
        slab.get(a);
    }
}
