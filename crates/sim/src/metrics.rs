//! Structured metrics collected from a finished (or running) simulation.
//!
//! [`SimStats`](crate::sim::SimStats) counts the headline events; this
//! module aggregates the instrumentation underneath them into a typed
//! [`Metrics`] record: per-[link-class](LinkClass) utilization, grant counts
//! at each arbitration-site class and link-layer fault counters, all derived
//! from counters the simulator maintains anyway. The experiment harness in
//! `anton-bench` serializes these records into `results/<name>.json`.

use anton_core::chip::LocalLink;
use anton_core::trace::GlobalLink;
use anton_fault::ShimStats;

use crate::sim::{Sim, SimStats};
use crate::wire::Wires;

/// Structural classes of wires, the granularity of utilization reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkClass {
    /// On-chip mesh links between routers.
    Mesh,
    /// On-chip skip channels bypassing the two middle routers of a row.
    Skip,
    /// Router → channel-adapter links.
    RouterToChan,
    /// Channel-adapter → router links.
    ChanToRouter,
    /// Router → endpoint-adapter links.
    RouterToEp,
    /// Endpoint-adapter → router links.
    EpToRouter,
    /// External torus channels between nodes.
    Torus,
}

impl LinkClass {
    /// Every class, in reporting order.
    pub const ALL: [LinkClass; 7] = [
        LinkClass::Mesh,
        LinkClass::Skip,
        LinkClass::RouterToChan,
        LinkClass::ChanToRouter,
        LinkClass::RouterToEp,
        LinkClass::EpToRouter,
        LinkClass::Torus,
    ];

    /// The class of a structural link.
    pub fn of(link: &GlobalLink) -> LinkClass {
        match link {
            // Direct inter-node channels (non-torus topologies) report under
            // the torus class; the simulator only instantiates torus wires.
            GlobalLink::Torus { .. } | GlobalLink::Direct { .. } => LinkClass::Torus,
            GlobalLink::Local { link, .. } => match link {
                LocalLink::Mesh { .. } => LinkClass::Mesh,
                LocalLink::Skip { .. } => LinkClass::Skip,
                LocalLink::RouterToChan(_) => LinkClass::RouterToChan,
                LocalLink::ChanToRouter(_) => LinkClass::ChanToRouter,
                LocalLink::RouterToEp(_) => LinkClass::RouterToEp,
                LocalLink::EpToRouter(_) => LinkClass::EpToRouter,
            },
        }
    }

    /// Stable lowercase identifier (JSON keys, table rows).
    pub fn name(&self) -> &'static str {
        match self {
            LinkClass::Mesh => "mesh",
            LinkClass::Skip => "skip",
            LinkClass::RouterToChan => "router_to_chan",
            LinkClass::ChanToRouter => "chan_to_router",
            LinkClass::RouterToEp => "router_to_ep",
            LinkClass::EpToRouter => "ep_to_router",
            LinkClass::Torus => "torus",
        }
    }
}

impl std::fmt::Display for LinkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregate utilization of every wire in one [`LinkClass`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkClassMetrics {
    /// The class these numbers describe.
    pub class: LinkClass,
    /// Wires of this class in the machine.
    pub wires: usize,
    /// Total flits carried across all wires of the class.
    pub flits: u64,
    /// Mean flits per cycle per wire.
    pub mean_util: f64,
    /// Flits per cycle of the busiest single wire.
    pub peak_util: f64,
}

/// Grants issued at each of the simulator's arbitration-site classes
/// (every site the paper's Section 3 makes inverse-weightable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterGrantCounts {
    /// Router SA1 grants: an input port selecting among its VCs.
    pub sa1: u64,
    /// Router SA2 grants: an output port selecting among input ports.
    pub output: u64,
    /// Channel-adapter serializer grants onto the torus link.
    pub serializer: u64,
}

/// Aggregate link-layer fault counters across every lossy-link shim,
/// present only when the simulation ran under a fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Torus links carrying a lossy-link shim.
    pub shimmed_links: usize,
    /// Summed go-back-N counters across all shims.
    pub totals: ShimStats,
}

impl FaultMetrics {
    /// Fraction of data frames that were retransmissions (the link-layer
    /// bandwidth overhead paid to recover from corruption).
    pub fn retransmission_overhead(&self) -> f64 {
        self.totals.retransmission_overhead()
    }
}

/// A complete typed metrics record for one simulation.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Cycles elapsed when the record was collected.
    pub cycles: u64,
    /// The headline event counters.
    pub stats: SimStats,
    /// Utilization per link class, in [`LinkClass::ALL`] order.
    pub link_classes: Vec<LinkClassMetrics>,
    /// Arbiter grant counts.
    pub grants: ArbiterGrantCounts,
    /// Link-layer fault counters; `None` when no fault schedule was
    /// installed (ideal channels have no link-layer events to count).
    pub fault: Option<FaultMetrics>,
}

impl Metrics {
    /// Collects a metrics record from a simulator.
    pub fn collect(sim: &Sim) -> Metrics {
        let wires = sim.wires();
        Metrics::collect_with(
            sim.now(),
            sim.stats().clone(),
            sim.grant_counts(),
            wires.len(),
            |_| wires,
        )
    }

    /// Aggregates a record over `nwires` wires at cycle `now`. `sender(w)`
    /// names the wire store holding wire `w`'s sending side (flits carried,
    /// link-layer counters): the one store of a serial run, the producing
    /// replica's in a sharded one.
    pub(crate) fn collect_with<'a>(
        now: u64,
        stats: SimStats,
        grants: ArbiterGrantCounts,
        nwires: usize,
        sender: impl Fn(usize) -> &'a Wires,
    ) -> Metrics {
        let cycles = now.max(1);
        let mut per_class: Vec<(usize, u64, u64)> = vec![(0, 0, 0); LinkClass::ALL.len()];
        let mut shimmed_links = 0usize;
        let mut shim_totals = ShimStats::default();
        for w in 0..nwires {
            let tx = sender(w);
            if let Some(stats) = tx.link_stats(w) {
                shimmed_links += 1;
                shim_totals.merge(&stats);
            }
            let carried = tx.flits_carried(w);
            let ci = LinkClass::of(&tx.label(w)) as usize;
            let (wires, flits, peak) = &mut per_class[ci];
            *wires += 1;
            *flits += carried;
            *peak = (*peak).max(carried);
        }
        let link_classes = LinkClass::ALL
            .iter()
            .zip(&per_class)
            .map(|(&class, &(wires, flits, peak))| LinkClassMetrics {
                class,
                wires,
                flits,
                mean_util: flits as f64 / cycles as f64 / (wires.max(1)) as f64,
                peak_util: peak as f64 / cycles as f64,
            })
            .collect();
        Metrics {
            cycles: now,
            stats,
            link_classes,
            grants,
            fault: (shimmed_links > 0).then_some(FaultMetrics {
                shimmed_links,
                totals: shim_totals,
            }),
        }
    }

    /// The metrics of one link class.
    pub fn link_class(&self, class: LinkClass) -> &LinkClassMetrics {
        &self.link_classes[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_every_link_kind() {
        use anton_core::chip::{ChanId, LocalEndpointId, MeshCoord, MeshDir};
        use anton_core::topology::{NodeId, Slice, TorusDir};
        let node = NodeId(0);
        let torus = GlobalLink::Torus {
            from: node,
            dir: TorusDir::from_index(0),
            slice: Slice(0),
        };
        assert_eq!(LinkClass::of(&torus), LinkClass::Torus);
        let mesh = GlobalLink::Local {
            node,
            link: LocalLink::Mesh {
                from: MeshCoord::new(0, 0),
                dir: MeshDir::UPlus,
            },
        };
        assert_eq!(LinkClass::of(&mesh), LinkClass::Mesh);
        let ep = GlobalLink::Local {
            node,
            link: LocalLink::EpToRouter(LocalEndpointId(3)),
        };
        assert_eq!(LinkClass::of(&ep), LinkClass::EpToRouter);
        let chan = GlobalLink::Local {
            node,
            link: LocalLink::RouterToChan(ChanId {
                dir: TorusDir::from_index(0),
                slice: Slice(0),
            }),
        };
        assert_eq!(LinkClass::of(&chan), LinkClass::RouterToChan);
    }
}
