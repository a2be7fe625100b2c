//! Inverse arbiter weight computation (Section 3.3).
//!
//! For each router output-port arbiter, the load `γ[i][n]` on input `i` due
//! to traffic pattern `n` is read off a [`LoadAnalysis`], and the stored
//! inverse weight is `m[i][n] = nint(β / γ[i][n])` with a per-arbiter scale
//! `β` chosen so every weight fits in `M` bits. Inputs a pattern never uses
//! get the maximum weight (they are never charged under that pattern).

use anton_core::chip::{ChanId, LocalLink, MAX_ROUTER_PORTS, NUM_ROUTERS};
use anton_core::config::MachineConfig;
use anton_core::net::{LinkEnd, Topology, TorusTopology};
use anton_core::topology::NodeId;
use anton_core::trace::GlobalLink;
use anton_core::vc::Vc;

use crate::load::LoadAnalysis;

/// The weight tables of one kind of arbitration point, addressed by dense
/// arbiter index. An arbiter the analyses placed no load on has no table;
/// the simulator leaves it with the policy its site starts with in the
/// arbitration plan (`anton_arbiter::ArbiterPlan`): uniform weights at SA2
/// under the `iw` plan, round-robin at SA1 and the serializers.
#[derive(Debug, Clone)]
pub struct WeightTables {
    num_patterns: usize,
    /// `weights[start[a]..start[a + 1]]` is arbiter `a`'s table, laid out
    /// `[lane][pattern]`.
    start: Vec<u32>,
    weights: Vec<u32>,
}

impl WeightTables {
    /// No arbiters yet; every table will cover `num_patterns` patterns.
    pub fn new(num_patterns: usize) -> WeightTables {
        WeightTables {
            num_patterns,
            start: vec![0],
            weights: Vec::new(),
        }
    }

    /// Appends the next arbiter's `[lane][pattern]` table; an empty table
    /// leaves the arbiter unprogrammed.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a whole number of lanes.
    pub fn push(&mut self, table: &[u32]) {
        assert_eq!(table.len() % self.num_patterns, 0, "ragged weight table");
        self.weights.extend_from_slice(table);
        self.start.push(self.weights.len() as u32);
    }

    /// Appends the next arbiter's table from its `[lane][pattern]` loads:
    /// `m = nint(β / γ)`, with `β` scaled to the smallest nonzero load so
    /// the largest weight saturates the M-bit field; unused lanes get the
    /// maximum weight. No load at all leaves the arbiter unprogrammed.
    fn push_inverse(&mut self, loads: &[f64], max_w: u32) {
        let used = loads.iter().copied().filter(|g| *g > 0.0);
        let min_load = used.fold(f64::INFINITY, f64::min);
        if min_load.is_finite() {
            let beta = f64::from(max_w) * min_load;
            let weight = |g: &f64| {
                if *g > 0.0 {
                    ((beta / g).round() as u32).clamp(1, max_w)
                } else {
                    max_w
                }
            };
            self.weights.extend(loads.iter().map(weight));
        }
        self.start.push(self.weights.len() as u32);
    }

    /// Number of arbiters addressed, programmed or not.
    pub fn num_arbiters(&self) -> usize {
        self.start.len() - 1
    }

    /// The table of one arbiter as `weights[lane][pattern]`, if the
    /// analyses placed load on it.
    pub fn table(&self, arbiter: usize) -> Option<Vec<Vec<u32>>> {
        let flat = &self.weights[self.start[arbiter] as usize..self.start[arbiter + 1] as usize];
        let lanes = flat.chunks(self.num_patterns);
        (!flat.is_empty()).then(|| lanes.map(<[u32]>::to_vec).collect())
    }

    /// Every programmed arbiter with its table, in index order.
    pub fn programmed(&self) -> impl Iterator<Item = (usize, Vec<Vec<u32>>)> + '_ {
        (0..self.num_arbiters()).filter_map(|a| Some((a, self.table(a)?)))
    }

    /// Every stored weight, for range checks.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }
}

/// Inverse weights for every arbitration point in the machine: router
/// output-port arbiters, router input-port (SA1) VC arbiters and
/// channel-adapter serializer VC arbiters (Section 3 applies the
/// inverse-weighted design at each network arbitration point).
#[derive(Debug, Clone)]
pub struct ArbiterWeightSet {
    /// Number of inverse-weight bits `M`.
    pub m_bits: u32,
    /// Router output-port arbiters, at `(node × 16 + router) ×
    /// MAX_ROUTER_PORTS + output port`; lanes are the router's input ports
    /// (both indexed as [`anton_core::chip::ChipLayout::router_ports`]).
    pub outputs: WeightTables,
    /// Router input-port (SA1) arbiters, at `(node × 16 + router) ×
    /// MAX_ROUTER_PORTS + input port`; lanes are the VC indices of the link
    /// feeding the port, spanning both traffic classes.
    pub inputs: WeightTables,
    /// Channel-adapter serializer arbiters, at `node × 12 +`
    /// [`ChanId::index`]; lanes are the VC indices of the adapter's
    /// router-side input, spanning both traffic classes.
    pub serializers: WeightTables,
}

impl ArbiterWeightSet {
    /// Computes weights from one load analysis per traffic pattern.
    ///
    /// # Panics
    ///
    /// Panics if `analyses` is empty or `m_bits` is outside `2..=16`.
    pub fn compute(
        cfg: &MachineConfig,
        analyses: &[&LoadAnalysis],
        m_bits: u32,
    ) -> ArbiterWeightSet {
        assert!(!analyses.is_empty(), "need at least one pattern analysis");
        assert!(
            (2..=16).contains(&m_bits),
            "m_bits={m_bits} out of range 2..=16"
        );
        let max_w = (1u32 << m_bits) - 1;
        // Per-VC loads of `link` as `[vc][pattern]` over both traffic
        // classes. Analyzed traffic is Request class (VC indices
        // `0..group_vcs`), so the Reply lanes carry no load.
        let vc_loads = |loads: &mut Vec<f64>, link: GlobalLink| {
            let vcs = usize::from(cfg.vc_policy.num_vcs(link.group()));
            loads.clear();
            for vc in 0..vcs {
                loads.extend(analyses.iter().map(|a| a.link_vc_load(&link, Vc(vc as u8))));
            }
            loads.resize(2 * vcs * analyses.len(), 0.0);
        };
        let mut set = ArbiterWeightSet {
            m_bits,
            outputs: WeightTables::new(analyses.len()),
            inputs: WeightTables::new(analyses.len()),
            serializers: WeightTables::new(analyses.len()),
        };
        // The slot feeding each router input port, at `router ×
        // MAX_ROUTER_PORTS + port`.
        let topo = TorusTopology::new(cfg);
        let mut feeding = [None; NUM_ROUTERS * MAX_ROUTER_PORTS];
        for slot in 0..topo.slots_per_node() {
            if let LinkEnd::Router { router, port } = topo.consumer(slot) {
                feeding[router.index() * MAX_ROUTER_PORTS + port] = Some(slot);
            }
        }
        let mut loads = Vec::new();
        for node in (0..cfg.shape.num_nodes() as u32).map(NodeId) {
            for (router, fed) in feeding.chunks(MAX_ROUTER_PORTS).enumerate() {
                let inputs = fed.iter().flatten().count();
                for (port, slot) in fed.iter().enumerate() {
                    // An output arbitrates among the router's inputs by the
                    // flow each sends it.
                    loads.clear();
                    for input in 0..inputs {
                        let flow = |a: &&LoadAnalysis| a.router_flow(node, router, input, port);
                        loads.extend(analyses.iter().map(flow));
                    }
                    set.outputs.push_inverse(&loads, max_w);
                    // SA1 arbitrates among the VCs of the link feeding the
                    // input.
                    match slot.and_then(|slot| topo.link_at(node.0 as usize, slot)) {
                        Some(link) => vc_loads(&mut loads, link),
                        None => loads.clear(),
                    }
                    set.inputs.push_inverse(&loads, max_w);
                }
            }
            // A serializer arbitrates among the VCs of its adapter's
            // router-side input link.
            for chan in ChanId::all() {
                let link = LocalLink::RouterToChan(chan);
                vc_loads(&mut loads, GlobalLink::Local { node, link });
                set.serializers.push_inverse(&loads, max_w);
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::topology::TorusShape;
    use anton_traffic::patterns::{ReverseTornado, Tornado, UniformRandom};

    fn cfg(k: u8) -> MachineConfig {
        MachineConfig::new(TorusShape::cube(k))
    }

    /// `(input port, load)` of every input sending traffic to the output
    /// arbiter at dense index `arbiter`.
    fn output_flows(analysis: &LoadAnalysis, arbiter: usize) -> Vec<(usize, f64)> {
        let (router, out) = (arbiter / MAX_ROUTER_PORTS, arbiter % MAX_ROUTER_PORTS);
        let (node, router) = (NodeId((router / NUM_ROUTERS) as u32), router % NUM_ROUTERS);
        (0..MAX_ROUTER_PORTS)
            .map(|i| (i, analysis.router_flow(node, router, i, out)))
            .filter(|(_, load)| *load > 0.0)
            .collect()
    }

    #[test]
    fn weights_are_correctly_rounded_inverses() {
        // Section 3.3 spec: m[i][n] = nint(β / γ[i][n]) with β scaled so the
        // largest weight saturates the M-bit field, clamped to at least 1.
        let cfg = cfg(2);
        let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
        let m_bits = 5u32;
        let max_w = (1u32 << m_bits) - 1;
        let set = ArbiterWeightSet::compute(&cfg, &[&analysis], m_bits);
        assert!(set.outputs.programmed().count() > 0);
        for (arbiter, table) in set.outputs.programmed() {
            let ins = output_flows(&analysis, arbiter);
            let min_load = ins.iter().map(|(_, l)| *l).fold(f64::INFINITY, f64::min);
            let beta = f64::from(max_w) * min_load;
            for (i, load) in &ins {
                let expect = ((beta / load).round() as u32).clamp(1, max_w);
                assert_eq!(
                    table[*i][0], expect,
                    "weight at arbiter {arbiter} in{i} (load {load})"
                );
            }
            // The busiest weight direction: the smallest load gets the
            // largest weight, saturating the field.
            let max_m = ins.iter().map(|(i, _)| table[*i][0]).max().unwrap();
            assert_eq!(max_m, max_w, "β scaling should saturate the M-bit field");
        }
    }

    #[test]
    fn heavier_inputs_get_smaller_weights() {
        let cfg = cfg(2);
        let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
        let set = ArbiterWeightSet::compute(&cfg, &[&analysis], 8);
        for (arbiter, table) in set.outputs.programmed() {
            let ins = output_flows(&analysis, arbiter);
            for a in &ins {
                for b in &ins {
                    if a.1 > b.1 + 1e-12 {
                        assert!(
                            table[a.0][0] <= table[b.0][0],
                            "monotonicity violated at arbiter {arbiter}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weights_fit_in_m_bits() {
        let cfg = cfg(2);
        let a0 = LoadAnalysis::compute(&cfg, &Tornado);
        let a1 = LoadAnalysis::compute(&cfg, &ReverseTornado);
        for m in [4u32, 5, 8] {
            let set = ArbiterWeightSet::compute(&cfg, &[&a0, &a1], m);
            let max = (1u32 << m) - 1;
            for tables in [&set.outputs, &set.inputs, &set.serializers] {
                for (_, table) in tables.programmed() {
                    for row in table {
                        assert_eq!(row.len(), 2);
                        for w in row {
                            assert!((1..=max).contains(&w));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unused_inputs_get_max_weight() {
        let cfg = cfg(2);
        let analysis = LoadAnalysis::compute(&cfg, &Tornado);
        let set = ArbiterWeightSet::compute(&cfg, &[&analysis], 5);
        let mut saw_unused = false;
        for (arbiter, table) in set.outputs.programmed() {
            let ins = output_flows(&analysis, arbiter);
            for (i, row) in table.iter().enumerate() {
                if !ins.iter().any(|(inp, _)| *inp == i) {
                    assert_eq!(row[0], 31, "unused input should carry max weight");
                    saw_unused = true;
                }
            }
        }
        assert!(saw_unused, "tornado should leave some inputs unused");
    }
}
