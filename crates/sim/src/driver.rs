//! Workload drivers: the measurement procedures of Section 4.
//!
//! * [`BatchDriver`] — every core sends a batch of packets drawn from a
//!   (possibly blended) traffic pattern; throughput is the batch size over
//!   the time to receive the last packet (Figures 9 and 10).
//! * [`PingPongDriver`] — the software-to-software ping-pong latency test,
//!   including injection and handler-dispatch overheads (Figures 11 and 12).
//! * [`RateDriver`] — a single core streams single-flit packets at a
//!   controlled injection and activation rate for the router-energy
//!   measurements (Figure 13).
//! * [`LoadDriver`] — open-loop Bernoulli injection at a fixed offered
//!   rate, counting delivered packets by latency for percentile reporting
//!   (the fault-sweep workload).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::packet::{CounterId, Destination, Packet, PatternId, Payload};
use anton_core::pattern::TrafficPattern;
use anton_core::seed::derive_stream_seed;
use anton_core::timing::SW_INJECT_CYCLES;
use anton_core::vc::TrafficClass;
use anton_traffic::patterns::Blend;

use crate::params::CYCLE_NS;
use crate::shard::ShardableDriver;
use crate::sim::{Delivery, Driver, Sim};

/// Keep this many packets queued at each endpoint adapter so injection is
/// never starved by the driver.
const LOW_WATER: usize = 2;

/// Payload of every packet the drivers send, in bytes (16, as in the
/// paper); only a [`BatchDriver`] can be set to another size.
pub const PAYLOAD_BYTES: usize = 16;

/// Per-endpoint RNG streams derived from one base seed: endpoint `i` draws
/// from stream `i` regardless of how many other endpoints draw, so a
/// shard simulating only a sub-range of endpoints reproduces exactly the
/// draws a serial run would make for them.
fn endpoint_streams(seed: u64, n_eps: usize) -> Vec<StdRng> {
    (0..n_eps)
        .map(|i| StdRng::seed_from_u64(derive_stream_seed(seed, i as u64)))
        .collect()
}

/// A batch workload: each endpoint sends `packets_per_endpoint` packets,
/// each drawn from one of the weighted pattern components and labeled with
/// that component's [`PatternId`].
pub struct BatchDriver {
    /// The weighted components; a draw's component index is its
    /// [`PatternId`].
    blend: Arc<Blend>,
    packets_per_endpoint: u64,
    payload_bytes: usize,
    remaining: Vec<u64>,
    /// Endpoints with injection budget left, ascending: what
    /// [`pre_cycle`](Driver::pre_cycle) visits, so a drained batch costs
    /// nothing per cycle whatever the machine size.
    active: Vec<u32>,
    expected: u64,
    delivered: u64,
    /// One independent RNG stream per endpoint (see [`endpoint_streams`]).
    rngs: Vec<StdRng>,
    /// Cycle of the final delivery (valid once done).
    pub finish_cycle: u64,
}

/// Indices of the endpoints with budget left, ascending.
fn active_endpoints(remaining: &[u64]) -> Vec<u32> {
    (0..remaining.len() as u32)
        .filter(|&i| remaining[i as usize] > 0)
        .collect()
}

impl std::fmt::Debug for BatchDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchDriver")
            .field("expected", &self.expected)
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl BatchDriver {
    /// Starts configuring a batch driver for the machine `cfg`; the
    /// terminal call is [`BatchDriverBuilder::build`].
    ///
    /// ```
    /// use anton_core::{MachineConfig, TorusShape};
    /// use anton_sim::driver::BatchDriver;
    /// use anton_traffic::UniformRandom;
    ///
    /// let cfg = MachineConfig::new(TorusShape::cube(2));
    /// let driver = BatchDriver::builder_for(&cfg)
    ///     .pattern(Box::new(UniformRandom))
    ///     .packets_per_endpoint(4)
    ///     .seed(1)
    ///     .build();
    /// ```
    pub fn builder_for(cfg: &MachineConfig) -> BatchDriverBuilder {
        BatchDriverBuilder {
            n_eps: cfg.num_endpoints(),
            components: Vec::new(),
            packets_per_endpoint: 1,
            payload_bytes: PAYLOAD_BYTES,
            seed: 0,
        }
    }

    /// Throughput in packets per cycle per endpoint, measured as the batch
    /// size over the time to receive the last packet.
    ///
    /// # Panics
    ///
    /// Panics if called before the run completed.
    pub fn throughput(&self) -> f64 {
        assert!(self.delivered >= self.expected, "run not complete");
        assert!(self.finish_cycle > 0, "no deliveries recorded");
        self.packets_per_endpoint as f64 / self.finish_cycle as f64
    }

    fn from_builder(b: BatchDriverBuilder) -> BatchDriver {
        let n_eps = b.n_eps;
        let remaining = vec![b.packets_per_endpoint; n_eps];
        BatchDriver {
            blend: Arc::new(Blend::new(b.components)),
            packets_per_endpoint: b.packets_per_endpoint,
            payload_bytes: b.payload_bytes,
            active: active_endpoints(&remaining),
            remaining,
            expected: b.packets_per_endpoint * n_eps as u64,
            delivered: 0,
            rngs: endpoint_streams(b.seed, n_eps),
            finish_cycle: 0,
        }
    }
}

/// Configures a [`BatchDriver`]; obtained from [`BatchDriver::builder_for`].
///
/// Defaults: one packet per endpoint, [`PAYLOAD_BYTES`] payloads, seed 0.
/// At least one pattern component must be added before
/// [`build`](Self::build).
pub struct BatchDriverBuilder {
    n_eps: usize,
    components: Vec<(Box<dyn TrafficPattern>, f64)>,
    packets_per_endpoint: u64,
    payload_bytes: usize,
    seed: u64,
}

impl std::fmt::Debug for BatchDriverBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchDriverBuilder")
            .field("components", &self.components.len())
            .field("packets_per_endpoint", &self.packets_per_endpoint)
            .field("payload_bytes", &self.payload_bytes)
            .field("seed", &self.seed)
            .finish()
    }
}

impl BatchDriverBuilder {
    /// Adds a pattern component with weight 1.
    pub fn pattern(self, pattern: Box<dyn TrafficPattern>) -> BatchDriverBuilder {
        self.component(pattern, 1.0)
    }

    /// Adds one weighted pattern component. Weights are normalized at
    /// [`build`](Self::build); each packet is tagged with its component
    /// index as its [`PatternId`].
    pub fn component(
        mut self,
        pattern: Box<dyn TrafficPattern>,
        weight: f64,
    ) -> BatchDriverBuilder {
        self.components.push((pattern, weight));
        self
    }

    /// Sets the number of packets each endpoint sends (default 1).
    pub fn packets_per_endpoint(mut self, n: u64) -> BatchDriverBuilder {
        self.packets_per_endpoint = n;
        self
    }

    /// Sets the payload size in bytes (default [`PAYLOAD_BYTES`]).
    pub fn payload_bytes(mut self, bytes: usize) -> BatchDriverBuilder {
        self.payload_bytes = bytes;
        self
    }

    /// Sets the driver RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> BatchDriverBuilder {
        self.seed = seed;
        self
    }

    /// Finishes configuration.
    ///
    /// # Panics
    ///
    /// Panics if no components were added, a weight is negative, or the
    /// weights are zero in total.
    pub fn build(self) -> BatchDriver {
        BatchDriver::from_builder(self)
    }
}

impl Driver for BatchDriver {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        let mut exhausted = false;
        for &idx in &self.active {
            let idx = idx as usize;
            let src = sim.cfg.endpoint_at(idx);
            while self.remaining[idx] > 0 && sim.inject_queue_len(src) < LOW_WATER {
                let rng = &mut self.rngs[idx];
                let (comp, dst) = self.blend.sample_with_component(&sim.cfg, src, rng);
                let mut pkt = Packet::write(src, dst, Payload::zeros(self.payload_bytes));
                pkt.pattern = PatternId(comp as u8);
                sim.inject(src, pkt);
                self.remaining[idx] -= 1;
            }
            exhausted |= self.remaining[idx] == 0;
        }
        if exhausted {
            self.active.retain(|&i| self.remaining[i as usize] > 0);
        }
    }

    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery) {
        if matches!(delivery, Delivery::Packet(_)) {
            self.delivered += 1;
            if self.delivered == self.expected {
                self.finish_cycle = sim.now();
            }
        }
    }

    fn done(&self, _sim: &Sim) -> bool {
        self.delivered >= self.expected
    }
}

impl ShardableDriver for BatchDriver {
    /// Each sub-driver keeps the full per-endpoint stream table (streams
    /// are independent, so carrying unused ones is free) but only retains
    /// injection budget for its own endpoint range.
    fn split(
        &self,
        _cfg: &MachineConfig,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<Box<dyn Driver + Send>> {
        ranges
            .iter()
            .map(|r| {
                let mut remaining = vec![0u64; self.remaining.len()];
                remaining[r.clone()].copy_from_slice(&self.remaining[r.clone()]);
                Box::new(BatchDriver {
                    blend: Arc::clone(&self.blend),
                    packets_per_endpoint: self.packets_per_endpoint,
                    payload_bytes: self.payload_bytes,
                    active: active_endpoints(&remaining),
                    remaining,
                    expected: u64::MAX,
                    delivered: 0,
                    rngs: self.rngs.clone(),
                    finish_cycle: 0,
                }) as Box<dyn Driver + Send>
            })
            .collect()
    }

    /// Closed loop: the batch completes exactly when its last packet is
    /// delivered, so the network is drained at `done`.
    fn done_implies_quiescent(&self) -> bool {
        true
    }
}

/// One ping-pong pair's state.
#[derive(Debug, Clone, Copy)]
struct Pair {
    a: GlobalEndpoint,
    b: GlobalEndpoint,
    remaining_legs: u32,
    /// Cycle software decided to send the current leg.
    decision_at: u64,
    /// Cycle the current leg's packet should be injected (after software
    /// overhead); `None` while waiting for the far handler.
    inject_at: Option<u64>,
    /// Which side sends the current leg.
    a_sends: bool,
    latency_sum_cycles: u64,
    legs_done: u32,
}

/// The standard ping-pong latency test (Section 4.3): remote writes with
/// counted-write handler dispatch, alternating between two cores.
#[derive(Debug)]
pub struct PingPongDriver {
    pairs: Vec<Pair>,
}

impl PingPongDriver {
    /// Creates a driver running `legs` one-way messages per pair
    /// ([`PAYLOAD_BYTES`] payloads).
    pub fn new(pairs: Vec<(GlobalEndpoint, GlobalEndpoint)>, legs: u32) -> PingPongDriver {
        assert!(legs > 0, "need at least one leg");
        let pairs = pairs
            .into_iter()
            .map(|(a, b)| Pair {
                a,
                b,
                remaining_legs: legs,
                decision_at: 0,
                inject_at: Some(0),
                a_sends: true,
                latency_sum_cycles: 0,
                legs_done: 0,
            })
            .collect();
        PingPongDriver { pairs }
    }

    /// Mean one-way latency of pair `i` in nanoseconds, including software
    /// injection and handler-dispatch overheads.
    ///
    /// # Panics
    ///
    /// Panics if the pair has not completed any legs.
    pub fn mean_one_way_ns(&self, i: usize) -> f64 {
        let p = &self.pairs[i];
        assert!(p.legs_done > 0, "pair {i} has no completed legs");
        (p.latency_sum_cycles as f64 / f64::from(p.legs_done)) * CYCLE_NS
    }

    /// Number of pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }
}

impl Driver for PingPongDriver {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        let now = sim.now();
        for (i, p) in self.pairs.iter_mut().enumerate() {
            if p.remaining_legs == 0 {
                continue;
            }
            if let Some(at) = p.inject_at {
                // The injection becomes visible to hardware after the
                // software send overhead.
                if now >= at + SW_INJECT_CYCLES {
                    let (src, dst) = if p.a_sends { (p.a, p.b) } else { (p.b, p.a) };
                    let counter = CounterId(i as u16);
                    sim.set_counter(dst, counter, 1);
                    let mut pkt = Packet::write(src, dst, Payload::zeros(PAYLOAD_BYTES));
                    pkt.counter = Some(counter);
                    sim.inject(src, pkt);
                    p.inject_at = None;
                }
            }
        }
    }

    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery) {
        let Delivery::Handler { counter, .. } = delivery else {
            return;
        };
        let i = counter.0 as usize;
        let now = sim.now();
        let p = &mut self.pairs[i];
        p.latency_sum_cycles += now - p.decision_at;
        p.legs_done += 1;
        p.remaining_legs -= 1;
        p.a_sends = !p.a_sends;
        p.decision_at = now;
        p.inject_at = Some(now);
    }

    fn done(&self, _sim: &Sim) -> bool {
        self.pairs.iter().all(|p| p.remaining_legs == 0)
    }
}

/// Payload bit pattern for the energy experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// All payload bits zero.
    Zeros,
    /// All payload bits one.
    Ones,
    /// Each bit i.i.d. uniform.
    Random,
}

/// Streams single-flit packets from one core at injection rate `p/q` with
/// the activation rate maximized (`a = min(r, 1−r)`, Section 4.5): for
/// `r ≤ 1/2` flits are spread evenly; for `r > 1/2` they form bursts of
/// `p` with `q−p` idle cycles.
#[derive(Debug)]
pub struct RateDriver {
    src: GlobalEndpoint,
    dst: GlobalEndpoint,
    rate_num: u32,
    rate_den: u32,
    payload: PayloadKind,
    total: u64,
    sent: u64,
    delivered: u64,
    rng: StdRng,
}

impl RateDriver {
    /// Creates a rate driver sending `total` packets of [`PAYLOAD_BYTES`]
    /// bytes at rate `rate_num/rate_den` flits per cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate_num <= rate_den`.
    pub fn new(
        src: GlobalEndpoint,
        dst: GlobalEndpoint,
        rate_num: u32,
        rate_den: u32,
        payload: PayloadKind,
        total: u64,
        seed: u64,
    ) -> RateDriver {
        assert!(
            rate_num > 0 && rate_num <= rate_den,
            "rate must be in (0, 1]"
        );
        RateDriver {
            src,
            dst,
            rate_num,
            rate_den,
            payload,
            total,
            sent: 0,
            delivered: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether a flit is emitted at cycle `t` under the activation-
    /// maximizing schedule: for `r ≤ 1/2` the valid cycles are spread
    /// evenly (every gap is an idle run, so `a = r`); for `r > 1/2` the
    /// *idle* cycles are spread evenly (every idle cycle is isolated, so
    /// each one starts a new valid run and `a = 1 − r`). Both achieve
    /// `a = min(r, 1−r)`.
    fn slot_active(&self, t: u64) -> bool {
        let (p, q) = (u64::from(self.rate_num), u64::from(self.rate_den));
        let phase = t % q;
        let spread = |count: u64| (phase * count) / q != ((phase + 1) * count) / q;
        if 2 * p <= q {
            spread(p)
        } else {
            !spread(q - p)
        }
    }
}

impl Driver for RateDriver {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        if self.sent >= self.total || !self.slot_active(sim.now()) {
            return;
        }
        let payload = match self.payload {
            PayloadKind::Zeros => Payload::zeros(PAYLOAD_BYTES),
            PayloadKind::Ones => Payload::ones(PAYLOAD_BYTES),
            PayloadKind::Random => Payload::random(PAYLOAD_BYTES, &mut self.rng),
        };
        let mut pkt = Packet::write(self.src, self.dst, payload);
        pkt.class = TrafficClass::Request;
        debug_assert!(matches!(pkt.dst, Destination::Unicast(_)));
        sim.inject(self.src, pkt);
        self.sent += 1;
    }

    fn on_delivery(&mut self, _sim: &mut Sim, delivery: &Delivery) {
        if matches!(delivery, Delivery::Packet(_)) {
            self.delivered += 1;
        }
    }

    fn done(&self, _sim: &Sim) -> bool {
        self.delivered >= self.total
    }
}

/// Open-loop load workload: every endpoint flips a Bernoulli coin each
/// cycle and injects a fresh packet with probability `rate`, up to a fixed
/// per-endpoint budget, counting delivered packets by in-network latency.
/// Unlike [`BatchDriver`] (which backpressures injection to keep queues
/// short), offered load here is independent of network state, so latency
/// inflation under faults is directly visible.
///
/// The driver keeps no record per packet: a histogram of delivery counts
/// indexed by latency in cycles, grown to the largest latency seen, plus
/// the latency sums of all and of rerouted deliveries. Its memory grows with
/// the worst latency, not with the packets delivered, and every percentile
/// and mean is exact.
pub struct LoadDriver {
    pattern: Box<dyn TrafficPattern>,
    rate: f64,
    remaining: Vec<u64>,
    expected: u64,
    delivered: u64,
    /// One independent RNG stream per endpoint (see [`endpoint_streams`]).
    rngs: Vec<StdRng>,
    /// Deliveries by latency: entry `l` counts the packets delivered `l`
    /// cycles after injection.
    latency_counts: Vec<u64>,
    /// Sum of every delivery's latency.
    latency_sum: u64,
    /// Deliveries rerouted over a degraded table after ejection from a
    /// failed link.
    rerouted: u64,
    /// Sum of the rerouted deliveries' latencies.
    rerouted_latency_sum: u64,
    /// Cycle of the final delivery (valid once done).
    pub finish_cycle: u64,
}

impl std::fmt::Debug for LoadDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadDriver")
            .field("rate", &self.rate)
            .field("expected", &self.expected)
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl LoadDriver {
    /// Creates a load driver for the machine `cfg`: each endpoint injects
    /// `packets_per_endpoint` packets drawn from `pattern`, offered at
    /// `rate` packets per cycle per endpoint ([`PAYLOAD_BYTES`] payloads).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate <= 1`.
    pub fn for_config(
        cfg: &MachineConfig,
        pattern: Box<dyn TrafficPattern>,
        rate: f64,
        packets_per_endpoint: u64,
        seed: u64,
    ) -> LoadDriver {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        let n_eps = cfg.num_endpoints();
        LoadDriver {
            pattern,
            rate,
            remaining: vec![packets_per_endpoint; n_eps],
            expected: packets_per_endpoint * n_eps as u64,
            delivered: 0,
            rngs: endpoint_streams(seed, n_eps),
            latency_counts: Vec::new(),
            latency_sum: 0,
            rerouted: 0,
            rerouted_latency_sum: 0,
            finish_cycle: 0,
        }
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Mean in-network latency (injection to last-flit delivery) in cycles.
    ///
    /// # Panics
    ///
    /// Panics before the first delivery.
    pub fn mean_latency(&self) -> f64 {
        assert!(self.delivered > 0, "no deliveries recorded");
        self.latency_sum as f64 / self.delivered as f64
    }

    /// Latency percentile in cycles (`q` in `[0, 1]`, e.g. 0.99 for p99),
    /// by the nearest-rank method: the latency of the `⌈q·n⌉`-th fastest of
    /// the `n` deliveries (the fastest for `q = 0`), found by walking the
    /// cumulative counts.
    ///
    /// # Panics
    ///
    /// Panics before the first delivery or for `q` outside `[0, 1]`.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0, 1]");
        assert!(self.delivered > 0, "no deliveries recorded");
        let n = self.delivered as usize;
        let rank = (((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1) as u64;
        let mut faster = 0;
        for (latency, &count) in self.latency_counts.iter().enumerate() {
            faster += count;
            if faster > rank {
                return latency as u64;
            }
        }
        unreachable!("the latency counts sum to the deliveries")
    }

    /// Mean latency of rerouted deliveries relative to the mean latency of
    /// deliveries that stayed on their original route, within the same run.
    /// Returns 1.0 (no inflation) when no packet was rerouted; the
    /// remaining journeys of rerouted packets price the detour directly.
    ///
    /// # Panics
    ///
    /// Panics if *every* delivery was rerouted (no baseline to compare
    /// against).
    pub fn reroute_latency_inflation(&self) -> f64 {
        if self.rerouted == 0 {
            return 1.0;
        }
        let n_base = self.delivered - self.rerouted;
        assert!(n_base > 0, "every delivery rerouted: no baseline latency");
        let base_sum = self.latency_sum - self.rerouted_latency_sum;
        let rerouted_mean = self.rerouted_latency_sum as f64 / self.rerouted as f64;
        let base_mean = base_sum as f64 / n_base as f64;
        rerouted_mean / base_mean
    }

    /// Delivered throughput in packets per cycle per endpoint over the full
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if called before the run completed.
    pub fn throughput(&self) -> f64 {
        assert!(self.delivered >= self.expected, "run not complete");
        assert!(self.finish_cycle > 0, "no deliveries recorded");
        self.expected as f64 / self.remaining.len() as f64 / self.finish_cycle as f64
    }
}

impl Driver for LoadDriver {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        for idx in 0..self.remaining.len() {
            if self.remaining[idx] == 0 || !self.rngs[idx].gen_bool(self.rate) {
                continue;
            }
            let src = sim.cfg.endpoint_at(idx);
            let dst = self.pattern.sample_dst(&sim.cfg, src, &mut self.rngs[idx]);
            let pkt = Packet::write(src, dst, Payload::zeros(PAYLOAD_BYTES));
            sim.inject(src, pkt);
            self.remaining[idx] -= 1;
        }
    }

    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery) {
        if let Delivery::Packet(p) = delivery {
            let latency = p.delivered_at - p.injected_at;
            let slot = latency as usize;
            if slot >= self.latency_counts.len() {
                self.latency_counts.resize(slot + 1, 0);
            }
            self.latency_counts[slot] += 1;
            self.latency_sum += latency;
            if p.rerouted {
                self.rerouted += 1;
                self.rerouted_latency_sum += latency;
            }
            self.delivered += 1;
            if self.delivered == self.expected {
                self.finish_cycle = sim.now();
            }
        }
    }

    fn done(&self, _sim: &Sim) -> bool {
        self.delivered >= self.expected
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::params::{PreflightMode, SimParams};
    use crate::sim::PacketDelivery;
    use anton_core::pattern::{Destinations, EndpointChoice, NodeChoice};
    use anton_core::topology::TorusShape;

    /// Minimal pattern for driver unit tests: every packet targets its own
    /// source endpoint.
    #[derive(Debug)]
    struct SelfPattern;

    impl TrafficPattern for SelfPattern {
        fn name(&self) -> String {
            "self".into()
        }

        fn destinations(&self) -> Destinations<'_> {
            Destinations::Pick(NodeChoice::Map(|_, c| c), EndpointChoice::Same)
        }
    }

    /// A load driver on a 2×2×2 machine that has been handed one delivery
    /// per `(latency, rerouted)`, in order, and injected nothing.
    fn fed_load_driver(deliveries: &[(u64, bool)]) -> LoadDriver {
        let mut sim = Sim::builder()
            .config(MachineConfig::new(TorusShape::cube(2)))
            .params(SimParams {
                preflight: PreflightMode::Off,
                ..SimParams::default()
            })
            .build();
        let mut d = LoadDriver::for_config(&sim.cfg, Box::new(SelfPattern), 0.5, 1 << 20, 0);
        let ep = sim.cfg.endpoint_at(0);
        for &(latency, rerouted) in deliveries {
            let delivery = Delivery::Packet(PacketDelivery {
                src: ep,
                dst: ep,
                pattern: 0,
                counter: None,
                injected_at: 1_000,
                delivered_at: 1_000 + latency,
                torus_hops: 0,
                rerouted,
                route_log: None,
            });
            d.on_delivery(&mut sim, &delivery);
        }
        d
    }

    /// What the driver computed when it kept every latency in a `Vec` and
    /// sorted a clone per percentile: the oracle for its counts.
    struct LatencyLog {
        /// Every delivery's latency, in delivery order.
        all: Vec<u64>,
        /// The rerouted deliveries' latencies.
        rerouted: Vec<u64>,
    }

    impl LatencyLog {
        fn new(deliveries: &[(u64, bool)]) -> LatencyLog {
            LatencyLog {
                all: deliveries.iter().map(|&(l, _)| l).collect(),
                rerouted: deliveries.iter().filter(|d| d.1).map(|d| d.0).collect(),
            }
        }

        fn mean_latency(&self) -> f64 {
            self.all.iter().sum::<u64>() as f64 / self.all.len() as f64
        }

        fn latency_percentile(&self, q: f64) -> u64 {
            let mut sorted = self.all.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[rank.min(sorted.len() - 1)]
        }

        fn reroute_latency_inflation(&self) -> f64 {
            if self.rerouted.is_empty() {
                return 1.0;
            }
            let n_base = self.all.len() - self.rerouted.len();
            let rerouted_sum: u64 = self.rerouted.iter().sum();
            let base_sum = self.all.iter().sum::<u64>() - rerouted_sum;
            let rerouted_mean = rerouted_sum as f64 / self.rerouted.len() as f64;
            let base_mean = base_sum as f64 / n_base as f64;
            rerouted_mean / base_mean
        }
    }

    #[test]
    fn load_driver_percentiles_use_nearest_rank() {
        let d = fed_load_driver(&[
            (50, false),
            (10, false),
            (40, true),
            (20, false),
            (30, false),
        ]);
        assert_eq!(d.delivered(), 5);
        assert_eq!(d.latency_percentile(0.5), 30);
        assert_eq!(d.latency_percentile(0.0), 10);
        assert_eq!(d.latency_percentile(1.0), 50);
        assert!((d.mean_latency() - 30.0).abs() < 1e-12);
        assert!((d.reroute_latency_inflation() - 40.0 / 27.5).abs() < 1e-12);
        let d = fed_load_driver(&[(7, false)]);
        assert_eq!(d.latency_percentile(0.99), 7);
        assert_eq!(d.reroute_latency_inflation(), 1.0);
    }

    #[test]
    #[should_panic(expected = "every delivery rerouted")]
    fn reroute_inflation_needs_a_baseline() {
        fed_load_driver(&[(12, true), (30, true)]).reroute_latency_inflation();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The latency counts answer every query exactly as the per-packet
        /// log and its sorted clone did: the same nearest-rank percentile at
        /// the edges, the median, p99 and a random `q`, and the same mean
        /// and reroute inflation to the bit. Latencies are folded into a
        /// random span so that some cases are dense with ties, and a random
        /// share of the deliveries is rerouted. A case where every delivery
        /// is rerouted skips the inflation, which panics there and is tested
        /// apart.
        ///
        /// Verified to fail when the walk stops at the first latency whose
        /// cumulative count reaches the rank rather than passes it, and when
        /// the baseline mean of the inflation is taken over every delivery,
        /// the rerouted ones included.
        #[test]
        fn load_driver_counts_match_the_sorted_log(
            raw in proptest::collection::vec((0u64..=5_000, any::<u8>()), 1..2_001),
            span in 1u64..=5_001,
            cut in any::<u8>(),
            q in 0.0f64..1.0,
        ) {
            let deliveries: Vec<(u64, bool)> =
                raw.iter().map(|&(l, coin)| (l % span, coin < cut)).collect();
            let d = fed_load_driver(&deliveries);
            let log = LatencyLog::new(&deliveries);
            prop_assert_eq!(d.delivered(), deliveries.len() as u64);
            for q in [0.0, 0.5, 0.99, 1.0, q] {
                prop_assert_eq!(d.latency_percentile(q), log.latency_percentile(q));
            }
            prop_assert_eq!(d.mean_latency().to_bits(), log.mean_latency().to_bits());
            if log.rerouted.len() < deliveries.len() {
                prop_assert_eq!(
                    d.reroute_latency_inflation().to_bits(),
                    log.reroute_latency_inflation().to_bits()
                );
            }
        }
    }

    #[test]
    fn rate_driver_schedule_matches_rates() {
        let ep = GlobalEndpoint {
            node: anton_core::topology::NodeId(0),
            ep: anton_core::chip::LocalEndpointId(0),
        };
        for (p, q) in [(1u32, 4u32), (1, 2), (3, 4), (7, 8), (1, 1)] {
            let d = RateDriver::new(ep, ep, p, q, PayloadKind::Zeros, 1, 0);
            let horizon = u64::from(q) * 100;
            let mut valid = 0u64;
            let mut activations = 0u64;
            let mut prev = false;
            for t in 0..horizon {
                let v = d.slot_active(t);
                if v {
                    valid += 1;
                    if !prev {
                        activations += 1;
                    }
                }
                prev = v;
            }
            let r = valid as f64 / horizon as f64;
            let a = activations as f64 / horizon as f64;
            let want_r = f64::from(p) / f64::from(q);
            let want_a = if p == q {
                0.0
            } else {
                want_r.min(1.0 - want_r)
            };
            assert!((r - want_r).abs() < 1e-9, "rate {p}/{q}: r={r}");
            assert!(
                (a - want_a).abs() < 0.02,
                "rate {p}/{q}: activation {a} want {want_a}"
            );
        }
    }
}
