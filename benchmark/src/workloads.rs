//! The five workloads: what each one is, and the inputs a seed generates.
//!
//! Nothing here touches the simulator; [`crate::api`] turns a [`Spec`] and
//! its [`Inputs`] into a machine and a driver.

use crate::api::splitmix64;

/// Which procedure a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `BatchDriver`, uniform-random, round-robin arbiters (serial or
    /// sharded, by [`Spec::shards`]).
    SatUniform,
    /// `PingPongDriver` over a handful of antipodal pairs.
    IdlePingpong,
    /// `LoadDriver` open loop under a lossy fault schedule with one link
    /// `Down` for a window.
    LossyLoad,
    /// `BatchDriver`, 50/50 tornado / reverse tornado, inverse-weighted
    /// arbiters programmed from both load analyses.
    BlendIw,
}

/// One workload at one size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Torus radix (k×k×k nodes).
    pub k: u8,
    /// Packets per endpoint, or legs per pair for the ping-pong.
    pub size: u64,
    /// Kernel threads: 1 = serial kernel, 2 = `build_sharded()`.
    pub shards: usize,
    /// Simulated cycles per timing slice, a power of two sized so that a
    /// slice of the full run takes about a tenth of a second. The clocks
    /// are read at every slice boundary; see `runner::envelope`.
    pub slice_cycles: u64,
}

/// Shards are pinned: the question ROADMAP item 2 asks is about two threads
/// on two cores, and more threads than cores measures the host's scheduler.
pub const SHARDS: usize = 2;

/// Workload names, in the order `run --all` runs them.
pub const NAMES: [&str; 5] = [
    "sat-uniform-k8",
    "sharded-uniform-k8",
    "idle-pingpong-k8",
    "lossy-load-k4",
    "blend-iw-k4",
];

/// How much of the full size a rep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size: ≥ 2 s per rep on the sizing host.
    Full,
    /// One tenth, for the untimed warm-up rep.
    WarmUp,
    /// `--smoke`: small machines, tens of packets.
    Smoke,
}

/// The workload called `name` at `size`, if there is one.
pub fn spec(name: &str, size: Size) -> Option<Spec> {
    // (kind, k, full size, smoke k, smoke size, shards, slice cycles)
    let (name, kind, k, full, smoke_k, smoke, shards, slice_cycles) = match name {
        "sat-uniform-k8" => (NAMES[0], Kind::SatUniform, 8, 32, 2, 16, 1, 32),
        "sharded-uniform-k8" => (NAMES[1], Kind::SatUniform, 8, 32, 2, 16, SHARDS, 32),
        "idle-pingpong-k8" => (NAMES[2], Kind::IdlePingpong, 8, 10_000, 2, 40, 1, 1 << 16),
        // The smoke sizes of the last two stay at k=4: tornado traffic is
        // degenerate below it, and a k=2 ring has no long way round a Down
        // link.
        "lossy-load-k4" => (NAMES[3], Kind::LossyLoad, 4, 300, 4, 12, 1, 2048),
        "blend-iw-k4" => (NAMES[4], Kind::BlendIw, 4, 400, 4, 8, 1, 128),
        _ => return None,
    };
    let (k, size) = match size {
        Size::Full => (k, full),
        Size::WarmUp => (k, full / 10),
        Size::Smoke => (smoke_k, smoke),
    };
    Some(Spec {
        name,
        kind,
        k,
        size,
        shards,
        slice_cycles,
    })
}

/// One link taken `Down` for a window of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownWindow {
    pub node: u32,
    /// Torus direction index (x+, x−, y+, y−, z+, z−).
    pub dir: usize,
    pub slice: u8,
    pub from_cycle: u64,
    pub until_cycle: u64,
}

/// The fault schedule of the lossy workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInputs {
    pub seed: u64,
    /// Bit-error rate on every torus link.
    pub ber: f64,
    pub down: Option<DownWindow>,
}

/// Everything a rep is built from. Generated from the workload seed alone;
/// the simulator sees these values and never the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Base seed of the simulator's route-randomization streams.
    pub sim_seed: u64,
    /// Seed of the driver's per-endpoint traffic streams.
    pub driver_seed: u64,
    /// Ping-pong pairs as node ids (endpoint 0 of each).
    pub pairs: Vec<(u32, u32)>,
    /// Offered load of the open-loop workload, packets/cycle/endpoint:
    /// about 37 % of the measured k=4 saturation knee (0.0135).
    pub rate: f64,
    pub fault: Option<FaultInputs>,
}

/// Generates the inputs of `spec` from `seed`. The same seed always gives
/// the same inputs; the warm-up and smoke sizes scale the `Down` window
/// with the run length so it still opens and closes mid-run.
pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let mut s = seed ^ 0xa270_1a27_01a2_701a;
    let sim_seed = splitmix64(&mut s);
    let driver_seed = splitmix64(&mut s);
    let nodes = u64::from(spec.k).pow(3);
    let pairs = if spec.kind == Kind::IdlePingpong {
        // Four distinct nodes, each paired with the node half the machine
        // away in z: every pair is k/2 torus hops apart whatever the seed.
        let mut firsts: Vec<u32> = Vec::new();
        while firsts.len() < 4.min(nodes as usize / 2) {
            let a = (splitmix64(&mut s) % nodes) as u32;
            let b = ((u64::from(a) + nodes / 2) % nodes) as u32;
            if !firsts.iter().any(|&f| f == a || f == b) {
                firsts.push(a);
            }
        }
        firsts
            .into_iter()
            .map(|a| (a, ((u64::from(a) + nodes / 2) % nodes) as u32))
            .collect()
    } else {
        Vec::new()
    };
    let fault = (spec.kind == Kind::LossyLoad).then(|| {
        let fault_seed = splitmix64(&mut s);
        let r = splitmix64(&mut s);
        // The full-size run lasts ~74 000 cycles (300 packets at 0.005 per
        // cycle plus drain); the window covers its second to its thirtieth
        // thousand, and shrinks with the run.
        let scale = |cycles: u64| cycles * spec.size / 300;
        FaultInputs {
            seed: fault_seed,
            ber: 1e-4,
            down: Some(DownWindow {
                node: (r % nodes) as u32,
                dir: ((r >> 24) % 6) as usize,
                slice: ((r >> 32) % 2) as u8,
                from_cycle: scale(2_000),
                until_cycle: scale(30_000),
            }),
        }
    });
    Inputs {
        sim_seed,
        driver_seed,
        pairs,
        rate: 0.005,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_has_a_spec_at_every_size() {
        for name in NAMES {
            for size in [Size::Full, Size::WarmUp, Size::Smoke] {
                let s = spec(name, size).expect("known workload");
                assert_eq!(s.name, name);
                assert!(s.size > 0);
            }
        }
        assert!(spec("nope", Size::Full).is_none());
        let sharded = spec("sharded-uniform-k8", Size::Full).unwrap();
        let serial = spec("sat-uniform-k8", Size::Full).unwrap();
        assert_eq!((sharded.k, sharded.size), (serial.k, serial.size));
        assert_eq!((sharded.shards, serial.shards), (SHARDS, 1));
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for name in NAMES {
            let s = spec(name, Size::Full).unwrap();
            assert_eq!(inputs(&s, 42), inputs(&s, 42));
            assert_ne!(inputs(&s, 42), inputs(&s, 43));
        }
        // The sharded workload runs the identical input.
        assert_eq!(
            inputs(&spec("sat-uniform-k8", Size::Full).unwrap(), 9),
            inputs(&spec("sharded-uniform-k8", Size::Full).unwrap(), 9)
        );
    }

    #[test]
    fn pingpong_pairs_are_distinct_and_antipodal() {
        for seed in 0..50 {
            let s = spec("idle-pingpong-k8", Size::Full).unwrap();
            let i = inputs(&s, seed);
            assert_eq!(i.pairs.len(), 4);
            let mut nodes: Vec<u32> = i.pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), 8, "seed {seed}");
            for (a, b) in i.pairs {
                assert_eq!((a + 256) % 512, b);
            }
        }
    }
}
