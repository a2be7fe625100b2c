//! Exact heap footprint of a machine: the bytes and allocations a built
//! [`Sim`] holds idle, and the most it holds above that while a saturated
//! batch is in flight — counted by the allocator rather than read from the
//! process's resident set, so the numbers are the same on every host.
//!
//! A counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`; it
//! passes `alloc` and `dealloc` straight to [`System`] (the trait's default
//! `alloc_zeroed` and `realloc` go through those two) and lives in this test
//! binary only: the library crates stay `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_fault::{FaultSchedule, LinkShim, SHIM_TIMEOUT, SHIM_WINDOW};
use anton_link::gobackn::GoBackNConfig;
use anton_sim::driver::{BatchDriver, LoadDriver};
use anton_sim::params::{PreflightMode, SimParams};
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

/// [`System`], keeping the calling thread's live (bytes, allocations) and
/// the most bytes it has held live since [`PEAK`] was last reset, so that
/// the test harness's other threads cannot move the count.
struct Counting;

thread_local! {
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: i64, allocations: i64) {
    // `try_with`: a thread may free memory after its locals are gone.
    let _ = LIVE.try_with(|live| {
        let (b, a) = live.get();
        live.set((b + bytes, a + allocations));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(b + bytes)));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A `k`×`k`×`k` machine with default parameters. Pre-flight is off:
/// certifying 8×8×8 takes seconds and is not what is measured.
fn machine(k: u8) -> Sim {
    Sim::builder()
        .config(MachineConfig::new(TorusShape::cube(k)))
        .params(SimParams {
            preflight: PreflightMode::Off,
            ..SimParams::default()
        })
        .build()
}

/// Live (bytes, allocations) held by an idle `k`×`k`×`k` machine.
fn idle_footprint(k: u8) -> (i64, i64) {
    let before = LIVE.get();
    let sim = machine(k);
    let after = LIVE.get();
    drop(sim);
    (after.0 - before.0, after.1 - before.1)
}

/// An idle machine is a few flat arrays over the slot layout, the same
/// number of blocks at any size: 8×8×8 holds 31 MB in 42 blocks, and costs
/// per node what 4×4×4 does. Measured, identical on every run: k=8
/// 30,865,539 bytes in 42 live allocations, k=4 3,862,659 in 42 (ratio 7.99
/// for 8× the nodes). The byte ceiling sits below the 32,675,971 bytes the
/// machine held while every router kept its own energy state (a block of
/// per-port last-flit words, allocated with the counters off).
///
/// What trips it: state per VC that is not a few bytes of a shared row. A
/// `VecDeque` header per VC — the queues the packet-keyed pool replaced —
/// is 491,520 × 32 B = +15.7 MB at k=8. Verified to fail: with a
/// `Vec<[u64; 4]>` laid out like `qhead` added to `wire::Wires` (32 bytes
/// per VC) this panics with `idle 8x8x8 machine holds 46594179 bytes`, and
/// with each router's energy block back it reads 32,675,971 bytes in 8,234
/// allocations. The allocation ceiling fails on one block per router
/// (+8,192); the ratio catches a structure sized by the machine inside each
/// node or wire.
#[test]
fn idle_machine_footprint_is_exact_and_per_node() {
    let (k4_bytes, k4_allocations) = idle_footprint(4);
    let (k8_bytes, k8_allocations) = idle_footprint(8);
    println!(
        "idle footprint: k=4 {k4_bytes} bytes in {k4_allocations} allocations, \
         k=8 {k8_bytes} bytes in {k8_allocations} allocations"
    );
    assert!(
        k4_bytes > 0 && k4_allocations > 0,
        "the counter is not wired"
    );
    assert!(
        k8_bytes <= 31_500_000,
        "idle 8x8x8 machine holds {k8_bytes} bytes"
    );
    assert!(
        k8_allocations <= 100,
        "idle 8x8x8 machine holds {k8_allocations} allocations"
    );
    let ratio = k8_bytes as f64 / k4_bytes as f64;
    assert!(
        ratio <= 8.1,
        "8x8x8 holds {ratio:.2}x the bytes of 4x4x4 for 8x the nodes"
    );
}

/// The most heap a 4×4×4 machine holds above its built self and its
/// driver while a uniform-random batch of `packets` per endpoint (driver
/// seed 42) runs to completion.
fn saturated_peak(packets: u64) -> i64 {
    let mut sim = machine(4);
    let mut driver = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(packets)
        .seed(42)
        .build();
    let built = LIVE.get().0;
    PEAK.set(built);
    assert_eq!(sim.run(&mut driver, 10_000_000), RunOutcome::Completed);
    PEAK.get() - built
}

/// A saturated batch keeps most of itself in flight, so its peak is the
/// packet slab: one 64-byte line per in-flight packet, 1,024 to a chunk.
/// Measured, identical on every run: 64 packets per endpoint peak at
/// 5,950,208 bytes above the built machine, 16 per endpoint at 3,044,032.
///
/// What trips it: a wider slab slot. With the whole `Packet` and the route
/// log in every slot (136 bytes) the 64-packet batch peaked at 8,964,864
/// bytes, and 16 at 4,289,216.
#[test]
fn saturated_batch_peak_is_the_packet_slab() {
    let (peak64, peak16) = (saturated_peak(64), saturated_peak(16));
    println!(
        "saturated 4x4x4 peak above the built machine: 64 packets/endpoint \
         {peak64} bytes, 16 packets/endpoint {peak16} bytes"
    );
    assert!(
        peak64 <= 6_100_000,
        "a saturated 4x4x4 batch peaks at {peak64} bytes above the machine"
    );
}

/// The most heap a 4×4×4 machine holds above its built self while an
/// open-loop uniform-random load of 0.2% per endpoint per cycle (driver
/// seed 42) delivers `packets` per endpoint over ideal wires, or (`lossy`)
/// through a go-back-N shim on every torus link at bit-error rate 1e-4.
fn light_load_peak(lossy: bool, packets: u64) -> i64 {
    let mut sim = Sim::builder()
        .config(MachineConfig::new(TorusShape::cube(4)))
        .params(SimParams {
            preflight: PreflightMode::Off,
            fault: lossy.then(|| FaultSchedule::uniform(3, 1e-4)),
            ..SimParams::default()
        })
        .build();
    let mut driver = LoadDriver::new(&sim, Box::new(UniformRandom), 0.002, packets, 42);
    let built = LIVE.get().0;
    PEAK.set(built);
    assert_eq!(sim.run(&mut driver, 10_000_000), RunOutcome::Completed);
    PEAK.get() - built
}

/// What the 768 go-back-N shims of a lossy 4×4×4 machine add to its peak
/// heap: the lossy run's peak less the ideal run's. At this light load both
/// hold the same packets in flight and only the links differ.
fn link_layer_peak(packets: u64) -> i64 {
    light_load_peak(true, packets) - light_load_peak(false, packets)
}

/// A link direction holds its go-back-N window, not its history: the
/// sender's unacknowledged flits, the frames and acks on the wire and the
/// flit counts of queued packets, each queue grown to the most it has held.
/// Measured, identical on every run: 420,112 bytes above the ideal run at
/// 16 packets per endpoint, 596,896 at 64 (777 bytes a shim); the 4× longer
/// run adds 176,784 bytes of queue high-water marks, not a word per flit.
///
/// What trips it: a per-flit log in the link layer. With every accepted
/// flit kept in the receiver until 4,096 had been read, the shims added
/// 2,208,016 bytes at 16 packets and 7,988,128 at 64 (5,780,112 more).
#[test]
fn lossy_links_hold_their_window_not_their_history() {
    let (extra16, extra64) = (link_layer_peak(16), link_layer_peak(64));
    println!(
        "lossy 4x4x4 link-layer peak above the ideal run: 16 packets/endpoint \
         {extra16} bytes, 64 packets/endpoint {extra64} bytes"
    );
    assert!(extra16 > 0, "the lossy run installs no shims");
    assert!(
        extra64 <= 640_000,
        "768 shims add {extra64} bytes at 64 packets/endpoint"
    );
    assert!(
        extra64 - extra16 <= 192_000,
        "4x the traffic grows the link layer by {} bytes",
        extra64 - extra16
    );
}

/// Live heap of one shim (BER 1e-4, 44-cycle latency, the simulator's
/// go-back-N window and timeout) once it has delivered `flits` flits,
/// queued as 2-flit packets at most 8 deep.
fn shim_heap(flits: u64) -> i64 {
    let before = LIVE.get().0;
    let gbn = GoBackNConfig {
        window: SHIM_WINDOW,
        timeout: SHIM_TIMEOUT,
    };
    let mut shim = LinkShim::new(44, gbn, 1e-4, Vec::new(), 7);
    let (mut now, mut sent) = (0u64, 0u64);
    while shim.stats().flits_delivered < flits {
        if sent < flits && shim.backlog_packets() < 8 {
            shim.enqueue(now, 2);
            sent += 2;
        }
        shim.advance(now);
        now += 1;
    }
    assert!(shim.stats().retransmissions > 0, "BER 1e-4 forces rewinds");
    let held = LIVE.get().0 - before;
    drop(shim);
    held
}

/// Measured: 1,672 bytes after 1,000 flits and after 100,000, the same
/// blocks. With the receiver logging every accepted flit until 4,096 had
/// been read, the shim held 26,248 bytes after 1,000 flits and 99,976
/// after 100,000.
#[test]
fn a_shim_holds_the_same_heap_after_100_000_flits_as_after_1_000() {
    let (short, long) = (shim_heap(1_000), shim_heap(100_000));
    println!("one shim's live heap: 1,000 flits {short} bytes, 100,000 flits {long} bytes");
    assert_eq!(long, short, "a shim's heap grows with the flits it carried");
}
