//! Allocation probe for the discrete-event hot loop.
//!
//! PR 10's bar is stricter than the replay probe's sub-per-kernel bound:
//! once the device is warm (calendar-queue buckets grown, kernel arena
//! chunks allocated, trace/cmd-log capacity reserved at launch time),
//! the *event loop itself* — `Device::run` after all launches are
//! enqueued — must perform **zero** heap allocations. Every event pops
//! from recycled bucket storage, every kernel runtime lives in a
//! retained arena slot, and every trace row lands in capacity that the
//! launch path reserved up front.
//!
//! The counter is armed per thread, so only the measuring test's own
//! allocations count even when the harness runs tests in parallel.

#[path = "common/mod.rs"]
mod common;

use common::counting_alloc;
use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig, StreamId};

#[global_allocator]
static ALLOCATOR: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn kernel(i: u64, flops: f64) -> KernelDesc {
    KernelDesc::new(
        "steady",
        LaunchConfig::new(Dim3::linear(28), Dim3::linear(128), 32, 2048),
        KernelCost::new(flops, flops / 8.0),
    )
    .with_tag(i)
}

fn enqueue_episode(dev: &mut Device, pool: &[StreamId], kernels: u64) {
    for i in 0..kernels {
        // Vary the cost so completions spread over distinct timestamps
        // *and* collide (three cost classes across four streams).
        let flops = [4.0e5, 1.0e6, 2.5e6][(i % 3) as usize];
        dev.launch(pool[(i % pool.len() as u64) as usize], kernel(i, flops));
    }
}

/// Measured allocations of one episode's event loop (launches excluded).
fn episode_allocs(dev: &mut Device, pool: &[gpu_sim::StreamId], kernels: u64) -> (u64, u64) {
    enqueue_episode(dev, pool, kernels);
    let before = dev.events_processed();
    counting_alloc::start();
    dev.run();
    (counting_alloc::stop(), dev.events_processed() - before)
}

/// Warm the device until eight consecutive episodes' event loops
/// allocate nothing, then measure three more episodes. The calendar
/// ring's bucket capacities reach their high-water marks only once the
/// cursor has swept every bucket index at every episode-to-bucket-grid
/// phase (the ring rotates with absolute simulated time), so "warm" is
/// defined by observed quiescence, not an episode count; the warm-up is
/// bounded and deterministic. Returns the allocation counts and the
/// per-episode event count of the three post-quiescence episodes.
fn measure_steady_state(kernels: u64) -> ([u64; 3], u64) {
    let mut dev = Device::new(DeviceProps::p100());
    let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
    let mut warm_episodes = 0;
    let mut quiet_streak = 0;
    while quiet_streak < 8 {
        let (allocs, _) = episode_allocs(&mut dev, &pool, kernels);
        quiet_streak = if allocs == 0 { quiet_streak + 1 } else { 0 };
        warm_episodes += 1;
        assert!(
            warm_episodes < 500,
            "event loop never quiesced \
             (last episode allocated {allocs} times)"
        );
    }
    let mut counts = [0u64; 3];
    let mut events = 0;
    for c in &mut counts {
        let (allocs, ev) = episode_allocs(&mut dev, &pool, kernels);
        *c = allocs;
        events = ev;
    }
    (counts, events)
}

#[test]
fn warm_event_loop_is_allocation_free() {
    let (counts, events) = measure_steady_state(64);
    assert!(events > 64, "probe must actually process events");
    assert_eq!(
        counts,
        [0, 0, 0],
        "steady state must persist: {events} events per episode \
         must keep processing without touching the heap"
    );
}

#[test]
fn allocation_freedom_holds_at_scale() {
    // 10× the kernel count: the zero bound is per-episode, not merely
    // amortized growth that a bigger episode would expose.
    let (counts, events) = measure_steady_state(640);
    assert!(events > 640);
    assert_eq!(counts, [0, 0, 0]);
}

#[test]
fn heap_queue_reference_engine_is_also_allocation_free() {
    // The reference binary-heap queue shares the arena and reservation
    // discipline; switching queues must not reintroduce per-event heap
    // traffic (BinaryHeap storage is retained across episodes too).
    let mut dev = Device::new(DeviceProps::p100());
    dev.use_heap_queue();
    let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
    for _ in 0..2 {
        enqueue_episode(&mut dev, &pool, 64);
        dev.run();
    }
    enqueue_episode(&mut dev, &pool, 64);
    counting_alloc::start();
    dev.run();
    let allocs = counting_alloc::stop();
    assert_eq!(
        allocs, 0,
        "heap-queue warm event loop allocated {allocs} times"
    );
}
