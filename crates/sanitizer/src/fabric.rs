//! Happens-before race detection over recorded command logs — the
//! sanitizer's only dynamic replayer. A single device is replayed as a
//! fabric of one.
//!
//! The engine records every host-issued stream command ([`CmdRecord`]);
//! the replay runs the logs of all devices together with one vector clock
//! per `(device, stream)`, CUDA semantics:
//!
//! - a stream executes its commands in FIFO order;
//! - `record(e)` snapshots the recording stream's clock into `e`;
//! - `wait(e)` joins `e`'s snapshot into the waiting stream's clock — and
//!   can only fire after the record has (the engine blocks a wait enqueued
//!   before its record until the event completes). A wait on an event
//!   recorded before the replayed suffix joins already-checked history; a
//!   wait on an event never recorded at all can never fire;
//! - a `CopySrc` is an access-carrying node — it **reads** the declared
//!   source range on the source device and **writes** the declared
//!   destination range on the destination device — and records a per-copy
//!   virtual event; a `CopyDst` waits on that virtual event, giving the
//!   cross-device happens-before edge. Without a [`Fabric`] to describe
//!   them, copy halves are skipped (their edges cross devices);
//! - a device's own [`CmdRecord::Sync`] markers (completed
//!   [`run`](gpu_sim::Device::run) episodes) are per-device barriers:
//!   commands of a later sync phase join the barrier clock of everything
//!   the device completed in earlier phases (device logs do **not** need
//!   the same number of sync markers — each device's phases advance
//!   independently, which is exactly what happens when replicas run
//!   eagerly and only meet inside `Fabric::run`).
//!
//! Two access-carrying nodes with overlapping accesses (at least one
//! write) whose clocks are incomparable are a data race. A replay that
//! stalls (a wait whose event is never recorded, or waits forming a
//! cycle) is a deadlock.
//!
//! Buffers live in **per-device address spaces**: the same buffer label on
//! two replicas names two different allocations (layers derive labels from
//! layer names, identical across replicas), so accesses conflict only when
//! they touch the same byte range of the same buffer *on the same device*
//! and in the same sync phase. A copy's destination write participates in
//! the destination device's space — the edge the fault-injection tests
//! exercise.

use crate::report::{ConflictSite, Diagnostic, DiagnosticKind, KernelRef};
use gpu_sim::{AccessSet, CmdRecord, Device, Fabric, MemAccess, StreamId};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};

/// Replay clock key: a stream of a particular device.
type Key = (usize, StreamId);

/// A vector clock over replay keys.
type Clock = HashMap<Key, u64>;

/// One access-carrying node of the replay (a kernel launch or a
/// peer-to-peer copy).
struct Node<'a> {
    name: &'a str,
    tag: u64,
    key: Key,
    epoch: u64,
    clock: Clock,
    /// Position in the replayed log (see [`Fifo::queue`]).
    log_index: usize,
    /// Accesses, each in a `(device, sync phase)` address-space bucket.
    accesses: Vec<(usize, usize, Cow<'a, AccessSet>)>,
}

impl Node<'_> {
    fn happens_before(&self, other: &Node<'_>) -> bool {
        other.clock.get(&self.key).copied().unwrap_or(0) >= self.epoch
    }
}

/// The commands one stream issued in one sync phase of its device.
struct Fifo {
    key: Key,
    phase: usize,
    /// `(log index, command)`: the index is relative to the start of the
    /// replayed suffix in a multi-device replay and to the start of the
    /// sync phase for a lone device.
    queue: VecDeque<(usize, CmdRecord)>,
    /// Whether the device's barrier clock has been joined into the
    /// stream's clock for this phase.
    joined: bool,
}

/// Advance `key`'s own component of `clock`; returns the new epoch.
fn tick(clock: &mut Clock, key: Key) -> u64 {
    let e = clock.entry(key).or_insert(0);
    *e += 1;
    *e
}

fn join(into: &mut Clock, from: &Clock) {
    for (k, t) in from {
        let e = into.entry(*k).or_insert(0);
        *e = (*e).max(*t);
    }
}

/// Replay per-device log suffixes together, appending diagnostics to
/// `out`. With a `fabric` the replay follows peer-to-peer copies and
/// reports under `fabric-trace`; without one (`devs` then holds a single
/// device) copy halves are skipped and findings use the single-device
/// wording under `device-trace`. Returns `(launches_replayed,
/// pairs_compared)`.
pub(crate) fn check_logs(
    fabric: Option<&Fabric>,
    devs: &[&Device],
    logs: &[&[CmdRecord]],
    out: &mut Vec<Diagnostic>,
) -> (u64, u64) {
    debug_assert_eq!(devs.len(), logs.len());
    let merged = fabric.is_some();

    // ---- partition into per-(device, phase, stream) FIFOs -------------
    let mut fifos: Vec<Fifo> = Vec::new();
    let mut fifo_of: HashMap<(usize, usize, StreamId), usize> = HashMap::new();
    // Commands per (device, phase), for barrier completion tracking.
    let mut phase_totals: Vec<Vec<usize>> = vec![Vec::new(); devs.len()];
    // Destination-side sync phase of each copy (address-space bucket of
    // its landing write).
    let mut copy_dst_phase: HashMap<u64, usize> = HashMap::new();
    // Events / copies whose record half appears in these suffixes.
    let mut recorded_events: HashSet<(usize, u64)> = HashSet::new();
    let mut recorded_copies: HashSet<u64> = HashSet::new();

    for (d, log) in logs.iter().enumerate() {
        let mut phase = 0usize;
        let mut phase_start = 0usize;
        for (i, c) in log.iter().enumerate() {
            let sid = match c {
                CmdRecord::Sync => {
                    // A sync with nothing before it in the suffix orders
                    // nothing: phases are never empty.
                    if phase_totals[d].len() > phase {
                        phase += 1;
                    }
                    phase_start = i + 1;
                    continue;
                }
                CmdRecord::CopySrc { .. } | CmdRecord::CopyDst { .. } if !merged => continue,
                CmdRecord::Launch { stream, .. }
                | CmdRecord::RecordEvent { stream, .. }
                | CmdRecord::WaitEvent { stream, .. }
                | CmdRecord::CopySrc { stream, .. }
                | CmdRecord::CopyDst { stream, .. } => *stream,
            };
            match c {
                CmdRecord::RecordEvent { event, .. } => {
                    recorded_events.insert((d, event.raw()));
                }
                CmdRecord::CopySrc { copy, .. } => {
                    recorded_copies.insert(copy.raw());
                }
                CmdRecord::CopyDst { copy, .. } => {
                    copy_dst_phase.insert(copy.raw(), phase);
                }
                _ => {}
            }
            if phase_totals[d].len() == phase {
                phase_totals[d].push(0);
            }
            phase_totals[d][phase] += 1;
            let f = *fifo_of.entry((d, phase, sid)).or_insert_with(|| {
                fifos.push(Fifo {
                    key: (d, sid),
                    phase,
                    queue: VecDeque::new(),
                    joined: phase == 0,
                });
                fifos.len() - 1
            });
            let log_index = if merged { i } else { i - phase_start };
            fifos[f].queue.push_back((log_index, *c));
        }
    }

    // ---- worklist replay ---------------------------------------------
    // Drain any FIFO whose head command can fire. A wait enqueued before
    // its record is legal (the engine blocks on it), so issue order alone
    // cannot drive the replay.
    let mut clocks: HashMap<Key, Clock> = HashMap::new();
    let mut event_clock: HashMap<(usize, u64), Clock> = HashMap::new();
    let mut copy_clock: HashMap<u64, Clock> = HashMap::new();
    let mut nodes: Vec<Node<'_>> = Vec::new();
    let mut launches = 0u64;
    // Per-device barrier: clock joining everything in completed phases,
    // and how many phases have completed.
    let mut barrier: Vec<Clock> = vec![HashMap::new(); devs.len()];
    let mut barrier_phase: Vec<usize> = vec![0; devs.len()];
    let mut phase_fired: Vec<Vec<usize>> = phase_totals.iter().map(|t| vec![0; t.len()]).collect();

    loop {
        let mut progressed = false;
        for fifo in &mut fifos {
            let (key, phase) = (fifo.key, fifo.phase);
            let d = key.0;
            // Per-device barrier: a command of phase p may only fire once
            // all of its device's commands in phases < p fired.
            if barrier_phase[d] < phase {
                continue;
            }
            if !fifo.joined {
                fifo.joined = true;
                join(clocks.entry(key).or_default(), &barrier[d]);
            }
            while let Some(&(log_index, cmd)) = fifo.queue.front() {
                match cmd {
                    CmdRecord::Launch { kernel, .. } => {
                        launches += 1;
                        let clock = clocks.entry(key).or_default();
                        let epoch = tick(clock, key);
                        let desc = devs[d].kernel_desc(kernel);
                        if !desc.accesses.is_empty() {
                            nodes.push(Node {
                                name: desc.name.as_str(),
                                tag: desc.tag,
                                key,
                                epoch,
                                clock: clock.clone(),
                                log_index,
                                accesses: vec![(d, phase, Cow::Borrowed(&desc.accesses))],
                            });
                        }
                    }
                    CmdRecord::RecordEvent { event, .. } => {
                        let clock = clocks.entry(key).or_default().clone();
                        event_clock.insert((d, event.raw()), clock);
                    }
                    CmdRecord::WaitEvent { event, .. } => {
                        match event_clock.get(&(d, event.raw())) {
                            Some(ev) => join(clocks.entry(key).or_default(), ev),
                            // Blocked: the record is still to be replayed,
                            // or never happens at all.
                            None if recorded_events.contains(&(d, event.raw()))
                                || !devs[d].event_recorded(event) =>
                            {
                                break;
                            }
                            // Recorded before these suffixes: the wait is
                            // a join with already-checked history.
                            None => {}
                        }
                    }
                    CmdRecord::CopySrc { copy, .. } => {
                        let fabric = fabric.expect("copy halves are only queued with a fabric");
                        let desc = fabric.copy_desc(copy);
                        let clock = clocks.entry(key).or_default();
                        let epoch = tick(clock, key);
                        copy_clock.insert(copy.raw(), clock.clone());
                        let mut accesses =
                            vec![(desc.src, phase, Cow::Owned(read_set(desc.src_access)))];
                        if let Some(&dp) = copy_dst_phase.get(&copy.raw()) {
                            accesses.push((desc.dst, dp, Cow::Owned(write_set(desc.dst_access))));
                        }
                        nodes.push(Node {
                            name: desc.name.as_str(),
                            tag: copy.raw(),
                            key,
                            epoch,
                            clock: clock.clone(),
                            log_index,
                            accesses,
                        });
                    }
                    CmdRecord::CopyDst { copy, .. } => match copy_clock.get(&copy.raw()) {
                        Some(cc) => join(clocks.entry(key).or_default(), cc),
                        None if recorded_copies.contains(&copy.raw()) => {
                            break; // blocked: source half not replayed
                        }
                        None => {} // copy resolved before these suffixes
                    },
                    CmdRecord::Sync => {}
                }
                fifo.queue.pop_front();
                progressed = true;
                // Barrier bookkeeping: completing the last command of the
                // device's current phase freezes the barrier clock and
                // unlocks the next phase.
                phase_fired[d][phase] += 1;
                if phase_fired[d][phase] == phase_totals[d][phase] {
                    for (k, clock) in &clocks {
                        if k.0 == d {
                            join(&mut barrier[d], clock);
                        }
                    }
                    barrier_phase[d] += 1;
                }
            }
        }
        if !progressed {
            break;
        }
    }

    let context = if merged {
        "fabric-trace"
    } else {
        "device-trace"
    };

    // ---- deadlock detection ------------------------------------------
    // Only FIFOs past their device's barrier can be blocked on a wait;
    // the rest are waiting for the stalled phase to drain.
    let stuck: Vec<String> = fifos
        .iter()
        .filter(|f| barrier_phase[f.key.0] >= f.phase)
        .filter_map(|f| {
            let &(i, c) = f.queue.front()?;
            let what = match c {
                CmdRecord::WaitEvent { event, .. } => format!("waiting on event {}", event.raw()),
                CmdRecord::CopyDst { copy, .. } => format!("waiting on copy {}", copy.raw()),
                _ => unreachable!("only waits can block a stream past its barrier"),
            };
            let (d, sid) = f.key;
            Some(if merged {
                format!("device {d} stream {} blocked at log[{i}] {what}", sid.raw())
            } else {
                format!("stream {} blocked at log[{i}] {what}", sid.raw())
            })
        })
        .collect();
    if !stuck.is_empty() {
        let detail = if merged {
            format!(
                "fabric trace replay deadlocks: {} (a copy or event half is \
                 missing, or waits form a cross-device cycle)",
                stuck.join("; ")
            )
        } else {
            format!(
                "trace replay deadlocks: {} (event never recorded, or waits form a cycle)",
                stuck.join("; ")
            )
        };
        out.push(Diagnostic {
            kind: DiagnosticKind::EventWaitCycle,
            context: context.to_string(),
            first: None,
            second: None,
            site: None,
            detail,
        });
    }

    // ---- race detection ----------------------------------------------
    // Bucket access entries by (device, phase): entries in different
    // phases of the same device are ordered by its sync barrier, and
    // entries on different devices live in different address spaces.
    let mut buckets: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for (ni, n) in nodes.iter().enumerate() {
        for (ai, (d, p, _)) in n.accesses.iter().enumerate() {
            buckets.entry((*d, *p)).or_default().push((ni, ai));
        }
    }
    let mut bucket_keys: Vec<(usize, usize)> = buckets.keys().copied().collect();
    bucket_keys.sort_unstable();
    let node_ref = |n: &Node<'_>| KernelRef {
        name: if merged {
            format!("dev{}:{}", n.key.0, n.name)
        } else {
            n.name.to_string()
        },
        tag: n.tag,
        stream: Some(n.key.1.raw()),
        index: n.log_index,
    };
    let mut pairs = 0u64;
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    for bk in bucket_keys {
        let entries = &buckets[&bk];
        for x in 0..entries.len() {
            let (ni, ai) = entries[x];
            for &(nj, aj) in &entries[x + 1..] {
                if ni == nj || reported.contains(&(ni, nj)) {
                    continue;
                }
                pairs += 1;
                let (a, b) = (&nodes[ni], &nodes[nj]);
                if a.happens_before(b) || b.happens_before(a) {
                    continue;
                }
                if let Some(c) = a.accesses[ai].2.conflict_with(&b.accesses[aj].2) {
                    reported.insert((ni, nj));
                    out.push(Diagnostic {
                        kind: DiagnosticKind::DataRace,
                        context: context.to_string(),
                        first: Some(node_ref(a)),
                        second: Some(node_ref(b)),
                        site: Some(ConflictSite {
                            buffer: c.buffer,
                            overlap: c.overlap,
                            hazard: c.hazard(),
                        }),
                        detail: if merged {
                            format!(
                                "no copy edge, event, or stream order makes these \
                                 happens-before ordered on device {}",
                                bk.0
                            )
                        } else {
                            "no event or stream order makes these two launches \
                             happens-before ordered"
                                .to_string()
                        },
                    });
                }
            }
        }
    }
    (launches, pairs)
}

fn read_set(a: MemAccess) -> AccessSet {
    AccessSet {
        reads: vec![a],
        writes: vec![],
    }
}

fn write_set(a: MemAccess) -> AccessSet {
    AccessSet {
        reads: vec![],
        writes: vec![a],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{
        BufferId, ByteRange, CopyDesc, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig,
        LinkProps,
    };

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    fn mem(label: &str, range: ByteRange) -> MemAccess {
        MemAccess {
            buffer: BufferId::from_label(label),
            range,
        }
    }

    fn check(fabric: &Fabric, devs: &[&Device]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let logs: Vec<&[CmdRecord]> = devs.iter().map(|d| d.command_log()).collect();
        check_logs(Some(fabric), devs, &logs, &mut out);
        out
    }

    /// Two devices, one stream each, a copy from 0 to 1, and a consumer
    /// kernel on device 1 reading the landed bytes.
    fn copy_then_consume(gate_consumer: bool) -> Vec<Diagnostic> {
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let s0 = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let free = devs[1].create_stream();
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let range = ByteRange::new(0, 4096);
        {
            let mut h: Vec<&mut Device> = devs.iter_mut().collect();
            h[0].launch(
                s0,
                kernel("produce").writes(BufferId::from_label("grad"), range),
            );
            fab.copy_p2p(
                &mut h,
                CopyDesc::new(
                    "p2p:0->1",
                    (0, s0, mem("grad", range)),
                    (1, s1, mem("staging", range)),
                ),
            )
            .expect("fully-connected fabric has a 0->1 link, so copy_p2p cannot fail");
            // The consumer either rides the gated stream (ordered after
            // the CopyDst marker) or a free stream (racy).
            let consumer_stream = if gate_consumer { s1 } else { free };
            h[1].launch(
                consumer_stream,
                kernel("reduce").reads(BufferId::from_label("staging"), range),
            );
            fab.run(&mut h);
        }
        let views: Vec<&Device> = devs.iter().collect();
        check(&fab, &views)
    }

    #[test]
    fn gated_consumer_is_race_free() {
        assert_eq!(copy_then_consume(true), vec![]);
    }

    #[test]
    fn ungated_consumer_races_with_the_copy_write() {
        let out = copy_then_consume(false);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, DiagnosticKind::DataRace);
        let s = out[0].to_string();
        assert!(s.contains("p2p:0->1"), "{s}");
        assert!(s.contains("staging"), "{s}");
    }

    #[test]
    fn same_label_on_two_devices_is_not_a_conflict() {
        // Replicas reuse layer-scoped buffer labels; per-device address
        // spaces must keep them apart.
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let s0 = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let buf = BufferId::from_label("conv1/out");
        let range = ByteRange::new(0, 1024);
        devs[0].launch(s0, kernel("w").writes(buf, range));
        devs[1].launch(s1, kernel("w").writes(buf, range));
        let mut fab = fab;
        let mut h: Vec<&mut Device> = devs.iter_mut().collect();
        fab.run(&mut h);
        let views: Vec<&Device> = devs.iter().collect();
        assert_eq!(check(&fab, &views), vec![]);
    }

    #[test]
    fn copy_read_races_with_unordered_source_overwrite() {
        // Device 0 overwrites the source buffer on a second stream while
        // the copy reads it: write/read race on the *source* device.
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let s0 = devs[0].create_stream();
        let other = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let mut fab = Fabric::fully_connected(2, LinkProps::pcie3());
        let range = ByteRange::new(0, 4096);
        let mut h: Vec<&mut Device> = devs.iter_mut().collect();
        fab.copy_p2p(
            &mut h,
            CopyDesc::new(
                "p2p",
                (0, s0, mem("src", range)),
                (1, s1, mem("dst", range)),
            ),
        )
        .expect("fully-connected fabric has a 0->1 link, so copy_p2p cannot fail");
        h[0].launch(
            other,
            kernel("overwrite").writes(BufferId::from_label("src"), range),
        );
        fab.run(&mut h);
        let views: Vec<&Device> = devs.iter().collect();
        let out = check(&fab, &views);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, DiagnosticKind::DataRace);
        assert!(out[0].to_string().contains("src"), "{}", out[0]);
    }

    #[test]
    fn unaligned_sync_phases_still_order_per_device() {
        // Device 0 runs two solo episodes (2 syncs) while device 1 runs
        // one; conflicting launches across device 0's episodes are
        // barrier-ordered even though phase counts differ between logs.
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let a = devs[0].create_stream();
        let b = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let buf = BufferId::from_label("x");
        let range = ByteRange::new(0, 64);
        devs[0].launch(a, kernel("w0").writes(buf, range));
        devs[0].run();
        devs[0].launch(b, kernel("w1").writes(buf, range));
        devs[0].run();
        devs[1].launch(s1, kernel("other").writes(buf, range));
        devs[1].run();
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let mut h: Vec<&mut Device> = devs.iter_mut().collect();
        fab.run(&mut h);
        let views: Vec<&Device> = devs.iter().collect();
        assert_eq!(check(&fab, &views), vec![]);
    }

    #[test]
    fn missing_source_half_reports_deadlock_not_panic() {
        // A CopyDst wait whose CopySrc appears in the suffix but whose
        // replay can never fire does not exist by construction (copy_p2p
        // enqueues both), so exercise the cross-segment tolerance: a wait
        // on an event recorded before the suffix is a no-op.
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let ev = dev.create_event();
        dev.record_event(s0, ev);
        dev.run();
        let cut = dev.command_log().len();
        dev.wait_event(s0, ev);
        dev.launch(s0, kernel("k"));
        dev.run();
        let fab = Fabric::new(1);
        let suffix = &dev.command_log()[cut..];
        let mut out = Vec::new();
        check_logs(Some(&fab), &[&dev], &[suffix], &mut out);
        assert_eq!(out, vec![]);
    }
}
