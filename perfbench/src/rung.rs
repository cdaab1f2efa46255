//! Rungs: one lower layer re-driven on the work a workload recorded.
//!
//! The `gpu-sim` rung replays a slice of a device's command log into a
//! fresh [`Device`], so its host time is the simulator's alone; it counts
//! only when the replay reproduces the slice's simulated duration and
//! event count exactly. The `tensor` rung runs CIFAR10-quick's GEMM and
//! im2col shapes with the crate's own kernels.

use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{CmdRecord, Device, EventId, KernelDesc, StreamId};
use nn::net::LayerKind;
use nn::{Net, NetSpec};
use tensor::gemm::{sgemm, Transpose};
use tensor::im2col::{col2im, im2col, ConvGeometry};
use tensor::pool::{num_workers, parallel_for_rows};

enum Cmd {
    Launch(StreamId, Arc<KernelDesc>),
    Record(StreamId, usize),
    Wait(StreamId, usize),
    Sync,
}

/// A slice of a device's command log, ready to issue into another device.
pub struct Recorded {
    cmds: Vec<Cmd>,
    events: usize,
}

/// Record `src.command_log()[from..]`. Events are renumbered by first
/// use; a wait on an event recorded before the slice is dropped, because
/// the slice starts after a completed `run` and such an event has already
/// fired. Returns `None` when the slice holds peer-to-peer copies, which
/// a lone device cannot replay.
pub fn record(src: &Device, from: usize) -> Option<Recorded> {
    let mut ids: Vec<EventId> = Vec::new();
    let mut cmds = Vec::new();
    for rec in &src.command_log()[from..] {
        match *rec {
            CmdRecord::Launch { stream, kernel } => {
                cmds.push(Cmd::Launch(
                    stream,
                    Arc::new(src.kernel_desc(kernel).clone()),
                ));
            }
            CmdRecord::RecordEvent { stream, event } => {
                let local = ids.iter().position(|&e| e == event).unwrap_or_else(|| {
                    ids.push(event);
                    ids.len() - 1
                });
                cmds.push(Cmd::Record(stream, local));
            }
            CmdRecord::WaitEvent { stream, event } => {
                if let Some(local) = ids.iter().position(|&e| e == event) {
                    cmds.push(Cmd::Wait(stream, local));
                }
            }
            CmdRecord::Sync => cmds.push(Cmd::Sync),
            CmdRecord::CopySrc { .. } | CmdRecord::CopyDst { .. } => return None,
        }
    }
    Some(Recorded {
        cmds,
        events: ids.len(),
    })
}

/// A fresh device that replays [`Recorded`] slices.
pub struct Replay {
    /// The replay device.
    pub dev: Device,
    events: Vec<EventId>,
}

impl Replay {
    /// A device with `src`'s properties and stream count (stream ids, and
    /// so the engine's tie-break order, match `src`), plus `events` events.
    pub fn new(src: &Device, events: usize) -> Self {
        let mut dev = Device::new(src.props().clone());
        while dev.num_streams() < src.num_streams() {
            dev.create_stream();
        }
        let events = (0..events).map(|_| dev.create_event()).collect();
        Replay { dev, events }
    }

    /// Issue one slice; `run` at every sync marker and at the end.
    pub fn issue(&mut self, rec: &Recorded) {
        for cmd in &rec.cmds {
            match cmd {
                Cmd::Launch(s, desc) => {
                    self.dev.launch_shared(*s, Arc::clone(desc));
                }
                Cmd::Record(s, e) => self.dev.record_event(*s, self.events[*e]),
                Cmd::Wait(s, e) => self.dev.wait_event(*s, self.events[*e]),
                Cmd::Sync => {
                    self.dev.run();
                }
            }
        }
        if !matches!(rec.cmds.last(), Some(Cmd::Sync)) {
            self.dev.run();
        }
    }
}

impl Recorded {
    /// Events the slice records (the replay device must have this many).
    pub fn events(&self) -> usize {
        self.events
    }
}

/// What the `gpu-sim` rung reproduced and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct ReplayResult {
    /// Simulated ns the replay took.
    pub sim_ns: u64,
    /// Engine events the replay processed.
    pub events: u64,
    /// Host seconds spent issuing and running.
    pub host_s: f64,
}

/// Replay one recorded slice `1 + timed` times into a fresh device: the
/// first pass warms the device's storage the way the workload's earlier
/// iterations warmed its own, the rest are timed. Returns one result per
/// pass (simulated time and events are per-pass deltas) and the replay
/// device's mean SM occupancy over all passes.
pub fn replay(src: &Device, rec: &Recorded, timed: usize) -> (Vec<ReplayResult>, f64) {
    let mut r = Replay::new(src, rec.events());
    let runs = (0..=timed)
        .map(|_| {
            let (t0, ev0) = (r.dev.now(), r.dev.events_processed());
            let start = Instant::now();
            r.issue(rec);
            ReplayResult {
                sim_ns: r.dev.now() - t0,
                events: r.dev.events_processed() - ev0,
                host_s: start.elapsed().as_secs_f64(),
            }
        })
        .collect();
    (runs, r.dev.stats().avg_occupancy)
}

/// One GEMM-bearing layer of a net, with the shapes its math uses.
enum Shape {
    Conv {
        n: usize,
        ci: usize,
        ih: usize,
        iw: usize,
        co: usize,
        geom: ConvGeometry,
        ohw: usize,
    },
    Ip {
        n: usize,
        k: usize,
        m: usize,
    },
}

impl Shape {
    /// FLOPs of forward, weight gradient and input gradient.
    fn flop(&self) -> f64 {
        let one = match *self {
            Shape::Conv {
                n,
                ci,
                co,
                geom,
                ohw,
                ..
            } => 2 * n * co * ci * geom.kernel_h * geom.kernel_w * ohw,
            Shape::Ip { n, k, m } => 2 * n * k * m,
        };
        3.0 * one as f64
    }
}

fn shapes(spec: &NetSpec, net: &Net) -> Vec<Shape> {
    spec.layers
        .iter()
        .filter_map(|l| {
            let bottom = net.blob(&l.bottoms[0]).shape();
            let top = net.blob(&l.tops[0]).shape();
            match l.kind {
                LayerKind::Convolution {
                    kernel,
                    stride,
                    pad,
                    ..
                } => Some(Shape::Conv {
                    n: bottom[0],
                    ci: bottom[1],
                    ih: bottom[2],
                    iw: bottom[3],
                    co: top[1],
                    geom: ConvGeometry::square(kernel, stride, pad),
                    ohw: top[2] * top[3],
                }),
                LayerKind::InnerProduct { num_output } => Some(Shape::Ip {
                    n: bottom[0],
                    k: bottom[1..].iter().product(),
                    m: num_output,
                }),
                _ => None,
            }
        })
        .collect()
}

/// GFLOP per training iteration of `net`'s convolution and inner-product
/// layers (forward, weight gradient, input gradient), from the shapes of
/// its blobs after a forward pass.
pub fn gflop_per_iter(spec: &NetSpec, net: &Net) -> f64 {
    shapes(spec, net).iter().map(Shape::flop).sum::<f64>() / 1e9
}

/// Run every GEMM-bearing layer's forward, weight-gradient and
/// input-gradient math once, the way the `nn` layers split it over
/// samples and workers. Returns host seconds.
pub fn tensor_rung(spec: &NetSpec, net: &Net) -> f64 {
    let mut busy = 0.0;
    for shape in shapes(spec, net) {
        match shape {
            Shape::Conv {
                n,
                ci,
                ih,
                iw,
                co,
                geom,
                ohw,
            } => {
                let k = ci * geom.kernel_h * geom.kernel_w;
                let in_stride = ci * ih * iw;
                let out_stride = co * ohw;
                let input = vec![0.5f32; n * in_stride];
                let weight = vec![0.01f32; co * k];
                let mut top = vec![0.0f32; n * out_stride];
                let tdiff = vec![0.02f32; n * out_stride];
                let mut bdiff = vec![0.0f32; n * in_stride];
                let workers = num_workers().min(n).max(1);
                let mut partials = vec![0.0f32; workers * co * k];
                let start = Instant::now();
                parallel_for_rows(&mut top, out_stride, |n0, chunk| {
                    let mut col = vec![0.0f32; k * ohw];
                    for (s, out) in chunk.chunks_mut(out_stride).enumerate() {
                        let im = &input[(n0 + s) * in_stride..(n0 + s + 1) * in_stride];
                        im2col(im, ci, ih, iw, &geom, &mut col);
                        sgemm(
                            Transpose::No,
                            Transpose::No,
                            co,
                            ohw,
                            k,
                            1.0,
                            &weight,
                            &col,
                            0.0,
                            out,
                        );
                    }
                });
                let per = n.div_ceil(workers);
                std::thread::scope(|scope| {
                    for (c, part) in partials.chunks_mut(co * k).enumerate() {
                        let (input, tdiff) = (&input, &tdiff);
                        scope.spawn(move || {
                            let mut col = vec![0.0f32; k * ohw];
                            for s in c * per..((c + 1) * per).min(n) {
                                im2col(
                                    &input[s * in_stride..(s + 1) * in_stride],
                                    ci,
                                    ih,
                                    iw,
                                    &geom,
                                    &mut col,
                                );
                                sgemm(
                                    Transpose::No,
                                    Transpose::Yes,
                                    co,
                                    k,
                                    ohw,
                                    1.0,
                                    &tdiff[s * out_stride..(s + 1) * out_stride],
                                    &col,
                                    1.0,
                                    part,
                                );
                            }
                        });
                    }
                });
                parallel_for_rows(&mut bdiff, in_stride, |n0, chunk| {
                    let mut col_diff = vec![0.0f32; k * ohw];
                    for (s, out) in chunk.chunks_mut(in_stride).enumerate() {
                        let sample = n0 + s;
                        sgemm(
                            Transpose::Yes,
                            Transpose::No,
                            k,
                            ohw,
                            co,
                            1.0,
                            &weight,
                            &tdiff[sample * out_stride..(sample + 1) * out_stride],
                            0.0,
                            &mut col_diff,
                        );
                        col2im(&col_diff, ci, ih, iw, &geom, out);
                    }
                });
                busy += start.elapsed().as_secs_f64();
                std::hint::black_box((&top, &partials, &bdiff));
            }
            Shape::Ip { n, k, m } => {
                let x = vec![0.5f32; n * k];
                let w = vec![0.01f32; m * k];
                let dy = vec![0.02f32; n * m];
                let (mut y, mut dw, mut dx) = (
                    vec![0.0f32; n * m],
                    vec![0.0f32; m * k],
                    vec![0.0f32; n * k],
                );
                let start = Instant::now();
                sgemm(
                    Transpose::No,
                    Transpose::Yes,
                    n,
                    m,
                    k,
                    1.0,
                    &x,
                    &w,
                    0.0,
                    &mut y,
                );
                sgemm(
                    Transpose::Yes,
                    Transpose::No,
                    m,
                    k,
                    n,
                    1.0,
                    &dy,
                    &x,
                    1.0,
                    &mut dw,
                );
                sgemm(
                    Transpose::No,
                    Transpose::No,
                    n,
                    k,
                    m,
                    1.0,
                    &dy,
                    &w,
                    0.0,
                    &mut dx,
                );
                busy += start.elapsed().as_secs_f64();
                std::hint::black_box((&y, &dw, &dx));
            }
        }
    }
    busy
}
