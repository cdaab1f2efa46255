//! Fault injection for the plan linter: each lint code is provoked by a
//! deliberately constructed plan (or spec) and must surface with exactly
//! that code, and rendering must be byte-identical across runs.
//!
//! Covered codes:
//! - `PW001` — an event edge already implied by the rest of happens-before.
//! - `PW002` — independent kernels serialized on one stream.
//! - `PW003` — recorded events never consumed across streams.
//! - `PL002` — a symbolic refutation (chunks provably overlap).
//! - `PL004` — a symbolic declaration that disagrees with the built kernels.
//! - `PL005` — peak live-buffer footprint over device memory.

use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, KernelDesc, LaunchConfig};
use sanitizer::{
    DiagnosticKind, DispatchPlan, LintConfig, SanitizeMode, Sanitizer, SymGroupSpec, SymKernel,
    SymRange,
};

fn kernel(name: &str) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(2), Dim3::linear(64), 32, 0),
        KernelCost::new(1.0e5, 1.0e4),
    )
}

fn cfg() -> LintConfig {
    LintConfig {
        mem_bytes: 1 << 30,
        max_resident_threads: 1 << 16,
    }
}

fn lint_codes(san: &Sanitizer) -> Vec<&'static str> {
    san.linter()
        .expect("linter attached")
        .diags()
        .iter()
        .map(|d| d.code.code())
        .collect()
}

#[test]
fn redundant_event_edge_surfaces_as_pw001() {
    // a(s0) → b(s1) → c(s2) plus a direct wait c → a: the direct edge is
    // outside the transitive reduction.
    let mut p = DispatchPlan::new("lf/redundant");
    let a = p.add(kernel("a"), 0, &[]);
    let b = p.add(kernel("b"), 1, &[a]);
    p.add(kernel("c"), 2, &[b, a]);
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    san.check_captured("lf/redundant", &p.node_refs(), true, false);
    assert!(san.reports().is_empty(), "{:?}", san.reports());
    assert!(
        lint_codes(&san).contains(&"PW001"),
        "{:?}",
        lint_codes(&san)
    );
}

#[test]
fn same_stream_independent_pair_surfaces_as_pw002() {
    let buf = BufferId::from_label("lf/pw002");
    let mut p = DispatchPlan::new("lf/serial");
    p.add(kernel("w0").writes(buf, ByteRange::new(0, 64)), 0, &[]);
    p.add(kernel("w1").writes(buf, ByteRange::new(64, 128)), 0, &[]);
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    san.check_captured("lf/serial", &p.node_refs(), false, false);
    assert!(san.reports().is_empty(), "{:?}", san.reports());
    assert_eq!(lint_codes(&san), vec!["PW002"]);
}

#[test]
fn unconsumed_events_surface_as_pw003() {
    let mut p = DispatchPlan::new("lf/unused");
    p.add(kernel("a"), 0, &[]);
    p.add(kernel("b"), 1, &[]);
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    san.check_captured("lf/unused", &p.node_refs(), true, false);
    assert_eq!(lint_codes(&san), vec!["PW003"]);
}

#[test]
fn symbolic_refutation_surfaces_as_pl002_and_a_diagnostic() {
    // Chunk stride 256 but length 384: neighbours overlap by 128 bytes in
    // every shape with ≥ 2 chunks.
    let buf = BufferId::from_label("lf/pl002");
    let spec = SymGroupSpec::new()
        .kernel(SymKernel::new("k").writes(buf, SymRange::per_chunk(0, 256, 384)));
    let groups: Vec<Vec<KernelDesc>> = (0..3u64)
        .map(|i| {
            vec![kernel("k")
                .with_tag(i)
                .writes(buf, ByteRange::span(i * 256, 384))]
        })
        .collect();
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    let certified = san.check_chunks_spec("lf/refuted", "lf/net/conv/fwd", &spec, &groups);
    assert!(!certified);
    assert_eq!(lint_codes(&san), vec!["PL002"]);
    // The refutation is also a first-class sanitizer diagnostic.
    assert_eq!(san.reports().len(), 1);
    assert_eq!(
        san.reports()[0].kind,
        DiagnosticKind::OverlappingChunkRegions
    );
    assert_eq!(san.stats().certified_captures, 0);
}

#[test]
fn declaration_drift_surfaces_as_pl004_and_falls_back() {
    // The spec says stride 256; the built kernels actually stride 512.
    // The certificate must be refused and pairwise checking must run (and
    // stay silent — the real kernels are fine).
    let buf = BufferId::from_label("lf/pl004");
    let spec = SymGroupSpec::new()
        .kernel(SymKernel::new("k").writes(buf, SymRange::per_chunk(0, 256, 256)));
    let groups: Vec<Vec<KernelDesc>> = (0..3u64)
        .map(|i| {
            vec![kernel("k")
                .with_tag(i)
                .writes(buf, ByteRange::span(i * 512, 256))]
        })
        .collect();
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    let certified = san.check_chunks_spec("lf/drift", "lf/net/conv2/fwd", &spec, &groups);
    assert!(!certified);
    assert_eq!(lint_codes(&san), vec!["PL004"]);
    assert!(san.reports().is_empty(), "{:?}", san.reports());
    assert_eq!(san.stats().conformance_misses, 1);
    assert_eq!(san.stats().pairwise_fallbacks, 1);
    assert!(
        san.stats().chunk_pairs > 0,
        "pairwise checker must have run"
    );
}

#[test]
fn over_capacity_buffer_set_surfaces_as_pl005() {
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(LintConfig {
        mem_bytes: 1000,
        max_resident_threads: 1 << 16,
    });
    let mut p = DispatchPlan::new("lf/oom");
    let a = p.add(
        kernel("w0").writes(BufferId::from_label("lf/big0"), ByteRange::new(0, 600)),
        0,
        &[],
    );
    p.add(
        kernel("w1")
            .reads(BufferId::from_label("lf/big0"), ByteRange::new(0, 600))
            .writes(BufferId::from_label("lf/big1"), ByteRange::new(0, 600)),
        0,
        &[a],
    );
    san.check_captured("lf/oom", &p.node_refs(), false, false);
    assert_eq!(lint_codes(&san), vec!["PL005"]);
    let rendered = san.linter().unwrap().render();
    assert!(rendered.contains("1200 B"), "{rendered}");
}

#[test]
fn rendering_is_byte_identical_across_runs() {
    let run = || {
        let buf = BufferId::from_label("lf/det");
        let mut p = DispatchPlan::new("lf/det");
        let a = p.add(kernel("a").writes(buf, ByteRange::new(0, 64)), 0, &[]);
        let b = p.add(kernel("b").writes(buf, ByteRange::new(64, 128)), 1, &[a]);
        p.add(
            kernel("c").writes(buf, ByteRange::new(128, 192)),
            2,
            &[b, a],
        );
        p.add(kernel("d").writes(buf, ByteRange::new(192, 256)), 2, &[]);
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.attach_linter(cfg());
        san.check_captured("lf/det", &p.node_refs(), true, false);
        san.linter().unwrap().render()
    };
    let first = run();
    assert!(!first.is_empty());
    assert_eq!(first, run());
    assert_eq!(first, run());
}
