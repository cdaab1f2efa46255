//! Property tests for the plan linter and the symbolic prover.
//!
//! 1. **PW001 is sound**: removing *every* event edge the linter flags as
//!    redundant leaves the happens-before relation (transitive closure of
//!    declared deps + per-stream FIFO order) exactly unchanged.
//! 2. **Certificates agree with the pairwise checker**: a `Proven` spec
//!    has no cross-chunk conflict at any materialized shape, and a
//!    `Refuted` spec's witness chunks conflict concretely whenever the
//!    shape contains both.

use gpu_sim::{Dim3, KernelCost, KernelDesc, LaunchConfig};
use proptest::prelude::*;
use sanitizer::{
    DispatchPlan, LintConfig, SanitizeMode, Sanitizer, SymGroupSpec, SymKernel, SymRange,
    SymVerdict,
};
use std::collections::BTreeSet;

fn kernel(name: &str) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(2), Dim3::linear(64), 32, 0),
        KernelCost::new(1.0e5, 1.0e4),
    )
}

/// The happens-before edge set a `DispatchPlan` induces: declared deps
/// plus the implicit FIFO edge from each node to its stream predecessor —
/// minus `removed` (declared edges only, as `(dep, node)` pairs).
fn hb_closure(
    streams: &[usize],
    deps: &[Vec<usize>],
    removed: &BTreeSet<(usize, usize)>,
) -> Vec<BTreeSet<usize>> {
    let n = streams.len();
    let mut succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut last: std::collections::BTreeMap<usize, usize> = Default::default();
    for i in 0..n {
        for &d in &deps[i] {
            if !removed.contains(&(d, i)) {
                succ[d].insert(i);
            }
        }
        if let Some(&p) = last.get(&streams[i]) {
            succ[p].insert(i);
        }
        last.insert(streams[i], i);
    }
    // Floyd–Warshall-ish closure; plans are tiny.
    let mut reach: Vec<BTreeSet<usize>> = succ.clone();
    for _ in 0..n {
        for i in 0..n {
            let step: BTreeSet<usize> = reach[i]
                .iter()
                .flat_map(|&j| reach[j].iter().copied())
                .collect();
            reach[i].extend(step);
        }
    }
    reach
}

/// Parse the dep endpoint out of a PW001 message ("… on node {d} (stream").
fn pw001_dep(message: &str) -> usize {
    let rest = message
        .split("on node ")
        .nth(1)
        .expect("PW001 message names the dep node");
    rest.split_whitespace()
        .next()
        .and_then(|w| w.parse().ok())
        .expect("dep node index parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Removing all PW001-flagged edges preserves happens-before exactly.
    #[test]
    fn removing_flagged_redundant_edges_preserves_hb(
        streams in prop::collection::vec(0usize..3, 2..12),
        seed in any::<u64>(),
    ) {
        let n = streams.len();
        // Deterministic pseudo-random dep sets from the seed.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut s = seed | 1;
        for (i, d) in deps.iter_mut().enumerate() {
            for c in 0..i {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if s >> 61 == 0 {
                    d.push(c); // ~1/8 of candidate edges
                }
            }
        }
        let mut plan = DispatchPlan::new("pt/hb");
        for i in 0..n {
            plan.add(kernel("k"), streams[i], &deps[i]);
        }
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.attach_linter(LintConfig {
            mem_bytes: 1 << 40,
            max_resident_threads: 1 << 16,
        });
        san.check_captured("pt/hb", &plan.node_refs(), false, true);
        let flagged: BTreeSet<(usize, usize)> = san
            .linter()
            .expect("linter attached")
            .diags()
            .iter()
            .filter(|d| d.code.code() == "PW001")
            .map(|d| (pw001_dep(&d.message), d.node.expect("PW001 anchors to the waiter")))
            .collect();
        let before = hb_closure(&streams, &deps, &BTreeSet::new());
        let after = hb_closure(&streams, &deps, &flagged);
        prop_assert_eq!(before, after, "flagged {:?}", flagged);
    }

    /// The symbolic verdict agrees with the concrete pairwise checker at
    /// every materialized shape.
    #[test]
    fn symbolic_verdict_matches_pairwise_instances(
        accs in prop::collection::vec(
            (0usize..2, any::<bool>(), 0u64..4, 1u64..5, 1u64..5, any::<bool>()),
            1..4,
        ),
    ) {
        // Each tuple: (buffer, is_write, base/64, stride/64, len/64, fixed?).
        let mut k = SymKernel::new("k");
        for &(buf, is_write, base, stride, len, fixed) in &accs {
            let b = gpu_sim::BufferId::from_label(&format!("pt/sym{buf}"));
            let r = if fixed {
                SymRange::fixed(gpu_sim::ByteRange::span(base * 64, len * 64))
            } else {
                SymRange::per_chunk(base * 64, stride * 64, len * 64)
            };
            k = if is_write { k.writes(b, r) } else { k.reads(b, r) };
        }
        let spec = SymGroupSpec::new().kernel(k);
        match spec.prove() {
            SymVerdict::Proven { .. } => {
                for n in 2..6u64 {
                    for i in 0..n {
                        for j in 0..n {
                            if i != j {
                                prop_assert!(
                                    spec.concrete(i).conflict_with(&spec.concrete(j)).is_none(),
                                    "proven spec conflicts at chunks {},{} of {}", i, j, n
                                );
                            }
                        }
                    }
                }
            }
            SymVerdict::Refuted(c) => {
                prop_assert!(c.chunk_a != c.chunk_b);
                prop_assert!(
                    spec.concrete(c.chunk_a)
                        .conflict_with(&spec.concrete(c.chunk_b))
                        .is_some(),
                    "witness chunks {},{} do not conflict concretely", c.chunk_a, c.chunk_b
                );
            }
            SymVerdict::Unsupported { .. } => {
                // Outside the affine fragment; the runtime falls back to
                // pairwise checking, so nothing to cross-validate.
            }
        }
    }
}
