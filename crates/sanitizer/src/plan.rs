//! The happens-before relation of a schedule, and a plan builder.
//!
//! A schedule is an issue-ordered list of [`PlanNodeRef`]s: a kernel, its
//! target stream and the plan nodes it waits for. `HbRelation` derives
//! the schedule's happens-before facts once — the edges, a topological
//! order or the nodes stuck behind a wait cycle, and on first use the
//! transitive closure — and every static analysis reads them from there:
//! the capture-time check ([`Sanitizer::check_captured`]) and the plan
//! lints alike.
//!
//! [`DispatchPlan`] is a small owned builder for such schedules, for
//! tests that construct (often deliberately broken) plans by hand.
//!
//! [`Sanitizer::check_captured`]: crate::Sanitizer::check_captured

use crate::diag::{LintCode, LintDiag};
use crate::lint::Linter;
use crate::report::{ConflictSite, Diagnostic, DiagnosticKind, KernelRef};
use gpu_sim::{AccessConflict, KernelDesc};
use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};

/// A borrowed view of one plan node, so a frozen execution plan can be
/// checked in place without cloning its kernels.
#[derive(Debug, Clone, Copy)]
pub struct PlanNodeRef<'a> {
    /// The kernel to launch.
    pub kernel: &'a KernelDesc,
    /// Target stream (pool-relative index).
    pub stream: usize,
    /// Plan-node indices whose completion this node waits for (cross-stream
    /// deps become event record/wait pairs at dispatch time).
    pub deps: &'a [usize],
}

#[derive(Debug, Clone)]
struct PlanNode {
    kernel: KernelDesc,
    stream: usize,
    deps: Vec<usize>,
}

/// An owned, issue-ordered schedule: which kernel goes to which stream,
/// after which dependencies. Check it through
/// [`node_refs`](DispatchPlan::node_refs).
#[derive(Debug, Clone, Default)]
pub struct DispatchPlan {
    nodes: Vec<PlanNode>,
    /// Human-readable label for diagnostics (layer key, net name...).
    pub label: String,
}

impl DispatchPlan {
    /// Empty plan with a diagnostic label.
    pub fn new(label: &str) -> Self {
        DispatchPlan {
            nodes: Vec::new(),
            label: label.to_string(),
        }
    }

    /// Append a node; returns its index. Dependency indices are *not*
    /// validated here — the checker flags out-of-range deps and wait
    /// cycles, which is the point: fault injection builds deliberately
    /// broken plans.
    pub fn add(&mut self, kernel: KernelDesc, stream: usize, deps: &[usize]) -> usize {
        self.nodes.push(PlanNode {
            kernel,
            stream,
            deps: deps.to_vec(),
        });
        self.nodes.len() - 1
    }

    /// The plan the group scheduler would execute: group `i` is an ordered
    /// chain on stream `i % num_streams`, with chain edges as deps.
    pub fn round_robin(label: &str, groups: &[Vec<KernelDesc>], num_streams: usize) -> Self {
        let num_streams = num_streams.max(1);
        let mut plan = DispatchPlan::new(label);
        for (g, group) in groups.iter().enumerate() {
            let mut prev: Option<usize> = None;
            for k in group {
                let deps: Vec<usize> = prev.into_iter().collect();
                prev = Some(plan.add(k.clone(), g % num_streams, &deps));
            }
        }
        plan
    }

    /// Borrowed node views in issue order.
    pub fn node_refs(&self) -> Vec<PlanNodeRef<'_>> {
        self.nodes
            .iter()
            .map(|n| PlanNodeRef {
                kernel: &n.kernel,
                stream: n.stream,
                deps: &n.deps,
            })
            .collect()
    }
}

/// The happens-before relation of one schedule: `i → j` when `j` cannot
/// start before `i` completes. Stream FIFO order contributes edges between
/// issue-order neighbours on the same stream; declared deps contribute the
/// rest (cross-stream ones become event waits at dispatch). Deps outside
/// the plan contribute no edge; [`dangling`](HbRelation::dangling) lists
/// them.
pub(crate) struct HbRelation<'p, 'k> {
    nodes: &'p [PlanNodeRef<'k>],
    succ: Vec<Vec<usize>>,
    /// Kahn order of the drained nodes; complete iff `stuck` is empty.
    order: Vec<usize>,
    /// Nodes that can never start: on (or behind) a wait cycle.
    stuck: Vec<usize>,
    /// Transitive closure as row bitsets (`n` rows of `words` words),
    /// built on first use.
    reach: OnceCell<Vec<u64>>,
}

impl<'p, 'k> HbRelation<'p, 'k> {
    /// Derive the edges and run Kahn's algorithm over them.
    pub(crate) fn new(nodes: &'p [PlanNodeRef<'k>]) -> Self {
        let n = nodes.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_on_stream: HashMap<usize, usize> = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = last_on_stream.insert(node.stream, i) {
                succ[p].push(i);
            }
            for &d in node.deps {
                if d < n && d != i {
                    succ[d].push(i);
                }
            }
        }
        let mut indeg = vec![0usize; n];
        for &j in succ.iter().flatten() {
            indeg[j] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &j in &succ[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        let stuck = (0..n).filter(|&i| indeg[i] > 0).collect();
        HbRelation {
            nodes,
            succ,
            order,
            stuck,
            reach: OnceCell::new(),
        }
    }

    /// The schedule the relation was derived from.
    pub(crate) fn nodes(&self) -> &'p [PlanNodeRef<'k>] {
        self.nodes
    }

    /// Direct happens-before successors of node `i`.
    pub(crate) fn succ(&self, i: usize) -> &[usize] {
        &self.succ[i]
    }

    /// `(node, dep)` pairs whose dep names no node of the plan: waits
    /// that can never be satisfied.
    pub(crate) fn dangling(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.nodes.len();
        self.nodes.iter().enumerate().flat_map(move |(i, node)| {
            node.deps
                .iter()
                .filter(move |&&d| d >= n)
                .map(move |&d| (i, d))
        })
    }

    /// Nodes that can never start because event waits form a cycle;
    /// empty for an acyclic relation.
    pub(crate) fn stuck(&self) -> &[usize] {
        &self.stuck
    }

    /// Whether `a` happens before `b` (transitively). Only meaningful for
    /// an acyclic relation; the closure is built on the first call.
    pub(crate) fn reaches(&self, a: usize, b: usize) -> bool {
        let words = self.nodes.len().div_ceil(64);
        let reach = self.reach.get_or_init(|| {
            let mut reach = vec![0u64; self.nodes.len() * words];
            for &i in self.order.iter().rev() {
                for &j in &self.succ[i] {
                    for w in 0..words {
                        reach[i * words + w] |= reach[j * words + w];
                    }
                    reach[i * words + j / 64] |= 1 << (j % 64);
                }
            }
            reach
        });
        reach[a * words + b / 64] >> (b % 64) & 1 == 1
    }

    /// Visit every pair of conflicting kernels that no happens-before path
    /// orders, in issue order. Returns the number of pairs compared.
    fn unordered_conflicts(&self, mut found: impl FnMut(usize, usize, AccessConflict)) -> u64 {
        let nodes = self.nodes;
        let mut pairs = 0u64;
        for i in 0..nodes.len() {
            if nodes[i].kernel.accesses.is_empty() {
                continue;
            }
            for j in (i + 1)..nodes.len() {
                if nodes[j].kernel.accesses.is_empty() {
                    continue;
                }
                pairs += 1;
                if self.reaches(i, j) || self.reaches(j, i) {
                    continue;
                }
                if let Some(c) = nodes[i]
                    .kernel
                    .accesses
                    .conflict_with(&nodes[j].kernel.accesses)
                {
                    found(i, j, c);
                }
            }
        }
        pairs
    }
}

fn kernel_ref(nodes: &[PlanNodeRef<'_>], i: usize) -> KernelRef {
    let n = &nodes[i];
    KernelRef {
        name: n.kernel.name.to_string(),
        tag: n.kernel.tag,
        stream: Some(n.stream as u32),
        index: i,
    }
}

/// The structural and hazard checks of one schedule: dangling deps and
/// wait cycles, then — unless `scan_pairs` is false because a symbolic
/// certificate already proves hazard-freedom — every conflicting pair the
/// relation leaves unordered. Each finding is appended to `out` as a
/// [`Diagnostic`] and, when a linter is given, pushed to it as the
/// matching PL001/PL003 finding. Returns the number of kernel pairs
/// compared, or `None` when a wait cycle leaves no acyclic relation for
/// later analyses to read.
pub(crate) fn check(
    label: &str,
    rel: &HbRelation<'_, '_>,
    scan_pairs: bool,
    out: &mut Vec<Diagnostic>,
    mut linter: Option<&mut Linter>,
) -> Option<u64> {
    let nodes = rel.nodes();
    let n = nodes.len();
    for (i, d) in rel.dangling() {
        out.push(Diagnostic {
            kind: DiagnosticKind::EventWaitCycle,
            context: label.to_string(),
            first: Some(kernel_ref(nodes, i)),
            second: None,
            site: None,
            detail: format!(
                "node {i} waits on nonexistent node {d} (plan has {n} nodes): \
                 the wait can never be satisfied"
            ),
        });
        if let Some(l) = linter.as_deref_mut() {
            l.push(LintDiag {
                code: LintCode::WaitCycle,
                plan: label.to_string(),
                node: Some(i),
                message: format!("node {i} waits on nonexistent node {d} (plan has {n} nodes)"),
                notes: vec![],
            });
        }
    }

    let stuck = rel.stuck();
    if !stuck.is_empty() {
        let shown = &stuck[..stuck.len().min(4)];
        let named: Vec<String> = shown
            .iter()
            .map(|&i| kernel_ref(nodes, i).to_string())
            .collect();
        out.push(Diagnostic {
            kind: DiagnosticKind::EventWaitCycle,
            context: label.to_string(),
            first: None,
            second: None,
            site: None,
            detail: format!(
                "{} of {n} kernels can never start: event waits form a cycle through {}",
                stuck.len(),
                named.join(", ")
            ),
        });
        if let Some(l) = linter {
            let ids: Vec<String> = shown.iter().map(usize::to_string).collect();
            l.push(LintDiag {
                code: LintCode::WaitCycle,
                plan: label.to_string(),
                node: None,
                message: format!(
                    "{} of {n} kernels can never start: event waits form a cycle through nodes {}",
                    stuck.len(),
                    ids.join(", ")
                ),
                notes: vec![],
            });
        }
        return None;
    }
    if !scan_pairs {
        return Some(0);
    }

    Some(rel.unordered_conflicts(|i, j, c| {
        out.push(Diagnostic {
            kind: DiagnosticKind::MissingDependency,
            context: label.to_string(),
            first: Some(kernel_ref(nodes, i)),
            second: Some(kernel_ref(nodes, j)),
            site: Some(ConflictSite {
                buffer: c.buffer,
                overlap: c.overlap,
                hazard: c.hazard(),
            }),
            detail: "no declared dependency or stream order covers this hazard".to_string(),
        });
        if let Some(l) = linter.as_deref_mut() {
            l.push(LintDiag {
                code: LintCode::UnorderedHazard,
                plan: label.to_string(),
                node: Some(i),
                message: format!(
                    "nodes {i} (`{}`) and {j} (`{}`) race: {} on {} over {}",
                    nodes[i].kernel.name,
                    nodes[j].kernel.name,
                    c.hazard(),
                    c.buffer,
                    c.overlap
                ),
                notes: vec![],
            });
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, LaunchConfig};

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(8), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    /// Run the check over a builder plan; returns the diagnostics and the
    /// pairs compared.
    fn check_plan(p: &DispatchPlan) -> (Vec<Diagnostic>, u64) {
        let nodes = p.node_refs();
        let mut out = Vec::new();
        let pairs = check(&p.label, &HbRelation::new(&nodes), true, &mut out, None);
        (out, pairs.unwrap_or(0))
    }

    #[test]
    fn round_robin_matches_group_scheduler_shape() {
        let groups = vec![
            vec![kernel("a0"), kernel("a1")],
            vec![kernel("b0")],
            vec![kernel("c0")],
        ];
        let p = DispatchPlan::round_robin("t", &groups, 2);
        let nodes = p.node_refs();
        assert_eq!(nodes.len(), 4);
        let streams: Vec<usize> = nodes.iter().map(|n| n.stream).collect();
        assert_eq!(streams, vec![0, 0, 1, 0]);
        assert_eq!(nodes[1].deps, &[0], "chain edge inside group");
        assert!(nodes[2].deps.is_empty());
    }

    #[test]
    fn clean_plan_has_no_diagnostics() {
        let buf = BufferId::from_label("plan/x");
        let groups: Vec<Vec<KernelDesc>> = (0..4)
            .map(|i| {
                vec![kernel("k")
                    .with_tag(i)
                    .writes(buf, ByteRange::span(i * 64, 64))]
            })
            .collect();
        let (out, pairs) = check_plan(&DispatchPlan::round_robin("t", &groups, 4));
        assert_eq!(out, vec![]);
        assert_eq!(pairs, 6);
    }

    #[test]
    fn unordered_conflict_is_a_missing_dependency() {
        let buf = BufferId::from_label("plan/y");
        let mut p = DispatchPlan::new("t");
        p.add(kernel("w0").writes(buf, ByteRange::new(0, 128)), 0, &[]);
        p.add(kernel("w1").writes(buf, ByteRange::new(64, 192)), 1, &[]);
        let (out, _) = check_plan(&p);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::MissingDependency);
        let s = out[0].to_string();
        assert!(s.contains("write/write"), "{s}");
        assert!(s.contains("[64, 128)"), "{s}");
    }

    #[test]
    fn dep_or_same_stream_covers_the_hazard() {
        let buf = BufferId::from_label("plan/z");
        // Same conflict, covered by a declared dep.
        let mut p = DispatchPlan::new("t");
        let a = p.add(kernel("w0").writes(buf, ByteRange::new(0, 128)), 0, &[]);
        p.add(kernel("w1").writes(buf, ByteRange::new(0, 128)), 1, &[a]);
        assert_eq!(check_plan(&p).0, vec![]);
        // Covered by stream FIFO order instead.
        let mut p = DispatchPlan::new("t");
        p.add(kernel("w0").writes(buf, ByteRange::new(0, 128)), 3, &[]);
        p.add(kernel("w1").writes(buf, ByteRange::new(0, 128)), 3, &[]);
        assert_eq!(check_plan(&p).0, vec![]);
    }

    #[test]
    fn transitive_order_suppresses_false_positives() {
        let buf = BufferId::from_label("plan/t");
        let mut p = DispatchPlan::new("t");
        let a = p.add(kernel("a").writes(buf, ByteRange::new(0, 64)), 0, &[]);
        let b = p.add(kernel("b"), 1, &[a]);
        p.add(kernel("c").reads(buf, ByteRange::new(0, 64)), 2, &[b]);
        assert_eq!(
            check_plan(&p).0,
            vec![],
            "a → b → c orders a before c transitively"
        );
    }

    #[test]
    fn closure_spans_more_than_one_bitset_word() {
        // A 70-node chain on one stream: node 0 reaches node 69 across the
        // 64-bit word boundary, and nothing reaches backwards.
        let mut p = DispatchPlan::new("t");
        for _ in 0..70 {
            p.add(kernel("k"), 0, &[]);
        }
        let nodes = p.node_refs();
        let rel = HbRelation::new(&nodes);
        assert!(rel.stuck().is_empty());
        assert!(rel.reaches(0, 69) && rel.reaches(63, 64));
        assert!(!rel.reaches(69, 0) && !rel.reaches(5, 5));
    }

    #[test]
    fn cross_stream_wait_cycle_is_detected() {
        // Stream 0: k0 waits on k1 (enqueued later on stream 1); stream 1:
        // k1 waits on k0. Neither can ever start.
        let mut p = DispatchPlan::new("t");
        p.add(kernel("k0"), 0, &[1]);
        p.add(kernel("k1"), 1, &[0]);
        let (out, _) = check_plan(&p);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::EventWaitCycle);
        assert!(out[0].to_string().contains("cycle"), "{}", out[0]);
    }

    #[test]
    fn dangling_dep_is_reported() {
        let mut p = DispatchPlan::new("t");
        p.add(kernel("k"), 0, &[7]);
        let (out, _) = check_plan(&p);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::EventWaitCycle);
        assert!(out[0].to_string().contains("nonexistent"), "{}", out[0]);
    }
}
