//! Lock-order graph pass: acyclicity certificates and cycle witnesses.
//!
//! The lock-order graph has one node per [`ClassSpec`] and one directed
//! edge per [`SiteSpec`] with a held class (held → acquires). The
//! classic result: if every execution acquires locks consistently with
//! a partial order — i.e. the graph is acyclic — hold-and-wait cycles
//! are impossible, so the protocol cannot deadlock. The pass proves
//! acyclicity with a Kahn topological sort and then *cross-validates*
//! the certificate by exhaustively model-checking the protocol's
//! acquisition paths with the PR 3 interleaving checker ([`crate::mc`]):
//! a certificate the checker contradicts is a bug in this pass and
//! panics rather than shipping.
//!
//! A cyclic graph instead produces a [`DeadlockWitness`]: the cycle's
//! classes, the source-anchored sites realising each edge, and the
//! *minimal schedule* — thread `i` acquires cycle class `i` then blocks
//! on class `i+1 (mod k)`, so running each thread for exactly one step
//! (`[0, 1, …, k−1]`) lands every thread in a hold-and-wait. The
//! witness is replayed through [`LockSeqModel`] and the checker must
//! independently report [`ViolationKind::Deadlock`] before `replays` is
//! set; an unreplayable witness fails the section.
//!
//! The model conservatively treats every class as a single-owner mutex
//! even when `slots > 1`: fewer slots means strictly more blocking, so
//! an acyclicity proof under the 1-slot abstraction covers the real
//! multi-slot resource, while a cycle found under it is realisable by
//! saturating the slots.

use super::{ClassSpec, Protocol, SiteSpec};
use crate::mc::{check, Model, ViolationKind};
use crate::MC_STATE_BUDGET;
use cumf_core::fnv::fnv1a64;

/// Most virtual threads a cross-validation run spawns (each path is
/// duplicated so two threads contend on the same acquisition sequence;
/// capped to keep the state space far below [`MC_STATE_BUDGET`]).
const MAX_MC_THREADS: usize = 6;

/// Outcome of the order pass on one protocol.
#[derive(Debug, Clone)]
pub enum OrderVerdict {
    /// Graph is acyclic: certificate with the topological order.
    Acyclic(DeadlockCert),
    /// Graph has a cycle: concrete, replayable witness.
    Cyclic(DeadlockWitness),
}

/// Acyclicity certificate for one protocol's lock-order graph.
#[derive(Debug, Clone)]
pub struct DeadlockCert {
    /// Protocol name.
    pub protocol: &'static str,
    /// Class names, graph-node order.
    pub classes: Vec<String>,
    /// Held → acquires edges (class indices).
    pub edges: Vec<(usize, usize)>,
    /// A witness topological order (class indices).
    pub topo: Vec<usize>,
    /// The same order as class names, for reports.
    pub topo_names: Vec<String>,
    /// States the cross-validating model check explored (0 when the
    /// protocol has no held edges and the check is vacuous).
    pub mc_states: usize,
    /// FNV-1a digest of the certificate content.
    pub digest: u64,
}

impl std::fmt::Display for DeadlockCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} classes, {} order edges, topo [{}], {} mc states, digest {:016x}",
            self.protocol,
            self.classes.len(),
            self.edges.len(),
            self.topo_names.join(" < "),
            self.mc_states,
            self.digest
        )
    }
}

/// A concrete deadlock counterexample: a lock-order cycle plus the
/// minimal schedule realising it as a hold-and-wait.
#[derive(Debug, Clone)]
pub struct DeadlockWitness {
    /// Protocol name.
    pub protocol: &'static str,
    /// Cycle class names, in acquisition order (`cycle[i]` is held while
    /// `cycle[(i+1) % len]` is requested).
    pub cycle: Vec<String>,
    /// Source anchors of the sites realising each cycle edge.
    pub site_anchors: Vec<String>,
    /// Minimal schedule: thread ids to run, one step each, to reach the
    /// dead state in [`LockSeqModel::cycle_threads`].
    pub schedule: Vec<usize>,
    /// True when the schedule replays to a dead state *and* the
    /// exhaustive checker independently reports a deadlock.
    pub replays: bool,
    /// The checker's own violation description.
    pub mc_detail: String,
}

impl std::fmt::Display for DeadlockWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ring = self.cycle.clone();
        if let Some(first) = ring.first().cloned() {
            ring.push(first);
        }
        write!(
            f,
            "{}: lock-order cycle {} — schedule {:?} {} (sites: {})",
            self.protocol,
            ring.join(" → "),
            self.schedule,
            if self.replays {
                "replays to a dead state in the model checker"
            } else {
                "DOES NOT replay"
            },
            self.site_anchors.join("; ")
        )
    }
}

/// A lock-acquisition transition system for [`crate::mc::check`]: each
/// thread acquires its `seqs[t]` classes in order, then releases them
/// in reverse (two-phase locking, the worst case for hold-and-wait).
///
/// Program counter semantics for thread `t` with `m = seqs[t].len()`:
/// `pc < m` acquires `seqs[t][pc]` (enabled iff unowned); `m ≤ pc < 2m`
/// releases `seqs[t][2m−1−pc]` (always enabled); `pc == 2m` is done.
#[derive(Debug)]
pub struct LockSeqModel {
    name: &'static str,
    classes: usize,
    seqs: Vec<Vec<usize>>,
}

/// Global state of [`LockSeqModel`]: per-class owner and per-thread pc.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LockSeqState {
    /// Owning thread per class, `None` when free.
    pub owner: Vec<Option<u8>>,
    /// Per-thread program counter.
    pub pc: Vec<u8>,
}

impl LockSeqModel {
    /// A model over explicit acquisition sequences.
    pub fn new(name: &'static str, classes: usize, seqs: Vec<Vec<usize>>) -> Self {
        assert!(seqs.len() <= u8::MAX as usize);
        for seq in &seqs {
            assert!(2 * seq.len() <= u8::MAX as usize);
            assert!(seq.iter().all(|&c| c < classes));
        }
        LockSeqModel {
            name,
            classes,
            seqs,
        }
    }

    /// The canonical cycle realisation: thread `i` acquires `cycle[i]`
    /// then `cycle[(i+1) % k]`.
    pub fn cycle_threads(name: &'static str, classes: usize, cycle: &[usize]) -> Self {
        let k = cycle.len();
        let seqs = (0..k).map(|i| vec![cycle[i], cycle[(i + 1) % k]]).collect();
        Self::new(name, classes, seqs)
    }

    /// Replays `schedule` from the initial state, returning the state it
    /// reaches; panics if a scheduled thread is not enabled (the
    /// schedule would be invalid, not merely unlucky).
    pub fn replay(&self, schedule: &[usize]) -> LockSeqState {
        let mut s = self.initial();
        for &tid in schedule {
            assert!(
                self.enabled(&s, tid),
                "invalid witness schedule: thread {tid} not enabled"
            );
            s = self.step(&s, tid);
        }
        s
    }

    /// True when `state` is dead: nobody can step, somebody is unfinished.
    pub fn is_dead(&self, state: &LockSeqState) -> bool {
        let n = self.seqs.len();
        (0..n).all(|t| !self.enabled(state, t)) && (0..n).any(|t| !self.done(state, t))
    }
}

impl Model for LockSeqModel {
    type State = LockSeqState;

    fn name(&self) -> &'static str {
        self.name
    }

    fn threads(&self) -> usize {
        self.seqs.len()
    }

    fn initial(&self) -> LockSeqState {
        LockSeqState {
            owner: vec![None; self.classes],
            pc: vec![0; self.seqs.len()],
        }
    }

    fn enabled(&self, s: &LockSeqState, t: usize) -> bool {
        let m = self.seqs[t].len();
        let pc = s.pc[t] as usize;
        if pc < m {
            s.owner[self.seqs[t][pc]].is_none()
        } else {
            pc < 2 * m
        }
    }

    fn step(&self, s: &LockSeqState, t: usize) -> LockSeqState {
        let mut n = s.clone();
        let m = self.seqs[t].len();
        let pc = s.pc[t] as usize;
        if pc < m {
            let c = self.seqs[t][pc];
            debug_assert!(n.owner[c].is_none());
            n.owner[c] = Some(t as u8);
        } else {
            let c = self.seqs[t][2 * m - 1 - pc];
            debug_assert_eq!(n.owner[c], Some(t as u8));
            n.owner[c] = None;
        }
        n.pc[t] += 1;
        n
    }

    fn done(&self, s: &LockSeqState, t: usize) -> bool {
        s.pc[t] as usize == 2 * self.seqs[t].len()
    }

    fn invariant(&self, _s: &LockSeqState) -> Result<(), String> {
        Ok(())
    }
}

/// Every maximal acquisition path through the protocol: start at each
/// entry site (`held == None`) and follow held-edges. Only meaningful
/// on an acyclic site graph (the order pass calls this after the topo
/// proof), where every path is finite.
fn protocol_paths(p: &Protocol) -> Vec<Vec<usize>> {
    fn extend(p: &Protocol, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let last = *path.last().expect("path starts non-empty");
        let mut extended = false;
        for site in p.sites.iter().filter(|s| s.held == Some(last)) {
            extended = true;
            path.push(site.acquires);
            extend(p, path, out);
            path.pop();
        }
        if !extended {
            out.push(path.clone());
        }
    }
    let mut out = Vec::new();
    for site in p.sites.iter().filter(|s| s.held.is_none()) {
        let mut path = vec![site.acquires];
        extend(p, &mut path, &mut out);
    }
    out
}

/// DFS cycle search over the class graph; returns the cycle as class
/// indices in acquisition order, if any.
fn find_cycle(classes: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut adj = vec![Vec::new(); classes];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    // 0 = white, 1 = on stack, 2 = finished.
    let mut color = vec![0u8; classes];
    let mut stack = Vec::new();
    fn dfs(
        v: usize,
        adj: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color[v] = 1;
        stack.push(v);
        for &w in &adj[v] {
            if color[w] == 1 {
                let start = stack.iter().position(|&x| x == w).expect("on stack");
                return Some(stack[start..].to_vec());
            }
            if color[w] == 0 {
                if let Some(c) = dfs(w, adj, color, stack) {
                    return Some(c);
                }
            }
        }
        stack.pop();
        color[v] = 2;
        None
    }
    (0..classes).find_map(|v| {
        if color[v] == 0 {
            dfs(v, &adj, &mut color, &mut stack)
        } else {
            None
        }
    })
}

/// Kahn topological sort; the graph is known acyclic when called.
fn topo_sort(classes: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut indeg = vec![0usize; classes];
    let mut adj = vec![Vec::new(); classes];
    for &(a, b) in edges {
        adj[a].push(b);
        indeg[b] += 1;
    }
    let mut ready: Vec<usize> = (0..classes).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(classes);
    while let Some(v) = ready.pop() {
        order.push(v);
        for &w in &adj[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                ready.push(w);
            }
        }
    }
    assert_eq!(order.len(), classes, "topo_sort called on a cyclic graph");
    order
}

fn cert_digest(
    protocol: &str,
    classes: &[ClassSpec],
    edges: &[(usize, usize)],
    topo: &[usize],
) -> u64 {
    let mut text = String::new();
    text.push_str(protocol);
    for c in classes {
        text.push_str(&format!("|{}/{}/{}", c.name, c.slots, c.max_waiters));
    }
    for &(a, b) in edges {
        text.push_str(&format!("|{a}->{b}"));
    }
    for &t in topo {
        text.push_str(&format!("|t{t}"));
    }
    fnv1a64(text.as_bytes())
}

/// Runs the order pass: cycle search, then either the topological
/// certificate (cross-validated by the model checker) or a replayed
/// cycle witness.
pub fn analyze_order(p: &Protocol) -> OrderVerdict {
    let edges: Vec<(usize, usize)> = p
        .sites
        .iter()
        .filter_map(|s| s.held.map(|h| (h, s.acquires)))
        .collect();

    if let Some(cycle) = find_cycle(p.classes.len(), &edges) {
        return OrderVerdict::Cyclic(witness_for_cycle(p, &cycle));
    }

    let topo = topo_sort(p.classes.len(), &edges);
    // Cross-validate with the interleaving checker: duplicate every
    // acquisition path so two threads contend on it, capped to keep the
    // state space tractable. Entry-only protocols (no held edges) have
    // nothing to hold-and-wait on; the check is vacuous there.
    let mc_states = if edges.is_empty() {
        0
    } else {
        let mut seqs: Vec<Vec<usize>> = Vec::new();
        for path in protocol_paths(p) {
            seqs.push(path.clone());
            seqs.push(path);
            if seqs.len() >= MAX_MC_THREADS {
                break;
            }
        }
        seqs.truncate(MAX_MC_THREADS);
        let model = LockSeqModel::new("lock-order-cross-check", p.classes.len(), seqs);
        let out = check(&model, MC_STATE_BUDGET);
        assert!(
            out.verified(),
            "{}: order certificate contradicted by model checker: {out}",
            p.name
        );
        out.states
    };

    let topo_names = topo.iter().map(|&c| p.classes[c].name.clone()).collect();
    let digest = cert_digest(p.name, &p.classes, &edges, &topo);
    OrderVerdict::Acyclic(DeadlockCert {
        protocol: p.name,
        classes: p.classes.iter().map(|c| c.name.clone()).collect(),
        edges,
        topo,
        topo_names,
        mc_states,
        digest,
    })
}

/// Builds and validates the witness for a detected cycle.
fn witness_for_cycle(p: &Protocol, cycle: &[usize]) -> DeadlockWitness {
    let k = cycle.len();
    // The site realising each cycle edge, for source anchors.
    let site_for = |h: usize, a: usize| -> &SiteSpec {
        p.sites
            .iter()
            .find(|s| s.held == Some(h) && s.acquires == a)
            .expect("cycle edge must come from a site")
    };
    let site_anchors = (0..k)
        .map(|i| site_for(cycle[i], cycle[(i + 1) % k]).anchor.clone())
        .collect();

    let model = LockSeqModel::cycle_threads("deadlock-witness", p.classes.len(), cycle);
    let schedule: Vec<usize> = (0..k).collect();
    let dead = model.is_dead(&model.replay(&schedule));
    let out = check(&model, MC_STATE_BUDGET);
    let mc_deadlock = matches!(&out.violation, Some(v) if v.kind == ViolationKind::Deadlock);
    let mc_detail = match &out.violation {
        Some(v) => v.to_string(),
        None => "checker found no violation".to_string(),
    };

    DeadlockWitness {
        protocol: p.name,
        cycle: cycle.iter().map(|&c| p.classes[c].name.clone()).collect(),
        site_anchors,
        schedule,
        replays: dead && mc_deadlock,
        mc_detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{ClassSpec, SiteSpec};

    fn class(name: &str) -> ClassSpec {
        ClassSpec {
            name: name.to_string(),
            anchor: "test".to_string(),
            slots: 1,
            hold_s: 1e-6,
            max_waiters: 3,
        }
    }

    fn site(held: Option<usize>, acquires: usize) -> SiteSpec {
        SiteSpec {
            held,
            acquires,
            anchor: "test::site".to_string(),
            note: String::new(),
        }
    }

    fn two_class(sites: Vec<SiteSpec>) -> Protocol {
        Protocol {
            name: "test/two-class",
            classes: vec![class("A"), class("B")],
            sites,
            watchdog: None,
            retry: None,
        }
    }

    #[test]
    fn ascending_order_certifies_with_mc_cross_check() {
        let p = two_class(vec![site(None, 0), site(Some(0), 1)]);
        match analyze_order(&p) {
            OrderVerdict::Acyclic(cert) => {
                assert_eq!(cert.edges, vec![(0, 1)]);
                assert!(cert.mc_states > 0, "cross-check must actually run");
                assert_ne!(cert.digest, 0);
            }
            OrderVerdict::Cyclic(w) => panic!("spurious cycle: {w}"),
        }
    }

    #[test]
    fn abba_cycle_yields_replayable_witness() {
        let p = two_class(vec![
            site(None, 0),
            site(Some(0), 1),
            site(None, 1),
            site(Some(1), 0),
        ]);
        match analyze_order(&p) {
            OrderVerdict::Cyclic(w) => {
                assert_eq!(w.cycle.len(), 2);
                assert_eq!(w.schedule, vec![0, 1]);
                assert!(w.replays, "{w}");
                assert!(w.mc_detail.contains("deadlock"), "{}", w.mc_detail);
            }
            OrderVerdict::Acyclic(c) => panic!("missed ABBA cycle: {c}"),
        }
    }

    #[test]
    fn entry_only_protocol_is_vacuously_acyclic() {
        let p = two_class(vec![site(None, 0), site(None, 1)]);
        match analyze_order(&p) {
            OrderVerdict::Acyclic(cert) => {
                assert!(cert.edges.is_empty());
                assert_eq!(cert.mc_states, 0, "no held edges → vacuous check");
            }
            OrderVerdict::Cyclic(w) => panic!("spurious cycle: {w}"),
        }
    }

    #[test]
    fn three_cycle_witness_has_three_thread_schedule() {
        let p = Protocol {
            name: "test/three-cycle",
            classes: vec![class("A"), class("B"), class("C")],
            sites: vec![
                site(None, 0),
                site(Some(0), 1),
                site(Some(1), 2),
                site(Some(2), 0),
            ],
            watchdog: None,
            retry: None,
        };
        match analyze_order(&p) {
            OrderVerdict::Cyclic(w) => {
                assert_eq!(w.cycle.len(), 3);
                assert_eq!(w.schedule, vec![0, 1, 2]);
                assert!(w.replays, "{w}");
                assert_eq!(w.site_anchors.len(), 3);
            }
            OrderVerdict::Acyclic(c) => panic!("missed 3-cycle: {c}"),
        }
    }

    #[test]
    fn digest_is_sensitive_to_the_order() {
        let a = two_class(vec![site(None, 0), site(Some(0), 1)]);
        let mut b = two_class(vec![site(None, 0), site(Some(0), 1)]);
        b.classes[1].max_waiters = 7;
        let (OrderVerdict::Acyclic(ca), OrderVerdict::Acyclic(cb)) =
            (analyze_order(&a), analyze_order(&b))
        else {
            panic!("both must certify");
        };
        assert_ne!(ca.digest, cb.digest);
    }

    #[test]
    fn lock_seq_model_replay_reaches_the_dead_state() {
        let m = LockSeqModel::cycle_threads("t", 2, &[0, 1]);
        let s = m.replay(&[0, 1]);
        assert!(m.is_dead(&s));
    }
}
