//! Static deadlock & liveness certifier for every blocking protocol the
//! workspace ships.
//!
//! The engine layers hold locks in three places: the factor matrices in
//! `cumf-core` (the stripes of `striped_locked_epoch` and the two-row
//! update path, and the P/Q blocks of the block-ticket executor), the
//! `TrainSupervisor` watchdog around faulted PCIe
//! transfers, and the DES resource configurations (`ServerId`/`LinkId`/
//! `LockId` with their `SmallDeque` waiter lists) that the GPU machine
//! model and the bench pipeline instantiate. Each of those protocols is
//! modelled here *statically* — no instrumentation, no execution of the
//! real code — as a tiny acquisition-order IR ([`ClassSpec`] lock
//! classes + [`SiteSpec`] held→acquires sites), mirroring how
//! [`crate::models`] encodes the stripe protocols for the interleaving
//! checker.
//!
//! Two passes run over every protocol:
//!
//! * **Order** ([`graph`]) — builds the global lock-order graph and
//!   either proves it acyclic (a topological certificate, digested with
//!   FNV-1a like `ConflictCert`/`CostCert`, and cross-validated by
//!   exhaustively model-checking the acquisition paths with the PR 3
//!   checker) or emits a [`graph::DeadlockWitness`]: the concrete cycle
//!   with source-anchored sites and a minimal schedule that replays to a
//!   dead state through [`crate::mc::check`].
//! * **Liveness** ([`liveness`]) — under the documented FIFO contract of
//!   `cumf_des::SmallDeque` (a waiter's queue position strictly
//!   decreases on every grant), bounds the grant delay of every class
//!   and the longest wait chain from any entry site, then checks that
//!   watchdog timeouts *strictly* dominate that chain. A timeout at or
//!   below the certified chain is a [`liveness::StarvationWitness`]: the
//!   watchdog can fire on a healthy queue.
//!
//! The honest protocols ([`protocols::shipped_protocols`]) must all
//! certify; the refutation campaign ([`protocols::broken_twins`]) seeds
//! ABBA stripe acquisition, a cyclic server→link→server DES
//! configuration, a descending two-row twin, and a watchdog shorter than
//! its certified wait chain — each must be refuted with a concrete
//! witness, because an analyzer that cannot refute the twins proves
//! nothing about the protocols.

pub mod graph;
pub mod liveness;
pub mod protocols;

pub use graph::{DeadlockCert, DeadlockWitness, LockSeqModel, OrderVerdict};
pub use liveness::{LivenessCert, LivenessVerdict, StarvationWitness};

use crate::SectionResult;

/// One lock class: a set of interchangeable resources acquired under a
/// single position in the global order (a stripe family, a DES server,
/// a link, a keyed-lock array).
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Class name, unique within the protocol (e.g. `"P.stripe"`,
    /// `"server:scheduler"`).
    pub name: String,
    /// Source anchor of the resource's definition or registration.
    pub anchor: String,
    /// Concurrent grants the class admits: mutex/stripe = 1, FCFS
    /// server = capacity, keyed locks = key count, `0` for
    /// processor-sharing links (which never block a requester).
    pub slots: usize,
    /// Certified per-grant hold time in seconds (the critical-section
    /// service time the liveness bound is computed from).
    pub hold_s: f64,
    /// Worst-case simultaneous waiters the shipped configuration can
    /// produce (bounded by the thread/process count).
    pub max_waiters: usize,
}

/// One acquisition site: "while holding `held` (or nothing), the
/// protocol acquires `acquires`". Sites are the edges of the lock-order
/// graph; `held == None` marks a protocol entry point.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Class index held at this site, or `None` for an entry site.
    pub held: Option<usize>,
    /// Class index acquired at this site.
    pub acquires: usize,
    /// Source anchor (`path::function`) of the acquisition.
    pub anchor: String,
    /// Why the site exists / what the code is doing there.
    pub note: String,
}

/// A watchdog guarding the protocol: it aborts a wait after
/// `timeout_s`. Liveness requires the timeout to strictly dominate the
/// longest certified wait chain, else the watchdog fires on healthy
/// contention.
#[derive(Debug, Clone)]
pub struct WatchdogSpec {
    /// Abort threshold in seconds.
    pub timeout_s: f64,
    /// Source anchor of the watchdog.
    pub anchor: String,
}

/// Retry/backoff envelope around the protocol (the supervisor's
/// rollback path): recorded in the liveness certificate so the total
/// bounded-retry budget is part of the certified story.
#[derive(Debug, Clone)]
pub struct RetrySpec {
    /// Maximum attempts before giving up.
    pub max_attempts: u32,
    /// Sum of all backoff delays across those attempts, seconds.
    pub total_backoff_s: f64,
}

/// A complete static model of one blocking protocol.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Protocol name (`striped-epoch`, `des/wavefront`, `twin/...`).
    pub name: &'static str,
    /// Lock classes, indexed by [`SiteSpec::held`]/[`SiteSpec::acquires`].
    pub classes: Vec<ClassSpec>,
    /// Acquisition sites (lock-order graph edges + entry points).
    pub sites: Vec<SiteSpec>,
    /// Watchdog guarding waits, if the protocol has one.
    pub watchdog: Option<WatchdogSpec>,
    /// Retry envelope, if the protocol has one.
    pub retry: Option<RetrySpec>,
}

/// What the two passes concluded about one protocol.
#[derive(Debug, Clone)]
pub enum ProtocolOutcome {
    /// Order proven acyclic *and* every waiter's grant bounded with the
    /// watchdog (if any) strictly dominating the wait chain.
    Certified {
        /// The acyclicity certificate.
        order: DeadlockCert,
        /// The bounded-wait certificate.
        live: LivenessCert,
    },
    /// The lock-order graph has a cycle; the witness carries the cycle,
    /// its source-anchored sites, and a replayable minimal schedule.
    Deadlocked(DeadlockWitness),
    /// Order is fine but a watchdog timeout does not dominate the
    /// certified wait chain.
    Starved {
        /// The (valid) acyclicity certificate.
        order: DeadlockCert,
        /// The starvation counterexample.
        witness: StarvationWitness,
    },
}

impl ProtocolOutcome {
    /// True when the protocol is fully certified.
    pub fn certified(&self) -> bool {
        matches!(self, ProtocolOutcome::Certified { .. })
    }
}

/// Runs the order pass, then (only on an acyclic order) the liveness
/// pass.
pub fn analyze_protocol(p: &Protocol) -> ProtocolOutcome {
    match graph::analyze_order(p) {
        OrderVerdict::Cyclic(w) => ProtocolOutcome::Deadlocked(w),
        OrderVerdict::Acyclic(order) => match liveness::analyze_liveness(p, &order) {
            LivenessVerdict::Live(live) => ProtocolOutcome::Certified { order, live },
            LivenessVerdict::Starved(witness) => ProtocolOutcome::Starved { order, witness },
        },
    }
}

/// Runs the full deadlock/liveness campaign as an analyzer section:
/// every shipped protocol must certify, every broken twin must be
/// refuted with a concrete, replayable witness.
pub fn run_section() -> SectionResult {
    let mut lines = Vec::new();
    let mut pass = true;
    let mut certified = 0usize;
    let mut refuted = 0usize;

    for p in protocols::shipped_protocols() {
        match analyze_protocol(&p) {
            ProtocolOutcome::Certified { order, live } => {
                certified += 1;
                lines.push(format!("[ok] certified: {order}"));
                lines.push(format!("[ok] live: {live}"));
            }
            ProtocolOutcome::Deadlocked(w) => {
                pass = false;
                lines.push(format!("[FAIL] shipped protocol deadlocks: {w}"));
            }
            ProtocolOutcome::Starved { witness, .. } => {
                pass = false;
                lines.push(format!("[FAIL] shipped protocol starves: {witness}"));
            }
        }
    }

    for p in protocols::broken_twins() {
        match analyze_protocol(&p) {
            ProtocolOutcome::Certified { .. } => {
                pass = false;
                lines.push(format!(
                    "[FAIL] broken twin {} was certified — the analyzer refutes nothing",
                    p.name
                ));
            }
            ProtocolOutcome::Deadlocked(w) => {
                let ok = w.replays;
                pass &= ok;
                refuted += usize::from(ok);
                lines.push(format!("[{}] refuted: {w}", if ok { "ok" } else { "FAIL" }));
            }
            ProtocolOutcome::Starved { witness, .. } => {
                let ok = witness.timeout_s <= witness.grant_by_s;
                pass &= ok;
                refuted += usize::from(ok);
                lines.push(format!(
                    "[{}] refuted: {witness}",
                    if ok { "ok" } else { "FAIL" }
                ));
            }
        }
    }

    lines.push(format!(
        "{certified} shipped protocols certified, {refuted} broken twins refuted"
    ));

    SectionResult {
        name: "deadlock",
        pass,
        ran: true,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_passes_end_to_end() {
        let s = run_section();
        assert!(s.ran);
        assert!(s.pass, "{:#?}", s.lines);
        assert!(s.lines.iter().any(|l| l.contains("certified")));
        assert!(s.lines.iter().any(|l| l.contains("refuted")));
    }

    #[test]
    fn every_shipped_protocol_is_certified() {
        for p in protocols::shipped_protocols() {
            let out = analyze_protocol(&p);
            assert!(out.certified(), "{} not certified: {out:?}", p.name);
        }
    }

    #[test]
    fn every_broken_twin_is_refuted() {
        let twins = protocols::broken_twins();
        assert!(twins.len() >= 3, "refutation campaign needs ≥3 twins");
        for p in twins {
            let out = analyze_protocol(&p);
            match out {
                ProtocolOutcome::Certified { .. } => {
                    panic!("broken twin {} must not certify", p.name)
                }
                ProtocolOutcome::Deadlocked(w) => {
                    assert!(w.replays, "{}: witness must replay in the checker", p.name);
                    assert!(w.cycle.len() >= 2, "{}: cycle too short", p.name);
                }
                ProtocolOutcome::Starved { witness, .. } => {
                    assert!(
                        witness.timeout_s <= witness.grant_by_s,
                        "{}: starvation witness must show timeout ≤ grant bound",
                        p.name
                    );
                }
            }
        }
    }
}
