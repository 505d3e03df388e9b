//! Memory-traffic abstract interpretation over [`kir`](super) programs.
//!
//! The abstract domain is a closed-form linear expression in `k`
//! ([`LinExpr`]) plus a register-residency map: a `LoadVec` whose
//! destination row is already register-resident (loaded earlier in the
//! same update, as the kernel's second read of `p`/`q` is) charges zero
//! DRAM bytes. Interpretation is exact, not approximate — the IR has no
//! branches — so the derived bytes-per-update must agree **bit-for-bit**
//! with two independent witnesses:
//!
//! 1. the analytical cost model [`SgdUpdateCost::bytes`] (Eq. 5), and
//! 2. the bytes the DES executor *actually charges* while simulating a
//!    real epoch ([`cumf_gpu_sim::ThroughputResult::bytes_charged`]).
//!
//! [`cross_check`] runs all three and refuses to certify on any drift;
//! [`cross_check_with_model`] accepts an arbitrary (possibly broken)
//! model so the campaign can prove the checker refutes a wrong constant
//! with a concrete byte delta.

use super::{Buf, Dtype, Inst, Program};
use cumf_gpu_sim::executor::{simulate_throughput, SchedulerModel, ThroughputConfig};
use cumf_gpu_sim::{Precision, RatingAccess, SgdUpdateCost};
use std::collections::BTreeSet;

/// A linear form `konst + per_k · k` over byte counts — the closed-form
/// result of abstract interpretation, before substituting a concrete `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinExpr {
    /// Constant term, bytes (the 12-byte COO sample, or a cache line).
    pub konst: u64,
    /// Coefficient of `k`, bytes per feature element.
    pub per_k: u64,
}

impl LinExpr {
    /// Substitutes a concrete `k`.
    pub fn eval(&self, k: u32) -> u64 {
        self.konst + self.per_k * u64::from(k)
    }
}

impl std::fmt::Display for LinExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} + {}k", self.konst, self.per_k)
    }
}

/// Result of interpreting one program's memory traffic.
#[derive(Debug, Clone)]
pub struct TrafficSummary {
    /// Program name.
    pub name: &'static str,
    /// Feature dimension the program was lifted at.
    pub k: u32,
    /// DRAM bytes per update, closed form in `k`.
    pub bytes: LinExpr,
    /// Flops per update at this `k` (not linear in `k`: the tree
    /// reduction contributes `Σ ⌊k/2^i⌋`).
    pub flops: u64,
    /// Element loads the program executes (the lifted update reads each
    /// row twice: dot product + update loop) — `4k` for the SGD update.
    pub element_loads: u64,
    /// Element loads that reach DRAM after register residency — `2k`.
    pub dram_element_loads: u64,
    /// Element stores (always reach DRAM) — `2k`.
    pub element_stores: u64,
}

/// Interprets a type-checked program over the traffic domain.
///
/// `rating` selects the sample-stream pattern: `Streamed` charges the
/// raw 12 bytes, `RandomLine` a full cache line (Hogwild!'s random
/// rating access defeats the streaming prefetcher).
pub fn interpret_traffic(p: &Program, rating: RatingAccess) -> TrafficSummary {
    let elem_bytes = u64::from(p.elem.bytes());
    let k = u64::from(p.k);
    let mut resident: BTreeSet<Buf> = BTreeSet::new();
    let mut konst = 0u64;
    let mut per_k = 0u64;
    let (mut loads, mut dram_loads, mut stores) = (0u64, 0u64, 0u64);
    let mut flops = 0u64;
    for inst in &p.insts {
        match *inst {
            Inst::LoadSample => {
                konst += match rating {
                    RatingAccess::Streamed => 12,
                    RatingAccess::RandomLine { line_bytes } => u64::from(line_bytes).max(12),
                };
            }
            Inst::LoadVec { buf, .. } => {
                loads += k;
                if resident.insert(buf) {
                    // First touch this update: k elements stream from DRAM.
                    dram_loads += k;
                    per_k += elem_bytes;
                }
                // Already resident: the GPU reads the register file; the
                // portable kernel's duplicate `to_f32` costs nothing here.
            }
            Inst::Cast { .. } => {} // register file only
            Inst::Fma { .. } => flops += 2 * k,
            Inst::Reduce { .. } => {
                let mut width = k;
                while width > 1 {
                    width /= 2;
                    flops += width;
                }
            }
            Inst::StoreVec { .. } => {
                stores += k;
                per_k += elem_bytes;
            }
        }
    }
    TrafficSummary {
        name: p.name,
        k: p.k,
        bytes: LinExpr { konst, per_k },
        flops,
        element_loads: loads,
        dram_element_loads: dram_loads,
        element_stores: stores,
    }
}

/// Verdict of the three-way kernel ↔ cost-model ↔ simulator agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckVerdict {
    /// All three byte counts (and both flop counts) agree bit-for-bit.
    Certified,
    /// Two legs disagree; carries the concrete delta.
    Refuted {
        /// Which comparison failed (`"kir vs model bytes"`, …).
        leg: &'static str,
        /// The kernel-IR-derived value (ground truth).
        expected: u64,
        /// The disagreeing value.
        got: u64,
    },
}

impl CheckVerdict {
    /// Signed delta `got − expected` for a refutation, `0` otherwise.
    pub fn delta(&self) -> i64 {
        match self {
            CheckVerdict::Certified => 0,
            CheckVerdict::Refuted { expected, got, .. } => *got as i64 - *expected as i64,
        }
    }
}

/// One cost cross-check: kir-derived traffic vs an analytical model vs
/// the executor's charged bytes for a real simulated epoch.
#[derive(Debug, Clone)]
pub struct CostCrossCheck {
    /// Feature dimension.
    pub k: u32,
    /// Storage precision name.
    pub precision: &'static str,
    /// Bytes/update derived by the abstract interpreter.
    pub kir_bytes: u64,
    /// Bytes/update claimed by the model under test.
    pub model_bytes: u64,
    /// Updates the executor simulated.
    pub executor_updates: u64,
    /// Total bytes the executor charged over those updates.
    pub executor_bytes: u64,
    /// Flops/update derived by the abstract interpreter.
    pub kir_flops: u64,
    /// Flops/update claimed by the model under test.
    pub model_flops: u64,
    /// Closed form backing `kir_bytes`.
    pub closed_form: LinExpr,
    /// First failing leg, or `Certified`.
    pub verdict: CheckVerdict,
}

impl CostCrossCheck {
    /// True when every leg agreed.
    pub fn certified(&self) -> bool {
        self.verdict == CheckVerdict::Certified
    }
}

impl std::fmt::Display for CostCrossCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.verdict {
            CheckVerdict::Certified => write!(
                f,
                "k={} {}: certified — {} B/update ({}), {} flops; executor charged {} B over {} updates",
                self.k,
                self.precision,
                self.kir_bytes,
                self.closed_form,
                self.kir_flops,
                self.executor_bytes,
                self.executor_updates,
            ),
            CheckVerdict::Refuted { leg, expected, got } => write!(
                f,
                "k={} {}: REFUTED on {leg} — expected {expected}, got {got} (Δ {:+} B)",
                self.k,
                self.precision,
                *got as i64 - *expected as i64,
            ),
        }
    }
}

fn executor_witness(cost: SgdUpdateCost, updates: u64) -> (u64, u64) {
    let r = simulate_throughput(&ThroughputConfig {
        workers: 8,
        total_bandwidth: 240e9,
        cost,
        scheduler: SchedulerModel::BatchHogwild {
            batch: 256,
            per_batch_overhead_s: 1e-7,
        },
        total_updates: updates,
    });
    (r.updates, r.bytes_charged)
}

/// Cross-checks the SGD update kernel at `(k, elem)` against an
/// arbitrary `(model_bytes, model_flops)` claim and against the DES
/// executor charging `exec_cost` per update. The real campaign passes
/// [`SgdUpdateCost`] for both; the broken-twin campaign passes a model
/// with a wrong constant and must see a refutation.
pub fn cross_check_with_model(
    k: u32,
    elem: Dtype,
    rating: RatingAccess,
    model_bytes: u64,
    model_flops: u64,
    exec_cost: SgdUpdateCost,
) -> CostCrossCheck {
    let program = super::lift_sgd_update(k, elem);
    super::type_check(&program).expect("lifted program must type-check");
    let t = interpret_traffic(&program, rating);
    let kir_bytes = t.bytes.eval(k);
    let (executor_updates, executor_bytes) = executor_witness(exec_cost, 10_000);
    let verdict = if kir_bytes != model_bytes {
        CheckVerdict::Refuted {
            leg: "kir vs model bytes",
            expected: kir_bytes,
            got: model_bytes,
        }
    } else if t.flops != model_flops {
        CheckVerdict::Refuted {
            leg: "kir vs model flops",
            expected: t.flops,
            got: model_flops,
        }
    } else if executor_bytes != executor_updates * kir_bytes {
        CheckVerdict::Refuted {
            leg: "kir vs executor bytes",
            expected: executor_updates * kir_bytes,
            got: executor_bytes,
        }
    } else {
        CheckVerdict::Certified
    };
    CostCrossCheck {
        k,
        precision: elem.name(),
        kir_bytes,
        model_bytes,
        executor_updates,
        executor_bytes,
        kir_flops: t.flops,
        model_flops,
        closed_form: t.bytes,
        verdict,
    }
}

/// The real three-way check: kernel IR vs [`SgdUpdateCost`] vs the DES
/// executor, all at `(k, elem, rating)`. Drift anywhere is a refutation.
pub fn cross_check(k: u32, elem: Dtype, rating: RatingAccess) -> CostCrossCheck {
    let precision = match elem {
        Dtype::F32 => Precision::F32,
        Dtype::F16 => Precision::F16,
    };
    let cost = SgdUpdateCost {
        k,
        precision,
        rating_access: rating,
    };
    cross_check_with_model(k, elem, rating, cost.bytes(), cost.flops(), cost)
}

/// The deliberately broken twin: a cost model that forgot the `q`-row
/// write-back (`3k` elements instead of `4k`). [`cross_check_with_model`]
/// must refute it with a concrete `Δ = −k·sizeof(elem)` byte delta.
pub fn broken_twin_bytes(k: u32, elem: Dtype) -> u64 {
    12 + 3 * u64::from(k) * u64::from(elem.bytes())
}

#[cfg(test)]
mod tests {
    use super::super::{lift_bidmach_inner, lift_libmf_inner, lift_sgd_update};
    use super::*;

    #[test]
    fn closed_form_matches_eq5_for_both_precisions() {
        for k in [8, 16, 31, 64, 128] {
            let t32 = interpret_traffic(&lift_sgd_update(k, Dtype::F32), RatingAccess::Streamed);
            assert_eq!(
                t32.bytes,
                LinExpr {
                    konst: 12,
                    per_k: 16
                }
            );
            assert_eq!(t32.bytes.eval(k), SgdUpdateCost::cpu_f32(k).bytes());
            let t16 = interpret_traffic(&lift_sgd_update(k, Dtype::F16), RatingAccess::Streamed);
            assert_eq!(
                t16.bytes,
                LinExpr {
                    konst: 12,
                    per_k: 8
                }
            );
            // `cumf(k)` is the paper's half-precision default config.
            assert_eq!(t16.bytes.eval(k), SgdUpdateCost::cumf(k).bytes());
            // Register residency: 4k source loads, 2k DRAM loads, 2k stores.
            let k64 = u64::from(k);
            assert_eq!(t32.element_loads, 4 * k64);
            assert_eq!(t32.dram_element_loads, 2 * k64);
            assert_eq!(t32.element_stores, 2 * k64);
            assert_eq!(t32.flops, SgdUpdateCost::cpu_f32(k).flops());
        }
    }

    #[test]
    fn baseline_lifts_charge_the_same_bytes() {
        // LIBMF and BIDMach move the same bytes per update — the paper's
        // §2.2 point is that layout changes *lines*, not bytes.
        let t_libmf = interpret_traffic(&lift_libmf_inner(64), RatingAccess::Streamed);
        let t_bidmach = interpret_traffic(&lift_bidmach_inner(64, 4096), RatingAccess::Streamed);
        assert_eq!(t_libmf.bytes, t_bidmach.bytes);
        assert_eq!(t_libmf.bytes.eval(64), SgdUpdateCost::cpu_f32(64).bytes());
    }

    #[test]
    fn random_line_rating_charges_a_full_line() {
        let t = interpret_traffic(
            &lift_sgd_update(16, Dtype::F32),
            RatingAccess::RandomLine { line_bytes: 128 },
        );
        assert_eq!(
            t.bytes,
            LinExpr {
                konst: 128,
                per_k: 16
            }
        );
    }

    #[test]
    fn three_way_check_certifies_the_real_model() {
        for k in [16, 31, 64, 128] {
            for elem in [Dtype::F32, Dtype::F16] {
                let c = cross_check(k, elem, RatingAccess::Streamed);
                assert!(c.certified(), "{c}");
                assert_eq!(c.executor_bytes, c.executor_updates * c.kir_bytes);
            }
        }
    }

    #[test]
    fn broken_twin_is_refuted_with_concrete_delta() {
        let k = 64;
        let cost = SgdUpdateCost::cpu_f32(k);
        let c = cross_check_with_model(
            k,
            Dtype::F32,
            RatingAccess::Streamed,
            broken_twin_bytes(k, Dtype::F32),
            cost.flops(),
            cost,
        );
        assert!(!c.certified());
        // The twin under-counts by exactly one k-row of f32: −256 B.
        assert_eq!(c.verdict.delta(), -(u64::from(k) as i64 * 4));
        assert!(c.to_string().contains("REFUTED"), "{c}");
    }

    #[test]
    fn executor_drift_is_refuted() {
        // Charge the executor a *different* cost than the model claims:
        // the third leg must catch it even when legs one and two agree.
        let k = 16;
        let cost = SgdUpdateCost::cpu_f32(k);
        let c = cross_check_with_model(
            k,
            Dtype::F32,
            RatingAccess::Streamed,
            cost.bytes(),
            cost.flops(),
            SgdUpdateCost::cpu_f32(k + 1),
        );
        assert!(matches!(
            c.verdict,
            CheckVerdict::Refuted {
                leg: "kir vs executor bytes",
                ..
            }
        ));
    }
}
