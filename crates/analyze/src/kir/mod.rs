//! # kir — a typed kernel IR for the SGD update inner loops
//!
//! A tiny straight-line intermediate representation into which the
//! paper's SGD update kernel (Algorithm 1) and the two baseline inner
//! loops (LIBMF's SSE CPU loop, BIDMach's column-major GPU loop) are
//! *lifted* by hand-written lifters. Three static passes interpret the
//! IR over abstract domains:
//!
//! * [`traffic`] — memory-traffic abstract interpretation: exact DRAM
//!   bytes per update as a closed form in `k` and the storage precision,
//!   cross-checked against [`cumf_gpu_sim::SgdUpdateCost`] **and**
//!   against the bytes the DES executor actually charges;
//! * [`coalesce`] — per-warp cache-line footprint of every vector
//!   access, validated against the simulator's line-granular
//!   [`cumf_gpu_sim::lines_touched`] accounting;
//! * [`precision`] — interval + relative-error abstract domains proving
//!   (or refuting, with a concrete witness) that FP16 feature storage
//!   cannot overflow binary16 for given rating bounds and LR schedule.
//!
//! The IR is deliberately small: one sample load, vector loads/stores
//! with symbolic address patterns, casts, fused multiply-adds, and one
//! tree reduction. That is the entire data path of Eq. 5's cost model
//! (`bytes = 12 + 4k·sizeof(elem)`, `flops = 6k + Σ k/2^i`), so every
//! pass can be exact rather than approximate.

pub mod coalesce;
pub mod precision;
pub mod traffic;

/// Scalar element datatype carried by a register or buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// IEEE 754 binary32.
    F32,
    /// IEEE 754 binary16 (storage only; arithmetic is always `F32`).
    F16,
}

impl Dtype {
    /// Storage bytes per element.
    pub fn bytes(self) -> u32 {
        match self {
            Dtype::F32 => 4,
            Dtype::F16 => 2,
        }
    }

    /// Human name, matching `Element::NAME`.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F16 => "f16",
        }
    }
}

/// A DRAM-resident buffer the kernel can address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Buf {
    /// The COO sample stream `(u, v, r)`.
    Samples,
    /// The user factor matrix `P` (row `u`, length `k`).
    P,
    /// The item factor matrix `Q` (row `v`, length `k`).
    Q,
}

/// How a warp's 32 lanes map onto the `k` elements of a vector access.
///
/// The coalescing pass derives cache-line counts from this; the traffic
/// pass ignores it (DRAM bytes depend only on element count × width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Lane `l` of iteration `j` touches element `32·j + l` of a
    /// contiguous row — cuMF_SGD's layout, fully coalesced.
    CoalescedRow,
    /// Lane `l` touches element `(32·j + l) · stride_elems` — an
    /// array-of-structures / column-major layout (BIDMach's factor
    /// storage viewed per-sample), uncoalesced for `stride_elems > 1`.
    Strided {
        /// Element distance between consecutive lanes' addresses.
        stride_elems: u32,
    },
    /// Every lane reads the same scalar (the rating broadcast).
    Broadcast,
}

/// A virtual vector register of `k` lanes (f32 arithmetic width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// One IR instruction. Programs are straight-line: the per-sample inner
/// loop body, with the `k`-element loops implicit in the vector ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// Load the 12-byte COO sample `(u: u32, v: u32, r: f32)`.
    LoadSample,
    /// Load the `k`-element row of `buf` into `dst` (storage dtype).
    LoadVec {
        /// Source buffer.
        buf: Buf,
        /// Storage element type in DRAM.
        dtype: Dtype,
        /// Warp address pattern.
        access: Access,
        /// Destination register.
        dst: Reg,
    },
    /// Convert `src` between storage and arithmetic dtypes (register
    /// file only — zero DRAM traffic, zero counted flops).
    Cast {
        /// Source register.
        src: Reg,
        /// Source dtype.
        from: Dtype,
        /// Destination dtype.
        to: Dtype,
        /// Destination register.
        dst: Reg,
    },
    /// `dst[e] ← dst[e] ⊙ fma(a[e], b[e])` — one fused multiply-add per
    /// element, i.e. 2 flops × k. The three Fmas of the update kernel
    /// (dot accumulate, p-update, q-update) are exactly Eq. 5's `6k`.
    Fma {
        /// Accumulator register.
        dst: Reg,
        /// First multiplicand.
        a: Reg,
        /// Second multiplicand.
        b: Reg,
    },
    /// Tree-reduce `src` to a scalar (the warp shuffle reduction):
    /// `Σ_{i≥1} ⌊k/2^i⌋` adds — Eq. 5's reduction term.
    Reduce {
        /// Register holding the partial products.
        src: Reg,
    },
    /// Store `src` back to the `k`-element row of `buf`.
    StoreVec {
        /// Destination buffer.
        buf: Buf,
        /// Storage element type in DRAM.
        dtype: Dtype,
        /// Warp address pattern.
        access: Access,
        /// Source register.
        src: Reg,
    },
}

/// A lifted inner loop: one program = one SGD update (one rating).
#[derive(Debug, Clone)]
pub struct Program {
    /// Which kernel this was lifted from.
    pub name: &'static str,
    /// Feature vector length.
    pub k: u32,
    /// Storage precision of the factor matrices.
    pub elem: Dtype,
    /// Straight-line instruction sequence.
    pub insts: Vec<Inst>,
}

/// Lifts `cumf_core::kernel::sgd_update::<E>` — Algorithm 1's inner
/// loop as the GPU executes it. Both the GPU kernel and the portable
/// Rust kernel read each row twice (once in the dot product, once in
/// the update loop) but fetch it from memory once: the GPU reads the
/// register file the second time, and the Rust kernel reads the f32
/// buffers it widened each row into (or, for f32 rows, the lines the
/// dot product just loaded). The lift keeps the second read explicit:
/// the second `LoadVec` pair targets the *same destination registers*,
/// which the traffic interpreter recognises as register-resident
/// (0 DRAM bytes).
pub fn lift_sgd_update(k: u32, elem: Dtype) -> Program {
    let (rp, rq, acc, pn, qn) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    let coal = Access::CoalescedRow;
    let mut insts = vec![
        Inst::LoadSample,
        // Dot-product phase: p·q with per-element FMAs + tree reduce.
        Inst::LoadVec {
            buf: Buf::P,
            dtype: elem,
            access: coal,
            dst: rp,
        },
        Inst::LoadVec {
            buf: Buf::Q,
            dtype: elem,
            access: coal,
            dst: rq,
        },
    ];
    if elem == Dtype::F16 {
        insts.push(Inst::Cast {
            src: rp,
            from: Dtype::F16,
            to: Dtype::F32,
            dst: rp,
        });
        insts.push(Inst::Cast {
            src: rq,
            from: Dtype::F16,
            to: Dtype::F32,
            dst: rq,
        });
    }
    insts.extend([
        Inst::Fma {
            dst: acc,
            a: rp,
            b: rq,
        },
        Inst::Reduce { src: acc },
        // Update phase: the kernel re-reads p[e] and q[e]; same rows,
        // same registers — register-resident on hardware.
        Inst::LoadVec {
            buf: Buf::P,
            dtype: elem,
            access: coal,
            dst: rp,
        },
        Inst::LoadVec {
            buf: Buf::Q,
            dtype: elem,
            access: coal,
            dst: rq,
        },
    ]);
    if elem == Dtype::F16 {
        // Casts are register-file ops (no traffic, uncounted flops).
        insts.push(Inst::Cast {
            src: rp,
            from: Dtype::F16,
            to: Dtype::F32,
            dst: rp,
        });
        insts.push(Inst::Cast {
            src: rq,
            from: Dtype::F16,
            to: Dtype::F32,
            dst: rq,
        });
    }
    insts.extend([
        Inst::Fma {
            dst: pn,
            a: rp,
            b: rq,
        }, // p += γ(err·q − λp)
        Inst::Fma {
            dst: qn,
            a: rq,
            b: rp,
        }, // q += γ(err·p_old − λq)
    ]);
    if elem == Dtype::F16 {
        insts.push(Inst::Cast {
            src: pn,
            from: Dtype::F32,
            to: Dtype::F16,
            dst: pn,
        });
        insts.push(Inst::Cast {
            src: qn,
            from: Dtype::F32,
            to: Dtype::F16,
            dst: qn,
        });
    }
    insts.extend([
        Inst::StoreVec {
            buf: Buf::P,
            dtype: elem,
            access: coal,
            src: pn,
        },
        Inst::StoreVec {
            buf: Buf::Q,
            dtype: elem,
            access: coal,
            src: qn,
        },
    ]);
    Program {
        name: "sgd_update",
        k,
        elem,
        insts,
    }
}

/// Lifts LIBMF's SSE inner loop (§2.2 baseline). Identical data path to
/// the GPU kernel — contiguous rows, SIMD over the row — so it charges
/// the same Eq. 5 traffic; the difference is all in the time model
/// (cache hierarchy), not the per-update byte count.
pub fn lift_libmf_inner(k: u32) -> Program {
    let mut p = lift_sgd_update(k, Dtype::F32);
    p.name = "libmf_inner";
    p
}

/// Lifts BIDMach's per-sample view (§2.2 baseline). BIDMach stores
/// factor matrices column-major, so consecutive elements of one row sit
/// `stride` rows apart in memory: every lane of a warp touches a
/// different cache line. Same byte count as Eq. 5, catastrophically
/// worse line footprint — the coalescing pass must flag every vector
/// access of this program.
pub fn lift_bidmach_inner(k: u32, stride_elems: u32) -> Program {
    let mut p = lift_sgd_update(k, Dtype::F32);
    p.name = "bidmach_inner";
    for inst in &mut p.insts {
        match inst {
            Inst::LoadVec { access, .. } | Inst::StoreVec { access, .. } => {
                *access = Access::Strided { stride_elems };
            }
            _ => {}
        }
    }
    p
}

/// A type-checking error: the program is not a well-formed SGD update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError(pub String);

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kir type error: {}", self.0)
    }
}

/// Checks a lifted program: every register is defined before use and
/// carries `F32` when it reaches arithmetic; loads/stores agree with the
/// program's storage dtype; exactly one sample load; both factor rows
/// are written back. The passes require a checked program.
pub fn type_check(p: &Program) -> Result<(), TypeError> {
    use std::collections::BTreeMap;
    let err = |m: String| Err(TypeError(m));
    if p.k == 0 {
        return err("k must be positive".into());
    }
    let mut regs: BTreeMap<u8, Dtype> = BTreeMap::new();
    let mut sample_loads = 0u32;
    let mut stored: Vec<Buf> = Vec::new();
    for (i, inst) in p.insts.iter().enumerate() {
        match *inst {
            Inst::LoadSample => sample_loads += 1,
            Inst::LoadVec { dtype, dst, .. } => {
                if dtype != p.elem {
                    return err(format!(
                        "inst {i}: load dtype {:?} != program elem {:?}",
                        dtype, p.elem
                    ));
                }
                regs.insert(dst.0, dtype);
            }
            Inst::Cast { src, from, to, dst } => {
                match regs.get(&src.0) {
                    None => return err(format!("inst {i}: cast of undefined register r{}", src.0)),
                    Some(&d) if d != from => {
                        return err(format!(
                            "inst {i}: cast-from {:?} but r{} holds {:?}",
                            from, src.0, d
                        ))
                    }
                    Some(_) => {}
                }
                regs.insert(dst.0, to);
            }
            Inst::Fma { dst, a, b } => {
                for r in [a, b] {
                    match regs.get(&r.0) {
                        None => return err(format!("inst {i}: fma reads undefined register r{}", r.0)),
                        Some(Dtype::F16) => {
                            return err(format!(
                                "inst {i}: fma operand r{} is f16 — arithmetic must be f32 (missing cast)",
                                r.0
                            ))
                        }
                        Some(Dtype::F32) => {}
                    }
                }
                regs.insert(dst.0, Dtype::F32);
            }
            Inst::Reduce { src } => match regs.get(&src.0) {
                None => return err(format!("inst {i}: reduce of undefined register r{}", src.0)),
                Some(Dtype::F16) => {
                    return err(format!("inst {i}: reduce of f16 register r{}", src.0))
                }
                Some(Dtype::F32) => {}
            },
            Inst::StoreVec {
                buf, dtype, src, ..
            } => {
                if dtype != p.elem {
                    return err(format!(
                        "inst {i}: store dtype {:?} != program elem {:?}",
                        dtype, p.elem
                    ));
                }
                match regs.get(&src.0) {
                    None => {
                        return err(format!("inst {i}: store of undefined register r{}", src.0))
                    }
                    Some(&d) if d != dtype => {
                        return err(format!(
                            "inst {i}: store wants {:?} but r{} holds {:?} (missing cast)",
                            dtype, src.0, d
                        ))
                    }
                    Some(_) => {}
                }
                stored.push(buf);
            }
        }
    }
    if sample_loads != 1 {
        return err(format!("{sample_loads} sample loads (want exactly 1)"));
    }
    for buf in [Buf::P, Buf::Q] {
        if !stored.contains(&buf) {
            return err(format!("{buf:?} row is never written back"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lifts_type_check() {
        for k in [1, 16, 31, 64, 128] {
            type_check(&lift_sgd_update(k, Dtype::F32)).unwrap();
            type_check(&lift_sgd_update(k, Dtype::F16)).unwrap();
            type_check(&lift_libmf_inner(k)).unwrap();
            type_check(&lift_bidmach_inner(k, 4096)).unwrap();
        }
    }

    #[test]
    fn f16_lift_inserts_casts_both_ways() {
        let p = lift_sgd_update(32, Dtype::F16);
        let casts: Vec<_> = p
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Cast { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            casts,
            vec![
                (Dtype::F16, Dtype::F32),
                (Dtype::F16, Dtype::F32),
                (Dtype::F16, Dtype::F32),
                (Dtype::F16, Dtype::F32),
                (Dtype::F32, Dtype::F16),
                (Dtype::F32, Dtype::F16),
            ]
        );
    }

    #[test]
    fn missing_cast_is_a_type_error() {
        let mut p = lift_sgd_update(16, Dtype::F16);
        // Strip the casts: f16 registers now reach the Fma directly.
        p.insts.retain(|i| !matches!(i, Inst::Cast { .. }));
        let e = type_check(&p).unwrap_err();
        assert!(e.0.contains("f16"), "{e}");
    }

    #[test]
    fn missing_writeback_is_a_type_error() {
        let mut p = lift_sgd_update(16, Dtype::F32);
        p.insts
            .retain(|i| !matches!(i, Inst::StoreVec { buf: Buf::Q, .. }));
        let e = type_check(&p).unwrap_err();
        assert!(e.0.contains('Q'), "{e}");
    }

    #[test]
    fn bidmach_lift_is_fully_strided() {
        let p = lift_bidmach_inner(64, 1000);
        for inst in &p.insts {
            if let Inst::LoadVec { access, .. } | Inst::StoreVec { access, .. } = inst {
                assert_eq!(*access, Access::Strided { stride_elems: 1000 });
            }
        }
    }
}
