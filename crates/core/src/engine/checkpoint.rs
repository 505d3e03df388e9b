//! The model file: the one on-disk format for a model, trained or in
//! progress (Algorithm 1's `model_save(P, Q)`, and the resume point for
//! §9's incremental training).
//!
//! A file holds everything the pipeline needs to continue a run as if it
//! had never stopped: the model (factors + biases), the convergence
//! trace so far, accumulated update/time counters, the next epoch index,
//! and the learning-rate evaluator's adaptive state. Because every update
//! stream reseeds deterministically per `(seed, epoch)` and Eq. 9's decay
//! is stateless in the epoch index, a resumed run is bit-identical to an
//! uninterrupted one. `cumf train --save` writes it; `evaluate`,
//! `predict`, `serve --model` and `train --resume` read it, taking the
//! element width from the header ([`load_model_file`]).
//!
//! Binary layout (little-endian): magic `CMFK`, version, resume counters,
//! optional LR state, the trace points, optional bias terms, then the
//! element width (2 = f16, 4 = f32), m, n, k and the factor matrices P
//! (m×k) and Q (n×k) as row-major raw elements. Version 2 appends a
//! checksum footer — magic `CSUM`, payload length, FNV-1a digest of every
//! preceding byte — so loading a truncated or bit-flipped file fails
//! loudly (naming the offending offset) instead of loading garbage.
//! Version-1 files (no footer) still load. FNV-1a catches accidents, not
//! forgeries, so the loader also checks what it parses: the bias vectors
//! must have `m` and `n` entries, and μ, every bias and every factor
//! must be finite. The writer refuses the same models, so it never
//! replaces a file with one the loader would reject.

use std::fs::File;
use std::io::{Cursor, Read, Write};
use std::path::Path;

use crate::feature::{Element, FactorMatrix};
use crate::fnv::fnv1a64;
use crate::half::F16;
use crate::lrate::LrState;
use crate::metrics::{Trace, TracePoint};

use super::model::{BiasTerms, EngineModel};

const MAGIC: &[u8; 4] = b"CMFK";
const VERSION: u32 = 2;
/// Magic of the version-2 checksum footer.
const FOOTER_MAGIC: &[u8; 4] = b"CSUM";
/// Footer bytes: magic + payload length (u64) + FNV-1a digest (u64).
const FOOTER_LEN: usize = 4 + 8 + 8;

/// Errors from reading or writing a model file.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Structural problem with the file.
    Format(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "io error: {e}"),
            ModelIoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Loop state needed to continue a run where it left off.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// First epoch (0-based) the resumed run should execute.
    pub next_epoch: u32,
    /// Updates accumulated by the checkpointed epochs.
    pub updates: u64,
    /// Time-domain seconds accumulated by the checkpointed epochs.
    pub sim_seconds: f64,
    /// Convergence trace of the checkpointed epochs.
    pub trace: Trace,
    /// Learning-rate evaluator state (adaptive schedules).
    pub lr: Option<LrState>,
}

fn write_u32<W: Write>(w: &mut W, x: u32) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, x: u64) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_f32<W: Write>(w: &mut W, x: f32) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_f64<W: Write>(w: &mut W, x: f64) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32<R: Read>(r: &mut R) -> std::io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> std::io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_u8<R: Read>(r: &mut R) -> std::io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn write_f32_vec<W: Write>(w: &mut W, v: &[f32]) -> std::io::Result<()> {
    write_u32(w, v.len() as u32)?;
    for &x in v {
        write_f32(w, x)?;
    }
    Ok(())
}

fn read_f32_vec<R: Read>(r: &mut R) -> std::io::Result<Vec<f32>> {
    let len = read_u32(r)? as usize;
    let mut v = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        v.push(read_f32(r)?);
    }
    Ok(v)
}

fn write_matrix<E: Element, W: Write>(w: &mut W, m: &FactorMatrix<E>) -> std::io::Result<()> {
    for e in m.as_slice() {
        let x = e.to_f32();
        match E::BYTES {
            2 => w.write_all(&F16::from_f32(x).to_bits().to_le_bytes())?,
            _ => w.write_all(&x.to_le_bytes())?,
        }
    }
    Ok(())
}

/// Reads a `rows`×`k` matrix of `E`, rejecting non-finite values in
/// either width.
fn read_matrix<E: Element, R: Read>(
    r: &mut R,
    rows: u32,
    k: u32,
) -> Result<FactorMatrix<E>, ModelIoError> {
    let count = rows as usize * k as usize;
    let mut vals = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let x = match E::BYTES {
            2 => {
                let mut buf = [0u8; 2];
                r.read_exact(&mut buf)?;
                F16::from_bits(u16::from_le_bytes(buf)).to_f32()
            }
            _ => read_f32(r)?,
        };
        if !x.is_finite() {
            return Err(ModelIoError::Format("non-finite factor value".into()));
        }
        vals.push(x);
    }
    Ok(FactorMatrix::from_f32_slice(rows, k, &vals))
}

/// Serialises `model` + `state` into the version-2 layout, checksum
/// footer included. Performs no validation (see [`save_checkpoint`]).
fn encode<E: Element>(model: &EngineModel<E>, state: &ResumeState) -> Vec<u8> {
    let mut w: Vec<u8> = Vec::new();
    write_payload(&mut w, model, state).expect("writing to a Vec cannot fail");
    // Checksum footer over every payload byte.
    let digest = fnv1a64(&w);
    let payload_len = w.len() as u64;
    w.extend_from_slice(FOOTER_MAGIC);
    w.extend_from_slice(&payload_len.to_le_bytes());
    w.extend_from_slice(&digest.to_le_bytes());
    w
}

fn write_payload<E: Element>(
    w: &mut Vec<u8>,
    model: &EngineModel<E>,
    state: &ResumeState,
) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, state.next_epoch)?;
    write_u64(w, state.updates)?;
    write_f64(w, state.sim_seconds)?;
    match state.lr {
        None => w.write_all(&[0u8])?,
        Some(lr) => {
            w.write_all(&[1u8])?;
            write_f32(w, lr.current)?;
            match lr.last_loss {
                None => w.write_all(&[0u8])?,
                Some(loss) => {
                    w.write_all(&[1u8])?;
                    write_f64(w, loss)?;
                }
            }
        }
    }
    write_u32(w, state.trace.points.len() as u32)?;
    for pt in &state.trace.points {
        write_u32(w, pt.epoch)?;
        write_u64(w, pt.updates)?;
        write_f64(w, pt.rmse)?;
        write_f64(w, pt.seconds)?;
    }
    match &model.bias {
        None => w.write_all(&[0u8])?,
        Some(b) => {
            w.write_all(&[1u8])?;
            write_f32(w, b.mu)?;
            write_f32_vec(w, &b.user)?;
            write_f32_vec(w, &b.item)?;
        }
    }
    write_u32(w, E::BYTES as u32)?;
    write_u32(w, model.p.rows())?;
    write_u32(w, model.q.rows())?;
    write_u32(w, model.p.k())?;
    write_matrix(w, &model.p)?;
    write_matrix(w, &model.q)
}

/// Writes a checkpoint of `model` + `state` to `path` (atomically enough
/// for a single writer: written to a temp sibling, then renamed). A model
/// the loader would refuse — bias vectors that do not match the factors,
/// or a non-finite factor or bias — is refused here instead, before the
/// file at `path` is touched, so a bad save never replaces a good file.
pub fn save_checkpoint<E: Element>(
    path: impl AsRef<Path>,
    model: &EngineModel<E>,
    state: &ResumeState,
) -> Result<(), ModelIoError> {
    if let Some(b) = &model.bias {
        check_bias_shape(b, model.p.rows(), model.q.rows())?;
    }
    let bad = model.non_finite_count();
    if bad > 0 {
        return Err(ModelIoError::Format(format!(
            "refusing to save a model with {bad} non-finite factor or bias values"
        )));
    }
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&encode(model, state))?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn check_bias_shape(b: &BiasTerms, m: u32, n: u32) -> Result<(), ModelIoError> {
    if b.user.len() != m as usize || b.item.len() != n as usize {
        return Err(ModelIoError::Format(format!(
            "bias vectors hold {} user and {} item terms, but the model is {m}x{n}",
            b.user.len(),
            b.item.len()
        )));
    }
    Ok(())
}

/// Splits a version-2 checkpoint into its payload, verifying the checksum
/// footer. Errors name the offending offset so a truncated or bit-flipped
/// file fails loudly instead of loading garbage.
fn verify_footer(bytes: &[u8]) -> Result<&[u8], ModelIoError> {
    if bytes.len() < FOOTER_LEN {
        return Err(ModelIoError::Format(format!(
            "checkpoint truncated at offset {}: too short to hold the \
             {FOOTER_LEN}-byte checksum footer",
            bytes.len()
        )));
    }
    let footer_at = bytes.len() - FOOTER_LEN;
    let (payload, footer) = bytes.split_at(footer_at);
    if &footer[..4] != FOOTER_MAGIC {
        return Err(ModelIoError::Format(format!(
            "no checksum footer at offset {footer_at}: checkpoint truncated \
             or corrupted (expected CSUM magic)"
        )));
    }
    let stored_len = u64::from_le_bytes(footer[4..12].try_into().expect("8 bytes"));
    if stored_len != payload.len() as u64 {
        return Err(ModelIoError::Format(format!(
            "checkpoint truncated: payload is {} bytes but the footer at \
             offset {footer_at} records {stored_len}",
            payload.len()
        )));
    }
    let stored_digest = u64::from_le_bytes(footer[12..20].try_into().expect("8 bytes"));
    let digest = fnv1a64(payload);
    if digest != stored_digest {
        return Err(ModelIoError::Format(format!(
            "checkpoint checksum mismatch over bytes 0..{footer_at}: \
             computed {digest:#018x}, footer records {stored_digest:#018x} \
             (bit flip on disk or in transfer)"
        )));
    }
    Ok(payload)
}

/// Everything a model file records before its factor payload.
struct Header {
    state: ResumeState,
    bias: Option<BiasTerms>,
    elem_bytes: usize,
    m: u32,
    n: u32,
    k: u32,
}

/// Checks magic, version and footer, then parses and validates the
/// header; the returned cursor sits at the start of P.
fn read_header(bytes: &[u8]) -> Result<(Header, Cursor<&[u8]>), ModelIoError> {
    if bytes.len() < 8 {
        return Err(ModelIoError::Format(format!(
            "checkpoint truncated at offset {}: no room for magic + version",
            bytes.len()
        )));
    }
    if &bytes[..4] != MAGIC {
        return Err(ModelIoError::Format(format!(
            "bad magic {:?}: not a cuMF model file (expected CMFK)",
            String::from_utf8_lossy(&bytes[..4])
        )));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload: &[u8] = match version {
        1 => bytes,
        2 => verify_footer(bytes)?,
        other => {
            return Err(ModelIoError::Format(format!(
                "unsupported checkpoint version {other}"
            )));
        }
    };
    let mut r = Cursor::new(payload);
    r.set_position(8); // past magic + version
    let next_epoch = read_u32(&mut r)?;
    let updates = read_u64(&mut r)?;
    let sim_seconds = read_f64(&mut r)?;
    let lr = match read_u8(&mut r)? {
        0 => None,
        _ => {
            let current = read_f32(&mut r)?;
            let last_loss = match read_u8(&mut r)? {
                0 => None,
                _ => Some(read_f64(&mut r)?),
            };
            Some(LrState { current, last_loss })
        }
    };
    let n_points = read_u32(&mut r)?;
    let mut trace = Trace::default();
    for _ in 0..n_points {
        let epoch = read_u32(&mut r)?;
        let pt_updates = read_u64(&mut r)?;
        let rmse = read_f64(&mut r)?;
        let seconds = read_f64(&mut r)?;
        trace.push(TracePoint {
            epoch,
            updates: pt_updates,
            rmse,
            seconds,
        });
    }
    let bias = match read_u8(&mut r)? {
        0 => None,
        _ => {
            let mu = read_f32(&mut r)?;
            let user = read_f32_vec(&mut r)?;
            let item = read_f32_vec(&mut r)?;
            Some(BiasTerms { mu, user, item })
        }
    };
    let elem_bytes = read_u32(&mut r)? as usize;
    if elem_bytes != 2 && elem_bytes != 4 {
        return Err(ModelIoError::Format(format!(
            "unsupported element width {elem_bytes}"
        )));
    }
    let m = read_u32(&mut r)?;
    let n = read_u32(&mut r)?;
    let k = read_u32(&mut r)?;
    if k == 0 {
        return Err(ModelIoError::Format("k must be positive".into()));
    }
    if let Some(b) = &bias {
        check_bias_shape(b, m, n)?;
        if !b.mu.is_finite() || b.user.iter().chain(&b.item).any(|x| !x.is_finite()) {
            return Err(ModelIoError::Format("non-finite bias term".into()));
        }
    }
    let state = ResumeState {
        next_epoch,
        updates,
        sim_seconds,
        trace,
        lr,
    };
    let header = Header {
        state,
        bias,
        elem_bytes,
        m,
        n,
        k,
    };
    Ok((header, r))
}

/// Reads the factor matrices that follow `h`.
fn decode<E: Element>(
    h: Header,
    mut r: Cursor<&[u8]>,
) -> Result<(EngineModel<E>, ResumeState), ModelIoError> {
    let p = read_matrix::<E, _>(&mut r, h.m, h.k)?;
    let q = read_matrix::<E, _>(&mut r, h.n, h.k)?;
    Ok((EngineModel { p, q, bias: h.bias }, h.state))
}

/// Loads a model file written by [`save_checkpoint`] into an
/// `EngineModel<E>`; the stored element width must match `E` (readers
/// that take the width from the file use [`load_model_file`]).
/// Version-2 files are checksum-verified before any field is parsed;
/// version-1 files (pre-footer) still load.
pub fn load_checkpoint<E: Element>(
    path: impl AsRef<Path>,
) -> Result<(EngineModel<E>, ResumeState), ModelIoError> {
    let bytes = std::fs::read(path)?;
    let (h, r) = read_header(&bytes)?;
    if h.elem_bytes != E::BYTES {
        return Err(ModelIoError::Format(format!(
            "element width mismatch: checkpoint has {}-byte elements, requested {}-byte ({})",
            h.elem_bytes,
            E::BYTES,
            E::NAME
        )));
    }
    decode(h, r)
}

/// A model loaded at the element width its file records.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadedModel {
    /// A model stored with 4-byte elements.
    F32(EngineModel<f32>),
    /// A model stored with 2-byte (half-precision) elements.
    F16(EngineModel<F16>),
}

/// [`load_checkpoint`] at whichever element width the file's header
/// records: one read and one checksum pass over the file.
pub fn load_model_file(path: impl AsRef<Path>) -> Result<(LoadedModel, ResumeState), ModelIoError> {
    let bytes = std::fs::read(path)?;
    let (h, r) = read_header(&bytes)?;
    Ok(match h.elem_bytes {
        2 => {
            let (model, state) = decode::<F16>(h, r)?;
            (LoadedModel::F16(model), state)
        }
        _ => {
            let (model, state) = decode::<f32>(h, r)?;
            (LoadedModel::F32(model), state)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_rng::{ChaCha8Rng, SeedableRng};

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cumf_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_state() -> ResumeState {
        let mut trace = Trace::default();
        trace.push(TracePoint {
            epoch: 1,
            updates: 100,
            rmse: 0.9,
            seconds: 0.5,
        });
        trace.push(TracePoint {
            epoch: 2,
            updates: 200,
            rmse: 0.7,
            seconds: 1.0,
        });
        ResumeState {
            next_epoch: 2,
            updates: 200,
            sim_seconds: 1.0,
            trace,
            lr: Some(LrState {
                current: 0.05,
                last_loss: Some(0.7),
            }),
        }
    }

    #[test]
    fn round_trip_unbiased() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(6, 4, &mut rng),
            q: FactorMatrix::random_init(5, 4, &mut rng),
            bias: None,
        };
        let state = sample_state();
        let path = ckpt_path("unbiased.cmfk");
        save_checkpoint(&path, &model, &state).unwrap();
        let (m2, s2) = load_checkpoint::<f32>(&path).unwrap();
        assert_eq!(m2, model);
        assert_eq!(s2, state);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn round_trip_biased() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(3, 2, &mut rng),
            q: FactorMatrix::random_init(4, 2, &mut rng),
            bias: Some(BiasTerms {
                mu: 3.5,
                user: vec![0.1, -0.2, 0.3],
                item: vec![-0.25; 4],
            }),
        };
        let mut state = sample_state();
        state.lr = None;
        let path = ckpt_path("biased.cmfk");
        save_checkpoint(&path, &model, &state).unwrap();
        let (m2, s2) = load_checkpoint::<f32>(&path).unwrap();
        assert_eq!(m2.bias, model.bias);
        assert_eq!(m2.p, model.p);
        assert_eq!(s2.lr, None);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_model_file_magic() {
        let path = ckpt_path("not_a_ckpt.cmfk");
        std::fs::write(&path, b"CMFM\x01\x00\x00\x00").unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    fn saved_bytes(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(4, 3, &mut rng),
            q: FactorMatrix::random_init(5, 3, &mut rng),
            bias: None,
        };
        let path = ckpt_path(name);
        save_checkpoint(&path, &model, &sample_state()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn truncated_checkpoint_fails_loudly_with_offset() {
        let (path, bytes) = saved_bytes("truncated.cmfk");
        // Cut mid-payload: the footer magic is gone, so the loader must
        // report the offset where it expected CSUM.
        let cut = bytes.len() - FOOTER_LEN - 7;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated") || msg.contains("CSUM"), "{msg}");
        assert!(
            msg.contains(&format!("{}", cut - FOOTER_LEN)) || msg.contains("offset"),
            "error must name an offset: {msg}"
        );
        // Cut inside the footer: length check fires instead.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bit_flipped_checkpoint_fails_loudly_with_offset() {
        let (path, mut bytes) = saved_bytes("bitflip.cmfk");
        // Flip one bit deep in the factor data, past every header field.
        let victim = bytes.len() - FOOTER_LEN - 10;
        bytes[victim] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint::<f32>(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checksum mismatch"), "{msg}");
        let footer_at = bytes.len() - FOOTER_LEN;
        assert!(
            msg.contains(&format!("0..{footer_at}")),
            "error must name the digested byte range: {msg}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn version1_checkpoint_without_footer_still_loads() {
        let (path, bytes) = saved_bytes("v1compat.cmfk");
        // A version-1 file is exactly the version-2 payload with the
        // version field set to 1 and no footer appended.
        let mut v1 = bytes[..bytes.len() - FOOTER_LEN].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        let (model, state) = load_checkpoint::<f32>(&path).unwrap();
        assert_eq!(state, sample_state());
        assert_eq!(model.p.rows(), 4);
        assert_eq!(model.q.rows(), 5);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_wrong_element_width() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = EngineModel::<f32> {
            p: FactorMatrix::random_init(2, 2, &mut rng),
            q: FactorMatrix::random_init(2, 2, &mut rng),
            bias: None,
        };
        let path = ckpt_path("width.cmfk");
        save_checkpoint(&path, &model, &sample_state()).unwrap();
        let err = load_checkpoint::<F16>(&path).unwrap_err();
        assert!(err.to_string().contains("element width"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    /// Writes `model` unvalidated (as a corrupted or forged file would
    /// be) and returns the loader's error.
    fn load_err<E: Element>(name: &str, model: &EngineModel<E>) -> String {
        let path = ckpt_path(name);
        std::fs::write(&path, encode(model, &sample_state())).unwrap();
        let err = load_checkpoint::<E>(&path)
            .err()
            .expect("a malformed model file must not load");
        let _ = std::fs::remove_file(path);
        assert!(matches!(err, ModelIoError::Format(_)), "{err}");
        err.to_string()
    }

    #[test]
    fn f16_round_trip_reports_its_width() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let model = EngineModel::<F16> {
            p: FactorMatrix::random_init(6, 8, &mut rng),
            q: FactorMatrix::random_init(4, 8, &mut rng),
            bias: None,
        };
        let path = ckpt_path("f16.cmfk");
        save_checkpoint(&path, &model, &sample_state()).unwrap();
        let (loaded, _) = load_model_file(&path).unwrap();
        assert_eq!(loaded, LoadedModel::F16(model.clone()));
        let (m2, _) = load_checkpoint::<F16>(&path).unwrap();
        assert_eq!(m2, model);
        let _ = std::fs::remove_file(path);
    }

    /// A valid checksum does not vouch for the shape: bias vectors shorter
    /// than the factor matrices would make `rmse()` index out of bounds.
    #[test]
    fn rejects_bias_vectors_that_do_not_match_the_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut model = EngineModel::<f32> {
            p: FactorMatrix::random_init(3, 2, &mut rng),
            q: FactorMatrix::random_init(4, 2, &mut rng),
            bias: Some(BiasTerms {
                mu: 3.5,
                user: vec![0.0; 2],
                item: vec![0.0; 4],
            }),
        };
        assert!(load_err("short_user_bias.cmfk", &model).contains("bias vectors"));
        let b = model.bias.as_mut().unwrap();
        b.user = vec![0.0; 3];
        b.item = vec![0.0; 5];
        assert!(load_err("long_item_bias.cmfk", &model).contains("bias vectors"));
    }

    #[test]
    fn rejects_non_finite_bias_terms() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut model = EngineModel::<f32> {
            p: FactorMatrix::random_init(2, 2, &mut rng),
            q: FactorMatrix::random_init(2, 2, &mut rng),
            bias: Some(BiasTerms {
                mu: f32::NAN,
                user: vec![0.0; 2],
                item: vec![0.0; 2],
            }),
        };
        assert!(load_err("nan_mu.cmfk", &model).contains("non-finite bias"));
        let b = model.bias.as_mut().unwrap();
        b.mu = 3.0;
        b.item[1] = f32::INFINITY;
        assert!(load_err("inf_item_bias.cmfk", &model).contains("non-finite bias"));
    }

    #[test]
    fn rejects_non_finite_factors_in_either_width() {
        let f32_model = EngineModel::<f32> {
            p: FactorMatrix::from_f32_slice(1, 2, &[0.5, f32::NAN]),
            q: FactorMatrix::from_f32_slice(1, 2, &[0.5, 0.5]),
            bias: None,
        };
        assert!(load_err("nan_f32.cmfk", &f32_model).contains("non-finite factor"));
        // 0x7E00 is the canonical binary16 quiet NaN.
        let nan16 = F16::from_bits(0x7E00).to_f32();
        let f16_model = EngineModel::<F16> {
            p: FactorMatrix::from_f32_slice(1, 2, &[0.5, 0.5]),
            q: FactorMatrix::from_f32_slice(1, 2, &[nan16, 0.5]),
            bias: None,
        };
        assert!(load_err("nan_f16.cmfk", &f16_model).contains("non-finite factor"));
    }

    /// The writer refuses what the loader would refuse, and leaves the
    /// file already at `path` untouched.
    #[test]
    fn save_refuses_unloadable_models_and_keeps_the_old_file() {
        let (path, good) = saved_bytes("keep_good.cmfk");
        let mut model = EngineModel::<f32> {
            p: FactorMatrix::from_f32_slice(1, 2, &[0.5, f32::INFINITY]),
            q: FactorMatrix::from_f32_slice(1, 2, &[0.5, 0.5]),
            bias: None,
        };
        let err = save_checkpoint(&path, &model, &sample_state()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        model.p = FactorMatrix::from_f32_slice(1, 2, &[0.5, 0.5]);
        model.bias = Some(BiasTerms {
            mu: 3.0,
            user: vec![],
            item: vec![0.0],
        });
        let err = save_checkpoint(&path, &model, &sample_state()).unwrap_err();
        assert!(err.to_string().contains("bias vectors"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), good);
        let _ = std::fs::remove_file(path);
    }
}
