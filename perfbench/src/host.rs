//! The host label every result carries, and the host-level measurements
//! (`host.*` metrics and `peak_rss_mb`).

use std::time::Instant;

/// What the benchmark knows about the machine it ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Threads the process may use (`available_parallelism`).
    pub nproc: usize,
    /// Size of the highest-level data or unified cache, from `/sys`
    /// (0 when the kernel does not expose it).
    pub llc_bytes: u64,
    /// F16C detected at run time.
    pub f16c: bool,
    /// AVX2 detected at run time.
    pub avx2: bool,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// Probes the running machine.
    pub fn probe() -> Self {
        #[cfg(target_arch = "x86_64")]
        let (f16c, avx2) = (
            std::arch::is_x86_feature_detected!("f16c"),
            std::arch::is_x86_feature_detected!("avx2"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (f16c, avx2) = (false, false);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            llc_bytes: llc_bytes(),
            f16c,
            avx2,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }

    /// One-line label; `copy_gbps` is measured separately at the end of
    /// the run so its buffers do not count in `peak_rss_mb`.
    pub fn label(&self, copy_gbps: f64) -> String {
        format!(
            "host: nproc={} llc_bytes={} f16c={} avx2={} copy_gbps={copy_gbps:.2} rustc=\"{}\"",
            self.nproc, self.llc_bytes, self.f16c, self.avx2, self.rustc
        )
    }
}

/// Parses a `/sys` cache size such as `107520K`.
pub fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1u64 << 10),
        'M' => (&t[..t.len() - 1], 1 << 20),
        'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Size of cpu0's highest-level data or unified cache, or 0.
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().unwrap_or(0);
        if let Some(bytes) = parse_cache_size(&size) {
            if level > best.0 {
                best = (level, bytes);
            }
        }
    }
    best.1
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Memory-to-memory copy bandwidth over two arrays of `bytes` each, in
/// GB/s counting bytes read plus bytes written. Median of three timed
/// copies after one that faults the pages in.
pub fn copy_gbps(bytes: usize) -> f64 {
    let words = (bytes / 8).max(1);
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    dst.copy_from_slice(&src);
    let mut secs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (2 * words * 8) as f64 / secs[1] / 1e9
}

/// The array size `copy_gbps` uses: four times the last-level cache (a
/// 64 MiB floor when `/sys` has no cache sizes).
pub fn copy_bytes(llc_bytes: u64) -> usize {
    (4 * llc_bytes).max(64 << 20) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("107520K\n"), Some(107520 << 10));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
