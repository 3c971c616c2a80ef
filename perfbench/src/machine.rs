//! What machine and kernels a result was measured on, and the ceilings
//! the per-layer rates are compared against.

use std::hint::black_box;
use std::time::Instant;

/// ISA flags that decide which kernels dispatch (or could).
const ISA_FLAGS: [&str; 8] = [
    "avx2",
    "avx512f",
    "avx512bw",
    "avx512_vnni",
    "avx_vnni",
    "amx_tile",
    "amx_int8",
    "amx_bf16",
];

/// The machine fingerprint: two results are comparable only if these
/// agree field for field.
pub struct Fingerprint {
    pub fields: Vec<(&'static str, String)>,
}

impl Fingerprint {
    pub fn detect() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map_or(String::from("unknown"), |(_, v)| v.trim().to_string())
        };
        let flags = field("flags");
        let flags: Vec<&str> = flags.split_whitespace().collect();
        let isa: Vec<&str> = ISA_FLAGS
            .iter()
            .copied()
            .filter(|f| flags.contains(f))
            .collect();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Fingerprint {
            fields: vec![
                ("cpu", field("model name")),
                ("nproc", nproc.to_string()),
                ("pool_workers", rayon::current_num_threads().to_string()),
                ("isa", isa.join(",")),
                ("microkernel", gemm_engine::microkernel_name().into()),
                ("mod_kernel", gemm_engine::mod_kernel_name().into()),
                ("convert_kernel", ozaki2::convert_kernel_name().into()),
                ("trunc_kernel", ozaki2::trunc_kernel_name().into()),
                ("fold_kernel", ozaki2::fold_kernel_name().into()),
            ],
        }
    }

    /// One line, `key=value;...`, compared verbatim between results.
    pub fn canonical(&self) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from
/// `/proc/stat`: time the hypervisor ran someone else on our vCPUs.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Last-level cache size in bytes, from sysfs (0 if unknown).
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (num, mult) = match size.as_bytes().last()? {
                b'K' => (&size[..size.len() - 1], 1usize << 10),
                b'M' => (&size[..size.len() - 1], 1 << 20),
                _ => (size, 1),
            };
            Some(num.parse::<usize>().ok()? * mult)
        })
        .max()
        .unwrap_or(0)
}

/// Measured ceilings for the per-layer rates.
pub struct Ceilings {
    /// `vpdpwssd` (i16 pairs → i32, the instruction the engine's VNNI
    /// tile kernel issues) peak over all workers, in Gop/s (1 MAC = 2 ops).
    pub int16_dot_gops: f64,
    /// `vpdpbusd` (u8 × i8 quads → i32) peak over all workers, in Gop/s.
    pub int8_dot_gops: f64,
    /// Stream-triad bandwidth over all workers, GB/s of computed bytes
    /// (3 × 8 bytes per element, write-allocate traffic not counted).
    pub triad_gbytes_per_s: f64,
    pub llc_bytes: usize,
    /// Bytes in one triad array (three arrays are streamed).
    pub triad_array_bytes: usize,
}

/// Run the dot-product peak loops and the triad on `workers` threads.
pub fn measure_ceilings(workers: usize) -> Ceilings {
    let llc = llc_bytes().max(32 << 20);
    // The three arrays together are four times the last-level cache.
    let len = (4 * llc).div_ceil(3 * 8);
    Ceilings {
        int16_dot_gops: dot_peak(workers, DotKind::I16),
        int8_dot_gops: dot_peak(workers, DotKind::U8I8),
        triad_gbytes_per_s: triad(workers, len),
        llc_bytes: llc,
        triad_array_bytes: len * 8,
    }
}

#[derive(Clone, Copy)]
enum DotKind {
    I16,
    U8I8,
}

/// Best of ten timed bursts of `workers` threads each running the
/// dot-product loop; Gop/s. 0 without AVX-512 VNNI.
fn dot_peak(workers: usize, kind: DotKind) -> f64 {
    const ITERS: u64 = 8_000_000;
    const ACCS: u64 = 12;
    if !vnni_available() {
        return 0.0;
    }
    let ops_per_insn = match kind {
        DotKind::I16 => 2.0 * 32.0,
        DotKind::U8I8 => 2.0 * 64.0,
    };
    (0..10)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| black_box(dot_loop(kind, black_box(ITERS))));
                }
            });
            let secs = t0.elapsed().as_secs_f64();
            (workers as u64 * ITERS * ACCS) as f64 * ops_per_insn / secs / 1e9
        })
        .fold(0.0, f64::max)
}

#[cfg(target_arch = "x86_64")]
fn vnni_available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
}

#[cfg(not(target_arch = "x86_64"))]
fn vnni_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn dot_loop(kind: DotKind, iters: u64) -> i32 {
    // SAFETY: only called after `vnni_available()` confirmed the features.
    unsafe {
        match kind {
            DotKind::I16 => vnni::dpwssd(iters),
            DotKind::U8I8 => vnni::dpbusd(iters),
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn dot_loop(_: DotKind, _: u64) -> i32 {
    0
}

#[cfg(target_arch = "x86_64")]
mod vnni {
    //! Twelve independent accumulators fed from a 1 KiB L1-resident
    //! operand buffer: enough chains to cover the instruction latency,
    //! few enough to stay in registers.
    use std::arch::x86_64::*;

    macro_rules! peak_loop {
        ($name:ident, $insn:ident) => {
            /// # Safety
            /// The CPU must support AVX-512F and AVX-512 VNNI.
            #[target_feature(enable = "avx512f,avx512vnni")]
            pub unsafe fn $name(iters: u64) -> i32 {
                let buf: [i32; 256] = std::array::from_fn(|i| (i as i32 * 7919) & 0x3f3f3f3f);
                let mut acc = [_mm512_setzero_si512(); 12];
                for it in 0..iters as usize {
                    let off = (it * 32) % 224;
                    let a = _mm512_loadu_si512(buf.as_ptr().add(off).cast());
                    let b = _mm512_loadu_si512(buf.as_ptr().add(off + 16).cast());
                    for r in acc.iter_mut() {
                        *r = $insn(*r, a, b);
                    }
                }
                let mut s = acc[0];
                for r in &acc[1..] {
                    s = _mm512_add_epi32(s, *r);
                }
                _mm512_reduce_add_epi32(s)
            }
        };
    }

    peak_loop!(dpwssd, _mm512_dpwssd_epi32);
    peak_loop!(dpbusd, _mm512_dpbusd_epi32);
}

/// Best of five `a = b + s·c` sweeps over `len`-element f64 arrays split
/// across `workers` threads (first-touched by the same split); GB/s.
fn triad(workers: usize, len: usize) -> f64 {
    let chunk = len.div_ceil(workers);
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    let sweep = |a: &mut [f64], b: &mut [f64], c: &mut [f64], init: bool| {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                s.spawn(move || {
                    if init {
                        a.fill(0.0);
                        b.fill(1.0);
                        c.fill(2.0);
                    } else {
                        for ((x, &y), &z) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                            *x = y + 3.0 * z;
                        }
                    }
                });
            }
        });
    };
    sweep(&mut a, &mut b, &mut c, true);
    let best = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            sweep(&mut a, &mut b, &mut c, false);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    black_box(&a);
    (3 * 8 * len) as f64 / best / 1e9
}
