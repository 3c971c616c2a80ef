//! Pluggable residue-GEMM backends — the seam between the Ozaki-II front
//! end and the matrix engine executing its residue planes.
//!
//! The pipeline (Algorithm 1) only needs *some* exact small-integer GEMM
//! per residue plane: packed `i16` panels in, a `C = A·B` plane with
//! wrapping INT32 semantics out, with the mod-`p` epilogue fused while the
//! stripe is cache-resident. [`ResidueBackend`] captures exactly that
//! contract, plus the capability metadata the moduli-selection layer needs
//! to negotiate a modulus set the engine can compute **exactly**:
//!
//! * [`Int8Backend`] — the blocked INT8/VNNI engine
//!   ([`crate::int8_gemm_prepacked_fused`]). Exact for any modulus
//!   `p ≤ 256` (residues are sign-extended i8, `|x| ≤ 128`, pairwise i16
//!   products fit 15 bits).
//! * [`FmaBf16Backend`] — an f32-accumulating FMA engine whose operands
//!   are bf16 residue encodings. bf16 has 8 significand bits, so every
//!   integer `|x| ≤ 256` round-trips exactly; products of residues
//!   (`|x| ≤ 128`) fit 14 bits and depth chunks of [`FMA_CHUNK`] products
//!   stay `≤ 2^24` — exactly representable in the f32 accumulator. Chunk
//!   sums are drained into a wrapping i32 accumulator, so the engine
//!   computes the *same exact integer* (mod `2^32`) as the INT8 engine:
//!   the two backends are bit-identical on any shared moduli set. Its
//!   *native* pool (what a hardware bf16 unit sustains without depth
//!   chunking) is the low-moduli set `p ≤ 64` exposed by
//!   `ozaki2::moduli::fma_moduli`.
//!
//! Both backends consume the one packed-panel layout
//! ([`crate::pack_panels_i16`]; geometry in [`PanelLayout`]) so prepared
//! operands convert once and execute anywhere — though the *moduli* baked
//! into a panel tie it to the pool it was converted for, which is why the
//! `ozaki2` prepared/batched layers carry a backend identity alongside the
//! panel data.
//!
//! # Forcing a backend
//!
//! `OZAKI_FORCE_BACKEND=int8|fma-bf16|scalar` pins the *execution engine*
//! process-wide without touching moduli selection (the pool stays the one
//! the emulator was configured for, so results are bit-identical under
//! every value — that is the CI forced-backend matrix). `scalar` keeps the
//! configured engines but forces their scalar oracle kernels, exactly like
//! the legacy `OZAKI_FORCE_SCALAR=1` alias. `amx` and `vnni` pin the INT8
//! engine and also its kernel: `amx` requires the AMX-INT8 kernel (and
//! panics where it is unavailable), `vnni` caps it at AVX-512 VNNI.

use crate::int8::{
    padded_a_rows, padded_b_cols, padded_depth, stripe_count, AccumulateEpilogue, Epilogue,
    ReduceEpilogue, MR, NR, PK,
};
use gemm_lowfp::BF16;
use rayon::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Backend identity
// ---------------------------------------------------------------------------

/// The residue-GEMM backends the emulation pipeline can run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The blocked INT8/VNNI engine (`i8 × i8 → i32`, wrapping INT32
    /// accumulation) — the paper's engine and the default.
    #[default]
    Int8,
    /// The f32-accumulating FMA engine over bf16 residue encodings.
    FmaBf16,
}

impl BackendKind {
    /// Every backend, in registry order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Int8, BackendKind::FmaBf16];

    /// Stable lowercase identifier (metric label value, env value, bench
    /// section key).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Int8 => "int8",
            BackendKind::FmaBf16 => "fma-bf16",
        }
    }

    /// Parse an identifier as accepted by `OZAKI_FORCE_BACKEND` (`scalar`
    /// is handled separately — it forces kernels, not a backend).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "int8" => Some(BackendKind::Int8),
            "fma-bf16" | "fma_bf16" | "bf16" | "fma" => Some(BackendKind::FmaBf16),
            _ => None,
        }
    }

    /// The engine that will actually execute for this configured backend:
    /// `self` unless [`forced_backend`] pins another one process-wide.
    pub fn engine(self) -> BackendKind {
        forced_backend().unwrap_or(self)
    }

    /// The backend implementation for this kind.
    pub fn backend(self) -> &'static dyn ResidueBackend {
        match self {
            BackendKind::Int8 => &Int8Backend,
            BackendKind::FmaBf16 => &FmaBf16Backend,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The engine override from `OZAKI_FORCE_BACKEND`, if any. `scalar` (and
/// the legacy `OZAKI_FORCE_SCALAR=1`) force scalar *kernel dispatch* inside
/// whichever engines run — see [`crate::force_scalar`] — without swapping
/// the engine, so every backend keeps a bit-exact scalar oracle under the
/// CI matrix. Read once and cached.
///
/// # Panics
/// On an unrecognized value — a silently ignored typo in CI would void the
/// matrix, so the process fails loudly instead.
pub fn forced_backend() -> Option<BackendKind> {
    static FORCED: OnceLock<Option<BackendKind>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        let raw = match std::env::var("OZAKI_FORCE_BACKEND") {
            Ok(v) => v,
            Err(_) => return None,
        };
        let v = raw.trim().to_ascii_lowercase();
        match v.as_str() {
            "" | "0" => None,
            // Kernel force, not an engine swap (see force_scalar()).
            "scalar" => None,
            // The INT8 engine, its kernel pinned to AMX or capped at
            // AVX-512 VNNI (see int8::kernel_force()). Resolving the
            // kernel now makes an unavailable `amx` fail loudly here.
            "amx" | "vnni" => {
                crate::int8::tile_kernel();
                Some(BackendKind::Int8)
            }
            _ => match BackendKind::parse(&v) {
                Some(k) => Some(k),
                None => panic!(
                    "OZAKI_FORCE_BACKEND: unknown backend {raw:?} \
                     (expected int8 | amx | vnni | fma-bf16 | scalar)"
                ),
            },
        }
    })
}

// ---------------------------------------------------------------------------
// Capability metadata
// ---------------------------------------------------------------------------

/// Packed-panel geometry a backend consumes (all backends currently share
/// the [`crate::pack_panels_i16`] layout; the descriptor is what a future
/// backend with different tiling would vary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PanelLayout {
    /// A-panel row-count alignment (rows padded to a multiple of this).
    pub mr: usize,
    /// B-panel column-count alignment.
    pub nr: usize,
    /// Depth alignment: panel depth and every depth-window offset must be
    /// multiples of this.
    pub pk: usize,
}

/// Capability and exactness metadata for one backend.
#[derive(Clone, Copy, Debug)]
pub struct BackendCaps {
    /// Human-readable engine name.
    pub name: &'static str,
    /// Largest modulus whose residue products this engine computes
    /// exactly (the *exactness envelope*; moduli selection must not pick
    /// a modulus above it).
    pub max_modulus: u64,
    /// Largest modulus of the backend's *native* pool — the set it
    /// prefers when it negotiates moduli (for the FMA backend, what the
    /// modeled hardware sustains without software depth chunking).
    pub native_max_modulus: u64,
    /// Panel geometry the prepacked entry points consume.
    pub layout: PanelLayout,
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// An exact residue-GEMM engine the pipeline can execute residue planes
/// on. Object-safe; implementations are stateless statics.
///
/// Both entry points multiply the depth window `[depth_off,
/// depth_off + k)` of pre-packed i16 panels (the
/// [`crate::pack_panels_i16`] layout with full padded depth `kp_stride`)
/// with wrapping INT32 product semantics, then apply a fused mod-`p`
/// epilogue to each completed stripe while it is cache-resident. They must
/// be bit-identical to [`crate::int8_gemm_prepacked_fused`] with the
/// corresponding epilogue for every modulus within the backend's
/// exactness envelope.
pub trait ResidueBackend: Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Capability/limits metadata.
    fn caps(&self) -> BackendCaps;

    /// The largest depth a single call may cover before a residue plane
    /// for moduli up to `p_max` could overflow the INT32 accumulation
    /// contract: the largest power of two `k` with `k · (p_max/2)^2 ≤
    /// 2^31`. Depends only on the moduli pool, so every backend splits
    /// `k`-blocked work identically — a prerequisite for bit-identical
    /// engine swaps. (`p_max = 256` gives the pipeline's historical
    /// `2^17`.)
    fn k_block_max(&self, p_max: u64) -> usize {
        let b = (p_max as usize / 2).max(1).next_power_of_two();
        ((1usize << 31) / (b * b)).max(PK)
    }

    /// `U = mod(A·B, p)` into a `u8` residue plane (the single-`k`-block
    /// path). `c` is the `m x n` INT32 scratch plane, `u_out` the `m x n`
    /// residue plane; `mod_nanos`, if given, receives the maximum
    /// per-stripe epilogue time.
    #[allow(clippy::too_many_arguments)]
    fn gemm_reduce(
        &self,
        m: usize,
        n: usize,
        k: usize,
        apack: &[i16],
        bpack: &[i16],
        kp_stride: usize,
        depth_off: usize,
        c: &mut [i32],
        u_out: &mut [u8],
        p: u64,
        pinv: u32,
        mod_nanos: Option<&AtomicU64>,
        parallel: bool,
    );

    /// `racc += mod(A·B, p)` residue accumulation into an i32 plane (the
    /// `k > k_block_max` path; the caller reduces `racc` once at the end).
    #[allow(clippy::too_many_arguments)]
    fn gemm_accumulate(
        &self,
        m: usize,
        n: usize,
        k: usize,
        apack: &[i16],
        bpack: &[i16],
        kp_stride: usize,
        depth_off: usize,
        c: &mut [i32],
        racc: &mut [i32],
        p: u64,
        pinv: u32,
        mod_nanos: Option<&AtomicU64>,
        parallel: bool,
    );
}

/// The layout every current backend shares.
const I16_PANEL_LAYOUT: PanelLayout = PanelLayout {
    mr: MR,
    nr: NR,
    pk: PK,
};

// ---------------------------------------------------------------------------
// INT8 backend (reference implementation)
// ---------------------------------------------------------------------------

/// The blocked INT8/VNNI engine behind the [`ResidueBackend`] seam — a
/// direct delegation to [`crate::int8_gemm_prepacked_fused`], bit-identical
/// to calling it directly.
pub struct Int8Backend;

impl ResidueBackend for Int8Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::Int8
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: "int8-vnni",
            max_modulus: 256,
            native_max_modulus: 256,
            layout: I16_PANEL_LAYOUT,
        }
    }

    fn gemm_reduce(
        &self,
        m: usize,
        n: usize,
        k: usize,
        apack: &[i16],
        bpack: &[i16],
        kp_stride: usize,
        depth_off: usize,
        c: &mut [i32],
        u_out: &mut [u8],
        p: u64,
        pinv: u32,
        mod_nanos: Option<&AtomicU64>,
        parallel: bool,
    ) {
        let epi = ReduceEpilogue::new(p, pinv, mod_nanos);
        crate::int8::int8_gemm_prepacked_fused(
            m, n, k, apack, bpack, kp_stride, depth_off, c, u_out, &epi, parallel,
        );
    }

    fn gemm_accumulate(
        &self,
        m: usize,
        n: usize,
        k: usize,
        apack: &[i16],
        bpack: &[i16],
        kp_stride: usize,
        depth_off: usize,
        c: &mut [i32],
        racc: &mut [i32],
        p: u64,
        pinv: u32,
        mod_nanos: Option<&AtomicU64>,
        parallel: bool,
    ) {
        let epi = AccumulateEpilogue::new(p, pinv, mod_nanos);
        crate::int8::int8_gemm_prepacked_fused(
            m, n, k, apack, bpack, kp_stride, depth_off, c, racc, &epi, parallel,
        );
    }
}

// ---------------------------------------------------------------------------
// bf16-FMA backend
// ---------------------------------------------------------------------------

/// Depth products accumulated per f32 chunk. Residue products are `|x·y| ≤
/// 128² = 2^14`, so a chunk sum is `≤ 2^24` in magnitude — the largest
/// range in which every integer is exactly representable in f32. Each
/// chunk drains exactly into a wrapping i32 accumulator.
pub const FMA_CHUNK: usize = 1024;

/// The f32-accumulating FMA engine over bf16 residue encodings behind the
/// [`ResidueBackend`] seam. See the module docs for the exactness
/// argument; [`fma_gemm_prepacked_fused`] is the driver.
pub struct FmaBf16Backend;

impl ResidueBackend for FmaBf16Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::FmaBf16
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: "fma-bf16",
            // Software depth chunking keeps any p ≤ 256 exact …
            max_modulus: 256,
            // … but the native pool models hardware that accumulates a
            // whole k-block in one f32 chain: p ≤ 64 keeps k·(p/2)² ≤ 2^24
            // up to k = 2^14 without chunking.
            native_max_modulus: 64,
            layout: I16_PANEL_LAYOUT,
        }
    }

    fn gemm_reduce(
        &self,
        m: usize,
        n: usize,
        k: usize,
        apack: &[i16],
        bpack: &[i16],
        kp_stride: usize,
        depth_off: usize,
        c: &mut [i32],
        u_out: &mut [u8],
        p: u64,
        pinv: u32,
        mod_nanos: Option<&AtomicU64>,
        parallel: bool,
    ) {
        let epi = ReduceEpilogue::new(p, pinv, mod_nanos);
        fma_gemm_prepacked_fused(
            m, n, k, apack, bpack, kp_stride, depth_off, c, u_out, &epi, parallel,
        );
    }

    fn gemm_accumulate(
        &self,
        m: usize,
        n: usize,
        k: usize,
        apack: &[i16],
        bpack: &[i16],
        kp_stride: usize,
        depth_off: usize,
        c: &mut [i32],
        racc: &mut [i32],
        p: u64,
        pinv: u32,
        mod_nanos: Option<&AtomicU64>,
        parallel: bool,
    ) {
        let epi = AccumulateEpilogue::new(p, pinv, mod_nanos);
        fma_gemm_prepacked_fused(
            m, n, k, apack, bpack, kp_stride, depth_off, c, racc, &epi, parallel,
        );
    }
}

// ---------------------------------------------------------------------------
// bf16-FMA kernels
// ---------------------------------------------------------------------------

/// Which FMA dot kernel the running CPU supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FmaKernel {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    Scalar,
}

fn detect_fma_kernel() -> FmaKernel {
    if crate::int8::force_scalar() {
        return FmaKernel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return FmaKernel::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return FmaKernel::Avx2Fma;
        }
    }
    FmaKernel::Scalar
}

fn fma_kernel() -> FmaKernel {
    static KERNEL: OnceLock<FmaKernel> = OnceLock::new();
    *KERNEL.get_or_init(detect_fma_kernel)
}

/// Human-readable name of the FMA dot kernel the running CPU dispatches
/// to (mirrors [`crate::microkernel_name`] for the INT8 engine).
pub fn fma_kernel_name() -> &'static str {
    match fma_kernel() {
        #[cfg(target_arch = "x86_64")]
        FmaKernel::Avx512 => "avx512-fma",
        #[cfg(target_arch = "x86_64")]
        FmaKernel::Avx2Fma => "avx2-fma",
        FmaKernel::Scalar => "scalar",
    }
}

/// The scalar oracle: one depth chunk accumulated through an **explicit
/// bf16 round-trip** per operand (`BF16::from_f32(x as f32)` — the literal
/// operand encoding the modeled engine consumes) and a serial f32 FMA
/// chain. Exact, because residues `|x| ≤ 128` round-trip bf16 exactly and
/// chunk sums stay `≤ 2^24`.
fn fma_chunk_scalar(a: &[i16], b: &[i16]) -> f32 {
    let mut s = 0f32;
    for (&x, &y) in a.iter().zip(b) {
        let xe = BF16::from_f32(x as f32).to_f32();
        let ye = BF16::from_f32(y as f32).to_f32();
        s = xe.mul_add(ye, s);
    }
    s
}

/// One depth chunk with [`LANES`] independent f32 accumulator chains —
/// the body the `target_feature` wrappers re-compile for each ISA. The
/// bf16 encode is elided: every value a panel can hold (`|x| ≤ 128`, and
/// injected-fault flips stay in range) is a fixed point of the bf16
/// round-trip, so `x as f32` is bit-identical to the oracle's explicit
/// encode (pinned by a test below). All arithmetic is exact integer math
/// in f32, so lane count and summation order cannot change the result.
#[inline(always)]
fn fma_chunk_body(a: &[i16], b: &[i16]) -> f32 {
    const LANES: usize = 16;
    let n = a.len().min(b.len());
    let nl = n / LANES * LANES;
    let mut lanes = [0f32; LANES];
    for (av, bv) in a[..nl].chunks_exact(LANES).zip(b[..nl].chunks_exact(LANES)) {
        for l in 0..LANES {
            lanes[l] = (av[l] as f32).mul_add(bv[l] as f32, lanes[l]);
        }
    }
    let mut s: f32 = lanes.iter().sum();
    for (&x, &y) in a[nl..n].iter().zip(&b[nl..n]) {
        s = (x as f32).mul_add(y as f32, s);
    }
    s
}

#[cfg(target_arch = "x86_64")]
mod fmax86 {
    //! `target_feature` wrappers around [`super::fma_chunk_body`]: the
    //! body autovectorizes (i16 → f32 widening loads + `vfmadd`) under
    //! each ISA. Exact integer arithmetic makes every variant
    //! bit-identical to the scalar oracle by construction.

    /// # Safety
    /// AVX-512F required.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn chunk_avx512(a: &[i16], b: &[i16]) -> f32 {
        super::fma_chunk_body(a, b)
    }

    /// # Safety
    /// AVX2 + FMA required.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn chunk_avx2(a: &[i16], b: &[i16]) -> f32 {
        super::fma_chunk_body(a, b)
    }
}

/// Full-depth dot product of one packed A row and one packed B column:
/// f32 chunks of [`FMA_CHUNK`] drained into a wrapping i32 accumulator.
fn fma_dot(kernel: FmaKernel, a: &[i16], b: &[i16]) -> i32 {
    let mut acc = 0i32;
    for (ac, bc) in a.chunks(FMA_CHUNK).zip(b.chunks(FMA_CHUNK)) {
        let s = match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: variant selected by runtime feature detection.
            FmaKernel::Avx512 => unsafe { fmax86::chunk_avx512(ac, bc) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            FmaKernel::Avx2Fma => unsafe { fmax86::chunk_avx2(ac, bc) },
            FmaKernel::Scalar => fma_chunk_scalar(ac, bc),
        };
        // The chunk sum is an exact integer |s| ≤ 2^24: the cast is exact,
        // and wrapping adds reproduce the INT8 engine's accumulator mod
        // 2^32 regardless of chunking.
        acc = acc.wrapping_add(s as i32);
    }
    acc
}

/// The bf16-FMA analogue of [`crate::int8_gemm_prepacked_fused`]: same
/// panel layout, same depth-window contract, same stripe decomposition and
/// fused-epilogue seam — the tile sweep is replaced by per-element f32 FMA
/// dot products over bf16-encoded residues. Bit-identical to the INT8
/// engine for every input within the exactness envelope (residues
/// `|x| ≤ 128`, any window the INT8 engine accepts).
///
/// # Panics
/// Same geometry contract as [`crate::int8_gemm_prepacked_fused`].
#[allow(clippy::too_many_arguments)]
pub fn fma_gemm_prepacked_fused<E: Epilogue>(
    m: usize,
    n: usize,
    k: usize,
    apack: &[i16],
    bpack: &[i16],
    kp_stride: usize,
    depth_off: usize,
    c: &mut [i32],
    out: &mut [E::Out],
    epi: &E,
    parallel: bool,
) {
    let kp_eff = padded_depth(k);
    assert!(
        depth_off.is_multiple_of(PK),
        "depth_off must be PK-aligned, got {depth_off}"
    );
    assert!(
        depth_off + kp_eff <= kp_stride,
        "depth window {depth_off}+{kp_eff} over-runs panel depth {kp_stride}"
    );
    assert!(
        apack.len() >= padded_a_rows(m) * kp_stride,
        "A panel buffer mismatch"
    );
    assert!(
        bpack.len() >= padded_b_cols(n) * kp_stride,
        "B panel buffer mismatch"
    );
    assert_eq!(c.len(), m * n, "C buffer mismatch");
    if E::ACTIVE {
        assert_eq!(out.len(), m * n, "epilogue plane mismatch");
    }
    gemm_obs::catalog::ENGINE_FMA_CALLS.inc();
    gemm_obs::catalog::ENGINE_FMA_MACS.add((m as u64) * (n as u64) * (k as u64));
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0);
        if E::ACTIVE {
            epi.apply(c, out);
        }
        return;
    }
    let a_base = &apack[depth_off..];

    let n_panels = n.div_ceil(NR);
    let stripes = if parallel { stripe_count(n_panels) } else { 1 };

    struct FmaJob<'a, E: Epilogue> {
        j0: usize,
        c: &'a mut [i32],
        out: &'a mut [E::Out],
    }
    let mut jobs: Vec<FmaJob<'_, E>> = Vec::with_capacity(stripes);
    let mut c_rest = c;
    let mut out_rest = out;
    for s in 0..stripes {
        let p0 = s * n_panels / stripes;
        let p1 = (s + 1) * n_panels / stripes;
        let j0 = p0 * NR;
        let nc = n.min(p1 * NR) - j0;
        let (c_stripe, rest) = c_rest.split_at_mut(m * nc);
        c_rest = rest;
        let out_stripe = if E::ACTIVE {
            let (o, rest) = out_rest.split_at_mut(m * nc);
            out_rest = rest;
            o
        } else {
            &mut []
        };
        jobs.push(FmaJob {
            j0,
            c: c_stripe,
            out: out_stripe,
        });
    }

    let run = |job: FmaJob<'_, E>| {
        let kernel = if crate::faultinject::in_scalar_scope() {
            FmaKernel::Scalar
        } else {
            fma_kernel()
        };
        for (jl, ccol) in job.c.chunks_exact_mut(m).enumerate() {
            let j = job.j0 + jl;
            let bcol = &bpack[j * kp_stride + depth_off..][..kp_eff];
            for (i, cij) in ccol.iter_mut().enumerate() {
                let arow = &a_base[i * kp_stride..][..kp_eff];
                *cij = fma_dot(kernel, arow, bcol);
            }
        }
        // Fault-injection seam: the completed INT32 stripe, before the
        // fused epilogue consumes it (same contract as the INT8 engine).
        crate::faultinject::corrupt_acc(job.c);
        if E::ACTIVE {
            epi.apply(job.c, job.out);
        }
    };
    if jobs.len() == 1 {
        run(jobs.pop().expect("one stripe"));
    } else {
        jobs.into_par_iter().for_each(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int8::{int8_gemm_prepacked_fused, pack_panels_i16, NoEpilogue};

    fn residue_panels(vecs: usize, k: usize, p: u64, salt: i64) -> (Vec<i16>, usize, usize) {
        let kp = padded_depth(k);
        let vecs_pad = vecs.div_ceil(MR.max(NR)) * MR.max(NR);
        let half = (p / 2) as i64;
        let raw: Vec<i8> = (0..vecs * k)
            .map(|t| {
                let v = (t as i64 * 37 + salt * 11) % (2 * half + 1) - half;
                v as i8
            })
            .collect();
        let mut pack = Vec::new();
        pack_panels_i16(&mut pack, &raw, k, vecs, vecs_pad, k, kp);
        (pack, kp, vecs_pad)
    }

    /// The SIMD body's elided bf16 encode is an identity over the whole
    /// value range a residue panel can hold.
    #[test]
    fn bf16_roundtrip_is_identity_on_residue_range() {
        for x in -256i16..=256 {
            let direct = x as f32;
            let encoded = BF16::from_f32(direct).to_f32();
            assert_eq!(direct.to_bits(), encoded.to_bits(), "x={x}");
        }
    }

    #[test]
    fn fma_matches_int8_engine_bit_identically() {
        for &(m, n, k, p) in &[
            (7usize, 5usize, 33usize, 256u64),
            (16, 16, 64, 251),
            (3, 9, 130, 64),
            (12, 4, 96, 13),
        ] {
            let (apack, kp, _) = residue_panels(m, k, p, 1);
            let (bpack, _, _) = residue_panels(n, k, p, 2);
            let mut c_int8 = vec![0i32; m * n];
            let mut c_fma = vec![0i32; m * n];
            int8_gemm_prepacked_fused(
                m,
                n,
                k,
                &apack,
                &bpack,
                kp,
                0,
                &mut c_int8,
                &mut [],
                &NoEpilogue,
                false,
            );
            fma_gemm_prepacked_fused(
                m,
                n,
                k,
                &apack,
                &bpack,
                kp,
                0,
                &mut c_fma,
                &mut [],
                &NoEpilogue,
                false,
            );
            assert_eq!(c_int8, c_fma, "m={m} n={n} k={k} p={p}");
        }
    }

    /// The fused reduce epilogue on the FMA engine matches the INT8 one.
    #[test]
    fn fma_reduce_matches_int8_reduce() {
        let (m, n, k, p) = (10usize, 11usize, 200usize, 61u64);
        let pinv = ((1u64 << 32) / p - 1) as u32;
        let (apack, kp, _) = residue_panels(m, k, p, 5);
        let (bpack, _, _) = residue_panels(n, k, p, 6);
        let mut c1 = vec![0i32; m * n];
        let mut c2 = vec![0i32; m * n];
        let mut u1 = vec![0u8; m * n];
        let mut u2 = vec![0u8; m * n];
        Int8Backend.gemm_reduce(
            m, n, k, &apack, &bpack, kp, 0, &mut c1, &mut u1, p, pinv, None, true,
        );
        FmaBf16Backend.gemm_reduce(
            m, n, k, &apack, &bpack, kp, 0, &mut c2, &mut u2, p, pinv, None, true,
        );
        assert_eq!(u1, u2);
        assert!(u1.iter().all(|&x| (x as u64) < p));
    }

    /// Chunk boundaries and wrapping: a depth long enough to cross
    /// several FMA chunks with extreme residues still matches the INT8
    /// engine exactly.
    #[test]
    fn fma_chunked_wrapping_matches() {
        let (m, n, k) = (2usize, 2usize, 3 * FMA_CHUNK + 17);
        let kp = padded_depth(k);
        let mk_panel = |vecs: usize, sign: i16| {
            let vecs_pad = vecs.div_ceil(4) * 4;
            let mut pack = vec![0i16; vecs_pad * kp];
            for v in 0..vecs {
                for h in 0..k {
                    // Alternating extremes maximize |chunk sums|.
                    pack[v * kp + h] = if h % 2 == 0 { 128 } else { -128 * sign };
                }
            }
            pack
        };
        let apack = mk_panel(m, 1);
        let bpack = mk_panel(n, -1);
        let mut c_int8 = vec![0i32; m * n];
        let mut c_fma = vec![0i32; m * n];
        int8_gemm_prepacked_fused(
            m,
            n,
            k,
            &apack,
            &bpack,
            kp,
            0,
            &mut c_int8,
            &mut [],
            &NoEpilogue,
            false,
        );
        fma_gemm_prepacked_fused(
            m,
            n,
            k,
            &apack,
            &bpack,
            kp,
            0,
            &mut c_fma,
            &mut [],
            &NoEpilogue,
            false,
        );
        assert_eq!(c_int8, c_fma);
    }

    #[test]
    fn k_block_max_matches_pool_limits() {
        assert_eq!(Int8Backend.k_block_max(256), 1 << 17);
        assert_eq!(FmaBf16Backend.k_block_max(256), 1 << 17);
        assert_eq!(FmaBf16Backend.k_block_max(64), 1 << 21);
        // Every backend splits identically on a shared pool.
        for p in [13u64, 64, 173, 256] {
            assert_eq!(Int8Backend.k_block_max(p), FmaBf16Backend.k_block_max(p));
        }
    }

    #[test]
    fn kind_parsing_and_labels() {
        assert_eq!(BackendKind::parse("int8"), Some(BackendKind::Int8));
        assert_eq!(BackendKind::parse("fma-bf16"), Some(BackendKind::FmaBf16));
        assert_eq!(BackendKind::parse("FMA_BF16"), Some(BackendKind::FmaBf16));
        assert_eq!(BackendKind::parse("nonsense"), None);
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.backend().kind(), kind);
        }
        assert_eq!(BackendKind::default(), BackendKind::Int8);
    }

    #[test]
    fn caps_describe_exactness_envelopes() {
        let int8 = Int8Backend.caps();
        assert_eq!(int8.max_modulus, 256);
        let fma = FmaBf16Backend.caps();
        assert_eq!(fma.max_modulus, 256);
        assert_eq!(fma.native_max_modulus, 64);
        assert_eq!(int8.layout, fma.layout);
    }
}
