//! Algorithm 1, end to end: the public emulation API.
//!
//! [`Ozaki2`] bundles the two user-visible knobs — the number of moduli `N`
//! (accuracy) and the computing [`Mode`] (fast vs accurate scaling) — with
//! the ABFT fault policy and the residue backend. Its GEMM entries live in
//! [`crate::facade`] (`gemm` / `gemm_into`) and [`crate::prepared`]
//! (`prepare` / `execute`); `dgemm` / `sgemm` here are the panicking
//! owned-matrix conveniences over `gemm`; [`crate::dgemm_dd`] is the
//! double-double-output entry. The shared Algorithm-1 stages every entry
//! runs (`front_end` for lines 1–5; `run_panels` for lines 6–12, whose
//! `residue_stage` loop runs one `plane_gemm` per modulus and whose one
//! fold site writes f64 or double-double) are defined at the bottom of
//! this file.

use crate::abft::{Abft, AbftBufs, FaultPolicy, FaultReport, PanelsRef};
use crate::accumulate::{fold_planes, fold_planes_dd, FoldPrecision};
use crate::consts::Constants;
use crate::convert::trunc_convert_pack_panels;
use crate::element::Element;
use crate::facade::{vectors_source, GemmArgs};
use crate::modred::finalize_block_residues;
use crate::moduli::{backend_n_max, N_MAX};
use crate::nselect::predicted_error_for;
use crate::prepared::OperandSide;
use crate::scale::{accurate_scale_view, fast_scale_a_view, fast_scale_b_view};
use gemm_dense::{MatF32, MatF64, MatMulF32, MatMulF64, MatView};
use gemm_engine::{padded_a_rows, padded_b_cols, padded_depth, BackendKind, ResidueBackend};
use gemm_exact::Dd;
use gemm_obs::TimeShare;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Largest `k` per INT8 GEMM before block splitting (§4.3: products of
/// `±128` entries stay within the wrapping-INT32 guarantee up to `2^17`).
///
/// This is the INT8 pool's value of the pool-derived limit
/// [`gemm_engine::ResidueBackend::k_block_max`]; pools with smaller
/// moduli (the bf16-FMA pool) split later. Workspace sizing keeps using
/// this constant — the smallest limit any pool has — so reservations are
/// always sufficient.
pub const K_BLOCK_MAX: usize = 1 << 17;

/// Scaling mode (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Cauchy–Schwarz row/column-norm bound: cheapest, coarser scales.
    Fast,
    /// INT8 magnitude-product bound: one extra INT8 GEMM, tighter scales,
    /// better accuracy (especially for wide exponent distributions).
    Accurate,
}

impl Mode {
    /// Short label used in method names ("fast" / "accu").
    pub fn label(self) -> &'static str {
        match self {
            Mode::Fast => "fast",
            Mode::Accurate => "accu",
        }
    }
}

/// Errors surfaced by the checked entry points.
#[derive(Clone, Debug, PartialEq)]
pub enum EmulationError {
    /// An input entry was NaN or infinite.
    NonFiniteInput {
        /// Which operand held the offending entry.
        side: OperandSide,
        /// Storage index of the first non-finite entry in the operand's
        /// backing slice (column-major: `i + j * ld`; row-major:
        /// `j + i * ld`).
        index: usize,
    },
    /// Requested moduli count outside the supported range.
    UnsupportedN {
        /// The offending request.
        n: usize,
        /// Inclusive maximum for the precision in question.
        max: usize,
    },
    /// Inner dimensions disagree.
    ShapeMismatch,
    /// No supported moduli count reaches the requested accuracy target
    /// (surfaced by [`crate::facade::Ozaki2Builder`] and
    /// [`crate::nselect::choose_n_checked`]).
    AccuracyUnreachable {
        /// The requested normwise relative error.
        target: f64,
        /// The largest supported moduli count for the pipeline asked.
        best_n: usize,
        /// The predicted error at `best_n` — how close the request came.
        predicted: f64,
    },
    /// A `k`-dependent accuracy target was used without an inner
    /// dimension to resolve it against (call
    /// [`crate::facade::Ozaki2Builder::k`] or
    /// [`crate::facade::Ozaki2Builder::build_for_k`]).
    AccuracyNeedsK,
    /// Operand preparation requested for a mode that cannot prepare
    /// operands independently ([`Mode::Accurate`] scales `A` and `B`
    /// jointly, so a cached one-sided preparation cannot exist).
    PreparationUnsupported {
        /// The offending mode.
        mode: Mode,
    },
    /// Two [`crate::prepared::PreparedOperand`]s (or an operand and the
    /// executing emulator) disagree on side, inner dimension, moduli
    /// count, mode, or precision.
    PreparedMismatch {
        /// What disagreed.
        reason: &'static str,
    },
}

impl std::fmt::Display for EmulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmulationError::NonFiniteInput { side, index } => write!(
                f,
                "operand {side:?} contains NaN or infinity (storage index {index})"
            ),
            EmulationError::UnsupportedN { n, max } => {
                write!(f, "N = {n} outside supported range 2..={max}")
            }
            EmulationError::ShapeMismatch => write!(f, "inner matrix dimensions disagree"),
            EmulationError::AccuracyUnreachable {
                target,
                best_n,
                predicted,
            } => write!(
                f,
                "accuracy target {target:e} unreachable: the largest supported \
                 N = {best_n} predicts {predicted:e}"
            ),
            EmulationError::AccuracyNeedsK => write!(
                f,
                "a k-dependent accuracy target needs the inner dimension: \
                 set Ozaki2Builder::k or use build_for_k"
            ),
            EmulationError::PreparationUnsupported { mode } => write!(
                f,
                "operand preparation is only defined for Mode::Fast \
                 (Mode::{mode:?} scales A and B jointly)"
            ),
            EmulationError::PreparedMismatch { reason } => {
                write!(f, "prepared operands disagree: {reason}")
            }
        }
    }
}

impl std::error::Error for EmulationError {}

/// Wall-clock breakdown by Algorithm 1 line (Figs. 6–7).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Line 1: scale-vector determination (includes the `Ā·B̄` INT8 GEMM
    /// in accurate mode).
    pub scale: Duration,
    /// Lines 2–3: the scale+trunc portion of the fused operand sweep
    /// (transpose gather + `trunc(2^e · x)`), attributed out of the
    /// combined trunc+convert pass by per-job CPU-time share.
    pub trunc: Duration,
    /// Lines 4–5: the `rmod` + panel-packing portion of the fused operand
    /// sweep (includes what used to be the engine-side operand packing).
    pub convert: Duration,
    /// Line 6: the `N` INT8 matrix multiplications.
    pub int8_gemm: Duration,
    /// Line 7: INT32 → UINT8 modular reduction.
    pub mod_reduce: Duration,
    /// Lines 8–12: weighted accumulation, CRT fold, inverse scaling.
    pub fold: Duration,
    /// ABFT side channel (zero under [`crate::abft::FaultPolicy::Off`]):
    /// checksum-panel construction, the per-plane checksum GEMMs, the
    /// verification sweep, and any recovery re-execution.
    pub verify: Duration,
}

impl PhaseTimes {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.scale
            + self.trunc
            + self.convert
            + self.int8_gemm
            + self.mod_reduce
            + self.fold
            + self.verify
    }

    /// `(label, seconds)` pairs in Algorithm-1 order.
    pub fn as_rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("scale (line 1)", self.scale.as_secs_f64()),
            ("trunc (lines 2-3)", self.trunc.as_secs_f64()),
            ("convert (lines 4-5)", self.convert.as_secs_f64()),
            ("int8 GEMM (line 6)", self.int8_gemm.as_secs_f64()),
            ("mod (line 7)", self.mod_reduce.as_secs_f64()),
            ("fold (lines 8-12)", self.fold.as_secs_f64()),
            ("verify (abft)", self.verify.as_secs_f64()),
        ]
    }
}

/// Mirror one call's phase attribution into the observability registry:
/// each nonzero phase becomes one histogram observation *and* one span
/// event with the same nanosecond value (so Chrome-trace span sums
/// reconcile exactly against the Prometheus `_sum` series). The spans are
/// laid out end-to-end from `call_start_ns` in Algorithm-1 order — a
/// synthetic sequential timeline, since `int8_gemm` and `mod_reduce`
/// physically interleave per residue plane but are *attributed*
/// separately by the executor. No-op when observability is disabled.
pub(crate) fn obs_record_phases(call_start_ns: u64, phases: &PhaseTimes) {
    if !gemm_obs::enabled() {
        return;
    }
    use gemm_obs::catalog as cat;
    let mut t = call_start_ns;
    for (hist, d) in [
        (&cat::PHASE_SCALE, phases.scale),
        (&cat::PHASE_TRUNC, phases.trunc),
        (&cat::PHASE_CONVERT, phases.convert),
        (&cat::PHASE_INT8_GEMM, phases.int8_gemm),
        (&cat::PHASE_MOD_REDUCE, phases.mod_reduce),
        (&cat::PHASE_FOLD, phases.fold),
        (&cat::PHASE_VERIFY, phases.verify),
    ] {
        let ns = d.as_nanos() as u64;
        if ns == 0 {
            continue;
        }
        gemm_obs::observe_span(hist.span_name(), "pipeline", hist, t, ns);
        t += ns;
    }
}

/// [`obs_record_phases`] plus the per-call counters (emulated GEMMs,
/// issued INT8 GEMMs, ABFT outcome) — the shared tail of every execution
/// entry point (facade and prepared/batched paths).
pub(crate) fn obs_record_report(call_start_ns: u64, report: &EmulationReport) {
    if !gemm_obs::enabled() {
        return;
    }
    use gemm_obs::catalog as cat;
    obs_record_phases(call_start_ns, &report.phases);
    cat::EMULATED_GEMMS.inc();
    cat::INT8_GEMM_CALLS.add(report.int8_gemm_calls as u64);
    cat::BACKEND_SELECTED.inc_value(report.backend.as_str());
    if let Some(f) = &report.fault {
        cat::ABFT_DETECTIONS.add(f.detected as u64);
        cat::ABFT_RETRIES.add(f.retries as u64);
        cat::ABFT_SCALAR_FALLBACKS.add(f.scalar_fallbacks as u64);
        cat::ABFT_UNRECOVERED.add(f.unrecovered as u64);
    }
}

/// Metadata returned by every GEMM entry ([`Ozaki2::gemm`],
/// [`Ozaki2::gemm_into`], [`Ozaki2::execute`]) and captured by
/// [`GemmArgs::report`].
#[derive(Clone, Debug)]
pub struct EmulationReport {
    /// Problem shape `(m, n, k)`.
    pub shape: (usize, usize, usize),
    /// Number of moduli used.
    pub n_moduli: usize,
    /// Scaling mode.
    pub mode: Mode,
    /// The residue backend that executed the plane GEMMs — the emulator's
    /// configured backend unless `OZAKI_FORCE_BACKEND` swapped the engine
    /// (the moduli pool always stays the configured backend's, which is
    /// why forced runs remain bit-identical).
    pub backend: BackendKind,
    /// A-priori normwise relative error bound for this `(backend pool, N,
    /// k)` point ([`crate::nselect::predicted_error_for`]) — what the
    /// low-moduli fast-inference mode reports alongside its throughput.
    pub predicted_error: f64,
    /// Phase breakdown.
    pub phases: PhaseTimes,
    /// INT8 GEMMs issued (N per k-block, +1 in accurate mode). ABFT
    /// checksum GEMMs and recovery re-runs are *not* counted here — they
    /// land in [`FaultReport::checksum_gemms`] / [`FaultReport::retries`]
    /// so this count stays deterministic under fault injection.
    pub int8_gemm_calls: usize,
    /// ABFT outcome: `Some` whenever the run executed under an active
    /// [`FaultPolicy`] (even if no fault was detected), `None` under
    /// [`FaultPolicy::Off`].
    pub fault: Option<FaultReport>,
}

/// Reusable scratch for the whole Algorithm-1 pipeline: the packed residue
/// panels the fused trunc+convert phase emits, the UINT8 residue planes,
/// the INT32 product plane, and the block-residue accumulator.
///
/// A single emulated GEMM needs ~`(5N + 4)·mn` bytes of scratch for a
/// square product (`4N·mk` packed i16 panels, `N·mn` residue planes,
/// `4·mn` INT32; `k > 2^17` adds a `4·mn` block-residue accumulator); the
/// integer matrices `A'`, `B'` of the unfused pipeline no longer exist —
/// the truncation happens inside the convert sweep's cache-resident
/// staging tiles. The workspace grows to the high-water mark of the shapes
/// it has seen and is then reused, so iterative consumers (LU panel
/// updates, purification sweeps, the `N` residue-panel sets of every call)
/// allocate nothing per call.
///
/// The residue panels are stored directly in the INT8 engine's packed i16
/// layout, so the GEMMs run over them with zero repacking
/// ([`gemm_engine::int8_gemm_prepacked_fused`]).
#[derive(Default)]
pub struct Workspace {
    a16: Vec<i16>,
    b16: Vec<i16>,
    u: Vec<u8>,
    c32: Vec<i32>,
    racc: Vec<i32>,
    /// f64 fold staging for outputs the fold cannot write directly: f32
    /// results (narrowed afterwards) and strided or `alpha`/`beta`
    /// epilogue outputs of the view facade.
    cstage: Vec<f64>,
    /// ABFT checksum vector for `A` of the plane in flight (`kp` i16;
    /// empty unless a fault policy is active).
    chk_a16: Vec<i16>,
    /// ABFT checksum vector for `B` of the plane in flight (`kp` i16).
    chk_b16: Vec<i16>,
    /// ABFT checksum references of the plane in flight: `m` row-sum
    /// residues followed by `n` column-sum residues.
    uchk: Vec<u8>,
    /// i32 accumulator for checksum-vector construction (`kp` entries,
    /// re-reduced mod `p` between chunks so it never overflows).
    chk_sum: Vec<i32>,
    /// Row-sum scratch for the verification sweep (`m` u32).
    vsum: Vec<u32>,
}

/// Mutable borrows of every [`Workspace`] buffer at once, for the
/// execution paths that juggle several of them simultaneously: the two
/// panel buffers, the fold staging buffer, the residue loop's
/// [`PlaneBufs`] and the ABFT hook's [`AbftBufs`] (empty unless
/// [`Workspace::reserve_abft`] ran).
pub(crate) struct WsBuffers<'w> {
    pub a16: &'w mut [i16],
    pub b16: &'w mut [i16],
    pub cstage: &'w mut [f64],
    pub planes: PlaneBufs<'w>,
    pub abft: AbftBufs<'w>,
}

/// The residue loop's scratch: the `N` UINT8 residue planes, the INT32
/// product plane and the block-residue accumulator (only consumed past
/// the pool's k-block limit).
pub(crate) struct PlaneBufs<'w> {
    pub u: &'w mut [u8],
    pub c32: &'w mut [i32],
    pub racc: &'w mut [i32],
}

impl Workspace {
    /// Fresh, empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current scratch footprint in bytes (excluding `Vec` headers).
    pub fn bytes(&self) -> usize {
        self.a16.capacity() * 2
            + self.b16.capacity() * 2
            + self.u.capacity()
            + self.c32.capacity() * 4
            + self.racc.capacity() * 4
            + self.cstage.capacity() * 8
            + self.chk_a16.capacity() * 2
            + self.chk_b16.capacity() * 2
            + self.uchk.capacity()
            + self.chk_sum.capacity() * 4
            + self.vsum.capacity() * 4
    }

    /// Zero every buffer in place (capacity kept). The batch runtime's
    /// `WorkspacePool` checkout guards call this when a
    /// workspace is returned by a panicking tenant, so partially written
    /// scratch never leaks into the next checkout. (Correctness never
    /// depends on zeroed scratch — every path fully overwrites what it
    /// reads — so this is hygiene, not a functional reset.)
    pub fn scrub(&mut self) {
        self.a16.fill(0);
        self.b16.fill(0);
        self.u.fill(0);
        self.c32.fill(0);
        self.racc.fill(0);
        self.cstage.fill(0.0);
        self.chk_a16.fill(0);
        self.chk_b16.fill(0);
        self.uchk.fill(0);
        self.chk_sum.fill(0);
        self.vsum.fill(0);
    }

    /// Grow-only resize of the fold staging buffer (f32 / epilogue
    /// outputs only; the plain f64 path folds straight into the output).
    pub(crate) fn reserve_stage(&mut self, len: usize) {
        if self.cstage.len() < len {
            self.cstage.resize(len, 0.0);
        }
    }

    /// Grow-only resize of every pipeline buffer for an `m x k · k x n`
    /// product with `nmod` residue-panel sets.
    pub(crate) fn reserve(&mut self, m: usize, n: usize, k: usize, nmod: usize) {
        self.reserve_a(m, k, nmod);
        self.reserve_b(n, k, nmod);
        self.reserve_exec(m, n, k, nmod);
    }

    /// Grow-only resize of the A-side packed panel buffer.
    pub(crate) fn reserve_a(&mut self, m: usize, k: usize, nmod: usize) {
        let want = nmod * padded_a_rows(m) * padded_depth(k);
        if self.a16.len() < want {
            self.a16.resize(want, 0);
        }
    }

    /// Grow-only resize of the B-side packed panel buffer.
    pub(crate) fn reserve_b(&mut self, n: usize, k: usize, nmod: usize) {
        let want = nmod * padded_b_cols(n) * padded_depth(k);
        if self.b16.len() < want {
            self.b16.resize(want, 0);
        }
    }

    /// Grow-only resize of the execute-half buffers only (residue planes,
    /// INT32 product, block accumulator) — what a run over *prepared*
    /// operand panels needs, since the packed `a16`/`b16` live inside the
    /// [`crate::prepared::PreparedOperand`]s instead of the workspace.
    pub(crate) fn reserve_exec(&mut self, m: usize, n: usize, k: usize, nmod: usize) {
        if self.u.len() < nmod * m * n {
            self.u.resize(nmod * m * n, 0);
        }
        if self.c32.len() < m * n {
            self.c32.resize(m * n, 0);
        }
        if k > K_BLOCK_MAX && self.racc.len() < m * n {
            self.racc.resize(m * n, 0);
        }
    }

    /// Grow-only resize of the ABFT side-channel buffers (checksum vectors,
    /// checksum references, verification scratch). Only called when a
    /// fault policy is active — [`crate::abft::FaultPolicy::Off`] packs no
    /// checksum columns and allocates nothing here. The residue loop
    /// verifies each plane before it captures the next, so the buffers
    /// hold one plane's worth.
    pub(crate) fn reserve_abft(&mut self, m: usize, n: usize, k: usize) {
        let kp = padded_depth(k);
        if self.chk_a16.len() < kp {
            self.chk_a16.resize(kp, 0);
        }
        if self.chk_b16.len() < kp {
            self.chk_b16.resize(kp, 0);
        }
        if self.uchk.len() < m + n {
            self.uchk.resize(m + n, 0);
        }
        if self.chk_sum.len() < kp {
            self.chk_sum.resize(kp, 0);
        }
        if self.vsum.len() < m {
            self.vsum.resize(m, 0);
        }
    }

    /// Every buffer at once (see [`WsBuffers`]). Call the `reserve_*`
    /// methods for the buffers in use first.
    pub(crate) fn buffers(&mut self) -> WsBuffers<'_> {
        WsBuffers {
            a16: &mut self.a16,
            b16: &mut self.b16,
            cstage: &mut self.cstage,
            planes: PlaneBufs {
                u: &mut self.u,
                c32: &mut self.c32,
                racc: &mut self.racc,
            },
            abft: AbftBufs {
                chk_a16: &mut self.chk_a16,
                chk_b16: &mut self.chk_b16,
                uchk: &mut self.uchk,
                chk_sum: &mut self.chk_sum,
                vsum: &mut self.vsum,
            },
        }
    }
}

/// The Ozaki Scheme II emulator.
#[derive(Clone, Copy, Debug)]
pub struct Ozaki2 {
    n_moduli: usize,
    mode: Mode,
    fault: FaultPolicy,
    backend: BackendKind,
}

impl Ozaki2 {
    /// Create an emulator with `n ∈ 2..=`[`N_MAX`] moduli on the default
    /// INT8 backend. The fault policy defaults to `OZAKI_FAULT_POLICY`
    /// from the environment ([`FaultPolicy::Off`] when unset); see
    /// [`Ozaki2::with_fault_policy`]. To run on another residue backend
    /// (and its moduli pool), see [`Ozaki2::with_backend`].
    pub fn new(n_moduli: usize, mode: Mode) -> Self {
        assert!(
            (2..=N_MAX).contains(&n_moduli),
            "N must be in 2..={N_MAX}, got {n_moduli}"
        );
        Self {
            n_moduli,
            mode,
            fault: FaultPolicy::default_from_env(),
            backend: BackendKind::Int8,
        }
    }

    /// Number of moduli.
    pub fn n_moduli(&self) -> usize {
        self.n_moduli
    }

    /// Scaling mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The configured residue backend. It selects both the moduli pool
    /// the accuracy semantics come from and the preferred execution
    /// engine; `OZAKI_FORCE_BACKEND` can swap the engine at dispatch time
    /// without touching the pool (see [`gemm_engine::forced_backend`]).
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Switch the emulator to another residue backend (builder style).
    /// The moduli count must fit the new backend's pool — the bf16-FMA
    /// pool supports `N ∈ 2..=16`.
    ///
    /// # Examples
    /// ```
    /// use gemm_engine::BackendKind;
    /// use ozaki2::{Mode, Ozaki2};
    /// let emu = Ozaki2::new(12, Mode::Fast).with_backend(BackendKind::FmaBf16);
    /// assert_eq!(emu.backend(), BackendKind::FmaBf16);
    /// ```
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        let max = backend_n_max(backend, false);
        assert!(
            self.n_moduli <= max,
            "N must be in 2..={max} for the {backend} pool, got {}",
            self.n_moduli
        );
        self.backend = backend;
        self
    }

    /// The ABFT fault policy every GEMM entry of this emulator runs under
    /// (overridable per call via `GemmArgs::fault_policy`).
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault
    }

    /// Replace the ABFT fault policy (builder style).
    ///
    /// # Examples
    /// ```
    /// use ozaki2::{FaultPolicy, Mode, Ozaki2};
    /// let emu = Ozaki2::new(15, Mode::Fast)
    ///     .with_fault_policy(FaultPolicy::RetryThenScalar { max_retries: 2 });
    /// assert!(emu.fault_policy().is_active());
    /// ```
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault = policy;
        self
    }

    /// Emulated DGEMM: `C ≈ A·B` for f64 operands, i.e.
    /// `gemm(GemmArgs::new(a, b))` with the output unwrapped.
    ///
    /// # Panics
    /// On shape mismatch or non-finite input (use [`Ozaki2::gemm`] for
    /// the checked form).
    ///
    /// # Examples
    /// ```
    /// use ozaki2::{Mode, Ozaki2};
    /// use gemm_dense::workload::phi_matrix_f64;
    /// use gemm_dense::gemm::gemm_f64_naive;
    /// use gemm_dense::norms::max_relative_error;
    ///
    /// let a = phi_matrix_f64(48, 64, 0.5, 7, 0);
    /// let b = phi_matrix_f64(64, 48, 0.5, 7, 1);
    /// // N = 15 moduli reach ~double-precision accuracy (§5.1).
    /// let c = Ozaki2::new(15, Mode::Fast).dgemm(&a, &b);
    /// let exact = gemm_f64_naive(&a, &b);
    /// assert!(max_relative_error(&c, &exact) < 1e-10);
    /// ```
    pub fn dgemm(&self, a: &MatF64, b: &MatF64) -> MatF64 {
        self.gemm(GemmArgs::new(a, b))
            .unwrap_or_else(|e| panic!("dgemm: {e}"))
            .c
    }

    /// Emulated SGEMM: `C ≈ A·B` for f32 operands, i.e.
    /// `gemm(GemmArgs::new(a, b))` with the output unwrapped.
    ///
    /// # Panics
    /// On shape mismatch, non-finite input, or `N > 18` (the `b = 32`
    /// conversion kernel's validated range).
    pub fn sgemm(&self, a: &MatF32, b: &MatF32) -> MatF32 {
        self.gemm(GemmArgs::new(a, b))
            .unwrap_or_else(|e| panic!("sgemm: {e}"))
            .c
    }
}

impl MatMulF64 for Ozaki2 {
    fn matmul_f64(&self, a: &MatF64, b: &MatF64) -> MatF64 {
        self.dgemm(a, b)
    }
    fn name(&self) -> String {
        format!("OS II-{}-{}", self.mode.label(), self.n_moduli)
    }
}

impl MatMulF32 for Ozaki2 {
    fn matmul_f32(&self, a: &MatF32, b: &MatF32) -> MatF32 {
        self.sgemm(a, b)
    }
    fn name(&self) -> String {
        format!("OS II-{}-{}", self.mode.label(), self.n_moduli)
    }
}

/// Algorithm 1 lines 2–5 for one operand: the fused trunc+convert sweep
/// of `v` (rows for side A, columns for side B, scaled by `exps`) into its
/// `N` packed i16 residue panel sets. `b64` picks the DGEMM or SGEMM
/// conversion thresholds; the sweep time is split into `phases.trunc`
/// and `phases.convert` by per-job CPU-time share.
#[allow(clippy::too_many_arguments)]
pub(crate) fn convert_side<T: Element>(
    v: &MatView<'_, T>,
    side: OperandSide,
    exps: &[i32],
    consts: &Constants,
    b64: bool,
    parallel: bool,
    panels: &mut [i16],
    phases: &mut PhaseTimes,
) {
    let (vecs, vecs_pad, k) = match side {
        OperandSide::A => (v.rows(), padded_a_rows(v.rows()), v.cols()),
        OperandSide::B => (v.cols(), padded_b_cols(v.cols()), v.rows()),
    };
    let timing = TimeShare::new();
    let t0 = Instant::now();
    trunc_convert_pack_panels(
        vectors_source(v, side == OperandSide::A, exps),
        vecs,
        vecs_pad,
        k,
        padded_depth(k),
        consts,
        b64,
        parallel,
        panels,
        Some(&timing),
    );
    let sweep = t0.elapsed();
    let trunc = sweep.mul_f64(timing.fraction());
    phases.trunc += trunc;
    phases.convert += sweep.saturating_sub(trunc);
}

/// Algorithm 1 lines 1–5 for one operand in [`Mode::Fast`]: its
/// one-sided scale exponents (row scales for A, column scales for B),
/// then [`convert_side`]. This is what a preparation caches and what a raw
/// side of an execution runs. Returns the exponents.
#[allow(clippy::too_many_arguments)]
pub(crate) fn front_end_side<T: Element>(
    v: &MatView<'_, T>,
    side: OperandSide,
    consts: &Constants,
    b64: bool,
    parallel: bool,
    panels: &mut [i16],
    phases: &mut PhaseTimes,
) -> Vec<i32> {
    let t0 = Instant::now();
    let exps = match side {
        OperandSide::A => fast_scale_a_view(v, consts.p_fast),
        OperandSide::B => fast_scale_b_view(v, consts.p_fast),
    };
    phases.scale += t0.elapsed();
    convert_side(v, side, &exps, consts, b64, parallel, panels, phases);
    exps
}

/// Algorithm 1 lines 1–5 for two raw operands: in fast mode each side's
/// [`front_end_side`]; in accurate mode the joint scale vectors (one `Ā·B̄`
/// estimation GEMM), then a [`convert_side`] sweep per side. Returns both
/// exponent vectors and the number of engine GEMMs run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn front_end<T: Element>(
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    mode: Mode,
    consts: &Constants,
    parallel: bool,
    a16: &mut [i16],
    b16: &mut [i16],
    phases: &mut PhaseTimes,
) -> (Vec<i32>, Vec<i32>, usize) {
    let b64 = T::IS_F64;
    match mode {
        Mode::Fast => (
            front_end_side(a, OperandSide::A, consts, b64, parallel, a16, phases),
            front_end_side(b, OperandSide::B, consts, b64, parallel, b16, phases),
            0,
        ),
        Mode::Accurate => {
            let t0 = Instant::now();
            let (exps_a, exps_b) = accurate_scale_view(a, b, consts.p_accu);
            phases.scale += t0.elapsed();
            convert_side(
                a,
                OperandSide::A,
                &exps_a,
                consts,
                b64,
                parallel,
                a16,
                phases,
            );
            convert_side(
                b,
                OperandSide::B,
                &exps_b,
                consts,
                b64,
                parallel,
                b16,
                phases,
            );
            (exps_a, exps_b, 1)
        }
    }
}

/// One product's residue planes: the shape `m x k · k x n`, the moduli
/// pool and its fold precision (`b64`: DGEMM weights, else SGEMM), the
/// engine that runs them — the configured backend's unless
/// `OZAKI_FORCE_BACKEND` swaps it — and what every plane GEMM derives from
/// these: the padded panel extents and the pool's k-block depth.
#[derive(Clone, Copy)]
pub(crate) struct Planes<'c> {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub kp: usize,
    pub m_pad: usize,
    pub n_pad: usize,
    pub k_block: usize,
    pub consts: &'c Constants,
    pub b64: bool,
    pub engine: &'static dyn ResidueBackend,
}

impl<'c> Planes<'c> {
    pub(crate) fn new(
        (m, n, k): (usize, usize, usize),
        consts: &'c Constants,
        b64: bool,
        backend: BackendKind,
    ) -> Self {
        let engine = backend.engine().backend();
        Self {
            m,
            n,
            k,
            kp: padded_depth(k),
            m_pad: padded_a_rows(m),
            n_pad: padded_b_cols(n),
            // Pool-derived (`p_max`, the largest modulus): every backend
            // splits at the same depth, which the bit-identity across
            // engines rests on.
            k_block: engine.k_block_max(consts.p[0]),
            consts,
            b64,
            engine,
        }
    }

    /// Plane `s`'s packed A panels within the `N` panel sets.
    pub(crate) fn a_range(&self, s: usize) -> Range<usize> {
        s * self.m_pad * self.kp..(s + 1) * self.m_pad * self.kp
    }

    /// Plane `s`'s packed B panels within the `N` panel sets.
    pub(crate) fn b_range(&self, s: usize) -> Range<usize> {
        s * self.n_pad * self.kp..(s + 1) * self.n_pad * self.kp
    }
}

/// Algorithm 1 lines 6–7 for one plane: the residue GEMM of plane `s`
/// over output columns `cols` (`0..n`, or an NR-aligned stripe a recovery
/// re-runs) on the engine, with the mod-`p_s` reduction fused into the
/// call, into the plane's columns of `bufs.u`. Past the pool's k-block
/// depth each PK-aligned depth window of the same packed panels (no
/// repacking, no copies) reduces mod `p` into the i32 `racc`, which is
/// reduced once more at the end. With `phases`, each call's time splits
/// into `int8_gemm` and `mod_reduce` (the slowest worker's fused-epilogue
/// time, plus the block finalization). Returns the engine GEMMs run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plane_gemm(
    st: &Planes<'_>,
    s: usize,
    cols: Range<usize>,
    a16: &[i16],
    b16: &[i16],
    bufs: &mut PlaneBufs<'_>,
    parallel: bool,
    mut phases: Option<&mut PhaseTimes>,
) -> usize {
    let (m, n, k, kp) = (st.m, cols.len(), st.k, st.kp);
    let (p, pinv) = (st.consts.p[s], st.consts.p_inv_u32[s]);
    let a = &a16[st.a_range(s)];
    let b = &b16[st.b_range(s)][cols.start * kp..];
    let u0 = s * m * st.n;
    let u = &mut bufs.u[u0 + cols.start * m..u0 + cols.end * m];
    let c32 = &mut bufs.c32[..m * n];
    let mod_nanos = AtomicU64::new(0);
    let nanos = phases.is_some().then_some(&mod_nanos);
    let attribute = |t0: Instant, phases: &mut Option<&mut PhaseTimes>| {
        if let Some(ph) = phases {
            let modd = Duration::from_nanos(mod_nanos.swap(0, Ordering::Relaxed));
            ph.mod_reduce += modd;
            ph.int8_gemm += t0.elapsed().saturating_sub(modd);
        }
    };
    if k <= st.k_block {
        let t0 = Instant::now();
        st.engine
            .gemm_reduce(m, n, k, a, b, kp, 0, c32, u, p, pinv, nanos, parallel);
        attribute(t0, &mut phases);
        return 1;
    }
    let racc = &mut bufs.racc[..m * n];
    racc.fill(0);
    let mut calls = 0usize;
    let mut h0 = 0usize;
    while h0 < k {
        let kb = st.k_block.min(k - h0);
        let t0 = Instant::now();
        st.engine
            .gemm_accumulate(m, n, kb, a, b, kp, h0, c32, racc, p, pinv, nanos, parallel);
        attribute(t0, &mut phases);
        calls += 1;
        h0 += kb;
    }
    let t0 = Instant::now();
    finalize_block_residues(racc, p, pinv, u);
    if let Some(ph) = phases {
        ph.mod_reduce += t0.elapsed();
    }
    calls
}

/// Algorithm 1 lines 6–7: the loop over the `N` moduli, one
/// [`plane_gemm`] each. Every backend computes the same exact integers
/// over the same stripe decomposition and the same pool-derived
/// k-blocking, so the planes are bit-identical for every engine. With an
/// `abft` hook, each plane's checksums are captured (and the panel fault
/// seams run) before its GEMM, and the plane is verified and recovered
/// after it; the hook's time lands in `phases.verify`. Returns the engine
/// GEMMs run (recovery re-runs are counted in the hook's report).
#[allow(clippy::too_many_arguments)]
pub(crate) fn residue_stage(
    st: &Planes<'_>,
    a: &mut PanelsRef<'_>,
    b: &mut PanelsRef<'_>,
    bufs: &mut PlaneBufs<'_>,
    parallel: bool,
    mut abft: Option<&mut Abft<'_>>,
    phases: &mut PhaseTimes,
) -> usize {
    let mut calls = 0usize;
    for s in 0..st.consts.n {
        if let Some(ft) = abft.as_deref_mut() {
            let t0 = Instant::now();
            ft.before_plane(st, s, a, b);
            phases.verify += t0.elapsed();
        }
        let (a16, b16) = (a.panels(), b.panels());
        calls += plane_gemm(st, s, 0..st.n, a16, b16, bufs, parallel, Some(phases));
        if let Some(ft) = abft.as_deref_mut() {
            let t0 = Instant::now();
            ft.after_plane(st, s, a, b, bufs);
            phases.verify += t0.elapsed();
        }
    }
    calls
}

/// Where the fold writes: the f64 output, or the double-double one
/// ([`crate::dgemm_dd`]).
pub(crate) enum FoldOut<'o> {
    F64(&'o mut [f64]),
    Dd(&'o mut [Dd]),
}

/// Algorithm 1 lines 6–12 over packed panels: [`residue_stage`] — with
/// the [`Abft`] hook when `policy` is active — then the CRT fold with
/// inverse scaling into `out`. This is the shared back half of every
/// entry, which is what makes prepared and batched results bit-identical
/// to per-call [`Ozaki2::dgemm`]. Returns the engine GEMMs run and the
/// ABFT outcome (`None` under [`FaultPolicy::Off`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_panels(
    st: &Planes<'_>,
    mut a: PanelsRef<'_>,
    mut b: PanelsRef<'_>,
    exps_a: &[i32],
    exps_b: &[i32],
    mut planes: PlaneBufs<'_>,
    abft_bufs: AbftBufs<'_>,
    parallel: bool,
    policy: FaultPolicy,
    out: FoldOut<'_>,
    phases: &mut PhaseTimes,
) -> (usize, Option<FaultReport>) {
    let mut abft = policy.is_active().then(|| Abft::new(policy, abft_bufs));
    let (a, b, ft) = (&mut a, &mut b, abft.as_mut());
    let calls = residue_stage(st, a, b, &mut planes, parallel, ft, phases);
    let fault = abft.map(Abft::into_report);
    // ---- Lines 8–12: fold ------------------------------------------------
    // The folds' internal column parallelism nests safely inside an
    // inter-GEMM worker (nested regions run sequentially on the worker),
    // and their output is bit-identical for every split.
    let t0 = Instant::now();
    let (m, n, consts) = (st.m, st.n, st.consts);
    let u = &planes.u[..consts.n * m * n];
    match out {
        FoldOut::F64(out) => {
            let precision = if st.b64 {
                FoldPrecision::Double
            } else {
                FoldPrecision::Single
            };
            fold_planes(u, m, n, consts, precision, exps_a, exps_b, out);
        }
        FoldOut::Dd(out) => fold_planes_dd(u, m, n, consts, exps_a, exps_b, out),
    }
    phases.fold += t0.elapsed();
    (calls, fault)
}

/// The report every execution entry returns: `backend` is the configured
/// one (its pool sets the predicted error); the report names the engine
/// that actually ran it.
pub(crate) fn make_report(
    emu: &Ozaki2,
    backend: BackendKind,
    shape: (usize, usize, usize),
    phases: PhaseTimes,
    int8_gemm_calls: usize,
    fault: Option<FaultReport>,
) -> EmulationReport {
    EmulationReport {
        shape,
        n_moduli: emu.n_moduli,
        mode: emu.mode,
        backend: backend.engine(),
        predicted_error: predicted_error_for(backend, emu.n_moduli, shape.2),
        phases,
        int8_gemm_calls,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abft::RecoveryAction::{FullRepair, ScalarFallback};
    use gemm_dense::gemm::gemm_f64_naive;
    use gemm_dense::norms::max_relative_error;
    use gemm_dense::workload::{phi_matrix_f64, uniform_matrix_f64};
    use gemm_dense::Matrix;

    #[test]
    fn dgemm_small_uniform_high_accuracy() {
        let a = uniform_matrix_f64(24, 32, 7, 0);
        let b = uniform_matrix_f64(32, 16, 7, 1);
        let exact = gemm_f64_naive(&a, &b);
        for n in [8usize, 12, 15] {
            let c = Ozaki2::new(n, Mode::Fast).dgemm(&a, &b);
            let err = max_relative_error(&c, &exact);
            // k = 32 keeps even N = 8 well above DGEMM accuracy here.
            let budget = match n {
                8 => 1e-4,
                12 => 1e-9,
                _ => 1e-13,
            };
            assert!(err < budget, "N={n} err={err:e}");
        }
    }

    #[test]
    fn accuracy_improves_with_n() {
        let a = phi_matrix_f64(16, 48, 0.5, 3, 0);
        let b = phi_matrix_f64(48, 16, 0.5, 3, 1);
        let exact = gemm_f64_naive(&a, &b);
        let mut last = f64::INFINITY;
        for n in [4usize, 8, 12, 15] {
            let c = Ozaki2::new(n, Mode::Fast).dgemm(&a, &b);
            let err = max_relative_error(&c, &exact).max(1e-18);
            assert!(
                err < last * 2.0,
                "error should not regress: N={n} err={err:e} last={last:e}"
            );
            last = err;
        }
        assert!(
            last < 1e-12,
            "N=15 should be near double precision: {last:e}"
        );
    }

    #[test]
    fn accurate_mode_at_least_as_good_on_wide_phi() {
        let a = phi_matrix_f64(16, 32, 3.0, 11, 0);
        let b = phi_matrix_f64(32, 16, 3.0, 11, 1);
        let exact = gemm_f64_naive(&a, &b);
        let ef = max_relative_error(&Ozaki2::new(12, Mode::Fast).dgemm(&a, &b), &exact);
        let ea = max_relative_error(&Ozaki2::new(12, Mode::Accurate).dgemm(&a, &b), &exact);
        assert!(
            ea <= ef * 1.5,
            "accurate mode should not be worse: fast={ef:e} accu={ea:e}"
        );
    }

    #[test]
    fn sgemm_reaches_single_precision() {
        let a = gemm_dense::workload::phi_matrix_f32(24, 32, 0.5, 5, 0);
        let b = gemm_dense::workload::phi_matrix_f32(32, 24, 0.5, 5, 1);
        let a64 = a.map(|x| x as f64);
        let b64 = b.map(|x| x as f64);
        let exact = gemm_f64_naive(&a64, &b64);
        let c = Ozaki2::new(8, Mode::Fast).sgemm(&a, &b);
        let err = max_relative_error(&c.map(|x| x as f64), &exact);
        assert!(err < 1e-6, "err={err:e}");
    }

    #[test]
    fn rejects_nan() {
        let mut a = uniform_matrix_f64(4, 4, 1, 0);
        a[(1, 2)] = f64::NAN;
        let b = uniform_matrix_f64(4, 4, 1, 1);
        assert_eq!(
            Ozaki2::new(8, Mode::Fast)
                .gemm(GemmArgs::new(&a, &b))
                .map(|o| o.c),
            Err(EmulationError::NonFiniteInput {
                side: OperandSide::A,
                index: 9, // col-major storage offset of (1, 2) with m = 4
            })
        );
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = uniform_matrix_f64(4, 5, 1, 0);
        let b = uniform_matrix_f64(4, 4, 1, 1);
        assert_eq!(
            Ozaki2::new(8, Mode::Fast)
                .gemm(GemmArgs::new(&a, &b))
                .map(|o| o.c),
            Err(EmulationError::ShapeMismatch)
        );
    }

    #[test]
    fn sgemm_caps_n_at_18() {
        let a = gemm_dense::workload::phi_matrix_f32(4, 4, 0.5, 1, 0);
        let b = gemm_dense::workload::phi_matrix_f32(4, 4, 0.5, 1, 1);
        let r = Ozaki2::new(20, Mode::Fast).gemm(GemmArgs::new(&a, &b));
        assert_eq!(
            r.unwrap_err(),
            EmulationError::UnsupportedN { n: 20, max: 18 }
        );
    }

    #[test]
    fn report_counts_int8_gemms() {
        let a = uniform_matrix_f64(8, 8, 2, 0);
        let b = uniform_matrix_f64(8, 8, 2, 1);
        let rep = Ozaki2::new(9, Mode::Fast)
            .gemm(GemmArgs::new(&a, &b))
            .unwrap()
            .report;
        assert_eq!(rep.int8_gemm_calls, 9);
        let rep = Ozaki2::new(9, Mode::Accurate)
            .gemm(GemmArgs::new(&a, &b))
            .unwrap()
            .report;
        assert_eq!(rep.int8_gemm_calls, 10); // +1 estimation GEMM
        assert_eq!(rep.shape, (8, 8, 8));
    }

    #[test]
    fn new_assert_message_tracks_n_max() {
        // The message derives its range from N_MAX, so it can't drift from
        // the constant if the supported range ever widens.
        let err = std::panic::catch_unwind(|| Ozaki2::new(N_MAX + 1, Mode::Fast)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("assert! with format args panics with String");
        assert!(msg.contains(&format!("2..={N_MAX}")), "{msg}");
    }

    #[test]
    fn empty_inputs() {
        let a = MatF64::zeros(0, 4);
        let b = MatF64::zeros(4, 3);
        let c = Ozaki2::new(4, Mode::Fast).dgemm(&a, &b);
        assert_eq!(c.shape(), (0, 3));
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(
            MatMulF64::name(&Ozaki2::new(14, Mode::Fast)),
            "OS II-fast-14"
        );
        assert_eq!(
            MatMulF64::name(&Ozaki2::new(8, Mode::Accurate)),
            "OS II-accu-8"
        );
    }

    #[test]
    fn workspace_path_bit_identical_and_alloc_free() {
        let a = phi_matrix_f64(24, 40, 0.8, 5, 0);
        let b = phi_matrix_f64(40, 18, 0.8, 5, 1);
        let emu = Ozaki2::new(11, Mode::Fast);
        let baseline = emu.dgemm(&a, &b);
        let mut ws = Workspace::new();
        let with_ws = |a: &MatF64, b: &MatF64, ws: &mut Workspace| {
            emu.gemm(GemmArgs::new(a, b).workspace(ws)).unwrap().c
        };
        assert_eq!(with_ws(&a, &b, &mut ws), baseline);
        let steady = ws.bytes();
        assert!(steady > 0);
        for _ in 0..3 {
            assert_eq!(with_ws(&a, &b, &mut ws), baseline);
            assert_eq!(ws.bytes(), steady, "steady state must not allocate");
        }
        // A smaller problem reuses the same buffers.
        let a2 = phi_matrix_f64(8, 16, 0.8, 6, 0);
        let b2 = phi_matrix_f64(16, 8, 0.8, 6, 1);
        assert_eq!(with_ws(&a2, &b2, &mut ws), emu.dgemm(&a2, &b2));
        assert_eq!(ws.bytes(), steady);
    }

    #[test]
    fn k_blocked_path_matches_direct_reference() {
        // k just over the block limit exercises the PK-aligned depth-window
        // path over the prepacked panels, with and without the ABFT hook;
        // compare against an independently computed exact result on tiny
        // m, n (integer inputs make the reference exact).
        let k = K_BLOCK_MAX + 129;
        let (m, n, nmod) = (2usize, 2, 10);
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 60) as i64 % 3 - 1) as f64
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let mut calls = None;
        for policy in [
            FaultPolicy::Off,
            FaultPolicy::Detect,
            FaultPolicy::RetryThenScalar { max_retries: 2 },
        ] {
            let emu = Ozaki2::new(nmod, Mode::Fast).with_fault_policy(policy);
            let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
            let rep = out.report;
            assert_eq!(
                *calls.get_or_insert(rep.int8_gemm_calls),
                rep.int8_gemm_calls
            );
            // A fault the environment injects under `Detect` is recorded,
            // not repaired.
            let detected = rep.fault.as_ref().is_some_and(|f| f.detected > 0);
            if policy != FaultPolicy::Detect || !detected {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0i64;
                        for h in 0..k {
                            acc += (a[(i, h)] as i64) * (b[(h, j)] as i64);
                        }
                        assert_eq!(out.c[(i, j)], acc as f64, "{policy:?} ({i},{j})");
                    }
                }
            }
            let Some(f) = rep.fault else {
                assert_eq!(policy, FaultPolicy::Off);
                continue;
            };
            // Two checksum products per plane, two more per repair.
            let repairs = f
                .events
                .iter()
                .filter(|e| matches!(e.action, FullRepair | ScalarFallback))
                .count();
            assert_eq!(f.checksum_gemms, 2 * nmod + 2 * repairs, "{policy:?}");
        }
    }

    #[test]
    fn deterministic() {
        let a = phi_matrix_f64(16, 16, 1.0, 9, 0);
        let b = phi_matrix_f64(16, 16, 1.0, 9, 1);
        let c1 = Ozaki2::new(10, Mode::Fast).dgemm(&a, &b);
        let c2 = Ozaki2::new(10, Mode::Fast).dgemm(&a, &b);
        assert_eq!(c1, c2);
    }
}
