//! The prepare/execute split of Algorithm 1: reusable one-sided operand
//! preparations.
//!
//! Lines 1–5 of Algorithm 1 (scale-vector determination, the fused
//! trunc+convert sweep, and the engine packing) depend on only **one**
//! operand in [`Mode::Fast`] — row scales for `A`, column scales for `B`.
//! A workload that reuses an operand across many products (weight-stationary
//! inference, the shared component products of CRT complex multiplication,
//! LU panels multiplied against a stream of blocks) therefore recomputes
//! the whole front end redundantly when it goes through
//! [`Ozaki2::dgemm`] per call.
//!
//! [`PreparedOperand`] captures that front end once: the scale exponents
//! plus the `N` packed i16 residue panels, in exactly the layout the INT8
//! engine's zero-repack entry ([`gemm_engine::int8_gemm_prepacked_fused`])
//! consumes. [`Ozaki2::execute`] then runs only lines 6–12 (the
//! `N` INT8 GEMMs with fused modular reduction and the CRT fold). Both
//! halves run the very same kernels as the monolithic pipeline, so the
//! result is **bit-identical** to [`Ozaki2::dgemm`] on the same inputs —
//! the property the batched runtime (`gemm_batch`) builds its caching on.
//!
//! [`Mode::Accurate`] scales `A` and `B` jointly (one estimation GEMM over
//! both magnitudes), so a one-sided preparation cannot exist;
//! [`Ozaki2::prepare`] returns [`EmulationError::PreparationUnsupported`] for it
//! and accurate-mode batches fall back to the monolithic per-item path.

use crate::abft::PanelsRef;
use crate::consts::{constants_for, Constants};
use crate::element::Element;
use crate::facade::validate_view;
use crate::moduli::backend_n_max;
use crate::pipeline::{
    front_end_side, make_report, run_panels, EmulationError, EmulationReport, FoldOut, Mode,
    Ozaki2, PhaseTimes, Planes, Workspace, WsBuffers,
};
use gemm_dense::MatView;
use gemm_engine::{padded_a_rows, padded_b_cols, padded_depth, BackendKind};

/// Which side of the product an operand was prepared for. The sides pack
/// differently (`A` is transpose-gathered into row panels, `B` into column
/// panels), so a preparation is only valid on its own side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandSide {
    /// Left operand (`m x k`, row panels, per-row scales).
    A,
    /// Right operand (`k x n`, column panels, per-column scales).
    B,
}

/// A cached Algorithm-1 front end (lines 1–5) for one operand: scale
/// exponents plus the `N` packed i16 residue panels, ready for
/// zero-repack INT8 GEMMs.
///
/// Produced by [`Ozaki2::prepare`], consumed by [`Ozaki2::execute`].
/// Reusing a preparation across products amortizes the entire convert
/// front end — see the example below and
/// `examples/batched_inference.rs`.
///
/// # Examples
/// ```
/// use gemm_dense::workload::phi_matrix_f64;
/// use ozaki2::{Mode, OperandInput, OperandSide, Ozaki2, Workspace};
///
/// let emu = Ozaki2::new(12, Mode::Fast);
/// let b = phi_matrix_f64(48, 32, 0.5, 7, 1);
/// // Prepare the shared (weight-like) operand once...
/// let pb = emu.prepare(OperandSide::B, &b).unwrap();
/// let mut ws = Workspace::new();
/// let mut c = vec![0.0; 24 * 32];
/// for seed in 0..3 {
///     let a = phi_matrix_f64(24, 48, 0.5, seed, 0);
///     // ...and every product over it skips B's scale/trunc/convert.
///     let a_in = OperandInput::RawView(a.view());
///     emu.execute(a_in, OperandInput::Prepared(&pb), &mut ws, true, &mut c)
///         .unwrap();
///     assert_eq!(c, emu.dgemm(&a, &b).into_vec()); // bit-identical
/// }
/// ```
pub struct PreparedOperand {
    side: OperandSide,
    /// Number of logical vectors: `m` for side A, `n` for side B.
    vecs: usize,
    k: usize,
    n_moduli: usize,
    mode: Mode,
    backend: BackendKind,
    b64: bool,
    exps: Vec<i32>,
    panels: Vec<i16>,
    prepare_phases: PhaseTimes,
}

impl std::fmt::Debug for PreparedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedOperand")
            .field("side", &self.side)
            .field("shape", &self.shape())
            .field("n_moduli", &self.n_moduli)
            .field("mode", &self.mode)
            .field("backend", &self.backend)
            .field("b64", &self.b64)
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl PreparedOperand {
    /// Which side this preparation is for.
    pub fn side(&self) -> OperandSide {
        self.side
    }

    /// Logical operand shape: `(m, k)` for side A, `(k, n)` for side B.
    pub fn shape(&self) -> (usize, usize) {
        match self.side {
            OperandSide::A => (self.vecs, self.k),
            OperandSide::B => (self.k, self.vecs),
        }
    }

    /// Moduli count the panels were reduced against.
    pub fn n_moduli(&self) -> usize {
        self.n_moduli
    }

    /// Scaling mode (always [`Mode::Fast`]; accurate mode cannot prepare).
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Residue backend whose moduli pool reduced the panels. A
    /// preparation is only valid on an emulator configured for the same
    /// backend: the pools share no layout, so the panels are
    /// meaningless — not merely slower — under another backend's moduli.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// `true` when prepared with the DGEMM (`b = 64`) conversion
    /// thresholds, `false` for the SGEMM (`b = 32`) ones.
    pub fn is_f64(&self) -> bool {
        self.b64
    }

    /// Heap footprint in bytes (panels + exponents) — what a cache charges
    /// for keeping this preparation alive.
    pub fn bytes(&self) -> usize {
        self.panels.capacity() * 2 + self.exps.capacity() * 4
    }

    /// Wall-clock the preparation spent in the front-end phases (line 1
    /// in `scale`, lines 2–5 split across `trunc`/`convert`). Consumers
    /// report amortized front-end share with this.
    pub fn prepare_phases(&self) -> PhaseTimes {
        self.prepare_phases
    }

    /// Total preparation wall-clock in seconds.
    pub fn prepare_seconds(&self) -> f64 {
        self.prepare_phases.total().as_secs_f64()
    }
}

/// One operand of [`Ozaki2::execute`]: either a raw view whose front end
/// (lines 1–5) is computed into the caller's [`Workspace`] panel buffers —
/// the zero-allocation streaming path — or an already-prepared operand
/// whose cached panels are borrowed.
#[derive(Clone, Copy)]
pub enum OperandInput<'a> {
    /// A raw borrowed strided view (any layout / leading dimension /
    /// transpose): `m x k` on side A, `k x n` on side B. The fused sweep
    /// gathers straight from it into the workspace's reusable panel
    /// buffers, so repeated calls copy and allocate nothing.
    RawView(MatView<'a, f64>),
    /// A cached preparation (panels borrowed, front end skipped).
    Prepared(&'a PreparedOperand),
}

impl OperandInput<'_> {
    /// Logical operand shape: `(m, k)` on side A, `(k, n)` on side B.
    fn shape(&self) -> (usize, usize) {
        match self {
            OperandInput::RawView(v) => v.shape(),
            OperandInput::Prepared(p) => p.shape(),
        }
    }
}

impl Ozaki2 {
    /// Prepare one operand for reuse: Algorithm 1 lines 1–5 (one-sided
    /// fast-mode scales, then the fused trunc+convert sweep) over a
    /// borrowed view of `A` (`side = A`, row panels) or `B` (`side = B`,
    /// column panels). Accepts `&Matrix<T>` or any [`MatView`] — strided,
    /// transposed or row-major — with zero operand copies; f32 operands
    /// are widened exactly inside the sweep and use the SGEMM thresholds.
    /// See [`PreparedOperand`].
    ///
    /// # Errors
    /// [`EmulationError::PreparationUnsupported`] in [`Mode::Accurate`]
    /// (which scales jointly), [`EmulationError::UnsupportedN`] when `N`
    /// exceeds the precision's range, and
    /// [`EmulationError::NonFiniteInput`].
    pub fn prepare<'v, T: Element>(
        &self,
        side: OperandSide,
        v: impl Into<MatView<'v, T>>,
    ) -> Result<PreparedOperand, EmulationError> {
        let view = v.into();
        if self.mode() != Mode::Fast {
            return Err(EmulationError::PreparationUnsupported { mode: self.mode() });
        }
        let n_max = backend_n_max(self.backend(), !T::IS_F64);
        if self.n_moduli() > n_max {
            return Err(EmulationError::UnsupportedN {
                n: self.n_moduli(),
                max: n_max,
            });
        }
        validate_view(&view, side)?;
        let (vecs, k, vecs_pad) = match side {
            OperandSide::A => (view.rows(), view.cols(), padded_a_rows(view.rows())),
            OperandSide::B => (view.cols(), view.rows(), padded_b_cols(view.cols())),
        };
        let consts: &Constants = constants_for(self.backend(), self.n_moduli());
        let mut phases = PhaseTimes::default();
        let obs_start = gemm_obs::now_ns();
        let mut panels = vec![0i16; consts.n * vecs_pad * padded_depth(k)];
        let exps = front_end_side(
            &view,
            side,
            consts,
            T::IS_F64,
            true,
            &mut panels,
            &mut phases,
        );
        crate::pipeline::obs_record_phases(obs_start, &phases);
        gemm_obs::catalog::PREPARED_OPERANDS.inc();
        Ok(PreparedOperand {
            side,
            vecs,
            k,
            n_moduli: consts.n,
            mode: self.mode(),
            backend: self.backend(),
            b64: T::IS_F64,
            exps,
            panels,
            prepare_phases: phases,
        })
    }

    /// Run Algorithm 1 over two operands, each raw or prepared, into a
    /// caller-owned column-major `m x n` output slice (fully
    /// overwritten). The shape comes from the inputs. Raw sides run lines
    /// 1–5 into the caller's [`Workspace`] panel buffers; prepared sides
    /// skip them. The weight-stationary serving loop runs here (prepared
    /// `B`, raw streaming `A`) with zero allocation per call beyond the
    /// grow-once workspace, bit-identical to [`Ozaki2::dgemm`].
    ///
    /// With a prepared side of SGEMM precision, raw sides must carry
    /// exactly-widened f32 data (their conversion then uses the `b = 32`
    /// thresholds too). `parallel` gates the internal parallel regions so
    /// an inter-GEMM scheduler can run many single-threaded items
    /// concurrently; the result is bit-identical either way.
    ///
    /// # Errors
    /// [`EmulationError::PreparationUnsupported`] outside [`Mode::Fast`];
    /// [`EmulationError::PreparedMismatch`] for a preparation on the wrong
    /// side or from another `N`, mode, backend or precision;
    /// [`EmulationError::ShapeMismatch`] when the inner dimensions disagree
    /// or `out.len() != m * n`; [`EmulationError::NonFiniteInput`] for a
    /// raw side.
    pub fn execute(
        &self,
        a: OperandInput<'_>,
        b: OperandInput<'_>,
        ws: &mut Workspace,
        parallel: bool,
        out: &mut [f64],
    ) -> Result<EmulationReport, EmulationError> {
        if self.mode() != Mode::Fast {
            return Err(EmulationError::PreparationUnsupported { mode: self.mode() });
        }
        for (input, side) in [(&a, OperandSide::A), (&b, OperandSide::B)] {
            if let OperandInput::Prepared(p) = input {
                if p.side != side {
                    return Err(EmulationError::PreparedMismatch {
                        reason: "operand prepared for the other side",
                    });
                }
            }
        }
        let (m, k) = a.shape();
        let (kb, n) = b.shape();
        if kb != k || out.len() != m * n {
            return Err(EmulationError::ShapeMismatch);
        }
        // Precision: prepared sides dictate; raw-only executions are DGEMM.
        let b64 = match (&a, &b) {
            (OperandInput::Prepared(p), _) | (_, OperandInput::Prepared(p)) => p.b64,
            _ => true,
        };
        for (input, side) in [(&a, OperandSide::A), (&b, OperandSide::B)] {
            match input {
                OperandInput::Prepared(p) => self.check_prepared(p, b64)?,
                OperandInput::RawView(v) => validate_view(v, side)?,
            }
        }

        let backend = self.backend();
        let consts: &Constants = constants_for(backend, self.n_moduli());
        let nmod = consts.n;
        let policy = self.fault_policy();
        let mut phases = PhaseTimes::default();
        if m == 0 || n == 0 || k == 0 {
            out.fill(0.0);
            let fault = policy.is_active().then(crate::abft::FaultReport::default);
            return Ok(make_report(self, backend, (m, n, k), phases, 0, fault));
        }

        let obs_start = gemm_obs::now_ns();
        if matches!(a, OperandInput::RawView(_)) {
            ws.reserve_a(m, k, nmod);
        }
        if matches!(b, OperandInput::RawView(_)) {
            ws.reserve_b(n, k, nmod);
        }
        ws.reserve_exec(m, n, k, nmod);
        if policy.is_active() {
            ws.reserve_abft(m, n, k);
        }
        let WsBuffers {
            a16,
            b16,
            planes,
            abft,
            ..
        } = ws.buffers();
        let kp = padded_depth(k);

        // Front end for the raw sides only — exactly the line-1 scales and
        // fused lines-2–5 sweep of `gemm_into`, into the workspace's
        // reusable panel buffers.
        let exps_a_own: Vec<i32>;
        let exps_b_own: Vec<i32>;
        let (a_ref, exps_a): (PanelsRef<'_>, &[i32]) = match &a {
            OperandInput::Prepared(p) => (PanelsRef::Fixed(&p.panels), &p.exps),
            OperandInput::RawView(v) => {
                let a16 = &mut a16[..nmod * padded_a_rows(m) * kp];
                let side = OperandSide::A;
                exps_a_own = front_end_side(v, side, consts, b64, parallel, a16, &mut phases);
                (PanelsRef::raw(a16, v, side, &exps_a_own), &exps_a_own)
            }
        };
        let (b_ref, exps_b): (PanelsRef<'_>, &[i32]) = match &b {
            OperandInput::Prepared(p) => (PanelsRef::Fixed(&p.panels), &p.exps),
            OperandInput::RawView(v) => {
                let b16 = &mut b16[..nmod * padded_b_cols(n) * kp];
                let side = OperandSide::B;
                exps_b_own = front_end_side(v, side, consts, b64, parallel, b16, &mut phases);
                (PanelsRef::raw(b16, v, side, &exps_b_own), &exps_b_own)
            }
        };

        let (calls, fault) = run_panels(
            &Planes::new((m, n, k), consts, b64, backend),
            a_ref,
            b_ref,
            exps_a,
            exps_b,
            planes,
            abft,
            parallel,
            policy,
            FoldOut::F64(out),
            &mut phases,
        );
        let report = make_report(self, backend, (m, n, k), phases, calls, fault);
        crate::pipeline::obs_record_report(obs_start, &report);
        Ok(report)
    }

    /// A preparation executes only on an emulator with its own `N`, mode
    /// and backend, and beside an operand of the same precision.
    fn check_prepared(&self, p: &PreparedOperand, b64: bool) -> Result<(), EmulationError> {
        let reason = if p.n_moduli != self.n_moduli() {
            "moduli count differs from the executing emulator"
        } else if p.mode != self.mode() {
            "scaling mode differs from the executing emulator"
        } else if p.backend != self.backend() {
            "residue backend differs from the executing emulator"
        } else if p.b64 != b64 {
            "precision (one operand prepared for DGEMM, the other for SGEMM)"
        } else {
            return Ok(());
        };
        Err(EmulationError::PreparedMismatch { reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::norms::max_relative_error;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_dense::{MatF64, Matrix};
    use std::time::Duration;

    /// `prepare`, panicking on error.
    fn prep(emu: &Ozaki2, side: OperandSide, x: &MatF64) -> PreparedOperand {
        emu.prepare(side, x).unwrap()
    }

    /// `execute` over two preparations into a fresh output matrix.
    fn exec(
        emu: &Ozaki2,
        pa: &PreparedOperand,
        pb: &PreparedOperand,
    ) -> Result<MatF64, EmulationError> {
        let mut c = Matrix::zeros(pa.shape().0, pb.shape().1);
        emu.execute(
            OperandInput::Prepared(pa),
            OperandInput::Prepared(pb),
            &mut Workspace::new(),
            true,
            c.as_mut_slice(),
        )
        .map(|_| c)
    }

    #[test]
    fn prepared_matches_dgemm_bitwise() {
        for (m, n, k) in [
            (1usize, 1usize, 1usize),
            (7, 5, 9),
            (24, 18, 40),
            (33, 47, 65),
        ] {
            let a = phi_matrix_f64(m, k, 0.7, 11, 0);
            let b = phi_matrix_f64(k, n, 0.7, 11, 1);
            for nmod in [4usize, 13, 15] {
                let emu = Ozaki2::new(nmod, Mode::Fast);
                let pa = prep(&emu, OperandSide::A, &a);
                let pb = prep(&emu, OperandSide::B, &b);
                let got = exec(&emu, &pa, &pb).unwrap();
                assert_eq!(got, emu.dgemm(&a, &b), "m={m} n={n} k={k} N={nmod}");
            }
        }
    }

    #[test]
    fn prepared_reuse_across_partners() {
        // One prepared B against a stream of As — every product must match
        // the monolithic pipeline exactly.
        let (m, n, k) = (16usize, 12, 28);
        let emu = Ozaki2::new(15, Mode::Fast);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1);
        let pb = prep(&emu, OperandSide::B, &b);
        let mut ws = Workspace::new();
        for seed in 0..5u64 {
            let a = phi_matrix_f64(m, k, 0.5, seed, 0);
            let pa = prep(&emu, OperandSide::A, &a);
            for parallel in [false, true] {
                let mut out = vec![f64::NAN; m * n];
                emu.execute(
                    OperandInput::Prepared(&pa),
                    OperandInput::Prepared(&pb),
                    &mut ws,
                    parallel,
                    &mut out,
                )
                .unwrap();
                assert_eq!(out, emu.dgemm(&a, &b).into_vec(), "seed={seed}");
            }
        }
    }

    #[test]
    fn prepared_slice_equals_matrix_form() {
        let (m, n, k) = (9usize, 14, 21);
        let a = phi_matrix_f64(m, k, 1.2, 5, 0);
        let b = phi_matrix_f64(k, n, 1.2, 5, 1);
        let emu = Ozaki2::new(10, Mode::Fast);
        let pa = emu
            .prepare(OperandSide::A, MatView::col_major(a.as_slice(), m, k))
            .unwrap();
        let pb = emu
            .prepare(OperandSide::B, MatView::col_major(b.as_slice(), k, n))
            .unwrap();
        assert_eq!(exec(&emu, &pa, &pb).unwrap(), emu.dgemm(&a, &b));
    }

    #[test]
    fn prepared_f32_matches_sgemm() {
        let (m, n, k) = (12usize, 10, 20);
        let a = phi_matrix_f32(m, k, 0.5, 2, 0);
        let b = phi_matrix_f32(k, n, 0.5, 2, 1);
        let emu = Ozaki2::new(8, Mode::Fast);
        let pa = emu.prepare(OperandSide::A, &a).unwrap();
        let pb = emu.prepare(OperandSide::B, &b).unwrap();
        let mut out = vec![0f64; m * n];
        emu.execute(
            OperandInput::Prepared(&pa),
            OperandInput::Prepared(&pb),
            &mut Workspace::new(),
            true,
            &mut out,
        )
        .unwrap();
        let got: Vec<f32> = out.iter().map(|&x| x as f32).collect();
        assert_eq!(got, emu.sgemm(&a, &b).into_vec());
    }

    #[test]
    fn mixed_raw_a_prepared_b_matches_dgemm_alloc_free() {
        // The weight-stationary serving path: prepared B, streaming raw A
        // converted into the reusable workspace. Bit-identical, and the
        // workspace stops growing after the first item.
        let (m, n, k) = (24usize, 20, 36);
        let emu = Ozaki2::new(15, Mode::Fast);
        let b = phi_matrix_f64(k, n, 0.5, 7, 1);
        let pb = prep(&emu, OperandSide::B, &b);
        let mut ws = Workspace::new();
        let mut out = vec![0f64; m * n];
        let mut steady = 0usize;
        for seed in 0..5u64 {
            let a = phi_matrix_f64(m, k, 0.5, seed, 0);
            emu.execute(
                OperandInput::RawView(a.view()),
                OperandInput::Prepared(&pb),
                &mut ws,
                true,
                &mut out,
            )
            .unwrap();
            assert_eq!(out, emu.dgemm(&a, &b).into_vec(), "seed={seed}");
            if seed == 0 {
                steady = ws.bytes();
            } else {
                assert_eq!(ws.bytes(), steady, "steady state must not allocate");
            }
        }
    }

    #[test]
    fn mixed_both_raw_matches_dgemm() {
        let (m, n, k) = (11usize, 13, 17);
        let emu = Ozaki2::new(10, Mode::Fast);
        let a = phi_matrix_f64(m, k, 0.9, 2, 0);
        let b = phi_matrix_f64(k, n, 0.9, 2, 1);
        let mut out = vec![0f64; m * n];
        for parallel in [false, true] {
            emu.execute(
                OperandInput::RawView(a.view()),
                OperandInput::RawView(b.view()),
                &mut Workspace::new(),
                parallel,
                &mut out,
            )
            .unwrap();
            assert_eq!(out, emu.dgemm(&a, &b).into_vec(), "parallel={parallel}");
        }
    }

    #[test]
    fn execute_rejects_a_wrong_output_length() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = phi_matrix_f64(4, 6, 0.5, 1, 0);
        let b = phi_matrix_f64(6, 5, 0.5, 1, 1);
        let mut out = vec![0f64; 4 * 5 - 1];
        assert_eq!(
            emu.execute(
                OperandInput::RawView(a.view()),
                OperandInput::RawView(b.view()),
                &mut Workspace::new(),
                true,
                &mut out,
            )
            .unwrap_err(),
            EmulationError::ShapeMismatch
        );
    }

    #[test]
    fn accurate_mode_cannot_prepare() {
        let a = phi_matrix_f64(4, 4, 0.5, 1, 0);
        let emu = Ozaki2::new(8, Mode::Accurate);
        assert_eq!(
            emu.prepare(OperandSide::A, &a).unwrap_err(),
            EmulationError::PreparationUnsupported {
                mode: Mode::Accurate
            }
        );
    }

    #[test]
    fn mismatches_are_rejected() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = phi_matrix_f64(4, 6, 0.5, 1, 0);
        let b = phi_matrix_f64(6, 5, 0.5, 1, 1);
        let pa = prep(&emu, OperandSide::A, &a);
        let pb = prep(&emu, OperandSide::B, &b);
        // Sides swapped.
        assert!(matches!(
            exec(&emu, &pb, &pa),
            Err(EmulationError::PreparedMismatch { .. })
        ));
        // Inner dimension mismatch.
        let b_bad = phi_matrix_f64(7, 5, 0.5, 1, 1);
        let pb_bad = prep(&emu, OperandSide::B, &b_bad);
        assert_eq!(
            exec(&emu, &pa, &pb_bad).unwrap_err(),
            EmulationError::ShapeMismatch
        );
        // Moduli mismatch with the executing emulator.
        let other = Ozaki2::new(9, Mode::Fast);
        assert!(matches!(
            exec(&other, &pa, &pb),
            Err(EmulationError::PreparedMismatch { .. })
        ));
        // Precision mismatch.
        let bf = phi_matrix_f32(6, 5, 0.5, 1, 1);
        let pb_f32 = emu.prepare(OperandSide::B, &bf).unwrap();
        assert!(matches!(
            exec(&emu, &pa, &pb_f32),
            Err(EmulationError::PreparedMismatch { .. })
        ));
    }

    #[test]
    fn prepared_empty_shapes() {
        let emu = Ozaki2::new(4, Mode::Fast);
        let a = MatF64::zeros(0, 5);
        let b = MatF64::zeros(5, 3);
        let pa = prep(&emu, OperandSide::A, &a);
        let pb = prep(&emu, OperandSide::B, &b);
        let c = exec(&emu, &pa, &pb).unwrap();
        assert_eq!(c.shape(), (0, 3));
        // k = 0: product is all zeros.
        let a0 = MatF64::zeros(2, 0);
        let b0 = MatF64::zeros(0, 3);
        let c0 = exec(
            &emu,
            &prep(&emu, OperandSide::A, &a0),
            &prep(&emu, OperandSide::B, &b0),
        )
        .unwrap();
        assert!(c0.iter().all(|&x| x == 0.0));
        assert_eq!(c0.shape(), (2, 3));
    }

    #[test]
    fn prepare_records_front_end_phases() {
        let a = phi_matrix_f64(64, 96, 0.5, 9, 0);
        let emu = Ozaki2::new(15, Mode::Fast);
        let pa = prep(&emu, OperandSide::A, &a);
        let ph = pa.prepare_phases();
        assert!(ph.scale.as_nanos() > 0);
        assert!(ph.trunc + ph.convert > Duration::from_nanos(0));
        assert!(pa.prepare_seconds() > 0.0);
        assert!(pa.bytes() >= 15 * 64 * 96 * 2);
    }

    #[test]
    fn prepared_accuracy_sanity() {
        // Not just bit-identity to the pipeline — the result is also right.
        let (m, n, k) = (20usize, 20, 32);
        let a = phi_matrix_f64(m, k, 0.5, 4, 0);
        let b = phi_matrix_f64(k, n, 0.5, 4, 1);
        let emu = Ozaki2::new(15, Mode::Fast);
        let pa = prep(&emu, OperandSide::A, &a);
        let pb = prep(&emu, OperandSide::B, &b);
        let c = exec(&emu, &pa, &pb).unwrap();
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        assert!(max_relative_error(&c, &exact) < 1e-12);
    }
}
