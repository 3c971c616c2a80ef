//! §6 extension: "Ozaki scheme II … can also be extended to matrix
//! multiplication using arbitrary combinations of floating-point formats,
//! including both homogeneous (e.g., double-double) and heterogeneous
//! (e.g., FP16 and FP32) types."
//!
//! [`dgemm_dd`] gives a **double-double output**: the CRT fold is
//! evaluated in DD arithmetic instead of the FMA chain of line 11, so the
//! reconstruction keeps ~`β + 53` bits of each weight. The result is
//! accurate beyond FP64: the limit becomes the Step-2 truncation
//! (~`2·p_fast - log2 k` bits), e.g. ~68 bits at `N = 20`. It runs the
//! pipeline's own stages (`front_end`, then `run_panels` with its ABFT
//! hook); only the fold's output type differs.
//!
//! Heterogeneous inputs need no entry of their own: widening f32 to f64
//! is exact, so an FP64 × FP32 product is [`crate::Ozaki2::dgemm`] on the
//! widened operand.

use crate::abft::PanelsRef;
use crate::consts::constants_for;
use crate::facade::validate_view;
use crate::pipeline::{
    front_end, run_panels, EmulationError, FoldOut, Ozaki2, PhaseTimes, Planes, Workspace,
    WsBuffers,
};
use crate::prepared::OperandSide;
use gemm_dense::{MatF64, Matrix};
use gemm_exact::Dd;

/// Emulated product with a double-double result: `C ≈ A·B` to ~`2·p_fast`
/// bits (beyond FP64 for large `N`). Like every other entry it runs on
/// `emu`'s moduli count, mode, fault policy and backend. Any `k` is
/// supported: past the pool's block limit the residue GEMMs run the
/// pipeline's block path.
///
/// # Errors
/// [`EmulationError::ShapeMismatch`] when the inner dimensions disagree,
/// and [`EmulationError::NonFiniteInput`].
pub fn dgemm_dd(emu: &Ozaki2, a: &MatF64, b: &MatF64) -> Result<Matrix<Dd>, EmulationError> {
    let (m, k) = a.shape();
    let n = b.cols();
    if b.rows() != k {
        return Err(EmulationError::ShapeMismatch);
    }
    let (a, b) = (a.view(), b.view());
    validate_view(&a, OperandSide::A)?;
    validate_view(&b, OperandSide::B)?;
    let mut out = Matrix::<Dd>::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(out);
    }
    let consts = constants_for(emu.backend(), emu.n_moduli());
    let policy = emu.fault_policy();
    let mut ws = Workspace::new();
    ws.reserve(m, n, k, consts.n);
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
    let mut phases = PhaseTimes::default();
    let (exps_a, exps_b, _) = front_end(&a, &b, emu.mode(), consts, true, a16, b16, &mut phases);
    run_panels(
        &Planes::new((m, n, k), consts, true, emu.backend()),
        PanelsRef::raw(a16, &a, OperandSide::A, &exps_a),
        PanelsRef::raw(b16, &b, OperandSide::B, &exps_b),
        &exps_a,
        &exps_b,
        planes,
        abft,
        true,
        policy,
        FoldOut::Dd(out.as_mut_slice()),
        &mut phases,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moduli::backend_n_max;
    use crate::pipeline::Mode;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_engine::BackendKind;
    use gemm_exact::dd_gemm;

    fn dd_rel_err(got: &Matrix<Dd>, want: &Matrix<Dd>) -> f64 {
        got.iter()
            .zip(want.iter())
            .map(|(g, w)| {
                let denom = w.to_f64().abs().max(1e-300);
                g.sub(*w).to_f64().abs() / denom
            })
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn dd_output_beats_f64_output() {
        let (m, n, k) = (24, 24, 48);
        let a = phi_matrix_f64(m, k, 0.5, 123, 0);
        let b = phi_matrix_f64(k, n, 0.5, 123, 1);
        let oracle = dd_gemm(&a, &b);
        let emu = Ozaki2::new(20, Mode::Fast);
        let dd = dgemm_dd(&emu, &a, &b).unwrap();
        let plain = emu.dgemm(&a, &b);
        let e_dd = dd_rel_err(&dd, &oracle);
        let e_plain = gemm_exact::max_rel_error_vs_dd(&plain, &oracle);
        assert!(
            e_dd < 1e-17,
            "DD output should be beyond double precision: {e_dd:e}"
        );
        assert!(
            e_dd < e_plain,
            "DD fold ({e_dd:e}) must beat the f64 fold ({e_plain:e})"
        );
    }

    #[test]
    fn dd_output_converges_with_n() {
        // On every pool, up to the pool's largest N.
        let (m, n, k) = (12, 12, 24);
        let a = phi_matrix_f64(m, k, 0.5, 5, 0);
        let b = phi_matrix_f64(k, n, 0.5, 5, 1);
        let oracle = dd_gemm(&a, &b);
        for backend in BackendKind::ALL {
            let max = backend_n_max(backend, false);
            let mut last = f64::INFINITY;
            for nmod in [max - 10, max - 6, max - 2, max] {
                let emu = Ozaki2::new(nmod, Mode::Fast).with_backend(backend);
                let dd = dgemm_dd(&emu, &a, &b).unwrap();
                let e = dd_rel_err(&dd, &oracle).max(1e-25);
                assert!(e < last * 4.0, "{backend} N={nmod}: {e:e} vs {last:e}");
                last = e;
            }
        }
    }

    #[test]
    fn heterogeneous_products_work() {
        // FP64 x FP32 is `dgemm` on the exactly widened f32 operand.
        let (m, n, k) = (16, 16, 32);
        let a = phi_matrix_f64(m, k, 0.5, 9, 0);
        let b32 = phi_matrix_f32(k, n, 0.5, 9, 1);
        let emu = Ozaki2::new(14, Mode::Fast);
        let c = emu.dgemm(&a, &b32.map(|x| x as f64));
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b32.map(|x| x as f64));
        let err = gemm_dense::norms::max_relative_error(&c, &exact);
        assert!(err < 1e-9, "err={err:e}");

        let c2 = emu.dgemm(&b32.transpose().map(|x| x as f64), &a.transpose());
        assert_eq!(c2.shape(), (n, m));
    }

    /// FNV-1a over the (hi, lo) bits of `dgemm_dd` outputs on three shapes
    /// (one past the AMX kernel's 1024-deep window, one tiny).
    fn dd_digest(mode: Mode) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (m, k, n, phi, nmod) in [
            (37usize, 150usize, 29usize, 0.5, 20usize),
            (20, 1100, 18, 2.0, 14),
            (5, 3, 7, 0.5, 8),
        ] {
            let a = phi_matrix_f64(m, k, phi, 71, 0);
            let b = phi_matrix_f64(k, n, phi, 72, 1);
            for x in dgemm_dd(&Ozaki2::new(nmod, mode), &a, &b).unwrap().iter() {
                eat(x.hi.to_bits());
                eat(x.lo.to_bits());
            }
        }
        h
    }

    #[test]
    fn dd_output_digest_is_pinned() {
        // Computed with the unfused kernel chain (`scale_trunc_*` →
        // `residue_planes` → `int8_gemm_rm_cm` → `reduce_plane`): the
        // shared pipeline stages produce the same bits in both modes.
        assert_eq!(dd_digest(Mode::Fast), 0x9e5b_7a94_0f21_8ff0);
        assert_eq!(dd_digest(Mode::Accurate), 0xc193_27f8_48d0_8a68);
    }

    #[test]
    fn dd_handles_k_past_the_block_limit() {
        // k = 2^17 + 3 runs the block path; small integer inputs make the
        // exact product representable, so the DD result is (value, 0).
        let k = crate::K_BLOCK_MAX + 3;
        let a = Matrix::from_fn(2, k, |i, h| ((i + h) % 3) as f64 - 1.0);
        let b = Matrix::from_fn(k, 2, |h, j| ((h * 7 + j) % 5) as f64 - 2.0);
        let dd = dgemm_dd(&Ozaki2::new(10, Mode::Fast), &a, &b).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let exact: i64 = (0..k).map(|h| a[(i, h)] as i64 * b[(h, j)] as i64).sum();
                assert_eq!(dd[(i, j)].hi, exact as f64, "({i},{j})");
                assert_eq!(dd[(i, j)].lo, 0.0);
            }
        }
    }

    #[test]
    fn dd_returns_typed_errors() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = phi_matrix_f64(3, 4, 0.5, 1, 0);
        let b = phi_matrix_f64(5, 2, 0.5, 1, 1);
        assert_eq!(
            dgemm_dd(&emu, &a, &b).unwrap_err(),
            EmulationError::ShapeMismatch
        );
        let mut b4 = phi_matrix_f64(4, 2, 0.5, 1, 1);
        b4[(1, 1)] = f64::INFINITY;
        assert_eq!(
            dgemm_dd(&emu, &a, &b4).unwrap_err(),
            EmulationError::NonFiniteInput {
                side: OperandSide::B,
                index: 5,
            }
        );
    }

    #[test]
    fn dd_integer_products_have_zero_lo() {
        // Small integer products are exactly representable: the DD result
        // must be (value, 0).
        let a = Matrix::from_fn(4, 6, |i, j| (i as f64) - (j as f64));
        let b = Matrix::from_fn(6, 4, |i, j| (2 * i) as f64 - j as f64);
        let dd = dgemm_dd(&Ozaki2::new(8, Mode::Fast), &a, &b).unwrap();
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        for (g, w) in dd.iter().zip(exact.iter()) {
            assert_eq!(g.hi, *w);
            assert_eq!(g.lo, 0.0);
        }
    }
}
