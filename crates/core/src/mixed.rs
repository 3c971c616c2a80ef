//! §6 extension: "Ozaki scheme II … can also be extended to matrix
//! multiplication using arbitrary combinations of floating-point formats,
//! including both homogeneous (e.g., double-double) and heterogeneous
//! (e.g., FP16 and FP32) types."
//!
//! [`dgemm_dd`] gives a **double-double output**: the CRT fold is
//! evaluated in DD arithmetic instead of the FMA chain of line 11, so the
//! reconstruction keeps ~`β + 53` bits of each weight. The result is
//! accurate beyond FP64: the limit becomes the Step-2 truncation
//! (~`2·p_fast - log2 k` bits), e.g. ~68 bits at `N = 20`. Lines 1–7 are
//! the pipeline's own stages ([`crate::pipeline::front_end`] and
//! [`crate::pipeline::residue_stage`]); only the fold differs.
//!
//! Heterogeneous inputs need no entry of their own: widening f32 to f64
//! is exact, so an FP64 × FP32 product is [`crate::Ozaki2::dgemm`] on the
//! widened operand.

use crate::consts::constants_for;
use crate::facade::validate_view;
use crate::moduli::N_MAX;
use crate::pipeline::{front_end, residue_stage, EmulationError, Mode, PhaseTimes, Workspace};
use crate::prepared::OperandSide;
use crate::scale::scale_by_pow2;
use gemm_dense::{MatF64, Matrix};
use gemm_engine::BackendKind;
use gemm_exact::Dd;
use rayon::prelude::*;

/// Emulated product with a double-double result: `C ≈ A·B` to ~`2·p_fast`
/// bits (beyond FP64 for large `N`), on the INT8 pool. Any `k` is
/// supported: past `2^17` the residue GEMMs run the pipeline's block path.
///
/// # Errors
/// [`EmulationError::UnsupportedN`] for `N` outside `2..=`[`N_MAX`],
/// [`EmulationError::ShapeMismatch`] when the inner dimensions disagree,
/// and [`EmulationError::NonFiniteInput`].
pub fn dgemm_dd(
    a: &MatF64,
    b: &MatF64,
    n_moduli: usize,
    mode: Mode,
) -> Result<Matrix<Dd>, EmulationError> {
    if !(2..=N_MAX).contains(&n_moduli) {
        return Err(EmulationError::UnsupportedN {
            n: n_moduli,
            max: N_MAX,
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    if b.rows() != k {
        return Err(EmulationError::ShapeMismatch);
    }
    let (a, b) = (a.view(), b.view());
    validate_view(&a, OperandSide::A)?;
    validate_view(&b, OperandSide::B)?;
    let consts = constants_for(BackendKind::Int8, n_moduli);
    let nmod = consts.n;
    let plane = m * n;
    let mut out = Matrix::<Dd>::zeros(m, n);
    if plane == 0 || k == 0 {
        return Ok(out);
    }

    let mut ws = Workspace::new();
    ws.reserve(m, n, k, nmod);
    let bufs = ws.buffers();
    let mut phases = PhaseTimes::default();
    let (exps_a, exps_b, _) =
        front_end(&a, &b, mode, consts, true, bufs.a16, bufs.b16, &mut phases);
    let engine = BackendKind::Int8.engine().backend();
    let s = bufs.scratch;
    residue_stage(
        m,
        n,
        k,
        consts,
        engine,
        bufs.a16,
        bufs.b16,
        s.u,
        s.c32,
        s.racc,
        true,
        &mut phases,
    );
    let u = &s.u[..nmod * plane];

    // DD fold: c = Σ (s1 + s2)·u - P·Q, everything in double-double.
    let p_dd = Dd::renorm(consts.p1, consts.p2);
    out.as_mut_slice()
        .par_chunks_mut(m)
        .enumerate()
        .for_each(|(j, out_col)| {
            let col_off = j * m;
            for (i, o) in out_col.iter_mut().enumerate() {
                let idx = col_off + i;
                let mut c1 = 0.0f64; // exact by the β construction
                let mut c2 = Dd::ZERO;
                for s in 0..nmod {
                    let us = u[s * plane + idx] as f64;
                    c1 += consts.s1[s] * us;
                    c2 = c2.fma_acc(consts.s2[s], us);
                }
                let q = (consts.p_inv * c1).round();
                let cpp = c2.add_f64(c1).sub(p_dd.mul_f64(q));
                let e = -(exps_a[i] + exps_b[j]);
                // Exact power-of-two scaling of both components.
                *o = Dd {
                    hi: scale_by_pow2(cpp.hi, e),
                    lo: scale_by_pow2(cpp.lo, e),
                };
            }
        });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
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
        let dd = dgemm_dd(&a, &b, 20, Mode::Fast).unwrap();
        let plain = crate::Ozaki2::new(20, Mode::Fast).dgemm(&a, &b);
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
        let (m, n, k) = (12, 12, 24);
        let a = phi_matrix_f64(m, k, 0.5, 5, 0);
        let b = phi_matrix_f64(k, n, 0.5, 5, 1);
        let oracle = dd_gemm(&a, &b);
        let mut last = f64::INFINITY;
        for nmod in [10usize, 14, 18, 20] {
            let dd = dgemm_dd(&a, &b, nmod, Mode::Fast).unwrap();
            let e = dd_rel_err(&dd, &oracle).max(1e-25);
            assert!(e < last * 4.0, "N={nmod}: {e:e} vs {last:e}");
            last = e;
        }
    }

    #[test]
    fn heterogeneous_products_work() {
        // FP64 x FP32 is `dgemm` on the exactly widened f32 operand.
        let (m, n, k) = (16, 16, 32);
        let a = phi_matrix_f64(m, k, 0.5, 9, 0);
        let b32 = phi_matrix_f32(k, n, 0.5, 9, 1);
        let emu = crate::Ozaki2::new(14, Mode::Fast);
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
            for x in dgemm_dd(&a, &b, nmod, mode).unwrap().iter() {
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
        let dd = dgemm_dd(&a, &b, 10, Mode::Fast).unwrap();
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
        let a = phi_matrix_f64(3, 4, 0.5, 1, 0);
        let b = phi_matrix_f64(5, 2, 0.5, 1, 1);
        assert_eq!(
            dgemm_dd(&a, &b, 8, Mode::Fast).unwrap_err(),
            EmulationError::ShapeMismatch
        );
        let mut b4 = phi_matrix_f64(4, 2, 0.5, 1, 1);
        assert_eq!(
            dgemm_dd(&a, &b4, 1, Mode::Fast).unwrap_err(),
            EmulationError::UnsupportedN { n: 1, max: N_MAX }
        );
        b4[(1, 1)] = f64::INFINITY;
        assert_eq!(
            dgemm_dd(&a, &b4, 8, Mode::Fast).unwrap_err(),
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
        let dd = dgemm_dd(&a, &b, 8, Mode::Fast).unwrap();
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        for (g, w) in dd.iter().zip(exact.iter()) {
            assert_eq!(g.hi, *w);
            assert_eq!(g.lo, 0.0);
        }
    }
}
