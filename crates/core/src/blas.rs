//! BLAS transpose option and semantics: `C ← α·op(A)·op(B) + β·C`, the
//! `cublasGemmEx` contract GEMMul8 slots into.
//!
//! The contract itself is [`crate::Ozaki2::gemm_into`] with
//! [`crate::GemmArgs`]: [`GemmOp`] feeds `trans_a` / `trans_b` as a
//! **zero-copy** view flip, `alpha = 0` skips the product without reading
//! `A` or `B`, and `beta = 0` never reads `C`.

/// Operand transpose option (BLAS `trans` parameter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmOp {
    /// Use the operand as stored.
    N,
    /// Use the operand transposed.
    T,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmulationError, GemmArgs, Mode, Ozaki2};
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_dense::{MatF64, Matrix};

    fn identity(n: usize) -> MatF64 {
        Matrix::from_fn(n, n, |i, j| (i == j) as u8 as f64)
    }

    #[test]
    fn transpose_options_consistent() {
        let a = phi_matrix_f64(8, 12, 0.5, 1, 0);
        let b = phi_matrix_f64(12, 6, 0.5, 1, 1);
        let emu = Ozaki2::new(15, Mode::Fast);
        // (A B) computed two ways must agree bitwise: the pipeline sees
        // identical effective operands.
        let mut c_nn = MatF64::zeros(8, 6);
        emu.gemm_into(GemmArgs::new(&a, &b), c_nn.view_mut())
            .unwrap();
        let mut c_tt = MatF64::zeros(8, 6);
        let (at, bt) = (a.transpose(), b.transpose());
        emu.gemm_into(
            GemmArgs::new(&at, &bt)
                .trans_a(GemmOp::T)
                .trans_b(GemmOp::T),
            c_tt.view_mut(),
        )
        .unwrap();
        assert_eq!(c_nn, c_tt);
    }

    #[test]
    fn blas_equals_facade_on_all_transpose_options() {
        // Every (trans_a, trans_b) combination must equal the plain
        // pipeline on the effective operands, bitwise — with no
        // materialization on any path (the facade flips views instead of
        // copying).
        let a = phi_matrix_f64(7, 9, 0.5, 4, 0);
        let b = phi_matrix_f64(9, 5, 0.5, 4, 1);
        let emu = Ozaki2::new(13, Mode::Fast);
        let want = emu.dgemm(&a, &b);
        for (ta, tb, al, bl) in [
            (GemmOp::N, GemmOp::N, &a, &b),
            (GemmOp::T, GemmOp::N, &a.transpose(), &b),
            (GemmOp::N, GemmOp::T, &a, &b.transpose()),
            (GemmOp::T, GemmOp::T, &a.transpose(), &b.transpose()),
        ] {
            let mut c = MatF64::zeros(7, 5);
            emu.gemm_into(GemmArgs::new(al, bl).trans_a(ta).trans_b(tb), c.view_mut())
                .unwrap();
            assert_eq!(c, want, "{ta:?} {tb:?}");
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = phi_matrix_f64(6, 6, 0.5, 2, 0);
        let b = phi_matrix_f64(6, 6, 0.5, 2, 1);
        let emu = Ozaki2::new(12, Mode::Fast);
        let mut c = identity(6);
        let c0 = c.clone();
        emu.gemm_into(GemmArgs::new(&a, &b).alpha(2.0).beta(3.0), c.view_mut())
            .unwrap();
        let prod = emu.dgemm(&a, &b);
        for i in 0..6 {
            for j in 0..6 {
                let want = 2.0 * prod[(i, j)] + 3.0 * c0[(i, j)];
                assert_eq!(c[(i, j)], want);
            }
        }
    }

    #[test]
    fn alpha_zero_skips_product() {
        let a = MatF64::zeros(4, 4); // would even be degenerate input
        let b = MatF64::zeros(4, 4);
        let mut c = identity(4);
        Ozaki2::new(8, Mode::Fast)
            .gemm_into(GemmArgs::new(&a, &b).alpha(0.0).beta(0.5), c.view_mut())
            .unwrap();
        assert_eq!(c[(0, 0)], 0.5);
        assert_eq!(c[(1, 0)], 0.0);
    }

    #[test]
    fn alpha_zero_neither_reads_nor_validates_the_operands() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let mut a = phi_matrix_f64(5, 6, 0.5, 8, 0);
        a[(2, 3)] = f64::NAN;
        let b = phi_matrix_f64(6, 4, 0.5, 8, 1);
        let c0 = phi_matrix_f64(5, 4, 0.5, 8, 2);
        let mut c = c0.clone();
        let rep = emu
            .gemm_into(GemmArgs::new(&a, &b).alpha(0.0).beta(3.0), c.view_mut())
            .unwrap();
        assert_eq!(rep.int8_gemm_calls, 0);
        for (got, was) in c.iter().zip(c0.iter()) {
            assert_eq!(*got, 3.0 * was);
        }

        let mut af = phi_matrix_f32(5, 6, 0.5, 8, 0);
        af[(0, 0)] = f32::NAN;
        let bf = phi_matrix_f32(6, 4, 0.5, 8, 1);
        let cf0 = phi_matrix_f32(5, 4, 0.5, 8, 2);
        let mut cf = cf0.clone();
        emu.gemm_into(GemmArgs::new(&af, &bf).alpha(0.0).beta(3.0), cf.view_mut())
            .unwrap();
        for (got, was) in cf.iter().zip(cf0.iter()) {
            assert_eq!(*got, 3.0 * was);
        }
    }

    #[test]
    fn beta_zero_never_reads_c() {
        // C full of NaN: with beta = 0 it is write-only, on the direct f64
        // fold, the staged alpha epilogue, the f32 narrowing and k = 0.
        let emu = Ozaki2::new(12, Mode::Fast);
        let a = phi_matrix_f64(6, 7, 0.5, 9, 0);
        let b = phi_matrix_f64(7, 5, 0.5, 9, 1);
        let prod = emu.dgemm(&a, &b);
        for alpha in [1.0, 2.0] {
            let mut c = MatF64::from_fn(6, 5, |_, _| f64::NAN);
            emu.gemm_into(GemmArgs::new(&a, &b).alpha(alpha), c.view_mut())
                .unwrap();
            for (got, p) in c.iter().zip(prod.iter()) {
                assert!(got.is_finite(), "alpha={alpha}: {got}");
                assert_eq!(*got, alpha * p);
            }
        }

        let af = phi_matrix_f32(6, 7, 0.5, 9, 0);
        let bf = phi_matrix_f32(7, 5, 0.5, 9, 1);
        let prodf = emu.sgemm(&af, &bf);
        let mut cf = Matrix::<f32>::from_fn(6, 5, |_, _| f32::NAN);
        emu.gemm_into(GemmArgs::new(&af, &bf).alpha(2.0), cf.view_mut())
            .unwrap();
        for (got, p) in cf.iter().zip(prodf.iter()) {
            assert!(got.is_finite(), "{got}");
            assert_eq!(*got, 2.0 * p);
        }

        let mut c0 = MatF64::from_fn(3, 2, |_, _| f64::NAN);
        let (e1, e2) = (MatF64::zeros(3, 0), MatF64::zeros(0, 2));
        emu.gemm_into(GemmArgs::new(&e1, &e2).alpha(2.0), c0.view_mut())
            .unwrap();
        assert!(c0.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sgemm_blas_round_trip() {
        let a = phi_matrix_f32(5, 7, 0.5, 3, 0);
        let b = phi_matrix_f32(7, 4, 0.5, 3, 1);
        let emu = Ozaki2::new(8, Mode::Fast);
        let mut c = Matrix::<f32>::zeros(5, 4);
        emu.gemm_into(GemmArgs::new(&a, &b), c.view_mut()).unwrap();
        assert_eq!(c, emu.sgemm(&a, &b));
    }

    #[test]
    fn shape_check() {
        let a = MatF64::zeros(3, 4);
        let b = MatF64::zeros(4, 5);
        let mut c = MatF64::zeros(3, 4);
        assert_eq!(
            Ozaki2::new(8, Mode::Fast)
                .gemm_into(GemmArgs::new(&a, &b), c.view_mut())
                .unwrap_err(),
            EmulationError::ShapeMismatch
        );
    }
}
