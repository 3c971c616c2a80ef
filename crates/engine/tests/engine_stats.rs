//! Engine invocation accounting against the process-global `gemm_obs`
//! engine counters.
//!
//! The counters are process-wide and count only while observability is
//! armed, so a count is exact only while no other engine call runs. This
//! binary holds nothing but accounting tests; each arms the registry and
//! reads counter deltas under one lock.

use gemm_dense::Matrix;
use gemm_engine::{
    int8_gemm, microkernel_name, pack_panels_i16, padded_a_rows, padded_b_cols, padded_depth,
    Int8Backend, ResidueBackend,
};
use gemm_obs::catalog::{ENGINE_INT8_CALLS, ENGINE_INT8_MACS};
use std::sync::{Mutex, MutexGuard};

static COUNTERS: Mutex<()> = Mutex::new(());

/// Serialize on the counters and arm the registry.
fn counters_lock() -> MutexGuard<'static, ()> {
    let guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    gemm_obs::set_enabled(true);
    guard
}

/// `(calls, macs)` of the INT8 engine so far.
fn int8_counts() -> (u64, u64) {
    (ENGINE_INT8_CALLS.value(), ENGINE_INT8_MACS.value())
}

#[test]
fn int8_gemm_records_stats() {
    let _g = counters_lock();
    let (calls0, macs0) = int8_counts();
    let a = Matrix::from_fn(4, 8, |i, j| (i * 31 + j * 17) as i8);
    let b = Matrix::from_fn(8, 2, |i, j| (i * 13 + j * 7) as i8 - 60);
    let _ = int8_gemm(&a, &b);
    let (calls, macs) = int8_counts();
    assert_eq!(calls - calls0, 1);
    assert_eq!(macs - macs0, 4 * 8 * 2);
}

/// One residue GEMM on the AMX-INT8 kernel is one engine call, however
/// many stripes, depth windows and tile blocks the kernel splits it into.
#[test]
fn an_amx_call_is_counted_exactly_once() {
    let kernel = microkernel_name();
    if kernel != "amx-int8" {
        println!("SKIP an_amx_call_is_counted_exactly_once: microkernel is {kernel}");
        return;
    }
    let _g = counters_lock();
    // Two AMX depth windows (k > 1024), several stripes and ragged tiles.
    let (m, n, k) = (45usize, 70usize, 1500usize);
    let kp = padded_depth(k);
    let src: Vec<i8> = (0..m.max(n) * k).map(|i| (i * 7 % 255) as i8).collect();
    let mut apack = Vec::new();
    let mut bpack = Vec::new();
    pack_panels_i16(&mut apack, &src, k, m, padded_a_rows(m), k, kp);
    pack_panels_i16(&mut bpack, &src, k, n, padded_b_cols(n), k, kp);
    let (mut c, mut u) = (vec![0i32; m * n], vec![0u8; m * n]);
    let p = 251u64;
    let pinv = ((1u64 << 32) / p - 1) as u32;

    let (calls0, macs0) = int8_counts();
    Int8Backend.gemm_reduce(
        m, n, k, &apack, &bpack, kp, 0, &mut c, &mut u, p, pinv, None, true,
    );
    let (calls, macs) = int8_counts();
    assert_eq!(calls - calls0, 1);
    assert_eq!(macs - macs0, (m * n * k) as u64);
}
