//! Engine invocation accounting against the process-global counters.
//!
//! `INT8_STATS`, `LOWFP_STATS` and the `gemm_obs` engine counters are
//! process-wide, so a count is exact only while no other engine call runs.
//! This binary holds nothing but accounting tests, and they serialize on
//! one lock.

use gemm_dense::Matrix;
use gemm_engine::{
    int8_gemm, lowfp_gemm, microkernel_name, pack_panels_i16, padded_a_rows, padded_b_cols,
    padded_depth, Int8Backend, ResidueBackend, INT8_STATS, LOWFP_STATS,
};
use gemm_lowfp::F16;
use gemm_obs::catalog::{ENGINE_INT8_CALLS, ENGINE_INT8_MACS};
use std::sync::{Mutex, MutexGuard};

static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn int8_gemm_records_stats() {
    let _g = counters_lock();
    INT8_STATS.reset();
    let a = Matrix::from_fn(4, 8, |i, j| (i * 31 + j * 17) as i8);
    let b = Matrix::from_fn(8, 2, |i, j| (i * 13 + j * 7) as i8 - 60);
    let _ = int8_gemm(&a, &b);
    assert_eq!(INT8_STATS.calls(), 1);
    assert_eq!(INT8_STATS.macs(), 4 * 8 * 2);
}

#[test]
fn lowfp_gemm_records_stats() {
    let _g = counters_lock();
    LOWFP_STATS.reset();
    let a = Matrix::from_fn(2, 3, |_, _| F16::from_f32(1.0));
    let b = Matrix::from_fn(3, 2, |_, _| F16::from_f32(1.0));
    let _ = lowfp_gemm(&a, &b);
    assert_eq!(LOWFP_STATS.calls(), 1);
    assert_eq!(LOWFP_STATS.macs(), 12);
}

/// One residue GEMM on the AMX-INT8 kernel is one engine call in both
/// counter families, however many stripes, depth windows and tile blocks
/// the kernel splits it into.
#[test]
fn an_amx_call_is_counted_exactly_once() {
    let kernel = microkernel_name();
    if kernel != "amx-int8" {
        println!("SKIP an_amx_call_is_counted_exactly_once: microkernel is {kernel}");
        return;
    }
    let _g = counters_lock();
    gemm_obs::set_enabled(true);
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

    let (calls0, macs0) = (ENGINE_INT8_CALLS.value(), ENGINE_INT8_MACS.value());
    let (stats_calls0, stats_macs0) = (INT8_STATS.calls(), INT8_STATS.macs());
    Int8Backend.gemm_reduce(
        m, n, k, &apack, &bpack, kp, 0, &mut c, &mut u, p, pinv, None, true,
    );
    let macs = (m * n * k) as u64;
    assert_eq!(ENGINE_INT8_CALLS.value() - calls0, 1);
    assert_eq!(ENGINE_INT8_MACS.value() - macs0, macs);
    assert_eq!(INT8_STATS.calls() - stats_calls0, 1);
    assert_eq!(INT8_STATS.macs() - stats_macs0, macs);
}
