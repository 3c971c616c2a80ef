//! The GEMM workloads (`dgemm-square`, `sgemm-skinny`): one client calls
//! `Ozaki2::gemm_into` back to back, reusing one `Workspace`.
//!
//! The traced run alternates each untraced `gemm_into` with a replay of
//! Algorithm 1 through the layers' public stage functions, one span per
//! stage, and checks that the replay's output is bit-identical to
//! `gemm_into`'s.

use crate::machine::{measure_ceilings, peak_rss_mb};
use crate::report::{Metric, Outcome};
use crate::stats::Summary;
use crate::trace::Recorder;
use crate::{bit_eq, dd_max_rel_err, Run};
use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
use gemm_dense::Matrix;
use gemm_engine::{padded_a_rows, padded_b_cols, padded_depth};
use gemm_obs::catalog::{POOL_PARKS, POOL_STEALS, POOL_TASKS};
use ozaki2::{
    constants_for, fast_scale_a_view, fast_scale_b_view, fold_planes, trunc_convert_pack_panels,
    Element, EmulationError, FoldPrecision, GemmArgs, Mode, Ozaki2, TruncSource, Workspace,
};
use std::time::Instant;

/// The inputs' dynamic-range parameter (`phi_matrix_*`).
pub const PHI: f64 = 0.5;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// `gemm_into` calls run with `gemm_obs` armed to read the pool counters.
const POOL_CALLS: u64 = 3;

/// `C (m x n) = A (m x k) · B (k x n)` with `n_moduli` moduli, fast mode.
pub struct Shape {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub n_moduli: usize,
}

/// An element type the GEMM workloads run on.
pub trait BenchElem: Element {
    fn phi_matrix(rows: usize, cols: usize, seed: u64, stream: u64) -> Matrix<Self>;
    /// Largest `max_rel_err` accepted as correct.
    const MAX_REL_ERR: f64;
}

impl BenchElem for f64 {
    fn phi_matrix(rows: usize, cols: usize, seed: u64, stream: u64) -> Matrix<f64> {
        phi_matrix_f64(rows, cols, PHI, seed, stream)
    }
    const MAX_REL_ERR: f64 = 1e-9;
}

impl BenchElem for f32 {
    fn phi_matrix(rows: usize, cols: usize, seed: u64, stream: u64) -> Matrix<f32> {
        phi_matrix_f32(rows, cols, PHI as f32, seed, stream)
    }
    const MAX_REL_ERR: f64 = 1e-3;
}

fn gemm<T: BenchElem>(
    emu: &Ozaki2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    ws: &mut Workspace,
    c: &mut Matrix<T>,
) -> Result<(), EmulationError> {
    emu.gemm_into(GemmArgs::new(a, b).workspace(ws), c.view_mut())
        .map(|_| ())
}

/// Buffers for replaying Algorithm 1 stage by stage (what `Workspace`
/// holds for `gemm_into`).
struct Replay {
    a16: Vec<i16>,
    b16: Vec<i16>,
    u: Vec<u8>,
    c32: Vec<i32>,
    stage: Vec<f64>,
}

impl Replay {
    fn new(s: &Shape) -> Replay {
        let kp = padded_depth(s.k);
        Replay {
            a16: vec![0; s.n_moduli * padded_a_rows(s.m) * kp],
            b16: vec![0; s.n_moduli * padded_b_cols(s.n) * kp],
            u: vec![0; s.n_moduli * s.m * s.n],
            c32: vec![0; s.m * s.n],
            stage: vec![0.0; s.m * s.n],
        }
    }

    /// One GEMM through the public stage functions, each call in a span
    /// under a `pipeline` root; the same dispatch `gemm_into` makes for a
    /// plain, contiguous, fault-policy-off call.
    fn run<T: BenchElem>(
        &mut self,
        emu: &Ozaki2,
        a: &Matrix<T>,
        b: &Matrix<T>,
        out: &mut Matrix<T>,
        rec: &mut Recorder,
        op: u64,
    ) {
        let (m, k) = a.shape();
        let n = b.cols();
        let consts = constants_for(emu.backend(), emu.n_moduli());
        let engine = emu.backend().engine().backend();
        let (kp, m_pad, n_pad, plane) =
            (padded_depth(k), padded_a_rows(m), padded_b_cols(n), m * n);
        let Replay {
            a16,
            b16,
            u,
            c32,
            stage,
        } = self;
        let root_idx = rec.open("pipeline", op, None);
        let root = Some(root_idx);

        // Line 1: scale vectors.
        let (exps_a, exps_b) = rec.time("scale", op, root, || {
            (
                fast_scale_a_view(&a.view(), consts.p_fast),
                fast_scale_b_view(&b.view(), consts.p_fast),
            )
        });
        // Lines 2-5: fused trunc + convert into packed panels.
        rec.time("convert", op, root, || {
            let src_a = TruncSource::Gathered {
                data: T::elem_slice(a.as_slice()),
                ld: m,
                exps: &exps_a,
            };
            trunc_convert_pack_panels(src_a, m, m_pad, k, kp, consts, T::IS_F64, true, a16, None);
            let src_b = TruncSource::Contiguous {
                data: T::elem_slice(b.as_slice()),
                ld: k,
                exps: &exps_b,
            };
            trunc_convert_pack_panels(src_b, n, n_pad, k, kp, consts, T::IS_F64, true, b16, None);
        });
        // Lines 6-7: one residue GEMM per modulus, mod p fused in.
        rec.time("engine", op, root, || {
            for s in 0..consts.n {
                engine.gemm_reduce(
                    m,
                    n,
                    k,
                    &a16[s * m_pad * kp..(s + 1) * m_pad * kp],
                    &b16[s * n_pad * kp..(s + 1) * n_pad * kp],
                    kp,
                    0,
                    c32,
                    &mut u[s * plane..(s + 1) * plane],
                    consts.p[s],
                    consts.p_inv_u32[s],
                    None,
                    true,
                );
            }
        });
        // Lines 8-12: fold, plus the f32 narrowing `gemm_into` counts as fold.
        rec.time("fold", op, root, || {
            let precision = if T::IS_F64 {
                FoldPrecision::Double
            } else {
                FoldPrecision::Single
            };
            match T::as_f64_slice_mut(out.as_mut_slice()) {
                Some(dst) => fold_planes(u, m, n, consts, precision, &exps_a, &exps_b, dst),
                None => {
                    fold_planes(u, m, n, consts, precision, &exps_a, &exps_b, stage);
                    for (c, &p) in out.as_mut_slice().iter_mut().zip(stage.iter()) {
                        *c = T::from_f64(p);
                    }
                }
            }
        });
        rec.close(root_idx);
    }
}

/// Run one GEMM workload into `out`.
pub fn run<T: BenchElem>(s: &Shape, run: &Run, out: &mut Outcome, rec: &mut Recorder) {
    let (m, k, n) = (s.m, s.k, s.n);
    let a = T::phi_matrix(m, k, run.seed, 0);
    let b = T::phi_matrix(k, n, run.seed, 1);

    // Set-up: emulator, workspace and the cold call that grows it.
    let setups = if run.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut reference: Option<Matrix<T>> = None;
    let mut live = None;
    for _ in 0..setups {
        drop(live.take()); // free the last workspace before timing the next
        let t0 = Instant::now();
        let emu = Ozaki2::new(s.n_moduli, Mode::Fast);
        let mut ws = Workspace::new();
        let mut c = Matrix::<T>::zeros(m, n);
        let ok = gemm(&emu, &a, &b, &mut ws, &mut c).is_ok();
        setup_s.push(t0.elapsed().as_secs_f64());
        let ok = ok && reference.as_ref().is_none_or(|r| bit_eq(&c, r));
        out.op(ok);
        reference.get_or_insert_with(|| c.clone());
        live = Some((emu, ws, c));
    }
    let reference = reference.expect("at least one set-up");
    let (emu, mut ws, mut c) = live.expect("at least one set-up");
    let engine = emu.backend().engine().backend();
    let consts = constants_for(emu.backend(), s.n_moduli);
    out.check(
        "single k-block (replay covers gemm_reduce only)",
        k <= engine.k_block_max(consts.p[0]),
    );

    // One warm call, then the measured closed loop.
    out.op(gemm(&emu, &a, &b, &mut ws, &mut c).is_ok() && bit_eq(&c, &reference));
    let mut replay = run
        .trace
        .then(|| (Replay::new(s), Matrix::<T>::zeros(m, n)));
    let mut replay_identical = true;
    let mut ms = Vec::new();
    let t_start = Instant::now();
    // At least one call, however short the run.
    loop {
        let t0 = Instant::now();
        let ok = gemm(&emu, &a, &b, &mut ws, &mut c).is_ok();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.op(ok && bit_eq(&c, &reference));
        if let Some((r, c2)) = replay.as_mut() {
            r.run(&emu, &a, &b, c2, rec, ms.len() as u64);
            let same = bit_eq(c2, &reference);
            replay_identical &= same;
            out.op(same);
        }
        if t_start.elapsed() >= run.seconds {
            break;
        }
    }
    let loop_s = t_start.elapsed().as_secs_f64();
    let rss = peak_rss_mb(); // before the oracle's own buffers
    let err = dd_max_rel_err(&a, &b, &reference);
    out.check(
        format!("max_rel_err {err:.3e} <= {:.0e}", T::MAX_REL_ERR),
        err <= T::MAX_REL_ERR,
    );
    let calls = Summary::of(&ms);
    let p50 = calls.median();
    let flop = 2.0 * (m * n * k) as f64;
    out.info.push(format!(
        "shape {m}x{k}x{n} {}, N={} fast, phi={PHI}, closed loop, 1 client, {} workers",
        std::any::type_name::<T>(),
        s.n_moduli,
        run.workers
    ));

    if !run.trace {
        let gflops = calls.map(|t| flop / t / 1e6);
        out.push(Metric::median("gemm_ms_p50", "ms", calls.clone()));
        out.push(Metric::tail("gemm_ms_p90", "ms", calls.clone(), 0.9));
        out.push(Metric {
            value: flop / p50 / 1e6,
            ..Metric::median("gflops", "GFLOP/s", gflops)
        });
        out.push(
            Metric::new("max_rel_err", "ratio", err)
                .note("|C-AB|/(|A||B|), double-double oracle, every entry"),
        );
        out.push(
            Metric::new("reqs_per_s", "1/s", ms.len() as f64 / loop_s)
                .note("a request is one gemm_into call"),
        );
        out.push(Metric::median("req_ms_p50", "ms", calls.clone()));
        out.push(Metric::tail("req_ms_p90", "ms", calls, 0.9));
        out.push(
            Metric::median("setup_s", "s", Summary::of(&setup_s)).note(format!(
                "median of {SETUPS}; first (with pool spin-up) {:.4} s",
                setup_s[0]
            )),
        );
        out.push(Metric::new("peak_rss_mb", "MiB", rss));
        return;
    }

    out.check(
        "stitched replay bit-identical to gemm_into",
        replay_identical,
    );
    let stage = |name| Summary::of(&rec.durations_ms(name));
    let (scale, convert, engine_t, fold) = (
        stage("scale"),
        stage("convert"),
        stage("engine"),
        stage("fold"),
    );
    let stage_sum = scale.median() + convert.median() + engine_t.median() + fold.median();

    // The pool counters only tick with gemm_obs armed.
    gemm_obs::set_enabled(true);
    let before = [POOL_TASKS.value(), POOL_STEALS.value(), POOL_PARKS.value()];
    for _ in 0..POOL_CALLS {
        out.op(gemm(&emu, &a, &b, &mut ws, &mut c).is_ok() && bit_eq(&c, &reference));
    }
    let after = [POOL_TASKS.value(), POOL_STEALS.value(), POOL_PARKS.value()];
    gemm_obs::set_enabled(false);
    let per_call = |i: usize| (after[i] - before[i]) as f64 / POOL_CALLS as f64;

    drop((replay, ws));
    let ceil = measure_ceilings(run.workers);

    // Work per GEMM, counted from the array sizes ("computed" bytes).
    let (kp, m_pad, n_pad) = (padded_depth(k), padded_a_rows(m), padded_b_cols(n));
    let nm = s.n_moduli as f64;
    let elem = std::mem::size_of::<T>() as f64;
    let operands = (m * k + k * n) as f64;
    let panels = nm * ((m_pad + n_pad) * kp) as f64 * 2.0;
    let out_bytes = (m * n) as f64 * if T::IS_F64 { 8.0 } else { 8.0 + 8.0 + 4.0 };
    let scale_bytes = 2.0 * operands * elem;
    let convert_bytes = operands * elem + panels;
    let residues = nm * operands;
    let engine_ops = nm * flop;
    let engine_bytes = panels + nm * (m * n) as f64;
    let fold_res = nm * (m * n) as f64;
    let fold_bytes = fold_res + out_bytes;
    let rate = |units: f64, t_ms: f64| units / (t_ms * 1e-3) / 1e9;
    let triad = ceil.triad_gbytes_per_s;

    out.push(Metric::median("scale.ms", "ms", scale.clone()));
    out.push(
        Metric::new(
            "scale.gbytes_per_s",
            "GB/s",
            rate(scale_bytes, scale.median()),
        )
        .note("computed bytes: two passes over A and B"),
    );
    out.push(Metric::median("convert.ms", "ms", convert.clone()));
    out.push(Metric::new(
        "convert.gres_per_s",
        "Gres/s",
        rate(residues, convert.median()),
    ));
    let convert_gbs = rate(convert_bytes, convert.median());
    out.push(
        Metric::new("convert.gbytes_per_s", "GB/s", convert_gbs)
            .note("computed bytes: operands read + i16 panels written"),
    );
    out.push(Metric::new(
        "convert.triad_frac",
        "ratio",
        convert_gbs / triad,
    ));
    out.push(Metric::median("engine.ms", "ms", engine_t.clone()));
    out.push(Metric::new("engine.calls", "count", nm).note("gemm_reduce calls per GEMM"));
    let engine_gops = rate(engine_ops, engine_t.median());
    out.push(Metric::new("engine.gops", "Gop/s", engine_gops).note("2·m·n·k·N integer ops"));
    out.push(
        Metric::new("engine.ops_per_byte", "op/B", engine_ops / engine_bytes)
            .note("computed bytes: panels read once + u8 planes written"),
    );
    out.push(
        Metric::new(
            "engine.peak_frac",
            "ratio",
            engine_gops / ceil.int16_dot_gops,
        )
        .note("of the vpdpwssd peak"),
    );
    out.push(Metric::median("fold.ms", "ms", fold.clone()));
    out.push(Metric::new(
        "fold.gres_per_s",
        "Gres/s",
        rate(fold_res, fold.median()),
    ));
    out.push(
        Metric::new(
            "fold.triad_frac",
            "ratio",
            rate(fold_bytes, fold.median()) / triad,
        )
        .note("computed bytes: u8 planes read + output written"),
    );
    out.push(
        Metric::new("pipeline.residual_ms", "ms", p50 - stage_sum).note(format!(
            "untraced gemm_ms_p50 {p50:.4} minus stage medians {stage_sum:.4}"
        )),
    );
    out.push(Metric::new("pool.tasks", "count", per_call(0)).note("per gemm_into call"));
    out.push(Metric::new("pool.steals", "count", per_call(1)).note("per gemm_into call"));
    out.push(Metric::new("pool.parks", "count", per_call(2)).note("per gemm_into call"));
    crate::push_ceilings(out, &ceil);

    let selfs = rec.self_ns();
    let roots: Vec<f64> = rec
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "pipeline")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    out.info.push(format!(
        "replay: median {:.4} ms per GEMM, its own self time {:.4} ms; stage rows + \
         pipeline.residual_ms = gemm_ms_p50 {p50:.4} ms (untraced, n={})",
        Summary::of(&rec.durations_ms("pipeline")).median(),
        Summary::of(&roots).median(),
        calls.n()
    ));
}
