//! `serve-mixed`: the full `loadgen` trace against `gemm_serve::Server`.
//!
//! Two weight-stationary tenants stream 64³ requests against their own
//! pinned weight; one HPC tenant sends a 256³ request every fourth burst,
//! which takes the solo striped path. One generator thread pauses the
//! server, submits a burst of 16 (plus the HPC request when due),
//! resumes it and waits for the whole burst: a closed loop, one client.
//!
//! The traced run alternates blocks of four bursts with `gemm_obs`
//! armed and disarmed, so the overhead of tracing is measured in the
//! same process, and spans each submit→wait from the benchmark side.

use crate::machine::{measure_ceilings, peak_rss_mb};
use crate::report::{Metric, Outcome};
use crate::stats::Summary;
use crate::trace::Recorder;
use crate::{bit_eq, dd_max_rel_err, Run};
use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::MatF64;
use gemm_obs::catalog as cat;
use gemm_obs::{Counter, Histogram};
use gemm_serve::{GemmRequest, Server};
use ozaki2::{Mode, Ozaki2};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_MODULI: usize = 15;
const PHI: f64 = 0.5;
const SMALL: usize = 64;
const LARGE: usize = 256;
/// Activations each small tenant cycles through (the HPC tenant has two).
const SMALL_POOL: usize = 16;
const BURST: usize = 16;
/// One HPC request rides every `LARGE_EVERY`-th burst.
const LARGE_EVERY: u64 = 4;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Tenant {
    name: &'static str,
    acts: Vec<Arc<MatF64>>,
    weights: Arc<MatF64>,
    /// `Ozaki2::dgemm` of each activation with the weight.
    oracle: Vec<MatF64>,
}

impl Tenant {
    fn new(name: &'static str, dim: usize, pool: usize, seed: u64, stream: u64) -> Tenant {
        let mat = |s| Arc::new(phi_matrix_f64(dim, dim, PHI, seed, stream + s));
        let acts: Vec<_> = (0..pool as u64).map(mat).collect();
        let weights = mat(99);
        let emu = Ozaki2::new(N_MODULI, Mode::Fast);
        let oracle = acts.iter().map(|a| emu.dgemm(a, &weights)).collect();
        Tenant {
            name,
            acts,
            weights,
            oracle,
        }
    }

    fn flop(&self) -> f64 {
        let (m, k) = self.acts[0].shape();
        2.0 * (m * k * self.weights.cols()) as f64
    }
}

/// Requests of burst `b` as `(tenant, activation)`: small tenants
/// alternate, the HPC tenant (index 2) joins every `LARGE_EVERY`-th burst.
fn burst(b: u64) -> Vec<(usize, usize)> {
    let first = b as usize * BURST;
    let mut items: Vec<(usize, usize)> = (first..first + BURST)
        .map(|i| (i % 2, (i / 2) % SMALL_POOL))
        .collect();
    if b.is_multiple_of(LARGE_EVERY) {
        items.push((2, (b / LARGE_EVERY) as usize % 2));
    }
    items
}

fn build_server() -> Server {
    Server::builder(N_MODULI, Mode::Fast)
        .queue_depth(BURST + 2)
        .max_batch(BURST)
        .coalesce_window(Duration::from_micros(500))
        .build()
}

/// Submit burst `b`, wait for all of it, check every result against the
/// oracle. Returns each request's `(start_ns, end_ns, tenant)` on the
/// recorder's clock.
fn run_burst(
    server: &Server,
    tenants: &[Tenant],
    b: u64,
    rec: &Recorder,
    out: &mut Outcome,
) -> Vec<(u64, u64, usize)> {
    let items = burst(b);
    server.pause();
    let handles: Vec<_> = items
        .iter()
        .map(|&(t, i)| {
            let tn = &tenants[t];
            let start = rec.now();
            let req = GemmRequest::new(tn.name, tn.acts[i].clone(), tn.weights.clone());
            (start, server.submit(req))
        })
        .collect();
    server.resume();
    let done: Vec<_> = handles
        .into_iter()
        .map(|(start, h)| {
            let got = h.ok().and_then(|h| h.wait().ok());
            (start, rec.now(), got)
        })
        .collect();
    items
        .iter()
        .zip(done)
        .map(|(&(t, i), (start, end, got))| {
            out.op(got.is_some_and(|c| bit_eq(&c, &tenants[t].oracle[i])));
            (start, end, t)
        })
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(run: &Run, out: &mut Outcome, rec: &mut Recorder) {
    let seed = run.seed;
    let tenants = [
        Tenant::new("svc-a", SMALL, SMALL_POOL, seed, 0),
        Tenant::new("svc-b", SMALL, SMALL_POOL, seed, 100),
        Tenant::new("hpc", LARGE, 2, seed, 200),
    ];
    // Set-up: server construction plus one cold burst (with the HPC
    // request) that fills the operand cache and grows the workspaces.
    let setups = if run.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut live: Option<Server> = None;
    for _ in 0..setups {
        if let Some(s) = live.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        let server = build_server();
        run_burst(&server, &tenants, 0, rec, out);
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some(server);
    }
    let server = live.expect("at least one set-up");

    let stats0 = server.stats();
    let cache = server.runtime().cache();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let counters: [&Counter; 4] = [
        &cat::POOL_TASKS,
        &cat::POOL_STEALS,
        &cat::POOL_PARKS,
        &cat::INT8_GEMM_CALLS,
    ];
    let phases: [&Histogram; 6] = [
        &cat::PHASE_SCALE,
        &cat::PHASE_TRUNC,
        &cat::PHASE_CONVERT,
        &cat::PHASE_INT8_GEMM,
        &cat::PHASE_MOD_REDUCE,
        &cat::PHASE_FOLD,
    ];
    let c0: Vec<u64> = counters.iter().map(|c| c.value()).collect();
    let h0: Vec<u64> = phases.iter().map(|h| h.sum_ns()).collect();

    let (mut lat, mut armed_lat, mut plain_lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut flop = 0.0;
    let mut b = LARGE_EVERY; // burst 0 was the set-up's
    let t_start = Instant::now();
    loop {
        let armed = run.trace && (b / LARGE_EVERY).is_multiple_of(2);
        gemm_obs::set_enabled(armed);
        let root_start = rec.now();
        let reqs = run_burst(&server, &tenants, b, rec, out);
        if armed {
            let root = rec.record("burst", b, None, root_start, rec.now(), 0);
            for (lane, &(s, e, _)) in reqs.iter().enumerate() {
                rec.record(
                    "request",
                    b * 100 + lane as u64,
                    Some(root),
                    s,
                    e,
                    lane as u32 + 1,
                );
            }
        }
        for &(s, e, t) in &reqs {
            lat.push(ms(e - s));
            if run.trace {
                if armed {
                    &mut armed_lat
                } else {
                    &mut plain_lat
                }
                .push(ms(e - s));
            }
            flop += tenants[t].flop();
        }
        b += 1;
        // Traced runs end on a block boundary so armed and disarmed
        // blocks carry the same traffic.
        let block_done = !run.trace || b % (2 * LARGE_EVERY) == LARGE_EVERY;
        if t_start.elapsed() >= run.seconds && block_done {
            break;
        }
    }
    gemm_obs::set_enabled(false);
    let loop_s = t_start.elapsed().as_secs_f64();
    let rss = peak_rss_mb(); // before the oracle's own buffers
    let err = tenants
        .iter()
        .flat_map(|t| {
            t.acts
                .iter()
                .zip(&t.oracle)
                .map(|(a, c)| dd_max_rel_err(a, &t.weights, c))
        })
        .fold(0.0, f64::max);
    out.check(format!("max_rel_err {err:.3e} <= 1e-9"), err <= 1e-9);
    let reqs = Summary::of(&lat);
    out.info.push(format!(
        "tenants: 2 x {SMALL}^3 weight-stationary + 1 x {LARGE}^3 every {LARGE_EVERY}th burst; \
         N={N_MODULI} fast, phi={PHI}, closed loop, 1 client, burst {BURST}, {} workers, {} bursts",
        run.workers,
        b - LARGE_EVERY
    ));

    if !run.trace {
        out.push(Metric::median("gemm_ms_p50", "ms", reqs.clone()).note("per request"));
        out.push(Metric::tail("gemm_ms_p90", "ms", reqs.clone(), 0.9));
        out.push(
            Metric::new("gflops", "GFLOP/s", flop / loop_s / 1e9)
                .note("useful flops per second of the loop"),
        );
        out.push(
            Metric::new("max_rel_err", "ratio", err)
                .note("|C-AB|/(|A||B|), double-double oracle, every distinct request"),
        );
        out.push(Metric::new("reqs_per_s", "1/s", lat.len() as f64 / loop_s));
        out.push(Metric::median("req_ms_p50", "ms", reqs.clone()));
        out.push(Metric::tail("req_ms_p90", "ms", reqs, 0.9));
        out.push(
            Metric::median("setup_s", "s", Summary::of(&setup_s)).note(format!(
                "median of {SETUPS}; first (with pool spin-up) {:.4} s",
                setup_s[0]
            )),
        );
        out.push(Metric::new("peak_rss_mb", "MiB", rss));
        server.shutdown();
        return;
    }

    let stats = server.stats();
    let cache = server.runtime().cache();
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    let rounds = stats.rounds - stats0.rounds;
    let executed = (stats.coalesced - stats0.coalesced) + (stats.solo - stats0.solo);
    let armed_n = armed_lat.len() as f64;
    let c: Vec<f64> = counters
        .iter()
        .zip(&c0)
        .map(|(c, &v0)| (c.value() - v0) as f64 / armed_n)
        .collect();
    let h: Vec<f64> = phases
        .iter()
        .zip(&h0)
        .map(|(h, &v0)| ms(h.sum_ns() - v0) / armed_n)
        .collect();
    let phase = "mean per request, gemm_obs phase histograms";
    out.push(Metric::new("scale.ms", "ms", h[0]).note(phase));
    out.push(Metric::new("convert.ms", "ms", h[1] + h[2]).note(phase));
    out.push(Metric::new("engine.ms", "ms", h[3] + h[4]).note(phase));
    out.push(Metric::new("engine.calls", "count", c[3]).note("residue GEMMs per request"));
    out.push(Metric::new("fold.ms", "ms", h[5]).note(phase));
    out.push(Metric::new(
        "batch.cache_hit_rate",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    out.push(Metric::new("batch.cache_bytes", "B", cache.bytes() as f64));
    out.push(Metric::new(
        "batch.workspaces_created",
        "count",
        server.runtime().pool().created() as f64,
    ));
    let q = |h: &Histogram, q: f64| ms(h.quantile_ns(q));
    let log2 = "log2-bucket upper edge, armed blocks";
    out.push(
        Metric::new(
            "serve.queue_wait_ms_p50",
            "ms",
            q(&cat::SERVE_QUEUE_WAIT, 0.5),
        )
        .note(log2),
    );
    out.push(
        Metric::new(
            "serve.queue_wait_ms_p99",
            "ms",
            q(&cat::SERVE_QUEUE_WAIT, 0.99),
        )
        .note(log2),
    );
    out.push(Metric::new("serve.execute_ms_p50", "ms", q(&cat::SERVE_EXECUTE, 0.5)).note(log2));
    out.push(Metric::new("serve.execute_ms_p99", "ms", q(&cat::SERVE_EXECUTE, 0.99)).note(log2));
    out.push(Metric::new(
        "serve.coalesce_rate",
        "ratio",
        (stats.coalesced - stats0.coalesced) as f64 / executed.max(1) as f64,
    ));
    out.push(Metric::new(
        "serve.items_per_round",
        "count",
        executed as f64 / rounds.max(1) as f64,
    ));
    out.push(Metric::new(
        "serve.peak_queue_depth",
        "count",
        stats.peak_queue_depth as f64,
    ));
    out.push(Metric::tail("serve.req_ms_p99", "ms", reqs, 0.99));
    let (armed_s, plain_s) = (Summary::of(&armed_lat), Summary::of(&plain_lat));
    out.push(
        Metric::new(
            "serve.trace_overhead_pct",
            "%",
            (armed_s.median() / plain_s.median() - 1.0) * 100.0,
        )
        .note(format!(
            "median request, armed {:.4} ms (n={}) vs disarmed {:.4} ms (n={})",
            armed_s.median(),
            armed_s.n(),
            plain_s.median(),
            plain_s.n()
        )),
    );
    out.push(Metric::new("pool.tasks", "count", c[0]).note("per request, armed blocks"));
    out.push(Metric::new("pool.steals", "count", c[1]).note("per request, armed blocks"));
    out.push(Metric::new("pool.parks", "count", c[2]).note("per request, armed blocks"));
    server.shutdown();
    crate::push_ceilings(out, &measure_ceilings(run.workers));
}
