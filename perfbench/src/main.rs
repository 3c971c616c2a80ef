//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <dgemm-square|sgemm-skinny|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--baseline <file>]
//! ```
//!
//! Makes the workload's inputs from the seed, sets it up several times,
//! runs its closed loop for the given seconds and checks every result.
//! `--trace 0` reports the end-to-end metrics measured untraced;
//! `--trace 1` reports the per-layer metrics and writes a Chrome trace.
//! Prints a table of every metric (unit, count, quartiles, median), then,
//! as the last line, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The full result, with the machine fingerprint, goes to
//! `.bench_out/<workload>.trace<0|1>.json`; `--baseline` compares this run
//! against such a file and refuses to when the fingerprints differ.
//! See `perfbench/README.md`.

mod gemm;
mod machine;
mod report;
mod serve;
mod stats;
mod trace;

use gemm_dense::gemm::gemm_f64;
use gemm_dense::Matrix;
use gemm_exact::{dd_gemm, Dd};
use machine::{Ceilings, Fingerprint};
use ozaki2::Element;
use report::{Metric, Outcome};
use std::process::ExitCode;
use std::time::Duration;
use trace::Recorder;

/// End-to-end metrics, each workload reports all of them (`--trace 0`).
const END_TO_END: [(&str, &str); 9] = [
    ("gemm_ms_p50", "ms"),
    ("gemm_ms_p90", "ms"),
    ("gflops", "GFLOP/s"),
    ("max_rel_err", "ratio"),
    ("reqs_per_s", "1/s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("scale.ms", "ms"),
    ("scale.gbytes_per_s", "GB/s"),
    ("convert.ms", "ms"),
    ("convert.gres_per_s", "Gres/s"),
    ("convert.gbytes_per_s", "GB/s"),
    ("convert.triad_frac", "ratio"),
    ("engine.ms", "ms"),
    ("engine.calls", "count"),
    ("engine.gops", "Gop/s"),
    ("engine.ops_per_byte", "op/B"),
    ("engine.peak_frac", "ratio"),
    ("fold.ms", "ms"),
    ("fold.gres_per_s", "Gres/s"),
    ("fold.triad_frac", "ratio"),
    ("pipeline.residual_ms", "ms"),
    ("batch.cache_hit_rate", "ratio"),
    ("batch.cache_bytes", "B"),
    ("batch.workspaces_created", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.execute_ms_p99", "ms"),
    ("serve.coalesce_rate", "ratio"),
    ("serve.items_per_round", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.req_ms_p99", "ms"),
    ("serve.trace_overhead_pct", "%"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.parks", "count"),
    ("ceiling.int16_dot_gops", "Gop/s"),
    ("ceiling.int8_dot_gops", "Gop/s"),
    ("ceiling.triad_gbytes_per_s", "GB/s"),
];

/// Where result files and Chrome traces go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Worker threads in the emulator's pool (left at its default).
    pub workers: usize,
}

/// Bitwise equality of two matrices.
pub fn bit_eq<T: Element>(x: &Matrix<T>, y: &Matrix<T>) -> bool {
    x.shape() == y.shape()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits())
}

/// Max error of `c ≈ a·b` relative to `|a|·|b|`, entry by entry, against
/// the double-double oracle: `max_ij |c_ij - (ab)_ij| / (|a||b|)_ij`.
/// Scaling by `|a||b|` instead of `|ab|` keeps the metric off cancelled
/// entries, where a near-zero denominator makes the maximum a property
/// of the seed; taking every entry keeps the maximum itself steady.
pub fn dd_max_rel_err<T: Element>(a: &Matrix<T>, b: &Matrix<T>, c: &Matrix<T>) -> f64 {
    let (a, b) = (a.map(|x| x.to_f64()), b.map(|x| x.to_f64()));
    let exact = dd_gemm(&a, &b);
    let scale = gemm_f64(&a.map(f64::abs), &b.map(f64::abs));
    c.iter()
        .zip(exact.iter().zip(scale.iter()))
        .filter(|(_, (_, &s))| s > 0.0)
        .map(|(x, (&e, &s))| Dd::from_f64(x.to_f64()).sub(e).to_f64().abs() / s)
        .fold(0.0, f64::max)
}

/// The ceiling rows and the sizes they were measured at.
pub fn push_ceilings(out: &mut Outcome, c: &Ceilings) {
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    out.push(Metric::new("ceiling.int16_dot_gops", "Gop/s", c.int16_dot_gops).note("vpdpwssd"));
    out.push(Metric::new("ceiling.int8_dot_gops", "Gop/s", c.int8_dot_gops).note("vpdpbusd"));
    out.push(
        Metric::new("ceiling.triad_gbytes_per_s", "GB/s", c.triad_gbytes_per_s)
            .note("computed bytes: 24 per element"),
    );
    out.info.push(format!(
        "ceilings: dot loops 12 independent zmm accumulators on 1 KiB L1-resident operands, \
         best of 10; triad 3 arrays x {:.1} MiB = {:.1} MiB against a {:.1} MiB last-level \
         cache, best of 5",
        mib(c.triad_array_bytes),
        mib(3 * c.triad_array_bytes),
        mib(c.llc_bytes)
    ));
}

/// Put the reported metrics in the declared order, fill layers the
/// workload bypasses with 0, and insist on the declared names and units.
fn declared(out: &mut Outcome, trace: bool) {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut got = std::mem::take(&mut out.metrics);
    for &(name, unit) in list {
        let m = match got.iter().position(|m| m.name == name) {
            Some(i) => got.swap_remove(i),
            None => Metric::new(name, unit, 0.0).note("layer not on this workload's path"),
        };
        assert_eq!(m.unit, unit, "unit of {name}");
        out.metrics.push(m);
    }
    let extra: Vec<&str> = got.iter().map(|m| m.name).collect();
    assert!(extra.is_empty(), "undeclared metrics {extra:?}");
}

struct Args {
    workload: String,
    run: Run,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg}"))?;
        let (key, value) = match key.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (
                key.to_string(),
                it.next().ok_or_else(|| format!("--{key} needs a value"))?,
            ),
        };
        kv.insert(key, value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str, v: String| v.parse::<u64>().map_err(|e| format!("--{k} {v}: {e}"));
    let workload = take("workload")?;
    let seed = num("seed", take("seed")?)?;
    let seconds = num("seconds", take("seconds")?)?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace must be 0 or 1, not {v}")),
    };
    let baseline = take("baseline").ok();
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        run: Run {
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
            workers: rayon::current_num_threads(),
        },
        baseline,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = &args.run;
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let ticks0 = machine::cpu_ticks();
    match args.workload.as_str() {
        "dgemm-square" => {
            let shape = gemm::Shape {
                m: 1024,
                k: 1024,
                n: 1024,
                n_moduli: 15,
            };
            gemm::run::<f64>(&shape, run, &mut out, &mut rec);
        }
        "sgemm-skinny" => {
            let shape = gemm::Shape {
                m: 4096,
                k: 4096,
                n: 32,
                n_moduli: ozaki2::n_for_sgemm_level(4096),
            };
            gemm::run::<f32>(&shape, run, &mut out, &mut rec);
        }
        "serve-mixed" => serve::run(run, &mut out, &mut rec),
        w => {
            eprintln!("perfbench: unknown workload {w} (dgemm-square, sgemm-skinny, serve-mixed)");
            return ExitCode::from(2);
        }
    }
    declared(&mut out, run.trace);
    let ticks1 = machine::cpu_ticks();
    out.info.push(format!(
        "hypervisor steal during the run: {:.1}% of CPU time",
        100.0 * (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64
    ));

    let fingerprint = Fingerprint::detect();
    let fp = fingerprint.canonical();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        run.seed,
        run.seconds.as_secs(),
        run.trace as u8
    );
    for (k, v) in &fingerprint.fields {
        println!("  {k:<15} {v}");
    }
    print!("{}", out.table());

    let name = format!("{}.trace{}", args.workload, run.trace as u8);
    let write = |file: String, body: String| {
        let path = format!("{OUT_DIR}/{file}");
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&path, body))
            .map(|_| println!("wrote {path}"))
            .unwrap_or_else(|e| eprintln!("perfbench: write {path}: {e}"));
    };
    let run_id = format!("{} seed={}", name, run.seed);
    write(format!("{name}.json"), out.result_json(&run_id, &fp));
    if run.trace {
        write(
            format!("{}.chrome-trace.json", args.workload),
            rec.chrome_json(),
        );
    }
    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path) {
            Ok(doc) => print!("{}", out.compare(&doc, &fp)),
            Err(e) => println!("baseline {path}: {e}"),
        }
    }
    println!("{}", out.verdict_json());
    ExitCode::SUCCESS
}
