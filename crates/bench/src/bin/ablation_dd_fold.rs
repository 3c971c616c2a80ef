//! Ablation: the §6 "homogeneous double-double" extension — what the DD
//! fold buys over the paper's line-11 FMA fold, and what it costs.
//!
//! Usage: `cargo run --release -p gemm-bench --bin ablation_dd_fold`

use gemm_bench::report::print_table;
use gemm_dense::workload::phi_matrix_f64;
use gemm_exact::{dd_gemm, max_rel_error_vs_dd};
use ozaki2::{dgemm_dd, Mode, Ozaki2};
use std::time::Instant;

fn main() {
    let (m, n, k) = (192usize, 192, 384);
    let a = phi_matrix_f64(m, k, 0.5, 4242, 0);
    let b = phi_matrix_f64(k, n, 0.5, 4242, 1);
    let oracle = dd_gemm(&a, &b);

    let header: Vec<String> = [
        "N",
        "f64 fold err",
        "DD fold err",
        "extra bits",
        "f64 ms",
        "DD ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for nmod in [12usize, 15, 18, 20] {
        let emu = Ozaki2::new(nmod, Mode::Fast);
        let t0 = Instant::now();
        let plain = emu.dgemm(&a, &b);
        let t_plain = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let dd = dgemm_dd(&emu, &a, &b).expect("finite operands of matching shapes");
        let t_dd = t0.elapsed().as_secs_f64() * 1e3;

        let e_plain = max_rel_error_vs_dd(&plain, &oracle).max(1e-40);
        let e_dd = dd
            .iter()
            .zip(oracle.iter())
            .map(|(g, w)| {
                let denom = w.to_f64().abs().max(1e-300);
                g.sub(*w).to_f64().abs() / denom
            })
            .fold(0.0f64, f64::max)
            .max(1e-40);
        rows.push(vec![
            nmod.to_string(),
            format!("{e_plain:.2e}"),
            format!("{e_dd:.2e}"),
            format!("{:.1}", (e_plain / e_dd).log2()),
            format!("{t_plain:.1}"),
            format!("{t_dd:.1}"),
        ]);
    }
    println!("# Ablation — line-11 FMA fold (f64 out) vs double-double fold (DD out)");
    println!("# m=n={m}, k={k}, phi=0.5");
    print_table(&mut std::io::stdout().lock(), &header, &rows);
    println!();
    println!("Reading: the f64 fold saturates at ~2^-53 (output format limit); the DD");
    println!("fold keeps improving with N until the Step-2 truncation dominates —");
    println!("the 'homogeneous double-double' extension of §6.");
}
