//! Public-API surface snapshot: the consolidation guard.
//!
//! Each verb has one public entry: `gemm` / `gemm_into` (with
//! `GemmArgs` carrying workspace, report sink, BLAS options and
//! per-call overrides), `prepare(side, view)` and `execute(a, b, ...)`;
//! `dgemm` / `sgemm` stay as the panicking owned-matrix conveniences.
//! This test pins that state three ways:
//!
//! 1. the canonical items must exist and work (checked by using them);
//! 2. the set of `pub fn`s on `impl Ozaki2` (scanned from source) must
//!    equal the frozen whitelist below — adding a new named entry fails
//!    this test, forcing the addition through the facade (or an explicit
//!    whitelist change with review);
//! 3. the `ozaki2` crate-root `pub use` items must equal a second frozen
//!    list, so a removed wrapper type or free function (an execution plan
//!    type, a BLAS-order free function, a mixed-precision shim) cannot
//!    come back through a re-export unnoticed.

use gemm_dense::{MatView, MatViewMut};
use ozaki2::{
    Accuracy, GemmArgs, GemmOut, Mode, OperandInput, OperandSide, Ozaki2, Ozaki2Builder, Workspace,
};
use std::collections::BTreeSet;
use std::path::Path;

/// The consolidated `impl Ozaki2` surface. Keep SMALL: new capabilities
/// belong on the facade (`gemm`/`gemm_into` args) or the builder, not as
/// new named methods.
const OZAKI2_PUB_FNS: &[&str] = &[
    // construction and configuration
    "new",
    "builder",
    "n_moduli",
    "mode",
    "fault_policy",
    "with_fault_policy",
    "backend",
    "with_backend",
    // gemm: the canonical facade and its owned-matrix conveniences
    "gemm",
    "gemm_into",
    "dgemm",
    "sgemm",
    // prepare / execute
    "prepare",
    "execute",
];

/// The `ozaki2` crate-root `pub use` items.
const CRATE_ROOT_REEXPORTS: &[&str] = &[
    // abft
    "FaultEvent",
    "FaultPolicy",
    "FaultReport",
    "RecoveryAction",
    // accumulate
    "fold_kernel_name",
    "fold_planes",
    "fold_span",
    "fold_span_scalar",
    "FoldPrecision",
    // blas
    "GemmOp",
    // consts
    "constants",
    "constants_for",
    "fma_constants",
    "Constants",
    // convert
    "convert_kernel_name",
    "convert_pack_panels",
    "residue_planes",
    "trunc_convert_pack_panels",
    "ElemSlice",
    "TruncSource",
    // element
    "Element",
    // facade
    "arithmetic_intensity",
    "Accuracy",
    "GemmArgs",
    "GemmOut",
    "Ozaki2Builder",
    // dependencies
    "BackendKind",
    "TimeShare",
    // mixed
    "dgemm_dd",
    // moduli
    "backend_log2_p",
    "backend_moduli",
    "backend_n_max",
    "backend_pool",
    "fma_moduli",
    "moduli",
    "FMA_MODULI",
    "MODULI",
    "N_MAX",
    "N_MAX_FMA",
    "N_MAX_SGEMM",
    // nselect
    "auto_emulator",
    "choose_n",
    "choose_n_checked",
    "choose_n_checked_for",
    "choose_n_for",
    "n_for_dgemm_level",
    "n_for_sgemm_level",
    "predicted_error",
    "predicted_error_for",
    // pipeline
    "EmulationError",
    "EmulationReport",
    "Mode",
    "Ozaki2",
    "PhaseTimes",
    "Workspace",
    "K_BLOCK_MAX",
    // prepared
    "OperandInput",
    "OperandSide",
    "PreparedOperand",
    // scale
    "fast_scale_a_view",
    "fast_scale_b_view",
    "fast_scale_cols_slice",
    "fast_scale_rows_slice",
    "pow2_split",
    "strunc_row",
    "strunc_row_scalar",
    "trunc_kernel_name",
];

/// Names a `pub use` statement brings into scope: the last path segment
/// of each (possibly braced) import.
fn pub_use_items(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("\npub use ") {
        let stmt_start = at + "\npub use ".len();
        let stmt_len = rest[stmt_start..].find(';').expect("pub use ends with ;");
        let stmt = &rest[stmt_start..stmt_start + stmt_len];
        let list = match stmt.find('{') {
            Some(open) => &stmt[open + 1..stmt.rfind('}').expect("closing brace")],
            None => stmt,
        };
        for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            found.push(item.rsplit("::").next().unwrap().to_string());
        }
        rest = &rest[stmt_start + stmt_len..];
    }
    found
}

/// `got` must equal `want` exactly, naming any difference.
fn assert_frozen(got: Vec<String>, want: &[&str], what: &str) {
    let got_set: BTreeSet<String> = got.iter().cloned().collect();
    let want_set: BTreeSet<String> = want.iter().map(|s| s.to_string()).collect();
    let unexpected: Vec<_> = got_set.difference(&want_set).collect();
    let missing: Vec<_> = want_set.difference(&got_set).collect();
    assert!(
        unexpected.is_empty(),
        "new {what} outside the consolidated surface: {unexpected:?}. Extend \
         the facade (GemmArgs / builder) instead of adding named entries — or \
         update the frozen list in tests/api_surface.rs deliberately."
    );
    assert!(
        missing.is_empty(),
        "frozen {what} disappeared: {missing:?} (breaking change — update \
         tests/api_surface.rs deliberately)"
    );
    // Belt and braces: no duplicates, and never past the frozen size.
    assert_eq!(got.len(), want.len(), "{what}: {got:?}");
}

/// Collect the `pub fn` names declared directly inside `impl Ozaki2 {`
/// blocks of one source file (brace-depth scan; good enough for rustfmt'd
/// source, which this repo enforces in CI).
fn pub_fns_in_impl_ozaki2(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut in_impl = false;
    let mut depth = 0i32;
    for line in src.lines() {
        let trimmed = line.trim();
        if !in_impl && (trimmed == "impl Ozaki2 {" || trimmed.starts_with("impl Ozaki2 {")) {
            in_impl = true;
            depth = 0;
        }
        if in_impl {
            if depth == 1 {
                if let Some(rest) = trimmed.strip_prefix("pub fn ") {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    found.push(name);
                }
            }
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            if depth <= 0 {
                in_impl = false;
            }
        }
    }
    found
}

#[test]
fn ozaki2_surface_matches_the_frozen_whitelist() {
    let core_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut got: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&core_src).expect("read crates/core/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read source");
        got.extend(pub_fns_in_impl_ozaki2(&src));
    }
    assert_frozen(got, OZAKI2_PUB_FNS, "pub fn(s) on Ozaki2");
}

#[test]
fn crate_root_reexports_match_the_frozen_list() {
    let lib = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/lib.rs");
    let src = std::fs::read_to_string(lib).expect("read crates/core/src/lib.rs");
    assert_frozen(
        pub_use_items(&src),
        CRATE_ROOT_REEXPORTS,
        "ozaki2 crate-root re-export(s)",
    );
}

#[test]
fn canonical_items_exist_and_compose() {
    // The three pillars, exercised end to end: views → facade → builder.
    let emu: Ozaki2 = Ozaki2::builder()
        .accuracy(Accuracy::TargetError(2f64.powi(-52)))
        .mode(Mode::Fast)
        .k(1024)
        .build()
        .expect("DGEMM-level at k=1024 is reachable");
    assert_eq!(emu.n_moduli(), 15, "the paper's §5.1 sweet spot");

    let a = gemm_dense::workload::phi_matrix_f64(8, 12, 0.5, 1, 0);
    let b = gemm_dense::workload::phi_matrix_f64(12, 6, 0.5, 1, 1);
    let va: MatView<'_, f64> = a.view();
    let out: GemmOut<f64> = emu.gemm(GemmArgs::new(va, b.view())).unwrap();
    assert_eq!(out.c, emu.dgemm(&a, &b));

    let mut cbuf = vec![0f64; 8 * 6];
    let cview: MatViewMut<'_, f64> = MatViewMut::col_major(&mut cbuf, 8, 6);
    emu.gemm_into(GemmArgs::new(&a, &b), cview).unwrap();
    assert_eq!(&cbuf, out.c.as_slice());

    // prepare / execute: a prepared B against a raw A, bit-identical.
    let pb = emu.prepare(OperandSide::B, &b).unwrap();
    let mut c = vec![0f64; 8 * 6];
    emu.execute(
        OperandInput::RawView(va),
        OperandInput::Prepared(&pb),
        &mut Workspace::new(),
        true,
        &mut c,
    )
    .unwrap();
    assert_eq!(&c, out.c.as_slice());

    // Builder type is nameable (for APIs that store one).
    let _builder: Ozaki2Builder = Ozaki2::builder().accuracy(Accuracy::FixedN(8));

    // Backend selection rides the same pillars: the builder resolves
    // accuracy per pool, and the per-call override lives on GemmArgs.
    let fma = Ozaki2::builder()
        .accuracy(Accuracy::Fp32Equivalent)
        .backend(ozaki2::BackendKind::FmaBf16)
        .k(1024)
        .build()
        .expect("SGEMM-level is reachable on the fma-bf16 pool");
    assert_eq!(fma.backend(), ozaki2::BackendKind::FmaBf16);
    let out2 = fma.gemm(GemmArgs::new(&a, &b)).unwrap();
    assert_eq!(out2.c.shape(), (8, 6));
}
