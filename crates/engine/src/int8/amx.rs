//! The AMX-INT8 rung of the INT8 engine: `tdpbssd` tile products.
//!
//! `tdpbssd tmm_c, tmm_l, tmm_r` adds to each i32 of `tmm_c[x][y]` the
//! 64-term signed dot product of row `x` of `tmm_l` with the
//! VNNI-4-interleaved column `y` of `tmm_r` (row `q` of `tmm_r` holds
//! depth `4q..4q + 4` of each of its 16 columns), with wrapping i32
//! accumulation. Products of i8 values are exact and wrapping addition
//! commutes, so the kernel computes the same integers as the `vpdpwssd`
//! rung and the scalar oracle, bit for bit.
//!
//! # Layout
//!
//! The engine's output stripe is column-major, so the kernel computes
//! `Cᵀ = Bᵀ·Aᵀ`: the left operand is a run of 16 B columns (a B-panel
//! column is already depth-contiguous), the right operand is 16 A rows
//! interleaved by depth quads, and a finished tile row — one column of
//! `C`, 16 consecutive rows — stores straight into the stripe.
//!
//! # Narrowing
//!
//! The inputs are the engine's sign-extended i16 panels. Per worker, a
//! cache-resident scratch holds the current depth window narrowed to i8:
//! up to [`NCA`] B columns (plain) and [`MCA`] A rows (interleaved into
//! 1 KiB tiles), zero-padded to 32 rows/columns and 64-byte depth.
//!
//! # Tile state
//!
//! Permission for the tile-data state is requested once per process
//! (`arch_prctl(ARCH_REQ_XCOMP_PERM)`), and every thread loads the one
//! tile configuration (all eight tiles 16 rows × 64 bytes) before its
//! first tile instruction — an unconfigured tile raises `#UD`. Tile
//! registers are live only inside one `asm!` block of [`block_2x2`], never
//! across Rust code: a pool worker that waits for a region runs other
//! jobs, so no tile value may outlive the block that produced it.

use super::AmxUnavailable;
use std::arch::asm;
use std::arch::x86_64::*;
use std::cell::{Cell, RefCell};

/// Rows of one tile (and columns of an i32 accumulator tile).
const TILE_ROWS: usize = 16;
/// Bytes of one tile row: the depth one `tdpbssd` consumes.
const TILE_K: usize = 64;
/// Bytes of one interleaved A tile.
const TILE_BYTES: usize = TILE_ROWS * TILE_K;
/// Rows and columns of the `2 × 2`-tile block the microkernel computes.
const BLOCK: usize = 2 * TILE_ROWS;
/// Depth of one narrowed window. Two 32-column slivers of `B` at this
/// depth (64 KiB) sit in L1 while the A block streams past them.
const KCA: usize = 1024;
/// B columns narrowed per window (`NCA × KCA` = 256 KiB, L2-resident).
const NCA: usize = 256;
/// A rows interleaved per window (`MCA × KCA` = 128 KiB, L2-resident).
const MCA: usize = 128;

/// Column unit the engine splits stripes on while this rung dispatches:
/// one tile of B columns, so narrow plans (`n = 32`) still give every
/// worker a stripe.
pub(super) const STRIPE_COLS: usize = TILE_ROWS;

/// The detection chain: CPUID, XCR0, then the tile-data permission
/// request (once per process — the caller caches the answer).
#[cfg(target_os = "linux")]
pub(super) fn detect() -> Result<(), AmxUnavailable> {
    // SAFETY: CPUID exists on every x86-64 CPU. (The intrinsics are safe
    // fns on recent toolchains and unsafe on the minimum supported one.)
    #[allow(unused_unsafe)]
    let (leaf7, leaf1) = unsafe { (__cpuid_count(7, 0), __cpuid(1)) };
    if (leaf7.edx >> 24) & 0b11 != 0b11 || !is_x86_feature_detected!("avx512bw") {
        return Err(AmxUnavailable::Cpu);
    }
    // XGETBV faults unless the OS set CR4.OSXSAVE (CPUID.1:ECX[27]).
    if (leaf1.ecx >> 27) & 1 == 0 {
        return Err(AmxUnavailable::Os);
    }
    // SAFETY: OSXSAVE is set (checked above), so XGETBV is enabled.
    let xcr0 = unsafe { _xgetbv(0) };
    if (xcr0 >> 17) & 0b11 != 0b11 {
        return Err(AmxUnavailable::Os);
    }
    const SYS_ARCH_PRCTL: i64 = 158;
    const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
    const XFEATURE_XTILEDATA: u64 = 18;
    let ret: i64;
    // SAFETY: a raw arch_prctl syscall with scalar arguments; it touches
    // no memory of ours and clobbers only rax, rcx and r11.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret != 0 {
        return Err(AmxUnavailable::Permission(-ret));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub(super) fn detect() -> Result<(), AmxUnavailable> {
    Err(AmxUnavailable::Platform)
}

/// The `ldtilecfg` operand: palette 1, all eight tiles 16 rows × 64 bytes.
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

static TILE_CONFIG: TileConfig = {
    let mut cfg = [0u8; 64];
    cfg[0] = 1;
    let mut t = 0;
    while t < 8 {
        cfg[16 + 2 * t] = TILE_K as u8;
        cfg[48 + t] = TILE_ROWS as u8;
        t += 1;
    }
    TileConfig(cfg)
};

thread_local! {
    /// Whether this thread has loaded [`TILE_CONFIG`].
    static TILES_CONFIGURED: Cell<bool> = const { Cell::new(false) };
    /// This worker's narrowed operand windows.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Load the tile configuration on this thread, once.
///
/// # Safety
/// [`detect`] must have returned `Ok` (tile-data permission granted).
unsafe fn configure_tiles() {
    TILES_CONFIGURED.with(|done| {
        if !done.get() {
            // SAFETY: AMX is available and permitted (caller contract);
            // the operand is a valid 64-byte palette-1 configuration.
            unsafe { asm!("ldtilecfg [{}]", in(reg) TILE_CONFIG.0.as_ptr(), options(nostack)) };
            done.set(true);
        }
    });
}

/// One 64-byte line, so the scratch windows are cache-line aligned.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([i8; 64]);

/// A growable, 64-byte-aligned byte buffer.
#[derive(Default)]
struct Lines(Vec<Line>);

impl Lines {
    fn bytes(&mut self, len: usize) -> &mut [i8] {
        let lines = len.div_ceil(64);
        if self.0.len() < lines {
            self.0.resize(lines, Line([0; 64]));
        }
        // SAFETY: `Line` is 64 plain bytes without padding, and the vector
        // holds at least `len` of them.
        unsafe { std::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast::<i8>(), len) }
    }
}

#[derive(Default)]
struct Scratch {
    /// B columns of the window: column `j` at `j * kcb`.
    cols: Lines,
    /// A rows of the window, interleaved: 16-row group `t`, depth chunk
    /// `s` is the 1 KiB tile at `(t * steps + s) * TILE_BYTES`.
    rows: Lines,
}

/// The AMX sweep over one column stripe: `c` (column-major `m × nc`) is
/// fully overwritten with the product of the depth window `kp_eff` of A
/// panel rows (row `i` at `apack[i * lda..]`) and B panel columns (stripe
/// column `j` at `bpack[j * ldb..]`).
///
/// Returns `false`, with `c` partly written, when a panel value does not
/// fit i8: the engine's i16 kernels multiply any i16 exactly (mod 2^32),
/// so the caller re-runs such a stripe on them. Residue panels are always
/// in range.
///
/// # Safety
/// [`detect`] must have returned `Ok`.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub(super) unsafe fn stripe_sweep(
    m: usize,
    kp_eff: usize,
    lda: usize,
    ldb: usize,
    apack: &[i16],
    bpack: &[i16],
    nc: usize,
    c: &mut [i32],
) -> bool {
    assert!(kp_eff.is_multiple_of(super::PK) && kp_eff > 0);
    assert_eq!(c.len(), m * nc, "C stripe");
    // SAFETY: AMX is permitted (caller contract).
    unsafe { configure_tiles() };
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        for jc in (0..nc).step_by(NCA) {
            let ncb = NCA.min(nc - jc);
            let ncb_pad = ncb.next_multiple_of(BLOCK);
            for pc in (0..kp_eff).step_by(KCA) {
                let kc = KCA.min(kp_eff - pc);
                let kcb = kc.next_multiple_of(TILE_K);
                let steps = kcb / TILE_K;
                let cols = scratch.cols.bytes(ncb_pad * kcb);
                let mut fits = true;
                for (j, dst) in cols.chunks_exact_mut(kcb).enumerate() {
                    let src = (j < ncb).then(|| &bpack[(jc + j) * ldb + pc..][..kc]);
                    // SAFETY: AVX-512BW is part of `detect()`.
                    fits &= unsafe { narrow_row(src, dst) };
                }
                for ic in (0..m).step_by(MCA) {
                    let mcb = MCA.min(m - ic);
                    let mcb_pad = mcb.next_multiple_of(BLOCK);
                    let rows = scratch.rows.bytes(mcb_pad * kcb);
                    for (t, group) in rows.chunks_exact_mut(steps * TILE_BYTES).enumerate() {
                        let i0 = ic + t * TILE_ROWS;
                        let src: [Option<&[i16]>; TILE_ROWS] = std::array::from_fn(|r| {
                            (i0 + r < ic + mcb).then(|| &apack[(i0 + r) * lda + pc..][..kc])
                        });
                        // SAFETY: AVX-512BW is part of `detect()`.
                        fits &= unsafe { interleave_rows(&src, group) };
                    }
                    if !fits {
                        return false;
                    }
                    for jr in (0..ncb_pad).step_by(BLOCK) {
                        for ir in (0..mcb_pad).step_by(BLOCK) {
                            let tiles = Block {
                                cols: &cols[jr * kcb..][..BLOCK * kcb],
                                rows: &rows[ir * kcb..][..BLOCK * kcb],
                                kcb,
                            };
                            // SAFETY: `configure_tiles` ran above.
                            unsafe { store_block(&tiles, c, m, nc, ic + ir, jc + jr, pc == 0) };
                        }
                    }
                }
            }
        }
        true
    })
}

/// The narrowed operands of one `2 × 2`-tile block, `kcb` bytes deep.
struct Block<'a> {
    /// 32 B columns, column `j` at `j * kcb`.
    cols: &'a [i8],
    /// Two 16-row groups of interleaved tiles, the second at `16 * kcb`.
    rows: &'a [i8],
    kcb: usize,
}

/// Compute the 32 × 32 block of `C` at rows `i0..`, columns `j0..` over
/// the window (assigning it when `first`, else adding to it). Blocks that
/// overhang the stripe go through a local buffer.
///
/// # Safety
/// Tiles configured on this thread ([`configure_tiles`]).
unsafe fn store_block(
    tiles: &Block,
    c: &mut [i32],
    m: usize,
    nc: usize,
    i0: usize,
    j0: usize,
    first: bool,
) {
    if i0 + BLOCK <= m && j0 + BLOCK <= nc {
        let dst = &mut c[j0 * m + i0..];
        assert!(dst.len() >= (BLOCK - 1) * m + BLOCK);
        // SAFETY: tiles are configured (caller contract), `Block` slices
        // are 32 × `kcb` bytes (checked at construction), and the 32
        // columns of 32 i32 at stride `m` lie inside `dst` (asserted).
        unsafe { block_2x2(tiles, dst.as_mut_ptr(), m * 4, first) };
        return;
    }
    let (rows, cols) = (BLOCK.min(m - i0), BLOCK.min(nc - j0));
    let mut buf = [0i32; BLOCK * BLOCK];
    if !first {
        for j in 0..cols {
            buf[j * BLOCK..][..rows].copy_from_slice(&c[(j0 + j) * m + i0..][..rows]);
        }
    }
    // SAFETY: as above; `buf` is a full 32 × 32 block at stride 32.
    unsafe { block_2x2(tiles, buf.as_mut_ptr(), BLOCK * 4, first) };
    for j in 0..cols {
        c[(j0 + j) * m + i0..][..rows].copy_from_slice(&buf[j * BLOCK..][..rows]);
    }
}

/// The microkernel: four accumulator tiles (`tmm0..3`, each 16 columns ×
/// 16 rows of `C`), two B-column tiles (`tmm4/5`) and two interleaved A
/// tiles (`tmm6/7`) per 64-deep step. `c` addresses the block's first
/// column; column `j` starts `j * cs` bytes further.
///
/// # Safety
/// Tiles configured on this thread; `tiles.kcb` is a nonzero multiple of
/// 64 and both slices hold `32 * kcb` bytes; `c` covers 32 columns of 32
/// i32 at stride `cs` bytes.
unsafe fn block_2x2(tiles: &Block, c: *mut i32, cs: usize, first: bool) {
    let half = TILE_ROWS * tiles.kcb;
    debug_assert!(tiles.cols.len() >= 2 * half && tiles.rows.len() >= 2 * half);
    // SAFETY: caller contract; all tile state is produced and consumed
    // inside this one block.
    unsafe {
        asm!(
            "test {first}, {first}",
            "jz 2f",
            "tilezero tmm0",
            "tilezero tmm1",
            "tilezero tmm2",
            "tilezero tmm3",
            "jmp 3f",
            "2:",
            "tileloadd tmm0, [{c} + {cs}*1]",
            "tileloadd tmm1, [{c} + {cs}*1 + 64]",
            "tileloadd tmm2, [{c1} + {cs}*1]",
            "tileloadd tmm3, [{c1} + {cs}*1 + 64]",
            "3:",
            "tileloadd tmm4, [{b0} + {bs}*1]",
            "tileloadd tmm5, [{b1} + {bs}*1]",
            "tileloadd tmm6, [{a0} + {s64}*1]",
            "tileloadd tmm7, [{a1} + {s64}*1]",
            "tdpbssd tmm0, tmm4, tmm6",
            "tdpbssd tmm1, tmm4, tmm7",
            "tdpbssd tmm2, tmm5, tmm6",
            "tdpbssd tmm3, tmm5, tmm7",
            "add {b0}, 64",
            "add {b1}, 64",
            "add {a0}, 1024",
            "add {a1}, 1024",
            "dec {n}",
            "jnz 3b",
            "tilestored [{c} + {cs}*1], tmm0",
            "tilestored [{c} + {cs}*1 + 64], tmm1",
            "tilestored [{c1} + {cs}*1], tmm2",
            "tilestored [{c1} + {cs}*1 + 64], tmm3",
            first = in(reg) first as usize,
            c = in(reg) c,
            c1 = in(reg) c.cast::<u8>().add(TILE_ROWS * cs),
            cs = in(reg) cs,
            b0 = inout(reg) tiles.cols.as_ptr() => _,
            b1 = inout(reg) tiles.cols.as_ptr().add(half) => _,
            bs = in(reg) tiles.kcb,
            a0 = inout(reg) tiles.rows.as_ptr() => _,
            a1 = inout(reg) tiles.rows.as_ptr().add(half) => _,
            s64 = in(reg) TILE_K,
            n = inout(reg) tiles.kcb / TILE_K => _,
            out("tmm0") _,
            out("tmm1") _,
            out("tmm2") _,
            out("tmm3") _,
            out("tmm4") _,
            out("tmm5") _,
            out("tmm6") _,
            out("tmm7") _,
            options(nostack),
        );
    }
}

/// Narrow 32 i16 to i8, flagging in `outside` any value outside i8.
#[inline]
#[target_feature(enable = "avx512bw")]
fn narrow32(src: &[i16; 32], outside: &mut u32) -> __m256i {
    // SAFETY: 64 readable bytes.
    let v = unsafe { _mm512_loadu_si512(src.as_ptr().cast()) };
    // x ∉ [-128, 127]  <=>  (x + 128) as u16 > 255.
    let biased = _mm512_add_epi16(v, _mm512_set1_epi16(128));
    *outside |= _mm512_cmpgt_epu16_mask(biased, _mm512_set1_epi16(255));
    _mm512_cvtepi16_epi8(v)
}

/// Narrow one depth-contiguous i16 vector (length a multiple of 32) into
/// `dst`, zero-padded past its end; `None` writes a zero vector. Returns
/// whether every value fits i8.
#[target_feature(enable = "avx512bw")]
fn narrow_row(src: Option<&[i16]>, dst: &mut [i8]) -> bool {
    let src = src.unwrap_or(&[]);
    assert!(src.len().is_multiple_of(32) && src.len() <= dst.len());
    let mut outside = 0;
    for (d, s) in dst.chunks_exact_mut(32).zip(src.chunks_exact(32)) {
        let v = narrow32(s.try_into().expect("32-element chunk"), &mut outside);
        // SAFETY: 32 writable bytes.
        unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), v) };
    }
    dst[src.len()..].fill(0);
    outside == 0
}

/// Narrow 16 depth-contiguous i16 rows (lengths multiples of 32) and
/// interleave them by depth quads into consecutive 1 KiB tiles: in tile
/// `s`, byte `4 * r + b` of row `q` is depth `64 s + 4 q + b` of source
/// row `r`. Missing rows and depth past a row's end are zero. Returns
/// whether every value fits i8.
#[target_feature(enable = "avx512bw")]
fn interleave_rows(src: &[Option<&[i16]>; TILE_ROWS], group: &mut [i8]) -> bool {
    let mut outside = 0;
    let zero = _mm512_setzero_si512();
    for (s, tile) in group.chunks_exact_mut(TILE_BYTES).enumerate() {
        let d0 = s * TILE_K;
        let mut lines = [zero; TILE_ROWS];
        for (line, row) in lines.iter_mut().zip(src) {
            let Some(row) = row.filter(|row| d0 < row.len()) else {
                continue;
            };
            let lo = narrow32(row[d0..d0 + 32].try_into().expect("32"), &mut outside);
            let hi = match row.get(d0 + 32..d0 + 64) {
                Some(h) => narrow32(h.try_into().expect("32"), &mut outside),
                None => _mm256_setzero_si256(),
            };
            *line = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi);
        }
        let quads = transpose_dwords(lines);
        for (q, v) in tile.chunks_exact_mut(TILE_K).zip(quads) {
            // SAFETY: 64 writable bytes.
            unsafe { _mm512_storeu_si512(q.as_mut_ptr().cast(), v) };
        }
    }
    outside == 0
}

/// Transpose a 16 × 16 matrix of dwords held one row per register.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose_dwords(r: [__m512i; 16]) -> [__m512i; 16] {
    // Pairs of rows interleaved by dword, then by qword: register
    // `4 g + x` holds dword `x + 4 l` of rows `4 g..4 g + 4` in 128-bit
    // lane `l`.
    let mut t = [_mm512_setzero_si512(); 16];
    for p in 0..8 {
        t[2 * p] = _mm512_unpacklo_epi32(r[2 * p], r[2 * p + 1]);
        t[2 * p + 1] = _mm512_unpackhi_epi32(r[2 * p], r[2 * p + 1]);
    }
    let mut u = [_mm512_setzero_si512(); 16];
    for g in 0..4 {
        let b = 4 * g;
        u[b] = _mm512_unpacklo_epi64(t[b], t[b + 2]);
        u[b + 1] = _mm512_unpackhi_epi64(t[b], t[b + 2]);
        u[b + 2] = _mm512_unpacklo_epi64(t[b + 1], t[b + 3]);
        u[b + 3] = _mm512_unpackhi_epi64(t[b + 1], t[b + 3]);
    }
    // Gather lane `l` of the four row groups: output row `x + 4 l`.
    let mut out = [_mm512_setzero_si512(); 16];
    for x in 0..4 {
        let e0 = _mm512_shuffle_i32x4::<0x88>(u[x], u[4 + x]);
        let o0 = _mm512_shuffle_i32x4::<0xdd>(u[x], u[4 + x]);
        let e1 = _mm512_shuffle_i32x4::<0x88>(u[8 + x], u[12 + x]);
        let o1 = _mm512_shuffle_i32x4::<0xdd>(u[8 + x], u[12 + x]);
        out[x] = _mm512_shuffle_i32x4::<0x88>(e0, e1);
        out[x + 8] = _mm512_shuffle_i32x4::<0xdd>(e0, e1);
        out[x + 4] = _mm512_shuffle_i32x4::<0x88>(o0, o1);
        out[x + 12] = _mm512_shuffle_i32x4::<0xdd>(o0, o1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matches_index_swap() {
        if !is_x86_feature_detected!("avx512f") {
            println!("SKIP transpose_matches_index_swap: no AVX-512F");
            return;
        }
        let src: [[u32; 16]; 16] =
            std::array::from_fn(|r| std::array::from_fn(|c| (r * 16 + c) as u32));
        // SAFETY: AVX-512F checked above; each row is 64 readable bytes.
        let got = unsafe {
            let rows = std::array::from_fn(|r| _mm512_loadu_si512(src[r].as_ptr().cast()));
            transpose_dwords(rows)
        };
        for (q, v) in got.iter().enumerate() {
            let mut lane = [0u32; 16];
            // SAFETY: 64 writable bytes.
            unsafe { _mm512_storeu_si512(lane.as_mut_ptr().cast(), *v) };
            for (r, &x) in lane.iter().enumerate() {
                assert_eq!(x, src[r][q], "out row {q}, lane {r}");
            }
        }
    }
}
