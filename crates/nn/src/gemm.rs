//! Register-blocked, cache-tiled single-precision matrix multiply.
//!
//! Two families of register-tile micro-kernels serve three drivers:
//!
//! * the public GEMMs below, used by [`crate::Linear`], the backward
//!   passes of [`crate::Conv2d`], and the PCA and selector in
//!   `pp-selection`;
//! * the implicit-GEMM convolution in [`crate::conv`], which gathers
//!   its B panels from a zero-bordered copy of the input planes and
//!   calls the panel kernels through the crate-private `Kernel`;
//! * the convolution's weight gradient, which runs the NT dot tiles
//!   (`Kernel::dots`) on rows of that same copy.
//!
//! Three memory layouts cover every public call site without
//! materialising transposes:
//!
//! * [`sgemm`]   — `C = A·B + β·C`   with `A: m×k`, `B: k×n`;
//! * [`sgemm_tn`] — `C = Aᵀ·B + β·C` with `A` stored `k×m`;
//! * [`sgemm_nt`] — `C = A·Bᵀ + β·C` with `B` stored `n×k`.
//!
//! All matrices are dense row-major `f32` slices. NN and TN run the
//! panel kernels: the k-dimension is cut into 256-deep slices and each
//! output element accumulates one slice at a time in a register tile:
//! an in-order chain of fused multiply-adds (AVX-512F or AVX2+FMA,
//! detected at runtime) or of unfused multiply-then-add (the portable
//! kernel), started from zero, then added to `C`. Slices are summed in
//! order.
//!
//! NT runs the dot tiles, where every output element is one dot
//! product of an A row and a B row: 16 partial sums by `p mod 16`
//! accumulated with fused multiply-adds (8 unfused by `p mod 8` on the
//! portable kernel), an 8-wide remainder into the low eight, the
//! fold-halves reduction (lane `l` with `l + 8`, then `l + 4`, `l + 2`,
//! `l + 1`; pairwise `(0+1)+(2+3)`, `(4+5)+(6+7)` on portable), an
//! unfused scalar tail (portable: its own sum, added last), then
//! `c += sum` after `C` was scaled by `β`. A tile computes an MI×NJ
//! block of such elements in one pass over k (AVX-512F 4×6, AVX2 and
//! portable 2×2); single rows and columns take the edges.
//!
//! Either way an element's arithmetic depends on `k`, its own row and
//! column of the operands and on whether a fused kernel computed it —
//! never on `m`, `n`, the tile it sits in or its neighbours. That is
//! the property batched sampling relies on, and the one that keeps
//! training bit-identical however the tiles fall.
//!
//! The public NN/TN GEMMs keep a 6-row tile on every instruction set
//! and compute ragged column edges (the last `n mod 16` columns) with
//! the portable kernel. Every slice length the kernels index by raw
//! pointer is checked with `assert!`, in release builds too.
//!
//! A scalar reference implementation ([`sgemm_naive`] and friends) backs
//! the unit tests.
//!
//! # Example
//!
//! ```
//! use pp_nn::gemm::sgemm;
//!
//! // [1 2; 3 4] · [5 6; 7 8]
//! let a = [1.0, 2.0, 3.0, 4.0];
//! let b = [5.0, 6.0, 7.0, 8.0];
//! let mut c = [0.0; 4];
//! sgemm(2, 2, 2, &a, &b, &mut c, 0.0);
//! assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
//! ```

// Register-tile micro-kernels deliberately drive fixed-size accumulator
// arrays and packed panels by index, and thread the full blocking state
// through their signatures; the iterator/struct rewrites clippy suggests
// obscure the kernel shape.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

/// Rows per register tile of the public GEMMs (6×16 f32 = 12 ymm
/// accumulators on AVX2), on every instruction set.
pub(crate) const MR: usize = 6;
/// Columns per AVX2 and portable register tile (two 8-lane vectors).
const NR: usize = 16;
/// Columns per AVX-512F register tile (two 16-lane vectors).
const NR_512: usize = 32;
/// The widest register tile any [`Kernel`] uses.
pub(crate) const NR_MAX: usize = NR_512;
/// k-slice depth: a 32-wide B panel of this depth is 32 KiB and an
/// 8-row A panel 8 KiB, so both stay in L1/L2 while a tile runs.
pub(crate) const KC: usize = 256;

/// Whether the AVX2+FMA micro-kernels are usable on this CPU (checked
/// once; the portable kernel is the fallback everywhere else).
#[cfg(target_arch = "x86_64")]
fn cpu_has_avx2_fma() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx2_fma() -> bool {
    false
}

/// Whether the AVX-512F micro-kernel is usable on this CPU.
#[cfg(target_arch = "x86_64")]
fn cpu_has_avx512f() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx512f"))
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx512f() -> bool {
    false
}

#[inline]
fn scale_c(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c {
            *v *= beta;
        }
    }
}

/// Element accessors for the three operand layouts, so one blocked
/// driver serves NN/TN and one dot-product driver serves NT.
#[derive(Clone, Copy)]
pub(crate) enum ALayout {
    /// `A` stored `m×k` row-major: `a[i·k + p]`.
    Normal,
    /// `A` stored `k×m` row-major (op = `Aᵀ`): `a[p·m + i]`.
    Transposed,
}

impl ALayout {
    #[inline(always)]
    fn at(self, a: &[f32], i: usize, p: usize, m: usize, k: usize) -> f32 {
        match self {
            ALayout::Normal => a[i * k + p],
            ALayout::Transposed => a[p * m + i],
        }
    }
}

/// Packs rows `i0..i0 + tile` (clipped to `m`) and columns
/// `p0..p0 + kc` of `op(A)` into the `[kc][tile]` panel a micro-kernel
/// reads, zeroing the rows past `m`.
pub(crate) fn pack_a(
    lay: ALayout,
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    p0: usize,
    kc: usize,
    tile: usize,
    dst: &mut [f32],
) {
    let mr = tile.min(m - i0);
    for (p, row) in dst[..kc * tile].chunks_exact_mut(tile).enumerate() {
        for r in 0..mr {
            row[r] = lay.at(a, i0 + r, p0 + p, m, k);
        }
        row[mr..].fill(0.0);
    }
}

/// `rows` rows of `width` elements placed `stride` apart span
/// `(rows − 1)·stride + width` elements; `None` for zero rows or on
/// overflow.
fn span(rows: usize, stride: usize, width: usize) -> Option<usize> {
    rows.checked_sub(1)?.checked_mul(stride)?.checked_add(width)
}

/// Asserts every bound a SIMD micro-kernel indexes by raw pointer: an
/// `[kc][tile_mr]` A panel, `kc` B rows read `width` wide `ldb` apart,
/// and `mr ≤ tile_mr` C rows written `nr ≤ width` wide `ldc` apart.
#[inline(always)]
fn check_tile(
    kc: usize,
    tile_mr: usize,
    width: usize,
    ap: &[f32],
    b: &[f32],
    ldb: usize,
    c: &[f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    assert!(
        (1..=tile_mr).contains(&mr) && (1..=width).contains(&nr),
        "tile shape out of range"
    );
    assert!(
        kc.checked_mul(tile_mr).is_some_and(|len| len <= ap.len()),
        "A panel shorter than kc·MR"
    );
    assert!(
        span(kc, ldb, width).is_some_and(|len| len <= b.len()),
        "B operand shorter than its kc rows"
    );
    assert!(
        span(mr, ldc, nr).is_some_and(|len| len <= c.len()),
        "C tile out of bounds"
    );
}

/// Adds register-tile rows into `C`: `c[r·ldc + j] = base + tile[r][j]`
/// for `r < mr`, `j < nr`, where `base` is `0.0` on a call's first k
/// slice and the current `c` value after it.
#[inline]
fn add_tile<const W: usize>(
    tile: &[[f32; W]],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    for r in 0..mr {
        let crow = &mut c[r * ldc..r * ldc + nr];
        for (cv, &x) in crow.iter_mut().zip(&tile[r][..nr]) {
            let base = if first { 0.0 } else { *cv };
            *cv = base + x;
        }
    }
}

/// Portable `MR×nr` micro-kernel (`nr ≤ 16`): accumulates one packed A
/// panel (`ap`, `[kc][MR]`) against `kc` B rows `ldb` apart with
/// unfused multiply-then-add, then adds the tile into `C` rows `ldc`
/// apart (see [`add_tile`] for `first`).
#[inline]
fn kernel_portable<const MR: usize>(
    kc: usize,
    ap: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let brow = &b[p * ldb..p * ldb + nr];
        let apk = &ap[p * MR..p * MR + MR];
        for r in 0..MR {
            let av = apk[r];
            for (x, &bv) in acc[r][..nr].iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    add_tile(&acc, c, ldc, mr, nr, first);
}

/// AVX2+FMA `MR×16` micro-kernel: `2·MR` ymm accumulators, one
/// broadcast and two loads per k step. Reads B rows at full width 16;
/// writes `nr ≤ 16` columns of `mr` C rows (see [`add_tile`] for
/// `first`).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. Every slice bound is checked by
/// [`check_tile`] (`assert!`), so any slices are sound to pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_avx2<const MR: usize>(
    kc: usize,
    ap: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    check_tile(kc, MR, NR, ap, b, ldb, c, ldc, mr, nr);
    // SAFETY: AVX2+FMA are present (this fn's contract). check_tile
    // asserted ap.len() ≥ kc·MR and b.len() ≥ (kc − 1)·ldb + 16, so
    // every broadcast `ap[p·MR + r]` (p < kc, r < MR) and every 16-wide
    // B row load at `p·ldb` stays in bounds.
    let acc = unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        let bp = b.as_ptr();
        let app = ap.as_ptr();
        for p in 0..kc {
            let brow = bp.add(p * ldb);
            let b0 = _mm256_loadu_ps(brow);
            let b1 = _mm256_loadu_ps(brow.add(8));
            let apk = app.add(p * MR);
            for r in 0..MR {
                let a = _mm256_set1_ps(*apk.add(r));
                acc[r][0] = _mm256_fmadd_ps(a, b0, acc[r][0]);
                acc[r][1] = _mm256_fmadd_ps(a, b1, acc[r][1]);
            }
        }
        acc
    };
    if nr == NR {
        // SAFETY: check_tile asserted c.len() ≥ (mr − 1)·ldc + nr with
        // nr = 16 here and mr ≤ MR, so each row's two 8-lane loads and
        // stores at `r·ldc` (r < mr) stay in bounds.
        unsafe {
            let cp = c.as_mut_ptr();
            for r in 0..mr {
                let crow = cp.add(r * ldc);
                let (c0, c1) = if first {
                    (_mm256_setzero_ps(), _mm256_setzero_ps())
                } else {
                    (_mm256_loadu_ps(crow), _mm256_loadu_ps(crow.add(8)))
                };
                _mm256_storeu_ps(crow, _mm256_add_ps(c0, acc[r][0]));
                _mm256_storeu_ps(crow.add(8), _mm256_add_ps(c1, acc[r][1]));
            }
        }
    } else {
        let mut tile = [[0.0f32; NR]; MR];
        for (row, v) in tile.iter_mut().zip(&acc) {
            // SAFETY: `row` is 16 f32s: two 8-lane stores fill it.
            unsafe {
                _mm256_storeu_ps(row.as_mut_ptr(), v[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), v[1]);
            }
        }
        add_tile(&tile, c, ldc, mr, nr, first);
    }
}

/// AVX-512F `MR×32` micro-kernel: `2·MR` zmm accumulators, one
/// broadcast and two loads per k step. Reads B rows at full width 32;
/// writes `nr ≤ 32` columns of `mr` C rows (see [`add_tile`] for
/// `first`).
///
/// # Safety
///
/// The CPU must support AVX-512F. Every slice bound is checked by
/// [`check_tile`] (`assert!`), so any slices are sound to pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_avx512<const MR: usize>(
    kc: usize,
    ap: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    check_tile(kc, MR, NR_512, ap, b, ldb, c, ldc, mr, nr);
    // SAFETY: AVX-512F is present (this fn's contract). check_tile
    // asserted ap.len() ≥ kc·MR and b.len() ≥ (kc − 1)·ldb + 32, so
    // every broadcast `ap[p·MR + r]` (p < kc, r < MR) and every 32-wide
    // B row load at `p·ldb` stays in bounds.
    let acc = unsafe {
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        let bp = b.as_ptr();
        let app = ap.as_ptr();
        for p in 0..kc {
            let brow = bp.add(p * ldb);
            let b0 = _mm512_loadu_ps(brow);
            let b1 = _mm512_loadu_ps(brow.add(16));
            let apk = app.add(p * MR);
            for r in 0..MR {
                let a = _mm512_set1_ps(*apk.add(r));
                acc[r][0] = _mm512_fmadd_ps(a, b0, acc[r][0]);
                acc[r][1] = _mm512_fmadd_ps(a, b1, acc[r][1]);
            }
        }
        acc
    };
    if nr == NR_512 {
        // SAFETY: check_tile asserted c.len() ≥ (mr − 1)·ldc + nr with
        // nr = 32 here and mr ≤ MR, so each row's two 16-lane loads and
        // stores at `r·ldc` (r < mr) stay in bounds.
        unsafe {
            let cp = c.as_mut_ptr();
            for r in 0..mr {
                let crow = cp.add(r * ldc);
                let (c0, c1) = if first {
                    (_mm512_setzero_ps(), _mm512_setzero_ps())
                } else {
                    (_mm512_loadu_ps(crow), _mm512_loadu_ps(crow.add(16)))
                };
                _mm512_storeu_ps(crow, _mm512_add_ps(c0, acc[r][0]));
                _mm512_storeu_ps(crow.add(16), _mm512_add_ps(c1, acc[r][1]));
            }
        }
    } else {
        let mut tile = [[0.0f32; NR_512]; MR];
        for (row, v) in tile.iter_mut().zip(&acc) {
            // SAFETY: `row` is 32 f32s: two 16-lane stores fill it.
            unsafe {
                _mm512_storeu_ps(row.as_mut_ptr(), v[0]);
                _mm512_storeu_ps(row.as_mut_ptr().add(16), v[1]);
            }
        }
        add_tile(&tile, c, ldc, mr, nr, first);
    }
}

/// Copies `src` into `dst` (equal lengths) with one masked load and
/// store per 16 lanes; the masked moves also keep the loop from being
/// turned into a `memcpy` call, which costs more than a short row.
///
/// # Safety
///
/// The CPU must support AVX-512F. The lengths are checked with
/// `assert_eq!`, so any slices are sound to pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn copy_avx512(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    assert_eq!(dst.len(), src.len(), "copy length mismatch");
    let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
    let mut i = 0;
    while i < src.len() {
        let lanes = (src.len() - i).min(16);
        let mask: __mmask16 = ((1u32 << lanes) - 1) as u16;
        // SAFETY: i < len = src.len() = dst.len() (asserted above), so
        // both pointers are in bounds, and the mask enables only lanes
        // i..i + lanes ≤ len.
        unsafe { _mm512_mask_storeu_ps(d.add(i), mask, _mm512_maskz_loadu_ps(mask, s.add(i))) };
        i += 16;
    }
}

/// One segment of every row of a gathered panel: `len` source elements
/// from `src` past the row's start land at columns `col..col + len`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    pub(crate) src: usize,
    pub(crate) col: usize,
    pub(crate) len: usize,
}

/// The gather loop behind [`Kernel::gather`], generic over the copy so
/// the AVX-512 instance inlines its masked moves.
#[inline(always)]
fn gather_rows(
    width: usize,
    panel: &mut [f32],
    xs: &[f32],
    starts: impl Iterator<Item = usize> + Clone,
    runs: &[Run],
    copy: impl Fn(&mut [f32], &[f32]),
) {
    for run in runs {
        for (row, start) in panel.chunks_exact_mut(width).zip(starts.clone()) {
            let src = start + run.src;
            copy(
                &mut row[run.col..run.col + run.len],
                &xs[src..src + run.len],
            );
        }
    }
}

/// [`gather_rows`] with [`copy_avx512`].
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gather_avx512(
    panel: &mut [f32],
    width: usize,
    xs: &[f32],
    starts: impl Iterator<Item = usize> + Clone,
    runs: &[Run],
) {
    gather_rows(width, panel, xs, starts, runs, |dst, src| {
        // SAFETY: AVX-512F is present (this fn's contract); copy_avx512
        // asserts the equal lengths it relies on.
        unsafe { copy_avx512(dst, src) }
    });
}

/// Which instruction set a [`Kernel`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Isa {
    Avx512,
    Avx2,
    Portable,
}

/// A register-tile micro-kernel this CPU supports, as the
/// implicit-GEMM convolution drives it: AVX-512F at 8×32, AVX2+FMA at
/// 6×16, portable at 6×16.
///
/// The field is private: only [`Kernel::detect`] and the test-only
/// `Kernel::supported` build one, after checking the CPU features its
/// instructions need — the guarantee [`Kernel::tile`] and
/// [`Kernel::gather`] rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Kernel(Isa);

impl Kernel {
    /// The widest kernel this CPU supports.
    pub(crate) fn detect() -> Kernel {
        if cpu_has_avx512f() {
            Kernel(Isa::Avx512)
        } else if cpu_has_avx2_fma() {
            Kernel(Isa::Avx2)
        } else {
            Kernel(Isa::Portable)
        }
    }

    /// Every kernel this CPU supports, portable first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Kernel> {
        let mut all = vec![Kernel(Isa::Portable)];
        if cpu_has_avx2_fma() {
            all.push(Kernel(Isa::Avx2));
        }
        if cpu_has_avx512f() {
            all.push(Kernel(Isa::Avx512));
        }
        all
    }

    /// Whether the kernel accumulates with fused multiply-adds (the
    /// SIMD kernels) rather than multiply-then-add (portable).
    #[cfg(test)]
    pub(crate) fn fused(self) -> bool {
        self.0 != Isa::Portable
    }

    /// Whether this is the AVX-512F kernel. Only [`Kernel::detect`] and
    /// `Kernel::supported` build one, after checking the CPU, so a
    /// caller seeing `true` may run AVX-512F code.
    pub(crate) fn avx512(self) -> bool {
        self.0 == Isa::Avx512
    }

    /// Rows per register tile: the A panel height.
    pub(crate) fn mr(self) -> usize {
        match self.0 {
            Isa::Avx512 => 8,
            Isa::Avx2 | Isa::Portable => MR,
        }
    }

    /// Columns per register tile: the B panel width.
    pub(crate) fn nr(self) -> usize {
        match self.0 {
            Isa::Avx512 => NR_512,
            Isa::Avx2 | Isa::Portable => NR,
        }
    }

    /// One register tile: for `r < mr`, `j < nr`,
    /// `c[r·ldc + j] = base + Σ_p ap[p·MR + r]·b[p·ldb + j]`, the sum an
    /// in-order chain over `p < kc` and `base` as in [`add_tile`].
    ///
    /// `ap` is a `[kc][self.mr()]` panel from [`pack_a`]; B rows are
    /// read at full width [`Kernel::nr`], so a partial panel must be
    /// zero-padded. Bounds are asserted (release builds too).
    pub(crate) fn tile(
        self,
        kc: usize,
        ap: &[f32],
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
        first: bool,
    ) {
        match self.0 {
            // SAFETY: a Kernel holding Isa::Avx512 exists only after
            // cpu_has_avx512f() returned true (detect / supported); the
            // kernel asserts every slice bound itself (check_tile).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { kernel_avx512::<8>(kc, ap, b, ldb, c, ldc, mr, nr, first) },
            // SAFETY: a Kernel holding Isa::Avx2 exists only after
            // cpu_has_avx2_fma() returned true (detect / supported); the
            // kernel asserts every slice bound itself (check_tile).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { kernel_avx2::<MR>(kc, ap, b, ldb, c, ldc, mr, nr, first) },
            _ => kernel_portable::<MR>(kc, ap, b, ldb, c, ldc, mr, nr, first),
        }
    }

    /// The NT dot tile, `(A rows, B rows)`: AVX-512F 4×6 (24 zmm
    /// accumulators), AVX2+FMA 2×2 (eight ymm pairs), portable 2×2.
    pub(crate) fn dot_tile(self) -> (usize, usize) {
        match self.0 {
            Isa::Avx512 => (4, 6),
            Isa::Avx2 | Isa::Portable => (2, 2),
        }
    }

    /// One NT dot tile: for `r < mi`, `j < b_rows.len()`,
    /// `c[r·ldc + j] += dot(A row r, B row j)`, where A row `r` is the
    /// `count·len` elements from `a[r·lda]` on and B row `j` the runs
    /// `segs` places from `b[b_rows[j]]` on. Each element is the module
    /// docs' dot product (fused
    /// on the SIMD kernels, which agree bit for bit). `mi` is 1 or the
    /// tile's rows and `b_rows.len()` 1 or its columns
    /// ([`Kernel::dot_tile`]); the 1×1 case is a single dot product.
    /// Bounds are asserted (release builds too).
    ///
    /// # Panics
    ///
    /// Panics on any other tile shape, a short operand, or several
    /// runs that are not whole 16-wide steps.
    pub(crate) fn dots(
        self,
        segs: Segments,
        a: &[f32],
        lda: usize,
        b: &[f32],
        b_rows: &[usize],
        c: &mut [f32],
        ldc: usize,
        mi: usize,
    ) {
        let (tm, tn) = self.dot_tile();
        let nj = b_rows.len();
        assert!(
            (mi == 1 || mi == tm) && (nj == 1 || nj == tn),
            "dot tile shape out of range"
        );
        // One instance per (rows, columns) the tile can take.
        macro_rules! by_shape {
            ($f:ident, $tm:literal, $tn:literal) => {
                match (mi > 1, nj > 1) {
                    (false, false) => $f::<1, 1>(segs, a, lda, b, b_rows, c, ldc),
                    (false, true) => $f::<1, $tn>(segs, a, lda, b, b_rows, c, ldc),
                    (true, false) => $f::<$tm, 1>(segs, a, lda, b, b_rows, c, ldc),
                    (true, true) => $f::<$tm, $tn>(segs, a, lda, b, b_rows, c, ldc),
                }
            };
        }
        match self.0 {
            // SAFETY: a Kernel holding Isa::Avx512 exists only after
            // cpu_has_avx512f() returned true (detect / supported); the
            // tile asserts every slice bound itself (check_dots).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { by_shape!(dots_avx512, 4, 6) },
            // SAFETY: a Kernel holding Isa::Avx2 exists only after
            // cpu_has_avx2_fma() returned true (detect / supported); the
            // tile asserts every slice bound itself (check_dots).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { by_shape!(dots_avx2, 2, 2) },
            _ => by_shape!(dots_portable, 2, 2),
        }
    }

    /// Gathers rows from `xs`: row `r` of `panel` (rows `width` wide)
    /// receives `xs[start + run.src..][..run.len]` at columns
    /// `run.col..` for each run, `start` being the `r`-th item of
    /// `starts`. Columns no run covers are left as they are. Masked
    /// AVX-512 moves where the ISA has masked loads, slice copies
    /// otherwise. B panels (`width` = [`Kernel::nr`]) and the conv's
    /// zero-bordered input copies are both built this way.
    pub(crate) fn gather(
        self,
        panel: &mut [f32],
        width: usize,
        xs: &[f32],
        starts: impl Iterator<Item = usize> + Clone,
        runs: &[Run],
    ) {
        match self.0 {
            // SAFETY: a Kernel holding Isa::Avx512 exists only after
            // cpu_has_avx512f() returned true (detect / supported); every
            // copy slices its operands, so bounds are checked.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { gather_avx512(panel, width, xs, starts, runs) },
            _ => gather_rows(width, panel, xs, starts, runs, |dst, src| {
                dst.copy_from_slice(src)
            }),
        }
    }
}

/// `C = op(A)·B + β·C` for row-major `B: k×n`, blocked over k and
/// register-tiled `MR×16` (AVX2, portable) or `MR×32` (AVX-512F), with
/// the last `n mod 16` columns on the portable kernel.
fn gemm_nx(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lay: ALayout,
    b: &[f32],
    c: &mut [f32],
    beta: f32,
) {
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    assert_eq!(a.len(), m * k, "A must hold m·k elements");
    scale_c(c, beta);
    let mut ap = [0.0f32; MR * KC];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for i0 in (0..m).step_by(MR) {
            let mr = MR.min(m - i0);
            // Pack the A micro-panel once per (i0, p0): contiguous
            // [kc][MR] layout so the inner loop reads one cache line.
            pack_a(lay, a, m, k, i0, p0, kc, MR, &mut ap);
            nx_panel(kc, &ap, &b[p0 * n..], n, &mut c[i0 * n..], mr, false);
        }
    }
}

/// One packed A panel (`ap`, `[kc][MR]`, `mr` rows used) times the
/// `kc` B rows `b` (`n` wide) into the `mr` C rows `c` (`n` apart):
/// full-width register tiles, widest instruction set first, then the
/// last `n mod 16` columns on the portable kernel (see [`add_tile`]
/// for `first`).
fn nx_panel(kc: usize, ap: &[f32], b: &[f32], n: usize, c: &mut [f32], mr: usize, first: bool) {
    let avx = cpu_has_avx2_fma();
    #[cfg(target_arch = "x86_64")]
    let avx512 = cpu_has_avx512f();
    let mut j0 = 0;
    #[cfg(target_arch = "x86_64")]
    while avx512 && j0 + NR_512 <= n {
        let (bt, ct) = (&b[j0..], &mut c[j0..]);
        // SAFETY: AVX-512F detected above; the kernel asserts every
        // slice bound itself (check_tile).
        unsafe { kernel_avx512::<MR>(kc, ap, bt, n, ct, n, mr, NR_512, first) };
        j0 += NR_512;
    }
    while j0 + NR <= n {
        let (bt, ct) = (&b[j0..], &mut c[j0..]);
        #[cfg(target_arch = "x86_64")]
        if avx {
            // SAFETY: AVX2+FMA detected above; the kernel asserts every
            // slice bound itself (check_tile).
            unsafe { kernel_avx2::<MR>(kc, ap, bt, n, ct, n, mr, NR, first) };
            j0 += NR;
            continue;
        }
        let _ = avx;
        kernel_portable::<MR>(kc, ap, bt, n, ct, n, mr, NR, first);
        j0 += NR;
    }
    // Ragged right edge: portable kernel at partial width.
    if j0 < n {
        let (bt, ct) = (&b[j0..], &mut c[j0..]);
        kernel_portable::<MR>(kc, ap, bt, n, ct, n, mr, n - j0, first);
    }
}

/// [`sgemm_tn`] at `β = 0`, handed out [`MR`] rows at a time: for each
/// block of rows `i0..i0 + mr` in ascending order, computes them into
/// `rows` (at least `MR·n` long) and calls `each(i0, &rows[..mr·n])`.
/// Every element has `sgemm_tn`'s bits; a block is consumed while it
/// is still in cache, and the full product is never stored.
///
/// # Panics
///
/// Panics when a slice length does not match its shape.
pub(crate) fn sgemm_tn_blocks(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    rows: &mut [f32],
    mut each: impl FnMut(usize, &[f32]),
) {
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(a.len(), m * k, "A must hold m·k elements");
    assert!(rows.len() >= MR * n, "row block shorter than MR·n");
    let mut ap = [0.0f32; MR * KC];
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        let block = &mut rows[..mr * n];
        if k == 0 {
            block.fill(0.0);
        }
        // Slices in order, the first storing: per element the same
        // `0 + s₀ + s₁ + …` sgemm_tn sums after zeroing C.
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            pack_a(ALayout::Transposed, a, m, k, i0, p0, kc, MR, &mut ap);
            nx_panel(kc, &ap, &b[p0 * n..], n, block, mr, p0 == 0);
        }
        each(i0, block);
    }
}

/// `C = A·B + β·C` (`A: m×k`, `B: k×n`, `C: m×n`, all row-major).
///
/// # Panics
///
/// Panics when a slice length does not match its shape.
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    gemm_nx(m, k, n, a, ALayout::Normal, b, c, beta);
}

/// `C = Aᵀ·B + β·C` with `A` stored `k×m` row-major.
///
/// # Panics
///
/// Panics when a slice length does not match its shape.
pub fn sgemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    gemm_nx(m, k, n, a, ALayout::Transposed, b, c, beta);
}

/// `C = A·Bᵀ + β·C` with `B` stored `n×k` row-major.
///
/// Both operand rows are contiguous here, so each output element is a
/// dot product of an A row and a B row, with the per-element
/// arithmetic the module docs give. After `C` is scaled by `β`,
/// register tiles (AVX-512F 4×6, AVX2 and portable 2×2) compute their
/// block of dot products in one pass over k, and single rows and
/// columns cover the edges.
///
/// # Panics
///
/// Panics when a slice length does not match its shape.
pub fn sgemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), n * k, "B must be n×k");
    assert_eq!(c.len(), m * n, "C must be m×n");
    gemm_nt(Kernel::detect(), m, k, n, a, b, c, beta);
}

/// [`sgemm_nt`] on a chosen kernel.
pub(crate) fn gemm_nt(
    kern: Kernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    beta: f32,
) {
    scale_c(c, beta);
    nt_dots(
        kern,
        m,
        n,
        Segments::contiguous(k),
        a,
        k,
        b,
        |j| j * k,
        c,
        n,
    );
}

/// The k axis of NT operand rows: `count` runs of `len` elements,
/// back to back in an A row and `b_step` apart in a B row. A
/// contiguous B row is one run. Several runs must each be whole 16-wide
/// steps, so that a dot product over them does the arithmetic of one
/// over the contiguous row they concatenate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segments {
    pub(crate) len: usize,
    pub(crate) count: usize,
    pub(crate) b_step: usize,
}

impl Segments {
    /// A contiguous row of `k` elements.
    pub(crate) fn contiguous(k: usize) -> Segments {
        Segments {
            len: k,
            count: 1,
            b_step: 0,
        }
    }

    /// Where the last run starts in an A row and in a B row: the 8-wide
    /// remainder and scalar tail of a dot product lie there.
    fn last(self) -> (usize, usize) {
        let runs_before = self.count - 1;
        (runs_before * self.len, runs_before * self.b_step)
    }
}

/// `C += A·Bᵀ` by `kern`'s dot tiles: `c[i·ldc + j] += dot(A row i,
/// B row j)` for `i < m`, `j < n`, where A row `i` is the
/// `count·len` elements from `a[i·lda]` on and B row `j` the runs
/// `segs` places from `b[b_row(j)]` on. The row loop is outermost, so
/// a tile's A rows stay in cache while every B row passes them.
pub(crate) fn nt_dots(
    kern: Kernel,
    m: usize,
    n: usize,
    segs: Segments,
    a: &[f32],
    lda: usize,
    b: &[f32],
    b_row: impl Fn(usize) -> usize,
    c: &mut [f32],
    ldc: usize,
) {
    let (tm, tn) = kern.dot_tile();
    let mut rows = [0usize; NJ_MAX];
    let mut i0 = 0;
    while i0 < m {
        let mi = if m - i0 >= tm { tm } else { 1 };
        let mut j0 = 0;
        while j0 < n {
            let nj = if n - j0 >= tn { tn } else { 1 };
            for (j, row) in rows[..nj].iter_mut().enumerate() {
                *row = b_row(j0 + j);
            }
            let (at, ct) = (&a[i0 * lda..], &mut c[i0 * ldc + j0..]);
            kern.dots(segs, at, lda, b, &rows[..nj], ct, ldc, mi);
            j0 += nj;
        }
        i0 += mi;
    }
}

/// B rows per NT dot tile on any kernel.
const NJ_MAX: usize = 6;

/// Asserts every bound an NT dot tile indexes by raw pointer: `mi` A
/// rows of `count·len` elements `lda` apart, the B rows' runs from
/// `b_rows` on, and `mi` C rows `ldc` apart written `b_rows.len()`
/// wide; and that several runs are whole 16-wide steps. Returns the B
/// row starts as an array.
#[inline(always)]
fn check_dots<const NJ: usize>(
    segs: Segments,
    mi: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    b_rows: &[usize],
    c: &[f32],
    ldc: usize,
) -> [usize; NJ] {
    assert!(
        segs.count == 1 || segs.len.is_multiple_of(16),
        "split rows must be whole 16-wide steps"
    );
    let a_row = segs.count.checked_mul(segs.len);
    assert!(
        a_row
            .and_then(|row| span(mi, lda, row))
            .is_some_and(|len| len <= a.len()),
        "A shorter than the tile's rows"
    );
    let b_row = span(segs.count, segs.b_step, segs.len);
    assert!(
        b_rows.len() == NJ
            && b_rows.iter().all(|&start| {
                b_row
                    .and_then(|row| start.checked_add(row))
                    .is_some_and(|end| end <= b.len())
            }),
        "B shorter than the tile's rows"
    );
    assert!(
        span(mi, ldc, NJ).is_some_and(|len| len <= c.len()),
        "C tile out of bounds"
    );
    std::array::from_fn(|j| b_rows[j])
}

/// Portable `MI×NJ` dot tile: `c[r·ldc + j] += dot(A row r, B row j)`,
/// each dot eight unfused partial sums by `p mod 8`, summed pairwise,
/// plus a separate unfused sum of the last `k mod 8` products.
#[inline]
fn dots_portable<const MI: usize, const NJ: usize>(
    segs: Segments,
    a: &[f32],
    lda: usize,
    b: &[f32],
    b_rows: &[usize],
    c: &mut [f32],
    ldc: usize,
) {
    let bs = check_dots::<NJ>(segs, MI, a, lda, b, b_rows, c, ldc);
    let k8 = segs.len / 8 * 8;
    let mut lanes = [[[0.0f32; 8]; NJ]; MI];
    for run in 0..segs.count {
        let (ao, bo) = (run * segs.len, run * segs.b_step);
        for p in (0..k8).step_by(8) {
            for r in 0..MI {
                let av = &a[r * lda + ao + p..][..8];
                for j in 0..NJ {
                    let bv = &b[bs[j] + bo + p..][..8];
                    for l in 0..8 {
                        lanes[r][j][l] += av[l] * bv[l];
                    }
                }
            }
        }
    }
    let (ao, bo) = segs.last();
    for r in 0..MI {
        for j in 0..NJ {
            let mut tail = 0.0f32;
            for p in k8..segs.len {
                tail += a[r * lda + ao + p] * b[bs[j] + bo + p];
            }
            let l = &lanes[r][j];
            let sum = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
            c[r * ldc + j] += sum + tail;
        }
    }
}

/// Sums the eight lanes of `acc` in a fixed order: lane `l` with
/// `l + 4`, then `l + 2`, then `l + 1`.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn fold8(acc: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps::<1>(s, s)))
}

/// Adds `sums[r][j]`, then the unfused products of the last run from
/// `from` on in order, into `c[r·ldc + j]`: the scalar end of every
/// fused dot tile.
#[inline(always)]
fn finish_dots<const MI: usize, const NJ: usize>(
    sums: [[f32; NJ]; MI],
    from: usize,
    segs: Segments,
    a: &[f32],
    lda: usize,
    b: &[f32],
    bs: [usize; NJ],
    c: &mut [f32],
    ldc: usize,
) {
    let (ao, bo) = segs.last();
    for r in 0..MI {
        for j in 0..NJ {
            let mut sum = sums[r][j];
            for p in from..segs.len {
                sum += a[r * lda + ao + p] * b[bs[j] + bo + p];
            }
            c[r * ldc + j] += sum;
        }
    }
}

/// AVX2+FMA `MI×NJ` dot tile: per element two 8-lane accumulators
/// (`p mod 16` below and above 8) fed with fused multiply-adds, an
/// 8-wide remainder into the first, [`fold8`] of their sum, then the
/// unfused scalar tail and `c += sum` ([`finish_dots`]).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. Every slice bound is checked by
/// [`check_dots`] (`assert!`), so any slices are sound to pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dots_avx2<const MI: usize, const NJ: usize>(
    segs: Segments,
    a: &[f32],
    lda: usize,
    b: &[f32],
    b_rows: &[usize],
    c: &mut [f32],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let bs = check_dots::<NJ>(segs, MI, a, lda, b, b_rows, c, ldc);
    let k16 = segs.len / 16 * 16;
    let k8 = if segs.len - k16 >= 8 { k16 + 8 } else { k16 };
    let (a_last, b_last) = segs.last();
    // SAFETY: AVX2+FMA are present (this fn's contract). check_dots
    // asserted that A row r (r < MI) spans `r·lda + run·len + p` and
    // B row j spans `bs[j] + run·b_step + p` for every run < count and
    // p < len, so every 8-lane load at such a p with p + 8 ≤ k8 ≤ len
    // stays in bounds.
    let sums = unsafe {
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = [[[_mm256_setzero_ps(); 2]; NJ]; MI];
        let mut av = [[_mm256_setzero_ps(); 2]; MI];
        for run in 0..segs.count {
            let (ar, br) = (ap.add(run * segs.len), bp.add(run * segs.b_step));
            let mut p = 0;
            while p < k16 {
                for r in 0..MI {
                    let row = ar.add(r * lda + p);
                    av[r] = [_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8))];
                }
                for j in 0..NJ {
                    let row = br.add(bs[j] + p);
                    let (b0, b1) = (_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8)));
                    for r in 0..MI {
                        acc[r][j][0] = _mm256_fmadd_ps(av[r][0], b0, acc[r][j][0]);
                        acc[r][j][1] = _mm256_fmadd_ps(av[r][1], b1, acc[r][j][1]);
                    }
                }
                p += 16;
            }
        }
        if k16 < k8 {
            let (ar, br) = (ap.add(a_last + k16), bp.add(b_last + k16));
            for r in 0..MI {
                av[r][0] = _mm256_loadu_ps(ar.add(r * lda));
            }
            for j in 0..NJ {
                let b0 = _mm256_loadu_ps(br.add(bs[j]));
                for r in 0..MI {
                    acc[r][j][0] = _mm256_fmadd_ps(av[r][0], b0, acc[r][j][0]);
                }
            }
        }
        let mut sums = [[0.0f32; NJ]; MI];
        for r in 0..MI {
            for j in 0..NJ {
                sums[r][j] = fold8(_mm256_add_ps(acc[r][j][0], acc[r][j][1]));
            }
        }
        sums
    };
    finish_dots(sums, k8, segs, a, lda, b, bs, c, ldc);
}

/// AVX-512F `MI×NJ` dot tile with [`dots_avx2`]'s arithmetic: one zmm
/// per element holds its two 8-lane accumulators (lanes 0–7 and 8–15),
/// so a 16-wide fused multiply-add feeds both; the 8-wide remainder is
/// a masked one into lanes 0–7 that leaves lanes 8–15 as they are. The
/// halves' sum is folded by [`fold8`], then [`finish_dots`].
///
/// # Safety
///
/// The CPU must support AVX-512F. Every slice bound is checked by
/// [`check_dots`] (`assert!`), so any slices are sound to pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dots_avx512<const MI: usize, const NJ: usize>(
    segs: Segments,
    a: &[f32],
    lda: usize,
    b: &[f32],
    b_rows: &[usize],
    c: &mut [f32],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    const LOW8: __mmask16 = 0x00ff;
    let bs = check_dots::<NJ>(segs, MI, a, lda, b, b_rows, c, ldc);
    let k16 = segs.len / 16 * 16;
    let k8 = if segs.len - k16 >= 8 { k16 + 8 } else { k16 };
    let (a_last, b_last) = segs.last();
    // SAFETY: AVX-512F is present (this fn's contract). check_dots
    // asserted that A row r (r < MI) spans `r·lda + run·len + p` and
    // B row j spans `bs[j] + run·b_step + p` for every run < count and
    // p < len, so every 16-lane load at such a p with p + 16 ≤ k16
    // stays in bounds, and the masked remainder loads touch only lanes
    // k16..k16 + 8 = k8 ≤ len of the last run.
    let sums = unsafe {
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = [[_mm512_setzero_ps(); NJ]; MI];
        let mut av = [_mm512_setzero_ps(); MI];
        for run in 0..segs.count {
            let (ar, br) = (ap.add(run * segs.len), bp.add(run * segs.b_step));
            let mut p = 0;
            while p < k16 {
                for r in 0..MI {
                    av[r] = _mm512_loadu_ps(ar.add(r * lda + p));
                }
                for j in 0..NJ {
                    let bv = _mm512_loadu_ps(br.add(bs[j] + p));
                    for r in 0..MI {
                        acc[r][j] = _mm512_fmadd_ps(av[r], bv, acc[r][j]);
                    }
                }
                p += 16;
            }
        }
        if k16 < k8 {
            let (ar, br) = (ap.add(a_last + k16), bp.add(b_last + k16));
            for r in 0..MI {
                av[r] = _mm512_maskz_loadu_ps(LOW8, ar.add(r * lda));
            }
            for j in 0..NJ {
                let bv = _mm512_maskz_loadu_ps(LOW8, br.add(bs[j]));
                for r in 0..MI {
                    acc[r][j] = _mm512_mask3_fmadd_ps(av[r], bv, acc[r][j], LOW8);
                }
            }
        }
        let mut sums = [[0.0f32; NJ]; MI];
        for r in 0..MI {
            for j in 0..NJ {
                // Lanes 0–7 become acc0 + acc1 in a 512-bit add: the
                // 256-bit instructions AVX-512F has reach only registers
                // 0–15, and an accumulator they read would be kept there
                // through the whole k loop.
                let z = acc[r][j];
                let halves = _mm512_add_ps(z, _mm512_shuffle_f32x4::<0b11_10_11_10>(z, z));
                sums[r][j] = fold8(_mm512_castps512_ps256(halves));
            }
        }
        sums
    };
    finish_dots(sums, k8, segs, a, lda, b, bs, c, ldc);
}

/// Scalar reference `C = A·B + β·C`, which the unit tests compare against.
pub fn sgemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    scale_c(c, beta);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av != 0.0 {
                let brow = &b[p * n..(p + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Scalar reference for the TN layout.
pub fn sgemm_tn_naive(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    beta: f32,
) {
    scale_c(c, beta);
    for i in 0..m {
        for p in 0..k {
            let av = a[p * m + i];
            if av != 0.0 {
                let brow = &b[p * n..(p + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Scalar reference for the NT layout.
pub fn sgemm_nt_naive(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    beta: f32,
) {
    scale_c(c, beta);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[j * k + p];
            }
            c[i * n + j] += acc;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0; src.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        out
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    /// Shapes chosen to hit every edge: micro-tile remainders in m and n,
    /// multiple KC panels, tiny and skinny matrices.
    const SHAPES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (4, 16, 16),
        (3, 7, 5),
        (17, 300, 33),
        (64, 576, 1024),
        (5, 1, 40),
        (2, 513, 19),
        (31, 31, 31),
    ];

    #[test]
    fn sgemm_matches_naive_on_random_shapes() {
        for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = random_matrix(m * k, 100 + si as u64);
            let b = random_matrix(k * n, 200 + si as u64);
            let mut c_fast = random_matrix(m * n, 300 + si as u64);
            let mut c_ref = c_fast.clone();
            sgemm(m, k, n, &a, &b, &mut c_fast, 1.0);
            sgemm_naive(m, k, n, &a, &b, &mut c_ref, 1.0);
            assert_close(&c_fast, &c_ref, 1e-4);
        }
    }

    #[test]
    fn sgemm_tn_matches_naive_on_random_shapes() {
        for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
            let at = random_matrix(k * m, 400 + si as u64); // stored k×m
            let b = random_matrix(k * n, 500 + si as u64);
            let mut c_fast = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            sgemm_tn(m, k, n, &at, &b, &mut c_fast, 0.0);
            sgemm_tn_naive(m, k, n, &at, &b, &mut c_ref, 0.0);
            assert_close(&c_fast, &c_ref, 1e-4);
            // Cross-check against NN on the materialised transpose.
            let a = transpose(&at, k, m);
            let mut c_nn = vec![0.0; m * n];
            sgemm_naive(m, k, n, &a, &b, &mut c_nn, 0.0);
            assert_close(&c_fast, &c_nn, 1e-4);
        }
    }

    #[test]
    fn sgemm_nt_matches_naive_on_random_shapes() {
        for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = random_matrix(m * k, 600 + si as u64);
            let bt = random_matrix(n * k, 700 + si as u64); // stored n×k
            let mut c_fast = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            sgemm_nt(m, k, n, &a, &bt, &mut c_fast, 0.0);
            sgemm_nt_naive(m, k, n, &a, &bt, &mut c_ref, 0.0);
            assert_close(&c_fast, &c_ref, 1e-4);
            let b = transpose(&bt, n, k);
            let mut c_nn = vec![0.0; m * n];
            sgemm_naive(m, k, n, &a, &b, &mut c_nn, 0.0);
            assert_close(&c_fast, &c_nn, 1e-4);
        }
    }

    #[test]
    fn beta_scales_existing_c() {
        let a = [2.0f32];
        let b = [3.0f32];
        let mut c = [10.0f32];
        sgemm(1, 1, 1, &a, &b, &mut c, 0.5);
        assert_eq!(c[0], 11.0);
        sgemm(1, 1, 1, &a, &b, &mut c, 0.0);
        assert_eq!(c[0], 6.0);
    }

    /// Equal-shaped calls on equal data must produce identical bits —
    /// the property that makes batched sampling (which runs the same
    /// per-sample GEMM shapes as the solo path) bit-identical to it.
    #[test]
    fn equal_shapes_are_bit_identical() {
        for &(m, k, n) in &[(8usize, 96usize, 48usize), (16, 432, 1024), (3, 7, 5)] {
            let a = random_matrix(m * k, 1);
            let b = random_matrix(k * n, 2);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            sgemm(m, k, n, &a, &b, &mut c1, 0.0);
            sgemm(m, k, n, &a, &b, &mut c2, 0.0);
            assert_eq!(c1, c2, "repeat call diverged at {m}x{k}x{n}");
            // Running the same rows through a fresh output buffer of the
            // same shape (what each micro-batch member sees) matches too.
            let mut c3 = vec![1.0; m * n];
            sgemm(m, k, n, &a, &b, &mut c3, 0.0);
            assert_eq!(c1, c3, "beta=0 must fully overwrite");
        }
    }

    /// A short operand must panic in release builds too: the SIMD
    /// kernels index B by raw pointer, so a length check compiled out
    /// with `debug_assert!` would let them read past the slice.
    #[test]
    #[should_panic(expected = "B must be k×n")]
    fn short_b_panics() {
        let (m, k, n) = (6usize, 4usize, 64usize);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n - 40];
        let mut c = vec![0.0f32; m * n];
        sgemm(m, k, n, &a, &b, &mut c, 0.0);
    }

    /// The per-element dot product `sgemm_nt` ran before its register
    /// tiles, on AVX2+FMA hosts: two 8-lane fused accumulators, an
    /// 8-wide remainder into the first, a fixed-order fold and an
    /// unfused scalar tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; reads only within `a` and `b`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_avx(a: &[f32], b: &[f32]) -> f32 {
        use std::arch::x86_64::*;
        // SAFETY: the caller upholds this fn's `# Safety` contract
        // (AVX2+FMA present); `len = min(a.len(), b.len())` bounds
        // every read.
        unsafe {
            let len = a.len().min(b.len());
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0;
            while i + 16 <= len {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(ap.add(i + 8)),
                    _mm256_loadu_ps(bp.add(i + 8)),
                    acc1,
                );
                i += 16;
            }
            if i + 8 <= len {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
                i += 8;
            }
            let acc = _mm256_add_ps(acc0, acc1);
            let hi = _mm256_extractf128_ps::<1>(acc);
            let lo = _mm256_castps256_ps128(acc);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
            let mut sum = _mm_cvtss_f32(s);
            while i < len {
                sum += *ap.add(i) * *bp.add(i);
                i += 1;
            }
            sum
        }
    }

    /// The per-element dot product `sgemm_nt` ran before its register
    /// tiles on every other host: eight unfused partial sums.
    fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 8];
        let mut chunks_a = a.chunks_exact(8);
        let mut chunks_b = b.chunks_exact(8);
        for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
            for l in 0..8 {
                lanes[l] += ca[l] * cb[l];
            }
        }
        let mut tail = 0.0f32;
        for (&av, &bv) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += av * bv;
        }
        let sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        sum + tail
    }

    /// `sgemm_nt` before its register tiles: β, then `+=` one dot
    /// product per element, [`dot_avx`] for a fused kernel and
    /// [`dot_portable`] otherwise.
    pub(crate) fn reference_nt(
        fused: bool,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        beta: f32,
    ) {
        scale_c(c, beta);
        for i in 0..m {
            for j in 0..n {
                let (arow, brow) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                #[cfg(target_arch = "x86_64")]
                if fused {
                    // SAFETY: only the SIMD kernels are fused, and
                    // Kernel::supported lists them only where AVX2+FMA
                    // (implied by AVX-512F) are present.
                    c[i * n + j] += unsafe { dot_avx(arow, brow) };
                    continue;
                }
                assert!(!fused, "no fused reference on this target");
                c[i * n + j] += dot_portable(arow, brow);
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The NT tiles against the per-element dot products they replaced,
    /// bitwise on every kernel this CPU supports: the SIMD tiles against
    /// `dot_avx`, the portable tile against `dot_portable`. m and n
    /// cover full tiles, single-row and single-column edges and both;
    /// k covers 16-wide steps, the 8-wide remainder and scalar tails.
    #[test]
    fn nt_tiles_match_per_element_dots() {
        let dims = [1usize, 3, 4, 6, 7, 17];
        let ks = [1usize, 5, 8, 13, 16, 24, 64, 1024, 1031];
        for kern in Kernel::supported() {
            for (mi, &m) in dims.iter().enumerate() {
                for (ni, &n) in dims.iter().enumerate() {
                    for (ki, &k) in ks.iter().enumerate() {
                        let seed = (mi * 100 + ni * 10 + ki) as u64 * 3;
                        let a = random_matrix(m * k, seed);
                        let b = random_matrix(n * k, seed + 1);
                        let c0 = random_matrix(m * n, seed + 2);
                        for beta in [0.0f32, 0.5, 1.0] {
                            let mut want = c0.clone();
                            reference_nt(kern.fused(), m, k, n, &a, &b, &mut want, beta);
                            let mut got = c0.clone();
                            gemm_nt(kern, m, k, n, &a, &b, &mut got, beta);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{kern:?} m={m} k={k} n={n} beta={beta}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The row blocks of `sgemm_tn_blocks` hold `sgemm_tn`'s bits, in
    /// ascending order, across ragged row blocks, ragged column edges
    /// and several k slices (k = 0 included).
    #[test]
    fn tn_blocks_match_sgemm_tn() {
        for &(m, k, n) in &[
            (1usize, 5usize, 5usize),
            (13, 300, 40),
            (7, 600, 33),
            (6, 0, 9),
        ] {
            let at = random_matrix(k * m, (m + k + n) as u64);
            let b = random_matrix(k * n, (m * k + n) as u64);
            let mut want = vec![0.0; m * n];
            sgemm_tn(m, k, n, &at, &b, &mut want, 0.0);
            let mut got = vec![f32::NAN; m * n];
            let mut rows = vec![f32::NAN; MR * n];
            let mut next = 0;
            sgemm_tn_blocks(m, k, n, &at, &b, &mut rows, |i0, block| {
                assert_eq!(i0, next, "blocks out of order");
                got[i0 * n..i0 * n + block.len()].copy_from_slice(block);
                next += block.len() / n;
            });
            assert_eq!(next, m);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}");
        }
    }

    /// Every micro-kernel asserts its own operand bounds, so a short B
    /// or C panics instead of being read or written past its end.
    #[test]
    fn kernels_reject_short_operands() {
        for kern in Kernel::supported() {
            let (mr, nr, kc) = (kern.mr(), kern.nr(), 3);
            let ap = vec![1.0f32; kc * mr];
            let b = vec![1.0f32; kc * nr];
            let mut c = vec![0.0f32; mr * nr];
            kern.tile(kc, &ap, &b, nr, &mut c, nr, mr, nr, true);
            assert!(c.iter().all(|&v| v == 3.0), "{kern:?}");
            let short_b = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f32; mr * nr];
                kern.tile(kc, &ap, &b[..kc * nr - 1], nr, &mut c, nr, mr, nr, true);
            });
            assert!(short_b.is_err(), "{kern:?} read past B");
            let short_c = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f32; mr * nr - 1];
                kern.tile(kc, &ap, &b, nr, &mut c, nr, mr, nr, true);
            });
            assert!(short_c.is_err(), "{kern:?} wrote past C");

            // The NT dot tile: A and B rows k apart, C rows ldc apart.
            let ((tm, tn), k) = (kern.dot_tile(), 5);
            let segs = Segments::contiguous(k);
            let (a, b) = (vec![1.0f32; tm * k], vec![1.0f32; tn * k]);
            let rows: Vec<usize> = (0..tn).map(|j| j * k).collect();
            let mut c = vec![0.0f32; tm * tn];
            kern.dots(segs, &a, k, &b, &rows, &mut c, tn, tm);
            assert!(c.iter().all(|&v| v == 5.0), "{kern:?}");
            let short_a = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f32; tm * tn];
                kern.dots(segs, &a[..tm * k - 1], k, &b, &rows, &mut c, tn, tm);
            });
            assert!(short_a.is_err(), "{kern:?} dot tile read past A");
            let short_b = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f32; tm * tn];
                kern.dots(segs, &a, k, &b[..tn * k - 1], &rows, &mut c, tn, tm);
            });
            assert!(short_b.is_err(), "{kern:?} dot tile read past B");
            let short_c = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f32; tm * tn - 1];
                kern.dots(segs, &a, k, &b, &rows, &mut c, tn, tm);
            });
            assert!(short_c.is_err(), "{kern:?} dot tile wrote past C");
            // Two runs whose second reaches one element past B.
            let split = Segments {
                len: 16,
                count: 2,
                b_step: 16,
            };
            let (a, b) = (vec![1.0f32; tm * 32], vec![1.0f32; tn * 32]);
            let rows: Vec<usize> = (0..tn).map(|j| j * 32).collect();
            let mut c = vec![0.0f32; tm * tn];
            kern.dots(split, &a, 32, &b, &rows, &mut c, tn, tm);
            assert!(c.iter().all(|&v| v == 32.0), "{kern:?}");
            let past_run = std::panic::catch_unwind(|| {
                let mut c = vec![0.0f32; tm * tn];
                let rows: Vec<usize> = (0..tn).map(|j| j * 32 + 1).collect();
                kern.dots(split, &a, 32, &b, &rows, &mut c, tn, tm);
            });
            assert!(
                past_run.is_err(),
                "{kern:?} dot tile read past B's last run"
            );
        }
    }
}
