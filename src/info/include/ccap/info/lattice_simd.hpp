// Runtime-dispatched SIMD lane kernels for the batched lattice engine.
//
// BatchLatticeEngine (batch_lattice.hpp) and the candidate-batched segment
// propagation (drift_hmm.cpp) spend essentially all of their time in a
// dozen loops over the lane dimension of their structure-of-arrays rows:
// elementwise updates of one row (axpy, fma_weighted, axpy_lanes), the
// insert-run sweeps that touch several consecutive rows of one lane block
// (fma_run, fma_acc_run and their per-lane-weight form), and the counted
// kernels that walk a whole range of consecutive drift columns of one
// lattice row in a single call — the emission selects, the norm
// accumulation, the divide and the destination-column propagation. A
// counted call with count 1 is exactly the one-column call; the forward
// pass makes one call per row range instead of one per column, so call
// overhead and serial add latency no longer dominate a row.
//
// Autovectorization of those loops tops out at the baseline ISA
// (SSE2 on x86-64: two doubles per op); this header names them as a
// function-pointer table with one implementation per instruction set —
// scalar, NEON, AVX2, AVX-512 — each compiled in its own translation unit
// with exactly its own -m flags (src/info/CMakeLists.txt) and selected once
// at startup by ccap::util::active_simd_path(). The AVX2 and AVX-512 tables
// come from one source written with GCC vector types
// (lattice_kernels_vec.inc), compiled at 4 and 8 doubles per vector; NEON
// keeps its own intrinsic file.
//
// Bit-identity contract: lane l of every output depends only on lane l of
// the inputs, through the *same* IEEE-754 operation sequence as the scalar
// reference loop. The vector TUs are compiled with -ffp-contract=off and
// emit separate multiplies and adds (never FMA), and the two select
// kernels pick an exact table entry (their selector bytes are validated
// symbols in {0, 1}, for which the scalar arithmetic select
// e0*(1-s) + e1*s IS the selected entry bit for bit). A counted kernel may
// interleave several columns to keep independent accumulators in flight,
// but each column keeps its own accumulator, its own +0.0 start and the
// reference's add order, so interleaving changes no bit either.
// Vectorizing across lanes therefore changes no result: the dispatch
// matrix test (tests/info_simd_dispatch_test.cpp) asserts bit-identity of
// every path against the scalar LatticeEngine at band_eps = 0, and of
// every kernel against the scalar reference table.
//
// Callers with lane counts >= vector_doubles pad to a multiple of it and
// align the backing arenas (lattice_engine.hpp), so the hot calls run full
// vectors only. Ragged tails — sub-width batches and unpadded result rows
// — are handled inside every kernel by a scalar loop over the remaining
// lanes: it never reads or writes past L in any row (so a row may end
// flush against the end of an allocation) and performs the reference's
// own operations, so tails are bit-identical too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccap/util/cpu_features.hpp"

namespace ccap::info {

/// Lane kernels. `L` is the lane count (any value — implementations handle
/// non-multiple tails) and also the stride between consecutive rows or
/// columns of one SoA operand. Pointers are non-null unless stated; a
/// counted kernel called with count 0 reads no row of its counted operands
/// (which may then be null) and changes no output.
struct LaneKernels {
    /// dst[l] += src[l] * w
    void (*axpy)(double* dst, const double* src, double w, std::size_t L);
    /// dst[l] += src[l] * (dw + tw * e[l])
    void (*fma_weighted)(double* dst, const double* src, double dw, double tw,
                         const double* e, std::size_t L);
    /// For r ascending in [0, rows): acc[l] += src[r*L + l].
    /// Row sums of a range of drift columns; the per-lane add order is
    /// row-ascending, exactly `rows` one-row calls.
    void (*accumulate)(double* acc, const double* src, std::size_t rows, std::size_t L);
    /// For r in [0, rows): acc[l] = max(acc[l], src[r*L + l])
    /// (non-negative finite inputs).
    void (*maximum)(double* acc, const double* src, std::size_t rows, std::size_t L);
    /// For r in [0, rows): dst[r*L + l] /= norm[l]   (a true division).
    void (*divide)(double* dst, const double* norm, std::size_t rows, std::size_t L);
    /// For r in [0, rows): ed[r*L + l] = sel[r*L + l] ? v1 : v0
    /// (selector bytes in {0, 1}; the rows of `sel` are the SoA received
    /// rows, which advance by L exactly as the emission planes do).
    void (*select_const)(double* ed, const std::uint8_t* sel, double v0, double v1,
                         std::size_t rows, std::size_t L);
    /// For r in [0, rows): ed[r*L + l] = sel[r*L + l] ? e1[l] : e0[l]
    /// (selector bytes in {0, 1}; e0/e1 are one row shared by every r).
    void (*select_lanes)(double* ed, const std::uint8_t* sel, const double* e0,
                         const double* e1, std::size_t rows, std::size_t L);
    /// For g in [0, runs): dst[g*L + l] += src[l] * (dw[g] + tw[g] * e[g*L + l]).
    /// The forward insert-run sweep fused into one call: one source row
    /// scattered into `runs` consecutive destination planes, so src stays in
    /// registers across the run instead of being reloaded per fma_weighted
    /// call. Each destination cell is touched exactly once — per-lane results
    /// are bitwise those of `runs` separate fma_weighted calls.
    void (*fma_run)(double* dst, const double* src, const double* dw, const double* tw,
                    const double* e, std::size_t runs, std::size_t L);
    /// For g ascending in [0, runs): acc[l] += src[g*L + l] * (dw[g] + tw[g] * e[g*L + l]).
    /// The backward insert-run sweep fused: `runs` source planes gathered
    /// into one accumulator row (acc stays in registers). The per-lane add
    /// order is g-ascending, exactly the unfused call sequence.
    void (*fma_acc_run)(double* acc, const double* src, const double* dw,
                        const double* tw, const double* e, std::size_t runs,
                        std::size_t L);
    /// Destination-major forward propagation of `cols` consecutive
    /// destination columns that share one insert-run count and weight
    /// origin. For each column c in [0, cols), with o = c*L:
    ///   a[l] = +0.0;
    ///   for i ascending in [0, cnt): a[l] += src[o + i*L + l] * (dw[-i] + tw[-i] * e[o + l]);
    ///   if (src_del) a[l] += src_del[o + l] * w_del;
    ///   dst[o + l] = a[l];
    /// Source planes ascend while the weight arrays are walked BACKWARD from
    /// their given origin (an ascending source drift reaches a fixed
    /// destination with a descending insert-run length); the optional
    /// src_del term is the run-0 pure-deletion contribution from the
    /// next-higher drift, which carries no emission factor and lands last —
    /// the exact source order (and hence bitwise result) of the scatter
    /// formulation, with the accumulator held in registers and a single
    /// store per cell. Column c + 1 reads column c's sources shifted by one
    /// plane, so implementations may keep several columns' accumulators in
    /// flight; each column's own add sequence is the one above. `e` must be
    /// readable for cols*L doubles even when cnt is 0 (the values are only
    /// consumed when cnt > 0). cols = 1 is the single-column call.
    void (*fma_dest_run)(double* dst, const double* src, const double* dw,
                         const double* tw, const double* e, const double* src_del,
                         double w_del, std::size_t cnt, std::size_t cols, std::size_t L);
    /// dst[l] += src[l] * w[l] — axpy with a per-lane weight row. The
    /// per-lane-parameter engine's run-0 pure-deletion term, where each
    /// lane carries its own channel's del_w[0].
    void (*axpy_lanes)(double* dst, const double* src, const double* w, std::size_t L);
    /// Per-lane-weight fma_acc_run: the weight arrays are [run][lane]
    /// planes with the same stride L as the data rows. For g ascending in
    /// [0, runs): acc[l] += src[g*L + l] * (dw[g*L + l] + tw[g*L + l] * e[g*L + l]).
    /// Identical operation sequence to fma_acc_run when every lane of a
    /// weight plane holds the same value.
    void (*fma_acc_run_pl)(double* acc, const double* src, const double* dw,
                           const double* tw, const double* e, std::size_t runs,
                           std::size_t L);
    /// Per-lane-weight fma_dest_run: dw/tw are [run][lane] planes walked
    /// BACKWARD by whole planes from their given origin (the same origin for
    /// every column), and the run-0 deletion weight is a per-lane row. For
    /// each column c in [0, cols), with o = c*L:
    ///   a[l] = +0.0;
    ///   for i ascending in [0, cnt): a[l] += src[o + i*L + l] * (dw[-i*L + l]
    ///                                          + tw[-i*L + l] * e[o + l]);
    ///   if (src_del) a[l] += src_del[o + l] * w_del[l];
    ///   dst[o + l] = a[l];
    /// Same contracts as fma_dest_run otherwise (`e` readable for cols*L
    /// doubles even at cnt == 0; each destination cell stored exactly once).
    void (*fma_dest_run_pl)(double* dst, const double* src, const double* dw,
                            const double* tw, const double* e, const double* src_del,
                            const double* w_del, std::size_t cnt, std::size_t cols,
                            std::size_t L);

    const char* name;            ///< "scalar" | "neon" | "avx2" | "avx512"
    std::size_t vector_doubles;  ///< lanes per vector op (1/2/4/8)
    util::SimdPath path;
};

/// The per-ISA tables. A table whose translation unit was not compiled for
/// this target returns nullptr (the build defines CCAP_HAVE_KERNELS_* so
/// util::simd_path_available() and these stay consistent).
[[nodiscard]] const LaneKernels* lane_kernels_scalar() noexcept;
[[nodiscard]] const LaneKernels* lane_kernels_neon() noexcept;
[[nodiscard]] const LaneKernels* lane_kernels_avx2() noexcept;
[[nodiscard]] const LaneKernels* lane_kernels_avx512() noexcept;

/// Table for `path`, falling back to the best compiled path at or below it
/// (never nullptr — scalar always exists).
[[nodiscard]] const LaneKernels& lane_kernels_for(util::SimdPath path) noexcept;

/// Table for util::active_simd_path() — what the engines actually run.
[[nodiscard]] const LaneKernels& active_lane_kernels() noexcept;

}  // namespace ccap::info
