// Runtime CPU-feature detection and SIMD-path selection.
//
// The batched lattice kernels (info/lattice_simd.hpp) ship one translation
// unit per instruction set — scalar, NEON, AVX2, AVX-512 — and pick one at
// startup instead of relying on autovectorization of the lane loops. This
// header is the single source of truth for that choice:
//
//   * cpu_supports(path)        — does the hardware execute this ISA?
//   * simd_path_available(path) — hardware support AND a kernel TU was
//     compiled for it (the build injects CCAP_HAVE_KERNELS_* so util and
//     info can never disagree about what exists).
//   * active_simd_path()        — the path the kernels actually run.
//     Resolved once: the best available path, unless the CCAP_SIMD
//     environment variable (scalar|neon|avx2|avx512) or force_simd_path()
//     overrides it. Requests the machine cannot honour clamp down to the
//     best available path at or below the request, so CCAP_SIMD=avx512 on
//     an AVX2-only box degrades to avx2, and CCAP_SIMD=neon on x86
//     degrades to scalar — the override can force *less*, never more.
//
// Every vector path is elementwise bit-identical to the scalar path (the
// kernels use no FMA contraction and no cross-lane reductions), so the
// override exists for testing and benchmarking, not for correctness.
#pragma once

#include <cstddef>
#include <string>

namespace ccap::util {

/// Instruction sets the lane kernels are specialised for, ordered weakest
/// to widest (the order clamping walks down).
enum class SimdPath : int { scalar = 0, neon = 1, avx2 = 2, avx512 = 3 };

/// "scalar", "neon", "avx2" or "avx512".
[[nodiscard]] const char* simd_path_name(SimdPath path) noexcept;

/// Parse a path name (as accepted by CCAP_SIMD / --simd). Returns false on
/// anything else; `out` is untouched then.
[[nodiscard]] bool parse_simd_path(const std::string& text, SimdPath& out) noexcept;

/// Lane width of a path in doubles: 1 / 2 / 4 / 8.
[[nodiscard]] std::size_t simd_vector_doubles(SimdPath path) noexcept;

/// Hardware support for a path (scalar is always true). Detected once via
/// CPUID / the target architecture, never changes.
[[nodiscard]] bool cpu_supports(SimdPath path) noexcept;

/// Hardware support AND a kernel translation unit compiled for the path.
[[nodiscard]] bool simd_path_available(SimdPath path) noexcept;

/// Widest available path on this machine/build.
[[nodiscard]] SimdPath best_simd_path() noexcept;

/// Human-readable summary of the detected features, printed by the CLI and
/// stamped into perfbench records: e.g. "avx512f+avx2", "avx2", "neon",
/// "baseline".
[[nodiscard]] std::string cpu_feature_string();

/// The path the dispatched kernels run. First call resolves it: CCAP_SIMD
/// if set (clamped to availability, unknown values are ignored with a
/// one-line stderr note), otherwise best_simd_path(). Stable afterwards
/// unless force_simd_path() intervenes.
[[nodiscard]] SimdPath active_simd_path() noexcept;

/// Test/CLI override of the active path; clamps to the best available path
/// at or below the request and returns what was actually applied. Not
/// thread-safe against concurrent lattice sweeps — switch paths only
/// between batched calls (tests and CLI startup do).
SimdPath force_simd_path(SimdPath path) noexcept;

}  // namespace ccap::util
