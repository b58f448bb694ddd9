// Edit-distance alignment of sent vs. received symbol traces.
//
// A practitioner measuring a real covert channel observes two streams: what
// the sender pushed and what the receiver sampled. To apply the paper's
// capacity corrections they need (P_d, P_i, P_s), which requires deciding
// which received symbol corresponds to which sent one. We use Levenshtein
// alignment (unit costs for deletion/insertion/substitution, 0 for match)
// with full traceback; ties are broken to prefer matches, then
// substitutions, making the classification deterministic.
//
// All three entry points run one exact bit-parallel DP (Myers 1999, in
// Hyyrö's multi-word form) inside a diagonal band (Ukkonen 1985). The sent
// trace is the column pattern, and each received symbol advances a column
// of 64-row words of vertical +1/-1 deltas. An attempt at threshold k
// computes only the words holding cells that a path of cost <= k can
// cross, a diagonal strip k to 2k rows wide, and stops at the first column
// whose cells all exceed k. The first k is the least distance
// the lengths allow (at least 64); a failed attempt doubles it, or raises
// it to the upper bound on the distance it found. Distance, end column and
// every step are those of the full DP. A 2000-symbol window with 300
// deletions costs one attempt of about 6 of its 32 words per column.
// Inputs no band helps, such as unrelated traces, cost up to about 1.3x
// the full O(n·m/64) DP, and no call computes more than twice its words
// (see THEORY.md §16).
//
// The traceback reads cells back from a store of each column's band words:
// 20 bytes per word plus 8 per column, 160-320 KB for a 2000-symbol
// tracker window (about 1.2 MB at full width). Calls whose full-width
// store fits in 4 MiB use a leased thread-local workspace that keeps it
// for the next call on that thread; larger ones are freed on return.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace ccap::estimate {

enum class EditOp : std::uint8_t { match, substitution, deletion, insertion };

struct EditStep {
    EditOp op = EditOp::match;
    /// Index into the sent trace (valid except for insertions).
    std::size_t sent_index = 0;
    /// Index into the received trace (valid except for deletions).
    std::size_t received_index = 0;
};

struct Alignment {
    std::vector<EditStep> steps;
    std::size_t distance = 0;  ///< Levenshtein distance

    [[nodiscard]] std::size_t count(EditOp op) const noexcept;
    /// "MMSDI"-style compact rendering for logs and tests.
    [[nodiscard]] std::string to_string() const;
};

/// Align two symbol traces end to end. A pair whose band store (see
/// above) would pass 128 MiB throws std::invalid_argument before anything
/// is allocated; long traces should be aligned blockwise (see
/// param_estimator.hpp).
[[nodiscard]] Alignment align(std::span<const std::uint32_t> sent,
                              std::span<const std::uint32_t> received);

/// End-free alignment: align all of `block` against the prefix of `window`
/// that minimizes the distance, ties towards the drift-neutral length
/// |block|. Returns the alignment and how many window symbols it consumed.
/// Repeated calls at window size do not allocate beyond the returned steps.
/// Throws std::invalid_argument past the same 128 MiB store cap as align.
[[nodiscard]] std::pair<Alignment, std::size_t> align_end_free(
    std::span<const std::uint32_t> block, std::span<const std::uint32_t> window);

/// Levenshtein distance only, by the same banded attempts without a store:
/// one column of delta planes (ceil(n/64)·16 bytes) and its word-top
/// scores, updated in place, so no size cap applies. It also needs a
/// match-mask table of (σ+1)·ceil(n/64) words for σ distinct sent symbols
/// (about 32n bytes for 8-bit symbols, up to n²/8 bytes when every symbol
/// is distinct) and at most 4(m + 5n) bytes of symbol maps.
[[nodiscard]] std::size_t edit_distance(std::span<const std::uint32_t> sent,
                                        std::span<const std::uint32_t> received);

}  // namespace ccap::estimate
