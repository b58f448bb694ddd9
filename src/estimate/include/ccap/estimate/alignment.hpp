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
// Hyyrö's multi-word form): the sent trace is the column pattern, and each
// received symbol advances a column of ceil(n/64) words of vertical +1/-1
// deltas. For n sent and m received symbols that is O(n·m/64) time. The
// traceback reads cells back from a column store of (m+1) columns, each
// ceil(n/64)·16 bytes of delta planes plus (ceil(n/64)+1)·4 bytes of
// word-top scores: about m·ceil(n/64)·20 bytes, 1.3 MB for 2000×2000.
// Stores up to 4 MiB (a 2000-symbol window against its slack span is
// about 2.5 MB) come from a leased thread-local workspace that keeps them
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

/// Align two symbol traces end to end. The column store grows with
/// |sent|·|received|, so pairs past 4e8 cells throw std::invalid_argument;
/// long traces should be aligned blockwise (see param_estimator.hpp).
[[nodiscard]] Alignment align(std::span<const std::uint32_t> sent,
                              std::span<const std::uint32_t> received);

/// End-free alignment: align all of `block` against the prefix of `window`
/// that minimizes the distance, ties towards the drift-neutral length
/// |block|. Returns the alignment and how many window symbols it consumed.
/// Repeated calls at window size do not allocate beyond the returned steps.
[[nodiscard]] std::pair<Alignment, std::size_t> align_end_free(
    std::span<const std::uint32_t> block, std::span<const std::uint32_t> window);

/// Levenshtein distance only, in O(n·m/64) time. Memory is one column of
/// delta planes (ceil(n/64)·16 bytes), a match-mask table of
/// (σ+1)·ceil(n/64) words for σ distinct sent symbols (about 32n bytes for
/// 8-bit symbols, up to n²/8 bytes when every symbol is distinct) and
/// 4(n+m) bytes of symbol maps.
[[nodiscard]] std::size_t edit_distance(std::span<const std::uint32_t> sent,
                                        std::span<const std::uint32_t> received);

}  // namespace ccap::estimate
