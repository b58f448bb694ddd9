#include "ccap/estimate/alignment.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

#include "ccap/info/lattice_engine.hpp"

namespace ccap::estimate {

std::size_t Alignment::count(EditOp op) const noexcept {
    std::size_t c = 0;
    for (const EditStep& s : steps)
        if (s.op == op) ++c;
    return c;
}

std::string Alignment::to_string() const {
    std::string s;
    s.reserve(steps.size());
    for (const EditStep& step : steps) {
        switch (step.op) {
            case EditOp::match: s.push_back('M'); break;
            case EditOp::substitution: s.push_back('S'); break;
            case EditOp::deletion: s.push_back('D'); break;
            case EditOp::insertion: s.push_back('I'); break;
        }
    }
    return s;
}

namespace {

// Bit-parallel Levenshtein DP (Myers 1999; multi-word form after Hyyrö
// 2004 and edlib). The trellis is D(i, j), the distance between the first
// i sent symbols (the "block", rows) and the first j received symbols
// (columns). Column j is kept as `words` = ceil(n/64) words of vertical
// deltas D(i,j) - D(i-1,j): bit i-1 of the +1 plane (pv) or of the -1 plane
// (mv). Every cell is exact; padding rows above n sit in the high bits of
// the last word, and information only flows from low bits to high, so they
// never reach a real row.

using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

/// One call's DP state, carved from a workspace. Row r of `peq` (`words`
/// words) marks the block rows holding the r-th distinct block symbol; its
/// last row is all zero and stands for every symbol the block lacks.
/// `window_rows[j]` is the `peq` row of window[j]. Column c is stored as
/// 2·words words (pv then mv) plus words + 1 word-top scores
/// D(64w, c), w = 0..words, which make any cell two popcounts away.
struct BitDp {
    std::size_t n = 0;
    std::size_t m = 0;
    std::size_t words = 0;
    const Word* peq = nullptr;
    const std::uint32_t* window_rows = nullptr;
    Word* planes = nullptr;
    std::uint32_t* tops = nullptr;

    [[nodiscard]] Word* column(std::size_t c) const noexcept { return planes + c * 2 * words; }
    [[nodiscard]] std::uint32_t* column_tops(std::size_t c) const noexcept {
        return tops + c * (words + 1);
    }
    [[nodiscard]] const Word* eq(std::size_t j) const noexcept {
        return peq + window_rows[j - 1] * words;
    }
};

/// Upper bound on what `prepare` carves from a workspace for an n-row,
/// m-column DP storing `columns` columns (at most n distinct symbols).
std::size_t store_bytes(std::size_t n, std::size_t m, std::size_t columns) {
    const std::size_t words = (n + kWordBits - 1) / kWordBits;
    return sizeof(std::uint32_t) * (n + m + columns * (words + 1)) +
           sizeof(Word) * ((n + 1) * words + columns * 2 * words);
}

/// Stores up to this size come from the leased thread-local workspace,
/// which keeps them for the next call; a 2000-symbol window against its
/// 3032-symbol slack span needs about 2.5 MB. Larger stores use a local
/// workspace freed on return, so one long alignment does not stay pinned
/// to the thread.
constexpr std::size_t kLeaseBytes = std::size_t{4} << 20;

/// Run `body(workspace)` on a workspace sized by `bytes` (see kLeaseBytes).
template <class Body>
auto with_workspace(std::size_t bytes, Body&& body) {
    if (bytes <= kLeaseBytes) {
        info::ScopedWorkspace lease;
        return body(lease.get());
    }
    info::LatticeWorkspace ws;
    return body(ws);
}

/// Build the match masks for (block, window) and reserve `columns` column
/// slots in `ws`; column 0 is set to the left boundary D(i, 0) = i.
BitDp prepare(std::span<const std::uint32_t> block, std::span<const std::uint32_t> window,
              std::size_t columns, info::LatticeWorkspace& ws) {
    BitDp dp;
    dp.n = block.size();
    dp.m = window.size();
    dp.words = (dp.n + kWordBits - 1) / kWordBits;

    // Distinct block symbols, sorted, then the window mapped onto them.
    const std::span<std::uint32_t> u32 = ws.cells_u32(dp.n + dp.m + columns * (dp.words + 1));
    const auto symbols = u32.first(dp.n);
    std::copy(block.begin(), block.end(), symbols.begin());
    std::sort(symbols.begin(), symbols.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(symbols.begin(), symbols.end()) - symbols.begin());
    const std::uint32_t* begin = symbols.data();
    const std::uint32_t* end = begin + distinct;
    const auto row_of = [&](std::uint32_t s) {
        const std::uint32_t* it = std::lower_bound(begin, end, s);
        return static_cast<std::uint32_t>(it != end && *it == s ? it - begin : end - begin);
    };
    std::uint32_t* window_rows = u32.data() + dp.n;
    for (std::size_t j = 0; j < dp.m; ++j) window_rows[j] = row_of(window[j]);

    const std::size_t peq_words = (distinct + 1) * dp.words;
    Word* peq = ws.cells_u64(peq_words + columns * 2 * dp.words).data();
    std::fill(peq, peq + peq_words, Word{0});
    for (std::size_t i = 0; i < dp.n; ++i)
        peq[row_of(block[i]) * dp.words + i / kWordBits] |= Word{1} << (i % kWordBits);

    dp.peq = peq;
    dp.window_rows = window_rows;
    dp.planes = peq + peq_words;
    dp.tops = window_rows + dp.m;
    Word* first = dp.column(0);
    std::fill(first, first + dp.words, ~Word{0});
    std::fill(first + dp.words, first + 2 * dp.words, Word{0});
    std::uint32_t* first_tops = dp.column_tops(0);
    for (std::size_t w = 0; w <= dp.words; ++w)
        first_tops[w] = static_cast<std::uint32_t>(w * kWordBits);
    return dp;
}

/// Bit b of `plus` minus bit b of `minus`: one +1/-1 delta.
int bit_delta(Word plus, Word minus, std::size_t b) {
    return static_cast<int>((plus >> b) & 1U) - static_cast<int>((minus >> b) & 1U);
}

/// Advance column `from` to column `to` (`to` = `from` + 1, or `from`
/// itself to update in place); `eq` is the match mask of the received
/// symbol the new column consumes. The horizontal delta
/// D(64w,j) - D(64w,j-1) on the row above word w enters as one bit each of
/// `hp` (+1) and `hm` (-1): +1 above word 0 from the top boundary
/// D(0,j) = j, then the delta out of the previous word's last row. The
/// same delta steps the word-top score D(64w, ·). Returns the bottom-row delta
/// D(n,j) - D(n,j-1): bit (n-1) % 64 of the last word, or the carry out of
/// it when n is a multiple of 64 (including n = 0).
int advance(const BitDp& dp, std::size_t from, std::size_t to, const Word* eq) {
    const std::size_t words = dp.words;
    const Word* prev = dp.column(from);
    Word* next = dp.column(to);
    const std::uint32_t* prev_tops = dp.column_tops(from);
    std::uint32_t* next_tops = dp.column_tops(to);
    Word hp = 1, hm = 0;
    Word ph = 0, mh = 0;
    for (std::size_t w = 0; w < words; ++w) {
        next_tops[w] = prev_tops[w] + static_cast<std::uint32_t>(hp - hm);
        const Word pv = prev[w];
        const Word mv = prev[words + w];
        const Word xv = eq[w] | mv;
        const Word e = eq[w] | hm;
        const Word xh = (((e & pv) + pv) ^ pv) | e;
        ph = mv | ~(xh | pv);
        mh = pv & xh;
        const Word ph_in = (ph << 1) | hp;
        const Word mh_in = (mh << 1) | hm;
        next[w] = mh_in | ~(xv | ph_in);
        next[words + w] = ph_in & xv;
        hp = ph >> (kWordBits - 1);
        hm = mh >> (kWordBits - 1);
    }
    next_tops[words] = prev_tops[words] + static_cast<std::uint32_t>(hp - hm);
    if (dp.n % kWordBits == 0) return bit_delta(hp, hm, 0);
    return bit_delta(ph, mh, (dp.n - 1) % kWordBits);
}

/// D(i, c): the word-top score D(64w, c) plus the net +1/-1 count of rows
/// 64w+1..i within word w.
long long cell(const BitDp& dp, std::size_t i, std::size_t c) {
    const std::size_t w = i / kWordBits;
    auto d = static_cast<long long>(dp.column_tops(c)[w]);
    if (const std::size_t r = i % kWordBits; r != 0) {
        const Word* col = dp.column(c);
        const Word mask = (Word{1} << r) - 1;
        d += std::popcount(col[w] & mask) - std::popcount(col[dp.words + w] & mask);
    }
    return d;
}

/// D(i, c) - D(i-1, c) for i >= 1.
int vertical(const BitDp& dp, std::size_t i, std::size_t c) {
    const Word* col = dp.column(c);
    const std::size_t w = (i - 1) / kWordBits;
    return bit_delta(col[w], col[dp.words + w], (i - 1) % kWordBits);
}

/// Forward pass storing every column. Returns the column the alignment
/// ends in: `m` for a global alignment, else the prefix length with the
/// least D(n, j), ties towards the drift-neutral length n.
std::size_t forward(const BitDp& dp, bool end_free) {
    const auto n = static_cast<long long>(dp.n);
    const auto drift = [n](std::size_t j) { return std::llabs(static_cast<long long>(j) - n); };
    long long score = n, best = n;
    std::size_t best_j = 0;
    for (std::size_t j = 1; j <= dp.m; ++j) {
        score += advance(dp, j - 1, j, dp.eq(j));
        if (score < best || (score == best && drift(j) < drift(best_j))) {
            best = score;
            best_j = j;
        }
    }
    return end_free ? best_j : dp.m;
}

/// Traceback from (n, end_j), preferring diagonal (match/substitution) >
/// deletion > insertion.
Alignment trace_back(const BitDp& dp, std::span<const std::uint32_t> block,
                     std::span<const std::uint32_t> window, std::size_t end_j) {
    std::size_t i = dp.n, j = end_j;
    long long cur = cell(dp, i, j);
    Alignment out;
    out.distance = static_cast<std::size_t>(cur);
    out.steps.reserve(i + j);
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0) {
            const bool is_match = block[i - 1] == window[j - 1];
            const long long diag = cell(dp, i - 1, j - 1);
            if (diag + (is_match ? 0 : 1) == cur) {
                out.steps.push_back(
                    {is_match ? EditOp::match : EditOp::substitution, i - 1, j - 1});
                --i;
                --j;
                cur = diag;
                continue;
            }
        }
        if (i > 0 && vertical(dp, i, j) == 1) {
            out.steps.push_back({EditOp::deletion, i - 1, 0});
            --i;
        } else {
            out.steps.push_back({EditOp::insertion, 0, j - 1});
            --j;
        }
        --cur;
    }
    std::reverse(out.steps.begin(), out.steps.end());
    return out;
}

}  // namespace

std::pair<Alignment, std::size_t> align_end_free(std::span<const std::uint32_t> block,
                                                 std::span<const std::uint32_t> window) {
    const std::size_t columns = window.size() + 1;
    return with_workspace(store_bytes(block.size(), window.size(), columns),
                          [&](info::LatticeWorkspace& ws) {
                              BitDp dp = prepare(block, window, columns, ws);
                              const std::size_t end_j = forward(dp, /*end_free=*/true);
                              return std::pair{trace_back(dp, block, window, end_j), end_j};
                          });
}

Alignment align(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received) {
    // Guard against quadratic blowup; callers with huge traces use the
    // blockwise estimator.
    if (sent.size() * received.size() > 400'000'000ULL)
        throw std::invalid_argument("align: traces too long for full traceback alignment");
    const std::size_t columns = received.size() + 1;
    return with_workspace(store_bytes(sent.size(), received.size(), columns),
                          [&](info::LatticeWorkspace& ws) {
                              BitDp dp = prepare(sent, received, columns, ws);
                              return trace_back(dp, sent, received,
                                                forward(dp, /*end_free=*/false));
                          });
}

std::size_t edit_distance(std::span<const std::uint32_t> sent,
                          std::span<const std::uint32_t> received) {
    // One column, updated in place.
    return with_workspace(store_bytes(sent.size(), received.size(), 1),
                          [&](info::LatticeWorkspace& ws) {
                              BitDp dp = prepare(sent, received, 1, ws);
                              auto score = static_cast<long long>(dp.n);
                              for (std::size_t j = 1; j <= dp.m; ++j)
                                  score += advance(dp, 0, 0, dp.eq(j));
                              return static_cast<std::size_t>(score);
                          });
}

}  // namespace ccap::estimate
