#include "ccap/estimate/alignment.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

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
// 2004 and edlib) in an exact diagonal band (Ukkonen 1985). The trellis is
// D(i, j), the distance between the first i sent symbols (the "block",
// rows) and the first j received symbols (columns). Row i of column j is
// the vertical delta D(i,j) - D(i-1,j), held in bit (i-1) % 64 of word
// (i-1) / 64 of the +1 plane (pv) or of the -1 plane (mv). Padding rows
// above n sit in the high bits of the last word, and information only
// flows from low bits to high, so they never reach a real row.

using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t rows) { return (rows + kWordBits - 1) / kWordBits; }

/// floor(x / 2) and ceil(x / 2) for signed x.
long long floor_half(long long x) { return x >= 0 ? x / 2 : -((1 - x) / 2); }
long long ceil_half(long long x) { return -floor_half(-x); }

/// The words one attempt computes at threshold k. Reaching cell (i, j)
/// costs at least |δ| for δ = i - j, and finishing from it at least
/// |d - δ| for d = n - m (global), or max(0, d - δ) (end-free, where the
/// window's tail is free). Column j keeps the words holding rows
/// i in [j + lo, j + hi], the δ whose sum is at most k. Rows above the band
/// enter its first word through a +1 top delta, and a word entering at the
/// bottom starts as all +1 below the previous column's last row: both are
/// upper bounds, so every computed cell is at least its true value and
/// every cell on a path of cost <= k is exact.
struct Band {
    std::size_t n = 0;
    std::size_t words = 0;
    long long k = 0;
    long long lo = 0;
    long long hi = 0;
    std::size_t last = 0;    ///< last column holding band rows
    std::size_t stored = 0;  ///< words over columns 0..last

    Band(std::size_t rows, std::size_t m, long long threshold, bool end_free)
        : n(rows), words(words_for(rows)), k(threshold) {
        const long long d = static_cast<long long>(n) - static_cast<long long>(m);
        if (end_free) {
            lo = std::max(-k, ceil_half(d - k));
            hi = k;
            last = std::min(m, static_cast<std::size_t>(static_cast<long long>(n) - lo));
        } else {
            lo = ceil_half(d - k);
            hi = floor_half(d + k);
            last = m;
        }
        for (std::size_t c = 0; c <= last; ++c) stored += end(c) - first(c);
    }

    /// First word computed in column c.
    [[nodiscard]] std::size_t first(std::size_t c) const noexcept {
        const long long row = std::max(1LL, static_cast<long long>(c) + lo);
        return static_cast<std::size_t>(row - 1) / kWordBits;
    }
    /// One past the last word computed in column c.
    [[nodiscard]] std::size_t end(std::size_t c) const noexcept {
        const long long row =
            std::min(static_cast<long long>(n), static_cast<long long>(c) + hi);
        return words_for(static_cast<std::size_t>(row));
    }
    /// Every word of every column: the full DP, exact whatever k is.
    [[nodiscard]] bool full(std::size_t m) const noexcept {
        return last == m && first(m) == 0 && end(0) == words;
    }
    /// Bytes of the column store: the band words' two planes and word-top
    /// scores, and one offset per column.
    [[nodiscard]] std::size_t store_bytes() const noexcept {
        return 2 * sizeof(Word) * stored +
               sizeof(std::uint32_t) * (stored + 2 * (last + 1) + 1);
    }
};

/// First threshold: the least distance the lengths allow (|n - m|, or
/// n - m end-free), and at least one word.
long long first_threshold(std::size_t n, std::size_t m, bool end_free) {
    const long long d = static_cast<long long>(n) - static_cast<long long>(m);
    return std::max(static_cast<long long>(kWordBits), end_free ? d : std::llabs(d));
}

/// Column stores past this size throw instead of being carved: about the
/// full-width store of 4e8 trellis cells (20000 x 20000 symbols).
constexpr std::size_t kMaxStoreBytes = std::size_t{128} << 20;

void check_store(const Band& band) {
    if (band.store_bytes() > kMaxStoreBytes)
        throw std::invalid_argument(
            "alignment: traces too long for traceback alignment (column store of " +
            std::to_string(band.store_bytes() >> 20) +
            " MiB exceeds the 128 MiB cap); align long traces blockwise");
}

/// Stores up to this size come from the leased thread-local workspace,
/// which keeps them for the next call; a 2000-symbol window against its
/// 3032-symbol slack span needs about 2.5 MB at full width. Larger calls
/// use a local workspace freed on return, so one long alignment does not
/// stay pinned to the thread.
constexpr std::size_t kLeaseBytes = std::size_t{4} << 20;

/// What a call storing `columns` full-width columns may carve (at most n
/// distinct symbols): the size that picks its workspace.
std::size_t full_width_bytes(std::size_t n, std::size_t m, std::size_t columns) {
    const std::size_t words = words_for(n);
    return sizeof(std::uint32_t) * (n + m + columns * (words + 1)) +
           sizeof(Word) * ((n + 1) * words + columns * 2 * words);
}

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

/// Sizes of the match masks `prepare` leaves at the front of the
/// workspace's u64 arena; the window's `peq` rows lead its u32 arena.
struct Pattern {
    std::size_t n = 0;
    std::size_t m = 0;
    std::size_t words = 0;
    std::size_t peq_words = 0;
};

/// Build the match masks for (block, window). Row r of `peq` (`words`
/// words) marks the block rows holding the r-th distinct block symbol, in
/// order of first occurrence; its last row is all zero and stands for every
/// symbol the block lacks. An open-addressing table of at least 2n slots,
/// carved after the window's rows, finds each symbol's row in one pass over
/// the block and one over the window.
Pattern prepare(std::span<const std::uint32_t> block, std::span<const std::uint32_t> window,
                info::LatticeWorkspace& ws) {
    Pattern p;
    p.n = block.size();
    p.m = window.size();
    p.words = words_for(p.n);

    const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * p.n, 2));
    const int shift = 64 - std::countr_zero(slots);
    std::uint32_t* window_rows = ws.cells_u32(p.m + p.n + 2 * slots).data();
    std::uint32_t* block_rows = window_rows + p.m;
    std::uint32_t* keys = block_rows + p.n;
    std::uint32_t* rows = keys + slots;  // row + 1 of the symbol in keys; 0 = empty slot
    std::fill(rows, rows + slots, 0U);
    const auto slot_of = [&](std::uint32_t s) {
        std::size_t h = static_cast<std::size_t>((s * 0x9E3779B97F4A7C15ULL) >> shift);
        while (rows[h] != 0 && keys[h] != s) h = (h + 1) & (slots - 1);
        return h;
    };
    std::uint32_t distinct = 0;
    for (std::size_t i = 0; i < p.n; ++i) {
        const std::size_t h = slot_of(block[i]);
        if (rows[h] == 0) {
            keys[h] = block[i];
            rows[h] = ++distinct;
        }
        block_rows[i] = rows[h] - 1;
    }
    for (std::size_t j = 0; j < p.m; ++j) {
        const std::uint32_t r = rows[slot_of(window[j])];
        window_rows[j] = r == 0 ? distinct : r - 1;
    }

    p.peq_words = (std::size_t{distinct} + 1) * p.words;
    Word* peq = ws.cells_u64(p.peq_words).data();
    std::fill(peq, peq + p.peq_words, Word{0});
    for (std::size_t i = 0; i < p.n; ++i)
        peq[block_rows[i] * p.words + i / kWordBits] |= Word{1} << (i % kWordBits);
    return p;
}

/// One attempt's DP state. Stored column c keeps its band words
/// [first(c), end(c)) from word offset offsets[c]: the pv words, then the
/// mv words (from 2·offsets[c]), and the end - first + 1 word-top scores
/// D(64w, c) (from offsets[c] + c). Without `offsets`, one full-length
/// column is updated in place and word w sits at index w.
struct BitDp {
    Pattern p;
    Band band;
    const Word* peq = nullptr;
    const std::uint32_t* window_rows = nullptr;
    const std::uint32_t* offsets = nullptr;
    Word* planes = nullptr;
    std::uint32_t* tops = nullptr;

    [[nodiscard]] const Word* eq(std::size_t j) const noexcept {
        return peq + window_rows[j - 1] * p.words;
    }
};

/// Column c as stored: word w of [first, end) sits at index w - base of
/// each plane, its top score at index w - base of `tops`, and the score of
/// the row below the last word at index end - base.
struct Column {
    Word* pv;
    Word* mv;
    std::uint32_t* tops;
    std::size_t base;
    std::size_t first;
    std::size_t end;
};

inline Column column(const BitDp& dp, std::size_t c) {
    const std::size_t first = dp.band.first(c);
    if (dp.offsets == nullptr)
        return {dp.planes, dp.planes + dp.p.words, dp.tops, 0, first, dp.band.end(c)};
    const std::size_t at = dp.offsets[c];
    const std::size_t count = dp.offsets[c + 1] - at;
    Word* pv = dp.planes + 2 * at;
    return {pv, pv + count, dp.tops + at + c, first, first, first + count};
}

/// Carve an attempt's store after the match masks: every band column, or
/// (`stored` false) one column updated in place. Column 0 is set to the
/// left boundary D(i, 0) = i.
BitDp carve(const Pattern& p, const Band& band, bool stored, info::LatticeWorkspace& ws) {
    BitDp dp{p, band};
    const std::size_t columns = band.last + 1;
    const std::size_t plane_words = stored ? 2 * band.stored : 2 * p.words;
    const std::size_t top_words = stored ? columns + 1 + band.stored + columns : p.words + 1;
    std::uint32_t* u32 = ws.cells_u32(p.m + top_words).data();
    Word* u64 = ws.cells_u64(p.peq_words + plane_words).data();
    dp.window_rows = u32;
    dp.peq = u64;
    dp.planes = u64 + p.peq_words;
    dp.tops = u32 + p.m;
    if (stored) {
        std::uint32_t* offsets = dp.tops;
        dp.tops += columns + 1;
        offsets[0] = 0;
        for (std::size_t c = 0; c < columns; ++c)
            offsets[c + 1] =
                offsets[c] + static_cast<std::uint32_t>(band.end(c) - band.first(c));
        dp.offsets = offsets;
    }
    const Column left = column(dp, 0);
    const std::size_t count = left.end;
    std::fill(left.pv, left.pv + count, ~Word{0});
    std::fill(left.mv, left.mv + count, Word{0});
    for (std::size_t w = 0; w <= count; ++w)
        dp.tops[w] = static_cast<std::uint32_t>(w * kWordBits);
    return dp;
}

/// Advance column `prev` to column `next` (the same storage when updated in
/// place); `eq` is the match mask of the received symbol the new column
/// consumes. The horizontal delta on the row above word w enters as one bit
/// each of `hp` (+1) and `hm` (-1): +1 above the first word, exact from the
/// top boundary D(0,j) = j and an upper bound below it, then the delta out
/// of the previous word's last row. The same delta steps the word-top score.
void advance(const Column& prev, const Column& next, const Word* eq) {
    const std::uint32_t prev_bottom = prev.tops[prev.end - prev.base];
    Word hp = 1, hm = 0;
    const auto step = [&](std::size_t w, Word pv, Word mv, std::uint32_t top) {
        const std::size_t at = w - next.base;
        next.tops[at] = top + static_cast<std::uint32_t>(hp - hm);
        const Word xv = eq[w] | mv;
        const Word e = eq[w] | hm;
        const Word xh = (((e & pv) + pv) ^ pv) | e;
        const Word ph = mv | ~(xh | pv);
        const Word mh = pv & xh;
        const Word ph_in = (ph << 1) | hp;
        const Word mh_in = (mh << 1) | hm;
        next.pv[at] = mh_in | ~(xv | ph_in);
        next.mv[at] = ph_in & xv;
        hp = ph >> (kWordBits - 1);
        hm = mh >> (kWordBits - 1);
    };
    std::size_t w = next.first;
    for (const std::size_t kept = std::min(next.end, prev.end); w < kept; ++w)
        step(w, prev.pv[w - prev.base], prev.mv[w - prev.base], prev.tops[w - prev.base]);
    // Words entering the band: all +1 below the previous column's last row.
    const auto below = [&](std::size_t v) {
        return prev_bottom + static_cast<std::uint32_t>((v - prev.end) * kWordBits);
    };
    for (; w < next.end; ++w) step(w, ~Word{0}, Word{0}, below(w));
    next.tops[next.end - next.base] = below(next.end) + static_cast<std::uint32_t>(hp - hm);
}

/// D(i, c): the word-top score D(64w, c) plus the net +1/-1 count of rows
/// 64w+1..i within word w; `outside` for a row the column does not hold.
inline long long cell(const Column& col, std::size_t i, long long outside) {
    const std::size_t w = i / kWordBits;
    const std::size_t r = i % kWordBits;
    if (w < col.first || w > col.end || (r != 0 && w == col.end)) return outside;
    const std::size_t at = w - col.base;
    auto d = static_cast<long long>(col.tops[at]);
    if (r != 0) {
        const Word mask = (Word{1} << r) - 1;
        d += std::popcount(col.pv[at] & mask) - std::popcount(col.mv[at] & mask);
    }
    return d;
}

/// True when every cell column `col` holds exceeds k. A cell of word w is
/// within 64 rows of both the word's top and bottom scores, so it is at
/// least (top + bottom - 64) / 2.
bool exceeds(const Column& col, long long k) {
    const std::uint32_t* tops = col.tops + (col.first - col.base);
    const std::size_t count = col.end - col.first;
    if (count == 0) return tops[0] > k;
    const long long limit = 2 * k + static_cast<long long>(kWordBits);
    for (std::size_t t = 0; t < count; ++t)
        if (static_cast<long long>(tops[t]) + tops[t + 1] <= limit) return false;
    return true;
}

/// An attempt's best score: D(n, m) for a global alignment; end-free, the
/// least D(n, j) over the columns holding row n, ties towards the
/// drift-neutral length n, and its column. A failed attempt's score is an
/// upper bound on the distance, or kNoScore when the pass found none.
struct Best {
    long long score = 0;
    std::size_t end_j = 0;
    std::size_t words = 0;  ///< words the pass computed
};

constexpr long long kNoScore = std::numeric_limits<long long>::max();

/// Once a column's cells all exceed k, no path of cost <= k crosses it, so
/// no later column can end one (Ukkonen's cut-off): the pass stops there,
/// with the end-free best found so far. A full-width attempt never stops,
/// since it is final at any score.
Best forward(const BitDp& dp, bool end_free) {
    const auto n = static_cast<long long>(dp.p.n);
    const auto drift = [n](std::size_t j) { return std::llabs(static_cast<long long>(j) - n); };
    const long long k = dp.band.k;
    const bool may_stop = !dp.band.full(dp.p.m);
    Best best{kNoScore, 0};
    const auto offer = [&](std::size_t j, const Column& col) {
        if (col.end != dp.p.words) return;
        const long long score = cell(col, dp.p.n, kNoScore);
        if (score < best.score || (score == best.score && drift(j) < drift(best.end_j))) {
            best.score = score;
            best.end_j = j;
        }
    };
    Column prev = column(dp, 0);
    if (end_free) offer(0, prev);
    for (std::size_t j = 1; j <= dp.band.last; ++j) {
        const Column next = column(dp, j);
        advance(prev, next, dp.eq(j));
        best.words += next.end - next.first;
        if (end_free) offer(j, next);
        if (may_stop && exceeds(next, k)) {
            if (!end_free) best.score = kNoScore;
            return best;
        }
        prev = next;
    }
    if (!end_free) {
        best.score = cell(prev, dp.p.n, k + 1);
        best.end_j = dp.p.m;
    }
    return best;
}

/// The band of an attempt at threshold k. An attempt that may fail runs
/// the full DP instead when its band would cost three quarters of it, or
/// when the band and the `spent` words of the failed attempts would cost
/// more than it; so no call computes twice the full DP's words.
Band plan(std::size_t n, std::size_t m, long long k, bool end_free, std::size_t spent) {
    Band band(n, m, k, end_free);
    const std::size_t full = (m + 1) * band.words;
    if (4 * band.stored >= 3 * full || spent + band.stored >= full)
        return Band(n, m, static_cast<long long>(n + m), end_free);
    return band;
}

/// Run attempts at thresholds k0, then twice the last (or the failed
/// attempt's best score, an upper bound on the distance, when smaller),
/// until the best score is at most k or the band is the full DP (see
/// plan). The column store of each attempt is checked against
/// kMaxStoreBytes before it is carved. Returns `done(dp, best)` for the
/// final attempt.
template <class Done>
auto solve(std::span<const std::uint32_t> block, std::span<const std::uint32_t> window,
           bool end_free, bool stored, Done&& done) {
    const std::size_t n = block.size();
    const std::size_t m = window.size();
    Band band = plan(n, m, first_threshold(n, m, end_free), end_free, 0);
    if (stored) check_store(band);
    return with_workspace(full_width_bytes(n, m, stored ? m + 1 : 1),
                          [&](info::LatticeWorkspace& ws) {
                              const Pattern pattern = prepare(block, window, ws);
                              std::size_t spent = 0;
                              for (;;) {
                                  const BitDp dp = carve(pattern, band, stored, ws);
                                  const Best best = forward(dp, end_free);
                                  if (best.score <= band.k || band.full(m))
                                      return done(dp, best);
                                  spent += best.words;
                                  // A score within 2k bounds the distance: the next
                                  // attempt cannot fail.
                                  band = best.score <= 2 * band.k
                                             ? Band(n, m, best.score, end_free)
                                             : plan(n, m, 2 * band.k, end_free, spent);
                                  if (stored) check_store(band);
                              }
                          });
}

/// Traceback from (n, end_j), preferring diagonal (match/substitution) >
/// deletion > insertion. It visits only cells of value <= the distance,
/// which the final attempt holds exactly; any other cell it reads is at
/// least its true value (k + 1 outside the stored words), so every test
/// decides as on the full DP.
Alignment trace_back(const BitDp& dp, std::span<const std::uint32_t> block,
                     std::span<const std::uint32_t> window, std::size_t end_j) {
    const long long outside = dp.band.k + 1;
    std::size_t i = dp.p.n, j = end_j;
    Column here = column(dp, j);
    Column left = j > 0 ? column(dp, j - 1) : here;
    const auto step_left = [&] {
        --j;
        here = left;
        if (j > 0) left = column(dp, j - 1);
    };
    long long cur = cell(here, i, outside);
    Alignment out;
    out.distance = static_cast<std::size_t>(cur);
    out.steps.reserve(i + j);
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0) {
            const bool is_match = block[i - 1] == window[j - 1];
            const long long diag = cell(left, i - 1, outside);
            if (diag + (is_match ? 0 : 1) == cur) {
                out.steps.push_back(
                    {is_match ? EditOp::match : EditOp::substitution, i - 1, j - 1});
                --i;
                step_left();
                cur = diag;
                continue;
            }
        }
        if (i > 0 && cell(here, i - 1, outside) + 1 == cur) {
            out.steps.push_back({EditOp::deletion, i - 1, 0});
            --i;
        } else {
            out.steps.push_back({EditOp::insertion, 0, j - 1});
            step_left();
        }
        --cur;
    }
    std::reverse(out.steps.begin(), out.steps.end());
    return out;
}

}  // namespace

std::pair<Alignment, std::size_t> align_end_free(std::span<const std::uint32_t> block,
                                                 std::span<const std::uint32_t> window) {
    return solve(block, window, /*end_free=*/true, /*stored=*/true,
                 [&](const BitDp& dp, const Best& best) {
                     return std::pair{trace_back(dp, block, window, best.end_j), best.end_j};
                 });
}

Alignment align(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received) {
    return solve(sent, received, /*end_free=*/false, /*stored=*/true,
                 [&](const BitDp& dp, const Best& best) {
                     return trace_back(dp, sent, received, best.end_j);
                 });
}

std::size_t edit_distance(std::span<const std::uint32_t> sent,
                          std::span<const std::uint32_t> received) {
    return solve(sent, received, /*end_free=*/false, /*stored=*/false,
                 [](const BitDp&, const Best& best) {
                     return static_cast<std::size_t>(best.score);
                 });
}

}  // namespace ccap::estimate
