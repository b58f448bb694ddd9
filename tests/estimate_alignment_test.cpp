#include "ccap/estimate/alignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ccap/core/fault_injection.hpp"
#include "ccap/core/stream_source.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::estimate;
using Trace = std::vector<std::uint32_t>;

// ---------------------------------------------------------------------------
// Reference: the quadratic DPs the bit-parallel kernel replaced, kept
// verbatim in logic (full trellis, same traceback order). The kernel must
// reproduce their distance, end column and every step.

using RefTable = std::vector<std::vector<std::uint32_t>>;

RefTable reference_table(const Trace& sent, const Trace& received) {
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    RefTable dp(n + 1, std::vector<std::uint32_t>(m + 1, 0));
    for (std::size_t i = 0; i <= n; ++i) dp[i][0] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j <= m; ++j) dp[0][j] = static_cast<std::uint32_t>(j);
    for (std::size_t i = 1; i <= n; ++i)
        for (std::size_t j = 1; j <= m; ++j) {
            const std::uint32_t sub =
                dp[i - 1][j - 1] + (sent[i - 1] == received[j - 1] ? 0U : 1U);
            dp[i][j] = std::min({sub, dp[i - 1][j] + 1U, dp[i][j - 1] + 1U});
        }
    return dp;
}

Alignment reference_trace_back(const RefTable& dp, const Trace& sent, const Trace& received,
                               std::size_t end_j) {
    Alignment out;
    std::size_t i = sent.size(), j = end_j;
    out.distance = dp[i][j];
    std::vector<EditStep> rev;
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0) {
            const bool is_match = sent[i - 1] == received[j - 1];
            if (dp[i - 1][j - 1] + (is_match ? 0U : 1U) == dp[i][j]) {
                rev.push_back({is_match ? EditOp::match : EditOp::substitution, i - 1, j - 1});
                --i;
                --j;
                continue;
            }
        }
        if (i > 0 && dp[i - 1][j] + 1U == dp[i][j]) {
            rev.push_back({EditOp::deletion, i - 1, 0});
            --i;
            continue;
        }
        rev.push_back({EditOp::insertion, 0, j - 1});
        --j;
    }
    out.steps.assign(rev.rbegin(), rev.rend());
    return out;
}

std::pair<Alignment, std::size_t> reference_align_end_free(const Trace& block,
                                                           const Trace& window) {
    const RefTable dp = reference_table(block, window);
    const std::size_t n = block.size();
    std::size_t best_j = 0;
    for (std::size_t j = 0; j <= window.size(); ++j) {
        const bool better =
            dp[n][j] < dp[n][best_j] ||
            (dp[n][j] == dp[n][best_j] &&
             std::llabs(static_cast<long long>(j) - static_cast<long long>(n)) <
                 std::llabs(static_cast<long long>(best_j) - static_cast<long long>(n)));
        if (better) best_j = j;
    }
    return {reference_trace_back(dp, block, window, best_j), best_j};
}

Alignment reference_align(const Trace& sent, const Trace& received) {
    return reference_trace_back(reference_table(sent, received), sent, received,
                                received.size());
}

std::vector<std::array<std::size_t, 3>> step_keys(const Alignment& a) {
    std::vector<std::array<std::size_t, 3>> keys;
    keys.reserve(a.steps.size());
    for (const EditStep& s : a.steps)
        keys.push_back({static_cast<std::size_t>(s.op), s.sent_index, s.received_index});
    return keys;
}

struct ChannelCase {
    double p_d, p_i, p_s;
};

// Ordinary, heavy-drift, all-deleted and insertion-flood channels.
constexpr std::array<ChannelCase, 8> kChannels = {{{0.0, 0.0, 0.0},
                                                   {0.1, 0.05, 0.02},
                                                   {0.33, 0.0, 0.0},
                                                   {0.1, 0.1, 0.1},
                                                   {0.5, 0.3, 0.2},
                                                   {1.0, 0.0, 0.0},
                                                   {0.0, 0.9, 0.0},
                                                   {0.05, 0.05, 0.5}}};

/// Draws one (block, window) pair: a block over a random alphabet (2..256
/// symbols, based at 0 or ending at UINT32_MAX), passed through a random
/// deletion/insertion/substitution channel, then kept whole, extended with
/// a random tail, cut short or replaced outright, with a sprinkle of
/// symbols the block never holds.
std::pair<Trace, Trace> random_case(ccap::util::Rng& rng, std::size_t n) {
    constexpr std::array<std::uint64_t, 6> kAlphabets = {2, 3, 4, 7, 16, 256};
    const std::uint64_t alphabet = kAlphabets[rng.uniform_below(kAlphabets.size())];
    const std::uint64_t base =
        rng.bernoulli(0.5) ? 0 : std::numeric_limits<std::uint32_t>::max() - alphabet + 1;
    const auto symbol = [&] {
        return static_cast<std::uint32_t>(base + rng.uniform_below(alphabet));
    };
    // Wraps past UINT32_MAX to small values when base is high: absent either way.
    const auto foreign = [&] {
        return static_cast<std::uint32_t>(base + alphabet + rng.uniform_below(4));
    };

    Trace block(n);
    for (auto& s : block) s = symbol();
    const ChannelCase ch = kChannels[rng.uniform_below(kChannels.size())];
    Trace window;
    for (std::uint32_t s : block) {
        while (rng.bernoulli(ch.p_i) && window.size() < 4 * n + 8) window.push_back(symbol());
        if (rng.bernoulli(ch.p_d)) continue;
        window.push_back(rng.bernoulli(ch.p_s) ? symbol() : s);
    }
    switch (rng.uniform_below(4)) {
        case 0: break;
        case 1:  // trailing stream, as estimate_params' slack window sees
            for (std::uint64_t k = rng.uniform_below(n / 2 + 33); k > 0; --k)
                window.push_back(symbol());
            break;
        case 2:  // cut short
            window.resize(rng.uniform_below(window.size() + 1));
            break;
        default:  // unrelated
            window.resize(rng.uniform_below(2 * n + 2));
            for (auto& s : window) s = symbol();
            break;
    }
    if (rng.bernoulli(0.3))
        for (auto& s : window)
            if (rng.bernoulli(0.1)) s = foreign();
    return {std::move(block), std::move(window)};
}

void expect_matches_reference(const Trace& block, const Trace& window) {
    const auto [want, want_end] = reference_align_end_free(block, window);
    const auto [got, got_end] = align_end_free(block, window);
    ASSERT_EQ(got.distance, want.distance);
    ASSERT_EQ(got_end, want_end);
    ASSERT_EQ(step_keys(got), step_keys(want));

    const Alignment want_global = reference_align(block, window);
    const Alignment got_global = align(block, window);
    ASSERT_EQ(got_global.distance, want_global.distance);
    ASSERT_EQ(step_keys(got_global), step_keys(want_global));
    ASSERT_EQ(edit_distance(block, window), want_global.distance);
}

TEST(AlignmentKernel, MatchesQuadraticReferenceAcrossWordBoundaries) {
    // Block lengths straddle the 64-row word boundaries of the column.
    constexpr std::array<std::size_t, 8> kLengths = {0, 1, 63, 64, 65, 127, 128, 129};
    ccap::util::Rng rng(20260417);
    for (int k = 0; k < 10'000; ++k) {
        const auto [block, window] = random_case(rng, kLengths[k % kLengths.size()]);
        ASSERT_NO_FATAL_FAILURE(expect_matches_reference(block, window))
            << "case " << k << ": block " << block.size() << ", window " << window.size();
    }
}

TEST(AlignmentKernel, MatchesQuadraticReferenceOnTrackShapedWindows) {
    // 2000-symbol blocks, the tracker's window length: 32 words per column.
    ccap::util::Rng rng(11);
    for (int k = 0; k < 24; ++k) {
        const auto [block, window] = random_case(rng, 2000);
        ASSERT_NO_FATAL_FAILURE(expect_matches_reference(block, window))
            << "case " << k << ": window " << window.size();
    }
}

TEST(AlignmentKernel, MatchesQuadraticReferencePastTheLeaseCap) {
    // A 3500-symbol block against a window of similar length needs a store
    // above the 4 MiB lease cap, so it runs on a local workspace; the small
    // cases after it run on the leased one again.
    ccap::util::Rng rng(12);
    for (int k = 0; k < 3; ++k) {
        Trace block(3500);
        const auto symbol = [&] { return static_cast<std::uint32_t>(rng.uniform_below(4)); };
        for (auto& s : block) s = symbol();
        Trace window;
        for (std::uint32_t s : block) {
            if (rng.bernoulli(0.05)) window.push_back(symbol());
            if (!rng.bernoulli(0.1)) window.push_back(s);
        }
        ASSERT_NO_FATAL_FAILURE(expect_matches_reference(block, window)) << "case " << k;
        const auto [small_block, small_window] = random_case(rng, 129);
        ASSERT_NO_FATAL_FAILURE(expect_matches_reference(small_block, small_window))
            << "small case " << k;
    }
}

// ---------------------------------------------------------------------------
// Cases where the band binds. An attempt at threshold k computes only the
// words of each column that a path of cost <= k can cross, starting at
// k = max(64, n - m) end-free and max(64, |n - m|) globally, and raises k
// until the distance fits. The cases above mostly have bands that span
// every word; these have bands of a few words out of 4..32, edges inside
// words, failed attempts and bands that widen to (nearly) every word.

/// First end-free threshold for a block of n symbols against m.
std::size_t end_free_threshold(std::size_t n, std::size_t m) {
    return std::max<std::size_t>(64, n > m ? n - m : 0);
}

/// The live stream `ccap track` and perfbench `track` read: 2000-symbol
/// windows of a binary channel at nominal P_d, under `profile`.
ccap::core::FaultStreamSource::Config stream_config(double p_d, double p_i,
                                                    const std::string& profile,
                                                    std::uint64_t windows,
                                                    std::uint64_t seed) {
    ccap::core::FaultStreamSource::Config sc;
    sc.params.p_d = p_d;
    sc.params.p_i = p_i;
    sc.params.bits_per_symbol = 1;
    if (!ccap::core::named_fault_profile(profile, sc.profile))
        throw std::logic_error("no fault profile " + profile);
    sc.window_len = 2000;
    sc.windows = windows;
    sc.seed = seed;
    return sc;
}

TEST(AlignmentKernel, MatchesQuadraticReferenceOnDriftPresetWindows) {
    // The perfbench `track` windows (drift preset, P_d 0.1, seed 1). The
    // preset only deletes, so the distance is n - m: the first end-free
    // attempt, rows j..j + (n - m) of column j, already holds it.
    ccap::core::FaultStreamSource source(stream_config(0.1, 0.0, "drift", 50, 1));
    while (const auto chunk = source.next()) {
        const Trace& block = chunk->sent;
        const Trace& window = chunk->received;
        ASSERT_LT(window.size(), block.size());
        ASSERT_EQ(align_end_free(block, window).first.distance, block.size() - window.size());
        ASSERT_NO_FATAL_FAILURE(expect_matches_reference(block, window))
            << "window " << chunk->index << ": " << window.size() << " received";
    }
}

TEST(AlignmentKernel, MatchesQuadraticReferenceWhenTheThresholdRises) {
    // P_d 0.1 with P_i 0.05: insertions push the distance past the first
    // threshold, so the first attempt fails and a wider band follows.
    ccap::core::FaultStreamSource source(stream_config(0.1, 0.05, "none", 8, 5));
    while (const auto chunk = source.next()) {
        const Trace& block = chunk->sent;
        const Trace& window = chunk->received;
        ASSERT_GT(align_end_free(block, window).first.distance,
                  end_free_threshold(block.size(), window.size()));
        ASSERT_NO_FATAL_FAILURE(expect_matches_reference(block, window))
            << "window " << chunk->index << ": " << window.size() << " received";
    }
}

TEST(AlignmentKernel, MatchesQuadraticReferenceWithBandEdgesInsideWords) {
    // |n - m| off the word size puts both band edges inside words; a few
    // substitutions on top make the first attempt fail by a little.
    ccap::util::Rng rng(13);
    for (const std::size_t n : {std::size_t{256}, std::size_t{1000}}) {
        for (const std::size_t shift : {1, 37, 65, 100, 131, 190}) {
            for (int variant = 0; variant < 4; ++variant) {
                Trace block(n);
                for (auto& s : block) s = static_cast<std::uint32_t>(rng.uniform_below(4));
                Trace window = block;
                if (variant < 2) {  // `shift` deletions, then substitutions
                    for (std::size_t k = 0; k < shift; ++k)
                        window.erase(window.begin() + static_cast<std::ptrdiff_t>(
                                                          rng.uniform_below(window.size())));
                    if (variant == 1)
                        for (int k = 0; k < 5; ++k)
                            window[rng.uniform_below(window.size())] ^= 1U;
                } else {  // `shift` insertions, then a random tail
                    for (std::size_t k = 0; k < shift; ++k) {
                        const auto at =
                            static_cast<std::ptrdiff_t>(rng.uniform_below(window.size() + 1));
                        window.insert(window.begin() + at,
                                      static_cast<std::uint32_t>(rng.uniform_below(4)));
                    }
                    if (variant == 3)
                        for (std::size_t k = 0; k < n / 2 + 32; ++k)
                            window.push_back(static_cast<std::uint32_t>(rng.uniform_below(4)));
                }
                ASSERT_NO_FATAL_FAILURE(expect_matches_reference(block, window))
                    << "n " << n << ", shift " << shift << ", variant " << variant;
            }
        }
    }
}

TEST(AlignmentKernel, MatchesQuadraticReferenceOnUnrelatedWindows) {
    // Unrelated traces: the distance is a large share of n, so the
    // threshold rises until the band spans most or all of every column.
    // m = 10 against 2000 is the full DP at the first threshold.
    ccap::util::Rng rng(14);
    for (const std::size_t n : {std::size_t{100}, std::size_t{500}, std::size_t{2000}}) {
        for (const std::size_t m : {std::size_t{10}, n / 2, n, n + n / 2 + 32}) {
            for (const std::uint64_t alphabet : {2, 4, 256}) {
                Trace block(n), window(m);
                const auto symbol = [&] {
                    return static_cast<std::uint32_t>(rng.uniform_below(alphabet));
                };
                for (auto& s : block) s = symbol();
                for (auto& s : window) s = symbol();
                ASSERT_NO_FATAL_FAILURE(expect_matches_reference(block, window))
                    << "n " << n << ", m " << m << ", alphabet " << alphabet;
            }
        }
    }
}

TEST(Alignment, ColumnStoreCapBoundsTheBandNotTheTrellis) {
    // The cap applies to the banded column store. 40000 symbols against
    // themselves with 40 substitutions is 1.6e9 trellis cells but a
    // band of three words per column, so it aligns.
    ccap::util::Rng rng(15);
    Trace sent(40'000);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    Trace received = sent;
    for (std::size_t i = 500; i < received.size(); i += 1000) received[i] ^= 1U;
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 40U);
    EXPECT_EQ(a.count(EditOp::substitution), 40U);
    EXPECT_EQ(align_end_free(sent, received).first.distance, 40U);

    // 300000 symbols with every tenth deleted: the first band is rows
    // j..j + 30000 of each column, about 2.5 GB of store. Both traceback
    // entry points refuse before carving anything.
    Trace block(300'000);
    for (auto& s : block) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    Trace window;
    for (std::size_t i = 0; i < block.size(); ++i)
        if (i % 10 != 0) window.push_back(block[i]);
    EXPECT_THROW((void)align_end_free(block, window), std::invalid_argument);
    EXPECT_THROW((void)align(block, window), std::invalid_argument);
}

TEST(Alignment, IdenticalTracesAllMatch) {
    const Trace t = {1, 0, 1, 1, 0};
    const Alignment a = align(t, t);
    EXPECT_EQ(a.distance, 0U);
    EXPECT_EQ(a.count(EditOp::match), t.size());
    EXPECT_EQ(a.to_string(), "MMMMM");
}

TEST(Alignment, EmptyTraces) {
    EXPECT_EQ(align({}, {}).distance, 0U);
    const Trace t = {1, 2, 3};
    const Alignment del = align(t, {});
    EXPECT_EQ(del.distance, 3U);
    EXPECT_EQ(del.count(EditOp::deletion), 3U);
    const Alignment ins = align({}, t);
    EXPECT_EQ(ins.count(EditOp::insertion), 3U);
}

TEST(Alignment, SingleDeletion) {
    const Trace sent = {1, 0, 1, 1};
    const Trace received = {1, 0, 1};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 1U);
    EXPECT_EQ(a.count(EditOp::deletion), 1U);
    EXPECT_EQ(a.count(EditOp::match), 3U);
}

TEST(Alignment, SingleInsertion) {
    const Trace sent = {1, 0, 1};
    const Trace received = {1, 0, 0, 1};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 1U);
    EXPECT_EQ(a.count(EditOp::insertion), 1U);
}

TEST(Alignment, SingleSubstitution) {
    const Trace sent = {5, 6, 7};
    const Trace received = {5, 9, 7};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 1U);
    EXPECT_EQ(a.count(EditOp::substitution), 1U);
    EXPECT_EQ(a.steps[1].sent_index, 1U);
    EXPECT_EQ(a.steps[1].received_index, 1U);
}

TEST(Alignment, PrefersMatchesOnTies) {
    // "ab" vs "ba" can be (sub, sub) or (ins, match, del); distance 2 either
    // way — the traceback preference keeps substitutions.
    const Trace sent = {1, 2};
    const Trace received = {2, 1};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 2U);
    EXPECT_EQ(a.to_string(), "SS");
}

TEST(Alignment, StepsReconstructReceived) {
    ccap::util::Rng rng(1);
    Trace sent(200);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    // Corrupt: delete ~10%, insert ~10%, substitute ~5%.
    Trace received;
    for (std::uint32_t s : sent) {
        if (rng.bernoulli(0.1)) continue;  // delete
        if (rng.bernoulli(0.1)) received.push_back(static_cast<std::uint32_t>(rng.uniform_below(4)));
        received.push_back(rng.bernoulli(0.05) ? static_cast<std::uint32_t>(rng.uniform_below(4))
                                               : s);
    }
    const Alignment a = align(sent, received);
    // Replaying the steps over `sent` must reproduce `received`.
    Trace rebuilt;
    for (const EditStep& step : a.steps) {
        switch (step.op) {
            case EditOp::match:
                rebuilt.push_back(sent[step.sent_index]);
                break;
            case EditOp::substitution:
            case EditOp::insertion:
                rebuilt.push_back(received[step.received_index]);
                break;
            case EditOp::deletion:
                break;
        }
    }
    EXPECT_EQ(rebuilt, received);
}

TEST(Alignment, DistanceMatchesLinearMemoryVersion) {
    ccap::util::Rng rng(2);
    for (int trial = 0; trial < 5; ++trial) {
        Trace a(60), b(70);
        for (auto& s : a) s = static_cast<std::uint32_t>(rng.uniform_below(3));
        for (auto& s : b) s = static_cast<std::uint32_t>(rng.uniform_below(3));
        EXPECT_EQ(align(a, b).distance, edit_distance(a, b));
    }
}

TEST(Alignment, TriangleInequality) {
    ccap::util::Rng rng(3);
    Trace a(40), b(40), c(40);
    for (auto& s : a) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    for (auto& s : b) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    for (auto& s : c) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    EXPECT_LE(edit_distance(a, c), edit_distance(a, b) + edit_distance(b, c));
}

TEST(Alignment, Symmetry) {
    const Trace a = {1, 2, 3, 4, 2};
    const Trace b = {1, 3, 4, 4};
    EXPECT_EQ(edit_distance(a, b), edit_distance(b, a));
}

TEST(Alignment, CountsSumToSteps) {
    const Trace sent = {1, 2, 3, 4, 5, 6};
    const Trace received = {1, 9, 3, 5, 6, 6};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.count(EditOp::match) + a.count(EditOp::substitution) +
                  a.count(EditOp::deletion) + a.count(EditOp::insertion),
              a.steps.size());
}

}  // namespace
