#include "ccap/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace {

using ccap::util::Rng;

TEST(Rng, DeterministicForSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Rng, ReseedRestartsStream) {
    Rng a(77);
    const std::uint64_t first = a.next();
    (void)a.next();
    a.reseed(77);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    Rng rng(6);
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformBelowRespectsBound) {
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_below(bound), bound);
    }
}

TEST(Rng, UniformBelowOneAlwaysZero) {
    Rng rng(8);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_below(1), 0U);
}

TEST(Rng, UniformBelowCoversAllValues) {
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(7));
    EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, UniformIntInclusiveRange) {
    Rng rng(10);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.uniform_int(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency) {
    Rng rng(12);
    int hits = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
    Rng rng(13);
    const std::array<double, 3> weights = {1.0, 0.0, 3.0};
    std::array<int, 3> counts{};
    constexpr int kN = 40000;
    for (int i = 0; i < kN; ++i) {
        const std::size_t k = rng.categorical(weights);
        ASSERT_LT(k, weights.size());
        ++counts[k];
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.02);
}

TEST(Rng, CategoricalAllZeroFallsBackToUniform) {
    // Degenerate all-zero weights must still give an in-range, unbiased
    // index (the old out-of-range sentinel forced biased clamps on callers).
    Rng rng(14);
    const std::array<double, 4> weights = {0.0, 0.0, 0.0, 0.0};
    std::array<int, 4> counts{};
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const std::size_t k = rng.categorical(weights);
        ASSERT_LT(k, weights.size());
        ++counts[k];
    }
    for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / kN, 0.25, 0.02);
}

TEST(Rng, CategoricalEmpty) {
    Rng rng(15);
    EXPECT_EQ(rng.categorical({}), 0U);
}

TEST(Rng, GeometricMeanMatches) {
    Rng rng(16);
    const double p = 0.25;
    double sum = 0.0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.geometric(p));
    // Mean failures before success = (1-p)/p = 3.
    EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, GeometricCertainSuccessIsZero) {
    Rng rng(17);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0U);
}

TEST(Rng, GeometricMatchesInversionFormula) {
    // In range, the draws are exactly floor(log(U)/log1p(-p)) on the stream.
    for (const double p : {0.9, 0.25, 1e-3, 1e-9, 1e-12, 1e-17}) {
        Rng rng(22);
        Rng ref(22);
        for (int i = 0; i < 1000; ++i) {
            const double u = 1.0 - ref.uniform();
            const auto expect =
                static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
            ASSERT_EQ(rng.geometric(p), expect) << "p=" << p << " draw " << i;
        }
    }
}

TEST(Rng, GeometricSaturatesPastTwoToThe64) {
    // log(U)/log1p(-p) reaches ~1e300 here; the conversion must saturate to
    // the "never" value p <= 0 returns, not overflow. U = 1 (a 2^-53 event)
    // is the only draw that maps to 0.
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.geometric(1e-300), ~0ULL);
    EXPECT_EQ(rng.geometric(0.0), ~0ULL);
    EXPECT_EQ(rng.geometric(-1.0), ~0ULL);
    EXPECT_EQ(rng.geometric(std::nan("")), ~0ULL);
}

TEST(Rng, GeometricSamplerMatchesRngGeometric) {
    for (const double p : {1.0, 0.5, 0.08125, 1e-6, 1e-12, 1e-300, 0.0}) {
        const ccap::util::Geometric geometric(p);
        Rng a(24);
        Rng b(24);
        for (int i = 0; i < 500; ++i) ASSERT_EQ(geometric(a), b.geometric(p)) << "p=" << p;
        EXPECT_EQ(a.next(), b.next()) << "streams diverged at p=" << p;
    }
}

TEST(Rng, NormalMoments) {
    Rng rng(18);
    double sum = 0.0, sq = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / kN, 0.0, 0.02);
    EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(19);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyMoves) {
    Rng rng(20);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i) v[i] = i;
    const auto before = v;
    rng.shuffle(v);
    EXPECT_NE(v, before);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng a(21);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Rng, SplitMix64KnownValue) {
    // Reference value from the SplitMix64 definition with state 0.
    std::uint64_t state = 0;
    EXPECT_EQ(ccap::util::splitmix64(state), 0xE220A8397B1DCDAFULL);
}

}  // namespace
