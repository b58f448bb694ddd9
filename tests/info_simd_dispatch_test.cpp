// Runtime SIMD dispatch (util/cpu_features.hpp, info/lattice_simd.hpp) and
// the per-path bit-identity matrix: every available kernel path — forced
// via force_simd_path(), the same hook the CCAP_SIMD env override uses —
// must reproduce the scalar LatticeEngine bit for bit at band_eps = 0 and
// keep each lane's certified slack containment in banded mode.
//
// tests/CMakeLists.txt additionally registers this binary's BatchLattice*
// and SimdDispatch* suites once per ISA under CCAP_SIMD=<path>, so CI
// exercises the env-variable resolution end to end (unavailable paths
// clamp down gracefully).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ccap/info/batch_lattice.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/info/lattice_simd.hpp"
#include "ccap/util/cpu_features.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::info;
using ccap::util::Rng;
using ccap::util::SimdPath;

using SymbolSpan = DriftHmm::SymbolSpan;

/// Restore the active path on scope exit so test order cannot leak a
/// forced path into unrelated tests.
struct PathGuard {
    SimdPath saved = ccap::util::active_simd_path();
    ~PathGuard() { ccap::util::force_simd_path(saved); }
};

std::vector<SimdPath> available_paths() {
    std::vector<SimdPath> out;
    for (SimdPath p : {SimdPath::scalar, SimdPath::neon, SimdPath::avx2, SimdPath::avx512})
        if (ccap::util::simd_path_available(p)) out.push_back(p);
    return out;
}

TEST(SimdDispatch, NamesAndWidthsRoundTrip) {
    for (SimdPath p : {SimdPath::scalar, SimdPath::neon, SimdPath::avx2, SimdPath::avx512}) {
        SimdPath parsed{};
        ASSERT_TRUE(ccap::util::parse_simd_path(ccap::util::simd_path_name(p), parsed));
        EXPECT_EQ(parsed, p);
    }
    SimdPath dummy = SimdPath::avx512;
    EXPECT_FALSE(ccap::util::parse_simd_path("sse9", dummy));
    EXPECT_EQ(dummy, SimdPath::avx512);  // untouched on failure
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::scalar), 1u);
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::neon), 2u);
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::avx2), 4u);
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::avx512), 8u);
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndBestIsOrdered) {
    EXPECT_TRUE(ccap::util::cpu_supports(SimdPath::scalar));
    EXPECT_TRUE(ccap::util::simd_path_available(SimdPath::scalar));
    const SimdPath best = ccap::util::best_simd_path();
    EXPECT_TRUE(ccap::util::simd_path_available(best));
    // Nothing above best may be available (best is the maximum).
    for (int p = static_cast<int>(best) + 1; p <= static_cast<int>(SimdPath::avx512); ++p)
        EXPECT_FALSE(ccap::util::simd_path_available(static_cast<SimdPath>(p)));
    EXPECT_FALSE(ccap::util::cpu_feature_string().empty());
}

TEST(SimdDispatch, ForceClampsDownNeverUp) {
    PathGuard guard;
    // Forcing the widest request lands on the best available path.
    EXPECT_EQ(ccap::util::force_simd_path(SimdPath::avx512), ccap::util::best_simd_path());
    // Forcing scalar always honours the request exactly.
    EXPECT_EQ(ccap::util::force_simd_path(SimdPath::scalar), SimdPath::scalar);
    EXPECT_EQ(ccap::util::active_simd_path(), SimdPath::scalar);
    // A forced path is what the kernel registry then serves.
    EXPECT_EQ(active_lane_kernels().path, SimdPath::scalar);
}

TEST(SimdDispatch, KernelTableMatchesPathMetadata) {
    for (SimdPath p : available_paths()) {
        const LaneKernels& k = lane_kernels_for(p);
        EXPECT_EQ(k.path, p);
        EXPECT_EQ(k.vector_doubles, ccap::util::simd_vector_doubles(p));
        EXPECT_STREQ(k.name, ccap::util::simd_path_name(p));
    }
    // Unavailable paths fall back to the best available at-or-below table,
    // never nullptr.
    const LaneKernels& k = lane_kernels_for(SimdPath::avx512);
    EXPECT_TRUE(ccap::util::simd_path_available(k.path));
}

// ---------------------------------------------------------------------------
// Dispatch matrix: batched entry points vs the scalar engine, per path.
// ---------------------------------------------------------------------------

struct MatrixLanes {
    std::vector<std::vector<std::uint8_t>> tx, rx;
};

MatrixLanes make_lanes(const DriftParams& params, std::size_t n, std::size_t batch,
                       std::uint64_t seed) {
    MatrixLanes lanes;
    Rng rng(seed);
    for (std::size_t b = 0; b < batch; ++b) {
        std::vector<std::uint8_t> tx(n);
        for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(params.alphabet));
        std::vector<std::uint8_t> rx = simulate_drift_channel(tx, params, rng);
        if (batch >= 3 && b == 1) rx.clear();  // dead-lane bookkeeping
        lanes.tx.push_back(std::move(tx));
        lanes.rx.push_back(std::move(rx));
    }
    return lanes;
}

std::vector<SymbolSpan> spans(const std::vector<std::vector<std::uint8_t>>& v) {
    std::vector<SymbolSpan> out;
    out.reserve(v.size());
    for (const auto& s : v) out.emplace_back(s);
    return out;
}

TEST(SimdDispatch, EveryPathBitIdenticalToScalarEngine) {
    PathGuard guard;
    const DriftParams params{0.12, 0.06, 0.03, 2, 10, 6};
    constexpr std::size_t kN = 48;
    // Batch sizes straddling every vector width, including ragged tails.
    for (const std::size_t batch : {1u, 3u, 5u, 9u, 16u}) {
        const MatrixLanes lanes = make_lanes(params, kN, batch, 7000 + batch);
        const auto tx = spans(lanes.tx);
        const auto rx = spans(lanes.rx);
        const DriftHmm hmm(params);

        // Scalar-engine reference evidences, computed once.
        std::vector<double> want(batch);
        {
            ScopedWorkspace ws;
            for (std::size_t l = 0; l < batch; ++l)
                want[l] = hmm.log2_likelihood(lanes.tx[l], lanes.rx[l], ws);
        }

        for (SimdPath p : available_paths()) {
            ASSERT_EQ(ccap::util::force_simd_path(p), p);
            ScopedWorkspace ws;
            const auto got = hmm.log2_likelihood_batch(tx, rx, ws);
            ASSERT_EQ(got.size(), batch);
            for (std::size_t l = 0; l < batch; ++l) {
                EXPECT_EQ(got[l].log2_evidence, want[l])
                    << "path=" << ccap::util::simd_path_name(p) << " batch=" << batch
                    << " lane=" << l;
                EXPECT_EQ(got[l].log2_slack, 0.0);
            }
        }
    }
}

TEST(SimdDispatch, EveryPathPerLaneParamsBitIdenticalToScalarEngine) {
    // The per-lane-parameter batch (parameter planes + *_pl kernels) on
    // every available path, against each lane's own scalar engine.
    PathGuard guard;
    constexpr std::size_t kN = 40;
    std::vector<DriftParams> ps;
    for (std::size_t b = 0; b < 9; ++b)
        ps.push_back(DriftParams{0.03 + 0.04 * static_cast<double>(b),
                                 0.01 + 0.01 * static_cast<double>(b % 3),
                                 (b % 2) ? 0.02 : 0.0, 2, 10, 6});
    MatrixLanes lanes;
    Rng rng(31337);
    for (const DriftParams& p : ps) {
        std::vector<std::uint8_t> tx(kN);
        for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(p.alphabet));
        lanes.rx.push_back(simulate_drift_channel(tx, p, rng));
        lanes.tx.push_back(std::move(tx));
    }
    const auto tx = spans(lanes.tx);
    const auto rx = spans(lanes.rx);

    std::vector<double> want(ps.size());
    {
        ScopedWorkspace ws;
        for (std::size_t l = 0; l < ps.size(); ++l)
            want[l] = DriftHmm(ps[l]).log2_likelihood(lanes.tx[l], lanes.rx[l], ws);
    }
    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        ScopedWorkspace ws;
        const auto got = log2_likelihood_batch_per_lane(ps, tx, rx, ws);
        ASSERT_EQ(got.size(), ps.size());
        for (std::size_t l = 0; l < ps.size(); ++l) {
            EXPECT_EQ(got[l].log2_evidence, want[l])
                << "path=" << ccap::util::simd_path_name(p) << " lane=" << l;
            EXPECT_EQ(got[l].log2_slack, 0.0);
        }
    }
}

TEST(SimdDispatch, EveryPathKeepsCertifiedSlackInBandedMode) {
    PathGuard guard;
    DriftParams exact{0.10, 0.05, 0.02, 2, 12, 6};
    DriftParams banded = exact;
    banded.band_eps = 1e-6;
    constexpr std::size_t kN = 64;
    constexpr std::size_t kBatch = 9;
    const MatrixLanes lanes = make_lanes(exact, kN, kBatch, 9001);
    const auto tx = spans(lanes.tx);
    const auto rx = spans(lanes.rx);
    const DriftHmm hmm_exact(exact);
    const DriftHmm hmm_banded(banded);

    std::vector<double> exact_ev(kBatch);
    {
        ScopedWorkspace ws;
        for (std::size_t l = 0; l < kBatch; ++l)
            exact_ev[l] = hmm_exact.log2_likelihood(lanes.tx[l], lanes.rx[l], ws);
    }

    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        ScopedWorkspace ws;
        const auto got = hmm_banded.log2_likelihood_batch(tx, rx, ws);
        for (std::size_t l = 0; l < kBatch; ++l) {
            if (!std::isfinite(exact_ev[l])) continue;  // lane dead in exact mode too
            ASSERT_TRUE(std::isfinite(got[l].log2_evidence) ||
                        got[l].log2_slack ==
                            std::numeric_limits<double>::infinity());
            if (!std::isfinite(got[l].log2_evidence)) continue;
            // banded <= exact <= banded + slack, per lane, on every path.
            EXPECT_LE(got[l].log2_evidence, exact_ev[l])
                << "path=" << ccap::util::simd_path_name(p) << " lane=" << l;
            EXPECT_GE(got[l].log2_evidence + got[l].log2_slack, exact_ev[l])
                << "path=" << ccap::util::simd_path_name(p) << " lane=" << l;
        }
    }
}

// ---------------------------------------------------------------------------
// Ragged tails: every kernel, every path, exact-size buffers.
// ---------------------------------------------------------------------------

/// Bit patterns of a row, so -0.0 and +0.0 compare unequal.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
    std::vector<std::uint64_t> out(v.size());
    std::transform(v.begin(), v.end(), out.begin(),
                   [](double x) { return std::bit_cast<std::uint64_t>(x); });
    return out;
}

// Exercises every LaneKernels entry on lane counts 1 .. 2W+1 for the widest
// vector W (so every path sees sub-width, exact and ragged rows), and every
// counted kernel at row/column counts 0 .. 2K+1 for the column-interleave
// width K, with buffers allocated to exactly the touched size — a kernel
// that read or wrote one lane past L, or one row past its count, would trip
// ASan in the sanitizer tier-1 stage. Results must be bitwise those of the
// scalar reference kernels: compared as bit patterns, since == cannot tell
// -0.0 from +0.0.
TEST(SimdDispatch, RaggedTailKernelsBitIdenticalToScalar) {
    const LaneKernels& ref = *lane_kernels_scalar();
    Rng rng(424242);
    constexpr std::size_t kRuns = 3;
    constexpr std::size_t kMaxLanes = 2 * 8 + 1;  // 2W + 1 for AVX-512
    constexpr std::size_t kMaxCount = 2 * 4 + 1;  // 2K + 1 for 4 interleaved columns
    auto fill = [&rng](std::size_t n) {
        std::vector<double> v(n);
        for (auto& x : v) x = 0.25 + rng.uniform();  // positive: safe divisor
        return v;
    };
    auto fill_sel = [&rng](std::size_t n) {
        std::vector<std::uint8_t> v(n);
        for (auto& s : v) s = rng.bernoulli(0.5) ? 1 : 0;
        return v;
    };
    for (SimdPath p : available_paths()) {
        const LaneKernels& k = lane_kernels_for(p);
        for (std::size_t L = 1; L <= kMaxLanes; ++L) {
            SCOPED_TRACE(std::string("path=") + k.name + " L=" + std::to_string(L));
            const std::vector<double> src = fill(kRuns * L);
            const std::vector<double> e = fill(kRuns * L);
            const std::vector<double> norm = fill(L);
            const std::vector<std::uint8_t> sel = fill_sel(L);
            std::vector<double> dw = fill(kRuns), tw = fill(kRuns);

            auto a = fill(kRuns * L);
            auto b = a;
            k.axpy(a.data(), src.data(), 1.75, L);
            ref.axpy(b.data(), src.data(), 1.75, L);
            EXPECT_EQ(bits(a), bits(b));

            k.fma_weighted(a.data(), src.data(), dw[0], tw[0], e.data(), L);
            ref.fma_weighted(b.data(), src.data(), dw[0], tw[0], e.data(), L);
            EXPECT_EQ(bits(a), bits(b));

            // Signed zeros: a kernel that rebuilt a scalar weight as
            // `0.0 + w` would turn -0.0 into +0.0 in these lanes.
            k.select_const(a.data(), sel.data(), -0.0, 0.875, 1, L);
            ref.select_const(b.data(), sel.data(), -0.0, 0.875, 1, L);
            EXPECT_EQ(bits(a), bits(b));
            for (std::size_t l = 0; l < L; l += 2) a[l] = b[l] = -0.0;
            k.axpy(a.data(), src.data(), -0.0, L);
            ref.axpy(b.data(), src.data(), -0.0, L);
            EXPECT_EQ(bits(a), bits(b));

            k.fma_run(a.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            ref.fma_run(b.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            EXPECT_EQ(bits(a), bits(b));

            k.fma_acc_run(a.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            ref.fma_acc_run(b.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            EXPECT_EQ(bits(a), bits(b));

            // Per-lane-weight variants (the parameter-plane engine mode):
            // dw/tw are [run][lane] planes instead of per-run scalars.
            const std::vector<double> dwp = fill(kRuns * L), twp = fill(kRuns * L);

            k.axpy_lanes(a.data(), src.data(), norm.data(), L);
            ref.axpy_lanes(b.data(), src.data(), norm.data(), L);
            EXPECT_EQ(bits(a), bits(b));

            k.fma_acc_run_pl(a.data(), src.data(), dwp.data(), twp.data(), e.data(),
                             kRuns, L);
            ref.fma_acc_run_pl(b.data(), src.data(), dwp.data(), twp.data(), e.data(),
                               kRuns, L);
            EXPECT_EQ(bits(a), bits(b));

            // Counted kernels: `count` rows (columns) of stride L, every
            // buffer exactly as long as the kernel may touch.
            for (std::size_t count = 0; count <= kMaxCount; ++count) {
                SCOPED_TRACE("count=" + std::to_string(count));
                const std::size_t cells = count * L;
                const std::vector<double> rows = fill(cells);
                const std::vector<std::uint8_t> rsel = fill_sel(cells);

                auto ra = fill(L);
                auto rb = ra;
                k.accumulate(ra.data(), rows.data(), count, L);
                ref.accumulate(rb.data(), rows.data(), count, L);
                EXPECT_EQ(bits(ra), bits(rb));

                k.maximum(ra.data(), rows.data(), count, L);
                ref.maximum(rb.data(), rows.data(), count, L);
                EXPECT_EQ(bits(ra), bits(rb));

                auto da = fill(cells);
                auto db = da;
                k.divide(da.data(), norm.data(), count, L);
                ref.divide(db.data(), norm.data(), count, L);
                EXPECT_EQ(bits(da), bits(db));

                k.select_const(da.data(), rsel.data(), 0.125, -0.0, count, L);
                ref.select_const(db.data(), rsel.data(), 0.125, -0.0, count, L);
                EXPECT_EQ(bits(da), bits(db));

                k.select_lanes(da.data(), rsel.data(), e.data(), src.data(), count, L);
                ref.select_lanes(db.data(), rsel.data(), e.data(), src.data(), count, L);
                EXPECT_EQ(bits(da), bits(db));

                // fma_dest_run walks the weight arrays backward from the
                // given origin: pass the last element so indices
                // [-cnt+1, 0] stay in bounds. Cover cnt = 0 (pure-deletion
                // only) through kRuns, with and without the src_del term.
                // Column c reads source planes [c, c + cnt) and emission
                // and deletion planes c.
                for (std::size_t cnt : {std::size_t{0}, std::size_t{1}, kRuns}) {
                    const std::size_t planes = count == 0 ? 0 : count - 1 + cnt;
                    const std::vector<double> dsrc = fill(planes * L);
                    const std::vector<double> de = fill(cells);
                    std::vector<double> ddel = fill(cells);
                    for (std::size_t i = 0; i < cells; i += 3) ddel[i] = -0.0;
                    for (const bool with_del : {false, true}) {
                        if (cnt == 0 && !with_del) continue;  // all-zero output either way
                        const double* del = with_del ? ddel.data() : nullptr;
                        std::vector<double> oa(cells), ob(cells);
                        k.fma_dest_run(oa.data(), dsrc.data(), dw.data() + (kRuns - 1),
                                       tw.data() + (kRuns - 1), de.data(), del, 0.375, cnt,
                                       count, L);
                        ref.fma_dest_run(ob.data(), dsrc.data(), dw.data() + (kRuns - 1),
                                         tw.data() + (kRuns - 1), de.data(), del, 0.375, cnt,
                                         count, L);
                        EXPECT_EQ(bits(oa), bits(ob)) << "cnt=" << cnt << " del=" << with_del;

                        // fma_dest_run_pl walks the weight planes backward
                        // by whole planes from the given origin: pass the
                        // last plane so offsets [-(cnt-1)*L, 0] stay in
                        // bounds.
                        k.fma_dest_run_pl(oa.data(), dsrc.data(), dwp.data() + (kRuns - 1) * L,
                                          twp.data() + (kRuns - 1) * L, de.data(), del,
                                          norm.data(), cnt, count, L);
                        ref.fma_dest_run_pl(ob.data(), dsrc.data(),
                                            dwp.data() + (kRuns - 1) * L,
                                            twp.data() + (kRuns - 1) * L, de.data(), del,
                                            norm.data(), cnt, count, L);
                        EXPECT_EQ(bits(oa), bits(ob))
                            << "pl cnt=" << cnt << " del=" << with_del;
                    }
                }
            }
        }
    }
}

// The forward pass splits each row into edge columns (single-column calls)
// and one interior range (one counted call with interleaved accumulators).
// Run the engine directly on a small lattice whose rows hit every shape —
// a destination below the previous band (clo < plo, cnt = 0), the short
// runs near plo, destinations above the previous band (d > phi, no
// deletion source), rows with and without an interior range, and rows
// clamped at +-max_drift — and compare every alpha cell and scale of every
// lane with the scalar LatticeEngine, as bit patterns, on every path and in
// both the shared-table and the per-lane-parameter modes.
TEST(SimdDispatch, EngineRowsHitEveryColumnEdgeBitIdentical) {
    PathGuard guard;
    constexpr std::size_t kN = 30;
    const DriftParams params{0.10, 0.08, 0.02, 2, 7, 4};
    const DriftHmm hmm(params);
    const int run = params.max_insert_run;
    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        for (const std::size_t batch : {1u, 3u, 8u, 9u, 17u}) {
            for (const bool per_lane : {false, true}) {
                SCOPED_TRACE(testing::Message() << "path=" << ccap::util::simd_path_name(p)
                                                << " batch=" << batch
                                                << " per_lane=" << per_lane);
                MatrixLanes lanes = make_lanes(params, kN, batch, 6100 + batch);
                // Ragged lengths: one lane cut to the reachable boundary
                // (masked high cells), one padded long (the union window's
                // top); make_lanes already left lane 1 empty (unreachable).
                if (batch >= 3) lanes.rx[2].resize(kN - params.max_drift);
                if (batch >= 8) lanes.rx[5].resize(kN + 12, 1);
                std::vector<DriftParams> ps(batch, params);
                for (std::size_t b = 0; b < batch; ++b)
                    ps[b].p_d = 0.06 + 0.02 * static_cast<double>(b % 3);
                const auto rx = spans(lanes.rx);
                ScopedWorkspace ws;
                BatchLatticeEngine eng = per_lane ? BatchLatticeEngine(ps, rx, kN, ws.get())
                                                  : BatchLatticeEngine(params, hmm.tables(),
                                                                       rx, kN, ws.get());
                const std::size_t Lp = eng.lane_stride();
                eng.forward(
                    [&](double* ed, std::size_t j, const std::uint8_t* rxr, std::size_t cols) {
                        for (std::size_t c = 0; c < cols; ++c)
                            for (std::size_t l = 0; l < Lp; ++l) {
                                const std::uint8_t r = rxr[c * Lp + l];
                                const std::uint8_t s = l < batch ? lanes.tx[l][j] : 0;
                                ed[c * Lp + l] = per_lane ? eng.emit_lane(l, r, s)
                                                          : eng.emit(r, s);
                            }
                    },
                    0.0);

                // Row shapes actually swept (union band of row j-1 -> row j).
                bool below = false, above = false, interior = false, flush = false;
                for (std::size_t j = 1; j <= kN && eng.band_lo(j) <= eng.band_hi(j); ++j) {
                    const int plo = eng.band_lo(j - 1), phi = eng.band_hi(j - 1);
                    below |= eng.band_lo(j) < plo;
                    above |= eng.band_hi(j) > phi;
                    interior |= std::min(eng.band_hi(j), phi - 1) >=
                                std::max(eng.band_lo(j), plo - 1 + run);
                    flush |= eng.band_lo(j) == -params.max_drift && plo == -params.max_drift;
                }
                EXPECT_TRUE(below && above && interior && flush);

                for (std::size_t l = 0; l < batch; ++l) {
                    ScopedWorkspace ref_ws;
                    const DriftHmm own(per_lane ? ps[l] : params);
                    LatticeEngine ref(per_lane ? ps[l] : params, own.tables(), lanes.rx[l], kN,
                                      ref_ws.get());
                    ref.forward(
                        [&](std::size_t j, std::uint8_t r) {
                            return ref.emit(r, lanes.tx[l][j]);
                        },
                        0.0);
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(eng.evidence(l).log2_evidence),
                              std::bit_cast<std::uint64_t>(ref.evidence().log2_evidence))
                        << "lane " << l;
                    // An unreachable lane's scalar pass stops at row 1 while
                    // its batch rows run on until the mass dies; only the
                    // evidence ({-inf, 0}) is common to both.
                    if (final_drift_unreachable(kN, lanes.rx[l].size(), params.max_drift))
                        continue;
                    for (std::size_t j = 0; j <= kN; ++j) {
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(eng.alpha_scale(j, l)),
                                  std::bit_cast<std::uint64_t>(ref.alpha_scale(j)))
                            << "lane " << l << " row " << j;
                        if (ref.band_lo(j) > ref.band_hi(j)) continue;  // lane dead here
                        for (int d = eng.band_lo(j); d <= eng.band_hi(j); ++d) {
                            const bool in = d >= ref.band_lo(j) && d <= ref.band_hi(j);
                            const double want = in ? ref.alpha_row(j)[ref.idx(d)] : 0.0;
                            const double got = eng.alpha_row(j)[eng.idx(d) * Lp + l];
                            ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                                      std::bit_cast<std::uint64_t>(want))
                                << "lane " << l << " row " << j << " drift " << d;
                        }
                    }
                }
            }
        }
    }
}

// Sub-width batches must run unpadded (lane_stride == lanes): the in-kernel
// tails make the dead padding lanes unnecessary, and the engine output must
// still match the scalar engine bit for bit.
TEST(SimdDispatch, TinyBatchesRunUnpaddedAndBitIdentical) {
    PathGuard guard;
    const DriftParams params{0.10, 0.05, 0.02, 2, 8, 5};
    const DriftHmm hmm(params);
    constexpr std::size_t kN = 40;
    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        const std::size_t W = ccap::util::simd_vector_doubles(p);
        for (std::size_t batch = 2; batch < W; ++batch) {
            const MatrixLanes lanes = make_lanes(params, kN, batch, 5100 + batch);
            const auto rx = spans(lanes.rx);
            ScopedWorkspace ws;
            BatchLatticeEngine eng(params, hmm.tables(), rx, kN, ws.get());
            // The whole point of the in-kernel tails: no dead padding lanes.
            EXPECT_EQ(eng.lane_stride(), batch)
                << "path=" << ccap::util::simd_path_name(p);
            const auto got = hmm.log2_likelihood_batch(spans(lanes.tx), rx, ws);
            for (std::size_t l = 0; l < batch; ++l) {
                ScopedWorkspace ref_ws;
                EXPECT_EQ(got[l].log2_evidence,
                          hmm.log2_likelihood(lanes.tx[l], lanes.rx[l], ref_ws))
                    << "path=" << ccap::util::simd_path_name(p) << " batch=" << batch
                    << " lane=" << l;
            }
        }
    }
}

TEST(SimdDispatch, ResolvedMcBatchRespectsTilingPolicyAndVectorWidth) {
    PathGuard guard;
    const DriftParams params{0.05, 0.03, 0.01, 2, 16, 8};
    McOptions opts;
    opts.num_blocks = 64;

    opts.batch = 12;
    EXPECT_EQ(resolved_mc_batch(opts, params), 12u);  // explicit batch honoured
    opts.batch = 0;
    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        const std::size_t b = resolved_mc_batch(opts, params);
        const std::size_t W = ccap::util::simd_vector_doubles(p);
        EXPECT_GE(b, 1u);
        EXPECT_EQ(b % W, 0u) << "auto tile not a multiple of the vector width, path="
                             << ccap::util::simd_path_name(p);
        EXPECT_LE(b, opts.num_blocks);
    }
}

}  // namespace
