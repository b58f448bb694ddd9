// DriftHmm batched entry points over BatchLatticeEngine (batch_lattice.hpp).
//
// Each operation packs its lanes into the workspace's SoA arenas, runs the
// lockstep passes, and unpacks per-lane results. The combine stages of
// posteriors/expected_events mirror the scalar loops with strided lane
// reads — same term sequence, so bit-identity at band_eps = 0 follows from
// the engine's row identity.
#include "ccap/info/batch_lattice.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ccap::info {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

void check_symbols(std::span<const std::uint8_t> seq, unsigned alphabet, const char* what) {
    for (std::uint8_t s : seq)
        if (s >= alphabet)
            throw std::out_of_range(std::string("DriftHmm: ") + what +
                                    " symbol out of alphabet");
}

/// Lockstep shape check: every lane must share one transmitted length.
std::size_t lockstep_tx_len(std::span<const DriftHmm::SymbolSpan> transmitted,
                            const char* who) {
    const std::size_t n = transmitted.empty() ? 0 : transmitted[0].size();
    for (const auto& t : transmitted)
        if (t.size() != n)
            throw std::invalid_argument(std::string(who) +
                                        ": lockstep lanes need equal transmitted lengths");
    return n;
}

/// Emission-plane fill for tx-conditioned operations: the value at lane l
/// is emit_tab[rxr[l] * alphabet + tx_l], a gather no vector path can
/// touch. The binary-alphabet fast path (every Monte-Carlo and watermark
/// channel) caches two per-row lane vectors — the emissions a lane would
/// produce for received 0 and received 1 — and the per-drift fill becomes
/// the engine's dispatched select kernels. Every selected value is the
/// exact table entry the gather would have loaded (the scalar reference
/// select and the vector blends pick the same bits), so all paths are
/// bit-identical. Loops run over the padded lane stride; selector pads are
/// valid symbol 0, so pad entries stay finite. Each call fills `cols`
/// consecutive drift planes of one row (BatchLatticeEngine::forward's
/// emit_plane contract): the received rows advance by the lane stride, the
/// transmitted row stays fixed.
struct TxEmitPlane {
    const DriftTables* tables;
    unsigned alphabet;
    const std::uint8_t* tx;  // SoA pack: symbol of lane l at row j is tx[j * lanes + l]
    std::size_t lanes;       // padded lane stride (BatchLatticeEngine::lane_stride())
    std::span<double> e01;  // 2 * lanes scratch: emissions for received 0 | received 1
    const LaneKernels* kernels;
    std::size_t cached_row = static_cast<std::size_t>(-1);

    void operator()(double* __restrict ed, std::size_t j, const std::uint8_t* __restrict rxr,
                    std::size_t cols) {
        const std::size_t L = lanes;
        const std::uint8_t* txr = tx + j * L;
        const double* tab = tables->emit_tab.data();
        if (alphabet == 2) {
            const double* e0 = e01.data();
            const double* e1 = e01.data() + L;
            if (j != cached_row) {
                kernels->select_const(e01.data(), txr, tab[0], tab[1], 1, L);
                kernels->select_const(e01.data() + L, txr, tab[2], tab[3], 1, L);
                cached_row = j;
            }
            kernels->select_lanes(ed, rxr, e0, e1, cols, L);
        } else {
            for (std::size_t c = 0; c < cols; ++c)
                for (std::size_t l = 0; l < L; ++l)
                    ed[c * L + l] =
                        tab[static_cast<std::size_t>(rxr[c * L + l]) * alphabet + txr[l]];
        }
    }
};

/// Emission-plane fill for prior-weighted operations: the factor depends
/// only on (row, received symbol), so each row costs alphabet dot
/// products (bit-matching LatticeEngine::emit_prior) and the per-drift
/// fill is a tiny-table lookup — a two-scalar select when binary.
struct PriorEmitPlane {
    const util::Matrix* priors;
    const DriftTables* tables;
    unsigned alphabet;
    std::size_t lanes;  // padded lane stride (BatchLatticeEngine::lane_stride())
    std::span<double> vals;
    const LaneKernels* kernels;
    std::size_t cached_row = static_cast<std::size_t>(-1);

    void operator()(double* __restrict ed, std::size_t j, const std::uint8_t* __restrict rxr,
                    std::size_t cols) {
        if (j != cached_row) {
            const auto q = priors->row(j);
            for (unsigned rr = 0; rr < alphabet; ++rr) {
                const double* row =
                    tables->emit_tab.data() + static_cast<std::size_t>(rr) * alphabet;
                double e = 0.0;
                for (std::size_t s = 0; s < q.size(); ++s) e += q[s] * row[s];
                vals[rr] = e;
            }
            cached_row = j;
        }
        if (alphabet == 2) {
            // Same exact-table-entry select as TxEmitPlane.
            kernels->select_const(ed, rxr, vals[0], vals[1], cols, lanes);
        } else {
            for (std::size_t i = 0; i < cols * lanes; ++i) ed[i] = vals[rxr[i]];
        }
    }
};

/// Per-lane-parameter variant of TxEmitPlane: the emission table differs by
/// lane, so the two cached per-row lane vectors select between the engine's
/// SoA emission-table planes instead of two scalar entries. Every selected
/// value is the exact per-lane table entry a scalar gather would load, so
/// all SIMD paths stay bit-identical. Padding columns of the planes
/// replicate lane 0 and the selector pads are valid symbol 0, so pad
/// entries stay finite.
struct TxEmitPlanePerLane {
    const BatchLatticeEngine* eng;
    unsigned alphabet;
    const std::uint8_t* tx;  // SoA pack: symbol of lane l at row j is tx[j * lanes + l]
    std::size_t lanes;       // padded lane stride (BatchLatticeEngine::lane_stride())
    std::span<double> e01;   // 2 * lanes scratch: emissions for received 0 | received 1
    const LaneKernels* kernels;
    std::size_t cached_row = static_cast<std::size_t>(-1);

    void operator()(double* __restrict ed, std::size_t j, const std::uint8_t* __restrict rxr,
                    std::size_t cols) {
        const std::size_t L = lanes;
        const std::uint8_t* txr = tx + j * L;
        if (alphabet == 2) {
            const double* e0 = e01.data();
            const double* e1 = e01.data() + L;
            if (j != cached_row) {
                kernels->select_lanes(e01.data(), txr, eng->etab_plane(0, 0),
                                      eng->etab_plane(0, 1), 1, L);
                kernels->select_lanes(e01.data() + L, txr, eng->etab_plane(1, 0),
                                      eng->etab_plane(1, 1), 1, L);
                cached_row = j;
            }
            kernels->select_lanes(ed, rxr, e0, e1, cols, L);
        } else {
            for (std::size_t c = 0; c < cols; ++c)
                for (std::size_t l = 0; l < L; ++l)
                    ed[c * L + l] = eng->emit_lane(l, rxr[c * L + l], txr[l]);
        }
    }
};

/// Per-lane-parameter variant of PriorEmitPlane: each row costs alphabet
/// per-lane dot products accumulated with the axpy kernel — the multiply
/// q[s] * etab[r][s] matches LatticeEngine::emit_prior bit for bit (IEEE
/// multiplication commutes, adds run in the same s-ascending order).
struct PriorEmitPlanePerLane {
    const util::Matrix* priors;
    const BatchLatticeEngine* eng;
    unsigned alphabet;
    std::size_t lanes;       // padded lane stride
    std::span<double> vals;  // alphabet * lanes plane: row r's per-lane factors
    const LaneKernels* kernels;
    std::size_t cached_row = static_cast<std::size_t>(-1);

    void operator()(double* __restrict ed, std::size_t j, const std::uint8_t* __restrict rxr,
                    std::size_t cols) {
        const std::size_t L = lanes;
        if (j != cached_row) {
            const auto q = priors->row(j);
            for (unsigned rr = 0; rr < alphabet; ++rr) {
                double* vr = vals.data() + static_cast<std::size_t>(rr) * L;
                std::fill(vr, vr + L, 0.0);
                for (std::size_t s = 0; s < q.size(); ++s)
                    kernels->axpy(vr, eng->etab_plane(static_cast<std::uint8_t>(rr),
                                                      static_cast<std::uint8_t>(s)),
                                  q[s], L);
            }
            cached_row = j;
        }
        if (alphabet == 2) {
            kernels->select_lanes(ed, rxr, vals.data(), vals.data() + L, cols, L);
        } else {
            for (std::size_t c = 0; c < cols; ++c)
                for (std::size_t l = 0; l < L; ++l)
                    ed[c * L + l] = vals[static_cast<std::size_t>(rxr[c * L + l]) * L + l];
        }
    }
};

void check_priors(const util::Matrix& priors, unsigned alphabet, const char* who) {
    if (priors.cols() != alphabet)
        throw std::invalid_argument(std::string(who) + ": priors cols != alphabet");
    if (!priors.is_row_stochastic(1e-6) && priors.rows() > 0)
        throw std::invalid_argument(std::string(who) + ": priors not row-stochastic");
}

}  // namespace

std::vector<BandedEvidence> DriftHmm::log2_likelihood_batch(
    std::span<const SymbolSpan> transmitted, std::span<const SymbolSpan> received,
    LatticeWorkspace& ws) const {
    if (transmitted.size() != received.size())
        throw std::invalid_argument("DriftHmm::log2_likelihood_batch: lane count mismatch");
    const std::size_t L = transmitted.size();
    std::vector<BandedEvidence> out(L);
    if (L == 0) return out;
    const std::size_t n = lockstep_tx_len(transmitted, "DriftHmm::log2_likelihood_batch");
    for (std::size_t l = 0; l < L; ++l) {
        check_symbols(transmitted[l], params_.alphabet, "transmitted");
        check_symbols(received[l], params_.alphabet, "received");
    }

    BatchLatticeEngine eng(params_, *tables_, received, n, ws);
    const std::size_t Lp = eng.lane_stride();
    const std::span<std::uint8_t> tx = ws.tx_bytes(std::max<std::size_t>(1, n * Lp));
    std::fill(tx.begin(), tx.end(), 0);  // pad lanes carry valid symbol 0
    for (std::size_t l = 0; l < L; ++l)
        for (std::size_t j = 0; j < n; ++j) tx[j * Lp + l] = transmitted[l][j];
    TxEmitPlane emit_pt{tables_.get(), params_.alphabet, tx.data(),
                        Lp,            ws.scratch2(2 * Lp), &eng.kernels()};
    eng.forward(emit_pt, params_.band_eps);
    for (std::size_t l = 0; l < L; ++l) out[l] = eng.evidence(l);
    return out;
}

std::vector<BandedEvidence> DriftHmm::log2_prior_marginal_batch(
    const util::Matrix& priors, std::span<const SymbolSpan> received,
    LatticeWorkspace& ws) const {
    check_priors(priors, params_.alphabet, "DriftHmm::log2_prior_marginal_batch");
    const std::size_t L = received.size();
    std::vector<BandedEvidence> out(L);
    if (L == 0) return out;
    for (std::size_t l = 0; l < L; ++l)
        check_symbols(received[l], params_.alphabet, "received");

    BatchLatticeEngine eng(params_, *tables_, received, priors.rows(), ws);
    PriorEmitPlane emit_p{&priors,
                          tables_.get(),
                          params_.alphabet,
                          eng.lane_stride(),
                          ws.scratch3(params_.alphabet),
                          &eng.kernels()};
    eng.forward(emit_p, params_.band_eps);
    for (std::size_t l = 0; l < L; ++l) out[l] = eng.evidence(l);
    return out;
}

std::vector<util::Matrix> DriftHmm::posteriors_batch(
    const util::Matrix& priors, std::span<const SymbolSpan> received, LatticeWorkspace& ws,
    std::vector<double>* log2_evidence) const {
    check_priors(priors, params_.alphabet, "DriftHmm::posteriors_batch");
    const std::size_t L = received.size();
    const std::size_t n = priors.rows();
    const unsigned m_alpha = params_.alphabet;
    for (std::size_t l = 0; l < L; ++l)
        check_symbols(received[l], m_alpha, "received");

    std::vector<util::Matrix> out;
    out.reserve(L);
    for (std::size_t l = 0; l < L; ++l) out.emplace_back(n, m_alpha);
    if (log2_evidence != nullptr) log2_evidence->assign(L, kNegInf);
    if (L == 0) return out;

    BatchLatticeEngine eng(params_, *tables_, received, n, ws);
    PriorEmitPlane emit_p{&priors,        tables_.get(),       m_alpha,
                          eng.lane_stride(), ws.scratch3(m_alpha), &eng.kernels()};
    eng.forward(emit_p, params_.band_eps);
    eng.backward(emit_p);

    if (log2_evidence != nullptr)
        for (std::size_t l = 0; l < L; ++l)
            (*log2_evidence)[l] = eng.evidence(l).log2_evidence;

    // Per-lane combine mirroring the scalar posteriors loop with strided
    // lane reads. The union band adds only cells whose alpha or beta is
    // exactly zero, which the same skips the scalar code has drop.
    const auto& ins_pow = tables_->ins_pow;
    const std::span<double> w = ws.scratch2(m_alpha);
    const std::size_t Lp = eng.lane_stride();
    for (std::size_t l = 0; l < L; ++l) {
        util::Matrix& post = out[l];
        const SymbolSpan rx = received[l];
        for (std::size_t j = 1; j <= n; ++j) {
            std::fill(w.begin(), w.end(), 0.0);
            double w_del = 0.0;
            int blo = 0, bhi = -1;
            const bool beta_live = eng.beta_window(j, blo, bhi);
            const double* arow = eng.alpha_row(j - 1);
            const double* brow = eng.beta_row(j);
            for (int dp = eng.band_lo(j - 1); dp <= eng.band_hi(j - 1); ++dp) {
                const double ap = arow[eng.idx(dp) * Lp + l];
                if (ap == 0.0) continue;
                const std::size_t r0 =
                    static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
                for (int g = 0; g <= params_.max_insert_run; ++g) {
                    const int d = dp + g - 1;
                    if (!beta_live || d < blo || d > bhi) continue;
                    const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                    const double beta = brow[eng.idx(d) * Lp + l];
                    if (beta == 0.0) continue;
                    w_del += ap * ins_pow[static_cast<std::size_t>(g)] * params_.p_d * beta;
                    if (g >= 1) {
                        const double base = ap * ins_pow[static_cast<std::size_t>(g - 1)] *
                                            params_.p_t() * beta;
                        const std::uint8_t r = rx[r1 - 1];
                        for (unsigned s = 0; s < m_alpha; ++s)
                            w[s] += base * eng.emit(r, static_cast<std::uint8_t>(s));
                    }
                }
            }
            double norm = 0.0;
            for (unsigned s = 0; s < m_alpha; ++s) {
                const double v = priors(j - 1, s) * (w[s] + w_del);
                post(j - 1, s) = v;
                norm += v;
            }
            if (norm > 0.0) {
                for (unsigned s = 0; s < m_alpha; ++s) post(j - 1, s) /= norm;
            } else {
                for (unsigned s = 0; s < m_alpha; ++s) post(j - 1, s) = priors(j - 1, s);
            }
        }
    }
    return out;
}

std::vector<DriftHmm::EventExpectations> DriftHmm::expected_events_batch(
    std::span<const SymbolSpan> transmitted, std::span<const SymbolSpan> received,
    LatticeWorkspace& ws) const {
    if (transmitted.size() != received.size())
        throw std::invalid_argument("DriftHmm::expected_events_batch: lane count mismatch");
    const std::size_t L = transmitted.size();
    std::vector<EventExpectations> out(L);
    if (L == 0) return out;
    const std::size_t n = lockstep_tx_len(transmitted, "DriftHmm::expected_events_batch");
    for (std::size_t l = 0; l < L; ++l) {
        check_symbols(transmitted[l], params_.alphabet, "transmitted");
        check_symbols(received[l], params_.alphabet, "received");
    }

    BatchLatticeEngine eng(params_, *tables_, received, n, ws);
    const std::size_t Lp = eng.lane_stride();
    const std::span<std::uint8_t> tx = ws.tx_bytes(std::max<std::size_t>(1, n * Lp));
    std::fill(tx.begin(), tx.end(), 0);  // pad lanes carry valid symbol 0
    for (std::size_t l = 0; l < L; ++l)
        for (std::size_t j = 0; j < n; ++j) tx[j * Lp + l] = transmitted[l][j];
    TxEmitPlane emit_pt{tables_.get(), params_.alphabet, tx.data(),
                        Lp,            ws.scratch2(2 * Lp), &eng.kernels()};
    eng.forward(emit_pt, params_.band_eps);
    eng.backward(emit_pt);

    const auto& ins_pow = tables_->ins_pow;
    for (std::size_t l = 0; l < L; ++l) {
        EventExpectations& o = out[l];
        const SymbolSpan rx = received[l];
        const double tail = eng.tail(l);
        if (tail <= 0.0 || eng.alpha_scale(n, l) == kNegInf) {
            o.log2_likelihood = kNegInf;
            continue;
        }
        const double log2_evidence = eng.alpha_scale(n, l) + std::log2(tail);
        o.log2_likelihood = log2_evidence;

        for (std::size_t j = 1; j <= n; ++j) {
            const double log2_factor =
                eng.alpha_scale(j - 1, l) + eng.beta_scale(j, l) - log2_evidence;
            if (log2_factor < -300.0) continue;
            const double factor = std::exp2(log2_factor);
            const std::uint8_t sym = transmitted[l][j - 1];
            int blo = 0, bhi = -1;
            const bool beta_live = eng.beta_window(j, blo, bhi);
            const double* arow = eng.alpha_row(j - 1);
            const double* brow = eng.beta_row(j);
            for (int dp = eng.band_lo(j - 1); dp <= eng.band_hi(j - 1); ++dp) {
                const double alpha = arow[eng.idx(dp) * Lp + l];
                if (alpha == 0.0) continue;
                const std::size_t r0 =
                    static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
                for (int g = 0; g <= params_.max_insert_run; ++g) {
                    const int d = dp + g - 1;
                    if (!beta_live || d < blo || d > bhi) continue;
                    const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                    const double beta = brow[eng.idx(d) * Lp + l];
                    if (beta == 0.0) continue;
                    const double w_del = alpha * ins_pow[static_cast<std::size_t>(g)] *
                                         params_.p_d * beta * factor;
                    if (w_del > 0.0) {
                        o.deletions += w_del;
                        o.insertions += w_del * static_cast<double>(g);
                    }
                    if (g >= 1) {
                        const std::uint8_t r = rx[r1 - 1];
                        const double w_tx = alpha *
                                            ins_pow[static_cast<std::size_t>(g - 1)] *
                                            params_.p_t() * eng.emit(r, sym) * beta * factor;
                        if (w_tx > 0.0) {
                            o.transmissions += w_tx;
                            o.insertions += w_tx * static_cast<double>(g - 1);
                            if (r != sym) o.substitutions += w_tx;
                        }
                    }
                }
            }
        }
        const double* last = eng.alpha_row(n);
        for (int d = eng.band_lo(n); d <= eng.band_hi(n); ++d) {
            const double w_tr = last[eng.idx(d) * Lp + l] * eng.trailing(l, d) / tail;
            const long long rest =
                static_cast<long long>(eng.m(l)) - (static_cast<long long>(n) + d);
            if (w_tr > 0.0 && rest > 0) o.insertions += w_tr * static_cast<double>(rest);
        }
    }
    return out;
}

std::vector<BandedEvidence> log2_likelihood_batch_per_lane(
    std::span<const DriftParams> lane_params,
    std::span<const std::span<const std::uint8_t>> transmitted,
    std::span<const std::span<const std::uint8_t>> received, LatticeWorkspace& ws,
    double band_eps) {
    if (transmitted.size() != received.size() || transmitted.size() != lane_params.size())
        throw std::invalid_argument("log2_likelihood_batch_per_lane: lane count mismatch");
    const std::size_t L = transmitted.size();
    std::vector<BandedEvidence> out(L);
    if (L == 0) return out;
    const std::size_t n = lockstep_tx_len(transmitted, "log2_likelihood_batch_per_lane");
    const unsigned alphabet = lane_params[0].alphabet;
    for (std::size_t l = 0; l < L; ++l) {
        check_symbols(transmitted[l], alphabet, "transmitted");
        check_symbols(received[l], alphabet, "received");
    }

    BatchLatticeEngine eng(lane_params, received, n, ws);
    const std::size_t Lp = eng.lane_stride();
    const std::span<std::uint8_t> tx = ws.tx_bytes(std::max<std::size_t>(1, n * Lp));
    std::fill(tx.begin(), tx.end(), 0);  // pad lanes carry valid symbol 0
    for (std::size_t l = 0; l < L; ++l)
        for (std::size_t j = 0; j < n; ++j) tx[j * Lp + l] = transmitted[l][j];
    TxEmitPlanePerLane emit_pt{&eng, alphabet,           tx.data(),
                               Lp,   ws.scratch2(2 * Lp), &eng.kernels()};
    eng.forward(emit_pt, band_eps);
    for (std::size_t l = 0; l < L; ++l) out[l] = eng.evidence(l);
    return out;
}

std::vector<BandedEvidence> log2_prior_marginal_batch_per_lane(
    std::span<const DriftParams> lane_params, const util::Matrix& priors,
    std::span<const std::span<const std::uint8_t>> received, LatticeWorkspace& ws,
    double band_eps) {
    if (received.size() != lane_params.size())
        throw std::invalid_argument(
            "log2_prior_marginal_batch_per_lane: lane count mismatch");
    const std::size_t L = received.size();
    std::vector<BandedEvidence> out(L);
    if (L == 0) return out;
    const unsigned alphabet = lane_params[0].alphabet;
    check_priors(priors, alphabet, "log2_prior_marginal_batch_per_lane");
    for (std::size_t l = 0; l < L; ++l) check_symbols(received[l], alphabet, "received");

    BatchLatticeEngine eng(lane_params, received, priors.rows(), ws);
    const std::size_t Lp = eng.lane_stride();
    PriorEmitPlanePerLane emit_p{&priors, &eng, alphabet, Lp,
                                 ws.scratch3(static_cast<std::size_t>(alphabet) * Lp),
                                 &eng.kernels()};
    eng.forward(emit_p, band_eps);
    for (std::size_t l = 0; l < L; ++l) out[l] = eng.evidence(l);
    return out;
}

}  // namespace ccap::info
