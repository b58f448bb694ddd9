// perfbench harness: times the four user workloads of ccap (analyze, sweep,
// contend, track) through the same public calls the matching cmd_* in
// tools/ccap_cli.cpp makes, on inputs generated from --seed.
//
// One process runs one workload, as a closed loop with one client:
//   setup   input generation, trace-file writes, engine construction and a
//           warm-up that resolves SIMD dispatch and starts the shared pool
//           on a throwaway cache. Repeated; the median is setup_s.
//   passes  passes at N = min(nproc, 4) threads alternate with passes at 1
//           thread until --seconds have elapsed. wall_s and wall_s_1t are
//           best-repetition sums (best_sum); the medians are recorded too.
//   gates   every pass is checked: values finite, Monte-Carlo rates in
//           [0, bits per symbol], and outputs bit-identical to the first
//           N-thread pass (so N-thread and 1-thread outputs agree).
//   trace   with --trace 1, untraced N-thread passes alternate with traced
//           N- and 1-thread passes and with replays, which feed the first
//           pass's inputs into the layers the top calls hide. Spans around
//           each public call are kept in memory and written to --spans at
//           exit.
//
// The last stdout line is `RECORD {json}`: stamp, configuration, gate
// counts and every measured metric with its unit. perfbench/run.py turns it
// into the benchmark result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ccap/core/capacity_bounds.hpp"
#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/core/fault_injection.hpp"
#include "ccap/core/stream_source.hpp"
#include "ccap/estimate/analyzer.hpp"
#include "ccap/estimate/capacity_tracker.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "ccap/estimate/trace_io.hpp"
#include "ccap/info/capacity_cache.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/sched/contention.hpp"
#include "ccap/util/cpu_features.hpp"
#include "ccap/util/rng.hpp"
#include "ccap/util/thread_pool.hpp"

namespace {

using namespace ccap;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    const char* name = "";
    double start = 0.0;  ///< seconds since the tracer's origin
    double end = 0.0;
    int parent = -1;
    int pass = -1;
};

/// Spans around the public calls the harness makes, kept in memory. A Scope
/// always reads the clock: the durations of the calls directly under a pass's
/// root scope (its operations) feed the end-to-end timings. Only a tracer
/// that is on records spans.
class Tracer {
public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    class Scope {
    public:
        Scope(Tracer& tracer, const char* name)
            : tracer_(tracer), t0_(Clock::now()), id_(tracer.open(name, t0_)) {
            ++tracer_.depth_;
        }
        ~Scope() {
            tracer_.close(id_);
            if (--tracer_.depth_ == 1) tracer_.ops_.push_back(elapsed());
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        [[nodiscard]] double elapsed() const { return seconds_between(t0_, Clock::now()); }

    private:
        Tracer& tracer_;
        Clock::time_point t0_;
        int id_;
    };

    void set_on(bool on) { on_ = on; }
    void set_pass(int pass) { pass_ = pass; }
    /// Durations of the operations closed since the last call, in order.
    [[nodiscard]] std::vector<double> take_ops() { return std::exchange(ops_, {}); }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span: its duration minus its children's.
    [[nodiscard]] std::vector<double> self_times() const {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span& s : spans_)
            if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        return self;
    }

private:
    int open(const char* name, Clock::time_point t0) {
        if (!on_) return -1;
        spans_.push_back({name, seconds_between(origin_, t0), 0.0, current_, pass_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }
    void close(int id) {
        if (id < 0) return;
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end = seconds_between(origin_, Clock::now());
        current_ = s.parent;
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<double> ops_;
    int depth_ = 0;
    int current_ = -1;
    int pass_ = -1;
};

// ---------------------------------------------------------------------------
// Metrics and JSON
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Gate bookkeeping: every checked operation counts as attempted; one that
/// threw, returned a non-finite or out-of-range value, or differed from the
/// reference pass counts as failed.
struct Gates {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> first_failures;

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        if (first_failures.size() < 8) first_failures.push_back(what);
    }
};

/// N = min(nproc, 4): the thread count of the N-thread passes.
unsigned bench_threads() {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return static_cast<unsigned>(std::clamp<long>(n, 1, 4));
}

bool finite_in(double v, double lo, double hi) { return std::isfinite(v) && v >= lo && v <= hi; }

/// A layer's time from the spans of one name: the best-repetition sum
/// (best_sum) over the traced N-thread passes, the traced 1-thread passes or
/// the replays.
struct LayerQuery {
    std::function<double(const std::string&)> traced_n, traced_1, replay;
};

// ---------------------------------------------------------------------------
// Workloads. Each has
//   setup(threads)            repeatable input generation and warm-up;
//   pass(threads, tracer)     one closed-loop pass, its public calls in scopes;
//   check(out, ref, gates)    finiteness, ranges, bit-identity to `ref`;
//   quality(out, metrics)     the quality metrics, from the first pass;
//   replay(out, tracer, ...)  the hidden layers of the top calls, from outside;
//   layers(out, query, ...)   the per-layer metrics of a traced run;
//   describe(config)          the sizes, for the record.
// ---------------------------------------------------------------------------

/// The CLI's (P_d, P_i) grid (cmd_sweep): 11 x 7 = 77 points.
std::vector<std::pair<double, double>> cli_sweep_grid() {
    std::vector<std::pair<double, double>> grid;
    for (double pd = 0.0; pd <= 0.501; pd += 0.05)
        for (double pi = 0.0; pi <= 0.301; pi += 0.05)
            if (pd + pi < 1.0) grid.emplace_back(pd, pi);
    return grid;
}

/// Throwaway-cache warm-up shared by the MC workloads: resolves SIMD
/// dispatch and starts the shared pool without touching the timed engine.
void warm_up_pool(unsigned threads) {
    info::CapacityCache::Config cc;
    cc.mc.block_len = 16;
    cc.mc.num_blocks = 2;
    info::CapacityCache throwaway(cc);
    std::vector<info::CapacityKey> keys;
    for (std::int32_t i = 0; i < 8; ++i) keys.push_back({i, 0});
    throwaway.ensure(keys, threads);
}

// ---- analyze ---------------------------------------------------------------

struct AnalyzeWorkload {
    static constexpr const char* kKinds[3] = {"align", "mle", "em"};

    struct Truth {
        double p_d, p_i, p_s;
    };
    std::vector<Truth> truths;
    std::size_t len = 0;
    std::uint64_t seed = 0;
    std::filesystem::path dir;
    std::vector<std::pair<std::string, std::string>> files;  ///< sent, received

    struct Output {
        std::vector<estimate::AnalysisReport> reports;  ///< pair-major, kKinds order
        std::vector<std::vector<std::uint32_t>> sent, received;
    };

    /// Two pairs per truth. The truths mix interior points with the common
    /// no-insertion and no-substitution cases.
    AnalyzeWorkload(bool tiny, std::uint64_t s, std::filesystem::path work)
        : len(tiny ? 120 : 300), seed(s), dir(std::move(work)) {
        const std::vector<Truth> base = {{0.10, 0.05, 0.00}, {0.20, 0.02, 0.01},
                                         {0.05, 0.10, 0.02}, {0.15, 0.00, 0.03},
                                         {0.02, 0.08, 0.00}, {0.25, 0.05, 0.01}};
        const std::size_t pairs = tiny ? 3 : 2 * base.size();
        for (std::size_t i = 0; i < pairs; ++i) truths.push_back(base[i % base.size()]);
    }

    static estimate::AnalyzerConfig config(std::size_t kind) {
        estimate::AnalyzerConfig cfg;  // cmd_analyze defaults: 1 bit, 100 uses/s
        cfg.estimator_kind = kind == 0   ? estimate::EstimatorKind::alignment
                             : kind == 1 ? estimate::EstimatorKind::mle
                                         : estimate::EstimatorKind::em;
        return cfg;
    }

    /// cmd_simulate per truth: uniform symbols through the channel, written
    /// as trace files.
    void setup(unsigned /*threads*/) {
        std::filesystem::create_directories(dir);
        files.clear();
        for (std::size_t t = 0; t < truths.size(); ++t) {
            const core::DiChannelParams p{truths[t].p_d, truths[t].p_i, truths[t].p_s, 1};
            const std::uint64_t s = util::substream_seed(seed, t);
            util::Rng rng(s);
            std::vector<std::uint32_t> sent(len);
            for (auto& x : sent) x = static_cast<std::uint32_t>(rng.uniform_below(p.alphabet()));
            core::DeletionInsertionChannel channel(p, s ^ 0xC11);
            const auto tr = channel.transduce(sent);
            const std::string base = (dir / ("pair" + std::to_string(t))).string();
            estimate::write_trace_file(base + ".sent", sent, "sent trace, " + p.to_string());
            estimate::write_trace_file(base + ".recv", tr.output,
                                       "received trace, " + p.to_string());
            files.emplace_back(base + ".sent", base + ".recv");
        }
        // Warm-up: the alignment estimator on the first pair read back (the
        // likelihood estimators' cost depends on the data, so they stay out
        // of setup).
        const auto sent = estimate::read_trace_file(files.front().first);
        const auto recv = estimate::read_trace_file(files.front().second);
        (void)estimate::analyze_traces(sent, recv, config(0));
    }

    Output pass(unsigned /*threads: analyze has no thread argument*/, Tracer& tr) {
        Output out;
        for (const auto& [sf, rf] : files) {
            {
                Tracer::Scope s(tr, "estimate.trace_read");
                out.sent.push_back(estimate::read_trace_file(sf));
                out.received.push_back(estimate::read_trace_file(rf));
            }
            for (std::size_t k = 0; k < 3; ++k) {
                static constexpr const char* kSpan[3] = {
                    "estimate.analyze.align", "estimate.analyze.mle", "estimate.analyze.em"};
                Tracer::Scope s(tr, kSpan[k]);
                out.reports.push_back(
                    estimate::analyze_traces(out.sent.back(), out.received.back(), config(k)));
            }
        }
        return out;
    }

    static bool same(const estimate::RateEstimate& a, const estimate::RateEstimate& b) {
        return a.value == b.value && a.ci_low == b.ci_low && a.ci_high == b.ci_high;
    }

    void check(const Output& o, const Output* ref, Gates& g) const {
        g.check(o.reports.size() == truths.size() * 3, "analyze: report count");
        for (std::size_t i = 0; i < o.reports.size(); ++i) {
            const auto& r = o.reports[i];
            const std::string what = "analyze pair " + std::to_string(i / 3) + " " + kKinds[i % 3];
            bool ok = true;
            for (const auto* e : {&r.params.p_d, &r.params.p_i, &r.params.p_s})
                ok = ok && finite_in(e->value, 0.0, 1.0) && finite_in(e->ci_low, 0.0, 1.0) &&
                     finite_in(e->ci_high, 0.0, 1.0);
            ok = ok && finite_in(r.degraded_bits_per_use, 0.0, 1.0) &&
                 std::isfinite(r.band_bits_per_use.lower) &&
                 std::isfinite(r.band_bits_per_use.upper);
            if (ref != nullptr && i < ref->reports.size()) {
                const auto& q = ref->reports[i];
                ok = ok && same(r.params.p_d, q.params.p_d) && same(r.params.p_i, q.params.p_i) &&
                     same(r.params.p_s, q.params.p_s) &&
                     r.degraded_bits_per_use == q.degraded_bits_per_use;
            }
            g.check(ok, what);
        }
    }

    void quality(const Output& o, std::vector<Metric>& m) const {
        double err = 0.0, n_err = 0.0, miss = 0.0, n_ci = 0.0;
        for (std::size_t i = 0; i < o.reports.size(); ++i) {
            const Truth& t = truths[i / 3];
            const auto& p = o.reports[i].params;
            const std::pair<const estimate::RateEstimate*, double> est[3] = {
                {&p.p_d, t.p_d}, {&p.p_i, t.p_i}, {&p.p_s, t.p_s}};
            for (const auto& [e, truth] : est) {
                if (i % 3 != 0) {  // mle and em
                    err += std::fabs(e->value - truth);
                    n_err += 1.0;
                }
                miss += (truth < e->ci_low || truth > e->ci_high) ? 1.0 : 0.0;
                n_ci += 1.0;
            }
        }
        m.push_back({"param_abs_err", err / n_err, "prob"});
        m.push_back({"ci_miss_frac", miss / n_ci, "fraction"});
    }

    void layers(const Output& o, const LayerQuery& q, std::vector<Metric>& m) const {
        double symbols = 0.0;
        for (const auto& s : o.sent) symbols += static_cast<double>(s.size());
        m.push_back({"estimate.symbols", symbols, "count"});
        m.push_back({"estimate.trace_read_s", q.traced_n("estimate.trace_read"), "s"});
        for (const std::string k : kKinds) {
            m.push_back({"estimate.analyze_s." + k, q.traced_n("estimate.analyze." + k), "s"});
            m.push_back({"estimate.params_s." + k, q.replay("estimate.params." + k), "s"});
        }
    }

    /// analyze_traces() hides the estimate_params* call of its estimator:
    /// replay each on the pass's traces.
    void replay(const Output& o, Tracer& tr, unsigned /*threads*/,
                std::vector<Metric>& /*m*/) const {
        const estimate::EstimatorOptions opts = config(0).estimator;
        for (std::size_t i = 0; i < o.sent.size(); ++i) {
            {
                Tracer::Scope s(tr, "estimate.params.align");
                (void)estimate::estimate_params(o.sent[i], o.received[i], opts);
            }
            {
                Tracer::Scope s(tr, "estimate.params.mle");
                (void)estimate::estimate_params_mle(o.sent[i], o.received[i], 1, opts);
            }
            {
                Tracer::Scope s(tr, "estimate.params.em");
                (void)estimate::estimate_params_em(o.sent[i], o.received[i], 1, opts);
            }
        }
    }

    void describe(std::vector<std::pair<std::string, std::string>>& c) const {
        c.emplace_back("pairs", std::to_string(truths.size()));
        c.emplace_back("symbols_per_pair", std::to_string(len));
        c.emplace_back("estimators", "align,mle,em");
    }
};

// ---- sweep / sweep_crn -----------------------------------------------------

struct SweepWorkload {
    bool crn = false;
    std::uint64_t seed = 0;
    unsigned bits = 1;
    info::McOptions mc;
    std::vector<std::pair<double, double>> grid = cli_sweep_grid();
    std::vector<info::CapacityPoint> points;

    struct Output {
        std::vector<core::CapacityBand> bands;
        std::vector<double> degraded;
        std::vector<info::MiEstimate> mi;
    };

    SweepWorkload(bool tiny, std::uint64_t s, bool use_crn) : crn(use_crn), seed(s) {
        mc.block_len = tiny ? 16 : 256;
        mc.num_blocks = tiny ? 2 : 8;
        mc.point_tile = crn ? info::kMcPointTileAuto : 0;
    }

    /// cmd_sweep's MI column: one CapacityPoint per grid point, seeded by
    /// substream_seed(seed, i).
    void setup(unsigned threads) {
        points.clear();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            info::DriftParams dp;
            dp.p_d = grid[i].first;
            dp.p_i = grid[i].second;
            dp.alphabet = 1U << bits;
            points.push_back({dp, util::substream_seed(seed, i)});
        }
        info::McOptions warm = mc;
        warm.block_len = 16;
        warm.num_blocks = 2;
        warm.threads = threads;
        (void)info::iid_mutual_information_rate_points(std::span(points).first(8), warm);
    }

    Output pass(unsigned threads, Tracer& tr) const {
        Output out;
        info::McOptions opts = mc;
        opts.threads = threads;
        {
            Tracer::Scope s(tr, "info.points");
            out.mi = info::iid_mutual_information_rate_points(points, opts);
        }
        out.bands.resize(grid.size());
        out.degraded.resize(grid.size());
        {
            Tracer::Scope s(tr, "core.bounds");
            util::parallel_for(
                util::ThreadPool::shared(), grid.size(),
                [&](std::size_t i) {
                    const core::DiChannelParams p{grid[i].first, grid[i].second, 0.0,
                                                  bits};
                    out.bands[i] = core::capacity_band(p);
                    out.degraded[i] = core::degraded_capacity(static_cast<double>(bits), p);
                },
                threads);
        }
        return out;
    }

    void check(const Output& o, const Output* ref, Gates& g) const {
        g.check(o.mi.size() == points.size() && o.bands.size() == points.size(),
                "sweep: output size");
        for (std::size_t i = 0; i < o.mi.size() && i < o.bands.size(); ++i) {
            const auto& e = o.mi[i];
            const auto& b = o.bands[i];
            bool ok = finite_in(e.rate, 0.0, bits) && std::isfinite(e.sem) && e.sem >= 0.0 &&
                      std::isfinite(b.lower) && std::isfinite(b.exact_protocol) &&
                      std::isfinite(b.upper) && std::isfinite(o.degraded[i]);
            if (ref != nullptr) {
                const auto& r = ref->mi[i];
                const auto& rb = ref->bands[i];
                ok = ok && e.rate == r.rate && e.sem == r.sem && e.blocks == r.blocks &&
                     e.block_len == r.block_len && e.converged == r.converged &&
                     b.lower == rb.lower && b.exact_protocol == rb.exact_protocol &&
                     b.upper == rb.upper && o.degraded[i] == ref->degraded[i];
            }
            g.check(ok, "sweep point " + std::to_string(i));
        }
    }

    void quality(const Output& o, std::vector<Metric>& m) const {
        double worst = 0.0;
        for (const auto& e : o.mi) worst = std::max(worst, e.sem);
        m.push_back({"mc_sem_max", worst, "bits/sym"});
    }

    void layers(const Output& o, const LayerQuery& q, std::vector<Metric>& m) const {
        double blocks = 0.0, symbols = 0.0;
        for (const auto& e : o.mi) {
            blocks += static_cast<double>(e.blocks);
            symbols += static_cast<double>(e.blocks * e.block_len);
        }
        const double points_s = q.traced_n("info.points");
        m.push_back({"info.mc_blocks", blocks, "count"});
        m.push_back({"info.mc_symbols", symbols, "count"});
        m.push_back({"core.bounds_s", q.traced_n("core.bounds"), "s"});
        m.push_back({"info.points_s", points_s, "s"});
        m.push_back({"info.points_s_1t", q.traced_1("info.points"), "s"});
        m.push_back({"info.ns_per_symbol", symbols > 0.0 ? 1e9 * points_s / symbols : 0.0,
                     "ns"});
    }

    /// The CRN coupling diagnostic needs the 3-argument points call, which
    /// the CLI does not make; it runs here, outside the timed passes.
    void replay(const Output& o, Tracer& tr, unsigned threads, std::vector<Metric>& m) const {
        if (!crn) return;
        info::McOptions opts = mc;
        opts.threads = threads;
        info::PointSweepReport report;
        {
            Tracer::Scope s(tr, "info.points_report");
            (void)info::iid_mutual_information_rate_points(points, opts, &report);
        }
        std::vector<double> ratios;
        for (std::size_t i = 0; i < report.adjacent_diff_sem.size(); ++i) {
            const double indep = std::hypot(o.mi[i].sem, o.mi[i + 1].sem);
            if (indep > 0.0) ratios.push_back(report.adjacent_diff_sem[i] / indep);
        }
        m.push_back({"info.adjacent_sem_ratio", median(ratios), "ratio"});
    }

    void describe(std::vector<std::pair<std::string, std::string>>& c) const {
        c.emplace_back("points", std::to_string(points.size()));
        c.emplace_back("block_len", std::to_string(mc.block_len));
        c.emplace_back("num_blocks", std::to_string(mc.num_blocks));
        c.emplace_back("info.point_tile",
                       std::to_string(info::resolved_point_tile(mc, points.size())));
    }
};

// ---- contend ---------------------------------------------------------------

struct ContendWorkload {
    info::CapacityCache::Config cc;
    sched::ContentionConfig cfg;

    struct Output {
        sched::ContentionReport report;
    };

    ContendWorkload(bool tiny, std::uint64_t seed) {
        // cmd_contend defaults, overloaded (load 1.3): at load 0.8 every flow
        // collapses onto a handful of nodes.
        cc.grid.pd_step = 0.01;
        cc.grid.pi_step = 0.01;
        cc.mc.block_len = tiny ? 16 : 48;
        cc.mc.num_blocks = tiny ? 2 : 8;
        cfg.flows = tiny ? 512 : 24000;
        cfg.offered_load = 1.3;
        cfg.ticks = tiny ? 256 : 1024;
        cfg.slices = tiny ? 8 : 64;
        cfg.seed = seed;
    }

    void setup(unsigned threads) {
        info::CapacityCache cache(cc);
        sched::ContentionEngine engine(cfg, cache);
        warm_up_pool(threads);
    }

    Output pass(unsigned threads, Tracer& tr) const {
        // A fresh cache per pass: every pass does the same work.
        info::CapacityCache cache(cc);
        sched::ContentionConfig c = cfg;
        c.threads = threads;
        const sched::ContentionEngine engine(c, cache);
        Tracer::Scope s(tr, "sched.run");
        return {engine.run()};
    }

    void check(const Output& o, const Output* ref, Gates& g) const {
        const auto& r = o.report;
        bool flows_ok = r.flows.size() == cfg.flows;
        for (const auto& f : r.flows)
            flows_ok = flows_ok && finite_in(f.capacity, 0.0, 1.0) &&
                       finite_in(f.p_d_eff, 0.0, 1.0) && finite_in(f.p_i_eff, 0.0, 1.0);
        g.check(flows_ok, "contend: per-flow values");
        g.check(std::isfinite(r.mean_pd_eff) && std::isfinite(r.mean_pi_eff) &&
                    finite_in(r.mean_capacity, 0.0, 1.0) &&
                    std::isfinite(r.aggregate_capacity_per_tick),
                "contend: aggregates finite");
        g.check(r.total_dropped > 0, "contend: overload drops nothing");
        if (ref != nullptr) {
            const auto& q = ref->report;
            bool same = r.total_offered == q.total_offered && r.total_served == q.total_served &&
                        r.total_dropped == q.total_dropped && r.mean_pd_eff == q.mean_pd_eff &&
                        r.mean_pi_eff == q.mean_pi_eff && r.mean_capacity == q.mean_capacity &&
                        r.aggregate_capacity_per_tick == q.aggregate_capacity_per_tick &&
                        r.distinct_nodes == q.distinct_nodes &&
                        r.mc_blocks_spent == q.mc_blocks_spent &&
                        r.cache.hits == q.cache.hits && r.cache.misses == q.cache.misses &&
                        r.flows.size() == q.flows.size();
            for (std::size_t f = 0; same && f < r.flows.size(); ++f)
                same = r.flows[f].capacity == q.flows[f].capacity &&
                       r.flows[f].p_d_eff == q.flows[f].p_d_eff &&
                       r.flows[f].p_i_eff == q.flows[f].p_i_eff;
            g.check(same, "contend: report differs from the reference pass");
        }
    }

    /// Distinct nodes in first-appearance (flow) order, as run() builds them.
    std::vector<info::CapacityKey> distinct_keys(const sched::ContentionReport& r) const {
        info::CapacityCache probe(cc);
        std::vector<info::CapacityKey> unique;
        std::unordered_set<info::CapacityKey, info::CapacityKeyHash> seen;
        for (const auto& f : r.flows) {
            const auto k = probe.quantize(f.p_d_eff, f.p_i_eff);
            if (seen.insert(k).second) unique.push_back(k);
        }
        return unique;
    }

    void quality(const Output& o, std::vector<Metric>& m) const {
        info::CapacityCache cache(cc);
        const auto keys = distinct_keys(o.report);
        cache.ensure(keys, bench_threads());
        double worst = 0.0;
        for (const auto& k : keys) worst = std::max(worst, cache.at(k).sem);
        m.push_back({"mc_sem_max", worst, "bits/sym"});
    }

    void layers(const Output& o, const LayerQuery& q, std::vector<Metric>& m) const {
        const auto& r = o.report;
        const double run_s = q.traced_n("sched.run");
        m.push_back({"sched.run_s", run_s, "s"});
        m.push_back({"sched.run_s_1t", q.traced_1("sched.run"), "s"});
        m.push_back({"sched.simulate_s", q.replay("sched.simulate"), "s"});
        m.push_back({"info.cache_ensure_s", q.replay("info.cache_ensure"), "s"});
        m.push_back({"sched.flows_per_s",
                     run_s > 0.0 ? static_cast<double>(cfg.flows) / run_s : 0.0, "1/s"});
        const double hits = static_cast<double>(r.cache.hits);
        const double lookups = hits + static_cast<double>(r.cache.misses);
        m.push_back({"info.cache_hits", hits, "count"});
        m.push_back({"info.cache_misses", static_cast<double>(r.cache.misses), "count"});
        m.push_back({"info.cache_evictions", static_cast<double>(r.cache.evictions), "count"});
        m.push_back({"info.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio"});
        m.push_back({"info.distinct_nodes", static_cast<double>(r.distinct_nodes), "count"});
        m.push_back({"info.mc_blocks", static_cast<double>(r.mc_blocks_spent), "count"});
        m.push_back({"sched.drop_frac",
                     r.total_offered > 0 ? static_cast<double>(r.total_dropped) /
                                               static_cast<double>(r.total_offered)
                                         : 0.0,
                     "fraction"});
    }

    /// run() hides simulate() and the cache's bulk ensure(): replay both.
    void replay(const Output& o, Tracer& tr, unsigned threads,
                std::vector<Metric>& /*m*/) const {
        info::CapacityCache cache(cc);
        sched::ContentionConfig c = cfg;
        c.threads = threads;
        const sched::ContentionEngine engine(c, cache);
        {
            Tracer::Scope s(tr, "sched.simulate");
            (void)engine.simulate();
        }
        const auto keys = distinct_keys(o.report);
        Tracer::Scope s(tr, "info.cache_ensure");
        cache.ensure(keys, threads);
    }

    void describe(std::vector<std::pair<std::string, std::string>>& c) const {
        c.emplace_back("flows", std::to_string(cfg.flows));
        c.emplace_back("offered_load", std::to_string(cfg.offered_load));
        c.emplace_back("ticks", std::to_string(cfg.ticks));
        c.emplace_back("slices", std::to_string(cfg.slices));
        c.emplace_back("mi_block", std::to_string(cc.mc.block_len));
        c.emplace_back("mi_blocks", std::to_string(cc.mc.num_blocks));
    }
};

// ---- track -----------------------------------------------------------------

struct TrackWorkload {
    estimate::TrackerConfig tc;
    core::FaultStreamSource::Config sc;

    struct Output {
        std::vector<core::StreamChunk> chunks;
        std::vector<estimate::TrackerUpdate> updates;
        std::vector<double> ingest_s;  ///< per-window ingest latency
        util::ShardCacheStats cache;
    };

    TrackWorkload(bool tiny, std::uint64_t seed) {
        // cmd_track defaults (prefetch off, as in the CLI), live source under
        // the drift preset at nominal P_d 0.1.
        tc.window_len = tiny ? 400 : 2000;
        tc.cache.base.alphabet = 2;
        tc.cache.grid.pd_step = tiny ? 0.05 : 0.02;
        tc.cache.grid.pi_step = tc.cache.grid.pd_step;
        tc.cache.mc.block_len = tiny ? 16 : 48;
        tc.cache.mc.num_blocks = tiny ? 4 : 8;
        sc.params.p_d = 0.1;
        sc.params.bits_per_symbol = 1;
        if (!core::named_fault_profile("drift", sc.profile))
            throw std::logic_error("track: no drift preset");
        sc.window_len = tc.window_len;
        sc.windows = tiny ? 12 : 50;
        sc.seed = seed;
    }

    void setup(unsigned threads) {
        tc.validate();
        sc.validate();
        estimate::CapacityTracker tracker(tc);
        core::FaultStreamSource source(sc);
        warm_up_pool(threads);
    }

    Output pass(unsigned threads, Tracer& tr) const {
        estimate::TrackerConfig c = tc;
        c.threads = threads;
        estimate::CapacityTracker tracker(c);
        core::FaultStreamSource source(sc);
        Output out;
        for (;;) {
            std::optional<core::StreamChunk> chunk;
            {
                Tracer::Scope s(tr, "core.stream_next");
                chunk = source.next();
            }
            if (!chunk) break;
            {
                Tracer::Scope s(tr, "estimate.ingest");
                out.updates.push_back(tracker.ingest(*chunk));
                out.ingest_s.push_back(s.elapsed());
            }
            out.chunks.push_back(std::move(*chunk));
        }
        out.cache = tracker.cache().stats();
        return out;
    }

    void check(const Output& o, const Output* ref, Gates& g) const {
        g.check(o.updates.size() == sc.windows, "track: window count");
        for (std::size_t w = 0; w < o.updates.size(); ++w) {
            const auto& u = o.updates[w];
            bool ok = finite_in(u.window_capacity, 0.0, 1.0) && finite_in(u.capacity, 0.0, 1.0) &&
                      std::isfinite(u.p_d) && std::isfinite(u.p_i) && std::isfinite(u.p_s) &&
                      std::isfinite(u.window_sem) && std::isfinite(u.sem) &&
                      std::isfinite(u.bound) && std::isfinite(u.trend_slope) &&
                      std::isfinite(u.served_rate);
            if (ref != nullptr) ok = ok && w < ref->updates.size() && u == ref->updates[w];
            g.check(ok, "track window " + std::to_string(w));
        }
    }

    /// Mean of the drift schedule delta(t) over uses [a, b), as the fault
    /// injector applies it (bench_x16_tracker's ground truth).
    double mean_delta(std::uint64_t a, std::uint64_t b) const {
        const core::FaultProfile& p = sc.profile;
        if (p.drift_amplitude == 0.0 || p.drift_period == 0 || b <= a) return 0.0;
        double sum = 0.0;
        for (std::uint64_t t = a; t < b; ++t) {
            const double phase = 2.0 * M_PI * static_cast<double>(t % p.drift_period) /
                                 static_cast<double>(p.drift_period);
            sum += p.drift_amplitude * (1.0 - std::cos(phase)) / 2.0;
        }
        return sum / static_cast<double>(b - a);
    }

    void quality(const Output& o, std::vector<Metric>& m) const {
        info::CapacityCache cache(tc.cache);
        double pd_err = 0.0, cap_err = 0.0, miss = 0.0, worst = 0.0;
        std::uint64_t uses = 0;
        for (std::size_t w = 0; w < o.updates.size(); ++w) {
            const std::uint64_t next = uses + o.chunks[w].channel_uses;
            const double pd_eff = sc.params.p_d + (1.0 - sc.params.p_d) * mean_delta(uses, next);
            uses = next;
            const double truth = cache.at(cache.quantize(pd_eff, 0.0)).rate;
            const auto& u = o.updates[w];
            pd_err += std::fabs(u.p_d - pd_eff);
            cap_err += std::fabs(u.capacity - truth);
            miss += std::fabs(u.capacity - truth) > u.bound ? 1.0 : 0.0;
            worst = std::max(worst, u.window_sem);
        }
        const double n = static_cast<double>(std::max<std::size_t>(o.updates.size(), 1));
        m.push_back({"param_abs_err", pd_err / n, "prob"});
        m.push_back({"capacity_abs_err", cap_err / n, "bits/use"});
        m.push_back({"ci_miss_frac", miss / n, "fraction"});
        m.push_back({"mc_sem_max", worst, "bits/sym"});
    }

    void layers(const Output& o, const LayerQuery& q, std::vector<Metric>& m) const {
        const double ingest = q.traced_n("estimate.ingest");
        const double align = q.replay("estimate.window_align");
        const double at = q.replay("info.cache_at");
        m.push_back({"core.stream_next_s", q.traced_n("core.stream_next"), "s"});
        m.push_back({"estimate.ingest_s", ingest, "s"});
        m.push_back({"estimate.window_align_s", align, "s"});
        m.push_back({"info.cache_at_s", at, "s"});
        m.push_back({"estimate.tracker_self_s", ingest - align - at, "s"});
        const double hits = static_cast<double>(o.cache.hits);
        const double lookups = hits + static_cast<double>(o.cache.misses);
        m.push_back({"info.cache_hits", hits, "count"});
        m.push_back({"info.cache_misses", static_cast<double>(o.cache.misses), "count"});
        m.push_back({"info.cache_evictions", static_cast<double>(o.cache.evictions), "count"});
        m.push_back({"info.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio"});
        m.push_back({"info.distinct_nodes", static_cast<double>(o.cache.entries), "count"});
        double per_status[5] = {};
        double symbols = 0.0;
        for (const auto& u : o.updates) per_status[static_cast<int>(u.status)] += 1.0;
        for (const auto& c : o.chunks) symbols += static_cast<double>(c.sent.size());
        for (int s = 0; s < 5; ++s)
            m.push_back({std::string("estimate.windows.") +
                             estimate::tracker_status_name(static_cast<estimate::TrackerStatus>(s)),
                         per_status[s], "count"});
        m.push_back({"estimate.symbols", symbols, "count"});
    }

    /// ingest() hides estimate_window() and CapacityCache::at(): replay both
    /// on the pass's chunks, at() on a fresh cache in window order, exactly
    /// where ingest calls it (every non-degraded window).
    void replay(const Output& o, Tracer& tr, unsigned /*threads*/,
                std::vector<Metric>& m) const {
        for (const auto& c : o.chunks) {
            Tracer::Scope s(tr, "estimate.window_align");
            (void)estimate::estimate_window(c.sent, c.received);
        }
        info::CapacityCache cache(tc.cache);
        std::unordered_set<info::CapacityKey, info::CapacityKeyHash> seen;
        double blocks = 0.0;
        for (const auto& u : o.updates) {
            if (u.status == estimate::TrackerStatus::degraded) continue;
            const auto key = cache.quantize(u.p_d, u.p_i);
            info::MiEstimate e;
            {
                Tracer::Scope s(tr, "info.cache_at");
                e = cache.at(key);
            }
            if (seen.insert(key).second) blocks += static_cast<double>(e.blocks);
        }
        m.push_back({"info.mc_blocks", blocks, "count"});
    }

    void describe(std::vector<std::pair<std::string, std::string>>& c) const {
        c.emplace_back("windows", std::to_string(sc.windows));
        c.emplace_back("window_len", std::to_string(tc.window_len));
        c.emplace_back("profile", sc.profile.name);
        c.emplace_back("grid_step", std::to_string(tc.cache.grid.pd_step));
        c.emplace_back("mi_block", std::to_string(tc.cache.mc.block_len));
        c.emplace_back("mi_blocks", std::to_string(tc.cache.mc.num_blocks));
    }
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string rev = "unknown";
    std::string spans_path;
    std::string work_dir = ".";
};

/// The kinds of pass: untraced and traced at N threads and at 1 thread, and
/// the replay of the hidden layers.
enum class PassKind { n, one, n_traced, one_traced, replay };

struct PassRecord {
    int id = 0;
    PassKind kind = PassKind::n;
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<double> ops;  ///< durations of the pass's operations, in order
};

/// The timing statistic of every pass time and layer time: element k of
/// each repetition is the same operation; sum over k of its fastest
/// repetition. Passes do identical work, so the spread between repetitions
/// of one operation is interference from the host, which this filters out.
/// Repetitions whose shape differs from the first are skipped (the pass
/// loop counts them as gate failures).
double best_sum(const std::vector<std::vector<double>>& reps) {
    if (reps.empty()) return 0.0;
    std::vector<double> best = reps.front();
    for (const auto& r : reps)
        if (r.size() == best.size())
            for (std::size_t k = 0; k < r.size(); ++k) best[k] = std::min(best[k], r[k]);
    double sum = 0.0;
    for (const double v : best) sum += v;
    return sum;
}

/// Per pass, the durations (or self times) of the spans named `name`.
std::vector<std::vector<double>> span_reps(const Tracer& tr, const std::vector<double>& self,
                                           const std::vector<int>& pass_ids,
                                           const std::string& name, bool self_time) {
    std::map<int, std::vector<double>> per_pass;
    for (const int id : pass_ids) per_pass[id];
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
        const Span& s = tr.spans()[i];
        auto it = per_pass.find(s.pass);
        if (it != per_pass.end() && s.name == name)
            it->second.push_back(self_time ? self[i] : s.end - s.start);
    }
    std::vector<std::vector<double>> reps;
    for (auto& [id, v] : per_pass) reps.push_back(std::move(v));
    return reps;
}

std::string host_class() {
#if defined(__x86_64__)
    const char* arch = "x86_64";
#elif defined(__aarch64__)
    const char* arch = "aarch64";
#else
    const char* arch = "other";
#endif
    return std::string(arch) + "/" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + "cpu/" +
           util::cpu_feature_string();
}

template <class W>
int run_workload(W& w, const Options& opt) {
    const unsigned n_threads = bench_threads();
    Tracer tracer(false);
    Gates gates;
    std::vector<Metric> metrics;

    // ---- setup, repeated; median reported ---------------------------------
    std::vector<double> setups;
    const auto setup_begin = Clock::now();
    do {
        const auto t0 = Clock::now();
        w.setup(n_threads);
        setups.push_back(seconds_between(t0, Clock::now()));
    } while (setups.size() < 5 ||
             (seconds_between(setup_begin, Clock::now()) < 0.5 && setups.size() < 5000));

    // ---- timed passes ------------------------------------------------------
    // Untraced run: N, 1, N, 1, ...  Traced run: N, N traced, 1 traced,
    // replay, ... The replays run between the passes, so that a slow phase
    // of the host reaches passes and replays alike.
    const std::vector<PassKind> schedule =
        opt.trace ? std::vector{PassKind::n, PassKind::n_traced, PassKind::one_traced,
                                PassKind::replay}
                  : std::vector{PassKind::n, PassKind::one};
    std::vector<PassRecord> passes;
    std::vector<int> replay_ids;
    std::vector<Metric> replay_metrics;
    std::optional<typename W::Output> reference;
    std::vector<double> window_latencies;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    for (std::size_t i = 0; i < schedule.size() || Clock::now() < deadline; ++i) {
        const PassKind kind = schedule[i % schedule.size()];
        const int id = static_cast<int>(i);
        tracer.set_on(kind != PassKind::n && kind != PassKind::one);
        tracer.set_pass(id);
        if (kind == PassKind::replay) {
            if (!reference) continue;
            try {
                std::vector<Metric> m;
                {
                    Tracer::Scope s(tracer, "replay");
                    w.replay(*reference, tracer, n_threads, m);
                }
                if (replay_ids.empty()) replay_metrics = std::move(m);
                replay_ids.push_back(id);
            } catch (const std::exception& e) {
                gates.check(false, std::string("replay threw: ") + e.what());
            }
            (void)tracer.take_ops();
            continue;
        }
        PassRecord rec;
        rec.id = id;
        rec.kind = kind;
        const unsigned threads =
            kind == PassKind::one || kind == PassKind::one_traced ? 1U : n_threads;
        try {
            const double c0 = cpu_seconds();
            const auto t0 = Clock::now();
            typename W::Output out = [&] {
                Tracer::Scope s(tracer, "pass");
                return w.pass(threads, tracer);
            }();
            rec.wall = seconds_between(t0, Clock::now());
            rec.cpu = cpu_seconds() - c0;
            rec.ops = tracer.take_ops();
            gates.check(passes.empty() || rec.ops.size() == passes.front().ops.size(),
                        "pass made a different number of calls");
            w.check(out, reference ? &*reference : nullptr, gates);
            if constexpr (requires { out.ingest_s; })
                if (kind == PassKind::n)
                    window_latencies.insert(window_latencies.end(), out.ingest_s.begin(),
                                            out.ingest_s.end());
            if (!reference) reference = std::move(out);
        } catch (const std::exception& e) {
            gates.check(false, std::string("pass threw: ") + e.what());
            (void)tracer.take_ops();
        }
        passes.push_back(std::move(rec));
    }
    tracer.set_on(false);

    using Want = std::function<bool(const PassRecord&)>;
    const auto of_kind = [](PassKind k) -> Want {
        return [k](const PassRecord& p) { return p.kind == k; };
    };
    const auto select = [&](const Want& want) {
        std::vector<const PassRecord*> v;
        for (const auto& p : passes)
            if (want(p) && !p.ops.empty()) v.push_back(&p);
        return v;
    };
    const auto best_pass = [&](const Want& want) {
        std::vector<std::vector<double>> reps;
        for (const PassRecord* p : select(want)) reps.push_back(p->ops);
        return best_sum(reps);
    };
    const auto median_pass = [&](const Want& want) {
        std::vector<double> v;
        for (const PassRecord* p : select(want)) v.push_back(p->wall);
        return median(v);
    };
    const double wall_n = best_pass(of_kind(PassKind::n));

    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"wall_s", wall_n, "s"});
    metrics.push_back({"wall_s_p50", median_pass(of_kind(PassKind::n)), "s"});
    if (!opt.trace) {
        metrics.push_back({"wall_s_1t", best_pass(of_kind(PassKind::one)), "s"});
        metrics.push_back({"wall_s_1t_p50", median_pass(of_kind(PassKind::one)), "s"});
    }
    if (!window_latencies.empty()) {
        metrics.push_back({"window_p50_ms", 1e3 * percentile(window_latencies, 0.5), "ms"});
        metrics.push_back({"window_p90_ms", 1e3 * percentile(window_latencies, 0.9), "ms"});
    }
    if (reference) w.quality(*reference, metrics);
    metrics.push_back({"fail_frac",
                       gates.attempted > 0 ? static_cast<double>(gates.failed) /
                                                 static_cast<double>(gates.attempted)
                                           : 1.0,
                       "fraction"});

    // ---- traced run: layer metrics from the spans --------------------------
    const std::vector<double> self = tracer.self_times();
    const auto ids = [&](PassKind k) {
        std::vector<int> v;
        for (const PassRecord* p : select(of_kind(k))) v.push_back(p->id);
        return v;
    };
    if (opt.trace && reference) {
        metrics.insert(metrics.end(), replay_metrics.begin(), replay_metrics.end());
        LayerQuery q;
        q.traced_n = [&](const std::string& span) {
            return best_sum(span_reps(tracer, self, ids(PassKind::n_traced), span, false));
        };
        q.traced_1 = [&](const std::string& span) {
            return best_sum(span_reps(tracer, self, ids(PassKind::one_traced), span, false));
        };
        q.replay = [&](const std::string& span) {
            return best_sum(span_reps(tracer, self, replay_ids, span, false));
        };
        w.layers(*reference, q, metrics);
        const double traced_wall = best_pass(of_kind(PassKind::n_traced));
        metrics.push_back({"util.trace_overhead_frac",
                           wall_n > 0.0 ? (traced_wall - wall_n) / wall_n : 0.0, "fraction"});
        double cpu = 0.0, wall = 0.0;
        for (const PassRecord* p : select(of_kind(PassKind::n))) {
            cpu += p->cpu;
            wall += p->wall;
        }
        metrics.push_back({"util.cpu_util", wall > 0.0 ? cpu / (wall * n_threads) : 0.0,
                           "fraction"});
    }
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

    // ---- human-readable output ---------------------------------------------
    const std::size_t n_passes = select(of_kind(PassKind::n)).size();
    const std::size_t one_passes =
        select(of_kind(PassKind::one)).size() + select(of_kind(PassKind::one_traced)).size();
    std::printf("perfbench %s seed %llu: %zu setups, %zu N-thread passes (N=%u), %zu 1-thread "
                "passes%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), setups.size(),
                n_passes, n_threads, one_passes, opt.trace ? " (traced run)" : "");
    for (const Metric& m : metrics)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  gates: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(gates.attempted),
                static_cast<unsigned long long>(gates.failed));
    for (const auto& f : gates.first_failures) std::printf("  FAILED: %s\n", f.c_str());

    // Per-layer table: per span name, the best-repetition sum of its total
    // and self time over the traced N-thread passes (replay spans: over the
    // replays), and its share of wall_s.
    if (opt.trace) {
        std::map<std::string, std::vector<int>> names;  // span name -> pass ids
        const std::vector<int> traced_ids = ids(PassKind::n_traced);
        for (const Span& sp : tracer.spans()) {
            const bool replayed =
                std::find(replay_ids.begin(), replay_ids.end(), sp.pass) != replay_ids.end();
            names.try_emplace(sp.name, replayed ? replay_ids : traced_ids);
        }
        std::printf("  per-layer spans (best-repetition sums; share of wall_s):\n");
        std::printf("  %-26s %8s %12s %12s %8s\n", "span", "calls", "total_s", "self_s", "share");
        for (const auto& [name, pass_ids] : names) {
            const auto total = span_reps(tracer, self, pass_ids, name, false);
            const double t = best_sum(total);
            std::printf("  %-26s %8zu %12.6f %12.6f %7.1f%%\n", name.c_str(),
                        total.empty() ? 0 : total.front().size(), t,
                        best_sum(span_reps(tracer, self, pass_ids, name, true)),
                        wall_n > 0.0 ? 100.0 * t / wall_n : 0.0);
        }
        if (!opt.spans_path.empty()) {
            std::FILE* f = std::fopen(opt.spans_path.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_path.c_str());
                return 1;
            }
            std::fprintf(f, "[\n");
            for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
                const Span& sp = tracer.spans()[i];
                std::fprintf(f,
                             "  {\"id\": %zu, \"name\": %s, \"start\": %s, \"end\": %s, "
                             "\"parent\": %d, \"pass\": %d, \"self\": %s}%s\n",
                             i, json_string(sp.name).c_str(), json_number(sp.start).c_str(),
                             json_number(sp.end).c_str(), sp.parent, sp.pass,
                             json_number(self[i]).c_str(),
                             i + 1 < tracer.spans().size() ? "," : "");
            }
            std::fprintf(f, "]\n");
            std::fclose(f);
        }
    }

    // ---- machine-readable record (last line) -------------------------------
    std::vector<std::pair<std::string, std::string>> config;
    w.describe(config);
    std::string rec = "{\"workload\": " + json_string(opt.workload) +
                      ", \"seed\": " + std::to_string(opt.seed) +
                      ", \"trace\": " + (opt.trace ? "1" : "0") +
                      ", \"size\": " + json_string(opt.tiny ? "tiny" : "full");
    rec += ", \"stamp\": {\"git_rev\": " + json_string(opt.rev) +
           ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
           ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"threads\": " + std::to_string(n_threads) +
           ", \"simd_path\": " + json_string(util::simd_path_name(util::active_simd_path())) +
           ", \"cpu_features\": " + json_string(util::cpu_feature_string()) +
           ", \"host_class\": " + json_string(host_class()) + "}";
    rec += ", \"config\": {";
    for (std::size_t i = 0; i < config.size(); ++i)
        rec += (i ? ", " : "") + json_string(config[i].first) + ": " +
               json_string(config[i].second);
    rec += "}, \"samples\": {\"setups\": " + std::to_string(setups.size()) +
           ", \"passes_n\": " + std::to_string(n_passes) +
           ", \"passes_1t\": " + std::to_string(one_passes) +
           ", \"windows\": " + std::to_string(window_latencies.size()) + "}";
    rec += ", \"attempted\": " + std::to_string(gates.attempted) +
           ", \"failed\": " + std::to_string(gates.failed) + ", \"gate_failures\": [";
    for (std::size_t i = 0; i < gates.first_failures.size(); ++i)
        rec += (i ? ", " : "") + json_string(gates.first_failures[i]);
    rec += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        rec += (i ? ", " : "") + json_string(metrics[i].name) +
               ": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    rec += "}}";
    std::printf("RECORD %s\n", rec.c_str());
    std::fflush(stdout);
    return gates.failed == 0 && gates.attempted > 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --workload analyze|sweep|sweep_crn|contend|track\n"
                 "       [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]\n"
                 "       [--rev REV] [--spans FILE] [--work DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("option " + flag + " needs a value");
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") o.workload = v;
            else if (flag == "--seed") o.seed = std::stoull(v);
            else if (flag == "--seconds") o.seconds = std::stod(v);
            else if (flag == "--trace") o.trace = std::stoi(v) != 0;
            else if (flag == "--size" && (v == "full" || v == "tiny")) o.tiny = v == "tiny";
            else if (flag == "--rev") o.rev = v;
            else if (flag == "--spans") o.spans_path = v;
            else if (flag == "--work") o.work_dir = v;
            else usage("bad option " + flag + " " + v);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    try {
        if (opt.workload == "analyze") {
            AnalyzeWorkload w(opt.tiny, opt.seed,
                              std::filesystem::path(opt.work_dir) /
                                  ("analyze-" + std::to_string(getpid())));
            const int rc = run_workload(w, opt);
            std::filesystem::remove_all(w.dir);
            return rc;
        }
        if (opt.workload == "sweep" || opt.workload == "sweep_crn") {
            SweepWorkload w(opt.tiny, opt.seed, opt.workload == "sweep_crn");
            return run_workload(w, opt);
        }
        if (opt.workload == "contend") {
            ContendWorkload w(opt.tiny, opt.seed);
            return run_workload(w, opt);
        }
        if (opt.workload == "track") {
            TrackWorkload w(opt.tiny, opt.seed);
            return run_workload(w, opt);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    usage("unknown workload '" + opt.workload + "'");
}
