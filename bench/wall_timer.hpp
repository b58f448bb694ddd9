// Wall-clock stopwatch for the bench harnesses' timing columns.
//
// End-to-end timings of the commands users run live in perfbench/
// (BENCHMARK.json); the harnesses print their timings in their tables.
#pragma once

#include <chrono>

namespace ccap::bench {

/// Monotonic wall-clock stopwatch.
class WallTimer {
public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

}  // namespace ccap::bench
