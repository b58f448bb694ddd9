// Scalar lane kernels: the bit-identity reference every vector path is
// tested against. This TU is compiled with the baseline architecture and
// -ffp-contract=off even under CCAP_NATIVE_ARCH (src/info/CMakeLists.txt
// overrides the target-level -march), so the reference semantics cannot
// drift with the build flags: one IEEE multiply, one IEEE add per term,
// exactly as written.
#include "ccap/info/lattice_simd.hpp"

namespace ccap::info {

namespace {

void k_axpy(double* __restrict dst, const double* __restrict src, double w, std::size_t L) {
    for (std::size_t l = 0; l < L; ++l) dst[l] += src[l] * w;
}

void k_fma_weighted(double* __restrict dst, const double* __restrict src, double dw,
                    double tw, const double* __restrict e, std::size_t L) {
    for (std::size_t l = 0; l < L; ++l) dst[l] += src[l] * (dw + tw * e[l]);
}

void k_accumulate(double* __restrict acc, const double* __restrict src, std::size_t rows,
                  std::size_t L) {
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t l = 0; l < L; ++l) acc[l] += src[r * L + l];
}

void k_maximum(double* __restrict acc, const double* __restrict src, std::size_t rows,
               std::size_t L) {
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t l = 0; l < L; ++l)
            acc[l] = acc[l] < src[r * L + l] ? src[r * L + l] : acc[l];
}

void k_divide(double* __restrict dst, const double* __restrict norm, std::size_t rows,
              std::size_t L) {
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t l = 0; l < L; ++l) dst[r * L + l] /= norm[l];
}

void k_select_const(double* __restrict ed, const std::uint8_t* __restrict sel, double v0,
                    double v1, std::size_t rows, std::size_t L) {
    for (std::size_t i = 0; i < rows * L; ++i) ed[i] = sel[i] ? v1 : v0;
}

void k_select_lanes(double* __restrict ed, const std::uint8_t* __restrict sel,
                    const double* __restrict e0, const double* __restrict e1,
                    std::size_t rows, std::size_t L) {
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t l = 0; l < L; ++l)
            ed[r * L + l] = sel[r * L + l] ? e1[l] : e0[l];
}

void k_fma_run(double* __restrict dst, const double* __restrict src,
               const double* __restrict dw, const double* __restrict tw,
               const double* __restrict e, std::size_t runs, std::size_t L) {
    for (std::size_t g = 0; g < runs; ++g) {
        double* __restrict d = dst + g * L;
        const double* __restrict eg = e + g * L;
        const double dwg = dw[g], twg = tw[g];
        for (std::size_t l = 0; l < L; ++l) d[l] += src[l] * (dwg + twg * eg[l]);
    }
}

void k_fma_acc_run(double* __restrict acc, const double* __restrict src,
                   const double* __restrict dw, const double* __restrict tw,
                   const double* __restrict e, std::size_t runs, std::size_t L) {
    for (std::size_t g = 0; g < runs; ++g) {
        const double* __restrict sg = src + g * L;
        const double* __restrict eg = e + g * L;
        const double dwg = dw[g], twg = tw[g];
        for (std::size_t l = 0; l < L; ++l) acc[l] += sg[l] * (dwg + twg * eg[l]);
    }
}

void k_fma_dest_run(double* __restrict dst, const double* __restrict src,
                    const double* __restrict dw, const double* __restrict tw,
                    const double* __restrict e, const double* __restrict src_del,
                    double w_del, std::size_t cnt, std::size_t cols, std::size_t L) {
    for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t o = c * L;
        for (std::size_t l = 0; l < L; ++l) {
            double a = 0.0;
            for (std::size_t i = 0; i < cnt; ++i) {
                const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i);
                a += src[o + i * L + l] * (dw[gi] + tw[gi] * e[o + l]);
            }
            if (src_del) a += src_del[o + l] * w_del;
            dst[o + l] = a;
        }
    }
}

void k_axpy_lanes(double* __restrict dst, const double* __restrict src,
                  const double* __restrict w, std::size_t L) {
    for (std::size_t l = 0; l < L; ++l) dst[l] += src[l] * w[l];
}

void k_fma_acc_run_pl(double* __restrict acc, const double* __restrict src,
                      const double* __restrict dw, const double* __restrict tw,
                      const double* __restrict e, std::size_t runs, std::size_t L) {
    for (std::size_t g = 0; g < runs; ++g) {
        const double* __restrict sg = src + g * L;
        const double* __restrict eg = e + g * L;
        const double* __restrict dwg = dw + g * L;
        const double* __restrict twg = tw + g * L;
        for (std::size_t l = 0; l < L; ++l) acc[l] += sg[l] * (dwg[l] + twg[l] * eg[l]);
    }
}

void k_fma_dest_run_pl(double* __restrict dst, const double* __restrict src,
                       const double* __restrict dw, const double* __restrict tw,
                       const double* __restrict e, const double* __restrict src_del,
                       const double* __restrict w_del, std::size_t cnt, std::size_t cols,
                       std::size_t L) {
    for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t o = c * L;
        for (std::size_t l = 0; l < L; ++l) {
            double a = 0.0;
            for (std::size_t i = 0; i < cnt; ++i) {
                const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i * L);
                a += src[o + i * L + l] * (dw[gi + static_cast<std::ptrdiff_t>(l)] +
                                           tw[gi + static_cast<std::ptrdiff_t>(l)] * e[o + l]);
            }
            if (src_del) a += src_del[o + l] * w_del[l];
            dst[o + l] = a;
        }
    }
}

constexpr LaneKernels kScalarKernels = {
    k_axpy,         k_fma_weighted, k_accumulate,        k_maximum, k_divide,
    k_select_const, k_select_lanes, k_fma_run,           k_fma_acc_run,
    k_fma_dest_run, k_axpy_lanes,   k_fma_acc_run_pl,    k_fma_dest_run_pl,
    "scalar",       1,              util::SimdPath::scalar,
};

}  // namespace

const LaneKernels* lane_kernels_scalar() noexcept { return &kScalarKernels; }

}  // namespace ccap::info
