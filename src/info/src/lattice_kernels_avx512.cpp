// AVX-512 lane kernels: lattice_kernels_vec.inc at 8 doubles per vector op.
#define CCAP_VEC_DOUBLES 8
#include "lattice_kernels_vec.inc"

const ccap::info::LaneKernels* ccap::info::lane_kernels_avx512() noexcept {
    static constexpr LaneKernels kTable = vec_kernel_table("avx512", util::SimdPath::avx512);
    return &kTable;
}
