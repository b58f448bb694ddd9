// AVX2 lane kernels: lattice_kernels_vec.inc at 4 doubles per vector op.
#define CCAP_VEC_DOUBLES 4
#include "lattice_kernels_vec.inc"

const ccap::info::LaneKernels* ccap::info::lane_kernels_avx2() noexcept {
    static constexpr LaneKernels kTable = vec_kernel_table("avx2", util::SimdPath::avx2);
    return &kTable;
}
