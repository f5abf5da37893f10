// AVX2 tier of the fused scan kernels. This TU is compiled with -mavx2
// (see src/CMakeLists.txt); the entry points are out-of-line so no AVX2
// code can leak into TUs built for the baseline ISA.

#include "storage/scan_kernels_impl.h"

namespace assess {
namespace simd_detail {

void FusedScanAvx2(const FusedScanArgs& args, int64_t begin, int64_t end,
                   AggState* state) {
  kernel_detail::FusedScanImpl<kernel_detail::IsaAvx2>(args, begin, end,
                                                       state);
}

void OwnedScanAvx2(const FusedScanArgs& args, int64_t begin, int64_t end,
                   const KeyPartition& part, OwnedAggState* state) {
  kernel_detail::OwnedScanImpl<kernel_detail::IsaAvx2>(args, begin, end, part,
                                                       state);
}

void MinMaxInt32Avx2(const int32_t* values, int64_t n, int32_t* min_out,
                     int32_t* max_out) {
  kernel_detail::IsaAvx2::MinMax(values, n, min_out, max_out);
}

}  // namespace simd_detail
}  // namespace assess
