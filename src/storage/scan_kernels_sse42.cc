// SSE4.2 tier of the fused scan kernels. This TU is compiled with
// -msse4.2 (see src/CMakeLists.txt); nothing here may be inlined into
// callers built without that flag, which is why the entry points live
// behind out-of-line functions in simd_detail.

#include "storage/scan_kernels_impl.h"

namespace assess {
namespace simd_detail {

void FusedScanSse42(const FusedScanArgs& args, int64_t begin, int64_t end,
                    AggState* state) {
  kernel_detail::FusedScanImpl<kernel_detail::IsaSse42>(args, begin, end,
                                                        state);
}

void OwnedScanSse42(const FusedScanArgs& args, int64_t begin, int64_t end,
                    const KeyPartition& part, OwnedAggState* state) {
  kernel_detail::OwnedScanImpl<kernel_detail::IsaSse42>(args, begin, end, part,
                                                        state);
}

void MinMaxInt32Sse42(const int32_t* values, int64_t n, int32_t* min_out,
                      int32_t* max_out) {
  kernel_detail::IsaSse42::MinMax(values, n, min_out, max_out);
}

}  // namespace simd_detail
}  // namespace assess
