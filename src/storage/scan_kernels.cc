#include "storage/scan_kernels.h"

#include "storage/scan_kernels_impl.h"

namespace assess {

// Entry points of the tier TUs (compiled with -msse4.2 / -mavx2; only added
// to the build on x86-64, see src/CMakeLists.txt).
#if defined(ASSESS_SIMD_X86)
namespace simd_detail {
void FusedScanSse42(const FusedScanArgs& args, int64_t begin, int64_t end,
                    AggState* state);
void OwnedScanSse42(const FusedScanArgs& args, int64_t begin, int64_t end,
                    const KeyPartition& part, OwnedAggState* state);
void MinMaxInt32Sse42(const int32_t* values, int64_t n, int32_t* min_out,
                      int32_t* max_out);
void FusedScanAvx2(const FusedScanArgs& args, int64_t begin, int64_t end,
                   AggState* state);
void OwnedScanAvx2(const FusedScanArgs& args, int64_t begin, int64_t end,
                   const KeyPartition& part, OwnedAggState* state);
void MinMaxInt32Avx2(const int32_t* values, int64_t n, int32_t* min_out,
                     int32_t* max_out);
}  // namespace simd_detail
#endif

namespace {

void FusedScanScalar(const FusedScanArgs& args, int64_t begin, int64_t end,
                     AggState* state) {
  kernel_detail::FusedScanImpl<kernel_detail::IsaScalar>(args, begin, end,
                                                         state);
}

void OwnedScanScalar(const FusedScanArgs& args, int64_t begin, int64_t end,
                     const KeyPartition& part, OwnedAggState* state) {
  kernel_detail::OwnedScanImpl<kernel_detail::IsaScalar>(args, begin, end,
                                                         part, state);
}

}  // namespace

SimdLevel CompiledSimdLevel(SimdLevel level) {
#if defined(ASSESS_SIMD_X86)
  return level;
#else
  (void)level;
  return SimdLevel::kScalar;
#endif
}

FusedScanFn GetFusedScanKernel(SimdLevel level) {
#if defined(ASSESS_SIMD_X86)
  switch (level) {
    case SimdLevel::kAVX2:
      return &simd_detail::FusedScanAvx2;
    case SimdLevel::kSSE42:
      return &simd_detail::FusedScanSse42;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return &FusedScanScalar;
}

OwnedScanFn GetOwnedScanKernel(SimdLevel level) {
#if defined(ASSESS_SIMD_X86)
  switch (level) {
    case SimdLevel::kAVX2:
      return &simd_detail::OwnedScanAvx2;
    case SimdLevel::kSSE42:
      return &simd_detail::OwnedScanSse42;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return &OwnedScanScalar;
}

void InitOwnedAggState(const FusedScanArgs& args, const KeyPartition& part,
                       OwnedAggState* state) {
  const size_t slots = part.Slots(args.key_space);
  state->seen.assign(slots, 0);
  state->acc.resize(args.measures.size());
  state->cnt.resize(args.measures.size());
  for (size_t m = 0; m < args.measures.size(); ++m) {
    state->acc[m].assign(
        slots, kernel_detail::InitialAccumulator(args.measures[m].op));
    if (args.measures[m].op == AggOp::kAvg) state->cnt[m].assign(slots, 0);
  }
}

void MinMaxInt32(SimdLevel level, const int32_t* values, int64_t n,
                 int32_t* min_out, int32_t* max_out) {
#if defined(ASSESS_SIMD_X86)
  switch (level) {
    case SimdLevel::kAVX2:
      simd_detail::MinMaxInt32Avx2(values, n, min_out, max_out);
      return;
    case SimdLevel::kSSE42:
      simd_detail::MinMaxInt32Sse42(values, n, min_out, max_out);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  kernel_detail::IsaScalar::MinMax(values, n, min_out, max_out);
}

void DecodePackedCodes(const PackedColumn& packed, int64_t begin, int64_t end,
                       int32_t* out) {
  const uint8_t* base = packed.data();
  switch (packed.width()) {
    case PackedColumn::Width::kU8:
      for (int64_t r = begin; r < end; ++r) {
        out[r - begin] = base[r];
      }
      return;
    case PackedColumn::Width::kU16: {
      const uint16_t* src = reinterpret_cast<const uint16_t*>(base);
      for (int64_t r = begin; r < end; ++r) {
        out[r - begin] = src[r];
      }
      return;
    }
    case PackedColumn::Width::kU32: {
      const uint32_t* src = reinterpret_cast<const uint32_t*>(base);
      for (int64_t r = begin; r < end; ++r) {
        out[r - begin] = static_cast<int32_t>(src[r]);
      }
      return;
    }
  }
}

}  // namespace assess
