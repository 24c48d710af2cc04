// Unit tests for both allocators (first-fit ordered-map and dlmalloc-style
// segregated-fit).
#include <gtest/gtest.h>

#include <memory>

#include "alloc/first_fit_allocator.h"
#include "alloc/segregated_fit_allocator.h"

namespace mdos::alloc {
namespace {

// Both allocators must satisfy the same contract; run the shared suite
// against each implementation.
enum class Kind { kFirstFit, kSegregatedFit };

std::unique_ptr<Allocator> Make(Kind kind, uint64_t capacity) {
  if (kind == Kind::kFirstFit) {
    return std::make_unique<FirstFitAllocator>(capacity);
  }
  return std::make_unique<SegregatedFitAllocator>(capacity);
}

Status CheckInvariants(Kind kind, Allocator& a) {
  if (kind == Kind::kFirstFit) {
    return static_cast<FirstFitAllocator&>(a).CheckInvariants();
  }
  return static_cast<SegregatedFitAllocator&>(a).CheckInvariants();
}

class AllocatorContractTest : public ::testing::TestWithParam<Kind> {};

TEST_P(AllocatorContractTest, AllocateReturnsInBounds) {
  auto a = Make(GetParam(), 1 << 20);
  auto r = a->Allocate(1000);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->offset + 1000, (1u << 20) + 1);
  EXPECT_EQ(r->size, 1000u);
}

TEST_P(AllocatorContractTest, DefaultAlignmentIs64) {
  auto a = Make(GetParam(), 1 << 20);
  for (int i = 0; i < 10; ++i) {
    auto r = a->Allocate(100);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->offset % 64, 0u);
  }
}

TEST_P(AllocatorContractTest, ExplicitAlignmentRespected) {
  auto a = Make(GetParam(), 1 << 20);
  (void)a->Allocate(3);  // misalign the frontier
  auto r = a->Allocate(100, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->offset % 4096, 0u);
}

TEST_P(AllocatorContractTest, ZeroSizeRejected) {
  auto a = Make(GetParam(), 1 << 20);
  EXPECT_EQ(a->Allocate(0).status().code(), StatusCode::kInvalid);
}

TEST_P(AllocatorContractTest, NonPowerOfTwoAlignmentRejected) {
  auto a = Make(GetParam(), 1 << 20);
  EXPECT_EQ(a->Allocate(100, 3).status().code(), StatusCode::kInvalid);
}

TEST_P(AllocatorContractTest, ExhaustionReturnsOutOfMemory) {
  auto a = Make(GetParam(), 4096);
  auto r1 = a->Allocate(4096);
  ASSERT_TRUE(r1.ok());
  auto r2 = a->Allocate(1);
  EXPECT_EQ(r2.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(a->stats().failures, 1u);
}

TEST_P(AllocatorContractTest, FreeUnknownOffsetIsKeyError) {
  auto a = Make(GetParam(), 4096);
  EXPECT_EQ(a->Free(128).code(), StatusCode::kKeyError);
}

TEST_P(AllocatorContractTest, DoubleFreeRejected) {
  auto a = Make(GetParam(), 4096);
  auto r = a->Allocate(100);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(a->Free(r->offset).ok());
  EXPECT_EQ(a->Free(r->offset).code(), StatusCode::kKeyError);
}

TEST_P(AllocatorContractTest, FreeMakesSpaceReusable) {
  auto a = Make(GetParam(), 4096);
  auto r1 = a->Allocate(4096);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(a->Free(r1->offset).ok());
  auto r2 = a->Allocate(4096);
  EXPECT_TRUE(r2.ok());
}

TEST_P(AllocatorContractTest, CoalescingReassemblesWholeRegion) {
  auto a = Make(GetParam(), 1 << 16);
  std::vector<uint64_t> offsets;
  // Fill with 64 x 1 KiB allocations (64-byte aligned, exactly tiling).
  for (int i = 0; i < 64; ++i) {
    auto r = a->Allocate(1024);
    ASSERT_TRUE(r.ok());
    offsets.push_back(r->offset);
  }
  // Free in an interleaved order to exercise both-neighbour coalescing.
  for (int i = 0; i < 64; i += 2) ASSERT_TRUE(a->Free(offsets[i]).ok());
  for (int i = 1; i < 64; i += 2) ASSERT_TRUE(a->Free(offsets[i]).ok());
  auto s = a->stats();
  EXPECT_EQ(s.bytes_allocated, 0u);
  EXPECT_EQ(s.free_regions, 1u);
  EXPECT_EQ(s.largest_free_region, 1u << 16);
  // A single allocation of the full capacity must now succeed.
  EXPECT_TRUE(a->Allocate(1 << 16).ok());
}

TEST_P(AllocatorContractTest, StatsTrackLiveBytes) {
  auto a = Make(GetParam(), 1 << 20);
  auto r1 = a->Allocate(1000);
  auto r2 = a->Allocate(2000);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(a->stats().bytes_allocated, 3000u);
  EXPECT_EQ(a->stats().allocations, 2u);
  ASSERT_TRUE(a->Free(r1->offset).ok());
  EXPECT_EQ(a->stats().bytes_allocated, 2000u);
  EXPECT_EQ(a->stats().frees, 1u);
}

TEST_P(AllocatorContractTest, NoOverlapAcrossManyAllocations) {
  auto a = Make(GetParam(), 1 << 20);
  std::vector<Allocation> live;
  for (int i = 0; i < 200; ++i) {
    auto r = a->Allocate(64 + (i % 7) * 100);
    ASSERT_TRUE(r.ok());
    live.push_back(*r);
  }
  std::sort(live.begin(), live.end(),
            [](const Allocation& x, const Allocation& y) {
              return x.offset < y.offset;
            });
  for (size_t i = 1; i < live.size(); ++i) {
    EXPECT_LE(live[i - 1].offset + live[i - 1].size, live[i].offset);
  }
  EXPECT_TRUE(CheckInvariants(GetParam(), *a).ok());
}

TEST_P(AllocatorContractTest, InvariantsHoldAfterChurn) {
  auto a = Make(GetParam(), 1 << 18);
  std::vector<uint64_t> offsets;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 20; ++i) {
      auto r = a->Allocate(128 * (1 + (i + round) % 9));
      if (r.ok()) offsets.push_back(r->offset);
    }
    // Free every other live allocation.
    std::vector<uint64_t> keep;
    for (size_t i = 0; i < offsets.size(); ++i) {
      if (i % 2 == 0) {
        ASSERT_TRUE(a->Free(offsets[i]).ok());
      } else {
        keep.push_back(offsets[i]);
      }
    }
    offsets = std::move(keep);
    ASSERT_TRUE(CheckInvariants(GetParam(), *a).ok()) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Allocators, AllocatorContractTest,
                         ::testing::Values(Kind::kFirstFit,
                                           Kind::kSegregatedFit),
                         [](const auto& info) {
                           return info.param == Kind::kFirstFit
                                      ? "FirstFit"
                                      : "SegregatedFit";
                         });

TEST(FirstFitTest, NameMatchesPaperAllocator) {
  FirstFitAllocator a(1024);
  EXPECT_EQ(a.name(), "first_fit_ordered_map");
}

TEST(FirstFitTest, PicksSmallestAccommodatingRegion) {
  // Build free regions of sizes 64, 192 by allocate/free patterns, then
  // check a 128-byte request lands in the 192 region, not a larger one.
  FirstFitAllocator a(4096);
  auto r1 = a.Allocate(64);   // [0,64)
  auto r2 = a.Allocate(64);   // [64,128)
  auto r3 = a.Allocate(192);  // [128,320)
  auto r4 = a.Allocate(64);   // [320,384)
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok() && r4.ok());
  ASSERT_TRUE(a.Free(r1->offset).ok());  // free 64 @0
  ASSERT_TRUE(a.Free(r3->offset).ok());  // free 192 @128
  // Request 128: the 64-byte hole cannot fit; lower_bound lands on 192.
  auto r = a.Allocate(128);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->offset, r3->offset);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(SegregatedFitTest, BinIndexMonotoneAndBounded) {
  int prev = 0;
  for (uint64_t size = 16; size < (1ull << 40); size *= 2) {
    int bin = SegregatedFitAllocator::BinIndex(size);
    EXPECT_GE(bin, prev);
    EXPECT_LT(bin, SegregatedFitAllocator::kNumBins);
    prev = bin;
  }
}

TEST(SegregatedFitTest, SmallBinsAreExactClasses) {
  EXPECT_EQ(SegregatedFitAllocator::BinIndex(16),
            SegregatedFitAllocator::BinIndex(31));
  EXPECT_NE(SegregatedFitAllocator::BinIndex(16),
            SegregatedFitAllocator::BinIndex(32));
}

}  // namespace
}  // namespace mdos::alloc
