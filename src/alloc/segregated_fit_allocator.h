// SegregatedFitAllocator — a dlmalloc-style baseline allocator.
//
// Approximates the structure of Doug Lea's malloc, which upstream Plasma
// uses: free blocks are binned by size class (exact small bins, then
// logarithmically spaced large bins); allocation picks the best-fitting
// block from the smallest non-empty eligible bin, splits the remainder,
// and frees coalesce with both neighbours (boundary-tag equivalent kept in
// external metadata). This is the comparison point for the paper's
// simple first-fit allocator (bench_alloc_ablation; docs/benchmarks.md,
// ablation A).
#pragma once

#include <array>
#include <map>
#include <set>
#include <unordered_map>

#include "alloc/allocator.h"

namespace mdos::alloc {

class SegregatedFitAllocator final : public Allocator {
 public:
  explicit SegregatedFitAllocator(uint64_t capacity);

  Result<Allocation> Allocate(uint64_t size, uint64_t alignment = 64)
      override;
  Status Free(uint64_t offset) override;
  AllocatorStats stats() const override;
  std::string name() const override { return "segregated_fit"; }

  Status CheckInvariants() const;

  // Exposed for tests: bin index for a given block size.
  static int BinIndex(uint64_t size);
  static constexpr int kNumBins = 64;
  // Sizes below this are served from exact-spaced small bins.
  static constexpr uint64_t kSmallThreshold = 512;
  static constexpr uint64_t kSmallGranularity = 16;

 private:
  struct LiveBlock {
    uint64_t block_offset;
    uint64_t block_size;
    uint64_t user_size;
  };

  void InsertFreeBlock(uint64_t offset, uint64_t size);
  void EraseFreeBlock(uint64_t offset, uint64_t size);

  const uint64_t capacity_;
  // Each bin holds (size, offset) pairs ordered so begin() is best fit.
  std::array<std::set<std::pair<uint64_t, uint64_t>>, kNumBins> bins_;
  uint64_t nonempty_bins_mask_ = 0;  // bit i set when bins_[i] non-empty
  std::map<uint64_t, uint64_t> by_offset_;  // offset -> size (free)
  std::unordered_map<uint64_t, LiveBlock> live_;
  AllocatorStats stats_;
};

}  // namespace mdos::alloc
