// Arena — bump allocator over a caller-provided byte span.
//
// Used by tests that need scratch space inside a shared segment without
// full allocator bookkeeping.
#pragma once

#include <cstdint>

#include "common/status.h"

namespace mdos::alloc {

class Arena {
 public:
  Arena(uint8_t* base, uint64_t capacity)
      : base_(base), capacity_(capacity) {}

  // Returns a pointer to `size` bytes aligned to `alignment`, or nullptr
  // when exhausted.
  uint8_t* Allocate(uint64_t size, uint64_t alignment = 8);

  void Reset() { used_ = 0; }
  uint64_t used() const { return used_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t remaining() const { return capacity_ - used_; }

 private:
  uint8_t* base_;
  uint64_t capacity_;
  uint64_t used_ = 0;
};

}  // namespace mdos::alloc
