// SharedIndex — object look-up through a shared data structure in
// disaggregated memory (paper §IV-A2 approach 1 / §V-B future work).
//
// The paper's prototype shares objects between stores via RPC and notes:
// "the performance of remote object sharing could potentially be
// improved with an elaborate solution leveraging shared data structures
// in disaggregated memory. This allows direct look-up of remote objects
// in disaggregated memory and would likely improve performance". This
// module implements that solution.
//
// The home store maintains an open-addressing hash table of its sealed
// objects inside a dedicated *exported* window of its slab. It only ever
// writes the table with local stores (which are coherent with remote
// readers under the OpenCAPI model, Fig. 3a); remote stores read the
// table directly over the fabric — a few hundred nanoseconds instead of
// a milliseconds-scale RPC.
//
// Concurrency: single writer at a time (any of the home store's shard
// threads, serialized by the store's index mutex), many remote readers.
// Every slot carries a seqlock: the writer bumps
// the sequence to odd before mutating and to even after; readers retry
// while the sequence is odd or changed mid-copy. Slot words are accessed
// through std::atomic_ref so the cross-"node" (cross-thread) accesses
// are well-defined in the simulator; on real hardware they would be
// plain loads/stores of remote-mapped memory.
//
// The paper's caveat applies and is inherited deliberately: an index hit
// followed by a concurrent delete at the home store can hand out a
// location whose buffer is being reused ("could result in corrupted
// object buffers if not handled carefully"). Index-path descriptors are
// therefore stamped from the home's generation table, and mapped readers
// re-check it after every copy, which closes that window.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/object_id.h"
#include "common/status.h"
#include "tf/latency_model.h"

namespace mdos::plasma {

// Location payload stored per object (region-relative pool offsets).
struct IndexedObject {
  uint64_t offset = 0;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
};

// On-memory layout constants shared by writer and reader.
struct SharedIndexLayout {
  static constexpr uint64_t kMagic = 0x4D444F5349445831;  // "MDOSIDX1"
  static constexpr uint64_t kHeaderBytes = 64;
  static constexpr uint64_t kSlotBytes = 64;

  // Bytes needed for a table of `capacity` slots.
  static uint64_t BytesFor(uint64_t capacity) {
    return kHeaderBytes + capacity * kSlotBytes;
  }
  // Largest power-of-two capacity fitting in `bytes`.
  static uint64_t CapacityFor(uint64_t bytes);
};

struct SharedIndexStats {
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t insert_failures = 0;  // table full
  uint64_t live = 0;
};

// Writer side — owned by the home store; all calls are made under the
// store's index mutex (one writer at a time; the sharded core's shard
// threads all publish through it).
class SharedIndexWriter {
 public:
  // Formats the table in `memory` (`bytes` long). Capacity is the
  // largest power of two that fits.
  static Result<SharedIndexWriter> Create(uint8_t* memory, uint64_t bytes);

  Status Insert(const ObjectId& id, const IndexedObject& object);
  Status Remove(const ObjectId& id);
  void Clear();

  uint64_t capacity() const { return capacity_; }
  SharedIndexStats stats() const { return stats_; }

 private:
  SharedIndexWriter(uint8_t* memory, uint64_t capacity);

  // Probe for id; returns slot index of the match or, for inserts, the
  // first reusable slot. UINT64_MAX when neither exists.
  uint64_t FindSlot(const ObjectId& id, bool for_insert) const;

  uint8_t* slots_ = nullptr;
  uint64_t capacity_ = 0;
  SharedIndexStats stats_;
};

// Reader side — held by a *remote* store. Reads the home node's memory
// directly; each probe pays the fabric latency model once.
class SharedIndexReader {
 public:
  // `memory` is the attached region's base pointer (unsafe_data());
  // `bytes` its size; `latency` the remote access model to charge.
  static Result<SharedIndexReader> Open(const uint8_t* memory,
                                        uint64_t bytes,
                                        tf::LatencyParams latency);

  // Copy/move transfer the probe count (the atomic member otherwise
  // deletes the defaults).
  SharedIndexReader(const SharedIndexReader& other)
      : slots_(other.slots_),
        capacity_(other.capacity_),
        latency_(other.latency_),
        probes_(other.probes_.load(std::memory_order_relaxed)) {}
  SharedIndexReader& operator=(const SharedIndexReader& other) {
    slots_ = other.slots_;
    capacity_ = other.capacity_;
    latency_ = other.latency_;
    probes_.store(other.probes_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  // Looks up `id`; nullopt when absent. Thread-safe: concurrent store
  // shards may probe the same peer index (probes_ is atomic). With
  // `batch` set, probe charges are recorded there instead of stalling
  // inline — for batched lookups of many independent ids.
  std::optional<IndexedObject> Lookup(const ObjectId& id,
                                      tf::AccessBatch* batch =
                                          nullptr) const;

  uint64_t capacity() const { return capacity_; }
  uint64_t probes() const {
    return probes_.load(std::memory_order_relaxed);
  }

 private:
  SharedIndexReader(const uint8_t* memory, uint64_t capacity,
                    tf::LatencyParams latency);

  const uint8_t* slots_ = nullptr;
  uint64_t capacity_ = 0;
  tf::LatencyParams latency_;
  mutable std::atomic<uint64_t> probes_{0};
};

// Internal: hash an id into the table (also used by tests).
uint64_t SharedIndexHash(const ObjectId& id);

}  // namespace mdos::plasma
