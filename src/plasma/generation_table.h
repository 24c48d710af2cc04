// GenerationTable — per-object-slot generation counters published in
// disaggregated memory (the mapped data plane's validation protocol).
//
// The zero-RPC remote read path hands clients (node, region, offset,
// size, generation) descriptors and takes no pin at the home. Nothing stops
// the home store from evicting, spilling, deleting, or re-creating the
// object while a reader is still copying from the mapped region — so
// every id hashes to a slot in this table, and the home store BUMPS the
// slot on every transition that (re)binds or invalidates the id's bytes:
// seal, destructive evict, spill, spill-restore re-insert, delete. A
// mapped reader copies the payload, then re-reads the slot seqlock-style:
// an unchanged generation proves no such transition overlapped the copy;
// a changed one makes the reader reissue the Get for a fresh descriptor.
//
// Slots are plain 64-bit atomics (no seqlock of their own — a bump is a
// single fetch_add), so unlike the shared index the table needs no
// single-writer serialization: any shard may bump concurrently. Ids that
// collide into one slot merely cause spurious invalidation (a safe
// fallback), never a false validation.
//
// The header carries an EPOCH, incremented by the node every time the
// table is re-created in place (store restart). A restarted store's
// counters restart near zero, so without the epoch a stale descriptor
// could validate against the new incarnation by accident; readers check
// epoch and generation together.
//
// Layout (all little-endian u64, 8-byte aligned):
//   header (64 bytes): [0] magic  [1] capacity (power of two)  [2] epoch
//   slots: capacity * 8-byte generation counters
//
// Thread-safety: all cross-thread access goes through std::atomic_ref,
// so the table is TSan-clean by construction and needs no mutex — the
// callers' ordering obligations (bump before freeing the bytes, read
// generation after copying them) are documented at the call sites.
#pragma once

#include <cstdint>
#include <optional>

#include "common/object_id.h"
#include "common/status.h"
#include "tf/latency_model.h"

namespace mdos::plasma {

struct GenerationTableLayout {
  static constexpr uint64_t kMagic = 0x314E45474F53444DULL;  // "MDOSGEN1"
  static constexpr uint64_t kHeaderBytes = 64;
  static constexpr uint64_t kSlotBytes = 8;

  // Largest power-of-two slot count that fits in `bytes`; 0 if too small.
  static uint64_t CapacityFor(uint64_t bytes);
  static uint64_t BytesFor(uint64_t capacity) {
    return kHeaderBytes + capacity * kSlotBytes;
  }
};

// Writer handle owned by the home node (one per store). Bumps are plain
// atomic increments and may be issued from any shard thread.
class GenerationTable {
 public:
  GenerationTable() = default;

  // Formats `bytes` of `memory` in place with the given epoch and
  // returns a writer over it. The epoch is the caller's restart counter:
  // the cluster layer passes a value that strictly increases across
  // re-creations on the same fabric region.
  static Result<GenerationTable> Create(uint8_t* memory, uint64_t bytes,
                                        uint64_t epoch);

  uint64_t capacity() const { return capacity_; }
  uint64_t epoch() const { return epoch_; }

  // Deterministic slot for an id (shared with remote readers).
  uint64_t SlotFor(const ObjectId& id) const;

  // Increments the id's slot and returns the NEW generation. seq_cst so
  // the bump is globally ordered against the shared-index update made in
  // the same critical section.
  uint64_t Bump(const ObjectId& id);

  // Current generation of the id's slot (descriptor stamping).
  uint64_t Read(const ObjectId& id) const;

 private:
  GenerationTable(uint8_t* slots, uint64_t capacity, uint64_t epoch);

  uint8_t* slots_ = nullptr;
  uint64_t capacity_ = 0;
  uint64_t epoch_ = 0;
};

// Reader handle over a peer's table reached through an attached fabric
// region. Each slot read is one 8-byte remote access and is charged to
// the latency model, like a shared-index probe.
class GenerationReader {
 public:
  GenerationReader() = default;

  static Result<GenerationReader> Open(const uint8_t* memory,
                                       uint64_t bytes,
                                       tf::LatencyParams latency);

  uint64_t capacity() const { return capacity_; }
  uint64_t SlotFor(const ObjectId& id) const;

  // Current generation of `slot` (acquire load + modelled latency).
  // With `batch` set, the access is recorded there instead of stalling
  // inline — for callers probing many independent slots in one wave.
  uint64_t Read(uint64_t slot, tf::AccessBatch* batch = nullptr) const;

  // Re-reads the epoch from the mapped header: a restarted home store
  // re-creates the table with a higher epoch, so cached descriptors and
  // cached readers both fail validation instead of matching counters
  // from the wrong incarnation.
  uint64_t Epoch(tf::AccessBatch* batch = nullptr) const;

 private:
  GenerationReader(const uint8_t* header, uint64_t capacity,
                   tf::LatencyParams latency);

  const uint8_t* header_ = nullptr;  // mapped table base (header start)
  const uint8_t* slots_ = nullptr;
  uint64_t capacity_ = 0;
  tf::LatencyParams latency_;
};

}  // namespace mdos::plasma
