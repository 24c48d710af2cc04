// Workload definitions and the seeded op schedule of the load generator.
//
// A workload is a cluster shape plus a traffic shape. The schedule is a
// pure function of (workload, seed): the initial key set, every op's
// slot, version, size, type and node, and (open loop) every scheduled
// send time. Nothing about it depends on timing, so two runs with one
// seed drive the store with identical inputs.
//
// Keys are "slots": a slot holds one live object version at a time. Its
// ObjectId is derived from (slot, version), so a rewrite never reuses an
// id that a peer may still hold a stale copy or lookup-cache entry of.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/object_id.h"
#include "common/rng.h"

namespace perfbench {

enum class OpType : uint8_t { kGet = 0, kPut = 1, kDelete = 2, kRewrite = 3 };
const char* OpTypeName(OpType type);

enum class SizeDist : uint8_t {
  kPaperClasses,  // 4 KiB / 64 KiB / 1 MiB at 75 / 20 / 5 % of ranks
  kUniform,       // spread evenly over [size_lo, size_hi]
};

struct WorkloadSpec {
  std::string name;

  // ---- cluster ----
  uint32_t nodes = 2;
  uint32_t replication = 1;
  bool paper_model = true;     // ScaledLocal/RemoteParams(0.5); else zeroed
  int64_t rtt_ns = 0;          // RegistryOptions::simulated_rtt_ns
  bool shared_index = false;
  bool spill = false;
  uint64_t pool_bytes = 64ull << 20;

  // ---- keyspace ----
  uint32_t slots = 1024;
  // The coldest `empty_slots` ranks start empty; deletes empty slots of
  // the colder half and puts refill them, oldest first. A workload has
  // either put/delete churn or rewrites, not both.
  uint32_t empty_slots = 0;
  SizeDist size_dist = SizeDist::kUniform;
  uint32_t size_lo = 4096;
  uint32_t size_hi = 4096;

  // ---- op mix, per mille (multiples of 50) ----
  uint32_t get_pm = 1000;
  uint32_t put_pm = 0;
  uint32_t delete_pm = 0;
  uint32_t rewrite_pm = 0;

  // ---- traffic ----
  // > 0: open loop, Poisson arrivals at this total rate, one generator
  // worker and connection per node. 0: closed loop, `workers` generator
  // workers, each with a connection to every node and `depth` ops in
  // flight.
  double open_rate_ops_s = 0;
  uint32_t workers = 1;
  uint32_t depth = 1;

  // Traced runs record the spans of every `trace_every`-th op.
  uint32_t trace_every = 1;

  bool open_loop() const { return open_rate_ops_s > 0; }
};

const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

struct Op {
  uint64_t seq = 0;      // position in the schedule; the op's trace id
  int64_t sched_ns = 0;  // open loop: send time, offset from window start
  uint32_t slot = 0;
  uint32_t version = 0;  // version read (get/delete) or written (put/rewrite)
  uint32_t size = 0;     // data bytes of that version
  // Per-slot serialisation: a get may start once `writes_before` writes
  // of its slot have completed; a write additionally waits until the
  // `gets_before` gets scheduled since the previous write have completed.
  uint32_t writes_before = 0;
  uint32_t gets_before = 0;
  OpType type = OpType::kGet;
  uint8_t node = 0;      // node whose store the op is sent to
};

// State of one slot before the first op.
struct SlotInit {
  bool live = false;
  uint32_t version = 0;
  uint32_t size = 0;
  uint8_t home = 0;
};

class Schedule {
 public:
  Schedule(const WorkloadSpec& spec, uint64_t seed);

  const std::vector<SlotInit>& initial() const { return initial_; }
  // The next op; deterministic in (spec, seed) and the number of prior
  // calls.
  Op Next();

 private:
  // Ops are drawn in shuffled blocks of kBlockOps that hold the op mix
  // exactly, and put homes and delete targets cycle through shuffled node
  // orders: stratified draws with the stated marginals, so no seed gets a
  // burst of writes on one node that the mix would not average out.
  static constexpr uint32_t kBlockOps = 20;
  struct NodeCycle {
    std::vector<uint8_t> order;
    size_t next = 0;
  };
  uint8_t NextNode(NodeCycle* cycle);
  template <typename T>
  void Shuffle(std::vector<T>* items);

  uint32_t SizeFor(uint32_t slot, uint32_t version) const;
  uint32_t DrawZipfSlot();
  Op MakeGet();
  Op MakeDelete();
  Op MakePut();
  Op MakeRewrite();

  const WorkloadSpec& spec_;
  mdos::SplitMix64 rng_;
  std::vector<double> zipf_cdf_;
  std::vector<uint32_t> rank_to_slot_;
  std::vector<uint32_t> slot_rank_;
  std::vector<SlotInit> initial_;

  // Generation-time slot state.
  struct SlotGen {
    bool live = false;
    uint32_t version = 0;
    uint32_t size = 0;
    uint8_t home = 0;
    uint32_t writes = 0;
    uint32_t gets_since_write = 0;
    uint32_t churn_index = 0;  // position in churn_[home] while there
  };
  void AddChurn(uint32_t slot);

  std::vector<SlotGen> slots_;
  // Per home node, the live slots of the colder half of the ranks: the
  // delete targets, so churn never empties the Zipf head.
  std::vector<std::vector<uint32_t>> churn_;
  std::vector<OpType> block_;
  size_t block_next_ = 0;
  NodeCycle put_cycle_;
  NodeCycle delete_cycle_;
  std::deque<uint32_t> empty_;
  uint64_t seq_ = 0;
  double clock_ns_ = 0;
};

// Deterministic payload of (slot, version): a 16-byte header carrying the
// slot and version, then a seeded slice of a random pool chosen by both.
class PayloadSource {
 public:
  static constexpr uint32_t kHeaderBytes = 16;
  PayloadSource(uint64_t seed, uint32_t max_size);

  void Header(uint32_t slot, uint32_t version, uint8_t out[kHeaderBytes]) const;
  const uint8_t* Body(uint32_t slot, uint32_t version) const;
  uint32_t Crc(uint32_t slot, uint32_t version, uint32_t size) const;

 private:
  static constexpr uint32_t kOffsets = 4096;
  std::vector<uint8_t> pool_;
};

mdos::ObjectId IdFor(uint32_t slot, uint32_t version);

// FNV-1a over the initial key set and the first `ops` ops — the
// reproducibility fingerprint checked by the self-test.
uint64_t ScheduleHash(const WorkloadSpec& spec, uint64_t seed, uint64_t ops);

}  // namespace perfbench
