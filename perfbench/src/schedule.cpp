#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/crc32.h"

namespace perfbench {
namespace {

constexpr int64_t kMs = 1000 * 1000;
constexpr double kZipfS = 0.99;  // popularity skew of every workload

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  // The end-to-end workload: every put and delete blocks its node's only
  // shard for several simulated RTTs, and a third of the gets are remote.
  WorkloadSpec mixed;
  mixed.name = "mixed";
  mixed.nodes = 3;
  mixed.replication = 2;
  mixed.paper_model = true;
  mixed.rtt_ns = 2 * kMs;
  mixed.shared_index = true;
  mixed.pool_bytes = 64ull << 20;
  mixed.slots = 640;
  mixed.empty_slots = 64;
  mixed.size_dist = SizeDist::kPaperClasses;
  mixed.get_pm = 800;
  mixed.put_pm = 100;
  mixed.delete_pm = 100;
  mixed.open_rate_ops_s = 400;
  mixed.trace_every = 1;
  out.push_back(mixed);

  // Nothing is modelled, so all time is client, socket, store and copy
  // code.
  WorkloadSpec hot;
  hot.name = "cpu-hot";
  hot.nodes = 2;
  hot.replication = 1;
  hot.paper_model = false;
  hot.rtt_ns = 0;
  hot.shared_index = true;
  hot.pool_bytes = 64ull << 20;
  hot.slots = 4096;
  hot.empty_slots = 256;
  hot.size_dist = SizeDist::kUniform;
  hot.size_lo = 1024;
  hot.size_hi = 16384;
  hot.get_pm = 900;
  hot.put_pm = 50;
  hot.delete_pm = 50;
  hot.workers = 2;
  hot.depth = 16;
  hot.trace_every = 32;
  out.push_back(hot);

  // Larger than memory: Zipf tail reads restore from disk, rewrites evict.
  WorkloadSpec spill;
  spill.name = "spill";
  spill.nodes = 2;
  spill.replication = 1;
  spill.paper_model = true;
  spill.rtt_ns = 2 * kMs;
  spill.shared_index = false;
  spill.spill = true;
  spill.pool_bytes = 24ull << 20;
  // 3 x 24 MiB per node of objects averaging 640 KiB.
  spill.slots = 2 * (3 * 24 * 1024 / 640);
  spill.size_dist = SizeDist::kUniform;
  spill.size_lo = 256 * 1024;
  spill.size_hi = 1024 * 1024;
  spill.get_pm = 900;
  spill.rewrite_pm = 100;
  spill.workers = 2;
  spill.depth = 2;
  spill.trace_every = 1;
  out.push_back(spill);

  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t NameHash(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double UnitDouble(mdos::SplitMix64& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

}  // namespace

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kGet: return "get";
    case OpType::kPut: return "put";
    case OpType::kDelete: return "delete";
    case OpType::kRewrite: return "rewrite";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const auto& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const auto& spec : Workloads()) names.push_back(spec.name);
  return names;
}

Schedule::Schedule(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(Mix(seed) ^ Mix(NameHash(spec.name))) {
  const uint32_t n = spec.slots;
  zipf_cdf_.resize(n);
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    zipf_cdf_[r] = total;
  }
  for (double& c : zipf_cdf_) c /= total;

  // Popularity ranks land on slots in a seeded order, so hot keys are
  // spread over nodes rather than clustered at low slot numbers.
  rank_to_slot_.resize(n);
  for (uint32_t i = 0; i < n; ++i) rank_to_slot_[i] = i;
  Shuffle(&rank_to_slot_);
  slot_rank_.resize(n);
  for (uint32_t r = 0; r < n; ++r) slot_rank_[rank_to_slot_[r]] = r;

  // The least popular `empty_slots` ranks start empty.
  slots_.resize(n);
  initial_.resize(n);
  churn_.resize(spec.nodes);
  for (uint32_t r = 0; r < n; ++r) {
    uint32_t slot = rank_to_slot_[r];
    SlotGen& s = slots_[slot];
    if (r + spec.empty_slots < n) {
      s.live = true;
      s.version = 1;
      s.size = SizeFor(slot, 1);
      // Popularity ranks alternate over the nodes, so no seed piles the
      // Zipf head onto one store.
      s.home = static_cast<uint8_t>(r % spec.nodes);
      if (r >= n / 2) AddChurn(slot);
    } else {
      empty_.push_back(slot);
    }
    initial_[slot] = SlotInit{s.live, s.version, s.size, s.home};
  }
}

uint32_t Schedule::SizeFor(uint32_t slot, uint32_t version) const {
  // Sizes follow popularity rank, not the seed: every seed then puts the
  // same byte volume on the Zipf head, and seeds differ only in the op
  // sequence, node placement and arrival times.
  const uint32_t rank = slot_rank_[slot];
  if (spec_.size_dist == SizeDist::kPaperClasses) {
    // Each run of 20 ranks holds 15 x 4 KiB, 4 x 64 KiB and 1 x 1 MiB.
    switch (rank % 20) {
      case 10: return 1 << 20;
      case 2: case 7: case 12: case 17: return 64 << 10;
      default: return 4 << 10;
    }
  }
  // Low-discrepancy spread over [size_lo, size_hi]; versions shift it.
  double x = (rank + 1) * 0.6180339887498949 + version * 0.0137;
  double frac = x - std::floor(x);
  return spec_.size_lo + static_cast<uint32_t>(
                             frac * (spec_.size_hi - spec_.size_lo));
}

uint32_t Schedule::DrawZipfSlot() {
  double u = UnitDouble(rng_);
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  size_t rank = std::min<size_t>(it - zipf_cdf_.begin(), zipf_cdf_.size() - 1);
  return rank_to_slot_[rank];
}

Op Schedule::MakeGet() {
  uint32_t slot = DrawZipfSlot();
  while (!slots_[slot].live) slot = DrawZipfSlot();
  SlotGen& s = slots_[slot];
  Op op;
  op.type = OpType::kGet;
  op.slot = slot;
  op.version = s.version;
  op.size = s.size;
  op.writes_before = s.writes;
  op.node = static_cast<uint8_t>(rng_.NextBelow(spec_.nodes));
  ++s.gets_since_write;
  return op;
}

void Schedule::AddChurn(uint32_t slot) {
  std::vector<uint32_t>& churn = churn_[slots_[slot].home];
  slots_[slot].churn_index = static_cast<uint32_t>(churn.size());
  churn.push_back(slot);
}

uint8_t Schedule::NextNode(NodeCycle* cycle) {
  if (cycle->next == cycle->order.size()) {
    cycle->order.resize(spec_.nodes);
    for (uint32_t n = 0; n < spec_.nodes; ++n) cycle->order[n] = n;
    Shuffle(&cycle->order);
    cycle->next = 0;
  }
  return cycle->order[cycle->next++];
}

template <typename T>
void Schedule::Shuffle(std::vector<T>* items) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng_.NextBelow(i)]);
  }
}

Op Schedule::MakeDelete() {
  uint8_t node = NextNode(&delete_cycle_);
  while (churn_[node].empty()) node = (node + 1) % spec_.nodes;
  std::vector<uint32_t>& churn = churn_[node];
  uint32_t slot = churn[rng_.NextBelow(churn.size())];
  SlotGen& s = slots_[slot];
  Op op;
  op.type = OpType::kDelete;
  op.slot = slot;
  op.version = s.version;
  op.size = s.size;
  op.writes_before = s.writes;
  op.gets_before = s.gets_since_write;
  op.node = s.home;  // only the owning store deletes
  ++s.writes;
  s.gets_since_write = 0;
  s.live = false;
  uint32_t moved = churn.back();
  churn[s.churn_index] = moved;
  slots_[moved].churn_index = s.churn_index;
  churn.pop_back();
  empty_.push_back(slot);
  return op;
}

Op Schedule::MakePut() {
  uint32_t slot = empty_.front();
  empty_.pop_front();
  SlotGen& s = slots_[slot];
  Op op;
  op.type = OpType::kPut;
  op.slot = slot;
  op.writes_before = s.writes;
  op.gets_before = s.gets_since_write;
  s.version += 1;
  s.size = SizeFor(slot, s.version);
  s.home = NextNode(&put_cycle_);
  s.live = true;
  AddChurn(slot);
  ++s.writes;
  s.gets_since_write = 0;
  op.version = s.version;
  op.size = s.size;
  op.node = s.home;
  return op;
}

Op Schedule::MakeRewrite() {
  // Rewrite workloads have no deletes, so every slot is live.
  uint32_t slot = static_cast<uint32_t>(rng_.NextBelow(slots_.size()));
  SlotGen& s = slots_[slot];
  Op op;
  op.type = OpType::kRewrite;
  op.slot = slot;
  op.writes_before = s.writes;
  op.gets_before = s.gets_since_write;
  op.node = s.home;  // delete and re-put on the owning store
  s.version += 1;
  s.size = SizeFor(slot, s.version);
  ++s.writes;
  s.gets_since_write = 0;
  op.version = s.version;
  op.size = s.size;
  return op;
}

Op Schedule::Next() {
  if (block_next_ == block_.size()) {
    // A fresh block of kBlockOps ops holding the mix exactly, shuffled.
    block_.clear();
    block_.insert(block_.end(), spec_.get_pm * kBlockOps / 1000, OpType::kGet);
    block_.insert(block_.end(), spec_.put_pm * kBlockOps / 1000, OpType::kPut);
    block_.insert(block_.end(), spec_.delete_pm * kBlockOps / 1000,
                  OpType::kDelete);
    block_.insert(block_.end(), spec_.rewrite_pm * kBlockOps / 1000,
                  OpType::kRewrite);
    Shuffle(&block_);
    block_next_ = 0;
  }
  Op op;
  switch (block_[block_next_++]) {
    case OpType::kGet:
      op = MakeGet();
      break;
    case OpType::kPut:
      // A put needs an emptied slot; with none left it empties one instead.
      op = empty_.empty() ? MakeDelete() : MakePut();
      break;
    case OpType::kDelete:
      // Keep the live set from draining: past twice the initial number of
      // empty slots a delete refills one instead.
      op = empty_.size() >= 2 * std::max<size_t>(spec_.empty_slots, 1)
               ? MakePut()
               : MakeDelete();
      break;
    case OpType::kRewrite:
      op = MakeRewrite();
      break;
  }
  op.seq = seq_++;
  if (spec_.open_loop()) {
    double u = UnitDouble(rng_);
    clock_ns_ += -std::log1p(-u) / spec_.open_rate_ops_s * 1e9;
    op.sched_ns = static_cast<int64_t>(clock_ns_);
  }
  return op;
}

PayloadSource::PayloadSource(uint64_t seed, uint32_t max_size)
    : pool_(size_t{max_size} + kOffsets * 8) {
  mdos::SplitMix64(Mix(seed ^ 0x7061796c6f6164ull)).Fill(pool_.data(),
                                                         pool_.size());
}

void PayloadSource::Header(uint32_t slot, uint32_t version,
                           uint8_t out[kHeaderBytes]) const {
  uint64_t words[2] = {slot, version};
  std::memcpy(out, words, kHeaderBytes);
}

const uint8_t* PayloadSource::Body(uint32_t slot, uint32_t version) const {
  uint64_t offset = Mix((uint64_t{slot} << 32) | version) % kOffsets * 8;
  return pool_.data() + offset;
}

uint32_t PayloadSource::Crc(uint32_t slot, uint32_t version,
                            uint32_t size) const {
  uint8_t header[kHeaderBytes];
  Header(slot, version, header);
  uint32_t crc = mdos::Crc32(header, kHeaderBytes);
  return mdos::Crc32Update(crc, Body(slot, version), size - kHeaderBytes);
}

mdos::ObjectId IdFor(uint32_t slot, uint32_t version) {
  // Pseudo-random bytes: the store hashes ids by their leading bytes.
  char bytes[mdos::ObjectId::kSize];
  mdos::SplitMix64(Mix((uint64_t{slot} << 32) | version))
      .Fill(bytes, sizeof(bytes));
  return mdos::ObjectId::FromBinary(std::string_view(bytes, sizeof(bytes)));
}

uint64_t ScheduleHash(const WorkloadSpec& spec, uint64_t seed, uint64_t ops) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  Schedule schedule(spec, seed);
  for (const SlotInit& s : schedule.initial()) {
    feed(s.live);
    feed(s.version);
    feed(s.size);
    feed(s.home);
  }
  for (uint64_t i = 0; i < ops; ++i) {
    Op op = schedule.Next();
    feed(op.seq);
    feed(static_cast<uint64_t>(op.sched_ns));
    feed(op.slot);
    feed(op.version);
    feed(op.size);
    feed(op.writes_before);
    feed(op.gets_before);
    feed(static_cast<uint64_t>(op.type));
    feed(op.node);
  }
  return h;
}

}  // namespace perfbench
