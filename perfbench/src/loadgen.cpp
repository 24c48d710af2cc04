// mdos_loadgen — the repo benchmark's in-process load generator.
//
//   mdos_loadgen --workload NAME --seed N --seconds S [--trace 0|1]
//                [--work-dir DIR]
//   mdos_loadgen --schedule-hash --workload NAME --seed N [--ops N]
//   mdos_loadgen --list
//
// Boots a cluster::Cluster shaped by the workload, pre-populates its key
// set, then drives it for S seconds through public client APIs only
// (AsyncClient, ObjectBuffer, the stats calls, and the node/fabric stats
// accessors). Every consumed buffer is checked against the generator's
// payload for that slot and version, and after the run each store's List
// must equal the generator's live set. It prints one `metric NAME VALUE
// UNIT` line per metric and, last, a JSON object with every metric, the
// host fingerprint and the correctness verdict.
//
// Per-layer timings are the generator's own spans around each call into
// a layer; counts are deltas of the stores' counters over the timed
// window. The window is cut into kSlices equal slices, and the
// end-to-end rates and medians are the median of their values in the
// quarter of the slices with the least hypervisor steal, so the host's
// other guests move them less than our code does. With
// --trace 1 every other slice also records every span of sampled ops
// into a preallocated buffer, written to DIR/traces/ when the run ends.
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define MDOS_BENCH_INSTRUMENTED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define MDOS_BENCH_INSTRUMENTED 1
#endif
#endif

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/deadline.h"
#include "common/log.h"
#include "metrics.h"
#include "plasma/async_client.h"
#include "schedule.h"
#include "tf/latency_model.h"

namespace perfbench {
namespace {

using mdos::Deadline;
using mdos::Future;
using mdos::ObjectId;
using mdos::Result;
using mdos::Status;
using mdos::StatusCode;
using mdos::plasma::AsyncClient;
using mdos::plasma::ObjectBuffer;

constexpr int kSetups = 5;               // setup_s is their median
constexpr int kSlices = 40;              // of the timed window
constexpr int kQuietSlices = kSlices / 4;  // the end-to-end figures' slices
constexpr int64_t kOpDeadlineMs = 10000;  // every op is bounded by this
constexpr int64_t kDrainLimitNs = 30ll * 1000 * 1000 * 1000;
constexpr size_t kTraceCapacity = 1 << 19;  // span records
constexpr double kPaperScale = 0.5;

int64_t Now() { return mdos::MonotonicNanos(); }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::chrono::steady_clock::time_point ToTimePoint(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "mdos_loadgen: %s\n", what.c_str());
  std::fflush(stderr);
  // No orderly teardown: store threads may be wedged on the failure.
  _exit(1);
}

// ---- spans ------------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanOp,
  kSpanQueue,
  kSpanCreate,
  kSpanWrite,
  kSpanSeal,
  kSpanGet,
  kSpanRead,
  kSpanRelease,
  kSpanDelete,
  kSpanCount
};
const char* const kSpanNames[kSpanCount] = {
    "op",          "gen.queue",  "plasma.create",  "tf.write",     "plasma.seal",
    "plasma.get",  "tf.read",    "plasma.release", "plasma.delete"};

struct SpanRecord {
  uint64_t op = 0;
  int64_t start = 0;
  int64_t end = 0;
  uint8_t name = kSpanOp;
};

// Preallocated span store for traced runs; appends an op's spans whole.
class TraceBuffer {
 public:
  void Reserve() { records_.reserve(kTraceCapacity); }
  void Append(const SpanRecord* spans, size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (records_.size() + n > kTraceCapacity) {
      dropped_ops_ += 1;
      return;
    }
    records_.insert(records_.end(), spans, spans + n);
  }
  const std::vector<SpanRecord>& records() const { return records_; }
  uint64_t dropped_ops() const { return dropped_ops_; }

 private:
  std::mutex mutex_;
  std::vector<SpanRecord> records_;
  uint64_t dropped_ops_ = 0;
};

// ---- cluster rig --------------------------------------------------------------

struct Rig {
  std::unique_ptr<mdos::cluster::Cluster> cluster;
  std::vector<std::unique_ptr<AsyncClient>> conns;
  std::vector<uint8_t> conn_node;
  std::string spill_root;

  AsyncClient& ConnFor(uint32_t node) {
    for (size_t i = 0; i < conns.size(); ++i) {
      if (conn_node[i] == node) return *conns[i];
    }
    Die("no connection to node " + std::to_string(node));
  }

  void Shutdown() {
    for (auto& conn : conns) (void)conn->Disconnect();
    conns.clear();
    if (cluster) cluster->Stop();
    cluster.reset();
    if (!spill_root.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(spill_root, ec);
    }
  }
};

mdos::tf::FabricConfig FabricFor(const WorkloadSpec& spec) {
  mdos::tf::FabricConfig fabric;
  if (spec.paper_model) {
    fabric.local = mdos::tf::ScaledLocalParams(kPaperScale);
    fabric.remote = mdos::tf::ScaledRemoteParams(kPaperScale);
  } else {
    fabric.local = mdos::tf::LatencyParams{0, 0};
    fabric.remote = mdos::tf::LatencyParams{0, 0};
  }
  return fabric;
}

Rig Boot(const WorkloadSpec& spec, uint64_t seed, const std::string& work_dir,
         int index) {
  Rig rig;
  rig.cluster =
      std::make_unique<mdos::cluster::Cluster>(FabricFor(spec), seed);
  if (spec.spill) {
    rig.spill_root = work_dir + "/spill-" + std::to_string(getpid()) + "-" +
                     std::to_string(index);
  }
  for (uint32_t n = 0; n < spec.nodes; ++n) {
    mdos::cluster::NodeOptions options;
    options.name = "node" + std::to_string(n);
    options.pool_size = spec.pool_bytes;
    if (spec.spill) {
      options.spill_dir = rig.spill_root + "/" + options.name;
      std::filesystem::create_directories(options.spill_dir);
    }
    // Every workload keeps the uniqueness probe and reads remote objects
    // through the mapped data plane.
    options.check_global_uniqueness = true;
    options.enable_shared_index = spec.shared_index;
    options.mapped_remote_reads = true;
    options.replication_factor = spec.replication;
    options.registry.simulated_rtt_ns = spec.rtt_ns;
    auto node = rig.cluster->AddNode(options);
    if (!node.ok()) Die("AddNode: " + node.status().ToString());
  }
  if (Status s = rig.cluster->StartAll(); !s.ok()) {
    Die("StartAll: " + s.ToString());
  }
  // Open loop: one connection per node. Closed loop: every worker has
  // its own connection to every node.
  uint32_t conns = spec.open_loop() ? spec.nodes : spec.workers * spec.nodes;
  for (uint32_t i = 0; i < conns; ++i) {
    uint32_t n = i % spec.nodes;
    mdos::plasma::ClientOptions options;
    options.client_name = "gen" + std::to_string(i);
    options.fabric = &rig.cluster->fabric();
    auto conn = AsyncClient::Connect(
        rig.cluster->node(n)->store().socket_path(), options);
    if (!conn.ok()) Die("connect: " + conn.status().ToString());
    rig.conns.push_back(std::move(conn).value());
    rig.conn_node.push_back(static_cast<uint8_t>(n));
  }
  return rig;
}

Status PutObject(AsyncClient& conn, const PayloadSource& payload,
                 uint32_t slot, uint32_t version, uint32_t size) {
  Deadline deadline = Deadline::AfterMs(kOpDeadlineMs);
  ObjectId id = IdFor(slot, version);
  auto buffer = conn.CreateAsync(id, size, 0, false, deadline).Take();
  if (!buffer.ok()) return buffer.status();
  uint8_t header[PayloadSource::kHeaderBytes];
  payload.Header(slot, version, header);
  MDOS_RETURN_IF_ERROR(buffer->WriteData(0, header, sizeof(header)));
  MDOS_RETURN_IF_ERROR(buffer->WriteData(sizeof(header),
                                         payload.Body(slot, version),
                                         size - sizeof(header)));
  return conn.SealAsync(id, deadline).Take();
}

// Writes every initially live slot from its home node, one thread per
// node (each store's single shard serialises its own puts anyway).
void Populate(Rig& rig, const WorkloadSpec& spec,
              const std::vector<SlotInit>& initial,
              const PayloadSource& payload) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(spec.nodes);
  for (uint32_t n = 0; n < spec.nodes; ++n) {
    threads.emplace_back([&, n] {
      AsyncClient& conn = rig.ConnFor(n);
      for (uint32_t slot = 0; slot < initial.size(); ++slot) {
        const SlotInit& s = initial[slot];
        if (!s.live || s.home != n) continue;
        Status put = PutObject(conn, payload, slot, s.version, s.size);
        if (!put.ok()) {
          errors[n] = "populate slot " + std::to_string(slot) + ": " +
                      put.ToString();
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) Die(e);
  }
}

// ---- counters read through the public stats surfaces --------------------------

struct Snapshot {
  std::vector<mdos::plasma::StoreStats> store;
  std::vector<mdos::dist::RegistryStats> registry;
  std::vector<mdos::rpc::ServerStats> rpc;
  mdos::tf::FabricStats fabric;
};

Snapshot TakeSnapshot(Rig& rig, const WorkloadSpec& spec) {
  Snapshot snap;
  for (uint32_t n = 0; n < spec.nodes; ++n) {
    auto stats = rig.ConnFor(n).StatsAsync().Take();
    if (!stats.ok()) Die("Stats: " + stats.status().ToString());
    snap.store.push_back(*stats);
    snap.registry.push_back(rig.cluster->node(n)->registry().stats());
    snap.rpc.push_back(rig.cluster->node(n)->rpc_server().stats());
  }
  snap.fabric = rig.cluster->fabric().stats();
  return snap;
}

template <typename Fn>
double SumDelta(const Snapshot& a, const Snapshot& b, Fn field) {
  double total = 0;
  for (size_t i = 0; i < a.store.size(); ++i) {
    total += static_cast<double>(field(b, i)) - static_cast<double>(field(a, i));
  }
  return total;
}

// ---- the generator engine -------------------------------------------------------

enum class Phase : uint8_t {
  kBlocked,  // waiting for earlier ops on the same slot
  kGet,
  kRelease,
  kCreate,
  kSeal,
  kDelete,
};

// One op in flight. Owned by its worker thread; the reply thread only
// stamps `ready_ns` and posts the task back.
struct Task {
  Op op;
  int64_t root_start = 0;
  int64_t phase_start = 0;
  int64_t put_start = 0;
  std::atomic<int64_t> ready_ns{0};
  Phase phase = Phase::kBlocked;
  uint32_t expected_crc = 0;
  bool traced = false;
  bool failed = false;
  Future<Result<ObjectBuffer>> buffer_future;
  Future<Status> status_future;
  ObjectBuffer buffer;
  SpanRecord spans[8];
  uint8_t span_count = 0;
};

// What completed in one slice of the window.
struct SliceStats {
  LogHistogram get_e2e, put_e2e;
  // Each ReadData's time scaled to 1 MiB: its median is the slice's read
  // rate, which a read the host preempted does not drag down.
  LogHistogram read_ns_per_mib;
  uint64_t done = 0;

  void Merge(const SliceStats& o) {
    get_e2e.Merge(o.get_e2e);
    put_e2e.Merge(o.put_e2e);
    read_ns_per_mib.Merge(o.read_ns_per_mib);
    done += o.done;
  }
};

struct WorkerStats {
  LogHistogram get_e2e, put_e2e;
  LogHistogram create, seal, get_local, get_remote, release, del, late;
  std::vector<SliceStats> slices = std::vector<SliceStats>(kSlices);
  uint64_t attempted = 0, completed = 0, completed_in_window = 0, failed = 0;
  uint64_t gets = 0, remote_gets = 0;
  uint64_t read_bytes[2] = {0, 0};  // [local, remote]
  int64_t read_ns[2] = {0, 0};
  uint64_t write_bytes = 0;
  int64_t write_ns = 0;
  uint64_t create_oom = 0;
  double op_ns = 0;
  double busy_share = 0;  // the worker thread's CPU time / wall time
  std::vector<std::string> errors;

  void Merge(const WorkerStats& o) {
    get_e2e.Merge(o.get_e2e);
    put_e2e.Merge(o.put_e2e);
    create.Merge(o.create);
    seal.Merge(o.seal);
    get_local.Merge(o.get_local);
    get_remote.Merge(o.get_remote);
    release.Merge(o.release);
    del.Merge(o.del);
    late.Merge(o.late);
    for (int i = 0; i < kSlices; ++i) slices[i].Merge(o.slices[i]);
    for (int h = 0; h < 2; ++h) {
      read_bytes[h] += o.read_bytes[h];
      read_ns[h] += o.read_ns[h];
    }
    busy_share = std::max(busy_share, o.busy_share);
    attempted += o.attempted;
    completed += o.completed;
    completed_in_window += o.completed_in_window;
    failed += o.failed;
    gets += o.gets;
    remote_gets += o.remote_gets;
    write_bytes += o.write_bytes;
    write_ns += o.write_ns;
    create_oom += o.create_oom;
    op_ns += o.op_ns;
    for (const auto& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

class Worker;

// Shared generator state: the schedule, per-node op queues, and the
// per-slot serialisation that keeps a get off any id with a write in
// flight (and a write off any id with an earlier op in flight).
class Engine {
 public:
  Engine(const WorkloadSpec& spec, uint64_t seed, const PayloadSource& payload)
      : spec_(spec), payload_(payload), schedule_(spec, seed),
        queues_(spec.nodes), slots_(spec.slots) {
    for (uint32_t slot = 0; slot < spec.slots; ++slot) {
      const SlotInit& s = schedule_.initial()[slot];
      slots_[slot].live = s.live;
      slots_[slot].version = s.version;
      slots_[slot].size = s.size;
      slots_[slot].home = s.home;
      if (s.live) slots_[slot].crc = payload.Crc(slot, s.version, s.size);
    }
  }

  const WorkloadSpec& spec() const { return spec_; }
  const PayloadSource& payload() const { return payload_; }
  const std::vector<SlotInit>& initial() const { return schedule_.initial(); }

  void SetWindow(int64_t start, int64_t seconds, bool trace) {
    window_start_ = start;
    window_end_ = start + seconds * 1000000000ll;
    trace_ = trace;
  }
  int64_t window_start() const { return window_start_; }
  int64_t window_end() const { return window_end_; }
  int64_t slice_ns() const { return (window_end_ - window_start_) / kSlices; }
  // The slice holding time `t`; -1 past the window.
  int Slice(int64_t t) const {
    if (t > window_end_) return -1;
    return static_cast<int>(std::clamp<int64_t>((t - window_start_) / slice_ns(),
                                                0, kSlices - 1));
  }
  // Traced runs trace the ops that start in odd slices; the even slices
  // are the untraced baseline that trace.overhead_pct compares against.
  bool Traced(const Op& op, int64_t root_start) const {
    return trace_ && Slice(root_start) % 2 == 1 &&
           op.seq % spec_.trace_every == 0;
  }
  TraceBuffer& trace() { return spans_; }

  // The next op of `node` (open loop: one worker per node), or with
  // kAnyNode the next op of the whole schedule (closed loop: workers take
  // ops in schedule order, so no worker runs ahead of another).
  static constexpr int kAnyNode = -1;
  Op TakeOp(int node) {
    std::lock_guard<std::mutex> lock(gen_mutex_);
    if (node == kAnyNode) return schedule_.Next();
    while (queues_[node].empty()) {
      Op op = schedule_.Next();
      queues_[op.node].push_back(op);
    }
    Op op = queues_[node].front();
    queues_[node].pop_front();
    return op;
  }

  // True when `task` may start now. Otherwise, with `wait`, the task is
  // parked on its slot and posted back to `worker` when an op there
  // completes.
  bool Admit(Worker* worker, Task* task, bool wait);
  void Complete(const Task& task);
  // Unparks every task `worker` has waiting on a slot (end of window).
  std::vector<Task*> TakeWaiters(Worker* worker);

  // The live set as the completed ops left it: slot -> (version, size, home).
  struct LiveSlot {
    uint32_t slot, version, size;
    uint8_t home;
  };
  std::vector<LiveSlot> LiveSet() {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    std::vector<LiveSlot> out;
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].live) {
        out.push_back({i, slots_[i].version, slots_[i].size, slots_[i].home});
      }
    }
    return out;
  }

 private:
  struct SlotState {
    uint32_t writes_done = 0;
    uint32_t gets_done = 0;  // since the last completed write
    bool live = false;
    uint32_t version = 0;
    uint32_t size = 0;
    uint8_t home = 0;
    uint32_t crc = 0;
    std::vector<std::pair<Worker*, Task*>> waiters;
  };

  const WorkloadSpec& spec_;
  const PayloadSource& payload_;
  std::mutex gen_mutex_;
  Schedule schedule_;
  std::vector<std::deque<Op>> queues_;
  std::mutex slot_mutex_;
  std::vector<SlotState> slots_;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  bool trace_ = false;
  TraceBuffer spans_;
};

class Worker {
 public:
  // `conns[n]` reaches node n; `queue` is the node whose ops this worker
  // sends (open loop) or Engine::kAnyNode (closed loop).
  Worker(Engine* engine, std::vector<AsyncClient*> conns, int queue,
         uint32_t depth)
      : engine_(engine), conns_(std::move(conns)), queue_(queue), depth_(depth),
        scratch_(engine->spec().size_dist == SizeDist::kPaperClasses
                     ? (1u << 20)
                     : engine->spec().size_hi) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker() {
    if (thread_.joinable()) thread_.join();
  }

  void Launch() { thread_ = std::thread([this] { Run(); }); }
  void Join() { thread_.join(); }
  const WorkerStats& stats() const { return stats_; }

  void Post(Task* task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      events_.push_back(task);
    }
    cv_.notify_one();
  }

 private:
  void Run();
  void Start(const Op& op, int64_t root_start);
  void Begin(Task* t);
  void Advance(Task* t);
  void OnGet(Task* t);
  void OnCreate(Task* t);
  void OnSeal(Task* t);
  void OnDelete(Task* t);
  void IssueCreate(Task* t);
  void Finish(Task* t, int64_t end);
  void StopIssuing();
  void Cancel(Task* t);
  void Fail(Task* t, const std::string& what);

  template <typename T>
  void Await(Task* t, Future<T>& future) {
    future.OnReady([this, t] {
      t->ready_ns.store(Now(), std::memory_order_relaxed);
      Post(t);
    });
  }
  void AddSpan(Task* t, SpanName name, int64_t start, int64_t end) {
    if (t->traced && t->span_count < 8) {
      t->spans[t->span_count++] = SpanRecord{t->op.seq, start, end, name};
    }
  }
  // Ends the awaited phase: its span runs from issue to reply arrival.
  int64_t EndPhase(Task* t, SpanName name, LogHistogram* hist) {
    int64_t ready = t->ready_ns.load(std::memory_order_relaxed);
    if (hist != nullptr) hist->Add(ready - t->phase_start);
    AddSpan(t, name, t->phase_start, ready);
    return ready;
  }
  Deadline OpDeadline() const { return Deadline::AfterMs(kOpDeadlineMs); }

  Engine* engine_;
  std::vector<AsyncClient*> conns_;
  int queue_;
  uint32_t depth_;
  std::vector<uint8_t> scratch_;
  WorkerStats stats_;
  uint32_t inflight_ = 0;
  bool issuing_ = true;
  std::vector<std::unique_ptr<Task>> free_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Task*> events_;
  std::thread thread_;
};

bool Engine::Admit(Worker* worker, Task* task, bool wait) {
  std::lock_guard<std::mutex> lock(slot_mutex_);
  SlotState& s = slots_[task->op.slot];
  bool ready = s.writes_done == task->op.writes_before &&
               (task->op.type == OpType::kGet ||
                s.gets_done == task->op.gets_before);
  if (!ready) {
    if (wait) s.waiters.emplace_back(worker, task);
    return false;
  }
  if (task->op.type == OpType::kGet) task->expected_crc = s.crc;
  return true;
}

void Engine::Complete(const Task& task) {
  std::vector<std::pair<Worker*, Task*>> wake;
  {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    SlotState& s = slots_[task.op.slot];
    if (task.op.type == OpType::kGet) {
      s.gets_done += 1;
    } else {
      s.writes_done += 1;
      s.gets_done = 0;
      if (task.op.type == OpType::kDelete) {
        s.live = false;
      } else {
        s.live = true;
        s.version = task.op.version;
        s.size = task.op.size;
        s.home = task.op.node;
        s.crc = payload_.Crc(task.op.slot, task.op.version, task.op.size);
      }
    }
    wake.swap(s.waiters);
  }
  for (auto& [worker, waiter] : wake) worker->Post(waiter);
}

std::vector<Task*> Engine::TakeWaiters(Worker* worker) {
  std::vector<Task*> out;
  std::lock_guard<std::mutex> lock(slot_mutex_);
  for (SlotState& s : slots_) {
    auto mine = [&](const std::pair<Worker*, Task*>& w) {
      if (w.first != worker) return false;
      out.push_back(w.second);
      return true;
    };
    s.waiters.erase(std::remove_if(s.waiters.begin(), s.waiters.end(), mine),
                    s.waiters.end());
  }
  return out;
}

void Worker::Run() {
  const bool open = engine_->spec().open_loop();
  // An open loop sleeps until each send time; the default 50 us timer
  // slack would add itself to every op's latency.
  if (open) prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::optional<Op> next;
  std::vector<Task*> batch;
  // This thread's CPU share up to the window's end: near 1 means the
  // generator, not the store, limits a closed loop.
  const double cpu0 = ThreadCpuSeconds();
  const int64_t wall0 = Now();
  bool busy_taken = false;
  auto take_busy = [&](int64_t now) {
    busy_taken = true;
    stats_.busy_share = Ratio(ThreadCpuSeconds() - cpu0,
                              static_cast<double>(now - wall0) / 1e9);
  };
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch.swap(events_);
    }
    for (Task* t : batch) Advance(t);
    batch.clear();

    int64_t now = Now();
    int64_t wake_at = now + 2000000;
    if (!busy_taken && now >= engine_->window_end()) take_busy(now);
    if (issuing_ && open) {
      while (true) {
        if (!next) next = engine_->TakeOp(queue_);
        int64_t due = engine_->window_start() + next->sched_ns;
        if (due >= engine_->window_end()) {
          StopIssuing();
          break;
        }
        if (due > now) {
          wake_at = std::min(wake_at, due);
          break;
        }
        Start(*next, due);
        next.reset();
      }
    } else if (issuing_) {
      while (inflight_ < depth_ && now < engine_->window_end()) {
        Start(engine_->TakeOp(queue_), Now());
      }
      if (now >= engine_->window_end()) {
        StopIssuing();
      }
    }
    if (!issuing_ && inflight_ == 0) {
      if (!busy_taken) take_busy(now);
      break;
    }
    if (now > engine_->window_end() + kDrainLimitNs) {
      Die("ops still in flight " + std::to_string(kDrainLimitNs / 1000000000) +
          " s after the window closed");
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, ToTimePoint(wake_at),
                   [this] { return !events_.empty(); });
  }
}

void Worker::Start(const Op& op, int64_t root_start) {
  std::unique_ptr<Task> owned;
  if (free_.empty()) {
    owned = std::make_unique<Task>();
  } else {
    owned = std::move(free_.back());
    free_.pop_back();
  }
  Task* t = owned.release();
  t->op = op;
  t->root_start = root_start;
  t->phase = Phase::kBlocked;
  t->traced = engine_->Traced(op, root_start);
  t->failed = false;
  t->span_count = 0;
  stats_.attempted += 1;
  inflight_ += 1;
  if (engine_->Admit(this, t, true)) Begin(t);
}

// Past the window no new op starts, so an op still waiting for an earlier
// op on its slot may wait on one that was never taken: such ops are
// dropped unsent and do not count as attempted.
void Worker::StopIssuing() {
  issuing_ = false;
  for (Task* t : engine_->TakeWaiters(this)) Cancel(t);
}

void Worker::Cancel(Task* t) {
  stats_.attempted -= 1;
  inflight_ -= 1;
  free_.emplace_back(t);
}

void Worker::Begin(Task* t) {
  int64_t now = Now();
  stats_.late.Add(now - t->root_start);
  AddSpan(t, kSpanQueue, t->root_start, now);
  const Op& op = t->op;
  t->phase_start = now;
  switch (op.type) {
    case OpType::kGet:
      t->phase = Phase::kGet;
      t->buffer_future =
          conns_[op.node]->GetAsync(IdFor(op.slot, op.version), 0, false,
                                    OpDeadline());
      Await(t, t->buffer_future);
      break;
    case OpType::kPut:
      t->put_start = t->root_start;
      IssueCreate(t);
      break;
    case OpType::kDelete:
    case OpType::kRewrite:
      // A rewrite deletes the version it replaces, then puts the new one.
      t->phase = Phase::kDelete;
      t->status_future = conns_[op.node]->DeleteAsync(
          IdFor(op.slot, op.type == OpType::kRewrite ? op.version - 1
                                                     : op.version),
          OpDeadline());
      Await(t, t->status_future);
      break;
  }
}

void Worker::IssueCreate(Task* t) {
  t->phase = Phase::kCreate;
  t->phase_start = Now();
  t->buffer_future = conns_[t->op.node]->CreateAsync(IdFor(t->op.slot, t->op.version),
                                        t->op.size, 0, false, OpDeadline());
  Await(t, t->buffer_future);
}

void Worker::Advance(Task* t) {
  switch (t->phase) {
    case Phase::kBlocked:
      if (engine_->Admit(this, t, issuing_)) {
        Begin(t);
      } else if (!issuing_) {
        Cancel(t);
      }
      return;
    case Phase::kGet:
      OnGet(t);
      return;
    case Phase::kRelease: {
      int64_t ready = EndPhase(t, kSpanRelease, &stats_.release);
      Status released = t->status_future.Take();
      if (!released.ok()) Fail(t, "release: " + released.ToString());
      t->buffer = ObjectBuffer();
      Finish(t, ready);
      return;
    }
    case Phase::kCreate:
      OnCreate(t);
      return;
    case Phase::kSeal:
      OnSeal(t);
      return;
    case Phase::kDelete:
      OnDelete(t);
      return;
  }
}

void Worker::OnGet(Task* t) {
  const Op& op = t->op;
  auto got = t->buffer_future.Take();
  if (!got.ok()) {
    int64_t ready = EndPhase(t, kSpanGet, nullptr);
    Fail(t, "get: " + got.status().ToString());
    Finish(t, ready);
    return;
  }
  t->buffer = std::move(got).value();
  const bool remote = t->buffer.is_remote();
  EndPhase(t, kSpanGet, remote ? &stats_.get_remote : &stats_.get_local);
  stats_.gets += 1;
  stats_.remote_gets += remote ? 1 : 0;

  if (t->buffer.data_size() != op.size) {
    Fail(t, "get: size " + std::to_string(t->buffer.data_size()) +
                " != " + std::to_string(op.size));
  } else {
    int64_t r0 = Now();
    Status read = t->buffer.ReadData(0, scratch_.data(), op.size);
    int64_t r1 = Now();
    AddSpan(t, kSpanRead, r0, r1);
    stats_.read_bytes[remote] += op.size;
    stats_.read_ns[remote] += r1 - r0;
    if (int slice = engine_->Slice(r1); slice >= 0) {
      stats_.slices[slice].read_ns_per_mib.Add((r1 - r0) * (1 << 20) / op.size);
    }
    uint8_t header[PayloadSource::kHeaderBytes];
    engine_->payload().Header(op.slot, op.version, header);
    if (!read.ok()) {
      Fail(t, "read: " + read.ToString());
    } else if (std::memcmp(scratch_.data(), header, sizeof(header)) != 0 ||
               mdos::Crc32(scratch_.data(), op.size) != t->expected_crc) {
      Fail(t, "byte mismatch on slot " + std::to_string(op.slot) +
                  " version " + std::to_string(op.version));
    }
  }
  t->phase = Phase::kRelease;
  t->phase_start = Now();
  t->status_future =
      conns_[op.node]->ReleaseAsync(t->buffer.id(), OpDeadline());
  Await(t, t->status_future);
}

void Worker::OnCreate(Task* t) {
  int64_t ready = EndPhase(t, kSpanCreate, &stats_.create);
  auto created = t->buffer_future.Take();
  if (!created.ok()) {
    if (created.status().code() == StatusCode::kOutOfMemory) {
      stats_.create_oom += 1;
    }
    Fail(t, "create: " + created.status().ToString());
    Finish(t, ready);
    return;
  }
  ObjectBuffer buffer = std::move(created).value();
  const Op& op = t->op;
  uint8_t header[PayloadSource::kHeaderBytes];
  engine_->payload().Header(op.slot, op.version, header);
  int64_t w0 = Now();
  Status written = buffer.WriteData(0, header, sizeof(header));
  if (written.ok()) {
    written = buffer.WriteData(sizeof(header),
                               engine_->payload().Body(op.slot, op.version),
                               op.size - sizeof(header));
  }
  int64_t w1 = Now();
  AddSpan(t, kSpanWrite, w0, w1);
  stats_.write_bytes += op.size;
  stats_.write_ns += w1 - w0;
  if (!written.ok()) Fail(t, "write: " + written.ToString());
  t->phase = Phase::kSeal;
  t->phase_start = Now();
  t->status_future =
      conns_[op.node]->SealAsync(IdFor(op.slot, op.version), OpDeadline());
  Await(t, t->status_future);
}

void Worker::OnSeal(Task* t) {
  int64_t ready = EndPhase(t, kSpanSeal, &stats_.seal);
  Status sealed = t->status_future.Take();
  if (!sealed.ok()) {
    Fail(t, "seal: " + sealed.ToString());
  } else if (!t->failed) {
    stats_.put_e2e.Add(ready - t->put_start);
    if (int slice = engine_->Slice(ready); slice >= 0) {
      stats_.slices[slice].put_e2e.Add(ready - t->put_start);
    }
  }
  Finish(t, ready);
}

void Worker::OnDelete(Task* t) {
  int64_t ready = EndPhase(t, kSpanDelete, &stats_.del);
  Status deleted = t->status_future.Take();
  if (!deleted.ok()) {
    Fail(t, "delete: " + deleted.ToString());
    Finish(t, ready);
    return;
  }
  if (t->op.type == OpType::kRewrite) {
    t->put_start = Now();
    IssueCreate(t);
    return;
  }
  Finish(t, ready);
}

void Worker::Fail(Task* t, const std::string& what) {
  if (!t->failed) stats_.failed += 1;
  t->failed = true;
  if (stats_.errors.size() < 8) {
    stats_.errors.push_back(std::string(OpTypeName(t->op.type)) + " op " +
                            std::to_string(t->op.seq) + ": " + what);
  }
}

void Worker::Finish(Task* t, int64_t end) {
  int64_t elapsed = end - t->root_start;
  stats_.op_ns += static_cast<double>(elapsed);
  stats_.completed += 1;
  const int slice = engine_->Slice(end);
  if (slice >= 0) {
    stats_.completed_in_window += 1;
    stats_.slices[slice].done += 1;
  }
  if (t->op.type == OpType::kGet && !t->failed) {
    stats_.get_e2e.Add(elapsed);
    if (slice >= 0) stats_.slices[slice].get_e2e.Add(elapsed);
  }
  if (t->traced) {
    AddSpan(t, kSpanOp, t->root_start, end);
    engine_->trace().Append(t->spans, t->span_count);
  }
  engine_->Complete(*t);
  inflight_ -= 1;
  free_.emplace_back(t);
}

// ---- post-run checks ------------------------------------------------------------

// Each store's List must hold exactly the live set: every live version
// on its home store, `replication` copies in total, sealed and
// unreferenced, and nothing else. Returns the number of mismatches.
uint64_t CheckLiveSet(Rig& rig, Engine& engine, std::vector<std::string>* errors) {
  const WorkloadSpec& spec = engine.spec();
  struct Seen {
    uint32_t copies = 0;
    bool on_home = false;
  };
  std::unordered_map<ObjectId, Seen> seen;
  std::unordered_map<ObjectId, Engine::LiveSlot> expected;
  for (const auto& live : engine.LiveSet()) {
    expected.emplace(IdFor(live.slot, live.version), live);
  }
  uint64_t mismatches = 0;
  auto note = [&](const std::string& what) {
    mismatches += 1;
    if (errors->size() < 8) errors->push_back("live-set check: " + what);
  };
  for (uint32_t n = 0; n < spec.nodes; ++n) {
    auto listed = rig.ConnFor(n).ListAsync().Take();
    if (!listed.ok()) {
      note("List on node " + std::to_string(n) + ": " + listed.status().ToString());
      continue;
    }
    for (const auto& info : *listed) {
      auto it = expected.find(info.id);
      if (it == expected.end()) {
        note("node " + std::to_string(n) + " holds unexpected " + info.id.Hex());
        continue;
      }
      if (!info.sealed || info.ref_count != 0 ||
          info.data_size != it->second.size) {
        note("node " + std::to_string(n) + " holds " + info.id.Hex() +
             " sealed=" + std::to_string(info.sealed) +
             " refs=" + std::to_string(info.ref_count) +
             " size=" + std::to_string(info.data_size));
      }
      Seen& s = seen[info.id];
      s.copies += 1;
      if (it->second.home == n) s.on_home = true;
    }
  }
  for (const auto& [id, live] : expected) {
    auto it = seen.find(id);
    uint32_t copies = it == seen.end() ? 0 : it->second.copies;
    bool on_home = it != seen.end() && it->second.on_home;
    if (copies != spec.replication || !on_home) {
      note("slot " + std::to_string(live.slot) + " v" +
           std::to_string(live.version) + " has " + std::to_string(copies) +
           " copies (home held: " + std::to_string(on_home) + ")");
    }
  }
  return mismatches;
}

// Replication is synchronous with Seal, but re-heal rounds are not; wait
// (bounded) for every store to report no under-replicated object.
uint64_t Quiesce(Rig& rig, const WorkloadSpec& spec) {
  uint64_t under = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    under = 0;
    uint64_t queued = 0;
    for (uint32_t n = 0; n < spec.nodes; ++n) {
      auto stats = rig.ConnFor(n).StatsAsync().Take();
      if (!stats.ok()) Die("Stats: " + stats.status().ToString());
      under += stats->under_replicated;
      queued += stats->reheal_queue_depth;
    }
    if (under == 0 && queued == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return under;
}

// ---- output -----------------------------------------------------------------------

double Ms(double ns) { return ns / 1e6; }
double Us(double ns) { return ns / 1e3; }
double Gibps(double bytes, double ns) {
  return ns > 0 ? bytes / (1024.0 * 1024.0 * 1024.0) / (ns / 1e9) : 0;
}

// Modelled fabric time implied by the access counts: every access pays
// the configured base latency plus its bytes at the configured bandwidth
// (an upper bound: batched probes share one base latency).
double ModelledNs(const mdos::tf::LatencyParams& p,
                  const mdos::tf::RegionCounters& a,
                  const mdos::tf::RegionCounters& b) {
  double accesses = static_cast<double>(b.reads - a.reads + b.writes - a.writes);
  double bytes = static_cast<double>(b.read_bytes - a.read_bytes +
                                     b.write_bytes - a.write_bytes);
  double ns = accesses * static_cast<double>(p.base_latency_ns);
  if (p.bandwidth_gib_per_s > 0) {
    ns += bytes / (p.bandwidth_gib_per_s * 1024.0 * 1024.0 * 1024.0 / 1e9);
  }
  return ns;
}

void AddSelfTimes(std::vector<Metric>* out, const TraceBuffer& trace) {
  // Spans of one op are appended together, root last.
  const auto& records = trace.records();
  double self_ns[kSpanCount] = {};
  double op_ns = 0;
  double covered_ns = 0;
  uint64_t ops = 0;
  size_t begin = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].name != kSpanOp) continue;
    const SpanRecord& root = records[i];
    double covered = 0;
    for (size_t j = begin; j < i; ++j) {
      int64_t s = std::max(records[j].start, root.start);
      int64_t e = std::min(records[j].end, root.end);
      double d = static_cast<double>(std::max<int64_t>(e - s, 0));
      self_ns[records[j].name] += d;  // children have no children
      covered += d;
    }
    double total = static_cast<double>(root.end - root.start);
    // The root's self time is what no named child span covers: the
    // generator's own work between the phases of the op.
    self_ns[kSpanOp] += total - covered;
    covered_ns += covered;
    op_ns += total;
    ops += 1;
    begin = i + 1;
  }
  for (int s = 0; s < kSpanCount; ++s) {
    out->push_back({std::string("self.") + kSpanNames[s] + "_us",
                    ops ? Us(self_ns[s] / static_cast<double>(ops)) : 0, "us"});
  }
  out->push_back({"trace.op_us", ops ? Us(op_ns / static_cast<double>(ops)) : 0, "us"});
  out->push_back({"trace.child_coverage", Ratio(covered_ns, op_ns), "1"});
  out->push_back({"trace.ops", static_cast<double>(ops), "count"});
}

void WriteTrace(const TraceBuffer& trace, const std::string& path) {
  std::ofstream out(path);
  out << "op,span,parent,start_ns,end_ns\n";
  for (const auto& r : trace.records()) {
    out << r.op << ',' << kSpanNames[r.name] << ','
        << (r.name == kSpanOp ? "" : "op") << ',' << r.start << ','
        << r.end << '\n';
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 10;
  bool trace = false;
  bool schedule_hash = false;
  bool list = false;
  uint64_t hash_ops = 100000;
  std::string work_dir = ".bench_build";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::stoull(value());
    } else if (a == "--seconds") {
      args.seconds = std::stoll(value());
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--work-dir") {
      args.work_dir = value();
    } else if (a == "--schedule-hash") {
      args.schedule_hash = true;
    } else if (a == "--list") {
      args.list = true;
    } else if (a == "--ops") {
      args.hash_ops = std::stoull(value());
    } else {
      Die("unknown argument " + a);
    }
  }
  if (args.seconds < 1) Die("--seconds must be >= 1");
  return args;
}

// Everything one run measured, for ComputeMetrics.
struct Measured {
  double seconds = 0;
  double setup_s = 0;  // median of the set-ups
  WorkerStats total;
  Snapshot before, after;
  mdos::tf::FabricConfig fabric;
  std::vector<mdos::plasma::PeerStatsEntry> peers;
  ProcUsage usage0, usage1;  // at window start and end
  std::vector<double> slice_cpu_s;  // process CPU in each slice
  std::vector<double> slice_steal;  // host steal share in each slice
  HostCpu host0, host1;
  int threads_peak = 0;
  uint64_t under_replicated = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// One slice's end-to-end figures; NaN where the slice had no sample.
struct SliceFigures {
  double ops_s, get_p50_ms, put_p50_ms, read_gibps, cpu_ms_per_kop;
};
SliceFigures FiguresOf(const Measured& m, int i) {
  const SliceStats& s = m.total.slices[i];
  const double done = static_cast<double>(s.done);
  const double none = std::nan("");
  auto p50_ms = [&](const LogHistogram& h) {
    return h.count() > 0 ? Ms(h.QuantileNs(0.50)) : none;
  };
  return SliceFigures{
      done / (m.seconds / kSlices),
      p50_ms(s.get_e2e),
      p50_ms(s.put_e2e),
      s.read_ns_per_mib.count() > 0
          ? Gibps(1 << 20, s.read_ns_per_mib.QuantileNs(0.50))
          : none,
      done > 0 ? m.slice_cpu_s[i] * 1e6 / done : none};
}

// The quiet slices: the kQuietSlices in which the hypervisor took the
// least CPU from this VM (its steal share), and any tied with the last of
// them. On a shared host, steal comes and goes over seconds; each op
// crosses several threads, and a vCPU that other guests hold stalls
// them all: on cpu-hot, slices at 5-10 % steal ran 30-45 % fewer ops
// than slices under 1 %. Steal is measured apart from the figures, so
// choosing by it drops the host's interference without looking at our
// numbers.
std::vector<bool> QuietSlices(const std::vector<double>& steal) {
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double cut = sorted[kQuietSlices - 1];
  std::vector<bool> quiet(steal.size());
  for (size_t i = 0; i < steal.size(); ++i) quiet[i] = steal[i] <= cut;
  return quiet;
}

// Each slice's figures with its steal share and whether it is quiet, as
// a JSON list of objects (null where a slice had no sample).
std::string SlicesJson(const Measured& m) {
  const std::vector<bool> quiet = QuietSlices(m.slice_steal);
  std::string json = "[";
  for (int i = 0; i < kSlices; ++i) {
    const SliceFigures f = FiguresOf(m, i);
    const std::pair<const char*, double> fields[] = {
        {"ops_s", f.ops_s},           {"get_p50_ms", f.get_p50_ms},
        {"put_p50_ms", f.put_p50_ms}, {"read_gibps", f.read_gibps},
        {"cpu_ms_per_kop", f.cpu_ms_per_kop}, {"steal_share", m.slice_steal[i]}};
    json += i ? ", {" : "{";
    for (const auto& [name, v] : fields) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.6g", v);
      AppendJsonString(&json, name);
      json += ": ";
      json += std::isnan(v) ? "null" : value;
      json += ", ";
    }
    json += std::string("\"quiet\": ") + (quiet[i] ? "true" : "false") + "}";
  }
  return json + "]";
}

// Every end-to-end and per-layer metric except the traced run's.
std::vector<Metric> ComputeMetrics(const WorkloadSpec& spec, const Measured& m) {
  const WorkerStats& total = m.total;
  const Snapshot& before = m.before;
  const Snapshot& after = m.after;
  const ProcUsage& usage0 = m.usage0;
  const ProcUsage& usage1 = m.usage1;
  const double window_s = m.seconds;
  const double done = static_cast<double>(total.completed_in_window);
  const double kops = std::max(done, 1.0) / 1000.0;
  std::vector<Metric> r;
  auto add = [&r](const char* name, double value, const char* unit) {
    r.push_back({name, value, unit});
  };
  // ---- end-to-end ----
  // Rates and medians are the median of their value in each quiet slice
  // that has samples; the p99s pool the whole window, since a slice has
  // too few samples for a tail.
  const std::vector<bool> quiet = QuietSlices(m.slice_steal);
  std::vector<double> ops_s, get_p50, put_p50, read, cpu_per_kop;
  auto keep = [](std::vector<double>* out, double v) {
    if (!std::isnan(v)) out->push_back(v);
  };
  for (int i = 0; i < kSlices; ++i) {
    if (!quiet[i]) continue;
    const SliceFigures f = FiguresOf(m, i);
    keep(&ops_s, f.ops_s);
    keep(&get_p50, f.get_p50_ms);
    keep(&put_p50, f.put_p50_ms);
    keep(&read, f.read_gibps);
    keep(&cpu_per_kop, f.cpu_ms_per_kop);
  }
  add("setup_s", m.setup_s, "s");
  add("ops_s", Median(ops_s), "ops/s");
  add("get_p50_ms", Median(get_p50), "ms");
  add("get_p99_ms", Ms(total.get_e2e.QuantileNs(0.99)), "ms");
  add("put_p50_ms", Median(put_p50), "ms");
  add("put_p99_ms", Ms(total.put_e2e.QuantileNs(0.99)), "ms");
  add("read_gibps", Median(read), "GiB/s");
  add("cpu_ms_per_kop", Median(cpu_per_kop), "ms");
  add("rss_peak_mb", ReadProcUsage().max_rss_mib, "MiB");
  const double cpu_s =
      (usage1.user_s - usage0.user_s) + (usage1.sys_s - usage0.sys_s);

  // ---- per layer: plasma ----
  add("fail_ratio", Ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)), "1");
  add("plasma.create_p50_us", Us(total.create.QuantileNs(0.50)), "us");
  add("plasma.create_p99_us", Us(total.create.QuantileNs(0.99)), "us");
  add("plasma.seal_p50_us", Us(total.seal.QuantileNs(0.50)), "us");
  add("plasma.seal_p99_us", Us(total.seal.QuantileNs(0.99)), "us");
  add("plasma.get_local_p50_us", Us(total.get_local.QuantileNs(0.50)), "us");
  add("plasma.get_local_p99_us", Us(total.get_local.QuantileNs(0.99)), "us");
  add("plasma.get_remote_p50_us", Us(total.get_remote.QuantileNs(0.50)), "us");
  add("plasma.get_remote_p99_us", Us(total.get_remote.QuantileNs(0.99)), "us");
  add("plasma.get_remote_share",
        Ratio(static_cast<double>(total.remote_gets), static_cast<double>(total.gets)), "1");
  add("plasma.release_p50_us", Us(total.release.QuantileNs(0.50)), "us");
  add("plasma.delete_p50_us", Us(total.del.QuantileNs(0.50)), "us");
  add("plasma.delete_p99_us", Us(total.del.QuantileNs(0.99)), "us");
  auto store_delta = [&](auto field) {
    return SumDelta(before, after, [&](const Snapshot& s, size_t i) {
      return field(s.store[i]);
    });
  };
  add("plasma.evictions_per_kop",
        store_delta([](const auto& s) { return s.evictions; }) / kops, "count/kop");
  add("plasma.spills_per_kop",
        store_delta([](const auto& s) { return s.spills; }) / kops, "count/kop");
  add("plasma.restores_per_kop",
        store_delta([](const auto& s) { return s.spill_restores; }) / kops, "count/kop");

  // ---- per layer: tf ----
  const auto& fabric_config = m.fabric;
  double modelled_ns =
      ModelledNs(fabric_config.local, before.fabric.local, after.fabric.local) +
      ModelledNs(fabric_config.remote, before.fabric.remote, after.fabric.remote);
  add("tf.write_gibps",
        Gibps(static_cast<double>(total.write_bytes), static_cast<double>(total.write_ns)),
        "GiB/s");
  add("tf.read_local_gibps",
        Gibps(static_cast<double>(total.read_bytes[0]), static_cast<double>(total.read_ns[0])),
        "GiB/s");
  add("tf.read_remote_gibps",
        Gibps(static_cast<double>(total.read_bytes[1]), static_cast<double>(total.read_ns[1])),
        "GiB/s");
  add("tf.remote_read_bytes_per_kop",
        static_cast<double>(after.fabric.remote.read_bytes - before.fabric.remote.read_bytes) / kops,
        "B/kop");
  double mapped = store_delta([](const auto& s) { return s.mapped_reads; });
  add("tf.mapped_reads_per_kop", mapped / kops, "count/kop");
  add("tf.mapped_fallback_ratio",
        Ratio(store_delta([](const auto& s) { return s.mapped_fallbacks; }), mapped), "1");
  add("tf.model_floor_share", Ratio(modelled_ns, total.op_ns), "1");

  // ---- per layer: dist ----
  auto reg_delta = [&](auto field) {
    return SumDelta(before, after, [&](const Snapshot& s, size_t i) {
      return field(s.registry[i]);
    });
  };
  auto rpc_delta = [&](auto field) {
    return SumDelta(before, after, [&](const Snapshot& s, size_t i) {
      return field(s.rpc[i]);
    });
  };
  add("dist.lookup_rpcs_per_kop", reg_delta([](const auto& s) { return s.lookup_rpcs; }) / kops, "count/kop");
  add("dist.probe_rpcs_per_kop", reg_delta([](const auto& s) { return s.probe_rpcs; }) / kops, "count/kop");
  add("dist.pin_rpcs_per_kop", reg_delta([](const auto& s) { return s.pin_rpcs; }) / kops, "count/kop");
  add("dist.replicate_rpcs_per_kop", reg_delta([](const auto& s) { return s.replicate_rpcs; }) / kops, "count/kop");
  add("dist.index_hits_per_kop", reg_delta([](const auto& s) { return s.index_hits; }) / kops, "count/kop");
  add("dist.generation_retries", reg_delta([](const auto& s) { return s.generation_retries; }), "count");
  add("dist.failed_rpcs", reg_delta([](const auto& s) { return s.failed_rpcs; }), "count");
  add("dist.hedged_reads", reg_delta([](const auto& s) { return s.hedged_reads; }), "count");
  double ewma_sum = 0, ewma_n = 0;
  for (const auto& p : m.peers) {
    if (p.ewma_latency_us >= 0) {
      ewma_sum += static_cast<double>(p.ewma_latency_us);
      ewma_n += 1;
    }
  }
  add("dist.peer_ewma_us", Ratio(ewma_sum, ewma_n), "us");
  // Every peer call except heartbeats sits on some op's path.
  double op_path_rpcs = rpc_delta([](const auto& s) { return s.calls; }) -
                        reg_delta([](const auto& s) { return s.heartbeats; });
  add("dist.rtt_floor_share",
        Ratio(op_path_rpcs * static_cast<double>(spec.rtt_ns), total.op_ns), "1");
  add("dist.under_replicated_end", static_cast<double>(m.under_replicated), "count");

  // ---- per layer: rpc, net, alloc ----
  add("rpc.server_calls_per_kop", rpc_delta([](const auto& s) { return s.calls; }) / kops, "count/kop");
  add("rpc.server_bytes_in_per_kop", rpc_delta([](const auto& s) { return s.bytes_in; }) / kops, "B/kop");
  add("rpc.server_shed", rpc_delta([](const auto& s) { return s.shed; }), "count");
  add("rpc.server_errors", rpc_delta([](const auto& s) { return s.errors; }), "count");
  double frames = store_delta([](const auto& s) { return s.frames_tx; });
  add("net.frames_tx_per_kop", frames / kops, "count/kop");
  add("net.frames_per_writev",
        Ratio(frames, store_delta([](const auto& s) { return s.writev_calls; })), "1");
  add("net.bytes_tx_per_kop", store_delta([](const auto& s) { return s.bytes_tx; }) / kops, "B/kop");
  add("net.egress_blocked_events",
        store_delta([](const auto& s) { return s.egress_blocked_events; }), "count");
  double used = 0, capacity = 0;
  for (const auto& s : after.store) {
    used += static_cast<double>(s.bytes_in_use);
    capacity += static_cast<double>(s.capacity);
  }
  add("alloc.pool_used_ratio_end", Ratio(used, capacity), "1");
  add("alloc.create_oom", static_cast<double>(total.create_oom), "count");

  // ---- per layer: generator, process ----
  add("gen.offered_ops_s", static_cast<double>(m.attempted) / window_s, "ops/s");
  add("gen.late_p99_ms", Ms(total.late.QuantileNs(0.99)), "ms");
  add("gen.worker_busy_share", total.busy_share, "1");
  add("proc.threads_peak", m.threads_peak, "count");
  add("proc.cpu_sys_share", Ratio(usage1.sys_s - usage0.sys_s, cpu_s), "1");
  add("host.steal_share",
      Ratio(static_cast<double>(m.host1.steal - m.host0.steal),
            static_cast<double>(m.host1.total - m.host0.total)),
      "1");
  add("proc.ctxsw_per_kop",
        static_cast<double>(usage1.ctx_switches - usage0.ctx_switches) / kops, "count/kop");

  return r;
}

// Prints the errors, one `metric` line per metric, and the JSON result.
void PrintResult(const WorkloadSpec& spec, const Args& args, bool correct,
                 const Measured& m, const std::vector<Metric>& metrics,
                 const std::vector<std::string>& errors) {
  for (const auto& e : errors) std::printf("error %s\n", e.c_str());
  for (const auto& metric : metrics) {
    std::printf("metric %s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"workload\": ";
  AppendJsonString(&json, spec.name);
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"seconds\": " + std::to_string(args.seconds);
  json += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  json += ", \"host\": " + FingerprintJson();
  json += ", \"correct\": " + std::string(correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed);
  json += ", \"slices\": " + SlicesJson(m);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i) json += ", ";
    AppendJsonString(&json, metrics[i].name);
    json += ": {\"value\": ";
    json += value;
    json += ", \"unit\": ";
    AppendJsonString(&json, metrics[i].unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}


int RunWorkload(const WorkloadSpec& spec, const Args& args) {
  mdos::SetLogLevel(mdos::LogLevel::kError);
  std::filesystem::create_directories(args.work_dir);
  uint32_t max_size =
      spec.size_dist == SizeDist::kPaperClasses ? (1u << 20) : spec.size_hi;
  PayloadSource payload(args.seed, max_size);

  // Set-up: boot + populate, several times; the last rig is kept.
  std::vector<double> setup_s;
  Rig rig;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    rig.Shutdown();
    int64_t t0 = Now();
    engine = std::make_unique<Engine>(spec, args.seed, payload);
    rig = Boot(spec, args.seed, args.work_dir, i);
    Populate(rig, spec, engine->initial(), payload);
    setup_s.push_back(static_cast<double>(Now() - t0) / 1e9);
  }
  std::sort(setup_s.begin(), setup_s.end());
  Measured m;
  m.seconds = static_cast<double>(args.seconds);
  m.setup_s = setup_s[setup_s.size() / 2];
  if (args.trace) engine->trace().Reserve();

  std::vector<std::unique_ptr<Worker>> workers;
  const uint32_t worker_count = spec.open_loop() ? spec.nodes : spec.workers;
  for (uint32_t w = 0; w < worker_count; ++w) {
    std::vector<AsyncClient*> by_node;
    for (uint32_t n = 0; n < spec.nodes; ++n) {
      by_node.push_back(
          rig.conns[spec.open_loop() ? n : w * spec.nodes + n].get());
    }
    workers.push_back(std::make_unique<Worker>(
        engine.get(), std::move(by_node),
        spec.open_loop() ? static_cast<int>(w) : Engine::kAnyNode,
        spec.open_loop() ? UINT32_MAX : spec.depth));
  }

  m.before = TakeSnapshot(rig, spec);
  m.usage0 = ReadProcUsage();
  m.host0 = ReadHostCpu();
  int64_t start = Now() + 1000000;  // first sends 1 ms out
  engine->SetWindow(start, args.seconds, args.trace);
  for (auto& w : workers) w->Launch();

  m.threads_peak = ReadThreadCount();
  ProcUsage slice_usage = m.usage0;
  HostCpu slice_host = m.host0;
  for (int i = 0; i < kSlices; ++i) {
    const int64_t slice_end = i + 1 == kSlices
                                  ? engine->window_end()
                                  : start + (i + 1) * engine->slice_ns();
    while (Now() < slice_end) {
      std::this_thread::sleep_until(
          ToTimePoint(std::min(Now() + 50000000, slice_end)));
      m.threads_peak = std::max(m.threads_peak, ReadThreadCount());
    }
    ProcUsage usage = ReadProcUsage();
    m.slice_cpu_s.push_back(usage.user_s - slice_usage.user_s + usage.sys_s -
                            slice_usage.sys_s);
    slice_usage = usage;
    HostCpu host = ReadHostCpu();
    m.slice_steal.push_back(Ratio(static_cast<double>(host.steal - slice_host.steal),
                                  static_cast<double>(host.total - slice_host.total)));
    slice_host = host;
  }
  m.usage1 = slice_usage;
  m.host1 = slice_host;
  for (auto& w : workers) w->Join();

  for (auto& w : workers) m.total.Merge(w->stats());
  m.under_replicated = Quiesce(rig, spec);
  m.after = TakeSnapshot(rig, spec);
  m.fabric = rig.cluster->fabric().config();
  std::vector<std::string> errors = m.total.errors;
  uint64_t mismatches = CheckLiveSet(rig, *engine, &errors);
  if (m.under_replicated != 0) {
    errors.push_back(std::to_string(m.under_replicated) +
                     " objects under-replicated after quiesce");
  }
  m.attempted = m.total.attempted;
  m.failed = m.total.failed + mismatches + (m.under_replicated ? 1 : 0);
  const bool correct = m.failed == 0 && m.total.completed == m.attempted;
  for (uint32_t n = 0; n < spec.nodes; ++n) {
    auto rows = rig.ConnFor(n).PeerStatsAsync().Take();
    if (rows.ok()) m.peers.insert(m.peers.end(), rows->begin(), rows->end());
  }
  std::vector<Metric> metrics = ComputeMetrics(spec, m);

  // ---- traced run ----
  if (args.trace) {
    // Untraced even slices against traced odd ones, which interleave
    // over the whole window so warm-up and drift fall on both alike:
    // throughput for a closed loop, median get latency for an open loop.
    double ops[2] = {0, 0};
    LogHistogram gets[2];
    for (int i = 0; i < kSlices; ++i) {
      ops[i % 2] += static_cast<double>(m.total.slices[i].done);
      gets[i % 2].Merge(m.total.slices[i].get_e2e);
    }
    double overhead = spec.open_loop()
                          ? Ratio(gets[1].QuantileNs(0.5), gets[0].QuantileNs(0.5)) - 1.0
                          : Ratio(ops[0], ops[1]) - 1.0;
    metrics.push_back({"trace.overhead_pct", overhead * 100.0, "%"});
    AddSelfTimes(&metrics, engine->trace());
    std::string dir = args.work_dir + "/traces";
    std::filesystem::create_directories(dir);
    std::string path = dir + "/" + spec.name + "-seed" + std::to_string(args.seed) +
                       ".spans.csv";
    WriteTrace(engine->trace(), path);
    std::printf("trace %s (%zu spans, %llu ops dropped)\n", path.c_str(),
                engine->trace().records().size(),
                static_cast<unsigned long long>(engine->trace().dropped_ops()));
  }

  workers.clear();
  rig.Shutdown();
  PrintResult(spec, args, correct, m, metrics, errors);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifdef MDOS_BENCH_INSTRUMENTED
  std::fprintf(stderr,
               "mdos_loadgen: refusing to run from a debug, sanitizer or fuzz "
               "build; timings must come from an optimised, uninstrumented "
               "build\n");
  return 2;
#endif
  Args args = ParseArgs(argc, argv);
  if (args.list) {
    for (const auto& name : WorkloadNames()) std::printf("%s\n", name.c_str());
    return 0;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const auto& n : WorkloadNames()) names += " " + n;
    Die("unknown workload '" + args.workload + "'; known:" + names);
  }
  if (args.schedule_hash) {
    std::printf("%016llx\n", static_cast<unsigned long long>(
                                 ScheduleHash(*spec, args.seed, args.hash_ops)));
    return 0;
  }
  return RunWorkload(*spec, args);
}
