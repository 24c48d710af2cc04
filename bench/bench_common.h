// Shared harness for the paper-reproduction benchmarks.
//
// Table I of the paper defines six microbenchmark specs (number of
// objects x object size); Figs. 6 and 7 report retrieval latency and
// sequential read throughput for local vs remote clients over those
// specs. This header provides the spec table, a calibrated two-or-more
// node cluster fixture, the workload phases (commit / retrieve / read /
// release / delete), and summary statistics.
//
// Environment knobs:
//   MDOS_REPS   repetitions per spec (default 10; the paper used 100)
//   MDOS_SCALE  fabric calibration scale (default 0.5; see
//               tf::ScaledLocalParams — scales both bandwidths so the
//               model dominates host memcpy speed; paper-scale numbers
//               are measured / scale)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/object_id.h"
#include "plasma/client.h"

namespace mdos::bench {

// One row of the paper's Table I. Sizes use the paper's kB column
// (SI kilobytes).
struct BenchSpec {
  int index;          // 1..6
  int num_objects;    // objects committed per repetition
  uint64_t size_kb;   // object size in kB
  uint64_t object_bytes() const { return size_kb * 1000; }
  uint64_t total_bytes() const {
    return object_bytes() * static_cast<uint64_t>(num_objects);
  }
};

// The six specs of Table I.
std::vector<BenchSpec> Table1Specs();

// Repetitions / calibration from the environment.
int Repetitions();
double CalibrationScale();
// Simulated LAN round-trip added to every store<->store RPC (MDOS_RTT_US,
// default 2000 µs — a conservative data-centre RTT + gRPC software stack
// cost; the paper's remote retrievals are "dominated by gRPC and its
// inherent network jitter").
int64_t SimulatedRttNs();

// Summary statistics over samples (any unit).
struct Summary {
  double min = 0, p50 = 0, mean = 0, p95 = 0, max = 0;
};
Summary Summarize(std::vector<double> samples);

// A started cluster with calibrated fabric and three clients mirroring
// the paper's setup: a producer and a local consumer on node 0, and a
// remote consumer on node 1 (or round-robin for >2 nodes).
class BenchCluster {
 public:
  // `nodes` >= 2. `pool_bytes` is per node and must hold the largest
  // spec (1 GB for Table I bench 6) plus slack. `enable_shared_index`
  // switches on the §V-B fabric-read lookups. `mapped_remote_reads`
  // (the store default) serves remote Gets as generation-validated
  // descriptors; false is the paper's lookup-then-load baseline.
  // `check_global_uniqueness` can be dropped to keep Create off the RPC
  // path in benches that only measure retrieval.
  static std::unique_ptr<BenchCluster> Create(
      size_t nodes = 2, uint64_t pool_bytes = 1500ull * 1000 * 1000,
      bool enable_lookup_cache = false, bool enable_shared_index = false,
      bool mapped_remote_reads = true, bool check_global_uniqueness = true);

  cluster::Cluster& cluster() { return *cluster_; }
  plasma::PlasmaClient& producer() { return *producer_; }
  plasma::PlasmaClient& local_consumer() { return *local_consumer_; }
  plasma::PlasmaClient& remote_consumer() { return *remote_consumer_; }

  // A fresh consumer on an arbitrary node (for multi-node sweeps).
  std::unique_ptr<plasma::PlasmaClient> ConsumerOn(size_t node);

 private:
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<plasma::PlasmaClient> producer_;
  std::unique_ptr<plasma::PlasmaClient> local_consumer_;
  std::unique_ptr<plasma::PlasmaClient> remote_consumer_;
};

// Deterministic ids for one repetition of one spec.
std::vector<ObjectId> SpecIds(const BenchSpec& spec, int rep);

// Phase 1 (paper: "creation, writing, and sealing of the objects"):
// commits all objects with pseudo-random payloads; returns elapsed
// seconds.
double CommitObjects(plasma::PlasmaClient& client,
                     const std::vector<ObjectId>& ids,
                     uint64_t object_bytes);

// Phase 2 (paper Fig. 6: "total object buffer retrieval latency ... from
// the time of the request to the reception of the last buffer"): one
// batched Get. Returns elapsed seconds; buffers are returned via *out.
double RetrieveBuffers(plasma::PlasmaClient& client,
                       const std::vector<ObjectId>& ids,
                       std::vector<plasma::ObjectBuffer>* out,
                       uint64_t timeout_ms = 30000);

// Phase 3 (paper Fig. 7: "consecutively reading the data from the
// requested buffers"): sequential drain of every buffer. Returns elapsed
// seconds; *bytes_read receives the total volume.
double ReadBuffers(const std::vector<plasma::ObjectBuffer>& buffers,
                   uint64_t* bytes_read, uint64_t chunk = 1 << 20);

// Cleanup between repetitions.
void ReleaseAll(plasma::PlasmaClient& client,
                const std::vector<ObjectId>& ids);
void DeleteAll(plasma::PlasmaClient& owner,
               const std::vector<ObjectId>& ids);

// GiB/s from bytes and seconds.
double GiBps(uint64_t bytes, double seconds);

// Prints the standard harness header (reps, scale, host note).
void PrintHarnessHeader(const std::string& title);

}  // namespace mdos::bench
