// Ablation D — rack-scale (N-node) operation (paper §V-B; docs/benchmarks.md
// ablation D).
//
// The paper's prototype accommodates 2 nodes and notes that rack-scale
// "needs to be modified to accommodate multiple nodes. The current
// system design allows for this modification." This bench runs the
// extension: N nodes each publish a partition of the dataset; a single
// consumer retrieves and reads all partitions. Reported per N:
//   retrieval latency (lookup fans out across N-1 peers),
//   aggregate read throughput (data is striped over N-1 remote pools +
//   one local pool).
#include <cstdio>

#include "bench_common.h"

namespace mdos::bench {
namespace {

int Run() {
  PrintHarnessHeader("Ablation D — multi-node (rack-scale) sweep");

  std::printf("%-7s %-14s %-16s %-14s\n", "nodes", "retrieve_ms",
              "read_GiB/s", "read_GiB/s(ps)");
  const double scale = CalibrationScale();
  const int reps = std::max(3, Repetitions() / 2);
  constexpr int kObjectsPerNode = 8;
  constexpr uint64_t kObjectKb = 4000;  // 4 MB objects

  for (size_t nodes : {2, 3, 4, 6, 8}) {
    auto bench = BenchCluster::Create(nodes, /*pool_bytes=*/512ull << 20);
    if (bench == nullptr) return 1;

    // Each node publishes its partition.
    std::vector<ObjectId> all_ids;
    for (size_t node = 0; node < nodes; ++node) {
      auto producer = bench->ConsumerOn(node);
      if (producer == nullptr) return 1;
      BenchSpec spec{static_cast<int>(100 + node), kObjectsPerNode,
                     kObjectKb};
      auto ids = SpecIds(spec, static_cast<int>(nodes));
      (void)CommitObjects(*producer, ids, spec.object_bytes());
      all_ids.insert(all_ids.end(), ids.begin(), ids.end());
    }

    std::vector<double> retrieve_ms, gibps;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<plasma::ObjectBuffer> buffers;
      retrieve_ms.push_back(
          RetrieveBuffers(bench->local_consumer(), all_ids, &buffers) *
          1e3);
      uint64_t bytes = 0;
      double read_s = ReadBuffers(buffers, &bytes);
      gibps.push_back(GiBps(bytes, read_s));
      ReleaseAll(bench->local_consumer(), all_ids);
    }

    double throughput = Summarize(gibps).p50;
    std::printf("%-7zu %-14.3f %-16.2f %-14.2f\n", nodes,
                Summarize(retrieve_ms).p50, throughput,
                throughput / scale);
    std::fflush(stdout);
  }

  std::printf(
      "\nshape targets: retrieval grows with node count (lookup fans out "
      "over N-1 peers\nsequentially, the sync-unary design); read "
      "throughput approaches the remote-\nbandwidth model as the local "
      "fraction of the data shrinks (1/N local).\n");
  return 0;
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
