// Ablation B — remote-lookup caching (the §V-B future-work extension;
// docs/benchmarks.md).
//
// The paper proposes "a caching mechanism for previously requested remote
// objects ... would increase the performance of repeated requests for
// identifiers". This bench measures repeated remote retrieval latency in
// two configurations:
//   baseline      — paper prototype: every Get pays the lookup RPC
//   +cache        — lookup cache on: repeat Gets skip the RPC
#include <cstdio>

#include "bench_common.h"

namespace mdos::bench {
namespace {

struct Config {
  const char* name;
  bool cache;
};

double MedianRepeatGetMs(BenchCluster& bench, int objects, int repeats) {
  // Commit once; measure repeated retrievals of the same ids from the
  // remote consumer.
  BenchSpec spec{0, objects, 10};  // 10 kB objects
  auto ids = SpecIds(spec, /*rep=*/9000 + objects);
  (void)CommitObjects(bench.producer(), ids, spec.object_bytes());

  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    std::vector<plasma::ObjectBuffer> buffers;
    samples.push_back(
        RetrieveBuffers(bench.remote_consumer(), ids, &buffers) * 1e3);
    ReleaseAll(bench.remote_consumer(), ids);
  }
  DeleteAll(bench.producer(), ids);
  // Drop the first (cold) sample: the cache ablation targets repeats.
  samples.erase(samples.begin());
  return Summarize(samples).p50;
}

int Run() {
  PrintHarnessHeader(
      "Ablation B — remote lookup cache (paper §V-B)");

  const Config configs[] = {
      {"baseline (paper)", false},
      {"+lookup cache", true},
  };

  std::printf("%-22s %-14s %-14s %-14s\n", "config", "get10_ms",
              "get100_ms", "cache_hits");
  const int repeats = std::max(5, Repetitions());
  for (const Config& config : configs) {
    auto bench = BenchCluster::Create(
        /*nodes=*/2, /*pool_bytes=*/256ull << 20,
        /*enable_lookup_cache=*/config.cache);
    if (bench == nullptr) return 1;

    double get10 = MedianRepeatGetMs(*bench, 10, repeats);
    double get100 = MedianRepeatGetMs(*bench, 100, repeats);
    uint64_t hits = 0;
    if (auto* cache =
            bench->cluster().node(1)->registry().lookup_cache()) {
      hits = cache->stats().hits;
    }
    std::printf("%-22s %-14.3f %-14.3f %-14llu\n", config.name, get10,
                get100, static_cast<unsigned long long>(hits));
    std::fflush(stdout);
  }

  std::printf(
      "\nshape target: the cache removes the RPC from repeat gets "
      "(sub-ms), the paper's\nbaseline pays it every time.\n");
  return 0;
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
