// Coherency-model bench (paper Fig. 3; docs/benchmarks.md).
//
// Quantifies the functional cache model that reproduces ThymesisFlow's
// coherency asymmetry: cost of home reads through the modelled cache,
// cost of the flush mitigation, and a staleness demonstration that
// counts how many stale reads a naive remote-write protocol would have
// served — the hazard that justifies the paper's design rule of never
// writing to remote disaggregated memory.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tf/cache_model.h"

namespace mdos::tf {
namespace {

constexpr uint64_t kMemBytes = 16 << 20;

std::vector<uint8_t>& Memory() {
  static std::vector<uint8_t> memory(kMemBytes, 0);
  return memory;
}

void BM_HomeReadThroughCache(benchmark::State& state) {
  CacheModel cache(Memory().data(), kMemBytes,
                   CacheConfig{128, 4 << 20});
  SplitMix64 rng(1);
  std::vector<uint8_t> buf(state.range(0));
  for (auto _ : state) {
    uint64_t offset = rng.NextBelow(kMemBytes - buf.size());
    cache.Read(offset, buf.data(), buf.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HomeReadThroughCache)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HomeWriteThroughCache(benchmark::State& state) {
  CacheModel cache(Memory().data(), kMemBytes,
                   CacheConfig{128, 4 << 20});
  SplitMix64 rng(2);
  std::vector<uint8_t> buf(state.range(0), 0xEE);
  for (auto _ : state) {
    uint64_t offset = rng.NextBelow(kMemBytes - buf.size());
    cache.Write(offset, buf.data(), buf.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HomeWriteThroughCache)->Arg(64)->Arg(4096)->Arg(65536);

void BM_FlushRange(benchmark::State& state) {
  CacheModel cache(Memory().data(), kMemBytes,
                   CacheConfig{128, 8 << 20});
  std::vector<uint8_t> buf(1 << 16);
  // Warm the cache.
  for (uint64_t off = 0; off + buf.size() <= (4u << 20);
       off += buf.size()) {
    cache.Read(off, buf.data(), buf.size());
  }
  SplitMix64 rng(3);
  for (auto _ : state) {
    uint64_t offset = rng.NextBelow((4u << 20) - 4096);
    cache.FlushRange(offset, 4096);
    // Re-warm the flushed lines so later iterations still flush work.
    cache.Read(offset, buf.data(), 4096);
  }
}
BENCHMARK(BM_FlushRange);

// The staleness experiment: a writer updates the home node's memory
// remotely while the home node keeps polling it. Counts stale reads
// served before eviction/flush resolves them.
void StalenessDemo() {
  std::printf("\n--- Fig. 3b staleness demonstration ---\n");
  std::printf("%-18s %-18s %-14s\n", "flush_interval", "stale_reads",
              "stale_fraction");
  for (int flush_every : {0, 64, 16, 1}) {
    std::vector<uint8_t> memory(1 << 20, 0);
    CacheModel cache(memory.data(), memory.size(), CacheConfig{128, 1 << 20});
    SplitMix64 rng(11);
    uint64_t stale = 0;
    constexpr int kRounds = 10000;
    for (int round = 0; round < kRounds; ++round) {
      uint64_t offset = (rng.NextBelow(64)) * 128;
      uint32_t expected;
      // Home node reads (and caches) the location.
      cache.Read(offset, &expected, sizeof(expected));
      // Remote writer bumps the value behind the cache's back.
      uint32_t next = static_cast<uint32_t>(round);
      std::memcpy(memory.data() + offset, &next, sizeof(next));
      cache.NoteRemoteWrite(offset, sizeof(next));
      if (flush_every > 0 && round % flush_every == 0) {
        cache.FlushRange(offset, sizeof(next));
      }
      uint32_t seen;
      cache.Read(offset, &seen, sizeof(seen));
      if (seen != next) ++stale;
    }
    std::printf("%-18s %-18llu %-14.3f\n",
                flush_every == 0 ? "never"
                                 : ("every " + std::to_string(flush_every))
                                       .c_str(),
                static_cast<unsigned long long>(stale),
                static_cast<double>(stale) / kRounds);
  }
  std::printf(
      "(the store protocol avoids this hazard entirely by never writing "
      "to remote\ndisaggregated memory — writes are always home-local, "
      "reads are coherent)\n");
}

}  // namespace
}  // namespace mdos::tf

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mdos::tf::StalenessDemo();
  return 0;
}
