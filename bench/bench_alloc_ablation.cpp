// Ablation A — the paper's first-fit ordered-map allocator vs a
// dlmalloc-style segregated-fit baseline (docs/benchmarks.md ablation A).
//
// The paper replaced Plasma's dlmalloc with "a simple allocation
// algorithm" and acknowledges it "surrenders some benefits to the
// original dlmalloc library" (§IV-A1), listing improved allocators as
// future work (§V-B). This bench quantifies that trade-off: allocation
// and free latency under several workload shapes, plus an external
// fragmentation report after heavy churn.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "alloc/first_fit_allocator.h"
#include "alloc/segregated_fit_allocator.h"
#include "common/rng.h"

namespace mdos::alloc {
namespace {

constexpr uint64_t kCapacity = 1ull << 30;

std::unique_ptr<Allocator> Make(int kind) {
  if (kind == 0) return std::make_unique<FirstFitAllocator>(kCapacity);
  return std::make_unique<SegregatedFitAllocator>(kCapacity);
}

const char* KindName(int kind) {
  return kind == 0 ? "first_fit" : "segregated_fit";
}

// Uniform-size allocate/free (the Plasma store's common case: many
// similar-sized objects of one workload).
void BM_AllocFreeUniform(benchmark::State& state) {
  auto allocator = Make(static_cast<int>(state.range(0)));
  uint64_t size = static_cast<uint64_t>(state.range(1));
  for (auto _ : state) {
    auto a = allocator->Allocate(size);
    if (!a.ok()) {
      state.SkipWithError("unexpected OOM");
      break;
    }
    benchmark::DoNotOptimize(a->offset);
    (void)allocator->Free(a->offset);
  }
  state.SetLabel(KindName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_AllocFreeUniform)
    ->ArgsProduct({{0, 1}, {1000, 100000, 10000000}});

// Mixed-size churn: a live set of pseudo-random sizes with random
// replacement, the steady state of a long-lived store.
void BM_ChurnMixedSizes(benchmark::State& state) {
  auto allocator = Make(static_cast<int>(state.range(0)));
  SplitMix64 rng(42);
  std::vector<uint64_t> live;
  // Pre-populate a live set.
  for (int i = 0; i < 1000; ++i) {
    auto a = allocator->Allocate(1 + rng.NextBelow(1 << 16));
    if (a.ok()) live.push_back(a->offset);
  }
  for (auto _ : state) {
    size_t victim = rng.NextBelow(live.size());
    (void)allocator->Free(live[victim]);
    auto a = allocator->Allocate(1 + rng.NextBelow(1 << 16));
    if (!a.ok()) {
      state.SkipWithError("unexpected OOM");
      break;
    }
    live[victim] = a->offset;
  }
  state.SetLabel(KindName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ChurnMixedSizes)->Arg(0)->Arg(1);

// Free-list pressure: allocation latency when the free set is shattered
// into many regions (the ordered-map look-up's worst case).
void BM_AllocUnderFragmentation(benchmark::State& state) {
  auto allocator = Make(static_cast<int>(state.range(0)));
  // Checkerboard: allocate the whole pool in 4 KiB blocks, free every
  // other one -> ~128k disjoint free regions.
  std::vector<uint64_t> offsets;
  while (true) {
    auto a = allocator->Allocate(4096);
    if (!a.ok()) break;
    offsets.push_back(a->offset);
  }
  for (size_t i = 0; i < offsets.size(); i += 2) {
    (void)allocator->Free(offsets[i]);
  }
  for (auto _ : state) {
    auto a = allocator->Allocate(4096);
    if (!a.ok()) {
      state.SkipWithError("unexpected OOM");
      break;
    }
    (void)allocator->Free(a->offset);
  }
  state.SetLabel(KindName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_AllocUnderFragmentation)->Arg(0)->Arg(1);

// Not a timing benchmark: prints the fragmentation statistics after an
// identical churn workload, the qualitative half of the ablation.
void ReportFragmentation() {
  std::printf("\n--- fragmentation after identical churn (1M ops) ---\n");
  std::printf("%-16s %-14s %-16s %-20s\n", "allocator", "free_regions",
              "largest_free_MB", "ext_fragmentation");
  for (int kind : {0, 1}) {
    auto allocator = Make(kind);
    SplitMix64 rng(7);
    std::vector<uint64_t> live;
    for (int op = 0; op < 1000000; ++op) {
      bool do_alloc = live.empty() || rng.NextBelow(100) < 52;
      if (do_alloc) {
        auto a = allocator->Allocate(64 + rng.NextBelow(1 << 18));
        if (a.ok()) live.push_back(a->offset);
      } else {
        size_t victim = rng.NextBelow(live.size());
        (void)allocator->Free(live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }
    }
    auto stats = allocator->stats();
    std::printf("%-16s %-14llu %-16.1f %-20.4f\n", KindName(kind),
                static_cast<unsigned long long>(stats.free_regions),
                static_cast<double>(stats.largest_free_region) / 1e6,
                stats.ExternalFragmentation());
  }
}

}  // namespace
}  // namespace mdos::alloc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mdos::alloc::ReportFragmentation();
  return 0;
}
