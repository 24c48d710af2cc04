// Hedged replica reads under a gray (slow-but-alive) replica.
//
// The operator question: when one replica's link silently degrades,
// what does a remote Get cost before the EWMA health ranking has
// learned to avoid the peer? That first-contact window is exactly what
// hedging exists for — the primary stays quiet past its hedge delay,
// the same lookup fires at the next-ranked replica, and the fast copy
// answers. After the first hit the ranking demotes the gray peer and
// every path is fast again, so the episode latency below is measured
// on a FRESH cluster each time: each sample is one cold-ranking Get
// through the full store/lookup path while one replica link carries
// injected latency.
//
// Phases (per-episode latency, p50/p99 across episodes):
//   healthy   — no fault, hedging on (the baseline path)
//   unhedged  — one slow replica link, hedging off: the Get eats the
//               injected latency on the lookup
//   hedged    — same fault, hedging on: the hedge delay bounds the hit
//
// Acceptance bar (recorded in BENCH_pr9.json): hedged p99 stays within
// max(3x healthy p99, a 25 ms floor covering the hedge delay plus
// scheduling noise) — i.e. a gray replica costs a bounded constant,
// not the injected link latency.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "net/fault_injector.h"
#include "plasma/client.h"
#include "plasma/store.h"

namespace mdos::bench {
namespace {

constexpr uint64_t kSlowLinkMs = 50;
constexpr uint64_t kHedgeDelayMs = 5;
constexpr double kHedgedP99FloorMs = 25.0;
constexpr uint64_t kObjectBytes = 64 * 1000;

struct Episode {
  double get_ms = 0;
  uint64_t hedged_reads = 0;
  uint64_t hedge_wins = 0;
  bool ok = false;
};

// One cold-ranking episode: 3 nodes, the payload sealed on BOTH
// non-reader nodes (either replica can answer), optionally one slow
// link from the reader to the ranked-first replica, then a single
// timed Get from the reader.
Episode RunEpisode(uint64_t seed, bool hedged, bool slow_primary) {
  Episode episode;
  auto cluster = std::make_unique<cluster::Cluster>(tf::FabricConfig{});
  for (size_t i = 0; i < 3; ++i) {
    cluster::NodeOptions options;
    options.name = "node" + std::to_string(i);
    options.pool_size = 16ull << 20;
    options.check_global_uniqueness = false;
    // No heartbeat thread: ranking stays on the deterministic node-id
    // tiebreak until the measured Get itself produces latency samples.
    options.registry.heartbeat_interval_ms = 0;
    options.registry.enable_hedged_reads = hedged;
    options.registry.hedge_delay_min_ms = 1;
    options.registry.hedge_delay_max_ms = kHedgeDelayMs;
    if (!cluster->AddNode(options).ok()) return episode;
  }
  if (!cluster->StartAll().ok()) return episode;

  const ObjectId id = ObjectId::FromName("hedge-" + std::to_string(seed));
  std::string payload(kObjectBytes, '\0');
  SplitMix64(seed).Fill(payload.data(), payload.size());
  for (size_t i : {size_t{1}, size_t{2}}) {
    auto writer = cluster->node(i)->CreateClient("writer");
    if (!writer.ok() || !(*writer)->CreateAndSeal(id, payload).ok()) {
      return episode;
    }
  }

  if (slow_primary) {
    // With no latency samples the reader ranks peers by ascending node
    // id — slow exactly that first-ranked link (one-way: the gray
    // direction).
    const size_t primary_index =
        cluster->node(1)->id() < cluster->node(2)->id() ? 1 : 2;
    net::LinkFault fault;
    fault.latency_ns = static_cast<int64_t>(kSlowLinkMs) * 1'000'000;
    if (!cluster->SetLinkFault(0, primary_index, fault).ok()) {
      return episode;
    }
  }

  auto reader = cluster->node(0)->CreateClient("reader");
  if (!reader.ok()) return episode;
  Stopwatch sw;
  auto buffer = (*reader)->Get(id, /*timeout_ms=*/2000,
                               Deadline::AfterMs(5000));
  episode.get_ms = sw.ElapsedMillis();
  episode.ok = buffer.ok();
  if (buffer.ok()) (void)(*reader)->Release(id);

  const auto stats = cluster->node(0)->registry().stats();
  episode.hedged_reads = stats.hedged_reads;
  episode.hedge_wins = stats.hedge_wins;
  return episode;
}

double P99(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t index = std::min(
      samples.size() - 1,
      static_cast<size_t>(static_cast<double>(samples.size()) * 0.99));
  return samples[index];
}

struct PhaseResult {
  Summary summary;
  double p99 = 0;
  uint64_t hedged_reads = 0;
  uint64_t hedge_wins = 0;
  int failures = 0;
};

PhaseResult RunPhase(const char* name, int episodes, bool hedged,
                     bool slow_primary) {
  PhaseResult result;
  std::vector<double> samples;
  for (int i = 0; i < episodes; ++i) {
    Episode episode = RunEpisode(
        0xBEE5ull * 1000003 + static_cast<uint64_t>(i) +
            (hedged ? 1u : 0u) * 500 + (slow_primary ? 1u : 0u) * 250,
        hedged, slow_primary);
    if (!episode.ok) {
      ++result.failures;
      continue;
    }
    samples.push_back(episode.get_ms);
    result.hedged_reads += episode.hedged_reads;
    result.hedge_wins += episode.hedge_wins;
  }
  result.summary = Summarize(samples);
  result.p99 = P99(samples);
  std::printf("%-10s %-10.3f %-10.3f %-10.3f %-8llu %-8llu %d\n", name,
              result.summary.p50, result.p99, result.summary.max,
              static_cast<unsigned long long>(result.hedged_reads),
              static_cast<unsigned long long>(result.hedge_wins),
              result.failures);
  std::fflush(stdout);
  return result;
}

int Run() {
  PrintHarnessHeader(
      "hedged replica reads: first-contact Get latency under one gray "
      "replica");
  const int episodes = std::max(8, Repetitions() * 2);
  std::printf("slow_link=%llums hedge_delay=%llums episodes=%d\n\n",
              static_cast<unsigned long long>(kSlowLinkMs),
              static_cast<unsigned long long>(kHedgeDelayMs), episodes);
  std::printf("%-10s %-10s %-10s %-10s %-8s %-8s %s\n", "phase",
              "p50_ms", "p99_ms", "max_ms", "hedges", "wins", "fail");

  PhaseResult healthy =
      RunPhase("healthy", episodes, /*hedged=*/true, /*slow=*/false);
  PhaseResult unhedged =
      RunPhase("unhedged", episodes, /*hedged=*/false, /*slow=*/true);
  PhaseResult hedged =
      RunPhase("hedged", episodes, /*hedged=*/true, /*slow=*/true);

  const double bar_ms =
      std::max(3.0 * healthy.p99, kHedgedP99FloorMs);
  const bool bar_met = hedged.p99 <= bar_ms;
  std::printf(
      "\nbar: hedged p99 %.3f ms %s max(3 x healthy p99, %.0f ms) = "
      "%.3f ms -> %s\n",
      hedged.p99, bar_met ? "<=" : ">", kHedgedP99FloorMs, bar_ms,
      bar_met ? "MET" : "MISSED");

  std::printf(
      "RESULT bench=hedged_read phase=healthy p50_ms=%.3f p99_ms=%.3f "
      "max_ms=%.3f\n",
      healthy.summary.p50, healthy.p99, healthy.summary.max);
  std::printf(
      "RESULT bench=hedged_read phase=unhedged p50_ms=%.3f p99_ms=%.3f "
      "max_ms=%.3f slow_link_ms=%llu\n",
      unhedged.summary.p50, unhedged.p99, unhedged.summary.max,
      static_cast<unsigned long long>(kSlowLinkMs));
  std::printf(
      "RESULT bench=hedged_read phase=hedged p50_ms=%.3f p99_ms=%.3f "
      "max_ms=%.3f hedged_reads=%llu hedge_wins=%llu "
      "hedge_delay_ms=%llu p99_bar_ms=%.3f bar_met=%d\n",
      hedged.summary.p50, hedged.p99, hedged.summary.max,
      static_cast<unsigned long long>(hedged.hedged_reads),
      static_cast<unsigned long long>(hedged.hedge_wins),
      static_cast<unsigned long long>(kHedgeDelayMs), bar_ms, bar_met);
  std::fflush(stdout);

  std::printf(
      "\nshape target: unhedged first contact pays the slow link on "
      "the lookup\n(~1x link latency); hedging caps it near the "
      "hedge delay; healthy path is\nunaffected by having hedging "
      "armed.\n");
  return bar_met ? 0 : 1;
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
