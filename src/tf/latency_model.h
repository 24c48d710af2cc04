// LatencyModel — calibrated timing model of ThymesisFlow memory accesses.
//
// The paper's hardware maps remote DRAM into the local physical address
// space through OpenCAPI FPGAs; loads/stores to the disaggregated region
// simply take longer than local DRAM. Without that hardware we interpose
// access *functions* (tf::AttachedRegion::Read/Write) and make each call
// cost what the modelled hardware would:
//
//   duration(bytes) = base_latency + bytes / bandwidth
//
// The defaults reproduce the paper's stabilised Fig. 7 single-thread
// throughputs: ~6.5 GiB/s local, ~5.75 GiB/s remote (≈11.5 % penalty),
// with a remote access latency in the microsecond range consistent with
// ThymesisFlow's published load latency (~2.5 µs round trip off-node).
// The model *floors* elapsed time: if the host executes the memcpy faster
// than the modelled duration, the accessor spins out the difference; if
// the host is slower, real time wins (shapes are preserved, absolute
// numbers degrade gracefully).
#pragma once

#include <cstdint>

namespace mdos::tf {

struct LatencyParams {
  int64_t base_latency_ns = 0;       // fixed cost per access call
  double bandwidth_gib_per_s = 0.0;  // streaming bandwidth; 0 = unthrottled

  // Modelled duration of one access of `bytes` bytes.
  int64_t AccessNanos(uint64_t bytes) const;
};

// Defaults calibrated against the paper (see docs/architecture.md, "The
// fabric", and docs/benchmarks.md, "Scaling caveats": calibration scale).
LatencyParams LocalDramParams();    // ~6.5 GiB/s, ~90 ns
LatencyParams RemoteFabricParams(); // ~5.75 GiB/s, ~2.5 µs

// Paper calibration scaled by `scale` (0 < scale <= 1): bandwidths are
// multiplied by `scale`, base latencies divided by it. The paper's IC922
// sustains 6.5 GiB/s single-thread; commodity hosts running this
// simulator often cannot, and when the real copy is slower than the
// modelled duration the local/remote gap drowns in host noise. Scaling
// both bandwidths down by the same factor keeps every ratio and
// crossover of the paper intact while letting the model dominate the
// host's copy cost. Benchmarks report both raw and paper-scale
// (measured / scale) numbers.
LatencyParams ScaledLocalParams(double scale);
LatencyParams ScaledRemoteParams(double scale);

// Executes a memcpy-like access and enforces the modelled duration:
// returns only once `params.AccessNanos(bytes)` wall time has elapsed
// since `start_ns`.
void EnforceModel(const LatencyParams& params, uint64_t bytes,
                  int64_t start_ns);

// Batched (pipelined) accesses. EnforceModel charges a full base
// latency per access — right for a dependent chain (each load needs the
// previous result), but wildly pessimistic for a batch of INDEPENDENT
// loads: OpenCAPI loads are plain CPU loads, and hardware keeps many in
// flight at once (memory-level parallelism), so N independent probes
// cost one base latency (the pipeline depth) plus the bandwidth term of
// the total volume, not N serial round trips. Callers resolving many
// unrelated slots (a batched descriptor lookup probing the shared index
// and generation table for hundreds of ids) record each access here and
// Settle() once for the wave:
//
//   AccessBatch batch(remote_params);
//   for (id : ids) reader.Probe(id, &batch);   // Add()s, no stall
//   batch.Settle();                            // one pipelined charge
class AccessBatch {
 public:
  explicit AccessBatch(const LatencyParams& params);

  // Records one access of `bytes` bytes; no time is enforced yet.
  void Add(uint64_t bytes) {
    ++accesses_;
    bytes_ += bytes;
  }

  // Enforces base + total_bytes/bandwidth since construction (no-op if
  // nothing was recorded). Idempotent; called by the destructor if the
  // caller did not settle explicitly.
  void Settle();

  ~AccessBatch() { Settle(); }
  AccessBatch(const AccessBatch&) = delete;
  AccessBatch& operator=(const AccessBatch&) = delete;

 private:
  LatencyParams params_;
  int64_t start_ns_;
  uint64_t accesses_ = 0;
  uint64_t bytes_ = 0;
  bool settled_ = false;
};

}  // namespace mdos::tf
