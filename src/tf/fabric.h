// Fabric — the software-defined ThymesisFlow interconnect.
//
// Owns all simulated nodes and their exported disaggregated regions and
// hands out AttachedRegion accessors. Attachment semantics follow the
// hardware: a node attaching its *own* region gets local-DRAM timing; a
// node attaching a *remote* region gets fabric timing and the coherency
// behaviour documented in AttachedRegion. The fabric is the unit of
// configuration for latency calibration (see docs/benchmarks.md, "Scaling
// caveats") and collects
// global traffic counters split by local/remote.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "tf/attached_region.h"
#include "tf/latency_model.h"
#include "tf/node_memory.h"

namespace mdos::tf {

using RegionId = uint32_t;

struct FabricConfig {
  LatencyParams local = LocalDramParams();
  LatencyParams remote = RemoteFabricParams();
  CacheConfig home_cache;
  // When true, home-node accesses are routed through the functional
  // CacheModel so the Fig. 3b staleness hazard is observable. The model
  // is line-granular bookkeeping and therefore slow; leave it off for
  // throughput benchmarks (coherency is unaffected as long as nobody
  // performs remote writes — which the store protocol never does).
  bool model_home_cache = false;
};

struct FabricStats {
  RegionCounters local;
  RegionCounters remote;
};

struct RegionInfo {
  RegionId id = 0;
  NodeId owner = 0;
  uint64_t offset = 0;  // offset within the owner's slab
  uint64_t size = 0;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config = {});

  // Creates a node with `slab_size` bytes of DRAM; the window
  // [disagg_offset, disagg_offset+disagg_size) is fabric-exportable.
  // disagg_size == UINT64_MAX exports the whole slab.
  Result<NodeId> AddNode(const std::string& name, uint64_t slab_size,
                         uint64_t disagg_offset = 0,
                         uint64_t disagg_size = UINT64_MAX);

  Result<NodeMemory*> node(NodeId id);
  size_t node_count() const;

  // Exports [offset, offset+size) of `owner`'s slab as a region. The
  // window must lie inside the owner's disaggregated window.
  Result<RegionId> ExportRegion(NodeId owner, uint64_t offset,
                                uint64_t size);
  Result<RegionInfo> region_info(RegionId id) const;

  // Attaches `region` from the perspective of `accessor`. Local when
  // accessor == owner.
  Result<AttachedRegion> Attach(NodeId accessor, RegionId region);

  // Chaos hook: remote attachments handed out AFTER this call consult
  // `injector` (accessor -> owner direction) on every access. Install
  // before any store/client attaches — the injector stays quiet until a
  // fault is set, so wiring it unconditionally costs nothing.
  void SetFaultInjector(net::FaultInjector* injector);

  const FabricConfig& config() const { return config_; }
  FabricStats stats() const;

 private:
  FabricConfig config_;
  mutable Mutex mutex_;
  net::FaultInjector* injector_ GUARDED_BY(mutex_) = nullptr;
  std::vector<std::unique_ptr<NodeMemory>> nodes_ GUARDED_BY(mutex_);
  std::vector<RegionInfo> regions_ GUARDED_BY(mutex_);
  // Stable addresses: AttachedRegion keeps raw pointers into these.
  std::unique_ptr<RegionCounters> local_counters_;
  std::unique_ptr<RegionCounters> remote_counters_;
};

}  // namespace mdos::tf
