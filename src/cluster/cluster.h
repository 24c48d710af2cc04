// Cluster — a rack of simulated nodes on one ThymesisFlow fabric.
//
// The paper evaluates a 2-node system and notes that rack-scale operation
// "needs to be modified to accommodate multiple nodes. The current system
// design allows for this modification" (§V-B). Cluster implements that
// extension: any number of nodes, stores interconnected in a full mesh,
// all sharing one fabric (and thus one latency calibration).
//
// Lifecycle: AddNode every node first, then StartAll — starting exports
// each node's pool region, boots its store + RPC server, and performs
// the Hello mesh handshake (peers learn each other's pool and
// shared-index regions). Stop (also run by the destructor) tears every
// node down; it is idempotent.
//
// Threading: AddNode/StartAll/Stop are control-plane calls and must be
// serialized by the owner (typically a test or benchmark main thread).
// Once started, the per-node stacks run their own threads (store accept
// + shard loops, RPC server) and clients on any thread may talk to any
// node's store; node(i) pointers stay valid until Stop.
#pragma once

#include <memory>
#include <vector>

#include "cluster/node.h"
#include "common/status.h"
#include "net/fault_injector.h"
#include "tf/fabric.h"

namespace mdos::cluster {

class Cluster {
 public:
  // `fault_seed` seeds the cluster-wide network fault injector; the same
  // seed replays an identical chaos schedule (jitter draws, drop rolls).
  explicit Cluster(tf::FabricConfig fabric_config = {},
                   uint64_t fault_seed = 0x6d646f73u /* "mdos" */)
      : fabric_(fabric_config), fault_injector_(fault_seed) {
    fabric_.SetFaultInjector(&fault_injector_);
  }
  ~Cluster() { Stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Adds (but does not start) a node.
  Result<Node*> AddNode(NodeOptions options);

  // Starts every node, then interconnects all stores in a full mesh.
  Status StartAll();

  // Stops every node.
  void Stop();

  // Failure injection: crashes node `index` abruptly (no notice —
  // survivors discover the death through their health machines). The
  // Node object stays valid for RestartNode.
  Status KillNode(size_t index);
  // Rebuilds and restarts a killed node on the same fabric identity and
  // RPC port, then re-meshes it with every running node. Survivors'
  // channels redial into the new incarnation on their own (see
  // rpc/channel.h) and their health machines re-admit the peer on the
  // next successful heartbeat.
  Status RestartNode(size_t index);

  // Network fault injection (all seeded + deterministic; indices are
  // AddNode order). Faults apply to both the RPC control plane and the
  // mapped fabric data plane.
  //
  // Drops everything in both directions between a and b.
  Status PartitionLink(size_t a, size_t b);
  // Drops only from -> to (asymmetric / gray partition).
  Status PartitionOneWay(size_t from, size_t to);
  // Adds fixed latency (+ uniform jitter) to both directions.
  Status SlowLink(size_t a, size_t b, uint64_t latency_ms,
                  uint64_t jitter_ms = 0);
  // Installs an arbitrary fault on the directed link from -> to.
  Status SetLinkFault(size_t from, size_t to, net::LinkFault fault);
  // Clears both directions between a and b.
  Status HealLink(size_t a, size_t b);
  // Clears every installed fault.
  void HealAllLinks() { fault_injector_.ClearAll(); }
  net::FaultInjector& fault_injector() { return fault_injector_; }

  Node* node(size_t index) { return nodes_.at(index).get(); }
  size_t size() const { return nodes_.size(); }
  tf::Fabric& fabric() { return fabric_; }

  // Convenience: a two-node cluster with default options, started and
  // meshed — the paper's experimental setup.
  static Result<std::unique_ptr<Cluster>> CreateTwoNode(
      NodeOptions base = {}, tf::FabricConfig fabric_config = {});

 private:
  tf::Fabric fabric_;
  // Shared by the fabric data plane and every node's peer channels; the
  // injector outlives the nodes (declared before nodes_).
  net::FaultInjector fault_injector_;
  std::vector<std::unique_ptr<Node>> nodes_;
  bool started_ = false;
};

}  // namespace mdos::cluster
