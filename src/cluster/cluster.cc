#include "cluster/cluster.h"

namespace mdos::cluster {

Result<Node*> Cluster::AddNode(NodeOptions options) {
  if (options.name == "node") {
    options.name = "node" + std::to_string(nodes_.size());
  }
  // Every node's peer channels route through the cluster injector; the
  // injector is inert until a fault is installed. Harnesses that bring
  // their own injector keep it.
  if (options.registry.fault_injector == nullptr) {
    options.registry.fault_injector = &fault_injector_;
  }
  MDOS_ASSIGN_OR_RETURN(auto node, Node::Create(&fabric_, options));
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

Status Cluster::StartAll() {
  if (started_) return Status::Invalid("cluster already started");
  for (auto& node : nodes_) {
    MDOS_RETURN_IF_ERROR(node->Start());
  }
  for (auto& node : nodes_) {
    for (auto& peer : nodes_) {
      if (node.get() == peer.get()) continue;
      MDOS_RETURN_IF_ERROR(node->ConnectPeer(*peer));
    }
  }
  started_ = true;
  return Status::OK();
}

void Cluster::Stop() {
  if (!started_) {
    nodes_.clear();
    return;
  }
  started_ = false;
  for (auto& node : nodes_) {
    node->Stop();
  }
  nodes_.clear();
}

Status Cluster::KillNode(size_t index) {
  if (index >= nodes_.size()) return Status::Invalid("no such node");
  nodes_[index]->Kill();
  return Status::OK();
}

Status Cluster::RestartNode(size_t index) {
  if (index >= nodes_.size()) return Status::Invalid("no such node");
  Node* node = nodes_[index].get();
  if (node->started()) return Status::Invalid("node still running");
  MDOS_RETURN_IF_ERROR(node->Restart());
  // Re-mesh from the restarted side; survivors re-admit the peer through
  // their own heartbeats + channel redials.
  for (auto& peer : nodes_) {
    if (peer.get() == node || !peer->started()) continue;
    MDOS_RETURN_IF_ERROR(node->ConnectPeer(*peer));
  }
  return Status::OK();
}

Status Cluster::PartitionLink(size_t a, size_t b) {
  MDOS_RETURN_IF_ERROR(PartitionOneWay(a, b));
  return PartitionOneWay(b, a);
}

Status Cluster::PartitionOneWay(size_t from, size_t to) {
  net::LinkFault fault;
  fault.partitioned = true;
  return SetLinkFault(from, to, fault);
}

Status Cluster::SlowLink(size_t a, size_t b, uint64_t latency_ms,
                         uint64_t jitter_ms) {
  net::LinkFault fault;
  fault.latency_ns = static_cast<int64_t>(latency_ms) * 1000000;
  fault.jitter_ns = static_cast<int64_t>(jitter_ms) * 1000000;
  MDOS_RETURN_IF_ERROR(SetLinkFault(a, b, fault));
  return SetLinkFault(b, a, fault);
}

Status Cluster::SetLinkFault(size_t from, size_t to,
                             net::LinkFault fault) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::Invalid("no such node");
  }
  fault_injector_.SetFault(nodes_[from]->id(), nodes_[to]->id(), fault);
  return Status::OK();
}

Status Cluster::HealLink(size_t a, size_t b) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return Status::Invalid("no such node");
  }
  fault_injector_.ClearFault(nodes_[a]->id(), nodes_[b]->id());
  fault_injector_.ClearFault(nodes_[b]->id(), nodes_[a]->id());
  return Status::OK();
}

Result<std::unique_ptr<Cluster>> Cluster::CreateTwoNode(
    NodeOptions base, tf::FabricConfig fabric_config) {
  auto cluster = std::make_unique<Cluster>(fabric_config);
  NodeOptions a = base;
  a.name = "node0";
  NodeOptions b = base;
  b.name = "node1";
  MDOS_RETURN_IF_ERROR(cluster->AddNode(a).status());
  MDOS_RETURN_IF_ERROR(cluster->AddNode(b).status());
  MDOS_RETURN_IF_ERROR(cluster->StartAll());
  return cluster;
}

}  // namespace mdos::cluster
