// Store↔store RPC messages (the paper's gRPC protobufs, re-expressed in
// the wire module's encoding).
//
// Stores interconnect with unary sync RPC (§IV-A2). The method surface:
//   Plasma.Hello        — handshake: exchange node ids, pool regions and
//                         (shared-index extension) the index region
//   Plasma.Lookup       — batched sealed-object location lookup
//   Plasma.Probe        — id-uniqueness probe (sees unsealed objects too)
//   Plasma.Ping         — liveness heartbeat driving peer health states
//   Plasma.Replicate    — push one sealed object's bytes to a replica
//   Plasma.ReplicaDrop  — origin deleted: drop the local replica copy
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "plasma/store.h"
#include "wire/wire.h"

namespace mdos::dist {

// Method names registered with the RPC server.
inline constexpr const char* kMethodHello = "Plasma.Hello";
inline constexpr const char* kMethodLookup = "Plasma.Lookup";
inline constexpr const char* kMethodProbe = "Plasma.Probe";
inline constexpr const char* kMethodPing = "Plasma.Ping";
inline constexpr const char* kMethodReplicate = "Plasma.Replicate";
inline constexpr const char* kMethodReplicaDrop = "Plasma.ReplicaDrop";

// ---- hello -----------------------------------------------------------------

struct HelloRequest {
  uint32_t node_id = 0;
  void EncodeTo(wire::Writer& w) const;
  static Result<HelloRequest> DecodeFrom(wire::Reader& r);
};

struct HelloReply {
  uint32_t node_id = 0;
  uint32_t pool_region = UINT32_MAX;
  // Shared-index extension: fabric region of the replier's index table;
  // UINT32_MAX when the extension is disabled.
  uint32_t index_region = UINT32_MAX;
  // Fabric region of the replier's generation table
  // (plasma/generation_table.h); UINT32_MAX when it exports none. Peers
  // attach it to stamp index-path descriptors and to validate cached
  // locations against delete, eviction, spill and restart.
  uint32_t gen_region = UINT32_MAX;
  std::string store_name;
  void EncodeTo(wire::Writer& w) const;
  static Result<HelloReply> DecodeFrom(wire::Reader& r);
};

// ---- lookup ----------------------------------------------------------------

struct LookupRequest {
  std::vector<ObjectId> ids;
  void EncodeTo(wire::Writer& w) const;
  static Result<LookupRequest> DecodeFrom(wire::Reader& r);
};

struct LookupEntry {
  ObjectId id;
  bool found = false;
  plasma::RemoteObjectLocation location;
  void EncodeTo(wire::Writer& w) const;
  static Result<LookupEntry> DecodeFrom(wire::Reader& r);
};

struct LookupReply {
  std::vector<LookupEntry> entries;
  void EncodeTo(wire::Writer& w) const;
  static Result<LookupReply> DecodeFrom(wire::Reader& r);
};

// ---- probe -----------------------------------------------------------------

struct ProbeRequest {
  ObjectId id;
  void EncodeTo(wire::Writer& w) const;
  static Result<ProbeRequest> DecodeFrom(wire::Reader& r);
};

struct ProbeReply {
  bool exists = false;
  void EncodeTo(wire::Writer& w) const;
  static Result<ProbeReply> DecodeFrom(wire::Reader& r);
};

// ---- ping (heartbeat) ------------------------------------------------------

struct PingRequest {
  uint32_t from_node = 0;
  void EncodeTo(wire::Writer& w) const;
  static Result<PingRequest> DecodeFrom(wire::Reader& r);
};

struct PingReply {
  uint32_t node_id = 0;  // the replier, so a restarted peer is recognised
  void EncodeTo(wire::Writer& w) const;
  static Result<PingReply> DecodeFrom(wire::Reader& r);
};

// ---- replicate (k-way replication fan-out) ---------------------------------

struct ReplicateRequest {
  ObjectId id;
  uint32_t from_node = 0;       // the pushing node (usually the origin)
  uint32_t origin_node = 0;     // the node whose Seal published the object
  uint32_t desired_copies = 0;  // k the object is being held to
  // The full intended copy set (origin + every replica target), so every
  // holder can run the re-heal election without another round trip.
  std::vector<uint32_t> copy_nodes;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  // Data section followed by the metadata section (data_size +
  // metadata_size bytes).
  std::string payload;
  void EncodeTo(wire::Writer& w) const;
  static Result<ReplicateRequest> DecodeFrom(wire::Reader& r);
};

struct ReplicateReply {
  Status status;
  void EncodeTo(wire::Writer& w) const;
  static Result<ReplicateReply> DecodeFrom(wire::Reader& r);
};

// ---- replica drop (origin delete propagation) ------------------------------

struct ReplicaDropRequest {
  ObjectId id;
  uint32_t from_node = 0;  // must match the replica's recorded origin
  void EncodeTo(wire::Writer& w) const;
  static Result<ReplicaDropRequest> DecodeFrom(wire::Reader& r);
};

struct ReplicaDropReply {
  Status status;
  void EncodeTo(wire::Writer& w) const;
  static Result<ReplicaDropReply> DecodeFrom(wire::Reader& r);
};

}  // namespace mdos::dist
