#include "dist/messages.h"

#include "plasma/protocol.h"

namespace mdos::dist {

namespace {

void EncodeLocation(wire::Writer& w,
                    const plasma::RemoteObjectLocation& loc) {
  w.PutU32(loc.home_node);
  w.PutU32(loc.home_region);
  w.PutU64(loc.offset);
  w.PutU64(loc.data_size);
  w.PutU64(loc.metadata_size);
  w.PutU64(loc.generation);
  w.PutU64(loc.gen_slot);
  w.PutU32(loc.gen_region);
  w.PutU64(loc.gen_epoch);
}

Result<plasma::RemoteObjectLocation> DecodeLocation(wire::Reader& r) {
  plasma::RemoteObjectLocation loc;
  MDOS_ASSIGN_OR_RETURN(loc.home_node, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(loc.home_region, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(loc.offset, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(loc.data_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(loc.metadata_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(loc.generation, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(loc.gen_slot, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(loc.gen_region, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(loc.gen_epoch, r.GetU64());
  return loc;
}

}  // namespace

// ---- hello -----------------------------------------------------------------

void HelloRequest::EncodeTo(wire::Writer& w) const { w.PutU32(node_id); }
Result<HelloRequest> HelloRequest::DecodeFrom(wire::Reader& r) {
  HelloRequest m;
  MDOS_ASSIGN_OR_RETURN(m.node_id, r.GetU32());
  return m;
}

void HelloReply::EncodeTo(wire::Writer& w) const {
  w.PutU32(node_id);
  w.PutU32(pool_region);
  w.PutU32(index_region);
  w.PutU32(gen_region);
  w.PutString(store_name);
}
Result<HelloReply> HelloReply::DecodeFrom(wire::Reader& r) {
  HelloReply m;
  MDOS_ASSIGN_OR_RETURN(m.node_id, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.pool_region, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.index_region, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.gen_region, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.store_name, r.GetString());
  return m;
}

// ---- lookup ----------------------------------------------------------------

void LookupRequest::EncodeTo(wire::Writer& w) const {
  w.PutRepeated(ids, [](wire::Writer& w2, const ObjectId& id) {
    w2.PutObjectId(id);
  });
}
Result<LookupRequest> LookupRequest::DecodeFrom(wire::Reader& r) {
  LookupRequest m;
  MDOS_ASSIGN_OR_RETURN(
      m.ids, (r.GetRepeated<ObjectId>(
                 [](wire::Reader& r2) { return r2.GetObjectId(); })));
  return m;
}

void LookupEntry::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
  w.PutBool(found);
  EncodeLocation(w, location);
}
Result<LookupEntry> LookupEntry::DecodeFrom(wire::Reader& r) {
  LookupEntry m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  MDOS_ASSIGN_OR_RETURN(m.found, r.GetBool());
  MDOS_ASSIGN_OR_RETURN(m.location, DecodeLocation(r));
  return m;
}

void LookupReply::EncodeTo(wire::Writer& w) const {
  w.PutRepeated(entries, [](wire::Writer& w2, const LookupEntry& e) {
    e.EncodeTo(w2);
  });
}
Result<LookupReply> LookupReply::DecodeFrom(wire::Reader& r) {
  LookupReply m;
  MDOS_ASSIGN_OR_RETURN(m.entries,
                        (r.GetRepeated<LookupEntry>([](wire::Reader& r2) {
                          return LookupEntry::DecodeFrom(r2);
                        })));
  return m;
}

// ---- probe -----------------------------------------------------------------

void ProbeRequest::EncodeTo(wire::Writer& w) const { w.PutObjectId(id); }
Result<ProbeRequest> ProbeRequest::DecodeFrom(wire::Reader& r) {
  ProbeRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  return m;
}

void ProbeReply::EncodeTo(wire::Writer& w) const { w.PutBool(exists); }
Result<ProbeReply> ProbeReply::DecodeFrom(wire::Reader& r) {
  ProbeReply m;
  MDOS_ASSIGN_OR_RETURN(m.exists, r.GetBool());
  return m;
}

// ---- ping (heartbeat) ------------------------------------------------------

void PingRequest::EncodeTo(wire::Writer& w) const { w.PutU32(from_node); }
Result<PingRequest> PingRequest::DecodeFrom(wire::Reader& r) {
  PingRequest m;
  MDOS_ASSIGN_OR_RETURN(m.from_node, r.GetU32());
  return m;
}

void PingReply::EncodeTo(wire::Writer& w) const { w.PutU32(node_id); }
Result<PingReply> PingReply::DecodeFrom(wire::Reader& r) {
  PingReply m;
  MDOS_ASSIGN_OR_RETURN(m.node_id, r.GetU32());
  return m;
}

// ---- replicate (k-way replication fan-out) ---------------------------------

void ReplicateRequest::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
  w.PutU32(from_node);
  w.PutU32(origin_node);
  w.PutU32(desired_copies);
  w.PutRepeated(copy_nodes, [](wire::Writer& w2, uint32_t node) {
    w2.PutU32(node);
  });
  w.PutU64(data_size);
  w.PutU64(metadata_size);
  w.PutBytes(payload);
}
Result<ReplicateRequest> ReplicateRequest::DecodeFrom(wire::Reader& r) {
  ReplicateRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  MDOS_ASSIGN_OR_RETURN(m.from_node, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.origin_node, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.desired_copies, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.copy_nodes, (r.GetRepeated<uint32_t>(
      [](wire::Reader& r2) { return r2.GetU32(); })));
  MDOS_ASSIGN_OR_RETURN(m.data_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.metadata_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(auto payload, r.GetBytes());
  if (payload.size() != m.data_size + m.metadata_size) {
    return Status::ProtocolError("replicate: payload size mismatch");
  }
  m.payload.assign(payload.begin(), payload.end());
  return m;
}

void ReplicateReply::EncodeTo(wire::Writer& w) const {
  plasma::EncodeStatus(w, status);
}
Result<ReplicateReply> ReplicateReply::DecodeFrom(wire::Reader& r) {
  ReplicateReply m;
  MDOS_RETURN_IF_ERROR(plasma::DecodeStatus(r, &m.status));
  return m;
}

// ---- replica drop (origin delete propagation) ------------------------------

void ReplicaDropRequest::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
  w.PutU32(from_node);
}
Result<ReplicaDropRequest> ReplicaDropRequest::DecodeFrom(wire::Reader& r) {
  ReplicaDropRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  MDOS_ASSIGN_OR_RETURN(m.from_node, r.GetU32());
  return m;
}

void ReplicaDropReply::EncodeTo(wire::Writer& w) const {
  plasma::EncodeStatus(w, status);
}
Result<ReplicaDropReply> ReplicaDropReply::DecodeFrom(wire::Reader& r) {
  ReplicaDropReply m;
  MDOS_RETURN_IF_ERROR(plasma::DecodeStatus(r, &m.status));
  return m;
}

}  // namespace mdos::dist
