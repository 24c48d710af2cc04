// Round-trip tests for every Plasma IPC protocol message and the dist
// layer's RPC messages.
#include <gtest/gtest.h>

#include <cstring>

#include "common/crc32.h"
#include "dist/messages.h"
#include "net/frame.h"
#include "plasma/protocol.h"

namespace mdos::plasma {
namespace {

template <typename T>
T RoundTrip(const T& msg) {
  wire::Writer w;
  msg.EncodeTo(w);
  wire::Reader r(w.data(), w.size());
  auto decoded = T::DecodeFrom(r);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.AtEnd()) << "trailing bytes after decode";
  return std::move(decoded).value();
}

TEST(ProtocolTest, ConnectRequest) {
  ConnectRequest m;
  m.client_name = "bench-client";
  EXPECT_EQ(RoundTrip(m).client_name, "bench-client");
}

TEST(ProtocolTest, ConnectReply) {
  ConnectReply m;
  m.node_id = 3;
  m.pool_region_id = 9;
  m.pool_size = 1 << 30;
  m.pool_slab_offset = 4096;
  m.store_name = "node3";
  ConnectReply d = RoundTrip(m);
  EXPECT_EQ(d.node_id, 3u);
  EXPECT_EQ(d.pool_region_id, 9u);
  EXPECT_EQ(d.pool_size, 1u << 30);
  EXPECT_EQ(d.pool_slab_offset, 4096u);
  EXPECT_EQ(d.store_name, "node3");
}

TEST(ProtocolTest, CreateRequestReply) {
  CreateRequest req;
  req.id = ObjectId::FromName("x");
  req.data_size = 1000;
  req.metadata_size = 24;
  CreateRequest dreq = RoundTrip(req);
  EXPECT_EQ(dreq.id, req.id);
  EXPECT_EQ(dreq.data_size, 1000u);
  EXPECT_EQ(dreq.metadata_size, 24u);

  CreateReply reply;
  reply.status = Status::OutOfMemory("full");
  reply.offset = 640;
  reply.data_size = 1000;
  reply.metadata_size = 24;
  CreateReply dreply = RoundTrip(reply);
  EXPECT_EQ(dreply.status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(dreply.status.message(), "full");
  EXPECT_EQ(dreply.offset, 640u);
}

TEST(ProtocolTest, SealAbortRelease) {
  SealRequest seal;
  seal.id = ObjectId::FromName("s");
  EXPECT_EQ(RoundTrip(seal).id, seal.id);

  SealReply seal_reply;
  seal_reply.status = Status::Sealed("again");
  EXPECT_EQ(RoundTrip(seal_reply).status.code(), StatusCode::kSealed);

  AbortRequest abort;
  abort.id = ObjectId::FromName("a");
  EXPECT_EQ(RoundTrip(abort).id, abort.id);

  ReleaseRequest release;
  release.id = ObjectId::FromName("r");
  EXPECT_EQ(RoundTrip(release).id, release.id);
}

TEST(ProtocolTest, GetRequestPreservesOrderAndTimeout) {
  GetRequest m;
  for (int i = 0; i < 10; ++i) {
    m.ids.push_back(ObjectId::FromName("id" + std::to_string(i)));
  }
  m.timeout_ms = 2500;
  GetRequest d = RoundTrip(m);
  EXPECT_EQ(d.ids, m.ids);
  EXPECT_EQ(d.timeout_ms, 2500u);
}

// The retired `pinned` flag keeps its wire slot (positional fields are
// never removed): a reserved false byte still precedes `fallback`, and a
// peer that sets the old flag is decoded without it mattering.
TEST(ProtocolTest, GetRequestKeepsRetiredPinnedSlot) {
  GetRequest m;
  m.ids = {ObjectId::FromName("g")};
  m.fallback = true;
  wire::Writer w;
  m.EncodeTo(w);
  ASSERT_GE(w.size(), 2u);
  EXPECT_EQ(w.data()[w.size() - 2], 0u);  // reserved slot
  EXPECT_EQ(w.data()[w.size() - 1], 1u);  // fallback
  EXPECT_TRUE(RoundTrip(m).fallback);

  std::vector<uint8_t> old_peer(w.data(), w.data() + w.size());
  old_peer[old_peer.size() - 2] = 1;  // an old client's pinned=true
  wire::Reader r(old_peer.data(), old_peer.size());
  auto decoded = GetRequest::DecodeFrom(r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->fallback);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ProtocolTest, GetReplyLocalAndRemoteEntries) {
  GetReply m;
  GetReplyEntry local;
  local.id = ObjectId::FromName("local");
  local.found = true;
  local.location = ObjectLocation::kLocal;
  local.offset = 128;
  local.data_size = 1 << 20;
  GetReplyEntry remote;
  remote.id = ObjectId::FromName("remote");
  remote.found = true;
  remote.location = ObjectLocation::kRemote;
  remote.offset = 4096;
  remote.data_size = 777;
  remote.metadata_size = 11;
  remote.home_node = 1;
  remote.home_region = 2;
  GetReplyEntry missing;
  missing.id = ObjectId::FromName("missing");
  missing.found = false;
  m.entries = {local, remote, missing};

  GetReply d = RoundTrip(m);
  ASSERT_EQ(d.entries.size(), 3u);
  EXPECT_TRUE(d.entries[0].found);
  EXPECT_EQ(d.entries[0].location, ObjectLocation::kLocal);
  EXPECT_EQ(d.entries[1].location, ObjectLocation::kRemote);
  EXPECT_EQ(d.entries[1].home_node, 1u);
  EXPECT_EQ(d.entries[1].home_region, 2u);
  EXPECT_FALSE(d.entries[2].found);
}

TEST(ProtocolTest, ContainsDeleteList) {
  ContainsRequest c;
  c.id = ObjectId::FromName("c");
  EXPECT_EQ(RoundTrip(c).id, c.id);

  ContainsReply cr;
  cr.contains = true;
  EXPECT_TRUE(RoundTrip(cr).contains);

  DeleteRequest del;
  del.id = ObjectId::FromName("d");
  EXPECT_EQ(RoundTrip(del).id, del.id);

  ListReply list;
  ObjectInfo info;
  info.id = ObjectId::FromName("o");
  info.data_size = 5;
  info.sealed = true;
  info.ref_count = 2;
  list.objects = {info};
  ListReply dlist = RoundTrip(list);
  ASSERT_EQ(dlist.objects.size(), 1u);
  EXPECT_EQ(dlist.objects[0].id, info.id);
  EXPECT_TRUE(dlist.objects[0].sealed);
  EXPECT_EQ(dlist.objects[0].ref_count, 2u);
}

TEST(ProtocolTest, StatsReply) {
  StatsReply m;
  m.stats.capacity = 100;
  m.stats.bytes_in_use = 50;
  m.stats.objects_total = 7;
  m.stats.objects_sealed = 6;
  m.stats.evictions = 2;
  m.stats.remote_lookups = 9;
  m.stats.remote_lookup_hits = 4;
  m.stats.lookup_cache_hits = 3;
  StatsReply d = RoundTrip(m);
  EXPECT_EQ(d.stats.capacity, 100u);
  EXPECT_EQ(d.stats.remote_lookup_hits, 4u);
  EXPECT_EQ(d.stats.lookup_cache_hits, 3u);
}

TEST(ProtocolTest, CorruptGetReplyLocationRejected) {
  GetReplyEntry entry;
  entry.id = ObjectId::FromName("x");
  wire::Writer w;
  w.PutObjectId(entry.id);
  w.PutBool(true);
  w.PutU8(9);  // bad location tag
  w.PutU64(0);
  w.PutU64(0);
  w.PutU64(0);
  w.PutU32(0);
  w.PutU32(0);
  wire::Reader r(w.data(), w.size());
  EXPECT_FALSE(GetReplyEntry::DecodeFrom(r).ok());
}

TEST(ProtocolTest, TruncatedMessageRejected) {
  CreateRequest req;
  req.id = ObjectId::FromName("x");
  wire::Writer w;
  req.EncodeTo(w);
  wire::Reader r(w.data(), w.size() - 4);
  EXPECT_FALSE(CreateRequest::DecodeFrom(r).ok());
}

// ---- malformed frame / wire regressions ------------------------------------
//
// The frame decoder is the first code that touches bytes off a socket;
// these pin down its behaviour on each hostile-input class (mirrored in
// the fuzz corpus under fuzz/corpus/fuzz_frame).

// Encodes one valid frame: header (magic, type, length, crc) || payload.
std::vector<uint8_t> EncodeFrameBytes(uint32_t type,
                                      const std::vector<uint8_t>& payload) {
  net::FrameHeader hdr;
  hdr.type = type;
  hdr.length = static_cast<uint32_t>(payload.size());
  hdr.crc = Crc32(payload.data(), payload.size());
  std::vector<uint8_t> out(sizeof(hdr) + payload.size());
  std::memcpy(out.data(), &hdr, sizeof(hdr));
  std::memcpy(out.data() + sizeof(hdr), payload.data(), payload.size());
  return out;
}

TEST(FrameDecodeTest, DisconnectRequestIsBareFrame) {
  // kDisconnectRequest carries no payload struct: the frame header alone
  // is the whole message, and the store drops the client without
  // decoding anything further. Pin the wire shape so a payload is never
  // accidentally added on one side only.
  auto bytes = EncodeFrameBytes(
      static_cast<uint32_t>(MessageType::kDisconnectRequest), {});
  net::FrameView view;
  size_t consumed = 0;
  ASSERT_TRUE(
      net::DecodeFrameView(bytes.data(), bytes.size(), &view, &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(static_cast<MessageType>(view.type),
            MessageType::kDisconnectRequest);
  EXPECT_EQ(view.size, 0u);
}

TEST(FrameDecodeTest, TruncatedHeaderDefersWithoutConsuming) {
  auto bytes = EncodeFrameBytes(7, {1, 2, 3});
  for (size_t cut = 0; cut < sizeof(net::FrameHeader); ++cut) {
    net::FrameView view;
    size_t consumed = 99;
    ASSERT_TRUE(
        net::DecodeFrameView(bytes.data(), cut, &view, &consumed).ok());
    EXPECT_EQ(consumed, 0u) << "partial header at " << cut;
  }
}

TEST(FrameDecodeTest, LengthPastBufferDefersWithoutConsuming) {
  // Valid header naming more payload than the buffer holds: the decoder
  // must wait for more bytes, not read past the end.
  auto bytes = EncodeFrameBytes(7, std::vector<uint8_t>(100, 0xAB));
  net::FrameView view;
  size_t consumed = 99;
  ASSERT_TRUE(
      net::DecodeFrameView(bytes.data(), bytes.size() - 1, &view, &consumed)
          .ok());
  EXPECT_EQ(consumed, 0u);
}

TEST(FrameDecodeTest, HostileLengthRejected) {
  // Length fields past the 64 MiB cap — including UINT32_MAX, which
  // would overflow `sizeof(hdr) + length` on a 32-bit size_t — must be
  // rejected outright, never treated as a partial frame.
  for (uint32_t length : {net::kMaxFramePayload + 1, UINT32_MAX}) {
    net::FrameHeader hdr;
    hdr.type = 7;
    hdr.length = length;
    std::vector<uint8_t> bytes(sizeof(hdr), 0);
    std::memcpy(bytes.data(), &hdr, sizeof(hdr));
    net::FrameView view;
    size_t consumed = 99;
    EXPECT_FALSE(
        net::DecodeFrameView(bytes.data(), bytes.size(), &view, &consumed)
            .ok())
        << "length " << length;
  }
}

TEST(FrameDecodeTest, ValidHeaderCorruptPayloadRejected) {
  auto bytes = EncodeFrameBytes(7, {1, 2, 3, 4});
  bytes.back() ^= 0xFF;  // header stays intact; payload CRC must catch it
  net::FrameView view;
  size_t consumed = 99;
  EXPECT_FALSE(
      net::DecodeFrameView(bytes.data(), bytes.size(), &view, &consumed)
          .ok());
}

TEST(WireHardeningTest, RepeatedCountBeyondBufferFailsWithoutOverReserve) {
  // A 6-byte message naming 2^24 elements: decode must fail on the first
  // missing element. The reserve clamp keeps the attempted allocation
  // bounded by the buffer size (the unclamped reserve was a
  // memory-amplification primitive — ~128 MiB for these 6 bytes).
  wire::Writer w;
  w.PutVarint(1u << 24);
  wire::Reader r(w.data(), w.size());
  auto decoded = r.GetRepeated<uint64_t>(
      [](wire::Reader& rr) { return rr.GetVarint(); });
  EXPECT_FALSE(decoded.ok());
}

TEST(WireHardeningTest, PeekRequestIdOnShortPayloadFails) {
  const uint8_t bytes[] = {1, 2, 3};
  EXPECT_FALSE(PeekRequestId(bytes, sizeof(bytes)).ok());
  EXPECT_FALSE(PeekRequestId(bytes, 0).ok());
}

}  // namespace
}  // namespace mdos::plasma

namespace mdos::dist {
namespace {

template <typename T>
T RoundTrip(const T& msg) {
  wire::Writer w;
  msg.EncodeTo(w);
  wire::Reader r(w.data(), w.size());
  auto decoded = T::DecodeFrom(r);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return std::move(decoded).value();
}

TEST(DistMessagesTest, Hello) {
  HelloRequest req;
  req.node_id = 4;
  EXPECT_EQ(RoundTrip(req).node_id, 4u);

  HelloReply reply;
  reply.node_id = 4;
  reply.pool_region = 8;
  reply.store_name = "node4";
  HelloReply d = RoundTrip(reply);
  EXPECT_EQ(d.pool_region, 8u);
  EXPECT_EQ(d.store_name, "node4");
}

TEST(DistMessagesTest, LookupRoundTrip) {
  LookupRequest req;
  req.ids = {ObjectId::FromName("a"), ObjectId::FromName("b")};
  EXPECT_EQ(RoundTrip(req).ids, req.ids);

  LookupReply reply;
  LookupEntry found;
  found.id = req.ids[0];
  found.found = true;
  found.location.home_node = 1;
  found.location.home_region = 2;
  found.location.offset = 333;
  found.location.data_size = 444;
  found.location.metadata_size = 5;
  LookupEntry missing;
  missing.id = req.ids[1];
  reply.entries = {found, missing};
  LookupReply d = RoundTrip(reply);
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_TRUE(d.entries[0].found);
  EXPECT_EQ(d.entries[0].location.offset, 333u);
  EXPECT_EQ(d.entries[0].location.data_size, 444u);
  EXPECT_FALSE(d.entries[1].found);
}

TEST(DistMessagesTest, ProbeRoundTrip) {
  ProbeRequest probe;
  probe.id = ObjectId::FromName("p");
  EXPECT_EQ(RoundTrip(probe).id, probe.id);

  ProbeReply preply;
  preply.exists = true;
  EXPECT_TRUE(RoundTrip(preply).exists);
}

}  // namespace
}  // namespace mdos::dist
