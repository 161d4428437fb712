// transport_wire_test.cpp — the wire format as a hostile-input boundary.
//
// Socket frames arrive from another OS process; a Byzantine deployment would
// let an adversary write them. Every decode gate must fire as a typed
// WireError with provenance naming *which* gate rejected the bytes and where:
// bad magic, unknown frame type, oversized length prefix (rejected before any
// allocation sized from it), oversized broadcast fanout, truncated frame,
// duplicated frame, reordered frame. Alongside the hostile cases: codec
// round-trips, the incremental decoder under pathological chunking, and
// direct end-to-end exercises of the socket backend including the
// wire-tamper hook the Byzantine tests build on.
// fuzz/fuzz_wire_frame.cpp drives the same entry points with coverage
// feedback; this file keeps the intent readable and the diagnostics pinned.
#include "transport/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "differential.hpp"
#include "transport/socket.hpp"
#include "transport/transport.hpp"
#include "util/bitstring.hpp"

namespace mpch {
namespace {

using differential::skip_socket_backend;
using transport::FrameDecoder;
using transport::FrameType;
using transport::InboxAssembler;
using transport::WireError;
using transport::WireFrame;
using util::BitString;

WireFrame data_frame(std::uint64_t round, std::uint64_t from, std::uint64_t seq, std::uint64_t to,
                     BitString payload) {
  WireFrame f;
  f.type = FrameType::kData;
  f.round = round;
  f.from = from;
  f.seq = seq;
  f.to = to;
  f.payload = std::move(payload);
  return f;
}

/// Overwrite 8 bytes at `pos` with a little-endian u64 (header surgery).
void patch_u64(std::vector<std::uint8_t>& bytes, std::size_t pos, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void expect_wire_error(const std::vector<std::uint8_t>& bytes, const std::string& needle,
                       std::uint64_t max_payload_bits = transport::kDefaultMaxPayloadBits) {
  try {
    transport::decode_frames(bytes, max_payload_bits);
    FAIL() << "expected WireError containing \"" << needle << "\"";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

// ---- codec round-trips ----

TEST(WireCodec, DataFrameRoundTrips) {
  WireFrame f = data_frame(7, 2, 11, 3, BitString::from_uint(0xA5C3, 16));
  auto frames = transport::decode_frames(transport::encode_frame(f));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], f);
}

TEST(WireCodec, NonByteAlignedPayloadRoundTrips) {
  // 13 bits: the length prefix, not the byte count, defines the payload.
  WireFrame f = data_frame(1, 0, 0, 1, BitString::from_uint(0x1ABC & 0x1FFF, 13));
  auto frames = transport::decode_frames(transport::encode_frame(f));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload.size(), 13u);
  EXPECT_EQ(frames[0], f);
}

TEST(WireCodec, BroadcastFrameRoundTrips) {
  WireFrame f;
  f.type = FrameType::kBroadcast;
  f.round = 3;
  f.from = 1;
  f.seq = 4;
  f.payload = BitString::from_uint(0xBEEF, 16);
  f.fanout = {{0, 4}, {2, 9}, {5, 0}};
  auto frames = transport::decode_frames(transport::encode_frame(f));
  ASSERT_EQ(frames.size(), 1u);
  // The `to` slot carried the fanout count on the wire; the decoded frame
  // leaves `to` at its default and restores the full fanout list.
  EXPECT_EQ(frames[0].fanout, f.fanout);
  EXPECT_EQ(frames[0].payload, f.payload);
  EXPECT_EQ(frames[0].round, f.round);
  EXPECT_EQ(frames[0].from, f.from);
}

TEST(WireCodec, ControlFramesRoundTrip) {
  for (FrameType type : {FrameType::kFlush, FrameType::kFlushDone, FrameType::kStageDone}) {
    WireFrame f;
    f.type = type;
    f.round = 12;
    f.from = 3;
    f.seq = 2;  // stage index for kStageDone
    auto frames = transport::decode_frames(transport::encode_frame(f));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], f);
  }
}

TEST(WireCodec, DecoderReassemblesByteAtATimeChunks) {
  // Socket reads are not frame-aligned; the worst case is one byte per read.
  WireFrame a = data_frame(0, 0, 0, 1, BitString::from_uint(0x5A, 8));
  WireFrame b = data_frame(0, 1, 0, 0, BitString::from_uint(0x3C3C, 16));
  std::vector<std::uint8_t> stream = transport::encode_frame(a);
  auto more = transport::encode_frame(b);
  stream.insert(stream.end(), more.begin(), more.end());

  FrameDecoder decoder;
  std::vector<WireFrame> out;
  for (std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) out.push_back(std::move(*frame));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], a);
  EXPECT_EQ(out[1], b);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  EXPECT_EQ(decoder.bytes_consumed(), stream.size());
}

// ---- hostile inputs: every gate, with its distinct diagnostic ----

TEST(WireHostile, BadMagicRejectedFromFirstFourBytes) {
  // Provable from four bytes alone — the decoder must not wait for a header.
  FrameDecoder decoder;
  const std::uint8_t garbage[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  decoder.feed(garbage, 4);
  try {
    decoder.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("at byte 0"), std::string::npos) << e.what();
  }
}

TEST(WireHostile, BadMagicAfterValidFrameNamesStreamPosition) {
  auto stream = transport::encode_frame(data_frame(0, 0, 0, 1, BitString::from_uint(0xFF, 8)));
  const std::size_t first_frame_end = stream.size();
  stream.insert(stream.end(), {0x00, 0x11, 0x22, 0x33});
  expect_wire_error(stream, "at byte " + std::to_string(first_frame_end));
}

TEST(WireHostile, UnknownFrameTypeRejected) {
  auto bytes = transport::encode_frame(data_frame(0, 0, 0, 1, BitString::from_uint(0x1, 4)));
  bytes[4] = 0x7F;  // type discriminator
  expect_wire_error(bytes, "unknown frame type 127");
}

TEST(WireHostile, OversizedLengthPrefixRejectedBeforePayloadArrives) {
  // A hostile 2^60-bit length prefix must be rejected from the header alone
  // — before any allocation sized from it, and before "waiting" for the
  // 2^57 payload bytes that will never come.
  auto header = transport::encode_frame(data_frame(0, 0, 0, 1, {}));
  ASSERT_EQ(header.size(), transport::kFrameHeaderBytes);
  patch_u64(header, 37, 1ULL << 60);  // payload_bits slot
  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  try {
    decoder.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("oversized length prefix"), std::string::npos)
        << e.what();
  }
}

TEST(WireHostile, PayloadCapIsConfigurable) {
  // Tests and tight deployments shrink the cap; a frame over the configured
  // cap is hostile even if it would fit the default.
  auto bytes = transport::encode_frame(data_frame(0, 0, 0, 1, BitString::from_uint(0xFFFF, 16)));
  expect_wire_error(bytes, "oversized length prefix", /*max_payload_bits=*/8);
  EXPECT_EQ(transport::decode_frames(bytes, 16).size(), 1u);  // exactly at cap: fine
}

TEST(WireHostile, OversizedBroadcastFanoutRejected) {
  WireFrame f;
  f.type = FrameType::kBroadcast;
  f.fanout = {{0, 0}};
  auto bytes = transport::encode_frame(f);
  patch_u64(bytes, 29, transport::kMaxBroadcastFanout + 1);  // fanout-count slot
  expect_wire_error(bytes, "broadcast fanout");
}

TEST(WireHostile, TruncatedFrameRejected) {
  auto bytes = transport::encode_frame(data_frame(2, 1, 0, 3, BitString::from_uint(0xABCD, 16)));
  bytes.pop_back();  // lose the final payload byte
  expect_wire_error(bytes, "truncated frame");
}

TEST(WireHostile, TruncatedHeaderRejected) {
  auto bytes = transport::encode_frame(data_frame(0, 0, 0, 1, {}));
  bytes.resize(transport::kFrameHeaderBytes / 2);
  expect_wire_error(bytes, "truncated frame");
}

TEST(WireHostile, DuplicatedFrameRejectedWithProvenance) {
  InboxAssembler assembler(/*machine=*/3, /*round=*/7);
  assembler.add(/*from=*/2, /*seq=*/5, BitString::from_uint(0x1, 4));
  try {
    assembler.add(2, 5, BitString::from_uint(0x2, 4));
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicated frame"), std::string::npos) << what;
    EXPECT_NE(what.find("machine 3"), std::string::npos) << what;
    EXPECT_NE(what.find("from machine 2"), std::string::npos) << what;
    EXPECT_NE(what.find("seq 5"), std::string::npos) << what;
    EXPECT_NE(what.find("round 7"), std::string::npos) << what;
  }
}

TEST(WireHostile, ReorderedFrameRejectedWithProvenance) {
  InboxAssembler assembler(/*machine=*/1, /*round=*/4);
  assembler.add(/*from=*/0, /*seq=*/6, BitString::from_uint(0x1, 4));
  try {
    assembler.add(0, 2, BitString::from_uint(0x2, 4));
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("reordered frame"), std::string::npos) << what;
    EXPECT_NE(what.find("seq 2"), std::string::npos) << what;
    EXPECT_NE(what.find("after seq 6"), std::string::npos) << what;
  }
}

TEST(WireAssembler, TakeRestoresCanonicalInboxOrder) {
  // Deliveries arrive router-sorted per sender but interleaved across
  // senders; take() must produce the in-process merge order: (sender, seq).
  InboxAssembler assembler(/*machine=*/0, /*round=*/0);
  assembler.add(2, 0, BitString::from_uint(20, 8));
  assembler.add(1, 3, BitString::from_uint(13, 8));
  assembler.add(2, 1, BitString::from_uint(21, 8));
  assembler.add(1, 7, BitString::from_uint(17, 8));
  assembler.add(0, 0, BitString::from_uint(0, 8));
  auto inbox = assembler.take();
  ASSERT_EQ(inbox.size(), 5u);
  const std::uint64_t expect_from[] = {0, 1, 1, 2, 2};
  const std::uint64_t expect_val[] = {0, 13, 17, 20, 21};
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    EXPECT_EQ(inbox[i].from, expect_from[i]) << i;
    EXPECT_EQ(inbox[i].to, 0u) << i;
    EXPECT_EQ(inbox[i].payload, BitString::from_uint(expect_val[i], 8)) << i;
  }
  EXPECT_EQ(assembler.size(), 0u);  // take() resets
}

// ---- degenerate topologies: the boundary shapes mpch-model's bounded
// exploration cannot reach (zero traffic, one machine, the fanout cap) ----

TEST(WireAssembler, ZeroMessageRoundYieldsEmptyCanonicalInbox) {
  // A round in which nobody sends is legal at every layer: the barrier
  // simply observes an empty inbox, and the assembler is reusable after.
  InboxAssembler assembler(/*machine=*/2, /*round=*/5);
  EXPECT_EQ(assembler.size(), 0u);
  EXPECT_TRUE(assembler.take().empty());
  // Still functional after an empty take: the next round's frames assemble.
  assembler.add(/*from=*/0, /*seq=*/0, BitString::from_uint(7, 8));
  auto inbox = assembler.take();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].payload, BitString::from_uint(7, 8));
}

TEST(WireAssembler, SingleMachineSelfDeliveryKeepsSeqOrder) {
  // m=1: every frame is a self-send from machine 0. The per-sender FIFO
  // gates and the canonical order must hold with one sender exactly as with
  // many — seq collisions and seq regressions stay typed rejections.
  InboxAssembler assembler(/*machine=*/0, /*round=*/0);
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    assembler.add(/*from=*/0, seq, BitString::from_uint(seq + 1, 8));
  }
  auto inbox = assembler.take();
  ASSERT_EQ(inbox.size(), 4u);
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    EXPECT_EQ(inbox[seq].from, 0u);
    EXPECT_EQ(inbox[seq].payload, BitString::from_uint(seq + 1, 8));
  }
  assembler.add(0, 4, BitString::from_uint(9, 8));
  EXPECT_THROW(assembler.add(0, 4, BitString::from_uint(9, 8)), WireError);
  EXPECT_THROW(assembler.add(0, 1, BitString::from_uint(9, 8)), WireError);
}

TEST(WireHostile, BroadcastFanoutAtExactCapRoundTrips) {
  // The cap is a boundary, not a margin: a broadcast addressing exactly
  // kMaxBroadcastFanout destinations (a 16 MiB fanout section on the wire)
  // must decode, and every (to, seq) entry must survive.
  WireFrame f;
  f.type = FrameType::kBroadcast;
  f.round = 1;
  f.from = 0;
  f.seq = 0;
  f.payload = BitString::from_uint(0xA5, 8);
  f.fanout.reserve(transport::kMaxBroadcastFanout);
  for (std::uint64_t to = 0; to < transport::kMaxBroadcastFanout; ++to) {
    f.fanout.emplace_back(to, to % 3);
  }
  auto frames = transport::decode_frames(transport::encode_frame(f));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].fanout.size(), transport::kMaxBroadcastFanout);
  EXPECT_EQ(frames[0].fanout.front(), (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(frames[0].fanout.back(),
            (std::pair<std::uint64_t, std::uint64_t>{transport::kMaxBroadcastFanout - 1,
                                                     (transport::kMaxBroadcastFanout - 1) % 3}));
}

TEST(WireHostile, BroadcastFanoutCapIsStrictlyGreaterThan) {
  // Header surgery on a 1-entry broadcast: a count of exactly the cap gets
  // past the fanout gate (the decoder then waits for the 16 MiB body that
  // never arrives — "truncated frame", not a cap rejection), while cap+1
  // fires the fanout gate from the header alone. Together with the
  // at-cap round-trip above this pins the gate to `count > cap`.
  WireFrame f;
  f.type = FrameType::kBroadcast;
  f.fanout = {{0, 0}};
  auto bytes = transport::encode_frame(f);
  auto at_cap = bytes;
  patch_u64(at_cap, 29, transport::kMaxBroadcastFanout);  // fanout-count slot
  expect_wire_error(at_cap, "truncated frame");
  auto over_cap = bytes;
  patch_u64(over_cap, 29, transport::kMaxBroadcastFanout + 1);
  expect_wire_error(over_cap, "broadcast fanout");
}

// ---- direct backend exercises ----

TEST(SocketTransportTest, DeliversAcrossRouterProcessesOverMultipleRounds) {
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  transport::TransportOptions options;
  options.processes = 2;
  transport::SocketTransport t(options);
  t.start(4);
  EXPECT_EQ(t.router_count(), 2u);

  // Round 0: cross-group traffic in both directions, multiple frames per
  // sender — the stream survives the round barrier into round 1.
  t.send(0, 0, {{0, 3, BitString::from_uint(0xA1, 8)}, {0, 3, BitString::from_uint(0xA2, 8)}});
  t.send(0, 1, {{1, 2, BitString::from_uint(0xB1, 8)}});
  t.send(0, 2, {{2, 0, BitString::from_uint(0xC1, 8)}});
  t.send(0, 3, {});
  t.flush(0);
  auto inbox0 = t.receive(0, 0);
  auto inbox2 = t.receive(0, 2);
  auto inbox3 = t.receive(0, 3);
  EXPECT_TRUE(t.receive(0, 1).empty());
  ASSERT_EQ(inbox0.size(), 1u);
  EXPECT_EQ(inbox0[0].from, 2u);
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(inbox2[0].payload, BitString::from_uint(0xB1, 8));
  ASSERT_EQ(inbox3.size(), 2u);
  EXPECT_EQ(inbox3[0].payload, BitString::from_uint(0xA1, 8));
  EXPECT_EQ(inbox3[1].payload, BitString::from_uint(0xA2, 8));
  EXPECT_TRUE(t.idle());

  // Round 1: same channels, fresh assemblers.
  t.send(1, 0, {});
  t.send(1, 1, {});
  t.send(1, 2, {{2, 1, BitString::from_uint(0xD4, 8)}});
  t.send(1, 3, {{3, 0, BitString::from_uint(0xE5, 8)}});
  t.flush(1);
  ASSERT_EQ(t.receive(1, 0).size(), 1u);
  ASSERT_EQ(t.receive(1, 1).size(), 1u);
  EXPECT_TRUE(t.receive(1, 2).empty());
  EXPECT_TRUE(t.receive(1, 3).empty());
  EXPECT_TRUE(t.idle());
}

TEST(SocketTransportTest, CoalescedBroadcastReachesEveryDestination) {
  // One payload to five destinations (the coalescing threshold is four): the
  // parent ships a single kBroadcast frame and the binomial dissemination
  // replicates it across three router groups (odd G: the dedup path).
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  transport::TransportOptions options;
  options.processes = 3;
  transport::SocketTransport t(options);
  t.start(6);
  ASSERT_EQ(t.router_count(), 3u);

  BitString bcast = BitString::from_uint(0x77, 8);
  t.send(0, 1, {{1, 0, bcast},
                {1, 2, BitString::from_uint(0x11, 8)},  // direct frame interleaved
                {1, 2, bcast},
                {1, 3, bcast},
                {1, 4, bcast},
                {1, 5, bcast}});
  for (std::uint64_t m : {0, 2, 3, 4, 5}) t.send(0, m, {});
  t.flush(0);

  auto inbox0 = t.receive(0, 0);
  ASSERT_EQ(inbox0.size(), 1u);
  EXPECT_EQ(inbox0[0].payload, bcast);
  auto inbox2 = t.receive(0, 2);
  ASSERT_EQ(inbox2.size(), 2u);  // canonical: seq 1 (direct) before seq 2 (bcast)
  EXPECT_EQ(inbox2[0].payload, BitString::from_uint(0x11, 8));
  EXPECT_EQ(inbox2[1].payload, bcast);
  for (std::uint64_t m : {3, 4, 5}) {
    auto inbox = t.receive(0, m);
    ASSERT_EQ(inbox.size(), 1u) << "machine " << m;
    EXPECT_EQ(inbox[0].payload, bcast) << "machine " << m;
    EXPECT_EQ(inbox[0].from, 1u) << "machine " << m;
  }
  EXPECT_TRUE(t.receive(0, 1).empty());
  EXPECT_TRUE(t.idle());
}

TEST(SocketTransportTest, WireTamperHookMutatesThePayloadOnTheWirePath) {
  // The hook the Byzantine wire tests build on: a flip applied to the decoded
  // frame is indistinguishable from a compromised router's output.
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  transport::TransportOptions options;
  options.processes = 2;
  transport::SocketTransport t(options);
  t.set_wire_tamper([](WireFrame& frame) {
    if (frame.from == 0) frame.payload.set(0, !frame.payload.get(0));
  });
  t.start(2);
  BitString original = BitString::from_uint(0xF0, 8);
  t.send(0, 0, {{0, 1, original}});
  t.send(0, 1, {{1, 0, original}});
  t.flush(0);
  auto tampered = t.receive(0, 1);
  auto intact = t.receive(0, 0);
  ASSERT_EQ(tampered.size(), 1u);
  ASSERT_EQ(intact.size(), 1u);
  BitString expected = original;
  expected.set(0, !expected.get(0));
  EXPECT_EQ(tampered[0].payload, expected);
  EXPECT_EQ(intact[0].payload, original);
}

}  // namespace
}  // namespace mpch
