// aspen::net wire-protocol tests: frame round-trips for every kind, torn
// (byte-at-a-time) reads, malformed-header rejection, handler deltas, the
// ASPEN_NET_* environment overrides, and the poll data plane over local
// socketpairs. Single process: no aspen-run (see test_net_spmd.cpp and the
// net_spmd_n* ctest entries for the cross-process legs).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "core/telemetry.hpp"
#include "core/telemetry_live.hpp"
#include "net/io_backend.hpp"
#include "net/wire.hpp"

namespace net = aspen::net;
namespace live = aspen::telemetry::live;
using aspen::telemetry::snapshot;

namespace {

constexpr std::size_t kMaxFrame = 1 << 20;

net::frame_header make_header(net::frame_kind k, std::uint32_t payload_len) {
  net::frame_header h;
  h.kind = static_cast<std::uint16_t>(k);
  h.src = 3;
  h.payload_len = payload_len;
  h.aux = 0xABCD;
  h.seq = 42;
  return h;
}

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(NetWire, HeaderLayoutIsFixed) {
  EXPECT_EQ(sizeof(net::frame_header), 24u);
  net::frame_header h;
  EXPECT_EQ(h.magic, net::kMagic);
}

TEST(NetWire, EveryKindRoundTrips) {
  const net::frame_kind kinds[] = {
      net::frame_kind::hello,        net::frame_kind::table,
      net::frame_kind::ident,        net::frame_kind::am_eager,
      net::frame_kind::am_rts,       net::frame_kind::am_cts,
      net::frame_kind::am_data,      net::frame_kind::coll_contrib,
      net::frame_kind::coll_result,  net::frame_kind::async_arrive,
      net::frame_kind::async_release, net::frame_kind::bye,
      net::frame_kind::telemetry,    net::frame_kind::clock_probe,
      net::frame_kind::clock_reply,
  };
  std::vector<std::byte> stream;
  std::vector<std::vector<std::byte>> payloads;
  std::uint64_t seq = 0;
  for (net::frame_kind k : kinds) {
    // Distinct payload per kind (including empty for the control kinds).
    std::vector<std::byte> p;
    if (k == net::frame_kind::am_eager || k == net::frame_kind::am_data ||
        k == net::frame_kind::coll_contrib ||
        k == net::frame_kind::coll_result) {
      p.resize(16 + seq);
      for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = static_cast<std::byte>((i * 7 + seq) & 0xFF);
    } else if (k == net::frame_kind::am_rts) {
      net::am_record r;
      r.seq = 9;
      r.handler_delta = 0x1234;
      r.len = 1 << 16;
      p.resize(net::kRecordMaxOverhead);
      p.resize(net::encode_record(p.data(), r, nullptr));
      EXPECT_EQ(p.size(), net::kEagerPrefixBytes);
    }
    net::frame_header h = make_header(k, static_cast<std::uint32_t>(p.size()));
    h.seq = seq++;
    net::encode_frame(stream, h, p.data(), p.size());
    payloads.push_back(std::move(p));
  }

  net::decoder dec(kMaxFrame);
  dec.feed(stream.data(), stream.size());
  std::size_t i = 0;
  net::frame f;
  while (dec.try_next(f)) {
    ASSERT_LT(i, std::size(kinds));
    EXPECT_EQ(f.kind(), kinds[i]);
    EXPECT_EQ(f.hdr.src, 3);
    EXPECT_EQ(f.hdr.aux, 0xABCDu);
    EXPECT_EQ(f.hdr.seq, i);
    EXPECT_EQ(f.payload, payloads[i]);
    ++i;
  }
  EXPECT_FALSE(dec.in_error()) << dec.error();
  EXPECT_EQ(i, std::size(kinds));
  EXPECT_EQ(dec.buffered(), 0u);
}

// The decoder must assemble frames fed one byte at a time — the shape of a
// maximally torn TCP stream (short reads land mid-header and mid-payload).
TEST(NetWire, TornOneByteFeedReassembles) {
  std::vector<std::byte> stream;
  const auto p1 = bytes_of("hello, torn world");
  const auto p2 = bytes_of("x");
  net::encode_frame(stream,
                    make_header(net::frame_kind::am_eager,
                                static_cast<std::uint32_t>(p1.size())),
                    p1.data(), p1.size());
  net::encode_frame(stream,
                    make_header(net::frame_kind::am_data,
                                static_cast<std::uint32_t>(p2.size())),
                    p2.data(), p2.size());
  net::encode_frame(stream, make_header(net::frame_kind::bye, 0), nullptr, 0);

  net::decoder dec(kMaxFrame);
  std::vector<net::frame> got;
  net::frame f;
  for (std::byte b : stream) {
    dec.feed(&b, 1);
    while (dec.try_next(f)) got.push_back(std::move(f));
  }
  ASSERT_FALSE(dec.in_error()) << dec.error();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].kind(), net::frame_kind::am_eager);
  EXPECT_EQ(got[0].payload, p1);
  EXPECT_EQ(got[1].kind(), net::frame_kind::am_data);
  EXPECT_EQ(got[1].payload, p2);
  EXPECT_EQ(got[2].kind(), net::frame_kind::bye);
  EXPECT_TRUE(got[2].payload.empty());
  EXPECT_EQ(dec.buffered(), 0u);
}

// ---------------------------------------------------------------------------
// The AM record codec (wire protocol v6): one record per message on every
// channel, its send timestamp and trace id present only when non-zero.
// ---------------------------------------------------------------------------

/// Append `r` (and `payload`, unless null) to `out`.
void append_record(std::vector<std::byte>& out, const net::am_record& r,
                   const void* payload) {
  const std::size_t off = out.size();
  out.resize(off + net::kRecordMaxOverhead + (payload ? r.len : 0));
  out.resize(off + net::encode_record(out.data() + off, r, payload));
}

struct decoded {
  net::am_record rec;
  std::vector<std::byte> payload;
  bool detached = false;
};

/// decode_run from `src` into a vector.
bool decode_all(const std::vector<std::byte>& run, net::run_source src,
                std::vector<decoded>* out, std::size_t bulk_len = 0) {
  out->clear();
  const auto keep = [out, &run](const net::am_record& r, const std::byte* p) {
    decoded d;
    d.rec = r;
    d.detached = p == nullptr;
    if (p != nullptr) {
      EXPECT_GE(p, run.data());
      EXPECT_LE(p + r.len, run.data() + run.size());
      d.payload.assign(p, p + r.len);
    }
    out->push_back(std::move(d));
  };
  switch (src) {
    case net::run_source::eager:
      return net::decode_run<net::run_source::eager>(run.data(), run.size(),
                                                     keep, bulk_len);
    case net::run_source::rts:
      return net::decode_run<net::run_source::rts>(run.data(), run.size(),
                                                   keep, bulk_len);
    case net::run_source::ring:
      return net::decode_run<net::run_source::ring>(run.data(), run.size(),
                                                    keep, bulk_len);
  }
  return false;
}

TEST(NetWire, EagerPrefixRoundTripsThroughTornFeed) {
  // A run of three records in one am_eager frame: both optional words, a
  // zero-length payload, and neither word.
  net::am_record in[3];
  in[0].seq = 7;
  in[0].handler_delta = 0x1234;
  in[0].send_ns = 987654321;
  in[0].trace = (std::uint64_t{3} << 48) | 77;  // rank 3, seq 77
  in[1].seq = 8;
  in[1].handler_delta = 0x99;
  in[1].send_ns = 5;
  in[2].seq = 9;
  in[2].handler_delta = 0x1234;
  const auto user = bytes_of("payload after the prefix");
  in[0].len = static_cast<std::uint32_t>(user.size());
  in[2].len = 3;
  std::vector<std::byte> run;
  for (const auto& r : in) append_record(run, r, user.data());
  EXPECT_EQ(run.size(), 3 * net::kEagerPrefixBytes + 8 + 8 + 8 +
                            user.size() + 3);
  std::vector<std::byte> stream;
  net::encode_frame(stream,
                    make_header(net::frame_kind::am_eager,
                                static_cast<std::uint32_t>(run.size())),
                    run.data(), run.size());

  net::decoder dec(kMaxFrame);
  std::vector<net::frame> got;
  net::frame f;
  for (std::byte b : stream) {
    dec.feed(&b, 1);
    while (dec.try_next(f)) got.push_back(std::move(f));
  }
  ASSERT_EQ(got.size(), 1u);
  std::vector<decoded> recs;
  ASSERT_TRUE(decode_all(got[0].payload, net::run_source::eager, &recs));
  ASSERT_EQ(recs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(recs[i].rec.seq, in[i].seq);
    EXPECT_EQ(recs[i].rec.handler_delta, in[i].handler_delta);
    EXPECT_EQ(recs[i].rec.len, in[i].len);
    EXPECT_EQ(recs[i].rec.send_ns, in[i].send_ns);
    EXPECT_EQ(recs[i].rec.trace, in[i].trace);
    EXPECT_FALSE(recs[i].detached);
    EXPECT_EQ(recs[i].payload,
              std::vector<std::byte>(user.begin(), user.begin() + in[i].len));
  }
  EXPECT_EQ(recs[0].rec.flags, net::kRecTimed | net::kRecTraced);
  EXPECT_EQ(recs[1].rec.flags, net::kRecTimed);
  EXPECT_EQ(recs[2].rec.flags, 0u);
}

TEST(NetWire, EagerPrefixRejectsRuntPayload) {
  // A zero-length AM still carries the full 24-byte header (plus each
  // announced word); anything shorter is a runt and must be rejected, not
  // sliced — including the empty run.
  net::am_record r;
  r.seq = 1;
  r.trace = 42;
  std::vector<std::byte> run;
  append_record(run, r, nullptr);
  ASSERT_EQ(run.size(), net::kEagerPrefixBytes + 8);
  std::vector<decoded> recs;
  EXPECT_TRUE(decode_all(run, net::run_source::eager, &recs));
  for (std::size_t len = 0; len < run.size(); ++len) {
    const std::vector<std::byte> cut(run.begin(), run.begin() + len);
    EXPECT_FALSE(decode_all(cut, net::run_source::eager, &recs))
        << len << "-byte runt decoded";
  }
  // A len running past the buffer is a runt too.
  r.len = 4;
  run.clear();
  append_record(run, r, "abcd");
  run.pop_back();
  EXPECT_FALSE(decode_all(run, net::run_source::eager, &recs));
}

TEST(NetWire, RdzvBodyRoundTripsAndRejectsSizeMismatch) {
  // An RTS is one detached record: its len is the whole payload, which
  // follows in am_data.
  net::am_record in;
  in.seq = 41;
  in.handler_delta = 0xBEEF;
  in.len = 0xFFFFFFFFu;
  in.send_ns = 123456789;
  in.trace = (std::uint64_t{250} << 48) | 0xFFFFFFFFFFFFull;
  std::vector<std::byte> p;
  append_record(p, in, nullptr);

  std::vector<decoded> recs;
  ASSERT_TRUE(decode_all(p, net::run_source::rts, &recs));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].detached);
  EXPECT_EQ(recs[0].rec.seq, in.seq);
  EXPECT_EQ(recs[0].rec.handler_delta, in.handler_delta);
  EXPECT_EQ(recs[0].rec.len, in.len);
  EXPECT_EQ(recs[0].rec.send_ns, in.send_ns);
  EXPECT_EQ(recs[0].rec.trace, in.trace);

  // An RTS body is exactly one record — prefixes and trailing bytes are
  // both protocol errors.
  for (std::size_t len = 0; len < p.size(); ++len) {
    const std::vector<std::byte> cut(p.begin(), p.begin() + len);
    EXPECT_FALSE(decode_all(cut, net::run_source::rts, &recs));
  }
  p.push_back(std::byte{0});
  EXPECT_FALSE(decode_all(p, net::run_source::rts, &recs));
}

/// The decoder's channel rules: unknown flag bits, bulk records off the
/// ring, detached records that do not travel alone, and bulk records whose
/// len disagrees with the bulk ring are all rejected.
TEST(NetWire, RecordRunRulesPerChannel) {
  net::am_record inl;
  inl.seq = 1;
  inl.len = 2;
  net::am_record bulk;
  bulk.seq = 2;
  bulk.len = 4096;
  bulk.flags = net::kRecBulk;
  std::vector<std::byte> one_bulk;
  append_record(one_bulk, bulk, nullptr);
  std::vector<decoded> recs;

  ASSERT_TRUE(decode_all(one_bulk, net::run_source::ring, &recs, 4096));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].detached);
  EXPECT_EQ(recs[0].rec.flags, net::kRecBulk);
  EXPECT_FALSE(decode_all(one_bulk, net::run_source::ring, &recs, 4095));
  EXPECT_FALSE(decode_all(one_bulk, net::run_source::ring, &recs, 0));
  EXPECT_FALSE(decode_all(one_bulk, net::run_source::eager, &recs, 4096));
  EXPECT_FALSE(decode_all(one_bulk, net::run_source::rts, &recs, 4096));

  // A bulk record travels alone.
  std::vector<std::byte> mixed;
  append_record(mixed, inl, "xy");
  append_record(mixed, bulk, nullptr);
  EXPECT_FALSE(decode_all(mixed, net::run_source::ring, &recs, 4096));
  mixed.clear();
  append_record(mixed, bulk, nullptr);
  append_record(mixed, inl, "xy");
  EXPECT_FALSE(decode_all(mixed, net::run_source::ring, &recs, 4096));

  // Inline runs decode the same on the socket and the ring.
  std::vector<std::byte> run;
  append_record(run, inl, "xy");
  append_record(run, inl, "zw");
  EXPECT_TRUE(decode_all(run, net::run_source::ring, &recs));
  EXPECT_EQ(recs.size(), 2u);
  EXPECT_TRUE(decode_all(run, net::run_source::eager, &recs));
  EXPECT_EQ(recs.size(), 2u);
  EXPECT_FALSE(decode_all(run, net::run_source::rts, &recs));

  // Unknown flag bits (flags sit at bytes 20..23 of the header).
  for (std::uint32_t bit = 3; bit < 32; ++bit) {
    std::vector<std::byte> bad = run;
    std::uint32_t flags = 1u << bit;
    std::memcpy(bad.data() + 20, &flags, sizeof flags);
    EXPECT_FALSE(decode_all(bad, net::run_source::eager, &recs)) << bit;
  }
}

/// Mutation test for the record decoder: from a valid run of three records,
/// a fixed seed applies byte flips, len/flags overwrites and truncations.
/// Every decode must yield only records lying wholly inside the buffer, or
/// reject — under ASan/UBSan an out-of-bounds read fails the run.
TEST(NetWire, RecordDecoderSurvivesSeededMutations) {
  net::am_record r[3];
  r[0].seq = 10;
  r[0].handler_delta = 0xABC;
  r[0].len = 5;
  r[0].send_ns = 1234;
  r[0].trace = 99;
  r[1].seq = 11;
  r[2].seq = 12;
  r[2].len = 17;
  r[2].send_ns = 77;
  const auto user = bytes_of("seventeen bytes!!");
  std::vector<std::byte> valid;
  for (const auto& rec : r) append_record(valid, rec, user.data());

  std::uint64_t state = 0x5EEDull;
  const auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  constexpr int kMutations = 20000;
  std::size_t accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::byte> m = valid;
    for (int edits = 1 + static_cast<int>(next() % 3); edits > 0; --edits) {
      const std::uint64_t x = next();
      switch (x % 4) {
        case 0:  // byte flip
          m[(x >> 8) % m.size()] ^=
              static_cast<std::byte>(1u << ((x >> 40) % 8));
          break;
        case 1: {  // len overwrite in one of the headers
          const auto len = static_cast<std::uint32_t>(
              (x >> 32) % 3 == 0 ? x >> 16 : (x >> 48) % 64);
          const std::size_t at = (x >> 8) % (m.size() - 3);
          std::memcpy(m.data() + at, &len, sizeof len);
          break;
        }
        case 2: {  // flags overwrite
          const auto flags = static_cast<std::uint32_t>((x >> 32) % 16);
          const std::size_t at = (x >> 8) % (m.size() - 3);
          std::memcpy(m.data() + at, &flags, sizeof flags);
          break;
        }
        default:  // truncation
          m.resize((x >> 8) % (m.size() + 1));
          if (m.size() < 4) m.resize(4);
          break;
      }
    }
    // A fresh heap copy at exact size, so ASan sees any read past the end.
    const auto exact = std::make_unique<std::byte[]>(m.size());
    std::memcpy(exact.get(), m.data(), m.size());
    const std::byte* lo = exact.get();
    const std::byte* hi = lo + m.size();
    bool inside = true;
    const auto check = [&](const net::am_record& rec, const std::byte* p) {
      if (p != nullptr &&
          (p < lo || p > hi || static_cast<std::size_t>(hi - p) < rec.len))
        inside = false;
    };
    const auto bulk_len = static_cast<std::size_t>(next() % 32);
    bool ok = false;
    switch (i % 3) {
      case 0:
        ok = net::decode_run<net::run_source::eager>(lo, m.size(), check);
        break;
      case 1:
        ok = net::decode_run<net::run_source::rts>(lo, m.size(), check);
        break;
      default:
        ok = net::decode_run<net::run_source::ring>(lo, m.size(), check,
                                                    bulk_len);
        break;
    }
    ASSERT_TRUE(inside) << "mutation " << i << " yielded an escaping record";
    accepted += ok;
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kMutations));
}

/// Collective frames: a runt (key, seq, count) prefix, a truncated table
/// and an overlong one are all rejected; a well-formed table round-trips.
TEST(NetWire, CollectivePayloadsAreStrict) {
  const std::vector<std::vector<std::byte>> entries = {
      bytes_of("rank zero"), {}, bytes_of("rank two's longer contribution")};
  std::vector<std::byte> p;
  net::encode_coll(p, 0xEC00000000000002ull, 17, entries);
  net::coll_msg got;
  ASSERT_TRUE(net::decode_coll(p.data(), p.size(), &got));
  EXPECT_EQ(got.key, 0xEC00000000000002ull);
  EXPECT_EQ(got.seq, 17u);
  EXPECT_EQ(got.entries, entries);

  for (std::size_t len = 0; len < 16; ++len)
    EXPECT_FALSE(net::decode_coll(p.data(), len, &got)) << len;
  for (std::size_t len = 16; len < p.size(); ++len)
    EXPECT_FALSE(net::decode_coll(p.data(), len, &got))
        << "table truncated to " << len << " bytes decoded";
  auto overlong = p;
  overlong.push_back(std::byte{0});
  EXPECT_FALSE(net::decode_coll(overlong.data(), overlong.size(), &got));
  // A count announcing more entries than the table holds.
  auto miscounted = p;
  const std::uint32_t four = 4;
  std::memcpy(miscounted.data() + 16, &four, sizeof four);
  EXPECT_FALSE(net::decode_coll(miscounted.data(), miscounted.size(), &got));

  // A contribution is a one-entry table.
  std::vector<std::byte> c;
  net::encode_coll(c, 1, 2, {&entries[2], 1});
  ASSERT_TRUE(net::decode_coll(c.data(), c.size(), &got));
  ASSERT_EQ(got.entries.size(), 1u);
  EXPECT_EQ(got.entries[0], entries[2]);
}

/// One write may carry many back-to-back frames (a shipped batch behind
/// queued control frames, or a send-queue residue); they must decode as
/// the same N individual frames, in order, with nothing left buffered.
TEST(NetWire, CoalescedBatchDecodesAsIndividualFrames) {
  constexpr std::size_t kFrames = 64;
  std::vector<std::byte> batch;
  std::vector<std::vector<std::byte>> payloads;
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::vector<std::byte> p(1 + (i % 13));
    for (std::size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<std::byte>((i * 31 + j) & 0xFF);
    net::frame_header h = make_header(net::frame_kind::am_eager,
                                      static_cast<std::uint32_t>(p.size()));
    h.seq = i;
    net::encode_frame(batch, h, p.data(), p.size());
    payloads.push_back(std::move(p));
  }

  net::decoder dec(kMaxFrame);
  dec.feed(batch.data(), batch.size());
  net::frame f;
  std::size_t i = 0;
  while (dec.try_next(f)) {
    ASSERT_LT(i, kFrames);
    EXPECT_EQ(f.kind(), net::frame_kind::am_eager);
    EXPECT_EQ(f.hdr.seq, i);
    EXPECT_EQ(f.payload, payloads[i]);
    ++i;
  }
  ASSERT_FALSE(dec.in_error()) << dec.error();
  EXPECT_EQ(i, kFrames);
  EXPECT_EQ(dec.buffered(), 0u);
}

/// The same frames torn at EVERY byte boundary: recv() may split a
/// multi-frame write anywhere, including between two frames and inside
/// any header or payload.
TEST(NetWire, CoalescedBatchSurvivesTornFeedAtEveryBoundary) {
  constexpr std::size_t kFrames = 8;
  std::vector<std::byte> batch;
  std::vector<std::vector<std::byte>> payloads;
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::vector<std::byte> p(3 + 5 * i);
    for (std::size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<std::byte>((i * 131 + j * 17) & 0xFF);
    net::frame_header h = make_header(net::frame_kind::am_eager,
                                      static_cast<std::uint32_t>(p.size()));
    h.seq = i;
    net::encode_frame(batch, h, p.data(), p.size());
    payloads.push_back(std::move(p));
  }

  for (std::size_t split = 0; split <= batch.size(); ++split) {
    net::decoder dec(kMaxFrame);
    std::vector<net::frame> got;
    net::frame f;
    dec.feed(batch.data(), split);
    while (dec.try_next(f)) got.push_back(std::move(f));
    dec.feed(batch.data() + split, batch.size() - split);
    while (dec.try_next(f)) got.push_back(std::move(f));
    ASSERT_FALSE(dec.in_error()) << "split=" << split << ": " << dec.error();
    ASSERT_EQ(got.size(), kFrames) << "split=" << split;
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(got[i].hdr.seq, i) << "split=" << split;
      EXPECT_EQ(got[i].payload, payloads[i]) << "split=" << split;
    }
    EXPECT_EQ(dec.buffered(), 0u) << "split=" << split;
  }
}

TEST(NetWire, OversizedPayloadIsRejected) {
  net::frame_header h = make_header(net::frame_kind::am_eager,
                                    static_cast<std::uint32_t>(kMaxFrame) + 1);
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
  EXPECT_NE(dec.error().find("oversized"), std::string::npos) << dec.error();
  // Sticky: feeding more valid bytes cannot clear the error.
  std::vector<std::byte> stream;
  net::encode_frame(stream, make_header(net::frame_kind::bye, 0), nullptr, 0);
  dec.feed(stream.data(), stream.size());
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, BadMagicIsRejected) {
  net::frame_header h = make_header(net::frame_kind::bye, 0);
  h.magic = 0xDEAD;
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, UnknownKindIsRejected) {
  net::frame_header h = make_header(net::frame_kind::bye, 0);
  h.kind = 999;
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, PartialHeaderIsNotAFrame) {
  net::frame_header h = make_header(net::frame_kind::ident, 0);
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h) - 1);
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_FALSE(dec.in_error());
  EXPECT_EQ(dec.buffered(), sizeof(h) - 1);
}

TEST(NetWire, KindNamesAreDistinct) {
  EXPECT_STREQ(net::kind_name(net::frame_kind::am_eager), "am_eager");
  EXPECT_STREQ(net::kind_name(net::frame_kind::am_rts), "am_rts");
  EXPECT_STRNE(net::kind_name(net::frame_kind::hello),
               net::kind_name(net::frame_kind::bye));
}

void dummy_handler(aspen::gex::runtime&, int, int, std::byte*, std::size_t) {}

TEST(NetWire, HandlerDeltaRoundTrips) {
  const std::uintptr_t anchor = net::text_anchor();
  EXPECT_NE(anchor, 0u);
  EXPECT_EQ(net::text_anchor(), anchor);  // stable within a process
  const std::uint64_t delta = net::encode_handler(&dummy_handler, anchor);
  EXPECT_EQ(net::decode_handler(delta, anchor), &dummy_handler);
}

TEST(NetWire, ApplyEnvOverridesAndClamps) {
  aspen::gex::net_config base;
  setenv("ASPEN_NET_EAGER_MAX", "1024", 1);
  setenv("ASPEN_NET_MAX_FRAME", "0x100000", 1);
  setenv("ASPEN_NET_SEGMENT_BASE", "0x2b0000000000", 1);
  aspen::gex::net_config got = net::apply_env(base);
  EXPECT_EQ(got.eager_max, 1024u);
  EXPECT_EQ(got.max_frame, std::size_t{1} << 20);
  EXPECT_EQ(got.segment_base, 0x2b0000000000ull);

  // An eager frame IS one frame: the message's record, header and both
  // optional words included, must fit max_frame, for the socket bound and
  // for the shm bound (a full ring ships its batch as an eager socket
  // frame). So must a whole aggregation batch.
  setenv("ASPEN_NET_EAGER_MAX", "0x200000", 1);
  got = net::apply_env(base);
  EXPECT_LE(got.eager_max + net::kRecordMaxOverhead, got.max_frame);
  setenv("ASPEN_NET_MAX_FRAME", "4096", 1);
  setenv("ASPEN_SHM_EAGER_MAX", "8192", 1);
  setenv("ASPEN_AGG_BYTES", "65536", 1);
  got = net::apply_env(base);
  EXPECT_EQ(got.max_frame, 4096u);
  EXPECT_LE(got.eager_max + net::kRecordMaxOverhead, got.max_frame);
  EXPECT_LE(got.shm.eager_max + net::kRecordMaxOverhead, got.max_frame);
  EXPECT_LE(got.agg.max_bytes, got.max_frame);
  EXPECT_GE(got.agg.max_bytes, got.eager_max + net::kRecordMaxOverhead);
  unsetenv("ASPEN_SHM_EAGER_MAX");
  unsetenv("ASPEN_AGG_BYTES");

  unsetenv("ASPEN_NET_EAGER_MAX");
  unsetenv("ASPEN_NET_MAX_FRAME");
  unsetenv("ASPEN_NET_SEGMENT_BASE");
  got = net::apply_env(base);
  EXPECT_EQ(got.eager_max, base.eager_max);
  EXPECT_EQ(got.max_frame, base.max_frame);
  EXPECT_EQ(got.segment_base, base.segment_base);

  aspen::gex::net_config deaf = base;
  deaf.honor_env = false;
  setenv("ASPEN_NET_EAGER_MAX", "1", 1);
  got = net::apply_env(deaf);
  EXPECT_EQ(got.eager_max, base.eager_max);
  unsetenv("ASPEN_NET_EAGER_MAX");
}

TEST(NetWire, ApplyEnvParsesAggregationKnobs) {
  aspen::gex::net_config base;
  EXPECT_FALSE(base.agg.enabled);  // aggregation is opt-in
  EXPECT_EQ(base.sendq_max, 0u);   // send queue unbounded by default

  setenv("ASPEN_AGG", "1", 1);
  setenv("ASPEN_AGG_BYTES", "0x8000", 1);
  setenv("ASPEN_AGG_FRAMES", "32", 1);
  setenv("ASPEN_AGG_FLUSH_US", "250", 1);
  setenv("ASPEN_NET_SENDQ_MAX", "0x100000", 1);
  aspen::gex::net_config got = net::apply_env(base);
  EXPECT_TRUE(got.agg.enabled);
  EXPECT_EQ(got.agg.max_bytes, std::size_t{1} << 15);
  EXPECT_EQ(got.agg.max_frames, 32u);
  EXPECT_EQ(got.agg.flush_us, 250u);
  EXPECT_EQ(got.sendq_max, std::size_t{1} << 20);

  // A batch must hold at least one maximal eager frame, the frame
  // watermark at least one frame, and a nonzero sendq bound at least one
  // flushed batch (else injectors would park forever).
  setenv("ASPEN_AGG_BYTES", "16", 1);
  setenv("ASPEN_AGG_FRAMES", "0", 1);
  setenv("ASPEN_NET_SENDQ_MAX", "1", 1);
  got = net::apply_env(base);
  EXPECT_GE(got.agg.max_bytes,
            got.eager_max + sizeof(net::frame_header));
  EXPECT_GE(got.agg.max_frames, 1u);
  EXPECT_GE(got.sendq_max,
            got.agg.max_bytes + 2 * sizeof(net::frame_header));

  // ASPEN_AGG=0 disarms even with the tuning knobs set.
  setenv("ASPEN_AGG", "0", 1);
  got = net::apply_env(base);
  EXPECT_FALSE(got.agg.enabled);

  unsetenv("ASPEN_AGG");
  unsetenv("ASPEN_AGG_BYTES");
  unsetenv("ASPEN_AGG_FRAMES");
  unsetenv("ASPEN_AGG_FLUSH_US");
  unsetenv("ASPEN_NET_SENDQ_MAX");
  got = net::apply_env(base);
  EXPECT_FALSE(got.agg.enabled);
  EXPECT_EQ(got.agg.max_bytes, base.agg.max_bytes);
  EXPECT_EQ(got.sendq_max, 0u);
}

// ---------------------------------------------------------------------------
// Telemetry update frames (the live-aggregation payload codec).
// ---------------------------------------------------------------------------

/// A deterministic snapshot with values spread across the whole flat field
/// space (counters, histogram, scalars) so codec bugs in any region show.
snapshot make_snap(std::uint64_t seed) {
  snapshot s{};
  for (std::size_t i = seed % 3; i < aspen::telemetry::kCounterCount; i += 3)
    s.counters[i] = seed * 1000 + i;
  for (std::size_t i = 0; i < aspen::telemetry::kPqBatchBuckets; i += 2)
    s.pq_fire_hist[i] = seed + i;
  s.pq_high_water = seed * 7;
  s.pq_reserve_growths = seed;
  s.pq_total_fired = seed * 13 + 1;
  s.lpc_mailbox_high_water = seed * 3;
  return s;
}

bool snap_eq(const snapshot& a, const snapshot& b) {
  return a.counters == b.counters && a.pq_fire_hist == b.pq_fire_hist &&
         a.pq_high_water == b.pq_high_water &&
         a.pq_reserve_growths == b.pq_reserve_growths &&
         a.pq_total_fired == b.pq_total_fired &&
         a.lpc_mailbox_high_water == b.lpc_mailbox_high_water;
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

TEST(NetWire, TelemetryUpdateRoundTrips) {
  const snapshot in = make_snap(5);
  live::gauges gin;
  gin.sendq_bytes = 12345;
  gin.sendq_high_water = 999999;
  gin.staged_msgs = 7;
  gin.lpc_mailbox_depth = 3;
  gin.wd_state = 2;  // stalled-then-recovered
  std::vector<std::byte> body;
  live::encode_update(in, gin, body);

  snapshot out{};
  live::gauges gout;
  ASSERT_TRUE(live::decode_update(body.data(), body.size(), &out, &gout));
  EXPECT_TRUE(snap_eq(in, out));
  EXPECT_EQ(gout.sendq_bytes, gin.sendq_bytes);
  EXPECT_EQ(gout.sendq_high_water, gin.sendq_high_water);
  EXPECT_EQ(gout.staged_msgs, gin.staged_msgs);
  EXPECT_EQ(gout.lpc_mailbox_depth, gin.lpc_mailbox_depth);
  EXPECT_EQ(gout.wd_state, gin.wd_state);

  // The all-zero update (an idle interval) is 6 bytes and round-trips too.
  std::vector<std::byte> empty;
  live::encode_update(snapshot{}, live::gauges{}, empty);
  EXPECT_EQ(empty.size(), 6u);
  ASSERT_TRUE(live::decode_update(empty.data(), empty.size(), &out, &gout));
  EXPECT_TRUE(snap_eq(out, snapshot{}));
}

TEST(NetWire, TelemetryUpdateSurvivesTornFrameFeed) {
  const snapshot in = make_snap(9);
  live::gauges gin;
  gin.sendq_bytes = 1;
  std::vector<std::byte> body;
  live::encode_update(in, gin, body);
  std::vector<std::byte> stream;
  net::encode_frame(stream,
                    make_header(net::frame_kind::telemetry,
                                static_cast<std::uint32_t>(body.size())),
                    body.data(), body.size());

  net::decoder dec(kMaxFrame);
  std::vector<net::frame> got;
  net::frame f;
  for (std::byte b : stream) {
    dec.feed(&b, 1);
    while (dec.try_next(f)) got.push_back(std::move(f));
  }
  ASSERT_FALSE(dec.in_error()) << dec.error();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].kind(), net::frame_kind::telemetry);
  snapshot out{};
  live::gauges gout;
  ASSERT_TRUE(live::decode_update(got[0].payload.data(),
                                  got[0].payload.size(), &out, &gout));
  EXPECT_TRUE(snap_eq(in, out));
  EXPECT_EQ(gout.sendq_bytes, 1u);
}

TEST(NetWire, TelemetryUpdateRejectsMalformedInput) {
  const snapshot in = make_snap(3);
  std::vector<std::byte> body;
  live::encode_update(in, live::gauges{}, body);

  // Every strict prefix runs out of varints somewhere.
  for (std::size_t len = 0; len < body.size(); ++len)
    EXPECT_FALSE(live::decode_update(body.data(), len, nullptr, nullptr))
        << "prefix of " << len << " bytes decoded";

  // Trailing bytes after a complete update are garbage, not padding.
  std::vector<std::byte> padded = body;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(
      live::decode_update(padded.data(), padded.size(), nullptr, nullptr));

  auto with_pairs = [](std::initializer_list<std::pair<std::uint64_t,
                                                       std::uint64_t>> ps) {
    std::vector<std::byte> b;
    put_varint(b, ps.size());
    for (const auto& [idx, val] : ps) {
      put_varint(b, idx);
      put_varint(b, val);
    }
    for (int g = 0; g < 5; ++g) put_varint(b, 0);  // gauges
    return b;
  };
  // Non-increasing field indices (canonical form is strictly ascending).
  auto bad = with_pairs({{5, 1}, {3, 1}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  bad = with_pairs({{5, 1}, {5, 1}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  // Explicit zero values are never encoded.
  bad = with_pairs({{2, 0}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  // Field index out of range.
  bad = with_pairs({{live::kFieldCount, 1}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  // Pair count exceeding the field space.
  bad.clear();
  put_varint(bad, live::kFieldCount + 1);
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
}

TEST(NetWire, OversizedTelemetryFrameIsRejected) {
  net::frame_header h = make_header(
      net::frame_kind::telemetry, static_cast<std::uint32_t>(kMaxFrame) + 1);
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, TelemetryDeltaMergeIsAssociativeAndCommutative) {
  const snapshot a = make_snap(1), b = make_snap(2), c = make_snap(4);

  snapshot ab{};
  aspen::telemetry::merge_into(ab, a);
  aspen::telemetry::merge_into(ab, b);
  snapshot ba{};
  aspen::telemetry::merge_into(ba, b);
  aspen::telemetry::merge_into(ba, a);
  EXPECT_TRUE(snap_eq(ab, ba));

  snapshot ab_c = ab;
  aspen::telemetry::merge_into(ab_c, c);
  snapshot bc{};
  aspen::telemetry::merge_into(bc, b);
  aspen::telemetry::merge_into(bc, c);
  snapshot a_bc = bc;
  aspen::telemetry::merge_into(a_bc, a);
  EXPECT_TRUE(snap_eq(ab_c, a_bc));
}

// The live plane's core invariant, in miniature: a rank that ships
// interval deltas (cumulative-total differences, high-waters absolute)
// reassembles to exactly the totals a post-hoc sidecar would have carried.
TEST(NetWire, FinalFlushEqualsSidecarTotals) {
  // Three monotone cumulative checkpoints of one rank's counters.
  snapshot s1 = make_snap(2);
  snapshot s2 = s1;
  s2.counters[0] += 10;
  s2.pq_high_water += 5;
  s2.pq_total_fired += 3;
  snapshot s3 = s2;
  s3.counters[1] += 1;
  s3.pq_fire_hist[0] += 2;
  s3.lpc_mailbox_high_water += 8;

  // What take_update_delta() ships at each checkpoint.
  const snapshot d1 = s1 - snapshot{};
  const snapshot d2 = s2 - s1;
  const snapshot d3 = s3 - s2;

  snapshot acc{};
  aspen::telemetry::merge_into(acc, d1);
  aspen::telemetry::merge_into(acc, d2);
  aspen::telemetry::merge_into(acc, d3);
  EXPECT_TRUE(snap_eq(acc, s3));
}

// ---------------------------------------------------------------------------
// The poll data plane (net::io_backend) over local socketpairs.
// ---------------------------------------------------------------------------

struct fd_pair {
  int a = -1;
  int b = -1;
  fd_pair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) == 0) {
      a = fds[0];
      b = fds[1];
    }
  }
  ~fd_pair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  fd_pair(const fd_pair&) = delete;
  fd_pair& operator=(const fd_pair&) = delete;
};

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xFF);
  return v;
}

/// recv_sink that concatenates everything a backend pump delivers.
struct collect_sink final : net::io_backend::recv_sink {
  std::vector<std::byte> bytes;
  int eof_rank = -1;
  void on_bytes(int, const void* data, std::size_t len) override {
    const auto* p = static_cast<const std::byte*>(data);
    bytes.insert(bytes.end(), p, p + len);
  }
  void on_eof(int rank) override { eof_rank = rank; }
};

// Two backends bridged by a socketpair play ranks 0 and 1: the sender
// flushes a mix of small and large buffers (resuming after EAGAIN), and the
// receiver must observe the exact concatenation in order, then a clean EOF.
TEST(NetIoBackend, StreamsBytesInOrderThenEof) {
  net::io_backend tx(2);
  net::io_backend rx(2);
  fd_pair sp;
  ASSERT_GE(sp.a, 0);
  tx.attach(1, sp.a);
  rx.attach(0, sp.b);

  std::vector<std::byte> expect;
  collect_sink rx_sink;
  const std::size_t sizes[] = {17, 400, 9000, 100 * 1024, 3, 64 * 1024};
  unsigned seed = 0;
  for (std::size_t n : sizes) {
    auto chunk = pattern(n, ++seed);
    expect.insert(expect.end(), chunk.begin(), chunk.end());
    std::size_t off = 0;
    // Drain the receiver as we go so the socket buffer never stays full.
    for (int spin = 0; spin < 20000 && off < chunk.size(); ++spin) {
      tx.flush(1, chunk, off);
      rx.pump(rx_sink);
    }
    ASSERT_EQ(off, chunk.size());
  }
  for (int spin = 0; spin < 20000 && rx_sink.bytes.size() < expect.size();
       ++spin)
    rx.pump(rx_sink);
  ASSERT_EQ(rx_sink.bytes.size(), expect.size());
  EXPECT_EQ(rx_sink.bytes, expect);

  // Close the sender's socket: the receiver's next pumps must report EOF.
  tx.detach(1);
  ::close(sp.a);
  sp.a = -1;
  for (int spin = 0; spin < 20000 && rx_sink.eof_rank < 0; ++spin)
    rx.pump(rx_sink);
  EXPECT_EQ(rx_sink.eof_rank, 0);
}

// idle_park() polls at most 64 peer sockets; the peers beyond that window
// are counted as unwatched on every park (70 peers: 6 per park).
TEST(NetIoBackend, IdleParkCountsPeersBeyondTheFdCap) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  constexpr int kPeers = 70;
  net::io_backend io(kPeers + 1);
  std::vector<std::unique_ptr<fd_pair>> pairs;
  for (int r = 1; r <= kPeers; ++r) {
    pairs.push_back(std::make_unique<fd_pair>());
    ASSERT_GE(pairs.back()->a, 0);
    io.attach(r, pairs.back()->a);
  }
  using aspen::telemetry::counter;
  for (int park = 0; park < 3; ++park) {
    const std::uint64_t before = aspen::telemetry::local_snapshot().get(
        counter::net_idle_unwatched);
    io.idle_park();
    EXPECT_EQ(aspen::telemetry::local_snapshot().get(
                  counter::net_idle_unwatched) -
                  before,
              6u);
  }
}

}  // namespace
