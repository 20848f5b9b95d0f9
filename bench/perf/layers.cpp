// aspen-bench per-layer measurements: folding otrace stage records into
// stage-edge latencies, and the two micro-loops that time one layer's
// primitive in isolation (the wire codec and the shm ring).
#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "benchutil/timer.hpp"
#include "common.hpp"
#include "net/wire.hpp"
#include "shm/ring.hpp"

namespace aspen_bench {

namespace {

using aspen::otrace::record_view;
using aspen::otrace::stage;

constexpr std::size_t kStages = 16;  ///< stage enum values fit in 4 bits

double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const auto k =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// Best-of-three ns per iteration of `body(i)` over `iters` iterations.
template <typename Body>
double best_ns_per_iter(std::size_t iters, Body&& body) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t = mono_ns();
    for (std::size_t i = 0; i < iters; ++i) body(i);
    best = std::min(best, static_cast<double>(mono_ns() - t) /
                              static_cast<double>(iters));
  }
  return best;
}

}  // namespace

std::vector<edge_stats> fold_edges(std::vector<record_view> records,
                                   std::size_t* traces) {
  std::stable_sort(records.begin(), records.end(),
                   [](const record_view& a, const record_view& b) {
                     return a.trace != b.trace ? a.trace < b.trace
                                               : a.t_ns < b.t_ns;
                   });
  std::array<std::vector<std::uint64_t>, kStages * kStages> durs;
  std::array<std::size_t, kStages * kStages> in_traces{};
  std::size_t ntraces = 0;
  for (std::size_t i = 0; i < records.size();) {
    std::size_t j = i;
    while (j < records.size() && records[j].trace == records[i].trace) ++j;
    ++ntraces;
    std::array<bool, kStages * kStages> seen{};
    for (std::size_t k = i; k + 1 < j; ++k) {
      const auto e = static_cast<std::size_t>(records[k].st) * kStages +
                     static_cast<std::size_t>(records[k + 1].st);
      // Cross-rank stamps carry the bootstrap clock-offset estimate's error;
      // an edge can read slightly negative, which is a zero-length hop.
      const std::uint64_t d = records[k + 1].t_ns > records[k].t_ns
                                  ? records[k + 1].t_ns - records[k].t_ns
                                  : 0;
      durs[e].push_back(d);
      seen[e] = true;
    }
    for (std::size_t e = 0; e < seen.size(); ++e) in_traces[e] += seen[e];
    i = j;
  }
  std::vector<edge_stats> out;
  for (std::size_t e = 0; e < durs.size(); ++e) {
    if (durs[e].empty() || in_traces[e] * 100 < ntraces) continue;
    edge_stats s;
    s.name = std::string(to_string(static_cast<stage>(e / kStages))) + "." +
             to_string(static_cast<stage>(e % kStages));
    s.p50_ns = percentile(durs[e], 0.50);
    s.p99_ns = percentile(durs[e], 0.99);
    out.push_back(std::move(s));
  }
  if (traces != nullptr) *traces = ntraces;
  return out;
}

double codec_ns_per_frame() {
  namespace net = aspen::net;
  std::byte body[net::kEagerPrefixBytes + 16] = {};
  net::frame_header h{};
  h.kind = static_cast<std::uint16_t>(net::frame_kind::am_eager);
  h.src = 0;
  net::decoder dec(std::size_t{1} << 20);
  std::vector<std::byte> wire;
  net::frame f;
  std::uint64_t sum = 0;
  const double ns = best_ns_per_iter(std::size_t{1} << 18, [&](std::size_t i) {
    wire.clear();
    h.seq = i;
    std::memcpy(body + net::kEagerPrefixBytes, &i, sizeof i);
    net::encode_frame(wire, h, body, sizeof body);
    dec.feed(wire.data(), wire.size());
    if (!dec.try_next(f)) throw std::runtime_error("codec round trip failed");
    sum += f.hdr.seq;
  });
  aspen::bench::do_not_optimize(sum);
  return ns;
}

double ring_ns_per_record() {
  namespace shm = aspen::shm;
  const std::size_t cap = shm::spsc_ring::clamp_capacity(std::size_t{1} << 16);
  struct alignas(64) line {
    std::byte b[64];
  };
  std::vector<line> mem(shm::spsc_ring::footprint(cap) / sizeof(line) + 1);
  shm::spsc_ring ring = shm::spsc_ring::create(mem.data(), cap);
  std::uint64_t rec[2] = {};
  std::uint64_t got[2] = {};
  std::uint64_t sum = 0;
  const double ns = best_ns_per_iter(std::size_t{1} << 20, [&](std::size_t i) {
    rec[0] = i;
    if (!ring.try_push(rec, sizeof rec))
      throw std::runtime_error("ring push failed");
    ring.pop_front(got);
    sum += got[0];
  });
  aspen::bench::do_not_optimize(sum);
  return ns;
}

}  // namespace aspen_bench
