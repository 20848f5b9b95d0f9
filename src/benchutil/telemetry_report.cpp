#include "benchutil/telemetry_report.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "benchutil/table.hpp"
#include "core/otrace.hpp"

namespace aspen::bench {

void print_telemetry_summary(std::ostream& os,
                             const telemetry::snapshot& snap) {
  if (!telemetry::compiled_in()) {
    os << "[telemetry] compiled out (configure with -DASPEN_TELEMETRY=ON)\n";
    return;
  }

  os << "telemetry counters:\n";
  table t({"counter", "count"});
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    const auto c = static_cast<telemetry::counter>(i);
    if (snap.get(c) != 0)
      t.add_row({telemetry::to_string(c), std::to_string(snap.get(c))});
  }
  t.print(os);

  const std::uint64_t total = snap.completions_issued();
  std::ostringstream ratio;
  ratio.precision(3);
  ratio << std::fixed << snap.eager_bypass_ratio();
  table d({"completion disposition", "value"});
  d.add_row({"issued", std::to_string(total)});
  d.add_row({"eager_bypass_ratio", ratio.str()});
  d.add_row({"pq_high_water", std::to_string(snap.pq_high_water)});
  d.add_row({"pq_reserve_growths", std::to_string(snap.pq_reserve_growths)});
  d.add_row({"pq_total_fired", std::to_string(snap.pq_total_fired)});
  d.print(os);

  bool any_lat = false;
  for (std::size_t i = 0; i < telemetry::kLatStreamCount; ++i)
    any_lat = any_lat || snap.lat[i].total() != 0;
  if (any_lat) {
    os << "completion latency (ns):\n";
    table l({"stream", "count", "p50", "p90", "p99", "max"});
    for (std::size_t i = 0; i < telemetry::kLatStreamCount; ++i) {
      const telemetry::lat_hist& h = snap.lat[i];
      if (h.total() == 0) continue;
      l.add_row({telemetry::to_string(static_cast<telemetry::lat_stream>(i)),
                 std::to_string(h.total()),
                 std::to_string(h.percentile_ns(50.0)),
                 std::to_string(h.percentile_ns(90.0)),
                 std::to_string(h.percentile_ns(99.0)),
                 std::to_string(h.max_ns)});
    }
    l.print(os);
  }
}

telemetry::snapshot stable_aggregate() {
  // telemetry::aggregate() folds per-thread atomic cells one relaxed load
  // at a time, so a snapshot taken while worker threads are injecting can
  // mix "before" and "after" values of logically-coupled counters (a torn
  // read: cx_eager_taken from one instant, completions from another).
  // Reading until two consecutive aggregates agree yields a snapshot that
  // was stable across a full fold — the same discipline the live plane's
  // final flush gets from region quiescence. Bounded: under sustained
  // mutation the last (possibly torn) read still returns rather than
  // spinning forever.
  telemetry::snapshot prev = telemetry::aggregate();
  for (int spin = 0; spin < 1000; ++spin) {
    telemetry::snapshot cur = telemetry::aggregate();
    if (cur == prev) return cur;
    prev = cur;
  }
  return prev;
}

std::string disposition_latency_json(const telemetry::snapshot& snap) {
  std::ostringstream os;
  os << '{';
  const telemetry::disposition dispositions[] = {
      telemetry::disposition::eager, telemetry::disposition::deferred};
  for (const telemetry::disposition d : dispositions) {
    const telemetry::lat_hist h = snap.lat_by_disposition(d);
    os << (d == telemetry::disposition::eager ? "\"" : ", \"")
       << telemetry::to_string(d) << "\": {\"count\": " << h.total()
       << ", \"p50_ns\": " << h.percentile_ns(50.0)
       << ", \"p99_ns\": " << h.percentile_ns(99.0)
       << ", \"max_ns\": " << h.max_ns << "}";
  }
  os << '}';
  return os.str();
}

bool write_telemetry_sidecar(const std::string& path,
                             const std::string& bench_name,
                             const telemetry::snapshot& snap) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"bench\": \"" << bench_name << "\",\n  \"telemetry\": "
    << snap.to_json() << ",\n  \"latency_by_disposition\": "
    << disposition_latency_json(snap) << "\n}\n";
  return static_cast<bool>(f);
}

int merge_rank_otraces(const std::string& base, int nranks,
                       const std::string& out_path) {
  std::ofstream out(out_path);
  if (!out) return -1;
  out << "{\"traceEvents\":[";
  int merged = 0;
  bool first = true;
  for (int r = 0; r < nranks; ++r) {
    std::ifstream f(otrace::export_path(base, r));
    if (!f) continue;
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string s = ss.str();
    // Slice the events array out of {"traceEvents":[...],"displayTimeUnit"
    // ...}. Event names/categories are fixed identifiers, so the closing
    // "]," before displayTimeUnit is unambiguous.
    const std::size_t open = s.find("\"traceEvents\":[");
    const std::size_t close = s.rfind("],\"displayTimeUnit\"");
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
      continue;
    const std::size_t begin = open + std::string("\"traceEvents\":[").size();
    const std::string events = s.substr(begin, close - begin);
    if (!events.empty()) {
      if (!first) out << ",\n";
      out << events;
      first = false;
    }
    ++merged;
  }
  out << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"ranks_merged\":"
      << merged << "}}";
  return out ? merged : -1;
}

}  // namespace aspen::bench
