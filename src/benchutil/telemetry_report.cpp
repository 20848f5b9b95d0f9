#include "benchutil/telemetry_report.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "benchutil/table.hpp"
#include "core/otrace.hpp"
#include "core/telemetry_live.hpp"

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

namespace {

/// Parse the unsigned integer that follows the first occurrence of `key`
/// (a quoted JSON key) after position `from`. Returns false if absent.
bool parse_u64_after(const std::string& s, const char* key, std::size_t from,
                     std::uint64_t* out) {
  std::size_t k = s.find(key, from);
  if (k == std::string::npos) return false;
  k = s.find(':', k);
  if (k == std::string::npos) return false;
  ++k;
  while (k < s.size() && (s[k] == ' ' || s[k] == '\n')) ++k;
  if (k >= s.size() || s[k] < '0' || s[k] > '9') return false;
  std::uint64_t v = 0;
  for (; k < s.size() && s[k] >= '0' && s[k] <= '9'; ++k)
    v = v * 10 + static_cast<std::uint64_t>(s[k] - '0');
  *out = v;
  return true;
}

/// Counter index for a sidecar name, or kCounterCount if unknown.
std::size_t counter_index(const std::string& name) {
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i)
    if (name == telemetry::to_string(static_cast<telemetry::counter>(i)))
      return i;
  return telemetry::kCounterCount;
}

}  // namespace

std::string rank_sidecar_path(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank) + ".telemetry.json";
}

bool read_telemetry_sidecar(const std::string& path, std::string* bench_name,
                            telemetry::snapshot* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string s = ss.str();

  const std::size_t bench_key = s.find("\"bench\"");
  if (bench_key == std::string::npos) return false;
  if (bench_name != nullptr) {
    std::size_t open = s.find('"', s.find(':', bench_key));
    if (open == std::string::npos) return false;
    std::size_t close = s.find('"', open + 1);
    if (close == std::string::npos) return false;
    *bench_name = s.substr(open + 1, close - open - 1);
  }
  if (out == nullptr) return true;

  telemetry::snapshot snap{};
  const std::size_t counters = s.find("\"counters\"");
  if (counters == std::string::npos) return false;
  // Walk the "name": value pairs of the counters object.
  std::size_t pos = s.find('{', counters);
  if (pos == std::string::npos) return false;
  const std::size_t counters_end = s.find('}', pos);
  while (pos < counters_end) {
    const std::size_t open = s.find('"', pos + 1);
    if (open == std::string::npos || open > counters_end) break;
    const std::size_t close = s.find('"', open + 1);
    if (close == std::string::npos || close > counters_end) break;
    const std::string name = s.substr(open + 1, close - open - 1);
    std::size_t p = s.find(':', close);
    if (p == std::string::npos || p > counters_end) break;
    ++p;
    while (p < counters_end && (s[p] == ' ' || s[p] == '\n')) ++p;
    std::uint64_t v = 0;
    for (; p < counters_end && s[p] >= '0' && s[p] <= '9'; ++p)
      v = v * 10 + static_cast<std::uint64_t>(s[p] - '0');
    const std::size_t idx = counter_index(name);
    if (idx < telemetry::kCounterCount) snap.counters[idx] = v;
    pos = s.find(',', close);
    if (pos == std::string::npos || pos > counters_end) break;
  }

  const std::size_t pq = s.find("\"progress_queue\"");
  if (pq != std::string::npos) {
    (void)parse_u64_after(s, "\"high_water\"", pq, &snap.pq_high_water);
    (void)parse_u64_after(s, "\"reserve_growths\"", pq,
                          &snap.pq_reserve_growths);
    (void)parse_u64_after(s, "\"total_fired\"", pq, &snap.pq_total_fired);
    (void)parse_u64_after(s, "\"lpc_mailbox_high_water\"", pq,
                          &snap.lpc_mailbox_high_water);
    std::size_t hist = s.find("\"fire_batch_hist_pow2\"", pq);
    if (hist != std::string::npos) {
      hist = s.find('[', hist);
      const std::size_t hist_end = s.find(']', hist);
      std::size_t p = hist + 1;
      for (std::size_t b = 0;
           b < telemetry::kPqBatchBuckets && p < hist_end; ++b) {
        while (p < hist_end && (s[p] == ' ' || s[p] == ',')) ++p;
        std::uint64_t v = 0;
        for (; p < hist_end && s[p] >= '0' && s[p] <= '9'; ++p)
          v = v * 10 + static_cast<std::uint64_t>(s[p] - '0');
        snap.pq_fire_hist[b] = v;
      }
    }
  }
  // Latency histograms: per stream, the mergeable fields only (buckets and
  // max_ns; count/percentiles in the sidecar are derived). Optional for
  // back-compat with sidecars written before the latency plane existed.
  const std::size_t latj = s.find("\"latency\"");
  if (latj != std::string::npos) {
    for (std::size_t st = 0; st < telemetry::kLatStreamCount; ++st) {
      const std::string key =
          std::string("\"") +
          telemetry::to_string(static_cast<telemetry::lat_stream>(st)) + "\"";
      const std::size_t k = s.find(key, latj);
      if (k == std::string::npos) continue;
      const std::size_t obj_end = s.find('}', k);
      const std::size_t open = s.find('[', k);
      if (open == std::string::npos || obj_end == std::string::npos ||
          open > obj_end)
        continue;
      const std::size_t close = s.find(']', open);
      std::size_t p = open + 1;
      for (std::size_t b = 0;
           b < telemetry::kLatBuckets && p < close; ++b) {
        while (p < close && (s[p] == ' ' || s[p] == ',')) ++p;
        std::uint64_t v = 0;
        for (; p < close && s[p] >= '0' && s[p] <= '9'; ++p)
          v = v * 10 + static_cast<std::uint64_t>(s[p] - '0');
        snap.lat[st].buckets[b] = v;
      }
      (void)parse_u64_after(s, "\"max_ns\"", close, &snap.lat[st].max_ns);
    }
  }
  *out = snap;
  return true;
}

telemetry::snapshot merge_snapshots(
    const std::vector<telemetry::snapshot>& parts) {
  // Delegate to the runtime's single merge definition: the live collector
  // uses the same function per update frame, which is what makes rank 0's
  // in-memory aggregate bit-identical to a post-hoc sidecar merge.
  telemetry::snapshot m{};
  for (const telemetry::snapshot& p : parts) telemetry::merge_into(m, p);
  return m;
}

int merge_rank_sidecars(const std::string& base, int nranks,
                        telemetry::snapshot* out) {
  std::vector<telemetry::snapshot> parts;
  for (int r = 0; r < nranks; ++r) {
    telemetry::snapshot s{};
    if (read_telemetry_sidecar(rank_sidecar_path(base, r), nullptr, &s))
      parts.push_back(s);
  }
  if (out != nullptr) *out = merge_snapshots(parts);
  return static_cast<int>(parts.size());
}

void print_live_telemetry_report(std::ostream& os) {
  if (!telemetry::live::enabled()) {
    os << "[telemetry] live aggregation disabled "
          "(set ASPEN_TELEMETRY_INTERVAL_MS)\n";
    return;
  }
  const int nranks = telemetry::live::collector_ranks();
  if (nranks == 0) {
    os << "[telemetry] no live collector on this rank "
          "(only rank 0 aggregates)\n";
    return;
  }
  os << "live job-wide telemetry (" << nranks << " ranks, no sidecars):\n";
  print_telemetry_summary(os, telemetry::live::job_snapshot());
  table t({"rank", "updates", "sendq_bytes", "sendq_high_water",
           "staged_msgs", "lpc_mailbox"});
  for (int r = 0; r < nranks; ++r) {
    const telemetry::live::gauges g = telemetry::live::rank_gauges(r);
    t.add_row({std::to_string(r),
               std::to_string(telemetry::live::rank_updates(r)),
               std::to_string(g.sendq_bytes),
               std::to_string(g.sendq_high_water),
               std::to_string(g.staged_msgs),
               std::to_string(g.lpc_mailbox_depth)});
  }
  t.print(os);
}

int merge_rank_otraces(const std::string& base, int nranks,
                       const std::string& out_path) {
  std::ofstream out(out_path);
  if (!out) return -1;
  out << "{\"traceEvents\":[";
  int merged = 0;
  bool first = true;
  for (int r = 0; r < nranks; ++r) {
    std::ifstream f(otrace::dump_path(base, r));
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
