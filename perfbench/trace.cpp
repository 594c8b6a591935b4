#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "metrics.hpp"

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_request{0};
std::atomic<std::uint32_t> g_next_thread{0};

std::mutex g_mutex;
std::vector<SpanRecord> g_records;  // guarded by g_mutex
std::vector<bool> g_closed;         // guarded by g_mutex

thread_local std::vector<std::int64_t> t_open;  // this thread's open spans
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

/// Self time of every record: duration minus the children's durations.
/// Children run nested on their parent's thread, so they never overlap.
std::vector<double> self_times(const std::vector<SpanRecord>& records) {
  std::vector<double> self(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    self[i] = records[i].end_s - records[i].start_s;
  }
  for (const SpanRecord& r : records) {
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -= r.end_s - r.start_s;
    }
  }
  return self;
}

std::map<std::string, LayerTotals> totals(
    const std::vector<SpanRecord>& records, bool by_call) {
  const std::vector<double> self = self_times(records);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    LayerTotals& t = out[by_call ? r.layer + "." + r.name : r.layer];
    ++t.calls;
    t.total_s += r.end_s - r.start_s;
    t.self_s += self[i];
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t begin_request() { return g_request.fetch_add(1) + 1; }

Span::Span(const char* layer, const char* name) {
  if (!enabled()) return;
  SpanRecord r;
  r.layer = layer;
  r.name = name;
  r.parent = t_open.empty() ? -1 : t_open.back();
  r.request = g_request.load(std::memory_order_relaxed);
  r.thread = t_thread;
  r.start_s = now_seconds();
  const std::lock_guard<std::mutex> lock(g_mutex);
  id_ = static_cast<std::int64_t>(g_records.size());
  g_records.push_back(std::move(r));
  g_closed.push_back(false);
  t_open.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  const double end = now_seconds();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_records[static_cast<std::size_t>(id_)].end_s = end;
  g_closed[static_cast<std::size_t>(id_)] = true;
}

void Span::arg(const char* key, double value) {
  if (id_ < 0) return;
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_records[static_cast<std::size_t>(id_)].args.emplace_back(key, value);
}

std::vector<SpanRecord> spans() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<SpanRecord> out;
  std::vector<std::int64_t> remap(g_records.size(), -1);
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    if (!g_closed[i]) continue;
    remap[i] = static_cast<std::int64_t>(out.size());
    out.push_back(g_records[i]);
    const std::int64_t p = out.back().parent;
    out.back().parent = p >= 0 ? remap[static_cast<std::size_t>(p)] : -1;
  }
  return out;
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_records.clear();
  g_closed.clear();
}

std::map<std::string, LayerTotals> call_totals(
    const std::vector<SpanRecord>& records) {
  return totals(records, true);
}

bool write_chrome_json(const std::vector<SpanRecord>& records,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = records.empty() ? 0.0 : records.front().start_s;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"span\":%zu,\"parent\":%lld",
                 json_escape(r.name).c_str(), json_escape(r.layer).c_str(),
                 r.thread, (r.start_s - origin) * 1e6,
                 (r.end_s - r.start_s) * 1e6,
                 static_cast<unsigned long long>(r.request), i,
                 static_cast<long long>(r.parent));
    for (const auto& [key, value] : r.args) {
      std::fprintf(f, ",\"%s\":%.17g", json_escape(key).c_str(), value);
    }
    std::fprintf(f, "}}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string self_time_table(const std::vector<SpanRecord>& records) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-36s %9s %12s %12s\n", "span", "calls",
                "total_s", "self_s");
  os << line;
  const auto row = [&](const std::string& name, const LayerTotals& t) {
    std::snprintf(line, sizeof(line), "%-36s %9zu %12.6f %12.6f\n",
                  name.c_str(), t.calls, t.total_s, t.self_s);
    os << line;
  };
  for (const auto& [layer, t] : totals(records, false)) row(layer, t);
  os << "--\n";
  for (const auto& [call, t] : call_totals(records)) row("  " + call, t);
  return os.str();
}

}  // namespace perfbench::trace
