#pragma once
// Spans for the traced run. The benchmark opens a span around each call
// it makes into a library module's public functions; nothing inside the
// library is instrumented. Spans live in memory until the run ends, then
// go out as Chrome trace-event JSON (opens in Perfetto or chrome://tracing)
// and as a table of self time per layer.
//
// A span's parent is the innermost open span on the same thread; spans of
// one top-level operation share its request id. With tracing disabled a
// Span costs one branch.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  std::string layer;  ///< module name: "qgraph", "qaoa", "solver", ...
  std::string name;   ///< the call: "partition_max_size", ...
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

/// Per-layer totals over every span of a layer.
struct LayerTotals {
  std::size_t calls = 0;
  double total_s = 0.0;
  /// Duration minus the time covered by the layer's child spans.
  double self_s = 0.0;
};

void enable(bool on);
bool enabled();

/// Starts a new top-level operation; spans opened on this thread until the
/// next call carry the returned id.
std::uint64_t begin_request();

class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, double value);

 private:
  std::int64_t id_ = -1;
};

/// Snapshot of every closed span, in opening order.
std::vector<SpanRecord> spans();
void clear();

/// Totals keyed by "layer.name".
std::map<std::string, LayerTotals> call_totals(
    const std::vector<SpanRecord>& records);

/// Writes the spans as Chrome trace-event JSON; false on an I/O error.
bool write_chrome_json(const std::vector<SpanRecord>& records,
                       const std::string& path);

/// Human-readable self-time table, one row per layer and per call.
std::string self_time_table(const std::vector<SpanRecord>& records);

}  // namespace perfbench::trace
