// Shared pieces of the repository benchmark: run configuration, the
// per-run report, order statistics, and the benchmark's own span tracer.
//
// The tracer records spans only around calls into the program's public
// functions, from the benchmark's side; it is off in end-to-end runs
// (--trace 0) and costs one relaxed atomic load per span site there.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Engine workers for every workload. One worker runs each superstep on
/// the calling thread, so no superstep phase waits for a parked worker to
/// wake, which is the scheduler's latency rather than the program's work.
inline constexpr int kWorkers = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints: the JSON accounting line plus a
/// human-readable stderr log of every check.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records a failed output check: the run exits nonzero.
  void check(bool ok, const std::string& what);
};

// ---------------------------------------------------------------------------
// Time and order statistics
// ---------------------------------------------------------------------------

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

/// Peak resident set of this process, in MB (VmHWM in /proc/self/status).
double peak_rss_mb();
/// Current resident set of this process, in MB (/proc/self/statm).
double current_rss_mb();

/// Derives an independent 64-bit seed for input stream `stream` of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

/// Turns span recording on for the rest of the process.
void enable_tracing();
bool tracing_enabled();

/// RAII span: name (a string literal), start, end, parent (the innermost
/// open span on this thread) and an optional batch id.
class Span {
 public:
  explicit Span(const char* name, std::int64_t batch = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Aggregates over every recorded span.
struct TraceSummary {
  struct Layer {
    std::string name;
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;  // total minus the time its child spans cover
  };
  std::vector<Layer> layers;  // sorted by name
  std::size_t spans = 0;

  const Layer* find(const std::string& name) const;
  /// Share of `root`'s total time covered by its child spans.
  double coverage(const std::string& root) const;
};

TraceSummary summarize_trace();

/// Writes every span as one JSON object per line.
void write_trace(const std::string& path);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void run_stream(const RunConfig& cfg, Report& report);
void run_retract(const RunConfig& cfg, Report& report);
void run_serve(const RunConfig& cfg, Report& report);

}  // namespace perfbench
