#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the process that started this one (run.py's Python) across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

namespace {

struct SpanRecord {
  const char* name;
  double start;
  double end;
  int parent;  // index into the same thread's buffer, -1 for a root
  std::int64_t batch;
};

struct ThreadSpans {
  int thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int> open;
};

std::atomic<bool> g_tracing{false};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by mu

ThreadSpans& this_thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    mine = g_threads.back().get();
    mine->thread = static_cast<int>(g_threads.size() - 1);
  }
  return *mine;
}

}  // namespace

void enable_tracing() { g_tracing.store(true); }
bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::int64_t batch) {
  if (!tracing_enabled()) return;
  ThreadSpans& t = this_thread_spans();
  const int parent = t.open.empty() ? -1 : t.open.back();
  index_ = static_cast<int>(t.spans.size());
  t.spans.push_back(SpanRecord{name, now_s(), 0, parent, batch});
  t.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadSpans& t = this_thread_spans();
  t.spans[static_cast<std::size_t>(index_)].end = now_s();
  t.open.pop_back();
}

const TraceSummary::Layer* TraceSummary::find(const std::string& name) const {
  for (const Layer& l : layers)
    if (l.name == name) return &l;
  return nullptr;
}

double TraceSummary::coverage(const std::string& root) const {
  const Layer* l = find(root);
  if (l == nullptr || l->total_s <= 0) return 0;
  return (l->total_s - l->self_s) / l->total_s;
}

// Called after every traced thread has been joined.
TraceSummary summarize_trace() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::map<std::string, TraceSummary::Layer> by_name;
  TraceSummary out;
  for (const auto& t : g_threads) {
    std::vector<double> child(t->spans.size(), 0.0);
    for (const SpanRecord& s : t->spans)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      TraceSummary::Layer& l = by_name[s.name];
      l.name = s.name;
      ++l.count;
      l.total_s += s.end - s.start;
      l.self_s += s.end - s.start - child[i];
    }
    out.spans += t->spans.size();
  }
  for (auto& [name, l] : by_name) out.layers.push_back(l);
  return out;
}

void write_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "cannot write spans to " << path << "\n";
    return;
  }
  char buf[256];
  for (const auto& t : g_threads) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %zu, \"thread\": %d, \"name\": \"%s\", "
                    "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, "
                    "\"batch\": %lld}\n",
                    i, t->thread, s.name, s.start, s.end, s.parent,
                    static_cast<long long>(s.batch));
      out << buf;
    }
  }
}

}  // namespace perfbench
