#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <unordered_map>

namespace e2ebench {

namespace {

std::atomic<bool> g_on{false};
std::atomic<int> g_next_id{0};
std::atomic<int> g_next_thread{0};

std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu

thread_local SpanContext t_current;

int ThreadIndex() {
  thread_local const int index = g_next_thread.fetch_add(1);
  return index;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EnableTracing() { g_on.store(true); }
bool TracingEnabled() { return g_on.load(std::memory_order_relaxed); }

SpanContext CurrentContext() { return t_current; }

Span::Span(const char* name) { Open(name, t_current); }

Span::Span(const char* name, int attack) { Open(name, {-1, attack}); }

Span::Span(const char* name, SpanContext parent) { Open(name, parent); }

void Span::Open(const char* name, SpanContext parent) {
  if (!TracingEnabled()) return;
  on_ = true;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1);
  rec_.parent = parent.span;
  rec_.attack = parent.attack;
  rec_.thread = ThreadIndex();
  saved_ = t_current;
  t_current = {rec_.id, rec_.attack};
  rec_.start = Now();
}

Span::~Span() {
  if (!on_) return;
  rec_.end = Now();
  t_current = saved_;
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(rec_);
}

std::vector<SpanRecord> Spans() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (const SpanRecord& s : spans) t0 = std::min(t0, s.start);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                 "\"parent\": %d, \"attack\": %d}}%s\n",
                 s.name, s.thread, (s.start - t0) * 1e6,
                 (s.end - s.start) * 1e6, s.id, s.parent, s.attack,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

LayerTimes AccountLayers(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);

  std::map<std::string, double> self;
  double coverage_sum = 0.0;
  LayerTimes out;
  for (const SpanRecord& s : spans) {
    if (s.attack < 0) continue;
    const double dur = s.end - s.start;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.start, hi = s.start;
      for (auto [a, b] : iv) {
        a = std::clamp(a, s.start, s.end);
        b = std::clamp(b, s.start, s.end);
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    const std::string name = s.name;
    self[name.substr(0, name.find('.'))] += dur - covered;
    if (s.parent < 0) {
      coverage_sum += dur > 0.0 ? covered / dur : 1.0;
      ++out.attacks;
    }
  }
  out.self_s.assign(self.begin(), self.end());
  out.child_coverage = out.attacks > 0 ? coverage_sum / out.attacks : 0.0;
  return out;
}

std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name) out.push_back(s.end - s.start);
  return out;
}

}  // namespace e2ebench
