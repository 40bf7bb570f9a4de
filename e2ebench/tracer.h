// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// A span is one call into a layer of the system, recorded from this
// benchmark's own code around the public call: name ("<layer>.<what>"),
// start, end, parent span and the attack it belongs to. Spans are kept in
// memory and written out once, at exit, as Chrome trace-event JSON. With
// tracing off a Span reads no clock and records nothing.
#ifndef SC_E2EBENCH_TRACER_H_
#define SC_E2EBENCH_TRACER_H_

#include <string>
#include <vector>

namespace e2ebench {

// Seconds on the steady clock.
double Now();

struct SpanRecord {
  const char* name = "";  // string literal
  double start = 0.0;
  double end = 0.0;
  int id = -1;
  int parent = -1;  // -1: a root span
  int attack = -1;  // -1: not part of an attack (set-up)
  int thread = 0;
};

// Parent and attack a span opened on another thread should inherit (the
// thread-pool workers of a parallel call know neither).
struct SpanContext {
  int span = -1;
  int attack = -1;
};

// Turns recording on for the rest of the process.
void EnableTracing();
bool TracingEnabled();

// The calling thread's innermost open span.
SpanContext CurrentContext();

class Span {
 public:
  // Child of the calling thread's innermost open span, same attack.
  explicit Span(const char* name);
  // Root span of attack `attack` (-1: set-up).
  Span(const char* name, int attack);
  // Child of `parent`, opened on a thread other than the parent's.
  Span(const char* name, SpanContext parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Open(const char* name, SpanContext parent);

  bool on_ = false;
  SpanRecord rec_;
  SpanContext saved_;
};

// Every span closed so far (call after all threads are done).
std::vector<SpanRecord> Spans();

// Writes the spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

// Per-layer accounting over attack spans. A span's self time is its
// duration minus the part of it its children cover (union of intervals,
// so children running in parallel count once). The layer is the name's
// prefix before the first '.'.
struct LayerTimes {
  std::vector<std::pair<std::string, double>> self_s;  // summed over attacks
  // Mean over attack root spans of (time covered by children / duration).
  double child_coverage = 0.0;
  int attacks = 0;
};
LayerTimes AccountLayers(const std::vector<SpanRecord>& spans);

// Durations of every span named `name`, in seconds.
std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& name);

}  // namespace e2ebench

#endif  // SC_E2EBENCH_TRACER_H_
