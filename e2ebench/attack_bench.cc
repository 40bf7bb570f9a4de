// End-to-end attack benchmark: runs the paper's attacks the way a user
// runs them and prints one JSON result line. See README.md next to this
// file for the workloads, the metrics and what each layer metric predicts.
//
// Usage:
//   attack_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// One process runs one workload, closed loop with one client: the next
// attack starts when the previous one (and its correctness check) is done.
// Every victim input and noise seed derives from --seed. Correctness checks
// run outside the timed region; a failed check or a throwing attack counts
// into "failed" and never aborts the run. With --trace 1 the run records
// spans around every public call it makes (tracer.h), turns the obs
// registry on, and reports per-layer metrics instead of end-to-end ones.
// DIR receives scratch files, the span timeline and a report.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "accel/synthesis_cache.h"
#include "attack/structure/report.h"
#include "attack/structure/robust.h"
#include "attack/weights/attack.h"
#include "attack/weights/oracle.h"
#include "campaign/campaign.h"
#include "defense/eval.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "sim/noise.h"
#include "store/reader.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "tracer.h"

namespace e2ebench {
namespace {

using namespace sc;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

// Independent seed streams derived from --seed; element i of a stream
// seeds attack i.
enum class Stream : std::uint64_t { kVictim, kInput, kNoise, kCampaign,
                                    kDefense };

std::uint64_t SeedFor(const Options& o, Stream stream, int i = 0) {
  return MixSeed(MixSeed(o.seed, static_cast<std::uint64_t>(stream)),
                 static_cast<std::uint64_t>(i));
}

nn::Tensor RandomInput(const nn::Shape& s, std::uint64_t seed) {
  nn::Tensor t(s);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.GaussianF(1.0f);
  return t;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Highest percentile with at least ten samples beyond it: the sample at
// rank n-10 of n (ascending). Below 11 samples no percentile qualifies and
// the maximum is reported.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// What one run measured. Per-layer values are filled only by traced runs.
struct RunStats {
  std::vector<double> setup_s;   // one entry per set-up repetition
  std::vector<double> cold_s;    // attacks on fresh state
  std::vector<double> attack_s;  // warm attack latencies
  double timed_s = 0.0;          // wall time of the warm attacks
  double units = 0.0;            // adversary cost units of the warm attacks
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> layer;
};

// Cold attacks: one before the warm loop and the others spread evenly
// over it, so a slow or fast phase of a shared machine reaches both
// series alike. Their attack ids start at kColdBase; warm ids count from 1.
constexpr int kColdAttacks = 5;
constexpr int kColdBase = 1 << 24;
bool IsCold(int attack) { return attack >= kColdBase; }

// Runs `fn` as one attempted attack; an exception counts as a failure.
void Attempt(RunStats& st, const std::string& what,
             const std::function<bool()>& fn) {
  ++st.attempted;
  bool ok = false;
  try {
    ok = fn();
  } catch (const std::exception& e) {
    std::cerr << what << " threw: " << e.what() << "\n";
  }
  if (!ok) ++st.failed;
}

// Runs `fn` with the obs registry paused, so the traced run's counters
// hold only what the warm attacks did (checks and cold attacks excluded).
template <class F>
bool ObsPaused(F&& fn) {
  const bool was = obs::Enabled();
  obs::SetEnabled(false);
  const bool ok = fn();
  obs::SetEnabled(was);
  return ok;
}

// The cold attacks and the warm loop. `cold(id)` runs one cold attack;
// `warm()` runs one warm step (one or more warm attacks) and adds to
// st.attack_s, st.timed_s and st.units. `more_setups`, when set, repeats
// the set-up alongside each later cold attack (its result discarded), so
// millisecond set-ups are sampled across the run too. In the traced run
// the obs registry is reset after the first cold attack.
void MeasureLoop(RunStats& st, const Options& o,
                 const std::function<void(int)>& cold,
                 const std::function<void()>& warm,
                 const std::function<void()>& more_setups = nullptr) {
  cold(kColdBase);
  if (o.trace) {
    obs::Registry::Get().ResetAll();
    obs::SetEnabled(true);
  }
  int next = 1;
  const auto cold_point = [&] {
    ObsPaused([&] {
      if (more_setups) more_setups();
      cold(kColdBase + next++);
      return true;
    });
  };
  while (st.timed_s < o.seconds) {
    if (next < kColdAttacks && st.timed_s * kColdAttacks >= o.seconds * next)
      cold_point();
    warm();
  }
  while (next < kColdAttacks) cold_point();
}

// MeasureLoop for workloads whose cold and warm attacks are the same call:
// `attack(id, &latency)` runs attack `id` and returns its check's verdict.
void MeasureAttacks(RunStats& st, const Options& o,
                    const std::function<bool(int, double*)>& attack,
                    const std::function<void()>& more_setups) {
  int next = 1;
  MeasureLoop(
      st, o,
      [&](int id) {
        Attempt(st, "cold attack", [&] {
          double lat = 0.0;
          const bool ok = attack(id, &lat);
          st.cold_s.push_back(lat);
          return ok;
        });
      },
      [&] {
        const int i = next++;
        double lat = 0.0;
        const double t0 = Now();
        Attempt(st, "attack " + std::to_string(i),
                [&] { return attack(i, &lat); });
        // An attack that threw never set its latency; its wall time still
        // counts, so a failing run cannot loop without advancing.
        if (lat == 0.0) lat = Now() - t0;
        st.attack_s.push_back(lat);
        st.timed_s += lat;
      },
      more_setups);
}

// Millisecond set-ups run this many times before the first attack and
// again at each later cold attack.
constexpr int kSetupsPerPoint = 10;

// Obs values per warm attack.
double ObsCounter(const std::string& name, double per) {
  const double v =
      static_cast<double>(obs::Registry::Get().GetCounter(name).value());
  return per > 0.0 ? v / per : 0.0;
}
double ObsHistMean(const std::string& name) {
  return obs::Registry::Get().GetHistogram(name).mean();
}
double ObsHistSum(const std::string& name, double per) {
  const double v =
      static_cast<double>(obs::Registry::Get().GetHistogram(name).sum());
  return per > 0.0 ? v / per : 0.0;
}

// Layer metrics every workload reports the same way.
void CommonLayerMetrics(RunStats& st) {
  const double n = static_cast<double>(st.attack_s.size());
  st.layer["accel.runs"] = ObsCounter("accel.runs", n);
  st.layer["accel.events"] = ObsCounter("accel.dram.read_events", n) +
                             ObsCounter("accel.dram.write_events", n);
  st.layer["accel.sim_cycles"] = ObsHistSum("accel.stage.cycles", n);
  st.layer["pool.worker_wait_ns"] = ObsHistMean("pool.worker_wait_ns");
  st.layer["pool.chunks_run"] = ObsCounter("pool.chunks_run", n);
  st.layer["models.build_s"] = Median(Durations(Spans(), "models.build"));
  st.layer["nn.forward_s"] = Median(Durations(Spans(), "nn.forward"));
}

// Spans of warm attacks plus set-up and reference spans (attack -1).
std::vector<SpanRecord> WarmSpans() {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : Spans())
    if (!IsCold(s.attack)) out.push_back(s);
  return out;
}

// --- alexnet_structure -------------------------------------------------------

const std::vector<attack::LayerFingerprint> kAlexNetTruth = {
    {11, 96}, {5, 256}, {3, 384}, {3, 384},
    {3, 256}, {6, 4096}, {1, 4096}, {1, 1000}};

struct AlexNetVictim {
  nn::Network net;
  accel::Accelerator accel;
  accel::AddressMap map;
  std::unique_ptr<accel::SynthesisCache> cache;
  attack::RobustStructureConfig attack_cfg;
};

std::unique_ptr<AlexNetVictim> SetUpAlexNet(std::uint64_t victim_seed) {
  Span setup("bench.setup", -1);
  nn::Network net = [&] {
    Span s("models.build");
    return models::MakeAlexNet(victim_seed);
  }();
  Span s("accel.setup");
  accel::AcceleratorConfig cfg;
  cfg.dataflow = accel::Dataflow::kWeightStationary;
  accel::Accelerator accel{cfg};
  accel::AddressMap map = accel.BuildMap(net);
  attack::RobustStructureConfig acfg;
  attack::StructureAttackConfig& a = acfg.attack;
  a.analysis.known_input_elems = 3LL * 227 * 227;
  a.search.known_input_width = 227;
  a.search.known_input_depth = 3;
  a.search.known_output_classes = 1000;
  a.search.macs_per_cycle = cfg.macs_per_cycle;
  a.search.bytes_per_cycle = cfg.bytes_per_cycle;
  a.search.schedule = accel.schedule_model();
  return std::unique_ptr<AlexNetVictim>(new AlexNetVictim{
      std::move(net), accel, std::move(map),
      std::make_unique<accel::SynthesisCache>(), std::move(acfg)});
}

RunStats RunAlexNetStructure(const Options& o) {
  constexpr int kSetups = 3;
  constexpr int kAcquisitions = 5;
  RunStats st;
  std::unique_ptr<AlexNetVictim> v;
  for (int i = 0; i < kSetups; ++i) {
    v.reset();
    const double t0 = Now();
    v = SetUpAlexNet(SeedFor(o, Stream::kVictim));
    st.setup_s.push_back(Now() - t0);
  }

  trace::Trace clean;
  std::vector<trace::Trace> acquisitions(kAcquisitions);
  std::size_t expect_candidates = 0;
  std::uint64_t expect_cycles = 0;
  double usable_sum = 0.0, slack_attacks = 0.0;
  long long slack_max = 0;
  std::size_t events = 0;

  // One attack: a fresh seeded input through the victim, K noisy
  // acquisitions, the robust structure attack; then its check.
  auto attack = [&](int i, const accel::Accelerator& accel,
                    accel::SynthesisCache* cache, double* latency) {
    const double t0 = Now();
    attack::RobustStructureResult res;
    accel::RunResult run;
    nn::Tensor input;
    {
      Span root("bench.attack", i);
      {
        Span s("bench.input");
        input = RandomInput(v->net.input_shape(),
                            SeedFor(o, Stream::kInput, i));
      }
      clean.Clear();
      {
        Span s("accel.run");
        run = accel.Run(v->net, input, &clean, &v->map, cache);
      }
      const sim::TraceNoiseModel noise(
          sim::ReferenceTraceNoise(SeedFor(o, Stream::kNoise, i)));
      for (int k = 0; k < kAcquisitions; ++k) {
        Span s("sim.noise");
        noise.ApplyNthTo(clean, static_cast<std::uint64_t>(k),
                         &acquisitions[static_cast<std::size_t>(k)]);
      }
      if (!o.trace) {
        res = attack::RunRobustStructureAttack(acquisitions, v->attack_cfg);
      } else {
        // RunRobustStructureAttack is, by its contract, AnalyzeAcquisition
        // over every trace in parallel followed by ConsensusSearch; split
        // here so each call gets its own span.
        std::vector<attack::AcquisitionAnalysis> analyses(kAcquisitions);
        const SpanContext ctx = CurrentContext();
        support::ParallelFor(0, kAcquisitions, 1,
                             [&](std::int64_t lo, std::int64_t hi) {
                               for (std::int64_t k = lo; k < hi; ++k) {
                                 Span s("structure.analyze", ctx);
                                 const auto ki = static_cast<std::size_t>(k);
                                 analyses[ki] = attack::AnalyzeAcquisition(
                                     acquisitions[ki], v->attack_cfg);
                               }
                             });
        Span s("structure.search");
        res = attack::ConsensusSearch(analyses, v->attack_cfg);
      }
    }
    *latency = Now() - t0;
    if (!IsCold(i)) {
      events = clean.size();
      usable_sum += static_cast<double>(res.usable) / kAcquisitions;
      slack_max = std::max(slack_max, res.slack_used);
      if (res.slack_used > 0) slack_attacks += 1.0;
    }
    if (o.trace) {
      Span s("nn.forward", -1);
      (void)v->net.Forward(input);
    }
    return ObsPaused([&] {
      if (expect_cycles == 0) expect_cycles = run.total_cycles;
      if (res.slack_used == 0 && expect_candidates == 0)
        expect_candidates = res.num_structures();
      bool ok = true;
      // An attack whose consensus healed only with size slack keeps the
      // truth but admits more candidates; slack-0 attacks must all agree.
      if ((res.slack_used == 0 &&
           res.num_structures() != expect_candidates) ||
          run.total_cycles != expect_cycles) {
        std::cerr << "attack " << i << ": " << res.num_structures()
                  << " candidates at slack " << res.slack_used << ", "
                  << run.total_cycles << " cycles; expected "
                  << expect_candidates << " at slack 0, " << expect_cycles
                  << " cycles\n";
        ok = false;
      }
      if (attack::RankTruth(res.search, kAlexNetTruth).rank == 0) {
        std::cerr << "attack " << i << ": true structure not a candidate\n";
        ok = false;
      }
      return ok;
    });
  };

  const std::uint64_t stage_hits0 = v->cache->stage_hits();
  const std::uint64_t stage_miss0 = v->cache->stage_misses();
  const std::uint64_t run_hits0 = v->cache->run_hits();
  const std::uint64_t run_miss0 = v->cache->run_misses();
  int next = 1;
  MeasureLoop(
      st, o,
      [&](int id) {
        Attempt(st, "cold attack", [&] {
          // A fresh accelerator and synthesis cache; the victim is kept.
          const accel::Accelerator fresh{v->accel.config()};
          accel::SynthesisCache fresh_cache;
          double lat = 0.0;
          const bool ok = attack(id, fresh, &fresh_cache, &lat);
          st.cold_s.push_back(lat);
          return ok;
        });
      },
      [&] {
        const int i = next++;
        double lat = 0.0;
        const double t0 = Now();
        Attempt(st, "attack " + std::to_string(i), [&] {
          return attack(i, v->accel, v->cache.get(), &lat);
        });
        if (lat == 0.0) lat = Now() - t0;  // the attack threw
        st.attack_s.push_back(lat);
        st.timed_s += lat;
        st.units += kAcquisitions;
      });
  if (!o.trace) return st;

  const double n = static_cast<double>(st.attack_s.size());
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
  };
  const std::uint64_t sh = v->cache->stage_hits() - stage_hits0;
  const std::uint64_t sm = v->cache->stage_misses() - stage_miss0;
  const std::uint64_t rh = v->cache->run_hits() - run_hits0;
  const std::uint64_t rm = v->cache->run_misses() - run_miss0;
  st.layer["accel.cache.stage_hit_ratio"] = ratio(sh, sm);
  st.layer["accel.cache.stage_lookups"] = static_cast<double>(sh + sm) / n;
  st.layer["accel.cache.run_hit_ratio"] = ratio(rh, rm);
  st.layer["accel.cache.run_lookups"] = static_cast<double>(rh + rm) / n;

  const std::vector<SpanRecord> spans = WarmSpans();
  const double run_s = Median(Durations(spans, "accel.run"));
  const double noise_s = Median(Durations(spans, "sim.noise"));
  st.layer["accel.run_s"] = run_s;
  st.layer["accel.events_per_s"] =
      run_s > 0.0 ? static_cast<double>(events) / run_s : 0.0;
  st.layer["sim.noise_s"] = noise_s;
  st.layer["sim.noise_events_per_s"] =
      noise_s > 0.0 ? static_cast<double>(events) / noise_s : 0.0;
  st.layer["structure.analyze_s"] =
      Median(Durations(spans, "structure.analyze"));
  st.layer["structure.search_s"] =
      Median(Durations(spans, "structure.search"));
  st.layer["structure.usable_ratio"] = usable_sum / n;
  st.layer["structure.slack_used"] = static_cast<double>(slack_max);
  st.layer["structure.slack_share"] = slack_attacks / n;
  st.layer["structure.candidates"] = static_cast<double>(expect_candidates);
  st.layer["trace.events_per_attack"] =
      static_cast<double>(events) * (1 + kAcquisitions);
  for (const char* c :
       {"coverage", "eq3_filter_quotient", "eq2_ofm_square", "conv_division",
        "coverage_tail", "canonical_padding"})
    st.layer[std::string("structure.pruned.") + c] =
        ObsCounter(std::string("attack.structure.solver.pruned.") + c, n);
  return st;
}

// --- conv1_weights_accel -----------------------------------------------------

constexpr int kConv1Filters = 8;
// Input width 35 (7x7 conv output, 3x3 pooled). At width 51 filter 1
// diverges through AcceleratorOracle; see README.md "Known defect".
constexpr int kConv1Width = 35;

attack::SparseConvOracle::StageSpec Conv1Geometry() {
  attack::SparseConvOracle::StageSpec spec;
  spec.in_depth = 3;
  spec.in_width = kConv1Width;
  spec.filter = 11;
  spec.stride = 4;
  spec.pool = nn::PoolKind::kMax;
  spec.pool_window = 3;
  spec.pool_stride = 2;
  spec.relu_before_pool = true;
  spec.has_threshold_knob = true;
  return spec;
}

struct FilterOutcome {
  attack::RecoveredFilter rec;
  double eff_bias_scale = 1.0;
  bool recovered = false;
  std::uint64_t queries = 0;  // every oracle query, bias search included
};

// Algorithm 2 for filter k as fig7_weight_recovery runs it: a negative bias
// leaks at threshold 0; a positive one is located with the threshold knob
// and the ratios are recovered just above it.
FilterOutcome RecoverOne(attack::ZeroCountOracle& orc, int k, float bias) {
  const attack::SparseConvOracle::StageSpec spec = Conv1Geometry();
  const attack::WeightAttackConfig cfg;
  FilterOutcome out;
  attack::WeightAttack base(orc, spec, cfg);
  if (bias > 0.0f) {
    std::optional<float> b_hat;
    {
      Span s("weights.find_bias");
      b_hat = base.FindBiasViaThreshold(k);
    }
    out.queries = orc.queries();
    if (!b_hat) return out;
    const float t_used = *b_hat * 1.5f + 0.05f;
    orc.SetActivationThreshold(t_used);
    attack::SparseConvOracle::StageSpec elevated = spec;
    elevated.relu_threshold = t_used;
    attack::WeightAttack elevated_attack(orc, elevated, cfg);
    {
      Span s("weights.recover");
      out.rec = elevated_attack.RecoverFilter(k);
    }
    orc.SetActivationThreshold(0.0f);
    out.eff_bias_scale = (static_cast<double>(*b_hat) - t_used) /
                         static_cast<double>(*b_hat);
  } else {
    Span s("weights.recover");
    out.rec = base.RecoverFilter(k);
  }
  out.recovered = true;
  out.queries = orc.queries();
  return out;
}

// What the traced run's timing decorator saw, merged from every clone
// destroyed while `warm` is set (cold attacks stay out of it).
struct QueryLog {
  std::mutex mu;
  bool warm = false;              // all fields guarded by mu
  std::vector<double> durations;
  double channels_read = 0.0;
  double channels_computed = 0.0;
  double repeats = 0.0;
};

// Timing decorator: forwards every call, times each query as an
// "accel.query" span, and logs what was asked, so the traced run reports
// query latency, the oracle's share of attack time, how much of each
// accelerator run the attack reads, and how often a query repeats an
// earlier one on the same oracle (the ceiling of its run-cache hits).
class TimedOracle : public attack::ZeroCountOracle {
 public:
  TimedOracle(std::unique_ptr<attack::ZeroCountOracle> inner, QueryLog* log,
              float threshold = 0.0f)
      : inner_(std::move(inner)), log_(log), threshold_(threshold) {}

  ~TimedOracle() override {
    const std::lock_guard<std::mutex> lock(log_->mu);
    if (!log_->warm) return;
    log_->durations.insert(log_->durations.end(), durations_.begin(),
                           durations_.end());
    log_->channels_read += channels_read_;
    log_->channels_computed += channels_computed_;
    log_->repeats += repeats_;
  }

  TimedOracle(const TimedOracle&) = delete;
  TimedOracle& operator=(const TimedOracle&) = delete;

  std::size_t ChannelNonZeros(const std::vector<attack::SparsePixel>& pixels,
                              int channel) override {
    return Timed(pixels, 1,
                 [&] { return inner_->ChannelNonZeros(pixels, channel); });
  }
  std::size_t TotalNonZeros(
      const std::vector<attack::SparsePixel>& pixels) override {
    return Timed(pixels, inner_->num_channels(),
                 [&] { return inner_->TotalNonZeros(pixels); });
  }
  int num_channels() const override { return inner_->num_channels(); }
  std::size_t channel_elems() const override {
    return inner_->channel_elems();
  }
  bool SetActivationThreshold(float threshold) override {
    threshold_ = threshold;
    return inner_->SetActivationThreshold(threshold);
  }
  std::unique_ptr<attack::ZeroCountOracle> Clone() const override {
    std::unique_ptr<attack::ZeroCountOracle> c = inner_->Clone();
    if (!c) return nullptr;
    return std::make_unique<TimedOracle>(std::move(c), log_, threshold_);
  }

 private:
  template <class F>
  std::size_t Timed(const std::vector<attack::SparsePixel>& pixels,
                    int channels_read, F&& query) {
    ++queries_;
    // The accelerator's run cache keys on the dense input and the
    // threshold; the pixel list plus threshold names the same thing.
    std::string key(reinterpret_cast<const char*>(&threshold_),
                    sizeof threshold_);
    key.append(reinterpret_cast<const char*>(pixels.data()),
               pixels.size() * sizeof(attack::SparsePixel));
    if (!seen_.insert(std::move(key)).second) ++repeats_;
    Span s("accel.query");
    const double t0 = Now();
    const std::size_t r = query();
    durations_.push_back(Now() - t0);
    channels_read_ += channels_read;
    channels_computed_ += inner_->num_channels();
    return r;
  }

  std::unique_ptr<attack::ZeroCountOracle> inner_;
  QueryLog* log_;
  float threshold_;
  std::set<std::string> seen_;
  std::vector<double> durations_;
  double channels_read_ = 0.0;
  double channels_computed_ = 0.0;
  double repeats_ = 0.0;
};

struct Conv1Victim {
  nn::Tensor weights;  // {8, 3, 11, 11}
  nn::Tensor bias;     // {8}
  nn::Network net;
  std::unique_ptr<attack::ZeroCountOracle> oracle;
};

std::unique_ptr<Conv1Victim> SetUpConv1(bool traced, QueryLog* log) {
  Span setup("bench.setup", -1);
  std::unique_ptr<Conv1Victim> v;
  {
    Span s("models.build");
    const models::CompressedConv1 all = models::MakeCompressedConv1Weights();
    nn::Tensor weights(nn::Shape{kConv1Filters, 3, 11, 11});
    nn::Tensor bias(nn::Shape{kConv1Filters});
    std::copy(all.weights.data(), all.weights.data() + weights.numel(),
              weights.data());
    std::copy(all.bias.data(), all.bias.data() + kConv1Filters, bias.data());
    models::ConvStageVictimSpec spec;
    spec.in_depth = 3;
    spec.in_width = kConv1Width;
    spec.out_depth = kConv1Filters;
    spec.filter = 11;
    spec.stride = 4;
    spec.pool = nn::PoolKind::kMax;
    spec.pool_window = 3;
    spec.pool_stride = 2;
    nn::Network net = models::MakeConvStageVictim(spec, weights, bias);
    v.reset(new Conv1Victim{std::move(weights), std::move(bias),
                            std::move(net), nullptr});
  }
  Span s("weights.oracle_setup");
  accel::AcceleratorConfig cfg;
  cfg.dataflow = accel::Dataflow::kWeightStationary;
  std::unique_ptr<attack::ZeroCountOracle> orc =
      std::make_unique<attack::AcceleratorOracle>(
          v->net, v->net.num_nodes() - 1, cfg);
  v->oracle = traced ? std::make_unique<TimedOracle>(std::move(orc), log)
                     : std::move(orc);
  return v;
}

RunStats RunConv1WeightsAccel(const Options& o) {
  RunStats st;
  QueryLog log;
  std::unique_ptr<Conv1Victim> v;
  const auto setups = [&] {
    for (int i = 0; i < kSetupsPerPoint; ++i) {
      v.reset();
      const double t0 = Now();
      v = SetUpConv1(o.trace, &log);
      st.setup_s.push_back(Now() - t0);
    }
  };
  setups();
  const attack::SparseConvOracle::StageSpec spec = Conv1Geometry();
  float max_err = 0.0f;
  std::uint64_t sweep_queries = 0;

  // Every ratio within 2^-10 of the truth, and the functional oracle
  // replays the filter with the same query count, zero and failure flags.
  // Its ratios agree to 2^-16 relative, not bit for bit: the accelerator
  // sums each convolution in another order, which moves a crossing by a
  // few float ulps (~1e-6 relative at this geometry).
  auto check = [&](int k, const FilterOutcome& out) {
    return ObsPaused([&] {
      const float b = v->bias.at(k);
      if (!out.recovered) {
        std::cerr << "filter " << k << ": bias search failed\n";
        return false;
      }
      bool ok = true;
      for (int c = 0; c < 3; ++c)
        for (int i = 0; i < 11; ++i)
          for (int j = 0; j < 11; ++j) {
            const auto id = static_cast<std::size_t>((c * 11 + i) * 11 + j);
            if (out.rec.failed[id]) {
              ok = false;
              continue;
            }
            const float truth = v->weights.at(k, c, i, j) / b;
            const float got = static_cast<float>(out.rec.ratio.at(c, i, j) *
                                                 out.eff_bias_scale);
            max_err = std::max(max_err, std::fabs(got - truth));
          }
      if (max_err >= 1.0f / 1024.0f) ok = false;
      attack::SparseConvOracle ref(spec, v->weights, v->bias);
      const FilterOutcome replay = RecoverOne(ref, k, b);
      const attack::RecoveredFilter& a = out.rec;
      const attack::RecoveredFilter& r = replay.rec;
      bool same = replay.recovered && out.queries == replay.queries &&
                  a.is_zero == r.is_zero && a.failed == r.failed &&
                  a.ratio.numel() == r.ratio.numel();
      for (std::size_t q = 0; same && q < a.ratio.numel(); ++q) {
        const double ref_ratio = r.ratio[q];
        same = std::fabs(static_cast<double>(a.ratio[q]) - ref_ratio) <=
               std::ldexp(std::max(1.0, std::fabs(ref_ratio)), -16);
      }
      if (!same) {
        std::cerr << "filter " << k << ": accelerator oracle took "
                  << out.queries << " queries, functional replay "
                  << replay.queries << "; recovered filters differ\n";
        ok = false;
      }
      if (!ok) std::cerr << "filter " << k << " failed its check\n";
      return ok;
    });
  };

  int sweep = 0;
  MeasureLoop(
      st, o,
      [&](int id) {
        // Cold: filter 0 alone, on a fresh clone of the set-up oracle.
        const auto set_warm = [&](bool warm) {
          const std::lock_guard<std::mutex> lock(log.mu);
          log.warm = warm;
        };
        set_warm(false);
        Attempt(st, "cold attack", [&] {
          const double t0 = Now();
          FilterOutcome out;
          {
            Span root("bench.attack", id);
            const std::unique_ptr<attack::ZeroCountOracle> orc =
                v->oracle->Clone();
            out = RecoverOne(*orc, 0, v->bias.at(0));
          }
          st.cold_s.push_back(Now() - t0);
          return check(0, out);
        });
        set_warm(true);
      },
      [&] {
        // One sweep: every filter on its own fresh clone, fanned out over
        // the pool. Each filter is one warm attack.
        std::vector<FilterOutcome> outs(kConv1Filters);
        std::vector<double> lat(kConv1Filters, 0.0);
        std::vector<std::string> errors(kConv1Filters);
        const int base = 1 + sweep * kConv1Filters;
        const double t0 = Now();
        support::ParallelFor(0, kConv1Filters, 1, [&](std::int64_t lo,
                                                      std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k) {
            const auto ki = static_cast<std::size_t>(k);
            const int filter = static_cast<int>(k);
            const double a0 = Now();
            try {
              Span root("bench.attack", base + filter);
              const std::unique_ptr<attack::ZeroCountOracle> orc =
                  v->oracle->Clone();
              outs[ki] = RecoverOne(*orc, filter, v->bias.at(filter));
            } catch (const std::exception& e) {
              errors[ki] = e.what();
            }
            lat[ki] = Now() - a0;
          }
        });
        st.timed_s += Now() - t0;
        sweep_queries = 0;
        for (int k = 0; k < kConv1Filters; ++k) {
          const auto ki = static_cast<std::size_t>(k);
          Attempt(st, "filter " + std::to_string(k), [&] {
            if (!errors[ki].empty()) throw std::runtime_error(errors[ki]);
            return check(k, outs[ki]);
          });
          st.attack_s.push_back(lat[ki]);
          sweep_queries += outs[ki].queries;
        }
        st.units += static_cast<double>(sweep_queries);
        if (o.trace) {
          Span s("nn.forward", -1);
          (void)v->net.Forward(RandomInput(
              v->net.input_shape(), SeedFor(o, Stream::kInput, sweep)));
        }
        ++sweep;
      },
      setups);
  if (!o.trace) return st;

  const double n = static_cast<double>(st.attack_s.size());
  double attack_time = 0.0;
  for (double d : st.attack_s) attack_time += d;
  const std::lock_guard<std::mutex> lock(log.mu);
  double query_time = 0.0;
  for (double d : log.durations) query_time += d;
  const double nq = static_cast<double>(log.durations.size());
  const double query_p50 = Median(log.durations);
  const double events = ObsCounter("accel.dram.read_events", 1.0) +
                        ObsCounter("accel.dram.write_events", 1.0);
  st.layer["accel.run_s"] = query_p50;
  st.layer["accel.events_per_s"] =
      query_time > 0.0 ? events / query_time : 0.0;
  st.layer["weights.query_p50_s"] = query_p50;
  st.layer["weights.query_tail_s"] = TailOf(log.durations).value;
  st.layer["weights.queries"] = static_cast<double>(sweep_queries);
  st.layer["weights.queries_per_filter"] = nq / n;
  st.layer["weights.oracle_share"] =
      attack_time > 0.0 ? query_time / attack_time : 0.0;
  st.layer["weights.bisect_iters"] =
      ObsCounter("attack.weights.bisect_iters", n);
  st.layer["weights.channels_used_per_run"] =
      log.channels_computed > 0.0 ? log.channels_read / log.channels_computed
                                  : 0.0;
  st.layer["weights.query_repeat_ratio"] = nq > 0.0 ? log.repeats / nq : 0.0;
  st.layer["weights.max_ratio_err"] = max_err;
  return st;
}

// --- convnet_campaign_os -----------------------------------------------------

campaign::CampaignConfig CampaignFor(const Options& o, int i,
                                     const std::filesystem::path& dir) {
  campaign::CampaignConfig cfg = campaign::MakeVictimCampaign(
      "convnet", SeedFor(o, Stream::kCampaign, i));
  cfg.dataflow = accel::Dataflow::kOutputStationary;
  cfg.acquisitions = 8;
  cfg.checkpoint_path = (dir / "campaign.json").string();
  cfg.persist_traces = true;
  return cfg;
}

// Every campaign attack runs on fresh state (a new directory, a new
// RunCampaign), so its cold attacks differ from warm ones only in timing.
RunStats RunConvNetCampaign(const Options& o) {
  RunStats st;
  const std::filesystem::path scratch =
      std::filesystem::path(o.out_dir) / "campaign_scratch";
  std::filesystem::remove_all(scratch);
  // The campaign builds its victim inside RunCampaign; set-up is the
  // adversary's config plus one victim build for the reference forward.
  std::unique_ptr<nn::Network> ref;
  const auto setups = [&] {
    for (int i = 0; i < kSetupsPerPoint; ++i) {
      ref.reset();
      const double t0 = Now();
      {
        Span setup("bench.setup", -1);
        (void)CampaignFor(o, 0, scratch);
        Span s("models.build");
        ref = std::make_unique<nn::Network>(
            models::MakeConvNet(SeedFor(o, Stream::kCampaign)));
      }
      st.setup_s.push_back(Now() - t0);
    }
  };
  setups();

  double persisted_bytes = 0.0, persisted_events = 0.0;
  std::size_t candidates = 0;
  double usable_sum = 0.0;
  long long slack_max = 0;

  auto attack = [&](int i, double* latency) {
    const std::filesystem::path dir =
        scratch / ("attack_" + std::to_string(i));
    std::filesystem::create_directories(dir);
    const campaign::CampaignConfig cfg = CampaignFor(o, i, dir);
    campaign::CampaignResult fresh, resumed;
    const double t0 = Now();
    {
      Span root("bench.attack", i);
      {
        Span s("campaign.fresh");
        fresh = campaign::RunCampaign(cfg);
      }
      Span s("campaign.resume");
      resumed = campaign::RunCampaign(cfg);
    }
    *latency = Now() - t0;
    const bool warm = !IsCold(i);
    if (warm) {
      st.units +=
          static_cast<double>(fresh.units.size() + resumed.units.size());
      candidates = fresh.num_structures;
      usable_sum += static_cast<double>(fresh.usable) / cfg.acquisitions;
      slack_max = std::max(slack_max, fresh.slack_used);
    }
    const bool ok = ObsPaused([&] {
      const auto n = static_cast<int>(fresh.units.size());
      const bool same = resumed.structure_csv == fresh.structure_csv &&
                        resumed.filter_csv == fresh.filter_csv;
      const bool good = fresh.complete && fresh.done == n &&
                        resumed.complete && resumed.from_checkpoint == n &&
                        same;
      if (!good)
        std::cerr << "campaign " << i << ": fresh " << fresh.done << "/" << n
                  << " done, resume " << resumed.from_checkpoint
                  << " from checkpoint, artifacts "
                  << (same ? "identical" : "differ") << "\n";
      if (o.trace && warm) {
        const std::filesystem::path traces = cfg.checkpoint_path + ".traces";
        for (const auto& e : std::filesystem::directory_iterator(traces)) {
          if (e.path().extension() != ".sct") continue;
          persisted_bytes += static_cast<double>(e.file_size());
          persisted_events += static_cast<double>(
              store::ReadTraceFile(e.path().string()).size());
        }
        Span s("nn.forward", -1);
        (void)ref->Forward(
            RandomInput(ref->input_shape(), SeedFor(o, Stream::kInput, i)));
      }
      return good;
    });
    std::filesystem::remove_all(dir);
    return ok;
  };

  MeasureAttacks(st, o, attack, setups);
  std::filesystem::remove_all(scratch);
  if (!o.trace) return st;

  const double n = static_cast<double>(st.attack_s.size());
  const std::vector<SpanRecord> spans = WarmSpans();
  st.layer["campaign.fresh_s"] = Median(Durations(spans, "campaign.fresh"));
  st.layer["campaign.resume_s"] = Median(Durations(spans, "campaign.resume"));
  st.layer["campaign.unit_ns"] = ObsHistMean("campaign.unit_ns");
  st.layer["campaign.checkpoint.saves"] =
      ObsCounter("campaign.checkpoint.saves", n);
  st.layer["store.persisted_bytes"] = persisted_bytes / n;
  st.layer["store.bytes_per_event"] =
      persisted_events > 0.0 ? persisted_bytes / persisted_events : 0.0;
  st.layer["store.encode_ns"] = ObsHistMean("store.encode_ns");
  st.layer["store.decode_ns"] = ObsHistMean("store.decode_ns");
  st.layer["structure.candidates"] = static_cast<double>(candidates);
  st.layer["structure.usable_ratio"] = usable_sum / n;
  st.layer["structure.slack_used"] = static_cast<double>(slack_max);
  return st;
}

// --- lenet_defense_matrix ----------------------------------------------------

// The headline claims defense_matrix checks in its exit code.
bool HeadlineClaimsHold(const defense::EvalMatrix& m) {
  bool none_unique_top = false, shaping_seen = false,
       shaping_unique_top = false, overheads = true;
  int none_filters = -1, none_total = 0, rle_filters = -1, rle_total = 0;
  for (const defense::EvalCell& c : m.cells) {
    if (c.victim == "lenet" && c.attack == "structure") {
      if (c.kind == defense::DefenseKind::kNone)
        none_unique_top = c.truth_unique_top;
      if (c.kind == defense::DefenseKind::kShaping) {
        shaping_seen = true;
        shaping_unique_top = shaping_unique_top || c.truth_unique_top;
      }
    }
    if (c.attack == "weight") {
      if (c.kind == defense::DefenseKind::kNone) {
        none_filters = c.filters_recovered;
        none_total = c.filters_total;
      }
      if (c.kind == defense::DefenseKind::kRlePadding) {
        rle_filters = c.filters_recovered;
        rle_total = c.filters_total;
      }
    }
    overheads = overheads && c.traffic_overhead > 0.0 &&
                c.event_overhead > 0.0 && c.latency_overhead > 0.0;
  }
  const bool ok = none_unique_top && none_total > 0 &&
                  none_filters == none_total && shaping_seen &&
                  !shaping_unique_top && rle_filters == 0 && rle_total > 0 &&
                  overheads;
  if (!ok)
    std::cerr << "defense matrix headline claims failed: undefended unique "
              << none_unique_top << ", filters " << none_filters << "/"
              << none_total << ", shaping unique " << shaping_unique_top
              << ", rle filters " << rle_filters << "/" << rle_total
              << ", overheads " << overheads << "\n";
  return ok;
}

// Like the campaign, every matrix runs on fresh state.
RunStats RunLeNetDefenseMatrix(const Options& o) {
  RunStats st;
  // RunDefenseMatrix builds its victims itself; set-up is the LeNet build
  // plus one undefended capture, the base for trace.events_per_attack.
  std::unique_ptr<nn::Network> net;
  std::size_t base_events = 0;
  const auto setups = [&] {
    for (int i = 0; i < kSetupsPerPoint; ++i) {
      net.reset();
      const double t0 = Now();
      {
        Span setup("bench.setup", -1);
        {
          Span s("models.build");
          net = std::make_unique<nn::Network>(models::MakeLeNet(1));
        }
        Span s("accel.setup");
        accel::AcceleratorConfig cfg;
        cfg.dataflow = accel::Dataflow::kWeightStationary;
        trace::Trace tr;
        accel::Accelerator{cfg}.Run(
            *net,
            RandomInput(net->input_shape(), SeedFor(o, Stream::kInput)),
            &tr);
        base_events = tr.size();
      }
      st.setup_s.push_back(Now() - t0);
    }
  };
  setups();

  double cells = 0.0, traffic_max = 0.0, events_sum = 0.0;
  std::size_t candidates = 0;

  auto attack = [&](int i, double* latency) {
    defense::EvalConfig cfg;
    cfg.convnet = false;
    cfg.input_seed = SeedFor(o, Stream::kInput, i);
    cfg.defense_seed = SeedFor(o, Stream::kDefense, i);
    defense::EvalMatrix m;
    const double t0 = Now();
    {
      Span root("bench.attack", i);
      Span s("defense.matrix");
      m = defense::RunDefenseMatrix(cfg);
    }
    *latency = Now() - t0;
    if (!IsCold(i)) {
      st.units += static_cast<double>(m.cells.size());
      cells += static_cast<double>(m.cells.size());
      double structure_cells = 0.0, events = 0.0;
      for (const defense::EvalCell& c : m.cells) {
        traffic_max = std::max(traffic_max, c.traffic_overhead);
        if (c.attack == "weight") continue;
        const double k =
            c.attack == "structure" ? 1.0 : cfg.robust_acquisitions;
        events += c.event_overhead * static_cast<double>(base_events) * k;
        structure_cells += 1.0;
        if (c.attack == "structure" && c.kind == defense::DefenseKind::kNone)
          candidates = c.candidates;
      }
      events_sum += structure_cells > 0.0 ? events / structure_cells : 0.0;
    }
    if (o.trace) {
      Span s("nn.forward", -1);
      (void)net->Forward(RandomInput(net->input_shape(), cfg.input_seed));
    }
    return ObsPaused([&] { return HeadlineClaimsHold(m); });
  };

  MeasureAttacks(st, o, attack, setups);
  if (!o.trace) return st;

  const double n = static_cast<double>(st.attack_s.size());
  st.layer["defense.cell_s"] = cells > 0.0 ? st.timed_s / cells : 0.0;
  st.layer["defense.traffic_ratio"] = traffic_max;
  st.layer["trace.events_per_attack"] = events_sum / n;
  st.layer["structure.candidates"] = static_cast<double>(candidates);
  return st;
}

// --- reporting -----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"cold_attack_s", "s"}, {"attack_p50_s", "s"},
    {"attack_tail_s", "s"}, {"units_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

// Every workload reports every layer metric; a layer the workload does not
// reach reads 0 (BENCHMARK.json "per_layer" lists the same names).
const MetricSpec kPerLayer[] = {
    {"models.build_s", "s"},
    {"nn.forward_s", "s"},
    {"accel.run_s", "s"},
    {"accel.runs", "count"},
    {"accel.events", "count"},
    {"accel.sim_cycles", "cycles"},
    {"accel.events_per_s", "1/s"},
    {"accel.cache.stage_hit_ratio", "ratio"},
    {"accel.cache.stage_lookups", "count"},
    {"accel.cache.run_hit_ratio", "ratio"},
    {"accel.cache.run_lookups", "count"},
    {"sim.noise_s", "s"},
    {"sim.noise_events_per_s", "1/s"},
    {"structure.analyze_s", "s"},
    {"structure.search_s", "s"},
    {"structure.usable_ratio", "ratio"},
    {"structure.slack_used", "count"},
    {"structure.slack_share", "ratio"},
    {"structure.candidates", "count"},
    {"structure.pruned.coverage", "count"},
    {"structure.pruned.eq3_filter_quotient", "count"},
    {"structure.pruned.eq2_ofm_square", "count"},
    {"structure.pruned.conv_division", "count"},
    {"structure.pruned.coverage_tail", "count"},
    {"structure.pruned.canonical_padding", "count"},
    {"weights.query_p50_s", "s"},
    {"weights.query_tail_s", "s"},
    {"weights.queries", "count"},
    {"weights.queries_per_filter", "count"},
    {"weights.oracle_share", "ratio"},
    {"weights.bisect_iters", "count"},
    {"weights.channels_used_per_run", "ratio"},
    {"weights.query_repeat_ratio", "ratio"},
    {"weights.max_ratio_err", "ratio"},
    {"campaign.fresh_s", "s"},
    {"campaign.resume_s", "s"},
    {"campaign.unit_ns", "ns"},
    {"campaign.checkpoint.saves", "count"},
    {"store.persisted_bytes", "bytes"},
    {"store.bytes_per_event", "bytes"},
    {"store.encode_ns", "ns"},
    {"store.decode_ns", "ns"},
    {"defense.cell_s", "s"},
    {"defense.traffic_ratio", "ratio"},
    {"trace.events_per_attack", "count"},
    {"pool.worker_wait_ns", "ns"},
    {"pool.chunks_run", "count"},
    {"self.bench_s", "s"},
    {"self.accel_s", "s"},
    {"self.sim_s", "s"},
    {"self.structure_s", "s"},
    {"self.weights_s", "s"},
    {"self.campaign_s", "s"},
    {"self.defense_s", "s"},
    {"trace.child_coverage", "ratio"},
    {"trace.attack_p50_s", "s"},
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Main(const Options& o) {
  if (o.trace) {
    EnableTracing();
    obs::SetEnabled(true);
  }
  RunStats st;
  if (o.workload == "alexnet_structure") {
    st = RunAlexNetStructure(o);
  } else if (o.workload == "conv1_weights_accel") {
    st = RunConv1WeightsAccel(o);
  } else if (o.workload == "convnet_campaign_os") {
    st = RunConvNetCampaign(o);
  } else if (o.workload == "lenet_defense_matrix") {
    st = RunLeNetDefenseMatrix(o);
  } else {
    std::cerr << "unknown workload '" << o.workload << "'\n";
    return 2;
  }

  const Tail tail = TailOf(st.attack_s);
  std::map<std::string, double> e2e{
      {"setup_s", Median(st.setup_s)},
      {"cold_attack_s", Median(st.cold_s)},
      {"attack_p50_s", Median(st.attack_s)},
      {"attack_tail_s", tail.value},
      {"units_per_s", st.timed_s > 0.0 ? st.units / st.timed_s : 0.0},
      {"peak_rss_mb", PeakRssMb()},
  };
  std::ostringstream human;
  human << "workload " << o.workload << ", seed " << o.seed << ", threads "
        << support::ThreadPool::GlobalThreads() << ", "
        << (o.trace ? "traced" : "untraced") << "\n"
        << "set-ups " << st.setup_s.size() << ", cold attacks "
        << st.cold_s.size() << ", warm attacks " << st.attack_s.size()
        << " in " << st.timed_s << " s, tail = p" << tail.percentile
        << " of " << tail.samples << " samples\n";

  const MetricSpec* specs = o.trace ? kPerLayer : kEndToEnd;
  const std::size_t nspecs = o.trace ? std::size(kPerLayer)
                                     : std::size(kEndToEnd);
  std::map<std::string, double> values = e2e;
  if (o.trace) {
    CommonLayerMetrics(st);
    // One timeline per workload, replaced by each traced run: a weight
    // attack sweep records ~10^5 query spans (tens of MB).
    WriteChromeTrace(
        (std::filesystem::path(o.out_dir) / ("spans-" + o.workload + ".json"))
            .string(),
        Spans());
    const LayerTimes lt = AccountLayers(WarmSpans());
    const double n = lt.attacks > 0 ? lt.attacks : 1.0;
    human << "self time per warm attack (s):";
    for (const auto& [layer, s] : lt.self_s) {
      st.layer["self." + layer + "_s"] = s / n;
      human << " " << layer << " " << s / n;
    }
    human << "\nchild spans cover " << 100.0 * lt.child_coverage
          << "% of an attack's wall time\n";
    st.layer["trace.child_coverage"] = lt.child_coverage;
    st.layer["trace.attack_p50_s"] = e2e["attack_p50_s"];
    values = st.layer;
  }

  std::ostringstream json;
  json << "{\"correct\": " << (st.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << st.attempted << ", \"failed\": " << st.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < nspecs; ++i) {
    const auto it = values.find(specs[i].name);
    json << (i ? ", " : "") << "\"" << specs[i].name << "\": {\"value\": "
         << Num(it == values.end() ? 0.0 : it->second) << ", \"unit\": \""
         << specs[i].unit << "\"}";
  }
  json << "}}";

  // The report keeps what the result line has no room for.
  std::ofstream report(std::filesystem::path(o.out_dir) /
                       ("report-" + o.workload + "-seed" +
                        std::to_string(o.seed) + "-trace" +
                        (o.trace ? "1" : "0") + ".json"));
  report << "{\"result\": " << json.str() << ", \"tail_percentile\": "
         << Num(tail.percentile) << ", \"tail_samples\": " << tail.samples
         << ", \"attack_samples_s\": [";
  for (std::size_t i = 0; i < st.attack_s.size(); ++i)
    report << (i ? ", " : "") << Num(st.attack_s[i]);
  report << "], \"cold_samples_s\": [";
  for (std::size_t i = 0; i < st.cold_s.size(); ++i)
    report << (i ? ", " : "") << Num(st.cold_s[i]);
  report << "], \"end_to_end\": {";
  bool first = true;
  for (const auto& [k, val] : e2e) {
    report << (first ? "" : ", ") << "\"" << k << "\": " << Num(val);
    first = false;
  }
  report << "}}\n";

  std::cout << human.str() << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(val);
    } else if (flag == "--trace") {
      o.trace = val == "1";
    } else if (flag == "--out") {
      o.out_dir = val;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || o.seconds <= 0.0) {
    std::cerr << "usage: attack_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n";
    return 2;
  }
  try {
    return e2ebench::Main(o);
  } catch (const std::exception& e) {
    std::cerr << "attack_bench: " << e.what() << "\n";
    return 1;
  }
}
