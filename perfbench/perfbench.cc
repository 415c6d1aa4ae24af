// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload cold_query|grow_budgeted|serve_warm
//                    --seed N --seconds S --trace 0|1
//                    --cli PATH_TO_hpl_cli --work DIR [--trace-dir DIR]
//                    [--dump N]
//
// One process measures one workload as a closed loop with one client.  It
// calls the library from outside, through its public API (SpaceBuilder,
// KnowledgeEvaluator, Formula::Parse, the snapshot Save/Load functions),
// and drives `hpl_cli serve` over its newline-delimited JSON pipe.  The
// seed drives only the formula streams; the spaces are fixed inputs:
//
//   cold_query     random(n=6,m=6,seed=42) capped at depth 10 (15,131
//                  classes); an op is a round of 8 formulas, each parsed
//                  and answered by its own fresh evaluator; a run cycles
//                  through 100 seeded rounds.
//   grow_budgeted  the same system capped at depth 8 (4,940 classes),
//                  1 enumeration thread, 4,096-row segments under a 512 KiB
//                  residency budget; an op loads the builder snapshot,
//                  warms a standing set of 4 formulas (one of 4 seeded
//                  sets, in turn), deepens 2 levels to 15,131 classes,
//                  refreshes, re-asks, and saves the snapshot.
//   serve_warm     `hpl_cli serve tracker:8` (141,745 classes) from a
//                  snapshot; an op is one request from a seeded stream of
//                  fresh checks, repeats and fused batches of 8, replayed
//                  by every session.
//
// Every verdict is checked against satisfying-set hashes computed after
// the timed loop by the lazy interpreter (compiled_kernels = false).  The
// last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics with --trace 0, the
// per-layer metrics it measured with --trace 1.  The end-to-end times are
// the fastest repetitions of identical work, scaled by a calibration
// sample timed through the run (see HostSpeed).  A traced run times each
// distinct op in every other repetition with spans around each public
// call (the others run untraced, which gives the tracing overhead) and
// writes the spans to --trace-dir.
//
// --dump N prints the first N ops of the seeded stream with their
// reference hashes and the class counts, untimed (determinism tests).
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/formula.h"
#include "core/knowledge.h"
#include "core/predicate.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "core/space.h"
#include "protocols/tracker.h"

extern char** environ;

namespace perfbench {
namespace {

using hpl::ComputationSpace;
using hpl::EnumerationLimits;
using hpl::Formula;
using hpl::FormulaKind;
using hpl::FormulaPtr;
using hpl::KnowledgeEvaluator;
using hpl::KnowledgeOptions;
using hpl::Predicate;
using hpl::SpaceBuilder;

// --- fixed inputs -----------------------------------------------------------

constexpr std::size_t kCappedClasses = 15'131;    // random(6,6,42), depth 10
constexpr std::size_t kTrackerClasses = 141'745;  // tracker:8, depth 34
constexpr int kCappedDepth = 10;
constexpr int kGrowFromDepth = 8;
constexpr std::size_t kGrowFromClasses = 4'940;   // the same, depth 8
constexpr int kDeepenLevels = kCappedDepth - kGrowFromDepth;
constexpr int kTrackerFlips = 8;
constexpr int kTrackerDepth = 4 * kTrackerFlips + 2;  // hpl_cli's cap
constexpr unsigned kGrowSegmentShift = 12;
constexpr std::uint64_t kGrowBudgetBytes = 512u << 10;
// Thread counts are explicit (0 would mean "all cores") and at most 2.
// grow_budgeted deepens at 1 thread: at 2 under its spill budget the op
// was slower on the 4-vCPU host and its times moved twice as much.
constexpr int kBuildThreads = 1;
constexpr int kGrowThreads = 1;
constexpr int kKnowledgeThreads = 1;
constexpr int kMaxThreads = 2;
static_assert(kBuildThreads <= kMaxThreads && kGrowThreads <= kMaxThreads &&
              kKnowledgeThreads <= kMaxThreads);

// setup_s is the fastest of this many set-ups, spread evenly over the run
// (serve_warm instead times the spawn of each of its sessions).
constexpr int kColdSetups = 30;
constexpr int kGrowSetups = 30;
// Each run cycles through a fixed, seeded set of distinct ops, so every
// op is repeated many times across the run: cold_query's rounds, the
// standing formula sets of grow_budgeted, and the request positions of a
// serve_warm session.
constexpr int kColdRounds = 100;
constexpr int kGrowStandingSets = 4;
constexpr int kFormulasPerRound = 8;
constexpr int kBatchSize = 8;
constexpr int kServePings = 50;

// Warm-up ops run before the clock starts and are excluded from timing.
constexpr int kColdWarmupOps = 1;
constexpr int kGrowWarmupOps = 1;
constexpr int kSessionWarmup = 50;      // untimed requests per serve session
constexpr int kSessionRequests = 200;   // timed requests per serve session

// --- small utilities --------------------------------------------------------

using Clock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// splitmix64: a tiny, fully specified generator, so a seed names the same
// stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<std::uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t salt) {
  Rng mix(seed * 0x2545f4914f6cdd1dull + salt);
  return mix.Next();
}

// FNV-1a over the satisfying class ids, 8 little-endian bytes each: the
// hash `hpl_cli check` prints as "satisfying-hash:" and serve returns.
std::string SatisfyingHash(const std::vector<std::size_t>& sat) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t id : sat) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(id) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

// Restarts this process's peak RSS (VmHWM) from its current RSS, so that
// the reference computed before a timed loop is left out of the peak.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

// Peak RSS (VmHWM) of this process since the last ResetPeakRss, less the
// calibration buffers (HostSpeed).
double PeakRssMbSelf(double calibration_mb) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0 - calibration_mb;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  return buffer;
}

// --- tracing ----------------------------------------------------------------

// Spans kept in memory and written out at exit: name, start, end, parent
// span and op id (-1 for set-up).  Counts are recorded at the same
// boundaries and attach to the innermost open span.  Disabled, a Scope
// costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t op = -1;
  };
  struct Count {
    int span = -1;
    std::int64_t op = -1;
    std::string name;
    double value = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled_) index_ = tracer_.Open(name);
    }
    ~Scope() {
      if (index_ >= 0) tracer_.Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void Enable(bool on, std::int64_t op) {
    enabled_ = on;
    op_ = op;
  }
  bool enabled() const { return enabled_; }

  template <typename Number>
  void Record(const char* name, Number value) {
    if (enabled_)
      counts_.push_back({current_, op_, name, static_cast<double>(value)});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

  // Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    return out;
  }

  double MedianMs(const std::string& name) const {
    return Median(DurationsMs(name));
  }

  // Per traced op, the sum of the counts called `name`.
  std::vector<double> PerOpSums(const std::string& name) const {
    std::map<std::int64_t, double> sums;
    for (const Count& c : counts_)
      if (c.name == name) sums[c.op] += c.value;
    std::vector<double> out;
    for (const auto& [op, sum] : sums) out.push_back(sum);
    return out;
  }

  double MedianPerOp(const std::string& name) const {
    return Median(PerOpSums(name));
  }

  // Self time per layer (the span-name prefix before the first '.'),
  // summed over the spans of ops (op >= 0): a span's duration minus the
  // part its child spans cover.
  std::map<std::string, double> SelfMsByLayer() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.op < 0) continue;
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out[layer] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  void WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}";
    }
    out << "],\n\"counts\":[";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const Count& c = counts_[i];
      out << (i ? ",\n" : "\n") << "{\"span\":" << c.span << ",\"op\":"
          << c.op << ",\"name\":\"" << c.name
          << "\",\"value\":" << JsonNumber(c.value) << "}";
    }
    out << "]}\n";
  }

 private:
  int Open(const char* name) {
    spans_.push_back({name, NowNs(), 0, current_, op_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void Close(int index) {
    spans_[index].end_ns = NowNs();
    current_ = spans_[index].parent;
  }

  bool enabled_ = false;
  std::int64_t op_ = -1;
  int current_ = -1;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

// --- host speed -------------------------------------------------------------

// The benchmark shares its host, and the host's speed for this code drifts
// with the neighbours' load: over minutes, memory-bound work slows by 20%
// and more while integer arithmetic stays within a few percent.  So every
// run also times a fixed calibration sample between ops, outside the op
// clock.  A sample runs four kernels that use no library code: an integer
// multiply chain, pointer chases around a 1 MiB and an 8 MiB random
// cycle, and a sequential sum over 16 MiB.  The end-to-end times, which
// are fastest repetitions, are scaled by kReferenceCalibrationMs / (the
// run's 10th-percentile sample), i.e. to a host on which a sample takes
// kReferenceCalibrationMs in its quiet stretches.
constexpr double kReferenceCalibrationMs = 12.0;
constexpr std::int64_t kCalibrationIntervalNs = 200'000'000;

class HostSpeed {
 public:
  HostSpeed()
      : l2_chain_(Cycle((std::size_t{1} << 20) / sizeof(std::uint32_t))),
        l3_chain_(Cycle((std::size_t{8} << 20) / sizeof(std::uint32_t))),
        scan_((std::size_t{16} << 20) / sizeof(std::uint64_t), 1) {}

  // Memory the calibration holds for the whole run, left out of the
  // workloads' peak RSS.
  double BufferMb() const {
    return static_cast<double>((l2_chain_.size() + l3_chain_.size()) *
                                   sizeof(std::uint32_t) +
                               scan_.size() * sizeof(std::uint64_t)) /
           (1024.0 * 1024.0);
  }

  // Takes a sample when kCalibrationIntervalNs have passed since the last.
  void MaybeSample() {
    if (NowNs() - last_ns_ < kCalibrationIntervalNs) return;
    const std::int64_t t0 = NowNs();
    std::uint64_t x = 1;
    for (int i = 0; i < 1'000'000; ++i)
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    x += Walk(l2_chain_, 100'000) + Walk(l3_chain_, 25'000);
    for (std::uint64_t v : scan_) x += v;
    last_ns_ = NowNs();
    sink_ = sink_ + x;
    samples_ms_.push_back(static_cast<double>(last_ns_ - t0) / 1e6);
  }

  double QuietMs() const { return Percentile(samples_ms_, 0.1); }
  double MedianMs() const { return Median(samples_ms_); }
  std::size_t samples() const { return samples_ms_.size(); }

  // Multiplies a time measured in this run to the reference host.
  double Scale() const {
    const double quiet = QuietMs();
    return quiet > 0 ? kReferenceCalibrationMs / quiet : 1.0;
  }

 private:
  // A random single cycle over n slots (Sattolo's shuffle), in place.
  static std::vector<std::uint32_t> Cycle(std::size_t n) {
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = static_cast<std::uint32_t>(i);
    Rng rng(0x5eed);
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(next[i], next[rng.Next() % i]);
    return next;
  }
  static std::uint32_t Walk(const std::vector<std::uint32_t>& next,
                            int steps) {
    std::uint32_t at = 0;
    for (int i = 0; i < steps; ++i) at = next[at];
    return at;
  }

  std::vector<std::uint32_t> l2_chain_;
  std::vector<std::uint32_t> l3_chain_;
  std::vector<std::uint64_t> scan_;
  std::vector<double> samples_ms_;
  std::int64_t last_ns_ = 0;
  volatile std::uint64_t sink_ = 0;
};

HostSpeed& Host() {
  static HostSpeed host;
  return host;
}

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// One timed op of the closed loop.
struct OpSample {
  double ms = 0;
  bool traced = false;
  bool ok = true;  // false: threw or answered "ok":false
};

// The timed ops of one run, and the wall time they took.
struct LoopResult {
  std::vector<OpSample> samples;
  double wall_s = 0;
};

// Runs `op(k)` back to back for `seconds`, at least once (closed loop,
// one client).
// `between(k)`, when given, does untimed work before op k (a set-up
// sample, a session restart); its time is left out of wall_s.  With
// tracing on, the ops for which `traced(k)` holds get spans, so traced and
// untraced latencies come from the same run.
LoopResult RunClosedLoop(Tracer& tracer, bool trace, double seconds,
                         const std::function<bool(std::int64_t)>& traced,
                         const std::function<void(std::int64_t)>& between,
                         const std::function<bool(std::int64_t)>& op) {
  LoopResult out;
  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t untimed_ns = 0;
  for (std::int64_t k = 0; k == 0 || NowNs() < deadline; ++k) {
    {
      const std::int64_t t0 = NowNs();
      Host().MaybeSample();
      if (between) between(k);
      untimed_ns += NowNs() - t0;
    }
    OpSample sample;
    sample.traced = trace && traced(k);
    tracer.Enable(sample.traced, k);
    const std::int64_t t0 = NowNs();
    try {
      sample.ok = op(k);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "op %lld failed: %s\n", static_cast<long long>(k),
                   error.what());
      sample.ok = false;
    }
    sample.ms = static_cast<double>(NowNs() - t0) / 1e6;
    tracer.Enable(false, -1);
    out.samples.push_back(sample);
  }
  out.wall_s = static_cast<double>(NowNs() - start - untimed_ns) / 1e9;
  return out;
}

// Times `setup()` as one set-up sample (set-up spans carry op id -1).
void TimeSetup(Tracer& tracer, bool trace, const std::function<void()>& setup,
               std::vector<double>& setup_s) {
  tracer.Enable(trace, -1);
  const std::int64_t t0 = NowNs();
  setup();
  setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  tracer.Enable(false, -1);
}

// A `between` hook for RunClosedLoop that repeats `setup` at `count` - 1
// evenly spaced times of a run of `seconds` (the caller timed the first
// set-up before the loop).  Spread over the run, the set-up samples see
// the same phases of host speed as the ops do.
std::function<void(std::int64_t)> SpreadSetups(
    Tracer& tracer, bool trace, double seconds, int count,
    std::function<void()> setup, std::vector<double>& setup_s) {
  const auto interval = static_cast<std::int64_t>(seconds * 1e9 / count);
  return [=, &tracer, &setup_s, start = NowNs(),
          done = 1](std::int64_t) mutable {
    if (done >= count || NowNs() < start + done * interval) return;
    TimeSetup(tracer, trace, setup, setup_s);
    ++done;
  };
}

// Ops cycle through `period` distinct ops; a traced run traces each
// distinct op in every other repetition, so traced and untraced timings
// cover the same ops.
std::function<bool(std::int64_t)> Alternate(std::int64_t period) {
  return [period](std::int64_t k) {
    return (k % period + k / period) % 2 == 0;
  };
}

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// The end-to-end metrics every workload reports, plus a human summary
// line with the plain, unscaled figures (op_p90 where >= 10 ops lie
// beyond it).  Op k of the loop is distinct op k % period.  Both times are
// of identical work repeated through the run and scaled to the reference
// host (see HostSpeed): op_best_ms is the mean over the distinct ops of
// each one's fastest repetition, setup_s the fastest set-up.
void AddEndToEnd(Result& result, const char* workload, const LoopResult& loop,
                 std::int64_t period, const std::vector<double>& setup_s,
                 double peak_rss_mb) {
  std::vector<double> ms;
  std::vector<std::vector<double>> by_op(static_cast<std::size_t>(period));
  for (std::size_t k = 0; k < loop.samples.size(); ++k) {
    ms.push_back(loop.samples[k].ms);
    by_op[k % by_op.size()].push_back(loop.samples[k].ms);
  }
  double best_sum = 0;
  std::size_t distinct = 0, repetitions = ms.size();
  for (const std::vector<double>& runs : by_op) {
    if (runs.empty()) continue;
    best_sum += Fastest(runs);
    ++distinct;
    repetitions = std::min(repetitions, runs.size());
  }
  const double op_best = best_sum / static_cast<double>(distinct);
  const double scale = Host().Scale();
  std::string p90 = "n/a (needs >= 100 ops)";
  if (ms.size() >= 100) p90 = JsonNumber(Percentile(ms, 0.9)) + " ms";
  std::printf("# %s: %zu timed ops in %.2f s (closed loop, 1 client), "
              "%zu distinct ops, each repeated >= %zu times. Unscaled: "
              "op_best %.4f ms, op_p50 %.4f ms, op_p90 %s, %.4f ops/s, "
              "setup fastest %.4f s, median %.4f s (of %zu). Calibration "
              "p10 %.4f ms, median %.4f ms (of %zu), scale %.4f. Peak RSS "
              "%.1f MB\n",
              workload, ms.size(), loop.wall_s, distinct, repetitions,
              op_best, Median(ms), p90.c_str(),
              static_cast<double>(ms.size()) / loop.wall_s, Fastest(setup_s),
              Median(setup_s), setup_s.size(), Host().QuietMs(),
              Host().MedianMs(), Host().samples(), scale, peak_rss_mb);
  result.Add("setup_s", Fastest(setup_s) * scale, "s");
  result.Add("op_best_ms", op_best * scale, "ms");
  result.Add("peak_rss_mb", peak_rss_mb, "MB");
}

// Traced-run figures shared by every workload: self time per op of each
// layer that has spans, and the tracing overhead (median traced op over
// median untraced op of the same run).
void AddTraceSummary(Result& result, const Tracer& tracer,
                     const LoopResult& loop) {
  std::vector<double> traced, untraced;
  for (const OpSample& s : loop.samples)
    (s.traced ? traced : untraced).push_back(s.ms);
  const double per_op = std::max<double>(1, static_cast<double>(traced.size()));
  const auto self = tracer.SelfMsByLayer();
  for (const char* layer :
       {"formula", "knowledge", "space", "serialization", "serve"}) {
    const auto it = self.find(layer);
    result.Add(std::string(layer) + ".self_ms_per_op",
               it == self.end() ? 0.0 : it->second / per_op, "ms");
  }
  const double base = Median(untraced);
  result.Add("trace.overhead_pct",
             base > 0 ? 100.0 * (Median(traced) / base - 1.0) : 0.0, "%");
}

// --- formula streams --------------------------------------------------------

// The random(6,6,42) atoms: built-in predicates, so any per-predicate fast
// path the library gives them applies.  Their names ("count(p0)>=1") are
// not identifiers, so the text formulas use stand-in names that parse,
// and Rebind swaps the built-ins in after Formula::Parse.
struct AtomTable {
  std::vector<Predicate> standins;           // what Formula::Parse sees
  std::unordered_map<std::string, Predicate> builtin;  // stand-in -> real
  std::vector<std::string> names;
};

AtomTable RandomSystemAtoms() {
  AtomTable t;
  auto add = [&t](const std::string& name, const Predicate& real) {
    t.names.push_back(name);
    t.builtin.emplace(name, real);
    t.standins.emplace_back(name, [](const hpl::Computation&) -> bool {
      throw hpl::ModelError("stand-in atom evaluated");
    });
  };
  for (hpl::ProcessId p = 0; p < 6; ++p)
    for (int k = 1; k <= 3; ++k)
      add("c" + std::to_string(p) + "_" + std::to_string(k),
          Predicate::CountOnAtLeast(p, k));
  for (hpl::MessageId m = 0; m < 6; ++m) {
    add("s" + std::to_string(m), Predicate::Sent(m));
    add("r" + std::to_string(m), Predicate::Received(m));
  }
  return t;
}

FormulaPtr Rebind(const FormulaPtr& f, const AtomTable& atoms) {
  switch (f->kind()) {
    case FormulaKind::kAtom: {
      const auto it = atoms.builtin.find(f->atom().name());
      return it == atoms.builtin.end() ? f : Formula::Atom(it->second);
    }
    case FormulaKind::kNot:
      return Formula::Not(Rebind(f->left(), atoms));
    case FormulaKind::kAnd:
      return Formula::And(Rebind(f->left(), atoms), Rebind(f->right(), atoms));
    case FormulaKind::kOr:
      return Formula::Or(Rebind(f->left(), atoms), Rebind(f->right(), atoms));
    case FormulaKind::kImplies:
      return Formula::Implies(Rebind(f->left(), atoms),
                              Rebind(f->right(), atoms));
    case FormulaKind::kKnows:
      return Formula::Knows(f->group(), Rebind(f->left(), atoms));
    case FormulaKind::kSure:
      return Formula::Sure(f->group(), Rebind(f->left(), atoms));
    case FormulaKind::kCommon:
      return Formula::Common(f->group(), Rebind(f->left(), atoms));
    case FormulaKind::kEveryone:
      return Formula::Everyone(f->group(), Rebind(f->left(), atoms));
    case FormulaKind::kPossible:
      return Formula::Possible(f->group(), Rebind(f->left(), atoms));
  }
  throw hpl::ModelError("Rebind: unknown formula kind");
}

// The four kinds of a cold round, two of each per round.
enum ColdKind { kBoolean = 0, kKnows = 1, kGroup = 2, kCommon = 3 };
constexpr const char* kColdSpan[] = {
    "knowledge.cold_sweep.boolean", "knowledge.cold_sweep.knows",
    "knowledge.cold_sweep.group", "knowledge.cold_sweep.common"};

struct TextFormula {
  std::string text;
  int kind = 0;
};

// Seeded formulas over the random(6,6,42) atoms.  Every formula reads a
// fixed number of atoms (2 for boolean, 1 for the modal kinds), so cold
// op cost does not depend on the seed.
class RandomFormulaStream {
 public:
  RandomFormulaStream(std::uint64_t seed, const AtomTable& atoms)
      : rng_(seed), atoms_(atoms) {}

  TextFormula Make(int kind) {
    const std::string a = Atom();
    std::string b = Atom();
    while (b == a) b = Atom();
    const std::string lit = rng_.Below(2) ? a : "!" + a;
    const int p = rng_.Below(6);
    int q = rng_.Below(6);
    while (q == p) q = rng_.Below(6);
    const std::string pair = "{" + std::to_string(std::min(p, q)) + "," +
                             std::to_string(std::max(p, q)) + "} ";
    std::string text;
    switch (kind) {
      case kBoolean: {
        static const char* kShapes[] = {"A && !B", "A || B", "!A => B",
                                        "(A || B) && !(A && B)"};
        text = kShapes[rng_.Below(4)];
        for (std::size_t at; (at = text.find('A')) != std::string::npos;)
          text.replace(at, 1, a);
        for (std::size_t at; (at = text.find('B')) != std::string::npos;)
          text.replace(at, 1, b);
        break;
      }
      case kKnows: {
        static const char* kOps[] = {"K", "Sure", "M"};
        text = std::string(kOps[rng_.Below(3)]) + "{" + std::to_string(p) +
               "} " + lit;
        break;
      }
      case kGroup:
        text = (rng_.Below(2) ? "K" : "E") + pair + lit;
        break;
      default:
        text = "CK" + pair + lit;
        break;
    }
    return {text, kind};
  }

  std::vector<TextFormula> Round() {
    std::vector<TextFormula> out;
    for (int kind = kBoolean; kind <= kCommon; ++kind)
      for (int j = 0; j < kFormulasPerRound / 4; ++j) out.push_back(Make(kind));
    return out;
  }

 private:
  std::string Atom() {
    return atoms_.names[static_cast<std::size_t>(
        rng_.Below(static_cast<int>(atoms_.names.size())))];
  }

  Rng rng_;
  const AtomTable& atoms_;
};

// Seeded serve requests over atom `bit` and processes {0,1}, modal depth
// 1-4: 65% fresh single checks, 30% repeats of an earlier formula, 5%
// fused batches of 8 fresh formulas.
struct ServeRequest {
  enum Kind { kFresh = 0, kRepeat = 1, kBatch = 2 } kind = kFresh;
  std::vector<std::string> formulas;
};
constexpr const char* kServeSpan[] = {"serve.check_fresh", "serve.check_repeat",
                                      "serve.batch8"};

// Draws 0..n-1 in seeded shuffled rounds, so every n draws hold each
// value once: a short stream has the stated mix exactly, not just on
// average.
class Deck {
 public:
  explicit Deck(int n) : n_(n) {}
  int Draw(Rng& rng) {
    if (left_.empty()) {
      for (int i = 0; i < n_; ++i) left_.push_back(i);
      for (int i = n_ - 1; i > 0; --i)
        std::swap(left_[static_cast<std::size_t>(i)],
                  left_[static_cast<std::size_t>(rng.Below(i + 1))]);
    }
    const int v = left_.back();
    left_.pop_back();
    return v;
  }

 private:
  int n_;
  std::vector<int> left_;
};

class TrackerFormulaStream {
 public:
  explicit TrackerFormulaStream(std::uint64_t seed) : rng_(seed) {}

  // Of every 20 requests, 13 are fresh, 6 repeat and 1 is a batch.
  ServeRequest Next() {
    ServeRequest r;
    const int slot = kinds_.Draw(rng_);
    if (slot == 19) {
      r.kind = ServeRequest::kBatch;
      for (int i = 0; i < kBatchSize; ++i) r.formulas.push_back(Fresh());
    } else if (slot >= 13 && !sent_.empty()) {
      r.kind = ServeRequest::kRepeat;
      const int pick = rng_.Below(static_cast<int>(sent_.size()));
      r.formulas.push_back(sent_[static_cast<std::size_t>(pick)]);
    } else {
      r.kind = ServeRequest::kFresh;
      r.formulas.push_back(Fresh());
    }
    return r;
  }

  std::size_t distinct() const { return seen_.size(); }

 private:
  struct Sent {
    std::string text;
    int depth;
  };

  // A fresh formula applies one modal operator to an earlier formula of
  // modal depth d-1 (to bit or !bit for d = 1), and sometimes joins an
  // earlier, shallower formula with && or ||.  Each adds about one node
  // to the server's memo, as a user refining earlier questions would, so
  // fresh requests cost alike and the latency median sits in a dense part
  // of the distribution instead of depending on the seed.
  std::string Fresh() {
    static const char* kOps[] = {"K{0}",    "K{1}", "K{0,1}", "Sure{0}",
                                 "Sure{1}", "M{0}", "M{1}",   "E{0,1}",
                                 "CK{0,1}"};
    for (;;) {
      const Sent inner = Earlier(depths_.Draw(rng_));
      std::string text =
          std::string(kOps[ops_.Draw(rng_)]) + " " + Wrap(inner.text);
      const int depth = inner.depth + 1;
      if (joins_.Draw(rng_) < 3)
        text = "(" + text + ")" + (rng_.Below(2) ? " && " : " || ") +
               Wrap(Earlier(rng_.Below(depth)).text);
      if (seen_.insert(text).second) {
        sent_.push_back(text);
        by_depth_[depth].push_back({text, depth});
        return text;
      }
    }
  }

  // An earlier formula of modal depth `depth`, or of the deepest lower
  // depth sent so far.
  Sent Earlier(int depth) {
    while (depth > 0 && by_depth_[depth].empty()) --depth;
    if (depth == 0) return {rng_.Below(2) ? "bit" : "!bit", 0};
    const auto& pool = by_depth_[depth];
    return pool[static_cast<std::size_t>(
        rng_.Below(static_cast<int>(pool.size())))];
  }

  static std::string Wrap(const std::string& f) {
    return f == "bit" || f == "!bit" ? f : "(" + f + ")";
  }

  Rng rng_;
  Deck kinds_{20};
  Deck ops_{9};
  Deck depths_{4};  // modal depth - 1 of a fresh formula
  Deck joins_{10};  // 3 in 10 fresh formulas join an earlier one
  std::set<std::string> seen_;
  std::vector<std::string> sent_;
  std::vector<Sent> by_depth_[5];  // index: modal depth 1-4
};

// Reference verdicts: one lazy-interpreter evaluator (kernels off, 1
// thread) per space, caching each formula text's satisfying-set hash.
class Reference {
 public:
  Reference(const ComputationSpace& space,
            const std::vector<Predicate>& atoms, const AtomTable* rebind)
      : eval_(space, KnowledgeOptions{.num_threads = kKnowledgeThreads,
                                      .compiled_kernels = false}),
        atoms_(atoms),
        rebind_(rebind) {}

  const std::string& Hash(const std::string& text) {
    auto it = hashes_.find(text);
    if (it != hashes_.end()) return it->second;
    FormulaPtr f = Formula::Parse(text, atoms_);
    if (rebind_ != nullptr) f = Rebind(f, *rebind_);
    return hashes_.emplace(text, SatisfyingHash(eval_.SatisfyingSet(f)))
        .first->second;
  }

 private:
  KnowledgeEvaluator eval_;
  const std::vector<Predicate>& atoms_;
  const AtomTable* rebind_;
  std::unordered_map<std::string, std::string> hashes_;
};

// Answers recorded by the timed loop, checked after it.
struct Answer {
  std::int64_t op = 0;
  std::string text;
  std::string hash;
};

// Marks every op holding a wrong answer as failed.
void CheckAnswers(const std::vector<Answer>& answers,
                  const std::function<const std::string&(const Answer&)>& ref,
                  LoopResult& loop) {
  const std::int64_t t0 = NowNs();
  for (const Answer& a : answers) {
    if (a.op < 0) continue;
    if (a.hash != ref(a)) {
      std::fprintf(stderr, "op %lld: '%s' answered %s, reference %s\n",
                   static_cast<long long>(a.op), a.text.c_str(),
                   a.hash.c_str(), ref(a).c_str());
      loop.samples[static_cast<std::size_t>(a.op)].ok = false;
    }
  }
  std::fprintf(stderr, "perfbench: checked %zu answers in %.2f s\n",
               answers.size(), static_cast<double>(NowNs() - t0) / 1e9);
}

void CountOps(Result& result, const LoopResult& loop) {
  result.attempted = static_cast<std::int64_t>(loop.samples.size());
  for (const OpSample& s : loop.samples)
    if (!s.ok) ++result.failed;
  if (result.failed > 0)
    result.Fail(std::to_string(result.failed) + " ops failed");
}

void ExpectClasses(Result& result, const char* what, std::size_t got,
                   std::size_t want) {
  if (got != want)
    result.Fail(std::string(what) + ": " + std::to_string(got) +
                " classes, expected " + std::to_string(want));
}

// --- the workloads ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;
  std::string work;
  std::string trace_dir;
  int dump = 0;
};

hpl::RandomSystem MakeRandomSystem() {
  hpl::RandomSystemOptions options;
  options.num_processes = 6;
  options.num_messages = 6;
  options.seed = 42;
  return hpl::RandomSystem(options);
}

EnumerationLimits CappedLimits(int depth) {
  EnumerationLimits limits;
  limits.max_depth = depth;
  limits.allow_truncation = true;
  limits.num_threads = kBuildThreads;
  return limits;
}

// --- cold_query

Result ColdQuery(const Options& opt, Tracer& tracer) {
  Result result;
  const hpl::RandomSystem system = MakeRandomSystem();
  const AtomTable atoms = RandomSystemAtoms();

  std::vector<double> setup_s;
  std::unique_ptr<ComputationSpace> space;
  auto setup = [&] {
    space.reset();
    Tracer::Scope span(tracer, "space.build");
    space = std::make_unique<ComputationSpace>(
        ComputationSpace::Enumerate(system, CappedLimits(kCappedDepth)));
  };
  TimeSetup(tracer, opt.trace, setup, setup_s);
  ExpectClasses(result, "random(6,6,42) depth 10", space->size(),
                kCappedClasses);

  // The rounds and their reference hashes, before the loop and outside
  // every clock.
  RandomFormulaStream stream(StreamSeed(opt.seed, 1), atoms);
  std::vector<std::vector<TextFormula>> rounds;
  std::vector<std::vector<std::string>> want;
  {
    Reference ref(*space, atoms.standins, &atoms);
    for (int r = 0; r < kColdRounds; ++r) {
      rounds.push_back(stream.Round());
      want.emplace_back();
      for (const TextFormula& f : rounds.back())
        want.back().push_back(ref.Hash(f.text));
    }
  }
  if (opt.dump > 0) {
    std::printf("classes %zu\n", space->size());
    for (int k = 0; k < std::min(opt.dump, kColdRounds); ++k)
      for (std::size_t j = 0; j < rounds[k].size(); ++j)
        std::printf("op %d kind %d %s -> %s\n", k, rounds[k][j].kind,
                    rounds[k][j].text.c_str(), want[k][j].c_str());
    return result;
  }

  auto op = [&](std::int64_t k) {
    const std::size_t r =
        static_cast<std::size_t>(std::max<std::int64_t>(k, 0) % kColdRounds);
    bool ok = true;
    for (std::size_t j = 0; j < rounds[r].size(); ++j) {
      const TextFormula& tf = rounds[r][j];
      FormulaPtr f;
      {
        Tracer::Scope span(tracer, "formula.parse");
        f = Formula::Parse(tf.text, atoms.standins);
      }
      f = Rebind(f, atoms);
      std::unique_ptr<KnowledgeEvaluator> eval;
      {
        Tracer::Scope span(tracer, "knowledge.new_evaluator");
        eval = std::make_unique<KnowledgeEvaluator>(
            *space, KnowledgeOptions{.num_threads = kKnowledgeThreads});
      }
      std::vector<std::size_t> sat;
      {
        Tracer::Scope span(tracer, kColdSpan[tf.kind]);
        sat = eval->SatisfyingSet(f);
      }
      if (tracer.enabled()) {
        const auto memo = eval->MemoryUsage();
        tracer.Record("kernel.programs", memo.kernel_programs);
        tracer.Record("kernel.ops", memo.kernel_ops);
        tracer.Record("knowledge.bytes_memo", memo.bytes_total);
      }
      {
        Tracer::Scope span(tracer, "knowledge.release");
        eval.reset();
      }
      const std::string hash = SatisfyingHash(sat);
      if (hash != want[r][j]) {
        std::fprintf(stderr, "op %lld: '%s' answered %s, reference %s\n",
                     static_cast<long long>(k), tf.text.c_str(), hash.c_str(),
                     want[r][j].c_str());
        ok = false;
      }
    }
    return ok;
  };
  ResetPeakRss();
  for (int k = 0; k < kColdWarmupOps; ++k) op(-1 - k);
  LoopResult loop = RunClosedLoop(
      tracer, opt.trace, opt.seconds, Alternate(kColdRounds),
      SpreadSetups(tracer, opt.trace, opt.seconds, kColdSetups, setup, setup_s),
      op);
  const double peak = PeakRssMbSelf(Host().BufferMb());
  ExpectClasses(result, "random(6,6,42) depth 10 rebuilt", space->size(),
                kCappedClasses);

  // Outside every clock: the floor an At() sweep sets.
  std::vector<double> materialize_ms;
  if (opt.trace) {
    for (int i = 0; i < 3; ++i) {
      const std::int64_t t0 = NowNs();
      std::size_t events = 0;
      for (std::size_t id = 0; id < space->size(); ++id)
        events += space->At(id).size();
      materialize_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (events == 0) result.Fail("empty materialization sweep");
    }
  }
  CountOps(result, loop);

  if (!opt.trace) {
    AddEndToEnd(result, "cold_query", loop, kColdRounds, setup_s, peak);
    return result;
  }
  std::vector<double> sweep_ms;
  for (const char* name : kColdSpan)
    for (double ms : tracer.DurationsMs(name)) sweep_ms.push_back(ms);
  double sweep_total_s = 0;
  for (double ms : sweep_ms) sweep_total_s += ms / 1e3;
  result.Add("formula.parse_us", 1e3 * tracer.MedianMs("formula.parse"), "us");
  result.Add("knowledge.new_evaluator_ms",
             tracer.MedianMs("knowledge.new_evaluator"), "ms");
  result.Add("knowledge.cold_sweep_ms.boolean",
             tracer.MedianMs(kColdSpan[kBoolean]), "ms");
  result.Add("knowledge.cold_sweep_ms.knows",
             tracer.MedianMs(kColdSpan[kKnows]), "ms");
  result.Add("knowledge.cold_sweep_ms.group",
             tracer.MedianMs(kColdSpan[kGroup]), "ms");
  result.Add("knowledge.cold_sweep_ms.common",
             tracer.MedianMs(kColdSpan[kCommon]), "ms");
  result.Add("knowledge.cold_classes_per_s",
             sweep_total_s > 0 ? static_cast<double>(space->size()) *
                                     static_cast<double>(sweep_ms.size()) /
                                     sweep_total_s
                               : 0.0,
             "1/s");
  result.Add("space.materialize_all_ms", Median(materialize_ms), "ms");
  result.Add("kernel.programs", tracer.MedianPerOp("kernel.programs"), "count");
  result.Add("kernel.ops", tracer.MedianPerOp("kernel.ops"), "count");
  result.Add("knowledge.bytes_memo",
             tracer.MedianPerOp("knowledge.bytes_memo"), "B");
  result.Add("space.build_ms", tracer.MedianMs("space.build"), "ms");
  AddTraceSummary(result, tracer, loop);
  return result;
}

// --- grow_budgeted

Result GrowBudgeted(const Options& opt, Tracer& tracer) {
  Result result;
  const hpl::RandomSystem system = MakeRandomSystem();
  const AtomTable atoms = RandomSystemAtoms();
  const std::string spill_dir = opt.work + "/spill";

  EnumerationLimits limits;
  limits.max_depth = kGrowFromDepth;
  limits.allow_truncation = true;
  limits.num_threads = kGrowThreads;
  limits.segments.segment_shift = kGrowSegmentShift;
  limits.segments.residency_budget_bytes = kGrowBudgetBytes;
  limits.segments.spill_dir = spill_dir;

  std::vector<double> setup_s;
  std::string snapshot;
  std::size_t start_classes = 0;
  auto setup = [&] {
    SpaceBuilder builder;
    {
      Tracer::Scope span(tracer, "space.build");
      builder.Build(system, limits);
    }
    start_classes = builder.space().size();
    std::ostringstream out;
    SaveSpaceBuilderSnapshot(builder, out);
    snapshot = std::move(out).str();
  };
  TimeSetup(tracer, opt.trace, setup, setup_s);
  ExpectClasses(result, "random(6,6,42) depth 8", start_classes,
                kGrowFromClasses);

  // kGrowStandingSets standing sets of 4 formulas, one of each kind; op k
  // asks set k % kGrowStandingSets.
  struct Standing {
    std::string text;
    FormulaPtr formula;
    std::string want_before, want_after;  // reference hashes
  };
  RandomFormulaStream stream(StreamSeed(opt.seed, 2), atoms);
  std::vector<std::vector<Standing>> sets(kGrowStandingSets);
  for (std::vector<Standing>& set : sets)
    for (int kind : {kKnows, kGroup, kCommon, kBoolean}) {
      const std::string text = stream.Make(kind).text;
      set.push_back(
          {text, Rebind(Formula::Parse(text, atoms.standins), atoms), "", ""});
    }

  // References outside every clock, on unbudgeted enumerations.
  std::size_t before_classes = 0, after_classes = 0;
  {
    const ComputationSpace before_space =
        ComputationSpace::Enumerate(system, CappedLimits(kGrowFromDepth));
    const ComputationSpace after_space =
        ComputationSpace::Enumerate(system, CappedLimits(kCappedDepth));
    before_classes = before_space.size();
    after_classes = after_space.size();
    Reference before_ref(before_space, atoms.standins, &atoms);
    Reference after_ref(after_space, atoms.standins, &atoms);
    for (std::vector<Standing>& set : sets)
      for (Standing& f : set) {
        f.want_before = before_ref.Hash(f.text);
        f.want_after = after_ref.Hash(f.text);
      }
  }
  ExpectClasses(result, "random(6,6,42) depth 10", after_classes,
                kCappedClasses);
  if (opt.dump > 0) {
    std::printf("classes %zu %zu\n", before_classes, after_classes);
    for (const std::vector<Standing>& set : sets)
      for (const Standing& f : set)
        std::printf("standing %s -> %s %s\n", f.text.c_str(),
                    f.want_before.c_str(), f.want_after.c_str());
    return result;
  }

  auto op = [&](std::int64_t k) {
    const std::vector<Standing>& set = sets[static_cast<std::size_t>(
        std::max<std::int64_t>(k, 0) % kGrowStandingSets)];
    bool ok = true;
    std::unique_ptr<SpaceBuilder> builder;
    {
      Tracer::Scope span(tracer, "serialization.builder_load");
      std::istringstream in(snapshot);
      builder = std::make_unique<SpaceBuilder>(
          hpl::LoadSpaceBuilderSnapshot(system, in, limits));
    }
    std::unique_ptr<KnowledgeEvaluator> eval;
    {
      Tracer::Scope span(tracer, "knowledge.warm");
      eval = std::make_unique<KnowledgeEvaluator>(
          builder->space(),
          KnowledgeOptions{.num_threads = kKnowledgeThreads});
      for (const Standing& f : set)
        ok &= SatisfyingHash(eval->SatisfyingSet(f.formula)) == f.want_before;
    }
    std::size_t added = 0;
    {
      Tracer::Scope span(tracer, "space.deepen");
      added = builder->Deepen(kDeepenLevels);
    }
    if (tracer.enabled()) {
      const auto seg = builder->space().SegmentStats();
      tracer.Record("space.deepen_classes", added);
      tracer.Record("segment_store.spill_writes", seg.spill_writes);
      tracer.Record("segment_store.spill_faults", seg.spill_faults);
      tracer.Record("segment_store.bytes_spilled", seg.bytes_spilled);
      tracer.Record("space.bytes_resident", seg.bytes_resident);
    }
    ok &= builder->space().size() == kCappedClasses;
    {
      Tracer::Scope span(tracer, "knowledge.refresh");
      eval->Refresh();
    }
    {
      Tracer::Scope span(tracer, "knowledge.requery");
      for (const Standing& f : set)
        ok &= SatisfyingHash(eval->SatisfyingSet(f.formula)) == f.want_after;
    }
    {
      Tracer::Scope span(tracer, "serialization.builder_save");
      std::ostringstream out;
      SaveSpaceBuilderSnapshot(*builder, out);
      tracer.Record("serialization.snapshot_bytes", out.tellp());
    }
    {
      Tracer::Scope span(tracer, "knowledge.release");
      eval.reset();
    }
    {
      Tracer::Scope span(tracer, "space.release");
      builder.reset();
    }
    return ok;
  };
  ResetPeakRss();
  for (int k = 0; k < kGrowWarmupOps; ++k) op(-1 - k);
  LoopResult loop = RunClosedLoop(
      tracer, opt.trace, opt.seconds, Alternate(kGrowStandingSets),
      SpreadSetups(tracer, opt.trace, opt.seconds, kGrowSetups, setup, setup_s),
      op);
  const double peak = PeakRssMbSelf(Host().BufferMb());
  ExpectClasses(result, "random(6,6,42) depth 8 rebuilt", start_classes,
                kGrowFromClasses);
  CountOps(result, loop);
  if (std::filesystem::exists(spill_dir) &&
      !std::filesystem::is_empty(spill_dir))
    result.Fail("spill directory not left clean");

  if (!opt.trace) {
    AddEndToEnd(result, "grow_budgeted", loop, kGrowStandingSets, setup_s,
                peak);
    return result;
  }
  const double deepen_ms = tracer.MedianMs("space.deepen");
  result.Add("space.deepen_ms", deepen_ms, "ms");
  result.Add("space.deepen_classes_per_s",
             deepen_ms > 0
                 ? tracer.MedianPerOp("space.deepen_classes") / deepen_ms * 1e3
                 : 0.0,
             "1/s");
  for (const char* name :
       {"segment_store.spill_writes", "segment_store.spill_faults"})
    result.Add(name, tracer.MedianPerOp(name), "count");
  result.Add("segment_store.bytes_spilled",
             tracer.MedianPerOp("segment_store.bytes_spilled"), "B");
  result.Add("space.bytes_resident",
             tracer.MedianPerOp("space.bytes_resident"), "B");
  for (const char* phase : {"warm", "refresh", "requery"})
    result.Add(std::string("knowledge.") + phase + "_ms",
               tracer.MedianMs(std::string("knowledge.") + phase), "ms");
  result.Add("serialization.builder_load_ms",
             tracer.MedianMs("serialization.builder_load"), "ms");
  result.Add("serialization.builder_save_ms",
             tracer.MedianMs("serialization.builder_save"), "ms");
  result.Add("serialization.snapshot_bytes",
             tracer.MedianPerOp("serialization.snapshot_bytes"), "B");
  result.Add("space.build_ms", tracer.MedianMs("space.build"), "ms");
  AddTraceSummary(result, tracer, loop);
  return result;
}

// --- serve_warm

// `hpl_cli serve` as a child process on a pipe pair.  The destructor kills
// and reaps a child that was not shut down with Quit().
class ServeChild {
 public:
  ServeChild(const std::string& cli, const std::string& snapshot,
             const std::string& log) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0)
      throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
      posix_spawn_file_actions_addclose(&actions, fd);
    const std::string snapshot_flag = "--snapshot=" + snapshot;
    const std::string threads = "--threads=" + std::to_string(kBuildThreads);
    const std::string kthreads =
        "--knowledge-threads=" + std::to_string(kKnowledgeThreads);
    const std::string system = "tracker:" + std::to_string(kTrackerFlips);
    std::vector<char*> argv = {const_cast<char*>(cli.c_str()),
                               const_cast<char*>("serve"),
                               const_cast<char*>(system.c_str()),
                               const_cast<char*>(snapshot_flag.c_str()),
                               const_cast<char*>(threads.c_str()),
                               const_cast<char*>(kthreads.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + cli + ": " +
                               std::strerror(rc));
    }
  }
  ~ServeChild() {
    if (to_child_ >= 0) close(to_child_);
    if (from_child_ >= 0) close(from_child_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  // Sends one request line and returns the response line.
  std::string Call(const std::string& request) {
    std::string line = request + "\n";
    for (std::size_t done = 0; done < line.size();) {
      const ssize_t n =
          write(to_child_, line.data() + done, line.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("serve: write failed");
      done += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string response = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return response;
      }
      char chunk[65536];
      const ssize_t n = read(from_child_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("serve: child closed its output");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Asks the child to quit, reaps it, and returns its peak RSS in MB;
  // throws unless it exited with status 0.
  double Quit() {
    Call("{\"op\":\"quit\"}");
    close(to_child_);
    to_child_ = -1;
    int status = 0;
    rusage usage{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("serve: child did not exit cleanly");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
};

// Every "hash":"..." value of a response, in order.
std::vector<std::string> ResponseHashes(const std::string& response) {
  std::vector<std::string> out;
  const std::string key = "\"hash\":\"";
  for (std::size_t at = response.find(key); at != std::string::npos;
       at = response.find(key, at + 1))
    out.push_back(response.substr(at + key.size(), 16));
  return out;
}

// The numeric member `key` of a flat JSON response (0 if absent).
double ResponseNumber(const std::string& response, const std::string& key) {
  const std::size_t at = response.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(response.c_str() + at + key.size() + 3, nullptr);
}

std::string RequestJson(const ServeRequest& r, std::int64_t id) {
  std::string out = "{\"op\":\"check\",";
  if (r.kind == ServeRequest::kBatch) {
    out += "\"formulas\":[";
    for (std::size_t i = 0; i < r.formulas.size(); ++i)
      out += (i ? ",\"" : "\"") + r.formulas[i] + "\"";
    out += "]";
  } else {
    out += "\"formula\":\"" + r.formulas[0] + "\"";
  }
  return out + ",\"id\":" + std::to_string(id) + "}";
}

Result ServeWarm(const Options& opt, Tracer& tracer) {
  Result result;
  const hpl::protocols::TrackerSystem system(kTrackerFlips);
  const std::vector<Predicate> atoms = {system.Bit()};
  const std::string snapshot = opt.work + "/tracker8.snap";
  const std::string log = opt.work + "/serve.log";

  if (opt.dump > 0) {
    TrackerFormulaStream stream(StreamSeed(opt.seed, 3));
    EnumerationLimits limits;
    limits.max_depth = kTrackerDepth;
    limits.num_threads = kBuildThreads;
    const ComputationSpace space = ComputationSpace::Enumerate(system, limits);
    Reference ref(space, atoms, nullptr);
    std::printf("classes %zu\n", space.size());
    for (int k = 0; k < opt.dump; ++k) {
      const ServeRequest r = stream.Next();
      std::printf("op %d %s ->", k, RequestJson(r, k).c_str());
      for (const std::string& f : r.formulas)
        std::printf(" %s", ref.Hash(f).c_str());
      std::printf("\n");
    }
    return result;
  }

  {
    SpaceBuilder builder;
    EnumerationLimits limits;
    limits.max_depth = kTrackerDepth;
    limits.num_threads = kBuildThreads;
    builder.Build(system, limits);
    ExpectClasses(result, "tracker:8", builder.space().size(), kTrackerClasses);
    SaveSpaceBuilderSnapshot(builder, snapshot);
  }

  // Sessions: a fresh child answers the same seeded request sequence,
  // kSessionWarmup untimed requests and then up to kSessionRequests timed
  // ones, so memo growth and peak RSS do not depend on how fast it runs.
  // Each session's spawn, timed to the first ping reply, is a set-up
  // sample; sessions start throughout the run.
  std::unique_ptr<ServeChild> child;
  std::vector<double> setup_s;
  auto spawn = [&] {
    Tracer::Scope span(tracer, "serve.ready");
    child = std::make_unique<ServeChild>(opt.cli, snapshot, log);
    if (child->Call("{\"op\":\"ping\"}").rfind("{\"ok\":true", 0) != 0)
      throw std::runtime_error("serve: bad ping reply");
  };
  std::unique_ptr<TrackerFormulaStream> stream;
  std::vector<Answer> answers;
  std::string info;  // the first session's final "info" reply
  std::size_t distinct = 0;  // formulas sent in that session
  double peak = 0;
  auto send = [&](std::int64_t k) {
    const ServeRequest r = stream->Next();
    std::string response;
    {
      Tracer::Scope span(tracer, kServeSpan[r.kind]);
      response = child->Call(RequestJson(r, k));
    }
    const std::vector<std::string> hashes = ResponseHashes(response);
    if (response.rfind("{\"ok\":true", 0) != 0 ||
        response.find(",\"id\":" + std::to_string(k) + "}") ==
            std::string::npos ||
        hashes.size() != r.formulas.size())
      return false;
    for (std::size_t i = 0; i < hashes.size(); ++i)
      answers.push_back({k, r.formulas[i], hashes[i]});
    return true;
  };
  auto end_session = [&] {
    const std::string reply = child->Call("{\"op\":\"info\"}");
    if (info.empty()) {
      info = reply;
      distinct = stream->distinct();
    }
    peak = std::max(peak, child->Quit());
    child.reset();
  };
  auto between = [&](std::int64_t k) {
    if (k % kSessionRequests != 0) return;
    if (child) end_session();
    TimeSetup(tracer, opt.trace, spawn, setup_s);
    stream = std::make_unique<TrackerFormulaStream>(StreamSeed(opt.seed, 3));
    for (int i = 0; i < kSessionWarmup; ++i)
      if (!send(-1 - i)) throw std::runtime_error("serve: warm-up failed");
    if (k == 0) {
      tracer.Enable(opt.trace, -1);
      for (int i = 0; i < kServePings; ++i) {
        Tracer::Scope span(tracer, "serve.ping");
        child->Call("{\"op\":\"ping\"}");
      }
      tracer.Enable(false, -1);
    }
  };
  // A session's request positions are its distinct ops.
  LoopResult loop = RunClosedLoop(tracer, opt.trace, opt.seconds,
                                  Alternate(kSessionRequests), between, send);
  end_session();

  // The reference, from an in-process load of the same snapshot.
  std::unique_ptr<ComputationSpace> space;
  tracer.Enable(opt.trace, -1);
  {
    Tracer::Scope span(tracer, "serialization.snapshot_load");
    space = std::make_unique<ComputationSpace>(
        hpl::LoadSpaceSnapshot(snapshot));
  }
  tracer.Enable(false, -1);
  ExpectClasses(result, "tracker:8 snapshot", space->size(), kTrackerClasses);
  Reference ref(*space, atoms, nullptr);
  CheckAnswers(answers, [&](const Answer& a) -> const std::string& {
    return ref.Hash(a.text);
  }, loop);
  CountOps(result, loop);

  if (!opt.trace) {
    AddEndToEnd(result, "serve_warm", loop, kSessionRequests, setup_s, peak);
    return result;
  }
  result.Add("serve.ready_ms", tracer.MedianMs("serve.ready"), "ms");
  result.Add("serialization.snapshot_load_ms",
             tracer.MedianMs("serialization.snapshot_load"), "ms");
  result.Add("serve.ping_rtt_us", 1e3 * tracer.MedianMs("serve.ping"), "us");
  result.Add("serve.check_fresh_ms", tracer.MedianMs(kServeSpan[0]), "ms");
  result.Add("serve.check_repeat_ms", tracer.MedianMs(kServeSpan[1]), "ms");
  result.Add("serve.batch8_ms", tracer.MedianMs(kServeSpan[2]), "ms");
  for (const char* key : {"memo_entries", "bytes_memo", "kernel_programs",
                          "formulas_interned"})
    result.Add(std::string("serve.") + key, ResponseNumber(info, key),
               std::string(key) == "bytes_memo" ? "B" : "count");
  const double interned = ResponseNumber(info, "formulas_interned");
  result.Add("serve.intern_ratio",
             interned / static_cast<double>(std::max<std::size_t>(1, distinct)),
             "ratio");
  AddTraceSummary(result, tracer, loop);
  return result;
}

// Prints the metrics the workload measured; run.py completes a traced
// result with 0 for the per-layer metrics of layers it does not reach.
void PrintResult(const Result& result) {
  const std::vector<Metric>& metrics = result.metrics;
  for (const std::string& problem : result.problems)
    std::printf("# NOT CORRECT: %s\n", problem.c_str());
  std::string out = std::string("{\"correct\": ") +
                    (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  std::printf("%s}}\n", out.c_str());
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--cli") opt.cli = value;
    else if (flag == "--work") opt.work = value;
    else if (flag == "--trace-dir") opt.trace_dir = value;
    else if (flag == "--dump") opt.dump = std::stoi(value);
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (opt.work.empty() || opt.seconds <= 0)
    throw std::runtime_error("usage: see the header of perfbench/perfbench.cc");
  std::filesystem::create_directories(opt.work);

  Host();  // allocates the calibration buffers before any workload memory
  Tracer tracer;
  Result result;
  if (opt.workload == "cold_query") {
    result = ColdQuery(opt, tracer);
  } else if (opt.workload == "grow_budgeted") {
    result = GrowBudgeted(opt, tracer);
  } else if (opt.workload == "serve_warm") {
    if (opt.cli.empty()) throw std::runtime_error("serve_warm needs --cli");
    result = ServeWarm(opt, tracer);
  } else {
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  }
  if (opt.dump > 0) return result.correct ? 0 : 1;
  if (opt.trace && !opt.trace_dir.empty()) {
    std::filesystem::create_directories(opt.trace_dir);
    tracer.WriteJson(opt.trace_dir + "/" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".json");
  }
  PrintResult(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
