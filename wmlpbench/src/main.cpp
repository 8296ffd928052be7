// Benchmark binary for the paging stack.
//
//   wmlpbench gen --workload W --seed S --out FILE
//       Writes the workload's trace for seed S in the trace_io format.
//   wmlpbench measure --workload W --file FILE --trace 0|1 --t0-ns T
//                     [--spans-out PATH]
//       Set-up (read FILE, construct and Attach every measured policy) is
//       timed from T, the CLOCK_MONOTONIC time at which the caller spawned
//       this process. Then the correctness checks run, and then rounds of
//       either timed repetitions (--trace 0, see Measurement::Timed) or
//       traced ones (--trace 1, see Measurement::TracedRounds), one round
//       per "round" line on stdin. Prints one JSON object as its last stdout
//       line.
//   wmlpbench setup --workload W --file FILE --t0-ns T
//       Set-up alone (as in measure), timed the same way; prints seconds.
//   wmlpbench selftest
//       Feeds every check a corrupted input and fails unless each fires.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/discretize.h"
#include "core/fractional.h"
#include "core/rounding_multilevel.h"
#include "core/rounding_weighted.h"
#include "engine/engine.h"
#include "engine/request_source.h"
#include "registry/policy_registry.h"
#include "server/server.h"
#include "trace/trace_io.h"
#include "tracing.h"
#include "workloads.h"

namespace wmlpbench {
namespace {

using wmlp::Engine;
using wmlp::EngineOptions;
using wmlp::Instance;
using wmlp::Policy;
using wmlp::PolicyPtr;
using wmlp::Request;
using wmlp::SimResult;
using wmlp::Trace;
using wmlp::TraceSource;

// Rounding seeds: the timed windows use the first; the cost metric is the
// mean over all of them (with weights spanning three decades, one rounding
// seed's window cost varies by ~10% between seeds).
constexpr uint64_t kRoundingSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr uint64_t kToolSeed = 1;
// Shards and clients of the in-process server layer (matches the tool run).
constexpr int32_t kServeShards = 2;
constexpr int32_t kServeClients = 1;
// Every timed window must evict at least timed / kEvictFloorDivisor times.
constexpr int64_t kEvictFloorDivisor = 100;
// The LP constraints are read at every kLpSampleEvery-th request.
constexpr int64_t kLpSampleEvery = 1024;
// Minimum rounds of timed repetitions.
constexpr int kMinRounds = 3;
// Segments per timed window; each is a few to a few tens of milliseconds,
// short against the VM's speed states.
constexpr int kSegments = 16;

std::map<std::string, std::string> ParseArgs(int argc, char** argv, int from) {
  std::map<std::string, std::string> args;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "error: bad argument '" << key << "'\n";
      std::exit(2);
    }
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

std::string Arg(const std::map<std::string, std::string>& args,
                const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) {
    std::cerr << "error: --" << key << " is required\n";
    std::exit(2);
  }
  return it->second;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

WindowResult Diff(const SimResult& before, const SimResult& after) {
  return WindowResult{after.eviction_cost - before.eviction_cost,
                      after.evictions - before.evictions,
                      after.fetches - before.fetches, after.hits - before.hits};
}

// The randomized stack exactly as MakeRandomizedPolicy(seed) builds it
// (fractional solver -> Lemma 4.5 discretization -> Algorithm 1 or 2), with
// forwarding wrappers at each layer boundary.
struct RandomizedStack {
  PolicyPtr rounding;
  const TracedFractional* inner = nullptr;    // the fractional solver
  const TracedFractional* snapped = nullptr;  // its discretized view
  const wmlp::RoundedWeightedPaging* alg1 = nullptr;
  const wmlp::RoundedMultiLevel* alg2 = nullptr;
  std::unique_ptr<TracedPolicy> top;

  int64_t reset_evictions() const {
    return alg1 != nullptr ? alg1->reset_evictions()
                           : alg2->reset_evictions();
  }
};

RandomizedStack BuildRandomizedStack(const Instance& instance, uint64_t seed,
                                     SpanRecorder& rec) {
  RandomizedStack stack;
  auto inner = std::make_unique<TracedFractional>(
      std::make_unique<wmlp::FractionalMlp>(), rec, "core.fractional");
  stack.inner = inner.get();
  auto snapped = std::make_unique<TracedFractional>(
      std::make_unique<wmlp::DiscretizedFractional>(std::move(inner)), rec,
      "core.discretize");
  stack.snapped = snapped.get();
  if (instance.num_levels() == 1) {
    auto r = std::make_unique<wmlp::RoundedWeightedPaging>(std::move(snapped),
                                                           seed);
    stack.alg1 = r.get();
    stack.rounding = std::move(r);
  } else {
    auto r = std::make_unique<wmlp::RoundedMultiLevel>(std::move(snapped),
                                                       seed);
    stack.alg2 = r.get();
    stack.rounding = std::move(r);
  }
  stack.top = std::make_unique<TracedPolicy>(*stack.rounding, rec,
                                             "core.rounding",
                                             "core.randomized.attach");
  return stack;
}

struct Measured {
  std::string name;      // registry name
  std::string layer;     // span layer of its Serve in the traced pass
  const Window* window;  // its steady-state window
};

// One repetition: a policy attached to a fresh engine over the in-memory
// trace, run through its warm phase and then its timed window.
struct Rep {
  PolicyPtr policy;
  std::unique_ptr<TraceSource> source;
  std::unique_ptr<Engine> engine;
};

Rep MakeRep(const Trace& trace, const std::string& name, uint64_t seed) {
  Rep rep;
  rep.policy = wmlp::MakePolicyByName(name, seed);
  rep.source = std::make_unique<TraceSource>(trace);
  rep.engine = std::make_unique<Engine>(*rep.source, *rep.policy);
  return rep;
}

class Measurement {
 public:
  Measurement(const Workload& w, const Trace& trace)
      : w_(w),
        trace_(trace),
        policies_{{"randomized", "core.rounding", &w.randomized},
                  {"waterfill", "core.waterfill", &w.waterfill},
                  {"landlord", "baselines.landlord", &w.landlord},
                  {"lru", "baselines.lru", &w.lru}} {}

  const std::vector<Measured>& policies() const { return policies_; }

  void Error(const std::string& e) {
    if (!e.empty()) errors_.push_back(e);
  }
  // Records `e`, prefixed with `who`, unless it is empty.
  void Error(const std::string& who, const std::string& e) {
    if (!e.empty()) errors_.push_back(who + ": " + e);
  }
  const std::vector<std::string>& errors() const { return errors_; }
  void Metric(const std::string& name, double v) { metrics_[name] = v; }
  void Aux(const std::string& name, const std::string& json) {
    aux_[name] = json;
  }

  // Warm phase, full-cache check, then the timed window, run and timed in
  // kSegments consecutive segments (their times go to `segment_ns` when
  // given). The randomized policy's rounded cache is not full by design;
  // its checked run tests the fractional cache instead.
  WindowResult RunWindow(Engine& engine, const Measured& m,
                         std::vector<int64_t>* segment_ns) {
    engine.RunFor(m.window->warm);
    if (m.name != "randomized" &&
        engine.cache().size() != engine.instance().cache_size()) {
      Error(m.name + ": cache holds " + std::to_string(engine.cache().size()) +
            " copies after the warm phase, not k");
    }
    const SimResult before = engine.result();
    int64_t served = 0;
    for (int j = 0; j < kSegments; ++j) {
      const int64_t end = m.window->timed * (j + 1) / kSegments;
      const int64_t t0 = NowNs();
      served += engine.RunFor(end - served);
      const int64_t t1 = NowNs();
      if (segment_ns != nullptr) {
        (*segment_ns)[static_cast<size_t>(j)] = t1 - t0;
      }
    }
    if (served != m.window->timed) Error(m.name + ": window ran short");
    const WindowResult r = Diff(before, engine.result());
    Error(m.name, CheckWindowEvicts(r.evictions,
                                    m.window->timed / kEvictFloorDivisor));
    return r;
  }

  // Untimed single-step run of [0, warm + timed) under the checking
  // observer (and, for the randomized stack, the LP checks). Returns the
  // reference window every timed and traced run must reproduce.
  WindowResult CheckedRun(const Measured& m) {
    CheckingObserver obs(trace_.instance);
    EngineOptions opts;
    opts.observer = &obs;
    SpanRecorder off;
    std::unique_ptr<RandomizedStack> stack;
    PolicyPtr plain;
    Policy* policy = nullptr;
    if (m.name == "randomized") {
      stack = std::make_unique<RandomizedStack>(
          BuildRandomizedStack(trace_.instance, kRoundingSeeds[0], off));
      policy = stack->top.get();
    } else {
      plain = wmlp::MakePolicyByName(m.name, kRoundingSeeds[0]);
      policy = plain.get();
    }
    TraceSource source(trace_);
    Engine engine(source, *policy, opts);
    SimResult before;
    const int64_t end = m.window->warm + m.window->timed;
    for (int64_t t = 0; t < end; ++t) {
      if (t == m.window->warm) {
        before = engine.result();
        if (stack != nullptr) {
          Error(m.name + " after warm-up",
                CheckFractionalFull(trace_.instance, *stack->inner));
        }
      }
      engine.Step();
      if (stack != nullptr && (t + 1) % kLpSampleEvery == 0) {
        const std::string err = CheckFractionalLp(
            trace_.instance, *stack->inner, *stack->snapped,
            trace_.requests[static_cast<size_t>(t)]);
        if (!err.empty()) {
          Error(m.name + " t=" + std::to_string(t) + ": " + err);
          break;
        }
      }
    }
    const SimResult total = engine.result();
    Error(m.name, obs.Verify(total, engine.cache().size()));
    Error(m.name, CheckMinBound(total.fetches, total.evictions,
                                total.eviction_cost, MinFaults(end), w_.k,
                                trace_.instance.min_weight()));
    return Diff(before, total);
  }

  int64_t MinFaults(int64_t prefix) {
    auto it = min_faults_.find(prefix);
    if (it == min_faults_.end()) {
      const std::span<const Request> reqs(trace_.requests.data(),
                                          static_cast<size_t>(prefix));
      it = min_faults_.emplace(prefix, BeladyMinFaults(reqs, w_.n, w_.k))
               .first;
    }
    return it->second;
  }

  // Timed repetitions, one round (one repetition of each policy) per
  // "round" line on stdin, answered with "ok" or "error"; any other line
  // ends them. The caller interleaves its tool runs between rounds, so
  // every timed figure samples the whole run. Each window segment serves
  // the same requests in every repetition, so its fastest time over the
  // repetitions is its time in the VM's fast state; rps = timed requests /
  // the sum of those fastest segment times.
  void Timed(std::vector<Rep>& setup_reps,
             const std::vector<WindowResult>& refs) {
    std::vector<std::vector<int64_t>> best(
        policies_.size(), std::vector<int64_t>(kSegments, INT64_MAX));
    std::vector<int64_t> seg(kSegments);
    int rounds = 0;
    std::cout << "ready " << AuxJson() << std::endl;
    std::string command;
    while (std::getline(std::cin, command) && command == "round") {
      for (size_t i = 0; i < policies_.size(); ++i) {
        Rep rep = rounds == 0 ? std::move(setup_reps[i])
                              : MakeRep(trace_, policies_[i].name,
                                        kRoundingSeeds[0]);
        const WindowResult r = RunWindow(*rep.engine, policies_[i], &seg);
        Error(CheckSameWindow(refs[i], r,
                              policies_[i].name + " repetition " +
                                  std::to_string(rounds)));
        for (int j = 0; j < kSegments; ++j) {
          best[i][j] = std::min(best[i][j], seg[j]);
        }
        attempted_ += policies_[i].window->timed;
      }
      ++rounds;
      std::cout << (errors_.empty() ? "ok" : "error") << std::endl;
    }
    if (rounds < kMinRounds) {
      Error("only " + std::to_string(rounds) + " timed rounds ran");
      return;
    }
    for (size_t i = 0; i < policies_.size(); ++i) {
      int64_t ns = 0;
      for (const int64_t b : best[i]) ns += b;
      Metric(policies_[i].name + "_rps",
             static_cast<double>(policies_[i].window->timed) /
                 (static_cast<double>(ns) * 1e-9));
    }
    Aux("rounds", std::to_string(rounds));
  }

  // Per-layer figures of one traced round.
  struct LayerFigures {
    std::map<std::string, double> times;   // ns per request (or ms)
    std::map<std::string, double> counts;  // deterministic counts
    int64_t plain_ns = INT64_MAX;   // untraced randomized window
    int64_t traced_ns = INT64_MAX;  // the same window traced
  };

  // Traced repetitions, one round per "round" line on stdin (the same
  // protocol as Timed). Each round traces one window of every layer; a
  // timing figure is its fastest over the rounds, for the reason Timed
  // takes fastest segments, and a count must repeat exactly. The spans of
  // the first round are written to `spans_out` at the end.
  void TracedRounds(const std::vector<WindowResult>& refs,
                    double setup_parse_ns_per_req, const std::string& path,
                    const std::string& spans_out) {
    LayerFigures best;
    best.times["trace.parse_ns_per_req"] = setup_parse_ns_per_req;
    SpanRecorder first;
    int rounds = 0;
    std::cout << "ready " << AuxJson() << std::endl;
    std::string command;
    while (std::getline(std::cin, command) && command == "round") {
      SpanRecorder later;
      SpanRecorder& rec = rounds == 0 ? first : later;
      LayerFigures f;
      TracedPolicies(refs, rec, f);
      TracedParse(path, f);
      TracedStream(path, rec, f);
      ServerLayer(f);
      for (const auto& [name, v] : f.times) {
        const auto it = best.times.find(name);
        best.times[name] = it == best.times.end() ? v : std::min(it->second, v);
      }
      for (const auto& [name, v] : f.counts) {
        const auto it = best.counts.find(name);
        if (it == best.counts.end()) {
          best.counts[name] = v;
        } else if (it->second != v) {
          Error(name + " differs between traced rounds: " + JsonNum(v) +
                " vs " + JsonNum(it->second));
        }
      }
      best.plain_ns = std::min(best.plain_ns, f.plain_ns);
      best.traced_ns = std::min(best.traced_ns, f.traced_ns);
      ++rounds;
      std::cout << (errors_.empty() ? "ok" : "error") << std::endl;
    }
    if (rounds < kMinRounds) {
      Error("only " + std::to_string(rounds) + " traced rounds ran");
      return;
    }
    for (const auto& [name, v] : best.times) Metric(name, v);
    for (const auto& [name, v] : best.counts) Metric(name, v);
    Metric("tracing.randomized_overhead_pct",
           100.0 * (static_cast<double>(best.traced_ns) /
                        static_cast<double>(best.plain_ns) -
                    1.0));
    Aux("rounds", std::to_string(rounds));
    if (!spans_out.empty() && !first.WriteTsv(spans_out)) {
      Error("could not write spans to " + spans_out);
    }
  }

  // One traced window per policy; each must reproduce its reference window
  // bitwise.
  void TracedPolicies(const std::vector<WindowResult>& refs,
                      SpanRecorder& rec, LayerFigures& f) {
    for (size_t i = 0; i < policies_.size(); ++i) {
      const Measured& m = policies_[i];
      const double timed = static_cast<double>(m.window->timed);
      attempted_ += m.window->timed;
      if (m.name == "randomized") {
        // Untraced window first, for the tracing overhead.
        Rep plain = MakeRep(trace_, m.name, kRoundingSeeds[0]);
        std::vector<int64_t> seg(kSegments);
        RunWindow(*plain.engine, m, &seg);
        f.plain_ns = 0;
        for (const int64_t ns : seg) f.plain_ns += ns;
        rec.set_enabled(true);
        RandomizedStack stack =
            BuildRandomizedStack(trace_.instance, kRoundingSeeds[0], rec);
        TraceSource source(trace_);
        Engine engine(source, *stack.top);
        rec.set_enabled(false);
        engine.RunFor(m.window->warm);
        const SimResult before = engine.result();
        const int64_t resets0 = stack.reset_evictions();
        rec.set_enabled(true);
        const int64_t t0 = NowNs();
        engine.RunFor(m.window->timed);
        f.traced_ns = NowNs() - t0;
        rec.set_enabled(false);
        Error(CheckSameWindow(refs[i], Diff(before, engine.result()),
                              "traced randomized"));
        const auto per_req = [&](const std::string& layer, bool self) {
          const int32_t id = rec.Layer(layer);
          return static_cast<double>(self ? rec.SelfNs(id) : rec.TotalNs(id)) /
                 timed;
        };
        f.times["core.fractional.serve_ns_per_req"] =
            per_req("core.fractional.serve", false);
        f.times["core.fractional.last_changed_ns_per_req"] =
            per_req("core.fractional.last_changed", false);
        f.times["core.discretize.self_ns_per_req"] =
            per_req("core.discretize.serve", true);
        f.times["core.rounding.self_ns_per_req"] =
            per_req("core.rounding", true);
        f.times["core.randomized.attach_ms"] =
            static_cast<double>(
                rec.TotalNs(rec.Layer("core.randomized.attach"))) /
            1e6;
        f.counts["core.fractional.changed_pages_per_req"] =
            static_cast<double>(
                rec.count(rec.Layer("core.fractional.changed_pages"))) /
            timed;
        f.counts["core.discretize.changed_pages_per_req"] =
            static_cast<double>(
                rec.count(rec.Layer("core.discretize.changed_pages"))) /
            timed;
        f.counts["core.rounding.reset_evictions_per_kreq"] =
            static_cast<double>(stack.reset_evictions() - resets0) * 1000.0 /
            timed;
        continue;
      }
      PolicyPtr inner = wmlp::MakePolicyByName(m.name, kRoundingSeeds[0]);
      TracedPolicy policy(*inner, rec, m.layer, m.layer + ".attach");
      TraceSource plain_source(trace_);
      TracedSource source(plain_source, rec, "trace.source");
      Engine engine(source, policy);
      engine.RunFor(m.window->warm);
      const SimResult before = engine.result();
      const int32_t engine_layer = rec.Layer("engine." + m.name);
      rec.set_enabled(true);
      {
        ScopedSpan span(rec, engine_layer);
        engine.RunFor(m.window->timed);
      }
      rec.set_enabled(false);
      Error(CheckSameWindow(refs[i], Diff(before, engine.result()),
                            "traced " + m.name));
      f.times[m.layer + ".serve_ns_per_req"] =
          static_cast<double>(rec.TotalNs(rec.Layer(m.layer))) / timed;
      if (m.name == "lru") {
        f.times["engine.self_ns_per_req"] =
            static_cast<double>(rec.SelfNs(engine_layer)) / timed;
      }
    }
  }

  // Reads the trace file again (the set-up read is the first sample).
  void TracedParse(const std::string& path, LayerFigures& f) {
    std::string err;
    const int64_t t0 = NowNs();
    const std::optional<Trace> again = wmlp::ReadTraceFile(path, &err);
    const int64_t ns = NowNs() - t0;
    if (!again || again->length() != trace_.length()) {
      Error("re-reading the trace file failed: " + err);
      return;
    }
    f.times["trace.parse_ns_per_req"] =
        static_cast<double>(ns) / static_cast<double>(trace_.length());
  }

  // Streams the file through an engine running lru; spans on the source's
  // pulls over lru's timed window give the streaming parser's cost.
  void TracedStream(const std::string& path, SpanRecorder& rec,
                    LayerFigures& f) {
    std::string err;
    auto file = wmlp::StreamingFileSource::Open(path, &err);
    if (file == nullptr) {
      Error("stream open: " + err);
      return;
    }
    TracedSource source(*file, rec, "trace.stream");
    PolicyPtr lru = wmlp::MakePolicyByName("lru", kRoundingSeeds[0]);
    Engine engine(source, *lru);
    engine.RunFor(w_.lru.warm);
    rec.set_enabled(true);
    const int64_t served = engine.RunFor(w_.lru.timed);
    rec.set_enabled(false);
    f.times["trace.stream_ns_per_req"] =
        static_cast<double>(rec.TotalNs(rec.Layer("trace.stream"))) /
        static_cast<double>(served);
  }

  // The sharded server in-process over the whole trace; its totals must
  // repeat between rounds and respect the MIN lower bound.
  void ServerLayer(LayerFigures& f) {
    wmlp::ServeOptions opts;
    opts.shards = kServeShards;
    opts.clients = kServeClients;
    opts.policy = "waterfill";
    opts.seed = kToolSeed;
    const wmlp::ServeReport report = wmlp::ServeTrace(trace_, opts);
    attempted_ += trace_.length();
    if (!serve_totals_) {
      serve_totals_ = report.totals;
      Error(CheckMinBound(report.totals.fetches, report.totals.evictions,
                          report.totals.eviction_cost,
                          MinFaults(trace_.length()), w_.k,
                          trace_.instance.min_weight()));
    } else if (report.totals.eviction_cost != serve_totals_->eviction_cost ||
               report.totals.fetches != serve_totals_->fetches) {
      Error("in-process serve totals differ between identical runs");
    }
    f.times["server.serve_ns_per_req"] =
        report.wall_seconds * 1e9 / static_cast<double>(trace_.length());
  }

  void AddAttempted(int64_t n) { attempted_ += n; }

  void Print(std::ostream& os) const {
    os << "{\"correct\": " << (errors_.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      os << (i ? ", " : "") << JsonStr(errors_[i]);
    }
    os << "], \"metrics\": {";
    bool first = true;
    for (const auto& [k, v] : metrics_) {
      os << (first ? "" : ", ") << JsonStr(k) << ": " << JsonNum(v);
      first = false;
    }
    os << "}, \"aux\": " << AuxJson() << "}\n";
  }

  std::string AuxJson() const {
    std::string out = "{";
    for (const auto& [k, v] : aux_) {
      out += (out.size() > 1 ? ", " : "") + JsonStr(k) + ": " + v;
    }
    return out + "}";
  }

 private:
  const Workload& w_;
  const Trace& trace_;
  std::vector<Measured> policies_;
  std::vector<std::string> errors_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> aux_;
  std::map<int64_t, int64_t> min_faults_;
  std::optional<SimResult> serve_totals_;  // first in-process serve
  int64_t attempted_ = 0;
};

// Every measured policy constructed and attached to a fresh engine over the
// in-memory trace: the second half of set-up.
std::vector<Rep> AttachAll(const Trace& trace,
                           const std::vector<Measured>& policies) {
  std::vector<Rep> reps;
  for (const Measured& p : policies) {
    reps.push_back(MakeRep(trace, p.name, kRoundingSeeds[0]));
  }
  return reps;
}

// Set-up alone: prints the seconds from --t0-ns, the CLOCK_MONOTONIC time
// at which the caller spawned this process, until the file is read and
// every policy attached. Each call is one more cold set-up.
int SetUp(const std::map<std::string, std::string>& args) {
  const Workload* w = FindWorkload(Arg(args, "workload"));
  if (w == nullptr) {
    std::cerr << "error: unknown workload\n";
    return 2;
  }
  const int64_t t0_ns = std::stoll(Arg(args, "t0-ns"));
  std::string err;
  const std::optional<Trace> trace = wmlp::ReadTraceFile(Arg(args, "file"),
                                                         &err);
  if (!trace) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  const Measurement m(*w, *trace);
  const std::vector<Rep> reps = AttachAll(*trace, m.policies());
  std::cout << JsonNum(static_cast<double>(NowNs() - t0_ns) * 1e-9) << "\n";
  return 0;
}

int Measure(const std::map<std::string, std::string>& args) {
  const Workload* w = FindWorkload(Arg(args, "workload"));
  if (w == nullptr) {
    std::cerr << "error: unknown workload\n";
    return 2;
  }
  const std::string path = Arg(args, "file");
  const bool traced = Arg(args, "trace") == "1";
  const int64_t t0_ns = std::stoll(Arg(args, "t0-ns"));

  // ---- Set-up: read the file, construct and Attach every policy. -------
  const int64_t parse_start = NowNs();
  std::string err;
  const std::optional<Trace> trace = wmlp::ReadTraceFile(path, &err);
  if (!trace) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  const double parse_ns_per_req =
      static_cast<double>(NowNs() - parse_start) /
      static_cast<double>(trace->length());
  Measurement m(*w, *trace);
  std::vector<Rep> setup_reps = AttachAll(*trace, m.policies());
  const double setup_s = static_cast<double>(NowNs() - t0_ns) * 1e-9;

  if (trace->instance.num_pages() != w->n ||
      trace->instance.cache_size() != w->k ||
      trace->length() != w->length) {
    m.Error("trace file does not match the workload's shape");
  }

  // ---- Correctness: checked reference windows. --------------------------
  std::vector<WindowResult> refs;
  for (const Measured& p : m.policies()) {
    refs.push_back(m.CheckedRun(p));
    m.AddAttempted(p.window->warm + p.window->timed);
  }
  // The whole-file engine run and MIN the tool outputs are checked against.
  {
    Rep full = MakeRep(*trace, "waterfill", kToolSeed);
    const SimResult r = full.engine->Run();
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.2f", r.eviction_cost);
    m.Aux("waterfill_file_cost", JsonStr(cost));
    m.Aux("waterfill_file_evictions", std::to_string(r.evictions));
    m.Aux("min_faults_file", std::to_string(m.MinFaults(trace->length())));
    m.Aux("requests", std::to_string(trace->length()));
    m.Aux("k", std::to_string(w->k));
    m.Aux("w_min", JsonNum(trace->instance.min_weight()));
    m.AddAttempted(trace->length());
  }

  if (!traced) {
    // Cost metrics: window cost per 1000 requests, averaged over the
    // rounding seeds (waterfill is deterministic: every seed gives refs[1]).
    double randomized_cost = refs[0].cost;
    for (size_t s = 1; s < std::size(kRoundingSeeds); ++s) {
      Rep rep = MakeRep(*trace, "randomized", kRoundingSeeds[s]);
      randomized_cost +=
          m.RunWindow(*rep.engine, m.policies()[0], nullptr).cost;
    }
    randomized_cost /= static_cast<double>(std::size(kRoundingSeeds));
    const double kreq_r = static_cast<double>(w->randomized.timed) / 1000.0;
    const double kreq_w = static_cast<double>(w->waterfill.timed) / 1000.0;
    m.Metric("setup_s", setup_s);
    m.Metric("randomized_cost_per_kreq", randomized_cost / kreq_r);
    m.Metric("waterfill_cost_per_kreq", refs[1].cost / kreq_w);
    if (m.errors().empty()) m.Timed(setup_reps, refs);
  } else if (m.errors().empty()) {
    const auto spans_out = args.find("spans-out");
    m.TracedRounds(refs, parse_ns_per_req, path,
                   spans_out == args.end() ? "" : spans_out->second);
  }
  m.Print(std::cout);
  return m.errors().empty() ? 0 : 1;
}

int Gen(const std::map<std::string, std::string>& args) {
  const Workload* w = FindWorkload(Arg(args, "workload"));
  if (w == nullptr) {
    std::cerr << "error: unknown workload\n";
    return 2;
  }
  const uint64_t seed = std::stoull(Arg(args, "seed"));
  const Trace trace = GenerateTrace(*w, seed);
  if (!wmlp::WriteTraceFile(trace, Arg(args, "out"))) {
    std::cerr << "error: could not write the trace\n";
    return 1;
  }
  return 0;
}

int SelfTestMain() {
  const std::vector<std::string> missed = SelfTest();
  for (const std::string& line : missed) std::cerr << "selftest: " << line
                                                   << "\n";
  std::cout << (missed.empty() ? "selftest ok" : "selftest FAILED") << "\n";
  return missed.empty() ? 0 : 1;
}

}  // namespace
}  // namespace wmlpbench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const auto args = wmlpbench::ParseArgs(argc, argv, 2);
  if (cmd == "gen") return wmlpbench::Gen(args);
  if (cmd == "measure") return wmlpbench::Measure(args);
  if (cmd == "setup") return wmlpbench::SetUp(args);
  if (cmd == "selftest") return wmlpbench::SelfTestMain();
  std::cerr << "usage: wmlpbench gen|measure|setup|selftest"
               " [--flag value ...]\n";
  return 2;
}
