// Correctness checks that do not trust the program under test: an
// independent cache model fed by the engine's fetch/evict events, a
// Belady MIN lower bound, and the fractional LP constraints read through
// the public FractionalPolicy::U interface. Every check reports a
// human-readable error; an empty string means it passed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/fractional.h"
#include "sim/simulator.h"
#include "sim/step_observer.h"
#include "trace/instance.h"

namespace wmlpbench {

// Keeps its own copy-per-page model from OnFetch/OnEvict and checks, after
// each served request (single-step engine runs: OnStep), that at most k
// copies are resident, that no page holds two copies, and that the request
// is served by a copy at a level no higher than the one requested. It also
// recomputes eviction cost from the instance's weights.
class CheckingObserver final : public wmlp::StepObserver {
 public:
  explicit CheckingObserver(const wmlp::Instance& instance);

  void OnFetch(wmlp::Time t, wmlp::PageId p, wmlp::Level level,
               wmlp::Cost w) override;
  void OnEvict(wmlp::Time t, wmlp::PageId p, wmlp::Level level,
               wmlp::Cost w) override;
  void OnStep(wmlp::Time t, const wmlp::Request& r, bool hit) override;

  // Compares the model's totals with the engine's: recomputed eviction
  // cost must equal the engine's, and fetches - evictions must equal both
  // the model's and the engine's resident count.
  std::string Verify(const wmlp::SimResult& engine_result,
                     int32_t engine_resident) const;

  const std::string& error() const { return error_; }

 private:
  void Fail(const std::string& message);

  const wmlp::Instance& instance_;
  std::vector<wmlp::Level> level_;  // 0 = absent
  int32_t resident_ = 0;
  int64_t fetches_ = 0;
  int64_t evictions_ = 0;
  wmlp::Cost eviction_cost_ = 0.0;
  std::string error_;
};

// Number of page faults of Belady's MIN (farthest-in-future) on the page
// sequence of `reqs` with a cache of `k` pages, ignoring levels. Any policy
// must fetch at least this often, since every miss on a page is a fetch.
int64_t BeladyMinFaults(std::span<const wmlp::Request> reqs,
                        int32_t num_pages, int32_t k);

// Fetches >= MIN faults, evictions >= MIN faults - k, and eviction cost
// >= w_min * (MIN faults - k). `fetches` < 0 skips the fetch test (for
// outputs that do not report it); `cost_slack` absorbs printed rounding.
std::string CheckMinBound(int64_t fetches, int64_t evictions, double cost,
                          int64_t min_faults, int32_t k, double w_min,
                          double cost_slack = 0.0);

// The fractional LP at the current step, read from outside: capacity
// sum_p u(p, ell) >= n - k, ordering u(p, i-1) >= u(p, i), the requested
// copy u(p_t, i_t) = 0, for both the inner solution and its discretized
// view, and snapped u >= inner u everywhere. Values may stray from [0, 1]
// by 1e-12 (the solver's exponential updates round at that scale).
std::string CheckFractionalLp(const wmlp::Instance& instance,
                              const wmlp::FractionalPolicy& inner,
                              const wmlp::FractionalPolicy& snapped,
                              const wmlp::Request& request);

// A timed window that never evicts measured the wrong regime.
std::string CheckWindowEvicts(int64_t evictions, int64_t floor);

// The fractional cache is full: sum_p u(p, ell) is within tolerance of
// n - k, so the solver is evicting at every miss. (The rounded cache of the
// randomized policy holds fewer than k copies by design; the fractional
// solution it follows is what fills.)
std::string CheckFractionalFull(const wmlp::Instance& instance,
                                const wmlp::FractionalPolicy& inner);

// Window outcome of one run of a policy; identical repetitions and the
// traced run must agree bitwise.
struct WindowResult {
  double cost = 0.0;
  int64_t evictions = 0;
  int64_t fetches = 0;
  int64_t hits = 0;
  friend bool operator==(const WindowResult&, const WindowResult&) = default;
};
std::string CheckSameWindow(const WindowResult& expected,
                            const WindowResult& got, const std::string& what);

// Runs every check above on corrupted inputs and returns one line per check
// that failed to fire (empty when all fired), plus a MIN cross-check
// against exhaustive search on small sequences.
std::vector<std::string> SelfTest();

}  // namespace wmlpbench
