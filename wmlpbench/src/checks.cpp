#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <queue>

#include "util/rng.h"

namespace wmlpbench {

using wmlp::Cost;
using wmlp::Level;
using wmlp::PageId;
using wmlp::Request;
using wmlp::Time;

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

CheckingObserver::CheckingObserver(const wmlp::Instance& instance)
    : instance_(instance),
      level_(static_cast<size_t>(instance.num_pages()), 0) {}

void CheckingObserver::Fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

void CheckingObserver::OnFetch(Time t, PageId p, Level level, Cost) {
  ++fetches_;
  if (!instance_.valid_page(p) || !instance_.valid_level(level)) {
    Fail("t=" + std::to_string(t) + ": fetch of invalid copy");
    return;
  }
  Level& cur = level_[static_cast<size_t>(p)];
  if (cur != 0) {
    Fail("t=" + std::to_string(t) + ": page " + std::to_string(p) +
         " fetched at level " + std::to_string(level) +
         " while a copy at level " + std::to_string(cur) + " is resident");
    return;
  }
  cur = level;
  ++resident_;
}

void CheckingObserver::OnEvict(Time t, PageId p, Level level, Cost) {
  ++evictions_;
  if (!instance_.valid_page(p)) {
    Fail("t=" + std::to_string(t) + ": eviction of invalid page");
    return;
  }
  Level& cur = level_[static_cast<size_t>(p)];
  if (cur == 0 || cur != level) {
    Fail("t=" + std::to_string(t) + ": eviction of copy (" +
         std::to_string(p) + ", " + std::to_string(level) +
         ") that the model does not hold");
    return;
  }
  eviction_cost_ += instance_.weight(p, cur);
  cur = 0;
  --resident_;
}

void CheckingObserver::OnStep(Time t, const Request& r, bool) {
  if (resident_ > instance_.cache_size()) {
    Fail("t=" + std::to_string(t) + ": " + std::to_string(resident_) +
         " copies resident, capacity " +
         std::to_string(instance_.cache_size()));
  }
  const Level cur = instance_.valid_page(r.page)
                        ? level_[static_cast<size_t>(r.page)]
                        : 0;
  if (cur == 0 || cur > r.level) {
    Fail("t=" + std::to_string(t) + ": request (" + std::to_string(r.page) +
         ", " + std::to_string(r.level) + ") not served (model level " +
         std::to_string(cur) + ")");
  }
}

std::string CheckingObserver::Verify(const wmlp::SimResult& engine_result,
                                     int32_t engine_resident) const {
  if (!error_.empty()) return error_;
  if (eviction_cost_ != engine_result.eviction_cost) {
    return "recomputed eviction cost " + Num(eviction_cost_) +
           " != engine eviction cost " + Num(engine_result.eviction_cost);
  }
  if (fetches_ != engine_result.fetches ||
      evictions_ != engine_result.evictions) {
    return "observed fetch/evict counts " + std::to_string(fetches_) + "/" +
           std::to_string(evictions_) + " != engine counts " +
           std::to_string(engine_result.fetches) + "/" +
           std::to_string(engine_result.evictions);
  }
  if (fetches_ - evictions_ != resident_ ||
      engine_resident != resident_) {
    return "fetches - evictions = " + std::to_string(fetches_ - evictions_) +
           " but model holds " + std::to_string(resident_) +
           " copies and engine holds " + std::to_string(engine_resident);
  }
  return "";
}

int64_t BeladyMinFaults(std::span<const Request> reqs, int32_t num_pages,
                        int32_t k) {
  const size_t len = reqs.size();
  std::vector<int64_t> next_use(len);
  std::vector<int64_t> last(static_cast<size_t>(num_pages),
                            static_cast<int64_t>(len));
  for (size_t t = len; t-- > 0;) {
    const size_t p = static_cast<size_t>(reqs[t].page);
    next_use[t] = last[p];
    last[p] = static_cast<int64_t>(t);
  }
  // Max-heap of (next use, page) with lazy deletion: an entry is live iff
  // it matches the page's current next use.
  std::priority_queue<std::pair<int64_t, PageId>> heap;
  std::vector<int64_t> key(static_cast<size_t>(num_pages), -1);
  int32_t resident = 0;
  int64_t faults = 0;
  for (size_t t = 0; t < len; ++t) {
    const PageId p = reqs[t].page;
    const size_t sp = static_cast<size_t>(p);
    if (key[sp] < 0) {
      ++faults;
      if (resident == k) {
        while (true) {
          const auto [nu, q] = heap.top();
          heap.pop();
          if (key[static_cast<size_t>(q)] == nu) {
            key[static_cast<size_t>(q)] = -1;
            break;
          }
        }
      } else {
        ++resident;
      }
    }
    key[sp] = next_use[t];
    heap.push({next_use[t], p});
  }
  return faults;
}

std::string CheckMinBound(int64_t fetches, int64_t evictions, double cost,
                          int64_t min_faults, int32_t k, double w_min,
                          double cost_slack) {
  if (fetches >= 0 && fetches < min_faults) {
    return "fetches " + std::to_string(fetches) + " below Belady MIN faults " +
           std::to_string(min_faults);
  }
  const int64_t forced = std::max<int64_t>(0, min_faults - k);
  if (evictions < forced) {
    return "evictions " + std::to_string(evictions) +
           " below MIN faults - k = " + std::to_string(forced);
  }
  const double floor = w_min * static_cast<double>(forced);
  if (cost + cost_slack < floor) {
    return "eviction cost " + Num(cost) + " below w_min * (MIN - k) = " +
           Num(floor);
  }
  return "";
}

std::string CheckFractionalLp(const wmlp::Instance& instance,
                              const wmlp::FractionalPolicy& inner,
                              const wmlp::FractionalPolicy& snapped,
                              const Request& request) {
  const int32_t n = instance.num_pages();
  const int32_t ell = instance.num_levels();
  const double need = static_cast<double>(n - instance.cache_size());
  const double tol = 1e-7 * std::max(1.0, need);
  const wmlp::FractionalPolicy* views[2] = {&inner, &snapped};
  const char* view_names[2] = {"inner", "snapped"};
  for (int v = 0; v < 2; ++v) {
    const wmlp::FractionalPolicy& f = *views[v];
    double absent = 0.0;
    for (PageId p = 0; p < n; ++p) {
      double prev = 1.0;
      for (Level i = 1; i <= ell; ++i) {
        const double u = f.U(p, i);
        if (!(u >= -1e-12 && u <= 1.0 + 1e-12)) {
          return std::string(view_names[v]) + " u(" + std::to_string(p) +
                 ", " + std::to_string(i) + ") = " + Num(u) +
                 " outside [0, 1]";
        }
        if (u > prev + 1e-12) {
          return std::string(view_names[v]) + " ordering violated at page " +
                 std::to_string(p) + " level " + std::to_string(i);
        }
        prev = u;
      }
      absent += prev;
    }
    if (absent < need - tol) {
      return std::string(view_names[v]) + " capacity violated: sum u = " +
             Num(absent) + " < n - k = " + Num(need);
    }
    if (!(f.U(request.page, request.level) <= 0.0)) {
      return std::string(view_names[v]) + " requested copy (" +
             std::to_string(request.page) + ", " +
             std::to_string(request.level) + ") has u = " +
             Num(f.U(request.page, request.level));
    }
  }
  for (PageId p = 0; p < n; ++p) {
    for (Level i = 1; i <= ell; ++i) {
      if (snapped.U(p, i) < inner.U(p, i) - 1e-12) {
        return "snapped u(" + std::to_string(p) + ", " + std::to_string(i) +
               ") = " + Num(snapped.U(p, i)) + " below inner u = " +
               Num(inner.U(p, i));
      }
    }
  }
  return "";
}

std::string CheckWindowEvicts(int64_t evictions, int64_t floor) {
  if (evictions < floor) {
    return "timed window evicted " + std::to_string(evictions) +
           " times, floor " + std::to_string(floor) +
           " (cache not in steady state)";
  }
  return "";
}

std::string CheckFractionalFull(const wmlp::Instance& instance,
                                const wmlp::FractionalPolicy& inner) {
  const double need =
      static_cast<double>(instance.num_pages() - instance.cache_size());
  double absent = 0.0;
  for (PageId p = 0; p < instance.num_pages(); ++p) {
    absent += inner.U(p, instance.num_levels());
  }
  if (absent > need + 1e-7 * std::max(1.0, need)) {
    return "fractional cache not full: sum u = " + Num(absent) +
           " > n - k = " + Num(need);
  }
  return "";
}

std::string CheckSameWindow(const WindowResult& expected,
                            const WindowResult& got, const std::string& what) {
  if (expected == got) return "";
  return what + ": window cost/evictions/fetches/hits " + Num(got.cost) + "/" +
         std::to_string(got.evictions) + "/" + std::to_string(got.fetches) +
         "/" + std::to_string(got.hits) + " differ from " +
         Num(expected.cost) + "/" + std::to_string(expected.evictions) + "/" +
         std::to_string(expected.fetches) + "/" +
         std::to_string(expected.hits);
}

// ---- Self-test ------------------------------------------------------------

namespace {

// A fractional solution with settable values, for corrupting the LP check.
class FakeFractional final : public wmlp::FractionalPolicy {
 public:
  FakeFractional(int32_t n, int32_t ell)
      : ell_(ell), u_(static_cast<size_t>(n * ell), 1.0) {}
  void Attach(const wmlp::Instance&) override {}
  void Serve(Time, const Request&) override {}
  double U(PageId p, Level i) const override {
    return u_[static_cast<size_t>(p * ell_ + i - 1)];
  }
  void Set(PageId p, Level i, double v) {
    u_[static_cast<size_t>(p * ell_ + i - 1)] = v;
  }
  const std::vector<PageId>& last_changed() const override { return none_; }
  Cost lp_cost() const override { return 0.0; }
  std::string name() const override { return "fake"; }

 private:
  int32_t ell_;
  std::vector<double> u_;
  std::vector<PageId> none_;
};

// Exact minimum number of page faults by search over every eviction
// choice (tiny inputs only).
int64_t ExhaustiveMinFaults(const std::vector<Request>& reqs, int32_t k) {
  std::map<std::pair<size_t, uint32_t>, int64_t> memo;
  std::function<int64_t(size_t, uint32_t)> go = [&](size_t t,
                                                    uint32_t cache) {
    if (t == reqs.size()) return int64_t{0};
    const auto key = std::make_pair(t, cache);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const uint32_t bit = 1u << reqs[t].page;
    int64_t best;
    if (cache & bit) {
      best = go(t + 1, cache);
    } else if (__builtin_popcount(cache) < k) {
      best = 1 + go(t + 1, cache | bit);
    } else {
      best = std::numeric_limits<int64_t>::max();
      for (uint32_t v = cache; v != 0; v &= v - 1) {
        const uint32_t victim = v & (~v + 1);
        best = std::min(best, 1 + go(t + 1, (cache & ~victim) | bit));
      }
    }
    memo[key] = best;
    return best;
  };
  return go(0, 0);
}

}  // namespace

std::vector<std::string> SelfTest() {
  std::vector<std::string> missed;
  const auto expect_fires = [&](const std::string& err,
                                const std::string& what) {
    if (err.empty()) missed.push_back(what + ": check did not fire");
  };
  const auto expect_passes = [&](const std::string& err,
                                 const std::string& what) {
    if (!err.empty()) missed.push_back(what + ": clean input rejected: " + err);
  };

  // Instance: 4 pages, k = 2, ell = 2, w(p, 1) = 4, w(p, 2) = 1.
  const wmlp::Instance inst(4, 2, 2, {{4, 1}, {4, 1}, {4, 1}, {4, 1}});
  {
    CheckingObserver obs(inst);  // clean stream
    obs.OnFetch(0, 0, 2, 1);
    obs.OnStep(0, Request{0, 2}, false);
    obs.OnFetch(1, 1, 1, 4);
    obs.OnStep(1, Request{1, 1}, false);
    obs.OnEvict(2, 0, 2, 1);
    obs.OnFetch(2, 2, 2, 1);
    obs.OnStep(2, Request{2, 2}, false);
    wmlp::SimResult ok;
    ok.eviction_cost = 1.0;
    ok.fetches = 3;
    ok.evictions = 1;
    expect_passes(obs.Verify(ok, 2), "clean event stream");
    wmlp::SimResult wrong_cost = ok;
    wrong_cost.eviction_cost = 1.5;
    expect_fires(obs.Verify(wrong_cost, 2), "wrong engine eviction cost");
    expect_fires(obs.Verify(ok, 3), "engine resident count mismatch");
  }
  {
    CheckingObserver obs(inst);  // over-full: three copies with k = 2
    obs.OnFetch(0, 0, 2, 1);
    obs.OnFetch(0, 1, 2, 1);
    obs.OnFetch(0, 2, 2, 1);
    obs.OnStep(0, Request{2, 2}, false);
    expect_fires(obs.error(), "over-full event stream");
  }
  {
    CheckingObserver obs(inst);  // two copies of one page
    obs.OnFetch(0, 0, 2, 1);
    obs.OnFetch(0, 0, 1, 4);
    expect_fires(obs.error(), "second copy of a page");
  }
  {
    CheckingObserver obs(inst);  // (0, 1) requested, only (0, 2) cached
    obs.OnFetch(0, 0, 2, 1);
    obs.OnStep(0, Request{0, 1}, false);
    expect_fires(obs.error(), "request served by a too-low copy");
  }
  {
    CheckingObserver obs(inst);  // evicting a copy that is not resident
    obs.OnEvict(0, 3, 2, 1);
    expect_fires(obs.error(), "eviction of a non-resident copy");
  }
  {
    CheckingObserver obs(inst);  // fetch/evict imbalance vs engine totals
    obs.OnFetch(0, 0, 2, 1);
    obs.OnStep(0, Request{0, 2}, false);
    wmlp::SimResult claimed;
    claimed.fetches = 2;
    expect_fires(obs.Verify(claimed, 1), "fetch count mismatch");
  }

  // Belady MIN: 0 1 2 0 1 2 0 1 2 with k = 2 faults exactly 6 times.
  {
    std::vector<Request> cyc;
    for (int i = 0; i < 9; ++i) cyc.push_back(Request{i % 3, 1});
    const int64_t min = BeladyMinFaults(cyc, 3, 2);
    if (min != 6) missed.push_back("MIN of the 3-cycle is " +
                                   std::to_string(min) + ", expected 6");
    expect_passes(CheckMinBound(6, 4, 4.0, 6, 2, 1.0), "MIN bound at MIN");
    expect_fires(CheckMinBound(5, 4, 4.0, 6, 2, 1.0),
                 "fetches below MIN faults");
    expect_fires(CheckMinBound(6, 3, 4.0, 6, 2, 1.0),
                 "evictions below MIN - k");
    expect_fires(CheckMinBound(6, 4, 3.5, 6, 2, 1.0),
                 "cost below w_min * (MIN - k)");
  }
  {
    wmlp::Rng rng(7);
    for (int round = 0; round < 40; ++round) {
      std::vector<Request> reqs;
      const int len = 6 + static_cast<int>(rng.NextInt(0, 6));
      for (int i = 0; i < len; ++i) {
        reqs.push_back(Request{static_cast<PageId>(rng.NextInt(0, 4)), 1});
      }
      const int32_t k = 1 + static_cast<int32_t>(rng.NextInt(0, 2));
      const int64_t got = BeladyMinFaults(reqs, 5, k);
      const int64_t want = ExhaustiveMinFaults(reqs, k);
      if (got != want) {
        missed.push_back("Belady MIN " + std::to_string(got) +
                         " != exhaustive optimum " + std::to_string(want));
        break;
      }
    }
  }

  // LP checks on n = 4, k = 2, ell = 2; the clean state has pages 0 and 1
  // fully cached at level 1 (u = 0) and pages 2, 3 absent (u = 1).
  {
    FakeFractional inner(4, 2), snapped(4, 2);
    for (Level i = 1; i <= 2; ++i) {
      inner.Set(0, i, 0.0);
      inner.Set(1, i, 0.0);
      snapped.Set(0, i, 0.0);
      snapped.Set(1, i, 0.0);
    }
    const Request req{0, 2};
    expect_passes(CheckFractionalLp(inst, inner, snapped, req), "clean LP");
    FakeFractional cap = snapped;  // sum u(p, ell) = 1.5 < n - k = 2
    cap.Set(3, 2, 0.5);
    expect_fires(CheckFractionalLp(inst, inner, cap, req),
                 "capacity violation");
    FakeFractional order = snapped;  // u(2, 1) < u(2, 2)
    order.Set(2, 1, 0.5);
    expect_fires(CheckFractionalLp(inst, inner, order, req),
                 "ordering violation");
    FakeFractional served = snapped;  // requested copy not fully cached
    served.Set(0, 2, 0.25);
    served.Set(0, 1, 0.25);
    expect_fires(CheckFractionalLp(inst, inner, served, req),
                 "requested copy with u > 0");
    FakeFractional inner_up = inner;  // snapped below inner
    inner_up.Set(1, 1, 0.125);
    expect_fires(CheckFractionalLp(inst, inner_up, snapped, Request{0, 2}),
                 "snapped below inner");
  }

  {
    FakeFractional full(4, 2);  // pages 0, 1 cached: sum u = 2 = n - k
    for (Level i = 1; i <= 2; ++i) {
      full.Set(0, i, 0.0);
      full.Set(1, i, 0.0);
    }
    expect_passes(CheckFractionalFull(inst, full), "full fractional cache");
    FakeFractional part = full;  // page 1 half absent: sum u = 2.5
    part.Set(1, 1, 0.5);
    part.Set(1, 2, 0.5);
    expect_fires(CheckFractionalFull(inst, part),
                 "fractional cache not full");
  }

  expect_passes(CheckWindowEvicts(10, 10), "window at the floor");
  expect_fires(CheckWindowEvicts(0, 1), "window that never evicts");

  const WindowResult a{12.5, 3, 4, 5};
  WindowResult b = a;
  expect_passes(CheckSameWindow(a, b, "identical"), "identical windows");
  b.cost = 12.500000000000002;
  expect_fires(CheckSameWindow(a, b, "cost drift"), "window cost drift");
  return missed;
}

}  // namespace wmlpbench
