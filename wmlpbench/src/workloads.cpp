#include "workloads.h"

#include "util/rng.h"

namespace wmlpbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;
    {
      // The reference multi-level shape: Algorithm 2 rounding over the
      // O(k)-per-request last_changed / discretization path.
      Workload w;
      w.name = "mlp-zipf";
      w.n = 4096;
      w.k = 1024;
      w.ell = 2;
      w.weights = wmlp::WeightModel::kGeometricLevels;
      w.weight_ratio = 8.0;
      w.level_mix = {0.5, 0.5};
      w.alpha = 0.8;
      w.length = 262144;
      w.randomized = {4096, 8192};
      w.waterfill = {4096, 258048};
      w.landlord = {4096, 131072};
      w.lru = {4096, 258048};
      all.push_back(w);
    }
    {
      // Single level, ~10 weight classes: Algorithm 1 with reset passes
      // across many classes and a many-group fractional solver.
      Workload w;
      w.name = "weighted-phases";
      w.n = 16384;
      w.k = 1024;
      w.ell = 1;
      w.weights = wmlp::WeightModel::kLogUniform;
      w.weight_ratio = 1000.0;
      w.level_mix = {1.0};
      w.alpha = 0.6;
      w.phase_ws = 1280;
      w.phase_len = 16384;
      w.length = 262144;
      w.randomized = {4096, 8192};
      w.waterfill = {4096, 258048};
      w.landlord = {4096, 131072};
      w.lru = {4096, 258048};
      all.push_back(w);
    }
    {
      // Writeback mix on a long file: parsing, the engine loop, Landlord's
      // victim scan and the sharded server carry the work.
      Workload w;
      w.name = "rw-stream";
      w.n = 65536;
      w.k = 2048;
      w.ell = 2;
      w.weights = wmlp::WeightModel::kGeometricLevels;
      w.weight_ratio = 10.0;
      w.level_mix = {0.3, 0.7};
      w.alpha = 0.9;
      w.length = 2097152;
      w.randomized = {8192, 4096};
      w.waterfill = {8192, 262144};
      w.landlord = {8192, 65536};
      w.lru = {8192, 262144};
      all.push_back(w);
    }
    return all;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

wmlp::Trace GenerateTrace(const Workload& w, uint64_t seed) {
  wmlp::Instance instance(
      w.n, w.k, w.ell,
      wmlp::MakeWeights(w.n, w.ell, w.weights, w.weight_ratio,
                        wmlp::DeriveSeed(seed, 1)));
  const wmlp::LevelMix mix{w.level_mix};
  const uint64_t request_seed = wmlp::DeriveSeed(seed, 2);
  if (w.phase_ws > 0) {
    return wmlp::GenPhases(std::move(instance), w.length, w.phase_ws,
                           w.phase_len, w.alpha, mix, request_seed);
  }
  return wmlp::GenZipf(std::move(instance), w.length, w.alpha, mix,
                       request_seed);
}

}  // namespace wmlpbench
