// The benchmark's workloads: how each trace is generated from a seed and
// which request windows each measured policy warms on and is timed over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/generators.h"
#include "trace/instance.h"

namespace wmlpbench {

// A policy's steady-state window: `warm` requests fill the cache untimed,
// the next `timed` requests are measured. Both are fixed per workload so
// every repetition serves exactly the same requests.
struct Window {
  int64_t warm = 0;
  int64_t timed = 0;
};

struct Workload {
  std::string name;
  int32_t n = 0;
  int32_t k = 0;
  int32_t ell = 1;
  wmlp::WeightModel weights = wmlp::WeightModel::kUniform;
  double weight_ratio = 1.0;
  std::vector<double> level_mix;  // P(level i), i = 1..ell
  double alpha = 0.8;             // Zipf exponent
  int32_t phase_ws = 0;           // > 0: phased working sets of this size
  int64_t phase_len = 0;
  int64_t length = 0;             // requests in the trace file
  Window randomized, waterfill, landlord, lru;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// The workload's trace for `seed`: weights and requests both derive from it.
wmlp::Trace GenerateTrace(const Workload& w, uint64_t seed);

}  // namespace wmlpbench
