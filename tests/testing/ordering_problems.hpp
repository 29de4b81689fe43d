// Seeded ordering instances shared by the ordering suites.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/ordering.hpp"
#include "util/rng.hpp"

namespace ccf::testing {

// A random sparse instance: `coflows` coflows over `links` ports (>= 1), each
// touching 1..4 ports with loads in [0.1, 8) and weight in [0.25, 4).
inline sched::OrderingProblem random_ordering_problem(std::uint64_t seed,
                                                      std::uint32_t coflows,
                                                      std::uint32_t links) {
  util::Pcg32 rng(util::derive_seed(seed, 131), 131);
  std::vector<double> caps(links);
  for (double& c : caps) c = rng.uniform(0.5, 2.0);
  sched::OrderingProblem p;
  p.reset(caps);
  std::vector<std::uint32_t> touched;
  std::vector<double> loads;
  for (std::uint32_t c = 0; c < coflows; ++c) {
    touched.clear();
    loads.clear();
    const std::uint32_t fan = 1 + rng.bounded(4);
    for (std::uint32_t f = 0; f < fan; ++f) {
      const std::uint32_t link = rng.bounded(links);
      if (std::ranges::find(touched, link) != touched.end()) continue;
      touched.push_back(link);
      loads.push_back(rng.uniform(0.1, 8.0));
    }
    p.add_coflow(rng.uniform(0.25, 4.0), touched, loads);
  }
  return p;
}

}  // namespace ccf::testing
