// Reference results and the per-response correctness check.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "workloads.h"

namespace perfbench {

/// What a served loop must match: the fields the repository's serving
/// equivalence gate compares (parallel flag, category, pragma text).
struct ExpectedLoop {
  int line = 0;
  bool parallel = false;
  g2p::PragmaCategory category = g2p::PragmaCategory::kNone;
  std::string pragma;
};

struct Expected {
  std::vector<ExpectedLoop> loops;
  /// Loops whose parallel verdict equals the generator's label.
  std::size_t label_agree = 0;
};

/// Reference for every source of `workload`: a cache-off, per-source
/// `Pipeline::suggest` on a clone of `trained`, spread over all hardware
/// threads. Throws if a source fails or a served loop has no generator label.
std::vector<Expected> compute_references(const g2p::Pipeline& trained, const Workload& workload);

/// True when `served` matches `expected` loop for loop.
bool matches(const Expected& expected, const std::vector<g2p::LoopSuggestion>& served);

}  // namespace perfbench
