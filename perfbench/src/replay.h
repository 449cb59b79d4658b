// Traced replay: the workload's requests, batched as the server batched
// them, through Pipeline::suggest_batch_results on a one-thread pool, with
// each layer's public functions replayed and timed around the call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "core/pipeline.h"
#include "workloads.h"

namespace perfbench {

/// Replayed layer spans may exceed the measured pipeline.batch_ms by at most
/// this share before the replay counts as not doing what serving does.
inline constexpr double kReconcileTolerance = 0.05;

struct ReplayOptions {
  std::size_t batch_size = 1;    // requests per replayed batch
  std::size_t max_requests = 0;  // replay prefix of the measured requests
  std::string spans_path;        // where to write the spans ("" = nowhere)
};

struct ReplayResult {
  std::map<std::string, double> metrics;  // per-layer metrics by name
  double cpu_s = 0.0;                     // process CPU time of the replay
  double wall_s = 0.0;
  std::size_t loops = 0;                  // loops the replayed batches served
  std::size_t requests = 0;               // replayed requests
  std::size_t planned_hits = 0;           // of which repeat a published text
  std::vector<std::string> errors;        // reconciliation / divergence failures
};

/// Replay on `pipeline` (its cache is cleared and its pool replaced by a
/// one-thread pool). `expected` is the workload's reference.
ReplayResult replay(g2p::Pipeline& pipeline, const Workload& workload,
                    const std::vector<Expected>& expected, const ReplayOptions& options);

}  // namespace perfbench
