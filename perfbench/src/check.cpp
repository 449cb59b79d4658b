#include "check.h"

#include <exception>
#include <memory>
#include <stdexcept>

#include "support/thread_pool.h"

namespace perfbench {

namespace {

Expected expect(const Source& source, const std::vector<g2p::LoopSuggestion>& suggestions) {
  Expected out;
  out.loops.reserve(suggestions.size());
  for (const auto& s : suggestions) {
    const auto label = source.label_at(s.line);
    if (!label) {
      throw std::logic_error("served loop at line " + std::to_string(s.line) +
                             " has no generator label");
    }
    out.label_agree += (*label == s.parallel) ? 1 : 0;
    out.loops.push_back(ExpectedLoop{s.line, s.parallel, s.category, s.suggested_pragma});
  }
  return out;
}

}  // namespace

std::vector<Expected> compute_references(const g2p::Pipeline& trained,
                                         const Workload& workload) {
  // Sources fan out over a private pool whose workers also run the model's
  // nested parallel work inline, so reference threads never queue on each
  // other's GEMM panels.
  auto pool = std::make_shared<g2p::ThreadPool>();
  g2p::Pipeline reference = trained.clone();
  reference.set_cache_bytes(0);
  reference.set_thread_pool(pool);
  std::vector<Expected> out(workload.sources.size());
  std::vector<std::exception_ptr> errors(out.size());
  pool->parallel_for(out.size(), [&](std::size_t i) {
    try {
      out[i] = expect(workload.sources[i], reference.suggest(workload.sources[i].text));
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

bool matches(const Expected& expected, const std::vector<g2p::LoopSuggestion>& served) {
  if (served.size() != expected.loops.size()) return false;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const ExpectedLoop& e = expected.loops[i];
    const g2p::LoopSuggestion& s = served[i];
    if (s.line != e.line || s.parallel != e.parallel || s.category != e.category ||
        s.suggested_pragma != e.pragma) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
