// Seeded inputs of the two benchmark workloads (README.md here explains
// why each exists). Everything a run serves is built here, before any clock
// starts; the program only ever sees the generated source text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/generator.h"

namespace perfbench {

/// One translation unit as served, with the generator's labels attached by
/// line. Lines survive pragma stripping: `#pragma omp` lines are blanked,
/// not deleted, so each served loop keeps the line of its labeled original.
struct Source {
  std::string text;
  std::vector<std::pair<int, bool>> labels;  // (loop line, parallel), sorted
  std::optional<bool> label_at(int line) const;
};

struct Workload {
  unsigned clients = 1;
  std::vector<Source> sources;  // every distinct text the workload serves
  std::vector<std::size_t> warm;  // served once, untimed, before measuring
  /// Request streams as indices into `sources`. With `shared_lanes` every
  /// client pulls the next request from lanes[0]; otherwise client c owns
  /// lanes[c] (the edit session's developers edit disjoint files).
  std::vector<std::vector<std::size_t>> lanes;
  bool shared_lanes = true;
  /// Per lane entry: 1 when the request's text is served for the first
  /// time (a cache miss that carries frontend and model work), 0 when it
  /// repeats a published text (a full-result hit by construction).
  std::vector<std::vector<char>> cold;
  /// Prefix of the measured requests the traced run replays (the replay is
  /// single-threaded and runs every cold batch twice).
  std::size_t replay_requests = 0;

  std::size_t requests() const;
  /// The measured requests in replay order: the shared lane as is, or
  /// per-client lanes interleaved round-robin.
  std::vector<std::size_t> replay_order() const;
};

const std::vector<std::string>& workload_names();

/// Build a workload's inputs. `seconds` scales the request count (a fixed
/// rate per workload, calibrated on a 4-vCPU host); the inputs are a pure
/// function of (name, seed, seconds), so repeated runs serve identical work.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, int seconds);

/// Generator configuration for a workload seed. Never equal to the training
/// corpus seed, so served sources are not the training files.
g2p::GeneratorConfig workload_generator(std::uint64_t seed, double scale);

/// Blank every `#pragma omp` line (keeping its newline), so no label reaches
/// the program while line numbers stay put.
std::string strip_omp_pragmas(std::string_view labeled);

/// Label-preserving one-token edit: replace one decimal floating-point
/// literal found inside a loop body (outside any subscript and any loop
/// header) by `replacement`. A float literal can be neither an index nor a
/// trip count, so the dependence structure, and with it the generator's
/// label, is unchanged. `pick` chooses among the candidates. nullopt when
/// the text has no such literal.
std::optional<std::string> edit_float_literal(std::string_view source, std::uint64_t pick,
                                              std::string_view replacement);

/// Source positions (offset, length) of the literals edit_float_literal may
/// replace, in text order.
std::vector<std::pair<std::size_t, std::size_t>> editable_literals(std::string_view source);

}  // namespace perfbench
