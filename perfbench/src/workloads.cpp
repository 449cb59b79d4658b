#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "frontend/loop_extractor.h"
#include "frontend/parser.h"
#include "support/rng.h"

namespace perfbench {

namespace {

// Requests per second of --seconds, calibrated on a 4-vCPU host under
// hypervisor steal; a quiet host serves them in one half to three quarters
// of that time. Fixed constants: the work is the same on every run and every
// commit; only the time it takes is measured.
constexpr double kScanSourcesPerSecond = 320.0;
constexpr double kEditRequestsPerSecond = 600.0;

// A unit is at least 32 loops and 8 KB +- 0.5 KB of source. The size window
// keeps unit cost alike across seeds: the edit session concentrates its
// misses on a few hot units, so one large unit would otherwise move a run.
constexpr int kLoopsPerUnit = 32;
constexpr std::size_t kUnitMinBytes = 7680;
constexpr std::size_t kUnitMaxBytes = 8704;
constexpr std::size_t kEditUnits = 32;   // files open in the edit session
constexpr double kEditShare = 0.25;      // saves that carry an edit
constexpr double kEditSkew = 1.2;        // Zipf exponent of file choice
constexpr std::size_t kWarmScanUnits = 16;

// Generated files per unit of GeneratorConfig::scale (Table 1 totals).
constexpr double kFilesPerScale = 30000.0;

/// A generated file, pragma-stripped, with its labels by (file-local) line.
struct PoolFile {
  std::string text;
  std::vector<std::pair<int, bool>> labels;
};

int count_lines(std::string_view text) {
  return static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

/// Generate files and label them from their own pragmas. Unparseable files
/// are dropped, as build_corpus drops them.
std::vector<PoolFile> make_pool(std::uint64_t seed, std::size_t min_files) {
  const double scale = static_cast<double>(min_files) / kFilesPerScale * 1.1 + 0.01;
  const auto files = g2p::CorpusGenerator(workload_generator(seed, scale)).generate_files();
  std::vector<PoolFile> pool;
  pool.reserve(files.size());
  for (const auto& file : files) {
    PoolFile out;
    try {
      const auto parsed = g2p::parse_translation_unit(file.source);
      for (const auto& loop : g2p::extract_loops(*parsed.tu)) {
        out.labels.emplace_back(loop.loop->line, loop.labeled_parallel());
      }
    } catch (const std::exception&) {
      continue;
    }
    if (out.labels.empty()) continue;
    std::sort(out.labels.begin(), out.labels.end());
    out.text = strip_omp_pragmas(file.source);
    pool.push_back(std::move(out));
  }
  if (pool.size() < min_files) {
    throw std::runtime_error("workload generator produced too few files");
  }
  return pool;
}

/// Concatenate randomly chosen pool files into one translation unit of at
/// least kLoopsPerUnit loops; labels shift with each file's line offset.
Source make_unit(const std::vector<PoolFile>& pool, g2p::Rng& rng) {
  Source unit;
  int line_offset = 0;
  std::size_t loops = 0;
  std::unordered_set<std::size_t> used;
  while (loops < static_cast<std::size_t>(kLoopsPerUnit)) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    if (!used.insert(i).second) continue;
    const PoolFile& file = pool[i];
    unit.text += file.text;
    if (unit.text.back() != '\n') unit.text += '\n';
    for (const auto& [line, parallel] : file.labels) {
      unit.labels.emplace_back(line + line_offset, parallel);
    }
    line_offset = count_lines(unit.text);
    loops += file.labels.size();
  }
  return unit;
}

/// Distinct units (by text) inside the size window until `count`,
/// optionally requiring an editable literal in each.
std::vector<Source> make_units(const std::vector<PoolFile>& pool, g2p::Rng& rng,
                               std::size_t count, bool editable) {
  std::vector<Source> units;
  std::unordered_set<std::string> seen;
  while (units.size() < count) {
    Source unit = make_unit(pool, rng);
    if (unit.text.size() < kUnitMinBytes || unit.text.size() > kUnitMaxBytes) continue;
    if (editable && editable_literals(unit.text).empty()) continue;
    if (!seen.insert(unit.text).second) continue;
    units.push_back(std::move(unit));
  }
  return units;
}

std::size_t scaled_count(double per_second, int seconds) {
  return static_cast<std::size_t>(std::llround(per_second * std::max(seconds, 1)));
}

Workload project_scan(std::uint64_t seed, int seconds) {
  Workload w;
  w.clients = 4;
  w.replay_requests = 256;
  const std::size_t count = scaled_count(kScanSourcesPerSecond, seconds) + kWarmScanUnits;
  const auto pool = make_pool(seed, 2048);
  g2p::Rng rng(seed ^ 0x5ca77a11ull);
  w.sources = make_units(pool, rng, count, false);
  w.lanes.resize(1);
  for (std::size_t i = 0; i < w.sources.size(); ++i) {
    (i < kWarmScanUnits ? w.warm : w.lanes[0]).push_back(i);
  }
  return w;
}

Workload edit_session(std::uint64_t seed, int seconds) {
  Workload w;
  w.clients = 2;
  w.shared_lanes = false;
  w.replay_requests = 1024;
  const auto pool = make_pool(seed, 2048);
  g2p::Rng rng(seed ^ 0xed17ed17ull);
  w.sources = make_units(pool, rng, kEditUnits, true);
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < w.sources.size(); ++i) {
    w.warm.push_back(i);
    seen.insert(w.sources[i].text);
  }
  // Each developer owns half of the files and saves them with a Zipf skew;
  // a save either repeats the file's current version (a full-result hit) or
  // carries a fresh one-literal edit (a miss that publishes).
  const std::size_t per_dev = kEditUnits / w.clients;
  const std::size_t per_lane = scaled_count(kEditRequestsPerSecond, seconds) / w.clients;
  std::vector<double> weights(per_dev);
  for (std::size_t r = 0; r < per_dev; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kEditSkew);
  }
  std::uint64_t edits = 0;
  w.lanes.resize(w.clients);
  for (unsigned dev = 0; dev < w.clients; ++dev) {
    std::vector<std::size_t> current(per_dev);
    for (std::size_t f = 0; f < per_dev; ++f) current[f] = dev * per_dev + f;
    rng.shuffle(current);  // which file is the hot one
    for (std::size_t n = 0; n < per_lane; ++n) {
      const std::size_t f = rng.weighted_index(weights);
      if (!rng.chance(kEditShare)) {
        w.lanes[dev].push_back(current[f]);
        continue;
      }
      const Source& base = w.sources[current[f]];
      std::optional<std::string> edited;
      while (!edited || !seen.insert(*edited).second) {
        edited = edit_float_literal(base.text, rng.next_u64(),
                                    std::to_string(10 + edits++) + ".5");
        if (!edited) throw std::logic_error("edit_session unit lost its editable literals");
      }
      w.sources.push_back(Source{std::move(*edited), base.labels});
      current[f] = w.sources.size() - 1;
      w.lanes[dev].push_back(current[f]);
    }
  }
  return w;
}

bool is_ident(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Minimal C token: enough structure to find loop headers, bodies and
/// subscripts in generated code.
struct Tok {
  std::size_t pos = 0;
  std::size_t len = 0;
  char kind = 0;  // 'i' identifier, 'n' number, 'p' punctuation
};

std::vector<Tok> tokenize(std::string_view s) {
  std::vector<Tok> toks;
  std::size_t i = 0;
  bool line_start = true;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '\n') {
      line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (line_start && c == '#') {  // preprocessor line
      while (i < s.size() && s[i] != '\n') ++i;
      continue;
    }
    line_start = false;
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
      while (i < s.size() && s[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
      const auto end = s.find("*/", i + 2);
      i = end == std::string_view::npos ? s.size() : end + 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < s.size() && s[j] != c) j += (s[j] == '\\') ? 2 : 1;
      i = std::min(j + 1, s.size());
      continue;
    }
    const std::size_t start = i;
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < s.size() && std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
      while (i < s.size() && (is_ident(s[i]) || s[i] == '.' ||
                              ((s[i] == '+' || s[i] == '-') &&
                               (s[i - 1] == 'e' || s[i - 1] == 'E')))) {
        ++i;
      }
      toks.push_back(Tok{start, i - start, 'n'});
    } else if (is_ident(c)) {
      while (i < s.size() && is_ident(s[i])) ++i;
      toks.push_back(Tok{start, i - start, 'i'});
    } else {
      toks.push_back(Tok{start, 1, 'p'});
      ++i;
    }
  }
  return toks;
}

bool is_plain_decimal_float(std::string_view t) {
  const auto dot = t.find('.');
  if (dot == std::string_view::npos || t.find('.', dot + 1) != std::string_view::npos) {
    return false;
  }
  return std::all_of(t.begin(), t.end(), [](char c) {
    return c == '.' || std::isdigit(static_cast<unsigned char>(c));
  });
}

}  // namespace

std::optional<bool> Source::label_at(int line) const {
  const auto it = std::lower_bound(labels.begin(), labels.end(), std::make_pair(line, false));
  if (it == labels.end() || it->first != line) return std::nullopt;
  return it->second;
}

std::size_t Workload::requests() const {
  std::size_t n = 0;
  for (const auto& lane : lanes) n += lane.size();
  return n;
}

std::vector<std::size_t> Workload::replay_order() const {
  std::vector<std::size_t> order;
  order.reserve(requests());
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (const auto& lane : lanes) {
      if (k < lane.size()) {
        order.push_back(lane[k]);
        any = true;
      }
    }
    if (!any) return order;
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"project_scan", "edit_session"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, int seconds) {
  Workload w;
  if (name == "project_scan") {
    w = project_scan(seed, seconds);
  } else if (name == "edit_session") {
    w = edit_session(seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  std::vector<char> served(w.sources.size(), 0);
  for (const std::size_t id : w.warm) served[id] = 1;
  for (const auto& lane : w.lanes) {
    auto& cold = w.cold.emplace_back();
    for (const std::size_t id : lane) {
      cold.push_back(served[id] ? 0 : 1);
      served[id] = 1;
    }
  }
  return w;
}

g2p::GeneratorConfig workload_generator(std::uint64_t seed, double scale) {
  g2p::GeneratorConfig config;
  config.scale = scale;
  config.seed = 0x9e3779b97f4a7c15ull * (seed + 1) + 0x2545f4914f6cdd1dull;
  if (config.seed == g2p::GeneratorConfig{}.seed) ++config.seed;
  return config;
}

std::string strip_omp_pragmas(std::string_view labeled) {
  std::string out;
  out.reserve(labeled.size());
  std::size_t begin = 0;
  while (begin < labeled.size()) {
    auto end = labeled.find('\n', begin);
    const bool last = end == std::string_view::npos;
    if (last) end = labeled.size();
    const std::string_view line = labeled.substr(begin, end - begin);
    const auto first = line.find_first_not_of(" \t");
    std::string_view rest = first == std::string_view::npos ? "" : line.substr(first);
    bool omp = false;
    if (rest.substr(0, 1) == "#") {
      rest.remove_prefix(1);
      rest.remove_prefix(std::min(rest.find_first_not_of(" \t"), rest.size()));
      if (rest.substr(0, 6) == "pragma") {
        rest.remove_prefix(6);
        rest.remove_prefix(std::min(rest.find_first_not_of(" \t"), rest.size()));
        omp = rest.substr(0, 3) == "omp";
      }
    }
    if (!omp) out += line;
    if (!last) out += '\n';
    begin = end + 1;
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> editable_literals(std::string_view source) {
  const auto toks = tokenize(source);
  const auto text = [&](std::size_t i) { return source.substr(toks[i].pos, toks[i].len); };
  const auto is = [&](std::size_t i, std::string_view t) {
    return i < toks.size() && text(i) == t;
  };
  // Index of the token closing the bracket group opened at `open`.
  const auto close_of = [&](std::size_t open) {
    const std::string_view o = text(open);
    const std::string_view c = o == "(" ? ")" : o == "[" ? "]" : "}";
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
      if (text(i) == o) ++depth;
      if (text(i) == c && --depth == 0) return i;
    }
    return toks.size();
  };
  // Last token of the statement starting at token i.
  const auto stmt_end = [&](auto&& self, std::size_t i) -> std::size_t {
    if (i >= toks.size()) return toks.size();
    if (is(i, "{")) return close_of(i);
    if ((is(i, "for") || is(i, "while") || is(i, "if") || is(i, "switch")) && is(i + 1, "(")) {
      std::size_t end = self(self, close_of(i + 1) + 1);
      if (is(i, "if") && is(end + 1, "else")) end = self(self, end + 2);
      return end;
    }
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
      const auto t = text(j);
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == ";" && depth <= 0) return j;
    }
    return toks.size();
  };
  std::vector<char> in_body(toks.size(), 0);
  std::vector<char> in_header(toks.size(), 0);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != 'i' || text(i) != "for" || !is(i + 1, "(")) continue;
    const std::size_t header_end = close_of(i + 1);
    const std::size_t body_end = stmt_end(stmt_end, header_end + 1);
    for (std::size_t j = i + 1; j <= header_end && j < toks.size(); ++j) in_header[j] = 1;
    for (std::size_t j = header_end + 1; j <= body_end && j < toks.size(); ++j) in_body[j] = 1;
  }
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int subscript = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is(i, "[")) ++subscript;
    if (is(i, "]")) --subscript;
    if (toks[i].kind == 'n' && subscript == 0 && in_body[i] && !in_header[i] &&
        is_plain_decimal_float(text(i))) {
      out.emplace_back(toks[i].pos, toks[i].len);
    }
  }
  return out;
}

std::optional<std::string> edit_float_literal(std::string_view source, std::uint64_t pick,
                                              std::string_view replacement) {
  const auto spots = editable_literals(source);
  if (spots.empty()) return std::nullopt;
  const auto [pos, len] = spots[pick % spots.size()];
  std::string out(source);
  out.replace(pos, len, replacement);
  return out;
}

}  // namespace perfbench
