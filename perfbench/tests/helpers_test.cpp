// Tests of the benchmark's own helpers: the nearest-rank percentile, the
// /proc/stat parser, and the edit session's label-preserving edits.
// Run with: python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/dependence.h"
#include "analysis/tools.h"
#include "dataset/corpus.h"
#include "dataset/generator.h"
#include "host.h"
#include "support/hash.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, PicksTheValueAtCeilRank) {
  EXPECT_EQ(nearest_rank(one_to(100), 0.50), 50.0);
  EXPECT_EQ(nearest_rank(one_to(100), 0.90), 90.0);
  EXPECT_EQ(nearest_rank(one_to(1000), 0.99), 990.0);
  // ceil(0.5 * 21) = 11: the median of 21 values is the 11th.
  EXPECT_EQ(nearest_rank(one_to(21), 0.50), 11.0);
}

TEST(NearestRank, IgnoresInputOrder) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  std::rotate(v.begin(), v.begin() + 37, v.end());
  EXPECT_EQ(nearest_rank(v, 0.90), 180.0);
}

TEST(NearestRank, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_TRUE(nearest_rank(one_to(100), 0.90).has_value());   // 10 beyond rank 90
  EXPECT_FALSE(nearest_rank(one_to(99), 0.90).has_value());   // rank 90, 9 beyond
  EXPECT_TRUE(nearest_rank(one_to(1000), 0.99).has_value());
  EXPECT_FALSE(nearest_rank(one_to(999), 0.99).has_value());
  EXPECT_FALSE(nearest_rank(one_to(15), 0.50).has_value());   // rank 8, 7 beyond
  EXPECT_TRUE(nearest_rank(one_to(21), 0.50).has_value());    // rank 11, 10 beyond
}

TEST(NearestRank, RefusesEmptyInputAndBadPercentiles) {
  EXPECT_FALSE(nearest_rank({}, 0.5).has_value());
  EXPECT_FALSE(nearest_rank(one_to(100), 0.0).has_value());
  EXPECT_FALSE(nearest_rank(one_to(100), 1.5).has_value());
  EXPECT_FALSE(nearest_rank(one_to(100), 1.0).has_value());  // nothing lies beyond the max
}

TEST(ProcStat, ParsesTheAggregateLine) {
  const auto t = parse_proc_stat(
      "cpu  3078062 7 190390 6291397 500 11 173704 340743 12 0\n"
      "cpu0 1 2 3 4 5 6 7 8 9 10\n");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->busy, 3078062u + 7u + 190390u + 11u + 173704u);
  EXPECT_EQ(t->idle, 6291397u + 500u);
  EXPECT_EQ(t->steal, 340743u);
}

TEST(ProcStat, OldKernelsWithoutStealReadAsZeroSteal) {
  const auto t = parse_proc_stat("cpu  10 0 5 85\n");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->busy, 15u);
  EXPECT_EQ(t->idle, 85u);
  EXPECT_EQ(t->steal, 0u);
}

TEST(ProcStat, RejectsMalformedInput) {
  EXPECT_FALSE(parse_proc_stat("").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n").has_value());
  EXPECT_FALSE(parse_proc_stat("intr 1 2 3 4\n").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu  1 x 3 4 5 6 7 8\n").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu  1 2 3\n").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu  1 2 3 -4 5\n").has_value());
}

TEST(ProcStat, HostNoiseIsTheShareOfTicksBetweenSamples) {
  HostSample a;
  HostSample b;
  a.ticks = {100, 300, 0};
  b.ticks = {160, 320, 20};  // +60 busy, +20 idle, +20 steal
  a.usage = {1.0, 5};
  b.usage = {1.5, 9};
  const HostNoise n = host_noise(a, b);
  EXPECT_DOUBLE_EQ(n.steal_ratio, 0.2);
  EXPECT_DOUBLE_EQ(n.cpu_util, 0.75);
  EXPECT_DOUBLE_EQ(n.invol_csw, 4.0);
  EXPECT_DOUBLE_EQ(n.cpu_s, 0.5);
}

TEST(StripPragmas, BlanksOmpLinesAndKeepsLineNumbers) {
  const std::string labeled =
      "#include <math.h>\n  #pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 1;\n"
      "# pragma  omp simd\n#pragma once\n";
  const std::string stripped = strip_omp_pragmas(labeled);
  EXPECT_EQ(stripped, "#include <math.h>\n\nfor (i = 0; i < n; i++) a[i] = 1;\n\n#pragma once\n");
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(labeled.begin(), labeled.end(), '\n'));
}

TEST(EditLiteral, OnlyTouchesFloatLiteralsInLoopBodiesOutsideSubscripts) {
  // Candidates must be in a body, outside [...] and outside for headers.
  EXPECT_FALSE(edit_float_literal("double f() { return 1.5; }", 0, "10.5").has_value());
  EXPECT_FALSE(edit_float_literal("void f(double* a, int n) { for (double x = 0.5; x < 2.5;"
                                  " x += 0.5) a[0] += 1; }",
                                  0, "10.5")
                   .has_value());
  EXPECT_FALSE(edit_float_literal("void f(double* a, int n) { int i; for (i = 0; i < n; i++)"
                                  " a[(int)(i * 0.5)] = 1; }",
                                  0, "10.5")
                   .has_value());
  EXPECT_FALSE(edit_float_literal("void f(double* a, int n) { int i; for (i = 0; i < n; i++)"
                                  " a[i] = a[i] * 2 + 1e5; }",
                                  0, "10.5")
                   .has_value());
  const std::string src =
      "void f(double* a, int n) { int i;\n for (i = 0; i < n; i++) {\n"
      "  a[i] = a[i] * 0.25; /* 9.5 */ }\n a[0] = 3.5; }\n";
  const auto edited = edit_float_literal(src, 7, "10.5");
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(*edited,
            "void f(double* a, int n) { int i;\n for (i = 0; i < n; i++) {\n"
            "  a[i] = a[i] * 10.5; /* 9.5 */ }\n a[0] = 3.5; }\n");
}

/// Per-loop facts that decide the label: the generator's pragma, and what
/// the dependence analysis and the dynamic tool simulacrum conclude.
struct LoopVerdicts {
  bool parallel;
  g2p::PragmaCategory category;
  bool tool_parallel;
  std::vector<std::string> reductions;
  std::vector<std::string> privates;
  bool operator==(const LoopVerdicts&) const = default;
};

std::vector<LoopVerdicts> verdicts_of(const std::string& labeled_source) {
  const g2p::Corpus corpus = g2p::build_corpus({g2p::GeneratedFile{"f", labeled_source}});
  const g2p::DiscoPoPLikeAnalyzer tool;
  std::vector<LoopVerdicts> out;
  for (const auto& s : corpus.samples) {
    const g2p::LoopFacts facts = g2p::analyze_loop(*s.loop, s.parsed->tu);
    LoopVerdicts v{s.parallel, s.category,
                   tool.analyze(*s.loop, s.parsed->tu, nullptr).detected_parallel(), {}, {}};
    for (const auto& r : g2p::find_reductions(facts)) v.reductions.push_back(r.op + r.var);
    v.privates = g2p::find_private_scalars(facts);
    out.push_back(std::move(v));
  }
  return out;
}

TEST(EditLiteral, EditsPreserveLabelsAndChangeTheSourceHash) {
  const auto files = g2p::CorpusGenerator(workload_generator(5, 0.02)).generate_files();
  int edited_files = 0;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::string& labeled = files[f].source;
    const auto spots = editable_literals(labeled);
    for (std::size_t pick = 0; pick < spots.size(); ++pick) {
      const auto edited = edit_float_literal(labeled, pick, "10.5");
      ASSERT_TRUE(edited.has_value());
      EXPECT_NE(g2p::hash_source(*edited), g2p::hash_source(labeled));
      EXPECT_EQ(std::count(edited->begin(), edited->end(), '\n'),
                std::count(labeled.begin(), labeled.end(), '\n'));
      EXPECT_EQ(verdicts_of(*edited), verdicts_of(labeled)) << labeled << "\n---\n" << *edited;
    }
    edited_files += spots.empty() ? 0 : 1;
  }
  // The check must have covered real generator output, not a corner of it.
  EXPECT_GT(edited_files, 50);
}

TEST(EditSession, IsDeterministicAndEveryEditIsAFreshText) {
  const Workload a = make_workload("edit_session", 9, 1);
  const Workload b = make_workload("edit_session", 9, 1);
  ASSERT_EQ(a.sources.size(), b.sources.size());
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    EXPECT_EQ(a.sources[i].text, b.sources[i].text);
  }
  EXPECT_EQ(a.lanes, b.lanes);
  std::vector<std::string> texts;
  for (const auto& s : a.sources) texts.push_back(s.text);
  std::sort(texts.begin(), texts.end());
  EXPECT_EQ(std::adjacent_find(texts.begin(), texts.end()), texts.end());
  // About one save in four carries an edit; the rest repeat a published text.
  std::size_t cold = 0;
  for (const auto& lane : a.cold) {
    cold += static_cast<std::size_t>(std::count(lane.begin(), lane.end(), 1));
  }
  const double hit_share =
      1.0 - static_cast<double>(cold) / static_cast<double>(a.requests());
  EXPECT_NEAR(hit_share, 0.75, 0.05);
  // Every edit is served exactly once as a miss.
  EXPECT_EQ(cold, a.sources.size() - a.warm.size());
}

TEST(Workloads, SeedsChangeInputsButNeverReachTheTrainingSeed) {
  EXPECT_NE(workload_generator(1, 0.1).seed, workload_generator(2, 0.1).seed);
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    EXPECT_NE(workload_generator(seed, 0.1).seed, g2p::GeneratorConfig{}.seed);
  }
}

}  // namespace
}  // namespace perfbench
