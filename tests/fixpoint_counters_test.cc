// Exact work counters of the fixpoint loops. fixpoint_test.cc bounds stage
// counts from above; a loop that ran one stage too many, or warm-started
// less often, would still pass there. Here every case of a small corpus
// pins its stages, warm starts, node evaluations and memo traffic under each
// strategy, PFP cycle detection and memo setting, and its answer must equal
// ReferenceEvaluator's. A change to a pinned number is a change to how much
// work the evaluator does; make it on purpose.
//
// tuples_scanned and byte counts are left out: they follow the cube layout,
// not the loop.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/reference_eval.h"
#include "logic/parser.h"

namespace bvq {
namespace {

// The six cold_fixpoints template shapes of the serving benchmark, each with
// a one-step walk guard, then same-polarity nestings of lfp and of gfp (the
// footnote-5 warm starts) and a second-order enumeration.
const char* const kQueries[] = {
    "(x1,x2) [lfp T(x1,x2) . E0(x1,x2) | exists x3 . ((E1(x1,x3) | "
    "E2(x1,x3)) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2) & exists x3 . "
    "(E3(x1,x3) & exists x1 . (x1 = x3 & P0(x1))) & !P1(x2)",
    "(x1,x2) [lfp T(x1,x2) . (E2(x1,x2) | E1(x2,x1)) | exists x3 . "
    "(T(x1,x3) & (E3(x3,x2) & P1(x2)))](x1,x2) & exists x3 . (E0(x1,x3) & "
    "exists x1 . (x1 = x3 & true))",
    "(x1) [gfp S(x1) . (P0(x1) | exists x2 . E2(x1,x2)) & exists x2 . "
    "(E1(x1,x2) & [lfp R(x1) . S(x1) | exists x2 . (E0(x1,x2) & "
    "R(x2))](x2))](x1) & exists x3 . (E2(x1,x3) & exists x1 . (x1 = x3 & "
    "P1(x1)))",
    "(x1,x2) [ifp T(x1,x2) . (E3(x1,x2) & !P0(x2)) | exists x3 . (T(x1,x3) "
    "& E1(x3,x2))](x1,x2) & exists x3 . (E0(x1,x3) & exists x1 . (x1 = x3 & "
    "P0(x1)))",
    "(x1) [pfp X(x1) . P1(x1) | exists x2 . (E2(x2,x1) & X(x2))](x1) & "
    "exists x3 . (E1(x1,x3) & exists x1 . (x1 = x3 & true))",
    "(x1,x2) [pfp X(x1,x2) . E0(x1,x2) & !exists x3 . (X(x1,x3) & "
    "E3(x3,x2))](x1,x2) & exists x3 . (E2(x1,x3) & exists x1 . (x1 = x3 & "
    "P1(x1))) & exists x3 . E1(x3,x2)",
    "(x1) [lfp S(x1) . P0(x1) | (exists x2 . (E0(x1,x2) & S(x2))) & "
    "[lfp U(x2) . S(x2) | exists x3 . (E1(x2,x3) & U(x3))](x1)](x1)",
    "(x1) [gfp S(x1) . P0(x1) | (exists x2 . (E0(x1,x2) & S(x2) & "
    "!P1(x2))) & [gfp U(x2) . S(x2) & exists x3 . (E1(x2,x3) & U(x3) & "
    "!P0(x3))](x1)](x1)",
    "(x1) exists2 S/1 . S(x1) & forall x2 . (S(x2) -> exists x3 . "
    "(E0(x2,x3) & S(x3)))",
};
constexpr std::size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

struct Counters {
  std::size_t fixpoint_iterations, warm_starts, node_evals, memo_hits,
      memo_misses, invariant_hoists;
  bool operator==(const Counters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counters& c) {
  return os << "{" << c.fixpoint_iterations << ", " << c.warm_starts << ", "
            << c.node_evals << ", " << c.memo_hits << ", " << c.memo_misses
            << ", " << c.invariant_hoists << "}";
}

// One row per (strategy, PFP detection, memo) config in the loop order of
// the test, one entry per query of kQueries: {fixpoint_iterations,
// warm_starts, node_evals, memo_hits, memo_misses, invariant_hoists}.
const Counters kExpected[8][kNumQueries] = {
    // naive, hash, memo off
    {{5, 0, 67, 0, 0, 0}, {3, 0, 39, 0, 0, 0}, {7, 0, 57, 0, 0, 0},
     {4, 0, 45, 0, 0, 0}, {3, 0, 27, 0, 0, 0}, {5, 0, 47, 0, 0, 0},
     {9, 0, 61, 0, 0, 0}, {10, 0, 95, 0, 0, 0}, {0, 0, 307, 0, 0, 0}},
    // naive, hash, memo on
    {{5, 0, 59, 13, 46, 12}, {3, 0, 31, 4, 26, 4}, {7, 0, 54, 9, 45, 9},
     {4, 0, 36, 6, 30, 6}, {3, 0, 27, 4, 22, 4}, {5, 0, 47, 8, 39, 8},
     {9, 0, 61, 15, 46, 15}, {10, 0, 87, 25, 62, 25}, {0, 0, 307, 33, 274, 33}},
    // naive, floyd, memo off
    {{5, 0, 67, 0, 0, 0}, {3, 0, 39, 0, 0, 0}, {7, 0, 57, 0, 0, 0},
     {4, 0, 45, 0, 0, 0}, {9, 0, 63, 0, 0, 0}, {15, 0, 117, 0, 0, 0},
     {9, 0, 61, 0, 0, 0}, {10, 0, 95, 0, 0, 0}, {0, 0, 307, 0, 0, 0}},
    // naive, floyd, memo on
    {{5, 0, 59, 13, 46, 12}, {3, 0, 31, 4, 26, 4}, {7, 0, 54, 9, 45, 9},
     {4, 0, 36, 6, 30, 6}, {9, 0, 63, 16, 46, 16}, {15, 0, 117, 28, 89, 28},
     {9, 0, 61, 15, 46, 15}, {10, 0, 87, 25, 62, 25}, {0, 0, 307, 33, 274, 33}},
    // reuse, hash, memo off
    {{5, 0, 67, 0, 0, 0}, {3, 0, 39, 0, 0, 0}, {7, 0, 57, 0, 0, 0},
     {4, 0, 45, 0, 0, 0}, {3, 0, 27, 0, 0, 0}, {5, 0, 47, 0, 0, 0},
     {8, 2, 55, 0, 0, 0}, {8, 1, 77, 0, 0, 0}, {0, 0, 307, 0, 0, 0}},
    // reuse, hash, memo on
    {{5, 0, 59, 13, 46, 12}, {3, 0, 31, 4, 26, 4}, {7, 0, 54, 9, 45, 9},
     {4, 0, 36, 6, 30, 6}, {3, 0, 27, 4, 22, 4}, {5, 0, 47, 8, 39, 8},
     {8, 2, 55, 13, 42, 13}, {8, 1, 71, 19, 52, 19}, {0, 0, 307, 33, 274, 33}},
    // reuse, floyd, memo off
    {{5, 0, 67, 0, 0, 0}, {3, 0, 39, 0, 0, 0}, {7, 0, 57, 0, 0, 0},
     {4, 0, 45, 0, 0, 0}, {9, 0, 63, 0, 0, 0}, {15, 0, 117, 0, 0, 0},
     {8, 2, 55, 0, 0, 0}, {8, 1, 77, 0, 0, 0}, {0, 0, 307, 0, 0, 0}},
    // reuse, floyd, memo on
    {{5, 0, 59, 13, 46, 12}, {3, 0, 31, 4, 26, 4}, {7, 0, 54, 9, 45, 9},
     {4, 0, 36, 6, 30, 6}, {9, 0, 63, 16, 46, 16}, {15, 0, 117, 28, 89, 28},
     {8, 2, 55, 13, 42, 13}, {8, 1, 71, 19, 52, 19}, {0, 0, 307, 33, 274, 33}},
};

Database CorpusDb() {
  constexpr std::size_t n = 6;
  Rng rng(20);
  Database db(n);
  for (const char* e : {"E0", "E1", "E2", "E3"}) {
    EXPECT_TRUE(db.AddRelation(e, RandomRelation(n, 2, 0.3, rng)).ok());
  }
  EXPECT_TRUE(db.AddRelation("P0", RandomRelation(n, 1, 0.3, rng)).ok());
  EXPECT_TRUE(db.AddRelation("P1", RandomRelation(n, 1, 0.5, rng)).ok());
  return db;
}

TEST(FixpointCountersTest, ExactPerStrategyPfpModeAndMemo) {
  const Database db = CorpusDb();
  std::vector<Query> queries;
  std::vector<Relation> answers;
  for (const char* text : kQueries) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    auto answer = ReferenceEvaluator(db, 3).EvaluateQuery(*query);
    ASSERT_TRUE(answer.ok()) << text << ": " << answer.status().ToString();
    queries.push_back(std::move(*query));
    answers.push_back(std::move(*answer));
  }
  std::size_t config = 0;
  for (FixpointStrategy strategy :
       {FixpointStrategy::kNaiveNested, FixpointStrategy::kMonotoneReuse}) {
    for (PfpCycleDetection pfp :
         {PfpCycleDetection::kHashHistory, PfpCycleDetection::kFloyd}) {
      for (bool memo : {false, true}) {
        for (std::size_t q = 0; q < kNumQueries; ++q) {
          SCOPED_TRACE(testing::Message()
                       << "config " << config << " (reuse "
                       << (strategy == FixpointStrategy::kMonotoneReuse)
                       << ", floyd " << (pfp == PfpCycleDetection::kFloyd)
                       << ", memo " << memo << "), query " << q);
          BoundedEvalOptions options;
          options.fixpoint_strategy = strategy;
          options.pfp_cycle_detection = pfp;
          options.memo = memo;
          options.num_threads = 1;
          BoundedEvaluator eval(db, 3, options);
          auto answer = eval.EvaluateQuery(queries[q]);
          ASSERT_TRUE(answer.ok()) << answer.status().ToString();
          EXPECT_EQ(*answer, answers[q]);
          const EvalStats& s = eval.stats();
          const Counters got{s.fixpoint_iterations, s.warm_starts,
                             s.node_evals,          s.memo_hits,
                             s.memo_misses,         s.invariant_hoists};
          EXPECT_EQ(got, kExpected[config][q]);
        }
        ++config;
      }
    }
  }
}

}  // namespace
}  // namespace bvq
