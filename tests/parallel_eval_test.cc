// Determinism of the parallel evaluation layer: every kernel and the whole
// evaluator must produce byte-identical results for every thread count (the
// contract in DESIGN.md, "Threading model & determinism"), plus unit tests
// for the thread pool itself and the checked-size helpers the parallel
// kernels rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/index.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "db/assignment_set.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/reference_eval.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "logic/random_formula.h"

namespace bvq {
namespace {

// --- thread pool ---------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    const std::size_t total = 10'000;
    std::vector<std::atomic<int>> hits(total);
    pool.ParallelFor(total, 64, [&](std::size_t, std::size_t begin,
                                    std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesAreFixedMultiplesOfGrain) {
  ThreadPool pool(4);
  const std::size_t total = 1000, grain = 128;
  std::vector<std::pair<std::size_t, std::size_t>> spans(
      ThreadPool::NumChunks(total, grain));
  pool.ParallelFor(total, grain, [&](std::size_t chunk, std::size_t begin,
                                     std::size_t end) {
    spans[chunk] = {begin, end};
  });
  for (std::size_t c = 0; c < spans.size(); ++c) {
    EXPECT_EQ(spans[c].first, c * grain);
    EXPECT_EQ(spans[c].second, std::min((c + 1) * grain, total));
  }
}

TEST(ThreadPoolTest, NumChunks) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 64), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(64, 64), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(65, 64), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(1000, 1), 1000u);
}

TEST(ThreadPoolTest, StatsCountDispatches) {
  ThreadPool pool(2);
  pool.ParallelFor(1000, 100,
                   [](std::size_t, std::size_t, std::size_t) {});
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.parallel_loops, 1u);
  EXPECT_EQ(stats.chunks, 10u);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().parallel_loops, 0u);
}

TEST(ThreadPoolTest, GrainHelpers) {
  // BitGrain is word-aligned so chunks own disjoint bitset words.
  for (std::size_t total : {std::size_t{1}, std::size_t{4096},
                            std::size_t{100'000}, std::size_t{1} << 20}) {
    for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(BitGrain(total, lanes) % 64, 0u);
      EXPECT_GT(BitGrain(total, lanes), 0u);
      EXPECT_GT(ChunkGrain(total, total, lanes, 2), 0u);
    }
  }
  // One lane, or a cube under 4,096 bits, is a single chunk.
  EXPECT_GE(BitGrain(1 << 20, 1), std::size_t{1} << 20);
  EXPECT_EQ(ChunkGrain(100, 1 << 20, 1, 2), 100u);
  EXPECT_EQ(ChunkGrain(100, 4095, 8, 2), 100u);
  EXPECT_EQ(ChunkGrain(100, 4096, 8, 2), 7u);
}

// --- kernels against definitional oracles ---------------------------------------

AssignmentSet RandomCube(std::size_t n, std::size_t k, double density,
                         Rng& rng) {
  AssignmentSet a(n, k);
  const std::size_t total = a.indexer().NumTuples();
  for (std::size_t r = 0; r < total; ++r) {
    if (rng.Bernoulli(density)) a.Set(r);
  }
  return a;
}

// Builds the cube of ranks r with member(r), one rank at a time.
template <typename Member>
AssignmentSet PerRank(std::size_t n, std::size_t k, const Member& member) {
  AssignmentSet out(n, k);
  for (std::size_t r = 0; r < out.indexer().NumTuples(); ++r) {
    if (member(r)) out.Set(r);
  }
  return out;
}

// Every kernel has one chunked body; these pin it to per-rank loops written
// from the definitions, at pool null (parameter 0) and at 1, 2, 4 and 8
// lanes. The shapes put some strides on multiples of 64 (the word-slab
// quantifier sweep), keep n = 17 off every word boundary, and sit at or
// above the 4,096-bit floor so the multi-lane pools really split. (48, 3)
// is the served cold shape: runs of 48 bases clipped at stride 48 and a
// 2,304-bit slab. (70, 2) has lines longer than a word (stride 1 and remap
// lines of 70 bits over two or three words) and runs clipped at a stride
// above 64.
class KernelDeterminism : public ::testing::TestWithParam<std::size_t> {
 protected:
  ThreadPool* pool() { return pool_.get(); }

  const std::vector<std::pair<std::size_t, std::size_t>> shapes_ = {
      {17, 3}, {32, 3}, {64, 2}, {48, 3}, {70, 2}};

 private:
  std::unique_ptr<ThreadPool> pool_ =
      GetParam() == 0 ? nullptr : std::make_unique<ThreadPool>(GetParam());
};

TEST_P(KernelDeterminism, QuantifierSweepsMatchSerial) {
  for (const auto& [n, k] : shapes_) {
    Rng rng(1000 + n);
    // A sparse cube has empty lines and a dense one full lines, so each
    // quantifier meets both kinds.
    for (double density : {0.03, 0.97}) {
      const AssignmentSet a = RandomCube(n, k, density, rng);
      const TupleIndexer& idx = a.indexer();
      for (std::size_t var = 0; var < k; ++var) {
        auto line_count = [&](std::size_t r) {
          std::size_t count = 0;
          for (Value v = 0; v < n; ++v) {
            count += a.Test(idx.WithDigit(r, var, v));
          }
          return count;
        };
        EXPECT_EQ(a.ExistsVar(var, pool()), PerRank(n, k, [&](std::size_t r) {
                    return line_count(r) > 0;
                  }))
            << "exists x" << var + 1 << ", n=" << n;
        EXPECT_EQ(a.ForAllVar(var, pool()), PerRank(n, k, [&](std::size_t r) {
                    return line_count(r) == n;
                  }))
            << "forall x" << var + 1 << ", n=" << n;
      }
    }
  }
}

TEST_P(KernelDeterminism, EqualityAndRemapMatchSerial) {
  for (const auto& [n, k] : shapes_) {
    Rng rng(2000 + n);
    const AssignmentSet a = RandomCube(n, k, 0.3, rng);
    const TupleIndexer& idx = a.indexer();
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(AssignmentSet::Equality(n, k, i, j, pool()),
                  PerRank(n, k, [&](std::size_t r) {
                    return idx.Digit(r, i) == idx.Digit(r, j);
                  }))
            << "x" << i + 1 << " = x" << j + 1 << ", n=" << n;
      }
    }
    // Every remap with at most two targets: targets distinct, sources free
    // to repeat and to overlap the targets.
    std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
        remaps = {{{}, {}}};
    for (std::size_t t = 0; t < k; ++t) {
      for (std::size_t s = 0; s < k; ++s) remaps.push_back({{t}, {s}});
    }
    for (std::size_t t0 = 0; t0 < k; ++t0) {
      for (std::size_t t1 = 0; t1 < k; ++t1) {
        if (t1 == t0) continue;
        for (std::size_t s = 0; s < k * k; ++s) {
          remaps.push_back({{t0, t1}, {s % k, s / k}});
        }
      }
    }
    for (const auto& [targets, sources] : remaps) {
      EXPECT_EQ(a.Remap(targets, sources, pool()),
                PerRank(n, k, [&](std::size_t r) {
                  std::size_t read = r;
                  for (std::size_t j = 0; j < targets.size(); ++j) {
                    read = idx.WithDigit(read, targets[j],
                                         idx.Digit(r, sources[j]));
                  }
                  return a.Test(read);
                }))
          << "remap of " << targets.size() << " targets, n=" << n;
    }
  }
}

TEST_P(KernelDeterminism, FromAtomMatchesSerial) {
  for (const auto& [n, k] : shapes_) {
    Rng rng(3000 + n);
    // Drawn over a wider domain, so some rows hold out-of-domain values.
    const Relation rel = RandomRelation(n + 3, 2, 0.4, rng);
    const TupleIndexer idx(n, k);
    // Every argument pair: plain, permuted and repeated variables.
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(AssignmentSet::FromAtom(n, k, rel, {i, j}, pool()),
                  PerRank(n, k, [&](std::size_t r) {
                    const Value point[2] = {idx.Digit(r, i), idx.Digit(r, j)};
                    return rel.Contains(point);
                  }))
            << "R(x" << i + 1 << ", x" << j + 1 << "), n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelDeterminism,
                         ::testing::Values(0, 1, 2, 4, 8));

// --- whole-evaluator determinism -------------------------------------------------

// Evaluates `trials` random formulas over `opts.num_vars` variables on
// random databases of domain size n in [min_n, max_n], at one lane and at
// 2, 4 and 8 lanes, expecting identical answer relations. Returns the
// parallel loops the multi-lane runs took.
std::size_t ExpectSameAnswersAcrossLanes(const RandomFormulaOptions& opts,
                                         PfpCycleDetection pfp, int trials,
                                         std::size_t min_n, std::size_t max_n,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> all_vars(opts.num_vars);
  for (std::size_t v = 0; v < opts.num_vars; ++v) all_vars[v] = v;
  std::size_t loops = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = min_n + rng.Below(max_n - min_n + 1);
    Database db(n);
    EXPECT_TRUE(db.AddRelation("E", RandomRelation(n, 2, 0.35, rng)).ok());
    EXPECT_TRUE(db.AddRelation("P", RandomRelation(n, 1, 0.5, rng)).ok());
    FormulaPtr f = RandomFormula(opts, rng);
    const std::string dump = FormulaToString(f) + "\n" + db.ToString();

    BoundedEvalOptions options;
    options.pfp_cycle_detection = pfp;
    options.num_threads = 1;
    BoundedEvaluator base(db, opts.num_vars, options);
    auto expected = base.EvaluateQuery(Query{all_vars, f});
    EXPECT_TRUE(expected.ok()) << dump;
    if (!expected.ok()) continue;
    for (std::size_t lanes : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
      options.num_threads = lanes;
      BoundedEvaluator eval(db, opts.num_vars, options);
      auto got = eval.EvaluateQuery(Query{all_vars, f});
      EXPECT_TRUE(got.ok()) << dump;
      if (!got.ok()) continue;
      EXPECT_EQ(*got, *expected) << lanes << " lanes differ from one\n"
                                 << dump;
      loops += eval.stats().parallel_loops;
    }
  }
  return loops;
}

RandomFormulaOptions FixpointFormulas(std::size_t k, std::size_t max_size) {
  RandomFormulaOptions opts;
  opts.num_vars = k;
  opts.max_size = max_size;
  opts.predicates = {{"E", 2}, {"P", 1}};
  opts.allow_fixpoints = true;
  opts.allow_pfp = true;
  return opts;
}

// Random FO^k / FP^k / PFP^k formulas answer the same at every lane count.
// Tiny domains stay under the 4,096-bit floor; n = 17 at k = 3 (4,913 bits,
// off every word boundary) is above it, so the fan-out is really exercised:
// the multi-lane runs must take parallel loops.
TEST(ParallelEvalTest, ByteIdenticalAcrossThreadCounts) {
  RandomFormulaOptions opts = FixpointFormulas(3, 18);
  opts.allow_ifp = true;
  ExpectSameAnswersAcrossLanes(opts, PfpCycleDetection::kHashHistory, 25, 2,
                               5, 424242);
  EXPECT_GT(ExpectSameAnswersAcrossLanes(
                opts, PfpCycleDetection::kHashHistory, 10, 17, 17, 434343),
            0u);
}

// The Floyd PFP mode has its own block sweeps; pin it separately.
TEST(ParallelEvalTest, FloydPfpIsDeterministicAcrossThreadCounts) {
  ExpectSameAnswersAcrossLanes(FixpointFormulas(2, 16),
                               PfpCycleDetection::kFloyd, 15, 2, 4, 515151);
  EXPECT_GT(ExpectSameAnswersAcrossLanes(FixpointFormulas(3, 16),
                                         PfpCycleDetection::kFloyd, 10, 17, 17,
                                         525252),
            0u);
}

// PFP slices at a domain above 64, against the definitional reference and
// across lane counts, in both cycle-detection modes. Per block a, both
// bodies step S -> E(a,.) | (P & !S(a)), so a block converges to E(a,.),
// cycles (empty) or converges to E(a,.) | P. With x1 bound a slice is one
// line of 70 bits along coordinate 0; with x2 bound its bits are 70 apart.
TEST(ParallelEvalTest, PfpSlicesAboveOneWordMatchReference) {
  const std::size_t n = 70;
  Rng rng(616161);
  Database db(n);
  ASSERT_TRUE(db.AddRelation("E", RandomRelation(n, 2, 0.1, rng)).ok());
  ASSERT_TRUE(db.AddRelation("P", RandomRelation(n, 1, 0.5, rng)).ok());
  for (const char* text :
       {"(x1,x2) [pfp X(x2) . E(x1,x2) | (P(x2) & !X(x1))](x2)",
        "(x1,x2) [pfp X(x1) . E(x2,x1) | (P(x1) & !X(x2))](x1)"}) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    auto expected = ReferenceEvaluator(db, 2).EvaluateQuery(*query);
    ASSERT_TRUE(expected.ok()) << text;
    // Every kind of block occurs, so neither detector is tested vacuously.
    EXPECT_GT(expected->size(), 0u) << text;
    EXPECT_LT(expected->size(), n * n) << text;
    for (PfpCycleDetection pfp :
         {PfpCycleDetection::kHashHistory, PfpCycleDetection::kFloyd}) {
      for (std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
        BoundedEvalOptions options;
        options.pfp_cycle_detection = pfp;
        options.num_threads = lanes;
        BoundedEvaluator eval(db, 2, options);
        auto got = eval.EvaluateQuery(*query);
        ASSERT_TRUE(got.ok()) << text;
        EXPECT_EQ(*got, *expected) << text << ", " << lanes << " lanes";
      }
    }
  }
}

// --- checked sizing helpers -------------------------------------------------------

TEST(CheckedSizeTest, CheckedMulDetectsOverflow) {
  std::size_t out = 7;
  EXPECT_TRUE(CheckedMul(0, std::numeric_limits<std::size_t>::max(), &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(CheckedMul(1u << 16, 1u << 16, &out));
  out = 7;
  EXPECT_FALSE(CheckedMul(std::numeric_limits<std::size_t>::max(), 2, &out));
  EXPECT_EQ(out, 7u);  // untouched on failure
}

TEST(CheckedSizeTest, CheckedPowDetectsOverflow) {
  EXPECT_EQ(CheckedPow(10, 3).value(), 1000u);
  EXPECT_EQ(CheckedPow(0, 0).value(), 1u);
  EXPECT_EQ(CheckedPow(0, 5).value(), 0u);
  EXPECT_EQ(CheckedPow(1, 1000).value(), 1u);
  EXPECT_FALSE(CheckedPow(2, 64).ok());
  EXPECT_FALSE(CheckedPow(1u << 16, 5).ok());
}

// --- Rng::Range extremes ----------------------------------------------------------

TEST(RngRangeTest, ExtremesStayInBounds) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Range(5, 5), 5);
    const int64_t r = rng.Range(-3, 3);
    EXPECT_GE(r, -3);
    EXPECT_LE(r, 3);
    // The full int64 span used to overflow (hi - lo in int64_t is UB);
    // every draw is valid by definition, so just exercise it.
    (void)rng.Range(std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max());
    const int64_t h = rng.Range(std::numeric_limits<int64_t>::max() - 1,
                                std::numeric_limits<int64_t>::max());
    EXPECT_GE(h, std::numeric_limits<int64_t>::max() - 1);
  }
}

}  // namespace
}  // namespace bvq
