// Tests for the utility layer: RNG statistics/determinism, the thread pool,
// table/CSV formatting, the JSON writer and CLI parsing.

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/cli.h"
#include "util/geometry.h"
#include "util/isa.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

#include "json_check.h"

namespace {

using fuse::util::JsonWriter;
using fuse::util::Rng;
using fuse::util::Vec3;

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(10);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, GaussMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gauss();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatchesLambda) {
  Rng rng(12);
  for (const double lambda : {0.5, 3.0, 50.0}) {
    double acc = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) acc += rng.poisson(lambda);
    EXPECT_NEAR(acc / n, lambda, 0.15 * lambda + 0.05);
  }
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(15);
  const auto idx = rng.sample_indices(20, 8);
  EXPECT_EQ(idx.size(), 8u);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 8u);
  for (const auto i : idx) EXPECT_LT(i, 20u);
  // Oversized request clamps to n.
  EXPECT_EQ(rng.sample_indices(5, 50).size(), 5u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(16);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  fuse::util::parallel_for(0, hits.size(), [&](std::size_t lo,
                                               std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool called = false;
  fuse::util::parallel_for(5, 5, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForSerializesSafely) {
  std::atomic<int> total{0};
  fuse::util::parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      fuse::util::parallel_for(0, 10, [&](std::size_t l2, std::size_t h2) {
        total.fetch_add(static_cast<int>(h2 - l2));
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  fuse::util::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, MinChunkLargerThanRangeRunsSerially) {
  // min_chunk > range: the whole range must arrive as ONE chunk.
  std::atomic<int> calls{0};
  std::size_t lo_seen = 99, hi_seen = 0;
  fuse::util::parallel_for(2, 7, [&](std::size_t lo, std::size_t hi) {
    calls.fetch_add(1);
    lo_seen = lo;
    hi_seen = hi;
  }, /*min_chunk=*/100);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(lo_seen, 2u);
  EXPECT_EQ(hi_seen, 7u);
}

TEST(ThreadPool, NestedSubmitFromWorkerDoesNotDeadlock) {
  // A task submitted from inside a pool worker must still run and
  // wait_idle must observe it (the serving scheduler relies on this).
  fuse::util::ThreadPool pool(2);
  std::atomic<int> outer{0}, inner{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      outer.fetch_add(1);
      pool.submit([&] { inner.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8);
}

TEST(ThreadPool, ParallelForInsideSubmittedTaskSerializes) {
  // The global parallel_for falls back to serial execution when invoked
  // from inside a pool worker — cover it through submit().
  std::atomic<int> total{0};
  fuse::util::global_pool().submit([&] {
    fuse::util::parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  fuse::util::global_pool().wait_idle();
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, MemberParallelForFromOwnWorkerRunsInline) {
  // A pool worker calling parallel_for on its OWN pool used to be able to
  // deadlock: the call enqueues chunks and blocks, but every worker can be
  // inside that same wait with the chunks stuck behind them.  The guard
  // runs the body inline instead — the loop must complete, arrive as one
  // chunk, and execute on the submitting worker (no second thread).
  fuse::util::ThreadPool pool(2);
  std::atomic<int> total{0}, calls{0};
  std::atomic<bool> inline_on_worker{false};
  for (int rep = 0; rep < 4; ++rep) {
    pool.submit([&] {
      const auto self = std::this_thread::get_id();
      pool.parallel_for(0, 50, [&](std::size_t lo, std::size_t hi) {
        calls.fetch_add(1);
        if (std::this_thread::get_id() == self) inline_on_worker = true;
        total.fetch_add(static_cast<int>(hi - lo));
      });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), 200);
  EXPECT_EQ(calls.load(), 4);  // one inline chunk per nested call
  EXPECT_TRUE(inline_on_worker.load());
}

TEST(ThreadPool, InsidePoolWorkerFlag) {
  EXPECT_FALSE(fuse::util::ThreadPool::inside_pool_worker());
  fuse::util::ThreadPool pool(1);
  std::atomic<bool> seen{false};
  pool.submit(
      [&] { seen = fuse::util::ThreadPool::inside_pool_worker(); });
  pool.wait_idle();
  EXPECT_TRUE(seen.load());
  EXPECT_FALSE(fuse::util::ThreadPool::inside_pool_worker());
}

TEST(ThreadPool, CrossPoolParallelForFansOutToTargetPool) {
  // A worker of pool A calling parallel_for on pool B is the driver
  // pattern (confine a workload to B's worker set): the chunks must run
  // on B's workers — not inline on A's worker — and complete without
  // deadlock (A's worker blocks on a local cv; B drains independently).
  fuse::util::ThreadPool a(1), b(2);
  std::atomic<int> total{0};
  std::atomic<bool> on_caller{false};
  a.submit([&] {
    const auto self = std::this_thread::get_id();
    b.parallel_for(0, 40, [&](std::size_t lo, std::size_t hi) {
      if (std::this_thread::get_id() == self) on_caller = true;
      total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  a.wait_idle();
  EXPECT_EQ(total.load(), 40);
  EXPECT_FALSE(on_caller.load());

  // The free (global-pool) parallel_for stays conservative: from inside
  // any pool worker it serializes inline.
  std::atomic<int> nested{0};
  std::atomic<bool> inline_on_worker{false};
  a.submit([&] {
    const auto self = std::this_thread::get_id();
    fuse::util::parallel_for(0, 30, [&](std::size_t lo, std::size_t hi) {
      if (std::this_thread::get_id() == self) inline_on_worker = true;
      nested.fetch_add(static_cast<int>(hi - lo));
    });
  });
  a.wait_idle();
  EXPECT_EQ(nested.load(), 30);
  EXPECT_TRUE(inline_on_worker.load());
}

TEST(ThreadPool, InlineScopeRunsFreeParallelForOnTheCaller) {
  // The serving plane's execution model: inside an InlineScope the free
  // parallel_for runs as one inline chunk on the calling thread, exactly
  // as it does on a pool worker.
  using fuse::util::InlineScope;
  using fuse::util::ThreadPool;
  const auto self = std::this_thread::get_id();
  ASSERT_FALSE(ThreadPool::inside_pool_worker());
  {
    const InlineScope scope;
    EXPECT_TRUE(ThreadPool::inside_pool_worker());
    int calls = 0;
    std::size_t total = 0;
    std::set<std::thread::id> ran;
    fuse::util::parallel_for(0, 64, [&](std::size_t lo, std::size_t hi) {
      ++calls;  // plain ints: a second thread here would be a TSan race
      total += hi - lo;
      ran.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(total, 64u);
    EXPECT_EQ(ran, std::set<std::thread::id>{self});
  }
  EXPECT_FALSE(ThreadPool::inside_pool_worker());
}

TEST(ThreadPool, InlineScopeNestsAndRestoresThePreviousState) {
  using fuse::util::InlineScope;
  using fuse::util::ThreadPool;
  {
    const InlineScope outer;
    {
      const InlineScope inner;
      EXPECT_TRUE(ThreadPool::inside_pool_worker());
    }
    // The inner scope restores the outer one's mark, not "unmarked".
    EXPECT_TRUE(ThreadPool::inside_pool_worker());
  }
  EXPECT_FALSE(ThreadPool::inside_pool_worker());

  // On a pool worker a scope changes nothing: the worker stays marked
  // after the scope closes.
  ThreadPool pool(1);
  std::atomic<bool> in_scope{false}, after{false};
  pool.submit([&] {
    {
      const InlineScope scope;
      in_scope = ThreadPool::inside_pool_worker();
    }
    after = ThreadPool::inside_pool_worker();
  });
  pool.wait_idle();
  EXPECT_TRUE(in_scope.load());
  EXPECT_TRUE(after.load());
}

TEST(ThreadPool, EmptyRangeWithMinChunkIsNoop) {
  bool called = false;
  fuse::util::parallel_for(3, 3, [&](std::size_t, std::size_t) {
    called = true;
  }, /*min_chunk=*/10);
  fuse::util::global_pool().parallel_for(5, 5, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

/// The CPUs this thread may run on, read straight from the kernel.
std::vector<int> caller_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

TEST(ThreadPool, WorkersArePinnedRoundRobinOverTheAllowedCpus) {
  // One CPU per worker, the i-th allowed CPU for worker i: distinct while
  // the pool is no larger than the allowed set, wrapping round after.
  const std::vector<int> allowed = caller_cpus();
  ASSERT_FALSE(allowed.empty());
  for (const std::size_t n : {std::size_t{2}, allowed.size(),
                              allowed.size() + 1}) {
    if (n < 2) continue;
    fuse::util::ThreadPool pool(n);
    const auto cpus = pool.worker_cpus();
    ASSERT_EQ(cpus.size(), n);
    std::set<int> distinct;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(cpus[i].size(), 1u) << "worker " << i << " of " << n;
      EXPECT_EQ(cpus[i][0], allowed[i % allowed.size()]);
      distinct.insert(cpus[i][0]);
    }
    EXPECT_EQ(distinct.size(), std::min(n, allowed.size()));
  }
}

TEST(ThreadPool, SingleWorkerPoolKeepsTheCallersMask) {
  // A serving driver is a one-worker pool; pinning it to one CPU measurably
  // raised the served p50 (DESIGN.md §2), so it keeps the whole set.
  fuse::util::ThreadPool pool(1);
  const auto cpus = pool.worker_cpus();
  ASSERT_EQ(cpus.size(), 1u);
  EXPECT_EQ(cpus[0], caller_cpus());
}

TEST(ThreadPool, GlobalPoolHasOneWorkerPerAllowedCpu) {
  EXPECT_EQ(fuse::util::global_pool().size(), caller_cpus().size());
}

// ----------------------------------------------------------------- table --

TEST(Table, RendersHeaderAndRows) {
  fuse::util::Table t("Demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  fuse::util::Table t;
  t.set_header({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(fuse::util::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(fuse::util::Table::num(5.0, 0), "5");
}

// ------------------------------------------------------------------ json --

/// The document must parse; returns its scalar leaves by key path.
std::map<std::string, std::string> json_leaves(const std::string& doc) {
  const auto scan = fuse::test::scan_json(doc);
  EXPECT_TRUE(scan.ok()) << "invalid at offset " << scan.error << ":\n"
                         << doc;
  return scan.leaves;
}

TEST(Json, CommasAndNestingInEmptyOneAndNestedContainers) {
  JsonWriter empty_obj;
  empty_obj.begin_object().end_object();
  EXPECT_EQ(empty_obj.str(), "{}\n");
  JsonWriter empty_arr;
  empty_arr.begin_array().end_array();
  EXPECT_EQ(empty_arr.str(), "[]\n");

  JsonWriter one;
  one.begin_object().field("a", 1).end_object();
  EXPECT_EQ(one.str(), "{\n  \"a\": 1\n}\n");
  for (const auto* doc : {&empty_obj, &empty_arr, &one})
    EXPECT_TRUE(fuse::test::scan_json(doc->str()).ok()) << doc->str();

  // Members of the root and of its objects take one line each; a row
  // (a container inside an array) stays on one line with all it holds.
  JsonWriter w;
  w.begin_object();
  w.field("n", 2);
  w.key("empty").begin_array().end_array();
  w.key("obj").begin_object().field("x", true).field("y", false).end_object();
  w.key("rows").begin_array();
  w.begin_object().field("id", 0).key("s").begin_array().end_array()
      .end_object();
  w.begin_object().field("id", 1).key("s").begin_array().value(7).value(8)
      .end_array().key("o").begin_object().end_object().end_object();
  w.end_array();
  w.key("nums").begin_array().value(1).end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"n\": 2,\n"
            "  \"empty\": [],\n"
            "  \"obj\": {\n"
            "    \"x\": true,\n"
            "    \"y\": false\n"
            "  },\n"
            "  \"rows\": [\n"
            "    {\"id\": 0, \"s\": []},\n"
            "    {\"id\": 1, \"s\": [7, 8], \"o\": {}}\n"
            "  ],\n"
            "  \"nums\": [\n"
            "    1\n"
            "  ]\n"
            "}\n");
  const auto leaves = json_leaves(w.str());
  EXPECT_EQ(leaves.at("rows[1].s[1]"), "8");
  EXPECT_EQ(leaves.at("obj.y"), "false");
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.begin_object()
      .field("q\"k", "a\"b\\c\nd\x01" "e\t\x1f")
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"q\\\"k\": \"a\\\"b\\\\c\\u000ad\\u0001e\\u0009\\u001f\"\n}\n");
  EXPECT_EQ(json_leaves(w.str()).size(), 1u);
}

TEST(Json, IntegerExtremesStayIntegers) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::size_t{0})
      .value(-1)
      .end_array();
  const auto leaves = json_leaves(w.str());
  EXPECT_EQ(leaves.at("[0]"), "18446744073709551615");
  EXPECT_EQ(leaves.at("[1]"), "-9223372036854775808");
  EXPECT_EQ(leaves.at("[2]"), "0");
  EXPECT_EQ(leaves.at("[3]"), "-1");
}

TEST(Json, NonFiniteNumbersAreNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .value(std::numeric_limits<float>::quiet_NaN())
      .value(-std::numeric_limits<float>::infinity())
      .end_array();
  const auto leaves = json_leaves(w.str());
  ASSERT_EQ(leaves.size(), 5u);
  for (const auto& [path, token] : leaves) EXPECT_EQ(token, "null") << path;
}

TEST(Json, FloatingPointRoundTripsExactlyAndStaysFloatingPoint) {
  const double d = 0.1 + 0.2;  // needs all 17 significant digits
  const float f = 1.0f / 3.0f;
  JsonWriter w;
  w.begin_array()
      .value(d)
      .value(f)
      .value(8.0)
      .value(-0.0)
      .value(1e300)
      .value(5e-324)
      .end_array();
  const auto leaves = json_leaves(w.str());
  EXPECT_EQ(std::strtod(leaves.at("[0]").c_str(), nullptr), d);
  // A float is written at float width: shortest digits, read back exact.
  EXPECT_EQ(leaves.at("[1]"), "0.33333334");
  EXPECT_EQ(std::strtof(leaves.at("[1]").c_str(), nullptr), f);
  EXPECT_EQ(leaves.at("[2]"), "8.0");  // integral doubles keep a '.'
  EXPECT_EQ(leaves.at("[3]"), "-0.0");
  EXPECT_EQ(std::strtod(leaves.at("[4]").c_str(), nullptr), 1e300);
  EXPECT_EQ(std::strtod(leaves.at("[5]").c_str(), nullptr), 5e-324);
}

TEST(Json, MisplacedMembersThrow) {
  JsonWriter no_key;
  no_key.begin_object();
  EXPECT_THROW(no_key.value(1), std::logic_error);
  JsonWriter key_in_array;
  key_in_array.begin_array();
  EXPECT_THROW(key_in_array.key("k"), std::logic_error);
  JsonWriter mismatched;
  mismatched.begin_object();
  EXPECT_THROW(mismatched.end_array(), std::logic_error);
  JsonWriter dangling;
  dangling.begin_object().key("k");
  EXPECT_THROW(dangling.end_object(), std::logic_error);
  JsonWriter two_roots;
  two_roots.value(1);
  EXPECT_THROW(two_roots.value(2), std::logic_error);
}

// ------------------------------------------------------------------- cli --

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--scale=2.5", "--paper", "--seed=99",
                        "--name=test"};
  fuse::util::Cli cli(5, const_cast<char**>(argv));
  EXPECT_TRUE(cli.has("paper"));
  EXPECT_TRUE(cli.paper());
  EXPECT_EQ(cli.get("name"), "test");
  EXPECT_EQ(cli.get_int("seed", 0), 99);
  EXPECT_EQ(cli.get("missing", "def"), "def");
  EXPECT_EQ(cli.get_double("missing", 1.5), 1.5);
}

TEST(Cli, ScaleDefaultsToOne) {
  const char* argv[] = {"prog"};
  fuse::util::Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.scale(), 1.0);
}

TEST(Cli, MalformedNumberFallsBack) {
  const char* argv[] = {"prog", "--seed=abc"};
  fuse::util::Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("seed", 7), 7);
}

TEST(Cli, ScaledHelper) {
  EXPECT_EQ(fuse::util::scaled(100, 0.5), 50u);
  EXPECT_EQ(fuse::util::scaled(100, 0.001, 10), 10u);
  EXPECT_EQ(fuse::util::scaled(3, 1.0), 3u);
}

// -------------------------------------------------------------- geometry --

TEST(Geometry, VectorAlgebra) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FLOAT_EQ((a + b).x, 5.0f);
  EXPECT_FLOAT_EQ((b - a).z, 3.0f);
  EXPECT_FLOAT_EQ(a.dot(b), 32.0f);
  const Vec3 c = a.cross(b);
  EXPECT_FLOAT_EQ(c.x, -3.0f);
  EXPECT_FLOAT_EQ(c.y, 6.0f);
  EXPECT_FLOAT_EQ(c.z, -3.0f);
  EXPECT_FLOAT_EQ(Vec3(3, 4, 0).norm(), 5.0f);
}

TEST(Geometry, NormalizedHandlesZero) {
  EXPECT_EQ(Vec3{}.normalized().norm(), 0.0f);
  EXPECT_NEAR(Vec3(0, 0, 9).normalized().z, 1.0f, 1e-6f);
}

TEST(Geometry, RodriguesRotation) {
  // Rotate x-axis 90 degrees around z: should give y-axis.
  const Vec3 r = fuse::util::rotate_axis_angle(
      {1, 0, 0}, {0, 0, 1}, fuse::util::deg2rad(90.0f));
  EXPECT_NEAR(r.x, 0.0f, 1e-6f);
  EXPECT_NEAR(r.y, 1.0f, 1e-6f);
  EXPECT_NEAR(r.z, 0.0f, 1e-6f);
}

TEST(Geometry, RotationPreservesLength) {
  fuse::util::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const Vec3 v{rng.uniformf(-1, 1), rng.uniformf(-1, 1),
                 rng.uniformf(-1, 1)};
    const Vec3 axis =
        Vec3{rng.uniformf(-1, 1), rng.uniformf(-1, 1), rng.uniformf(-1, 1)}
            .normalized();
    const Vec3 r =
        fuse::util::rotate_axis_angle(v, axis, rng.uniformf(0, 6.28f));
    EXPECT_NEAR(r.norm(), v.norm(), 1e-5f);
  }
}

TEST(Geometry, LerpAndSmoothstep) {
  const Vec3 m = fuse::util::lerp({0, 0, 0}, {2, 4, 6}, 0.5f);
  EXPECT_FLOAT_EQ(m.y, 2.0f);
  EXPECT_EQ(fuse::util::smoothstep(0.0f), 0.0f);
  EXPECT_EQ(fuse::util::smoothstep(1.0f), 1.0f);
  EXPECT_FLOAT_EQ(fuse::util::smoothstep(0.5f), 0.5f);
  EXPECT_EQ(fuse::util::smoothstep(-1.0f), 0.0f);
}

TEST(Geometry, Clampf) {
  EXPECT_EQ(fuse::util::clampf(5.0f, 0.0f, 1.0f), 1.0f);
  EXPECT_EQ(fuse::util::clampf(-5.0f, 0.0f, 1.0f), 0.0f);
  EXPECT_EQ(fuse::util::clampf(0.5f, 0.0f, 1.0f), 0.5f);
}

// ------------------------------------------------------------------ isa --

TEST(Isa, HostLevelsNarrowestFirstAndDispatchedIsTheWidest) {
  const auto isas = fuse::util::host_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), fuse::util::Isa::kGeneric);  // always present
  for (std::size_t i = 1; i < isas.size(); ++i)
    EXPECT_GT(static_cast<int>(isas[i]), static_cast<int>(isas[i - 1]));
  EXPECT_EQ(fuse::util::dispatched_isa(), isas.back());
  for (const fuse::util::Isa isa : isas)
    EXPECT_TRUE(fuse::util::host_supports(isa));
}

}  // namespace
