#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "gtest/gtest.h"

namespace cloudsurv {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::InvalidArgument("bad").message(), "bad");
  EXPECT_FALSE(Status::InvalidArgument("bad").ok());
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::NotFound("missing row").ToString(),
            "NotFound: missing row");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Result<int> Doubled(Result<int> in) {
  CLOUDSURV_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  Result<int> err = Doubled(Status::OutOfRange("x"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng a(9);
  Rng fork_before = a.Fork(5);
  a.Uniform();
  a.Uniform();
  Rng fork_after = a.Fork(5);
  // Forks depend only on (seed, salt), not on how much the parent drew.
  EXPECT_DOUBLE_EQ(fork_before.Uniform(), fork_after.Uniform());
}

TEST(RngTest, ForksWithDifferentSaltsDiffer) {
  Rng a(9);
  Rng f1 = a.Fork(1);
  Rng f2 = a.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.UniformInt(0, 1 << 30) == f2.UniformInt(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  const auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, ","), "x,y,z");
  EXPECT_EQ(SplitString(JoinStrings(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC-123"), "abc-123");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("cloudsurv", "cloud"));
  EXPECT_FALSE(StartsWith("cloud", "cloudsurv"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(RunTasksTest, RunsEveryTaskOnce) {
  for (unsigned threads : {1u, 3u}) {
    std::vector<std::atomic<int>> runs(1000);
    const Status s = RunTasks(runs.size(), threads, [&](size_t i) {
      runs[i].fetch_add(1);
      return Status::OK();
    });
    EXPECT_TRUE(s.ok());
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  }
  EXPECT_TRUE(RunTasks(0, 4, [](size_t) { return Status::OK(); }).ok());
}

// Task 5 fails, and so does every task after it with its own message:
// whatever the schedule, task 5's failure comes back, every task up to
// it ran, and no task ran twice.
TEST(RunTasksTest, ReturnsTheLowestFailureForAnySchedule) {
  constexpr size_t kCount = 64;
  for (unsigned threads : {1u, 2u, 5u, 8u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::atomic<int>> runs(kCount);
      const Status s = RunTasks(kCount, threads, [&](size_t i) {
        runs[i].fetch_add(1);
        if (i == 5) return Status::Internal("task 5");
        if (i > 5) return Status::OutOfRange("task " + std::to_string(i));
        return Status::OK();
      });
      ASSERT_EQ(s, Status::Internal("task 5")) << threads;
      for (size_t i = 0; i < kCount; ++i) {
        if (i <= 5) {
          ASSERT_EQ(runs[i].load(), 1) << i;
        }
        ASSERT_LE(runs[i].load(), 1) << i;
      }
    }
  }
}

}  // namespace
}  // namespace cloudsurv
