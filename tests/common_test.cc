#include <cstdlib>
#include <optional>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace silofuse {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad column");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad column");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_NE(Status::Unavailable("x").ToString().find("Unavailable"),
            std::string::npos);
  EXPECT_NE(Status::DeadlineExceeded("x").ToString().find("Deadline"),
            std::string::npos);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SF_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.Value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = []() -> Result<int> { return 5; };
  auto failer = []() -> Result<int> { return Status::Internal("x"); };
  auto ok_path = [&]() -> Result<int> {
    SF_ASSIGN_OR_RETURN(int v, producer());
    return v + 1;
  };
  auto err_path = [&]() -> Result<int> {
    SF_ASSIGN_OR_RETURN(int v, failer());
    return v + 1;
  };
  EXPECT_EQ(ok_path().Value(), 6);
  EXPECT_FALSE(err_path().ok());
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
    EXPECT_DOUBLE_EQ(a.Normal(), b.Normal());
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Categorical(weights), 1);
}

TEST(RngTest, CategoricalFrequencies) {
  Rng rng(3);
  std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) count1 += rng.Categorical(weights);
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.04);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(4);
  std::vector<int> perm = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (int v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  std::vector<int> sample = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(6);
  Rng child = a.Fork();
  // Child stream differs from the parent's continued stream.
  EXPECT_NE(child.Uniform(), a.Uniform());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello\t\n"), "hello");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, FormatDoubleDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-1.0, 0), "-1");
}

TEST(StringUtilTest, ParseDoubleAcceptsValid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble(" 2.5 ", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(StringUtilTest, ParseDoubleRejectsInvalid) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.2x", &v));
  EXPECT_FALSE(ParseDouble("nan", &v));
  EXPECT_FALSE(ParseDouble("inf", &v));
}

TEST(StringUtilTest, ParseFlagVocabulary) {
  const struct {
    const char* text;
    std::optional<bool> flag;
  } kCases[] = {
      {"1", true},      {"on", true},       {"true", true},
      {"yes", true},    {"TRUE", true},     {"Yes", true},
      {"0", false},     {"off", false},     {"false", false},
      {"no", false},    {"OFF", false},     {"No", false},
      {"", std::nullopt}, {"2", std::nullopt}, {"auto", std::nullopt},
      {"none", std::nullopt}, {"8080", std::nullopt}, {" on", std::nullopt},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(ParseFlag(c.text), c.flag) << "'" << c.text << "'";
  }
}

TEST(StringUtilTest, EnvFlagFallsBackWhenUnsetOrNotAFlag) {
  constexpr char kName[] = "SILOFUSE_COMMON_TEST_FLAG";
  ::unsetenv(kName);
  EXPECT_TRUE(EnvFlag(kName, true));
  EXPECT_FALSE(EnvFlag(kName, false));
  ::setenv(kName, "off", 1);
  EXPECT_FALSE(EnvFlag(kName, true));
  ::setenv(kName, "yes", 1);
  EXPECT_TRUE(EnvFlag(kName, false));
  ::setenv(kName, "maybe", 1);
  EXPECT_TRUE(EnvFlag(kName, true));
  EXPECT_FALSE(EnvFlag(kName, false));
  ::unsetenv(kName);
}

// SILOFUSE_QUIET and SILOFUSE_VERBOSE are on/off switches like every other
// SILOFUSE_* flag: an off word or garbage leaves the level where unset does.
TEST(LoggingTest, InitialLevelReadsQuietAndVerboseAsFlags) {
  const char* kOff[] = {nullptr, "0", "off", "false", "no", "", "maybe", "2"};
  const char* kOn[] = {"1", "on", "TRUE", "yes"};
  for (const char* quiet : kOff) {
    for (const char* verbose : kOff) {
      EXPECT_EQ(InitialLogLevel(quiet, verbose), LogLevel::kInfo)
          << (quiet ? quiet : "unset") << " / " << (verbose ? verbose : "unset");
    }
    for (const char* verbose : kOn) {
      EXPECT_EQ(InitialLogLevel(quiet, verbose), LogLevel::kDebug) << verbose;
    }
  }
  // Quiet wins over verbose.
  for (const char* quiet : kOn) {
    EXPECT_EQ(InitialLogLevel(quiet, nullptr), LogLevel::kWarning) << quiet;
    EXPECT_EQ(InitialLogLevel(quiet, "0"), LogLevel::kWarning) << quiet;
    EXPECT_EQ(InitialLogLevel(quiet, "1"), LogLevel::kWarning) << quiet;
  }
}

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(prev);
}

TEST(ClockTest, VirtualClockAdvancesInstantlyAndMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowNs(), 0);
  clock.SleepFor(5'000'000);  // 5ms, but no wall time passes
  EXPECT_EQ(clock.NowNs(), 5'000'000);
  const int64_t mark = clock.NowNs();
  clock.SleepFor(1);
  EXPECT_EQ(clock.ElapsedNs(mark), 1);
}

TEST(ClockTest, SystemClockIsMonotonic) {
  SystemClock* clock = SystemClock::Default();
  const int64_t a = clock->NowNs();
  const int64_t b = clock->NowNs();
  EXPECT_GE(b, a);
}

TEST(RetryTest, BackoffIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 55;
  EXPECT_EQ(BackoffDelayMs(policy, 0), 10);
  EXPECT_EQ(BackoffDelayMs(policy, 1), 20);
  EXPECT_EQ(BackoffDelayMs(policy, 2), 40);
  EXPECT_EQ(BackoffDelayMs(policy, 3), 55);  // capped
  EXPECT_EQ(BackoffDelayMs(policy, 9), 55);
}

TEST(RetryTest, RunWithRetrySucceedsAfterTransientFailures) {
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 10;
  int attempts = 0;
  int retry_callbacks = 0;
  Status s = RunWithRetry(
      policy, &clock,
      [&](int attempt) {
        ++attempts;
        EXPECT_EQ(attempt, attempts);
        return attempts < 3 ? Status::Unavailable("flaky") : Status::OK();
      },
      [&](int, const Status&) { ++retry_callbacks; });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retry_callbacks, 2);
  EXPECT_EQ(clock.ElapsedNs(), (10 + 20) * 1'000'000);  // two backoffs
}

TEST(RetryTest, RunWithRetryStopsAtMaxAttempts) {
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  int attempts = 0;
  Status s = RunWithRetry(policy, &clock, [&](int) {
    ++attempts;
    return Status::Unavailable("always down");
  });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts, 3);
}

TEST(RetryTest, PermanentErrorsAreNotRetried) {
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  int attempts = 0;
  Status s = RunWithRetry(policy, &clock, [&](int) {
    ++attempts;
    return Status::FailedPrecondition("never going to work");
  });
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(clock.ElapsedNs(), 0);  // no backoff for permanent failures
}

}  // namespace
}  // namespace silofuse
