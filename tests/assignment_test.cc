#include "sim/assignment.h"

#include <vector>

#include <gtest/gtest.h>

namespace nmc::sim {
namespace {

TEST(RoundRobinTest, Cycles) {
  RoundRobinAssignment psi(3);
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, 1.0), 1);
  EXPECT_EQ(psi.NextSite(2, 1.0), 2);
  EXPECT_EQ(psi.NextSite(3, 1.0), 0);
  EXPECT_EQ(psi.NextSite(301, -1.0), 1);
}

TEST(RoundRobinTest, FillSitesMatchesNextSite) {
  // The increment-and-wrap span form against the closed form, from
  // offsets that start mid-cycle and far out in t.
  RoundRobinAssignment psi(5);
  const std::vector<double> values(23, 1.0);
  for (const int64_t t0 : {int64_t{0}, int64_t{3}, int64_t{1} << 40}) {
    std::vector<int> sites(values.size(), -1);
    psi.FillSites(t0, values, sites);
    for (size_t i = 0; i < sites.size(); ++i) {
      EXPECT_EQ(sites[i], psi.NextSite(t0 + static_cast<int64_t>(i), 1.0))
          << "t0=" << t0 << " i=" << i;
    }
  }
}

TEST(AssignmentTest, FillSitesMatchesNextSiteForEveryPolicy) {
  // Every named policy's span form, overridden or not, against a fresh
  // twin fed one NextSite at a time, over consecutive spans whose
  // boundaries fall mid-block and mid-cycle.
  const std::vector<double> values = {1,  -1, -1, 1, 1,  1, -1, -1, -1, -1,
                                      1,  1,  -1, 1, -1, 1, 1,  1,  -1, 1,
                                      -1, -1, 1,  1, 1,  -1, -1};
  for (const char* name : {"round_robin", "random", "single", "block",
                           "sign_split", "zero_crossing"}) {
    for (const int k : {1, 3, 4}) {
      auto spans = MakeAssignment(name, k, 9);
      auto steps = MakeAssignment(name, k, 9);
      int64_t t = 60;  // straddles a 64-update block at "block"
      for (const size_t len : {size_t{1}, size_t{7}, size_t{19}}) {
        const std::span<const double> chunk(values.data(), len);
        std::vector<int> sites(len, -1);
        spans->FillSites(t, chunk, sites);
        for (size_t i = 0; i < len; ++i) {
          EXPECT_EQ(sites[i], steps->NextSite(t, chunk[i]))
              << name << " k=" << k << " t=" << t;
          ++t;
        }
      }
    }
  }
}

TEST(AssignmentTest, DefaultFillSitesCallsNextSiteInOrder) {
  // Stateful policies see every (t, value) once, in order: the span form
  // is the NextSite sequence.
  auto spans = MakeAssignment("zero_crossing", 3, 1);
  auto steps = MakeAssignment("zero_crossing", 3, 1);
  const std::vector<double> values = {1, -1, -1, 1, 1, 1, -1, -1, -1, -1};
  std::vector<int> sites(values.size());
  spans->FillSites(7, values, sites);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(sites[i], steps->NextSite(7 + static_cast<int64_t>(i), values[i]))
        << i;
  }
}

TEST(SingleSiteTest, AlwaysTarget) {
  SingleSiteAssignment psi(4, 2);
  for (int64_t t = 0; t < 20; ++t) EXPECT_EQ(psi.NextSite(t, 1.0), 2);
}

TEST(UniformRandomTest, InRangeAndRoughlyBalanced) {
  UniformRandomAssignment psi(4, 123);
  std::vector<int64_t> counts(4, 0);
  const int n = 40000;
  for (int64_t t = 0; t < n; ++t) {
    const int s = psi.NextSite(t, 1.0);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++counts[static_cast<size_t>(s)];
  }
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.01);
  }
}

TEST(BlockCyclicTest, BlocksThenCycles) {
  BlockCyclicAssignment psi(2, 3);
  std::vector<int> expected{0, 0, 0, 1, 1, 1, 0, 0, 0};
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_EQ(psi.NextSite(static_cast<int64_t>(t), 1.0), expected[t]);
  }
}

TEST(SignSplitTest, RoutesByValueSign) {
  SignSplitAssignment psi(4);
  // Positives cycle over {0, 1}; negatives over {2, 3}.
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, -1.0), 2);
  EXPECT_EQ(psi.NextSite(2, 1.0), 1);
  EXPECT_EQ(psi.NextSite(3, 1.0), 0);
  EXPECT_EQ(psi.NextSite(4, -1.0), 3);
  EXPECT_EQ(psi.NextSite(5, -1.0), 2);
}

TEST(SignSplitTest, SingleSiteDegenerates) {
  SignSplitAssignment psi(1);
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, -1.0), 0);
}

TEST(SignSplitTest, OddSiteCountSplits) {
  SignSplitAssignment psi(3);  // half = 1: positives -> {0}, negatives -> {1, 2}
  EXPECT_EQ(psi.NextSite(0, 1.0), 0);
  EXPECT_EQ(psi.NextSite(1, 1.0), 0);
  EXPECT_EQ(psi.NextSite(2, -1.0), 1);
  EXPECT_EQ(psi.NextSite(3, -1.0), 2);
  EXPECT_EQ(psi.NextSite(4, -1.0), 1);
}

TEST(ZeroCrossingTest, HopsExactlyAtCrossings) {
  ZeroCrossingAssignment psi(3);
  // Prefix sums: 1, 0*, 1, 2, 1, 0*, -1, -2, -1, 0* — hops at the *.
  const std::vector<double> values{1, -1, 1, 1, -1, -1, -1, -1, 1, 1};
  const std::vector<int> expected{0, 1, 1, 1, 1, 2, 2, 2, 2, 0};
  for (size_t t = 0; t < values.size(); ++t) {
    EXPECT_EQ(psi.NextSite(static_cast<int64_t>(t), values[t]), expected[t])
        << "t=" << t;
  }
}

TEST(ZeroCrossingTest, NoCrossingNoHop) {
  ZeroCrossingAssignment psi(4);
  for (int t = 0; t < 50; ++t) EXPECT_EQ(psi.NextSite(t, 1.0), 0);
}

TEST(MakeAssignmentTest, KnownNames) {
  for (const char* name : {"round_robin", "random", "single", "block",
                           "sign_split", "zero_crossing"}) {
    auto psi = MakeAssignment(name, 4, 7);
    ASSERT_NE(psi, nullptr) << name;
    const int s = psi->NextSite(0, 1.0);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(MakeAssignmentTest, UnknownNameIsNull) {
  EXPECT_EQ(MakeAssignment("nope", 4, 7), nullptr);
}

}  // namespace
}  // namespace nmc::sim
