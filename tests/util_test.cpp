// Unit tests for the util substrate: RNG, histogram, statistics, ring
// buffer, text tables, and the string interner.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/histogram.hpp"
#include "util/interner.hpp"
#include "util/log_histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using aft::util::Histogram;
using aft::util::LogHistogram;
using aft::util::RunningStats;
using aft::util::SplitMix64;
using aft::util::StringInterner;
using aft::util::TextTable;
using aft::util::Xoshiro256;

// --- RNG ------------------------------------------------------------------

TEST(SplitMix64Test, SameSeedSameStream) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256Test, Uniform01InRange) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256Test, Uniform01MeanNearHalf) {
  Xoshiro256 rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256Test, UniformIntRespectsBounds) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values reachable
}

TEST(Xoshiro256Test, UniformIntSingleton) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42u);
}

TEST(Xoshiro256Test, UniformIntPowerOfTwoMaskMatchesModulo) {
  // The power-of-two fast path masks instead of dividing; for draws below
  // the rejection limit (all but ~2^-56 of them at span 256) the mask and
  // the modulo give the same value, so both code paths must agree draw by
  // draw on a shared stream.
  Xoshiro256 fast(29);
  Xoshiro256 slow(29);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t raw = slow.next();
    EXPECT_EQ(fast.uniform_int(0, 255), raw % 256);
  }
}

TEST(Xoshiro256Test, UniformIntPowerOfTwoUniformity) {
  // Chi-squared sanity over 16 buckets: 64 000 draws, expected 4 000 per
  // bucket.  With 15 degrees of freedom, chi2 > 60 has p < 3e-7 — a
  // deterministic seed keeps this from ever flaking.
  Xoshiro256 rng(37);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 64000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.uniform_int(0, kBuckets - 1)]++;
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 60.0);
  // Offset ranges exercise the `lo +` term of the fast path.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(100, 163);  // span 64
    EXPECT_GE(v, 100u);
    EXPECT_LE(v, 163u);
  }
}

TEST(Xoshiro256Test, BernoulliExtremes) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Xoshiro256Test, BernoulliFrequency) {
  Xoshiro256 rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Xoshiro256Test, JumpProducesDisjointStream) {
  Xoshiro256 a(23);
  Xoshiro256 b(23);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, EmptyBehaviour) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.count(3), 0u);
  EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
  EXPECT_EQ(h.mode(), 0);
}

TEST(HistogramTest, CountsAndFractions) {
  Histogram h;
  h.add(3, 90);
  h.add(5, 9);
  h.add(7);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.count(3), 90u);
  EXPECT_DOUBLE_EQ(h.fraction(3), 0.9);
  EXPECT_DOUBLE_EQ(h.fraction(5), 0.09);
  EXPECT_DOUBLE_EQ(h.fraction(7), 0.01);
  EXPECT_EQ(h.mode(), 3);
}

TEST(HistogramTest, RenderLogScaleMentionsEveryBin) {
  Histogram h;
  h.add(3, 1000000);
  h.add(5, 100);
  h.add(9, 1);
  const std::string render = h.render_log_scale(40);
  EXPECT_NE(render.find("3\t"), std::string::npos);
  EXPECT_NE(render.find("5\t"), std::string::npos);
  EXPECT_NE(render.find("9\t"), std::string::npos);
  EXPECT_NE(render.find("1000000"), std::string::npos);
}

TEST(HistogramTest, SingletonBinRendersVisibleBar) {
  // Golden regression for the log-scale rescale: a bin with exactly one
  // sample used to map to log10(1) = 0 and render a zero-width bar,
  // indistinguishable from an empty bin — exactly the r=9 "visited once"
  // case of the Fig. 7 histogram.  With the log10(n)+1 scale every
  // non-empty bin gets at least one '#'.
  Histogram h;
  h.add(9, 1);
  const std::string render = h.render_log_scale(50);
  EXPECT_EQ(render, "9\t| " + std::string(50, '#') + "  1 (100%)\n");

  Histogram mixed;
  mixed.add(3, 1000000);
  mixed.add(9, 1);
  const std::string r2 = mixed.render_log_scale(49);
  // 49 * (log10(1)+1)/(log10(1e6)+1) = 49 * 1/7 = 7 hashes for the singleton.
  EXPECT_NE(r2.find("9\t| #######  1"), std::string::npos);
}

TEST(HistogramTest, LogScaleBarsMonotone) {
  Histogram h;
  h.add(1, 10);
  h.add(2, 100000);
  const std::string render = h.render_log_scale(60);
  // The larger bin must render a strictly longer bar.
  const auto line1_hashes = render.substr(0, render.find('\n'));
  const auto line2 = render.substr(render.find('\n') + 1);
  const auto count_hash = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '#');
  };
  EXPECT_LT(count_hash(line1_hashes), count_hash(line2));
}

TEST(HistogramTest, CachedBinStaysWithItsOwnObjectAcrossCopiesAndMoves) {
  // add() remembers the bin it touched last, a pointer into its own map.
  // Every object made from or assigned over a histogram whose cached key
  // is 3 must count its next add(3) in its own bins, and only there.
  using Bins = std::map<std::int64_t, std::uint64_t>;
  Histogram h;
  h.add(5, 2);
  h.add(3, 5);

  Histogram copied(h);
  copied.add(3);
  h.add(3, 10);
  EXPECT_EQ(copied.bins(), (Bins{{3, 6}, {5, 2}}));
  EXPECT_EQ(copied.total(), 8u);
  EXPECT_EQ(h.bins(), (Bins{{3, 15}, {5, 2}}));
  EXPECT_EQ(h.total(), 17u);

  Histogram assigned;
  assigned.add(3, 100);  // caches a bin of the map the assignment frees
  assigned = h;
  assigned.add(3);
  EXPECT_EQ(assigned.bins(), (Bins{{3, 16}, {5, 2}}));
  EXPECT_EQ(assigned.count(3), 16u);
  EXPECT_EQ(assigned.total(), 18u);
  EXPECT_EQ(h.count(3), 15u);

  Histogram moved(std::move(copied));
  moved.add(3);
  EXPECT_EQ(moved.bins(), (Bins{{3, 7}, {5, 2}}));
  EXPECT_EQ(moved.total(), 9u);
  // The moved-from object is valid, if unspecified: an add lands in its own
  // bins, not in the ones it handed over.
  const std::uint64_t left = copied.count(3);
  const std::uint64_t left_total = copied.total();
  copied.add(3);
  EXPECT_EQ(copied.count(3), left + 1);
  EXPECT_EQ(copied.total(), left_total + 1);
  EXPECT_EQ(moved.count(3), 7u);

  Histogram move_assigned;
  move_assigned.add(3, 100);
  move_assigned = std::move(moved);
  move_assigned.add(3);
  EXPECT_EQ(move_assigned.bins(), (Bins{{3, 8}, {5, 2}}));
  EXPECT_EQ(move_assigned.total(), 10u);
  const std::uint64_t moved_left = moved.count(3);
  moved.add(3);
  EXPECT_EQ(moved.count(3), moved_left + 1);
  EXPECT_EQ(move_assigned.count(3), 8u);

  EXPECT_EQ(h.bins(), (Bins{{3, 15}, {5, 2}}));  // untouched by all of it
  h.add(3);
  EXPECT_EQ(h.count(3), 16u);
  EXPECT_EQ(assigned.count(3), 16u);
}

TEST(HistogramTest, RenderLogScaleRejectsNonPositiveWidth) {
  // Regression: a zero or negative width used to flow into the bar-length
  // arithmetic (where it underflowed or rendered garbage) instead of being
  // rejected at the API boundary.
  Histogram h;
  h.add(3, 10);
  EXPECT_THROW((void)h.render_log_scale(0), std::invalid_argument);
  EXPECT_THROW((void)h.render_log_scale(-7), std::invalid_argument);
  EXPECT_NO_THROW((void)h.render_log_scale(1));
}

// --- RunningStats -----------------------------------------------------------

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, left, right;
  Xoshiro256 rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10;
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeSingleSampleEachSide) {
  RunningStats a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.variance(), 1.0);  // population variance of {1,3}
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// --- TextTable ----------------------------------------------------------------

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTableTest, RowWidthMismatchThrows) {
  TextTable t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
}

TEST(TextTableTest, FmtPrecision) {
  EXPECT_EQ(aft::util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(aft::util::fmt(1.0, 0), "1");
}

// --- LogHistogram --------------------------------------------------------------

/// Same rank rule quantile() documents: the ceil(p*n)-th smallest sample,
/// clamped to [1, n].
std::uint64_t sorted_reference(const std::vector<std::uint64_t>& sorted,
                               double p) {
  std::uint64_t rank =
      p <= 0.0 ? 1
               : static_cast<std::uint64_t>(
                     std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<std::uint64_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

TEST(LogHistogramTest, EmptyReportsZeroEverywhere) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(LogHistogramTest, SingletonEveryQuantileIsTheSample) {
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{31}, std::uint64_t{32},
                                std::uint64_t{7777},
                                std::uint64_t{1} << 40}) {
    LogHistogram h;
    h.add(v);
    for (const double p : {0.0, 0.5, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(h.quantile(p), v) << "v=" << v << " p=" << p;
    }
    EXPECT_EQ(h.min(), v);
    EXPECT_EQ(h.max(), v);
    EXPECT_EQ(h.sum(), v);
  }
}

TEST(LogHistogramTest, AllEqualStreamIsExactAtEveryQuantile) {
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.add(std::uint64_t{12345});
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(p), 12345u) << "p=" << p;
  }
}

TEST(LogHistogramTest, BucketMapTilesTheDomain) {
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    const std::uint64_t lo = LogHistogram::bucket_lower(i);
    const std::uint64_t hi = LogHistogram::bucket_upper(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(LogHistogram::bucket_index(lo), i);
    EXPECT_EQ(LogHistogram::bucket_index(hi), i);
    if (i > 0) {
      EXPECT_EQ(LogHistogram::bucket_upper(i - 1) + 1, lo)
          << "seam before bucket " << i;
    }
  }
}

TEST(LogHistogramTest, BoundarySamplesLandInTheirOwnBucket) {
  // One sample exactly on each bucket boundary of the first few majors must
  // be recoverable as its own quantile within the 1/32 error bound.
  LogHistogram h;
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < 8 * LogHistogram::kSubBuckets; ++i) {
    values.push_back(LogHistogram::bucket_lower(i));
    h.add(values.back());
  }
  std::sort(values.begin(), values.end());
  for (const double p : {0.1, 0.5, 0.9, 1.0}) {
    const std::uint64_t ref = sorted_reference(values, p);
    const std::uint64_t got = h.quantile(p);
    EXPECT_GE(got, ref) << "p=" << p;
    EXPECT_LE(got, ref + ref / LogHistogram::kSubBuckets + 1) << "p=" << p;
  }
}

TEST(LogHistogramTest, QuantileWithinBoundOfSortedReference) {
  Xoshiro256 rng(4242);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{100},
                              std::size_t{5000}}) {
    LogHistogram h;
    std::vector<std::uint64_t> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix magnitudes: small exact-range values through ~2^44.
      const std::uint64_t v = rng.next() >> (20 + rng.next() % 44);
      values.push_back(v);
      h.add(v);
    }
    std::sort(values.begin(), values.end());
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const std::uint64_t ref = sorted_reference(values, p);
      const std::uint64_t got = h.quantile(p);
      // quantile() is conservative: >= the true order statistic, and over
      // by at most one sub-bucket width (<= ref/32), clamped to max().
      EXPECT_GE(got, ref) << "n=" << n << " p=" << p;
      EXPECT_LE(got, ref + ref / LogHistogram::kSubBuckets + 1)
          << "n=" << n << " p=" << p;
      EXPECT_LE(got, h.max());
    }
  }
}

TEST(LogHistogramTest, MergeBitIdenticalToSequentialAdd) {
  Xoshiro256 rng(909);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 4000; ++i) stream.push_back(rng.next() >> (rng.next() % 50));

  LogHistogram sequential;
  for (const std::uint64_t v : stream) sequential.add(v);

  // Any chunking and any merge order must reproduce the sequential result
  // exactly (operator== compares every bucket).
  for (const std::size_t chunks : {std::size_t{2}, std::size_t{3},
                                   std::size_t{8}}) {
    std::vector<LogHistogram> parts(chunks);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      parts[i % chunks].add(stream[i]);
    }
    LogHistogram forward;
    for (const LogHistogram& part : parts) forward.merge(part);
    LogHistogram backward;
    for (std::size_t i = chunks; i-- > 0;) backward.merge(parts[i]);
    EXPECT_TRUE(forward == sequential) << "chunks=" << chunks;
    EXPECT_TRUE(backward == sequential) << "chunks=" << chunks;
  }
}

TEST(LogHistogramTest, MergeWithEmptyIsIdentity) {
  LogHistogram h;
  h.add(std::uint64_t{17});
  LogHistogram empty;
  LogHistogram copy = h;
  copy.merge(empty);
  EXPECT_TRUE(copy == h);
  empty.merge(h);
  EXPECT_TRUE(empty == h);
}

TEST(LogHistogramTest, DoubleClampEdges) {
  EXPECT_EQ(LogHistogram::clamp(std::nan("")), 0u);
  EXPECT_EQ(LogHistogram::clamp(-3.0), 0u);
  EXPECT_EQ(LogHistogram::clamp(0.0), 0u);
  EXPECT_EQ(LogHistogram::clamp(0.4), 0u);
  EXPECT_EQ(LogHistogram::clamp(0.5), 1u);
  EXPECT_EQ(LogHistogram::clamp(7.0), 7u);
  EXPECT_EQ(LogHistogram::clamp(1e30), ~std::uint64_t{0});
  LogHistogram h;
  h.add(2.49);
  EXPECT_EQ(h.max(), 2u);
}

TEST(LogHistogramTest, ResetClearsEverything) {
  LogHistogram h;
  h.add(std::uint64_t{99});
  h.reset();
  EXPECT_TRUE(h == LogHistogram{});
}

// --- StringInterner --------------------------------------------------------

TEST(StringInternerTest, IdsAreDenseInFirstSeenOrder) {
  StringInterner in;
  EXPECT_EQ(in.intern("b"), 0u);
  EXPECT_EQ(in.intern("a"), 1u);
  EXPECT_EQ(in.intern("b"), 0u);
  EXPECT_EQ(in.intern(std::string("c")), 2u);
  EXPECT_EQ(in.size(), 3u);
  EXPECT_EQ(in.name(0), "b");
  EXPECT_EQ(in.name(1), "a");
  EXPECT_EQ(in.name(2), "c");
}

TEST(StringInternerTest, FindNeverInterns) {
  StringInterner in;
  EXPECT_EQ(in.find("x"), StringInterner::kNone);
  EXPECT_EQ(in.size(), 0u);
  const StringInterner::Id id = in.intern("x");
  EXPECT_EQ(in.find("x"), id);
  EXPECT_EQ(in.find("y"), StringInterner::kNone);
  EXPECT_EQ(in.size(), 1u);
}

TEST(StringInternerTest, ReusedBufferWithNewContentGetsItsOwnId) {
  // Same address, same length, new bytes: the pointer cache must not hand
  // back the id of what the buffer held before.
  StringInterner in;
  char buf[8] = "alpha";
  const std::string_view view(buf, 5);
  EXPECT_EQ(in.intern(view), 0u);
  std::memcpy(buf, "omega", 5);
  EXPECT_EQ(in.intern(view), 1u);
  EXPECT_EQ(in.name(1), "omega");
  std::memcpy(buf, "alpha", 5);
  EXPECT_EQ(in.intern(view), 0u);
}

TEST(StringInternerTest, StaticHitNeverComparesBytes) {
  // intern_static() is for bytes that never change (obs::Name literals), so
  // its cache hit is the address and length alone.  A buffer rewritten in
  // place shows it: the static path keeps handing back the first id, which
  // it could not if it compared bytes, while intern() on the same address
  // sees the new content and gives it its own id.
  static char buf[8] = "alpha";
  const std::string_view view(buf, 5);
  StringInterner in;
  const StringInterner::Id alpha = in.intern_static(view);
  EXPECT_EQ(alpha, 0u);
  std::memcpy(buf, "omega", 5);
  EXPECT_EQ(in.intern_static(view), alpha);
  EXPECT_EQ(in.intern(view), 1u);
  EXPECT_EQ(in.name(1), "omega");
  std::memcpy(buf, "alpha", 5);
  EXPECT_EQ(in.intern(view), alpha);
}

TEST(StringInternerTest, StaticAndValidatedPathsAgreeOnLiterals) {
  StringInterner in;
  const std::string_view lit = "net.link";
  const StringInterner::Id id = in.intern_static(lit);
  EXPECT_EQ(in.intern(lit), id);
  EXPECT_EQ(in.intern_static(lit), id);
  EXPECT_EQ(in.intern(std::string("net.link")), id);  // by content
  EXPECT_EQ(in.size(), 1u);
}

TEST(StringInternerTest, PackedKeysRoundTripAndSpreadOverTheCache) {
  // Literals of one call site sit next to each other in memory.  64 keys
  // four bytes apart must not crowd into a few cache slots.
  static char packed[64 * 4];
  for (int i = 0; i < 64; ++i) {
    std::snprintf(packed + 4 * i, 4, "k%02d", i);
  }
  StringInterner in;
  std::set<std::size_t> slots;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 64; ++i) {
      const std::string_view key(packed + 4 * i, 3);
      const StringInterner::Id id = in.intern(key);
      EXPECT_EQ(id, static_cast<StringInterner::Id>(i));
      EXPECT_EQ(in.name(id), key);
      slots.insert(StringInterner::cache_slot(
          reinterpret_cast<std::uintptr_t>(key.data())));
    }
  }
  EXPECT_EQ(in.size(), 64u);
  EXPECT_GE(slots.size(), 48u);
  for (const std::size_t slot : slots) {
    EXPECT_LT(slot, StringInterner::kCacheSlots);
  }
}

TEST(StringInternerTest, MovesKeepNamesAndCopiesAreDeleted) {
  static_assert(!std::is_copy_constructible_v<StringInterner>);
  static_assert(!std::is_copy_assignable_v<StringInterner>);
  static_assert(std::is_move_constructible_v<StringInterner>);
  static_assert(std::is_move_assignable_v<StringInterner>);
  StringInterner a;
  a.intern("one");
  a.intern("two");
  StringInterner b(std::move(a));
  EXPECT_EQ(b.name(1), "two");
  EXPECT_EQ(b.intern("one"), 0u);
  StringInterner c;
  c = std::move(b);
  EXPECT_EQ(c.name(0), "one");
  EXPECT_EQ(c.intern("three"), 2u);
  // A moved-from interner is empty, its cache too: a static hit cannot
  // hand back an id of the table that moved away.
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.intern_static("two"), 0u);
  EXPECT_EQ(b.name(0), "two");
}

}  // namespace
