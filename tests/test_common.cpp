#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/math.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"

namespace dvc {
namespace {

TEST(Math, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_floor(1023), 9);
  EXPECT_EQ(ilog2_floor(1024), 10);
  EXPECT_THROW(ilog2_floor(0), precondition_error);
}

TEST(Math, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(2), 1);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(4), 2);
  EXPECT_EQ(ilog2_ceil(5), 3);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(iceil_div(0, 3), 0);
  EXPECT_EQ(iceil_div(1, 3), 1);
  EXPECT_EQ(iceil_div(3, 3), 1);
  EXPECT_EQ(iceil_div(4, 3), 2);
}

TEST(Math, LogStar) {
  EXPECT_EQ(log_star(1), 0);
  EXPECT_EQ(log_star(2), 0);
  EXPECT_EQ(log_star(3), 1);
  EXPECT_EQ(log_star(4), 1);
  EXPECT_EQ(log_star(5), 2);
  EXPECT_EQ(log_star(16), 2);
  EXPECT_EQ(log_star(17), 3);
  EXPECT_EQ(log_star(65536), 3);
  EXPECT_EQ(log_star(65537), 4);
}

TEST(Math, Primes) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));
  EXPECT_TRUE(is_prime(7919));
  EXPECT_EQ(next_prime_at_least(90), 97u);
  EXPECT_EQ(next_prime_at_least(97), 97u);
  EXPECT_EQ(next_prime_above(97), 101u);
  EXPECT_EQ(next_prime_at_least(0), 2u);
}

TEST(Math, IntegerRoots) {
  EXPECT_EQ(iroot_floor(0, 2), 0u);
  EXPECT_EQ(iroot_floor(8, 3), 2u);
  EXPECT_EQ(iroot_floor(9, 2), 3u);
  EXPECT_EQ(iroot_floor(10, 2), 3u);
  EXPECT_EQ(iroot_ceil(10, 2), 4u);
  EXPECT_EQ(iroot_ceil(9, 2), 3u);
  EXPECT_EQ(iroot_ceil(1000000, 3), 100u);
  EXPECT_EQ(iroot_ceil(1000001, 3), 101u);
  // Round trip: ceil-root to the k-th power is >= x.
  for (std::uint64_t x : {5ull, 1234ull, 99999ull, 123456789ull}) {
    for (int k = 1; k <= 6; ++k) {
      const std::uint64_t r = iroot_ceil(x, k);
      std::uint64_t acc = 1;
      for (int i = 0; i < k; ++i) acc *= r;
      EXPECT_GE(acc, x) << x << " " << k;
    }
  }
}

TEST(Math, IpowSaturating) {
  EXPECT_EQ(ipow_saturating(2, 10, 1u << 20), 1024u);
  EXPECT_EQ(ipow_saturating(10, 30, 1000), 1000u);
  EXPECT_EQ(ipow_saturating(7, 0, 100), 1u);
}

TEST(Prng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    const auto x = rng.uniform_in(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
  EXPECT_THROW(rng.uniform(0), precondition_error);
}

TEST(Prng, UniformCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.row("alpha", 42);
  t.row("b", 3.5);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha | 42"), std::string::npos);
  EXPECT_NE(s.find("3.500"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsBadRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), precondition_error);
}

TEST(Cli, ParsesFlags) {
  const char* argv[] = {"prog", "--n=100", "--rate=0.5", "--name=x", "--flag"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("name", ""), "x");
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, RejectsSpaceFormAndUnparsableNumbers) {
  // The space form leaves a bare "24" that is not a flag.
  const char* space[] = {"prog", "--jobs", "24"};
  EXPECT_THROW(Cli(3, const_cast<char**>(space)), precondition_error);

  const char* bad[] = {"prog", "--n=abc", "--k=12x", "--e=", "--r=0.5q",
                       "--big=99999999999999999999"};
  const Cli cli(6, const_cast<char**>(bad));
  for (const char* key : {"n", "k", "e", "big"}) {
    EXPECT_THROW(cli.get_int(key, 0), precondition_error) << key;
  }
  EXPECT_THROW(cli.get_double("r", 0.0), precondition_error);
  EXPECT_THROW(cli.get_double("e", 0.0), precondition_error);
  try {
    cli.get_int("n", 0);
    ADD_FAILURE() << "--n=abc parsed";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << e.what();
  }
}

TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(DVC_REQUIRE(false, "boom"), precondition_error);
  EXPECT_NO_THROW(DVC_REQUIRE(true, "fine"));
}

TEST(Check, EnsureThrowsInvariantError) {
  EXPECT_THROW(DVC_ENSURE(false, "boom"), invariant_error);
}

}  // namespace
}  // namespace dvc
