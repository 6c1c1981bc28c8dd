// Golden witness for the sleep contract (Ctx::sleep_until): a program that
// puts its waiting vertices to sleep must produce the same colors, rounds,
// messages, words, widest message and both per-round series as when every
// live vertex was stepped every round. Only RunStats::work_items may move.
//
// The contract has no switch that turns sleeping off, so the reference is a
// set of pinned digests recorded from the executor that stepped every live
// vertex each round: per (graph, preset), a digest of the colors and a
// digest of the PhaseLog with work_items left out. A second test pins how
// far kw-reduce's activations fall.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/api.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace dvc {
namespace {

/// A running digest_mix fold (common/check.hpp): stable across platforms
/// and builds.
struct Digest {
  std::uint64_t h = 0;
  void add(std::uint64_t x) { h = detail::digest_mix(h, x); }
};

std::uint64_t colors_digest(const Coloring& colors) {
  Digest d;
  d.add(colors.size());
  for (const std::int64_t c : colors) d.add(static_cast<std::uint64_t>(c));
  return d.h;
}

/// Every PhaseLog field that describes the algorithm's communication --
/// names, tree shape, rounds, messages, words, max_msg_words and both
/// per-round series -- and not work_items, which counts executor steps.
std::uint64_t log_digest_without_work(const sim::PhaseLog& log) {
  Digest d;
  d.add(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::PhaseLog::Entry& e = log[i];
    for (const char c : log.name(e)) d.add(static_cast<unsigned char>(c));
    d.add(static_cast<std::uint64_t>(e.depth));
    d.add(e.span ? 1 : 0);
    d.add(static_cast<std::uint64_t>(e.rounds));
    d.add(e.messages);
    d.add(e.words);
    d.add(e.max_msg_words);
    const auto active = log.active(e);
    d.add(active.size());
    for (const std::int32_t a : active) d.add(static_cast<std::uint64_t>(a));
    const auto bw = log.bandwidth(e);
    d.add(bw.size());
    for (const std::uint64_t w : bw) d.add(w);
  }
  return d.h;
}

struct Golden {
  const char* family;
  std::uint64_t seed;
  int preset;
  std::uint64_t colors;
  std::uint64_t log;
};

Graph make_graph(const std::string& family, std::uint64_t seed) {
  if (family == "rmat") return rmat_graph(10, 8, seed);
  if (family == "planted") return planted_arboricity(2048, 3, seed);
  return random_near_regular(2048, 12, seed);
}

// Recorded with the executor that stepped every live vertex every round
// (before any program slept). Row order: family, seed, preset.
constexpr Golden kGolden[] = {
    {"rmat", 1, 0, 0x6ffff6140e0ae011ULL, 0xbe1aebf909d7d3fULL},
    {"rmat", 1, 1, 0x41e5573c83c202d6ULL, 0xcae92861f793ffbdULL},
    {"rmat", 1, 2, 0x6ffff6140e0ae011ULL, 0xbe1aebf909d7d3fULL},
    {"rmat", 1, 3, 0xec1de0dbd7799076ULL, 0xd7140b1352f06394ULL},
    {"rmat", 1, 4, 0xb20cfdd07a3bac5ULL, 0x329a70bc92614065ULL},
    {"rmat", 1, 5, 0x41e5573c83c202d6ULL, 0xcae92861f793ffbdULL},
    {"rmat", 2, 0, 0x56d93687f4b730acULL, 0xa00c76415287cf62ULL},
    {"rmat", 2, 1, 0x227bc9f58bd564dbULL, 0x3f45e7ccd3ec79f9ULL},
    {"rmat", 2, 2, 0x56d93687f4b730acULL, 0xa00c76415287cf62ULL},
    {"rmat", 2, 3, 0x2bfd64a6c05c3d5eULL, 0xf3803288157f5ec5ULL},
    {"rmat", 2, 4, 0x450508a8c29c5f07ULL, 0x262d4e4d65df4354ULL},
    {"rmat", 2, 5, 0x227bc9f58bd564dbULL, 0x3f45e7ccd3ec79f9ULL},
    {"planted", 1, 0, 0x552e20bbccdf1701ULL, 0xe57dfc187b8ab02bULL},
    {"planted", 1, 1, 0x552e20bbccdf1701ULL, 0xe57dfc187b8ab02bULL},
    {"planted", 1, 2, 0x552e20bbccdf1701ULL, 0xe57dfc187b8ab02bULL},
    {"planted", 1, 3, 0x47e0e8808b542fe4ULL, 0x5e6ff39dee60177dULL},
    {"planted", 1, 4, 0x47e0e8808b542fe4ULL, 0x5e6ff39dee60177dULL},
    {"planted", 1, 5, 0x552e20bbccdf1701ULL, 0xe57dfc187b8ab02bULL},
    {"planted", 2, 0, 0x25544b1c1997c4d4ULL, 0x89d3d385a85d9a9eULL},
    {"planted", 2, 1, 0x25544b1c1997c4d4ULL, 0x89d3d385a85d9a9eULL},
    {"planted", 2, 2, 0x25544b1c1997c4d4ULL, 0x89d3d385a85d9a9eULL},
    {"planted", 2, 3, 0xf6e09c5ad488716cULL, 0xfac71ac96f75e2cULL},
    {"planted", 2, 4, 0xf6e09c5ad488716cULL, 0xfac71ac96f75e2cULL},
    {"planted", 2, 5, 0x25544b1c1997c4d4ULL, 0x89d3d385a85d9a9eULL},
    {"near-regular", 1, 0, 0x3ff566d6af00bf30ULL, 0x1e6bef1ffc1ee4e2ULL},
    {"near-regular", 1, 1, 0x8eb4a98aa5c02984ULL, 0xf902af0d46edebe4ULL},
    {"near-regular", 1, 2, 0x3ff566d6af00bf30ULL, 0x1e6bef1ffc1ee4e2ULL},
    {"near-regular", 1, 3, 0x7f711df959a0e532ULL, 0xa3a3cc6bf0e3ff41ULL},
    {"near-regular", 1, 4, 0xeed600b28ac8a64aULL, 0x3f411b269ae73426ULL},
    {"near-regular", 1, 5, 0x8eb4a98aa5c02984ULL, 0xf902af0d46edebe4ULL},
    {"near-regular", 2, 0, 0xb5794e588e0ae833ULL, 0x86e821717d5c61b9ULL},
    {"near-regular", 2, 1, 0x5a7a954fd3cc38bULL, 0xf5bd413556bfad4cULL},
    {"near-regular", 2, 2, 0xb5794e588e0ae833ULL, 0x86e821717d5c61b9ULL},
    {"near-regular", 2, 3, 0x29044fd44db83866ULL, 0x8f114c40f155439dULL},
    {"near-regular", 2, 4, 0xa5f4467ea47cb3b1ULL, 0x53d9f7236ad5941fULL},
    {"near-regular", 2, 5, 0x5a7a954fd3cc38bULL, 0xf5bd413556bfad4cULL},
};

TEST(SleepGolden, OnlyWorkItemsMoved) {
  std::ostringstream actual;
  std::size_t row = 0;
  bool all_match = true;
  std::set<std::string, std::less<>> leaves;
  for (const char* family : {"rmat", "planted", "near-regular"}) {
    for (const std::uint64_t seed : {1, 2}) {
      const Graph g = make_graph(family, seed);
      const int bound = degeneracy(g);
      for (int p = 0; p < kNumPresets; ++p) {
        Knobs knobs;
        knobs.shards = 1;
        const LegalColoringResult r =
            color_graph(g, bound, static_cast<Preset>(p), knobs);
        const std::uint64_t cd = colors_digest(r.colors);
        const std::uint64_t ld = log_digest_without_work(r.phases);
        for (std::size_t i = 0; i < r.phases.size(); ++i) {
          if (!r.phases[i].span) leaves.emplace(r.phases.name(i));
        }
        actual << "    {\"" << family << "\", " << seed << ", " << p
               << ", 0x" << std::hex << cd << "ULL, 0x" << ld << "ULL},"
               << std::dec << "\n";
        const bool have = row < std::size(kGolden);
        const bool match = have && kGolden[row].colors == cd &&
                           kGolden[row].log == ld &&
                           std::string(kGolden[row].family) == family &&
                           kGolden[row].seed == seed && kGolden[row].preset == p;
        EXPECT_TRUE(match) << family << " seed " << seed << " preset "
                           << preset_name(static_cast<Preset>(p));
        all_match = all_match && match;
        ++row;
      }
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
  // The sweep reaches every program that sleeps.
  for (const char* sleeper :
       {"kw-reduce", "simple-arbdefective", "greedy-by-orientation"}) {
    EXPECT_TRUE(leaves.contains(sleeper)) << sleeper << " never ran";
  }
  if (!all_match) ADD_FAILURE() << "actual table:\n" << actual.str();
}

/// kw-reduce's activations (work_items - messages, summed over its leaves)
/// on the polylog preset, before vertices slept between their recoloring
/// rounds.
constexpr std::uint64_t kKwActivationsStepAll = 249856;

TEST(SleepGolden, KwReduceActivationsFallFiveFold) {
  const Graph g = rmat_graph(12, 8, 1);
  Knobs knobs;
  knobs.shards = 1;
  const LegalColoringResult r =
      color_graph(g, degeneracy(g), Preset::PolylogTime, knobs);
  std::uint64_t activations = 0;
  int leaves = 0;
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const sim::PhaseLog::Entry& e = r.phases[i];
    if (e.span || r.phases.name(e) != "kw-reduce") continue;
    activations += e.work_items - e.messages;
    ++leaves;
  }
  ASSERT_GT(leaves, 0) << "the polylog preset no longer runs kw-reduce";
  EXPECT_LE(activations * 5, kKwActivationsStepAll)
      << activations << " kw-reduce activations against "
      << kKwActivationsStepAll << " when every live vertex stepped";
}

}  // namespace
}  // namespace dvc
