// CmpSimulator: determinism, instruction quotas, isolation equivalence,
// dynamic repartitioning in the loop.
#include "plrupart/sim/cmp_simulator.hpp"

#include <gtest/gtest.h>

#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

namespace plrupart::sim {
namespace {

using workloads::benchmark;
using workloads::make_trace;

HierarchyConfig small_hierarchy(std::uint32_t cores, const char* acronym) {
  HierarchyConfig cfg;
  cfg.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  cfg.l2 = core::CpaConfig::from_acronym(
      acronym, cores,
      cache::Geometry{.size_bytes = 256 * 1024, .associativity = 16, .line_bytes = 128});
  cfg.l2.interval_cycles = 50'000;
  return cfg;
}

SimResult run_workload(const std::vector<std::string>& names, const char* acronym,
                       std::uint64_t instr_limit, std::uint64_t seed = 99) {
  SimConfig cfg;
  cfg.hierarchy = small_hierarchy(static_cast<std::uint32_t>(names.size()), acronym);
  cfg.instr_limit = instr_limit;
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    const auto& prof = benchmark(names[i]);
    cfg.cores.push_back(prof.core);
    traces.push_back(make_trace(prof, i, seed));
  }
  CmpSimulator sim(std::move(cfg), std::move(traces));
  return sim.run();
}

TEST(CmpSimulator, RespectsInstructionQuota) {
  const auto r = run_workload({"gzip", "twolf"}, "NOPART-L", 50'000);
  ASSERT_EQ(r.threads.size(), 2U);
  for (const auto& t : r.threads) {
    EXPECT_GE(t.instructions, 50'000ULL);
    EXPECT_LT(t.instructions, 51'000ULL) << "quota overshoot is at most one op";
    EXPECT_GT(t.cycles, 0.0);
    EXPECT_GT(t.ipc, 0.0);
  }
}

TEST(CmpSimulator, DeterministicAcrossRuns) {
  const auto a = run_workload({"mcf", "crafty"}, "M-L", 30'000);
  const auto b = run_workload({"mcf", "crafty"}, "M-L", 30'000);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.threads[i].ipc, b.threads[i].ipc);
    EXPECT_EQ(a.threads[i].mem.l2_misses, b.threads[i].mem.l2_misses);
  }
  EXPECT_EQ(a.repartitions, b.repartitions);
}

TEST(CmpSimulator, SeedChangesResults) {
  const auto a = run_workload({"mcf", "crafty"}, "NOPART-L", 30'000, 1);
  const auto b = run_workload({"mcf", "crafty"}, "NOPART-L", 30'000, 2);
  EXPECT_NE(a.threads[0].mem.l2_misses, b.threads[0].mem.l2_misses);
}

TEST(CmpSimulator, SingleCoreCmpEqualsIsolation) {
  // A one-core "CMP" must behave exactly like the isolation run used for
  // weighted-speedup baselines.
  const auto a = run_workload({"twolf"}, "NOPART-L", 40'000);
  const auto b = run_workload({"twolf"}, "NOPART-L", 40'000);
  EXPECT_DOUBLE_EQ(a.threads[0].ipc, b.threads[0].ipc);
  EXPECT_EQ(a.threads[0].mem.l2_misses, b.threads[0].mem.l2_misses);
}

TEST(CmpSimulator, ContentionHurtsSharedCache) {
  const auto alone = run_workload({"twolf"}, "NOPART-L", 40'000);
  const auto shared = run_workload({"twolf", "art"}, "NOPART-L", 40'000);
  EXPECT_LT(shared.threads[0].ipc, alone.threads[0].ipc)
      << "a streaming co-runner must cost the reuse-heavy thread performance";
}

TEST(CmpSimulator, DynamicCpaRepartitions) {
  const auto r = run_workload({"twolf", "art"}, "M-L", 60'000);
  EXPECT_GT(r.repartitions, 0ULL);
  EXPECT_EQ(r.l2_config, "M-L");
}

TEST(CmpSimulator, ThroughputIsSumOfIpcs) {
  const auto r = run_workload({"gzip", "crafty"}, "NOPART-L", 30'000);
  EXPECT_DOUBLE_EQ(r.throughput(), r.threads[0].ipc + r.threads[1].ipc);
}

TEST(CmpSimulator, WallCyclesIsTheLastFinisher) {
  const auto r = run_workload({"mcf", "eon"}, "NOPART-L", 30'000);
  EXPECT_DOUBLE_EQ(r.wall_cycles,
                   std::max(r.threads[0].cycles, r.threads[1].cycles));
  // mcf (memory-bound) must take longer than eon for the same quota.
  EXPECT_GT(r.threads[0].cycles, r.threads[1].cycles);
}

TEST(CmpSimulator, WarmupExcludesColdMisses) {
  // A cache-resident benchmark: with warmup its measured window shows almost
  // no L2 misses (the cold fills land in the unmeasured prefix).
  auto mk = [&](std::uint64_t warmup) {
    SimConfig cfg;
    cfg.hierarchy = small_hierarchy(1, "NOPART-L");
    cfg.cores.push_back(benchmark("crafty").core);
    cfg.instr_limit = 50'000;
    cfg.warmup_instr = warmup;
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(make_trace(benchmark("crafty"), 0, 5));
    CmpSimulator sim(std::move(cfg), std::move(traces));
    return sim.run();
  };
  const auto cold = mk(0);
  const auto warm = mk(200'000);
  EXPECT_LT(warm.threads[0].mem.l2_misses, cold.threads[0].mem.l2_misses / 2);
  EXPECT_GT(warm.threads[0].ipc, cold.threads[0].ipc);
}

TEST(CmpSimulator, WarmupWindowSizesAreHonored) {
  SimConfig cfg;
  cfg.hierarchy = small_hierarchy(1, "NOPART-L");
  cfg.cores.push_back(benchmark("gzip").core);
  cfg.instr_limit = 30'000;
  cfg.warmup_instr = 20'000;
  std::vector<std::unique_ptr<TraceSource>> traces;
  traces.push_back(make_trace(benchmark("gzip"), 0, 5));
  CmpSimulator sim(std::move(cfg), std::move(traces));
  const auto r = sim.run();
  EXPECT_GE(r.threads[0].instructions, 30'000ULL);
  EXPECT_LT(r.threads[0].instructions, 31'000ULL);
}

TEST(CmpSimulator, MismatchedTraceCountRejected) {
  SimConfig cfg;
  cfg.hierarchy = small_hierarchy(2, "NOPART-L");
  cfg.cores.push_back(CoreParams{});
  std::vector<std::unique_ptr<TraceSource>> traces;
  traces.push_back(make_trace(benchmark("gzip"), 0, 1));
  EXPECT_THROW(CmpSimulator(std::move(cfg), std::move(traces)), InvariantError);
}

TEST(CmpSimulator, RunIsSingleShot) {
  SimConfig cfg;
  cfg.hierarchy = small_hierarchy(1, "NOPART-L");
  cfg.cores.push_back(benchmark("gzip").core);
  cfg.instr_limit = 10'000;
  std::vector<std::unique_ptr<TraceSource>> traces;
  traces.push_back(make_trace(benchmark("gzip"), 0, 1));
  CmpSimulator sim(std::move(cfg), std::move(traces));
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), InvariantError);
}

TEST(CmpSimulator, SimThreadsOtherThanOneRejected) {
  // Set-sharded replay is gone: a K > 1 request must fail loudly rather than
  // silently run serial.
  for (const std::uint32_t k : {0u, 2u}) {
    SimConfig cfg;
    cfg.hierarchy = small_hierarchy(2, "M-BT");
    cfg.cores.push_back(benchmark("gzip").core);
    cfg.sim_threads = k;
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(make_trace(benchmark("gzip"), 0, 1));
    traces.push_back(make_trace(benchmark("art"), 1, 1));
    try {
      CmpSimulator sim(std::move(cfg), std::move(traces));
      ADD_FAILURE() << "sim_threads=" << k << " must be rejected";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("set-sharded replay was removed"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace plrupart::sim
