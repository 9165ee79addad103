// The one replay loop of CmpSimulator, shared by the functional and timed
// modes (internal).
//
// Interleave: the core with the smallest FUNCTIONAL clock (CoreModel, fixed
// L2/memory penalties) executes its next trace op; ties go to the lower core
// index. The L2 therefore sees the same access stream, with the same `now`
// stamps, in every mode — the profilers gather the same histograms and the
// interval controller takes the same partition decisions at the same access
// positions. Modes differ only in how the measured window's cycles are
// priced, which is the `Pricing` hook's job:
//
//   void on_access(core, op, echo)  after each hierarchy access
//   void open_window()              at a warmup-ending window open, before
//                                   the baselines (not called at warmup 0)
//   void close_window(core)         at `core`'s quota, before its result
//   double clock(core, model)       the clock the window reports
//   void finish(SimResult&)         mode-specific result fields
//   static constexpr const char* kLabel   mode name for the watchdog error
//
// The hook is a template parameter, so every call inlines: pricing adds no
// per-op indirect call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "plrupart/common/error.hpp"
#include "plrupart/sim/cmp_simulator.hpp"

namespace plrupart::sim::internal {

template <class Pricing>
SimResult replay(const SimConfig& config, std::vector<std::unique_ptr<TraceSource>>& traces,
                 MemoryHierarchy& hierarchy, Pricing& pricing) {
  const std::uint32_t n = hierarchy.num_cores();
  std::vector<CoreModel> models;  // functional clocks: drive the interleave
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(config.cores[i]);

  struct Baseline {
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    HierarchyCounters mem;
  };
  std::vector<Baseline> baselines(n);
  bool windows_open = config.warmup_instr == 0;

  std::vector<bool> frozen(n, false);
  std::vector<ThreadResult> results(n);
  std::uint32_t remaining = n;

  // Watchdog: wall time is only ever compared against the deadline — it
  // decides whether the run dies, never what the run computes.
  const bool has_deadline = config.timeout_s > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(has_deadline ? config.timeout_s : 0.0));
  std::uint64_t ops_since_poll = 0;

  while (remaining > 0) {
    if (has_deadline && (++ops_since_poll & 0xfffU) == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      throw TimeoutError("simulation exceeded watchdog deadline of " +
                         std::to_string(config.timeout_s) + " s (" + Pricing::kLabel + ")");
    }
    // Advance the core with the smallest local clock (finished cores keep
    // running to preserve contention, with frozen statistics).
    std::uint32_t core = 0;
    double min_cycles = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (models[i].cycles() < min_cycles) {
        min_cycles = models[i].cycles();
        core = i;
      }
    }

    const MemOp op = traces[core]->next();
    models[core].commit_gap(op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(models[core].cycles());
    L2Echo echo;
    const AccessLevel level = hierarchy.access(core, op.addr, op.write, now, echo);
    models[core].commit_mem(level);
    pricing.on_access(core, op, echo);

    if (!windows_open) {
      // Windows open for everyone at once, when the slowest core has warmed.
      std::uint64_t min_instr = models[0].instructions();
      for (std::uint32_t i = 1; i < n; ++i)
        min_instr = std::min(min_instr, models[i].instructions());
      if (min_instr >= config.warmup_instr) {
        windows_open = true;
        pricing.open_window();
        for (std::uint32_t i = 0; i < n; ++i) {
          baselines[i].instructions = models[i].instructions();
          baselines[i].cycles = pricing.clock(i, models[i]);
          baselines[i].mem = hierarchy.counters(i);
        }
      }
      continue;
    }

    if (!frozen[core] &&
        models[core].instructions() >= baselines[core].instructions + config.instr_limit) {
      frozen[core] = true;
      --remaining;
      pricing.close_window(core);
      const Baseline& base = baselines[core];
      ThreadResult& r = results[core];
      r.benchmark = traces[core]->name();
      r.instructions = models[core].instructions() - base.instructions;
      r.cycles = pricing.clock(core, models[core]) - base.cycles;
      r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
      const HierarchyCounters& now_mem = hierarchy.counters(core);
      r.mem.l1_accesses = now_mem.l1_accesses - base.mem.l1_accesses;
      r.mem.l1_misses = now_mem.l1_misses - base.mem.l1_misses;
      r.mem.l2_accesses = now_mem.l2_accesses - base.mem.l2_accesses;
      r.mem.l2_misses = now_mem.l2_misses - base.mem.l2_misses;
    }
  }

  SimResult out;
  out.threads = std::move(results);
  for (const auto& t : out.threads) out.wall_cycles = std::max(out.wall_cycles, t.cycles);
  const auto* ctrl = hierarchy.l2().controller();
  out.repartitions = ctrl ? ctrl->history().size() : 0;
  out.l2_config = hierarchy.l2().config().acronym();
  pricing.finish(out);
  return out;
}

}  // namespace plrupart::sim::internal
