#include "plrupart/sim/cmp_simulator.hpp"

#include "plrupart/common/error.hpp"
#include "sim/replay_driver.hpp"

namespace plrupart::sim {
namespace {

/// Functional pricing: the window reports the CoreModel clocks that also
/// drive the interleave (fixed L2/memory penalties), so there is nothing to add.
struct FunctionalPricing {
  static constexpr const char* kLabel = "serial run";
  void on_access(std::uint32_t /*core*/, const MemOp& /*op*/, const L2Echo& /*echo*/) {}
  void open_window() {}
  void close_window(std::uint32_t /*core*/) {}
  [[nodiscard]] double clock(std::uint32_t /*core*/, const CoreModel& model) const {
    return model.cycles();
  }
  void finish(SimResult& /*out*/) const {}
};

}  // namespace

CmpSimulator::CmpSimulator(SimConfig config, std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(std::move(config)), traces_(std::move(traces)) {
  const std::uint32_t cores = config_.hierarchy.l2.num_cores;
  PLRUPART_ASSERT_MSG(traces_.size() == cores, "one trace per core required");
  PLRUPART_ASSERT(config_.instr_limit > 0);
  PLRUPART_ASSERT_MSG(config_.sim_threads == 1,
                      "set-sharded replay was removed; SimConfig::sim_threads must be 1");
  if (config_.cores.size() == 1 && cores > 1) {
    config_.cores.assign(cores, config_.cores.front());
  }
  PLRUPART_ASSERT_MSG(config_.cores.size() == cores, "one CoreParams per core required");
  hierarchy_ = std::make_unique<MemoryHierarchy>(config_.hierarchy);
}

SimResult CmpSimulator::run() {
  // Explicit call-once contract: the hierarchy (caches, profilers, the
  // controller's partition history) is consumed by the first run, so a second
  // run would silently produce warm-state garbage. Fail loudly instead.
  if (ran_) {
    throw InvariantError(
        "CmpSimulator::run may be called once; construct a fresh simulator "
        "for another run");
  }
  ran_ = true;

  if (config_.timing_mode == TimingMode::kTimed) return run_timed();
  FunctionalPricing pricing;
  return internal::replay(config_, traces_, *hierarchy_, pricing);
}

}  // namespace plrupart::sim
