// Timed-mode pricing hook (CmpSimulator::run_timed).
//
// Decision-match by construction: timed mode runs the same replay loop as
// functional mode (replay_driver.hpp) — same interleave over FUNCTIONAL core
// clocks, same trace consumption, same `now` stamps to the L2 — so the
// shared L2 observes the exact same access stream and the interval
// controller takes the exact same partition decisions. This hook runs beside
// that stream: a second per-core clock charges memory latency from the
// event-driven MSHR/writeback/banked-DRAM model (TimedMemory) instead of the
// fixed penalties, and those clocks are what the SimResult reports.
//
// A core keeps at most one L2 transaction in flight (its `outstanding`
// ticket). L1 hits retire under it — hit-under-miss — and the fill is awaited
// lazily at the core's next L2-reaching access, charging only the exposed
// fraction of whatever latency is still uncovered at that point. Cross-core
// concurrency is real: many cores' fills occupy MSHRs and DRAM banks at once,
// which is where queueing, coalescing, and bank conflicts come from.
#include <vector>

#include "plrupart/sim/cmp_simulator.hpp"
#include "sim/replay_driver.hpp"

namespace plrupart::sim {
namespace {

class TimedPricing {
 public:
  static constexpr const char* kLabel = "timed run";

  explicit TimedPricing(const SimConfig& config)
      : config_(config),
        l2geo_(config.hierarchy.l2.geometry),
        memory_(config.timed, l2geo_),
        tcores_(config.hierarchy.l2.num_cores) {}

  // Same committed instructions as the functional clock, latency from the model.
  void on_access(std::uint32_t core, const MemOp& op, const L2Echo& echo) {
    TimedCore& tc = tcores_[core];
    const CoreParams& cp = config_.cores[core];
    tc.cycles += (static_cast<double>(op.gap_instrs) + 1.0) / cp.base_ipc;
    if (!echo.reached_l2) return;
    // One demand transaction in flight per core: the previous one must
    // retire before the next issues (L1 hits in between already proceeded).
    charge_retire(core);
    const auto t_issue = static_cast<std::uint64_t>(tc.cycles);
    const cache::Addr line = l2geo_.line_addr(op.addr);
    if (echo.hit) {
      const auto tk = memory_.hit(t_issue, line, echo.way, op.write);
      if (tk.valid) {
        // Fill still in flight: this "hit" waits on the fill, not the array.
        tc.outstanding = tk;
        tc.has_outstanding = true;
      } else {
        tc.cycles += static_cast<double>(config_.timed.l2_hit_cycles) * cp.stall_fraction;
      }
    } else {
      tc.outstanding = memory_.miss(t_issue, line, echo.way, op.write, echo.evicted_valid,
                                    echo.evicted_line);
      tc.has_outstanding = true;
    }
  }

  // Settle every in-flight transaction so the measured window starts from a
  // clean overlay, then restart peak tracking.
  void open_window() {
    for (std::uint32_t i = 0; i < tcores_.size(); ++i) charge_retire(i);
    memory_.mark();
    stats_base_ = memory_.stats();
  }

  void close_window(std::uint32_t core) { charge_retire(core); }  // quota's last miss

  [[nodiscard]] double clock(std::uint32_t core, const CoreModel& /*functional*/) const {
    return tcores_[core].cycles;
  }

  void finish(SimResult& out) const {
    out.timing = TimingMode::kTimed;
    out.timed = memory_.stats().delta_since(stats_base_);
  }

 private:
  struct TimedCore {
    double cycles = 0.0;  ///< the timed clock (what this mode reports)
    TimedMemory::Ticket outstanding{};
    bool has_outstanding = false;
  };

  // Await core's in-flight L2 transaction and charge the exposed remainder.
  void charge_retire(std::uint32_t core) {
    TimedCore& tc = tcores_[core];
    if (!tc.has_outstanding) return;
    const auto done = static_cast<double>(memory_.retire(tc.outstanding));
    tc.has_outstanding = false;
    if (done > tc.cycles) {
      tc.cycles += (done - tc.cycles) * config_.cores[core].stall_fraction;
    }
  }

  const SimConfig& config_;
  const cache::Geometry& l2geo_;
  TimedMemory memory_;
  std::vector<TimedCore> tcores_;
  TimedStats stats_base_;  ///< overlay counters at window open
};

}  // namespace

SimResult CmpSimulator::run_timed() {
  TimedPricing pricing(config_);
  return internal::replay(config_, traces_, *hierarchy_, pricing);
}

}  // namespace plrupart::sim
