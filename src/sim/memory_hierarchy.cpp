#include "plrupart/sim/memory_hierarchy.hpp"

#include "plrupart/common/rng.hpp"

namespace plrupart::sim {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config) : config_(std::move(config)) {
  config_.validate();
  const std::uint32_t cores = config_.l2.num_cores;
  PLRUPART_ASSERT(cores >= 1);
  l1d_.reserve(cores);
  for (std::uint32_t i = 0; i < cores; ++i) {
    l1d_.push_back(std::make_unique<cache::SetAssocCache>(
        config_.l1d, cache::ReplacementKind::kLru, /*num_cores=*/1,
        cache::EnforcementMode::kNone, derive_seed(config_.l2.seed, 1000 + i)));
  }
  l2_ = std::make_unique<core::PartitionedCacheSystem>(config_.l2);
  counters_.resize(cores);
}

AccessLevel MemoryHierarchy::access(cache::CoreId core, cache::Addr addr, bool write,
                                    std::uint64_t now_cycles) {
  L2Echo echo;
  return access(core, addr, write, now_cycles, echo);
}

AccessLevel MemoryHierarchy::access(cache::CoreId core, cache::Addr addr, bool write,
                                    std::uint64_t now_cycles, L2Echo& echo) {
  PLRUPART_ASSERT(core < l1d_.size());
  HierarchyCounters& ctr = counters_[core];
  echo = L2Echo{};

  ++ctr.l1_accesses;
  const auto l1 = l1d_[core]->access(0, addr, write);
  if (l1.hit) return AccessLevel::kL1;

  ++ctr.l1_misses;
  ++ctr.l2_accesses;
  const auto l2 = l2_->access(core, addr, write, now_cycles);
  echo.reached_l2 = true;
  echo.hit = l2.hit;
  echo.way = l2.way;
  echo.evicted_valid = l2.evicted_valid;
  echo.evicted_line = l2.evicted_line;
  if (l2.hit) return AccessLevel::kL2;

  ++ctr.l2_misses;
  return AccessLevel::kMemory;
}

const cache::SetAssocCache& MemoryHierarchy::l1d(cache::CoreId core) const {
  PLRUPART_ASSERT(core < l1d_.size());
  return *l1d_[core];
}

const HierarchyCounters& MemoryHierarchy::counters(cache::CoreId core) const {
  PLRUPART_ASSERT(core < counters_.size());
  return counters_[core];
}

void MemoryHierarchy::reset() {
  for (auto& l1 : l1d_) l1->reset();
  l2_->reset();
  for (auto& c : counters_) c = HierarchyCounters{};
}

}  // namespace plrupart::sim
