#include "harness.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "plrupart/common/bits.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/trace_workload.hpp"
#include "plrupart/workloads/workload_table.hpp"

namespace e2ebench {

namespace {

// LRU, NRU and BT; partitioned and not.
const std::vector<std::string> kConfigs = {"NOPART-BT", "C-L", "M-BT", "M-0.75N"};

// The figure benches' repartition interval (bench/bench_util.hpp): the
// paper's 1M cycles scaled to these shorter runs.
constexpr std::uint64_t kIntervalCycles = 200'000;

// Trace files cover this many times warmup + quota (see trace_file_instr).
constexpr std::uint64_t kTraceCoverage = 12;

[[nodiscard]] workloads::Workload table2(const std::string& id) {
  for (const auto& w : workloads::all_workloads())
    if (w.id == id) return w;
  throw std::invalid_argument("no Table II workload " + id);
}

[[nodiscard]] std::string trace_path(const std::string& dir, const workloads::Workload& mix,
                                     std::uint32_t core) {
  return dir + "/" + mix.id + ".c" + std::to_string(core) + "." + mix.benchmarks[core] +
         ".trace";
}

[[nodiscard]] runner::RunMatrix base_matrix(const WorkloadDef& w, std::uint64_t seed,
                                            std::uint64_t instr) {
  runner::RunMatrix m;
  m.configs = kConfigs;
  for (const auto& id : w.mixes) m.workloads.push_back(table2(id));
  m.l2_kb = {1024};
  m.assoc = 16;
  m.line = 128;
  m.instr = instr;
  m.warmup = instr / 2;
  m.interval_cycles = kIntervalCycles;
  m.seed = seed;
  m.timing = w.timing;
  return m;
}

[[nodiscard]] sim::ThreadResult window_result(const sim::CoreModel& model,
                                              const sim::HierarchyCounters& now_mem,
                                              std::uint64_t base_instr, double base_cycles,
                                              const sim::HierarchyCounters& base_mem) {
  sim::ThreadResult r;
  r.instructions = model.instructions() - base_instr;
  r.cycles = model.cycles() - base_cycles;
  r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
  r.mem.l1_accesses = now_mem.l1_accesses - base_mem.l1_accesses;
  r.mem.l1_misses = now_mem.l1_misses - base_mem.l1_misses;
  r.mem.l2_accesses = now_mem.l2_accesses - base_mem.l2_accesses;
  r.mem.l2_misses = now_mem.l2_misses - base_mem.l2_misses;
  return r;
}

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {.name = "fig7-8T",
       .mixes = {"8T_01", "8T_03"},
       .timing = sim::TimingMode::kFunctional,
       .from_traces = false,
       .instr = 250'000},
      {.name = "fig7-2T-timed",
       .mixes = {"2T_02", "2T_04", "2T_07", "2T_15"},
       .timing = sim::TimingMode::kTimed,
       .from_traces = false,
       .instr = 500'000},
      {.name = "trace-4T",
       .mixes = {"4T_01", "4T_05"},
       .timing = sim::TimingMode::kFunctional,
       .from_traces = true,
       .instr = 400'000},
  };
  return defs;
}

}  // namespace

const WorkloadDef& find_workload(const std::string& name) {
  for (const auto& w : workload_defs())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

runner::RunMatrix matrix_for(const WorkloadDef& w, std::uint64_t seed, std::uint64_t instr,
                             const std::string& trace_dir) {
  runner::RunMatrix m = base_matrix(w, seed, instr);
  if (w.from_traces) {
    for (auto& mix : m.workloads) {
      std::vector<std::string> paths;
      for (std::uint32_t c = 0; c < mix.threads(); ++c)
        paths.push_back(trace_path(trace_dir, mix, c));
      mix = workloads::workload_from_traces(paths);
    }
  }
  return m;
}

std::uint64_t trace_file_instr(const WorkloadDef& w) {
  return kTraceCoverage * (w.instr + w.instr / 2);
}

std::vector<std::string> record_traces(const WorkloadDef& w, std::uint64_t seed,
                                       std::uint64_t file_instr, const std::string& dir) {
  const runner::RunMatrix m = base_matrix(w, seed, w.instr);
  std::vector<std::string> paths;
  for (std::size_t wi = 0; wi < m.workloads.size(); ++wi) {
    const workloads::Workload& mix = m.workloads[wi];
    for (std::uint32_t c = 0; c < mix.threads(); ++c) {
      auto src = workloads::make_trace(workloads::benchmark(mix.benchmarks[c]), c,
                                       m.job_seed(wi));
      const std::string path = trace_path(dir, mix, c);
      sim::TraceWriter out(path, sim::TraceFormat::kBinaryV2);
      for (std::uint64_t instr = 0; instr < file_instr;) {
        const sim::MemOp op = src->next();
        out.append(op);
        instr += std::uint64_t{op.gap_instrs} + 1;
      }
      out.close();
      paths.push_back(path);
    }
  }
  return paths;
}

std::vector<std::unique_ptr<sim::TraceSource>> generators_for(const WorkloadDef& w,
                                                              const runner::RunSpec& spec) {
  const workloads::Workload mix = table2(w.mixes.at(spec.job_index / kConfigs.size()));
  std::vector<std::unique_ptr<sim::TraceSource>> out;
  for (std::uint32_t c = 0; c < mix.threads(); ++c)
    out.push_back(workloads::make_trace(workloads::benchmark(mix.benchmarks[c]), c, spec.seed));
  return out;
}

JobInputs make_inputs(const runner::RunSpec& spec) {
  JobInputs in;
  sim::SimConfig& cfg = in.cfg;
  cfg.hierarchy.l1d = spec.l1d;
  cfg.hierarchy.l2 =
      core::CpaConfig::from_acronym(spec.config, spec.workload.threads(), spec.l2);
  cfg.hierarchy.l2.interval_cycles = spec.interval_cycles;
  cfg.hierarchy.l2.sampling_ratio = spec.sampling_ratio;
  cfg.hierarchy.l2.seed = spec.seed;
  cfg.instr_limit = spec.instr;
  cfg.warmup_instr = spec.warmup;
  cfg.sim_threads = spec.sim_threads;
  cfg.timing_mode = spec.timing;
  for (std::uint32_t core = 0; core < spec.workload.threads(); ++core) {
    if (spec.workload.trace_backed()) {
      cfg.cores.push_back(workloads::trace_core_params());
      in.traces.push_back(std::make_unique<sim::FileTraceSource>(spec.workload.traces[core]));
    } else {
      const auto& profile = workloads::benchmark(spec.workload.benchmarks[core]);
      cfg.cores.push_back(profile.core);
      in.traces.push_back(workloads::make_trace(profile, core, spec.seed));
    }
  }
  return in;
}

std::string run_split(const runner::RunSpec& spec) {
  JobInputs in = make_inputs(spec);
  sim::CmpSimulator sim(std::move(in.cfg), std::move(in.traces));
  return runner::sweep_csv_rows(runner::JobResult{spec, sim.run()});
}

double time_setup(const runner::RunSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  JobInputs in = make_inputs(spec);
  const sim::CmpSimulator sim(std::move(in.cfg), std::move(in.traces));
  return seconds_since(t0);
}

ReferenceRun run_reference(const runner::RunSpec& spec) {
  ReferenceRun out;
  const auto t0 = std::chrono::steady_clock::now();
  runner::JobResult jr{spec, runner::execute(spec)};
  const auto t1 = std::chrono::steady_clock::now();
  out.csv = runner::sweep_csv_rows(jr);
  out.execute_s = std::chrono::duration<double>(t1 - t0).count();
  out.csv_s = seconds_since(t1);
  out.result = std::move(jr.result);
  return out;
}

MirrorRun run_mirror(const runner::RunSpec& spec, std::size_t window) {
  const auto t0 = std::chrono::steady_clock::now();
  JobInputs in = make_inputs(spec);
  const sim::SimConfig& cfg = in.cfg;
  sim::MemoryHierarchy hierarchy(cfg.hierarchy);
  const std::uint32_t n = hierarchy.num_cores();

  MirrorRun out;
  out.window.reserve(window);
  out.ops_per_core.assign(n, 0);
  std::vector<sim::CoreModel> models;
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(cfg.cores[i]);

  struct Baseline {
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    sim::HierarchyCounters mem;
  };
  std::vector<Baseline> base(n);
  bool windows_open = cfg.warmup_instr == 0;
  std::vector<bool> frozen(n, false);
  out.threads.resize(n);
  std::uint32_t remaining = n;

  while (remaining > 0) {
    std::uint32_t core = 0;
    double min_cycles = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (models[i].cycles() < min_cycles) {
        min_cycles = models[i].cycles();
        core = i;
      }
    }
    const sim::MemOp op = in.traces[core]->next();
    ++out.ops_per_core[core];
    models[core].commit_gap(op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(models[core].cycles());
    sim::L2Echo echo;
    const sim::AccessLevel level = hierarchy.access(core, op.addr, op.write, now, echo);
    models[core].commit_mem(level);
    if (out.window.size() < window) {
      const AccessRec rec{.addr = op.addr, .now = now, .core = core, .write = op.write};
      out.window.push_back(rec);
      if (echo.reached_l2) out.l2_window.push_back(rec);
    }

    if (!windows_open) {
      std::uint64_t min_instr = models[0].instructions();
      for (std::uint32_t i = 1; i < n; ++i)
        min_instr = std::min(min_instr, models[i].instructions());
      if (min_instr >= cfg.warmup_instr) {
        windows_open = true;
        for (std::uint32_t i = 0; i < n; ++i)
          base[i] = {models[i].instructions(), models[i].cycles(), hierarchy.counters(i)};
      }
      continue;
    }
    if (!frozen[core] &&
        models[core].instructions() >= base[core].instructions + cfg.instr_limit) {
      frozen[core] = true;
      --remaining;
      out.threads[core] =
          window_result(models[core], hierarchy.counters(core), base[core].instructions,
                        base[core].cycles, base[core].mem);
      out.threads[core].benchmark = in.traces[core]->name();
      if (const auto* f = dynamic_cast<const sim::FileTraceSource*>(in.traces[core].get()))
        out.wraps_before_quota += f->loops_completed();
    }
  }
  const auto* ctrl = hierarchy.l2().controller();
  out.repartitions = ctrl ? ctrl->history().size() : 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.trace_ops += out.ops_per_core[i];
    out.all_l1_accesses += hierarchy.counters(i).l1_accesses;
    out.all_l2_accesses += hierarchy.counters(i).l2_accesses;
  }
  out.wall_s = seconds_since(t0);
  return out;
}

std::string digest(const std::string& bytes) {
  const std::uint64_t h = fnv1a64(bytes);
  static const char* hex = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) s[static_cast<std::size_t>(15 - i)] = hex[(h >> (4 * i)) & 0xF];
  return s;
}

}  // namespace e2ebench
