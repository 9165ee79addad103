// Whole-job benchmark harness: the three named workloads, the split job path
// (set-up / run / CSV rows, timed separately), the serial-loop mirror the
// traced run uses to record access streams, and the trace-file inputs of the
// trace-backed workload.
//
// Everything goes through plrupart's public API. A job's wall time is
// runner::execute + runner::sweep_csv_rows, the program's own path. The split
// job path repeats the body of runner::execute only so that set-up can be
// timed on its own; the self-test in main.cpp proves it emits the same CSV
// bytes as runner::execute + runner::sweep_csv_rows.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plrupart/runner/run_spec.hpp"
#include "plrupart/sim/cmp_simulator.hpp"

namespace e2ebench {

using namespace plrupart;

/// The root seed whose CSV digests are recorded in expected_digests.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Instructions per core in the self-test jobs.
inline constexpr std::uint64_t kSelfTestInstr = 20'000;

struct WorkloadDef {
  std::string name;
  std::vector<std::string> mixes;  ///< Table II ids
  sim::TimingMode timing = sim::TimingMode::kFunctional;
  bool from_traces = false;        ///< replay recorded v2 trace files
  std::uint64_t instr = 0;         ///< measured instructions per core
};

/// The named workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] const WorkloadDef& find_workload(const std::string& name);

/// The workload's run matrix at `instr` instructions per core: its mixes ×
/// the four configs, 1 MB 16-way L2, 32 KB L1D, warmup instr/2. For a
/// trace-backed workload the traces must already be in `trace_dir`
/// (record_traces).
[[nodiscard]] runner::RunMatrix matrix_for(const WorkloadDef& w, std::uint64_t seed,
                                           std::uint64_t instr,
                                           const std::string& trace_dir);

/// Write the v2 trace file of every core of the workload's mixes into `dir`,
/// generated from `seed` with the same per-mix seeds RunMatrix::job_seed
/// gives the synthetic jobs. Each file holds enough records for
/// `file_instr` instructions. Returns the paths, mix-major.
std::vector<std::string> record_traces(const WorkloadDef& w, std::uint64_t seed,
                                       std::uint64_t file_instr, const std::string& dir);

/// Instructions each trace file covers for the workload's quota: several
/// times warmup + quota, because a core that runs ahead of the slowest one
/// consumes more of its trace before its window opens.
[[nodiscard]] std::uint64_t trace_file_instr(const WorkloadDef& w);

/// Fresh synthetic sources of the job's Table II mix, seeded as
/// runner::execute seeds them (for a trace-backed job: the generators its
/// trace files were recorded from).
[[nodiscard]] std::vector<std::unique_ptr<sim::TraceSource>> generators_for(
    const WorkloadDef& w, const runner::RunSpec& spec);

/// Simulator inputs for one job, built exactly as runner::execute builds them.
struct JobInputs {
  sim::SimConfig cfg;
  std::vector<std::unique_ptr<sim::TraceSource>> traces;
};
[[nodiscard]] JobInputs make_inputs(const runner::RunSpec& spec);

/// Host seconds to build the job's simulator: make_inputs and the
/// CmpSimulator constructor, the split path's set-up phase. Teardown is not
/// timed.
[[nodiscard]] double time_setup(const runner::RunSpec& spec);

/// One job through the split path (make_inputs, CmpSimulator::run,
/// runner::sweep_csv_rows); returns the CSV bytes.
[[nodiscard]] std::string run_split(const runner::RunSpec& spec);

/// runner::execute + runner::sweep_csv_rows, timed: the job as the program
/// runs it, and the reference the split path and the mirror are checked
/// against.
struct ReferenceRun {
  sim::SimResult result;
  std::string csv;
  double execute_s = 0.0;
  double csv_s = 0.0;
  [[nodiscard]] double wall_s() const { return execute_s + csv_s; }
};
[[nodiscard]] ReferenceRun run_reference(const runner::RunSpec& spec);

/// One access as the serial loop hands it to MemoryHierarchy::access.
struct AccessRec {
  cache::Addr addr = 0;
  std::uint64_t now = 0;
  std::uint32_t core = 0;
  bool write = false;
};

/// The benchmark's own copy of CmpSimulator's serial loop (CoreModel +
/// MemoryHierarchy::access with L2Echo), recording the first `window` accesses
/// and the L1-miss sub-stream among them. Timed specs are driven functionally:
/// their hierarchy sees the same stream in both modes.
struct MirrorRun {
  std::vector<sim::ThreadResult> threads;  ///< measured-window counters
  std::uint64_t repartitions = 0;
  std::vector<std::uint64_t> ops_per_core;  ///< TraceSource::next calls
  std::uint64_t trace_ops = 0;
  std::uint64_t all_l1_accesses = 0;  ///< whole job, warmup and tail included
  std::uint64_t all_l2_accesses = 0;
  /// Trace-file wraps (end of file back to its first record) that happened
  /// before a core reached its quota, summed over cores.
  std::uint64_t wraps_before_quota = 0;
  std::vector<AccessRec> window;
  std::vector<AccessRec> l2_window;
  double wall_s = 0.0;
};
[[nodiscard]] MirrorRun run_mirror(const runner::RunSpec& spec, std::size_t window);

/// FNV-1a 64 of the CSV bytes, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace e2ebench
