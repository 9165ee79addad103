// e2ebench: runs whole plrupart simulation jobs of one named workload and
// prints raw measurements as one JSON object on the last line of stdout.
// run.py builds this binary, checks the outputs and derives the metrics.
//
//   e2ebench run     --workload W --seed N --seconds S --tmp DIR
//       self-test, then repeated passes over the workload's jobs for S seconds
//   e2ebench trace   --workload W --seed N --tmp DIR
//       self-test, then one traced pass: per-layer host time per job
//   e2ebench digests --workload W --seed N --tmp DIR
//       CSV digests of runner::execute, in expected_digests.txt format
//   e2ebench record-traces --workload W --seed N --tmp DIR
//       write the workload's trace-file inputs into DIR and exit
//
// DIR is a scratch directory the caller owns (trace files go there).
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/sim/trace_file.hpp"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

// Largest recorded access window in the traced run (24 bytes per access).
constexpr std::size_t kWindowCap = 3'000'000;
// Records per core in the decode timing of a synthetic workload.
constexpr std::uint64_t kDecodeSampleOps = 1'000'000;
// Untraced repeats per job in the traced run: their spread is the run's own.
constexpr int kTracedRepeats = 3;
// Repeats of each tight replay loop; the median is kept.
constexpr int kLoopRepeats = 3;

/// Minimal JSON object builder (keys and strings here never need escaping
/// beyond quotes and backslashes).
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, number(v)); }
  Json& num(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& str(const std::string& k, const std::string& v) { return raw(k, quote(v)); }
  Json& raw(const std::string& k, const std::string& json) {
    s_ += s_.empty() ? "{" : ",";
    s_ += quote(k) + ":" + json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

  static std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return q + "\"";
  }
  static std::string array(const std::vector<std::string>& items) {
    std::string a = "[";
    for (std::size_t i = 0; i < items.size(); ++i) a += (i ? "," : "") + items[i];
    return a + "]";
  }

 private:
  std::string s_;
};

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string tmp;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: e2ebench MODE --workload W ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--tmp") {
      a.tmp = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (a.workload.empty() || a.tmp.empty())
    throw std::invalid_argument("--workload and --tmp are required");
  return a;
}

/// Per-core measured-window counters plus repartitions: what the twin and
/// mirror checks compare.
std::string counters_json(const std::vector<sim::ThreadResult>& threads,
                          std::uint64_t repartitions) {
  std::vector<std::string> rows;
  for (const auto& t : threads) {
    rows.push_back("[" + std::to_string(t.instructions) + "," +
                   std::to_string(t.mem.l1_accesses) + "," + std::to_string(t.mem.l1_misses) +
                   "," + std::to_string(t.mem.l2_accesses) + "," +
                   std::to_string(t.mem.l2_misses) + "]");
  }
  return Json().raw("threads", Json::array(rows)).num("repartitions", repartitions).done();
}

std::string counters_json(const sim::SimResult& r) {
  return counters_json(r.threads, r.repartitions);
}

runner::RunSpec functional_twin(runner::RunSpec spec) {
  spec.timing = sim::TimingMode::kFunctional;
  return spec;
}

/// Jobs of the workload at `instr`, recording trace inputs first if needed.
std::vector<runner::RunSpec> jobs_for(const WorkloadDef& w, std::uint64_t seed,
                                      std::uint64_t instr, const std::string& dir) {
  if (w.from_traces) {
    std::filesystem::create_directories(dir);
    WorkloadDef scaled = w;
    scaled.instr = instr;
    (void)record_traces(w, seed, trace_file_instr(scaled), dir);
  }
  return matrix_for(w, seed, instr, dir).expand();
}

/// Self-test at a short quota: split path vs runner::execute CSV bytes, the
/// mirror's counters vs execute's, and (timed jobs) the functional twin.
std::vector<std::string> self_test(const WorkloadDef& w, std::uint64_t seed,
                                   const std::string& tmp) {
  std::vector<std::string> out;
  const auto jobs = jobs_for(w, seed, kSelfTestInstr, tmp + "/selftest-" + std::to_string(seed));
  for (const auto& spec : jobs) {
    const std::string split_csv = run_split(spec);
    const ReferenceRun ref = run_reference(spec);
    const MirrorRun mirror = run_mirror(spec, 0);
    Json j;
    j.str("key", spec.key())
        .num("seed", seed)
        .str("split_digest", digest(split_csv))
        .str("exec_digest", digest(ref.csv))
        .raw("exec", counters_json(ref.result))
        .raw("mirror", counters_json(mirror.threads, mirror.repartitions));
    if (spec.timing == sim::TimingMode::kTimed)
      j.raw("twin", counters_json(runner::execute(functional_twin(spec))));
    out.push_back(j.done());
  }
  return out;
}

std::string job_json(const runner::RunSpec& spec, const ReferenceRun& r, double setup_s,
                     std::size_t pass) {
  std::uint64_t l2_misses = 0;
  for (const auto& t : r.result.threads) l2_misses += t.mem.l2_misses;
  return Json()
      .str("key", spec.key())
      .num("pass", std::uint64_t{pass})
      .num("setup_s", setup_s)
      .num("execute_s", r.execute_s)
      .num("csv_s", r.csv_s)
      .num("instructions", r.result.total_instructions())
      .num("l2_misses", l2_misses)
      .num("ipc", r.result.throughput())
      .str("digest", digest(r.csv))
      .raw("counters", counters_json(r.result))
      .done();
}

/// Peak resident set of this process, less its file-backed and shared pages
/// (the binary and its libraries). VmHWM, not getrusage: ru_maxrss keeps the
/// high-water mark of the process image replaced by exec, so a child of a
/// large parent would report the parent's size. The file-backed pages are
/// left out because how many of them are mapped depends on what the host's
/// page cache holds (fault-around), which moved the total by ~1 MB between
/// runs of the same job.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  double hwm_kb = -1.0, file_kb = -1.0, shmem_kb = -1.0;
  while (std::getline(status, line)) {
    const auto value = [&] { return std::stod(line.substr(line.find(':') + 1)); };
    if (line.rfind("VmHWM:", 0) == 0) hwm_kb = value();
    if (line.rfind("RssFile:", 0) == 0) file_kb = value();
    if (line.rfind("RssShmem:", 0) == 0) shmem_kb = value();
  }
  if (hwm_kb < 0.0 || file_kb < 0.0 || shmem_kb < 0.0)
    throw std::runtime_error("no VmHWM/RssFile/RssShmem in /proc/self/status");
  return (hwm_kb - file_kb - shmem_kb) / 1024.0;
}

/// The run's jobs (trace inputs recorded first) and its self-test records,
/// at the default seed and at the run's seed.
struct Prepared {
  std::vector<runner::RunSpec> jobs;
  std::vector<std::string> selftest;
};

Prepared prepare(const WorkloadDef& w, const Args& a) {
  Prepared p;
  p.jobs = jobs_for(w, a.seed, w.instr, a.tmp + "/inputs");
  p.selftest = self_test(w, kDefaultSeed, a.tmp);
  if (a.seed != kDefaultSeed) {
    for (auto& s : self_test(w, a.seed, a.tmp)) p.selftest.push_back(std::move(s));
  }
  return p;
}

int mode_run(const Args& a) {
  const WorkloadDef& w = find_workload(a.workload);
  const auto [jobs, selftest] = prepare(w, a);

  std::vector<std::string> twins;
  if (w.timing == sim::TimingMode::kTimed) {
    for (const auto& spec : jobs) {
      twins.push_back(Json()
                          .str("key", spec.key())
                          .raw("counters", counters_json(runner::execute(functional_twin(spec))))
                          .done());
    }
  }

  std::vector<std::string> records;
  const auto t0 = Clock::now();
  std::size_t pass = 0;
  do {
    for (const auto& spec : jobs) {
      try {
        const ReferenceRun r = run_reference(spec);
        records.push_back(job_json(spec, r, time_setup(spec), pass));
      } catch (const std::exception& e) {
        records.push_back(Json()
                              .str("key", spec.key())
                              .num("pass", std::uint64_t{pass})
                              .str("error", e.what())
                              .done());
      }
    }
    ++pass;
  } while (seconds_since(t0) < a.seconds);

  std::printf("%s\n", Json()
                          .str("mode", "run")
                          .num("instr_per_core", w.instr)
                          .num("passes", std::uint64_t{pass})
                          .num("measured_s", seconds_since(t0))
                          .num("peak_rss_mb", peak_rss_mb())
                          .raw("selftest", Json::array(selftest))
                          .raw("twins", Json::array(twins))
                          .raw("jobs", Json::array(records))
                          .done()
                          .c_str());
  return 0;
}

template <typename F>
double median_time(int repeats, F&& body) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    body();
    t.push_back(seconds_since(t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

volatile std::uint64_t g_sink = 0;

/// Host seconds to pull ops_per_core[c] records from each source.
double time_sources(std::vector<std::unique_ptr<sim::TraceSource>> sources,
                    const std::vector<std::uint64_t>& ops_per_core) {
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < sources.size(); ++c) {
    sim::TraceSource& src = *sources[c];
    for (std::uint64_t i = 0; i < ops_per_core[c]; ++i) acc += src.next().addr;
  }
  const double s = seconds_since(t0);
  g_sink = g_sink + acc;
  return s;
}

std::string traced_job(const WorkloadDef& w, const runner::RunSpec& spec,
                       const std::string& tmp) {
  const bool timed = spec.timing == sim::TimingMode::kTimed;
  // Untraced runs as the end-to-end run times them, and the functional twin
  // of a timed job.
  std::vector<double> walls;
  std::vector<double> twin_walls;
  std::vector<double> setups;
  ReferenceRun ref;
  for (int i = 0; i < kTracedRepeats; ++i) {
    ReferenceRun r = run_reference(spec);
    walls.push_back(r.wall_s());
    if (i == 0) ref = std::move(r);
    if (timed) twin_walls.push_back(run_reference(functional_twin(spec)).wall_s());
    setups.push_back(time_setup(spec));
  }
  std::sort(setups.begin(), setups.end());

  const MirrorRun mirror = run_mirror(spec, kWindowCap);
  const sim::HierarchyConfig hcfg = make_inputs(spec).cfg.hierarchy;
  const core::CpaConfig& l2cfg = hcfg.l2;

  // Generation and decode over the job's own per-core op counts.
  const double gen_s = time_sources(generators_for(w, spec), mirror.ops_per_core);
  double decode_s = 0.0;
  std::uint64_t decode_ops = 0;
  if (w.from_traces) {
    decode_s = time_sources(make_inputs(spec).traces, mirror.ops_per_core);
    decode_ops = mirror.trace_ops;
  } else {
    // Not on this job's path: decode the same streams from v2 files so the
    // decoder's cost per op is known on every workload.
    const std::string dir = tmp + "/decode";
    std::filesystem::create_directories(dir);
    std::vector<std::uint64_t> sample(mirror.ops_per_core.size());
    std::vector<std::unique_ptr<sim::TraceSource>> files;
    auto gens = generators_for(w, spec);
    for (std::size_t c = 0; c < gens.size(); ++c) {
      sample[c] = std::min(mirror.ops_per_core[c], kDecodeSampleOps);
      const std::string path = dir + "/c" + std::to_string(c) + ".trace";
      sim::TraceWriter out(path, sim::TraceFormat::kBinaryV2);
      for (std::uint64_t i = 0; i < sample[c]; ++i) out.append(gens[c]->next());
      out.close();
      files.push_back(std::make_unique<sim::FileTraceSource>(path));
      decode_ops += sample[c];
    }
    decode_s = time_sources(std::move(files), sample);
    std::filesystem::remove_all(dir);
  }

  // Replays of the recorded window: whole hierarchy, L2 alone, and the same
  // L2 with partitioning (ATDs, profilers, controller, enforcement) off.
  const double hier_s = median_time(kLoopRepeats, [&] {
    sim::MemoryHierarchy h(hcfg);
    for (const auto& r : mirror.window) (void)h.access(r.core, r.addr, r.write, r.now);
  });
  auto replay_l2 = [&](const core::CpaConfig& cfg) {
    return median_time(kLoopRepeats, [&] {
      core::PartitionedCacheSystem l2(cfg);
      for (const auto& r : mirror.l2_window) (void)l2.access(r.core, r.addr, r.write, r.now);
    });
  };
  const double l2_s = replay_l2(l2cfg);
  core::CpaConfig none_cfg = l2cfg;
  none_cfg.enforcement = cache::EnforcementMode::kNone;
  const double l2_none_s = replay_l2(none_cfg);

  auto as_array = [](const std::vector<double>& v) {
    std::vector<std::string> s;
    for (const double x : v) s.push_back(Json::number(x));
    return Json::array(s);
  };

  std::uint64_t l1_acc = 0, l1_miss = 0, l2_acc = 0, l2_miss = 0;
  for (const auto& t : ref.result.threads) {
    l1_acc += t.mem.l1_accesses;
    l1_miss += t.mem.l1_misses;
    l2_acc += t.mem.l2_accesses;
    l2_miss += t.mem.l2_misses;
  }
  const sim::TimedStats& ts = ref.result.timed;
  return Json()
      .str("key", spec.key())
      .flag("timed", timed)
      .flag("partitioned", l2cfg.partitioned())
      .flag("from_traces", w.from_traces)
      .str("digest", digest(ref.csv))
      .raw("wall_s", as_array(walls))
      .raw("twin_wall_s", as_array(twin_walls))
      .num("setup_s", setups[setups.size() / 2])
      .num("csv_s", ref.csv_s)
      .num("mirror_wall_s", mirror.wall_s)
      .raw("counters", counters_json(ref.result))
      .raw("mirror", counters_json(mirror.threads, mirror.repartitions))
      .num("trace_ops", mirror.trace_ops)
      .num("all_l1_accesses", mirror.all_l1_accesses)
      .num("all_l2_accesses", mirror.all_l2_accesses)
      .num("window_ops", std::uint64_t{mirror.window.size()})
      .num("window_l2", std::uint64_t{mirror.l2_window.size()})
      .num("gen_s", gen_s)
      .num("decode_s", decode_s)
      .num("decode_ops", decode_ops)
      .num("hier_window_s", hier_s)
      .num("l2_window_s", l2_s)
      .num("l2_none_window_s", l2_none_s)
      .num("l1_accesses", l1_acc)
      .num("l1_misses", l1_miss)
      .num("l2_accesses", l2_acc)
      .num("l2_misses", l2_miss)
      .num("wraps", mirror.wraps_before_quota)
      .num("dram_reads", ts.dram_reads)
      .num("mshr_coalesced", ts.mshr_coalesced)
      .num("mshr_full_stalls", ts.mshr_full_stalls)
      .num("bank_conflicts", ts.bank_conflicts)
      .done();
}

int mode_trace(const Args& a) {
  const WorkloadDef& w = find_workload(a.workload);
  const auto [jobs, selftest] = prepare(w, a);
  const auto t0 = Clock::now();
  std::vector<std::string> records;
  for (const auto& spec : jobs) records.push_back(traced_job(w, spec, a.tmp));
  std::printf("%s\n", Json()
                          .str("mode", "trace")
                          .num("instr_per_core", w.instr)
                          .num("traced_s", seconds_since(t0))
                          .raw("selftest", Json::array(selftest))
                          .raw("jobs", Json::array(records))
                          .done()
                          .c_str());
  return 0;
}

int mode_digests(const Args& a) {
  const WorkloadDef& w = find_workload(a.workload);
  const std::pair<const char*, std::uint64_t> quotas[] = {{"full", w.instr},
                                                          {"selftest", kSelfTestInstr}};
  for (const auto& [tag, instr] : quotas) {
    const auto jobs =
        jobs_for(w, a.seed, instr, a.tmp + "/" + tag + "-" + std::to_string(a.seed));
    for (const auto& spec : jobs)
      std::printf("%s %s %s %s\n", w.name.c_str(), tag, spec.key().c_str(),
                  digest(run_reference(spec).csv).c_str());
  }
  return 0;
}

int mode_record_traces(const Args& a) {
  const WorkloadDef& w = find_workload(a.workload);
  if (!w.from_traces) throw std::invalid_argument(w.name + " does not replay trace files");
  std::filesystem::create_directories(a.tmp);
  for (const auto& p : record_traces(w, a.seed, trace_file_instr(w), a.tmp))
    std::printf("%s\n", p.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises once a
  // trace reader's 1 MiB buffer is freed, later buffers come from the heap,
  // and whether the heap then grows by one more buffer depends on where this
  // run's variable-length records fell: peak_rss_mb read 4.5 or 5.4 MB for
  // the same job. Pinned, every large buffer is mapped while it lives.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "run") return mode_run(a);
    if (a.mode == "trace") return mode_trace(a);
    if (a.mode == "digests") return mode_digests(a);
    if (a.mode == "record-traces") return mode_record_traces(a);
    std::fprintf(stderr, "e2ebench: unknown mode '%s'\n", a.mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
  }
  return 2;
}
