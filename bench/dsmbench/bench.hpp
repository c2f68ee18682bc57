// dsmbench: one process runs one workload once and
// writes every metric it can read from outside the layers as JSON (run.py
// runs it, repeats it and checks it; README.md lists the metrics).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "dsm/dsm.hpp"
#include "madeleine/network.hpp"
#include "pm2/pm2.hpp"
#include "trace.hpp"

namespace dsmbench {

/// smoke: seconds-long sizes for the ctest lane; full: the benchmark;
/// paper: the exact Fig. 4 / Fig. 5 cells (single instance, seed ignored).
enum class Scale { kSmoke, kFull, kPaper };

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  Scale scale = Scale::kFull;
  std::string json_path;
  std::string trace_path;  ///< empty: tracing off
  std::int64_t process_start_ns = 0;  ///< host_ns() on entry to main()
};

/// Cumulative counters, sampled at both edges of the measured phase.
struct Snapshot {
  SimTime sim = 0;
  std::int64_t host = 0;
  std::vector<std::uint64_t> dsm;  ///< Counters::total, indexed by Counter
  std::vector<dsmpm2::madeleine::LinkStats> links;  ///< per node
  std::vector<SimTime> cpu_busy;                    ///< per node
  std::uint64_t rpc_calls = 0;
  std::uint64_t threads = 0;
};

/// One workload run: the simulated cluster, the edges of the measured phase
/// and the tally of output checks.
struct Bench {
  Bench(const Options& options, const dsmpm2::pm2::Config& pm2_config,
        const dsmpm2::dsm::DsmConfig& dsm_config);

  /// rt.run(entry); the entry calls begin_measure()/end_measure() around
  /// the measured phase, from fiber context.
  void run(std::function<void()> entry);
  void begin_measure() { begin = snapshot(); }
  void end_measure() { end = snapshot(); }
  /// Counts one output check against its oracle; `describe()` names a
  /// failure and runs only for one.
  template <typename Describe>
  void check(bool ok, Describe&& describe) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(describe());
  }
  [[nodiscard]] Tracer* tracer() { return trace.get(); }

  const Options& opt;
  dsmpm2::pm2::Runtime rt;
  dsmpm2::dsm::Dsm dsm;
  std::unique_ptr<Tracer> trace;  ///< null when tracing is off
  dsmpm2::pm2::RunStats stats;
  Snapshot begin;
  Snapshot end;
  /// Simulated time of the measured phase; for the apps kernels, the sum of
  /// the solve times they report themselves (the paper's Fig. 4/5 cells).
  SimTime makespan = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, printed to stderr
  std::uint64_t expansions = 0;       ///< apps layer: search-tree nodes
  std::uint64_t bound_updates = 0;    ///< apps layer: shared-bound improvements

 private:
  Snapshot snapshot();
};

/// Computes the metrics, writes the JSON (and the trace) and returns the
/// process exit code: 0 when every output check passed.
int finish(Bench& bench);

int tsp_fig4(const Options& opt);
int mapcolor_ic_fig5(const Options& opt);
int jacobi_hbrc(const Options& opt);
int mixed_adaptive(const Options& opt);

}  // namespace dsmbench
