// dsmbench: runs one workload once, in its own process.
//
//   dsmbench --workload <name> --seed <n> [--scale smoke|full|paper]
//            [--trace <path>] --json <path>
//
// The JSON holds four groups. `sim` is everything read on the simulated
// clock or counted by the program: deterministic, so repeats and traced runs
// must match it exactly. `host` is read on the host clock. `trace` (only with
// --trace) holds the per-call timings of the span recorder, whose spans and
// per-layer self times go to the --trace file. Exit status is 0 when every
// output check passed, 1 when one failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace dsmbench {

using namespace dsmpm2;

Bench::Bench(const Options& options, const pm2::Config& pm2_config,
             const dsm::DsmConfig& dsm_config)
    : opt(options),
      rt(pm2_config),
      dsm(rt, dsm_config),
      trace(options.trace_path.empty() ? nullptr : std::make_unique<Tracer>()) {}

void Bench::run(std::function<void()> entry) { stats = rt.run(std::move(entry)); }

Snapshot Bench::snapshot() {
  Snapshot s;
  s.sim = rt.now();
  for (int c = 0; c < static_cast<int>(dsm::Counter::kCount); ++c) {
    s.dsm.push_back(dsm.counters().total(static_cast<dsm::Counter>(c)));
  }
  for (NodeId n = 0; n < static_cast<NodeId>(rt.node_count()); ++n) {
    s.links.push_back(rt.network().stats(n));
    s.cpu_busy.push_back(rt.cluster().node(n).cpu().busy_time());
  }
  s.rpc_calls = rt.rpc().calls_issued();
  s.threads = rt.threads().threads_created();
  s.host = host_ns();
  return s;
}

namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median and tail, in µs, of the histogram plus `zeros` calls that took no
/// time. The tail is p99 when there are 1000+ samples (so ten lie beyond
/// it); with fewer, the highest rank that still has ten beyond it; 0 with
/// ten or fewer samples.
std::pair<double, double> median_tail_us(const SimHistogram& hist, std::uint64_t zeros) {
  std::uint64_t n = zeros;
  for (const auto& [duration, count] : hist) n += count;
  const auto at_rank = [&](std::uint64_t rank) {
    std::uint64_t seen = zeros;
    if (rank < seen) return 0.0;
    for (const auto& [duration, count] : hist) {
      seen += count;
      if (rank < seen) return to_us(duration);
    }
    return 0.0;
  };
  if (n == 0) return {0.0, 0.0};
  const double median = at_rank((n - 1) / 2);
  if (n <= 10) return {median, 0.0};
  const std::uint64_t tail =
      n >= 1000 ? static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(n))) - 1
                : n - 11;
  return {median, at_rank(tail)};
}

std::uint64_t delta(const Bench& b, dsm::Counter c) {
  const auto i = static_cast<std::size_t>(c);
  return b.end.dsm[i] - b.begin.dsm[i];
}

Metrics sim_metrics(Bench& b) {
  Metrics m;
  const auto nodes = static_cast<std::size_t>(b.rt.node_count());
  const SimTime phase = b.end.sim - b.begin.sim;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_node_msgs = 0;
  std::array<std::uint64_t, madeleine::kMsgKindCount> kind_msgs{};
  std::array<std::uint64_t, madeleine::kMsgKindCount> kind_bytes{};
  SimTime busy = 0;
  SimTime max_busy = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const auto& e = b.end.links[n];
    const auto& s = b.begin.links[n];
    msgs += e.messages_sent - s.messages_sent;
    bytes += e.bytes_sent - s.bytes_sent;
    max_node_msgs = std::max(max_node_msgs, e.messages_sent - s.messages_sent);
    for (std::size_t k = 0; k < madeleine::kMsgKindCount; ++k) {
      kind_msgs[k] += e.kind_messages_sent[k] - s.kind_messages_sent[k];
      kind_bytes[k] += e.kind_bytes_sent[k] - s.kind_bytes_sent[k];
    }
    const SimTime node_busy = b.end.cpu_busy[n] - b.begin.cpu_busy[n];
    busy += node_busy;
    max_busy = std::max(max_busy, node_busy);
  }
  m.emplace_back("sim_makespan_ms", to_ms(b.makespan));
  m.emplace_back("wire_msgs", static_cast<double>(msgs));
  m.emplace_back("wire_bytes", static_cast<double>(bytes));
  m.emplace_back("sim.events", static_cast<double>(b.stats.events_executed));
  m.emplace_back("sim.cpu_busy_ms", to_ms(busy));
  m.emplace_back("sim.cpu_util_max",
                 ratio(static_cast<double>(max_busy), static_cast<double>(phase)));
  m.emplace_back("sim.cpu_util_mean",
                 ratio(static_cast<double>(busy),
                       static_cast<double>(phase) * static_cast<double>(nodes)));
  m.emplace_back("marcel.threads_spawned",
                 static_cast<double>(b.end.threads - b.begin.threads));
  m.emplace_back("pm2.rpc_calls", static_cast<double>(b.end.rpc_calls - b.begin.rpc_calls));
  for (std::size_t k = 0; k < madeleine::kMsgKindCount; ++k) {
    const std::string kind = madeleine::msg_kind_name(static_cast<madeleine::MsgKind>(k));
    m.emplace_back("madeleine.msgs." + kind, static_cast<double>(kind_msgs[k]));
    m.emplace_back("madeleine.bytes." + kind, static_cast<double>(kind_bytes[k]));
  }
  m.emplace_back("madeleine.max_node_msg_share",
                 ratio(static_cast<double>(max_node_msgs), static_cast<double>(msgs)));

  using dsm::Counter;
  const std::pair<const char*, Counter> counted[] = {
      {"dsm.read_faults", Counter::kReadFaults},
      {"dsm.write_faults", Counter::kWriteFaults},
      {"dsm.pages_sent", Counter::kPagesSent},
      {"dsm.requests_forwarded", Counter::kRequestsForwarded},
      {"dsm.invalidations_sent", Counter::kInvalidationsSent},
      {"dsm.diffs_sent", Counter::kDiffsSent},
      {"dsm.diff_bytes_sent", Counter::kDiffBytesSent},
      {"dsm.diff_batches_sent", Counter::kDiffBatchesSent},
      {"dsm.twins_created", Counter::kTwinsCreated},
      {"dsm.write_notices_created", Counter::kWriteNoticesCreated},
      {"dsm.diff_fetches_sent", Counter::kDiffFetchesSent},
      {"dsm.barriers_crossed", Counter::kBarriersCrossed},
      {"dsm.lock_acquires", Counter::kLockAcquires},
      {"dsm.lock_handoffs", Counter::kLockHandoffs},
      {"dsm.proto_switches", Counter::kProtoSwitches},
      {"dsm.switch_nacks", Counter::kSwitchNacks},
      {"hyperion.gets", Counter::kGets},
      {"hyperion.puts", Counter::kPuts},
      {"hyperion.inline_checks", Counter::kInlineChecks},
      {"hyperion.cache_flushes", Counter::kCacheFlushes},
  };
  for (const auto& [name, counter] : counted) {
    m.emplace_back(name, static_cast<double>(delta(b, counter)));
  }
  const auto hits = static_cast<double>(delta(b, Counter::kSpanDiffHits));
  m.emplace_back("dsm.span_diff_hit_ratio",
                 ratio(hits, hits + static_cast<double>(delta(b, Counter::kSpanDiffFallbacks))));
  m.emplace_back("dsm.lock_wait_us_per_acquire",
                 ratio(static_cast<double>(delta(b, Counter::kLockWaitUs)),
                       static_cast<double>(delta(b, Counter::kLockAcquires))));
  const auto switches = static_cast<double>(delta(b, Counter::kProtoSwitches));
  m.emplace_back("dsm.switch_success_ratio",
                 ratio(switches, switches + static_cast<double>(delta(b, Counter::kSwitchNacks))));
  std::uint64_t retained = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(nodes); ++n) {
    const auto g = b.dsm.retained_gauges(n);
    retained += g.diff_store_bytes + g.notice_list_bytes + g.lock_history_bytes +
                g.barrier_history_bytes;
  }
  m.emplace_back("dsm.retained_bytes", static_cast<double>(retained));
  m.emplace_back("apps.expansions", static_cast<double>(b.expansions));
  m.emplace_back("apps.bound_updates", static_cast<double>(b.bound_updates));
  return m;
}

Metrics host_metrics(const Bench& b) {
  const double host_phase_ns = static_cast<double>(b.end.host - b.begin.host);
  const auto accesses = static_cast<double>(delta(b, dsm::Counter::kGets) +
                                            delta(b, dsm::Counter::kPuts));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Metrics{
      {"host_s", host_phase_ns / 1e9},
      {"setup_s", static_cast<double>(b.begin.host - b.opt.process_start_ns) / 1e9},
      {"host_peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
      {"sim.host_ns_per_event",
       ratio(host_phase_ns, static_cast<double>(b.stats.events_executed))},
      {"hyperion.host_ns_per_access", ratio(host_phase_ns, accesses)},
  };
}

Metrics trace_metrics(const Tracer& t) {
  Metrics m;
  for (const Op op : {Op::kRead, Op::kWrite}) {
    const OpStats& s = t.op(op);
    const std::string name = std::string("dsm.") + op_name(op);
    const auto [p50, p99] = median_tail_us(s.sim_ns, 0);
    m.emplace_back(name + ".hit_ratio", ratio(static_cast<double>(s.zero_sim_calls),
                                              static_cast<double>(s.calls)));
    m.emplace_back(name + ".miss_sim_us.p50", p50);
    m.emplace_back(name + ".miss_sim_us.p99", p99);
    m.emplace_back(name + ".hit_host_ns.mean",
                   ratio(static_cast<double>(s.zero_sim_host_ns),
                         static_cast<double>(s.zero_sim_calls)));
  }
  for (const Op op : {Op::kLockAcquire, Op::kLockRelease, Op::kBarrierWait}) {
    const OpStats& s = t.op(op);
    const std::string name = std::string("dsm.") + op_name(op);
    const auto [p50, p99] = median_tail_us(s.sim_ns, s.zero_sim_calls);
    m.emplace_back(name + ".sim_us.p50", p50);
    m.emplace_back(name + ".sim_us.p99", p99);
  }
  const OpStats& spawn = t.op(Op::kSpawn);
  m.emplace_back("pm2.spawn.host_us.mean",
                 ratio(static_cast<double>(spawn.zero_sim_host_ns) / 1e3,
                       static_cast<double>(spawn.zero_sim_calls)));
  const auto [task_p50, task_p99] = median_tail_us(t.task_latencies(), 0);
  m.emplace_back("pm2.task.sim_us.p50", task_p50);
  m.emplace_back("pm2.task.sim_us.p99", task_p99);
  m.emplace_back("trace.spans", static_cast<double>(t.spans_opened()));
  for (const Layer l : {Layer::kApps, Layer::kPm2, Layer::kDsm}) {
    m.emplace_back(std::string("trace.self_sim_ms.") + layer_name(l), to_ms(t.self_sim_ns(l)));
  }
  return m;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_object(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", m[i].second);
    out += (i == 0 ? "\n    " : ",\n    ") + json_string(m[i].first) + ": " + num;
  }
  return out + "\n  }";
}

const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kSmoke: return "smoke";
    case Scale::kFull: return "full";
    case Scale::kPaper: return "paper";
  }
  return "?";
}

}  // namespace

int finish(Bench& b) {
  const Metrics sim = sim_metrics(b);
  const Metrics host = host_metrics(b);
  std::string out = "{\n  \"workload\": " + json_string(b.opt.workload) +
                    ",\n  \"seed\": " + std::to_string(b.opt.seed) +
                    ",\n  \"scale\": " + json_string(scale_name(b.opt.scale)) +
                    ",\n  \"traced\": " + (b.tracer() != nullptr ? "true" : "false") +
                    ",\n  \"attempted\": " + std::to_string(b.attempted) +
                    ",\n  \"failed\": " + std::to_string(b.failed) +
                    ",\n  \"sim\": " + json_object(sim) + ",\n  \"host\": " + json_object(host);
  if (b.tracer() != nullptr) {
    out += ",\n  \"trace\": " + json_object(trace_metrics(*b.tracer()));
    if (!b.tracer()->write_json(b.opt.trace_path, b.opt.workload)) {
      std::fprintf(stderr, "dsmbench: cannot write %s\n", b.opt.trace_path.c_str());
      return 2;
    }
  }
  out += "\n}\n";
  std::FILE* f = std::fopen(b.opt.json_path.c_str(), "w");
  if (f == nullptr || std::fputs(out.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "dsmbench: cannot write %s\n", b.opt.json_path.c_str());
    return 2;
  }
  for (const std::string& what : b.failures) {
    std::fprintf(stderr, "dsmbench: %s: check failed: %s\n", b.opt.workload.c_str(),
                 what.c_str());
  }
  return b.failed == 0 ? 0 : 1;
}

}  // namespace dsmbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tsp_fig4|mapcolor_ic_fig5|jacobi_hbrc|"
               "mixed_adaptive --seed <n> [--scale smoke|full|paper] "
               "[--trace <path>] --json <path>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using dsmbench::Scale;
  dsmbench::Options opt;
  opt.process_start_ns = dsmbench::host_ns();
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--scale" && (value == "smoke" || value == "full" || value == "paper")) {
      opt.scale = value == "smoke" ? Scale::kSmoke
                                   : value == "full" ? Scale::kFull : Scale::kPaper;
    } else if (flag == "--trace") {
      opt.trace_path = value;
    } else if (flag == "--json") {
      opt.json_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_seed || opt.json_path.empty()) return usage(argv[0]);
  const std::pair<const char*, int (*)(const dsmbench::Options&)> workloads[] = {
      {"tsp_fig4", dsmbench::tsp_fig4},
      {"mapcolor_ic_fig5", dsmbench::mapcolor_ic_fig5},
      {"jacobi_hbrc", dsmbench::jacobi_hbrc},
      {"mixed_adaptive", dsmbench::mixed_adaptive},
  };
  for (const auto& [name, run] : workloads) {
    if (opt.workload == name) return run(opt);
  }
  return usage(argv[0]);
}
