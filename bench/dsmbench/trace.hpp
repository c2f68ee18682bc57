// dsmbench's span recorder: reads each layer from outside, by timing the
// calls the benchmark's own workload loops make into the public API.
//
// A Task stands for one workload task (a thread body, or the thread that
// orchestrates the others). It opens a root span in the `apps` layer and
// wraps each call into another layer in a child span: Dsm::read/write/
// lock_acquire/lock_release/barrier_wait (layer `dsm`) and Runtime::spawn_on
// and ThreadSystem::join (layer `pm2`). A span holds its name, layer, node,
// simulated and host start/end, and its parent. A wrapped call that took no
// simulated time (a DSM hit) is only folded into its op's count and host-ns
// sum, which keeps millions of hits in bounded memory.
//
// Self time (a span minus its children) is kept on the simulated clock,
// where every task has its own timeline. Host time is attributed only to
// calls that took no simulated time: every fiber shares one host thread, so
// a call that blocks runs other fibers before it returns, and from outside
// the program that time cannot be told apart from the call's own.
//
// The recorder never charges simulated time, sends messages or yields, so a
// traced run's simulated results are identical to an untraced one. With a
// null Tracer every wrapper is one branch and a direct call.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "dsm/dsm.hpp"
#include "pm2/pm2.hpp"

namespace dsmbench {

using dsmpm2::DsmAddr;
using dsmpm2::NodeId;
using dsmpm2::SimTime;

/// Host steady-clock nanoseconds (arbitrary origin).
std::int64_t host_ns();

enum class Layer : std::uint8_t { kApps, kPm2, kDsm };
inline constexpr std::size_t kLayerCount = 3;
const char* layer_name(Layer layer);

/// The public calls a Task wraps.
enum class Op : std::uint8_t {
  kRead,
  kWrite,
  kLockAcquire,
  kLockRelease,
  kBarrierWait,
  kSpawn,
  kJoin,
};
inline constexpr std::size_t kOpCount = 7;
const char* op_name(Op op);

/// Exact histogram of simulated durations: duration -> calls.
using SimHistogram = std::map<SimTime, std::uint64_t>;

/// Per-op totals, kept for every wrapped call.
struct OpStats {
  std::uint64_t calls = 0;
  std::uint64_t zero_sim_calls = 0;    ///< calls that took no simulated time
  std::uint64_t zero_sim_host_ns = 0;  ///< host time of those calls
  SimHistogram sim_ns;                 ///< durations of the other calls
};

class Tracer {
 public:
  /// Spans kept for the JSON artifact; later spans are counted, not kept.
  static constexpr std::size_t kMaxStoredSpans = 50000;

  /// Opens a span and returns its id (-1 once the store is full).
  std::int32_t open(const char* name, Layer layer, NodeId node, std::int32_t parent,
                    SimTime sim_begin, std::int64_t host_begin);
  void close(std::int32_t id, SimTime sim_end, std::int64_t host_end);

  void add_self_sim(Layer layer, SimTime sim) {
    self_sim_[static_cast<std::size_t>(layer)] += sim;
  }
  /// Records one wrapped call; stores a span only when it took sim time.
  void record_call(Op op, NodeId node, std::int32_t parent, SimTime sim_begin,
                   SimTime sim_end, std::int64_t host_begin, std::int64_t host_end);
  /// Simulated time from a task's spawn_on to the return of its join.
  void add_task_latency(SimTime latency) { ++task_sim_ns_[latency]; }

  [[nodiscard]] const OpStats& op(Op o) const { return ops_[static_cast<std::size_t>(o)]; }
  [[nodiscard]] const SimHistogram& task_latencies() const { return task_sim_ns_; }
  [[nodiscard]] std::uint64_t spans_opened() const { return spans_opened_; }
  [[nodiscard]] SimTime self_sim_ns(Layer l) const {
    return self_sim_[static_cast<std::size_t>(l)];
  }

  /// Writes the spans, per-op totals and per-layer self times as JSON.
  [[nodiscard]] bool write_json(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name = "";
    Layer layer = Layer::kApps;
    NodeId node = 0;
    std::int32_t parent = -1;
    SimTime sim_begin = 0;
    SimTime sim_end = 0;
    std::int64_t host_begin = 0;
    std::int64_t host_end = 0;
  };

  std::vector<Span> spans_;
  std::uint64_t spans_opened_ = 0;
  std::array<OpStats, kOpCount> ops_{};
  std::array<SimTime, kLayerCount> self_sim_{};
  SimHistogram task_sim_ns_;
};

/// One workload task: the root span plus wrappers for the calls it makes.
/// Construct it first thing in the task's body, on the task's own thread.
class Task {
 public:
  Task(Tracer* tracer, dsmpm2::dsm::Dsm& dsm, const char* name,
       std::int32_t parent = -1);
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task(Task&&) = delete;
  Task& operator=(Task&&) = delete;

  /// The root span's id, handed to the tasks this one spawns.
  [[nodiscard]] std::int32_t span() const { return root_; }

  template <typename T>
  [[nodiscard]] T read(DsmAddr addr) {
    return call(Op::kRead, [&] { return dsm_.read<T>(addr); });
  }
  template <typename T>
  void write(DsmAddr addr, const T& value) {
    call(Op::kWrite, [&] { dsm_.write<T>(addr, value); });
  }
  void lock_acquire(int lock) {
    call(Op::kLockAcquire, [&] { dsm_.lock_acquire(lock); });
  }
  void lock_release(int lock) {
    call(Op::kLockRelease, [&] { dsm_.lock_release(lock); });
  }
  void barrier_wait(int barrier) {
    call(Op::kBarrierWait, [&] { dsm_.barrier_wait(barrier); });
  }
  dsmpm2::marcel::Thread& spawn_on(NodeId node, std::string name,
                                   std::function<void()> fn);
  void join(dsmpm2::marcel::Thread& thread);

 private:
  template <typename F>
  std::invoke_result_t<F&> call(Op op, F&& fn) {
    if (tracer_ == nullptr) return fn();
    const std::int64_t h0 = host_ns();
    const SimTime s0 = rt_.now();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      fn();
      finish(op, s0, h0);
    } else {
      auto out = fn();
      finish(op, s0, h0);
      return out;
    }
  }
  void finish(Op op, SimTime sim_begin, std::int64_t host_begin);

  Tracer* tracer_;
  dsmpm2::dsm::Dsm& dsm_;
  dsmpm2::pm2::Runtime& rt_;
  NodeId node_ = 0;
  std::int32_t root_ = -1;
  SimTime sim_begin_ = 0;
  SimTime child_sim_ = 0;
  /// Spawn instants of the threads this task started and has not joined.
  std::vector<std::pair<const dsmpm2::marcel::Thread*, SimTime>> spawned_;
};

}  // namespace dsmbench
