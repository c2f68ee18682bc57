#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace dsmbench {

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kApps: return "apps";
    case Layer::kPm2: return "pm2";
    case Layer::kDsm: return "dsm";
  }
  return "?";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kLockAcquire: return "lock_acquire";
    case Op::kLockRelease: return "lock_release";
    case Op::kBarrierWait: return "barrier_wait";
    case Op::kSpawn: return "spawn";
    case Op::kJoin: return "join";
  }
  return "?";
}

namespace {

Layer op_layer(Op op) {
  return op == Op::kSpawn || op == Op::kJoin ? Layer::kPm2 : Layer::kDsm;
}

}  // namespace

std::int32_t Tracer::open(const char* name, Layer layer, NodeId node,
                          std::int32_t parent, SimTime sim_begin,
                          std::int64_t host_begin) {
  ++spans_opened_;
  if (spans_.size() >= kMaxStoredSpans) return -1;
  spans_.push_back(Span{name, layer, node, parent, sim_begin, sim_begin,
                        host_begin, host_begin});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id, SimTime sim_end, std::int64_t host_end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].sim_end = sim_end;
  spans_[static_cast<std::size_t>(id)].host_end = host_end;
}

void Tracer::record_call(Op op, NodeId node, std::int32_t parent,
                         SimTime sim_begin, SimTime sim_end,
                         std::int64_t host_begin, std::int64_t host_end) {
  OpStats& s = ops_[static_cast<std::size_t>(op)];
  ++s.calls;
  add_self_sim(op_layer(op), sim_end - sim_begin);
  if (sim_end == sim_begin) {
    ++s.zero_sim_calls;
    s.zero_sim_host_ns += static_cast<std::uint64_t>(host_end - host_begin);
    return;
  }
  ++s.sim_ns[sim_end - sim_begin];
  const std::int32_t id =
      open(op_name(op), op_layer(op), node, parent, sim_begin, host_begin);
  close(id, sim_end, host_end);
}

bool Tracer::write_json(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\",\n \"layers\": {", workload.c_str());
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::fprintf(f, "%s\"%s\": {\"self_sim_ns\": %lld}", l == 0 ? "" : ", ",
                 layer_name(static_cast<Layer>(l)), static_cast<long long>(self_sim_[l]));
  }
  std::fprintf(f, "},\n \"ops\": {");
  for (std::size_t o = 0; o < kOpCount; ++o) {
    const OpStats& s = ops_[o];
    std::fprintf(f,
                 "%s\"%s\": {\"calls\": %llu, \"zero_sim_calls\": %llu, "
                 "\"zero_sim_host_ns\": %llu}",
                 o == 0 ? "" : ", ", op_name(static_cast<Op>(o)),
                 static_cast<unsigned long long>(s.calls),
                 static_cast<unsigned long long>(s.zero_sim_calls),
                 static_cast<unsigned long long>(s.zero_sim_host_ns));
  }
  std::fprintf(f,
               "},\n \"spans_opened\": %llu,\n \"span_fields\": [\"name\", "
               "\"layer\", \"node\", \"parent\", \"sim_begin_ns\", \"sim_end_ns\", "
               "\"host_begin_ns\", \"host_end_ns\"],\n \"spans\": [",
               static_cast<unsigned long long>(spans_opened_));
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().host_begin;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  [\"%s\", \"%s\", %u, %d, %lld, %lld, %lld, %lld]",
                 i == 0 ? "" : ",", s.name, layer_name(s.layer),
                 static_cast<unsigned>(s.node), s.parent,
                 static_cast<long long>(s.sim_begin), static_cast<long long>(s.sim_end),
                 static_cast<long long>(s.host_begin - origin),
                 static_cast<long long>(s.host_end - origin));
  }
  std::fprintf(f, "\n ]\n}\n");
  return std::fclose(f) == 0;
}

Task::Task(Tracer* tracer, dsmpm2::dsm::Dsm& dsm, const char* name,
           std::int32_t parent)
    : tracer_(tracer), dsm_(dsm), rt_(dsm.runtime()) {
  if (tracer_ == nullptr) return;
  node_ = rt_.self_node();
  sim_begin_ = rt_.now();
  root_ = tracer_->open(name, Layer::kApps, node_, parent, sim_begin_, host_ns());
}

Task::~Task() {
  if (tracer_ == nullptr) return;
  const SimTime sim_end = rt_.now();
  tracer_->close(root_, sim_end, host_ns());
  tracer_->add_self_sim(Layer::kApps, sim_end - sim_begin_ - child_sim_);
}

void Task::finish(Op op, SimTime sim_begin, std::int64_t host_begin) {
  const SimTime sim_end = rt_.now();
  const std::int64_t host_end = host_ns();
  tracer_->record_call(op, node_, root_, sim_begin, sim_end, host_begin, host_end);
  child_sim_ += sim_end - sim_begin;
}

dsmpm2::marcel::Thread& Task::spawn_on(NodeId node, std::string name,
                                       std::function<void()> fn) {
  const SimTime start = rt_.now();
  dsmpm2::marcel::Thread& t = *call(Op::kSpawn, [&] {
    return &rt_.spawn_on(node, std::move(name), std::move(fn));
  });
  if (tracer_ != nullptr) spawned_.emplace_back(&t, start);
  return t;
}

void Task::join(dsmpm2::marcel::Thread& thread) {
  call(Op::kJoin, [&] { rt_.threads().join(thread); });
  if (tracer_ == nullptr) return;
  for (auto it = spawned_.begin(); it != spawned_.end(); ++it) {
    if (it->first == &thread) {
      tracer_->add_task_latency(rt_.now() - it->second);
      spawned_.erase(it);
      return;
    }
  }
}

}  // namespace dsmbench
