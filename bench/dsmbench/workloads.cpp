// The four dsmbench workloads. Each builds its cluster (set-up), runs one
// measured phase, then checks every output against an oracle. README.md
// gives the rationale; the sizes below are what `--scale` selects.
//
// Each seed draws inputs whose *amount* of work is about the same across
// seeds, so runs on different seeds compare: a single random TSP matrix or
// colour-cost order changes a branch-and-bound search several-fold, so those
// workloads solve a batch, and the stencil's seed only moves which words
// change (the diff bytes), not the work per sweep.
#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/map_coloring.hpp"
#include "apps/tsp.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "hyperion/runtime.hpp"

namespace dsmbench {

using namespace dsmpm2;

namespace {

std::string describe(const char* what, std::uint64_t id, std::int64_t got,
                     std::int64_t want) {
  return std::string(what) + " " + std::to_string(id) + ": got " +
         std::to_string(got) + ", want " + std::to_string(want);
}

/// Picks `count` distinct nodes from [first, nodes), in seeded order.
std::vector<NodeId> pick_nodes(Rng& rng, int first, int nodes, int count) {
  std::vector<NodeId> pool;
  for (int n = first; n < nodes; ++n) pool.push_back(static_cast<NodeId>(n));
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        i + static_cast<int>(rng.next_below(pool.size() - static_cast<std::size_t>(i))));
    std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
  }
  pool.resize(static_cast<std::size_t>(count));
  return pool;
}

}  // namespace

// ---- tsp_fig4 ---------------------------------------------------------------
// The paper's Fig. 4 program (apps::run_tsp, unmodified): branch and bound
// with one lock-protected shared bound, li_hudak, 8 nodes, BIP/Myrinet. Each
// seed draws a batch of random distance matrices, solved one after another.

int tsp_fig4(const Options& opt) {
  pm2::Config pcfg;
  pcfg.nodes = 8;
  pcfg.driver = madeleine::bip_myrinet();
  Bench b(opt, pcfg, dsm::DsmConfig{});

  int cities = 10;
  std::vector<std::uint64_t> matrix_seeds;
  if (opt.scale == Scale::kPaper) {
    cities = 14;
    matrix_seeds.push_back(apps::TspConfig{}.seed);  // the Fig. 4 matrix
  } else {
    const int problems = opt.scale == Scale::kSmoke ? 10 : 1500;
    if (opt.scale == Scale::kSmoke) cities = 8;
    Rng rng(opt.seed);
    for (int k = 0; k < problems; ++k) matrix_seeds.push_back(rng.next_u64());
  }

  std::vector<int> best(matrix_seeds.size());
  b.run([&] {
    b.begin_measure();
    for (std::size_t k = 0; k < matrix_seeds.size(); ++k) {
      Task task(b.tracer(), b.dsm, "tsp.solve");
      apps::TspConfig cfg;
      cfg.n_cities = cities;
      cfg.seed = matrix_seeds[k];
      cfg.protocol = b.dsm.builtin().li_hudak;
      const apps::TspResult r = apps::run_tsp(b.rt, b.dsm, cfg);
      best[k] = r.best_length;
      b.makespan += r.elapsed;
      b.expansions += r.expansions;
      b.bound_updates += r.bound_updates;
      // Free the solved problem's matrix and bound (local bookkeeping, no
      // messages) so a long batch cannot exhaust the iso-address arena.
      while (!b.dsm.areas().areas().empty()) {
        b.dsm.dsm_free(b.dsm.areas().areas().back().base);
      }
    }
    b.end_measure();
  });

  for (std::size_t k = 0; k < matrix_seeds.size(); ++k) {
    const int want = apps::solve_tsp_sequential(
        apps::make_distance_matrix(cities, matrix_seeds[k]), cities);
    b.check(best[k] == want,
            [&] { return describe("tsp matrix seed", matrix_seeds[k], best[k], want); });
  }
  return finish(b);
}

// ---- mapcolor_ic_fig5 -------------------------------------------------------
// The paper's Fig. 5 program (apps::run_map_coloring, unmodified) under
// Hyperion's inline-check protocol java_ic, 4 nodes, SISCI/SCI. A run solves
// the map once per ordering of the paper's colour costs {1,2,3,4}, all 24 in
// a seeded sequence: the orderings alone spread one solve's cost by 14%, a
// random subset would carry that into the total, while the sequence still
// moves object placement, monitor ids and cached pages from one solve to
// the next.

int mapcolor_ic_fig5(const Options& opt) {
  pm2::Config pcfg;
  pcfg.nodes = 4;
  pcfg.driver = madeleine::sisci_sci();
  Bench b(opt, pcfg, dsm::DsmConfig{});
  hyperion::Runtime hyp(b.dsm, hyperion::Detection::kInlineCheck);

  int states = 18;
  std::vector<std::array<int, 4>> costs;
  if (opt.scale == Scale::kPaper) {
    states = 29;
    costs.push_back(apps::MapColoringConfig{}.color_costs);
  } else {
    std::array<int, 4> order{1, 2, 3, 4};
    do {
      costs.push_back(order);
    } while (std::next_permutation(order.begin(), order.end()));
    Rng rng(opt.seed);
    for (std::size_t i = costs.size() - 1; i > 0; --i) {
      std::swap(costs[i], costs[rng.next_below(i + 1)]);
    }
    if (opt.scale == Scale::kSmoke) {
      costs.resize(4);
      states = 12;
    }
  }

  std::vector<int> best(costs.size());
  b.run([&] {
    b.begin_measure();
    for (std::size_t k = 0; k < costs.size(); ++k) {
      Task task(b.tracer(), b.dsm, "mapcolor.solve");
      apps::MapColoringConfig cfg;
      cfg.n_states = states;
      cfg.color_costs = costs[k];
      const apps::MapColoringResult r = apps::run_map_coloring(b.rt, hyp, cfg);
      best[k] = r.best_cost;
      b.makespan += r.elapsed;
      b.expansions += r.expansions;
    }
    b.end_measure();
  });

  for (std::size_t k = 0; k < costs.size(); ++k) {
    apps::MapColoringConfig cfg;
    cfg.n_states = states;
    cfg.color_costs = costs[k];
    const int want = apps::solve_map_coloring_sequential(cfg);
    b.check(best[k] == want,
            [&] { return describe("mapcolor cost order", k, best[k], want); });
  }
  return finish(b);
}

// ---- jacobi_hbrc ------------------------------------------------------------
// A bench-owned 2-D Jacobi stencil (the apps::run_jacobi kernel, with every
// DSM call wrapped) under hbrc_mw, 8 nodes, BIP/Myrinet: rows partitioned
// over nodes, pages homed round-robin, a barrier per sweep. Write- and
// byte-heavy: twins, write spans and a batched diff flush at every barrier.

namespace {

struct JacobiSize {
  int rows;
  int cols;
  int sweeps;
  int hot_spots;
};

/// A hot boundary plus seeded hot spots on a cold interior: the work per
/// sweep is fixed, while how many words each sweep changes (the diff bytes)
/// follows the seeded spots.
std::vector<double> jacobi_initial(const JacobiSize& s, std::uint64_t seed) {
  std::vector<double> g(static_cast<std::size_t>(s.rows) * s.cols, 0.0);
  for (int r = 0; r < s.rows; ++r) {
    for (int c = 0; c < s.cols; ++c) {
      if (r == 0 || c == 0 || r == s.rows - 1 || c == s.cols - 1) {
        g[static_cast<std::size_t>(r) * s.cols + c] = 100.0;
      }
    }
  }
  Rng rng(seed);
  for (int i = 0; i < s.hot_spots; ++i) {
    const auto r = 1 + rng.next_below(static_cast<std::uint64_t>(s.rows - 2));
    const auto c = 1 + rng.next_below(static_cast<std::uint64_t>(s.cols - 2));
    g[r * static_cast<std::uint64_t>(s.cols) + c] =
        static_cast<double>(1 + rng.next_below(99));
  }
  return g;
}

/// The oracle: the same sweeps, same operation order, on plain memory.
std::vector<double> jacobi_sequential(const JacobiSize& s, std::vector<double> a) {
  std::vector<double> b = a;
  const auto at = [&](int r, int c) { return static_cast<std::size_t>(r) * s.cols + c; };
  for (int it = 0; it < s.sweeps; ++it) {
    for (int r = 1; r < s.rows - 1; ++r) {
      for (int c = 1; c < s.cols - 1; ++c) {
        b[at(r, c)] = 0.25 * (a[at(r - 1, c)] + a[at(r + 1, c)] + a[at(r, c - 1)] +
                              a[at(r, c + 1)]);
      }
    }
    std::swap(a, b);
  }
  return a;
}

}  // namespace

int jacobi_hbrc(const Options& opt) {
  const int nodes = 8;
  pm2::Config pcfg;
  pcfg.nodes = nodes;
  pcfg.driver = madeleine::bip_myrinet();
  Bench b(opt, pcfg, dsm::DsmConfig{});
  const JacobiSize size = opt.scale == Scale::kSmoke ? JacobiSize{64, 64, 4, 4}
                                                     : JacobiSize{384, 384, 16, 48};
  const std::vector<double> initial = jacobi_initial(size, opt.seed);
  const SimTime cost_per_point = apps::JacobiConfig{}.cost_per_point;
  const int rows = size.rows;
  const int cols = size.cols;

  std::vector<double> result(initial.size());
  b.run([&] {
    dsm::AllocAttr attr;
    attr.protocol = b.dsm.builtin().hbrc_mw;
    attr.home_policy = dsm::HomePolicy::kRoundRobin;
    attr.name = "jacobi.grid";
    const DsmAddr front = b.dsm.dsm_malloc(
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) * 8 * 2, attr);
    const DsmAddr back = front + static_cast<DsmAddr>(rows) * static_cast<DsmAddr>(cols) * 8;
    const auto at = [&](DsmAddr plane, int r, int c) {
      return plane + (static_cast<DsmAddr>(r) * static_cast<DsmAddr>(cols) +
                      static_cast<DsmAddr>(c)) * 8;
    };
    const int barrier = b.dsm.create_barrier(nodes, attr.protocol);

    b.begin_measure();
    {
      Task main(b.tracer(), b.dsm, "jacobi.main");
      std::vector<marcel::Thread*> workers;
      for (int w = 0; w < nodes; ++w) {
        workers.push_back(&main.spawn_on(
            static_cast<NodeId>(w), "jacobi.worker", [&, w, parent = main.span()] {
              Task t(b.tracer(), b.dsm, "jacobi.worker", parent);
              const int chunk = rows / nodes;
              const int own_end = w == nodes - 1 ? rows : (w + 1) * chunk;
              for (int r = w * chunk; r < own_end; ++r) {
                for (int c = 0; c < cols; ++c) {
                  const double v = initial[static_cast<std::size_t>(r) * cols + c];
                  t.write<double>(at(front, r, c), v);
                  t.write<double>(at(back, r, c), v);
                }
              }
              t.barrier_wait(barrier);
              const int r_begin = std::max(1, w * chunk);
              const int r_end = w == nodes - 1 ? rows - 1 : (w + 1) * chunk;
              DsmAddr src = front;
              DsmAddr dst = back;
              for (int it = 0; it < size.sweeps; ++it) {
                for (int r = r_begin; r < r_end; ++r) {
                  for (int c = 1; c < cols - 1; ++c) {
                    const double up = t.read<double>(at(src, r - 1, c));
                    const double down = t.read<double>(at(src, r + 1, c));
                    const double left = t.read<double>(at(src, r, c - 1));
                    const double right = t.read<double>(at(src, r, c + 1));
                    t.write<double>(at(dst, r, c), 0.25 * (up + down + left + right));
                  }
                  b.rt.compute(cost_per_point * (cols - 2));
                }
                t.barrier_wait(barrier);
                std::swap(src, dst);
              }
            }));
      }
      for (marcel::Thread* worker : workers) main.join(*worker);
    }
    b.end_measure();

    const DsmAddr final_plane = size.sweeps % 2 == 0 ? front : back;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        result[static_cast<std::size_t>(r) * cols + c] =
            b.dsm.read<double>(at(final_plane, r, c));
      }
    }
  });
  b.makespan = b.end.sim - b.begin.sim;

  const std::vector<double> want = jacobi_sequential(size, initial);
  for (int r = 0; r < rows; ++r) {
    int bad = 0;
    for (int c = 0; c < cols; ++c) {
      const auto i = static_cast<std::size_t>(r) * cols + c;
      if (result[i] != want[i]) ++bad;
    }
    b.check(bad == 0, [&] {
      return describe("jacobi row", static_cast<std::uint64_t>(r), bad, 0) + " mismatched cells";
    });
  }
  return finish(b);
}

// ---- mixed_adaptive ---------------------------------------------------------
// A bench-owned loop on 32 nodes with adaptive protocol switching on, mixing
// the four page patterns the advisor classifies: migratory whole-page
// writers, read-mostly pages fanned out to every other node, producer-
// consumer, and false sharing. The seed picks the writers and the reader
// order of every round. A host-side shadow records, inside each critical
// section, what the page must hold; a lock-ordered pass checks every page
// against it at the end.

namespace {

std::uint64_t spread(std::uint64_t v) { return v * 0x0101010101010101ULL; }

}  // namespace

int mixed_adaptive(const Options& opt) {
  const int nodes = 32;
  const int rounds = opt.scale == Scale::kSmoke ? 12 : 600;
  constexpr int kMigratoryPages = 2;
  constexpr int kReadMostlyPages = 2;
  constexpr int kMigratoryWriters = 4;
  constexpr int kFalseSharingWriters = 4;
  constexpr std::uint32_t kQuarter = 1024;

  pm2::Config pcfg;
  pcfg.nodes = nodes;
  pcfg.driver = madeleine::bip_myrinet();
  dsm::DsmConfig dcfg;
  dcfg.enable_adaptive_protocols = true;
  // bench_adaptive's knobs: classify after 8 observed accesses, and call a
  // page read-mostly from 3 reads per write.
  dcfg.adaptive_threshold = 8;
  dcfg.adaptive_read_ratio = 3;
  Bench b(opt, pcfg, dcfg);
  const std::uint32_t page_words = b.dsm.config().page_size / 8;
  Rng rng(opt.seed);

  struct Page {
    DsmAddr addr = 0;
    int lock = 0;
  };
  std::vector<Page> migratory(kMigratoryPages);
  std::vector<Page> read_mostly(kReadMostlyPages);
  Page producer_consumer;
  Page false_sharing;
  // What each page must hold, updated inside the critical sections.
  std::vector<std::uint64_t> migratory_shadow(kMigratoryPages, 0);
  std::vector<std::uint64_t> read_mostly_shadow(kReadMostlyPages, 0);
  std::uint64_t pc_shadow = 0;
  std::array<std::uint64_t, kFalseSharingWriters> fs_shadow{};

  b.run([&] {
    const dsm::ProtocolId adaptive = b.dsm.protocol_by_name("adaptive");
    const auto alloc_page = [&] {
      dsm::AllocAttr attr;
      attr.protocol = adaptive;
      attr.home_policy = dsm::HomePolicy::kFixed;
      attr.fixed_home = 0;
      return Page{b.dsm.dsm_malloc(b.dsm.config().page_size, attr),
                  b.dsm.create_lock(adaptive)};
    };
    for (Page& p : migratory) p = alloc_page();
    for (Page& p : read_mostly) p = alloc_page();
    producer_consumer = alloc_page();
    false_sharing = alloc_page();

    b.begin_measure();
    {
      Task main(b.tracer(), b.dsm, "mixed.main");
      const std::int32_t parent = main.span();
      std::vector<marcel::Thread*> batch;
      const auto join_batch = [&] {
        for (marcel::Thread* t : batch) main.join(*t);
        batch.clear();
      };
      for (int r = 1; r <= rounds; ++r) {
        const auto round = static_cast<std::uint64_t>(r);
        // Migratory: writers hand each page around whole, under its lock.
        for (int p = 0; p < kMigratoryPages; ++p) {
          const auto writers = pick_nodes(rng, 1, nodes, kMigratoryWriters);
          for (int slot = 0; slot < kMigratoryWriters; ++slot) {
            const std::uint64_t value = round * kMigratoryWriters + slot;
            batch.push_back(&main.spawn_on(
                writers[static_cast<std::size_t>(slot)], "mixed.migratory",
                [&, p, value, parent] {
                  Task t(b.tracer(), b.dsm, "mixed.migratory", parent);
                  const Page& page = migratory[static_cast<std::size_t>(p)];
                  t.lock_acquire(page.lock);
                  for (std::uint32_t i = 0; i < page_words; ++i) {
                    t.write<std::uint64_t>(page.addr + i * 8, spread(value));
                  }
                  migratory_shadow[static_cast<std::size_t>(p)] = value;
                  t.lock_release(page.lock);
                }));
          }
        }
        join_batch();
        // Read-mostly: one writer, then every other node re-reads without
        // synchronizing (RC-legal: any value written so far).
        std::vector<NodeId> rm_writers;
        for (int p = 0; p < kReadMostlyPages; ++p) {
          rm_writers.push_back(pick_nodes(rng, 0, nodes, 1)[0]);
          batch.push_back(&main.spawn_on(
              rm_writers.back(), "mixed.rm_writer", [&, p, round, parent] {
                Task t(b.tracer(), b.dsm, "mixed.rm_writer", parent);
                const Page& page = read_mostly[static_cast<std::size_t>(p)];
                t.lock_acquire(page.lock);
                t.write<std::uint64_t>(page.addr, round);
                read_mostly_shadow[static_cast<std::size_t>(p)] = round;
                t.lock_release(page.lock);
              }));
        }
        join_batch();
        for (int p = 0; p < kReadMostlyPages; ++p) {
          for (const NodeId n : pick_nodes(rng, 0, nodes, nodes)) {
            if (n == rm_writers[static_cast<std::size_t>(p)]) continue;
            batch.push_back(&main.spawn_on(n, "mixed.rm_reader", [&, p, round, parent] {
              Task t(b.tracer(), b.dsm, "mixed.rm_reader", parent);
              const auto v = t.read<std::uint64_t>(read_mostly[static_cast<std::size_t>(p)].addr);
              b.check(v <= round, [&] {
                return describe("read-mostly stale read, round", round,
                                static_cast<std::int64_t>(v), static_cast<std::int64_t>(round));
              });
            }));
          }
        }
        join_batch();
        // Producer-consumer and false sharing every fourth round (as in
        // bench_adaptive): enough traffic to classify, not to dominate.
        if (r % 4 != 1) continue;
        const auto pc = pick_nodes(rng, 1, nodes, 2);
        batch.push_back(&main.spawn_on(pc[0], "mixed.producer", [&, round, parent] {
          Task t(b.tracer(), b.dsm, "mixed.producer", parent);
          t.lock_acquire(producer_consumer.lock);
          t.write<std::uint64_t>(producer_consumer.addr, round);
          pc_shadow = round;
          t.lock_release(producer_consumer.lock);
        }));
        join_batch();
        batch.push_back(&main.spawn_on(pc[1], "mixed.consumer", [&, round, parent] {
          Task t(b.tracer(), b.dsm, "mixed.consumer", parent);
          t.lock_acquire(producer_consumer.lock);
          const auto v = t.read<std::uint64_t>(producer_consumer.addr);
          b.check(v == round, [&] {
            return describe("consumer read, round", round, static_cast<std::int64_t>(v),
                            static_cast<std::int64_t>(round));
          });
          t.write<std::uint64_t>(producer_consumer.addr + 8, v);
          t.lock_release(producer_consumer.lock);
        }));
        join_batch();
        const auto fs_writers = pick_nodes(rng, 1, nodes, kFalseSharingWriters);
        for (int q = 0; q < kFalseSharingWriters; ++q) {
          batch.push_back(&main.spawn_on(
              fs_writers[static_cast<std::size_t>(q)], "mixed.false_sharing",
              [&, q, round, parent] {
                Task t(b.tracer(), b.dsm, "mixed.false_sharing", parent);
                t.lock_acquire(false_sharing.lock);
                const DsmAddr base = false_sharing.addr + static_cast<DsmAddr>(q) * kQuarter;
                for (std::uint32_t i = 0; i < kQuarter / 8; ++i) {
                  t.write<std::uint64_t>(base + i * 8, spread(round));
                }
                fs_shadow[static_cast<std::size_t>(q)] = round;
                t.lock_release(false_sharing.lock);
              }));
        }
        join_batch();
      }
    }
    b.end_measure();

    // Lock-ordered verification pass over every page, from a seeded node.
    auto& verifier = b.rt.spawn_on(pick_nodes(rng, 0, nodes, 1)[0], "mixed.verify", [&] {
      const auto check_words = [&](const Page& page, DsmAddr offset, std::uint32_t words,
                                   std::uint64_t want, const char* what) {
        b.dsm.lock_acquire(page.lock);
        std::uint64_t bad = 0;
        for (std::uint32_t i = 0; i < words; ++i) {
          if (b.dsm.read<std::uint64_t>(page.addr + offset + i * 8) != want) ++bad;
        }
        b.dsm.lock_release(page.lock);
        b.check(bad == 0, [&] {
          return describe(what, page.addr, static_cast<std::int64_t>(bad), 0) +
                 " words differ from the last locked write";
        });
      };
      for (int p = 0; p < kMigratoryPages; ++p) {
        check_words(migratory[static_cast<std::size_t>(p)], 0, page_words,
                    spread(migratory_shadow[static_cast<std::size_t>(p)]), "migratory page");
      }
      for (int p = 0; p < kReadMostlyPages; ++p) {
        check_words(read_mostly[static_cast<std::size_t>(p)], 0, 1,
                    read_mostly_shadow[static_cast<std::size_t>(p)], "read-mostly page");
      }
      check_words(producer_consumer, 0, 2, pc_shadow, "producer-consumer page");
      for (int q = 0; q < kFalseSharingWriters; ++q) {
        check_words(false_sharing, static_cast<DsmAddr>(q) * kQuarter, kQuarter / 8,
                    spread(fs_shadow[static_cast<std::size_t>(q)]), "false-sharing page");
      }
    });
    b.rt.threads().join(verifier);
  });
  b.makespan = b.end.sim - b.begin.sim;
  return finish(b);
}

}  // namespace dsmbench
