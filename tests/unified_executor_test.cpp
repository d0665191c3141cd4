/// The unified work-stealing executor: both concurrency layers on one
/// worker set. Covers the executor primitives (submission, drain,
/// cooperative nested joins, stealing), a flood stress where hundreds of
/// entities run data-parallel with-loops inside box quanta, and a
/// regression pinning deterministic-combinator ordering under the
/// work-stealing scheduler.

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/executor.hpp"
#include "runtime/parallel_for.hpp"
#include "sacpp/with_loop.hpp"
#include "snet/network.hpp"
#include "snet/value.hpp"

namespace rt = snetsac::runtime;
using namespace snet;

namespace {

Record rec_xk(int x, std::int64_t k) {
  Record r;
  r.set_field(field_label("x"), make_value(x));
  r.set_tag(tag_label("k"), k);
  return r;
}

}  // namespace

TEST(Executor, RunsTasksFromExternalThreads) {
  rt::Executor exec(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    exec.submit([&count] { count.fetch_add(1); });
  }
  while (count.load() < 200) {
    std::this_thread::yield();
  }
  EXPECT_EQ(exec.size(), 2U);
  EXPECT_GE(exec.tasks_executed(), 200U);
}

TEST(Executor, DrainsOnDestruction) {
  std::atomic<int> count{0};
  {
    rt::Executor exec(1);
    for (int i = 0; i < 100; ++i) {
      exec.submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, TasksSpawningTasksDuringDrain) {
  std::atomic<int> count{0};
  {
    rt::Executor exec(2);
    exec.submit([&] {
      for (int i = 0; i < 50; ++i) {
        exec.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  // Destructor drains recursively spawned work too.
  EXPECT_EQ(count.load(), 50);
}

TEST(Executor, NestedParallelForOnSingleWorkerDoesNotDeadlock) {
  // The killer case for the old dual-pool design: a fork-join region
  // opened from inside a pool task, on a pool of size one. The cooperative
  // join must let the worker execute its own chunks.
  rt::Executor exec(1);
  std::atomic<std::int64_t> sum{0};
  std::atomic<bool> done{false};
  exec.submit([&] {
    rt::parallel_for_chunks(exec, 0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        sum.fetch_add(i);
      }
    });
    done.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done.load()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "nested join hung";
    std::this_thread::yield();
  }
  EXPECT_EQ(sum.load(), 1000LL * 999 / 2);
}

TEST(Executor, DeeplyNestedJoins) {
  rt::Executor exec(2);
  std::atomic<int> leaves{0};
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    rt::parallel_for_chunks(exec, 0, 2, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        recurse(depth - 1);
      }
    });
  };
  // From an external thread: joins block; inner joins run cooperatively.
  recurse(6);
  EXPECT_EQ(leaves.load(), 64);
}

TEST(Executor, WorkerSubmissionsAreStealable) {
  rt::Executor exec(4);
  std::atomic<int> count{0};
  constexpr int kTasks = 200;
  exec.submit([&] {
    // All land on this worker's deque; idle workers must steal them.
    for (int i = 0; i < kTasks; ++i) {
      exec.submit([&count] {
        count.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
  });
  while (count.load() < kTasks) {
    std::this_thread::yield();
  }
  EXPECT_GE(exec.tasks_executed(), static_cast<std::uint64_t>(kTasks) + 1);
  // Not asserted > 0 on principle (a 1-core box may finish unstolen), but
  // the counter must at least be wired.
  EXPECT_LE(exec.steals(), exec.tasks_executed());
}

TEST(UnifiedExecutor, FloodStressSacInsideBoxes) {
  // Hundreds of entities (two nested !! splits unfold a replica per (k, j)
  // pair), each box quantum opening a data-parallel with-loop whose chunks
  // run on the *same* executor as the entity quanta. Asserts quiescence is
  // reached, every record is accounted for, and per-box record
  // conservation holds network-wide.
  const sac::Context ctx{4, 1};  // force chunk splitting, grain 1
  auto work = box("work", "(x) -> (x)",
                  [ctx](const BoxInput& in, BoxOutput& out) {
                    const int x = in.get<int>("x");
                    const auto sum = sac::With<std::int64_t>()
                                         .gen({0}, {128},
                                              [&](const sac::Index& iv) {
                                                return iv[0] + x;
                                              })
                                         .fold([](std::int64_t a, std::int64_t b) {
                                           return a + b;
                                         }, 0, ctx);
                    out.out(1, make_value(static_cast<int>(sum % 1000)));
                  });
  // work !! <j> !! <k>: records with distinct (k, j) go to distinct replicas.
  Options opts;
  opts.workers = 8;
  Network net(split(split(work, "j"), "k"), std::move(opts));

  constexpr int kRecords = 400;
  for (int i = 0; i < kRecords; ++i) {
    Record r = rec_xk(i, i % 16);
    r.set_tag(tag_label("j"), (i / 16) % 16);
    net.input().inject(std::move(r));
  }
  const auto out = net.output().collect();  // quiescence: returns only when drained
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kRecords));

  const auto stats = net.stats();
  EXPECT_EQ(stats.injected, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(stats.produced, static_cast<std::uint64_t>(kRecords));
  // Hundreds of entities actually unfolded.
  EXPECT_GE(stats.count_containing("box:work"), 100U);
  // Network-wide conservation: every 1->1 box consumed exactly what it
  // emitted, and box traffic sums to the injected volume.
  std::uint64_t box_in = 0;
  for (const auto& e : stats.entities) {
    if (e.name.find("box:work") != std::string::npos) {
      EXPECT_EQ(e.records_in, e.records_out) << e.name;
      box_in += e.records_in;
    }
  }
  EXPECT_EQ(box_in, static_cast<std::uint64_t>(kRecords));
}

TEST(UnifiedExecutor, NestedNetworkInsideBox) {
  // A box that runs a whole sub-network per record and collects its
  // output. On the shared fixed-size executor this only works because
  // Network::collect waits cooperatively (the worker drives the nested
  // network's quanta itself instead of blocking its slot).
  auto inner_box = box("inner", "(x) -> (x)",
                       [](const BoxInput& in, BoxOutput& out) {
                         out.out(1, make_value(in.get<int>("x") * 2));
                       });
  auto outer = box("outer", "(x) -> (x)",
                   [inner_box](const BoxInput& in, BoxOutput& out) {
                     Options opts;
                     opts.workers = 2;
                     Network sub(inner_box, std::move(opts));
                     sub.input().inject(rec_xk(in.get<int>("x"), 0));
                     const auto res = sub.output().collect();
                     ASSERT_EQ(res.size(), 1U);
                     out.out(1, res[0].field("x"));
                   });
  Network net(outer);
  for (int i = 0; i < 20; ++i) {
    net.input().inject(rec_xk(i, 0));
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 20U);
  std::multiset<int> got;
  for (const auto& r : out) {
    got.insert(value_as<int>(r.field("x")));
  }
  std::multiset<int> want;
  for (int i = 0; i < 20; ++i) {
    want.insert(i * 2);
  }
  EXPECT_EQ(got, want);
}

TEST(UnifiedExecutor, DetOrderingSurvivesWorkStealing) {
  // Regression: the deterministic parallel-replication variant must
  // restore injection order no matter how the work-stealing scheduler
  // interleaves quanta. Per-record busy work varies pseudo-randomly to
  // scramble completion order.
  auto work = box("scramble", "(x) -> (x)",
                  [](const BoxInput& in, BoxOutput& out) {
                    const int x = in.get<int>("x");
                    volatile std::int64_t sink = 0;
                    const int spin = 100 + (x * 2654435761U) % 20000;
                    for (int i = 0; i < spin; ++i) {
                      sink = sink + i;
                    }
                    out.out(1, make_value(x));
                  });
  Options opts;
  opts.workers = 8;
  Network net(split_det(work, "k"), std::move(opts));

  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    net.input().inject(rec_xk(i, i % 8));
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(value_as<int>(out[static_cast<std::size_t>(i)].field("x")), i)
        << "det region released group " << i << " out of order";
  }
}
