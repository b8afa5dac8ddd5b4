#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace qfcard::common {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, OrderPreservedBySlot) {
  ThreadPool pool(4);
  std::vector<int64_t> out(1000, -1);
  pool.ParallelFor(1000, [&](int64_t i) { out[static_cast<size_t>(i)] = i * 3; });
  for (int64_t i = 0; i < 1000; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * 3);
}

TEST(ThreadPoolTest, PoolOfOneMatchesSerial) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int64_t> order;
  // A pool of 1 runs inline, so even execution order is the serial order.
  pool.ParallelFor(50, [&](int64_t i) { order.push_back(i); });
  std::vector<int64_t> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ZeroAndOneIndexLoops) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](int64_t i) {
                                  if (i == 17) throw std::runtime_error("x17");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SmallestFailingIndexWinsAtEveryPoolSize) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.ParallelFor(64, [&](int64_t i) {
        ran++;
        if (i == 11 || i == 42) {
          throw std::runtime_error("i=" + std::to_string(i));
        }
      });
      FAIL() << "expected throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "i=11") << threads << " threads";
    }
    // Every index still ran despite the failures.
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPoolTest, ParallelForStatusReturnsSmallestIndexError) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    const Status status = pool.ParallelForStatus(64, [&](int64_t i) {
      if (i == 9 || i == 33) {
        return Status::InvalidArgument("i=" + std::to_string(i));
      }
      return Status::Ok();
    });
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("i=9"), std::string::npos)
        << status.ToString();
  }
}

TEST(ThreadPoolTest, ParallelForStatusOkWhenAllOk) {
  ThreadPool pool(4);
  std::vector<int> out(128, 0);
  QFCARD_CHECK_OK(pool.ParallelForStatus(128, [&](int64_t i) {
    out[static_cast<size_t>(i)] = 1;
    return Status::Ok();
  }));
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 128);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  pool.ParallelFor(16, [&](int64_t outer) {
    pool.ParallelFor(16, [&](int64_t inner) {
      hits[static_cast<size_t>(outer * 16 + inner)]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, OversubscribedPoolCompletesEveryTask) {
  // Far more threads than cores and far more tasks than threads: every
  // index must still run exactly once with no lost or duplicated slots.
  ThreadPool pool(32);
  constexpr int64_t kTasks = 20000;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(kTasks, [&](int64_t i) {
    hits[static_cast<size_t>(i)]++;
    sum += i;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, HighestIndexFailurePropagates) {
  // The failing slot is the last index — the boundary where a pool that
  // mismanages its tail chunk would drop the exception.
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.ParallelFor(64, [&](int64_t i) {
        ran++;
        if (i == 63) throw std::runtime_error("i=63");
      });
      FAIL() << "expected throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "i=63") << threads << " threads";
    }
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPoolTest, EnvZeroAndOneAreEquivalent) {
  // QFCARD_THREADS=0 and =1 must both mean "serial": same pool size and the
  // same inline execution order.
  const char* saved = std::getenv("QFCARD_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";

  std::vector<std::vector<int64_t>> orders;
  for (const char* value : {"0", "1"}) {
    ::setenv("QFCARD_THREADS", value, 1);
    EXPECT_EQ(ThreadPoolSizeFromEnv(), 1) << "QFCARD_THREADS=" << value;
    ThreadPool pool(ThreadPoolSizeFromEnv());
    std::vector<int64_t> order;
    pool.ParallelFor(64, [&](int64_t i) { order.push_back(i); });
    orders.push_back(std::move(order));
  }
  EXPECT_EQ(orders[0], orders[1]);

  if (saved != nullptr) {
    ::setenv("QFCARD_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("QFCARD_THREADS");
  }
}

TEST(ThreadPoolTest, SizeFromEnvParsing) {
  const char* saved = std::getenv("QFCARD_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("QFCARD_THREADS");
  EXPECT_EQ(ThreadPoolSizeFromEnv(), 1);
  ::setenv("QFCARD_THREADS", "4", 1);
  EXPECT_EQ(ThreadPoolSizeFromEnv(), 4);
  ::setenv("QFCARD_THREADS", "0", 1);
  EXPECT_EQ(ThreadPoolSizeFromEnv(), 1);
  ::setenv("QFCARD_THREADS", "-3", 1);
  EXPECT_EQ(ThreadPoolSizeFromEnv(), 1);
  ::setenv("QFCARD_THREADS", "notanumber", 1);
  EXPECT_EQ(ThreadPoolSizeFromEnv(), 1);

  if (saved != nullptr) {
    ::setenv("QFCARD_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("QFCARD_THREADS");
  }
}

TEST(ThreadPoolTest, SetGlobalThreadsRebuildsPool) {
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalPool().num_threads(), 3);
  std::vector<int64_t> out(200, -1);
  GlobalPool().ParallelFor(200,
                           [&](int64_t i) { out[static_cast<size_t>(i)] = i; });
  for (int64_t i = 0; i < 200; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalPool().num_threads(), 1);
}

// ---------------------------------------------------------------------------
// Trace-context handoff (obs::ScopedTraceContext around each claim loop)
// ---------------------------------------------------------------------------

class PoolTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceEnabled(true);
    obs::TraceBuffer::Global().Reset();
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::TraceBuffer::Global().Reset();
  }
};

TEST_F(PoolTraceTest, TaskSpansJoinTheSubmittersTrace) {
  ThreadPool pool(4);
  uint64_t submit_id = 0;
  uint64_t submit_trace = 0;
  {
    obs::TraceSpan submit("pool.submit");
    submit_id = submit.id();
    submit_trace = submit.context().trace_id;
    pool.ParallelFor(64, [](int64_t) { obs::TraceSpan task("pool.task"); });
  }
  int tasks = 0;
  for (const obs::SpanRecord& s : obs::TraceBuffer::Global().Snapshot()) {
    if (s.name != "pool.task") continue;
    ++tasks;
    // Whether the index ran on a worker or inline on the submitter, the
    // span parents under pool.submit and joins its trace.
    EXPECT_EQ(s.parent_id, submit_id);
    EXPECT_EQ(s.trace_id, submit_trace);
  }
  EXPECT_EQ(tasks, 64);
}

TEST_F(PoolTraceTest, LeakedTaskSpanDoesNotPoisonLaterTasks) {
  ThreadPool pool(4);
  // Round 1: one task "leaks" an unclosed span (heap-allocated, ended after
  // the assertions). Without the restore by obs::ScopedTraceContext's
  // destructor at the task boundary, the leaking thread's parent chain
  // would still point at it, and every span a later task opens on that
  // thread would silently parent under a span from a long-finished request.
  std::atomic<obs::TraceSpan*> leaked{nullptr};
  pool.ParallelFor(8, [&leaked](int64_t i) {
    if (i == 0) {
      leaked.store(new obs::TraceSpan("leaked"), std::memory_order_relaxed);
    } else {
      obs::TraceSpan task("round1");
    }
  });
  obs::TraceSpan* leaked_span = leaked.load(std::memory_order_relaxed);
  ASSERT_NE(leaked_span, nullptr);
  // The submitting thread's chain is clean again even if it ran index 0.
  EXPECT_FALSE(obs::CurrentTraceContext().valid());
  // Round 2: no span is open on the submitter, so every task span must be
  // a root of its own trace — never a child of the leaked span.
  pool.ParallelFor(8, [](int64_t) { obs::TraceSpan task("round2"); });
  int round2 = 0;
  for (const obs::SpanRecord& s : obs::TraceBuffer::Global().Snapshot()) {
    if (s.name != "round2") continue;
    ++round2;
    EXPECT_NE(s.parent_id, leaked_span->id());
    EXPECT_EQ(s.parent_id, 0u);
    EXPECT_EQ(s.trace_id, s.id);
  }
  EXPECT_EQ(round2, 8);
  delete leaked_span;  // closes and records it; owned here, not leaked
}

TEST_F(PoolTraceTest, SerialPoolKeepsTheChainInline) {
  ThreadPool pool(1);
  obs::TraceSpan submit("pool.submit");
  pool.ParallelFor(4, [](int64_t) { obs::TraceSpan task("inline.task"); });
  // Inline execution nests naturally; the chain is intact afterwards.
  EXPECT_EQ(obs::CurrentTraceContext().parent_span_id, submit.id());
  submit.End();
  int tasks = 0;
  for (const obs::SpanRecord& s : obs::TraceBuffer::Global().Snapshot()) {
    if (s.name != "inline.task") continue;
    ++tasks;
    EXPECT_EQ(s.parent_id, submit.id());
  }
  EXPECT_EQ(tasks, 4);
}

}  // namespace
}  // namespace qfcard::common
