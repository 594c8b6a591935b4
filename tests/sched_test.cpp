// Tests for the workload-manager substrate: the discrete-event allocation
// model (paper Fig. 1) and the threaded coordinator/worker engine (Fig. 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/des.hpp"
#include "sched/engine.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace qq::sched {
namespace {

// -------------------------------------------------------------------- DES ----

TEST(Des, SingleJobTimeline) {
  const JobPhases job{2.0, 3.0, 1.0};
  DesOptions opts;
  opts.quantum_devices = 1;
  opts.classical_nodes = 1;
  for (const auto policy :
       {AllocationPolicy::kMpmd, AllocationPolicy::kHeterogeneous}) {
    opts.policy = policy;
    const DesResult r = simulate_workload({job}, opts);
    ASSERT_EQ(r.traces.size(), 1u);
    const JobTrace& t = r.traces[0];
    EXPECT_DOUBLE_EQ(t.start, 0.0);
    EXPECT_DOUBLE_EQ(t.quantum_start, 2.0);
    EXPECT_DOUBLE_EQ(t.quantum_end, 5.0);
    EXPECT_DOUBLE_EQ(t.finish, 6.0);
    EXPECT_DOUBLE_EQ(r.makespan, 6.0);
    EXPECT_DOUBLE_EQ(r.quantum_busy, 3.0);
  }
}

TEST(Des, MpmdAllocationIdleFractionMatchesPhases) {
  // MPMD holds the device for prep+quantum+post: idle share = 3/6.
  const JobPhases job{2.0, 3.0, 1.0};
  DesOptions opts;
  opts.policy = AllocationPolicy::kMpmd;
  const DesResult r = simulate_workload({job, job, job}, opts);
  EXPECT_NEAR(r.quantum_alloc_idle_fraction, 0.5, 1e-12);
}

TEST(Des, HeterogeneousAllocationHasZeroAllocIdle) {
  const JobPhases job{2.0, 3.0, 1.0};
  DesOptions opts;
  opts.policy = AllocationPolicy::kHeterogeneous;
  opts.classical_nodes = 4;
  const DesResult r = simulate_workload({job, job, job}, opts);
  EXPECT_NEAR(r.quantum_alloc_idle_fraction, 0.0, 1e-12);
}

TEST(Des, HeterogeneousBeatsMpmdOnMakespan) {
  // One device, plenty of classical nodes: het overlaps the classical
  // phases of different jobs with the device's work (the Fig. 1 scenario).
  std::vector<JobPhases> jobs(6, JobPhases{4.0, 2.0, 1.0});
  DesOptions mpmd;
  mpmd.quantum_devices = 1;
  mpmd.classical_nodes = 6;
  mpmd.policy = AllocationPolicy::kMpmd;
  DesOptions het = mpmd;
  het.policy = AllocationPolicy::kHeterogeneous;
  const DesResult a = simulate_workload(jobs, mpmd);
  const DesResult b = simulate_workload(jobs, het);
  EXPECT_LT(b.makespan, a.makespan);
  EXPECT_GT(b.quantum_utilization, a.quantum_utilization);
}

TEST(Des, MpmdSerializesOnTheDevice) {
  // MPMD with one device: jobs cannot overlap at all.
  std::vector<JobPhases> jobs(3, JobPhases{1.0, 1.0, 1.0});
  DesOptions opts;
  opts.quantum_devices = 1;
  opts.classical_nodes = 8;
  opts.policy = AllocationPolicy::kMpmd;
  const DesResult r = simulate_workload(jobs, opts);
  EXPECT_DOUBLE_EQ(r.makespan, 9.0);
}

TEST(Des, QuantumPhasesNeverOverlapBeyondDeviceCount) {
  std::vector<JobPhases> jobs(8, JobPhases{0.5, 2.0, 0.25});
  DesOptions opts;
  opts.quantum_devices = 2;
  opts.classical_nodes = 8;
  opts.policy = AllocationPolicy::kHeterogeneous;
  const DesResult r = simulate_workload(jobs, opts);
  // Check pairwise overlap count at every quantum interval start.
  for (const JobTrace& t : r.traces) {
    int concurrent = 0;
    for (const JobTrace& o : r.traces) {
      if (o.quantum_start <= t.quantum_start + 1e-12 &&
          t.quantum_start < o.quantum_end - 1e-12) {
        ++concurrent;
      }
    }
    EXPECT_LE(concurrent, 2);
  }
}

TEST(Des, TraceOrderingInvariants) {
  std::vector<JobPhases> jobs = {{1.0, 2.0, 0.5}, {0.0, 1.0, 0.0},
                                 {3.0, 0.5, 2.0}};
  for (const auto policy :
       {AllocationPolicy::kMpmd, AllocationPolicy::kHeterogeneous}) {
    DesOptions opts;
    opts.policy = policy;
    opts.quantum_devices = 1;
    opts.classical_nodes = 2;
    const DesResult r = simulate_workload(jobs, opts);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobTrace& t = r.traces[i];
      EXPECT_GE(t.quantum_start, t.start + jobs[i].classical_prep - 1e-12);
      EXPECT_DOUBLE_EQ(t.quantum_end, t.quantum_start + jobs[i].quantum);
      EXPECT_GE(t.finish, t.quantum_end + jobs[i].classical_post - 1e-12);
      EXPECT_GE(t.quantum_wait, 0.0);
      EXPECT_LE(t.finish, r.makespan + 1e-12);
    }
  }
}

TEST(Des, EmptyWorkloadAndValidation) {
  const DesResult r = simulate_workload({}, DesOptions{});
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
  EXPECT_DOUBLE_EQ(r.quantum_utilization, 0.0);
  EXPECT_THROW(simulate_workload({JobPhases{-1.0, 0.0, 0.0}}, DesOptions{}),
               std::invalid_argument);
  DesOptions bad;
  bad.quantum_devices = 0;
  EXPECT_THROW(simulate_workload({JobPhases{1, 1, 1}}, bad),
               std::invalid_argument);
}

TEST(Des, MoreDevicesNeverIncreaseMakespan) {
  std::vector<JobPhases> jobs(10, JobPhases{0.5, 2.0, 0.5});
  double prev = 1e300;
  for (int devices = 1; devices <= 4; ++devices) {
    DesOptions opts;
    opts.quantum_devices = devices;
    opts.classical_nodes = 10;
    opts.policy = AllocationPolicy::kHeterogeneous;
    const double makespan = simulate_workload(jobs, opts).makespan;
    EXPECT_LE(makespan, prev + 1e-9);
    prev = makespan;
  }
}

TEST(Des, QueuePoliciesPermuteTheSameJobs) {
  std::vector<JobPhases> jobs = {{1.0, 3.0, 0.5}, {0.5, 1.0, 0.5},
                                 {2.0, 2.0, 1.0}};
  for (const auto queue :
       {QueuePolicy::kFifo, QueuePolicy::kLongestQuantumFirst,
        QueuePolicy::kShortestQuantumFirst}) {
    DesOptions opts;
    opts.policy = AllocationPolicy::kHeterogeneous;
    opts.queue = queue;
    opts.classical_nodes = 3;
    const DesResult r = simulate_workload(jobs, opts);
    ASSERT_EQ(r.traces.size(), 3u);
    std::set<int> ids;
    for (const JobTrace& t : r.traces) ids.insert(t.job);
    EXPECT_EQ(ids, (std::set<int>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(r.quantum_busy, 6.0);
  }
}

TEST(Des, ShortestQuantumFirstImprovesMeanCompletion) {
  // Classic SPT property on a single device: short jobs done first lowers
  // the average completion time.
  std::vector<JobPhases> jobs = {{0.0, 8.0, 0.0}, {0.0, 1.0, 0.0},
                                 {0.0, 1.0, 0.0}, {0.0, 1.0, 0.0}};
  DesOptions fifo;
  fifo.policy = AllocationPolicy::kHeterogeneous;
  fifo.classical_nodes = 4;
  DesOptions spt = fifo;
  spt.queue = QueuePolicy::kShortestQuantumFirst;
  const DesResult a = simulate_workload(jobs, fifo);
  const DesResult b = simulate_workload(jobs, spt);
  EXPECT_LT(b.mean_completion, a.mean_completion);
  // Makespan is unchanged on one device (same total work).
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Des, LongestQuantumFirstHelpsMultiDevicePacking) {
  // LPT vs FIFO on two devices with an adversarial FIFO order: the long
  // job arriving last forces a tail under FIFO.
  std::vector<JobPhases> jobs = {{0.0, 1.0, 0.0}, {0.0, 1.0, 0.0},
                                 {0.0, 1.0, 0.0}, {0.0, 1.0, 0.0},
                                 {0.0, 4.0, 0.0}};
  DesOptions fifo;
  fifo.policy = AllocationPolicy::kHeterogeneous;
  fifo.quantum_devices = 2;
  fifo.classical_nodes = 5;
  DesOptions lpt = fifo;
  lpt.queue = QueuePolicy::kLongestQuantumFirst;
  EXPECT_LT(simulate_workload(jobs, lpt).makespan,
            simulate_workload(jobs, fifo).makespan);
}

// ----------------------------------------------------------------- engine ----

TEST(Engine, RunsEveryTaskExactlyOnce) {
  WorkflowEngine engine(EngineOptions{2, 3});
  std::atomic<int> runs{0};
  for (int i = 0; i < 40; ++i) {
    engine.submit({i % 2 == 0 ? ResourceKind::kQuantum
                              : ResourceKind::kClassical,
                   [&runs] { runs++; }});
  }
  engine.drain();
  EXPECT_EQ(runs.load(), 40);
  EXPECT_EQ(engine.stats().completed, 40u);
}

TEST(Engine, RespectsQuantumSlotCap) {
  const int slots = 2;
  WorkflowEngine engine(EngineOptions{slots, 8});
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 24; ++i) {
    engine.submit({ResourceKind::kQuantum, [&active, &peak] {
                     const int now = ++active;
                     int expected = peak.load();
                     while (now > expected &&
                            !peak.compare_exchange_weak(expected, now)) {
                     }
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     --active;
                   }});
  }
  engine.drain();
  EXPECT_LE(peak.load(), slots);
  EXPECT_GE(peak.load(), 1);
}

TEST(Engine, ClassicalAndQuantumSlotsAreIndependent) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> q_active{0}, c_active{0}, both_peak{0};
  for (int i = 0; i < 10; ++i) {
    const bool quantum = i % 2 == 0;
    engine.submit({quantum ? ResourceKind::kQuantum : ResourceKind::kClassical,
                   [&, quantum] {
                     auto& mine = quantum ? q_active : c_active;
                     ++mine;
                     const int combined = q_active + c_active;
                     int expected = both_peak.load();
                     while (combined > expected &&
                            !both_peak.compare_exchange_weak(expected,
                                                             combined)) {
                     }
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     --mine;
                   }});
  }
  engine.drain();
  // One of each kind may run together, but never two of the same kind.
  EXPECT_LE(both_peak.load(), 2);
}

TEST(Engine, TimingsAreOrderedAndBusyAccumulates) {
  WorkflowEngine engine(EngineOptions{2, 2});
  const auto sleep_5ms = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  const double t0 = engine.now();
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(engine.submit({ResourceKind::kClassical, sleep_5ms}));
  }
  engine.drain();
  EXPECT_GT(engine.now() - t0, 0.0);
  EXPECT_GE(engine.stats().busy_classical_seconds, 8 * 0.004);
  for (const TaskHandle h : handles) {
    const TaskTiming t = engine.timing(h);
    EXPECT_LE(t.submit_s, t.start_s + 1e-9);
    EXPECT_LE(t.start_s, t.end_s + 1e-9);
  }
}

TEST(Engine, ThrowingTaskIsFullyAccounted) {
  // A failing task must still be timed: start_s/end_s recorded, its partial
  // runtime included in the busy total, and the first exception delivered
  // after the engine drains.
  WorkflowEngine engine(EngineOptions{1, 2});
  const auto sleep_10ms = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  const TaskHandle before =
      engine.submit({ResourceKind::kClassical, sleep_10ms});
  const TaskHandle throwing =
      engine.submit({ResourceKind::kClassical, [&sleep_10ms] {
                       sleep_10ms();
                       throw std::runtime_error("task failed");
                     }});
  const TaskHandle after = engine.submit({ResourceKind::kClassical, sleep_10ms});
  std::exception_ptr error;
  engine.drain(&error);
  ASSERT_TRUE(error != nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  const TaskTiming failed = engine.timing(throwing);
  EXPECT_TRUE(failed.failed);
  EXPECT_FALSE(engine.timing(before).failed);
  EXPECT_FALSE(engine.timing(after).failed);
  // The old engine left the throwing task's start_s/end_s zeroed and its
  // runtime out of the busy total.
  EXPECT_GT(failed.start_s, 0.0);
  EXPECT_GE(failed.end_s - failed.start_s, 0.008);
  EXPECT_GE(engine.stats().busy_classical_seconds, 3 * 0.008);
  for (const TaskHandle h : {before, throwing, after}) {
    const TaskTiming t = engine.timing(h);
    EXPECT_GE(t.wait_s, 0.0);
    EXPECT_NEAR(t.wait_s, t.start_s - t.submit_s, 1e-12);
  }
}

TEST(Engine, RecordsQueueWaitBehindSlots) {
  // One classical slot, three sleeping tasks: each successor waits for its
  // predecessor's slot, so recorded queue waits must stack roughly one
  // service time apart.
  WorkflowEngine engine(EngineOptions{1, 1});
  const auto sleep_20ms = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(engine.submit({ResourceKind::kClassical, sleep_20ms}));
  }
  engine.drain();
  std::vector<double> waits;
  for (const TaskHandle h : handles) waits.push_back(engine.timing(h).wait_s);
  std::sort(waits.begin(), waits.end());
  // Relative stacking (load-robust): each successor waits at least one
  // predecessor service time (>= 20 ms sleep) longer than the task before
  // it, whatever the ambient dispatch latency is.
  EXPECT_GE(waits[1], waits[0] + 0.015);
  EXPECT_GE(waits[2], waits[1] + 0.015);
}

TEST(Engine, CoordinationIdealUsesOnlyResourceKindsPresent) {
  // All-quantum batch on 2 quantum slots, with a large classical allotment
  // the batch can never use. The old divisor min(q+c, pool) pretended the
  // classical slots could drain quantum work, skewing the ideal-time
  // estimate and misattributing real slot queueing to "coordination". The
  // per-kind ideal makes a clean sleep batch report near-zero overhead.
  util::ThreadPool pool(4);
  EngineOptions opts;
  opts.quantum_slots = 2;
  opts.classical_slots = 64;
  opts.pool = &pool;
  WorkflowEngine engine(opts);
  const auto sleep_10ms = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  for (int i = 0; i < 8; ++i) {
    engine.submit({ResourceKind::kQuantum, sleep_10ms});
  }
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.busy_quantum_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.busy_classical_seconds, 0.0);
  // busy ~= 80 ms over the 2 USABLE slots -> ideal = busy/2. The old
  // formula divided by min(66, 4) = 4, calling ~20 ms of real slot
  // queueing "coordination"; this exact-formula pin fails against it.
  EXPECT_DOUBLE_EQ(
      ideal_parallel_seconds(stats.busy_quantum_seconds,
                             stats.busy_classical_seconds, stats.quantum_tasks,
                             stats.classical_tasks, opts, pool.size()),
      stats.busy_quantum_seconds / 2.0);
}

TEST(Engine, WorkersAreNotParkedBehindTheSlotQueue) {
  // 4 quantum sleeps on ONE quantum slot, submitted ahead of 4 classical
  // sleeps. The old engine parked both pool workers in the quantum
  // semaphore, serializing the phases (~280 ms on this shape); the
  // non-blocking engine overlaps them, so wall stays near the quantum
  // makespan.
  util::ThreadPool pool(2);
  EngineOptions opts;
  opts.quantum_slots = 1;
  opts.classical_slots = 4;
  opts.pool = &pool;
  WorkflowEngine engine(opts);
  const auto sleep_40ms = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  };
  const double t0 = engine.now();
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(engine.submit({ResourceKind::kQuantum, sleep_40ms}));
  }
  for (int i = 0; i < 4; ++i) {
    handles.push_back(engine.submit({ResourceKind::kClassical, sleep_40ms}));
  }
  engine.drain();
  EXPECT_GE(engine.now() - t0, 0.16);  // quantum makespan floor
  // Load-robust discriminator: with non-blocking dispatch, classical work
  // begins while the quantum queue is still draining — the first classical
  // task starts before the SECOND quantum task does. The old engine's
  // parked workers pushed every classical start past the third quantum
  // task's completion (~120 ms in).
  double first_classical_start = 1e300;
  std::vector<double> quantum_starts;
  for (const TaskHandle h : handles) {
    const TaskTiming t = engine.timing(h);
    if (t.kind == ResourceKind::kClassical) {
      first_classical_start = std::min(first_classical_start, t.start_s);
    } else {
      quantum_starts.push_back(t.start_s);
    }
  }
  std::sort(quantum_starts.begin(), quantum_starts.end());
  ASSERT_EQ(quantum_starts.size(), 4u);
  EXPECT_LT(first_classical_start, quantum_starts[1]);
}

TEST(Engine, DrainFromInsidePoolWorkerCompletes) {
  // Pathological but must not deadlock: the coordinator itself runs on a
  // pool worker (even a pool of ONE) and help-runs its own tasks.
  util::ThreadPool pool(1);
  EngineOptions opts;
  opts.pool = &pool;
  std::atomic<int> runs{0};
  auto fut = pool.submit([&] {
    WorkflowEngine engine(opts);
    for (int i = 0; i < 6; ++i) {
      engine.submit({i % 2 == 0 ? ResourceKind::kQuantum
                                : ResourceKind::kClassical,
                     [&runs] { runs++; }});
    }
    engine.drain();
    return engine.stats().completed;
  });
  EXPECT_EQ(fut.get(), 6u);
  EXPECT_EQ(runs.load(), 6);
}

TEST(Engine, OptionValidation) {
  EXPECT_THROW(WorkflowEngine(EngineOptions{0, 1}), std::invalid_argument);
  EXPECT_THROW(WorkflowEngine(EngineOptions{1, 0}), std::invalid_argument);
}

TEST(Engine, DrainOnIdleEngineReturns) {
  WorkflowEngine engine(EngineOptions{1, 1});
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_DOUBLE_EQ(stats.busy_quantum_seconds + stats.busy_classical_seconds,
                   0.0);
}

// ------------------------------------------- persistent task graph ----

TEST(Engine, SubmitChainRunsInDependencyOrder) {
  WorkflowEngine engine(EngineOptions{2, 2});
  util::Mutex mutex;
  std::vector<int> order;
  auto record = [&](int id) {
    util::MutexLock lock(mutex);
    order.push_back(id);
  };
  const TaskHandle a =
      engine.submit({ResourceKind::kQuantum, [&] { record(0); }});
  const TaskHandle b =
      engine.submit({ResourceKind::kClassical, [&] { record(1); }}, {a});
  const TaskHandle c =
      engine.submit({ResourceKind::kQuantum, [&] { record(2); }}, {b});
  engine.wait(c);
  EXPECT_TRUE(engine.finished(a));
  EXPECT_TRUE(engine.finished(b));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  engine.drain();
}

TEST(Engine, DiamondDependenciesJoinBeforeSuccessor) {
  WorkflowEngine engine(EngineOptions{2, 2});
  std::atomic<int> fanned{0};
  std::atomic<int> join_saw{-1};
  const TaskHandle root =
      engine.submit({ResourceKind::kClassical, [&] { fanned += 1; }});
  std::vector<TaskHandle> mid;
  for (int i = 0; i < 6; ++i) {
    mid.push_back(engine.submit({i % 2 == 0 ? ResourceKind::kQuantum
                                            : ResourceKind::kClassical,
                                 [&] {
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   fanned += 1;
                                 }},
                                {root}));
  }
  const TaskHandle join = engine.submit(
      {ResourceKind::kClassical, [&] { join_saw = fanned.load(); }}, mid);
  engine.wait(join);
  EXPECT_EQ(join_saw.load(), 7);  // root + all six mid tasks done first
}

TEST(Engine, DependencyOnCompletedTaskIsImmediatelyReady) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> runs{0};
  const TaskHandle a =
      engine.submit({ResourceKind::kClassical, [&] { runs++; }});
  engine.wait(a);
  const TaskHandle b =
      engine.submit({ResourceKind::kClassical, [&] { runs++; }}, {a});
  engine.wait(b);
  EXPECT_EQ(runs.load(), 2);
}

TEST(Engine, TasksSubmittedFromInsideTasksKeepFlowing) {
  // Dynamic task graphs: a running task submits its own successors (the
  // streaming QAOA^2 pipeline's shape). drain() must see them all.
  WorkflowEngine engine(EngineOptions{2, 2});
  std::atomic<int> runs{0};
  std::function<void(int)> spawn = [&](int depth) {
    runs++;
    if (depth == 0) return;
    engine.submit({ResourceKind::kClassical, [&spawn, depth] {
                     spawn(depth - 1);
                   }});
    engine.submit({ResourceKind::kQuantum, [&spawn, depth] {
                     spawn(depth - 1);
                   }});
  };
  engine.submit({ResourceKind::kClassical, [&spawn] { spawn(3); }});
  engine.drain();
  // 1 root + 2 + 4 + 8 spawned tasks, each counted once.
  EXPECT_EQ(runs.load(), 15);
}

TEST(Engine, FailedDependencyCancelsSuccessorsTransitively) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> runs{0};
  const TaskHandle ok =
      engine.submit({ResourceKind::kClassical, [&] { runs++; }});
  const TaskHandle bad = engine.submit({ResourceKind::kClassical, [] {
                                          throw std::runtime_error("boom");
                                        }});
  const TaskHandle child =
      engine.submit({ResourceKind::kClassical, [&] { runs++; }}, {bad, ok});
  const TaskHandle grandchild =
      engine.submit({ResourceKind::kClassical, [&] { runs++; }}, {child});
  std::exception_ptr error;
  engine.drain(&error);
  ASSERT_TRUE(error != nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_EQ(runs.load(), 1);  // only `ok` ran
  EXPECT_TRUE(engine.timing(child).cancelled);
  // Disjoint flags: a cancelled task never ran, so it is not "failed".
  EXPECT_FALSE(engine.timing(child).failed);
  EXPECT_TRUE(engine.timing(grandchild).cancelled);
  EXPECT_FALSE(engine.timing(ok).failed);
  // A fresh dependant of the failed task is cancelled at submit time.
  const TaskHandle late =
      engine.submit({ResourceKind::kClassical, [&] { runs++; }}, {bad});
  EXPECT_TRUE(engine.finished(late));
  EXPECT_THROW(engine.wait(late), std::runtime_error);
  EXPECT_EQ(runs.load(), 1);
}

TEST(Engine, WaitRethrowsTheTasksError) {
  WorkflowEngine engine(EngineOptions{1, 1});
  const TaskHandle bad = engine.submit({ResourceKind::kQuantum, [] {
                                          throw std::logic_error("task");
                                        }});
  EXPECT_THROW(engine.wait(bad), std::logic_error);
  std::exception_ptr drained;
  engine.drain(&drained);  // the error is still reported to drain once
  EXPECT_TRUE(drained != nullptr);
}

TEST(Engine, SubmitValidatesDependencyHandles) {
  WorkflowEngine engine(EngineOptions{1, 1});
  EXPECT_THROW(engine.submit({ResourceKind::kClassical, [] {}},
                             {TaskHandle{}}),
               std::invalid_argument);
  EXPECT_THROW(engine.submit({ResourceKind::kClassical, [] {}},
                             {TaskHandle{99}}),
               std::invalid_argument);
  EXPECT_THROW(engine.submit({ResourceKind::kClassical, nullptr}),
               std::invalid_argument);
}

TEST(Engine, LongDependencyChainCancelsWithoutRecursion) {
  // A failing root must cancel an arbitrarily long successor chain; the
  // worklist-based cancellation keeps this O(1) stack.
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> runs{0};
  TaskHandle prev = engine.submit({ResourceKind::kClassical, [] {
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(5));
                                     throw std::runtime_error("root");
                                   }});
  constexpr int kChain = 50000;
  for (int i = 0; i < kChain; ++i) {
    prev = engine.submit({ResourceKind::kClassical, [&runs] { runs++; }},
                         {prev});
  }
  std::exception_ptr error;
  engine.drain(&error);
  EXPECT_TRUE(error != nullptr);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_TRUE(engine.timing(prev).cancelled);
  EXPECT_EQ(engine.stats().cancelled, static_cast<std::size_t>(kChain));
}

TEST(Engine, StatsAccumulateAcrossDrainsAndSubmits) {
  WorkflowEngine engine(EngineOptions{2, 2});
  for (int i = 0; i < 4; ++i) {
    engine.submit({ResourceKind::kQuantum, [] {}});
  }
  engine.drain();
  const TaskHandle h = engine.submit({ResourceKind::kClassical, [] {}});
  engine.wait(h);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.quantum_tasks, 4u);
  EXPECT_EQ(stats.classical_tasks, 1u);
}

TEST(Engine, SlotCapsHoldAcrossIndependentChains) {
  // Many chains stream through one engine; the per-kind cap must hold
  // globally, not per chain.
  const int slots = 2;
  WorkflowEngine engine(EngineOptions{slots, 8});
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  auto body = [&] {
    const int now = ++active;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --active;
  };
  for (int chain = 0; chain < 6; ++chain) {
    TaskHandle prev{};
    for (int step = 0; step < 3; ++step) {
      prev = engine.submit({ResourceKind::kQuantum, body},
                           prev.valid() ? std::vector<TaskHandle>{prev}
                                        : std::vector<TaskHandle>{});
    }
  }
  engine.drain();
  EXPECT_LE(peak.load(), slots);
  EXPECT_GE(peak.load(), 1);
}

TEST(Engine, StreamingChainsOverlapAcrossABarrierlessEngine) {
  // Two component-like chains: leaves -> merge -> coarse. With dependency
  // streaming, the FAST chain's coarse task must start while the slow
  // chain's leaves are still running — the cross-level overlap a per-level
  // drain barrier forbids.
  util::ThreadPool pool(4);
  EngineOptions opts;
  opts.quantum_slots = 2;
  opts.classical_slots = 2;
  opts.pool = &pool;
  WorkflowEngine engine(opts);

  auto sleep_ms = [](int ms) {
    return [ms] { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); };
  };
  // Fast chain: one 5 ms leaf, then merge and coarse.
  const TaskHandle fast_leaf =
      engine.submit({ResourceKind::kQuantum, sleep_ms(5)});
  const TaskHandle fast_merge =
      engine.submit({ResourceKind::kClassical, sleep_ms(1)}, {fast_leaf});
  const TaskHandle fast_coarse =
      engine.submit({ResourceKind::kQuantum, sleep_ms(10)}, {fast_merge});
  // Slow chain: 6 leaves of 20 ms sharing the 2 quantum slots.
  std::vector<TaskHandle> slow_leaves;
  for (int i = 0; i < 6; ++i) {
    slow_leaves.push_back(
        engine.submit({ResourceKind::kQuantum, sleep_ms(20)}));
  }
  const TaskHandle slow_merge =
      engine.submit({ResourceKind::kClassical, sleep_ms(1)}, slow_leaves);
  const TaskHandle slow_coarse =
      engine.submit({ResourceKind::kQuantum, sleep_ms(10)}, {slow_merge});
  engine.drain();

  double slow_leaves_end = 0.0;
  for (const TaskHandle h : slow_leaves) {
    slow_leaves_end = std::max(slow_leaves_end, engine.timing(h).end_s);
  }
  EXPECT_LT(engine.timing(fast_coarse).start_s, slow_leaves_end)
      << "fast chain's coarse level did not overlap slow chain's leaves";
  EXPECT_GE(engine.timing(slow_coarse).start_s,
            engine.timing(slow_merge).end_s - 1e-9);
}

// ------------------------------------------- fair share, groups, settle ----

TEST(Engine, AddClassValidatesWeightAndSubmitValidatesIds) {
  WorkflowEngine engine(EngineOptions{1, 1});
  EXPECT_THROW(engine.add_class({"zero", 0.0}), std::invalid_argument);
  EXPECT_THROW(engine.add_class({"negative", -1.0}), std::invalid_argument);
  Task unknown_class;
  unknown_class.kind = ResourceKind::kClassical;
  unknown_class.work = [] {};
  unknown_class.fair_class = 7;
  EXPECT_THROW(engine.submit(std::move(unknown_class)),
               std::invalid_argument);
  Task unknown_group;
  unknown_group.kind = ResourceKind::kClassical;
  unknown_group.work = [] {};
  unknown_group.group = 12345;
  EXPECT_THROW(engine.submit(std::move(unknown_group)),
               std::invalid_argument);
  EXPECT_FALSE(engine.group_cancelled(12345));
  EXPECT_EQ(engine.cancel_group(12345), 0u);
}

TEST(Engine, FairShareWeightedDispatchUnderContention) {
  // One classical slot, two classes weighted 3:1, all tasks released at
  // once behind a shared root: SFQ must interleave ~3 heavy-class tasks
  // per light-class task while both are backlogged.
  WorkflowEngine engine(EngineOptions{1, 1});
  const ClassId heavy = engine.add_class({"heavy", 3.0});
  const ClassId light = engine.add_class({"light", 1.0});
  // Generous root sleep: every task below must be submitted (queued)
  // before the root releases them, even under sanitizers.
  const TaskHandle root =
      engine.submit({ResourceKind::kClassical, [] {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(100));
                     }});
  util::Mutex order_mutex;
  std::vector<ClassId> order;
  auto task_of = [&](ClassId cls) {
    Task t;
    t.kind = ResourceKind::kClassical;
    t.fair_class = cls;
    t.work = [&order_mutex, &order, cls] {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      util::MutexLock lock(order_mutex);
      order.push_back(cls);
    };
    return t;
  };
  for (int i = 0; i < 12; ++i) engine.submit(task_of(heavy), {root});
  for (int i = 0; i < 12; ++i) engine.submit(task_of(light), {root});
  engine.drain();
  ASSERT_EQ(order.size(), 24u);
  // While both classes were backlogged (the first 16 completions), the
  // heavy class must get roughly its 3x share; exact counts depend on the
  // measured-cost EWMA, so assert the ratio loosely.
  int heavy_first = 0;
  for (std::size_t i = 0; i < 16; ++i) heavy_first += order[i] == heavy;
  EXPECT_GE(heavy_first, 10) << "weight-3 class undersupplied";
  EXPECT_LE(heavy_first, 14) << "weight-1 class starved";

  const std::vector<FairClassStats> stats = engine.class_stats();
  ASSERT_EQ(stats.size(), 3u);  // default + heavy + light
  EXPECT_EQ(stats[heavy].name, "heavy");
  EXPECT_EQ(stats[heavy].completed, 12u);
  EXPECT_EQ(stats[light].completed, 12u);
  EXPECT_GT(stats[heavy].busy_seconds, 0.0);
  EXPECT_GT(stats[light].queue_wait_seconds, 0.0);
  EXPECT_EQ(stats[0].completed, 1u);  // the root ran as the default class
}

TEST(Engine, DefaultClassAloneKeepsFifoOrder) {
  // Single-tenant behavior must be untouched: with only class 0, ready
  // tasks of one kind on one slot run in submission order.
  WorkflowEngine engine(EngineOptions{1, 1});
  const TaskHandle root =
      engine.submit({ResourceKind::kClassical, [] {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(50));
                     }});
  util::Mutex order_mutex;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.submit({ResourceKind::kClassical,
                   [&order_mutex, &order, i] {
                     util::MutexLock lock(order_mutex);
                     order.push_back(i);
                   }},
                  {root});
  }
  engine.drain();
  ASSERT_EQ(order.size(), 8u);
  // Successor release pushes to the FRONT in reverse submission order, so
  // dependents of one task run newest-first (depth-first); this pins the
  // exact pre-fair-share order.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 7 - i);
}

TEST(Engine, CancelGroupCancelsQueuedAndLateMembers) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> runs{0};
  std::atomic<int> settles{0};
  std::atomic<int> settle_errors{0};
  // Hold the single classical slot so the group's tasks stay queued.
  std::atomic<bool> release{false};
  engine.submit({ResourceKind::kClassical, [&release] {
                   while (!release.load()) {
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(50));
                   }
                 }});
  const GroupId group = engine.open_group();
  EXPECT_FALSE(engine.group_cancelled(group));
  std::vector<TaskHandle> members;
  for (int i = 0; i < 5; ++i) {
    Task t;
    t.kind = ResourceKind::kClassical;
    t.group = group;
    t.work = [&runs] { runs++; };
    t.on_settled = [&settles, &settle_errors](std::exception_ptr err) {
      settles++;
      if (err) settle_errors++;
    };
    members.push_back(engine.submit(std::move(t)));
  }
  EXPECT_EQ(engine.stats().ready_classical, 5u);
  EXPECT_EQ(engine.cancel_group(group), 5u);
  EXPECT_TRUE(engine.group_cancelled(group));
  EXPECT_EQ(engine.stats().ready_classical, 0u);
  EXPECT_EQ(settles.load(), 5);
  EXPECT_EQ(settle_errors.load(), 5);
  for (const TaskHandle h : members) {
    EXPECT_TRUE(engine.finished(h));
    EXPECT_TRUE(engine.timing(h).cancelled);
    EXPECT_FALSE(engine.timing(h).failed);
  }
  // A submission into the cancelled group cancels on arrival.
  Task late;
  late.kind = ResourceKind::kClassical;
  late.group = group;
  late.work = [&runs] { runs++; };
  late.on_settled = [&settles](std::exception_ptr) { settles++; };
  const TaskHandle late_h = engine.submit(std::move(late));
  EXPECT_TRUE(engine.finished(late_h));
  EXPECT_EQ(settles.load(), 6);
  engine.close_group(group);
  EXPECT_FALSE(engine.group_cancelled(group));  // closed groups are unknown
  release = true;
  // Group cancellation must NOT poison the engine's first_error: a plain
  // drain() would rethrow it.
  engine.drain();
  EXPECT_EQ(runs.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cancelled, 6u);
  EXPECT_EQ(stats.completed, 1u);  // the blocker
}

TEST(Engine, OnSettledFiresExactlyOncePerOutcome) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> ok_settles{0};
  std::atomic<int> fail_settles{0};
  std::atomic<int> cancel_settles{0};
  Task ok;
  ok.kind = ResourceKind::kClassical;
  ok.work = [] {};
  ok.on_settled = [&ok_settles](std::exception_ptr err) {
    if (!err) ok_settles++;
  };
  engine.submit(std::move(ok));
  Task bad;
  bad.kind = ResourceKind::kClassical;
  bad.work = [] { throw std::runtime_error("boom"); };
  bad.on_settled = [&fail_settles](std::exception_ptr err) {
    if (err) fail_settles++;
  };
  const TaskHandle bad_h = engine.submit(std::move(bad));
  Task child;
  child.kind = ResourceKind::kClassical;
  child.work = [] {};
  child.on_settled = [&cancel_settles](std::exception_ptr err) {
    if (err) cancel_settles++;
  };
  engine.submit(std::move(child), {bad_h});
  std::exception_ptr error;
  engine.drain(&error);
  EXPECT_TRUE(error != nullptr);
  EXPECT_EQ(ok_settles.load(), 1);
  EXPECT_EQ(fail_settles.load(), 1);
  EXPECT_EQ(cancel_settles.load(), 1);
}

TEST(Engine, StatsGaugesTrackReadyAndInflight) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<bool> release{false};
  engine.submit({ResourceKind::kClassical, [&release] {
                   while (!release.load()) {
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(50));
                   }
                 }});
  for (int i = 0; i < 3; ++i) {
    engine.submit({ResourceKind::kClassical, [] {}});
  }
  // The blocker holds the only classical slot; the rest are ready.
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.inflight_classical, 1u);
  EXPECT_EQ(stats.ready_classical, 3u);
  EXPECT_EQ(stats.inflight_quantum, 0u);
  EXPECT_EQ(stats.ready_quantum, 0u);
  release = true;
  engine.drain();
  stats = engine.stats();
  EXPECT_EQ(stats.inflight_classical, 0u);
  EXPECT_EQ(stats.ready_classical, 0u);
}

TEST(Engine, TryRunOneClaimsADispatchedTask) {
  // Pin a pool of one and occupy its only thread, so dispatched tasks can
  // only run when the caller donates its thread via try_run_one.
  util::ThreadPool pool(1);
  EngineOptions opts;
  opts.quantum_slots = 1;
  opts.classical_slots = 1;
  opts.pool = &pool;
  WorkflowEngine engine(opts);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  engine.submit({ResourceKind::kQuantum, [&started, &release] {
                   started = true;
                   while (!release.load()) {
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(50));
                   }
                 }});
  // Wait for the pool thread to CLAIM the blocker, so try_run_one below
  // cannot claim it instead (and spin on `release` forever).
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::atomic<int> runs{0};
  engine.submit({ResourceKind::kClassical, [&runs] { runs++; }});
  // The classical task is dispatched (its slot is free) but the pool's one
  // thread is stuck in the quantum blocker.
  EXPECT_TRUE(engine.try_run_one());
  EXPECT_EQ(runs.load(), 1);
  EXPECT_FALSE(engine.try_run_one());  // nothing else claimable
  release = true;
  engine.drain();
}

}  // namespace
}  // namespace qq::sched
