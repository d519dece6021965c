// Scheduler subsystem tests, all timing on a ManualClock — no real-time
// sleep anywhere: coalescing merges up to the batch budget, the batching
// window flushes partial batches when virtual time passes it, EDF pops in
// deadline order while FIFO (the default) ignores deadlines for ordering,
// expiry is lazy-on-pop for every discipline (an expired request behind a
// live head resolves at the next pop instead of rotting in the queue), a
// randomized mixed-deadline stress run loses and duplicates nothing, and an
// InferenceEngine on the virtual clock serves a coalesced batch bit-identical
// to sequential submits — for FP32 and INT8, on 1-thread and 8-thread pools.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "serving/inference_engine.hpp"
#include "serving/scheduler.hpp"

namespace fcm::serving {
namespace {

/// A single-image FP32 request for `model`; element 0 carries `marker` so a
/// test can identify which request landed where after coalescing.
ServeRequest marked_f32(const std::string& model, float marker,
                        double deadline_s = 0.0) {
  TensorF in(1, 2, 2);
  in[0] = marker;
  ServeRequest r = ServeRequest::f32(model, {});
  r.batch_f32.push_back(std::move(in));
  r.deadline_s = deadline_s;
  return r;
}

float marker_of(const Scheduler::Item& it) { return it.req.batch_f32[0][0]; }

TEST(SchedulerOptions, DefaultsAreFifoUncoalesced) {
  const SchedulerOptions opt;
  EXPECT_EQ(opt.discipline, QueueDiscipline::kFifo);
  EXPECT_EQ(opt.max_coalesce_batch, 1);
  EXPECT_EQ(opt.coalesce_wait_us, 0);
  EXPECT_EQ(opt.policy, AdmissionPolicy::kBlock);
  const EngineOptions eopt;
  EXPECT_EQ(eopt.scheduler.discipline, QueueDiscipline::kFifo);
  EXPECT_EQ(eopt.scheduler.max_coalesce_batch, 1);
  EXPECT_EQ(eopt.clock, nullptr);  // real clock unless a test injects one
}

TEST(ManualClock, AdvancesAndJumpsMonotonically) {
  ManualClock clock(5.0);
  EXPECT_DOUBLE_EQ(clock.now_s(), 5.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now_s(), 7.5);
  clock.sleep_until(10.0);  // pacing on a virtual clock jumps, never blocks
  EXPECT_DOUBLE_EQ(clock.now_s(), 10.0);
  clock.set(3.0);  // never moves backwards
  EXPECT_DOUBLE_EQ(clock.now_s(), 10.0);
}

TEST(SteadyClock, IsMonotonicFromItsEpoch) {
  SteadyClock clock;
  const double a = clock.now_s();
  const double b = clock.now_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Scheduler, GreedyCoalesceMergesWhatIsQueuedUpToBudget) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.max_coalesce_batch = 4;
  opt.coalesce_wait_us = 0;  // merge only what is already queued
  Scheduler sched(opt, clock);

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(sched.push(marked_f32("Tiny", static_cast<float>(i))));
  }

  // First pop: head + 3 riders (budget 4), in FIFO order; second: the rest.
  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.pop(&d));
  ASSERT_EQ(d.items.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(marker_of(d.items[static_cast<std::size_t>(i)]),
                    static_cast<float>(i));
  }
  ASSERT_TRUE(sched.pop(&d));
  ASSERT_EQ(d.items.size(), 2u);
  EXPECT_FLOAT_EQ(marker_of(d.items[0]), 4.0f);
  EXPECT_FLOAT_EQ(marker_of(d.items[1]), 5.0f);

  const QueueStats st = sched.stats();
  EXPECT_EQ(st.accepted, 6);
  EXPECT_EQ(st.coalesced_batches, 2);
  EXPECT_EQ(st.coalesced_items, 6);
}

TEST(Scheduler, FullBudgetDispatchesWithoutWaitingOutTheWindow) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.max_coalesce_batch = 4;
  opt.coalesce_wait_us = 1'000'000;  // 1 virtual second — never advanced
  Scheduler sched(opt, clock);

  for (int i = 0; i < 4; ++i) {
    sched.push(marked_f32("Tiny", static_cast<float>(i)));
  }
  // The budget is already met, so pop must not wait for the window at all —
  // on a single thread with a frozen clock, waiting would deadlock.
  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.pop(&d));
  EXPECT_EQ(d.items.size(), 4u);
}

TEST(Scheduler, WindowTimeoutFlushesPartialBatch) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.max_coalesce_batch = 8;
  opt.coalesce_wait_us = 100;
  Scheduler sched(opt, clock);

  sched.push(marked_f32("Tiny", 0.0f));
  sched.push(marked_f32("Tiny", 1.0f));
  clock->advance(150e-6);  // past the head's batching window

  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.pop(&d));  // window already elapsed: flush the partial 2
  ASSERT_EQ(d.items.size(), 2u);
  EXPECT_FLOAT_EQ(marker_of(d.items[0]), 0.0f);
  EXPECT_FLOAT_EQ(marker_of(d.items[1]), 1.0f);
  const QueueStats st = sched.stats();
  EXPECT_EQ(st.coalesced_batches, 1);
  EXPECT_EQ(st.coalesced_items, 2);
}

TEST(Scheduler, WindowWaitWakesWhenTheBudgetFills) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.max_coalesce_batch = 3;
  opt.coalesce_wait_us = 1'000'000;  // 1 virtual second, never reached
  Scheduler sched(opt, clock);

  sched.push(marked_f32("Tiny", 0.0f));
  // The popper parks in the batching window (virtual time is frozen, so the
  // window cannot elapse); it can only dispatch once the budget fills. The
  // two pushes below are its only wake-up source — deterministic, no sleeps.
  Scheduler::Dispatch d;
  std::thread popper([&] { ASSERT_TRUE(sched.pop(&d)); });
  sched.push(marked_f32("Tiny", 1.0f));
  sched.push(marked_f32("Tiny", 2.0f));
  popper.join();
  ASSERT_EQ(d.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(marker_of(d.items[static_cast<std::size_t>(i)]),
                    static_cast<float>(i));
  }
}

TEST(Scheduler, WindowWaitIsCappedByTheHeadsOwnDeadline) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.max_coalesce_batch = 8;
  opt.coalesce_wait_us = 10'000'000;  // 10 virtual seconds of window
  Scheduler sched(opt, clock);

  // The head allows 1 s of queueing — far less than the batching window. It
  // must dispatch (alone, under-filled) once its deadline arrives, never be
  // expired by the scheduler's own window.
  auto fut = sched.push(marked_f32("Tiny", 0.0f, 1.0));
  Scheduler::Dispatch d;
  std::thread popper([&] { ASSERT_TRUE(sched.pop(&d)); });
  clock->advance(1.0);  // exactly the deadline: last viable moment
  popper.join();
  ASSERT_EQ(d.items.size(), 1u);
  EXPECT_FLOAT_EQ(marker_of(d.items[0]), 0.0f);
  EXPECT_EQ(sched.stats().expired, 0);
  d.items[0].promise.set_value(response_stub(d.items[0].req, ServeStatus::kOk));
  EXPECT_TRUE(fut.get().ok());
}

TEST(Scheduler, FullQueueClosesTheWindowEarly) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.queue_depth = 2;
  opt.max_coalesce_batch = 8;         // want = 7 peers, but only 2 fit
  opt.coalesce_wait_us = 1'000'000;   // frozen clock: the window never ends
  Scheduler sched(opt, clock);

  // The popper holds the head aside and waits for 7 peers; once the queue
  // is full no further peer can be admitted, so the window must close and
  // dispatch head + 2 rather than stall out the clock (which would hang
  // forever here — virtual time never advances).
  sched.push(marked_f32("Tiny", 0.0f));
  Scheduler::Dispatch d;
  std::thread popper([&] { ASSERT_TRUE(sched.pop(&d)); });
  sched.push(marked_f32("Tiny", 1.0f));
  sched.push(marked_f32("Tiny", 2.0f));  // queue full now
  popper.join();
  ASSERT_EQ(d.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(marker_of(d.items[static_cast<std::size_t>(i)]),
                    static_cast<float>(i));
  }
}

TEST(Scheduler, OpenWindowReservesItsKeyAgainstIdleWorkers) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.max_coalesce_batch = 3;
  opt.coalesce_wait_us = 1'000'000;  // frozen clock: windows close on budget
  Scheduler sched(opt, clock);

  // Two concurrent poppers race for one Tiny request. Whichever takes it
  // opens a window and reserves the Tiny key, so the other worker must NOT
  // claim the Tiny peers pushed next (that would fragment the batch into
  // solo windows) — it can only dispatch the batch-2 Mob_v1 request, which
  // is non-coalescible and therefore never opens a window of its own on the
  // frozen clock. Every interleaving ends the same way: one dispatch is the
  // lone Mob_v1, the other is all three Tiny requests merged.
  sched.push(marked_f32("Tiny", 0.0f));
  Scheduler::Dispatch d1, d2;
  std::thread w1([&] { ASSERT_TRUE(sched.pop(&d1)); });
  std::thread w2([&] { ASSERT_TRUE(sched.pop(&d2)); });
  ServeRequest mob_req = marked_f32("Mob_v1", 9.0f);
  TensorF second(1, 2, 2);
  mob_req.batch_f32.push_back(std::move(second));  // batch 2: no window
  sched.push(std::move(mob_req));
  sched.push(marked_f32("Tiny", 1.0f));
  sched.push(marked_f32("Tiny", 2.0f));
  w1.join();
  w2.join();

  Scheduler::Dispatch& tiny = d1.items.size() == 3 ? d1 : d2;
  Scheduler::Dispatch& mob = d1.items.size() == 3 ? d2 : d1;
  ASSERT_EQ(tiny.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(marker_of(tiny.items[static_cast<std::size_t>(i)]),
                    static_cast<float>(i));
  }
  ASSERT_EQ(mob.items.size(), 1u);
  EXPECT_EQ(mob.items[0].req.model, "Mob_v1");
  EXPECT_EQ(mob.items[0].req.batch(), 2);
  const QueueStats st = sched.stats();
  EXPECT_EQ(st.coalesced_batches, 1);
  EXPECT_EQ(st.coalesced_items, 3);
}

TEST(Scheduler, CoalesceKeySeparatesModelDtypeAndBatchedRequests) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.max_coalesce_batch = 8;
  opt.coalesce_wait_us = 0;
  Scheduler sched(opt, clock);

  sched.push(marked_f32("Tiny", 0.0f));
  sched.push(marked_f32("Tiny", 1.0f));
  sched.push(marked_f32("Mob_v1", 2.0f));  // different model
  TensorI8 i8in(1, 2, 2);
  sched.push(ServeRequest::i8("Tiny", {std::move(i8in)}));  // different dtype
  ServeRequest two = marked_f32("Tiny", 3.0f);  // batch 2: never coalesced
  TensorF second(1, 2, 2);
  two.batch_f32.push_back(std::move(second));
  sched.push(std::move(two));

  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.pop(&d));  // the two Tiny f32 singles merge, nothing else
  ASSERT_EQ(d.items.size(), 2u);
  EXPECT_FLOAT_EQ(marker_of(d.items[0]), 0.0f);
  EXPECT_FLOAT_EQ(marker_of(d.items[1]), 1.0f);
  ASSERT_TRUE(sched.pop(&d));
  ASSERT_EQ(d.items.size(), 1u);
  EXPECT_EQ(d.items[0].req.model, "Mob_v1");
  ASSERT_TRUE(sched.pop(&d));
  ASSERT_EQ(d.items.size(), 1u);
  EXPECT_EQ(d.items[0].req.dtype, DType::kI8);
  ASSERT_TRUE(sched.pop(&d));
  ASSERT_EQ(d.items.size(), 1u);
  EXPECT_EQ(d.items[0].req.batch(), 2);
  const QueueStats st = sched.stats();
  EXPECT_EQ(st.coalesced_batches, 1);
  EXPECT_EQ(st.coalesced_items, 2);
}

TEST(Scheduler, EdfPopsInDeadlineOrderWithFifoTieBreak) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.discipline = QueueDiscipline::kEdf;
  Scheduler sched(opt, clock);

  sched.push(marked_f32("Tiny", 0.0f, 5.0));
  sched.push(marked_f32("Tiny", 1.0f, 1.0));
  sched.push(marked_f32("Tiny", 2.0f, 3.0));
  sched.push(marked_f32("Tiny", 3.0f));      // no deadline: sorts last
  sched.push(marked_f32("Tiny", 4.0f, 1.0));  // ties with #1; later arrival

  const float want[] = {1.0f, 4.0f, 2.0f, 0.0f, 3.0f};
  for (const float w : want) {
    Scheduler::Dispatch d;
    ASSERT_TRUE(sched.pop(&d));
    ASSERT_EQ(d.items.size(), 1u);
    EXPECT_FLOAT_EQ(marker_of(d.items[0]), w);
  }
}

TEST(Scheduler, FifoIsTheDefaultAndIgnoresDeadlinesForOrdering) {
  auto clock = std::make_shared<ManualClock>();
  Scheduler sched(SchedulerOptions{}, clock);  // defaults: FIFO, no coalesce

  sched.push(marked_f32("Tiny", 0.0f, 5.0));
  sched.push(marked_f32("Tiny", 1.0f, 1.0));  // earlier deadline, later pop
  sched.push(marked_f32("Tiny", 2.0f));

  for (const float w : {0.0f, 1.0f, 2.0f}) {
    Scheduler::Dispatch d;
    ASSERT_TRUE(sched.pop(&d));
    ASSERT_EQ(d.items.size(), 1u);
    EXPECT_FLOAT_EQ(marker_of(d.items[0]), w);
  }
}

TEST(Scheduler, EdfExpiredRequestResolvesWithoutRunning) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.discipline = QueueDiscipline::kEdf;
  Scheduler sched(opt, clock);

  auto doomed = sched.push(marked_f32("Tiny", 0.0f, 1.0));
  auto live = sched.push(marked_f32("Tiny", 1.0f, 10.0));
  clock->advance(2.0);  // past the first deadline, not the second

  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.pop(&d));
  ASSERT_EQ(d.items.size(), 1u);
  EXPECT_FLOAT_EQ(marker_of(d.items[0]), 1.0f);  // only the live one runs

  const ServeResponse resp = doomed.get();  // already resolved by the pop
  EXPECT_EQ(resp.status, ServeStatus::kExpired);
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.outputs_f32.empty());
  EXPECT_DOUBLE_EQ(resp.queue_wait_s, 2.0);  // exact on a virtual clock
  EXPECT_EQ(sched.stats().expired, 1);
  (void)live;
}

TEST(Scheduler, FifoExpiresLazilyBehindALiveHead) {
  auto clock = std::make_shared<ManualClock>();
  Scheduler sched(SchedulerOptions{}, clock);  // FIFO

  auto head = sched.push(marked_f32("Tiny", 0.0f));       // no deadline
  auto stuck = sched.push(marked_f32("Tiny", 1.0f, 1.0));  // behind the head
  auto tail = sched.push(marked_f32("Tiny", 2.0f));
  clock->advance(2.0);  // the middle request is now past its deadline

  // The first pop returns the live head AND resolves the expired request
  // behind it — it no longer sits in the queue until it surfaces.
  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.pop(&d));
  EXPECT_FLOAT_EQ(marker_of(d.items[0]), 0.0f);
  ASSERT_EQ(stuck.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(stuck.get().status, ServeStatus::kExpired);
  EXPECT_EQ(sched.stats().expired, 1);

  ASSERT_TRUE(sched.pop(&d));
  EXPECT_FLOAT_EQ(marker_of(d.items[0]), 2.0f);
  (void)head;
  (void)tail;
}

TEST(Scheduler, RejectPolicyAndStopResolveEveryPromise) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.queue_depth = 2;
  opt.policy = AdmissionPolicy::kReject;
  Scheduler sched(opt, clock);

  auto a = sched.push(marked_f32("Tiny", 0.0f));
  auto b = sched.push(marked_f32("Tiny", 1.0f));
  auto c = sched.push(marked_f32("Tiny", 2.0f));  // queue full: rejected now
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(c.get().status, ServeStatus::kRejected);
  EXPECT_EQ(sched.stats().rejected, 1);

  sched.stop();  // backlog resolves as rejected; pops turn false
  EXPECT_EQ(a.get().status, ServeStatus::kRejected);
  EXPECT_EQ(b.get().status, ServeStatus::kRejected);
  Scheduler::Dispatch d;
  EXPECT_FALSE(sched.pop(&d));
  // Post-stop pushes reject immediately instead of enqueueing forever.
  EXPECT_EQ(sched.push(marked_f32("Tiny", 3.0f)).get().status,
            ServeStatus::kRejected);
  const QueueStats st = sched.stats();
  EXPECT_EQ(st.accepted, 2);
  EXPECT_EQ(st.rejected, 4);
}

// The wakeup-scan bugfix: a queued request's deadline is an event the
// virtual-time driver must be able to land on. next_wakeup_s() used to scan
// only coalescing windows, so a replay fast-forwarded past the expiry
// instant and stamped the expired response with an overshot queue wait;
// now the earliest queued deadline bounds the wakeup (nudged one ulp past
// the deadline, since expiry is strictly `now > deadline`), and reaching it
// expires the request with an exact wait.
TEST(Scheduler, NextWakeupIncludesQueuedDeadlines) {
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.discipline = QueueDiscipline::kEdf;
  Scheduler sched(opt, clock);

  EXPECT_TRUE(std::isinf(sched.next_wakeup_s()));  // empty: nothing pending
  auto doomed = sched.push(marked_f32("Tiny", 0.0f, 1.0));
  sched.push(marked_f32("Tiny", 1.0f));  // deadline-free: never constrains

  const double wake = sched.next_wakeup_s();
  EXPECT_DOUBLE_EQ(
      wake, std::nextafter(1.0, std::numeric_limits<double>::infinity()));

  // Advancing exactly to the reported wakeup is enough to expire the
  // request — the next scan does it itself, no pop required.
  clock->set(wake);
  const double after = sched.next_wakeup_s();
  EXPECT_TRUE(std::isinf(after));  // only the deadline-free request remains
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ServeResponse resp = doomed.get();
  EXPECT_EQ(resp.status, ServeStatus::kExpired);
  // The stamped wait is the deadline instant (one ulp of dust), not an
  // overshoot to some later window boundary.
  EXPECT_NEAR(resp.queue_wait_s, 1.0, 1e-12);
  EXPECT_EQ(sched.stats().expired, 1);
}

// The same deadline-aware wakeup under FIFO: the discipline orders pops, but
// expiry (and thus the wakeup bound) is discipline-independent.
TEST(Scheduler, FifoNextWakeupTracksEarliestQueuedDeadline) {
  auto clock = std::make_shared<ManualClock>();
  Scheduler sched(SchedulerOptions{}, clock);
  sched.push(marked_f32("Tiny", 0.0f, 5.0));
  auto early = sched.push(marked_f32("Tiny", 1.0f, 2.0));
  EXPECT_DOUBLE_EQ(
      sched.next_wakeup_s(),
      std::nextafter(2.0, std::numeric_limits<double>::infinity()));

  clock->set(sched.next_wakeup_s());
  EXPECT_DOUBLE_EQ(
      sched.next_wakeup_s(),
      std::nextafter(5.0, std::numeric_limits<double>::infinity()));
  EXPECT_EQ(early.get().status, ServeStatus::kExpired);
  EXPECT_EQ(sched.stats().expired, 1);
}

// The cost-aware load gauge: load_seconds() sums each request's stamped
// predicted cost across queued and in-flight states under the one queue
// lock, drops each share when its request retires, and clamps float dust to
// an exact zero when the queue is empty.
TEST(Scheduler, LoadSecondsTracksCostsAcrossQueueAndFlight) {
  SchedulerOptions opt;
  Scheduler sched(opt, nullptr);
  EXPECT_DOUBLE_EQ(sched.load_seconds(), 0.0);

  ServeRequest a = marked_f32("Tiny", 0.0f);
  a.cost_s = 0.25;
  ServeRequest b = marked_f32("Tiny", 1.0f);
  b.cost_s = 0.5;
  auto fa = sched.push(std::move(a));
  auto fb = sched.push(std::move(b));
  EXPECT_DOUBLE_EQ(sched.load_seconds(), 0.75);
  QueueStats st = sched.stats();
  EXPECT_DOUBLE_EQ(st.queued_seconds, 0.75);
  EXPECT_DOUBLE_EQ(st.in_flight_seconds, 0.0);

  // Popping moves the head's share from queued to in-flight atomically —
  // the sum the router balances on never dips.
  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.try_pop(&d));
  EXPECT_DOUBLE_EQ(sched.load_seconds(), 0.75);
  st = sched.stats();
  EXPECT_DOUBLE_EQ(st.queued_seconds, 0.5);
  EXPECT_DOUBLE_EQ(st.in_flight_seconds, 0.25);

  d.items[0].promise.set_value(
      response_stub(d.items[0].req, ServeStatus::kOk));
  sched.record_completed(1, 0.25);
  EXPECT_DOUBLE_EQ(sched.load_seconds(), 0.5);

  ASSERT_TRUE(sched.try_pop(&d));
  d.items[0].promise.set_value(
      response_stub(d.items[0].req, ServeStatus::kOk));
  sched.record_completed(1, 0.5);
  EXPECT_DOUBLE_EQ(sched.load_seconds(), 0.0);
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());
}

// Satellite stress: a randomized mixed-deadline mix through EDF must lose no
// response, deliver none twice, and dequeue in non-decreasing deadline order.
// Fixed seed, 100 repetitions, virtual time only.
TEST(Scheduler, StressRandomizedEdfLosesNothingAndStaysOrdered) {
  std::mt19937 rng(1234);
  for (int rep = 0; rep < 100; ++rep) {
    auto clock = std::make_shared<ManualClock>();
    SchedulerOptions opt;
    opt.discipline = QueueDiscipline::kEdf;
    opt.queue_depth = 64;
    Scheduler sched(opt, clock);

    constexpr int kRequests = 16;
    std::vector<std::future<ServeResponse>> futs;
    for (int i = 0; i < kRequests; ++i) {
      // A quarter deadline-free, the rest between 0.5 and 6 virtual seconds.
      const bool free = rng() % 4 == 0;
      const double deadline_s =
          free ? 0.0 : 0.5 + 5.5 * std::generate_canonical<double, 32>(rng);
      futs.push_back(
          sched.push(marked_f32("Tiny", static_cast<float>(i), deadline_s)));
      if (rng() % 3 == 0) clock->advance(0.4);  // time moves mid-stream
    }

    // Drain with non-blocking pops, advancing time randomly: every pop's
    // dispatched deadline must be >= the previous one (EDF) among requests
    // that were admitted together; expiry only removes, never reorders.
    double last_deadline = 0.0;
    int dispatched = 0;
    Scheduler::Dispatch d;
    while (sched.try_pop(&d)) {
      ASSERT_EQ(d.items.size(), 1u);  // no coalescing configured
      EXPECT_GE(d.items[0].deadline_s, last_deadline)
          << "rep " << rep << ": EDF dispatched out of deadline order";
      last_deadline = d.items[0].deadline_s;
      // The consumer resolves runnable items (the engine would execute them).
      d.items[0].promise.set_value(
          response_stub(d.items[0].req, ServeStatus::kOk));
      ++dispatched;
      if (rng() % 2 == 0) clock->advance(0.7);
    }

    // No response lost, none delivered twice: every future is ready exactly
    // once, and ok + expired covers the whole mix (nothing was rejected —
    // the queue is deeper than the mix).
    int ok = 0, expired = 0;
    for (auto& f : futs) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "rep " << rep << ": a response was lost";
      const ServeStatus s = f.get().status;  // a second get() would throw
      (s == ServeStatus::kOk ? ok : expired) += 1;
      if (s != ServeStatus::kOk) {
        EXPECT_EQ(s, ServeStatus::kExpired);
      }
    }
    EXPECT_EQ(ok, dispatched) << "rep " << rep;
    EXPECT_EQ(ok + expired, kRequests) << "rep " << rep;
    const QueueStats st = sched.stats();
    EXPECT_EQ(st.accepted, kRequests) << "rep " << rep;
    EXPECT_EQ(st.expired, expired) << "rep " << rep;
    EXPECT_EQ(st.rejected, 0) << "rep " << rep;
  }
}

/// `n` deterministic Tiny-shaped inputs seeded from `seed0`.
std::vector<TensorF> tiny_batch_f32(int n, std::uint64_t seed0) {
  const FmShape shape = models::tiny().layers.front().ifm_shape();
  std::vector<TensorF> batch;
  for (int i = 0; i < n; ++i) {
    TensorF in(shape);
    fill_uniform(in, seed0 + static_cast<std::uint64_t>(i));
    batch.push_back(std::move(in));
  }
  return batch;
}

std::vector<TensorI8> tiny_batch_i8(int n, std::uint64_t seed0) {
  const FmShape shape = models::tiny().layers.front().ifm_shape();
  std::vector<TensorI8> batch;
  for (int i = 0; i < n; ++i) {
    TensorI8 in(shape);
    fill_uniform_i8(in, seed0 + static_cast<std::uint64_t>(i));
    batch.push_back(std::move(in));
  }
  return batch;
}

/// Serve kN single-image requests through a coalescing engine on a frozen
/// ManualClock and return the outputs in submission order. The batching
/// window is a virtual second that never elapses, so the single worker can
/// only dispatch when the budget (== kN) fills: all requests merge into
/// exactly one batch, deterministically.
template <typename TensorT>
std::vector<TensorT> serve_coalesced(DType dtype, std::uint64_t seed0,
                                     std::int64_t* coalesced_batches) {
  constexpr int kN = 4;
  EngineOptions opt;
  opt.seed = 77;
  opt.queue_workers = 1;
  opt.scheduler.max_coalesce_batch = kN;
  opt.scheduler.coalesce_wait_us = 1'000'000;
  opt.clock = std::make_shared<ManualClock>();
  InferenceEngine engine(gpusim::jetson_orin(), opt);

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    if (dtype == DType::kF32) {
      futs.push_back(
          engine.submit_async(ServeRequest::f32("Tiny", tiny_batch_f32(1, seed))));
    } else {
      futs.push_back(
          engine.submit_async(ServeRequest::i8("Tiny", tiny_batch_i8(1, seed))));
    }
  }
  std::vector<TensorT> outputs;
  for (auto& f : futs) {
    ServeResponse resp = f.get();
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.batch, 1);
    if constexpr (std::is_same_v<TensorT, TensorF>) {
      EXPECT_EQ(resp.outputs_f32.size(), 1u);
      outputs.push_back(std::move(resp.outputs_f32.front()));
    } else {
      EXPECT_EQ(resp.outputs_i8.size(), 1u);
      outputs.push_back(std::move(resp.outputs_i8.front()));
    }
  }
  *coalesced_batches = engine.queue_stats().coalesced_batches;
  return outputs;
}

// Satellite bit-identity: a coalesced batch of N single-image requests must
// produce outputs identical to N sequential submit() calls — FP32 and INT8,
// with the executor's parallel item-inner loop on a 1-thread and an 8-thread
// pool. Virtual clock, so the merge itself is deterministic.
TEST(InferenceEngineScheduler, CoalescedBatchBitIdenticalToSequentialF32) {
  std::vector<std::vector<TensorF>> per_pool;
  for (const unsigned workers : {1u, 8u}) {
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    std::int64_t coalesced = 0;
    per_pool.push_back(serve_coalesced<TensorF>(DType::kF32, 300, &coalesced));
    // Exactly one merged dispatch: the window never elapsed, the budget did.
    EXPECT_EQ(coalesced, 1);
  }

  // Sequential ground truth on its own engine (same seed), default pool.
  EngineOptions opt;
  opt.seed = 77;
  InferenceEngine engine(gpusim::jetson_orin(), opt);
  for (std::size_t i = 0; i < per_pool[0].size(); ++i) {
    const ServeResponse want = engine.submit(ServeRequest::f32(
        "Tiny", tiny_batch_f32(1, 300 + static_cast<std::uint64_t>(i))));
    for (const auto& outputs : per_pool) {
      EXPECT_EQ(max_abs_diff(outputs[i], want.outputs_f32[0]), 0.0f)
          << "coalesced item " << i << " diverged from sequential submit";
    }
  }
}

TEST(InferenceEngineScheduler, CoalescedBatchBitIdenticalToSequentialI8) {
  std::vector<std::vector<TensorI8>> per_pool;
  for (const unsigned workers : {1u, 8u}) {
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    std::int64_t coalesced = 0;
    per_pool.push_back(serve_coalesced<TensorI8>(DType::kI8, 900, &coalesced));
    EXPECT_EQ(coalesced, 1);
  }

  EngineOptions opt;
  opt.seed = 77;
  InferenceEngine engine(gpusim::jetson_orin(), opt);
  for (std::size_t i = 0; i < per_pool[0].size(); ++i) {
    const ServeResponse want = engine.submit(ServeRequest::i8(
        "Tiny", tiny_batch_i8(1, 900 + static_cast<std::uint64_t>(i))));
    for (const auto& outputs : per_pool) {
      ASSERT_EQ(outputs[i].size(), want.outputs_i8[0].size());
      for (std::int64_t e = 0; e < outputs[i].size(); ++e) {
        ASSERT_EQ(outputs[i][e], want.outputs_i8[0][e])
            << "coalesced item " << i << " element " << e;
      }
    }
  }
}

// The engine demuxes a coalesced batch into per-request responses: each
// rider keeps its own queue wait (exact on the virtual clock) and an even
// 1/n share of the merged batch's simulated cost — which is less than the
// riders would cost as single-image submits.
TEST(InferenceEngineScheduler, CoalescedResponsesCarryPerRequestAccounting) {
  constexpr int kN = 4;
  auto clock = std::make_shared<ManualClock>();
  EngineOptions opt;
  opt.queue_workers = 1;
  opt.scheduler.max_coalesce_batch = kN;
  opt.scheduler.coalesce_wait_us = 1'000'000;
  opt.clock = clock;
  InferenceEngine engine(gpusim::jetson_orin(), opt);

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < kN; ++i) {
    futs.push_back(engine.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 40 + i))));
  }
  double sim_total = 0.0;
  std::int64_t gma_total = 0;
  for (auto& f : futs) {
    const ServeResponse resp = f.get();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.batch, 1);
    EXPECT_GT(resp.sim_time_s, 0.0);
    EXPECT_GT(resp.gma_bytes, 0);
    EXPECT_GE(resp.latency_s, resp.queue_wait_s);
    sim_total += resp.sim_time_s;
    gma_total += resp.gma_bytes;
  }
  // The riders' shares add back up to one whole batch execution — exactly,
  // for the integer traffic counter (the first rider takes the remainder).
  const ServeResponse whole =
      engine.submit(ServeRequest::f32("Tiny", tiny_batch_f32(kN, 40)));
  EXPECT_NEAR(sim_total, whole.sim_time_s, 1e-12);
  EXPECT_EQ(gma_total, whole.gma_bytes);
  // Coalescing pays on the device: items 2..kN of the merged batch read the
  // weights from L2. The singles run on an uncoalesced engine, since a
  // single-image submit here would wait out the frozen window.
  InferenceEngine uncoalesced(gpusim::jetson_orin(), EngineOptions{});
  double singles_total = 0.0;
  for (int i = 0; i < kN; ++i) {
    singles_total +=
        uncoalesced.submit(ServeRequest::f32("Tiny", tiny_batch_f32(1, 40 + i)))
            .sim_time_s;
  }
  EXPECT_LT(sim_total, singles_total);
  const QueueStats st = engine.queue_stats();
  EXPECT_EQ(st.coalesced_batches, 1);
  EXPECT_EQ(st.coalesced_items, kN);
  EXPECT_EQ(st.completed, kN);
}

}  // namespace
}  // namespace fcm::serving
