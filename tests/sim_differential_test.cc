// Differential battery for the calendar-queue scheduler: the binary-heap
// HeapSimulator (tests/reference/) is the executable specification of the
// (time, seq) FIFO ordering contract; the production Simulator must execute
// every seeded random schedule identically — same event order, same clock at
// every event, same pending/processed counts at every RunUntil /
// RunUntilIdle boundary.
//
// Each schedule is a deterministic function of its seed alone: every event's
// behavior (how many children it schedules, with what delays) derives from
// SplitMix64(seed, event id), never from execution state, so a scheduler
// divergence shows up as a direct log mismatch instead of cascading noise.
// The generator deliberately covers the contract's edges: same-instant
// bursts, zero and negative delays (clamped to now), ScheduleAt in the past
// (clamped), far-future events (calendar overflow tier + re-anchoring), and
// segmented runs exercising RunUntil deadline semantics and RunUntilIdle
// event budgets.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "tests/reference/heap_simulator.h"

namespace configerator {
namespace {

// Deterministic per-(seed, event, salt) hash for schedule decisions.
uint64_t Mix(uint64_t seed, uint64_t event_id, uint64_t salt) {
  uint64_t state = seed ^ (event_id * 0x9e3779b97f4a7c15ULL) ^
                   (salt * 0xbf58476d1ce4e5b9ULL);
  return SplitMix64(state);
}

// Drives one simulator (the production Simulator or the HeapSimulator
// oracle) through the seeded schedule, recording an execution log. The log
// captures everything the ordering contract promises.
template <typename Sim>
class ScheduleDriver {
 public:
  explicit ScheduleDriver(uint64_t seed) : seed_(seed) {}

  std::vector<std::string> Run() {
    const int roots = 3 + static_cast<int>(Mix(seed_, 0, 0) % 6);
    for (int i = 0; i < roots; ++i) {
      SpawnEvent();
    }
    // Segmented execution: a few RunUntil horizons with budgeted
    // RunUntilIdle bursts in between, then a full drain.
    const int segments = 1 + static_cast<int>(Mix(seed_, 1, 1) % 4);
    SimTime horizon = 0;
    for (int s = 0; s < segments; ++s) {
      horizon += static_cast<SimTime>(Mix(seed_, s, 2) % (50 * kSimSecond));
      sim_.RunUntil(horizon);
      Mark("until", horizon);
      uint64_t budget = Mix(seed_, s, 3) % 40;
      sim_.RunUntilIdle(budget);
      Mark("budget", static_cast<SimTime>(budget));
    }
    sim_.RunUntilIdle();
    Mark("drain", 0);
    return std::move(log_);
  }

 private:
  void Mark(const char* what, SimTime arg) {
    log_.push_back(StrFormat("%s(%lld) now=%lld pending=%zu processed=%llu",
                             what, static_cast<long long>(arg),
                             static_cast<long long>(sim_.now()),
                             sim_.pending_events(),
                             static_cast<unsigned long long>(
                                 sim_.processed_events())));
  }

  // Schedules the next event id with seed-derived timing; when it runs, it
  // logs itself and spawns seed-derived children (until the event budget is
  // exhausted, so every schedule terminates).
  void SpawnEvent() {
    const int id = next_id_++;
    const uint64_t shape = Mix(seed_, static_cast<uint64_t>(id), 4);
    switch (shape % 8) {
      case 0:  // Same-instant burst member: zero delay.
        sim_.Schedule(0, [this, id] { OnEvent(id); });
        break;
      case 1:  // Negative delay: must clamp to now.
        sim_.Schedule(-static_cast<SimTime>(shape % 1000) - 1,
                      [this, id] { OnEvent(id); });
        break;
      case 2:  // ScheduleAt in the past: must clamp to now.
        sim_.ScheduleAt(sim_.now() - static_cast<SimTime>(shape % kSimSecond),
                        [this, id] { OnEvent(id); });
        break;
      case 3:  // Far future: lands in the calendar's overflow tier.
        sim_.Schedule(static_cast<SimTime>(shape % 400) * kSimDay,
                      [this, id] { OnEvent(id); });
        break;
      case 4:  // Sub-microsecond cluster: dense same-bucket traffic.
        sim_.Schedule(static_cast<SimTime>(shape % 4),
                      [this, id] { OnEvent(id); });
        break;
      default:  // Ordinary spread over tens of seconds.
        sim_.Schedule(static_cast<SimTime>(shape % (30 * kSimSecond)),
                      [this, id] { OnEvent(id); });
        break;
    }
  }

  void OnEvent(int id) {
    log_.push_back(StrFormat("run %d at %lld", id,
                             static_cast<long long>(sim_.now())));
    const uint64_t fanout_roll = Mix(seed_, static_cast<uint64_t>(id), 5);
    int children = static_cast<int>(fanout_roll % 4);
    if (fanout_roll % 16 == 7) {
      children = 12;  // Occasional same-time fan-out burst.
    }
    for (int c = 0; c < children && next_id_ < kMaxEvents; ++c) {
      SpawnEvent();
    }
  }

  static constexpr int kMaxEvents = 220;

  Sim sim_;
  uint64_t seed_;
  int next_id_ = 0;
  std::vector<std::string> log_;
};

TEST(SchedulerDifferentialTest, ThousandSeededSchedulesIdentical) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    std::vector<std::string> heap_log =
        ScheduleDriver<HeapSimulator>(seed).Run();
    std::vector<std::string> calendar_log =
        ScheduleDriver<Simulator>(seed).Run();
    ASSERT_EQ(heap_log.size(), calendar_log.size()) << "seed " << seed;
    for (size_t i = 0; i < heap_log.size(); ++i) {
      ASSERT_EQ(heap_log[i], calendar_log[i])
          << "seed " << seed << " diverges at log entry " << i;
    }
  }
}

// A same-instant burst wide enough to stress one bucket's heap: FIFO order
// must survive both schedulers.
template <typename Sim>
void ExpectWideBurstFifo() {
  Sim sim;
  std::vector<int> order;
  for (int i = 0; i < 5000; ++i) {
    sim.Schedule(kSimSecond, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(order[i], i) << "scheduler broke FIFO at " << i;
  }
}

TEST(SchedulerDifferentialTest, WideSameInstantBurstStaysFifo) {
  ExpectWideBurstFifo<HeapSimulator>();
  ExpectWideBurstFifo<Simulator>();
}

// RunUntil peeks ahead of the clock; a later Schedule at a nearer time must
// still run first (the calendar queue's rewind/near-heap path).
template <typename Sim>
void ExpectLateArrivalRunsFirst() {
  Sim sim;
  std::vector<int> order;
  sim.Schedule(300 * kSimDay, [&order] { order.push_back(99); });
  sim.RunUntil(kSimSecond);  // Advances cursor toward the far event.
  EXPECT_EQ(sim.now(), kSimSecond);
  sim.Schedule(kSimMillisecond, [&order] { order.push_back(1); });
  sim.Schedule(0, [&order] { order.push_back(0); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 99}));
  EXPECT_EQ(sim.now(), 300 * kSimDay);
}

TEST(SchedulerDifferentialTest, LateArrivalBeforeAdvancedCursor) {
  ExpectLateArrivalRunsFirst<HeapSimulator>();
  ExpectLateArrivalRunsFirst<Simulator>();
}

// Direct calendar-queue stress: enough churn to force grow and shrink
// rebuilds, popping everything back in exact (time, seq) order.
TEST(SchedulerDifferentialTest, CalendarRebuildsPreserveOrder) {
  CalendarEventQueue queue;
  Rng rng(42);
  uint64_t seq = 0;
  for (int i = 0; i < 60000; ++i) {
    queue.Push(SimEvent{static_cast<SimTime>(rng.NextBounded(kSimHour)), seq++,
                        [] {}});
  }
  EXPECT_GT(queue.rebuilds(), 0u);
  EXPECT_GT(queue.bucket_count(), 64u);
  SimTime last_time = -1;
  uint64_t last_seq = 0;
  size_t popped = 0;
  while (!queue.empty()) {
    SimEvent event = queue.PopMin();
    if (popped > 0) {
      ASSERT_TRUE(event.time > last_time ||
                  (event.time == last_time && event.seq > last_seq))
          << "out of order at pop " << popped;
    }
    last_time = event.time;
    last_seq = event.seq;
    ++popped;
    // Interleave occasional pushes below and above the cursor.
    if (popped % 1000 == 0) {
      queue.Push(SimEvent{last_time, seq++, [] {}});
      queue.Push(
          SimEvent{last_time + static_cast<SimTime>(rng.NextBounded(kSimDay)),
                   seq++, [] {}});
    }
  }
  EXPECT_EQ(popped, 60000u + 2 * 60u);
  // Shrink hysteresis: draining far below the grown bucket count rebuilt the
  // ring back down.
  EXPECT_LT(queue.bucket_count(), size_t{1} << 16);
}

}  // namespace
}  // namespace configerator
