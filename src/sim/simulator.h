// Discrete-event simulator. The distribution experiments (Fig 14 with its
// push-vs-pull ablation, the PackageVessel bench) run the real protocol code
// over this clock instead of wall time, so a fleet of hundreds of thousands
// of servers across continents fits on a laptop.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace configerator {

class Simulator {
 public:
  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` from now (clamped to >= 0). Events at the
  // same instant run in scheduling order (stable).
  void Schedule(SimTime delay, std::function<void()> fn);
  void ScheduleAt(SimTime when, std::function<void()> fn);

  // Runs the next event; returns false if the queue is empty.
  bool Step();

  // Runs events with timestamp <= `deadline`; the clock ends at `deadline`.
  void RunUntil(SimTime deadline);

  // Runs until no events remain (or `max_events` processed).
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  size_t pending_events() const { return queue_.size(); }
  uint64_t processed_events() const { return processed_; }

 private:
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  CalendarEventQueue queue_;
};

}  // namespace configerator

#endif  // SRC_SIM_SIMULATOR_H_
