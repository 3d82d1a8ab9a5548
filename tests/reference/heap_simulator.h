// Binary-heap discrete-event simulator — the executable specification of the
// scheduler's ordering contract. Production runs the calendar queue
// (src/sim/simulator.h); this oracle lives with the differential battery
// that holds it to the same behavior (tests/sim_differential_test.cc) and is
// never linked into src/.
//
// Same surface and semantics as Simulator: events run in ascending
// (time, seq) order, seq being the scheduling sequence number, so
// same-instant events run FIFO; negative delays and past ScheduleAt times
// clamp to now; RunUntil leaves the clock at its deadline.

#ifndef TESTS_REFERENCE_HEAP_SIMULATOR_H_
#define TESTS_REFERENCE_HEAP_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace configerator {

class HeapSimulator {
 public:
  SimTime now() const { return now_; }

  void Schedule(SimTime delay, std::function<void()> fn);
  void ScheduleAt(SimTime when, std::function<void()> fn);
  bool Step();
  void RunUntil(SimTime deadline);
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  size_t pending_events() const { return heap_.size(); }
  uint64_t processed_events() const { return processed_; }

 private:
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  // Binary min-heap over (time, seq), stored flat and driven with the
  // std::*_heap algorithms so Step can move the payload out.
  std::vector<SimEvent> heap_;
};

}  // namespace configerator

#endif  // TESTS_REFERENCE_HEAP_SIMULATOR_H_
