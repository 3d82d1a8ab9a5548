#include "tests/reference/heap_simulator.h"

#include <algorithm>
#include <utility>

namespace configerator {

namespace {

// "a pops later than b": the std::*_heap algorithms build a max-heap with
// respect to the comparator, so the top is the (time, seq) minimum.
struct Later {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};

}  // namespace

void HeapSimulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  ScheduleAt(now_ + delay, std::move(fn));
}

void HeapSimulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  heap_.push_back(SimEvent{when, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool HeapSimulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  SimEvent event = std::move(heap_.back());
  heap_.pop_back();
  now_ = event.time;
  ++processed_;
  event.fn();
  return true;
}

void HeapSimulator::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void HeapSimulator::RunUntilIdle(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
}

}  // namespace configerator
