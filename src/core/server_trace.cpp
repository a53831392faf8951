#include "core/server_trace.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <type_traits>

#include "util/error.hpp"

namespace casched::core {

namespace {
/// Phase amounts/remainders below this are "finished" (work units are seconds
/// or MB, both O(1)-O(1e3)).
constexpr double kEps = 1e-9;
}  // namespace

ServerTrace::ServerTrace(ServerModel model) : model_(std::move(model)) {
  CASCHED_CHECK(model_.bwInMBps > 0 && model_.bwOutMBps > 0,
                "server model bandwidths must be positive");
}

bool ServerTrace::hasTask(std::uint64_t taskId) const {
  return std::any_of(tasks_.begin(), tasks_.end(),
                     [taskId](const TraceTask& t) { return t.taskId == taskId; });
}

double ServerTrace::phaseAmount(const TraceTask& task, TracePhase phase) const {
  switch (phase) {
    case TracePhase::kLatencyIn: return model_.latencyIn;
    case TracePhase::kTransferIn: return task.dims.inMB;
    case TracePhase::kCompute: return task.dims.cpuSeconds;
    case TracePhase::kLatencyOut: return model_.latencyOut;
    case TracePhase::kTransferOut: return task.dims.outMB;
    case TracePhase::kDone: return 0.0;
  }
  return 0.0;
}

void ServerTrace::enterNextPhase(TraceTask& task) const {
  while (task.phase != TracePhase::kDone && task.remaining <= kEps) {
    task.phase = static_cast<TracePhase>(static_cast<std::uint8_t>(task.phase) + 1);
    task.remaining = task.phase == TracePhase::kDone ? 0.0 : phaseAmount(task, task.phase);
  }
}

namespace {
/// Resource class of a phase: each class shares one capacity in equal parts
/// (fixed delays are not shared, every task runs its own).
constexpr std::size_t kDelayClass = 0;
constexpr std::size_t kInClass = 1;
constexpr std::size_t kCpuClass = 2;
constexpr std::size_t kOutClass = 3;
constexpr std::size_t kClassCount = 4;

std::size_t classOf(TracePhase phase) {
  switch (phase) {
    case TracePhase::kTransferIn: return kInClass;
    case TracePhase::kCompute: return kCpuClass;
    case TracePhase::kTransferOut: return kOutClass;
    default: return kDelayClass;
  }
}

using Queue = DrainScratch::Queue;
using Slot = DrainScratch::Slot;

/// Places a phase end that is not the latest tag of its queue (the drain
/// appends those itself); equal tags leave in arrival order. A new tag still
/// tends to land near the late end, so the search gallops back from the end
/// (2, 4, 8, ... slots) before it bisects: O(log d) probes for a slot d
/// places from the end.
void enqueue(Queue& q, Slot slot) {
  const auto first = q.slots.begin() + static_cast<std::ptrdiff_t>(q.head);
  auto lo = first;
  for (std::ptrdiff_t step = 2; step <= q.slots.end() - first; step *= 2) {
    if ((q.slots.end() - step)->tag <= slot.tag) {
      lo = q.slots.end() - step;
      break;
    }
  }
  const auto pos = std::partition_point(
      lo, q.slots.end(), [&slot](const Slot& s) { return s.tag <= slot.tag; });
  if (pos == first && q.head > 0) {
    q.slots[--q.head] = slot;
  } else {
    q.slots.insert(pos, slot);
  }
}
}  // namespace

// Equal sharing as share clocks. Every class c keeps a clock S_c: the
// full-capacity seconds one sharer has received since the drain started (the
// integral of dt / sharers_c; of dt for delays). A task entering class c with
// `amount` left gets the tag S_c + amount / peak_c and leaves the phase when
// S_c reaches it, so each class's queue stays in tag order and only its front
// matters: the next event is min_c (front tag - S_c) * sharers_c. A drain of
// k tasks is O(k) events, each a few queue operations (a binary search and a
// short shift), instead of one pass over every task per event.
template <class DoneF, class SegF>
void ServerTrace::drain(std::vector<TraceTask>& tasks, simcore::SimTime* t,
                        simcore::SimTime bound, DrainScratch& scratch, DoneF&& onDone,
                        SegF&& onSegment, const std::uint64_t* stopTaskId,
                        simcore::SimTime* stopCompletion) const {
  constexpr bool kHasDone = !std::is_null_pointer_v<std::decay_t<DoneF>>;
  constexpr bool kHasSegment = !std::is_null_pointer_v<std::decay_t<SegF>>;
  const std::array<double, kClassCount> peak{1.0, model_.bwInMBps, 1.0, model_.bwOutMBps};
  std::array<double, kClassCount> clock{};
  std::array<Queue, kClassCount>& queues = scratch.queues;
  for (Queue& q : queues) {
    q.slots.clear();
    q.head = 0;
  }
  // Bit c is set while class c has a queued phase end.
  unsigned busy = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TraceTask& task = tasks[i];
    CASCHED_CHECK(task.phase != TracePhase::kDone, "finished task left in a trace");
    const std::size_t c = classOf(task.phase);
    queues[c].slots.push_back(Slot{task.remaining / peak[c], static_cast<std::uint32_t>(i)});
    busy |= 1u << c;
  }
  const auto sooner = [](const Slot& a, const Slot& b) {
    return a.tag < b.tag || (a.tag == b.tag && a.task < b.task);
  };
  for (unsigned m = busy; m != 0; m &= m - 1) {
    std::vector<Slot>& slots = queues[static_cast<std::size_t>(std::countr_zero(m))].slots;
    if (!std::is_sorted(slots.begin(), slots.end(), sooner)) {
      std::sort(slots.begin(), slots.end(), sooner);
    }
  }
  auto sharers = [&queues](std::size_t c) {
    return c == kDelayClass ? 1.0
                            : static_cast<double>(queues[c].slots.size() - queues[c].head);
  };

  simcore::SimTime now = *t;
  while (now < bound && busy != 0) {
    // Time to the next phase end at the current shares.
    double dt = simcore::kTimeInfinity;
    std::size_t soonest = 0;
    for (unsigned m = busy; m != 0; m &= m - 1) {
      const auto c = static_cast<std::size_t>(std::countr_zero(m));
      const double wait = (queues[c].slots[queues[c].head].tag - clock[c]) * sharers(c);
      if (wait < dt) {
        dt = wait;
        soonest = c;
      }
    }
    dt = std::max(dt, 0.0);
    const bool clipped = now + dt > bound;
    if (clipped) dt = bound - now;
    const simcore::SimTime t0 = now;
    now = t0 + dt;
    if constexpr (kHasSegment) {
      if (dt > kEps) {
        for (const TraceTask& task : tasks) {
          if (task.phase == TracePhase::kDone) continue;
          onSegment(task, t0, now, 1.0 / sharers(classOf(task.phase)));
        }
      }
    }
    // The soonest class's clock lands on its front tag exactly.
    for (unsigned m = busy; m != 0; m &= m - 1) {
      const auto c = static_cast<std::size_t>(std::countr_zero(m));
      if (c == soonest && !clipped) {
        clock[c] = std::max(clock[c], queues[c].slots[queues[c].head].tag);
      } else {
        clock[c] += c == kDelayClass ? dt : dt / sharers(c);
      }
    }
    // Phase ends within kEps of the clock, then each task's next phase.
    for (unsigned m = busy; m != 0; m &= m - 1) {
      const auto c = static_cast<std::size_t>(std::countr_zero(m));
      Queue& q = queues[c];
      while (q.head < q.slots.size() &&
             (q.slots[q.head].tag - clock[c]) * peak[c] <= kEps) {
        const std::uint32_t index = q.slots[q.head++].task;
        TraceTask& task = tasks[index];
        task.remaining = 0.0;
        enterNextPhase(task);
        if (task.phase == TracePhase::kDone) {
          if constexpr (kHasDone) onDone(task, now);
          if (stopTaskId != nullptr && task.taskId == *stopTaskId) {
            *t = now;
            if (stopCompletion != nullptr) *stopCompletion = now;
            return;
          }
          continue;
        }
        const std::size_t next = classOf(task.phase);
        const Slot slot{clock[next] + task.remaining / peak[next], index};
        Queue& into = queues[next];
        if (into.head == into.slots.size() || into.slots.back().tag <= slot.tag) {  // latest
          into.slots.push_back(slot);
        } else {
          enqueue(into, slot);
        }
        busy |= 1u << next;
      }
      if (q.head == q.slots.size()) busy &= ~(1u << c);
    }
    if (clipped) break;
  }
  if (now < bound && bound != simcore::kTimeInfinity) now = bound;
  *t = now;
  if (busy == 0) {
    tasks.clear();
    return;
  }
  // Write the unfinished work back and drop finished tasks, keeping
  // admission order.
  for (unsigned m = busy; m != 0; m &= m - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(m));
    const Queue& q = queues[c];
    for (std::size_t i = q.head; i < q.slots.size(); ++i) {
      tasks[q.slots[i].task].remaining =
          std::max(0.0, (q.slots[i].tag - clock[c]) * peak[c]);
    }
  }
  tasks.erase(std::remove_if(tasks.begin(), tasks.end(),
                             [](const TraceTask& task) {
                               return task.phase == TracePhase::kDone;
                             }),
              tasks.end());
}

void ServerTrace::advanceTo(simcore::SimTime to) {
  DrainScratch scratch;
  advanceTo(to, scratch);
}

void ServerTrace::advanceTo(simcore::SimTime to, DrainScratch& scratch) {
  if (to <= now_) return;
  ++version_;
  drain(tasks_, &now_, to, scratch, nullptr, nullptr, nullptr, nullptr);
}

void ServerTrace::admit(std::uint64_t taskId, const TaskDims& dims,
                        simcore::SimTime at, double startDelay) {
  CASCHED_CHECK(startDelay >= 0.0, "startDelay must be non-negative");
  CASCHED_CHECK(!hasTask(taskId), "task already in trace");
  advanceTo(at);
  ++version_;
  TraceTask task;
  task.taskId = taskId;
  task.dims = dims;
  task.admitted = at;
  task.phase = TracePhase::kLatencyIn;
  task.remaining = startDelay + model_.latencyIn;
  if (task.remaining <= kEps) enterNextPhase(task);
  if (task.phase == TracePhase::kDone) return;  // degenerate empty task
  tasks_.push_back(task);
}

bool ServerTrace::remove(std::uint64_t taskId) {
  auto it = std::find_if(tasks_.begin(), tasks_.end(),
                         [taskId](const TraceTask& t) { return t.taskId == taskId; });
  if (it == tasks_.end()) return false;
  tasks_.erase(it);
  ++version_;
  return true;
}

void ServerTrace::clear() {
  tasks_.clear();
  ++version_;
}

std::map<std::uint64_t, simcore::SimTime> ServerTrace::predictCompletions() const {
  std::map<std::uint64_t, simcore::SimTime> out;
  std::vector<TraceTask> copy = tasks_;
  simcore::SimTime t = now_;
  DrainScratch scratch;
  drain(copy, &t, simcore::kTimeInfinity, scratch,
        [&out](const TraceTask& task, simcore::SimTime when) { out[task.taskId] = when; },
        nullptr, nullptr, nullptr);
  return out;
}

void ServerTrace::copyAdvanced(std::vector<TraceTask>& tasks, simcore::SimTime* t,
                               simcore::SimTime to, DrainScratch& scratch) const {
  tasks = tasks_;  // assignment reuses the destination's capacity
  *t = now_;
  if (to > *t) drain(tasks, t, to, scratch, nullptr, nullptr, nullptr, nullptr);
}

void ServerTrace::completeInto(std::vector<TraceTask>& tasks, simcore::SimTime t,
                               std::vector<PredictedEntry>& out,
                               DrainScratch& scratch) const {
  drain(tasks, &t, simcore::kTimeInfinity, scratch,
        [&out](const TraceTask& task, simcore::SimTime when) {
          out.push_back(PredictedEntry{task.taskId, when});
        },
        nullptr, nullptr, nullptr);
}

simcore::SimTime ServerTrace::completeOne(std::vector<TraceTask>& tasks,
                                          simcore::SimTime t, std::uint64_t taskId,
                                          DrainScratch& scratch) const {
  simcore::SimTime completion = simcore::kTimeInfinity;
  drain(tasks, &t, simcore::kTimeInfinity, scratch, nullptr, nullptr, &taskId,
        &completion);
  return completion;
}

bool ServerTrace::buildAdmitted(std::uint64_t taskId, const TaskDims& dims,
                                simcore::SimTime at, double startDelay,
                                TraceTask* out) const {
  CASCHED_CHECK(startDelay >= 0.0, "startDelay must be non-negative");
  TraceTask task;
  task.taskId = taskId;
  task.dims = dims;
  task.admitted = at;
  task.phase = TracePhase::kLatencyIn;
  task.remaining = startDelay + model_.latencyIn;
  if (task.remaining <= kEps) enterNextPhase(task);
  if (task.phase == TracePhase::kDone) return false;  // degenerate empty task
  *out = task;
  return true;
}

GanttChart ServerTrace::simulateGantt() const {
  GanttChart chart;
  chart.serverName = model_.name;
  chart.origin = now_;
  chart.horizon = now_;
  std::vector<TraceTask> copy = tasks_;
  simcore::SimTime t = now_;
  DrainScratch scratch;
  drain(copy, &t, simcore::kTimeInfinity, scratch,
        [&chart](const TraceTask&, simcore::SimTime when) {
          chart.horizon = std::max(chart.horizon, when);
        },
        [&chart](const TraceTask& task, simcore::SimTime t0, simcore::SimTime t1,
                 double share) {
          chart.segments.push_back(GanttSegment{
              task.taskId, static_cast<std::uint8_t>(task.phase), t0, t1, share});
        },
        nullptr, nullptr);
  chart.horizon = std::max(chart.horizon, t);
  return chart;
}

void ServerTrace::restore(std::vector<TraceTask> tasks, simcore::SimTime now) {
  for (const TraceTask& task : tasks) {
    CASCHED_CHECK(task.phase <= TracePhase::kDone, "restored task has a bad phase");
    CASCHED_CHECK(task.remaining >= 0.0, "restored task has negative remaining work");
  }
  tasks_ = std::move(tasks);
  // Drop tasks a snapshot caught exactly at completion.
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                              [](const TraceTask& t) { return t.phase == TracePhase::kDone; }),
               tasks_.end());
  now_ = now;
  ++version_;
}

std::string tracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kLatencyIn: return "latency-in";
    case TracePhase::kTransferIn: return "transfer-in";
    case TracePhase::kCompute: return "compute";
    case TracePhase::kLatencyOut: return "latency-out";
    case TracePhase::kTransferOut: return "transfer-out";
    case TracePhase::kDone: return "done";
  }
  return "?";
}

}  // namespace casched::core
