// Work-stealing HEFT scheduler (paper §2.3 "Runtime").
//
// Ready tasks are dispatched to the worker whose queue has the minimum
// estimated finish time (sum of estimated costs of already-queued work);
// idle workers steal from the most-loaded peer. This reproduces the paper's
// light-weight dynamic Heterogeneous-Earliest-Finish-Time runtime with a
// job-stealing fallback for when the cost model misestimates.
//
// The scheduler owns a PERSISTENT worker pool: threads start at
// construction and live until destruction, so an owner that runs many
// graphs pays thread startup once, not per graph. run() blocks until its
// graph completed; concurrent run() calls from different threads
// interleave their tasks on the one pool.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "runtime/task.hpp"

namespace gofmm::rt {

/// The submitted graph has a dependency cycle: some tasks can never become
/// ready. Detected by a Kahn topological pass BEFORE any task executes, so
/// a cyclic graph fails fast instead of stalling the pool (the seed
/// scheduler detected this as a multi-second idle-spin stall; the check is
/// now O(tasks + edges) and deterministic).
class CycleError : public std::runtime_error {
 public:
  /// `msg` names one task on the cycle for diagnosis.
  explicit CycleError(const std::string& msg);
};

/// Executes TaskGraphs on a fixed persistent pool of worker threads.
class Scheduler {
 public:
  /// `num_workers` <= 0 selects the hardware concurrency. Workers start
  /// immediately and idle on a condition variable until work arrives.
  explicit Scheduler(int num_workers = 0);

  /// Stops and joins the workers (every run() has returned by then).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;             ///< owns threads
  Scheduler& operator=(const Scheduler&) = delete;  ///< owns threads

  /// Runs every task in the graph respecting dependencies; blocks until all
  /// tasks completed. The graph can be re-run (dependency counters are
  /// reinitialised on entry). Throws CycleError if the graph has a
  /// dependency cycle (no task executes then); rethrows the first task
  /// exception after the graph drains. Safe to call from several threads
  /// at once (each call waits for its own graph only), but not from inside
  /// a task on this scheduler (the worker would wait on itself), and one
  /// graph must not be in two run() calls at once.
  void run(TaskGraph& graph);

  [[nodiscard]] int num_workers() const { return num_workers_; }

  /// Total tasks executed by steals since construction; exposed so tests
  /// and the scheduler bench can observe load-balancing behaviour.
  [[nodiscard]] std::uint64_t steal_count() const;

 private:
  struct Impl;  // worker pool, queues, wake plumbing (scheduler.cpp)
  int num_workers_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gofmm::rt
