// Task abstraction for the self-contained runtime (paper §2.3).
//
// GOFMM's compression and evaluation phases are tree traversals whose
// read-after-write dependencies are only known at runtime (e.g. S2S(β)
// reads the skeleton weights of every node in Far(β), which the neighbor
// search determined). Algorithms therefore build an explicit DAG of Task
// objects via symbolic traversals and hand it to the Scheduler.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace gofmm::rt {

namespace detail {
struct TaskAccess;  // scheduler.cpp: the scheduler's view of Task wiring
struct GraphRun;    // scheduler.cpp: one in-flight graph execution
}  // namespace detail

/// A unit of work with explicit RAW dependencies.
///
/// Lifetime: owned by a TaskGraph; raw Task* handles are stable for the
/// graph's lifetime and are used to wire edges.
class Task {
 public:
  virtual ~Task() = default;

  /// Performs the work. `worker_id` identifies the executing worker
  /// (used by workers that own auxiliary resources).
  virtual void execute(int worker_id) = 0;

  /// Estimated cost in arbitrary-but-consistent units (FLOPs per Table 2 of
  /// the paper). The HEFT dispatcher minimises estimated finish time over
  /// worker queues using this value.
  [[nodiscard]] virtual double cost() const { return 1.0; }

  /// Human-readable label for traces and tests.
  [[nodiscard]] virtual std::string name() const { return "task"; }

 private:
  friend class TaskGraph;
  friend struct detail::TaskAccess;
  std::vector<Task*> successors_;
  std::atomic<index_t> unmet_{0};
  index_t num_preds_ = 0;
  detail::GraphRun* run_ = nullptr;  // the run() this task belongs to
};

/// Task wrapping a callable; the common case for algorithm phases.
class FunctionTask final : public Task {
 public:
  FunctionTask(std::function<void(int)> fn, double cost, std::string name)
      : fn_(std::move(fn)), cost_(cost), name_(std::move(name)) {}

  void execute(int worker_id) override { fn_(worker_id); }
  [[nodiscard]] double cost() const override { return cost_; }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::function<void(int)> fn_;
  double cost_;
  std::string name_;
};

/// Owns a set of tasks plus their dependency edges; built once per phase by
/// a symbolic traversal, then executed by a Scheduler.
class TaskGraph {
 public:
  /// Creates a task from a callable. Cost units must be consistent across
  /// the whole graph (the library uses FLOP estimates).
  Task* emplace(std::function<void(int)> fn, double cost = 1.0,
                std::string name = "task") {
    tasks_.push_back(
        std::make_unique<FunctionTask>(std::move(fn), cost, std::move(name)));
    return tasks_.back().get();
  }

  /// Adds a RAW edge: `succ` may start only after `pred` finished.
  /// Both tasks must belong to this graph. Duplicate edges are benign but
  /// wasteful; callers de-duplicate where it matters.
  void add_edge(Task* pred, Task* succ) {
    pred->successors_.push_back(succ);
    succ->num_preds_ += 1;
  }

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] const std::vector<std::unique_ptr<Task>>& tasks() const {
    return tasks_;
  }

 private:
  friend struct detail::TaskAccess;
  std::vector<std::unique_ptr<Task>> tasks_;
};

}  // namespace gofmm::rt
