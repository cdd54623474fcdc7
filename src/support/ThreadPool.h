//===- ThreadPool.h - Work-stealing task scheduler --------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pec::parallel` scheduler: a work-stealing thread pool used to prove
/// the rules of a `.rules` file concurrently, one rule per task
/// (docs/PARALLELISM.md has the full design).
///
/// Structure: each worker owns a deque of tasks; the owner pushes and pops
/// at the back, idle workers steal from the front of a victim's deque.
/// `TaskGroup` tracks a batch of spawned tasks; `TaskGroup::wait()` *helps*
/// — a waiter that is itself a pool worker executes pending tasks instead
/// of blocking, which makes nested parallelism (a task spawning and
/// waiting on its own group) deadlock-free even on a pool of one thread.
///
/// Tasks must not throw: the PEC pipeline reports errors by value
/// (`Expected`, `CheckerResult`), and a throwing task would terminate.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_THREADPOOL_H
#define PEC_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pec {

class TaskGroup;

class ThreadPool {
public:
  /// Spins up \p Threads workers. A count of 0 or 1 still creates a valid
  /// pool: tasks then run inline inside TaskGroup::wait() on the caller's
  /// thread (helping), so callers need no special sequential path.
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned threadCount() const { return NumWorkers; }

  /// The default for `--jobs`: std::thread::hardware_concurrency, clamped
  /// to at least 1 (the standard permits a 0 answer).
  static unsigned hardwareJobs();

private:
  friend class TaskGroup;

  struct WorkerDeque {
    std::mutex Mutex;
    std::deque<std::function<void()>> Tasks;
  };

  /// Enqueues a task on the submitting worker's own deque (or, from an
  /// external thread, round-robin over workers) and wakes a sleeper.
  void submit(std::function<void()> Task);

  /// Pops one runnable task: own deque back first, then steals from the
  /// front of the other deques. Returns false when everything is empty.
  bool tryRunOneTask();

  void workerLoop(unsigned Index);

  /// Index of the calling thread's own deque, or -1 for external threads.
  int selfIndex() const;

  unsigned NumWorkers;
  std::vector<WorkerDeque> Deques;
  std::vector<std::thread> Workers;
  std::atomic<size_t> NextExternalDeque{0};
  std::atomic<bool> ShuttingDown{false};

  std::mutex SleepMutex;
  std::condition_variable SleepCv;
};

/// Tracks a batch of tasks spawned onto a pool so the owner can wait for
/// exactly its own batch (not the whole pool). wait() helps execute pool
/// tasks while the batch is unfinished, so nesting TaskGroups across
/// parallelism levels cannot deadlock.
class TaskGroup {
public:
  explicit TaskGroup(ThreadPool &Pool) : Pool(Pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup &) = delete;
  TaskGroup &operator=(const TaskGroup &) = delete;

  void spawn(std::function<void()> Task);

  /// Blocks until every task spawned on this group has finished. Helps run
  /// pool tasks (this group's or any other's) while waiting.
  void wait();

private:
  ThreadPool &Pool;
  std::atomic<size_t> Pending{0};
  std::mutex DoneMutex;
  std::condition_variable DoneCv;
};

} // namespace pec

#endif // PEC_SUPPORT_THREADPOOL_H
