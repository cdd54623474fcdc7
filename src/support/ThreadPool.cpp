//===- ThreadPool.cpp -----------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <chrono>

using namespace pec;

namespace {
/// Which pool (if any) the current thread belongs to, and its worker index.
/// Lets submit() push onto the calling worker's own deque and lets external
/// threads (the CLI main thread) be told apart from workers.
thread_local const ThreadPool *TlsPool = nullptr;
thread_local int TlsIndex = -1;
} // namespace

ThreadPool::ThreadPool(unsigned Threads)
    : NumWorkers(Threads), Deques(Threads > 0 ? Threads : 1) {
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(SleepMutex);
    ShuttingDown.store(true, std::memory_order_release);
  }
  SleepCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

unsigned ThreadPool::hardwareJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N > 0 ? N : 1;
}

int ThreadPool::selfIndex() const {
  return TlsPool == this ? TlsIndex : -1;
}

void ThreadPool::submit(std::function<void()> Task) {
  // Causal propagation: capture the submitter's trace context and
  // re-install it around the task body, so spans the task opens record
  // the submitting span as parent even when a different worker steals the
  // task. The Chrome trace draws that cross-thread parent edge as a flow
  // arrow (timeline::renderChromeTrace).
  if (trace::enabled()) {
    Task = [Ctx = trace::current(), T = std::move(Task)] {
      trace::Adopt Adopted(Ctx);
      T();
    };
  }
  int Self = selfIndex();
  size_t Target = Self >= 0 ? static_cast<size_t>(Self)
                            : NextExternalDeque.fetch_add(
                                  1, std::memory_order_relaxed) %
                                  Deques.size();
  {
    std::lock_guard<std::mutex> Lock(Deques[Target].Mutex);
    Deques[Target].Tasks.push_back(std::move(Task));
  }
  // Publish-then-notify under SleepMutex so a worker that just found the
  // deques empty cannot sleep through this submission.
  {
    std::lock_guard<std::mutex> Lock(SleepMutex);
  }
  SleepCv.notify_one();
}

bool ThreadPool::tryRunOneTask() {
  std::function<void()> Task;
  int Self = selfIndex();
  // Own deque first (back = most recently pushed, keeps nested groups hot).
  if (Self >= 0) {
    WorkerDeque &D = Deques[Self];
    std::lock_guard<std::mutex> Lock(D.Mutex);
    if (!D.Tasks.empty()) {
      Task = std::move(D.Tasks.back());
      D.Tasks.pop_back();
    }
  }
  // Steal from the front of the other deques (oldest task: likely the
  // largest remaining unit of work).
  if (!Task) {
    size_t Start = Self >= 0 ? static_cast<size_t>(Self) + 1 : 0;
    for (size_t I = 0; I < Deques.size() && !Task; ++I) {
      WorkerDeque &D = Deques[(Start + I) % Deques.size()];
      std::lock_guard<std::mutex> Lock(D.Mutex);
      if (!D.Tasks.empty()) {
        Task = std::move(D.Tasks.front());
        D.Tasks.pop_front();
      }
    }
  }
  if (!Task)
    return false;
  auto Start = std::chrono::steady_clock::now();
  Task();
  metrics::record(metrics::Hist::PoolTaskUs,
                  static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - Start)
                          .count()));
  return true;
}

void ThreadPool::workerLoop(unsigned Index) {
  TlsPool = this;
  TlsIndex = static_cast<int>(Index);
  while (true) {
    if (tryRunOneTask())
      continue;
    std::unique_lock<std::mutex> Lock(SleepMutex);
    if (ShuttingDown.load(std::memory_order_acquire))
      return;
    // Timed wait: a cheap backstop against the submit/sleep race; the
    // common case is an explicit notify from submit().
    SleepCv.wait_for(Lock, std::chrono::milliseconds(50));
  }
}

void TaskGroup::spawn(std::function<void()> Task) {
  Pending.fetch_add(1, std::memory_order_acq_rel);
  Pool.submit([this, T = std::move(Task)] {
    T();
    // Decrement inside DoneMutex: wait()'s final lock acquisition then
    // guarantees the group cannot be destroyed while we are in here.
    std::lock_guard<std::mutex> Lock(DoneMutex);
    if (Pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      DoneCv.notify_all();
  });
}

void TaskGroup::wait() {
  while (Pending.load(std::memory_order_acquire) != 0) {
    // Help: run pool tasks (ours or anyone's) instead of blocking. This is
    // what makes nested TaskGroups safe — a task waiting on its own group
    // executes that group's tasks itself if no worker is free.
    if (Pool.tryRunOneTask())
      continue;
    // Nothing runnable anywhere; our remaining tasks are executing on
    // other threads. Block until the last one signals.
    std::unique_lock<std::mutex> Lock(DoneMutex);
    DoneCv.wait_for(Lock, std::chrono::milliseconds(50), [this] {
      return Pending.load(std::memory_order_acquire) == 0;
    });
  }
  // Fence: the last completer decremented Pending while holding DoneMutex;
  // taking it once here ensures that completer has left the critical
  // section before the group can be destroyed.
  std::lock_guard<std::mutex> Lock(DoneMutex);
}
