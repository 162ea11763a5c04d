#include "server/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace parj::server {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(1, num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  // Workers that are not parked check stop_ before they park.
  for (const auto& w : workers_) w->cv.notify_one();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_;
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.gangs_run = gangs_run_.load(std::memory_order_relaxed);
  s.overflow_threads = overflow_threads_.load(std::memory_order_relaxed);
  s.worker_gangs_run = worker_gangs_run_.load(std::memory_order_relaxed);
  return s;
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: the shared pool must outlive any static object
  // whose destructor might still submit work.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void ThreadPool::EnsureStartedLocked() {
  if (started_) return;
  started_ = true;
  workers_.reserve(num_threads_);
  threads_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  Worker& self = *workers_[index];
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    while (!self.has_direct && queue_.empty() && !stop_) {
      idle_.push_back(index);
      self.cv.wait(lock);
      // Whoever woke us popped us from idle_; remove ourselves after a
      // spurious wakeup.
      auto it = std::find(idle_.begin(), idle_.end(), index);
      if (it != idle_.end()) idle_.erase(it);
    }
    std::function<void()> task;
    if (self.has_direct) {
      task = std::move(self.direct);
      self.has_direct = false;
    } else if (!queue_.empty()) {
      // Drain the queue even when stopping: accepted tasks (e.g. promises
      // the scheduler must fulfil) always run.
      task = std::move(queue_.front());
      queue_.pop_front();
    } else {
      return;  // stop_ and nothing left to do
    }
    // Counted as the task starts, so a task that signals its own
    // completion never races its count.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    task();
    task = nullptr;  // release captured state outside the lock
    lock.lock();
  }
}

ThreadPool::Worker* ThreadPool::PopIdleLocked() {
  if (idle_.empty()) return nullptr;
  Worker* w = workers_[idle_.back()].get();
  idle_.pop_back();
  return w;
}

ThreadPool::Worker* ThreadPool::HandOffLocked(std::function<void()>& task) {
  Worker* w = PopIdleLocked();
  if (w != nullptr) {
    w->direct = std::move(task);
    w->has_direct = true;
  }
  return w;
}

void ThreadPool::Submit(std::function<void()> task) {
  Worker* woken = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureStartedLocked();
    queue_.push_back(std::move(task));
    // One task, one wake-up. The woken worker may find the task already
    // taken by a worker that just finished; it then parks again.
    woken = PopIdleLocked();
  }
  if (woken != nullptr) woken->cv.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  struct SharedState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t total = 0;
    const std::function<void(size_t)>* body = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<SharedState>();
  state->total = n;
  state->body = &body;  // valid: the caller blocks until done == total

  auto drain = [state] {
    for (;;) {
      const size_t i = state->next.fetch_add(1);
      if (i >= state->total) break;
      (*state->body)(i);
      if (state->done.fetch_add(1) + 1 == state->total) {
        std::lock_guard<std::mutex> lk(state->mu);
        state->cv.notify_all();
      }
    }
  };

  // One helper per pool thread at most; late-running helpers find the
  // counter exhausted and return immediately.
  const size_t helpers =
      std::min(n - 1, static_cast<size_t>(thread_count()));
  for (size_t h = 0; h < helpers; ++h) Submit(drain);
  drain();  // caller participation makes this deadlock-free
  std::unique_lock<std::mutex> lk(state->mu);
  state->cv.wait(lk, [&] { return state->done.load() == state->total; });
}

void ThreadPool::RunWorkers(int n, const std::function<void(int)>& member) {
  if (n <= 0) return;
  if (n == 1) {
    member(0);
    return;
  }
  worker_gangs_run_.fetch_add(1, std::memory_order_relaxed);
  struct WorkerGangState {
    std::unique_ptr<std::atomic<bool>[]> claimed;
    std::atomic<int> done{0};
    int total = 0;
    const std::function<void(int)>* member = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<WorkerGangState>();
  state->claimed.reset(new std::atomic<bool>[n]);
  for (int m = 0; m < n; ++m) {
    state->claimed[m].store(false, std::memory_order_relaxed);
  }
  state->total = n;
  state->member = &member;  // valid: the caller blocks until done == total

  // Run `m` if nobody claimed it yet. Pool tasks that lose the claim race
  // (to the participating caller) return immediately; they may run after
  // the caller has moved on, but then every member is claimed and only
  // the shared_ptr-owned flags are touched.
  auto run_member = [state](int m) {
    if (state->claimed[m].exchange(true, std::memory_order_acq_rel)) return;
    (*state->member)(m);
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->total) {
      std::lock_guard<std::mutex> lk(state->mu);
      state->cv.notify_all();
    }
  };

  std::vector<Worker*> woken;
  woken.reserve(n - 1);
  {
    std::unique_lock<std::mutex> lock(mu_);
    EnsureStartedLocked();
    for (int m = 1; m < n; ++m) {
      std::function<void()> task = [run_member, m] { run_member(m); };
      // Direct handoff to a provably parked worker: the member starts
      // without queue latency.
      if (Worker* w = HandOffLocked(task)) {
        woken.push_back(w);
      } else {
        queue_.push_back(std::move(task));
      }
    }
  }
  for (Worker* w : woken) w->cv.notify_one();
  // Caller participation: run member 0, then claim everything the pool
  // has not started yet. This keeps the gang deadlock-free (a saturated
  // or nested pool degrades to the caller running all members) without
  // spawning overflow threads — dispenser workers need no concurrency.
  for (int m = 0; m < n; ++m) run_member(m);
  std::unique_lock<std::mutex> lk(state->mu);
  state->cv.wait(lk, [&] { return state->done.load() == state->total; });
}

void ThreadPool::RunGang(int n, const std::function<void(int)>& member) {
  if (n <= 0) return;
  if (n == 1) {
    member(0);
    return;
  }
  gangs_run_.fetch_add(1, std::memory_order_relaxed);
  struct GangState {
    std::atomic<int> done{0};
    int total = 0;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<GangState>();
  state->total = n - 1;  // the caller runs member 0 un-tracked

  std::vector<std::function<void()>> overflow_tasks;
  std::vector<Worker*> woken;
  woken.reserve(n - 1);
  {
    std::unique_lock<std::mutex> lock(mu_);
    EnsureStartedLocked();
    for (int m = 1; m < n; ++m) {
      // &member safe: the caller waits below.
      std::function<void()> task = [state, &member, m] {
        member(m);
        if (state->done.fetch_add(1) + 1 == state->total) {
          std::lock_guard<std::mutex> lk(state->mu);
          state->cv.notify_all();
        }
      };
      // Direct handoff: this worker is provably parked, so the member
      // starts immediately — safe for barrier groups.
      if (Worker* w = HandOffLocked(task)) {
        woken.push_back(w);
      } else {
        overflow_tasks.push_back(std::move(task));
      }
    }
  }
  for (Worker* w : woken) w->cv.notify_one();
  std::vector<std::thread> overflow;
  overflow.reserve(overflow_tasks.size());
  for (auto& task : overflow_tasks) {
    overflow_threads_.fetch_add(1, std::memory_order_relaxed);
    overflow.emplace_back(std::move(task));
  }
  member(0);
  {
    std::unique_lock<std::mutex> lk(state->mu);
    state->cv.wait(lk, [&] { return state->done.load() == state->total; });
  }
  for (std::thread& t : overflow) t.join();
}

}  // namespace parj::server
