#include "runner/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>

#include "util/error.h"

namespace psk::runner {

void sweep(std::size_t count,
           const std::vector<std::vector<std::size_t>>& successors,
           const std::function<void(std::size_t)>& body,
           const SweepOptions& options) {
  obs::PhaseProfiler::Scope scope(options.profiler, "sweep");
  util::require(successors.size() == count,
                "sweep: successors must list every unit");
  std::vector<std::size_t> waiting(count, 0);  // unfinished inputs per unit
  for (std::size_t i = 0; i < count; ++i) {
    for (const std::size_t next : successors[i]) {
      util::require(next > i && next < count,
                    "sweep: a successor must come after its input");
      ++waiting[next];
    }
  }

  // Scheduler state, guarded by `mutex`.
  std::mutex mutex;
  std::condition_variable changed;
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;
  for (std::size_t i = 0; i < count; ++i) {
    if (waiting[i] == 0) ready.push(i);
  }
  std::vector<char> failed(count, 0);  // threw, or an input failed
  std::size_t unfinished = count;
  std::exception_ptr failure;
  std::size_t failure_index = 0;
  // A finished unit readies each successor whose last input it was; a
  // successor with a failed input is finished at once without running.
  const std::function<void(std::size_t)> finish = [&](std::size_t i) {
    --unfinished;
    for (const std::size_t next : successors[i]) {
      failed[next] = static_cast<char>(failed[next] | failed[i]);
      if (--waiting[next] != 0) continue;
      if (failed[next] != 0) {
        finish(next);
      } else {
        ready.push(next);
      }
    }
  };
  const auto work = [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      changed.wait(lock, [&] { return !ready.empty() || unfinished == 0; });
      if (ready.empty()) return;
      const std::size_t i = ready.top();
      ready.pop();
      lock.unlock();
      std::exception_ptr error;
      try {
        body(i);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error) {
        failed[i] = 1;
        if (!failure || i < failure_index) {
          failure = error;
          failure_index = i;
        }
      }
      finish(i);
      changed.notify_all();
    }
  };

  // One worker loop per pool slot; the pool lives for one sweep, its spawn
  // cost amortized over simulations of a millisecond or more.
  const std::size_t workers =
      std::min(count, static_cast<std::size_t>(resolve_jobs(options.jobs)));
  if (workers <= 1) {
    work(0);
  } else {
    ThreadPool pool(static_cast<int>(workers));
    pool.parallel_for(workers, work);
  }
  if (failure) std::rethrow_exception(failure);
}

void sweep(std::size_t count, const std::function<void(std::size_t)>& body,
           const SweepOptions& options) {
  sweep(count, std::vector<std::vector<std::size_t>>(count), body, options);
}

}  // namespace psk::runner
