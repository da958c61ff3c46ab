#include "harness/pool.hh"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/env.hh"

namespace refrint
{

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs > 0)
        return jobs;
    std::uint64_t env = envU64("REFRINT_JOBS", 1);
    constexpr std::uint64_t kMaxJobs = 4096;
    if (env > kMaxJobs) {
        warn("REFRINT_JOBS: clamping %llu to %llu",
             static_cast<unsigned long long>(env),
             static_cast<unsigned long long>(kMaxJobs));
        env = kMaxJobs;
    }
    return env > 0 ? static_cast<unsigned>(env) : 1;
}

void
parallelForWorkers(std::size_t n, unsigned jobs,
                   const std::function<void(std::size_t, unsigned)> &fn)
{
    if (n == 0)
        return;
    jobs = resolveJobs(jobs);
    if (jobs <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i, 0);
        return;
    }
    if (jobs > n)
        jobs = static_cast<unsigned>(n);

    // One shared index counter: each worker claims the next undone
    // index, so load balances dynamically across uneven run times.
    // Thread w hands fn the stable worker id w.
    std::atomic<std::size_t> next{0};
    auto drain = [&](unsigned w) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            fn(i, w);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w)
        threads.emplace_back(drain, w);
    for (std::thread &t : threads)
        t.join();
}

} // namespace refrint
