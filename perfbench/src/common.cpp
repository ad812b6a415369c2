#include "common.hpp"

#include <spawn.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double run_probe_loop() {
  constexpr std::size_t kWords = std::size_t{1} << 24;  // 64 MiB
  constexpr long kAccesses = 3'000'000;
  void* mem = mmap(nullptr, kWords * sizeof(std::uint32_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 0.0;
  auto* a = static_cast<std::uint32_t*>(mem);
  for (std::size_t i = 0; i < kWords; ++i)  // first touch, untimed
    a[i] = static_cast<std::uint32_t>(i);
  // The median of five timed passes: one pass is disturbed by a neighbour's
  // burst often enough to scatter by tens of percent.
  constexpr int kPasses = 5;
  double pass_s[kPasses];
  std::uint32_t idx = 1;
  std::uint64_t sum = 0;
  for (double& s : pass_s) {
    const auto t0 = Clock::now();
    for (long i = 0; i < kAccesses; ++i) {
      idx = (idx * 1103515245u + 12345u) & (kWords - 1);
      sum += a[idx]++;
    }
    s = seconds_since(t0);
  }
  munmap(mem, kWords * sizeof(std::uint32_t));
  std::nth_element(pass_s, pass_s + kPasses / 2, pass_s + kPasses);
  const double s = pass_s[kPasses / 2];
  // Consume the sum so the loop cannot be elided.
  return sum == 1 ? s + 1e-12 : s;
}

double spawn_probe(const char* exe) {
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  char arg0[] = "perfbench";
  char arg1[] = "--probe";
  char* argv[] = {arg0, arg1, nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[64];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
      out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (rc != 0) return 0.0;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return 0.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return 0.0;
  return std::strtod(out.c_str(), nullptr);
}

void Checks::require(bool ok, const std::string& what) {
  ++count_;
  if (ok) return;
  failures_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  if (n == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // position i*m/4 (1-based), linear interpolation between neighbours.
  auto cut = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp<long>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m - j * 4) / 4.0;
    return v[static_cast<std::size_t>(j - 1)] * (1.0 - delta) +
           v[static_cast<std::size_t>(j)] * delta;
  };
  q.q1 = cut(1);
  q.q2 = cut(2);
  q.q3 = cut(3);
  return q;
}

}  // namespace perfbench
