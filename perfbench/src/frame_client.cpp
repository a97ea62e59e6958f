#include "frame_client.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

extern char** environ;

namespace perfbench {

FrameClient::FrameClient(int to_daemon, int from_daemon)
    : to_(to_daemon), reader_(from_daemon) {}

double FrameClient::request(std::string_view body, std::string& reply) {
  const auto t0 = Clock::now();
  synran::serve::write_frame(to_, body);
  if (!reader_.next(reply))
    throw synran::serve::FrameError("daemon closed the stream before replying");
  return seconds_between(t0, Clock::now()) * 1e3;
}

namespace {

std::vector<std::string> daemon_args(const std::string& synran_bin,
                                     const std::string& cache_dir) {
  // A fixed --git-rev keeps cache keys independent of where the benchmark
  // was built, so pre-warmed entries are always found.
  return {synran_bin, "serve",     "--stdio",   "--threads", "1",
          "--cache-dir", cache_dir, "--git-rev", "perfbench"};
}

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Daemon::Daemon(const std::string& synran_bin, const std::string& cache_dir,
               const std::string& log_path) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) sys_fail("pipe");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    sys_fail("pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);

  const auto args = daemon_args(synran_bin, cache_dir);
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, synran_bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (rc != 0) {
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    errno = rc;
    sys_fail("spawn " + synran_bin);
  }
  to_ = in_pipe[1];
  from_ = out_pipe[0];
  client_ = std::make_unique<FrameClient>(to_, from_);
}

ChildExit Daemon::finish() {
  ChildExit out;
  if (pid_ < 0) return out;
  if (to_ >= 0) ::close(to_);
  to_ = -1;
  int status = 0;
  rusage usage{};
  pid_t got = -1;
  do {
    got = ::wait4(pid_, &status, 0, &usage);
  } while (got < 0 && errno == EINTR);
  pid_ = -1;
  if (from_ >= 0) ::close(from_);
  from_ = -1;
  if (got > 0 && WIFEXITED(status)) out.code = WEXITSTATUS(status);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

Daemon::~Daemon() { finish(); }

}  // namespace perfbench
