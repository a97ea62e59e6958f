// Client side of synran-req/1: a `synran serve --stdio` daemon run as a
// child process, and a closed-loop frame client timing each request from
// the frame written to the reply read.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <string_view>

#include "serve/frame.hpp"

namespace perfbench {

/// One request/reply exchange. The framing is the daemon's own
/// (serve::write_frame / serve::FrameReader), so the client cannot drift
/// from the wire format it measures.
class FrameClient {
 public:
  /// Borrows the fds: requests go to `to_daemon`, replies come from
  /// `from_daemon`.
  FrameClient(int to_daemon, int from_daemon);

  /// Sends `body`, blocks for the reply, and returns its latency in ms.
  /// Throws serve::FrameError on a framing error or a stream that ends
  /// before the reply.
  double request(std::string_view body, std::string& reply);

 private:
  int to_;
  synran::serve::FrameReader reader_;
};

/// Exit status and resource use of a reaped child.
struct ChildExit {
  int code = -1;          ///< exit code, or -1 when killed by a signal
  double peak_rss_mb = 0;  ///< ru_maxrss of the child
};

/// `synran serve --stdio --threads 1` over `cache_dir`, with its stderr
/// appended to `log_path`. The destructor closes the request pipe (a clean
/// EOF, on which the daemon exits 0) and reaps the child, so no daemon
/// outlives its owner.
class Daemon {
 public:
  Daemon(const std::string& synran_bin, const std::string& cache_dir,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  FrameClient& client() { return *client_; }

  /// Closes the request pipe and waits for the daemon to exit.
  ChildExit finish();

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::unique_ptr<FrameClient> client_;
};

}  // namespace perfbench
