// Tests for the benchmark's own measurement code: the percentile rule,
// span accounting, the pinned-digest check and the frame client.
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "frame_client.hpp"
#include "serve/frame.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_FALSE(percentile_supported(99, 0.9));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(Percentile, HighestSupportedClimbsWithTheSample) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 0.5);
  EXPECT_EQ(highest_supported_percentile(99), 0.5);
  EXPECT_EQ(highest_supported_percentile(100), 0.9);
  EXPECT_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(highest_supported_percentile(10000), 0.999);
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(percentile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(percentile(one_to(10), 1.0), 10.0);
  EXPECT_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(SpanLog, SelfTimesAndResidualAddUpToTheWall) {
  SpanLog log;
  const auto rep = log.name_id("rep");
  const auto phase = log.name_id("phase");
  const auto child = log.name_id("child");
  // [0, 4) rep with two phases, one holding a child; [5, 6) another rep.
  const auto r0 = log.add(rep, 0.0, 4.0, -1, 0);
  const auto p0 = log.add(phase, 0.5, 2.0, r0, 0);
  log.add(child, 1.0, 1.5, p0, 0);
  log.add(phase, 2.0, 3.5, r0, 0);
  log.add(rep, 5.0, 6.0, -1, 1);
  const double wall = 7.0;

  EXPECT_DOUBLE_EQ(log.self_seconds("child"), 0.5);
  EXPECT_DOUBLE_EQ(log.self_seconds("phase"), 1.5 + 1.5 - 0.5);
  EXPECT_DOUBLE_EQ(log.self_seconds("rep"), 4.0 - 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(log.attributed_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(log.residual_seconds(wall), 2.0);
  double sum = log.residual_seconds(wall);
  for (const char* name : {"rep", "phase", "child"}) sum += log.self_seconds(name);
  EXPECT_DOUBLE_EQ(sum, wall);
  EXPECT_EQ(log.self_seconds("absent"), 0.0);
  EXPECT_EQ(log.count("rep"), 2u);
  EXPECT_EQ(log.count("phase"), 2u);
  EXPECT_EQ(log.count("child"), 1u);
  EXPECT_EQ(log.count("absent"), 0u);
}

TEST(SpanLog, TotalsStayExactPastTheKeptSpans) {
  SpanLog log(2);
  const auto a = log.name_id("a");
  const auto b = log.name_id("b");
  std::int32_t parent = -1;
  for (int i = 0; i < 5; ++i) {
    parent = log.add(a, i, i + 1.0, -1, i);
    log.add(b, i + 0.25, i + 0.5, parent, i);
  }
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.kept(), 2u);
  EXPECT_EQ(log.count("b"), 5u);
  EXPECT_DOUBLE_EQ(log.self_seconds("a"), 5 * 0.75);
  EXPECT_DOUBLE_EQ(log.self_seconds("b"), 5 * 0.25);
  EXPECT_THROW(log.add(a, 0, 1, 99, 0), std::logic_error);
}

TEST(WindowRate, MedianOfClosedWindows) {
  WindowRate rate(1.0);
  const auto t0 = Clock::now();
  rate.start(t0);
  EXPECT_EQ(rate.median_rate(), 0.0);
  rate.add(5, t0 + std::chrono::milliseconds(500));   // window still open
  rate.add(5, t0 + std::chrono::milliseconds(1000));  // 10 units in 1 s
  rate.add(40, t0 + std::chrono::milliseconds(2000));  // 40 in 1 s (a burst)
  rate.add(12, t0 + std::chrono::milliseconds(3000));  // 12 in 1 s
  EXPECT_EQ(rate.windows(), 3u);
  EXPECT_DOUBLE_EQ(rate.median_rate(), 12.0);
}

TEST(Digest, ChainsItemsInOrder) {
  Digest empty;
  EXPECT_EQ(empty.hex(), "empty");
  Digest ab, ba, ab2;
  ab.add("a");
  ab.add("b");
  ab2.add("a");
  ab2.add("b");
  ba.add("b");
  ba.add("a");
  EXPECT_EQ(ab.hex(), ab2.hex());
  EXPECT_NE(ab.hex(), ba.hex());
  EXPECT_EQ(ab.hex().size(), 16u);
}

TEST(Digest, PinAppliesOnlyToTheDefaultSeed) {
  Digest d;
  d.add("checkpoint bytes");
  const DigestVerdict match = check_pinned(d, true, d.hex());
  EXPECT_TRUE(match.pinned);
  EXPECT_TRUE(match.matches);

  const DigestVerdict miss = check_pinned(d, true, "0000000000000000");
  EXPECT_TRUE(miss.pinned);
  EXPECT_FALSE(miss.matches);
  EXPECT_EQ(miss.expected, "0000000000000000");
  EXPECT_EQ(miss.actual, d.hex());

  const DigestVerdict other_seed = check_pinned(d, false, "0000000000000000");
  EXPECT_FALSE(other_seed.pinned);
  EXPECT_TRUE(other_seed.matches);

  const DigestVerdict unpinned = check_pinned(d, true, "");
  EXPECT_FALSE(unpinned.pinned);
  EXPECT_TRUE(unpinned.matches);
}

/// Two pipes standing in for a daemon: replies are canned in advance.
struct CannedDaemon {
  int requests[2] = {-1, -1};
  int replies[2] = {-1, -1};
  CannedDaemon() {
    EXPECT_EQ(::pipe(requests), 0);
    EXPECT_EQ(::pipe(replies), 0);
  }
  ~CannedDaemon() {
    for (int fd : {requests[0], requests[1], replies[0], replies[1]})
      if (fd >= 0) ::close(fd);
  }
  void can(const std::string& bytes) const {
    ASSERT_EQ(::write(replies[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void hang_up() {
    ::close(replies[1]);
    replies[1] = -1;
  }
  std::string sent() const {
    char buf[256];
    const ssize_t got = ::read(requests[0], buf, sizeof buf);
    return got > 0 ? std::string(buf, static_cast<std::size_t>(got)) : "";
  }
};

TEST(FrameClient, FramesRequestsAndReadsCannedReplies) {
  CannedDaemon d;
  d.can("5\nhello2\nhi");
  FrameClient client(d.requests[1], d.replies[0]);
  std::string reply;
  const double ms = client.request("ping", reply);
  EXPECT_EQ(reply, "hello");
  EXPECT_GE(ms, 0.0);
  EXPECT_EQ(d.sent(), "4\nping");
  client.request("{}", reply);
  EXPECT_EQ(reply, "hi");
  EXPECT_EQ(d.sent(), "2\n{}");
}

TEST(FrameClient, AStreamThatEndsBeforeTheReplyIsAnError) {
  CannedDaemon d;
  d.hang_up();
  FrameClient client(d.requests[1], d.replies[0]);
  std::string reply;
  EXPECT_THROW(client.request("ping", reply), synran::serve::FrameError);
}

TEST(FrameClient, MalformedAndTruncatedRepliesAreErrors) {
  {
    CannedDaemon d;
    d.can("x\nbody");
    d.hang_up();
    FrameClient client(d.requests[1], d.replies[0]);
    std::string reply;
    EXPECT_THROW(client.request("ping", reply), synran::serve::FrameError);
  }
  {
    CannedDaemon d;
    d.can("10\nshort");
    d.hang_up();
    FrameClient client(d.requests[1], d.replies[0]);
    std::string reply;
    EXPECT_THROW(client.request("ping", reply), synran::serve::FrameError);
  }
}

}  // namespace
}  // namespace perfbench
