// Tests for trace analysis statistics (communication matrix, histogram,
// call profile) and an end-to-end exercise of the psk CLI binary.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "core/framework.h"
#include "trace/fold.h"
#include "trace/stats.h"

namespace psk::trace {
namespace {

Trace toy_trace() {
  core::SkeletonFramework framework;
  return framework.record(
      [](mpi::Comm& comm) -> sim::Task {
        if (comm.rank() == 0) {
          co_await comm.send(1, 1000);
          co_await comm.send(1, 3000);
          co_await comm.send(2, 500);
        } else if (comm.rank() == 1) {
          co_await comm.recv(0, 1000);
          co_await comm.recv(0, 3000);
        } else if (comm.rank() == 2) {
          co_await comm.recv(0, 500);
        }
        co_await comm.barrier();
      },
      "toy");
}

TEST(CommMatrix, CountsSendsOnce) {
  const CommMatrix matrix = communication_matrix(toy_trace());
  ASSERT_EQ(matrix.ranks, 4);
  EXPECT_DOUBLE_EQ(matrix.bytes[0][1], 4000.0);
  EXPECT_DOUBLE_EQ(matrix.bytes[0][2], 500.0);
  EXPECT_EQ(matrix.messages[0][1], 2u);
  EXPECT_EQ(matrix.messages[0][2], 1u);
  // Receives do not double count; barriers contribute nothing.
  EXPECT_DOUBLE_EQ(matrix.bytes[1][0], 0.0);
  EXPECT_DOUBLE_EQ(matrix.total_bytes(), 4500.0);
  EXPECT_EQ(matrix.total_messages(), 3u);
}

TEST(CommMatrix, ExchangeRegionsCountOutgoingParts) {
  core::SkeletonFramework framework;
  const Trace trace = framework.record(
      [](mpi::Comm& comm) -> sim::Task {
        const int peer = comm.rank() ^ 1;
        std::vector<mpi::Request> reqs;
        reqs.push_back(comm.irecv(peer, 2048));
        reqs.push_back(comm.isend(peer, 2048));
        co_await comm.waitall(std::move(reqs));
      },
      "exchange");
  const CommMatrix matrix = communication_matrix(trace);
  EXPECT_DOUBLE_EQ(matrix.bytes[0][1], 2048.0);
  EXPECT_DOUBLE_EQ(matrix.bytes[1][0], 2048.0);
  EXPECT_EQ(matrix.total_messages(), 4u);  // one per rank pair direction
}

TEST(CommMatrix, RenderShowsCells) {
  const std::string text = communication_matrix(toy_trace()).render();
  EXPECT_NE(text.find("rank 0"), std::string::npos);
  EXPECT_NE(text.find("3.91 KB"), std::string::npos);  // 4000 bytes
}

TEST(Histogram, BucketsByPowerOfTwo) {
  const SizeHistogram histogram = message_size_histogram(toy_trace());
  // 1000 -> bucket 9; 3000 -> bucket 11; 500 -> bucket 8.
  EXPECT_EQ(histogram.buckets.at(9), 1u);
  EXPECT_EQ(histogram.buckets.at(11), 1u);
  EXPECT_EQ(histogram.buckets.at(8), 1u);
  EXPECT_FALSE(histogram.render().empty());
}

TEST(Profile, AggregatesPerCallType) {
  const CallProfile profile = call_profile(toy_trace());
  EXPECT_EQ(profile.entries.at(mpi::CallType::kSend).count, 3u);
  EXPECT_DOUBLE_EQ(profile.entries.at(mpi::CallType::kSend).bytes, 4500.0);
  EXPECT_EQ(profile.entries.at(mpi::CallType::kBarrier).count, 4u);
  EXPECT_GT(profile.entries.at(mpi::CallType::kBarrier).time, 0.0);
  EXPECT_NE(profile.render().find("Barrier"), std::string::npos);
}

// --------------------------------------------------------- CLI end to end

std::string binary_dir() {
  // Tests run from build/tests (ctest working dir varies); locate the psk
  // binary relative to this test binary via the PSK_BUILD_DIR definition.
  return std::string(PSK_BUILD_DIR);
}

int run_cli(const std::string& args) {
  const std::string command =
      binary_dir() + "/tools/psk " + args + " > /dev/null 2>&1";
  return std::system(command.c_str());
}

TEST(CliIntegration, FullPipelineThroughFiles) {
  const std::string dir = testing::TempDir();
  ASSERT_EQ(run_cli("trace --app=MG --class=S --out=" + dir + "/t.trace"), 0);
  ASSERT_EQ(run_cli("compress --trace=" + dir + "/t.trace --out=" + dir +
                    "/t.sig"),
            0);
  ASSERT_EQ(run_cli("skeleton --trace=" + dir + "/t.trace --target=0.05 "
                    "--out=" + dir + "/t.skel"),
            0);
  ASSERT_EQ(run_cli("info --skeleton=" + dir + "/t.skel"), 0);
  ASSERT_EQ(run_cli("run --skeleton=" + dir + "/t.skel "
                    "--scenario=cpu-one-node"),
            0);
  ASSERT_EQ(run_cli("codegen --skeleton=" + dir + "/t.skel --out=" + dir +
                    "/t.c"),
            0);
  ASSERT_EQ(run_cli("info --trace=" + dir + "/t.trace"), 0);
  ASSERT_EQ(run_cli("info --signature=" + dir + "/t.sig"), 0);
  // Every artifact psk writes is a PSKARCH1 archive.
  for (const char* name : {"/t.trace", "/t.sig", "/t.skel"}) {
    std::ifstream in(dir + name, std::ios::binary);
    std::string magic(8, '\0');
    in.read(magic.data(), 8);
    EXPECT_EQ(magic, "PSKARCH1") << name;
  }
}

TEST(CliIntegration, UsageAndErrors) {
  EXPECT_NE(run_cli(""), 0);
  EXPECT_NE(run_cli("bogus-command"), 0);
  EXPECT_NE(run_cli("trace --app=NOPE --out=/tmp/x"), 0);
  EXPECT_NE(run_cli("info --trace=/nonexistent"), 0);
}

}  // namespace
}  // namespace psk::trace
