// End-to-end regression tests for the CLI hardening: malformed numeric flag
// values and typo'd flag names must fail loudly (non-zero exit, diagnostic
// naming the problem) in the psk tool and in the bench binaries, instead of
// being silently misparsed as 0 or ignored; and psk's exit codes for
// missing, damaged and non-archive input files.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "archive/archive.h"
#include "gtest/gtest.h"

namespace {

std::string binary_dir() { return std::string(PSK_BUILD_DIR); }

struct CommandResult {
  int exit_code = 0;
  std::string stderr_text;
};

/// Runs `command`, capturing stderr; stdout is discarded.  The capture file
/// is unique per test process: ctest runs these concurrently.
CommandResult run_command(const std::string& command) {
  static int sequence = 0;
  const std::string err_path = testing::TempDir() + "/cli_test_stderr_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(sequence++) + ".txt";
  const int status = std::system(
      (command + " > /dev/null 2> " + err_path).c_str());
  CommandResult result;
  result.exit_code = status;
  std::ifstream in(err_path);
  std::ostringstream text;
  text << in.rdbuf();
  result.stderr_text = text.str();
  return result;
}

CommandResult run_psk(const std::string& args) {
  return run_command(binary_dir() + "/tools/psk " + args);
}

TEST(CliHardening, PskRejectsMalformedNumericFlag) {
  // --jobs=abc used to strtoll-parse as 0 (thread-count autodetect) and run.
  const CommandResult result = run_psk("predict --app=MG --jobs=abc");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos);
  EXPECT_NE(result.stderr_text.find("abc"), std::string::npos);
}

TEST(CliHardening, PskRejectsPartiallyNumericFlag) {
  const CommandResult result = run_psk("predict --app=MG --target=2.0x");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("--target"), std::string::npos);
}

TEST(CliHardening, PskRejectsTypoFlagListingValidOnes) {
  // --job=4 used to be silently ignored; it must now name the valid flags.
  const CommandResult result = run_psk("predict --app=MG --job=4");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("unknown flag --job"), std::string::npos);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos);
}

TEST(CliHardening, PskRejectsUnknownFlagOnEveryCommand) {
  for (const char* command :
       {"apps", "scenarios", "run", "info", "report", "codegen"}) {
    const CommandResult result =
        run_psk(std::string(command) + " --no-such-flag=1");
    EXPECT_NE(result.exit_code, 0) << command;
    EXPECT_NE(result.stderr_text.find("unknown flag --no-such-flag"),
              std::string::npos)
        << command;
  }
}

TEST(CliHardening, PskRejectsUnknownValidateModeListingValidOnes) {
  // --validate is parsed before any file I/O or tracing, so the typo fails
  // with the configuration exit code (1) and the list of valid modes --
  // even when the rest of the command line would fail later for other
  // reasons (missing file, expensive trace).
  for (const char* command :
       {"run --skeleton=/nonexistent.skel", "predict --app=MG",
        "report --out=/dev/null"}) {
    const CommandResult result =
        run_psk(std::string(command) + " --validate=bogus");
    ASSERT_TRUE(WIFEXITED(result.exit_code)) << command;
    EXPECT_EQ(WEXITSTATUS(result.exit_code), 1) << command;
    EXPECT_NE(result.stderr_text.find("strict|salvage|off"),
              std::string::npos)
        << command << ": " << result.stderr_text;
    EXPECT_NE(result.stderr_text.find("bogus"), std::string::npos) << command;
  }
}

TEST(CliHardening, BenchBinaryRejectsTypoFlag) {
  // --resum (for --resume) used to silently run a full non-resumed sweep.
  const CommandResult result =
      run_command(binary_dir() + "/bench/ext_faults --resum");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("unknown flag --resum"),
            std::string::npos);
  EXPECT_NE(result.stderr_text.find("--resume"), std::string::npos);
}

TEST(CliHardening, BenchBinaryRejectsMalformedJobs) {
  const CommandResult result =
      run_command(binary_dir() + "/bench/ext_faults --jobs=two");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos);
}

TEST(CliHardening, PskTraceHasNoBinaryFlag) {
  const CommandResult result =
      run_psk("trace --app=MG --class=S --out=/dev/null --binary");
  ASSERT_TRUE(WIFEXITED(result.exit_code));
  EXPECT_EQ(WEXITSTATUS(result.exit_code), 1);
  EXPECT_NE(result.stderr_text.find("unknown flag --binary"),
            std::string::npos)
      << result.stderr_text;
}

// ------------------------------------------------------- archive inputs
//
// psk reads PSKARCH1 archives only.  A file that cannot be read is a usage
// error (exit 1); one that is damaged or not an archive is a format error
// (exit 2) whose message says so.

int exit_status(const CommandResult& result) {
  return WIFEXITED(result.exit_code) ? WEXITSTATUS(result.exit_code) : -1;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Each test gets a scratch directory unique to its process, removed
/// afterwards.
class CliArchive : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/cli_archive_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string scratch(const std::string& name) const {
    return dir_ + "/" + name;
  }

 private:
  std::string dir_;
};

TEST_F(CliArchive, MissingTraceExitsOne) {
  const CommandResult result = run_psk("compress --trace=" +
                                       scratch("missing.trace") +
                                       " --out=" + scratch("missing.sig"));
  EXPECT_EQ(exit_status(result), 1) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("cannot open"), std::string::npos)
      << result.stderr_text;
}

TEST_F(CliArchive, TruncatedArchiveOrTextFileExitsTwo) {
  const std::string trace = scratch("t.trace");
  ASSERT_EQ(exit_status(run_psk("trace --app=MG --class=S --out=" + trace)),
            0);
  const std::string torn = scratch("torn.trace");
  const std::string bytes = read_bytes(trace);
  write_bytes(torn, bytes.substr(0, bytes.size() / 2));
  const std::string text = scratch("text.trace");
  write_bytes(text, "psk-trace 1\napp MG\nranks 0\n");
  for (const std::string& input : {torn, text}) {
    for (const std::string& command :
         {"compress --out=" + scratch("o.sig") + " --trace=",
          "skeleton --out=" + scratch("o.skel") + " --trace=",
          std::string("info --trace=")}) {
      const CommandResult result = run_psk(command + input);
      EXPECT_EQ(exit_status(result), 2) << command << input;
      EXPECT_NE(result.stderr_text.find(input + " is not a psk archive"),
                std::string::npos)
          << result.stderr_text;
    }
  }
}

TEST_F(CliArchive, InfoPrintsZeroRankArchives) {
  // A well-formed archive may declare no ranks; info must not read rank 0
  // of such a file.
  psk::sig::Signature signature;
  signature.app_name = "empty";
  psk::skeleton::Skeleton skeleton;
  skeleton.app_name = "empty";
  const std::string sig_path = scratch("empty.sig");
  const std::string skel_path = scratch("empty.skel");
  ASSERT_TRUE(psk::archive::save(sig_path, signature).ok());
  ASSERT_TRUE(psk::archive::save(skel_path, skeleton).ok());
  EXPECT_EQ(exit_status(run_psk("info --signature=" + sig_path)), 0);
  EXPECT_EQ(exit_status(run_psk("info --skeleton=" + skel_path)), 0);
}

TEST_F(CliArchive, SalvageRunsTruncatedSkeleton) {
  const std::string trace = scratch("s.trace");
  const std::string skeleton = scratch("s.skel");
  ASSERT_EQ(exit_status(run_psk("trace --app=MG --class=S --out=" + trace)),
            0);
  ASSERT_EQ(exit_status(run_psk("skeleton --trace=" + trace +
                                " --target=0.05 --out=" + skeleton)),
            0);
  // Half the checksum gone: the strict reader refuses the file, salvage
  // keeps the whole payload and reports where the damage starts.
  const std::string bytes = read_bytes(skeleton);
  write_bytes(skeleton, bytes.substr(0, bytes.size() - 4));
  EXPECT_EQ(exit_status(run_psk("run --skeleton=" + skeleton)), 2);
  const CommandResult result =
      run_psk("run --skeleton=" + skeleton + " --validate=salvage");
  EXPECT_EQ(exit_status(result), 0) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("salvaged"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("(byte "), std::string::npos)
      << result.stderr_text;
}

TEST(CliHardening, PskStillAcceptsValidFlags) {
  EXPECT_EQ(run_psk("apps").exit_code, 0);
  EXPECT_EQ(run_psk("scenarios").exit_code, 0);
}

}  // namespace
