// Golden checks (ctest label `golden`): observable output compared byte for
// byte with checked-in text, so a change in behaviour shows as a failing
// test instead of a claim in a change log.
//
//   - pskd pipe mode: a fixed request script (tests/golden/pskd_requests.pskf)
//     and the exact response bytes pskd writes for it
//     (tests/golden/pskd_responses.pskf).  The script is rebuilt here from
//     the construction pipeline, so the request file also pins the canonical
//     skeleton and trace bytes the script uploads.
//   - skeleton digests: archive::fingerprint64 of the canonical skeleton
//     bytes (the skeleton_hash pskd reports) for every bundled app at the
//     default class-B skeleton sizes, against
//     tests/golden/skeleton_digests.txt.
//   - fig6: the prediction-error table of `fig6_error_by_scenario --jobs=4`,
//     one row per cell, against pskbench/fig6_reference.txt.
//   - fig3: the prediction-error table of `fig3_error_by_benchmark --jobs=4`
//     (every benchmark at all five skeleton sizes, so the multi-size
//     construction and the good-skeleton estimate run), one row per cell,
//     against tests/golden/fig3_table.txt.
//
// On a mismatch the actual bytes are written under the test's temp directory
// and the failure names the file; a deliberate behaviour change replaces the
// checked-in copy with it and says so in CHANGES.md.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "archive/wire.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "svc/frame.h"

namespace psk {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(PSK_SOURCE_DIR) + "/" + relative;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Writes `bytes` next to the test's scratch files and returns the path.
std::string keep_actual(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + "/golden_actual_" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

void expect_golden(const std::string& golden_relative,
                   const std::string& actual) {
  const std::string golden = read_bytes(source_path(golden_relative));
  if (golden == actual) return;
  const std::string name =
      golden_relative.substr(golden_relative.find_last_of('/') + 1);
  ADD_FAILURE() << golden_relative << " differs from the actual output ("
                << golden.size() << " vs " << actual.size()
                << " bytes); actual bytes kept at "
                << keep_actual(name, actual);
}

/// Runs a built binary with stdin from `input`; returns stdout, and the
/// exit status through `exit_code`.
std::string run(const std::string& command, const std::string& input,
                int* exit_code) {
  const std::string stem = testing::TempDir() + "/golden_run_" +
                           std::to_string(::getpid());
  {
    std::ofstream in(stem + ".in", std::ios::binary | std::ios::trunc);
    in.write(input.data(), static_cast<std::streamsize>(input.size()));
  }
  const int status = std::system((command + " < " + stem + ".in > " + stem +
                                  ".out 2> " + stem + ".err")
                                     .c_str());
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return read_bytes(stem + ".out");
}

// ------------------------------------------------------------------ pskd

template <typename T>
std::string container(archive::PayloadKind kind, std::uint32_t version,
                      const T& value) {
  std::string payload;
  archive::encode(payload, value);
  std::string out;
  archive::write_frame(out, kind, version, payload);
  return out;
}

std::string request_frame(const svc::RequestHeader& header) {
  std::string body;
  svc::encode_request(body, header);
  std::string framed;
  svc::append_frame(framed, svc::FrameKind::kRequest, body);
  return framed;
}

/// The request script: ping, predict by upload, (flush), predict by hash,
/// construct, predict by an unknown hash, and a predict whose upload does
/// not parse (trailing junk) and so takes the salvage fallback.
std::string request_script() {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("MG").make(apps::NasClass::kS), "MG");
  const skeleton::Skeleton skeleton =
      framework.make_skeleton(framework.make_signature(trace, 10.0), 10.0);
  const std::string skeleton_bytes = container(
      archive::PayloadKind::kSkeleton, archive::kSkeletonVersion, skeleton);

  svc::RequestHeader predict;
  predict.op = svc::RequestOp::kPredict;
  predict.seed = 7;
  predict.repetitions = 2;
  predict.scenario = "cpu-one-node";
  predict.archive_bytes = skeleton_bytes;

  std::string stream;
  svc::RequestHeader ping;
  ping.id = 1;
  ping.op = svc::RequestOp::kPing;
  stream += request_frame(ping);
  predict.id = 2;
  stream += request_frame(predict);
  svc::append_frame(stream, svc::FrameKind::kFlush, "");

  svc::RequestHeader by_hash = predict;
  by_hash.id = 3;
  by_hash.archive_bytes.clear();
  by_hash.skeleton_hash = archive::fingerprint64(skeleton_bytes);
  stream += request_frame(by_hash);

  svc::RequestHeader construct;
  construct.id = 4;
  construct.op = svc::RequestOp::kConstruct;
  construct.seed = 7;
  construct.target_k = 10.0;
  construct.archive_bytes = container(archive::PayloadKind::kTrace,
                                      archive::kTraceVersion, trace);
  stream += request_frame(construct);

  svc::RequestHeader unknown = by_hash;
  unknown.id = 5;
  unknown.skeleton_hash = by_hash.skeleton_hash ^ 0x5a5a5a5a5a5a5a5aull;
  stream += request_frame(unknown);

  svc::RequestHeader torn = predict;
  torn.id = 6;
  torn.archive_bytes.push_back('\0');
  stream += request_frame(torn);
  svc::append_frame(stream, svc::FrameKind::kFlush, "");
  return stream;
}

std::vector<svc::ResponseHeader> parse_responses(std::string_view rest) {
  std::vector<svc::ResponseHeader> responses;
  while (!rest.empty()) {
    svc::Frame frame;
    std::size_t consumed = 0;
    archive::Error error;
    if (svc::try_parse_frame(rest, svc::kMaxFrameBytes, frame, consumed,
                             error) != svc::ParseProgress::kFrame) {
      ADD_FAILURE() << "bad response stream: " << error.render();
      break;
    }
    archive::Result<svc::ResponseHeader> response =
        svc::decode_response(frame.body);
    EXPECT_TRUE(response.ok()) << response.error().render();
    if (response.ok()) responses.push_back(response.take());
    rest.remove_prefix(consumed);
  }
  return responses;
}

TEST(GoldenPskd, RequestScriptIsPinned) {
  expect_golden("tests/golden/pskd_requests.pskf", request_script());
}

TEST(GoldenPskd, PipeResponsesArePinned) {
  const std::string requests =
      read_bytes(source_path("tests/golden/pskd_requests.pskf"));
  int exit_code = -1;
  const std::string responses =
      run(std::string(PSK_BUILD_DIR) + "/tools/pskd", requests, &exit_code);
  ASSERT_EQ(exit_code, 0);
  // The script exercises what it says it does, whatever the bytes.
  const std::vector<svc::ResponseHeader> parsed = parse_responses(responses);
  ASSERT_EQ(parsed.size(), 6u);
  EXPECT_EQ(parsed[0].status, svc::StatusCode::kOk);        // ping
  EXPECT_EQ(parsed[1].status, svc::StatusCode::kOk);        // upload
  EXPECT_EQ(parsed[2].status, svc::StatusCode::kOk);        // by hash
  EXPECT_EQ(parsed[2].values, parsed[1].values);
  EXPECT_EQ(parsed[3].status, svc::StatusCode::kOk);        // construct
  EXPECT_FALSE(parsed[3].skeleton_bytes.empty());
  EXPECT_EQ(parsed[4].status, svc::StatusCode::kNotFound);  // unknown hash
  EXPECT_EQ(parsed[5].status, svc::StatusCode::kOk);        // salvaged
  EXPECT_TRUE(parsed[5].degraded);
  expect_golden("tests/golden/pskd_responses.pskf", responses);
}

// ------------------------------------------------------ skeleton digests

TEST(GoldenSkeletons, CanonicalDigestsArePinned) {
  core::ExperimentDriver driver;
  std::ostringstream digests;
  digests << "# app size_s fingerprint64(canonical skeleton bytes), class "
          << apps::class_name(driver.config().app_class) << "\n";
  for (const std::string& app : driver.config().benchmarks) {
    for (double size : driver.config().skeleton_sizes) {
      const std::string bytes =
          container(archive::PayloadKind::kSkeleton, archive::kSkeletonVersion,
                    driver.skeleton_for_size(app, size));
      digests << app << ' ' << size << ' '
              << archive::fingerprint_hex(archive::fingerprint64(bytes))
              << '\n';
    }
  }
  expect_golden("tests/golden/skeleton_digests.txt", digests.str());
}

// ------------------------------------------------------- figure tables

/// "row column value" lines from a rendered util::Table, in table order.
/// The first row names the columns by the first word of each header; the
/// "Average" row and column, derived from the others, are left out.
std::string table_rows(const std::string& output) {
  std::vector<std::string> columns;
  std::ostringstream rows;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, '|')) {
      const std::size_t first = cell.find_first_not_of(' ');
      if (first == std::string::npos) continue;
      cells.push_back(cell.substr(first, cell.find_last_not_of(' ') - first + 1));
    }
    if (cells.empty()) continue;
    if (columns.empty()) {
      for (std::size_t i = 1; i < cells.size(); ++i) {
        columns.push_back(cells[i].substr(0, cells[i].find(' ')));
      }
      continue;
    }
    if (cells[0] == "Average") continue;
    for (std::size_t i = 0; i < columns.size() && i + 1 < cells.size(); ++i) {
      if (columns[i] == "Average") continue;
      rows << cells[0] << ' ' << columns[i] << ' ' << cells[i + 1] << '\n';
    }
  }
  return rows.str();
}

/// A checked-in table's rows: every line but blanks and '#' comments.
std::string reference_rows(const std::string& relative) {
  std::string reference;
  std::istringstream lines(read_bytes(source_path(relative)));
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] != '#') reference += line + "\n";
  }
  return reference;
}

/// Runs a figure binary with --jobs=4 and compares its table's rows with
/// the checked-in reference.
void expect_figure_table(const std::string& binary,
                         const std::string& reference) {
  int exit_code = -1;
  const std::string output =
      run(std::string(PSK_BUILD_DIR) + "/bench/" + binary + " --jobs=4", "",
          &exit_code);
  ASSERT_EQ(exit_code, 0) << output;
  EXPECT_EQ(table_rows(output), reference_rows(reference)) << output;
}

TEST(GoldenFig6, TableMatchesReference) {
  expect_figure_table("fig6_error_by_scenario", "pskbench/fig6_reference.txt");
}

TEST(GoldenFig3, TableMatchesReference) {
  expect_figure_table("fig3_error_by_benchmark", "tests/golden/fig3_table.txt");
}

}  // namespace
}  // namespace psk
