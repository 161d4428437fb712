// check_trace_test.cpp — the counterexample trace codec: canonical
// round-trips, and a TraceError from every hostile-input gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "check/trace.hpp"

namespace mpch::check {
namespace {

TraceFile sample_trace() {
  TraceFile trace;
  trace.protocol = "inbox";
  trace.mutation = "skip-dedup";
  trace.bound = "machines=2,rounds=1,messages=2";
  trace.violation = "inbox: duplicate frame (from=0, seq=0) accepted";
  trace.schedule = {
      {(1ULL << 40) | 0, "deliver from=0 seq=0"},
      {(2ULL << 40) | 0, "re-deliver duplicate from=0 seq=0"},
      {3ULL << 40, "barrier"},
  };
  return trace;
}

void expect_trace_error(std::string text, const std::string& needle) {
  try {
    (void)parse_trace(text);
    FAIL() << "expected TraceError containing '" << needle << "'";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(CheckTrace, EncodeParseRoundTrip) {
  const TraceFile original = sample_trace();
  const std::string text = encode_trace(original);
  const TraceFile parsed = parse_trace(text);
  EXPECT_EQ(parsed, original);
  // The encoding is canonical: re-encoding the parse gives the same bytes.
  EXPECT_EQ(encode_trace(parsed), text);
}

TEST(CheckTrace, EmptyBoundAndEmptyScheduleRoundTrip) {
  TraceFile trace;
  trace.protocol = "quarantine";
  trace.violation = "quarantine: core diverged from the policy spec";
  const TraceFile parsed = parse_trace(encode_trace(trace));
  EXPECT_EQ(parsed, trace);
  EXPECT_EQ(parsed.mutation, "none");
  EXPECT_TRUE(parsed.schedule.empty());
}

TEST(CheckTrace, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "check_trace_roundtrip.trace";
  const TraceFile original = sample_trace();
  save_trace(path, original);
  const TraceFile loaded = load_trace(path);
  EXPECT_EQ(loaded, original);
  std::remove(path.c_str());
}

TEST(CheckTrace, LoadMissingFileIsTraceError) {
  EXPECT_THROW((void)load_trace(::testing::TempDir() + "does_not_exist.trace"), TraceError);
}

TEST(CheckTrace, RejectsBadHeader) {
  std::string text = encode_trace(sample_trace());
  text.replace(0, text.find('\n'), "mpch-model-trace v2");
  expect_trace_error(text, "header");
  expect_trace_error("", "line 1");
}

TEST(CheckTrace, RejectsCarriageReturns) {
  std::string text = encode_trace(sample_trace());
  text.insert(text.find('\n'), 1, '\r');
  expect_trace_error(text, "CR");
}

TEST(CheckTrace, RejectsMissingNewlineTermination) {
  std::string text = encode_trace(sample_trace());
  text.pop_back();  // strip the final '\n' after "end"
  expect_trace_error(text, "newline");
}

TEST(CheckTrace, RejectsTrailingBytesAfterEnd) {
  std::string text = encode_trace(sample_trace());
  text += "extra\n";
  expect_trace_error(text, "end");
}

TEST(CheckTrace, RejectsWrongFieldOrder) {
  // Swap the protocol and mutation lines: field order is part of the format.
  TraceFile trace = sample_trace();
  std::string text = encode_trace(trace);
  const std::string proto_line = "protocol inbox\n";
  const std::string mut_line = "mutation skip-dedup\n";
  const std::size_t p = text.find(proto_line);
  ASSERT_NE(p, std::string::npos);
  text.replace(p, proto_line.size() + mut_line.size(), mut_line + proto_line);
  expect_trace_error(text, "line 2");
}

TEST(CheckTrace, RejectsActionCountMismatch) {
  std::string text = encode_trace(sample_trace());
  const std::size_t p = text.find("actions 3");
  ASSERT_NE(p, std::string::npos);
  text.replace(p, 9, "actions 4");
  expect_trace_error(text, "line");
}

TEST(CheckTrace, RejectsHostileActionCount) {
  std::string text = encode_trace(sample_trace());
  const std::size_t p = text.find("actions 3");
  ASSERT_NE(p, std::string::npos);
  // A count above kMaxTraceActions must be rejected before any allocation.
  text.replace(p, 9, "actions 18446744073709551615");
  expect_trace_error(text, "action count");
}

TEST(CheckTrace, RejectsNonNumericActionKey) {
  std::string text = encode_trace(sample_trace());
  const std::size_t p = text.find("1099511627776 deliver");
  ASSERT_NE(p, std::string::npos);
  text.replace(p, 13, "not-a-number!");
  expect_trace_error(text, "key");
}

TEST(CheckTrace, RejectsOversizedFile) {
  std::string text(kMaxTraceFileBytes + 1, 'x');
  expect_trace_error(text, "exceeds");
}

TEST(CheckTrace, RejectsOverlongLine) {
  std::string text = "mpch-model-trace v1\nprotocol ";
  text += std::string(kMaxTraceLineBytes + 1, 'p');
  text += "\n";
  expect_trace_error(text, "line");
}

TEST(CheckTrace, RejectsTruncatedSchedule) {
  std::string text = encode_trace(sample_trace());
  // Cut the file off in the middle of the action list.
  const std::size_t p = text.find("re-deliver");
  ASSERT_NE(p, std::string::npos);
  text.resize(text.rfind('\n', p) + 1);
  expect_trace_error(text, "line");
}

TEST(CheckTrace, EncodeRejectsUnrepresentableFields) {
  TraceFile trace = sample_trace();
  trace.violation = "two\nlines";
  EXPECT_THROW((void)encode_trace(trace), std::invalid_argument);

  trace = sample_trace();
  trace.protocol = "has space";
  EXPECT_THROW((void)encode_trace(trace), std::invalid_argument);

  trace = sample_trace();
  trace.protocol.clear();
  EXPECT_THROW((void)encode_trace(trace), std::invalid_argument);

  trace = sample_trace();
  trace.schedule[0].label = "bad\nlabel";
  EXPECT_THROW((void)encode_trace(trace), std::invalid_argument);
}

TEST(CheckTrace, ParserNeverThrowsAnythingButTraceError) {
  // A grab-bag of hostile inputs: whatever happens, the only exception type
  // allowed out of parse_trace is TraceError. (The fuzz harness enforces the
  // same contract with arbitrary bytes.)
  const std::string good = encode_trace(sample_trace());
  std::vector<std::string> hostile = {
      "\n", "\x00\x01\x02", "mpch-model-trace v1\n",
      "mpch-model-trace v1\nprotocol\n",
      "mpch-model-trace v1\nprotocol inbox\nmutation none\nbound \nviolation v\nactions 0\nend\n",
      good.substr(0, good.size() / 2),
      good + good,
  };
  for (const std::string& text : hostile) {
    try {
      (void)parse_trace(text);
    } catch (const TraceError&) {
      // expected
    } catch (...) {
      FAIL() << "non-TraceError exception for input of size " << text.size();
    }
  }
}

}  // namespace
}  // namespace mpch::check
