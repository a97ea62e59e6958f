// Streaming trace readers: decode a persisted trace back into TraceRecords.
//
// Readers are pull-based iterators — next() yields one record at a time, so
// aggregation and conversion never materialize a whole campaign trace in
// memory. Malformed input of any shape (syntax errors, unknown events,
// missing fields, truncation) raises obs::IoError with the offending
// line/offset in the message; readers never crash on hostile bytes.
//
// JsonlTraceReader decodes schema "synran-trace/1" (trace_writer.hpp).
// BinaryTraceReader (trace_binary.hpp) decodes "synran-trace/2". Use
// sniff_trace_format / open_trace_reader (trace_io.hpp) to dispatch on the
// file's leading bytes.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "obs/io_error.hpp"
#include "obs/trace_record.hpp"

namespace synran::obs {

/// Pull-based record stream over a persisted trace.
class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Decodes the next persisted event into `out`. Returns false at a clean
  /// end of input; throws IoError on any malformed or truncated content.
  virtual bool next(TraceRecord& out) = 0;
};

/// Decodes synran-trace/1 JSONL. A run_begin's gated limits are recognized
/// by presence and latch the run's TraceGates, which then require the
/// gated fields of its round and run_end events, as the writer wrote them;
/// the "run" indices the writer derives are validated implicitly by replay
/// (writers re-derive them), not parsed into the records.
class JsonlTraceReader final : public TraceReader {
 public:
  /// Borrowed stream; must outlive the reader.
  explicit JsonlTraceReader(std::istream& in);

  /// Owning mode: opens `path`; throws IoError when it cannot be read.
  explicit JsonlTraceReader(const std::string& path);

  bool next(TraceRecord& out) override;

  /// Lines consumed so far (including blank lines, which are skipped).
  std::uint64_t lines_read() const { return line_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  std::string path_;  ///< for error messages; "<stream>" when borrowed
  std::uint64_t line_ = 0;
  TraceGates gates_;  ///< latched per run from run_begin
};

}  // namespace synran::obs
