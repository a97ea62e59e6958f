// synran-trace/2: varint-packed binary trace writer and reader.
//
// BinaryTraceWriter is the JSONL writer's drop-in sibling: the same
// EngineObserver event stream, persisted via the same temp + atomic-rename
// discipline, but ~an order of magnitude smaller (see trace_format.hpp for
// the wire layout). BinaryTraceReader streams a file back into
// TraceRecords, validating structure as it goes — truncation, a bad magic,
// a wrong version, or a corrupt varint raise obs::IoError with the byte
// offset; hostile input can never index out of bounds or over-allocate.
//
// Like the JSONL writer, the binary writer latches the omission and
// corruption gates per run from run_begin's limits, so fail-stop runs pay
// zero bytes for the omission/corruption fields and conversion between the
// formats is bijective.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/atomic_file.hpp"
#include "obs/trace_format.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_writer.hpp"

namespace synran::obs {

/// Header metadata a producer stamps into a synran-trace/2 file. The
/// defaults mark provenance as unknown; batch harnesses pass their seeding
/// schema (exec::kSeedSchemaVersion — obs sits below exec in the layer DAG,
/// so the value arrives as a parameter) and build id.
struct Trace2Header {
  std::uint16_t seed_schema = 0;  ///< 0 = unspecified
  std::string git_rev = "unknown";  ///< truncated to kTrace2GitRevSize
};

/// Streams the observer callbacks as synran-trace/2 records. The header is
/// written lazily before the first record, so an empty run set still yields
/// a self-identifying 24-byte file.
class BinaryTraceWriter final : public TraceWriter {
 public:
  explicit BinaryTraceWriter(std::ostream& out, Trace2Header header = {});

  /// Owning mode: stream into `path + ".tmp"`; close() renames the temp
  /// file onto `path`. Throws IoError if the temp file cannot be opened.
  explicit BinaryTraceWriter(const std::string& path,
                             Trace2Header header = {});

  void on_run_begin(const RunInfo& info) override;
  void on_round_end(const RoundObservation& round) override;
  void on_run_end(const RunObservation& result) override;
  void on_run_abandoned(const RunAbandoned& failure) override;

  bool is_open() const { return sink_.is_open(); }
  void close() override;

  std::uint64_t events_written() const override { return events_; }
  std::uint64_t bytes_written() const override { return bytes_; }
  std::uint64_t runs_written() const { return runs_; }
  TraceFormat format() const override { return TraceFormat::Binary; }

 private:
  void ensure_header();
  void emit(const std::string& record);

  std::ostream* out_ = nullptr;
  Trace2Header header_;
  bool header_written_ = false;
  TraceGates gates_;  ///< latched per run from RunInfo
  std::uint64_t events_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t runs_ = 0;
  std::string scratch_;  ///< reused per-record encode buffer

  AtomicFileSink sink_;  ///< disengaged for the borrowed-stream constructor
};

/// Streams a synran-trace/2 file back into TraceRecords. The header is
/// parsed eagerly in the constructor (so a bad magic fails fast); records
/// decode on next(). A clean EOF at a record boundary ends the stream;
/// anything else — truncation mid-record, an unknown kind tag, an
/// over-long varint, an oversized error string — throws IoError naming the
/// byte offset.
class BinaryTraceReader final : public TraceReader {
 public:
  /// Borrowed stream; must outlive the reader. Throws IoError when the
  /// header is missing or malformed.
  explicit BinaryTraceReader(std::istream& in);

  /// Owning mode: opens `path`; throws IoError when it cannot be read or
  /// its header is malformed.
  explicit BinaryTraceReader(const std::string& path);

  bool next(TraceRecord& out) override;

  std::uint16_t seed_schema() const { return seed_schema_; }
  const std::string& git_rev() const { return git_rev_; }

 private:
  void read_header();
  [[noreturn]] void fail(const std::string& what) const;
  /// One byte; false on clean EOF when `eof_ok`, IoError otherwise.
  bool read_byte(std::uint8_t& out, bool eof_ok);
  std::uint8_t require_byte(const char* what);
  std::uint64_t read_varint(const char* what);
  /// The gated tail of a round (`run_end` false) or run_end record.
  void read_gated(bool run_end, FaultTally& f);

  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  std::string path_;  ///< for error messages; "<stream>" when borrowed
  std::uint64_t offset_ = 0;
  TraceGates gates_;  ///< latched per run from the flags, like the writer
  std::uint16_t seed_schema_ = 0;
  std::string git_rev_;
};

}  // namespace synran::obs
