#include "obs/trace_binary.hpp"

#include <fstream>
#include <istream>
#include <ostream>

namespace synran::obs {
namespace {

void put_u16(std::string& buf, std::uint16_t v) {
  buf.push_back(static_cast<char>(v & 0xFF));
  buf.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// LEB128: 7 data bits per byte, high bit = continuation.
void put_varint(std::string& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buf.push_back(static_cast<char>(v));
}

/// The gated tail `round` and `run_end` share: the omission pair, then the
/// corruption pair, each only when its gate is on.
void put_gated(std::string& buf, TraceGates gates, const FaultTally& f) {
  if (gates.omissions) {
    put_varint(buf, f.omissions);
    put_varint(buf, f.omitted);
  }
  if (gates.corruptions) {
    put_varint(buf, f.corruptions);
    put_varint(buf, f.corrupted);
  }
}

}  // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream& out, Trace2Header header)
    : out_(&out), header_(std::move(header)) {}

BinaryTraceWriter::BinaryTraceWriter(const std::string& path,
                                     Trace2Header header)
    : header_(std::move(header)), sink_(path) {
  out_ = sink_.stream();
}

void BinaryTraceWriter::ensure_header() {
  if (header_written_) return;
  header_written_ = true;
  // Local buffer: emit() may be mid-flight with scratch_ as its record.
  std::string head;
  put_u64(head, kTrace2Magic);
  put_u16(head, kTrace2Version);
  put_u16(head, header_.seed_schema);
  put_u32(head, 0);  // reserved
  for (std::size_t i = 0; i < kTrace2GitRevSize; ++i) {
    head.push_back(i < header_.git_rev.size() ? header_.git_rev[i] : '\0');
  }
  out_->write(head.data(), static_cast<std::streamsize>(head.size()));
  bytes_ += head.size();
}

void BinaryTraceWriter::emit(const std::string& record) {
  ensure_header();
  out_->write(record.data(), static_cast<std::streamsize>(record.size()));
  bytes_ += record.size();
  ++events_;
}

void BinaryTraceWriter::close() {
  ensure_header();  // even a zero-event trace is a valid, sniffable file
  sink_.close();
}

void BinaryTraceWriter::on_run_begin(const RunInfo& info) {
  ++runs_;
  gates_ = TraceGates::of(info);
  std::uint8_t flags = 0;
  if (gates_.omissions) flags |= kTrace2FlagOmissions;
  if (gates_.corruptions) flags |= kTrace2FlagCorruptions;
  scratch_.clear();
  scratch_.push_back(static_cast<char>(kTrace2KindRunBegin));
  scratch_.push_back(static_cast<char>(flags));
  put_varint(scratch_, info.n);
  put_varint(scratch_, info.t_budget);
  put_varint(scratch_, info.per_round_cap);
  put_varint(scratch_, info.seed);
  if (gates_.omissions) {
    put_varint(scratch_, info.omission_budget);
    put_varint(scratch_, info.omission_round_cap);
  }
  if (gates_.corruptions) {
    put_varint(scratch_, info.byzantine_budget);
    put_varint(scratch_, info.byzantine_round_cap);
  }
  emit(scratch_);
}

void BinaryTraceWriter::on_round_end(const RoundObservation& r) {
  scratch_.clear();
  scratch_.push_back(static_cast<char>(kTrace2KindRound));
  put_varint(scratch_, r.round);
  put_varint(scratch_, r.alive);
  put_varint(scratch_, r.halted);
  put_varint(scratch_, r.senders);
  put_varint(scratch_, r.ones);
  put_varint(scratch_, r.zeros);
  put_varint(scratch_, r.deterministic);
  put_varint(scratch_, r.decided);
  put_varint(scratch_, r.faults.crashes);
  put_varint(scratch_, r.budget_left);
  put_varint(scratch_, r.faults.delivered);
  put_gated(scratch_, gates_, r.faults);
  emit(scratch_);
}

void BinaryTraceWriter::on_run_end(const RunObservation& res) {
  std::uint8_t flags = 0;
  if (res.terminated) flags |= kTrace2EndFlagTerminated;
  if (res.agreement) flags |= kTrace2EndFlagAgreement;
  if (res.has_decision) flags |= kTrace2EndFlagHasDecision;
  if (res.has_decision && res.decision == 1) flags |= kTrace2EndFlagDecisionOne;
  scratch_.clear();
  scratch_.push_back(static_cast<char>(kTrace2KindRunEnd));
  scratch_.push_back(static_cast<char>(flags));
  put_varint(scratch_, res.rounds_to_decision);
  put_varint(scratch_, res.rounds_to_halt);
  put_varint(scratch_, res.faults.crashes);
  put_varint(scratch_, res.faults.delivered);
  put_varint(scratch_, res.survivors);
  put_gated(scratch_, gates_, res.faults);
  emit(scratch_);
  out_->flush();
}

void BinaryTraceWriter::on_run_abandoned(const RunAbandoned& failure) {
  std::string error = failure.error;
  if (error.size() > kTrace2MaxErrorBytes) error.resize(kTrace2MaxErrorBytes);
  scratch_.clear();
  scratch_.push_back(static_cast<char>(kTrace2KindRunAbandoned));
  put_varint(scratch_, failure.rep);
  put_varint(scratch_, failure.seed);
  put_varint(scratch_, failure.attempt);
  put_varint(scratch_, error.size());
  scratch_ += error;
  emit(scratch_);
  out_->flush();
}

BinaryTraceReader::BinaryTraceReader(std::istream& in)
    : in_(&in), path_("<stream>") {
  read_header();
}

BinaryTraceReader::BinaryTraceReader(const std::string& path)
    : owned_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      in_(owned_.get()),
      path_(path) {
  if (!static_cast<std::ifstream&>(*owned_).is_open()) {
    throw IoError("trace: cannot open '" + path + "' for reading");
  }
  read_header();
}

void BinaryTraceReader::fail(const std::string& what) const {
  throw IoError("trace: " + path_ + " @" + std::to_string(offset_) + ": " +
                what);
}

bool BinaryTraceReader::read_byte(std::uint8_t& out, bool eof_ok) {
  const int c = in_->get();
  if (c == std::char_traits<char>::eof()) {
    if (eof_ok && !in_->bad()) return false;
    fail(in_->bad() ? "read failure" : "truncated record");
  }
  out = static_cast<std::uint8_t>(c);
  ++offset_;
  return true;
}

std::uint8_t BinaryTraceReader::require_byte(const char* what) {
  std::uint8_t b = 0;
  if (!read_byte(b, /*eof_ok=*/false)) fail(what);
  return b;
}

std::uint64_t BinaryTraceReader::read_varint(const char* what) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kTrace2MaxVarintBytes; ++i) {
    const std::uint8_t b = require_byte(what);
    // Byte 10 of a u64 varint may only carry its single remaining bit.
    if (i == kTrace2MaxVarintBytes - 1 && (b & 0xFE) != 0) {
      fail(std::string(what) + ": varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if ((b & 0x80) == 0) return value;
  }
  fail(std::string(what) + ": varint longer than 10 bytes");
}

void BinaryTraceReader::read_gated(bool run_end, FaultTally& f) {
  if (gates_.omissions) {
    f.omissions = static_cast<std::uint32_t>(
        read_varint(run_end ? "run_end omissions" : "round omissions"));
    f.omitted = read_varint(run_end ? "run_end omitted" : "round omitted");
  }
  if (gates_.corruptions) {
    f.corruptions = static_cast<std::uint32_t>(
        read_varint(run_end ? "run_end corruptions" : "round corruptions"));
    f.corrupted =
        read_varint(run_end ? "run_end corrupted" : "round corrupted");
  }
}

void BinaryTraceReader::read_header() {
  std::string header(kTrace2HeaderSize, '\0');
  in_->read(header.data(), static_cast<std::streamsize>(header.size()));
  if (in_->gcount() != static_cast<std::streamsize>(header.size())) {
    fail("file shorter than the synran-trace/2 header");
  }
  offset_ = kTrace2HeaderSize;
  std::uint64_t magic = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    magic |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(header[i]))
             << (8 * i);
  }
  if (magic != kTrace2Magic) fail("bad magic (not a synran-trace/2 file)");
  const std::uint16_t version =
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(header[8])) |
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(header[9]) << 8);
  if (version != kTrace2Version) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kTrace2Version) + ")");
  }
  seed_schema_ =
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(header[10])) |
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(header[11]) << 8);
  const std::size_t rev_at = kTrace2HeaderSize - kTrace2GitRevSize;
  git_rev_ = header.substr(rev_at, kTrace2GitRevSize);
  git_rev_.erase(git_rev_.find_last_not_of('\0') + 1);
}

bool BinaryTraceReader::next(TraceRecord& out) {
  std::uint8_t kind = 0;
  if (!read_byte(kind, /*eof_ok=*/true)) return false;

  out = TraceRecord{};
  switch (kind) {
    case kTrace2KindRunBegin: {
      out.kind = TraceRecordKind::RunBegin;
      const std::uint8_t flags = require_byte("run_begin flags");
      if ((flags & ~(kTrace2FlagOmissions | kTrace2FlagCorruptions)) != 0) {
        fail("run_begin carries unknown flags");
      }
      gates_ = {(flags & kTrace2FlagOmissions) != 0,
                (flags & kTrace2FlagCorruptions) != 0};
      RunInfo& b = out.begin;
      b.n = static_cast<std::uint32_t>(read_varint("run_begin n"));
      b.t_budget = static_cast<std::uint32_t>(read_varint("run_begin t"));
      b.per_round_cap =
          static_cast<std::uint32_t>(read_varint("run_begin per_round_cap"));
      b.seed = read_varint("run_begin seed");
      if (gates_.omissions) {
        b.omission_budget = static_cast<std::uint32_t>(
            read_varint("run_begin omission_budget"));
        b.omission_round_cap = static_cast<std::uint32_t>(
            read_varint("run_begin omission_round_cap"));
      }
      if (gates_.corruptions) {
        b.byzantine_budget = static_cast<std::uint32_t>(
            read_varint("run_begin byzantine_budget"));
        b.byzantine_round_cap = static_cast<std::uint32_t>(
            read_varint("run_begin byzantine_round_cap"));
      }
      return true;
    }
    case kTrace2KindRound: {
      out.kind = TraceRecordKind::RoundEnd;
      RoundObservation& r = out.round;
      r.round = static_cast<Round>(read_varint("round round"));
      r.alive = static_cast<std::uint32_t>(read_varint("round alive"));
      r.halted = static_cast<std::uint32_t>(read_varint("round halted"));
      r.senders = static_cast<std::uint32_t>(read_varint("round senders"));
      r.ones = static_cast<std::uint32_t>(read_varint("round ones"));
      r.zeros = static_cast<std::uint32_t>(read_varint("round zeros"));
      r.deterministic = static_cast<std::uint32_t>(read_varint("round det"));
      r.decided = static_cast<std::uint32_t>(read_varint("round decided"));
      r.faults.crashes =
          static_cast<std::uint32_t>(read_varint("round crashes"));
      r.budget_left =
          static_cast<std::uint32_t>(read_varint("round budget_left"));
      r.faults.delivered = read_varint("round delivered");
      read_gated(/*run_end=*/false, r.faults);
      return true;
    }
    case kTrace2KindRunEnd: {
      out.kind = TraceRecordKind::RunEnd;
      const std::uint8_t flags = require_byte("run_end flags");
      constexpr std::uint8_t known =
          kTrace2EndFlagTerminated | kTrace2EndFlagAgreement |
          kTrace2EndFlagHasDecision | kTrace2EndFlagDecisionOne;
      if ((flags & ~known) != 0) fail("run_end carries unknown flags");
      RunObservation& res = out.end;
      res.terminated = (flags & kTrace2EndFlagTerminated) != 0;
      res.agreement = (flags & kTrace2EndFlagAgreement) != 0;
      res.has_decision = (flags & kTrace2EndFlagHasDecision) != 0;
      res.decision =
          res.has_decision && (flags & kTrace2EndFlagDecisionOne) != 0 ? 1 : 0;
      res.rounds_to_decision = static_cast<std::uint32_t>(
          read_varint("run_end rounds_to_decision"));
      res.rounds_to_halt =
          static_cast<std::uint32_t>(read_varint("run_end rounds_to_halt"));
      res.faults.crashes =
          static_cast<std::uint32_t>(read_varint("run_end crashes"));
      res.faults.delivered = read_varint("run_end delivered");
      res.survivors =
          static_cast<std::uint32_t>(read_varint("run_end survivors"));
      read_gated(/*run_end=*/true, res.faults);
      return true;
    }
    case kTrace2KindRunAbandoned: {
      out.kind = TraceRecordKind::RunAbandoned;
      RunAbandoned& ab = out.abandoned;
      ab.rep =
          static_cast<std::size_t>(read_varint("run_abandoned rep"));
      ab.seed = read_varint("run_abandoned seed");
      ab.attempt =
          static_cast<std::uint32_t>(read_varint("run_abandoned attempt"));
      const std::uint64_t len = read_varint("run_abandoned error_len");
      if (len > kTrace2MaxErrorBytes) {
        fail("run_abandoned error length " + std::to_string(len) +
             " exceeds the 1 MiB cap");
      }
      ab.error.resize(static_cast<std::size_t>(len));
      for (std::size_t i = 0; i < ab.error.size(); ++i) {
        ab.error[i] =
            static_cast<char>(require_byte("run_abandoned error text"));
      }
      return true;
    }
    default:
      fail("unknown record kind " + std::to_string(kind));
  }
}

}  // namespace synran::obs
