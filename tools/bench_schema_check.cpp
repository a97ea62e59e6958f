// bench_schema_check — validates the machine-readable artifacts the
// observability layer emits, for CI and for humans wiring up downstream
// tooling.
//
//   bench_schema_check BENCH_e1.json ...         # synran-bench/1 reports
//   bench_schema_check --trace run.jsonl ...     # synran-trace/1 JSONL
//   bench_schema_check --trace run.bin ...       # synran-trace/2 binary
//   bench_schema_check --canon BENCH_e1.json     # canonical form to stdout
//
// Prints one verdict line per file; exits 0 iff every file validates.
// --trace sniffs each file's format from its leading bytes (the
// synran-trace/2 magic vs JSONL's '{'). The binary walk deliberately
// re-implements the wire layout from the kTrace2* constants
// (obs/trace_format.hpp) instead of reusing obs::BinaryTraceReader, so a
// shared decode bug cannot self-certify; the schema-literals lint rule
// keeps the constant set here in lockstep with src/obs.
// --canon validates one report, then prints it with the run-dependent
// fields (timings, git_rev, threads, trace_overhead) stripped — two runs
// of the same experiment are equivalent iff their canonical forms are
// byte-identical, which is how the resume tests prove a checkpointed rerun
// reproduces an uninterrupted one and the thread-invariance tests prove a
// parallel sweep reproduces a serial one. EXPERIMENTS.md documents the
// schemas field by field.
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace_format.hpp"
#include "obs/trace_writer.hpp"

namespace {

using synran::obs::JsonValue;

/// Collects every problem in one file so a broken report shows all its
/// defects at once instead of one per CI round-trip.
struct Check {
  std::vector<std::string> problems;

  void fail(const std::string& what) { problems.push_back(what); }

  const JsonValue* field(const JsonValue& obj, const std::string& key) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) fail("missing field \"" + key + "\"");
    return v;
  }

  const JsonValue* typed(const JsonValue& obj, const std::string& key,
                         bool (JsonValue::*pred)() const,
                         const char* type_name) {
    const JsonValue* v = field(obj, key);
    if (v != nullptr && !(v->*pred)()) {
      fail("field \"" + key + "\" is not " + type_name);
      return nullptr;
    }
    return v;
  }
};

/// One run's six fault counters in FaultTally order: the sums a walk
/// gathers from the round records, or the totals a run_end claims. The
/// JSONL walk keeps JSON's int64, the binary walk the raw varints.
template <typename T>
using Tally = std::array<T, 6>;

constexpr std::array<const char*, 6> kTallyKeys = {
    "crashes", "delivered", "omissions", "omitted", "corruptions", "corrupted"};
/// What each mismatch message calls the round-level counts it summed.
constexpr std::array<const char*, 6> kTallyNouns = {
    "crashes",       "deliveries",  "omissions",
    "omitted links", "corruptions", "corrupted links"};

/// Reports every field `present` in a run_end whose claimed total differs
/// from the sum of its rounds; `at` prefixes each message.
template <typename T>
void compare_tally(const Tally<T>& claimed, const Tally<T>& sum,
                   const std::array<bool, 6>& present, const std::string& at,
                   Check& c) {
  for (std::size_t i = 0; i < kTallyKeys.size(); ++i)
    if (present[i] && claimed[i] != sum[i])
      c.fail(at + ": run_end." + kTallyKeys[i] + " (" +
             std::to_string(claimed[i]) + ") != sum of round " +
             kTallyNouns[i] + " (" + std::to_string(sum[i]) + ")");
}

void check_bench_report(const JsonValue& doc, Check& c) {
  if (!doc.is_object()) {
    c.fail("document is not a JSON object");
    return;
  }
  if (const auto* schema =
          c.typed(doc, "schema", &JsonValue::is_string, "a string");
      schema != nullptr && schema->as_string() != "synran-bench/1")
    c.fail("schema is \"" + schema->as_string() +
           "\", expected \"synran-bench/1\"");
  if (const auto* exp =
          c.typed(doc, "experiment", &JsonValue::is_string, "a string");
      exp != nullptr && exp->as_string().empty())
    c.fail("experiment name is empty");
  c.typed(doc, "seed", &JsonValue::is_int, "an integer");
  c.typed(doc, "git_rev", &JsonValue::is_string, "a string");
  // Additive field (absent in pre-executor artifacts): if present it must be
  // a positive integer worker count.
  if (const auto* threads = doc.find("threads"); threads != nullptr) {
    if (!threads->is_int() || threads->as_int() < 1)
      c.fail("threads is present but not a positive integer");
  }
  // Additive field (omission experiments only): an array of
  // {drop_rate in [0,1], budget >= 0} configurations.
  if (const auto* oms = doc.find("omissions"); oms != nullptr) {
    if (!oms->is_array()) {
      c.fail("omissions is present but not an array");
    } else {
      for (std::size_t i = 0; i < oms->as_array().size(); ++i) {
        const auto& om = oms->as_array()[i];
        const std::string at = "omissions[" + std::to_string(i) + "]";
        if (!om.is_object()) {
          c.fail(at + " is not an object");
          continue;
        }
        const auto* rate = om.find("drop_rate");
        if (rate == nullptr || !rate->is_number())
          c.fail(at + ".drop_rate is not a number");
        else if (rate->as_double() < 0.0 || rate->as_double() > 1.0)
          c.fail(at + ".drop_rate is outside [0, 1]");
        const auto* budget = om.find("budget");
        if (budget == nullptr || !budget->is_int())
          c.fail(at + ".budget is not an integer");
        else if (budget->as_int() < 0)
          c.fail(at + ".budget is negative");
      }
    }
  }

  // Additive field (corruption experiments only): an array of
  // {corrupt_rate in [0,1], budget >= 0} configurations.
  if (const auto* cors = doc.find("corruptions"); cors != nullptr) {
    if (!cors->is_array()) {
      c.fail("corruptions is present but not an array");
    } else {
      for (std::size_t i = 0; i < cors->as_array().size(); ++i) {
        const auto& cor = cors->as_array()[i];
        const std::string at = "corruptions[" + std::to_string(i) + "]";
        if (!cor.is_object()) {
          c.fail(at + " is not an object");
          continue;
        }
        const auto* rate = cor.find("corrupt_rate");
        if (rate == nullptr || !rate->is_number())
          c.fail(at + ".corrupt_rate is not a number");
        else if (rate->as_double() < 0.0 || rate->as_double() > 1.0)
          c.fail(at + ".corrupt_rate is outside [0, 1]");
        const auto* budget = cor.find("budget");
        if (budget == nullptr || !budget->is_int())
          c.fail(at + ".budget is not an integer");
        else if (budget->as_int() < 0)
          c.fail(at + ".budget is negative");
      }
    }
  }

  // Additive block (traced batches only): the trace-write overhead the
  // harness measured. Wall-clock fields, so --canon strips it like timings.
  if (const auto* overhead = doc.find("trace_overhead"); overhead != nullptr) {
    if (!overhead->is_object()) {
      c.fail("trace_overhead is present but not an object");
    } else {
      const auto* fmt = overhead->find("format");
      if (fmt == nullptr || !fmt->is_string() ||
          !synran::obs::parse_trace_format(fmt->as_string()).has_value())
        c.fail("trace_overhead.format is not \"jsonl\" or \"bin\"");
      for (const char* key : {"files", "events", "bytes"}) {
        const auto* v = overhead->find(key);
        if (v == nullptr || !v->is_int() || v->as_int() < 0)
          c.fail(std::string("trace_overhead.") + key +
                 " is not a non-negative integer");
      }
      if (const auto* v = overhead->find("files");
          v != nullptr && v->is_int() && v->as_int() < 1)
        c.fail("trace_overhead.files is not positive");
      for (const char* key : {"write_seconds", "batch_seconds",
                              "write_share"}) {
        const auto* v = overhead->find(key);
        if (v == nullptr || !v->is_number() || v->as_double() < 0.0)
          c.fail(std::string("trace_overhead.") + key +
                 " is not a non-negative number");
      }
    }
  }

  // Additive field: present (and true) only when a report was flushed after
  // an interruption — its tables/timings cover a prefix of the experiment.
  if (const auto* partial = doc.find("partial"); partial != nullptr) {
    if (!partial->is_bool())
      c.fail("partial is present but not a boolean");
  }
  // Additive field (quarantine policy only): one entry per quarantined rep,
  // tagged with the cell ordinal it belongs to.
  if (const auto* failures = doc.find("failures"); failures != nullptr) {
    if (!failures->is_array()) {
      c.fail("failures is present but not an array");
    } else {
      for (std::size_t i = 0; i < failures->as_array().size(); ++i) {
        const auto& f = failures->as_array()[i];
        const std::string at = "failures[" + std::to_string(i) + "]";
        if (!f.is_object()) {
          c.fail(at + " is not an object");
          continue;
        }
        for (const char* key : {"cell", "rep", "seed", "attempts"}) {
          const auto* v = f.find(key);
          if (v == nullptr || !v->is_int())
            c.fail(at + "." + key + " is not an integer");
        }
        if (const auto* v = f.find("attempts");
            v != nullptr && v->is_int() && v->as_int() < 1)
          c.fail(at + ".attempts is not positive");
        if (const auto* v = f.find("error"); v == nullptr || !v->is_string())
          c.fail(at + ".error is not a string");
      }
    }
  }

  if (const auto* grid =
          c.typed(doc, "grid", &JsonValue::is_array, "an array")) {
    for (std::size_t i = 0; i < grid->as_array().size(); ++i) {
      const auto& pt = grid->as_array()[i];
      const std::string at = "grid[" + std::to_string(i) + "]";
      if (!pt.is_object()) {
        c.fail(at + " is not an object");
        continue;
      }
      for (const char* key : {"n", "t"}) {
        const auto* v = pt.find(key);
        if (v == nullptr || !v->is_int())
          c.fail(at + "." + key + " is not an integer");
      }
    }
  }

  if (const auto* tables =
          c.typed(doc, "tables", &JsonValue::is_array, "an array")) {
    for (std::size_t i = 0; i < tables->as_array().size(); ++i) {
      const auto& table = tables->as_array()[i];
      const std::string at = "tables[" + std::to_string(i) + "]";
      if (!table.is_object()) {
        c.fail(at + " is not an object");
        continue;
      }
      const auto* title = table.find("title");
      if (title == nullptr || !title->is_string())
        c.fail(at + ".title is not a string");
      const auto* columns = table.find("columns");
      std::size_t width = 0;
      if (columns == nullptr || !columns->is_array()) {
        c.fail(at + ".columns is not an array");
      } else {
        width = columns->as_array().size();
        for (const auto& col : columns->as_array())
          if (!col.is_string()) c.fail(at + ".columns has a non-string");
      }
      const auto* rows = table.find("rows");
      if (rows == nullptr || !rows->is_array()) {
        c.fail(at + ".rows is not an array");
      } else {
        for (std::size_t r = 0; r < rows->as_array().size(); ++r) {
          const auto& row = rows->as_array()[r];
          if (!row.is_array()) {
            c.fail(at + ".rows[" + std::to_string(r) + "] is not an array");
            continue;
          }
          if (columns != nullptr && columns->is_array() &&
              row.as_array().size() > width)
            c.fail(at + ".rows[" + std::to_string(r) + "] is wider than "
                   "the header");
          for (const auto& cell : row.as_array())
            if (!cell.is_string() && !cell.is_number())
              c.fail(at + ".rows[" + std::to_string(r) +
                     "] has a cell that is neither string nor number");
        }
      }
    }
  }

  if (const auto* timings =
          c.typed(doc, "timings", &JsonValue::is_array, "an array")) {
    for (std::size_t i = 0; i < timings->as_array().size(); ++i) {
      const auto& t = timings->as_array()[i];
      const std::string at = "timings[" + std::to_string(i) + "]";
      if (!t.is_object()) {
        c.fail(at + " is not an object");
        continue;
      }
      const auto* name = t.find("name");
      if (name == nullptr || !name->is_string())
        c.fail(at + ".name is not a string");
      if (const auto* v = t.find("iterations"); v != nullptr && !v->is_int())
        c.fail(at + ".iterations is not an integer");
      for (const char* key : {"real_time", "cpu_time"})
        if (const auto* v = t.find(key); v != nullptr && !v->is_number())
          c.fail(at + "." + key + " is not a number");
      if (const auto* v = t.find("time_unit"); v != nullptr && !v->is_string())
        c.fail(at + ".time_unit is not a string");
    }
  }
}

/// Validates one synran-trace/1 JSONL stream: every line parses, events come
/// in run_begin → round* → run_end order, each run's round-level counts sum
/// to the totals its run_end claims, and a gated run carries its gated
/// fields. The gates are latched per run from run_begin as obs::TraceGates
/// decides them (an omission or byzantine budget or round cap above 0), so
/// this accepts exactly the gated lines JsonlTraceReader reads.
void check_trace_stream(std::istream& in, Check& c) {
  std::string line;
  std::size_t line_no = 0;
  bool in_run = false;
  std::int64_t expected_run = 0;
  Tally<std::int64_t> sum{};
  // Which tally keys the open run's round and run_end lines must carry.
  std::array<bool, 6> gated{};
  const auto limit_open = [](const JsonValue& ev, const char* budget,
                             const char* cap) {
    for (const char* key : {budget, cap})
      if (const auto* v = ev.find(key);
          v != nullptr && v->is_int() && v->as_int() > 0)
        return true;
    return false;
  };
  const auto require_gated = [&](const JsonValue& ev, const std::string& at,
                                 const char* kind) {
    for (std::size_t i = 0; i < kTallyKeys.size(); ++i)
      if (gated[i] && ev.find(kTallyKeys[i]) == nullptr)
        c.fail(at + ": " + kind + "." + kTallyKeys[i] +
               " is missing, but run_begin's " +
               (i < 4 ? "omission" : "byzantine") +
               " budget or round cap gates it in");
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string at = "line " + std::to_string(line_no);
    std::string err;
    const auto parsed = JsonValue::parse(line, &err);
    if (!parsed.has_value()) {
      c.fail(at + ": parse error: " + err);
      continue;
    }
    if (!parsed->is_object()) {
      c.fail(at + ": event is not an object");
      continue;
    }
    const auto* event = parsed->find("event");
    if (event == nullptr || !event->is_string()) {
      c.fail(at + ": missing \"event\"");
      continue;
    }
    const auto* run = parsed->find("run");
    if (run == nullptr || !run->is_int()) {
      c.fail(at + ": missing integer \"run\"");
      continue;
    }
    const std::string& kind = event->as_string();

    if (kind == "run_begin") {
      if (in_run) c.fail(at + ": run_begin inside an open run");
      const auto* schema = parsed->find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->as_string() != synran::obs::kTraceSchema)
        c.fail(at + ": run_begin schema is not \"" +
               std::string(synran::obs::kTraceSchema) + "\"");
      if (run->as_int() != expected_run)
        c.fail(at + ": run index " + std::to_string(run->as_int()) +
               ", expected " + std::to_string(expected_run));
      for (const char* key : {"n", "t", "per_round_cap", "seed"})
        if (const auto* v = parsed->find(key); v == nullptr || !v->is_int())
          c.fail(at + ": run_begin." + key + " is not an integer");
      // Additive fields, emitted only for runs with an omission budget
      // (and, likewise, only for runs with a byzantine budget).
      for (const char* key : {"omission_budget", "omission_round_cap",
                              "byzantine_budget", "byzantine_round_cap"})
        if (const auto* v = parsed->find(key); v != nullptr && !v->is_int())
          c.fail(at + ": run_begin." + key + " is present but not an integer");
      const bool omissions =
          limit_open(*parsed, "omission_budget", "omission_round_cap");
      const bool corruptions =
          limit_open(*parsed, "byzantine_budget", "byzantine_round_cap");
      gated = {false, false, omissions, omissions, corruptions, corruptions};
      in_run = true;
      sum = {};
    } else if (kind == "round") {
      if (!in_run) c.fail(at + ": round outside a run");
      for (const char* key :
           {"round", "alive", "halted", "senders", "ones", "zeros", "det",
            "decided", "crashes", "budget_left", "delivered"})
        if (const auto* v = parsed->find(key); v == nullptr || !v->is_int())
          c.fail(at + ": round." + key + " is not an integer");
      // Additive round fields under an omission or byzantine budget.
      for (const char* key : {"omissions", "omitted", "corruptions",
                              "corrupted"})
        if (const auto* v = parsed->find(key); v != nullptr && !v->is_int())
          c.fail(at + ": round." + key + " is present but not an integer");
      require_gated(*parsed, at, "round");
      for (std::size_t i = 0; i < kTallyKeys.size(); ++i)
        if (const auto* v = parsed->find(kTallyKeys[i]);
            v != nullptr && v->is_int())
          sum[i] += v->as_int();
    } else if (kind == "run_end") {
      if (!in_run) c.fail(at + ": run_end outside a run");
      for (const char* key : {"terminated", "agreement"})
        if (const auto* v = parsed->find(key); v == nullptr || !v->is_bool())
          c.fail(at + ": run_end." + key + " is not a boolean");
      const auto* decision = parsed->find("decision");
      if (decision == nullptr ||
          (!decision->is_null() && !decision->is_int()))
        c.fail(at + ": run_end.decision is neither null nor an integer");
      for (const char* key : {"rounds_to_decision", "rounds_to_halt",
                              "crashes", "delivered", "survivors"})
        if (const auto* v = parsed->find(key); v == nullptr || !v->is_int())
          c.fail(at + ": run_end." + key + " is not an integer");
      for (const char* key : {"omissions", "omitted", "corruptions",
                              "corrupted"})
        if (const auto* v = parsed->find(key); v != nullptr && !v->is_int())
          c.fail(at + ": run_end." + key + " is present but not an integer");
      require_gated(*parsed, at, "run_end");
      // Every integer total it carries must equal the sum of its rounds.
      Tally<std::int64_t> claimed{};
      std::array<bool, 6> present{};
      for (std::size_t i = 0; i < kTallyKeys.size(); ++i) {
        const auto* v = parsed->find(kTallyKeys[i]);
        present[i] = v != nullptr && v->is_int();
        if (present[i]) claimed[i] = v->as_int();
      }
      compare_tally(claimed, sum, present, at, c);
      in_run = false;
      ++expected_run;
    } else if (kind == "run_abandoned") {
      // A repetition attempt died (retry exhaustion or retry in progress).
      // The event may close an open run (engine threw mid-run) or stand
      // alone (setup threw before run_begin); either way its run index is
      // the slot the attempt occupied, i.e. the current expected run.
      if (run->as_int() != expected_run)
        c.fail(at + ": run_abandoned index " + std::to_string(run->as_int()) +
               ", expected " + std::to_string(expected_run));
      for (const char* key : {"rep", "seed", "attempt"})
        if (const auto* v = parsed->find(key); v == nullptr || !v->is_int())
          c.fail(at + ": run_abandoned." + key + " is not an integer");
      if (const auto* v = parsed->find("error");
          v == nullptr || !v->is_string())
        c.fail(at + ": run_abandoned.error is not a string");
      if (in_run) {
        in_run = false;
        ++expected_run;
      }
    } else {
      c.fail(at + ": unknown event \"" + kind + "\"");
    }
  }
  if (in_run) c.fail("stream ends inside an open run (no run_end)");
  if (line_no == 0) c.fail("stream is empty");
}

/// Validates one synran-trace/2 binary stream by walking the wire layout
/// directly off the kTrace2* constants: header (magic, version, reserved,
/// NUL-padded git_rev), per-record kind tags and flag bits, LEB128 varints
/// with the overlong-encoding cap, the omission gate latched per run, and
/// the same event-order and crash/delivery/omission sum cross-checks the
/// JSONL checker applies. A header-only file is valid (an empty run set
/// still self-identifies); structural damage stops the walk at the first
/// undecodable byte.
void check_trace2_stream(const std::string& data, Check& c) {
  using namespace synran::obs;

  if (data.size() < kTrace2HeaderSize) {
    c.fail("file is shorter than the " + std::to_string(kTrace2HeaderSize) +
           "-byte " + std::string(kTrace2Schema) + " header");
    return;
  }
  auto u8 = [&data](std::size_t i) {
    return static_cast<std::uint8_t>(data[i]);
  };
  auto le = [&u8](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(u8(at + i)) << (8 * i);
    return v;
  };
  if (le(0, 8) != kTrace2Magic) {
    c.fail("bad magic — not a " + std::string(kTrace2Schema) + " file");
    return;
  }
  if (le(8, 2) != kTrace2Version)
    c.fail("version " + std::to_string(le(8, 2)) + ", expected " +
           std::to_string(kTrace2Version));
  // Bytes 10..11 are the producer's seed schema — any value is valid.
  if (le(12, 4) != 0) c.fail("reserved header word is not zero");
  // git_rev is NUL-padded: once padding starts, it must not resume.
  bool padding = false;
  for (std::size_t i = 0; i < kTrace2GitRevSize; ++i) {
    const std::uint8_t b = u8(16 + i);
    if (b == 0)
      padding = true;
    else if (padding)
      c.fail("git_rev has bytes after its NUL padding");
  }

  std::size_t pos = kTrace2HeaderSize;
  auto fail_at = [&c](std::size_t at, const std::string& what) {
    c.fail("offset " + std::to_string(at) + ": " + what);
  };
  // LEB128, at most kTrace2MaxVarintBytes bytes; the last permitted byte of
  // a u64 may only carry its single valid data bit and no continuation.
  auto varint = [&](std::uint64_t& out, const char* what) -> bool {
    std::uint64_t v = 0;
    int shift = 0;
    std::size_t n = 0;
    while (true) {
      if (pos >= data.size()) {
        fail_at(pos, std::string("truncated varint (") + what + ")");
        return false;
      }
      const std::uint8_t b = u8(pos++);
      if (++n == kTrace2MaxVarintBytes && (b & 0xFE) != 0) {
        fail_at(pos - 1, std::string("overlong varint (") + what + ")");
        return false;
      }
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      shift += 7;
      if ((b & 0x80) == 0) break;
    }
    out = v;
    return true;
  };

  bool in_run = false;
  bool omissions = false;
  bool corruptions = false;
  Tally<std::uint64_t> sum{};
  // The gated tail of a round or run_end record, starting at `f`: the
  // omission pair, then the corruption pair, each only when its flag is set.
  auto gated = [&](const std::uint64_t* f, Tally<std::uint64_t>& t) {
    if (omissions) {
      t[2] = *f++;
      t[3] = *f++;
    }
    if (corruptions) {
      t[4] = *f++;
      t[5] = *f;
    }
  };

  while (pos < data.size()) {
    const std::size_t at = pos;
    const std::uint8_t kind = u8(pos++);
    if (kind == kTrace2KindRunBegin) {
      if (in_run) fail_at(at, "run_begin inside an open run");
      if (pos >= data.size()) {
        fail_at(pos, "truncated run_begin flags");
        return;
      }
      const std::uint8_t flags = u8(pos++);
      if ((flags & ~(kTrace2FlagOmissions | kTrace2FlagCorruptions)) != 0)
        fail_at(at, "unknown run_begin flag bits");
      omissions = (flags & kTrace2FlagOmissions) != 0;
      corruptions = (flags & kTrace2FlagCorruptions) != 0;
      const std::size_t count = kTrace2RunBeginFields +
                                (omissions ? kTrace2OmissionFields : 0) +
                                (corruptions ? kTrace2CorruptionFields : 0);
      std::uint64_t v = 0;
      for (std::size_t f = 0; f < count; ++f)
        if (!varint(v, "run_begin field")) return;
      in_run = true;
      sum = {};
    } else if (kind == kTrace2KindRound) {
      if (!in_run) fail_at(at, "round outside a run");
      std::uint64_t fields[kTrace2RoundFields + kTrace2OmissionFields +
                           kTrace2CorruptionFields] = {};
      const std::size_t count = kTrace2RoundFields +
                                (omissions ? kTrace2OmissionFields : 0) +
                                (corruptions ? kTrace2CorruptionFields : 0);
      for (std::size_t f = 0; f < count; ++f)
        if (!varint(fields[f], "round field")) return;
      // Field order per trace_format.hpp: crashes is the 9th varint,
      // delivered the 11th, then the gated tail.
      Tally<std::uint64_t> round{fields[8], fields[10]};
      gated(fields + kTrace2RoundFields, round);
      for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += round[i];
    } else if (kind == kTrace2KindRunEnd) {
      if (!in_run) fail_at(at, "run_end outside a run");
      if (pos >= data.size()) {
        fail_at(pos, "truncated run_end flags");
        return;
      }
      const std::uint8_t flags = u8(pos++);
      constexpr std::uint8_t known =
          kTrace2EndFlagTerminated | kTrace2EndFlagAgreement |
          kTrace2EndFlagHasDecision | kTrace2EndFlagDecisionOne;
      if ((flags & ~known) != 0) fail_at(at, "unknown run_end flag bits");
      if ((flags & kTrace2EndFlagDecisionOne) != 0 &&
          (flags & kTrace2EndFlagHasDecision) == 0)
        fail_at(at, "run_end decision-one flag without a decision");
      std::uint64_t fields[kTrace2RunEndFields + kTrace2OmissionFields +
                           kTrace2CorruptionFields] = {};
      const std::size_t count = kTrace2RunEndFields +
                                (omissions ? kTrace2OmissionFields : 0) +
                                (corruptions ? kTrace2CorruptionFields : 0);
      for (std::size_t f = 0; f < count; ++f)
        if (!varint(fields[f], "run_end field")) return;
      // rounds_to_decision, rounds_to_halt, crashes, delivered, survivors,
      // then the gated tail.
      Tally<std::uint64_t> claimed{fields[2], fields[3]};
      gated(fields + kTrace2RunEndFields, claimed);
      const std::array<bool, 6> present = {
          true, true, omissions, omissions, corruptions, corruptions};
      compare_tally(claimed, sum, present, "offset " + std::to_string(at), c);
      in_run = false;
    } else if (kind == kTrace2KindRunAbandoned) {
      std::uint64_t fields[kTrace2AbandonFields] = {};
      for (std::size_t f = 0; f < kTrace2AbandonFields; ++f)
        if (!varint(fields[f], "run_abandoned field")) return;
      // rep, seed, attempt, error_len; the error text follows inline.
      const std::uint64_t error_len = fields[kTrace2AbandonFields - 1];
      if (error_len > kTrace2MaxErrorBytes) {
        fail_at(at, "run_abandoned error length " +
                        std::to_string(error_len) + " exceeds the " +
                        std::to_string(kTrace2MaxErrorBytes) + "-byte cap");
        return;
      }
      if (data.size() - pos < error_len) {
        fail_at(pos, "truncated run_abandoned error text");
        return;
      }
      pos += static_cast<std::size_t>(error_len);
      in_run = false;
    } else {
      fail_at(at, "unknown record kind " + std::to_string(kind));
      return;
    }
  }
  if (in_run) c.fail("stream ends inside an open run (no run_end)");
}

/// Validates a synran-req/1 / synran-resp/1 frame stream: every frame is a
/// decimal length line + exactly that many body bytes, every body is a
/// JSON object tagged with one of the two serve schemas, requests carry a
/// known cmd, and responses carry ok plus the matching result/error
/// member. The stream must end exactly at a frame boundary — a trailing
/// partial frame is how a torn capture (or a killed daemon's last write,
/// which the commit discipline forbids) shows up.
void check_serve_stream(const std::string& data, Check& c) {
  std::size_t pos = 0;
  std::size_t frame_no = 0;
  if (data.empty()) {
    c.fail("stream is empty");
    return;
  }
  while (pos < data.size()) {
    ++frame_no;
    const std::string at = "frame " + std::to_string(frame_no);
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      c.fail(at + ": no newline after the length line (torn frame)");
      return;
    }
    std::size_t len = 0;
    if (nl == pos || nl - pos > 20) {
      c.fail(at + ": bad length line");
      return;
    }
    for (std::size_t i = pos; i < nl; ++i) {
      const char ch = data[i];
      if (ch < '0' || ch > '9') {
        c.fail(at + ": non-digit in length line");
        return;
      }
      len = len * 10 + static_cast<std::size_t>(ch - '0');
    }
    if (data.size() - nl - 1 < len) {
      c.fail(at + ": body truncated (" + std::to_string(data.size() - nl - 1) +
             " of " + std::to_string(len) + " bytes)");
      return;
    }
    const std::string body = data.substr(nl + 1, len);
    pos = nl + 1 + len;

    std::string err;
    const auto parsed = JsonValue::parse(body, &err);
    if (!parsed.has_value()) {
      c.fail(at + ": body parse error: " + err);
      continue;
    }
    if (!parsed->is_object()) {
      c.fail(at + ": body is not an object");
      continue;
    }
    const auto* schema = parsed->find("schema");
    if (schema == nullptr || !schema->is_string()) {
      c.fail(at + ": missing string \"schema\"");
      continue;
    }
    if (schema->as_string() == "synran-req/1") {
      const auto* cmd = parsed->find("cmd");
      if (cmd == nullptr || !cmd->is_string()) {
        c.fail(at + ": request has no string cmd");
      } else {
        const std::string& name = cmd->as_string();
        if (name != "run" && name != "ping" && name != "stats" &&
            name != "shutdown")
          c.fail(at + ": unknown request cmd \"" + name + "\"");
      }
      const auto* id = parsed->find("id");
      if (id != nullptr && !id->is_string())
        c.fail(at + ": request id is not a string");
    } else if (schema->as_string() == "synran-resp/1") {
      const auto* ok = parsed->find("ok");
      if (ok == nullptr || !ok->is_bool()) {
        c.fail(at + ": response has no boolean ok");
        continue;
      }
      const auto* id = parsed->find("id");
      if (id == nullptr || !id->is_string())
        c.fail(at + ": response id is not a string");
      if (ok->as_bool()) {
        if (parsed->find("result") == nullptr)
          c.fail(at + ": ok response without result");
        if (parsed->find("error") != nullptr)
          c.fail(at + ": ok response carries an error");
      } else {
        const auto* error = parsed->find("error");
        if (error == nullptr || !error->is_object()) {
          c.fail(at + ": error response without error object");
        } else {
          const auto* code = error->find("code");
          if (code == nullptr || !code->is_string() ||
              code->as_string().empty())
            c.fail(at + ": error.code is not a non-empty string");
          if (const auto* msg = error->find("message");
              msg == nullptr || !msg->is_string())
            c.fail(at + ": error.message is not a string");
        }
        if (parsed->find("result") != nullptr)
          c.fail(at + ": error response carries a result");
      }
    } else {
      c.fail(at + ": schema \"" + schema->as_string() +
             "\" is neither synran-req/1 nor synran-resp/1");
    }
  }
}

int check_file(const std::string& path, bool trace_mode, bool serve_mode) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return 1;
  }
  Check c;
  if (serve_mode) {
    std::ostringstream buf;
    buf << in.rdbuf();
    check_serve_stream(buf.str(), c);
  } else if (trace_mode) {
    // Sniff the format off the leading bytes: the synran-trace/2 magic wins,
    // anything else is treated as JSONL (whose first byte is '{').
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string data = buf.str();
    bool binary = data.size() >= 8;
    for (std::size_t i = 0; binary && i < 8; ++i)
      binary = static_cast<std::uint8_t>(data[i]) ==
               static_cast<std::uint8_t>(synran::obs::kTrace2Magic >> (8 * i));
    if (binary) {
      check_trace2_stream(data, c);
    } else {
      std::istringstream text(data);
      check_trace_stream(text, c);
    }
  } else {
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto doc = JsonValue::parse(buf.str(), &err);
    if (!doc.has_value())
      c.fail("parse error: " + err);
    else
      check_bench_report(*doc, c);
  }
  if (c.problems.empty()) {
    std::cout << path << ": ok\n";
    return 0;
  }
  std::cout << path << ": INVALID\n";
  for (const auto& p : c.problems) std::cout << "  " << p << "\n";
  return 1;
}

/// Validates one report, then prints its canonical form: every field in
/// document order except the run-dependent ones (timings and trace_overhead
/// vary with load, git_rev with the working tree, threads with how the run
/// was parallelized — the statistics it describes are thread-count
/// invariant). Verdicts go to stderr so stdout is exactly the canonical
/// document.
int canon_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  const auto doc = JsonValue::parse(buf.str(), &err);
  Check c;
  if (!doc.has_value())
    c.fail("parse error: " + err);
  else
    check_bench_report(*doc, c);
  if (!c.problems.empty()) {
    std::cerr << path << ": INVALID\n";
    for (const auto& p : c.problems) std::cerr << "  " << p << "\n";
    return 1;
  }
  JsonValue canon = JsonValue::object();
  for (const auto& [key, value] : doc->as_object()) {
    if (key == "timings" || key == "git_rev" || key == "threads" ||
        key == "trace_overhead")
      continue;
    canon.set(key, value);
  }
  std::cout << canon.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool trace_mode = false;
  bool canon_mode = false;
  bool serve_mode = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace")
      trace_mode = true;
    else if (arg == "--canon")
      canon_mode = true;
    else if (arg == "--serve")
      serve_mode = true;
    else
      files.push_back(arg);
  }
  const int modes = static_cast<int>(trace_mode) +
                    static_cast<int>(canon_mode) +
                    static_cast<int>(serve_mode);
  if (files.empty() || modes > 1 || (canon_mode && files.size() != 1)) {
    std::cerr << "usage: bench_schema_check [--trace|--serve] FILE...\n"
                 "       bench_schema_check --canon FILE\n"
                 "  validates synran-bench/1 reports (default), run traces\n"
                 "  (--trace; synran-trace/1 JSONL and synran-trace/2\n"
                 "  binary, sniffed per file), or synran-req/1 frame\n"
                 "  streams (--serve: request or response captures);\n"
                 "  --canon prints one report minus\n"
                 "  timings/git_rev/threads/trace_overhead for byte\n"
                 "  comparison\n";
    return 2;
  }
  if (canon_mode) return canon_file(files[0]);
  int rc = 0;
  for (const auto& f : files)
    if (check_file(f, trace_mode, serve_mode) != 0) rc = 1;
  return rc;
}
