// One run-config vocabulary for both front ends: `synran run` reads it from
// argv (ArgvSource), `synran serve` from a synran-req/1 config object
// (JsonSource). Pinned here: both sources give equal configs and the same
// canonical bytes over every name, grammar and model; the canonical bytes
// of a fixed set of requests never move (they are the serve cache's keys);
// both sources reject every rule, each naming the key as its users spell
// it; and hostile request bodies either parse or fail as BadRequest.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "runner/run_config.hpp"
#include "serve/plan.hpp"
#include "serve/request.hpp"

namespace synran {
namespace {

using obs::JsonValue;

/// One config key and its value, typed as a JSON request carries it.
using Entry = std::pair<std::string, std::variant<std::string, std::uint64_t>>;
using Entries = std::vector<Entry>;

/// The `synran run` argv for `entries`, with keys spelled as flags.
struct Argv {
  std::vector<std::string> words;
  std::vector<const char*> ptrs;

  explicit Argv(const Entries& entries) {
    for (const auto& [key, value] : entries) {
      std::string flag = "--" + key;
      for (char& c : flag) {
        if (c == '_') c = '-';
      }
      words.push_back(flag);
      words.push_back(std::holds_alternative<std::string>(value)
                          ? std::get<std::string>(value)
                          : std::to_string(std::get<std::uint64_t>(value)));
    }
    for (const auto& w : words) ptrs.push_back(w.c_str());
  }
  ArgvSource source() const {
    return ArgvSource(static_cast<int>(ptrs.size()), ptrs.data(), 0);
  }
};

JsonValue json_of(const Entries& entries) {
  JsonValue config = JsonValue::object();
  for (const auto& [key, value] : entries) {
    if (std::holds_alternative<std::string>(value)) {
      config.set(key, std::get<std::string>(value));
    } else {
      config.set(key, JsonValue(std::get<std::uint64_t>(value)));
    }
  }
  return config;
}

// ------------------------------------------------ (a) the sources agree

std::vector<Entries> config_table() {
  std::vector<Entries> table;
  for (const char* p : {"synran", "benor-sym", "synran-nodet", "floodmin",
                        "floodmin-early", "leadercoin"}) {
    table.push_back({{"protocol", p}, {"n", 16ULL}, {"t", 5ULL}});
  }
  for (const char* a : {"none", "random", "chain", "coinbias", "oblivious",
                        "leader-killer"}) {
    table.push_back({{"model", "sync"}, {"adversary", a}});
  }
  for (const char* pattern : {"all-0", "all-1", "half", "single-0", "random"}) {
    table.push_back({{"pattern", pattern}, {"n", 9ULL}});
    table.push_back({{"model", "async"}, {"pattern", pattern}});
  }
  for (const char* f : {"", "omit:0.2", "omit:0.20,40", "byz:1e-1",
                        "byz:0.5,0", "omit:1", "byz:0,4294967295"}) {
    table.push_back({{"faults", f}, {"reps", 3ULL}, {"seed", 7ULL}});
  }
  for (const char* policy : {"fail_fast", "quarantine"}) {
    table.push_back({{"fail_policy", policy}, {"retries", 2ULL},
                     {"max_rounds", 40ULL}});
  }
  for (const char* s : {"fifo", "random", "laggard", "stall"}) {
    table.push_back({{"model", "async"}, {"scheduler", s}});
  }
  for (const char* d : {"held", "fixed:3", "fixed:0", "uniform:1,10",
                        "uniform:4,4"}) {
    table.push_back({{"model", "async"}, {"delay", d}, {"max_time", 500ULL}});
  }
  table.push_back({{"model", "async"}, {"gst", 50ULL}, {"delta", 8ULL},
                   {"retransmit", 16ULL}, {"max_steps", 9ULL}});
  table.push_back({{"model", "async"}, {"gst", 0ULL}, {"delta", 1ULL},
                   {"n", 1ULL}});
  table.push_back({{"model", "async"}, {"delay", "held"}, {"gst", 7ULL},
                   {"delta", 2ULL}, {"n", 3ULL}, {"t", 1ULL}});
  return table;
}

TEST(RunConfig, ArgvAndJsonSourcesGiveEqualConfigsAndBytes) {
  for (const Entries& entries : config_table()) {
    const Argv argv(entries);
    const JsonValue json = json_of(entries);
    const RunConfig from_argv = read_run_config(argv.source());
    const RunConfig from_json = read_run_config(JsonSource(json));
    EXPECT_EQ(from_argv, from_json) << json.dump();
    EXPECT_EQ(canonical_json(from_argv).dump(),
              canonical_json(from_json).dump())
        << json.dump();
    // The canonical form reads back to itself, and builds a plan.
    const JsonValue canon = canonical_json(from_json);
    EXPECT_EQ(read_run_config(JsonSource(canon)), from_json) << json.dump();
    EXPECT_NO_THROW(build_plan(from_json, 1)) << json.dump();
  }
}

TEST(RunConfig, FrontEndKeysPassOnlyThroughTheirCaller) {
  const Entries entries = {{"trace-out", "x.jsonl"}, {"threads", 2ULL}};
  constexpr std::string_view kOwn[] = {"threads", "trace-out"};
  EXPECT_NO_THROW(read_run_config(Argv(entries).source(), kOwn));
  EXPECT_THROW(read_run_config(Argv(entries).source()), ConfigError);
}

// ------------------------------------------- (b) cache keys do not move

TEST(RunConfig, CanonicalBytesMatchTheRecordedCacheKeys) {
  // Request bodies and the canonical configs parse_request produced for
  // them before the vocabulary moved into runner/run_config.
  const std::pair<const char*, const char*> recorded[] = {
      {R"({"schema":"synran-req/1","cmd":"run"})",
       R"({"model":"sync","protocol":"synran","adversary":"coinbias","faults":"","n":128,"t":64,"pattern":"random","reps":50,"seed":1,"max_rounds":100000,"fail_policy":"fail_fast","retries":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"n":64,"seed":9}})",
       R"({"model":"sync","protocol":"synran","adversary":"coinbias","faults":"","n":64,"t":32,"pattern":"random","reps":50,"seed":9,"max_rounds":100000,"fail_policy":"fail_fast","retries":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"model":"sync","protocol":"floodmin-early","adversary":"leader-killer","faults":"omit:0.20,40","n":16,"t":16,"pattern":"single-0","reps":7,"seed":0,"max_rounds":9,"fail_policy":"quarantine","retries":3}})",
       R"({"model":"sync","protocol":"floodmin-early","adversary":"leader-killer","faults":"omit:0.20,40","n":16,"t":16,"pattern":"single-0","reps":7,"seed":0,"max_rounds":9,"fail_policy":"quarantine","retries":3})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"protocol":"benor-sym","adversary":"oblivious","faults":"byz:1e-1","n":5,"pattern":"all-1"}})",
       R"({"model":"sync","protocol":"benor-sym","adversary":"oblivious","faults":"byz:1e-1","n":5,"t":2,"pattern":"all-1","reps":50,"seed":1,"max_rounds":100000,"fail_policy":"fail_fast","retries":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"protocol":"synran-nodet","adversary":"chain","faults":"byz:0.5,0","n":4294967295,"t":0,"pattern":"half","reps":18446744073709551,"seed":9223372036854775807}})",
       R"({"model":"sync","protocol":"synran-nodet","adversary":"chain","faults":"byz:0.5,0","n":4294967295,"t":0,"pattern":"half","reps":18446744073709551,"seed":9223372036854775807,"max_rounds":100000,"fail_policy":"fail_fast","retries":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"model":"async"}})",
       R"({"model":"async","protocol":"benor","scheduler":"random","delay":"held","gst":0,"delta":0,"retransmit":0,"n":32,"t":15,"pattern":"random","reps":50,"seed":1,"max_steps":2000000,"max_time":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"model":"async","n":1}})",
       R"({"model":"async","protocol":"benor","scheduler":"random","delay":"held","gst":0,"delta":0,"retransmit":0,"n":1,"t":0,"pattern":"random","reps":50,"seed":1,"max_steps":2000000,"max_time":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"model":"async","scheduler":"stall","delay":"fixed:3","n":9,"t":4,"pattern":"all-0","reps":2,"seed":44}})",
       R"({"model":"async","protocol":"benor","scheduler":"stall","delay":"fixed:3","gst":0,"delta":0,"retransmit":0,"n":9,"t":4,"pattern":"all-0","reps":2,"seed":44,"max_steps":2000000,"max_time":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"model":"async","scheduler":"laggard","gst":50,"delta":8,"retransmit":16,"n":16,"max_steps":10}})",
       R"({"model":"async","protocol":"benor","scheduler":"laggard","delay":"held","gst":50,"delta":8,"retransmit":16,"n":16,"t":7,"pattern":"random","reps":50,"seed":1,"max_steps":10,"max_time":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"model":"async","scheduler":"fifo","delay":"uniform:1,10","n":2,"max_time":100000,"pattern":"random"}})",
       R"({"model":"async","protocol":"benor","scheduler":"fifo","delay":"uniform:1,10","gst":0,"delta":0,"retransmit":0,"n":2,"t":0,"pattern":"random","reps":50,"seed":1,"max_steps":2000000,"max_time":100000})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"protocol":"leadercoin","adversary":"random","faults":"","n":1,"t":1}})",
       R"({"model":"sync","protocol":"leadercoin","adversary":"random","faults":"","n":1,"t":1,"pattern":"random","reps":50,"seed":1,"max_rounds":100000,"fail_policy":"fail_fast","retries":0})"},
      {R"({"schema":"synran-req/1","cmd":"run","config":{"model":"async","gst":0,"delta":3,"n":3}})",
       R"({"model":"async","protocol":"benor","scheduler":"random","delay":"held","gst":0,"delta":3,"retransmit":0,"n":3,"t":1,"pattern":"random","reps":50,"seed":1,"max_steps":2000000,"max_time":0})"},
  };
  for (const auto& [body, canonical] : recorded) {
    EXPECT_EQ(serve::parse_request(body).config.dump(), canonical) << body;
  }
}

// ------------------------------------- (c) both sources reject each rule

struct Reject {
  Entries entries;
  std::string key;     ///< the key the message must name
  std::string needle;  ///< and a source-independent part of the message
};

std::vector<Reject> reject_table() {
  return {
      {{{"n", 0ULL}}, "n", "a run needs a process"},
      {{{"model", "async"}, {"n", 0ULL}}, "n", "a run needs a process"},
      {{{"n", 4ULL}, {"t", 9ULL}}, "t", "the sync engine needs t <= n"},
      {{{"model", "async"}, {"n", 10ULL}, {"t", 5ULL}}, "t", "t < n/2"},
      {{{"model", "async"}, {"n", 4ULL}, {"t", 4ULL}}, "t", "t < n/2"},
      {{{"reps", 0ULL}}, "reps", "at least one repetition"},
      {{{"model", "async"}, {"reps", 0ULL}}, "reps", "at least one repetition"},
      {{{"n", 5000000000ULL}}, "n", "out of range"},
      {{{"max_rounds", 4294967296ULL}}, "max_rounds", "out of range"},
      {{{"retries", 4294967296ULL}}, "retries", "out of range"},
      {{{"faults", "omit:1.5"}}, "faults", "must lie in [0, 1]"},
      {{{"faults", "omit:-0.1"}}, "faults", "must lie in [0, 1]"},
      {{{"faults", "omit:nan"}}, "faults", "must lie in [0, 1]"},
      {{{"faults", "omit:-nan"}}, "faults", "must lie in [0, 1]"},
      {{{"faults", "byz:nan,3"}}, "faults", "must lie in [0, 1]"},
      {{{"faults", "byz:inf"}}, "faults", "must lie in [0, 1]"},
      {{{"faults", "omit:x"}}, "faults", "expected a number"},
      {{{"faults", "omit:"}}, "faults", "expected a number"},
      {{{"faults", "omit:0.1,x"}}, "faults", "non-negative integer"},
      {{{"faults", "byz:0.1,4294967296"}}, "faults", "out of range"},
      {{{"faults", "omission:0.1"}}, "faults", "expected omit:RATE"},
      {{{"model", "async"}, {"delay", "uniform:5,2"}}, "delay",
       "LO must be <= HI"},
      {{{"model", "async"}, {"delay", "uniform:5"}}, "delay", "LO,HI"},
      {{{"model", "async"}, {"delay", "uniform:0,18446744073709551615"}},
       "delay", "below 2^64 - 1"},
      // JSON integers are signed 64-bit, so there 2^64 - 1 is a malformed
      // value rather than "never": only the key name is common.
      {{{"model", "async"}, {"gst", 18446744073709551615ULL},
        {"delta", 1ULL}},
       "gst", ""},
      {{{"model", "async"}, {"delay", "fixed:x"}}, "delay",
       "non-negative integer"},
      {{{"model", "async"}, {"delay", "warp"}}, "delay", "expected held"},
      {{{"model", "async"}, {"delay", ""}}, "delay", "expected held"},
      {{{"model", "async"}, {"delay", "fixed:3"}, {"gst", 5ULL},
        {"delta", 2ULL}},
       "gst", "held"},
      {{{"model", "async"}, {"gst", 5ULL}}, "delta", ">= 1"},
      {{{"model", "async"}, {"adversary", "chain"}}, "adversary",
       "does not apply"},
      {{{"model", "async"}, {"max_rounds", 5ULL}}, "max_rounds",
       "does not apply"},
      {{{"scheduler", "fifo"}}, "scheduler", "does not apply"},
      {{{"model", "sync"}, {"gst", 5ULL}}, "gst", "does not apply"},
      {{{"model", "warp"}}, "model", "expected sync or async"},
      {{{"protocol", "nope"}}, "protocol", "expected synran"},
      {{{"model", "async"}, {"protocol", "synran"}}, "protocol",
       "expected benor"},
      {{{"adversary", "nope"}}, "adversary", "leader-killer"},
      {{{"pattern", "allzero"}}, "pattern", "single-0"},
      {{{"fail_policy", "sometimes"}}, "fail_policy",
       "expected fail_fast or quarantine"},
      {{{"model", "async"}, {"scheduler", "chaos"}}, "scheduler",
       "laggard"},
      {{{"bogus", 3ULL}}, "bogus", "unknown"},
  };
}

void expect_rejected(const ConfigSource& source, const Reject& r,
                     const std::string& what) {
  try {
    read_run_config(source);
    ADD_FAILURE() << "accepted: " << what;
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(source.name(r.key)), std::string::npos)
        << what << " -> " << message;
    EXPECT_NE(message.find(r.needle), std::string::npos)
        << what << " -> " << message;
  }
}

TEST(RunConfig, BothSourcesRejectEveryRuleNamingTheKeyTheirWay) {
  for (const Reject& r : reject_table()) {
    const Argv argv(r.entries);
    const JsonValue json = json_of(r.entries);
    expect_rejected(argv.source(), r, json.dump() + " (argv)");
    expect_rejected(JsonSource(json), r, json.dump() + " (json)");
  }
}

TEST(RunConfig, EachSourceRejectsTheOthersSpelling) {
  const char* const argv[] = {"--max_rounds", "1"};
  try {
    read_run_config(ArgvSource(2, argv, 0));
    ADD_FAILURE() << "--max_rounds accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'--max_rounds'"), std::string::npos)
        << e.what();
  }
  JsonValue config = JsonValue::object();
  config.set("max-rounds", JsonValue(1));
  EXPECT_THROW(read_run_config(JsonSource(config)), ConfigError);
}

TEST(RunConfig, JsonValuesOfTheWrongTypeAreRejected) {
  for (const char* body : {R"({"n":"16"})", R"({"n":-1})", R"({"n":1.5})",
                           R"({"protocol":3})", R"({"faults":null})",
                           R"({"model":true})"}) {
    const auto config = JsonValue::parse(body);
    ASSERT_TRUE(config.has_value()) << body;
    EXPECT_THROW(read_run_config(JsonSource(*config)), ConfigError) << body;
  }
}

// --------------------------------------------- the request reader, fuzzed

const char* const kFuzzBodies[] = {
    R"({"schema":"synran-req/1","id":"s","cmd":"run","config":{"model":"sync","n":16,"t":5,"reps":8,"seed":3}})",
    R"({"schema":"synran-req/1","id":"o","cmd":"run","config":{"adversary":"none","faults":"omit:0.2,40","n":16}})",
    R"({"schema":"synran-req/1","id":"b","cmd":"run","config":{"protocol":"floodmin","faults":"byz:0.2,8","fail_policy":"quarantine","retries":1}})",
    R"({"schema":"synran-req/1","id":"g","cmd":"run","config":{"model":"async","n":16,"scheduler":"laggard","gst":50,"delta":8,"retransmit":16}})",
    R"({"schema":"synran-req/1","id":"u","cmd":"run","config":{"model":"async","delay":"uniform:1,10","pattern":"half","max_time":100000}})",
    R"({"schema":"synran-req/1","id":"f","cmd":"run","deadline_ms":50,"config":{"model":"async","delay":"fixed:3","max_steps":900}})",
    R"({"schema":"synran-req/1","id":"p","cmd":"ping"})",
    R"({"schema":"synran-req/1","id":"st","cmd":"stats"})",
    R"({"schema":"synran-req/1","id":"q","cmd":"shutdown"})",
    R"({"schema":"synran-req/1","cmd":"run","config":{"protocol":"leadercoin","adversary":"leader-killer","pattern":"single-0","max_rounds":40}})",
};

/// Parses `body`: it must parse or throw serve::BadRequest. An accepted run
/// request's canonical config reads back to the same bytes and builds.
void reads_cleanly(const std::string& body) {
  serve::ServeRequest req;
  try {
    req = serve::parse_request(body);
  } catch (const serve::BadRequest&) {
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-BadRequest exception: " << e.what() << "\n"
                  << body;
    return;
  }
  if (req.cmd != serve::Command::Run) return;
  const std::string canonical = req.config.dump();
  try {
    const RunConfig config = read_run_config(JsonSource(req.config));
    EXPECT_EQ(canonical_json(config).dump(), canonical) << body;
    serve::build_plan(req.config, 1);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "accepted config does not read back: " << e.what()
                  << "\n"
                  << body;
  }
}

TEST(RequestFuzz, ValidBodiesParse) {
  for (const char* body : kFuzzBodies) {
    EXPECT_NO_THROW(serve::parse_request(body)) << body;
  }
}

TEST(RequestFuzz, EveryTruncationParsesOrIsABadRequest) {
  for (const std::string body : kFuzzBodies) {
    for (std::size_t len = 0; len < body.size(); ++len) {
      reads_cleanly(body.substr(0, len));
    }
  }
}

TEST(RequestFuzz, ByteFlipsDeletionsAndInsertionsParseOrAreBadRequests) {
  // Inserted bytes lean on JSON's own alphabet so mutants reach the config
  // reader, not only the JSON parser.
  const std::string alphabet = "{}[]\":,0123456789-.eE+ntfaluseomiybz\\";
  Xoshiro256 rng(0x5EEDF022);
  for (const std::string pristine : kFuzzBodies) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string body = pristine;
      const int edits = 1 + static_cast<int>(rng.below(3));
      for (int e = 0; e < edits && !body.empty(); ++e) {
        const std::size_t at = rng.below(body.size());
        switch (rng.below(3)) {
          case 0:
            body[at] = static_cast<char>(body[at] ^ (1 + rng.below(255)));
            break;
          case 1:
            body.erase(at, 1 + rng.below(4));
            break;
          default:
            body.insert(at, 1, rng.below(2) == 0
                                   ? alphabet[rng.below(alphabet.size())]
                                   : static_cast<char>(rng.below(256)));
        }
      }
      reads_cleanly(body);
    }
  }
}

TEST(RequestFuzz, HostileConfigValuesParseOrAreBadRequests) {
  // Byte edits mostly break the JSON before the config reader sees it, so
  // this variant keeps the JSON well formed and sets config keys to values
  // drawn from a pool of boundary, mistyped and hostile ones.
  const char* const keys[] = {
      "model", "protocol", "adversary", "faults", "scheduler", "delay",
      "gst", "delta", "retransmit", "n", "t", "pattern", "reps", "seed",
      "max_rounds", "fail_policy", "retries", "max_steps", "max_time",
      "bogus"};
  const std::vector<JsonValue> values = {
      JsonValue(0), JsonValue(1), JsonValue(3), JsonValue(8), JsonValue(16),
      JsonValue(std::int64_t{4294967295}), JsonValue(std::int64_t{4294967296}),
      JsonValue(std::int64_t{9223372036854775807}), JsonValue(-1),
      JsonValue(0.5), JsonValue(nullptr), JsonValue(true),
      JsonValue::object(), JsonValue::array(), JsonValue(""),
      JsonValue("sync"), JsonValue("async"), JsonValue("synran"),
      JsonValue("benor"), JsonValue("floodmin-early"), JsonValue("coinbias"),
      JsonValue("fifo"), JsonValue("stall"), JsonValue("single-0"),
      JsonValue("quarantine"), JsonValue("held"), JsonValue("fixed:3"),
      JsonValue("fixed:"), JsonValue("uniform:1,10"), JsonValue("uniform:9,1"),
      JsonValue("uniform:0,18446744073709551615"), JsonValue("omit:0.5"),
      JsonValue("omit:nan"), JsonValue("byz:-nan,3"), JsonValue("byz:1,0"),
      JsonValue("byz:0.1,4294967296"), JsonValue("omit:1e309")};
  Xoshiro256 rng(0xC0F16);
  for (int trial = 0; trial < 4000; ++trial) {
    JsonValue::Object config;
    if (rng.below(2) == 0) config.emplace_back("model", JsonValue("async"));
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      const std::string key = keys[rng.below(std::size(keys))];
      const JsonValue& value = values[rng.below(values.size())];
      bool replaced = false;
      for (auto& [k, v] : config) {
        if (k == key) v = value, replaced = true;
      }
      if (!replaced) config.emplace_back(key, value);
    }
    JsonValue request = JsonValue::object();
    request.set("schema", "synran-req/1");
    request.set("cmd", "run");
    request.set("config", JsonValue(std::move(config)));
    reads_cleanly(request.dump());
  }
}

}  // namespace
}  // namespace synran
