#include "serve/request.hpp"

#include "exec/batch.hpp"
#include "runner/run_config.hpp"
#include "serve/frame.hpp"

namespace synran::serve {

namespace {

using obs::JsonValue;

/// Longest client id we echo back; anything longer is hostile padding.
constexpr std::size_t kMaxIdBytes = 256;

}  // namespace

const char* to_string(Command cmd) {
  switch (cmd) {
    case Command::Run:
      return "run";
    case Command::Ping:
      return "ping";
    case Command::Stats:
      return "stats";
    case Command::Shutdown:
      return "shutdown";
  }
  return "?";
}

ServeRequest parse_request(const std::string& body) {
  std::string error;
  const auto parsed = JsonValue::parse(body, &error);
  if (!parsed.has_value()) {
    throw BadRequest("request is not valid JSON: " + error);
  }
  if (!parsed->is_object()) {
    throw BadRequest("request must be a JSON object");
  }
  for (const auto& [key, value] : parsed->as_object()) {
    if (key != "schema" && key != "id" && key != "cmd" && key != "config" &&
        key != "deadline_ms") {
      throw BadRequest("unknown request key '" + key + "'");
    }
  }

  const JsonValue* schema = parsed->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kRequestSchema) {
    throw BadRequest(std::string("request schema must be \"") +
                     kRequestSchema + "\"");
  }

  ServeRequest req;
  if (const JsonValue* id = parsed->find("id"); id != nullptr) {
    if (!id->is_string()) throw BadRequest("request id must be a string");
    if (id->as_string().size() > kMaxIdBytes) {
      throw BadRequest("request id exceeds " + std::to_string(kMaxIdBytes) +
                       " bytes");
    }
    req.id = id->as_string();
  }

  const JsonValue* cmd = parsed->find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    throw BadRequest("request needs a string cmd");
  }
  const std::string& name = cmd->as_string();
  if (name == "run") {
    req.cmd = Command::Run;
  } else if (name == "ping") {
    req.cmd = Command::Ping;
  } else if (name == "stats") {
    req.cmd = Command::Stats;
  } else if (name == "shutdown") {
    req.cmd = Command::Shutdown;
  } else {
    throw BadRequest("unknown cmd '" + name +
                     "' (expected run, ping, stats, or shutdown)");
  }

  if (const JsonValue* dl = parsed->find("deadline_ms"); dl != nullptr) {
    if (!dl->is_int() || dl->as_int() < 0) {
      throw BadRequest("deadline_ms must be a non-negative integer");
    }
    req.deadline_ms = static_cast<std::uint64_t>(dl->as_int());
  }

  const JsonValue* config = parsed->find("config");
  if (req.cmd != Command::Run) {
    if (config != nullptr) {
      throw BadRequest(std::string("cmd '") + name +
                       "' does not take a config");
    }
    return req;
  }
  JsonValue empty = JsonValue::object();
  if (config == nullptr) config = &empty;
  if (!config->is_object()) {
    throw BadRequest("config must be a JSON object");
  }
  try {
    req.config = canonical_json(read_run_config(JsonSource(*config)));
  } catch (const ConfigError& e) {
    throw BadRequest(e.what());
  }
  return req;
}

std::string cache_key_string(const obs::JsonValue& canonical_config,
                             const std::string& git_rev) {
  return canonical_config.dump() +
         "|seed_schema=" + std::to_string(kSeedSchemaVersion) +
         "|git_rev=" + git_rev;
}

}  // namespace synran::serve
