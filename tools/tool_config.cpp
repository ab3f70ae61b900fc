#include "tool_config.h"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/time.h"

namespace gryphon::tools {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string current;
  std::istringstream stream(text);
  while (std::getline(stream, current, sep)) {
    if (!current.empty()) out.push_back(current);
  }
  return out;
}

int parse_int(const std::string& text, const char* what) {
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument(std::string("bad ") + what + ": '" + text + "'");
  }
  return value;
}

}  // namespace

SchemaPtr parse_schema_spec(const std::string& spec) {
  std::istringstream stream(spec);
  std::string name;
  if (!(stream >> name)) {
    throw std::invalid_argument("schema spec: expected \"NAME attr:type ...\"");
  }
  std::vector<Attribute> attributes;
  std::string token;
  while (stream >> token) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("schema spec: attribute '" + token +
                                  "' must be NAME:TYPE (types: int, double, string, bool; "
                                  "int may declare a domain, e.g. a1:int(0..4))");
    }
    Attribute attr;
    attr.name = token.substr(0, colon);
    std::string type = token.substr(colon + 1);
    // Optional finite int domain: int(LO..HI).
    const auto paren = type.find('(');
    std::string domain;
    if (paren != std::string::npos) {
      if (type.back() != ')') throw std::invalid_argument("schema spec: unbalanced '('");
      domain = type.substr(paren + 1, type.size() - paren - 2);
      type = type.substr(0, paren);
    }
    if (type == "int") {
      attr.type = AttributeType::kInt;
    } else if (type == "double") {
      attr.type = AttributeType::kDouble;
    } else if (type == "string") {
      attr.type = AttributeType::kString;
    } else if (type == "bool") {
      attr.type = AttributeType::kBool;
    } else {
      throw std::invalid_argument("schema spec: unknown type '" + type + "'");
    }
    if (!domain.empty()) {
      if (attr.type != AttributeType::kInt) {
        throw std::invalid_argument("schema spec: domains are supported for int attributes");
      }
      const auto dots = domain.find("..");
      if (dots == std::string::npos) {
        throw std::invalid_argument("schema spec: domain must be LO..HI");
      }
      const int lo = parse_int(domain.substr(0, dots), "domain bound");
      const int hi = parse_int(domain.substr(dots + 2), "domain bound");
      if (hi < lo) throw std::invalid_argument("schema spec: empty domain");
      for (int v = lo; v <= hi; ++v) attr.domain.emplace_back(static_cast<std::int64_t>(v));
    }
    attributes.push_back(std::move(attr));
  }
  if (attributes.empty()) {
    throw std::invalid_argument("schema spec: needs at least one attribute");
  }
  return make_schema(name, std::move(attributes));
}

BrokerNetwork parse_topology_spec(std::size_t broker_count, const std::string& spec) {
  BrokerNetwork net;
  for (std::size_t i = 0; i < broker_count; ++i) net.add_broker();
  for (const std::string& link : split(spec, ',')) {
    const auto dash = link.find('-');
    if (dash == std::string::npos) {
      throw std::invalid_argument("topology spec: link '" + link + "' must be A-B[:DELAY_MS]");
    }
    const auto colon = link.find(':', dash);
    const int a = parse_int(link.substr(0, dash), "broker id");
    const int b = parse_int(colon == std::string::npos
                                ? link.substr(dash + 1)
                                : link.substr(dash + 1, colon - dash - 1),
                            "broker id");
    const int delay_ms = colon == std::string::npos
                             ? 1
                             : parse_int(link.substr(colon + 1), "delay");
    net.connect(BrokerId{a}, BrokerId{b}, ticks_from_millis(delay_ms));
  }
  return net;
}

void parse_endpoint(const std::string& spec, std::string& host, std::uint16_t& port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("endpoint '" + spec + "' must be HOST:PORT");
  }
  host = spec.substr(0, colon);
  port = static_cast<std::uint16_t>(parse_int(spec.substr(colon + 1), "port"));
}

DialTarget parse_dial_spec(const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("dial spec '" + spec + "' must be BROKERID=HOST:PORT");
  }
  DialTarget target;
  target.peer = BrokerId{parse_int(spec.substr(0, eq), "broker id")};
  parse_endpoint(spec.substr(eq + 1), target.host, target.port);
  return target;
}

std::size_t parse_thread_count(const std::string& spec) {
  if (spec == "auto") {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  const int value = parse_int(spec, "thread count");
  if (value < 0) throw std::invalid_argument("thread count must be >= 0");
  return static_cast<std::size_t>(value);
}

BrokerConfig parse_broker_config(const std::vector<std::string>& args) {
  BrokerConfig config;
  int brokers = -1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return args[++i];
    };
    const auto next_positive = [&](const char* what) {
      const int value = parse_int(next(), what);
      if (value <= 0) {
        throw std::invalid_argument(arg + " must be > 0, got " + std::to_string(value));
      }
      return value;
    };
    if (arg == "--id") {
      config.id = parse_int(next(), "broker id");
    } else if (arg == "--brokers") {
      brokers = parse_int(next(), "broker count");
    } else if (arg == "--links") {
      config.links = next();
    } else if (arg == "--listen") {
      const int port = parse_int(next(), "port");
      if (port < 0 || port > 65535) {
        throw std::invalid_argument("--listen port must be in [0, 65535]");
      }
      config.listen_port = port;
    } else if (arg == "--dial") {
      config.dials.push_back(parse_dial_spec(next()));
    } else if (arg == "--schema") {
      config.schemas.push_back(parse_schema_spec(next()));
    } else if (arg == "--gc-seconds") {
      config.gc_seconds = next_positive("gc seconds");
    } else if (arg == "--match-threads") {
      config.match_threads = parse_thread_count(next());
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else if (arg == "--link-rto-ms") {
      config.link_rto_ms = next_positive("retransmit timeout");
    } else if (arg == "--link-heartbeat-ms") {
      config.link_heartbeat_ms = next_positive("heartbeat interval");
    } else if (arg == "--link-idle-timeout-ms") {
      config.link_idle_timeout_ms = next_positive("idle timeout");
    } else if (arg == "--redial-backoff-ms") {
      config.redial_backoff_ms = next_positive("redial backoff");
    } else if (arg == "--redial-backoff-max-ms") {
      config.redial_backoff_max_ms = next_positive("redial backoff cap");
    } else if (arg == "--redial-budget") {
      const int budget = parse_int(next(), "redial budget");
      if (budget < 0) throw std::invalid_argument("--redial-budget must be >= 0");
      config.redial_budget = budget;
    } else if (arg == "--standby-of") {
      parse_endpoint(next(), config.standby_host, config.standby_port);
    } else if (arg == "--replica-listen") {
      const int port = parse_int(next(), "port");
      if (port < 0 || port > 65535) {
        throw std::invalid_argument("--replica-listen port must be in [0, 65535]");
      }
      config.replica_listen_port = port;
    } else if (arg == "--repl-window") {
      config.repl_window = static_cast<std::size_t>(next_positive("replication window"));
    } else if (arg == "--promote-timeout-ms") {
      config.promote_timeout_ms = next_positive("promote timeout");
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (config.id < 0) throw std::invalid_argument("--id is required");
  if (brokers <= 0) throw std::invalid_argument("--brokers is required");
  config.brokers = static_cast<std::size_t>(brokers);
  if (static_cast<std::size_t>(config.id) >= config.brokers) {
    throw std::invalid_argument("--id must be < --brokers");
  }
  if (config.listen_port < 0) throw std::invalid_argument("--listen is required");
  if (config.schemas.empty()) {
    throw std::invalid_argument("at least one --schema is required");
  }
  // An idle timeout at or below the heartbeat interval drops an idle but
  // healthy link between two heartbeats, and the supervisor redials it
  // over and over.
  if (config.link_idle_timeout_ms <= config.link_heartbeat_ms) {
    throw std::invalid_argument("--link-idle-timeout-ms (" +
                                std::to_string(config.link_idle_timeout_ms) +
                                ") must exceed --link-heartbeat-ms (" +
                                std::to_string(config.link_heartbeat_ms) + ")");
  }
  if (config.redial_backoff_max_ms < config.redial_backoff_ms) {
    throw std::invalid_argument("--redial-backoff-max-ms must be >= --redial-backoff-ms");
  }
  for (const DialTarget& dial : config.dials) {
    if (static_cast<std::size_t>(dial.peer.value) >= config.brokers) {
      throw std::invalid_argument("--dial peer " + std::to_string(dial.peer.value) +
                                  " is not in the topology (brokers = " +
                                  std::to_string(config.brokers) + ")");
    }
  }
  // Replication roles are exclusive: a standby shadows a primary; it does
  // not serve a standby of its own, and it must not dial broker links —
  // neighbors redial it after promotion.
  if (config.standby()) {
    if (config.replica_listen_port >= 0) {
      throw std::invalid_argument(
          "--standby-of conflicts with --replica-listen: a standby cannot "
          "also serve a replication stream");
    }
    if (!config.dials.empty()) {
      throw std::invalid_argument(
          "--standby-of conflicts with --dial: a standby must not dial "
          "broker links before promotion (neighbors redial it afterwards)");
    }
  }
  return config;
}

}  // namespace gryphon::tools
