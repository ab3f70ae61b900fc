#include "../tools/tool_config.h"

#include <gtest/gtest.h>

namespace gryphon::tools {
namespace {

TEST(SchemaSpec, ParsesTypesAndName) {
  const auto schema =
      parse_schema_spec("trades issue:string price:double volume:int urgent:bool");
  EXPECT_EQ(schema->name(), "trades");
  ASSERT_EQ(schema->attribute_count(), 4u);
  EXPECT_EQ(schema->attribute(0).type, AttributeType::kString);
  EXPECT_EQ(schema->attribute(1).type, AttributeType::kDouble);
  EXPECT_EQ(schema->attribute(2).type, AttributeType::kInt);
  EXPECT_EQ(schema->attribute(3).type, AttributeType::kBool);
  EXPECT_FALSE(schema->attribute(2).has_finite_domain());
}

TEST(SchemaSpec, IntDomain) {
  const auto schema = parse_schema_spec("synthetic a1:int(0..4) a2:int(2..2)");
  EXPECT_EQ(schema->attribute(0).domain.size(), 5u);
  EXPECT_EQ(schema->attribute(1).domain.size(), 1u);
  EXPECT_TRUE(schema->accepts(0, Value(4)));
  EXPECT_FALSE(schema->accepts(0, Value(5)));
}

TEST(SchemaSpec, Errors) {
  EXPECT_THROW(parse_schema_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_schema_spec("name"), std::invalid_argument);
  EXPECT_THROW(parse_schema_spec("name attr"), std::invalid_argument);
  EXPECT_THROW(parse_schema_spec("name attr:float"), std::invalid_argument);
  EXPECT_THROW(parse_schema_spec("name a:int(0..x)"), std::invalid_argument);
  EXPECT_THROW(parse_schema_spec("name a:int(4..0)"), std::invalid_argument);
  EXPECT_THROW(parse_schema_spec("name a:string(0..4)"), std::invalid_argument);
  EXPECT_THROW(parse_schema_spec("name a:int(0..4"), std::invalid_argument);
}

TEST(TopologySpec, LinksAndDelays) {
  const auto net = parse_topology_spec(3, "0-1:10,1-2:25");
  EXPECT_EQ(net.broker_count(), 3u);
  const auto port01 = net.port_to_broker(BrokerId{0}, BrokerId{1});
  EXPECT_EQ(net.ports(BrokerId{0})[static_cast<std::size_t>(port01.value)].delay,
            ticks_from_millis(10));
  const auto port12 = net.port_to_broker(BrokerId{1}, BrokerId{2});
  EXPECT_EQ(net.ports(BrokerId{1})[static_cast<std::size_t>(port12.value)].delay,
            ticks_from_millis(25));
}

TEST(TopologySpec, DefaultDelayAndEmpty) {
  const auto net = parse_topology_spec(2, "0-1");
  const auto port = net.port_to_broker(BrokerId{0}, BrokerId{1});
  EXPECT_EQ(net.ports(BrokerId{0})[static_cast<std::size_t>(port.value)].delay,
            ticks_from_millis(1));
  const auto lonely = parse_topology_spec(1, "");
  EXPECT_EQ(lonely.broker_count(), 1u);
}

TEST(TopologySpec, Errors) {
  EXPECT_THROW(parse_topology_spec(2, "01"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec(2, "0-x"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec(2, "0-5"), std::out_of_range);
}

TEST(DialSpec, Parses) {
  const auto target = parse_dial_spec("2=192.168.1.9:7002");
  EXPECT_EQ(target.peer, BrokerId{2});
  EXPECT_EQ(target.host, "192.168.1.9");
  EXPECT_EQ(target.port, 7002);
}

TEST(DialSpec, Errors) {
  EXPECT_THROW(parse_dial_spec("2-127.0.0.1:7002"), std::invalid_argument);
  EXPECT_THROW(parse_dial_spec("2=127.0.0.1"), std::invalid_argument);
  EXPECT_THROW(parse_dial_spec("x=127.0.0.1:7002"), std::invalid_argument);
}

TEST(EndpointSpec, RfindHandlesColonsInHost) {
  std::string host;
  std::uint16_t port = 0;
  parse_endpoint("localhost:8080", host, port);
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 8080);
}

TEST(ThreadCountSpec, ParsesNumbersAndAuto) {
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("8"), 8u);
  EXPECT_GE(parse_thread_count("auto"), 1u);
  EXPECT_THROW(parse_thread_count("-1"), std::invalid_argument);
  EXPECT_THROW(parse_thread_count("eight"), std::invalid_argument);
}

std::vector<std::string> minimal_args() {
  return {"--id", "0", "--brokers", "2", "--links", "0-1",
          "--listen", "7000", "--schema", "t a:int"};
}

TEST(BrokerConfigSpec, MinimalDefaults) {
  const BrokerConfig config = parse_broker_config(minimal_args());
  EXPECT_EQ(config.id, 0);
  EXPECT_EQ(config.brokers, 2u);
  EXPECT_EQ(config.listen_port, 7000);
  ASSERT_EQ(config.schemas.size(), 1u);
  EXPECT_EQ(config.schemas[0]->name(), "t");
  EXPECT_EQ(config.match_threads, 0u);
  EXPECT_EQ(config.gc_seconds, 3600);
  EXPECT_FALSE(config.verbose);
  EXPECT_EQ(config.link_rto_ms, 50);
  EXPECT_EQ(config.link_heartbeat_ms, 500);
  EXPECT_EQ(config.link_idle_timeout_ms, 2000);
  EXPECT_EQ(config.redial_backoff_ms, 20);
  EXPECT_EQ(config.redial_backoff_max_ms, 5000);
  EXPECT_EQ(config.redial_budget, 0);
  EXPECT_FALSE(config.standby());
  EXPECT_EQ(config.replica_listen_port, -1);
  EXPECT_EQ(config.repl_window, 4096u);
  EXPECT_EQ(config.promote_timeout_ms, 2000);
  EXPECT_EQ(config.topology().broker_count(), 2u);
}

TEST(BrokerConfigSpec, AllFlagFamiliesParse) {
  auto args = minimal_args();
  for (const char* extra :
       {"--dial", "1=127.0.0.1:7001", "--schema", "u b:double", "--match-threads", "auto",
        "--gc-seconds", "60", "--verbose",
        "--link-rto-ms", "25", "--link-heartbeat-ms", "100", "--link-idle-timeout-ms", "400",
        "--redial-backoff-ms", "10", "--redial-backoff-max-ms", "1000",
        "--redial-budget", "3"}) {
    args.emplace_back(extra);
  }
  const BrokerConfig config = parse_broker_config(args);
  ASSERT_EQ(config.dials.size(), 1u);
  EXPECT_EQ(config.dials[0].peer, BrokerId{1});
  EXPECT_EQ(config.schemas.size(), 2u);
  EXPECT_GE(config.match_threads, 1u);  // "auto" resolves to >= 1
  EXPECT_EQ(config.gc_seconds, 60);
  EXPECT_TRUE(config.verbose);
  EXPECT_EQ(config.link_rto_ms, 25);
  EXPECT_EQ(config.link_heartbeat_ms, 100);
  EXPECT_EQ(config.link_idle_timeout_ms, 400);
  EXPECT_EQ(config.redial_backoff_ms, 10);
  EXPECT_EQ(config.redial_backoff_max_ms, 1000);
  EXPECT_EQ(config.redial_budget, 3);
}

TEST(BrokerConfigSpec, RequiredFlagsEnforced) {
  const auto without = [](const std::string& flag) {
    std::vector<std::string> args;
    const auto all = minimal_args();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i] == flag) {
        ++i;  // skip the flag's value too
        continue;
      }
      args.push_back(all[i]);
    }
    return args;
  };
  EXPECT_THROW(parse_broker_config(without("--id")), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(without("--brokers")), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(without("--listen")), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(without("--schema")), std::invalid_argument);
}

TEST(BrokerConfigSpec, ErrorMessagesNameTheFlag) {
  auto args = minimal_args();
  args.insert(args.end(), {"--gc-seconds", "0"});
  try {
    parse_broker_config(args);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--gc-seconds"), std::string::npos) << e.what();
  }
}

TEST(BrokerConfigSpec, ShardsFlagIsUnknown) {
  // The data plane has one bucket table per space; --shards is gone and
  // must fail like any other unknown flag rather than be silently ignored.
  auto args = minimal_args();
  args.insert(args.end(), {"--shards", "4"});
  try {
    parse_broker_config(args);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown argument --shards"), std::string::npos)
        << e.what();
  }
}

TEST(BrokerConfigSpec, BatchMaxAndCoveringFlagsAreUnknown) {
  // The match batch bound is a constant, and the broker always runs the
  // default control plane (covering on, default delta segments): the flags
  // that once set them are gone and fail like any other unknown flag.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--batch-max", "64"}, std::vector<std::string>{"--covering"},
        std::vector<std::string>{"--no-covering"},
        std::vector<std::string>{"--delta-segment-target", "4096"},
        std::vector<std::string>{"--max-delta-segments", "8"}}) {
    auto args = minimal_args();
    args.insert(args.end(), extra.begin(), extra.end());
    try {
      parse_broker_config(args);
      FAIL() << "expected invalid_argument for " << extra[0];
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown argument " + extra[0]), std::string::npos)
          << e.what();
    }
  }
}

TEST(BrokerConfigSpec, IdleTimeoutMustExceedHeartbeat) {
  // A link idle timeout at or below the heartbeat interval would drop an
  // idle, healthy link between heartbeats and redial it over and over.
  const auto with = [](std::initializer_list<const char*> extra) {
    auto args = minimal_args();
    for (const char* a : extra) args.emplace_back(a);
    return args;
  };
  for (const char* idle : {"500", "400"}) {
    try {
      parse_broker_config(with({"--link-heartbeat-ms", "500", "--link-idle-timeout-ms", idle}));
      FAIL() << "expected invalid_argument for idle timeout " << idle;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--link-idle-timeout-ms"), std::string::npos) << what;
      EXPECT_NE(what.find("--link-heartbeat-ms"), std::string::npos) << what;
    }
  }
  // The default idle timeout (2000 ms) against a heartbeat at or above it.
  EXPECT_THROW(parse_broker_config(with({"--link-heartbeat-ms", "2000"})),
               std::invalid_argument);
  const BrokerConfig ok =
      parse_broker_config(with({"--link-heartbeat-ms", "500", "--link-idle-timeout-ms", "501"}));
  EXPECT_EQ(ok.link_idle_timeout_ms, 501);
}

TEST(BrokerConfigSpec, RejectsInvalidValues) {
  const auto with = [](std::initializer_list<const char*> extra) {
    auto args = minimal_args();
    for (const char* a : extra) args.emplace_back(a);
    return args;
  };
  EXPECT_THROW(parse_broker_config(with({"--gc-seconds", "0"})), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--gc-seconds", "-3"})), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--link-rto-ms", "0"})), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--listen", "70000"})), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--redial-budget", "-1"})), std::invalid_argument);
  // Cross-field checks.
  EXPECT_THROW(parse_broker_config(with({"--redial-backoff-ms", "500",
                                         "--redial-backoff-max-ms", "100"})),
               std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--dial", "7=127.0.0.1:7007"})),
               std::invalid_argument);
  // --id must be inside the topology.
  EXPECT_THROW(parse_broker_config({"--id", "5", "--brokers", "2", "--links", "0-1",
                                    "--listen", "7000", "--schema", "t a:int"}),
               std::invalid_argument);
  // Unknown flags and missing values are named.
  EXPECT_THROW(parse_broker_config(with({"--bogus"})), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--gc-seconds"})), std::invalid_argument);
}

TEST(BrokerConfigSpec, ReplicationFlagsParse) {
  const auto with = [](std::initializer_list<const char*> extra) {
    auto args = minimal_args();
    for (const char* a : extra) args.emplace_back(a);
    return args;
  };
  // Primary serving a standby.
  const BrokerConfig primary = parse_broker_config(
      with({"--replica-listen", "7100", "--repl-window", "512"}));
  EXPECT_FALSE(primary.standby());
  EXPECT_EQ(primary.replica_listen_port, 7100);
  EXPECT_EQ(primary.repl_window, 512u);
  // Standby shadowing it.
  const BrokerConfig standby = parse_broker_config(
      with({"--standby-of", "127.0.0.1:7100", "--promote-timeout-ms", "750"}));
  EXPECT_TRUE(standby.standby());
  EXPECT_EQ(standby.standby_host, "127.0.0.1");
  EXPECT_EQ(standby.standby_port, 7100);
  EXPECT_EQ(standby.promote_timeout_ms, 750);
}

TEST(BrokerConfigSpec, RejectsConflictingReplicationRoles) {
  const auto with = [](std::initializer_list<const char*> extra) {
    auto args = minimal_args();
    for (const char* a : extra) args.emplace_back(a);
    return args;
  };
  // A standby cannot also serve a replication stream...
  try {
    parse_broker_config(with({"--standby-of", "127.0.0.1:7100",
                              "--replica-listen", "7200"}));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--standby-of"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("--replica-listen"), std::string::npos)
        << e.what();
  }
  // ...and must not dial broker links before promotion.
  EXPECT_THROW(parse_broker_config(with({"--standby-of", "127.0.0.1:7100",
                                         "--dial", "1=127.0.0.1:7001"})),
               std::invalid_argument);
  // Malformed values are rejected like every other flag family.
  EXPECT_THROW(parse_broker_config(with({"--standby-of", "localhost"})),
               std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--replica-listen", "70000"})),
               std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--repl-window", "0"})), std::invalid_argument);
  EXPECT_THROW(parse_broker_config(with({"--promote-timeout-ms", "0"})),
               std::invalid_argument);
}

}  // namespace
}  // namespace gryphon::tools
