#!/usr/bin/env python3
"""Self-test for tools/analyze (run by the ci.sh analyze leg and registered
in ctest as `gryphon_analyze_selftest`).

Builds throwaway source trees in a temp directory — one clean, plus one per
violation class — and asserts the analyzer's exit status and diagnostics
against each, through the CLI so exit codes and --root/--config plumbing
are covered too. The first block reproduces every verdict of the retired
tools/check_planes.py fixture suite; the rest cover the rules check_planes
never had: lock-order cycles across translation units, undeclared
multi-mutex acquisition order, allocations reachable from the dispatch
hot path (with the counted suppression budget), and the protocol
exhaustiveness oracles. Everything runs against the fallback frontend
(always present); when clang.cindex is importable the final test pins the
libclang frontend to the same live-tree verdict.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

ANALYZER = pathlib.Path(__file__).resolve().parent / "analyze" / "gryphon_analyze.py"
REPO = ANALYZER.parent.parent.parent


def _have_cindex() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


# ---------------------------------------------------------------------------
# Fixture tree + config
# ---------------------------------------------------------------------------

# A minimal tree the analyzer accepts: every configured data-plane TU and
# function present, no forbidden references, no mutexes, no hot-path
# allocations.
CLEAN_TREE = {
    "src/matching/compiled_pst.h": "struct CompiledPst { int match; };\n",
    "src/matching/compiled_pst.cpp": "int compiled_match() { return 1; }\n",
    "src/routing/compiled_annotation.h": "struct CompiledAnnotation {};\n",
    "src/routing/compiled_annotation.cpp": "int annotate() { return 2; }\n",
    "src/broker/dispatch_batch.h": "struct DispatchBatch { int items; };\n",
    "src/broker/core_snapshot.h": (
        "struct CoreSnapshot { int version; };\n"
        "struct SnapshotBuilder { CoreSnapshot build(); };\n"
    ),
    "src/broker/core_snapshot.cpp": (
        "CoreSnapshot SnapshotBuilder::build() { return CoreSnapshot{1}; }\n"
    ),
    "src/broker/broker_core.cpp": (
        "int BrokerCore::dispatch(int event) {\n"
        "  if (event > 0) { return event; }\n"
        "  return 0;\n"
        "}\n"
        "int BrokerCore::dispatch_pinned(int event) { return event; }\n"
        "int BrokerCore::match_all(int event) { return event; }\n"
        "void BrokerCore::add_subscription(int id) { registry_.insert(id); }\n"
    ),
    "src/matching/pst_matcher.cpp": (
        "void PstMatcher::match(int event) const { (void)event; }\n"
        "void PstMatcher::match_into(int event, int out) const {\n"
        "  (void)event; (void)out;\n"
        "}\n"
    ),
}

BASE_CONFIG = {
    "scan_dirs": ["src"],
    "extra_files": [],
    "never_traverse": ["begin", "clear", "end", "find", "insert", "push_back",
                       "reserve", "size"],
    "call_aliases": {},
    "planes": {
        "data_plane_files": [
            "src/matching/compiled_pst.h",
            "src/matching/compiled_pst.cpp",
            "src/routing/compiled_annotation.h",
            "src/routing/compiled_annotation.cpp",
            "src/broker/dispatch_batch.h",
        ],
        "data_plane_functions": [
            ["src/broker/broker_core.cpp", "BrokerCore::dispatch"],
            ["src/broker/broker_core.cpp", "BrokerCore::dispatch_pinned"],
            ["src/broker/broker_core.cpp", "BrokerCore::match_all"],
            ["src/matching/pst_matcher.cpp", "PstMatcher::match"],
            ["src/matching/pst_matcher.cpp", "PstMatcher::match_into"],
        ],
        "forbidden_tokens": [
            "add_with_result", "remove_with_result", "add_subscription",
            "remove_subscription", "publish_snapshot", "registry_",
            "space_counts_", "builder_", "snapshot_.store",
        ],
        "reachability_roots": [
            "BrokerCore::dispatch", "BrokerCore::dispatch_pinned",
            "BrokerCore::match_all", "PstMatcher::match",
            "PstMatcher::match_into",
        ],
        "allowed_locking": [],
        "forbidden_calls": [
            "add_with_result", "remove_with_result", "add_subscription",
            "remove_subscription", "publish_snapshot",
        ],
        "forbidden_members": {"BrokerCore": ["registry_", "builder_"]},
        "snapshot": {
            "type": "CoreSnapshot",
            "home": ["src/broker/core_snapshot.h", "src/broker/core_snapshot.cpp"],
            "scan_prefixes": ["src/"],
        },
    },
    "locks": {"declared_edges": []},
    "alloc": {
        "roots": ["BrokerCore::dispatch", "BrokerCore::dispatch_pinned"],
        "allocating_types": ["vector", "string", "TritVector"],
        "max_suppressions": 4,
        "expected_suppressions": None,
    },
}


def run_analyzer(root, config_path, rules=None, frontend="fallback",
                 json_out=None):
    cmd = [sys.executable, str(ANALYZER), "--root", str(root),
           "--config", str(config_path), "--frontend", frontend]
    if rules:
        cmd += ["--rules", rules]
    if json_out:
        cmd += ["--json", str(json_out)]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


class AnalyzeFixtureTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write_tree(self, overrides=None, config_overrides=None):
        files = dict(CLEAN_TREE)
        if overrides:
            files.update(overrides)
        for rel, content in files.items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        for key, value in (config_overrides or {}).items():
            node = cfg
            parts = key.split(".")
            for part in parts[:-1]:
                node = node[part]
            node[parts[-1]] = value
        cfg_path = self.root / "analyze_config.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg_path

    def run_tree(self, overrides=None, config_overrides=None, rules=None):
        cfg = self.write_tree(overrides, config_overrides)
        return run_analyzer(self.root, cfg, rules=rules)


# ---------------------------------------------------------------------------
# check_planes parity: every verdict of the retired fixture suite
# ---------------------------------------------------------------------------


class PlanesTest(AnalyzeFixtureTest):
    def test_clean_tree_passes(self):
        result = self.run_tree()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("all invariants hold", result.stdout)

    def test_forbidden_token_in_data_plane_tu(self):
        result = self.run_tree({
            "src/matching/compiled_pst.cpp":
                "int compiled_match() { return add_with_result(1); }\n",
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("compiled_pst.cpp:1", result.stderr)
        self.assertIn("add_with_result", result.stderr)

    def test_forbidden_token_in_data_plane_header_rejected(self):
        # The batch context is read on every dispatch; it must never reach
        # back into the control plane's registry.
        result = self.run_tree({
            "src/broker/dispatch_batch.h":
                "struct DispatchBatch { int n = registry_.size(); };\n",
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("dispatch_batch.h:1", result.stderr)
        self.assertIn("registry_", result.stderr)

    def test_forbidden_token_in_data_plane_function_body(self):
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                "int BrokerCore::dispatch(int event) {\n"
                "  publish_snapshot(event);\n"
                "  return 0;\n"
                "}\n"
                "int BrokerCore::dispatch_pinned(int event) { return event; }\n"
                "int BrokerCore::match_all(int event) { return event; }\n"
            ),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("broker_core.cpp:2", result.stderr)
        self.assertIn("BrokerCore::dispatch", result.stderr)
        self.assertIn("publish_snapshot", result.stderr)

    def test_control_plane_function_in_same_tu_is_allowed(self):
        # add_subscription touching registry_ lives in the same TU as
        # dispatch; only the data-plane *bodies* (and what they reach) are
        # constrained.
        result = self.run_tree()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_snapshot_construction_outside_home_rejected(self):
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                CLEAN_TREE["src/broker/broker_core.cpp"]
                + "void BrokerCore::rebuild() {\n"
                "  auto s = std::make_shared<CoreSnapshot>();\n"
                "}\n"
            ),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("CoreSnapshot constructed outside", result.stderr)

    def test_brace_init_construction_rejected(self):
        result = self.run_tree({
            "src/routing/psg_annotation.cpp":
                "int f() { auto s = CoreSnapshot{2}; return s.version; }\n",
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("psg_annotation.cpp:1", result.stderr)

    def test_comments_and_strings_ignored(self):
        result = self.run_tree({
            "src/matching/compiled_pst.cpp": (
                "// prose about add_with_result and publish_snapshot\n"
                "/* registry_ and new CoreSnapshot in a block comment */\n"
                'const char* k = "snapshot_.store(CoreSnapshot{})";\n'
                "int compiled_match() { return 1; }\n"
            ),
        })
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_missing_data_plane_function_reported(self):
        result = self.run_tree({
            "src/broker/broker_core.cpp":
                "int BrokerCore::match_all(int event) { return event; }\n",
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("no definition of data-plane function", result.stderr)

    def test_declaration_is_not_a_body(self):
        # A declaration of dispatch (ends in ';') must not be treated as a
        # definition; the definition after it still is.
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                "int BrokerCore::dispatch(int event);\n"
                "int BrokerCore::dispatch(int event) { return event; }\n"
                "int BrokerCore::dispatch_pinned(int event) { return event; }\n"
                "int BrokerCore::match_all(int event) { return event; }\n"
            ),
        })
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_mutex_reachable_from_dispatch_rejected(self):
        # The AST upgrade over check_planes: locking behind a call is
        # caught even though no forbidden token appears in the body.
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                "int BrokerCore::dispatch(int event) {\n"
                "  lookup(event);\n"
                "  return 0;\n"
                "}\n"
                "int BrokerCore::lookup(int event) {\n"
                "  MutexLock lock(mutex_);\n"
                "  return event;\n"
                "}\n"
                "int BrokerCore::dispatch_pinned(int event) { return event; }\n"
                "int BrokerCore::match_all(int event) { return event; }\n"
            ),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("mutex acquisition in data-plane reachable code",
                      result.stderr)
        self.assertIn("BrokerCore::dispatch -> BrokerCore::lookup",
                      result.stderr)

    def test_mutex_reachable_from_standalone_matcher_rejected(self):
        # A lazily compiled kernel cache behind the matcher's const match
        # path must be caught: kernels are built by freeze(), not on read.
        result = self.run_tree({
            "src/matching/pst_matcher.cpp": (
                "void PstMatcher::match(int event) const { (void)event; }\n"
                "void PstMatcher::match_into(int event, int out) const {\n"
                "  kernel_for(event);\n"
                "  (void)out;\n"
                "}\n"
                "int PstMatcher::kernel_for(int event) const {\n"
                "  MutexLock lock(cache_mutex_);\n"
                "  return event;\n"
                "}\n"
            ),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("mutex acquisition in data-plane reachable code",
                      result.stderr)
        self.assertIn("PstMatcher::match_into -> PstMatcher::kernel_for",
                      result.stderr)


# ---------------------------------------------------------------------------
# Lock-order rule
# ---------------------------------------------------------------------------

LOCK_HEADER = (
    "struct B;\n"
    "struct A {\n"
    "  void lock_then_call();\n"
    "  void locked_back();\n"
    "  gryphon::Mutex mu_;\n"
    "  B* peer_;\n"
    "};\n"
    "struct B {\n"
    "  void locked();\n"
    "  gryphon::Mutex mu_;\n"
    "  A* owner_;\n"
    "};\n"
)


class LocksTest(AnalyzeFixtureTest):
    def test_cross_tu_lock_order_inversion(self):
        # A::mu_ is held while calling into B (one TU); B::mu_ is held
        # while calling back into A (another TU): a cycle no single
        # translation unit exhibits.
        result = self.run_tree({
            "src/broker/ab.h": LOCK_HEADER,
            "src/broker/a.cpp": (
                "void A::lock_then_call() {\n"
                "  MutexLock lock(mu_);\n"
                "  peer_->locked();\n"
                "}\n"
                "void A::locked_back() { MutexLock lock(mu_); }\n"
            ),
            "src/broker/b.cpp": (
                "void B::locked() {\n"
                "  MutexLock lock(mu_);\n"
                "  owner_->locked_back();\n"
                "}\n"
            ),
        }, rules="locks")
        self.assertEqual(result.returncode, 1)
        self.assertIn("lock-order cycle", result.stderr)
        self.assertIn("A::mu_", result.stderr)
        self.assertIn("B::mu_", result.stderr)

    def test_scoped_release_breaks_the_cycle(self):
        # Same call shape, but A releases its guard (inner scope) before
        # calling out — scope-accurate replay must not fabricate the edge.
        result = self.run_tree({
            "src/broker/ab.h": LOCK_HEADER,
            "src/broker/a.cpp": (
                "void A::lock_then_call() {\n"
                "  { MutexLock lock(mu_); }\n"
                "  peer_->locked();\n"
                "}\n"
                "void A::locked_back() { MutexLock lock(mu_); }\n"
            ),
            "src/broker/b.cpp": (
                "void B::locked() {\n"
                "  MutexLock lock(mu_);\n"
                "  owner_->locked_back();\n"
                "}\n"
            ),
        }, rules="locks")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_multi_mutex_class_without_declared_order(self):
        result = self.run_tree({
            "src/broker/owner.h": (
                "struct Owner {\n"
                "  gryphon::Mutex a_;\n"
                "  gryphon::Mutex b_;\n"
                "};\n"
            ),
        }, rules="locks")
        self.assertEqual(result.returncode, 1)
        self.assertIn("no declared acquisition order", result.stderr)
        self.assertIn("Owner", result.stderr)

    def test_acquired_before_declares_the_order(self):
        result = self.run_tree({
            "src/broker/owner.h": (
                "struct Owner {\n"
                "  gryphon::Mutex a_ ACQUIRED_BEFORE(b_);\n"
                "  gryphon::Mutex b_;\n"
                "};\n"
            ),
        }, rules="locks")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_declared_order_contradicting_usage_is_a_cycle(self):
        # Annotation says a_ before b_; the code takes them the other way.
        result = self.run_tree({
            "src/broker/owner.h": (
                "struct Owner {\n"
                "  void backwards();\n"
                "  gryphon::Mutex a_ ACQUIRED_BEFORE(b_);\n"
                "  gryphon::Mutex b_;\n"
                "};\n"
            ),
            "src/broker/owner.cpp": (
                "void Owner::backwards() {\n"
                "  MutexLock lb(b_);\n"
                "  MutexLock la(a_);\n"
                "}\n"
            ),
        }, rules="locks")
        self.assertEqual(result.returncode, 1)
        self.assertIn("lock-order cycle", result.stderr)


# ---------------------------------------------------------------------------
# Hot-path allocation rule
# ---------------------------------------------------------------------------


class AllocTest(AnalyzeFixtureTest):
    def test_allocation_reachable_from_dispatch_pinned(self):
        # One direct `new`, one container growth behind a call, one
        # by-value parameter of an allocating type.
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                "int BrokerCore::dispatch(int event) { return event; }\n"
                "int BrokerCore::dispatch_pinned(int event) {\n"
                "  int* p = new int(event);\n"
                "  stage(event);\n"
                "  return *p;\n"
                "}\n"
                "void BrokerCore::stage(int event) { scratch_.push_back(event); }\n"
                "void BrokerCore::sink(std::vector<int> items) { (void)items; }\n"
                "int BrokerCore::match_all(int event) { sink({}); return event; }\n"
            ),
        }, rules="alloc")
        self.assertEqual(result.returncode, 1)
        self.assertIn("new allocation", result.stderr)
        self.assertIn("grow allocation", result.stderr)
        self.assertIn("dispatch_pinned -> BrokerCore::stage", result.stderr)
        # sink is only reachable from match_all, which is not an alloc
        # root — its by-value vector parameter must NOT be flagged.
        self.assertNotIn("'items'", result.stderr)

    def test_by_value_param_on_dispatch_path_flagged(self):
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                "int BrokerCore::dispatch(int event) { sink({}); return event; }\n"
                "int BrokerCore::dispatch_pinned(int event) { return event; }\n"
                "int BrokerCore::match_all(int event) { return event; }\n"
                "void BrokerCore::sink(std::vector<int> items) { (void)items; }\n"
            ),
        }, rules="alloc")
        self.assertEqual(result.returncode, 1)
        self.assertIn("by-value parameter 'items' of allocating type",
                      result.stderr)

    def test_suppression_silences_a_counted_site(self):
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                "int BrokerCore::dispatch(int event) { return event; }\n"
                "int BrokerCore::dispatch_pinned(int event) {\n"
                "  // gryphon-analyze: allow(alloc): fixture-justified growth\n"
                "  scratch_.push_back(event);\n"
                "  return event;\n"
                "}\n"
                "int BrokerCore::match_all(int event) { return event; }\n"
            ),
        }, rules="alloc")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_suppressions_over_budget_rejected(self):
        result = self.run_tree({
            "src/broker/broker_core.cpp": (
                "int BrokerCore::dispatch(int event) { return event; }\n"
                "int BrokerCore::dispatch_pinned(int event) {\n"
                "  // gryphon-analyze: allow(alloc): fixture-justified growth\n"
                "  scratch_.push_back(event);\n"
                "  return event;\n"
                "}\n"
                "int BrokerCore::match_all(int event) { return event; }\n"
            ),
        }, config_overrides={"alloc.max_suppressions": 0}, rules="alloc")
        self.assertEqual(result.returncode, 1)
        self.assertIn("exceed the budget", result.stderr)

    def test_suppression_count_drift_rejected(self):
        # The baseline pins the count both ways: a *removed* suppression
        # must force a config update too, or the budget rots.
        result = self.run_tree(
            config_overrides={"alloc.expected_suppressions": 2}, rules="alloc")
        self.assertEqual(result.returncode, 1)
        self.assertIn("suppression count drifted", result.stderr)


# ---------------------------------------------------------------------------
# Protocol exhaustiveness rule
# ---------------------------------------------------------------------------

PROTO_WIRE = (
    "enum class FrameType : std::uint8_t {\n"
    "  kHello = 1,\n"
    "  kData = 2,\n"
    "  kBye = 3,\n"
    "};\n"
    "inline constexpr int kFrameTypeCount = 3;\n"
)
PROTO_BROKER = (
    "struct Broker {\n"
    "  struct Stats {\n"
    "    int frames{0};\n"
    "    int drops{0};\n"
    "  };\n"
    "};\n"
    "void on_frame(FrameType t) {\n"
    "  switch (t) {\n"
    "    case FrameType::kHello: break;\n"
    "    case FrameType::kData: break;\n"
    "    case FrameType::kBye: break;\n"
    "  }\n"
    "}\n"
)
PROTO_TEST = (
    "int cover() {\n"
    "  int a = static_cast<int>(FrameType::kHello);\n"
    "  int b = static_cast<int>(FrameType::kData);\n"
    "  int c = static_cast<int>(FrameType::kBye);\n"
    "  return a + b + c + kFrameTypeCount;\n"
    "}\n"
)
PROTO_REPORT = (
    "void report(const Broker::Stats& s) {\n"
    "  print(s.frames);\n"
    "  print(s.drops);\n"
    "}\n"
)
PROTO_CONFIG = {
    "extra_files": ["tests/test_wire.cpp", "tools/report.cpp"],
    "protocol": {
        "enum": "FrameType",
        "enum_file": "src/broker/wire.h",
        "count_token": "kFrameTypeCount",
        "handler_files": ["src/broker/broker.cpp"],
        "test_file": "tests/test_wire.cpp",
        "stats_class": "Broker::Stats",
        "stats_report_file": "tools/report.cpp",
        "stats_doc_file": "docs/stats.md",
    },
}


class ProtocolTest(AnalyzeFixtureTest):
    def proto_tree(self, overrides=None):
        files = {
            "src/broker/wire.h": PROTO_WIRE,
            "src/broker/broker.cpp": PROTO_BROKER,
            "tests/test_wire.cpp": PROTO_TEST,
            "tools/report.cpp": PROTO_REPORT,
            "docs/stats.md": "| frames | decoded |\n| drops | rejected |\n",
        }
        files.update(overrides or {})
        cfg_overrides = {"extra_files": PROTO_CONFIG["extra_files"],
                         "protocol": PROTO_CONFIG["protocol"]}
        cfg = self.write_tree(files, cfg_overrides)
        return run_analyzer(self.root, cfg, rules="protocol")

    def test_clean_protocol_fixture_passes(self):
        result = self.proto_tree()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_unhandled_frame_type_rejected(self):
        result = self.proto_tree({
            "src/broker/broker.cpp": PROTO_BROKER.replace(
                "    case FrameType::kBye: break;\n", ""),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("FrameType::kBye has no `case` arm", result.stderr)

    def test_missing_round_trip_coverage_rejected(self):
        result = self.proto_tree({
            "tests/test_wire.cpp": PROTO_TEST.replace(
                "  int c = static_cast<int>(FrameType::kBye);\n",
                "  int c = 3;\n"),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("no round-trip coverage", result.stderr)

    def test_stale_frame_count_rejected(self):
        result = self.proto_tree({
            "src/broker/wire.h": PROTO_WIRE.replace(
                "kFrameTypeCount = 3", "kFrameTypeCount = 4"),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("kFrameTypeCount = 4 but FrameType has 3 enumerators",
                      result.stderr)

    def test_unreported_stats_counter_rejected(self):
        result = self.proto_tree({
            "tools/report.cpp": PROTO_REPORT.replace(
                "  print(s.drops);\n", ""),
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("Broker::Stats::drops never reaches the shutdown report",
                      result.stderr)

    def test_undocumented_stats_counter_rejected(self):
        result = self.proto_tree({
            "docs/stats.md": "| frames | decoded |\n",
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("Broker::Stats::drops is undocumented", result.stderr)


# ---------------------------------------------------------------------------
# CLI plumbing + the live tree
# ---------------------------------------------------------------------------


class CliTest(AnalyzeFixtureTest):
    def test_unknown_rule_is_a_usage_error(self):
        cfg = self.write_tree()
        result = run_analyzer(self.root, cfg, rules="planes,nonsense")
        self.assertEqual(result.returncode, 2)
        self.assertIn("unknown rule", result.stderr)

    def test_missing_config_is_a_usage_error(self):
        self.write_tree()
        result = run_analyzer(self.root, self.root / "no_such_config.json")
        self.assertEqual(result.returncode, 2)
        self.assertIn("cannot load config", result.stderr)

    def test_json_artifact_written(self):
        cfg = self.write_tree({
            "src/matching/compiled_pst.cpp":
                "int compiled_match() { return add_with_result(1); }\n",
        })
        out = self.root / "findings.json"
        result = run_analyzer(self.root, cfg, json_out=out)
        self.assertEqual(result.returncode, 1)
        payload = json.loads(out.read_text())
        self.assertEqual(payload["frontend"], "fallback")
        self.assertTrue(any(f["rule"] == "planes" and
                            "add_with_result" in f["message"]
                            for f in payload["findings"]))


class LiveTreeTest(unittest.TestCase):
    def test_real_repo_is_clean(self):
        result = run_analyzer(REPO, ANALYZER.parent / "config.json")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("all invariants hold", result.stdout)

    @unittest.skipUnless(_have_cindex(), "clang.cindex not importable")
    def test_cindex_frontend_agrees_on_live_tree(self):
        result = run_analyzer(REPO, ANALYZER.parent / "config.json",
                              frontend="cindex")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("frontend=cindex", result.stdout)


if __name__ == "__main__":
    unittest.main()
