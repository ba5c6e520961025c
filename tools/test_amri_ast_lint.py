#!/usr/bin/env python3
"""Unit tests for amri_ast_lint.py, run on inline fixture sources.

Executed by ctest as `amri_ast_lint_selftest` and runnable directly:
  python3 tools/test_amri_ast_lint.py

Each test feeds (path, text) fixture pairs through `analyze()` with the
checks under test pinned, so a fixture written for AMRI101 cannot drown
in AMRI104 noise from its own scaffolding members.
"""

from __future__ import annotations

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from amri_ast_lint import (  # noqa: E402
    analyze,
    rank_constant_name,
    render_ranks_header,
)


def run(text, path="src/fixture.hpp", checks=None, seed_edges=(),
        require_rank_init=False, sources=None):
    """analyze() a single fixture (or an explicit source list) with seed
    edges disabled, so only the fixture's own structure is visible."""
    if sources is None:
        sources = [(path, text)]
    return analyze(sources, checks=checks, seed_edges=list(seed_edges),
                   require_rank_init=require_rank_init)


def rules_of(findings):
    return [f.rule for f in findings]


class CostParityTest(unittest.TestCase):
    """AMRI101: every metered entry point reaches exactly one charge."""

    CHECKS = {"AMRI101"}

    def test_direct_charge_is_clean(self):
        findings, _, _ = run(
            "class GoodIndex : public TupleIndex {\n"
            " public:\n"
            "  void insert(int k) { meter_->charge_insert(1); }\n"
            " private:\n"
            "  CostMeter* meter_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_uncharged_entry_flagged(self):
        findings, _, _ = run(
            "class BadIndex : public TupleIndex {\n"
            " public:\n"
            "  void insert(int k) { table_[k] = 1; }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI101"])
        self.assertIn("uncharged", findings[0].message)
        self.assertEqual(findings[0].line, 3)

    def test_charge_through_same_class_helper(self):
        findings, _, _ = run(
            "class HelperIndex : public TupleIndex {\n"
            " public:\n"
            "  void insert(int k) { charge(); }\n"
            " private:\n"
            "  void charge() { meter_->charge_insert(1); }\n"
            "  CostMeter* meter_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_charge_via_costmeter_param(self):
        findings, _, _ = run(
            "class ParamIndex : public TupleIndex {\n"
            " public:\n"
            "  void probe(int k, CostMeter& m) { m.charge_probe(1); }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_delegation_to_ctor_metered_member(self):
        findings, _, _ = run(
            "class Delegating : public TupleIndex {\n"
            " public:\n"
            "  explicit Delegating(CostMeter* meter) : inner_(meter) {}\n"
            "  void insert(int k) { inner_->insert(k); }\n"
            " private:\n"
            "  HashIndex* inner_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_double_charge_flagged(self):
        findings, _, _ = run(
            "class DoubleIndex : public TupleIndex {\n"
            " public:\n"
            "  explicit DoubleIndex(CostMeter* meter) : inner_(meter) {}\n"
            "  void insert(int k) {\n"
            "    meter_->charge_insert(1);\n"
            "    inner_->insert(k);\n"
            "  }\n"
            " private:\n"
            "  CostMeter* meter_;\n"
            "  HashIndex* inner_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI101"])
        self.assertIn("double-charged", findings[0].message)

    def test_two_step_make_unique_move_tracked(self):
        findings, _, _ = run(
            "class TwoStep : public TupleIndex {\n"
            " public:\n"
            "  void rebuild(int bits) {\n"
            "    auto idx = std::make_unique<HashIndex>(bits, meter_);\n"
            "    inner_ = std::move(idx);\n"
            "  }\n"
            "  void insert(int k) { inner_->insert(k); }\n"
            " private:\n"
            "  std::unique_ptr<HashIndex> inner_;\n"
            "  CostMeter* meter_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_push_back_container_and_range_for(self):
        findings, _, _ = run(
            "class ModulePool : public TupleIndex {\n"
            " public:\n"
            "  void add_module(CostMeter* meter) {\n"
            "    mods_.push_back(std::make_unique<HashIndex>(meter));\n"
            "  }\n"
            "  void probe(int k) {\n"
            "    for (auto& m : mods_) m->probe(k);\n"
            "  }\n"
            " private:\n"
            "  std::vector<std::unique_ptr<HashIndex>> mods_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_virtual_delegate_to_declared_only_entry(self):
        # A default batch loop on an interface: the loop body calls a
        # pure-virtual insert(), which charges in the implementation.
        findings, _, _ = run(
            "class TupleIndex {\n"
            " public:\n"
            "  virtual void insert(int k) = 0;\n"
            "  virtual void insert_batch(const std::vector<int>& ks) {\n"
            "    for (int k : ks) insert(k);\n"
            "  }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_bucket_directory_must_not_charge(self):
        findings, _, _ = run(
            "class BucketDirectory {\n"
            " public:\n"
            "  void insert(int k) { meter_->charge_insert(1); }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI101"])
        self.assertIn("charge-free", findings[0].message)

    def test_bucket_directory_chargeless_is_clean(self):
        findings, _, _ = run(
            "class BucketDirectory {\n"
            " public:\n"
            "  void insert(int k) { slots_[k] = 1; }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_unmetered_class_is_out_of_scope(self):
        findings, _, _ = run(
            "class FreeList {\n"
            " public:\n"
            "  void insert(int k) { slots_[k] = 1; }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_waiver_on_line_above(self):
        findings, _, _ = run(
            "class WaivedIndex : public TupleIndex {\n"
            " public:\n"
            "  // amri-lint: allow(AMRI101)\n"
            "  void insert(int k) { table_[k] = 1; }\n"
            "};\n", checks={"AMRI100", "AMRI101"})
        self.assertEqual(rules_of(findings), [])


class ClockDisciplineTest(unittest.TestCase):
    """AMRI102: no wall-clock reads in cost-metered paths."""

    CHECKS = {"AMRI102"}

    def test_chrono_in_entry_flagged_once_per_method(self):
        findings, _, _ = run(
            "class ClockIndex : public TupleIndex {\n"
            " public:\n"
            "  void probe(int k) {\n"
            "    auto t0 = std::chrono::steady_clock::now();\n"
            "    meter_->charge_probe(1);\n"
            "    auto t1 = std::chrono::steady_clock::now();\n"
            "  }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI102"])
        self.assertEqual(findings[0].line, 4)  # first chrono read
        self.assertIn("2 steady/system_clock read(s)", findings[0].message)

    def test_chrono_in_helper_reached_from_entry(self):
        findings, _, _ = run(
            "class TimedIndex : public TupleIndex {\n"
            " public:\n"
            "  void probe(int k) { timed_probe(k); }\n"
            " private:\n"
            "  void timed_probe(int k) {\n"
            "    auto t0 = std::chrono::system_clock::now();\n"
            "  }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI102"])
        self.assertEqual(findings[0].line, 6)

    def test_telemetry_paths_exempt(self):
        findings, _, _ = run(
            "class StemOperator {\n"
            " public:\n"
            "  void probe(int k) {\n"
            "    auto t0 = std::chrono::steady_clock::now();\n"
            "  }\n"
            "};\n", path="src/telemetry/fixture.hpp", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_chrono_outside_metered_class_is_fine(self):
        findings, _, _ = run(
            "class Profiler {\n"
            " public:\n"
            "  void probe(int k) {\n"
            "    auto t0 = std::chrono::steady_clock::now();\n"
            "  }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_chrono_in_non_entry_method_not_reached(self):
        findings, _, _ = run(
            "class LazyIndex : public TupleIndex {\n"
            " public:\n"
            "  void insert(int k) { table_[k] = 1; }\n"
            "  void report() {\n"
            "    auto t0 = std::chrono::steady_clock::now();\n"
            "  }\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_waiver_above_first_read_covers_method(self):
        findings, _, _ = run(
            "class WaivedClock : public TupleIndex {\n"
            " public:\n"
            "  void probe(int k) {\n"
            "    // amri-lint: allow(AMRI102)\n"
            "    auto t0 = std::chrono::steady_clock::now();\n"
            "    auto t1 = std::chrono::steady_clock::now();\n"
            "  }\n"
            "};\n", checks={"AMRI100", "AMRI102"})
        self.assertEqual(rules_of(findings), [])


LOCK_PAIR = (
    "class Leaf {\n"
    " public:\n"
    "  void log(int v) { MutexLock lk(mu_); }\n"
    "  Mutex mu_;\n"
    "};\n"
    "class Root {\n"
    " public:\n"
    "  void run() {\n"
    "    MutexLock lk(mu_);\n"
    "    leaf_->log(1);\n"
    "  }\n"
    "  Mutex mu_;\n"
    "  Leaf* leaf_;\n"
    "};\n")


class LockOrderTest(unittest.TestCase):
    """AMRI103: static acquisition graph, ranks, cycles, self-deadlock."""

    CHECKS = {"AMRI103"}

    def test_nested_acquisition_yields_edge_and_ranks(self):
        findings, ranks, edges = run(
            "class Inner {\n"
            " public:\n"
            "  Mutex mu_;\n"
            "};\n"
            "class Outer {\n"
            " public:\n"
            "  void f() {\n"
            "    MutexLock a(mu_);\n"
            "    MutexLock b(inner_.mu_);\n"
            "  }\n"
            "  Mutex mu_;\n"
            "  Inner inner_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])
        pairs = {(e.src, e.dst) for e in edges}
        self.assertIn(("Outer::mu_", "Inner::mu_"), pairs)
        self.assertLess(ranks["Outer::mu_"], ranks["Inner::mu_"])

    def test_call_under_lock_yields_edge(self):
        findings, ranks, edges = run(LOCK_PAIR, checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])
        hit = [e for e in edges
               if (e.src, e.dst) == ("Root::mu_", "Leaf::mu_")]
        self.assertTrue(hit)
        self.assertIn("under the lock", hit[0].why)
        self.assertLess(ranks["Root::mu_"], ranks["Leaf::mu_"])

    def test_cycle_reported_and_ranks_withheld(self):
        findings, ranks, _ = run(
            "class Ping {\n"
            " public:\n"
            "  void f() {\n"
            "    MutexLock lk(mu_);\n"
            "    peer_->g();\n"
            "  }\n"
            "  Mutex mu_;\n"
            "  Pong* peer_;\n"
            "};\n"
            "class Pong {\n"
            " public:\n"
            "  void g() {\n"
            "    MutexLock lk(mu_);\n"
            "    peer_->f();\n"
            "  }\n"
            "  Mutex mu_;\n"
            "  Ping* peer_;\n"
            "};\n", checks=self.CHECKS)
        # The transitive closure also proves each side may re-acquire its
        # own mutex through the cycle, so expect those findings too.
        self.assertEqual(set(rules_of(findings)), {"AMRI103"})
        self.assertTrue(any("lock acquisition cycle" in f.message
                            for f in findings))
        self.assertIsNone(ranks)

    def test_nested_same_mutex_is_self_deadlock(self):
        findings, _, _ = run(
            "class Recur {\n"
            " public:\n"
            "  void f() {\n"
            "    MutexLock a(mu_);\n"
            "    MutexLock b(mu_);\n"
            "  }\n"
            "  Mutex mu_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI103"])
        self.assertIn("self-deadlock", findings[0].message)
        self.assertEqual(findings[0].line, 5)

    def test_reacquire_via_call_is_self_deadlock(self):
        findings, _, _ = run(
            "class Chain {\n"
            " public:\n"
            "  void f() {\n"
            "    MutexLock lk(mu_);\n"
            "    peer_->f();\n"
            "  }\n"
            "  Mutex mu_;\n"
            "  Chain* peer_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI103"])
        self.assertIn("may re-acquire", findings[0].message)

    def test_disjoint_scopes_do_not_nest(self):
        findings, _, edges = run(
            "class Seq {\n"
            " public:\n"
            "  void f() {\n"
            "    { MutexLock a(mu_); }\n"
            "    { MutexLock b(mu_); }\n"
            "  }\n"
            "  Mutex mu_;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])
        self.assertEqual(edges, [])

    def test_seed_edges_orient_ranks(self):
        src = ("class A {\n public:\n  Mutex mu_;\n};\n"
               "class B {\n public:\n  Mutex mu_;\n};\n")
        _, ranks, edges = run(
            src, checks=self.CHECKS,
            seed_edges=[("B::mu_", "A::mu_", "runtime-only ordering")])
        self.assertLess(ranks["B::mu_"], ranks["A::mu_"])
        self.assertEqual(edges[0].why, "runtime-only ordering")

    def test_seed_edge_with_unknown_node_dropped(self):
        src = "class A {\n public:\n  Mutex mu_;\n};\n"
        _, ranks, edges = run(
            src, checks=self.CHECKS,
            seed_edges=[("Ghost::mu_", "A::mu_", "stale seed")])
        self.assertEqual(edges, [])
        self.assertEqual(ranks, {"A::mu_": 10})

    def test_ranks_deterministic(self):
        _, r1, _ = run(LOCK_PAIR, checks=self.CHECKS)
        _, r2, _ = run(LOCK_PAIR, checks=self.CHECKS)
        self.assertEqual(r1, r2)

    def test_rank_init_required(self):
        src = ("class A {\n"
               " public:\n"
               "  void f() { MutexLock lk(mu_); }\n"
               "  Mutex mu_;\n"
               "};\n")
        findings, _, _ = run(src, checks=self.CHECKS,
                             require_rank_init=True)
        self.assertEqual(rules_of(findings), ["AMRI103"])
        self.assertIn("lockrank::kAMu", findings[0].message)

    def test_rank_init_satisfied(self):
        src = ("class A {\n"
               " public:\n"
               "  void f() { MutexLock lk(mu_); }\n"
               "  Mutex mu_{lockrank::kAMu};\n"
               "};\n")
        findings, _, _ = run(src, checks=self.CHECKS,
                             require_rank_init=True)
        self.assertEqual(rules_of(findings), [])


class RankHeaderTest(unittest.TestCase):
    def test_constant_names(self):
        self.assertEqual(rank_constant_name("MetricsRegistry::mu_"),
                         "kMetricsRegistryMu")
        self.assertEqual(rank_constant_name("ShardedBitIndex::Shard::mu"),
                         "kShardedBitIndexShardMu")

    def test_header_rendering(self):
        header = render_ranks_header({"B::mu_": 20, "A::mu_": 10})
        self.assertIn("#pragma once", header)
        self.assertIn("inline constexpr int kAMu = 10;", header)
        self.assertIn("inline constexpr int kBMu = 20;", header)
        self.assertLess(header.index("kAMu"), header.index("kBMu"))
        self.assertIn("namespace amri::lockrank", header)

    def test_header_has_no_line_continuations_in_comments(self):
        # A trailing backslash in a // comment trips -Wcomment in every
        # including TU; the generator must never emit one.
        header = render_ranks_header({"A::mu_": 10})
        for line in header.splitlines():
            self.assertFalse(line.endswith("\\"), line)

    def test_header_is_ascii(self):
        header = render_ranks_header({"A::mu_": 10})
        header.encode("ascii")


class AnnotationCoverageTest(unittest.TestCase):
    """AMRI104: mutable members of Mutex-owning classes carry guards."""

    CHECKS = {"AMRI104"}

    def test_unannotated_member_flagged(self):
        findings, _, _ = run(
            "class Counted {\n"
            " public:\n"
            "  void bump() { MutexLock lk(mu_); ++count_; }\n"
            " private:\n"
            "  Mutex mu_;\n"
            "  int count_ = 0;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), ["AMRI104"])
        self.assertIn("Counted::count_", findings[0].message)
        self.assertEqual(findings[0].line, 6)

    def test_skip_list_members_exempt(self):
        findings, _, _ = run(
            "class Skips {\n"
            " private:\n"
            "  Mutex mu_;\n"
            "  CondVar cv_;\n"
            "  const int limit_ = 8;\n"
            "  static int instances_;\n"
            "  std::atomic<int> seq_{0};\n"
            "  telemetry::Counter* hits_ = nullptr;\n"
            "  telemetry::Gauge* depth_ = nullptr;\n"
            "  std::vector<int>& backing_;\n"
            "  int held_ AMRI_GUARDED_BY(mu_);\n"
            "  int* boxed_ AMRI_PT_GUARDED_BY(mu_);\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_class_without_mutex_not_checked(self):
        findings, _, _ = run(
            "class Plain {\n"
            " private:\n"
            "  int count_ = 0;\n"
            "};\n", checks=self.CHECKS)
        self.assertEqual(rules_of(findings), [])

    def test_waiver_on_member_line(self):
        findings, _, _ = run(
            "class Waived {\n"
            " private:\n"
            "  Mutex mu_;\n"
            "  int count_ = 0;  // amri-lint: allow(AMRI104)\n"
            "};\n", checks={"AMRI100", "AMRI104"})
        self.assertEqual(rules_of(findings), [])


class WaiverHygieneTest(unittest.TestCase):
    """AMRI100: waivers must suppress something real."""

    def test_stale_waiver_flagged(self):
        findings, _, _ = run(
            "class CleanIndex : public TupleIndex {\n"
            " public:\n"
            "  // amri-lint: allow(AMRI101)\n"
            "  void insert(int k) { meter_->charge_insert(1); }\n"
            "};\n", checks={"AMRI100", "AMRI101"})
        self.assertEqual(rules_of(findings), ["AMRI100"])
        self.assertIn("stale waiver", findings[0].message)
        self.assertEqual(findings[0].line, 3)

    def test_unknown_rule_in_waiver_flagged(self):
        findings, _, _ = run(
            "int x;  // amri-lint: allow(AMRI177)\n")
        self.assertEqual(rules_of(findings), ["AMRI100"])
        self.assertIn("unknown rule AMRI177", findings[0].message)

    def test_foreign_namespace_waivers_ignored(self):
        # AMRI0xx belongs to amri_lint.py; this tool neither honours nor
        # polices those waivers.
        findings, _, _ = run(
            "int x;  // amri-lint: allow(AMRI002)\n")
        self.assertEqual(rules_of(findings), [])


class OutOfLineTest(unittest.TestCase):
    """Out-of-line .cpp definitions attach to classes declared in headers
    regardless of the order sources are supplied."""

    HPP = ("#pragma once\n"
           "class OolIndex : public TupleIndex {\n"
           " public:\n"
           "  void insert(int k);\n"
           " private:\n"
           "  CostMeter* meter_;\n"
           "};\n")

    def test_uncharged_out_of_line_body_flagged(self):
        cpp = ('#include "ool.hpp"\n'
               "void OolIndex::insert(int k) { table_[k] = 1; }\n")
        findings, _, _ = run(
            None, checks={"AMRI101"},
            sources=[("src/z_ool.cpp", cpp), ("src/a_ool.hpp", self.HPP)])
        self.assertEqual(rules_of(findings), ["AMRI101"])
        self.assertEqual(str(findings[0].path), "src/z_ool.cpp")

    def test_charged_out_of_line_body_clean(self):
        cpp = ('#include "ool.hpp"\n'
               "void OolIndex::insert(int k) { meter_->charge_insert(1); }\n")
        findings, _, _ = run(
            None, checks={"AMRI101"},
            sources=[("src/z_ool.cpp", cpp), ("src/a_ool.hpp", self.HPP)])
        self.assertEqual(rules_of(findings), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
