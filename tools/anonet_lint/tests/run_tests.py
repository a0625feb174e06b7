#!/usr/bin/env python3
"""Self-tests for anonet_lint v2 (run by CTest as lint.selftest).

Four layers:

  - Golden fixtures: every fixture under ../fixtures has a golden findings
    JSON under golden/; the analyzer's machine-readable output must match
    byte-for-byte semantics (path, line, rule, message, fingerprint). A
    rule change that moves or reworded a finding shows up as a readable
    JSON diff. Regenerate deliberately with:
        python3 run_tests.py --regen
  - Call-graph units: receiver-type resolution, forwarding whitelists and
    the audience-taint fixpoint exercised on small in-memory sources
    (ProgramIndex.add_source — no files involved).
  - Depth-bound semantics: `--max-hops 1` approximates the v1 single-hop
    analysis; the transitive-leak fixtures must be invisible at depth 1
    and flagged at the default depth. This pins the PR's headline claim.
  - Baseline/ratchet: fingerprint stability under line drift, the
    new/suppressed/stale partition, justification preservation on update,
    and a CLI-level ratchet round trip through a scratch tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.dirname(HERE)
sys.path.insert(0, TOOL)

import baselines                                    # noqa: E402
from anonet_lint import build_engine                # noqa: E402
from callgraph import CallGraph                     # noqa: E402
from frontend import ProgramIndex                   # noqa: E402
from rules import Finding, RuleEngine               # noqa: E402

FIXTURES = os.path.join(TOOL, "fixtures")
GOLDEN = os.path.join(HERE, "golden")
REPO = os.path.dirname(os.path.dirname(TOOL))
CLI = os.path.join(TOOL, "anonet_lint.py")

# fixture file -> rule it must fire (None: must be completely clean)
FIXTURE_RULES = {
    "d1_unordered_iteration.cpp": "D1",
    "d1_alias_iteration.cpp": "D1",
    "d1_random_device.cpp": "D1",
    "a1_vertex_index.cpp": "A1",
    "a1_transitive_vertex.cpp": "A1",
    "p1_static_state.cpp": "P1",
    "m1_undeclared_outdegree.cpp": "M1",
    "m1_missing_port_capability.cpp": "M1",
    "m1_helper_outdegree.cpp": "M1",
    "m1_transitive_leak.cpp": "M1",
    "m1_forwarding_ok.cpp": None,
    "w1_missing_traits.cpp": "W1",
    "w1_partial_traits.cpp": "W1",
    "w1_raw_payload_frame.cpp": "W1",
    "c1_shared_accumulator.cpp": "C1",
    "f1_float_accumulation.cpp": "F1",
    "s1_stateful_schedule.cpp": "S1",
}


def analyze(path_or_paths, max_hops=8):
    paths = ([path_or_paths] if isinstance(path_or_paths, str)
             else list(path_or_paths))
    engine, _files, _unbuilt = build_engine(paths, max_hops=max_hops)
    return engine.findings


def analyze_source(named_sources, max_hops=8):
    """Run the engine over in-memory (path, text) pairs."""
    index = ProgramIndex()
    for path, text in named_sources:
        index.add_source(path, text)
    index.build()
    engine = RuleEngine(index, max_hops=max_hops)
    engine.run()
    return index, engine.findings


class GoldenFixtureTests(unittest.TestCase):
    maxDiff = None

    def test_fixture_inventory_matches(self):
        on_disk = sorted(f for f in os.listdir(FIXTURES)
                         if f.endswith(".cpp"))
        self.assertEqual(on_disk, sorted(FIXTURE_RULES),
                         "fixture added or removed without updating "
                         "FIXTURE_RULES (and its golden)")


def _add_golden_case(fixture, rule):
    def test(self):
        findings = analyze(os.path.join(FIXTURES, fixture))
        got = baselines.findings_json(findings, root=REPO)
        if rule is None:
            self.assertEqual(got, [], f"{fixture} must be finding-free")
            return
        self.assertTrue(any(f["rule"] == rule for f in got),
                        f"{fixture} did not fire {rule}")
        golden_path = os.path.join(GOLDEN, fixture.replace(".cpp", ".json"))
        with open(golden_path, encoding="utf-8") as fh:
            want = json.load(fh)
        self.assertEqual(got, want)
    test.__name__ = f"test_golden_{fixture.replace('.cpp', '')}"
    setattr(GoldenFixtureTests, test.__name__, test)


for _fixture, _rule in sorted(FIXTURE_RULES.items()):
    _add_golden_case(_fixture, _rule)


class CallGraphTests(unittest.TestCase):
    def test_receiver_type_resolved_through_member_decl(self):
        index, _ = analyze_source([("t.cpp", """
            struct Inner { int poke(int x) { return x; } };
            class Outer {
             public:
              int go() { return inner_.poke(1); }
             private:
              Inner inner_;
            };
        """)])
        graph = CallGraph(index)
        fn = index.classes["Outer"].methods["go"][0]
        calls = [c for c in graph.calls_of(fn) if c.callee == "poke"]
        self.assertEqual(len(calls), 1)
        cls, candidates = graph.resolve(fn, calls[0])
        self.assertEqual(cls, "Inner")
        self.assertEqual([f.qualname for f in candidates], ["Inner::poke"])

    def test_pure_forward_into_declaring_class_is_whitelisted(self):
        index, findings = analyze_source([("t.cpp", """
            class SinkAgent {
             public:
              struct Message { int v; };
              static constexpr bool kParallelSafe = true;
              static constexpr int kModelCapabilities = kNeedsOutdegree;
              Message send(int outdegree, int port) {
                return Message{outdegree};
              }
             private:
              static constexpr int kNeedsOutdegree = 1;
            };
            class ShimAgent {
             public:
              using Message = SinkAgent::Message;
              static constexpr bool kParallelSafe = true;
              Message send(int outdegree, int port) {
                return sink_.send(outdegree, port);
              }
             private:
              SinkAgent sink_;
            };
        """)])
        self.assertEqual([f for f in findings if f.rule == "M1"], [])

    def test_consuming_use_behind_helper_is_flagged(self):
        _, findings = analyze_source([("t.cpp", """
            inline int halve(int n) { return n / 2; }
            class LeakAgent {
             public:
              struct Message { int v; };
              static constexpr bool kParallelSafe = true;
              Message send(int outdegree, int port) {
                return Message{halve(outdegree)};
              }
            };
        """)])
        m1 = [f for f in findings if f.rule == "M1"]
        self.assertEqual(len(m1), 1)
        self.assertIn("LeakAgent", m1[0].message)

    def test_audience_taint_fixpoint_crosses_two_helpers(self):
        index, _ = analyze_source([("t.cpp", """
            struct G { int out_degree(int v) const { return v; } };
            inline int a(const G& g, int v) { return g.out_degree(v); }
            inline int b(const G& g, int v) { return a(g, v); }
        """)])
        graph = CallGraph(index)
        tainted = graph.audience_tainted_functions(max_hops=8)
        self.assertIn("a", tainted)
        self.assertIn("b", tainted)
        self.assertEqual(tainted["a"][0] + 1, tainted["b"][0])


class DepthBoundTests(unittest.TestCase):
    """`--max-hops 1` must behave like the v1 single-hop analysis."""

    def test_m1_transitive_leak_invisible_at_depth_one(self):
        path = os.path.join(FIXTURES, "m1_transitive_leak.cpp")
        self.assertEqual(analyze(path, max_hops=1), [],
                         "the v1-equivalent depth must NOT see the 2-hop "
                         "side-door leak")
        deep = analyze(path)
        self.assertTrue(any(f.rule == "M1" and (f.hops or 0) >= 2
                            for f in deep),
                        "default depth must flag the leak at >= 2 hops")

    def test_a1_transitive_vertex_invisible_at_depth_one(self):
        path = os.path.join(FIXTURES, "a1_transitive_vertex.cpp")
        self.assertEqual([f for f in analyze(path, max_hops=1)
                          if f.rule == "A1"], [])
        self.assertTrue(any(f.rule == "A1" for f in analyze(path)))


class BaselineTests(unittest.TestCase):
    def test_fingerprints_survive_line_drift(self):
        with open(os.path.join(FIXTURES, "d1_alias_iteration.cpp"),
                  encoding="utf-8") as fh:
            raw = fh.read()
        path = os.path.join(REPO, "scratch.cpp")  # virtual; never written
        _, original = analyze_source([(path, raw)])
        _, shifted = analyze_source([(path, "// pad\n// pad\n\n" + raw)])
        fp = lambda fs: [f["fingerprint"] for f in
                         baselines.findings_json(fs, root=REPO)]
        self.assertNotEqual([f.line for f in original],
                            [f.line for f in shifted])
        self.assertEqual(fp(original), fp(shifted))

    def test_apply_baseline_partitions(self):
        old = Finding("x.cpp", 3, "D1", "old message", None)
        kept = Finding("x.cpp", 9, "C1", "kept message", None)
        fresh = Finding("y.cpp", 2, "M1", "fresh message", None)
        with tempfile.TemporaryDirectory() as tmp:
            bl_path = os.path.join(tmp, "baseline.json")
            baselines.update_baseline(bl_path, [old, kept], root=tmp)
            baseline = baselines.load_baseline(bl_path)
            new, suppressed, stale = baselines.apply_baseline(
                [kept, fresh], baseline, root=tmp)
        self.assertEqual([f.message for f, _fp in new], ["fresh message"])
        self.assertEqual([f.message for f, _fp in suppressed],
                         ["kept message"])
        self.assertEqual(len(stale), 1)
        self.assertEqual(stale[0]["message"], "old message")

    def test_update_preserves_justifications(self):
        finding = Finding("x.cpp", 3, "C1", "a message", None)
        with tempfile.TemporaryDirectory() as tmp:
            bl_path = os.path.join(tmp, "baseline.json")
            baselines.update_baseline(bl_path, [finding], root=tmp)
            with open(bl_path, encoding="utf-8") as fh:
                data = json.load(fh)
            data["findings"][0]["justification"] = "because reasons"
            with open(bl_path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            baselines.update_baseline(bl_path, [finding], root=tmp)
            with open(bl_path, encoding="utf-8") as fh:
                after = json.load(fh)
        self.assertEqual(after["findings"][0]["justification"],
                         "because reasons")

    def test_repo_baseline_has_no_unjustified_entries(self):
        bl_path = os.path.join(TOOL, "baseline.json")
        baseline = baselines.load_baseline(bl_path)  # {fingerprint: entry}
        for fingerprint, entry in baseline.items():
            self.assertFalse(
                entry["justification"].startswith("UNJUSTIFIED"),
                f"{fingerprint} committed without a justification")


class RatchetCliTests(unittest.TestCase):
    """End-to-end: the checked-in CLI ratchets a scratch tree."""

    VIOLATION = (
        "#include <unordered_map>\n"
        "class ScratchAgent {\n"
        " public:\n"
        "  struct Message { int v; };\n"
        "  static constexpr bool kParallelSafe = true;\n"
        "  Message send(int, int) const {\n"
        "    int sum = 0;\n"
        "    for (const auto& kv : table_) sum += kv.second;\n"
        "    return Message{sum};\n"
        "  }\n"
        " private:\n"
        "  std::unordered_map<int, int> table_;\n"
        "};\n")

    def run_cli(self, *argv):
        return subprocess.run([sys.executable, CLI, *argv],
                              capture_output=True, text=True, check=False)

    def test_new_finding_fails_then_baselines_then_ratchets(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "scratch.cpp")
            with open(src, "w", encoding="utf-8") as fh:
                fh.write(self.VIOLATION)
            bl = os.path.join(tmp, "baseline.json")
            # 1. No baseline: the D1 finding fails the run.
            self.assertEqual(self.run_cli(src).returncode, 1)
            # 2. Accept it into a baseline; the run goes clean.
            self.assertEqual(
                self.run_cli(src, "--baseline", bl,
                             "--update-baseline").returncode, 0)
            self.assertEqual(
                self.run_cli(src, "--baseline", bl).returncode, 0)
            # 3. Inject a SECOND violation: the ratchet must fail on the
            #    new finding while still suppressing the baselined one.
            with open(src, "a", encoding="utf-8") as fh:
                fh.write("\ninline int bad_clock() { return clock(); }\n")
            run = self.run_cli(src, "--baseline", bl)
            self.assertEqual(run.returncode, 1)
            self.assertIn("NEW finding", run.stdout + run.stderr)
            self.assertIn("clock()", run.stdout + run.stderr)


    def test_copy_without_git_fingerprints_like_the_checkout(self):
        # A tree without .git (a source tarball, a copied checkout) must
        # fingerprint like the git checkout: every baselined finding stays
        # baselined instead of reporting as one NEW plus one stale entry.
        baseline = baselines.load_baseline(os.path.join(TOOL, "baseline.json"))
        sources = sorted({entry["path"] for entry in baseline.values()})
        with tempfile.TemporaryDirectory() as tmp:
            tool = os.path.join(tmp, "tools", "anonet_lint")
            shutil.copytree(TOOL, tool, ignore=shutil.ignore_patterns(
                "tests", "fixtures", "__pycache__"))
            for rel in sources:
                os.makedirs(os.path.dirname(os.path.join(tmp, rel)),
                            exist_ok=True)
                shutil.copy(os.path.join(REPO, rel), os.path.join(tmp, rel))
            run = subprocess.run(
                [sys.executable, os.path.join(tool, "anonet_lint.py"),
                 "--baseline", os.path.join(tool, "baseline.json"),
                 *[os.path.join(tmp, rel) for rel in sources]],
                capture_output=True, text=True, check=False)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn(f"{len(baseline)} baselined finding(s), 0 stale",
                      run.stdout)


class RawPayloadEscapeTests(unittest.TestCase):
    """W1 raw-payload escape: agent messages must not cross byte boundaries
    via memcpy/reinterpret_cast/bit_cast; codec-routed statements and
    non-agent control frames are exempt."""

    AGENT = """
        namespace wire { template <typename M> struct MessageTraits; }
        class PayloadAgent {
         public:
          struct Message { long v; };
          static constexpr bool kParallelSafe = true;
          Message send(int outdegree, int port) { return Message{1}; }
        };
        namespace wire {
        template <> struct MessageTraits<PayloadAgent::Message> {
          static long encoded_bits(const PayloadAgent::Message&) { return 64; }
          static void encode(const PayloadAgent::Message&, int&) {}
          static PayloadAgent::Message decode(int&) { return {}; }
        };
        }
    """

    def _raw_payload_findings(self, extra):
        _, findings = analyze_source([("t.cpp", self.AGENT + extra)])
        return [f for f in findings
                if f.rule == "W1" and "raw byte" in f.message]

    def test_memcpy_of_agent_message_is_flagged(self):
        findings = self._raw_payload_findings("""
            void pack(const PayloadAgent::Message& m, unsigned char* out) {
              memcpy(out, &m, sizeof(PayloadAgent::Message));
            }
        """)
        self.assertEqual(len(findings), 1)

    def test_control_frame_memcpy_is_exempt(self):
        findings = self._raw_payload_findings("""
            struct HelloFrame { unsigned magic; };
            void pack(const HelloFrame& hello, unsigned char* out) {
              memcpy(out, &hello, sizeof(HelloFrame));
            }
        """)
        self.assertEqual(findings, [])

    def test_codec_routed_statement_is_exempt(self):
        # A memcpy whose own statement routes through the codec (here:
        # sizing the copy from encoded_bits) is the sanctioned staging
        # pattern, not an escape.
        findings = self._raw_payload_findings("""
            void pack(const PayloadAgent::Message& m, unsigned char* out,
                      const unsigned char* staged) {
              memcpy(out, staged,
                     wire::MessageTraits<PayloadAgent::Message>
                         ::encoded_bits(m) / 8);
            }
            PayloadAgent::Message unpack(int& src) {
              return wire::decode<PayloadAgent::Message>(src);
            }
        """)
        self.assertEqual(findings, [])

    def test_reinterpret_cast_of_agent_message_is_flagged(self):
        # Decode-side escape: conjuring a Message out of raw socket bytes.
        findings = self._raw_payload_findings("""
            const PayloadAgent::Message* view(const unsigned char* bytes) {
              return reinterpret_cast<const PayloadAgent::Message*>(bytes);
            }
        """)
        self.assertEqual(len(findings), 1)


def regen():
    os.makedirs(GOLDEN, exist_ok=True)
    for fixture, rule in sorted(FIXTURE_RULES.items()):
        if rule is None:
            continue
        findings = analyze(os.path.join(FIXTURES, fixture))
        golden_path = os.path.join(GOLDEN, fixture.replace(".cpp", ".json"))
        with open(golden_path, "w", encoding="utf-8") as fh:
            json.dump(baselines.findings_json(findings, root=REPO), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(golden_path, REPO)}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regen()
        sys.exit(0)
    unittest.main(verbosity=2)
