#!/usr/bin/env python3
"""anonet-check v2: whole-program model-compliance analysis for anonet.

The library's guarantees are statements about what agent code is *allowed*
to observe (docs/static_analysis.md): deterministic anonymous automata
whose sending functions see exactly what their communication model
provides. v2 enforces the discipline with a proper two-pass front end — a
declaration/definition index plus an interprocedural call graph over the
given roots — so capability taint propagates *transitively* through
helpers, lambdas and out-of-line template definitions instead of the v1
single-hop forwarding heuristic.

Rule families (docs/static_analysis.md has the full table):

  D1 determinism     nondeterministic sources; unordered-container
                     iteration, incl. behind type/auto aliases
  A1 anonymity       vertex identity in agent code or helpers reachable
                     from it through the call graph
  P1 parallel safety kParallelSafe agents must not hold shared state
  M1 model capability send() outdegree/port consumption (any number of
                     forwarding hops) requires the declared capability;
                     pure forwarding into a capability-declared agent is
                     whitelisted; audience info flowing INTO a
                     non-declaring agent through helper chains is caught
  W1 wire integrity  MessageTraits (encode and decode) present for every
                     agent Message reachable from send(); core agent
                     headers must invoke ANONET_STATIC_AUDIT_DECLARATIONS
  C1 parallel phase  shared-mutable state in parallel_blocks callbacks
                     (must be lambda-local, per-slot, atomic, or padded)
  F1 float order     FP accumulation in pooled phases must go through
                     block-ordered partials (bitwise-replay contract)
  S1 schedule purity DynamicGraph and BuiltSchedule subclasses must not
                     hold stateful generator members — round t's graph
                     is a pure function of (constructor arguments, t)

Output: human-readable findings by default, `--json FILE` for the
machine-readable form (content-addressed fingerprints). Ratchet:
`--baseline FILE` subtracts the checked-in accepted findings and fails
only on new ones; `--update-baseline` rewrites the file, preserving
justifications. `anonet-lint-allow(RULE)` on the flagged line suppresses
in-source; src/ and examples/ are expected to stay at zero suppressions.

Exit codes: 0 clean (after baseline), 1 findings (or --expect rule did
not fire), 2 usage.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import baselines                              # noqa: E402
from frontend import ProgramIndex, gather_files  # noqa: E402
from rules import ALL_RULES, RuleEngine       # noqa: E402


def build_engine(paths, compile_commands=None, max_hops=8, rules=ALL_RULES):
    """(engine, files, unbuilt) — shared by the CLI and the self-tests."""
    files, unbuilt = gather_files(paths, compile_commands)
    index = ProgramIndex()
    for path in files:
        index.add_file(path)
    index.build()
    engine = RuleEngine(index, max_hops=max_hops, rules=rules)
    engine.run()
    return engine, files, unbuilt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anonet_lint",
        description="whole-program model-compliance & determinism lint for "
                    "anonet (rules D1/A1/P1/M1/W1/C1/F1/S1; see "
                    "docs/static_analysis.md)")
    parser.add_argument("paths", nargs="+",
                        help="files or directories to analyze")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="exported compilation database; used to "
                             "cross-check that every linted TU is built")
    parser.add_argument("--expect", metavar="RULE",
                        help="fixture mode: succeed iff at least one "
                             "finding of RULE fires (and print them)")
    parser.add_argument("--rules", metavar="LIST",
                        help="comma-separated rule subset to run "
                             f"(default: {','.join(ALL_RULES)})")
    parser.add_argument("--max-hops", type=int, default=8, metavar="N",
                        help="call-graph taint depth bound (default 8; "
                             "1 approximates the v1 single-hop analysis)")
    parser.add_argument("--json", metavar="FILE", dest="json_out",
                        help="write machine-readable findings (all of "
                             "them, pre-baseline) to FILE")
    parser.add_argument("--baseline", metavar="FILE",
                        help="ratchet mode: fail only on findings absent "
                             "from this checked-in baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline to the current findings, "
                             "preserving existing justifications")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-file summary line")
    args = parser.parse_args(argv)

    rules = ALL_RULES
    if args.rules:
        rules = tuple(r.strip().upper() for r in args.rules.split(","))
        bad = [r for r in rules if r not in ALL_RULES]
        if bad:
            print(f"anonet_lint: unknown rule(s) {','.join(bad)}",
                  file=sys.stderr)
            return 2
    if args.update_baseline and not args.baseline:
        print("anonet_lint: --update-baseline requires --baseline FILE",
              file=sys.stderr)
        return 2

    try:
        engine, files, unbuilt = build_engine(
            args.paths, args.compile_commands, args.max_hops, rules)
    except FileNotFoundError as err:
        print(f"anonet_lint: {err}", file=sys.stderr)
        return 2
    if not files:
        print("anonet_lint: no C++ sources found under given paths",
              file=sys.stderr)
        return 2
    findings = engine.findings
    root = baselines.ANALYZER_ROOT

    if args.json_out:
        baselines.write_findings_json(args.json_out, findings, root)

    if args.expect:
        for f in findings:
            print(f.render())
        fired = sorted({f.rule for f in findings})
        if args.expect in fired:
            if not args.quiet:
                print(f"anonet_lint: expected rule {args.expect} fired "
                      f"({len(findings)} finding(s))")
            return 0
        print(f"anonet_lint: expected rule {args.expect} did NOT fire "
              f"(fired: {fired or 'none'})", file=sys.stderr)
        return 1

    if args.update_baseline:
        entries = baselines.update_baseline(args.baseline, findings, root)
        unjustified = sum(1 for e in entries
                          if e["justification"] == baselines.UNJUSTIFIED)
        print(f"anonet_lint: baseline {args.baseline} updated "
              f"({len(entries)} finding(s), {unjustified} unjustified)")
        return 0

    if args.baseline:
        try:
            baseline = baselines.load_baseline(args.baseline)
        except (OSError, ValueError) as err:
            print(f"anonet_lint: cannot load baseline: {err}",
                  file=sys.stderr)
            return 2
        new, suppressed, stale = baselines.apply_baseline(
            findings, baseline, root)
        for f, fp in new:
            print(f"{f.render()}  [new, fingerprint {fp}]")
        for entry in stale:
            print(f"note: stale baseline entry {entry['fingerprint']} "
                  f"({entry['rule']} in {entry['path']}): the finding no "
                  "longer fires — remove it with --update-baseline")
        for path in unbuilt:
            print(f"note: {path} is not in the compilation database "
                  "(linted anyway)")
        if new:
            print(f"anonet_lint: {len(new)} NEW finding(s) not in baseline "
                  f"({len(suppressed)} baselined, {len(stale)} stale)",
                  file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"anonet_lint: clean ({len(files)} files, "
                  f"{len(suppressed)} baselined finding(s), "
                  f"{len(stale)} stale entr{'y' if len(stale) == 1 else 'ies'}"
                  ")")
        return 0

    for f in findings:
        print(f.render())
    for path in unbuilt:
        print(f"note: {path} is not in the compilation database "
              "(linted anyway)")
    if findings:
        print(f"anonet_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"anonet_lint: clean ({len(files)} files, rules "
              f"{'/'.join(rules)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
