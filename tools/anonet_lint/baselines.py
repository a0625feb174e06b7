"""Machine-readable findings, fingerprints, and the CI ratchet.

A finding's *fingerprint* is content-addressed: sha1 over (repo-relative
path, rule, message, per-message ordinal). Messages name classes, helpers
and parameters rather than line numbers, so fingerprints survive unrelated
line drift — inserting a comment above a finding does not make it "new".

The baseline file (tools/anonet_lint/baseline.json) is the checked-in set
of *accepted* findings, each carrying a justification. Ratchet mode
(--baseline) subtracts baselined fingerprints and fails only on what is
left: CI goes red on a new finding, stays green on the known ones, and
notes stale entries so the baseline only ever shrinks.
"""

from __future__ import annotations

import hashlib
import json
import os

BASELINE_VERSION = 1
UNJUSTIFIED = "UNJUSTIFIED: add a justification before committing"


# The checkout that holds this analyzer (tools/anonet_lint/../..). Paths
# are made relative to it, whether or not the tree is a git checkout (a
# source tarball, a copied tree, a submodule), so fingerprints match the
# baseline everywhere the analyzer ships beside the sources it checks.
ANALYZER_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def repo_relative(path: str, root: str | None = None) -> str:
    try:
        rel = os.path.relpath(os.path.abspath(path), root or ANALYZER_ROOT)
        if not rel.startswith(".."):
            return rel.replace(os.sep, "/")
    except ValueError:
        pass
    return path.replace(os.sep, "/")


def fingerprint_findings(findings, root: str | None = None):
    """[(finding, fingerprint)] with stable per-message ordinals."""
    seen: dict[str, int] = {}
    out = []
    for f in findings:
        rel = repo_relative(f.path, root)
        base = f"{rel}|{f.rule}|{f.message}"
        ordinal = seen.get(base, 0)
        seen[base] = ordinal + 1
        digest = hashlib.sha1(
            f"{base}|{ordinal}".encode("utf-8")).hexdigest()[:16]
        out.append((f, digest))
    return out


def findings_json(findings, root: str | None = None):
    return [{
        "path": repo_relative(f.path, root),
        "line": f.line,
        "rule": f.rule,
        "message": f.message,
        "hops": f.hops,
        "fingerprint": fp,
    } for f, fp in fingerprint_findings(findings, root)]


def write_findings_json(path: str, findings, root: str | None = None):
    payload = {"version": BASELINE_VERSION,
               "findings": findings_json(findings, root)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(f"baseline {path}: unsupported version "
                         f"{data.get('version')!r}")
    return {e["fingerprint"]: e for e in data.get("findings", [])}


def apply_baseline(findings, baseline: dict, root: str | None = None):
    """(new, suppressed, stale_entries)."""
    fingered = fingerprint_findings(findings, root)
    new = [(f, fp) for f, fp in fingered if fp not in baseline]
    suppressed = [(f, fp) for f, fp in fingered if fp in baseline]
    present = {fp for _f, fp in fingered}
    stale = [e for fp, e in sorted(baseline.items()) if fp not in present]
    return new, suppressed, stale


def update_baseline(path: str, findings, root: str | None = None):
    """Rewrite the baseline to the current finding set, keeping existing
    justifications and marking genuinely new entries UNJUSTIFIED."""
    old = {}
    if os.path.isfile(path):
        try:
            old = load_baseline(path)
        except (ValueError, json.JSONDecodeError):
            old = {}
    entries = []
    for f, fp in fingerprint_findings(findings, root):
        entry = {
            "fingerprint": fp,
            "path": repo_relative(f.path, root),
            "rule": f.rule,
            "message": f.message,
            "justification": old.get(fp, {}).get("justification",
                                                 UNJUSTIFIED),
        }
        entries.append(entry)
    entries.sort(key=lambda e: (e["path"], e["rule"], e["fingerprint"]))
    payload = {"version": BASELINE_VERSION, "findings": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entries
