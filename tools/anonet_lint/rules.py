"""Rule families for anonet_lint v2.

  D1 determinism       banned nondeterministic sources; iteration over
                       unordered containers, including behind type aliases
                       and auto&/auto value aliases.
  A1 anonymity         agent code must not observe executor vertex
                       identity — checked in agent class bodies AND in
                       free helpers (same file) reachable through the
                       call graph from agent member functions.
  P1 parallel safety   kParallelSafe agents must not hold shared state.
  M1 model capability  send() may only consume its outdegree/port
                       parameters under the matching ModelCapabilities
                       declaration; taint follows pure forwards through
                       helpers/lambdas/out-of-line template definitions
                       to any depth, and pure forwarding into a
                       capability-declared agent is whitelisted. Also
                       catches the side door: audience information
                       (out_degree & friends) flowing through helper
                       chains *into* a non-declaring agent's methods.
  W1 wire integrity    every agent Message reachable from send() must
                       have a MessageTraits specialization defining both
                       encode and decode (active only when the wire layer
                       is in the scanned set); every agent defined under
                       src/core/ must invoke ANONET_STATIC_AUDIT_DECLARATIONS
                       in its header.
  C1 parallel phase    state written from parallel_blocks/parallel block
                       callbacks must be lambda-local, per-slot
                       (subscripted), atomic, or cache-line padded.
  F1 float order       floating-point accumulation inside pooled phases
                       must go through block-ordered partials — atomic
                       fetch_add on FP or shared FP += breaks bitwise
                       replay even when C1-safe.
  S1 schedule purity   DynamicGraph and BuiltSchedule subclasses must
                       not hold stateful generator members: round t's
                       graph (view(t), build(t, into)) is contractually a pure
                       function of (constructor arguments, t), and an
                       advancing member RNG makes the topology depend on
                       call history and replay order. Per-call local
                       generators keyed by mix_seed(seed, t) stay legal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from callgraph import CallGraph, extract_calls
from frontend import (ProgramIndex, WORD_RE, line_of, match_delim,
                      next_nonspace, next_token, param_names, split_top_level)

ALL_RULES = ("D1", "A1", "P1", "M1", "W1", "C1", "F1", "S1")

# --- D1 banned tokens --------------------------------------------------------

D1_BANNED_TYPES = {
    "random_device": "std::random_device is nondeterministic; derive streams "
                     "from a seeded generator or support/counter_rng.hpp",
    "system_clock": "wall-clock time is not reproducible; only "
                    "std::chrono::steady_clock may be read (timings are "
                    "measurements, not semantics)",
    "high_resolution_clock": "high_resolution_clock may alias system_clock; "
                             "use std::chrono::steady_clock",
}

D1_BANNED_CALLS = {
    "rand": "rand() is a hidden-state global RNG; use a seeded generator",
    "srand": "srand() mutates global RNG state",
    "rand_r": "rand_r() is a nondeterministic-seed idiom; use a seeded "
              "generator",
    "random": "random() is a hidden-state global RNG",
    "drand48": "drand48() is a hidden-state global RNG",
    "lrand48": "lrand48() is a hidden-state global RNG",
    "mrand48": "mrand48() is a hidden-state global RNG",
    "time": "time() reads the wall clock; executions must be a pure function "
            "of (inputs, schedule, seed)",
    "clock": "clock() reads processor time; not reproducible",
    "gettimeofday": "gettimeofday() reads the wall clock",
    "timespec_get": "timespec_get() reads the wall clock",
    "getenv": "getenv() makes behavior depend on the environment",
}

# A1: spellings of an executor vertex identity inside agent code.
A1_BANNED = {
    "Vertex", "VertexId", "vertex_id", "vertex_index", "node_id",
    "agent_index", "self_index", "my_id",
}

# S1: schedule classes (anything deriving from DynamicGraph, directly or
# through the lending bases BuiltSchedule and PeriodicSchedule) must keep
# round t's graph a pure function of (constructor arguments, t). Any of these engine types held as
# a *member* advances state across calls, so the emitted topology would
# depend on how many rounds were queried before — and in what order.
S1_STATEFUL_RNGS = (
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "ranlux24", "ranlux24_base",
    "ranlux48", "ranlux48_base", "linear_congruential_engine",
    "mersenne_twister_engine", "subtract_with_carry_engine",
)
S1_SCHEDULE_BASES = ("DynamicGraph", "BuiltSchedule", "PeriodicSchedule")
S1_SCHEDULE_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)[^{;]*?:\s*[^{;]*\b(?:"
    + "|".join(S1_SCHEDULE_BASES) + r")\b[^{;]*\{")
S1_RNG_RE = re.compile(r"\b(" + "|".join(S1_STATEFUL_RNGS) + r")\b")

# C1: member calls that mutate their object.
MUTATOR_METHODS = {
    "push_back", "emplace_back", "emplace", "insert", "erase", "clear",
    "resize", "append", "write", "add", "store", "exchange", "assign",
    "pop_back", "push", "pop", "reserve",
}
FP_ACCUM_METHODS = {"fetch_add", "fetch_sub"}

ASSIGN_RE = re.compile(
    r"\b([A-Za-z_]\w*)"                       # target base identifier
    r"((?:\s*\.\s*[A-Za-z_]\w*)*)"            # optional .field chain
    r"\s*(\[[^\]]*\])?"                       # optional subscript
    r"\s*(\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|=(?![=]))")
INCR_RE = re.compile(r"(?:\+\+|--)\s*([A-Za-z_]\w*)|"
                     r"\b([A-Za-z_]\w*)\s*(?:\+\+|--)")
# Builtin type keywords; they combine ("unsigned char", "long long").
BUILTIN_TYPE_RE = (r"(?:auto|bool|char|char8_t|char16_t|char32_t|wchar_t|"
                   r"short|int|long|signed|unsigned|float|double)")
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}(])\s*(?:const\s+)?"
    r"(?:" + BUILTIN_TYPE_RE + r"(?:\s+" + BUILTIN_TYPE_RE + r")*"
    r"|std\s*::\s*[\w:]+(?:<[^;]*?>)?|[A-Z]\w*(?:<[^;]*?>)?)"
    r"[\s&*]+([A-Za-z_]\w*)\s*[=;{(,]")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str
    hops: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class RuleEngine:
    def __init__(self, index: ProgramIndex, max_hops: int = 8,
                 rules=ALL_RULES):
        self.index = index
        self.graph = CallGraph(index)
        self.max_hops = max_hops
        self.rules = set(rules)
        self.findings: list[Finding] = []

    def report(self, scan, offset: int, rule: str, message: str,
               hops: int = 0):
        line = line_of(scan.text, offset)
        if rule in scan.suppressed.get(line, set()):
            return
        self.findings.append(Finding(scan.path, line, rule, message, hops))

    def run(self):
        if "D1" in self.rules:
            for scan in self.index.scans:
                self.rule_d1(scan)
        if "A1" in self.rules:
            self.rule_a1()
        if "P1" in self.rules:
            self.rule_p1()
        if "M1" in self.rules:
            self.rule_m1()
            self.rule_m1_side_door()
        if "W1" in self.rules:
            self.rule_w1()
        if "C1" in self.rules or "F1" in self.rules:
            self.rule_c1_f1()
        if "S1" in self.rules:
            for scan in self.index.scans:
                self.rule_s1(scan)
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings

    # --- D1 -----------------------------------------------------------------

    def rule_d1(self, scan):
        text = scan.text
        for m in WORD_RE.finditer(text):
            word = m.group(0)
            if word in D1_BANNED_TYPES:
                self.report(scan, m.start(), "D1",
                            f"use of {word}: {D1_BANNED_TYPES[word]}")
            elif word in D1_BANNED_CALLS:
                after = next_nonspace(text, m.end())
                before = text[m.start() - 1] if m.start() > 0 else " "
                if after < len(text) and text[after] == "(" and before != ".":
                    self.report(scan, m.start(), "D1",
                                f"call to {word}(): {D1_BANNED_CALLS[word]}")

        unordered_names = self.index.unordered_vars.get(scan.path, set())
        if not unordered_names:
            return
        for m in re.finditer(r"\bfor\s*\(", text):
            p_open = text.index("(", m.start())
            p_close = match_delim(text, p_open, "(", ")")
            header = text[p_open + 1:p_close - 1]
            colon = _top_level_colon(header)
            if colon < 0:
                continue
            range_words = set(WORD_RE.findall(header[colon + 1:]))
            hits = range_words & unordered_names
            if hits:
                self.report(
                    scan, m.start(), "D1",
                    f"range-for over unordered container '{sorted(hits)[0]}':"
                    " bucket order is implementation-defined and leaks into "
                    "whatever this loop constructs; iterate a sorted copy or "
                    "an ordered container")
        for name in unordered_names:
            for m in re.finditer(
                    rf"\b{re.escape(name)}\s*\.\s*(?:begin|cbegin)\s*\(",
                    text):
                self.report(
                    scan, m.start(), "D1",
                    f"iteration over unordered container '{name}' via "
                    "begin(): bucket order is implementation-defined")

    # --- A1 -----------------------------------------------------------------

    def rule_a1(self):
        for info in self.index.classes.values():
            if not info.is_agent:
                continue
            for scan, body, base in info.bodies:
                for m in WORD_RE.finditer(body):
                    if m.group(0) in A1_BANNED:
                        self.report(
                            scan, base + m.start(), "A1",
                            f"agent class {info.name} reads "
                            f"'{m.group(0)}': agents are anonymous automata "
                            "and must not observe executor vertex indices "
                            "(Section 2.1)")
            # Transitive: free helpers (same file) reachable from agent
            # member functions must not read vertex identity either.
            flagged = set()
            for fns in info.methods.values():
                for fn in fns:
                    if not fn.body:
                        continue
                    for helper, hops, path in \
                            self.graph.reachable_free_functions(
                                fn, self.max_hops):
                        if id(helper) in flagged:
                            continue
                        for m in WORD_RE.finditer(helper.body):
                            if m.group(0) in A1_BANNED:
                                flagged.add(id(helper))
                                self.report(
                                    helper.scan,
                                    helper.body_offset + m.start(), "A1",
                                    f"helper '{helper.qualname}' reads "
                                    f"'{m.group(0)}' and is reachable from "
                                    f"agent {info.name} via "
                                    f"{' -> '.join(path)} ({hops} hop(s)): "
                                    "agents are anonymous automata and must "
                                    "not observe executor vertex indices, "
                                    "directly or through helpers",
                                    hops=hops)
                                break

    # --- P1 -----------------------------------------------------------------

    def rule_p1(self):
        for info in self.index.classes.values():
            if not info.parallel_safe:
                continue
            for scan, body, base in info.bodies:
                for m in re.finditer(r"\bstatic\b", body):
                    word, _ = next_token(body, m.end())
                    if word in {"constexpr", "const", "consteval",
                                "constinit"}:
                        continue
                    self.report(
                        scan, base + m.start(), "P1",
                        f"{info.name} declares kParallelSafe but introduces "
                        "non-constant static state: static storage is shared "
                        "between agents and races under the thread-parallel "
                        "round phases")
                for m in re.finditer(r"\bshared_ptr\s*<", body):
                    self.report(
                        scan, base + m.start(), "P1",
                        f"{info.name} declares kParallelSafe but holds a "
                        "shared_ptr: state reachable from several agents "
                        "must not be touched in parallel round hooks (cf. "
                        "MinBaseAgent, which stays serial for exactly this "
                        "reason)")

    # --- M1: send()-parameter taint -----------------------------------------

    def rule_m1(self):
        for info in self.index.classes.values():
            if not info.is_agent or "send" not in info.methods:
                continue
            caps = info.capabilities
            if "kModelPolymorphic" in caps:
                continue
            missing = (" (the class declaration was not scanned; declare the "
                       "capability where the class is defined)"
                       if info.declaration_missing else "")
            for position, cap, what in ((0, "kNeedsOutdegree", "outdegree"),
                                        (1, "kNeedsOutputPorts", "port")):
                if cap in caps:
                    continue
                for send_def in info.methods["send"]:
                    if not send_def.body:
                        continue
                    names = send_def.param_names
                    if position >= len(names) or not names[position]:
                        continue
                    for fn, occ, kind, hops, path in \
                            self.graph.trace_param_taint(
                                send_def, names[position], cap,
                                self.max_hops):
                        chain = " -> ".join(path)
                        if kind == "unknown-callee":
                            detail = ("forwards it into a call the index "
                                      "cannot resolve")
                        else:
                            detail = "consumes it"
                        self.report(
                            fn.scan, fn.body_offset + occ, "M1",
                            f"{info.name}::send receives the {what} "
                            f"parameter and {chain} {detail} without the "
                            f"class declaring ModelCapabilities::{cap} — "
                            "renaming and forwarding does not change what "
                            "the sending function observes (Table 1)"
                            f"{missing}", hops=hops)

    # --- M1 side door: audience info flowing INTO a non-declaring agent -----

    def rule_m1_side_door(self):
        tainted = self.graph.audience_tainted_functions(self.max_hops)
        agent_classes = {name: info
                         for name, info in self.index.classes.items()
                         if info.is_agent and
                         "kModelPolymorphic" not in info.capabilities}
        if not agent_classes:
            return
        for fn in self.graph._iter_functions():
            # The runtime layer IS the model: the executor feeding send()
            # its outdegree argument is the contract, not a leak.
            if "/src/runtime/" in fn.scan.path.replace("\\", "/"):
                continue
            # Taint local variables initialized from tainted expressions.
            tainted_vars = set()
            for m in re.finditer(r"\b([A-Za-z_]\w*)\s*=\s*([^;]+);",
                                 fn.body):
                expr = m.group(2)
                if self._expr_audience_tainted(expr, tainted):
                    tainted_vars.add(m.group(1))
            for call in self.graph.calls_of(fn):
                if call.receiver is None:
                    continue
                cls = self.graph.receiver_class(fn, call.receiver)
                if cls is None or cls not in agent_classes:
                    continue
                info = agent_classes[cls]
                if "kNeedsOutdegree" in info.capabilities:
                    continue
                for text, a, b in call.args:
                    hops = self._arg_audience_hops(text, tainted,
                                                   tainted_vars)
                    if hops is None:
                        continue
                    self.report(
                        fn.scan, fn.body_offset + call.offset, "M1",
                        f"audience information (degree of a vertex) flows "
                        f"into {cls}::{call.callee}() through "
                        f"'{text}' ({hops} hop(s) of helpers), but {cls} "
                        "does not declare "
                        "ModelCapabilities::kNeedsOutdegree — feeding an "
                        "agent its audience size through a side door "
                        "proves a theorem Table 1 forbids", hops=hops)

    def _expr_audience_tainted(self, expr: str, tainted) -> bool:
        for call in extract_calls(expr):
            if call.callee in tainted or call.callee in {
                    "out_degree", "in_degree", "outdegree", "indegree"}:
                return True
        return False

    def _arg_audience_hops(self, arg: str, tainted, tainted_vars):
        for call in extract_calls(arg):
            if call.callee in {"out_degree", "in_degree", "outdegree",
                               "indegree"}:
                return 0
            if call.callee in tainted:
                return tainted[call.callee][0]
        for w in WORD_RE.findall(arg):
            if w in tainted_vars:
                return 1
        return None

    # --- W1 -----------------------------------------------------------------

    def rule_w1(self):
        self._rule_w1_core_audit()
        if not self.index.has_wire_layer:
            return  # wire layer out of scope (e.g. a standalone D1 fixture)
        for info in self.index.classes.values():
            if not (info.is_agent and info.has_message and info.has_send):
                continue
            specs = self.index.traits_specs.get(info.name, [])
            scan, _body, base = info.bodies[0] if info.bodies else \
                (None, "", 0)
            if not specs:
                if scan is None:
                    continue
                self.report(
                    scan, base, "W1",
                    f"{info.name}::Message is reachable from send() but has "
                    "no MessageTraits specialization: every message that "
                    "can cross the channel must have a canonical wire "
                    "format beside the agent, or bandwidth metering and "
                    "bounded channels silently lie")
                continue
            for spec in specs:
                missing = [m for m in ("encode", "decode")
                           if not spec.defines(m)]
                if missing:
                    self.report(
                        spec.scan, spec.offset, "W1",
                        f"MessageTraits<{info.name}::Message> defines only "
                        "part of the codec (missing: "
                        f"{', '.join(missing)}): encode and decode must be "
                        "defined together — the meter counts what encode "
                        "writes, so a codec that cannot read it back lets "
                        "measured and transported bits disagree")
        self._rule_w1_raw_payload()

    # Every agent defined under src/core/ runs the compile-time audit
    # (capabilities, parallel safety, codec) where it is defined. Keyed on
    # the path alone, so the check holds whatever else is scanned.
    def _rule_w1_core_audit(self):
        for info in self.index.classes.values():
            if not (info.is_agent and info.has_message and info.has_send) \
                    or info.audit_registered:
                continue
            core_bodies = [(s, b, o) for s, b, o in info.bodies if "/src/core/"
                           in "/" + s.path.replace("\\", "/")]
            if not core_bodies:
                continue
            scan, _body, base = core_bodies[0]
            self.report(
                scan, base, "W1",
                f"core agent {info.name} does not invoke "
                "ANONET_STATIC_AUDIT_DECLARATIONS in its header: the "
                "compile-time audit must run where the class is defined")

    # Raw-payload escape (transport hardening): a statement that pushes an
    # agent's Message across a byte boundary with memcpy / reinterpret_cast /
    # bit_cast bypasses the canonical codec — the bits on the wire are no
    # longer the bits the bandwidth meter charges, and layout becomes ABI-
    # dependent. Agent payloads must route through MessageTraits
    # (wire::encode / wire::decode); statements that mention those are
    # exempt, and transport *control* frames (HELLO, ASSIGN, ... — structs
    # of non-agent classes) never match because the pattern keys on the
    # qualified `<Agent>::Message` spelling.
    def _rule_w1_raw_payload(self):
        agent_names = [info.name for info in self.index.classes.values()
                       if info.is_agent and info.has_message and
                       info.has_send]
        if not agent_names:
            return
        escape_re = re.compile(r"\b(?:memcpy|reinterpret_cast|bit_cast)\b")
        for scan in self.index.scans:
            text = scan.text
            for m in escape_re.finditer(text):
                stmt_start = max(text.rfind(";", 0, m.start()),
                                 text.rfind("{", 0, m.start()),
                                 text.rfind("}", 0, m.start())) + 1
                stmt_end = text.find(";", m.end())
                if stmt_end < 0:
                    stmt_end = len(text)
                stmt = text[stmt_start:stmt_end]
                if ("MessageTraits" in stmt or "wire::encode" in stmt
                        or "wire::decode" in stmt):
                    continue
                for name in agent_names:
                    if f"{name}::Message" in stmt:
                        self.report(
                            scan, m.start(), "W1",
                            f"raw byte reinterpretation of {name}::Message "
                            "(memcpy/reinterpret_cast/bit_cast) bypasses "
                            "its canonical codec: agent payloads must "
                            "cross byte boundaries through MessageTraits "
                            "(wire::encode/wire::decode); only transport "
                            "control frames may be packed by hand")
                        break

    # --- S1: schedule purity ------------------------------------------------

    def rule_s1(self, scan):
        text = scan.text
        for m in S1_SCHEDULE_CLASS_RE.finditer(text):
            name = m.group(1)
            body_open = m.end() - 1
            body_close = match_delim(text, body_open, "{", "}")
            body = text[body_open + 1:body_close - 1]
            # Blank out nested brace groups (inline member-function bodies,
            # brace initializers) while preserving offsets: a *local*
            # generator keyed by mix_seed(seed, t) inside view()/build() is the
            # sanctioned pattern; only engines stored as members — declared
            # at depth 1 of the class body — persist across calls.
            chars = list(body)
            depth = 0
            for i, c in enumerate(body):
                if c == "{":
                    depth += 1
                    chars[i] = " "
                elif c == "}":
                    depth -= 1
                    chars[i] = " "
                elif depth > 0 and c != "\n":
                    chars[i] = " "
            members_only = "".join(chars)
            for rm in S1_RNG_RE.finditer(members_only):
                self.report(
                    scan, body_open + 1 + rm.start(), "S1",
                    f"schedule class {name} holds a stateful generator "
                    f"member ({rm.group(1)}): DynamicGraph::at(t) must be a "
                    "pure function of (constructor arguments, t), but an "
                    "engine stored in the object advances on every query, "
                    "so the emitted topology depends on call history and "
                    "replay order — key a local generator (or "
                    "support/counter_rng.hpp) on mix_seed(seed, t) inside "
                    "the round builder instead")

    # --- C1 / F1 ------------------------------------------------------------

    def rule_c1_f1(self):
        for scan in self.index.scans:
            text = scan.text
            for m in re.finditer(r"\b(?:parallel_blocks|parallel)\s*\(",
                                 text):
                p_open = text.index("(", m.start())
                p_close = match_delim(text, p_open, "(", ")")
                args_text = text[p_open + 1:p_close - 1]
                lam = re.search(r"\[[^\[\]]*\]", args_text)
                if not lam:
                    continue
                # Lambda parameter list and body, offsets absolute.
                rest = p_open + 1 + lam.end()
                rest = next_nonspace(text, rest)
                lam_params = ""
                if rest < len(text) and text[rest] == "(":
                    pp_close = match_delim(text, rest, "(", ")")
                    lam_params = text[rest + 1:pp_close - 1]
                    rest = pp_close
                body_open = text.find("{", rest)
                if body_open < 0 or body_open > p_close:
                    continue
                body_close = match_delim(text, body_open, "{", "}")
                body = text[body_open:body_close]
                self._check_block_callback(scan, text, body, body_open,
                                           lam_params)

    def _check_block_callback(self, scan, text, body, body_abs, lam_params):
        locals_ = set(param_names(lam_params))
        locals_.discard("")
        for m in LOCAL_DECL_RE.finditer(body):
            locals_.add(m.group(1))
        synchronized = bool(re.search(
            r"lock_guard|scoped_lock|unique_lock", body))

        def decl_text_for(name: str) -> str:
            decl_re = re.compile(rf"[^\n;{{}}]*\b{re.escape(name)}\s*[;=({{]")
            best = ""
            for dm in decl_re.finditer(text):
                if dm.start() < body_abs:
                    best = dm.group(0)
                else:
                    if not best:
                        best = dm.group(0)
                    break
            return best

        def classify(name: str, subscript: str | None, offset: int,
                     op_desc: str, fp_hint: bool):
            if name in locals_ or name == "this":
                return
            if subscript:
                return  # per-slot write: the sanctioned pattern
            decl = decl_text_for(name)
            is_atomic = "atomic" in decl
            is_fp = fp_hint or "double" in decl or "float" in decl
            # Any cross-block FP accumulation that is not a per-slot write
            # breaks the block-ordered reduction contract — atomicity or a
            # lock removes the race but not the ordering dependence.
            if "F1" in self.rules and is_fp:
                if op_desc.startswith(("fetch_", "+=", "-=", "*=", "/=")):
                    self.report(
                        scan, body_abs + offset, "F1",
                        f"floating-point accumulation '{op_desc}' into "
                        f"captured '{name}' inside a parallel block "
                        "callback: claim order is scheduler-dependent, so "
                        "the sum depends on thread interleaving even when "
                        "the access is atomic or locked — accumulate into "
                        "block-indexed partials and reduce serially in "
                        "block order (the executor's Partial pattern)")
                    return
            if "C1" not in self.rules:
                return
            if is_atomic or "alignas" in decl:
                return
            if synchronized and not is_fp:
                return
            self.report(
                scan, body_abs + offset, "C1",
                f"'{name}' is captured and mutated ('{op_desc}') inside a "
                "parallel block callback without being lambda-local, "
                "per-slot (subscripted), atomic, or cache-line padded: "
                "blocks run concurrently, so this races or depends on "
                "claim order — give each block its own alignas(64) "
                "partial and reduce after the phase")

        for m in ASSIGN_RE.finditer(body):
            name, _fields, subscript, op = (m.group(1), m.group(2),
                                            m.group(3), m.group(4))
            prev = body[:m.start()].rstrip()
            # Skip declarations-with-initializer (`int x = ...`) — the
            # target is then local by definition — and comparisons.
            if name in locals_:
                continue
            classify(name, subscript, m.start(), op, fp_hint=False)
        for m in INCR_RE.finditer(body):
            name = m.group(1) or m.group(2)
            classify(name, None, m.start(), "++/--", fp_hint=False)
        for m in re.finditer(
                rf"\b([A-Za-z_]\w*)\s*(->|\.)\s*([A-Za-z_]\w*)\s*\(", body):
            name, arrow, method = m.group(1), m.group(2), m.group(3)
            if method in FP_ACCUM_METHODS:
                classify(name, None, m.start(), method, fp_hint=True)
            elif method in MUTATOR_METHODS or arrow == "->":
                decl = decl_text_for(name) if name not in locals_ else ""
                if arrow == "->" and method not in MUTATOR_METHODS and \
                        "const" in decl:
                    continue
                if method in MUTATOR_METHODS or arrow == "->":
                    classify(name, None, m.start(), f"{method}()",
                             fp_hint=False)


def _top_level_colon(header: str) -> int:
    depth = 0
    for i, c in enumerate(header):
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(header) and header[i + 1] == ":":
                continue
            if i > 0 and header[i - 1] == ":":
                continue
            return i
    return -1
