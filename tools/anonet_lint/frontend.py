"""Two-pass front end for anonet_lint.

Pass 1 (per file): strip comments/strings preserving offsets, record
suppression comments, and extract a *declaration/definition index*:

  * every class/struct body, with its capability declarations
    (kModelCapabilities, kParallelSafe), nested `struct Message`, and every
    member function defined in-class;
  * every out-of-line member definition, including template
    specializations (`Foo<T>::send(...) { ... }`);
  * every free function definition at any scope;
  * every `MessageTraits<...>` specialization (qualified or not) and what
    it defines, and every ANONET_STATIC_AUDIT_DECLARATIONS invocation;
  * unordered-container declarations, *including* those hidden behind
    `using`/`typedef` aliases and `auto&`/`auto` value aliases (rule D1).

Pass 2 (whole program) lives in callgraph.py: call-site extraction and
name resolution over this index.

Everything here is deliberately AST-less — a token scan with balanced
delimiter matching — because the container toolchain ships no libclang.
The house style (one class per concern, canonical send/receive signatures)
makes scope extraction reliable; the self-test suite
(tools/anonet_lint/tests/) pins the behavior on synthetic snippets.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

CXX_EXTENSIONS = {".hpp", ".h", ".cpp", ".cc", ".cxx"}

WORD_RE = re.compile(r"[A-Za-z_]\w*")
ALLOW_RE = re.compile(r"anonet-lint-allow\((\w\d?)\)")
CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)")
# Out-of-line member definitions, including template specializations.
QUALIFIED_MEMBER_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:<[^<>;{}]*>)?\s*::\s*(~?[A-Za-z_]\w*)\s*\(")
CAPS_RE = re.compile(r"\bkModelCapabilities\s*=\s*([^;]+);")
PARALLEL_SAFE_RE = re.compile(r"\bkParallelSafe\s*=\s*(true|false)\b")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
USING_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+([^;]+?)\s+([A-Za-z_]\w*)\s*;")
# Specializations match with or without a namespace qualifier
# (`struct MessageTraits<...>` inside namespace wire, or
# `struct wire::MessageTraits<...>` beside the agent).
MESSAGE_TRAITS_RE = re.compile(
    r"\bstruct\s+(?:::\s*)?(?:[A-Za-z_]\w*\s*::\s*)*MessageTraits\s*<\s*"
    r"([A-Za-z_]\w*)\s*(?:<[^<>]*>\s*)?::\s*Message\s*>")
AUDIT_REGISTER_RE = re.compile(r"\bANONET_STATIC_AUDIT_DECLARATIONS\s*\(\s*"
                               r"([A-Za-z_]\w*)\s*\)")

# Keywords that look like call expressions in a token scan.
NOT_A_CALL = {"if", "for", "while", "switch", "return", "sizeof", "catch",
              "alignof", "decltype", "noexcept", "assert", "defined",
              "static_assert", "requires", "new", "delete", "throw",
              "constexpr", "else", "do", "alignas"}

PARAM_TYPE_WORDS = {"int", "const", "unsigned", "signed", "long", "short",
                    "char", "bool", "auto", "std", "size_t", "int32_t",
                    "int64_t", "uint32_t", "uint64_t", "double", "float"}


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string and char literals, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"':
            if i >= 1 and text[i - 1] == "R":
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    end = text.find(closer, i + 1)
                    end = n if end == -1 else end + len(closer)
                    for j in range(i, end):
                        if text[j] != "\n":
                            out[j] = " "
                    i = end
                    continue
            out[i] = " "
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        elif c == "'":
            out[i] = " "
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n:
                        out[i] = " "
                    i += 1
                    continue
                out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_delim(text: str, start: int, open_c: str, close_c: str) -> int:
    """Offset just past the delimiter closing text[start] (== open_c)."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_c:
            depth += 1
        elif text[i] == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def next_token(text: str, offset: int):
    m = WORD_RE.search(text, offset)
    return (m.group(0), m.start()) if m else ("", len(text))


def next_nonspace(text: str, offset: int) -> int:
    while offset < len(text) and text[offset].isspace():
        offset += 1
    return offset


def split_top_level(text: str, sep: str = ","):
    """Split on sep at delimiter depth 0 (angle/paren/bracket/brace aware)."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur))
    return parts


def param_names(params: str):
    """['outdegree', ''] — the declared name per parameter, '' if none."""
    names = []
    for part in split_top_level(params):
        if not part.strip():
            continue
        words = WORD_RE.findall(part.split("=")[0])
        words = [w for w in words if w not in PARAM_TYPE_WORDS]
        names.append(words[-1] if words else "")
    return names


@dataclass
class FileScan:
    path: str
    raw: str = ""
    text: str = ""
    suppressed: dict = field(default_factory=dict)  # line -> set of rules

    @classmethod
    def from_path(cls, path: str) -> "FileScan":
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return cls.from_text(path, fh.read())

    @classmethod
    def from_text(cls, path: str, raw: str) -> "FileScan":
        scan = cls(path=path, raw=raw)
        scan.text = strip_comments_and_strings(raw)
        for i, line in enumerate(raw.splitlines(), start=1):
            for m in ALLOW_RE.finditer(line):
                scan.suppressed.setdefault(i, set()).add(m.group(1))
        return scan


@dataclass
class FunctionDef:
    name: str                 # member or free-function name
    owner: str | None         # class name, None for free functions
    scan: FileScan = None
    offset: int = 0           # absolute offset of the name in scan.text
    params_text: str = ""
    body: str = ""            # "{...}", "" for bodiless declarations
    body_offset: int = 0      # absolute offset of body in scan.text

    @property
    def qualname(self) -> str:
        return f"{self.owner}::{self.name}" if self.owner else self.name

    @property
    def param_names(self):
        return param_names(self.params_text)


@dataclass
class TraitsSpec:
    for_class: str
    scan: FileScan
    offset: int
    body: str

    def defines(self, member: str) -> bool:
        return re.search(rf"\b{member}\s*\(", self.body) is not None


@dataclass
class ClassInfo:
    name: str
    capabilities: set = field(default_factory=set)
    declares_capabilities: bool = False
    parallel_safe: bool | None = None  # None: not declared either way
    has_message: bool = False
    has_send: bool = False
    audit_registered: bool = False
    bodies: list = field(default_factory=list)      # (scan, body, abs_offset)
    methods: dict = field(default_factory=dict)     # name -> [FunctionDef]
    member_decls: str = ""   # concatenated class-body text, for type lookups
    declaration_missing: bool = False

    def add_method(self, fn: FunctionDef):
        self.methods.setdefault(fn.name, []).append(fn)
        if fn.name == "send":
            self.has_send = True

    @property
    def is_agent(self) -> bool:
        return "Agent" in self.name


class ProgramIndex:
    """The whole-program declaration/definition index (front-end pass 1)."""

    def __init__(self):
        self.scans: list[FileScan] = []
        self.classes: dict[str, ClassInfo] = {}
        self.free_functions: dict[str, list[FunctionDef]] = {}
        self.traits_specs: dict[str, list[TraitsSpec]] = {}
        self.has_wire_layer: bool = False    # any MessageTraits in scope
        # path -> set of unordered-container *variable* names (incl. aliases)
        self.unordered_vars: dict[str, set] = {}

    # -- collection ----------------------------------------------------------

    def add_file(self, path: str):
        self.add_scan(FileScan.from_path(path))

    def add_source(self, path: str, text: str):
        """Testing hook: index an in-memory snippet."""
        self.add_scan(FileScan.from_text(path, text))

    def add_scan(self, scan: FileScan):
        self.scans.append(scan)

    def class_info(self, name: str) -> ClassInfo:
        if name not in self.classes:
            self.classes[name] = ClassInfo(name)
        return self.classes[name]

    def build(self):
        for scan in self.scans:
            self._collect_classes(scan)
        for scan in self.scans:
            self._collect_out_of_line(scan)
            self._collect_free_functions(scan)
            self._collect_traits(scan)
            self._collect_audit_calls(scan)
            self._collect_unordered(scan)

    # -- classes -------------------------------------------------------------

    def _collect_classes(self, scan: FileScan):
        text = scan.text
        for m in CLASS_RE.finditer(text):
            name = m.group(2)
            qualified_traits = MESSAGE_TRAITS_RE.match(text, m.start())
            if name == "MessageTraits" or qualified_traits:
                continue  # indexed separately by _collect_traits
            i = m.end()
            depth_angle = depth_paren = 0
            body_start = -1
            while i < len(text):
                c = text[i]
                if c == "<":
                    depth_angle += 1
                elif c == ">":
                    depth_angle = max(0, depth_angle - 1)
                elif c == "(":
                    depth_paren += 1
                elif c == ")":
                    depth_paren -= 1
                elif c == ";" and depth_angle == 0 and depth_paren == 0:
                    break
                elif c == "{" and depth_angle == 0 and depth_paren == 0:
                    body_start = i
                    break
                i += 1
            if body_start < 0:
                continue
            body_end = match_delim(text, body_start, "{", "}")
            body = text[body_start:body_end]
            info = self.class_info(name)
            info.bodies.append((scan, body, body_start))
            info.member_decls += body
            pm = PARALLEL_SAFE_RE.search(body)
            if pm:
                info.parallel_safe = pm.group(1) == "true"
            cm = CAPS_RE.search(body)
            if cm:
                info.declares_capabilities = True
                info.capabilities |= set(re.findall(r"\bk\w+", cm.group(1)))
            if re.search(r"\bstruct\s+Message\b", body):
                info.has_message = True
            self._collect_methods(scan, info, body, body_start)

    def _collect_methods(self, scan: FileScan, info: ClassInfo, body: str,
                         base: int):
        """In-class member function definitions and declarations."""
        for m in re.finditer(r"\b(~?[A-Za-z_]\w*)\s*\(", body):
            name = m.group(1)
            if name in NOT_A_CALL or name.startswith("~"):
                continue
            # A definition/declaration (not a call) is preceded by a type or
            # access boundary, heuristically: previous non-space char is one
            # of ;{}&*>: or a word that is not an operator keyword.
            prev = body[:m.start()].rstrip()
            if not prev or prev[-1] not in ";{}&*>:" and \
                    not prev[-1].isalnum() and prev[-1] != "_":
                continue
            p_open = body.index("(", m.start())
            p_close = match_delim(body, p_open, "(", ")")
            fn_body = trailing_body(body, p_close)
            # Skip plain calls: a call is followed by ; , ) not a body/decl
            # terminator — trailing_body already returns '' for those, but a
            # call statement `foo(x);` also yields ''. Disambiguate: treat as
            # method iff a body exists or the `(`-preceding text ends with a
            # plausible return type (word, `>`, `&`, `*`) at statement start.
            if not fn_body:
                stmt = prev.rsplit(";", 1)[-1].rsplit("{", 1)[-1].strip()
                if not re.search(r"[\w>&*\]]\s*$", stmt) or \
                        len(stmt.split()) < 1 or stmt.endswith(("return",
                                                                "co_return")):
                    continue
                # Bodiless in-class declaration: keep for param names.
                if ";" not in body[p_close:p_close + 40].split("{")[0]:
                    continue
            fn = FunctionDef(name=name, owner=info.name, scan=scan,
                             offset=base + m.start(),
                             params_text=body[p_open + 1:p_close - 1],
                             body=fn_body)
            if fn_body:
                fn.body_offset = base + body.index(fn_body, p_close)
            info.add_method(fn)

    def _collect_out_of_line(self, scan: FileScan):
        text = scan.text
        for m in QUALIFIED_MEMBER_RE.finditer(text):
            cls, member = m.group(1), m.group(2)
            if cls in ("std", "wire", "detail", "chrono"):
                continue
            if cls not in self.classes:
                if member != "send" or "Agent" not in cls:
                    continue
                info = self.class_info(cls)
                info.declaration_missing = True
            else:
                info = self.classes[cls]
            p_open = text.index("(", m.end() - 1)
            p_close = match_delim(text, p_open, "(", ")")
            i = p_close
            depth_paren = 0
            body_start = -1
            while i < len(text):
                c = text[i]
                if c == "(":
                    depth_paren += 1
                elif c == ")":
                    depth_paren -= 1
                elif c == ";" and depth_paren == 0:
                    break
                elif c == "{" and depth_paren == 0:
                    body_start = i
                    break
                i += 1
            if body_start < 0:
                continue  # qualified call or declaration, not a definition
            body_end = match_delim(text, body_start, "{", "}")
            fn = FunctionDef(name=member, owner=cls, scan=scan,
                             offset=m.start(),
                             params_text=text[p_open + 1:p_close - 1],
                             body=text[body_start:body_end],
                             body_offset=body_start)
            info.add_method(fn)
            info.bodies.append((scan, fn.body, body_start))

    # -- free functions ------------------------------------------------------

    def _collect_free_functions(self, scan: FileScan):
        text = scan.text
        class_spans = []
        for info in self.classes.values():
            for s, body, off in info.bodies:
                if s is scan:
                    class_spans.append((off, off + len(body)))
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", text):
            name = m.group(1)
            if name in NOT_A_CALL:
                continue
            start = m.start()
            if any(a <= start < b for a, b in class_spans):
                continue  # member, already collected
            before = text[:start].rstrip()
            if before.endswith("::") or before.endswith("."):
                continue  # qualified member definition or member call
            # Require a return type token right before the name: a word,
            # `>`, `&` or `*` — rejects call statements (preceded by
            # ;={}(,&&|| operators handled by the same test).
            if not re.search(r"[\w>&*]\s*$", before):
                continue
            last_word = re.search(r"([A-Za-z_]\w*)\s*$", before)
            if last_word and last_word.group(1) in {"return", "else", "in",
                                                    "case", "goto", "co_await",
                                                    "co_return", "operator"}:
                continue
            p_open = text.index("(", start)
            p_close = match_delim(text, p_open, "(", ")")
            body = trailing_body(text, p_close)
            if not body:
                continue
            fn = FunctionDef(name=name, owner=None, scan=scan, offset=start,
                             params_text=text[p_open + 1:p_close - 1],
                             body=body,
                             body_offset=text.index(body, p_close))
            self.free_functions.setdefault(name, []).append(fn)

    # -- wire traits / audit calls ------------------------------------------

    def _collect_traits(self, scan: FileScan):
        text = scan.text
        if "MessageTraits" in text:
            self.has_wire_layer = True
        for m in MESSAGE_TRAITS_RE.finditer(text):
            brace = text.find("{", m.end())
            semi = text.find(";", m.end())
            if brace < 0 or (0 <= semi < brace):
                continue  # forward declaration
            body = text[brace:match_delim(text, brace, "{", "}")]
            self.traits_specs.setdefault(m.group(1), []).append(
                TraitsSpec(m.group(1), scan, m.start(), body))

    def _collect_audit_calls(self, scan: FileScan):
        for m in AUDIT_REGISTER_RE.finditer(scan.text):
            self.class_info(m.group(1)).audit_registered = True

    # -- unordered containers incl. aliases (rule D1) ------------------------

    def _collect_unordered(self, scan: FileScan):
        text = scan.text
        names: set[str] = set()
        alias_types: set[str] = set()
        for m in USING_ALIAS_RE.finditer(text):
            if UNORDERED_DECL_RE.search(m.group(2)):
                alias_types.add(m.group(1))
        for m in TYPEDEF_RE.finditer(text):
            if UNORDERED_DECL_RE.search(m.group(1)):
                alias_types.add(m.group(2))
        # Aliases of aliases.
        changed = True
        while changed:
            changed = False
            for m in USING_ALIAS_RE.finditer(text):
                target_words = set(WORD_RE.findall(m.group(2)))
                if target_words & alias_types and m.group(1) not in alias_types:
                    alias_types.add(m.group(1))
                    changed = True
        for m in UNORDERED_DECL_RE.finditer(text):
            close = match_delim(text, text.index("<", m.start()), "<", ">")
            name, _ = next_token(text, close)
            if name and name not in {"const", "auto"}:
                names.add(name)
        for alias in alias_types:
            for m in re.finditer(rf"\b{re.escape(alias)}\s*[&]?\s+"
                                 rf"([A-Za-z_]\w*)\s*[;={{(]", text):
                names.add(m.group(1))
        # Reference/value aliases: `auto& view = table;` / `auto copy = table;`
        changed = True
        while changed:
            changed = False
            for m in re.finditer(r"\b(?:const\s+)?auto\s*&?\s+([A-Za-z_]\w*)"
                                 r"\s*=\s*([A-Za-z_]\w*)\s*[;)]", text):
                if m.group(2) in names and m.group(1) not in names:
                    names.add(m.group(1))
                    changed = True
        if names:
            self.unordered_vars[scan.path] = names


def trailing_body(text: str, offset: int) -> str:
    """The `{...}` body following a parameter list, '' for declarations."""
    i = offset
    depth_paren = 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren -= 1
        elif c in ";," and depth_paren == 0:
            return ""
        elif c == "{" and depth_paren == 0:
            return text[i:match_delim(text, i, "{", "}")]
        elif c == "=" and depth_paren == 0:
            # `= default`, `= delete`, or an initializer: not a body.
            return ""
        i += 1
    return ""


def gather_files(roots, compile_commands=None):
    import json
    files = []
    seen = set()
    for root in roots:
        root = os.path.abspath(root)
        if os.path.isfile(root):
            if root not in seen:
                seen.add(root)
                files.append(root)
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in CXX_EXTENSIONS:
                    path = os.path.join(dirpath, fn)
                    if path not in seen:
                        seen.add(path)
                        files.append(path)
    unbuilt = []
    if compile_commands and os.path.isfile(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as fh:
            db = json.load(fh)
        built = {os.path.abspath(os.path.join(e.get("directory", "."),
                                              e["file"])) for e in db}
        unbuilt = [f for f in files
                   if os.path.splitext(f)[1] not in {".hpp", ".h"} and
                   f not in built]
    return files, unbuilt
