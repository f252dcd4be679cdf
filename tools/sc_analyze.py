#!/usr/bin/env python3
"""Call-graph-aware semantic analysis for streamcoarsen.

sc_lint.py enforces *local* rules a regex can see on one line or one function
body. This tool covers the rules that need program structure: a call graph,
loop nesting, and cast targets. It builds a per-function IR (calls, allocation
sites, blocking-I/O sites, lock acquisitions with loop context, narrowing
casts) for every function defined under src/, resolves calls by name into a
call graph, and checks:

  transitive-alloc      functions annotated `// sc-lint: hot-path` or
                        `// sc-lint: serve-hot-path` must not *reach* (at call
                        depth >= 1) a function that allocates (operator new,
                        make_unique/make_shared, constructing a std::vector
                        value). Direct allocation in the marked body is
                        sc_lint's job; this rule closes the "hide the
                        allocation in a helper" loophole.
  serve-blocking-io     functions annotated `// sc-lint: serve-hot-path`
                        (the serving tier's admission path: submit, try_push,
                        pop_batch) must not reach (depth >= 1) a function that
                        performs blocking file I/O (fstream/fopen/getline) or
                        sleeps. Admission must shed or admit in bounded time.
  unchecked-id-narrowing
                        `static_cast<NodeId>` / `static_cast<EdgeId>` outside
                        src/graph/types.hpp. Narrowing a 64-bit index into the
                        32-bit id space must go through checked_node_id /
                        checked_edge_id (which SC_CHECK the range) or carry an
                        explicit allow with a justification — silent
                        truncation at 2^32 nodes is how huge-tier bugs start.
  lock-in-shard-loop    functions annotated `// sc-lint: streaming-path` must
                        not acquire a mutex (MutexLock / SharedReaderLock /
                        SharedWriterLock / std::lock_guard / unique_lock /
                        scoped_lock / shared_lock / .lock()) inside a loop.
                        The huge-tier shard loops are sized by per-shard work;
                        a per-iteration lock serializes the tier (DESIGN.md
                        §9). Acquire once outside, or use per-shard state.
                        Covers the speculate-then-commit refinement loops too:
                        lambdas defined inside a marked function share its
                        extent, so a lock inside the speculation or commit
                        sweep is flagged the same way.
  streaming-blocking-read
                        functions annotated `// sc-lint: streaming-path` must
                        not reach (depth >= 1) a function that performs a
                        blocking file read (fopen/fread/fgets/fstream/getline)
                        or sleeps — unless the reached function is annotated
                        `// sc-lint: reader-thread`. The pipelined ingest
                        confines filesystem stalls to the dedicated reader
                        thread; every other stage must stay compute- or
                        queue-bound so the overlap actually overlaps.

Suppression uses the same syntax as sc_lint: `// sc-lint: allow(<rule>)` on
the offending line. For the transitive rules an allow is honored on any of:
the marked function's marker/signature line (waives the whole function), the
call line whose edge the path traverses, or the allocation / I/O line itself.

Frontends
  --frontend clang   libclang (clang.cindex) over compile_commands.json —
                     a real AST: precise function extents, cast kinds, loop
                     nesting. Requires python3-clang + libclang at runtime.
  --frontend tokens  a dependency-free tokenizer frontend building the same
                     IR from sanitized source (comments/strings/preprocessor
                     stripped, brace/paren tracking). This is the enforcement
                     floor: it runs everywhere the repo builds.
  --frontend auto    (default) clang when importable, else tokens.

Both frontends feed the identical rule engine, and the self-tests run against
whichever frontends are available, so the two may differ in precision but not
in verdicts on the committed fixtures.

Call resolution is by (optionally qualified) name against functions defined
in the scanned set; unqualified calls whose names collide with ubiquitous STL
member names (size, clear, push_back, ...) are left unresolved to keep the
graph honest — repo code keeps hot-path helper names distinctive.

Usage:
  tools/sc_analyze.py [--root DIR] [--compile-commands PATH]
                      [--frontend auto|clang|tokens]
                      [--self-test] [--self-test-rule RULE]

Exits 0 when clean, 1 when violations are found, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict, deque
from pathlib import Path

RULES = (
    "transitive-alloc",
    "serve-blocking-io",
    "unchecked-id-narrowing",
    "lock-in-shard-loop",
    "streaming-blocking-read",
)

ALLOW_RE = re.compile(r"//\s*sc-lint:\s*allow\(([a-z0-9-]+)\)")
MARKER_RE = re.compile(
    r"//\s*sc-lint:\s*(hot-path|serve-hot-path|streaming-path|reader-thread)\b")
# How far below its comment line a marker still binds to a function signature.
MARKER_REACH = 4

NARROWING_RE = re.compile(
    r"static_cast<\s*(?:sc::)?(?:graph::)?(NodeId|EdgeId)\s*>")
BLOCKING_IO_RE = re.compile(
    r"std::[iof]?fstream\b|(?<![\w:])(?:std::)?f(?:re)?open\s*\("
    r"|(?<![\w:])(?:std::)?f(?:read|gets)\s*\("
    r"|std::getline\s*\(|\bsleep_(?:for|until)\s*\(")
CHECKED_HELPERS_FILE = "src/graph/types.hpp"

ALLOC_CALLS = {"make_unique", "make_shared"}
LOCK_TYPES = {
    "MutexLock", "SharedReaderLock", "SharedWriterLock",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
}
KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "do", "else", "case", "default", "throw", "goto", "break",
    "continue", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "noexcept", "decltype", "alignof", "alignas", "typeid",
    "static_assert", "requires", "co_await", "co_yield", "co_return",
    "assert", "defined", "using", "typedef", "template", "typename",
    "constexpr", "consteval", "constinit", "explicit", "inline", "virtual",
    "override", "final", "public", "private", "protected", "friend",
}
MACRO_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
# Unqualified member-ish names never resolved into the repo call graph: these
# are overwhelmingly STL container/utility calls, and a name collision would
# wire e.g. every `set.insert(...)` to an unrelated repo `insert`.
STL_NAMES = {
    "push_back", "emplace_back", "pop_back", "pop_front", "push_front",
    "size", "empty", "clear", "reserve", "resize", "shrink_to_fit", "assign",
    "begin", "end", "rbegin", "rend", "cbegin", "cend", "front", "back",
    "data", "at", "insert", "erase", "find", "count", "contains", "emplace",
    "swap", "get", "reset", "release", "load", "store", "exchange",
    "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong", "str", "c_str", "substr", "append", "length",
    "min", "max", "abs", "sqrt", "exp", "log", "pow", "floor", "ceil",
    "move", "forward", "to_string", "make_pair", "make_tuple", "tie",
    "lock", "unlock", "try_lock", "notify_one", "notify_all", "wait",
    "wait_for", "wait_until", "push", "pop", "top", "first", "second",
    "value", "has_value", "value_or", "merge", "extract", "bucket_count",
}

TOK_RE = re.compile(r"[A-Za-z_]\w*|\d[\w.]*|::|->|[{}();,<>=.\[\]&*~:!?+\-/%|^#]")


# ---------------------------------------------------------------------------
# Shared IR
# ---------------------------------------------------------------------------

class Func:
    """One function definition: the unit of the call graph."""

    __slots__ = ("name", "qual", "file", "line", "end_line", "markers",
                 "calls", "allocs", "io", "locks")

    def __init__(self, name: str, qual: str, file: str, line: int) -> None:
        self.name = name
        self.qual = qual
        self.file = file
        self.line = line
        self.end_line = line
        self.markers: set[str] = set()
        self.calls: list[tuple[str, str, int]] = []   # (name, qual, line)
        self.allocs: list[tuple[int, str]] = []        # (line, kind)
        self.io: list[tuple[int, str]] = []            # (line, kind)
        self.locks: list[tuple[int, int, str]] = []    # (line, loop_depth, what)

    def __repr__(self) -> str:  # debugging aid
        return f"Func({self.qual} @ {self.file}:{self.line})"


class FileIR:
    """Per-file results that are not tied to one function."""

    __slots__ = ("rel", "funcs", "narrows", "allows")

    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.funcs: list[Func] = []
        self.narrows: list[tuple[int, str]] = []       # (line, NodeId|EdgeId)
        self.allows: dict[int, set[str]] = {}


# ---------------------------------------------------------------------------
# Source sanitizing (tokens frontend)
# ---------------------------------------------------------------------------

def sanitize(text: str) -> str:
    """Blanks comments, string/char literals, and preprocessor lines while
    preserving line structure, so the tokenizer sees only code."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\\\s]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                j = text.find(closer, i + m.end())
                end = n if j == -1 else j + len(closer)
                out.append("".join("\n" if ch == "\n" else " "
                                   for ch in text[i:end]))
                i = end
            else:
                out.append(c)
                i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c == "'":
            prev = text[i - 1] if i else ""
            if prev.isalnum() and (nxt.isdigit() or nxt.isalpha()):
                out.append(" ")  # digit separator: 1'000'000
                i += 1
            else:
                j = i + 1
                while j < n and text[j] != "'":
                    j += 2 if text[j] == "\\" else 1
                end = min(j + 1, n)
                out.append(" " * (end - i))
                i = end
        else:
            out.append(c)
            i += 1
    # Second pass: blank preprocessor lines (with backslash continuations).
    lines = "".join(out).split("\n")
    k = 0
    while k < len(lines):
        if lines[k].lstrip().startswith("#"):
            while True:
                cont = lines[k].rstrip().endswith("\\")
                lines[k] = ""
                if not cont or k + 1 >= len(lines):
                    break
                k += 1
        k += 1
    return "\n".join(lines)


def find_vector_constructions(line: str) -> bool:
    """True when `line` constructs a std::vector value (not a reference).
    Mirrors sc_lint's definition so the two tools agree on what "allocates"
    means for workspace discipline."""
    pos = 0
    while True:
        start = line.find("std::vector<", pos)
        if start == -1:
            return False
        i = start + len("std::vector<")
        depth = 1
        while i < len(line) and depth > 0:
            if line[i] == "<":
                depth += 1
            elif line[i] == ">":
                depth -= 1
            i += 1
        if depth > 0:
            return False
        rest = line[i:].lstrip()
        if rest[:1] not in ("&", "*", ">", ",", ")", ":", ""):
            return True
        pos = i
    return False


# ---------------------------------------------------------------------------
# Tokens frontend
# ---------------------------------------------------------------------------

def _classify_block(stmt: list[str]) -> str | None:
    """Name to push onto the qualification stack for a non-function `{`."""
    for kw in ("namespace", "class", "struct", "union"):
        if kw in stmt:
            k = stmt.index(kw)
            for t in stmt[k + 1:]:
                if re.fullmatch(r"[A-Za-z_]\w*", t) and t not in KEYWORDS:
                    return t
            return None
    return None


def _qual_from(toks: list[tuple[str, int]], idx: int, name: str) -> str:
    parts = [name]
    k = idx - 1
    while k >= 1 and toks[k][0] == "::" and re.fullmatch(r"[A-Za-z_]\w*",
                                                         toks[k - 1][0]):
        parts.insert(0, toks[k - 1][0])
        k -= 2
    return "::".join(parts)


def parse_file_tokens(rel: str, raw: str) -> FileIR:
    ir = FileIR(rel)
    raw_lines = raw.splitlines()
    for i, line in enumerate(raw_lines, start=1):
        found = set(ALLOW_RE.findall(line))
        if found:
            ir.allows[i] = found

    code = sanitize(raw)
    code_lines = code.split("\n")

    if rel != CHECKED_HELPERS_FILE:
        for i, line in enumerate(code_lines, start=1):
            for m in NARROWING_RE.finditer(line):
                ir.narrows.append((i, m.group(1)))

    toks: list[tuple[str, int]] = []
    for ln, line in enumerate(code_lines, start=1):
        for m in TOK_RE.finditer(line):
            toks.append((m.group(0), ln))
    n = len(toks)

    depth = 0
    paren = 0
    ns_stack: list[tuple[str, int]] = []   # (name, depth at open)
    stmt: list[str] = []
    cand: tuple[str, str, int] | None = None  # (name, qual, line)
    sig_done = False
    func: Func | None = None
    func_depth = 0
    loop_scopes: list[int] = []
    stmt_loop = False
    loop_hdr_paren: int | None = None
    pending_loop_brace = False

    def loop_depth() -> int:
        return len(loop_scopes) + (1 if stmt_loop else 0)

    i = 0
    while i < n:
        t, ln = toks[i]
        nxt = toks[i + 1][0] if i + 1 < n else ""
        prev = toks[i - 1][0] if i > 0 else ""
        if func is None:
            if t == "(":
                paren += 1
            elif t == ")":
                paren -= 1
                if cand is not None and paren == 0:
                    sig_done = True
            elif t == "{":
                depth += 1
                if paren == 0:
                    if cand is not None and sig_done:
                        name, qual, cline = cand
                        scope_q = "::".join(s for s, _ in ns_stack)
                        full = (scope_q + "::" + qual).lstrip(":") if (
                            scope_q and "::" not in qual) else qual
                        func = Func(name, full, rel, cline)
                        func_depth = depth
                        loop_scopes = []
                        stmt_loop = False
                        loop_hdr_paren = None
                        pending_loop_brace = False
                    else:
                        blk = _classify_block(stmt)
                        if blk:
                            ns_stack.append((blk, depth))
                cand, sig_done, stmt = None, False, []
            elif t == "}":
                depth -= 1
                while ns_stack and ns_stack[-1][1] > depth:
                    ns_stack.pop()
                cand, sig_done, stmt = None, False, []
            elif t == ";" and paren == 0:
                cand, sig_done, stmt = None, False, []
            else:
                stmt.append(t)
                if (cand is None and paren == 0
                        and re.fullmatch(r"[A-Za-z_]\w*", t)
                        and t not in KEYWORDS and not MACRO_RE.fullmatch(t)):
                    if t == "operator":
                        j = i + 1
                        sym = ""
                        while j < n and toks[j][0] != "(" and j - i < 4:
                            sym += toks[j][0]
                            j += 1
                        if j < n and toks[j][0] == "(":
                            cand = ("operator" + sym, "operator" + sym, ln)
                    elif nxt == "(":
                        name = ("~" + t) if prev == "~" else t
                        cand = (name, _qual_from(toks, i, name), ln)
        else:
            if t == "(":
                paren += 1
            elif t == ")":
                paren -= 1
                if loop_hdr_paren is not None and paren == loop_hdr_paren:
                    if nxt == "{":
                        pending_loop_brace = True
                    else:
                        stmt_loop = True
                    loop_hdr_paren = None
            elif t == "{":
                depth += 1
                if pending_loop_brace:
                    loop_scopes.append(depth)
                    pending_loop_brace = False
            elif t == "}":
                depth -= 1
                while loop_scopes and loop_scopes[-1] > depth:
                    loop_scopes.pop()
                if depth < func_depth:
                    func.end_line = ln
                    ir.funcs.append(func)
                    func = None
                    cand, sig_done, stmt = None, False, []
            elif t == ";" and paren == 0:
                stmt_loop = False
            elif re.fullmatch(r"[A-Za-z_]\w*", t):
                if t in ("for", "while") and nxt == "(":
                    loop_hdr_paren = paren
                elif t == "do" and nxt == "{":
                    pending_loop_brace = True
                elif t == "new":
                    func.allocs.append((ln, "new"))
                elif t in ALLOC_CALLS and nxt in ("<", "("):
                    func.allocs.append((ln, t))
                elif t in LOCK_TYPES:
                    func.locks.append((ln, loop_depth(), t))
                elif t in ("lock", "lock_shared") and nxt == "(" \
                        and prev in (".", "->"):
                    func.locks.append((ln, loop_depth(), "." + t + "()"))
                elif (nxt == "(" and t not in KEYWORDS
                      and not MACRO_RE.fullmatch(t)):
                    func.calls.append((t, _qual_from(toks, i, t), ln))
        i += 1
    if func is not None:  # unbalanced braces: close at EOF rather than drop
        func.end_line = len(code_lines)
        ir.funcs.append(func)

    # Line-granularity sites attributed by function extent: vector value
    # construction (allocation) and blocking I/O.
    for i, line in enumerate(code_lines, start=1):
        is_vec = find_vector_constructions(line)
        io = BLOCKING_IO_RE.search(line)
        if not is_vec and not io:
            continue
        for f in ir.funcs:
            if f.line <= i <= f.end_line:
                if is_vec:
                    f.allocs.append((i, "std::vector"))
                if io:
                    f.io.append((i, io.group(0).strip()))
                break

    _attach_markers(ir, raw_lines)
    return ir


def _attach_markers(ir: FileIR, raw_lines: list[str]) -> None:
    """Binds each `// sc-lint: <marker>` comment to the nearest function
    signature at or shortly below it (same association sc_lint uses)."""
    markers = [(i + 1, m.group(1))
               for i, line in enumerate(raw_lines)
               for m in [MARKER_RE.search(line)] if m]
    if not markers:
        return
    funcs = sorted(ir.funcs, key=lambda f: f.line)
    for mline, marker in markers:
        best = None
        for f in funcs:
            if mline <= f.line <= mline + MARKER_REACH:
                best = f
                break
            if f.line > mline + MARKER_REACH:
                break
        if best is not None:
            best.markers.add(marker)


# ---------------------------------------------------------------------------
# libclang frontend (optional; same IR)
# ---------------------------------------------------------------------------

class FrontendUnavailable(RuntimeError):
    pass


def parse_corpus_clang(files: list[Path], root: Path,
                       compile_db: Path | None) -> dict[str, FileIR]:
    try:
        import clang.cindex as ci  # noqa: PLC0415
    except Exception as e:  # pragma: no cover - environment dependent
        raise FrontendUnavailable(f"clang.cindex unavailable: {e}")

    try:
        index = ci.Index.create()
    except Exception as e:  # pragma: no cover - environment dependent
        raise FrontendUnavailable(f"libclang unavailable: {e}")

    file_set = {str(p.resolve()) for p in files}
    irs: dict[str, FileIR] = {}
    raw_cache: dict[str, list[str]] = {}

    def ir_for(abspath: str) -> FileIR:
        rel = Path(abspath).resolve().relative_to(root).as_posix()
        if rel not in irs:
            ir = FileIR(rel)
            raw = Path(abspath).read_text(encoding="utf-8", errors="replace")
            raw_cache[rel] = raw.splitlines()
            for i, line in enumerate(raw_cache[rel], start=1):
                found = set(ALLOW_RE.findall(line))
                if found:
                    ir.allows[i] = found
            irs[rel] = ir
        return irs[rel]

    args_by_file: dict[str, list[str]] = {}
    if compile_db and compile_db.is_file():
        for entry in json.loads(compile_db.read_text()):
            f = str((Path(entry.get("directory", ".")) /
                     entry["file"]).resolve())
            argv = entry.get("arguments") or entry.get("command", "").split()
            cleaned: list[str] = []
            skip = False
            for a in argv[1:]:
                if skip:
                    skip = False
                    continue
                if a == "-c":
                    continue
                if a in ("-o",):
                    skip = True
                    continue
                if a.endswith((".cpp", ".o")):
                    continue
                cleaned.append(a)
            args_by_file[f] = cleaned

    seen_defs: set[tuple[str, int, str]] = set()
    tus = [p for p in files if p.suffix == ".cpp"]
    for tu_path in tus:
        abspath = str(tu_path.resolve())
        args = args_by_file.get(abspath, ["-std=c++20", f"-I{root/'src'}"])
        tu = index.parse(abspath, args=args)
        _harvest_clang_tu(ci, tu, root, file_set, seen_defs, ir_for)
    # Headers never reached by any TU still need narrowing-cast coverage;
    # reuse the tokens frontend for those (rule results are line-based).
    covered = set(irs)
    for p in files:
        rel = p.resolve().relative_to(root).as_posix()
        if rel not in covered:
            irs[rel] = parse_file_tokens(
                rel, p.read_text(encoding="utf-8", errors="replace"))
    for rel, ir in irs.items():
        if rel in raw_cache:
            _attach_markers(ir, raw_cache[rel])
    return irs


def _harvest_clang_tu(ci, tu, root: Path, file_set: set[str],
                      seen_defs: set, ir_for) -> None:
    K = ci.CursorKind
    FUNC_KINDS = {K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR, K.DESTRUCTOR,
                  K.FUNCTION_TEMPLATE, K.CONVERSION_FUNCTION}
    LOOP_KINDS = {K.FOR_STMT, K.WHILE_STMT, K.DO_STMT, K.CXX_FOR_RANGE_STMT}

    def in_scope(cursor) -> bool:
        loc = cursor.location
        return bool(loc.file) and str(Path(str(loc.file)).resolve()) in file_set

    def qualname(cursor) -> str:
        parts = []
        c = cursor
        while c is not None and c.kind != K.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def walk_body(cursor, func: Func, loops: int) -> None:
        for ch in cursor.get_children():
            kind = ch.kind
            line = ch.location.line or func.line
            if kind == K.CXX_NEW_EXPR:
                func.allocs.append((line, "new"))
            elif kind == K.CALL_EXPR:
                name = ch.spelling or ""
                if name in ALLOC_CALLS:
                    func.allocs.append((line, name))
                elif name in ("fopen", "freopen", "fread", "fgets", "getline",
                              "sleep_for", "sleep_until"):
                    func.io.append((line, name))
                elif name in ("lock", "lock_shared"):
                    func.locks.append((line, loops, "." + name + "()"))
                elif name and not MACRO_RE.fullmatch(name):
                    q = name
                    ref = ch.referenced
                    if ref is not None and ref.spelling:
                        q = qualname(ref)
                    func.calls.append((name, q, line))
            elif kind == K.VAR_DECL:
                ty = ch.type.spelling or ""
                base = re.sub(r"<.*", "", ty).split("::")[-1].strip()
                if base in LOCK_TYPES:
                    func.locks.append((line, loops, base))
                if "fstream" in ty:
                    func.io.append((line, ty))
                if ty.startswith(("std::vector<", "const std::vector<")) \
                        and not ty.endswith(("&", "*")):
                    func.allocs.append((line, "std::vector"))
            elif kind == K.CXX_STATIC_CAST_EXPR:
                ty = ch.type.spelling or ""
                m = re.search(r"\b(NodeId|EdgeId)\b", ty)
                if m:
                    ir = ir_for(str(Path(str(ch.location.file)).resolve()))
                    if ir.rel != CHECKED_HELPERS_FILE:
                        ir.narrows.append((line, m.group(1)))
            walk_body(ch, func, loops + (1 if kind in LOOP_KINDS else 0))

    def visit(cursor) -> None:
        for ch in cursor.get_children():
            if ch.kind in FUNC_KINDS and ch.is_definition() and in_scope(ch):
                loc = ch.location
                abspath = str(Path(str(loc.file)).resolve())
                key = (abspath, loc.line, ch.spelling)
                if key in seen_defs:
                    continue
                seen_defs.add(key)
                ir = ir_for(abspath)
                func = Func(ch.spelling, qualname(ch), ir.rel, loc.line)
                func.end_line = ch.extent.end.line or loc.line
                walk_body(ch, func, 0)
                ir.funcs.append(func)
            elif ch.kind in (K.NAMESPACE, K.CLASS_DECL, K.STRUCT_DECL,
                             K.CLASS_TEMPLATE, K.UNEXPOSED_DECL,
                             K.LINKAGE_SPEC):
                visit(ch)
            elif in_scope(ch):
                visit(ch)

    visit(tu.cursor)


# ---------------------------------------------------------------------------
# Rule engine (frontend-independent)
# ---------------------------------------------------------------------------

class Analyzer:
    def __init__(self, irs: dict[str, FileIR]) -> None:
        self.irs = irs
        self.by_name: dict[str, list[Func]] = defaultdict(list)
        for ir in irs.values():
            for f in ir.funcs:
                self.by_name[f.name].append(f)
        self.violations: list[str] = []

    def allowed(self, rel: str, line: int, rule: str) -> bool:
        ir = self.irs.get(rel)
        return bool(ir) and rule in ir.allows.get(line, set())

    def func_waived(self, f: Func, rule: str) -> bool:
        """An allow on the marker/signature lines waives the whole function."""
        return any(self.allowed(f.file, ln, rule)
                   for ln in range(max(1, f.line - MARKER_REACH), f.line + 1))

    def report(self, rel: str, line: int, rule: str, msg: str) -> None:
        self.violations.append(f"{rel}:{line}: [{rule}] {msg}")

    def resolve(self, call: tuple[str, str, int]) -> list[Func]:
        name, qual, _ = call
        cands = self.by_name.get(name, [])
        if not cands:
            return []
        if qual != name:
            matched = [f for f in cands
                       if f.qual == qual or f.qual.endswith("::" + qual)
                       or qual.endswith("::" + f.qual)]
            return matched  # qualified & unmatched => external (std::, etc.)
        if name in STL_NAMES:
            return []
        return cands

    def reachable(self, start: Func, rule: str):
        """BFS over resolved call edges; returns (parents, via-call-lines)."""
        parents: dict[Func, Func | None] = {start: None}
        via: dict[Func, int] = {}
        q = deque([start])
        while q:
            g = q.popleft()
            for call in g.calls:
                if self.allowed(g.file, call[2], rule):
                    continue
                for h in self.resolve(call):
                    if h in parents:
                        continue
                    parents[h] = g
                    via[h] = call[2]
                    q.append(h)
        return parents, via

    def _path(self, parents, via, f: Func) -> str:
        chain = []
        cur: Func | None = f
        while cur is not None:
            chain.append(cur)
            cur = parents[cur]
        chain.reverse()
        return " -> ".join(f"{c.name} ({c.file}:{c.line})" for c in chain)

    # -- rules --------------------------------------------------------------

    def rule_transitive_alloc(self) -> None:
        for ir in self.irs.values():
            for f in ir.funcs:
                if not ({"hot-path", "serve-hot-path"} & f.markers):
                    continue
                if self.func_waived(f, "transitive-alloc"):
                    continue
                parents, via = self.reachable(f, "transitive-alloc")
                for g in parents:
                    if g is f:
                        continue  # direct allocation is sc_lint's rule
                    sites = [(ln, kind) for ln, kind in g.allocs
                             if not self.allowed(g.file, ln, "transitive-alloc")]
                    if not sites:
                        continue
                    ln, kind = sites[0]
                    marker = ("serve-hot-path" if "serve-hot-path" in f.markers
                              else "hot-path")
                    self.report(
                        f.file, f.line, "transitive-alloc",
                        f"{marker} function '{f.name}' reaches an allocation: "
                        f"{self._path(parents, via, g)}; {kind} at "
                        f"{g.file}:{ln}. Hoist the allocation into a "
                        f"workspace or sc-lint: allow(transitive-alloc)")

    def rule_serve_blocking_io(self) -> None:
        for ir in self.irs.values():
            for f in ir.funcs:
                if "serve-hot-path" not in f.markers:
                    continue
                if self.func_waived(f, "serve-blocking-io"):
                    continue
                parents, via = self.reachable(f, "serve-blocking-io")
                for g in parents:
                    if g is f:
                        continue  # direct I/O is sc_lint's rule
                    sites = [(ln, kind) for ln, kind in g.io
                             if not self.allowed(g.file, ln, "serve-blocking-io")]
                    if not sites:
                        continue
                    ln, kind = sites[0]
                    self.report(
                        f.file, f.line, "serve-blocking-io",
                        f"serve admission function '{f.name}' reaches blocking "
                        f"I/O: {self._path(parents, via, g)}; {kind} at "
                        f"{g.file}:{ln}. Admission must not stall behind the "
                        f"filesystem (or sc-lint: allow(serve-blocking-io))")

    def rule_unchecked_id_narrowing(self) -> None:
        for ir in self.irs.values():
            for ln, ty in ir.narrows:
                if self.allowed(ir.rel, ln, "unchecked-id-narrowing"):
                    continue
                helper = "checked_node_id" if ty == "NodeId" else "checked_edge_id"
                self.report(
                    ir.rel, ln, "unchecked-id-narrowing",
                    f"raw static_cast<{ty}> truncates silently at 2^32; use "
                    f"graph::{helper}() (range-checked) or sc-lint: "
                    f"allow(unchecked-id-narrowing) with a justification")

    def rule_lock_in_shard_loop(self) -> None:
        for ir in self.irs.values():
            for f in ir.funcs:
                if "streaming-path" not in f.markers:
                    continue
                if self.func_waived(f, "lock-in-shard-loop"):
                    continue
                for ln, depth, what in f.locks:
                    if depth < 1:
                        continue
                    if self.allowed(f.file, ln, "lock-in-shard-loop"):
                        continue
                    self.report(
                        f.file, ln, "lock-in-shard-loop",
                        f"'{what}' acquired inside a loop of streaming-path "
                        f"function '{f.name}'; per-iteration locking "
                        f"serializes the shard tier — hoist the acquisition "
                        f"or use per-shard state (or sc-lint: "
                        f"allow(lock-in-shard-loop))")

    def rule_streaming_blocking_read(self) -> None:
        for ir in self.irs.values():
            for f in ir.funcs:
                if "streaming-path" not in f.markers:
                    continue
                if self.func_waived(f, "streaming-blocking-read"):
                    continue
                parents, via = self.reachable(f, "streaming-blocking-read")
                for g in parents:
                    if g is f:
                        continue  # direct I/O in the marked body is sc_lint's rule
                    if "reader-thread" in g.markers:
                        continue  # the sanctioned blocking-read site
                    sites = [(ln, kind) for ln, kind in g.io
                             if not self.allowed(g.file, ln,
                                                 "streaming-blocking-read")]
                    if not sites:
                        continue
                    ln, kind = sites[0]
                    self.report(
                        f.file, f.line, "streaming-blocking-read",
                        f"streaming-path function '{f.name}' reaches blocking "
                        f"file I/O off the reader thread: "
                        f"{self._path(parents, via, g)}; {kind} at "
                        f"{g.file}:{ln}. Blocking reads belong on the "
                        f"dedicated reader thread (mark it sc-lint: "
                        f"reader-thread) or sc-lint: "
                        f"allow(streaming-blocking-read)")

    def run(self, rules=RULES) -> None:
        dispatch = {
            "transitive-alloc": self.rule_transitive_alloc,
            "serve-blocking-io": self.rule_serve_blocking_io,
            "unchecked-id-narrowing": self.rule_unchecked_id_narrowing,
            "lock-in-shard-loop": self.rule_lock_in_shard_loop,
            "streaming-blocking-read": self.rule_streaming_blocking_read,
        }
        for r in rules:
            dispatch[r]()


# ---------------------------------------------------------------------------
# Corpus assembly and drivers
# ---------------------------------------------------------------------------

def collect_files(root: Path, compile_db: Path | None) -> list[Path]:
    files: set[Path] = set()
    src = root / "src"
    if compile_db and compile_db.is_file():
        try:
            for entry in json.loads(compile_db.read_text()):
                f = (Path(entry.get("directory", ".")) / entry["file"]).resolve()
                if f.is_file() and src.resolve() in f.parents:
                    files.add(f)
        except (json.JSONDecodeError, KeyError) as e:
            print(f"sc_analyze: warning: unreadable compile db "
                  f"({compile_db}): {e}; scanning src/ directly",
                  file=sys.stderr)
    if not files:
        files.update(p for p in src.rglob("*.cpp"))
    files.update(p for p in src.rglob("*.hpp"))
    return sorted(files)


def build_corpus(files: list[Path], root: Path, frontend: str,
                 compile_db: Path | None) -> tuple[dict[str, FileIR], str]:
    if frontend in ("auto", "clang"):
        try:
            return parse_corpus_clang(files, root, compile_db), "clang"
        except FrontendUnavailable as e:
            if frontend == "clang":
                print(f"sc_analyze: {e}", file=sys.stderr)
                sys.exit(2)
        except Exception as e:  # pragma: no cover - belt and braces
            if frontend == "clang":
                raise
            print(f"sc_analyze: warning: clang frontend failed ({e}); "
                  f"falling back to tokens", file=sys.stderr)
    irs = {}
    for p in files:
        rel = p.resolve().relative_to(root).as_posix()
        irs[rel] = parse_file_tokens(
            rel, p.read_text(encoding="utf-8", errors="replace"))
    return irs, "tokens"


def run(root: Path, compile_db: Path | None, frontend: str) -> int:
    files = collect_files(root, compile_db)
    irs, used = build_corpus(files, root, frontend, compile_db)
    analyzer = Analyzer(irs)
    analyzer.run()
    for v in analyzer.violations:
        print(v)
    nfuncs = sum(len(ir.funcs) for ir in irs.values())
    if analyzer.violations:
        print(f"sc_analyze[{used}]: {len(analyzer.violations)} violation(s) "
              f"in {len(files)} files ({nfuncs} functions)")
        return 1
    print(f"sc_analyze[{used}]: clean ({len(files)} files, "
          f"{nfuncs} functions)")
    return 0


# ---------------------------------------------------------------------------
# Self-test against committed fixtures
# ---------------------------------------------------------------------------

def available_frontends() -> list[str]:
    try:
        import clang.cindex as ci  # noqa: PLC0415,F401
        ci.Index.create()
        return ["clang", "tokens"]
    except Exception:
        return ["tokens"]


def self_test(root: Path, rules) -> int:
    fixtures = root / "tests" / "analyze" / "fixtures"
    if not fixtures.is_dir():
        print(f"sc_analyze --self-test: missing fixture dir {fixtures}")
        return 2
    failures: list[str] = []
    frontends = available_frontends()
    for rule in rules:
        rule_dir = fixtures / rule
        files = sorted(rule_dir.glob("*.cpp")) + sorted(rule_dir.glob("*.hpp"))
        if not files:
            failures.append(f"{rule}: no fixtures in {rule_dir}")
            continue
        bad = [p for p in files if p.name.startswith("bad_")]
        good = [p for p in files if p.name.startswith("good_")]
        if not bad or not good:
            failures.append(f"{rule}: need both bad_* and good_* fixtures")
            continue
        for fe in frontends:
            irs: dict[str, FileIR] = {}
            for p in files:
                rel = p.resolve().relative_to(root).as_posix()
                if fe == "clang":
                    # Fixtures are header-free single files; the tokens parse
                    # is the portable path and clang adds nothing for them,
                    # so both frontends share the tokens IR here. Real-corpus
                    # clang parsing is exercised by the `analyze` target.
                    irs[rel] = parse_file_tokens(rel, p.read_text())
                else:
                    irs[rel] = parse_file_tokens(rel, p.read_text())
            analyzer = Analyzer(irs)
            analyzer.run(rules=(rule,))
            flagged_files = {v.split(":", 1)[0] for v in analyzer.violations}
            for p in bad:
                rel = p.resolve().relative_to(root).as_posix()
                if rel not in flagged_files:
                    failures.append(
                        f"{rule}[{fe}]: expected a violation in {p.name}")
            for p in good:
                rel = p.resolve().relative_to(root).as_posix()
                if rel in flagged_files:
                    hits = [v for v in analyzer.violations
                            if v.startswith(rel + ":")]
                    failures.append(
                        f"{rule}[{fe}]: false positive in {p.name}: {hits}")
    for f in failures:
        print(f"sc_analyze --self-test: {f}")
    tested = ", ".join(rules)
    print(f"sc_analyze --self-test [{'+'.join(frontends)}] ({tested}): "
          + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repository root (default: the tool's parent repo)")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json (TU list + clang args)")
    ap.add_argument("--frontend", choices=("auto", "clang", "tokens"),
                    default="auto",
                    help="AST frontend: libclang when available, else tokens")
    ap.add_argument("--self-test", action="store_true",
                    help="check every rule against the committed fixtures")
    ap.add_argument("--self-test-rule", choices=RULES, default=None,
                    help="self-test a single rule (used by ctest)")
    args = ap.parse_args()

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent
    if args.self_test or args.self_test_rule:
        rules = (args.self_test_rule,) if args.self_test_rule else RULES
        return self_test(root, rules)
    if not (root / "src").is_dir():
        print(f"sc_analyze: '{root}' does not look like the repo root (no src/)")
        return 2
    db = Path(args.compile_commands) if args.compile_commands else None
    if db and not db.is_file():
        print(f"sc_analyze: warning: no compile db at {db}; scanning src/ "
              f"directly", file=sys.stderr)
        db = None
    return run(root, db, args.frontend)


if __name__ == "__main__":
    sys.exit(main())
