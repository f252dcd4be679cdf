#!/usr/bin/env python3
"""Project lint for streamcoarsen: static rules the compiler cannot enforce.

Rules (each can be suppressed per line with `// sc-lint: allow(<rule>)`):

  no-raw-rand          rand()/srand()/std::random_device anywhere except
                       src/common/rng.hpp. All randomness must flow through
                       sc::Rng so runs stay reproducible from a single seed.
  no-stream-io-in-src  std::cout/std::cerr inside src/ outside common/log.
                       Library code reports through logging or exceptions;
                       direct console writes bypass log levels and corrupt
                       tool output that is parsed downstream.
  no-iostream-header   `#include <iostream>` in any header. The include
                       injects the static ios_base initializer into every
                       translation unit; headers use <ostream>/<iosfwd>.
  writer-flush-check   every `std::ofstream` writer must flush() and then
                       check the stream (SC_CHECK/.good()) before closing.
                       Buffered-write failures (disk full, quota) otherwise
                       vanish in the destructor, which swallows errors.
  pragma-once          every header starts its preprocessor life with
                       `#pragma once` (include guards are accepted).
  no-vector-in-hot-path
                       functions annotated with `// sc-lint: hot-path` must
                       not construct a local std::vector anywhere in their
                       body. These are the steady-state reward-evaluation
                       functions (DESIGN.md §5.4) whose zero-allocation
                       contract the workspaces exist to uphold; binding a
                       reference to a workspace vector is fine, creating a
                       fresh one is a regression the benchmarks only catch
                       statistically.
  serve-hot-path       functions annotated with `// sc-lint: serve-hot-path`
                       must not perform blocking file I/O (fstream/fopen) or
                       unbounded allocation (operator new, make_unique/
                       make_shared, constructing a std::vector). These are
                       the serving tier's admission-path functions (submit,
                       try_push, pop_batch): a request must be admitted or
                       shed in bounded time with the ring buffer's
                       pre-allocated slots, never stalled behind the
                       filesystem or an allocator.
  streaming-path       functions annotated with `// sc-lint: streaming-path`
                       must not materialize a full graph: no StreamGraph/
                       GraphBuilder value declarations, no load_graphs/
                       read_graph/to_weighted calls, and no containers of
                       Operator/Channel/StreamGraph. These are the Huge-tier
                       ingest and partitioning functions (DESIGN.md §9) whose
                       bounded memory the huge-stream benchmark measures
                       (peak_rss_mb in bench/e2e); a full
                       materialization silently reverts the tier to O(graph)
                       residency. Const references to a StreamGraph are fine —
                       the rule targets construction, not access.
  no-raw-intrinsics    `#include <immintrin.h>`/`<arm_neon.h>` and raw SIMD
                       intrinsic identifiers (`_mm*`, `v*q_f32/64`) anywhere
                       except src/nn/simd.hpp. All vector code lives behind
                       the shim's dispatched kernels so the scalar reference,
                       runtime tier selection, and fp-contract policy stay in
                       one audited place.

Usage:
  tools/sc_lint.py [--root DIR] [--self-test]

Exits 0 when clean, 1 when violations are found, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
EXTS = {".hpp", ".cpp"}

ALLOW_RE = re.compile(r"//\s*sc-lint:\s*allow\(([a-z0-9-]+)\)")
RAW_RAND_RE = re.compile(r"std::random_device|(?<![\w:])s?rand\s*\(")
STREAM_IO_RE = re.compile(r"std::c(?:out|err)\b")
IOSTREAM_RE = re.compile(r'#\s*include\s*<iostream>')
OFSTREAM_DECL_RE = re.compile(r"std::ofstream\s+(\w+)")
PRAGMA_ONCE_RE = re.compile(r"#\s*pragma\s+once")
GUARD_RE = re.compile(r"#\s*ifndef\s+\w+")
HOT_PATH_RE = re.compile(r"//\s*sc-lint:\s*hot-path")
SERVE_HOT_PATH_RE = re.compile(r"//\s*sc-lint:\s*serve-hot-path")
STREAMING_PATH_RE = re.compile(r"//\s*sc-lint:\s*streaming-path")
FULL_GRAPH_RE = re.compile(
    r"\b(?:graph::)?(?:StreamGraph|GraphBuilder)\s+\w"  # value declarations
    r"|\b(?:graph::)?(?:load_graphs|read_graph|to_weighted)\s*\("
    r"|std::vector<\s*(?:graph::)?(?:Operator|Channel|StreamGraph)\s*>"
)
FILE_IO_RE = re.compile(r"std::[iof]?fstream\b|(?<![\w:])f(?:re)?open\s*\(")
UNBOUNDED_ALLOC_RE = re.compile(r"(?<![\w:])new\s|std::make_(?:unique|shared)\s*<")
INTRINSIC_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|arm_neon)\.h>"
    r"|(?<![\w])_mm\w*"      # _mm_/_mm256_/_mm512_ intrinsics and __mmask via _mm
    r"|\bv\w+q_f(?:32|64)\b"  # NEON vaddq_f64 / vmulq_f32 style intrinsics
)


def find_vector_constructions(line: str) -> bool:
    """True when `line` constructs a std::vector value (not a reference).

    Scans each `std::vector<` occurrence with balanced angle brackets (so
    nested templates like vector<pair<double, NodeId>> parse), then looks at
    the first character after the closing `>`: `&`/`*` bind a reference or
    pointer (allowed); anything that starts a declarator or temporary
    (identifier, `(`, `{`) is a construction.
    """
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
            return False  # type spans lines; rare, and the next line re-scans
        rest = line[i:].lstrip()
        if rest[:1] not in ("&", "*", ">", ",", ")", ":", ""):
            return True
        pos = i
    return False


def strip_comments_keep_lines(text: str) -> str:
    """Blank out /* */ and // comment bodies so rules skip commented code.

    Line structure (and thus reported line numbers) is preserved. The lint
    suppression marker is parsed from the raw line before stripping.
    """
    out = []
    in_block = False
    for line in text.splitlines():
        if in_block:
            end = line.find("*/")
            if end == -1:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # // comments (naive about string literals containing //, which do
        # not occur in rule-relevant positions in this codebase).
        cut = line.find("//")
        if cut != -1:
            line = line[:cut]
        start = line.find("/*")
        while start != -1:
            end = line.find("*/", start + 2)
            if end == -1:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
            start = line.find("/*")
        out.append(line)
    return "\n".join(out)


class Linter:
    def __init__(self) -> None:
        self.violations: list[str] = []

    def report(self, path: str, lineno: int, rule: str, message: str) -> None:
        self.violations.append(f"{path}:{lineno}: [{rule}] {message}")

    def lint_file(self, path: Path, rel: str) -> None:
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        code_lines = strip_comments_keep_lines(raw).splitlines()
        allows = {
            i + 1: set(ALLOW_RE.findall(line)) for i, line in enumerate(raw_lines)
        }

        def allowed(lineno: int, rule: str) -> bool:
            return rule in allows.get(lineno, set())

        is_header = rel.endswith(".hpp")
        in_src = rel.startswith("src/")
        is_rng = rel == "src/common/rng.hpp"
        is_simd_shim = rel == "src/nn/simd.hpp"
        is_log = rel.startswith("src/common/log")

        for i, line in enumerate(code_lines, start=1):
            if not is_rng and RAW_RAND_RE.search(line) and not allowed(i, "no-raw-rand"):
                self.report(rel, i, "no-raw-rand",
                            "raw libc/std randomness; use sc::Rng (common/rng.hpp)")
            if (in_src and not is_log and STREAM_IO_RE.search(line)
                    and not allowed(i, "no-stream-io-in-src")):
                self.report(rel, i, "no-stream-io-in-src",
                            "direct std::cout/std::cerr in library code; use common/log")
            if is_header and IOSTREAM_RE.search(line) and not allowed(i, "no-iostream-header"):
                self.report(rel, i, "no-iostream-header",
                            "<iostream> in a header; include <ostream>/<iosfwd> and "
                            "keep stream objects in a .cpp")
            if (not is_simd_shim and INTRINSIC_RE.search(line)
                    and not allowed(i, "no-raw-intrinsics")):
                self.report(rel, i, "no-raw-intrinsics",
                            "raw SIMD intrinsics outside src/nn/simd.hpp; add a "
                            "dispatched kernel to the shim instead")

        self._lint_writer_flush(rel, code_lines, allowed)
        self._lint_hot_path(rel, raw_lines, code_lines, allowed)
        self._lint_serve_hot_path(rel, raw_lines, code_lines, allowed)
        self._lint_streaming_path(rel, raw_lines, code_lines, allowed)

        if is_header:
            self._lint_pragma_once(rel, code_lines, allowed)

    def _lint_writer_flush(self, rel: str, lines: list[str], allowed) -> None:
        for i, line in enumerate(lines, start=1):
            m = OFSTREAM_DECL_RE.search(line)
            if not m or allowed(i, "writer-flush-check"):
                continue
            var = m.group(1)
            # Find `var.flush()` after the declaration, then a stream check
            # (SC_CHECK or .good()) within the next 3 lines.
            flush_re = re.compile(rf"\b{re.escape(var)}\s*\.\s*flush\s*\(")
            check_re = re.compile(rf"SC_CHECK|\b{re.escape(var)}\s*\.\s*good\s*\(")
            ok = False
            for j in range(i, len(lines)):
                if flush_re.search(lines[j]):
                    window = "\n".join(lines[j:j + 4])
                    if check_re.search(window):
                        ok = True
                    break
            if not ok:
                self.report(rel, i, "writer-flush-check",
                            f"std::ofstream '{var}' is never flush()ed + checked "
                            "(SC_CHECK/.good()); buffered-write errors are lost in "
                            "the destructor")

    def _lint_hot_path(self, rel: str, raw_lines: list[str],
                       code_lines: list[str], allowed) -> None:
        """Functions under a `// sc-lint: hot-path` marker must not construct
        local std::vectors (see module docstring). The body is delimited by
        brace counting from the function's opening brace."""
        for i, raw in enumerate(raw_lines):
            if not HOT_PATH_RE.search(raw):
                continue
            # Walk from the marker to the end of the function body.
            depth = 0
            entered = False
            j = i
            while j < len(code_lines):
                line = code_lines[j]
                if find_vector_constructions(line) and not allowed(j + 1, "no-vector-in-hot-path"):
                    self.report(rel, j + 1, "no-vector-in-hot-path",
                                "std::vector constructed inside a hot-path "
                                "function; reuse a workspace buffer (or "
                                "sc-lint: allow(no-vector-in-hot-path))")
                depth += line.count("{") - line.count("}")
                if "{" in line:
                    entered = True
                if entered and depth <= 0:
                    break
                j += 1

    def _lint_serve_hot_path(self, rel: str, raw_lines: list[str],
                             code_lines: list[str], allowed) -> None:
        """Functions under a `// sc-lint: serve-hot-path` marker must not
        block on file I/O or allocate unboundedly (see module docstring).
        Body delimitation mirrors _lint_hot_path (brace counting)."""
        for i, raw in enumerate(raw_lines):
            if not SERVE_HOT_PATH_RE.search(raw):
                continue
            depth = 0
            entered = False
            j = i
            while j < len(code_lines):
                line = code_lines[j]
                if not allowed(j + 1, "serve-hot-path"):
                    if FILE_IO_RE.search(line):
                        self.report(rel, j + 1, "serve-hot-path",
                                    "blocking file I/O inside a serve-hot-path "
                                    "function; admission must not stall behind "
                                    "the filesystem")
                    elif (UNBOUNDED_ALLOC_RE.search(line)
                          or find_vector_constructions(line)):
                        self.report(rel, j + 1, "serve-hot-path",
                                    "unbounded allocation inside a serve-hot-path "
                                    "function; use the pre-allocated ring slots "
                                    "(or sc-lint: allow(serve-hot-path))")
                depth += line.count("{") - line.count("}")
                if "{" in line:
                    entered = True
                if entered and depth <= 0:
                    break
                j += 1

    def _lint_streaming_path(self, rel: str, raw_lines: list[str],
                             code_lines: list[str], allowed) -> None:
        """Functions under a `// sc-lint: streaming-path` marker must not
        materialize a full graph (see module docstring). Body delimitation
        mirrors _lint_hot_path (brace counting)."""
        for i, raw in enumerate(raw_lines):
            if not STREAMING_PATH_RE.search(raw):
                continue
            depth = 0
            entered = False
            j = i
            while j < len(code_lines):
                line = code_lines[j]
                if FULL_GRAPH_RE.search(line) and not allowed(j + 1, "streaming-path"):
                    self.report(rel, j + 1, "streaming-path",
                                "full-graph materialization inside a streaming-path "
                                "function; stay on the CsrGraph/bounded-buffer tier "
                                "(or sc-lint: allow(streaming-path))")
                depth += line.count("{") - line.count("}")
                if "{" in line:
                    entered = True
                if entered and depth <= 0:
                    break
                j += 1

    def _lint_pragma_once(self, rel: str, lines: list[str], allowed) -> None:
        for i, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if PRAGMA_ONCE_RE.search(stripped) or GUARD_RE.search(stripped):
                return
            if allowed(i, "pragma-once"):
                return
            self.report(rel, i, "pragma-once",
                        "header must start with #pragma once (or an include guard)")
            return


def run(root: Path) -> int:
    linter = Linter()
    files = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        files.extend(p for p in sorted(base.rglob("*")) if p.suffix in EXTS)
    for path in files:
        linter.lint_file(path, path.relative_to(root).as_posix())
    for v in linter.violations:
        print(v)
    if linter.violations:
        print(f"sc_lint: {len(linter.violations)} violation(s) in {len(files)} files")
        return 1
    print(f"sc_lint: clean ({len(files)} files)")
    return 0


def self_test() -> int:
    """Seeds one violation per rule and asserts the linter flags it."""
    cases = {
        "no-raw-rand": ("src/x.cpp", "int r = rand();\n"),
        "no-raw-rand-dev": ("src/x.cpp", "std::random_device rd;\n"),
        "no-stream-io-in-src": ("src/x.cpp", 'std::cout << "hi";\n'),
        "no-iostream-header": ("src/x.hpp", "#pragma once\n#include <iostream>\n"),
        "writer-flush-check": ("src/x.cpp", 'std::ofstream os(p);\nos << x;\n'),
        "pragma-once": ("src/x.hpp", "int f();\n"),
        "no-vector-in-hot-path": (
            "src/x.cpp",
            "// sc-lint: hot-path\n"
            "void f(Scratch& s) {\n"
            "  std::vector<int> tmp(8);\n"
            "}\n"),
        "no-raw-intrinsics-include": ("src/x.cpp", "#include <immintrin.h>\n"),
        "no-raw-intrinsics-neon-include": ("src/x.hpp",
                                           "#pragma once\n#include <arm_neon.h>\n"),
        "no-raw-intrinsics-x86-call": ("src/x.cpp",
                                       "c = _mm256_add_pd(a, b);\n"),
        "no-raw-intrinsics-neon-call": ("src/x.cpp",
                                        "c = vaddq_f64(a, b);\n"),
        "serve-hot-path-file-io": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool submit(Req r) {\n"
            "  std::ofstream log(\"audit.log\");\n"
            "  return true;\n"
            "}\n"),
        "serve-hot-path-fopen": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool submit(Req r) {\n"
            "  FILE* f = fopen(\"audit.log\", \"a\");\n"
            "  return f != nullptr;\n"
            "}\n"),
        "serve-hot-path-new": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool submit(Req r) {\n"
            "  auto* p = new Pending{std::move(r)};\n"
            "  return enqueue(p);\n"
            "}\n"),
        "serve-hot-path-make-shared": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool submit(Req r) {\n"
            "  auto p = std::make_shared<Pending>(std::move(r));\n"
            "  return enqueue(p);\n"
            "}\n"),
        "serve-hot-path-vector": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool submit(Req r) {\n"
            "  std::vector<Req> staging;\n"
            "  return true;\n"
            "}\n"),
        "no-vector-in-hot-path-nested-template": (
            "src/x.cpp",
            "// sc-lint: hot-path\n"
            "void f(Scratch& s) {\n"
            "  std::vector<std::pair<double, int>> heap;\n"
            "}\n"),
        "streaming-path-read-graph": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(std::istream& is) {\n"
            "  auto g = graph::read_graph(is);\n"
            "}\n"),
        "streaming-path-streamgraph-value": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const std::string& p) {\n"
            "  graph::StreamGraph g = build(p);\n"
            "}\n"),
        "streaming-path-builder": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const std::string& p) {\n"
            "  graph::GraphBuilder b(p);\n"
            "}\n"),
        "streaming-path-load-graphs": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const std::string& p) {\n"
            "  const auto graphs = graph::load_graphs(p);\n"
            "}\n"),
        "streaming-path-operator-vector": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const std::string& p) {\n"
            "  std::vector<graph::Operator> ops;\n"
            "}\n"),
        "streaming-path-to-weighted": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const graph::StreamGraph& g, const graph::LoadProfile& lp) {\n"
            "  const auto wg = graph::to_weighted(g, lp);\n"
            "}\n"),
    }
    clean = {
        "rng-exempt": ("src/common/rng.hpp", "#pragma once\nstd::random_device rd;\n"),
        "suppressed": ("src/x.cpp",
                       "std::ofstream os(p);  // sc-lint: allow(writer-flush-check)\n"),
        "comment": ("src/x.cpp", "// old: int r = rand();\n"),
        "flushed": ("src/x.cpp",
                    "std::ofstream os(p);\nos << x;\nos.flush();\n"
                    'SC_CHECK(os.good(), "write failed");\n'),
        "hot-path-reference-ok": (
            "src/x.cpp",
            "// sc-lint: hot-path\n"
            "void f(Scratch& s) {\n"
            "  std::vector<int>& buf = s.buf;\n"
            "  const std::vector<double>* w = &s.weights;\n"
            "  buf.clear();\n"
            "}\n"),
        "hot-path-suppressed": (
            "src/x.cpp",
            "// sc-lint: hot-path\n"
            "void f(Scratch& s) {\n"
            "  std::vector<int> tmp;  // sc-lint: allow(no-vector-in-hot-path)\n"
            "}\n"),
        "simd-shim-exempt": ("src/nn/simd.hpp",
                             "#pragma once\n#include <immintrin.h>\n"
                             "c = _mm512_mul_pd(a, b);\n"),
        "intrinsics-suppressed": (
            "src/x.cpp",
            "c = _mm256_add_pd(a, b);  // sc-lint: allow(no-raw-intrinsics)\n"),
        "masked-not-intrinsic": ("src/x.cpp",
                                 "double vq_found = masked_logprob(x);\n"),
        "vector-outside-hot-path": (
            "src/x.cpp",
            "void g() {\n"
            "  std::vector<int> fine(4);\n"
            "}\n"),
        "serve-hot-path-moves-ok": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool try_push(T&& item) {\n"
            "  ring_[(head_ + count_) % ring_.size()] = std::move(item);\n"
            "  ++count_;\n"
            "  return true;\n"
            "}\n"),
        "serve-hot-path-suppressed": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool submit(Req r) {\n"
            "  auto p = std::make_shared<Pending>(r);  "
            "// sc-lint: allow(serve-hot-path)\n"
            "  return enqueue(p);\n"
            "}\n"),
        "file-io-outside-serve-hot-path": (
            "src/x.cpp",
            "void save(const std::string& p) {\n"
            "  std::ofstream os(p);\n"
            "  os << 1;\n"
            "  os.flush();\n"
            '  SC_CHECK(os.good(), "write failed");\n'
            "}\n"),
        "serve-hot-path-body-ends": (
            "src/x.cpp",
            "// sc-lint: serve-hot-path\n"
            "bool submit(Req r) {\n"
            "  return enqueue(std::move(r));\n"
            "}\n"
            "void cold() {\n"
            "  auto p = std::make_shared<Pending>();\n"
            "}\n"),
        "hot-path-body-ends": (
            "src/x.cpp",
            "// sc-lint: hot-path\n"
            "void f(Scratch& s) {\n"
            "  s.buf.clear();\n"
            "}\n"
            "void g() {\n"
            "  std::vector<int> fine(4);\n"
            "}\n"),
        "streaming-path-csr-ok": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const std::string& p) {\n"
            "  const graph::CsrGraph g = graph::read_csr(p);\n"
            "  const auto load = graph::compute_csr_load(g);\n"
            "}\n"),
        "streaming-path-reference-ok": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void inspect(const graph::StreamGraph& g) {\n"
            "  use(g.num_nodes());\n"
            "}\n"),
        "streaming-path-body-ends": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const std::string& p) {\n"
            "  const graph::CsrGraph g = graph::read_csr(p);\n"
            "}\n"
            "void cold(const std::string& p) {\n"
            "  const auto graphs = graph::load_graphs(p);\n"
            "}\n"),
        "streaming-path-suppressed": (
            "src/x.cpp",
            "// sc-lint: streaming-path\n"
            "void ingest(const std::string& p) {\n"
            "  const auto graphs = graph::load_graphs(p);  "
            "// sc-lint: allow(streaming-path)\n"
            "}\n"),
        "full-graph-outside-streaming-path": (
            "src/x.cpp",
            "void load(const std::string& p) {\n"
            "  const auto graphs = graph::load_graphs(p);\n"
            "}\n"),
    }
    failures = []
    for name, (rel, text) in cases.items():
        linter = Linter()
        path = Path("/tmp") / "sc_lint_self_test.tmp"
        path.write_text(text)
        linter.lint_file(path, rel)
        if not linter.violations:
            failures.append(f"expected a violation for seeded case '{name}'")
    for name, (rel, text) in clean.items():
        linter = Linter()
        path = Path("/tmp") / "sc_lint_self_test.tmp"
        path.write_text(text)
        linter.lint_file(path, rel)
        if linter.violations:
            failures.append(f"false positive for clean case '{name}': {linter.violations}")
    for f in failures:
        print(f"sc_lint --self-test: {f}")
    print("sc_lint --self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="repository root to scan")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the linter flags seeded violations, then exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"sc_lint: '{root}' does not look like the repo root (no src/)")
        return 2
    return run(root)


if __name__ == "__main__":
    sys.exit(main())
