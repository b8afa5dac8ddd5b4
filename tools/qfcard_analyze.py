#!/usr/bin/env python3
"""qfcard whole-project architecture analyzer (docs/static_analysis.md).

Where tools/qfcard_lint.py checks single-file source patterns, this tool
checks the cross-file contracts the serving stack depends on: the layer DAG,
the lock-acquisition order, the no-exceptions error policy, and the
telemetry catalog. Four passes over src/:

layer            The `#include` graph over src/ must be acyclic and respect
                 the layer order declared in tools/layers.json (common ->
                 obs -> pool -> storage -> query -> featurize -> ml ->
                 optimizer -> estimators -> workload -> eval -> serve ->
                 adapt -> testing -> api). A layer's `files` entries win
                 over another layer's `dirs`, so common/thread_pool.* sit in
                 pool while the rest of common/ stays at the bottom. Rules:
                 `layer` (upward edge / unmapped file) and `include-cycle`.
guarded-by       Every class that owns a common::Mutex must annotate its
                 mutable data members with QFCARD_GUARDED_BY /
                 QFCARD_PT_GUARDED_BY (atomics, consts, mutexes, and
                 condvars are exempt). In any class, a `mutable` data
                 member — written through const methods, which the repo
                 calls concurrently — must likewise be atomic, a
                 Mutex/CondVar, or annotated. Catches members added after
                 the Clang thread-safety retrofit that silently escape the
                 analysis.
lock-order       Nested MutexLock scopes and QFCARD_REQUIRES annotations are
                 extracted into a static lock-acquisition graph ("A held
                 while B acquired" edges, plus depth-1 edges through calls
                 to functions known to acquire). The graph must be acyclic —
                 a cycle is a potential deadlock (e.g. router lock vs. a
                 route's swap mutex) that TSan only sees if a schedule
                 happens to hit it. Rule: `lock-order`.
error-policy     Library code must not throw, abort, or exit — fallible
                 operations return common::Status (common/status.cc's
                 CheckOk is the one sanctioned abort path, allowlisted in
                 layers.json). common::Status/StatusOr must stay
                 [[nodiscard]], and a statement that calls a
                 Status-returning function and drops the result is flagged
                 (rule `discarded-status`) even where no compiler runs.
telemetry        Every metric / trace-span name registered in src/
                 (CounterNamed, GaugeNamed, HistogramNamed,
                 IncrementCounter, ObserveLatency, ScopedTimer, TraceSpan)
                 must appear in the catalog section of
                 tools/metrics_schema.json, every catalog entry must have a
                 registration site, and every series the schema requires
                 must be in the catalog — so code and CI profiles cannot
                 drift apart. Rule: `telemetry`.

Suppressions use the same contract as tools/qfcard_lint.py — on the
offending line or the contiguous //-comment block directly above:

    // qfcard-lint: ok(<rule>): <why this is safe>

A suppression without a reason is itself an error. On a `lock-order`
suppression the edges extracted from that line are dropped (recorded in the
JSON report as suppressed) instead of silencing the whole-graph cycle check.

Usage:
    qfcard_analyze.py [--root DIR] [--json PATH] [--check-schema]

--check-schema runs only the telemetry pass (wired into the CI telemetry
schema-check steps so a dead metrics_schema.json entry fails the build);
--json writes the full findings + include-graph + lock-graph report
artifact. Exit status: 0 clean, 1 with one "file:line: [rule] message" per
finding otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Optional

SUPPRESS_RE = re.compile(r"//\s*qfcard-lint:\s*ok\((?P<rule>[\w-]+)\)(?P<reason>.*)")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"')

CONTROL_KEYWORDS = {
    "if", "else", "for", "while", "switch", "do", "catch", "return",
    "sizeof", "alignof", "decltype", "new", "delete", "throw", "case",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "static_assert", "defined", "noexcept", "alignas", "operator",
}


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------

def scrub(text: str) -> tuple[str, str]:
    """Returns (no_comments, no_comments_no_strings): the source with comment
    bodies — and, in the second form, string/char literal bodies — replaced
    by spaces. Offsets and newlines are preserved, so line numbers computed
    on the scrubbed text match the original."""
    nc = list(text)       # comments blanked
    ncs = list(text)      # comments + string/char contents blanked
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and text[j] != "\n":
                nc[j] = ncs[j] = " "
                j += 1
            i = j
        elif c == "/" and nxt == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    nc[j] = ncs[j] = " "
                j += 1
            if j < n - 1:
                nc[j] = ncs[j] = " "
                nc[j + 1] = ncs[j + 1] = " "
                j += 2
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    if text[j] != "\n":
                        ncs[j] = " "
                    j += 1
                if j < n and text[j] != "\n":
                    ncs[j] = " "
                j += 1
            i = j + 1
        else:
            i += 1
    return "".join(nc), "".join(ncs)


class Source:
    """One src/ file with raw and scrubbed views."""

    def __init__(self, path: pathlib.Path, rel: str) -> None:
        self.path = path
        self.rel = rel  # relative to src/, e.g. "common/mutex.h"
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.code, self.code_nostr = scrub(self.text)
        self.code_lines = self.code.splitlines()
        self.nostr_lines = self.code_nostr.splitlines()
        # line offsets for offset -> line translation
        self._starts = [0]
        for line in self.text.splitlines(keepends=True):
            self._starts.append(self._starts[-1] + len(line))

    def line_of(self, offset: int) -> int:
        """1-based line number containing byte offset."""
        lo, hi = 0, len(self._starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def suppressions(self, idx: int) -> dict[str, str]:
        """Suppression rules active for 0-based line `idx` (same contract as
        tools/qfcard_lint.py): the line itself or the contiguous //-comment
        block directly above."""
        out: dict[str, str] = {}

        def collect(probe: int) -> None:
            if 0 <= probe < len(self.lines):
                m = SUPPRESS_RE.search(self.lines[probe])
                if m:
                    out[m.group("rule")] = m.group("reason").strip(" :")

        collect(idx)
        probe = idx - 1
        while probe >= 0 and self.lines[probe].lstrip().startswith("//"):
            collect(probe)
            probe -= 1
        return out


class Analyzer:
    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.src = root / "src"
        self.layers_path = root / "tools" / "layers.json"
        self.schema_path = root / "tools" / "metrics_schema.json"
        self.config = json.loads(self.layers_path.read_text("utf-8"))
        self.findings: list[tuple[str, int, str, str]] = []
        self.sources: list[Source] = []
        for p in sorted(self.src.rglob("*.h")) + sorted(self.src.rglob("*.cc")):
            self.sources.append(Source(p, p.relative_to(self.src).as_posix()))
        self.by_rel = {s.rel: s for s in self.sources}
        self.entry_points = set(self.config.get("entry_points", []))
        # JSON report artifacts filled by the passes.
        self.report_extra: dict = {}

    # -- shared finding plumbing --------------------------------------------

    def report(self, src: Source, idx: int, rule: str, msg: str) -> bool:
        """Records a finding at 0-based line `idx` unless suppressed with a
        reason. Returns True when the finding was suppressed."""
        sup = src.suppressions(idx)
        if rule in sup:
            if not sup[rule]:
                self.findings.append(
                    (src.rel, idx + 1, rule,
                     "suppression has no reason; write "
                     f"'// qfcard-lint: ok({rule}): <why>'"))
            return True
        self.findings.append((src.rel, idx + 1, rule, msg))
        return False

    def suppressed(self, src: Source, idx: int, rule: str) -> bool:
        """True when `rule` is suppressed (with a reason) at 0-based `idx`;
        a reason-less suppression is reported and does not suppress."""
        sup = src.suppressions(idx)
        if rule not in sup:
            return False
        if not sup[rule]:
            self.findings.append(
                (src.rel, idx + 1, rule,
                 "suppression has no reason; write "
                 f"'// qfcard-lint: ok({rule}): <why>'"))
            return False
        return True

    # -- pass 1: layering ---------------------------------------------------

    def layer_index(self, rel: str) -> Optional[int]:
        # A 'files' entry wins over a 'dirs' match, so one file can sit in a
        # higher layer than its directory (common/thread_pool.* above obs).
        layers = self.config["layers"]
        for i, layer in enumerate(layers):
            if rel in layer.get("files", []):
                return i
        top = rel.split("/", 1)[0]
        for i, layer in enumerate(layers):
            if "/" in rel and top in layer.get("dirs", []):
                return i
        return None

    def layer_name(self, index: int) -> str:
        return self.config["layers"][index]["name"]

    def pass_layering(self) -> None:
        graph: dict[str, list[str]] = {s.rel: [] for s in self.sources}
        edge_count = 0
        for src in self.sources:
            my_layer = self.layer_index(src.rel)
            if my_layer is None:
                self.report(src, 0, "layer",
                            f"file '{src.rel}' is not mapped to any layer in "
                            "tools/layers.json; add its directory to a layer")
                continue
            for idx, line in enumerate(src.code_lines):
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                target = m.group("path")
                if target not in self.by_rel:
                    continue  # system or non-src header
                graph[src.rel].append(target)
                edge_count += 1
                if src.rel in self.entry_points:
                    continue  # program mains compose layers by design
                target_layer = self.layer_index(target)
                if target_layer is None:
                    continue  # reported once at the target file itself
                if target_layer > my_layer:
                    self.report(
                        src, idx, "layer",
                        f"upward include: '{src.rel}' "
                        f"(layer {self.layer_name(my_layer)}) includes "
                        f"'{target}' (layer {self.layer_name(target_layer)}); "
                        "the layer order in tools/layers.json only allows "
                        "includes of the same or lower layers")

        # Cycle detection over the file-level include graph.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {rel: WHITE for rel in graph}
        cycles: list[list[str]] = []

        def dfs(start: str) -> None:
            stack: list[tuple[str, int]] = [(start, 0)]
            path: list[str] = []
            while stack:
                node, child = stack.pop()
                if child == 0:
                    color[node] = GRAY
                    path.append(node)
                edges = graph[node]
                advanced = False
                for k in range(child, len(edges)):
                    nxt = edges[k]
                    if color[nxt] == GRAY:
                        cyc = path[path.index(nxt):] + [nxt]
                        cycles.append(cyc)
                    elif color[nxt] == WHITE:
                        stack.append((node, k + 1))
                        stack.append((nxt, 0))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    path.pop()

        for rel in sorted(graph):
            if color[rel] == WHITE:
                dfs(rel)
        for cyc in cycles:
            src = self.by_rel[cyc[0]]
            self.report(src, 0, "include-cycle",
                        "include cycle: " + " -> ".join(cyc))
        self.report_extra["include_graph"] = {
            "files": len(graph),
            "edges": edge_count,
            "cycles": [" -> ".join(c) for c in cycles],
            "layers": [l["name"] for l in self.config["layers"]],
        }

    # -- pass 2: mutex coverage + lock order --------------------------------

    CLASS_HEAD_RE = re.compile(
        r"\b(class|struct)\s+(?:QFCARD_\w+\s*(?:\([^()]*\))?\s+)*"
        r"(?:alignas\s*\([^()]*\)\s+)*(?P<name>\w+)")
    MUTEX_MEMBER_RE = re.compile(
        r"\b(?:common::)?Mutex\s+(?P<name>\w+)\s*[;={]")
    ACQUIRE_RE = re.compile(
        r"\b(?:common::)?MutexLock\s+\w+\s*\(\s*&\s*(?P<mu>[\w.>-]+)\s*\)")
    REQUIRES_RE = re.compile(r"QFCARD_REQUIRES\s*\(\s*(?P<mus>[^()]*)\)")
    FUNC_NAME_RE = re.compile(r"(?P<name>[A-Za-z_~]\w*(?:::[A-Za-z_~]\w*)*)\s*\($")
    CALL_RE = re.compile(
        r"(?<![:.\w>])(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(")
    MEMBER_CALL_RE = re.compile(
        r"(?:\.|->)(?P<name>[A-Za-z_]\w*)\s*\(")

    def _walk_contexts(self, src: Source):
        """Yields (event, data) over the brace structure of `src` using the
        string-blanked scrubbed text. Events:
          ('open', kind, name, depth, offset)   entering a {...} block
          ('close', kind, name, depth, offset)  leaving it
          ('stmt', text, depth, offset)         a ';'-terminated statement,
                                                with enclosing context stack
        kind is 'class' | 'func' | 'other'; the context stack is available to
        the caller via the generator's shared list (returned separately)."""
        text = src.code_nostr
        depth = 0
        stack: list[tuple[str, str, int]] = []  # (kind, name, open depth)
        stmt_start = 0
        last_boundary = 0  # start of the current "header" text
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c == "{":
                header = text[last_boundary:i]
                kind, name = self._classify_header(header)
                stack.append((kind, name, depth))
                yield ("open", kind, name, depth, i, stack, header)
                depth += 1
                last_boundary = i + 1
                stmt_start = i + 1
            elif c == "}":
                depth -= 1
                if stack and stack[-1][2] == depth:
                    kind, name, _ = stack.pop()
                    yield ("close", kind, name, depth, i, stack, "")
                last_boundary = i + 1
                stmt_start = i + 1
            elif c == ";":
                stmt = text[stmt_start:i + 1]
                yield ("stmt", stmt, "", depth, stmt_start, stack, "")
                stmt_start = i + 1
                last_boundary = i + 1
            i += 1

    def _classify_header(self, header: str) -> tuple[str, str]:
        h = header.strip()
        first = re.match(r"[A-Za-z_]\w*", h)
        if first and first.group(0) in (
                "if", "else", "for", "while", "switch", "do", "try",
                "catch", "return", "case", "default"):
            return ("other", "")
        m = self.CLASS_HEAD_RE.search(h)
        if m and "enum" not in h.split():
            # "class X : public Y" headers; forward declarations end in ';'
            # and never reach header classification.
            return ("class", m.group("name"))
        if h.startswith("namespace") or h.startswith("extern"):
            return ("other", "")
        # Function definition: first "name(" whose name is not a control
        # keyword, a macro, or a member call (lambda bodies passed as call
        # arguments classify as 'other' so their acquisitions attribute to
        # the enclosing named function).
        for fm in re.finditer(r"([A-Za-z_~][\w:~]*)\s*\(", h):
            if fm.start() > 0 and h[fm.start() - 1] in ".>":
                continue
            name = fm.group(1)
            simple = name.rsplit("::", 1)[-1].lstrip("~")
            if simple in CONTROL_KEYWORDS or simple.isupper() or not simple:
                continue
            return ("func", name)
        return ("other", "")

    def _enclosing_class(self, stack) -> str:
        for kind, name, _ in reversed(stack):
            if kind == "class":
                return name
        return ""

    def _enclosing_func(self, stack) -> str:
        for kind, name, _ in reversed(stack):
            if kind == "func":
                return name
        return ""

    MANUAL_LOCK_RE = re.compile(
        r"(?P<mu>[A-Za-z_]\w*(?:(?:\.|->)\w+)*)\s*(?:\.|->)\s*"
        r"(?P<op>Lock|lock|Unlock|unlock)\s*\(\s*\)")

    def pass_mutexes(self) -> None:
        # ---- single sweep: per-class member inventory, per-function lock
        # acquisition map, acquisition sites, and call sites with the locks
        # lexically held at each ------------------------------------------
        class_members: dict[str, list] = {}
        class_mutexes: dict[str, list[str]] = {}
        fn_acquires: dict[str, dict] = {}  # key -> {"mutexes": set}

        def mutex_id(name: str, cls: str, src: Source) -> str:
            name = name.replace("this->", "")
            simple = name.rsplit("->", 1)[-1].rsplit(".", 1)[-1]
            if cls and re.fullmatch(r"\w+_", simple):
                return f"{cls}::{simple}"
            return f"{src.rel.rsplit('/', 1)[-1]}::{simple}"

        def func_key(name: str, stack, src: Source) -> str:
            if "::" in name:
                return name
            cls = self._enclosing_class(stack)
            if cls:
                return f"{cls}::{name}"
            return f"{src.rel}::{name}"

        acquisitions: list[dict] = []  # MutexLock / .Lock() sites + context
        call_sites: list[dict] = []    # statements executed with locks held
        edges: dict[tuple[str, str], dict] = {}
        suppressed_edges: list[dict] = []

        for src in self.sources:
            held: list[tuple[int, str]] = []  # (scope depth, mutex id)
            fn_stack_keys: list[str] = []
            for ev in self._walk_contexts(src):
                event, a, b, depth, offset, stack = ev[0], ev[1], ev[2], ev[3], ev[4], ev[5]
                if event == "open" and a == "class":
                    class_members.setdefault(b, [])
                    class_mutexes.setdefault(b, [])
                elif event == "open" and a == "func":
                    header = ev[6]
                    key = func_key(b, stack[:-1], src)
                    fn_stack_keys.append(key)
                    fn_acquires.setdefault(key, {"mutexes": set()})
                    # QFCARD_REQUIRES(mu) in the signature: held at entry,
                    # but not an acquisition (the caller already holds it).
                    cls = b.rsplit("::", 1)[0] if "::" in b else \
                        self._enclosing_class(stack[:-1])
                    for m in self.REQUIRES_RE.finditer(header):
                        for mu in m.group("mus").split(","):
                            mu = mu.strip().lstrip("&!")
                            if mu and re.fullmatch(r"[\w.>-]+", mu):
                                held.append((depth + 1,
                                             mutex_id(mu, cls, src)))
                elif event == "close":
                    if a == "func" and fn_stack_keys:
                        fn_stack_keys.pop()
                    # Drop locks whose scope just ended (acquired at depth+1
                    # inside the block that closed back to `depth`).
                    held = [(d, mu) for d, mu in held if d <= depth]
                elif event == "stmt":
                    stmt = a
                    idx = src.line_of(offset + max(
                        len(stmt) - len(stmt.lstrip()), 0)) - 1
                    in_class = stack and stack[-1][0] == "class"
                    if in_class:
                        class_members[stack[-1][1]].append(
                            (src, idx, stmt, offset))
                        mm = self.MUTEX_MEMBER_RE.search(stmt)
                        if mm:
                            class_mutexes[stack[-1][1]].append(
                                mm.group("name"))
                        continue
                    fn_key = fn_stack_keys[-1] if fn_stack_keys else ""
                    cls = fn_key.rsplit("::", 1)[0] if "::" in fn_key else ""
                    acq = self.ACQUIRE_RE.search(stmt)
                    if acq and fn_key:
                        aidx = src.line_of(offset + acq.start()) - 1
                        mu = mutex_id(acq.group("mu"), cls, src)
                        fn_acquires[fn_key]["mutexes"].add(mu)
                        acquisitions.append(
                            {"src": src, "idx": aidx, "mu": mu,
                             "held": [h for _, h in held if h != mu]})
                        held.append((depth, mu))
                        continue
                    man = self.MANUAL_LOCK_RE.search(stmt)
                    if man and fn_key:
                        mu = mutex_id(man.group("mu"), cls, src)
                        if man.group("op") in ("Lock", "lock"):
                            fn_acquires[fn_key]["mutexes"].add(mu)
                            aidx = src.line_of(offset + man.start()) - 1
                            acquisitions.append(
                                {"src": src, "idx": aidx, "mu": mu,
                                 "held": [h for _, h in held if h != mu]})
                            held.append((depth, mu))
                        else:  # Unlock: release the most recent hold
                            for k in range(len(held) - 1, -1, -1):
                                if held[k][1] == mu:
                                    del held[k]
                                    break
                        continue
                    if held and fn_key:
                        call_sites.append(
                            {"src": src, "idx": idx, "stmt": stmt,
                             "fn": fn_key,
                             "held": [h for _, h in held]})
        self._class_mutexes = class_mutexes

        # ---- guarded-by coverage -----------------------------------------
        for cls, mutexes in sorted(class_mutexes.items()):
            for src, idx, stmt, offset in class_members[cls]:
                if mutexes or self.MUTABLE_RE.search(stmt):
                    self._check_member(src, idx, stmt, offset, cls, mutexes)

        # ---- lock-order edges --------------------------------------------
        # Direct (lexical nesting / REQUIRES) edges.
        for site in acquisitions:
            for h in site["held"]:
                self._add_edge(edges, suppressed_edges, h, site["mu"],
                               site["src"], site["idx"], "nested MutexLock")
        # Depth-1 interprocedural edges: calls made while a lock is held to
        # functions known to acquire. Simple (unqualified) callee names are
        # resolved only when exactly one acquiring function bears the name.
        simple_map: dict[str, list[str]] = {}
        for key, info in fn_acquires.items():
            if info["mutexes"]:
                simple_map.setdefault(key.rsplit("::", 1)[-1], []).append(key)
        for site in call_sites:
            callees: set[str] = set()
            for m in self.CALL_RE.finditer(site["stmt"]):
                name = m.group("name")
                if "::" in name:
                    if name in fn_acquires and fn_acquires[name]["mutexes"]:
                        callees.add(name)
                    continue
                if name in CONTROL_KEYWORDS or name.isupper():
                    continue
                targets = simple_map.get(name, [])
                if len(targets) == 1:
                    callees.add(targets[0])
            for m in self.MEMBER_CALL_RE.finditer(site["stmt"]):
                targets = simple_map.get(m.group("name"), [])
                if len(targets) == 1:
                    callees.add(targets[0])
            for callee in sorted(callees):
                if callee == site["fn"]:
                    continue
                for mu in sorted(fn_acquires[callee]["mutexes"]):
                    for h in site["held"]:
                        if h != mu:
                            self._add_edge(edges, suppressed_edges, h, mu,
                                           site["src"], site["idx"],
                                           f"call to {callee}")

        # ---- cycle check --------------------------------------------------
        adj: dict[str, set[str]] = {}
        for (a, b) in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set())
        cycle = self._find_cycle(adj)
        if cycle:
            origin = edges[(cycle[0], cycle[1])]
            self.report(origin["src"], origin["idx"], "lock-order",
                        "lock-acquisition cycle: " + " -> ".join(cycle) +
                        " (potential deadlock; fix the acquisition order or "
                        "restructure so one lock is released first)")
        self.report_extra["lock_graph"] = {
            "nodes": sorted(adj),
            "edges": [
                {"from": a, "to": b, "via": i["via"],
                 "site": f"{i['src'].rel}:{i['idx'] + 1}"}
                for (a, b), i in sorted(edges.items())],
            "suppressed_edges": suppressed_edges,
            "cycle": cycle or [],
        }

    def _add_edge(self, edges, suppressed_edges, frm: str, to: str,
                  src: Source, idx: int, via: str) -> None:
        if frm == to:
            return
        if self.suppressed(src, idx, "lock-order"):
            suppressed_edges.append(
                {"from": frm, "to": to, "via": via,
                 "site": f"{src.rel}:{idx + 1}"})
            return
        edges.setdefault((frm, to), {"src": src, "idx": idx, "via": via})

    MUTABLE_RE = re.compile(r"\bmutable\b")
    MEMBER_NAME_RE = re.compile(r"([A-Za-z]\w*_)\s*(\[[^\]]*\])?\s*$")
    MEMBER_EXEMPT_RE = re.compile(
        r"\bconst\b|\bstd::atomic\b|\b(?:common::)?Mutex\b"
        r"|\b(?:common::)?CondVar\b|\bstatic\s+constexpr\b|\busing\b"
        r"|\btypedef\b|\bfriend\b")

    def _check_member(self, src: Source, idx: int, stmt: str, offset: int,
                      cls: str, mutexes: list[str]) -> None:
        if "QFCARD_GUARDED_BY" in stmt or "QFCARD_PT_GUARDED_BY" in stmt:
            return
        if self.MEMBER_EXEMPT_RE.search(stmt):
            return
        bare = re.sub(r"QFCARD_\w+\s*\([^()]*\)", "", stmt).rstrip("; \t\n")
        bare = re.sub(r"=[^=]*$", "", bare)
        bare = re.sub(r"\{[^{}]*\}\s*$", "", bare).rstrip()
        m = self.MEMBER_NAME_RE.search(bare)
        if not m:
            return  # not a data member (method decl, nested type, ...)
        # Anchor at the member name's own line: the statement slice can start
        # lines earlier (after an access specifier, which has no terminator),
        # and the suppression contract is same-line-or-block-above the name.
        pos = stmt.find(m.group(1))
        if pos >= 0:
            idx = src.line_of(offset + pos) - 1
        why = (f"owns mutex(es) {', '.join(sorted(set(mutexes)))} but "
               f"member '{m.group(1)}'" if mutexes else
               f"member '{m.group(1)}' is mutable (written by const methods, "
               "which run concurrently) but")
        self.report(
            src, idx, "guarded-by",
            f"class '{cls}' {why} has no QFCARD_GUARDED_BY / "
            "QFCARD_PT_GUARDED_BY annotation; declare its guard, make it "
            "atomic/const, or suppress with the reason it needs no lock")

    def _find_cycle(self, adj: dict[str, set[str]]) -> list[str]:
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in adj}
        for start in sorted(adj):
            if color[start] != WHITE:
                continue
            stack = [(start, iter(sorted(adj[start])))]
            path = [start]
            color[start] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GRAY:
                        return path[path.index(nxt):] + [nxt]
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(sorted(adj[nxt]))))
                        path.append(nxt)
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
                    path.pop()
        return []

    # -- pass 3: error policy -----------------------------------------------

    THROW_RE = re.compile(r"\bthrow\b")
    ABORT_RE = re.compile(
        r"(?<![:\w])(?:std::)?(?:abort|exit|_Exit|quick_exit|terminate)"
        r"\s*\(")

    def pass_error_policy(self) -> None:
        allow = set(self.config.get("error_policy", {}).get("allow", []))
        for src in self.sources:
            if src.rel in allow or src.rel in self.entry_points:
                continue
            for idx, line in enumerate(src.nostr_lines):
                if self.THROW_RE.search(line):
                    self.report(
                        src, idx, "error-policy",
                        "throw in library code; qfcard does not use "
                        "exceptions — return common::Status/StatusOr "
                        "(docs/static_analysis.md)")
                if self.ABORT_RE.search(line):
                    self.report(
                        src, idx, "error-policy",
                        "abort/exit in library code outside the allowlist "
                        "(tools/layers.json error_policy.allow); return "
                        "common::Status, or QFCARD_CHECK_OK for proven "
                        "invariants")

        status_h = self.by_rel.get("common/status.h")
        if status_h is not None:
            nodiscard_classes = re.findall(
                r"class\s+\[\[nodiscard\]\]\s+(\w+)", status_h.text)
            for cls in ("Status", "StatusOr"):
                if cls not in nodiscard_classes:
                    self.report(
                        status_h, 0, "error-policy",
                        f"common::{cls} is not declared "
                        f"'class [[nodiscard]] {cls}'; the compiler can no "
                        "longer flag ignored statuses")

        self._pass_discarded_status()

    DECL_RE = re.compile(
        r"(?P<ret>[A-Za-z_][\w:<>,\s*&]*?)\s+"
        r"(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(")
    BARE_CALL_RE = re.compile(
        r"^(?:[A-Za-z_]\w*(?:\.|->|::))*"
        r"(?P<name>[A-Za-z_]\w*)\s*\(.*\)\s*;$")

    def _pass_discarded_status(self) -> None:
        status_only: set[str] = set()
        non_status: set[str] = set()
        for src in self.sources:
            for m in self.DECL_RE.finditer(src.code_nostr):
                ret = " ".join(m.group("ret").split())
                name = m.group("name").rsplit("::", 1)[-1]
                if name in CONTROL_KEYWORDS or not name[0].isupper():
                    continue
                if re.search(r"\bStatus(Or\b|\b)", ret):
                    status_only.add(name)
                else:
                    non_status.add(name)
        flaggable = status_only - non_status
        for src in self.sources:
            if src.rel in self.entry_points:
                continue
            for ev in self._walk_contexts(src):
                if ev[0] != "stmt":
                    continue
                stmt, offset = ev[1], ev[4]
                flat = " ".join(stmt.split())
                m = self.BARE_CALL_RE.match(flat)
                if not m or m.group("name") not in flaggable:
                    continue
                idx = src.line_of(offset + max(
                    len(stmt) - len(stmt.lstrip()), 0)) - 1
                self.report(
                    src, idx, "discarded-status",
                    f"result of Status-returning '{m.group('name')}' is "
                    "discarded; check it, QFCARD_RETURN_IF_ERROR / "
                    "QFCARD_CHECK_OK it, or cast to (void) with a reason")

    # -- pass 4: telemetry contract -----------------------------------------

    METRIC_PATTERNS = [
        ("counters", re.compile(r"\bIncrementCounter\s*\(\s*\"([^\"]+)\"")),
        ("counters", re.compile(r"\bCounterNamed\s*\(\s*\"([^\"]+)\"")),
        ("gauges", re.compile(r"\bGaugeNamed\s*\(\s*\"([^\"]+)\"")),
        ("histograms", re.compile(r"\bHistogramNamed\s*\(\s*\"([^\"]+)\"")),
        ("histograms", re.compile(r"\bObserveLatency\s*\(\s*\"([^\"]+)\"")),
        ("histograms",
         re.compile(r"\bScopedTimer\s+\w+\s*[({]\s*\"([^\"]+)\"")),
        ("spans", re.compile(r"\bTraceSpan\s+\w+\s*[({]\s*\"([^\"]+)\"")),
        ("spans", re.compile(r"\bTraceSpan\s*\(\s*\"([^\"]+)\"")),
        ("spans", re.compile(r"\bRecordSpan\s*\(\s*\"([^\"]+)\"")),
        ("spans", re.compile(r"\bRecordTraceRoot\s*\(\s*\"([^\"]+)\"")),
    ]
    DYNAMIC_PATTERNS = [
        re.compile(r"\b(IncrementCounter|CounterNamed|GaugeNamed"
                   r"|HistogramNamed|ObserveLatency)\s*\((?!\s*[\")])"),
        re.compile(r"\b(ScopedTimer|TraceSpan)\s+\w+\s*\((?!\s*[\")&])"),
        re.compile(r"\b(RecordSpan|RecordTraceRoot)\s*\((?!\s*\")"),
    ]

    def pass_telemetry(self) -> None:
        schema = json.loads(self.schema_path.read_text("utf-8"))
        catalog = schema.get("catalog", {})
        registered: dict[str, dict[str, list[str]]] = {
            "counters": {}, "gauges": {}, "histograms": {}, "spans": {}}
        impl = set(self.config.get("telemetry", {}).get("impl", []))
        for src in self.sources:
            if src.rel in impl:
                continue
            for kind, rx in self.METRIC_PATTERNS:
                for m in rx.finditer(src.code):
                    name = m.group(1)
                    idx = src.line_of(m.start()) - 1
                    registered[kind].setdefault(name, []).append(
                        f"{src.rel}:{idx + 1}")
                    if name not in catalog.get(kind, []):
                        self.report(
                            src, idx, "telemetry",
                            f"{kind[:-1]} '{name}' is registered here but "
                            "missing from the catalog in "
                            "tools/metrics_schema.json; add it so CI "
                            "profiles and dashboards can see it")
            for rx in self.DYNAMIC_PATTERNS:
                for m in rx.finditer(src.code):
                    idx = src.line_of(m.start()) - 1
                    self.report(
                        src, idx, "telemetry",
                        "metric/span name is not a string literal; the "
                        "catalog cross-check cannot see dynamic names — use "
                        "a literal name (labels may stay dynamic) or "
                        "suppress with the reason")
        # Reverse direction: every catalog entry needs a registration site.
        for kind in ("counters", "gauges", "histograms", "spans"):
            for name in catalog.get(kind, []):
                if name not in registered[kind]:
                    self.findings.append(
                        ("tools/metrics_schema.json", 1, "telemetry",
                         f"catalog {kind[:-1]} '{name}' has no registration "
                         "site in src/; delete the dead entry or restore "
                         "the instrumentation"))
        # Consistency: everything the schema *requires* must be catalogued.
        def required_names(section: dict) -> dict[str, set[str]]:
            out = {"counters": set(), "gauges": set(), "histograms": set()}
            out["counters"] |= set(
                section.get("counters", {}).get("required", []))
            out["counters"] |= set(
                section.get("counters", {}).get("nonzero", []))
            out["gauges"] |= set(section.get("gauges", {}).get("required", []))
            for spec in section.get("histograms", {}).get("required", []):
                out["histograms"].add(spec["name"])
            return out

        sections = [schema] + [
            v for k, v in schema.get("profiles", {}).items()
            if k != "_comment"]
        for section in sections:
            for kind, names in required_names(section).items():
                for name in sorted(names):
                    if name not in catalog.get(kind, []):
                        self.findings.append(
                            ("tools/metrics_schema.json", 1, "telemetry",
                             f"required {kind[:-1]} '{name}' is missing from "
                             "the catalog section; required series must be "
                             "catalogued"))
        self.report_extra["telemetry"] = {
            kind: sorted(registered[kind]) for kind in registered}

    # -- driver --------------------------------------------------------------

    def run(self, check_schema_only: bool) -> int:
        if check_schema_only:
            self.pass_telemetry()
        else:
            self.pass_layering()
            self.pass_mutexes()
            self.pass_error_policy()
            self.pass_telemetry()
        self.findings.sort()
        return 1 if self.findings else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the findings + graph report artifact")
    parser.add_argument("--check-schema", action="store_true",
                        help="run only the telemetry catalog cross-check "
                             "(for the CI telemetry schema-check steps)")
    args = parser.parse_args(argv)

    root = (pathlib.Path(args.root) if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    analyzer = Analyzer(root)
    status = analyzer.run(check_schema_only=args.check_schema)

    for rel, line, rule, msg in analyzer.findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if args.json:
        report = {
            "version": 1,
            "findings": [
                {"file": rel, "line": line, "rule": rule, "message": msg}
                for rel, line, rule, msg in analyzer.findings],
            **analyzer.report_extra,
        }
        pathlib.Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n", "utf-8")
    if status:
        print(f"qfcard_analyze: {len(analyzer.findings)} finding(s)",
              file=sys.stderr)
    else:
        print(f"qfcard_analyze: OK ({len(analyzer.sources)} files)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
