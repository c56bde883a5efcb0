"""reprolint — the repo-specific static linter.

Generic linters keep the Python honest; nothing keeps the *cost model*
honest.  The invariants this repo lives by — every physical block touch
goes through a charged :class:`~repro.models.external_memory.AEMachine`
primitive, kernel-path loops use the batch charge API, service-layer state
is written under its lock, every vectorized kernel has a pinned
slow-reference twin — are all statically checkable, so this module checks
them.  It is a small AST lint framework (rule registry, per-line
suppression, text/JSON reporters, a committed-baseline filter for CI) plus
the repo's rules, which live in :mod:`~repro.analysis.lint_rules`.

Usage::

    PYTHONPATH=src python -m repro lint src benchmarks
    PYTHONPATH=src python -m repro lint --format json src
    PYTHONPATH=src python -m repro lint --baseline tests/lint_baseline.json src

Suppression
-----------
Append ``# reprolint: disable=<rule>[,<rule>...]`` to a line to waive named
rules on that line, or ``# reprolint: disable`` to waive all of them.  A
suppression comment is a claim that the flagged code is *deliberate* —
pair it with a prose comment saying why.

Virtual paths
-------------
Most rules are scoped to parts of the tree (the lock rules to the service
layer, the charge rules to the kernel paths).  Scoping keys off the file's
repo-relative path; a file may override it with a first-lines pragma::

    # reprolint: path=src/repro/service/example.py

which exists so the planted-violation corpus under ``tests/lint_corpus/``
can opt into any rule's scope while living outside it.  A linted file
whose virtual path lies under ``src/repro/`` and whose text differs from
the real file there is an *overlay*: the run's one project-wide analysis
indexes it in place of the real module.

Exit codes: 0 — clean (after baseline filtering), 1 — findings, 2 — usage
or parse error.

Caching and parallelism
-----------------------
The CLI keeps an mtime-keyed findings cache (default
``<root>/.reprolint_cache.json``; ``--no-cache`` disables, ``--cache-file``
relocates) so the CI lint gate stays fast as the tree grows: a file is
re-analyzed only when its ``(mtime_ns, size)`` changes or the *environment
fingerprint* — the rule set plus every cross-file input the rules read
(the parity test, boundcheck.py, the core tree, the rules themselves, the
run's overlays) — changes.  ``--jobs N`` shards stale files across N
worker processes.  Library calls to :func:`lint_paths` default to no cache
and one process.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator

#: matches a suppression comment anywhere in a line
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable(?:=([\w\-, ]+))?")
#: matches the virtual-path pragma (first 5 lines of a file)
_PATH_PRAGMA_RE = re.compile(r"^#\s*reprolint:\s*path=(\S+)\s*$")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # virtual (repo-relative) path — what scoping and reports use
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Baseline identity: line numbers drift under unrelated edits, so
        the committed baseline matches on (rule, path, message) only."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class ModuleSource:
    """One parsed file: AST plus the side tables every rule needs."""

    def __init__(self, path: str, text: str, virtual_path: str | None = None):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self.virtual_path = virtual_path or _find_path_pragma(self.lines) or path
        # parent map: every rule wants "is this node inside a loop / a
        # with-lock / a function named X" — one upfront pass answers all
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self.suppressions = _collect_suppressions(self.lines)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        while node in self.parents:
            node = self.parents[node]
            yield node

    def segment(self, node: ast.AST) -> str:
        """Source text of ``node`` (empty string if unavailable)."""
        return ast.get_source_segment(self.text, node) or ""

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and ("*" in rules or rule in rules)


def _find_path_pragma(lines: list[str]) -> str | None:
    for raw in lines[:5]:
        m = _PATH_PRAGMA_RE.match(raw.strip())
        if m:
            return m.group(1)
    return None


def _collect_suppressions(lines: list[str]) -> dict[int, set[str]]:
    table: dict[int, set[str]] = {}
    for i, raw in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(raw)
        if not m:
            continue
        names = m.group(1)
        if names is None:
            table[i] = {"*"}
        else:
            table[i] = {n.strip() for n in names.split(",") if n.strip()}
    return table


class LintContext:
    """Cross-file state shared by one lint run: the repo root, cached reads,
    the project-wide results every module's rules filter, and the linted
    modules those results must see in place of the real tree."""

    def __init__(self, root: str = ".", overlays: dict[str, str] | None = None):
        self.root = os.path.abspath(root)
        #: virtual path → text of each linted module under ``src/repro/``
        #: that differs from the real file there (see :func:`project_overlays`)
        self.overlays = dict(overlays or {})
        self._file_cache: dict[str, str | None] = {}
        self._memo: dict[str, object] = {}

    def memo(self, key: str, compute: Callable[[], object]):
        """``compute()`` once per run under ``key``, then its cached value."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def read_file(self, relpath: str) -> str | None:
        """Text of a repo file by root-relative path, or None (cached)."""
        if relpath not in self._file_cache:
            full = os.path.join(self.root, relpath)
            try:
                with open(full, encoding="utf-8") as fh:
                    self._file_cache[relpath] = fh.read()
            except OSError:
                self._file_cache[relpath] = None
        return self._file_cache[relpath]


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    doc: str
    check: Callable[[ModuleSource, LintContext], Iterable[Finding]]


#: the global rule registry — populated by the @rule decorator
RULES: dict[str, Rule] = {}


def rule(name: str, doc: str):
    """Register a rule function ``(module, ctx) -> iterable of Finding``."""

    def decorate(fn):
        if name in RULES:
            raise ValueError(f"duplicate rule name {name!r}")
        RULES[name] = Rule(name, doc, fn)
        return fn

    return decorate


# --------------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------------- #
def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    full = os.path.join(dirpath, fn)
                    if full not in seen:
                        seen.add(full)
                        yield full


#: the package the project-wide (flow, charge-map) analyses index
PROJECT_PREFIX = "src/repro/"


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def project_overlays(files: Iterable[str], root: str = ".") -> dict[str, str]:
    """``virtual path → text`` of every file in ``files`` whose virtual path
    lies under ``src/repro/`` and whose text differs from the real file at
    that path (corpus fixtures, edited copies).  One lint run indexes the
    project once with all of them spliced in, and every worker of a
    sharded run splices the same set, so findings never depend on which
    files share a shard."""
    ctx = LintContext(root)
    overlays: dict[str, str] = {}
    for path in files:
        text = _read_text(path)
        rel = os.path.relpath(path, ctx.root).replace(os.sep, "/")
        vp = _find_path_pragma(text.splitlines()[:5]) or rel
        if vp.startswith(PROJECT_PREFIX) and ctx.read_file(vp) != text:
            overlays[vp] = text
    return overlays


def lint_file(
    path: str,
    ctx: LintContext,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    rel = os.path.relpath(path, ctx.root).replace(os.sep, "/")
    module = ModuleSource(rel, _read_text(path))
    findings: list[Finding] = []
    for r in rules if rules is not None else RULES.values():
        for f in r.check(module, ctx):
            if not module.suppressed(f.rule, f.line):
                findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(
    paths: Iterable[str],
    root: str = ".",
    rules: Iterable[str] | None = None,
    jobs: int = 1,
    cache_path: str | None = None,
    stats: dict | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` with all (or named) rules.

    The project-wide analyses run once per run (once per worker when
    sharded) over ``src/repro`` with the linted overlays spliced in (see
    :func:`project_overlays`); each module's rules report the findings at
    its own virtual path.  ``cache_path`` names an mtime-keyed findings
    cache: files whose ``(mtime_ns, size)`` signature matches the cache
    (under an unchanged environment fingerprint — see
    :func:`_env_fingerprint`) reuse their stored findings without
    re-parsing.  ``jobs > 1`` shards the stale files across worker
    processes.  ``stats``, if given, is populated with
    ``{"files", "cached", "linted", "jobs"}`` counters for reporting.
    """
    # importing the rules module populates RULES as a side effect
    from . import lint_rules  # noqa: F401

    if rules is None:
        selected = list(RULES.values())
    else:
        unknown = set(rules) - set(RULES)
        if unknown:
            raise KeyError(f"unknown rule(s): {sorted(unknown)}")
        selected = [RULES[name] for name in rules]
    rule_names = [r.name for r in selected]

    root = os.path.abspath(root)  # one cache fingerprint however spelled
    files = list(iter_python_files(paths))
    overlays = project_overlays(files, root)
    fingerprint = _env_fingerprint(root, rule_names, overlays)
    cached_findings: dict[str, list[Finding]] = {}
    signatures: dict[str, tuple[int, int] | None] = {
        os.path.abspath(p): _stat_signature(p) for p in files
    }
    if cache_path is not None:
        cache = _load_cache(cache_path, fingerprint)
        for path in files:
            key = os.path.abspath(path)
            entry = cache.get(key)
            sig = signatures[key]
            if entry is not None and sig is not None and entry.get(
                "signature"
            ) == list(sig):
                cached_findings[key] = [
                    Finding(**f) for f in entry.get("findings", [])
                ]

    stale = [p for p in files if os.path.abspath(p) not in cached_findings]
    fresh: dict[str, list[Finding]]
    if jobs > 1 and len(stale) > 1:
        fresh = _lint_parallel(stale, root, rule_names, jobs, overlays)
    else:
        ctx = LintContext(root, overlays)
        fresh = {
            os.path.abspath(p): lint_file(p, ctx, selected) for p in stale
        }

    if cache_path is not None:
        entries = {}
        for path in files:
            key = os.path.abspath(path)
            sig = signatures[key]
            if sig is None:
                continue
            found = cached_findings.get(key)
            if found is None:
                found = fresh[key]
            entries[key] = {
                "signature": list(sig),
                "findings": [f.to_dict() for f in found],
            }
        _save_cache(cache_path, fingerprint, entries)

    if stats is not None:
        stats["files"] = len(files)
        stats["cached"] = len(cached_findings)
        stats["linted"] = len(stale)
        stats["jobs"] = jobs

    findings: list[Finding] = []
    for path in files:
        key = os.path.abspath(path)
        findings.extend(cached_findings.get(key, fresh.get(key, [])))
    return findings


# --------------------------------------------------------------------------- #
# cache + parallelism
# --------------------------------------------------------------------------- #
#: bump when the cache entry format (not rule behavior) changes
CACHE_VERSION = 1


def _cache_dependencies(root: str) -> list[str]:
    """Cross-file inputs the rules read: a change to any of these can flip
    findings in *other* files, so they all feed the environment fingerprint
    (changing one invalidates the whole cache)."""
    deps = [
        os.path.join(root, "src", "repro", "analysis", "boundcheck.py"),
        os.path.join(root, "src", "repro", "analysis", "lint_rules.py"),
        os.path.join(root, "src", "repro", "analysis", "reprolint.py"),
        os.path.join(root, "src", "repro", "models", "external_memory.py"),
        os.path.join(root, "tests", "test_kernel_parity.py"),
    ]
    # the flow rules read the whole project (call graph + lock model), so
    # every module a summary can flow through is a cache input
    for sub in (
        ("src", "repro", "core"),
        ("src", "repro", "service"),
        ("src", "repro", "planner"),
        ("src", "repro", "analysis", "flow"),
    ):
        subdir = os.path.join(root, *sub)
        if os.path.isdir(subdir):
            deps.extend(
                os.path.join(subdir, fn)
                for fn in sorted(os.listdir(subdir))
                if fn.endswith(".py")
            )
    return deps


def _stat_signature(path: str) -> tuple[int, int] | None:
    """Cheap change detector for one file: ``(mtime_ns, size)`` or None."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


def _analysis_content_hash(root: str) -> str:
    """Content hash of every module in the analysis package.  The rules'
    *behavior* lives here; mtimes churn under checkouts and touch(1), so
    the fingerprint reads the bytes."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "repro", "analysis")
    for full in iter_python_files([pkg]):
        h.update(b"\0file:" + os.path.relpath(full, pkg).encode())
        try:
            with open(full, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<unreadable>")
    return h.hexdigest()


def _env_fingerprint(
    root: str, rule_names: Iterable[str], overlays: dict[str, str]
) -> str:
    """Hash of everything that can change findings besides the linted file
    itself: cache format, interpreter version (AST shapes and analysis
    results can differ across Pythons), active rule set, the analysis
    package's own content, the overlays spliced into the analyzed project,
    and cross-file dependency signatures."""
    h = hashlib.sha256()
    h.update(f"v{CACHE_VERSION}".encode())
    h.update(b"\0python:" + sys.version.encode())
    h.update(b"\0analysis:" + _analysis_content_hash(root).encode())
    for name in sorted(rule_names):
        h.update(b"\0rule:" + name.encode())
    for vp, text in sorted(overlays.items()):
        h.update(b"\0overlay:" + vp.encode())
        h.update(hashlib.sha256(text.encode()).digest())
    for dep in _cache_dependencies(root):
        h.update(b"\0dep:" + dep.encode())
        h.update(repr(_stat_signature(dep)).encode())
    return h.hexdigest()


def _load_cache(path: str, fingerprint: str) -> dict:
    """Per-file cache entries, or {} when absent/corrupt/stale-environment."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("fingerprint") != fingerprint:
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(path: str, fingerprint: str, entries: dict) -> None:
    """Best-effort atomic rewrite — a read-only checkout just skips caching."""
    payload = {"fingerprint": fingerprint, "files": entries}
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _lint_files_chunk(
    task: tuple[list[str], str, list[str], dict[str, str]]
) -> list[tuple]:
    """Worker-process entry: lint one chunk of files against the run's full
    overlay set, return picklable pairs of ``(abspath, [finding dict, ...])``."""
    paths, root, rule_names, overlays = task
    from . import lint_rules  # noqa: F401  (populate RULES in the worker)

    ctx = LintContext(root, overlays)
    selected = [RULES[name] for name in rule_names]
    out = []
    for path in paths:
        findings = lint_file(path, ctx, selected)
        out.append((os.path.abspath(path), [f.to_dict() for f in findings]))
    return out


def _lint_parallel(
    paths: list[str],
    root: str,
    rule_names: list[str],
    jobs: int,
    overlays: dict[str, str],
) -> dict[str, list[Finding]]:
    """Shard ``paths`` round-robin across ``jobs`` worker processes."""
    import concurrent.futures

    jobs = max(1, min(jobs, len(paths)))
    chunks = [paths[i::jobs] for i in range(jobs)]
    tasks = [(chunk, root, rule_names, overlays) for chunk in chunks if chunk]
    results: dict[str, list[Finding]] = {}
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for pairs in pool.map(_lint_files_chunk, tasks):
            for key, dicts in pairs:
                results[key] = [Finding(**d) for d in dicts]
    return results


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #
def load_baseline(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"baseline {path} must be a JSON list of findings")
    return data


def save_baseline(path: str, findings: Iterable[Finding]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([f.to_dict() for f in findings], fh, indent=2, sort_keys=True)
        fh.write("\n")


def filter_baseline(
    findings: Iterable[Finding], baseline: Iterable[dict]
) -> list[Finding]:
    """Drop findings whose fingerprint is grandfathered by the baseline."""
    known = {
        (e.get("rule", ""), e.get("path", ""), e.get("message", ""))
        for e in baseline
    }
    return [f for f in findings if f.fingerprint not in known]


# --------------------------------------------------------------------------- #
# reporting / CLI
# --------------------------------------------------------------------------- #
def render_text(findings: list[Finding], out) -> None:
    for f in findings:
        print(f.render(), file=out)
    n = len(findings)
    print(f"reprolint: {n} finding{'s' if n != 1 else ''}", file=out)


def render_json(findings: list[Finding], out) -> None:
    json.dump([f.to_dict() for f in findings], out, indent=2)
    out.write("\n")


def _explain_rule(name: str, out) -> int:
    """Print one rule's contract: its registry doc plus the check
    function's own docstring (the longer statement of what it proves)."""
    from . import lint_rules  # noqa: F401  (populate RULES)

    r = RULES.get(name)
    if r is None:
        print(
            f"reprolint: error: unknown rule {name!r} "
            f"(known: {', '.join(sorted(RULES))})",
            file=sys.stderr,
        )
        return 2
    print(f"{r.name}:", file=out)
    print(f"  {r.doc}", file=out)
    doc = getattr(r.check, "__doc__", None)
    if doc:
        print("", file=out)
        for line in doc.strip().splitlines():
            print(f"  {line.strip()}", file=out)
    return 0


def _dump_graphs(root: str, outdir: str, out) -> int:
    """Write callgraph.json and lock_order.json (the CI artifacts)."""
    from .lint_rules import flow_index, flow_lockset_result

    ctx = LintContext(root)
    index = flow_index(ctx)
    result = flow_lockset_result(ctx)
    try:
        os.makedirs(outdir, exist_ok=True)
        cg_path = os.path.join(outdir, "callgraph.json")
        lo_path = os.path.join(outdir, "lock_order.json")
        with open(cg_path, "w", encoding="utf-8") as fh:
            json.dump(index.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(lo_path, "w", encoding="utf-8") as fh:
            json.dump(result.order_graph_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"reprolint: wrote {cg_path} ({len(index.functions)} functions, "
        f"{sum(len(v) for v in index.edges.values())} edges) and {lo_path} "
        f"({len(result.order_edges)} lock-order edges, "
        f"{len(result.cycles)} cycles)",
        file=out,
    )
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Cost-accounting and lock-discipline linter for this repo.",
    )
    parser.add_argument("paths", nargs="*", default=["src", "benchmarks"],
                        help="files or directories to lint (default: src benchmarks)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--rule", action="append", dest="rules", metavar="NAME",
                        help="run only the named rule (repeatable)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="JSON baseline of grandfathered findings to ignore")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings to FILE and exit 0")
    parser.add_argument("--root", default=".",
                        help="repo root that scoped rule paths are relative to")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint stale files across N worker processes")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the mtime-keyed findings cache")
    parser.add_argument("--cache-file", metavar="FILE",
                        help="cache location (default: <root>/.reprolint_cache.json)")
    parser.add_argument("--explain", metavar="RULE",
                        help="print the named rule's contract and exit")
    parser.add_argument("--dump-graphs", metavar="DIR",
                        help="serialize the project call graph and static "
                             "lock-order graph under DIR and exit")
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout

    if args.explain:
        return _explain_rule(args.explain, out)
    if args.dump_graphs:
        return _dump_graphs(args.root, args.dump_graphs, out)

    if args.no_cache:
        cache_path = None
    elif args.cache_file:
        cache_path = args.cache_file
    else:
        cache_path = os.path.join(args.root, ".reprolint_cache.json")

    try:
        findings = lint_paths(args.paths or ["src", "benchmarks"],
                              root=args.root, rules=args.rules,
                              jobs=max(1, args.jobs), cache_path=cache_path)
    except (OSError, SyntaxError, KeyError, ValueError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        save_baseline(args.write_baseline, findings)
        print(f"reprolint: wrote {len(findings)} finding(s) to "
              f"{args.write_baseline}", file=out)
        return 0

    if args.baseline:
        try:
            findings = filter_baseline(findings, load_baseline(args.baseline))
        except (OSError, ValueError) as exc:
            print(f"reprolint: error: {exc}", file=sys.stderr)
            return 2

    if args.format == "json":
        render_json(findings, out)
    else:
        render_text(findings, out)
    return 1 if findings else 0
