"""The flow engine's foundations: CFG shapes (exception edges included),
dominators, loop-nest depth, the fixpoint solvers, and call-graph
resolution — everything the three flow rules stand on."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.flow import build_cfg, build_project_index
from repro.analysis.flow.cfg import (
    ENTRY,
    EXCEPT,
    EXIT,
    FOR,
    RAISE_EXIT,
    STMT,
    TEST,
    WITH_ENTER,
    WITH_EXIT,
)
from repro.analysis.flow.solver import (
    interprocedural_fixpoint,
    solve_backward,
    solve_forward,
)


def cfg_of(src: str):
    tree = ast.parse(src)
    fn = next(
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(fn)


def nodes_of_kind(cfg, kind):
    return [n for n in cfg.nodes if n.kind == kind]


def stmt_node(cfg, needle: str):
    """The unique node whose source segment contains ``needle``."""
    hits = [
        n for n in cfg.nodes
        if n.stmt is not None and needle in ast.unparse(n.stmt).split("\n")[0]
    ]
    assert len(hits) == 1, (needle, hits)
    return hits[0]


def reachable(cfg, start, exceptional=True):
    seen, work = set(), [start]
    while work:
        idx = work.pop()
        if idx in seen:
            continue
        seen.add(idx)
        node = cfg.nodes[idx]
        work.extend(node.succ)
        if exceptional:
            work.extend(node.esucc)
    return seen


class TestCFGShapes:
    def test_linear_body(self):
        cfg = cfg_of("def f(x):\n    y = x + 1\n    return y\n")
        assert cfg.nodes[cfg.entry].kind == ENTRY
        assert cfg.nodes[cfg.exit].kind == EXIT
        assert cfg.nodes[cfg.raise_exit].kind == RAISE_EXIT
        # pure arithmetic cannot raise: no exception edges anywhere
        assert all(not n.esucc for n in cfg.nodes)
        assert cfg.exit in reachable(cfg, cfg.entry)

    def test_call_statement_gets_exception_edge(self):
        cfg = cfg_of("def f(g):\n    g()\n    return 1\n")
        call = stmt_node(cfg, "g()")
        assert cfg.raise_exit in call.esucc

    def test_if_else_joins(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        )
        test = nodes_of_kind(cfg, TEST)[0]
        assert len(test.succ) == 2
        ret = stmt_node(cfg, "return a")
        # both arms flow into the return
        assert all(ret.idx in cfg.nodes[s].succ for s in test.succ)

    def test_while_true_without_break_never_exits(self):
        cfg = cfg_of("def f():\n    while True:\n        x = 1\n")
        assert cfg.exit not in reachable(cfg, cfg.entry)

    def test_while_break_reaches_exit(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    while True:\n"
            "        if x:\n"
            "            break\n"
            "    return 1\n"
        )
        assert cfg.exit in reachable(cfg, cfg.entry)

    def test_for_loop_depth_and_back_edge(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        y = x\n"
            "    return 0\n"
        )
        header = nodes_of_kind(cfg, FOR)[0]
        assert header.depth == 0
        body = stmt_node(cfg, "y = x")
        assert body.depth == 1
        # the body loops back to the header
        assert header.idx in reachable(cfg, body.idx)

    def test_nested_loop_depth(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        for y in x:\n"
            "            z = y\n"
        )
        assert stmt_node(cfg, "z = y").depth == 2

    def test_try_except_routes_exception_to_handler(self):
        cfg = cfg_of(
            "def f(g):\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        h = 1\n"
            "    return 2\n"
        )
        call = stmt_node(cfg, "g()")
        handlers = nodes_of_kind(cfg, EXCEPT)
        assert handlers and handlers[0].idx in call.esucc
        # the handler body falls through to the continuation
        ret = stmt_node(cfg, "return 2")
        assert ret.idx in reachable(cfg, handlers[0].idx)

    def test_try_finally_runs_on_both_paths(self):
        cfg = cfg_of(
            "def f(g):\n"
            "    try:\n"
            "        g()\n"
            "    finally:\n"
            "        release = 1\n"
            "    return 2\n"
        )
        fin = stmt_node(cfg, "release = 1")
        call = stmt_node(cfg, "g()")
        # exceptional path: through the finally, then on to raise-exit
        assert fin.idx in reachable(cfg, call.idx)
        assert cfg.raise_exit in reachable(cfg, fin.idx)
        # normal path: finally then return
        assert stmt_node(cfg, "return 2").idx in reachable(
            cfg, fin.idx, exceptional=False
        )

    def test_return_routes_through_finally(self):
        cfg = cfg_of(
            "def f(g):\n"
            "    try:\n"
            "        return g()\n"
            "    finally:\n"
            "        release = 1\n"
        )
        fin = stmt_node(cfg, "release = 1")
        ret = stmt_node(cfg, "return g()")
        assert fin.idx in reachable(cfg, ret.idx)
        assert cfg.exit in reachable(cfg, fin.idx)

    def test_with_enter_exit_nodes(self):
        cfg = cfg_of(
            "def f(lock, g):\n"
            "    with lock:\n"
            "        g()\n"
            "    return 1\n"
        )
        enter = nodes_of_kind(cfg, WITH_ENTER)[0]
        exit_node = nodes_of_kind(cfg, WITH_EXIT)[0]
        call = stmt_node(cfg, "g()")
        assert call.idx in reachable(cfg, enter.idx)
        # a raise inside the body still runs __exit__
        assert exit_node.idx in call.esucc

    def test_continue_loops_back_not_out(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x:\n"
            "            continue\n"
            "        y = x\n"
            "    return 0\n"
        )
        header = nodes_of_kind(cfg, FOR)[0]
        cont = stmt_node(cfg, "continue")
        assert header.idx in cont.succ


class TestDominators:
    def test_straight_line_dominance(self):
        cfg = cfg_of(
            "def f(m, n):\n"
            "    charge = 1\n"
            "    loop = 2\n"
        )
        a = stmt_node(cfg, "charge = 1")
        b = stmt_node(cfg, "loop = 2")
        assert cfg.dominates(a.idx, b.idx)
        assert not cfg.dominates(b.idx, a.idx)

    def test_branch_does_not_dominate_join(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        charge = 1\n"
            "    after = 2\n"
        )
        charge = stmt_node(cfg, "charge = 1")
        after = stmt_node(cfg, "after = 2")
        assert not cfg.dominates(charge.idx, after.idx)

    def test_exception_edge_breaks_dominance(self):
        # g() may raise, so the statement after it does not dominate the
        # raise-exit — but the one before it dominates everything reachable
        cfg = cfg_of(
            "def f(g):\n"
            "    before = 1\n"
            "    g()\n"
            "    after = 2\n"
        )
        before = stmt_node(cfg, "before = 1")
        after = stmt_node(cfg, "after = 2")
        assert cfg.dominates(before.idx, cfg.raise_exit)
        assert not cfg.dominates(after.idx, cfg.raise_exit)

    def test_entry_dominates_all_reachable(self):
        cfg = cfg_of("def f(x):\n    return x\n")
        for idx in reachable(cfg, cfg.entry):
            assert cfg.dominates(cfg.entry, idx)


class TestSolvers:
    def test_forward_may_analysis_unions_branches(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        b = 2\n"
            "    join = 3\n"
        )

        def transfer(node, state):
            if node.stmt is not None and isinstance(node.stmt, ast.Assign):
                target = node.stmt.targets[0]
                if isinstance(target, ast.Name):
                    return state | {target.id}
            return state

        in_states, _ = solve_forward(
            cfg, frozenset(), transfer, lambda a, b: a | b
        )
        join = stmt_node(cfg, "join = 3")
        assert in_states[join.idx] == {"a", "b"}

    def test_forward_loop_reaches_fixpoint(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        inside = 1\n"
            "    return 0\n"
        )

        def transfer(node, state):
            if node.stmt is not None and isinstance(node.stmt, ast.Assign):
                return state | {"inside"}
            return state

        in_states, _ = solve_forward(
            cfg, frozenset(), transfer, lambda a, b: a | b
        )
        header = nodes_of_kind(cfg, FOR)[0]
        # the loop-back edge feeds the body's gen into the header state
        assert "inside" in in_states[header.idx]

    def test_backward_reaches_entry(self):
        cfg = cfg_of("def f(g):\n    g()\n    tail = 1\n")

        def transfer(node, state):
            if node.stmt is not None and "tail" in ast.unparse(node.stmt):
                return state | {"tail-seen"}
            return state

        before = solve_backward(
            cfg, frozenset(), transfer, lambda a, b: a | b
        )
        assert "tail-seen" in before[cfg.entry]

    def test_interprocedural_fixpoint_handles_recursion(self):
        # f calls g, g calls f; seed marks g — both end up marked, and the
        # cycle terminates
        calls = {"f": ["g"], "g": ["f"]}

        def summarize(qual, summaries):
            return qual == "g" or any(
                summaries.get(c, False) for c in calls[qual]
            )

        result = interprocedural_fixpoint(
            ["f", "g"], summarize, lambda q: q == "g"
        )
        assert result == {"f": True, "g": True}


SERVICE_SRC = """
import threading
import repro.corp.helpers as helpers


class Service:
    def __init__(self, engine: "Engine"):
        self._lock = threading.Lock()
        self._engine = engine

    def direct(self):
        self._helper()

    def _helper(self):
        return 1

    def through_module(self):
        helpers.top()

    def through_attr(self):
        self._engine.run()


class Engine:
    def run(self):
        return 2


def free(svc: Service):
    svc.direct()


def maker():
    e = Engine()
    e.run()
"""

HELPERS_SRC = """
def top():
    return 3
"""


class TestCallGraph:
    @pytest.fixture()
    def index(self):
        return build_project_index(
            {
                "src/repro/corp/service.py": SERVICE_SRC,
                "src/repro/corp/helpers.py": HELPERS_SRC,
            }
        )

    def test_functions_indexed_with_qualnames(self, index):
        assert "repro.corp.service:Service.direct" in index.functions
        assert "repro.corp.helpers:top" in index.functions
        info = index.functions["repro.corp.service:Service.direct"]
        assert info.path == "src/repro/corp/service.py"
        assert info.node.lineno > 0

    def test_self_method_resolves(self, index):
        edges = index.edges["repro.corp.service:Service.direct"]
        assert "repro.corp.service:Service._helper" in edges

    def test_imported_module_function_resolves(self, index):
        edges = index.edges["repro.corp.service:Service.through_module"]
        assert "repro.corp.helpers:top" in edges

    def test_annotated_parameter_resolves(self, index):
        edges = index.edges["repro.corp.service:free"]
        assert "repro.corp.service:Service.direct" in edges

    def test_constructed_local_resolves(self, index):
        edges = index.edges["repro.corp.service:maker"]
        assert "repro.corp.service:Engine.run" in edges

    def test_init_attr_type_inference(self, index):
        # self._engine's type comes from the annotated __init__ parameter
        # it was assigned from (string annotations included)
        edges = index.edges["repro.corp.service:Service.through_attr"]
        assert "repro.corp.service:Engine.run" in edges

    def test_overlay_replaces_module(self, tmp_path):
        # a lint run indexes its overlay text in place of the real module
        # at the same virtual path
        from repro.analysis.lint_rules import flow_index
        from repro.analysis.reprolint import LintContext

        corp = tmp_path / "src" / "repro" / "corp"
        corp.mkdir(parents=True)
        (corp / "helpers.py").write_text(HELPERS_SRC)
        ctx = LintContext(
            str(tmp_path),
            overlays={"src/repro/corp/helpers.py": "def top():\n    return 99\n"},
        )
        info = flow_index(ctx).functions["repro.corp.helpers:top"]
        assert info.node.body[0].value.value == 99
