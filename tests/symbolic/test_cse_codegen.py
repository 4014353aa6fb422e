"""Direct tests for the CSE traversal utilities and the generated source."""

import pytest

from repro.symbolic import ExprBuilder, SymbolSpace
from repro.symbolic.compile import compile_exprs
from repro.symbolic.cse import shared_nodes, topological, use_counts

SP = SymbolSpace(["x", "y"])


@pytest.fixture
def dag():
    eb = ExprBuilder()
    x, y = eb.sym("x"), eb.sym("y")
    shared = eb.mul(x, y)
    root1 = eb.add(shared, eb.const(1.0))
    root2 = eb.div(shared, y)
    return eb, shared, root1, root2


class TestTraversal:
    def test_topological_children_first(self, dag):
        _, shared, root1, root2 = dag
        order = topological([root1, root2])
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for child in node.children:
                assert pos[id(child)] < pos[id(node)]

    def test_each_node_once(self, dag):
        _, shared, root1, root2 = dag
        order = topological([root1, root2])
        assert len({id(n) for n in order}) == len(order)

    def test_use_counts(self, dag):
        _, shared, root1, root2 = dag
        counts = use_counts([root1, root2])
        assert counts[id(shared)] == 2  # two parents
        assert counts[id(root1)] == 1   # root only

    def test_shared_nodes(self, dag):
        _, shared, root1, root2 = dag
        multi = shared_nodes([root1, root2])
        assert shared in multi
        assert root1 not in multi

    def test_leaves_never_reported_shared(self, dag):
        eb, shared, root1, root2 = dag
        multi = shared_nodes([root1, root2])
        assert all(n.kind not in ("const", "sym") for n in multi)


class TestGenerateSource:
    """The scalar program generated from the tape: one statement per
    shared subexpression, everything read once inlined."""

    def test_shared_node_becomes_temp(self, dag):
        _, shared, root1, root2 = dag
        source = compile_exprs(SP, [root1, root2]).source
        assert "t0 =" in source
        # computed once (operand order depends on the process hash seed)
        assert source.count("x0*x1") + source.count("x1*x0") == 1

    def test_single_use_inlined(self):
        eb = ExprBuilder()
        e = eb.add(eb.mul(eb.sym("x"), eb.sym("y")), eb.const(2.0))
        source = compile_exprs(SP, [e]).source
        assert "t0" not in source

    def test_op_count(self):
        eb = ExprBuilder()
        e = eb.add(eb.mul(eb.sym("x"), eb.sym("y")), eb.const(2.0))
        assert compile_exprs(SP, [e]).n_ops == 2  # one mul, one add

    def test_source_compiles_and_runs(self, dag):
        _, _, root1, root2 = dag
        source = compile_exprs(SP, [root1, root2]).source
        ns = {"__builtins__": {}}
        exec(source, ns)
        a, b = ns["_compiled"](3.0, 4.0)
        assert a == 13.0
        assert b == pytest.approx(3.0)
