"""KER3xx kernel-twin phase contracts: extraction, ordering, staleness.

The acceptance-critical test here is the seeded mutation: take the
*real* ``StepKernel.run_lean``, move its admission call to the end of
the loop, and the linter must catch the reorder — that is the whole
point of declaring the contract statically.
"""

import ast
import os

from repro.lint import lint_paths
from repro.lint.contracts import extract_phases
from repro.lint.kernelspec import KERNEL_TWINS, PHASE_ORDER

HERE = os.path.dirname(__file__)
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
REAL_KERNEL = os.path.join(REPO_ROOT, "src", "repro", "core", "kernel.py")
REAL_SOA_KERNEL = os.path.join(
    REPO_ROOT, "src", "repro", "core", "soa", "kernel.py"
)


def _function(source, name):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name!r}")


def _rules(report):
    return [(f.rule_id, f.line) for f in report.findings]


class TestExtractPhases:
    def test_orders_by_last_occurrence(self):
        node = _function(
            "def loop(self, pending, packet):\n"
            "    self._admit(0)\n"
            "    first = decide(0)\n"
            "    self._admit(1)\n"
            "    pending[0] = first\n",
            "loop",
        )
        found = extract_phases(node)
        assert found["inject"][0] == 4  # the later _admit wins
        assert found["rank"][0] == 3
        assert found["arc_assign"][0] == 5

    def test_arc_assign_marker_forms(self):
        # The columnar loop resolves one node at a time; the numpy
        # step asks its decision table for every node at once.
        for call in ("resolve_node(rows)", "decisions.resolve_nodes(rows)"):
            node = _function(
                f"def loop(self, rows):\n    dirs = {call}\n", "loop"
            )
            assert set(extract_phases(node)) == {"arc_assign"}

    def test_rank_marker_forms(self):
        # The numpy step orders its rows by radix passes; a stable
        # argsort that precedes it (random-rank's pack-time rank
        # order) is not the step's last rank marker.
        for call in (
            'np.argsort(keys, kind="stable")',
            "np.lexsort((ranks, keys))",
            "radix_order(np, keys, bound)",
        ):
            node = _function(
                f"def loop(self, keys):\n    order = {call}\n", "loop"
            )
            assert set(extract_phases(node)) == {"rank"}
        node = _function(
            "def loop(self, ranks, pos):\n"
            '    by_rank = np.argsort(ranks, kind="stable")\n'
            "    self._admit_batch(pos)\n"
            "    order = by_rank[radix_order(np, pos[by_rank], 4)]\n",
            "loop",
        )
        found = extract_phases(node)
        assert found["inject"][0] == 3
        assert found["rank"][0] == 4

    def test_move_marker_forms(self):
        aug = _function(
            "def loop(self, packet):\n    packet.hops += 1\n", "loop"
        )
        whole_column = _function(
            "def loop(self, hops):\n    hops = hops + 1\n", "loop"
        )
        assert set(extract_phases(aug)) == {"move"}
        assert set(extract_phases(whole_column)) == {"move"}

    def test_move_instrumented_marks_move_and_deliver(self):
        node = _function(
            "def loop(self, infos):\n"
            "    return self._move_instrumented(infos)\n",
            "loop",
        )
        found = extract_phases(node)
        assert found["move"][0] == found["deliver"][0] == 2

    def test_unrelated_code_yields_no_phases(self):
        node = _function(
            "def loop(self, xs):\n"
            "    total = sum(xs)\n"
            "    xs.append(total)\n"
            "    return sorted(xs)\n",
            "loop",
        )
        assert extract_phases(node) == {}


class TestContractDeclaration:
    def test_contract_shape(self):
        assert PHASE_ORDER == (
            "faults",
            "inject",
            "rank",
            "arc_assign",
            "move",
            "deliver",
        )
        # Every declared twin targets one of the two kernel modules.
        assert {spec.module_suffix for spec in KERNEL_TWINS} == {
            "core.kernel",
            "core.soa.kernel",
        }


class TestRealKernels:
    def test_shipped_twins_satisfy_the_contract(self):
        report = lint_paths(
            [REAL_KERNEL, REAL_SOA_KERNEL],
            select=["KER301", "KER302", "KER303"],
        )
        assert report.findings == []


def _real_kernel_copy(mutate=None):
    """The real kernel module's source, optionally mutated, unparsed."""
    with open(REAL_KERNEL, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    if mutate is not None:
        mutate(tree)
    return ast.unparse(tree) + "\n"


def _calls(stmt):
    return {
        node.func.attr
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
    }


def _move_admit_to_loop_end(tree):
    """Seeded defect: run admission *after* movement and delivery."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.ClassDef) and node.name == "StepKernel"
        ):
            continue
        run_lean = next(
            item
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and item.name == "run_lean"
        )
        loop = next(
            item
            for item in ast.walk(run_lean)
            if isinstance(item, (ast.While, ast.For))
        )
        index = next(
            i
            for i, stmt in enumerate(loop.body)
            if "_admit" in _calls(stmt)
        )
        loop.body.append(loop.body.pop(index))
        return
    raise AssertionError("StepKernel not found in the real kernel")


class TestSeededReorder:
    def test_faithful_copy_of_real_kernel_stays_clean(
        self, write_tree
    ):
        root = write_tree(
            {"pkg/core/kernel.py": _real_kernel_copy()}
        )
        report = lint_paths(
            [root], select=["KER301", "KER302", "KER303"]
        )
        assert report.findings == []

    def test_reordered_real_twin_is_caught(self, write_tree):
        root = write_tree(
            {
                "pkg/core/kernel.py": _real_kernel_copy(
                    _move_admit_to_loop_end
                )
            }
        )
        report = lint_paths([root], select=["KER301"])
        assert [f.rule_id for f in report.findings] == ["KER301"]
        assert "inject" in report.findings[0].message
        assert "run_lean" in report.findings[0].message


class TestSyntheticTwins:
    def test_missing_deliver_fires_ker302_on_the_def(self, write_tree):
        root = write_tree(
            {
                "pkg/core/kernel.py": """\
                pending = {}

                def decide(view):
                    return view

                class StepKernel:
                    def run_lean(self, steps, packet):
                        for now in range(steps):
                            self._admit(now)
                            pending[now] = decide(now)
                            packet.hops += 1
                        return packet
                """,
            }
        )
        report = lint_paths([root], select=["KER302"])
        assert _rules(report) == [("KER302", 7)]
        assert "deliver" in report.findings[0].message

    def test_faults_phase_is_optional(self, write_tree):
        root = write_tree(
            {
                "pkg/core/kernel.py": """\
                pending = {}

                def decide(view):
                    return view

                class StepKernel:
                    def run_lean(self, steps, packet):
                        for now in range(steps):
                            self._admit(now)
                            pending[now] = decide(now)
                            packet.hops += 1
                            packet.delivered_at = now
                        return packet
                """,
            }
        )
        report = lint_paths([root], select=["KER301", "KER302"])
        assert report.findings == []

    def test_stale_declaration_fires_ker303_on_the_class(
        self, write_tree
    ):
        # A ``core.kernel`` module whose StepKernel lost its twins: the
        # contract declaration went stale and must say so.
        root = write_tree(
            {
                "pkg/core/kernel.py": """\
                class StepKernel:
                    def totally_new_loop(self):
                        return None
                """,
            }
        )
        report = lint_paths([root], select=["KER303"])
        fired = {f.rule_id for f in report.findings}
        assert fired == {"KER303"}
        # One finding per missing declared twin (run_lean and
        # step_instrumented), each anchored on the owning class
        # statement (line 1).
        assert len(report.findings) == 2
        assert {f.line for f in report.findings} == {1}
