"""PAR5xx parallel payload purity: what may cross the pickle boundary
(``run_batch`` and ``submit`` payloads)."""

from repro.lint import lint_paths


def _rules(report):
    return [(f.rule_id, f.line) for f in report.findings]


class TestPar501Lambdas:
    def test_inline_lambda_payload_fires(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                def build(executor):
                    return executor.submit(lambda: None)
                """,
            }
        )
        report = lint_paths([root], select=["PAR501"])
        assert _rules(report) == [("PAR501", 2)]
        assert "submit" in report.findings[0].message

    def test_lambda_via_name_fires(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                def build(executor):
                    payload = lambda: None
                    return executor.submit(payload)
                """,
            }
        )
        report = lint_paths([root], select=["PAR501"])
        assert _rules(report) == [("PAR501", 3)]

    def test_partial_over_lambda_fires(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                from functools import partial

                def build(executor):
                    return executor.submit(partial(lambda x: x, 1))
                """,
            }
        )
        report = lint_paths([root], select=["PAR501"])
        assert _rules(report) == [("PAR501", 4)]

    def test_lambda_outside_submission_is_fine(self, write_tree):
        # Lambdas are only a problem across the pickle boundary.
        root = write_tree(
            {
                "pkg/mod.py": """\
                def order(rows):
                    return sorted(rows, key=lambda row: row[0])
                """,
            }
        )
        report = lint_paths([root], select=["PAR501"])
        assert report.findings == []


class TestPar502LocalCallables:
    def test_nested_def_payload_fires(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                def build(executor):
                    def local_step():
                        return None

                    return executor.submit(local_step)
                """,
            }
        )
        report = lint_paths([root], select=["PAR502"])
        assert _rules(report) == [("PAR502", 5)]

    def test_partial_over_nested_def_fires(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                from functools import partial

                def build(executor, payload):
                    def local_step():
                        return payload

                    return executor.submit(partial(local_step, payload))
                """,
            }
        )
        report = lint_paths([root], select=["PAR502"])
        assert _rules(report) == [("PAR502", 7)]

    def test_module_level_function_is_clean(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                from functools import partial

                def module_chunk(chunk):
                    return list(chunk)

                def dispatch(pool, executor, specs):
                    direct = pool.run_batch(specs, module_chunk)
                    wrapped = executor.submit(partial(module_chunk, specs))
                    return direct, wrapped
                """,
            }
        )
        report = lint_paths([root], select=["PAR501", "PAR502"])
        assert report.findings == []

    def test_parameter_names_are_not_local_defs(self, write_tree):
        # A dispatcher that forwards a chunk-function *parameter* into
        # the pool is clean; the parameter is the caller's problem.
        root = write_tree(
            {
                "pkg/mod.py": """\
                def dispatch(pool, specs, chunk_fn):
                    return pool.run_batch(specs, chunk_fn)
                """,
            }
        )
        report = lint_paths([root], select=["PAR501", "PAR502"])
        assert report.findings == []

    def test_spec_construction_is_not_a_boundary(self, write_tree):
        # Only run_batch and submit ship payloads to workers; a spec
        # constructor or a sweep helper that takes a lambda does not.
        root = write_tree(
            {
                "pkg/mod.py": """\
                def build(grid, seed):
                    spec = CaseSpec(problem_factory=lambda: None, seed=seed)
                    return spec, sweep(grid, lambda params: params)
                """,
            }
        )
        report = lint_paths([root], select=["PAR501", "PAR502"])
        assert report.findings == []

    def test_real_analysis_tree_is_payload_clean(self):
        import os

        here = os.path.dirname(__file__)
        repo_root = os.path.dirname(os.path.dirname(here))
        report = lint_paths(
            [os.path.join(repo_root, "src", "repro")],
            select=["PAR501", "PAR502"],
        )
        assert report.findings == []


class TestRunBatchSubmission:
    """The campaign pool's ``run_batch`` is a submission boundary: its
    items and chunk function pickle into workers, but its ``on_result``
    callback stays in the parent and may close over anything."""

    def test_lambda_chunk_fn_fires(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                def dispatch(pool, specs):
                    return pool.run_batch(specs, lambda c: list(c))
                """,
            }
        )
        report = lint_paths([root], select=["PAR501"])
        assert _rules(report) == [("PAR501", 2)]
        assert "run_batch" in report.findings[0].message

    def test_local_chunk_fn_fires(self, write_tree):
        root = write_tree(
            {
                "pkg/mod.py": """\
                def dispatch(pool, specs):
                    def chunk_fn(chunk):
                        return list(chunk)

                    return pool.run_batch(specs, chunk_fn)
                """,
            }
        )
        report = lint_paths([root], select=["PAR502"])
        assert _rules(report) == [("PAR502", 5)]

    def test_parent_side_on_result_callback_is_clean(self, write_tree):
        # on_result fires in the parent after the chunk's results come
        # back; it never crosses the pickle boundary.
        root = write_tree(
            {
                "pkg/mod.py": """\
                def module_chunk_fn(chunk):
                    return list(chunk)

                def dispatch(pool, specs, sink):
                    def hook(index, result):
                        sink.append(result)

                    return pool.run_batch(
                        specs, module_chunk_fn, on_result=hook
                    )
                """,
            }
        )
        report = lint_paths([root], select=["PAR501", "PAR502"])
        assert report.findings == []

    def test_fixture_pair_fires_and_suppresses(self):
        import os

        here = os.path.dirname(__file__)
        path = os.path.join(
            here, "fixtures", "dirtypkg", "campaign", "dispatch.py"
        )
        report = lint_paths([path], select=["PAR501", "PAR502"])
        assert sorted(f.rule_id for f in report.findings) == [
            "PAR501",
            "PAR502",
        ]
