"""The AST lint pass: rule units, baseline budgets, and the repo gate.

``test_repo_is_lint_clean`` is the tier-1 gate: every finding in ``src/``
must be absorbed by ``tools/lint_baseline.json``; new debt fails here with
the same report ``python tools/lint_repro.py`` prints.
"""

import ast
import importlib.util
import io
import json
import pathlib
import subprocess
import sys
import tokenize

import pytest

from repro.check.lint import (
    LintFinding,
    apply_baseline,
    build_program_index,
    collect,
    default_baseline_path,
    default_src_root,
    lint_source,
    load_baseline,
    run_lint,
)


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestRules:
    def test_raw_collectives_import(self):
        src = "from repro.comm.collectives import allgather\n"
        found = lint_source(src, "repro/core/somewhere.py")
        assert rules_of(found) == ["raw-collectives"]

    def test_raw_collectives_module_import(self):
        src = "import repro.comm.collectives as C\n"
        assert rules_of(lint_source(src, "repro/core/x.py")) == [
            "raw-collectives"
        ]

    def test_backend_package_may_use_collectives(self):
        src = "from repro.comm.collectives import allgather\n"
        assert lint_source(src, "repro/comm/collectives.py") == []
        assert lint_source(src, "repro/comm/backend.py") == []

    def test_comm_package_outside_backend_flagged(self):
        src = "from repro.comm.collectives import allgather\n"
        assert rules_of(lint_source(src, "repro/comm/group.py")) == [
            "raw-collective-import"
        ]

    def test_comm_package_module_import_flagged(self):
        src = "import repro.comm.collectives as C\n"
        assert rules_of(lint_source(src, "repro/comm/mp_backend.py")) == [
            "raw-collective-import"
        ]

    def test_comm_package_from_package_import_flagged(self):
        src = "from repro.comm import collectives\n"
        assert rules_of(lint_source(src, "repro/comm/launcher.py")) == [
            "raw-collective-import"
        ]

    def test_raw_collective_import_suppression(self):
        src = (
            "from repro.comm.collectives import (  "
            "# lint: allow-raw-collective-import\n"
            "    allgather,\n"
            ")\n"
        )
        assert lint_source(src, "repro/comm/__init__.py") == []

    def test_package_level_comm_import_ok(self):
        src = "from repro.comm import readonly_slice\n"
        assert lint_source(src, "repro/core/bucket.py") == []

    def test_wallclock_in_numerics(self):
        src = "import time\nseed = time.time()\n"
        assert rules_of(lint_source(src, "repro/core/adamish.py")) == [
            "wallclock"
        ]

    def test_wallclock_fine_outside_numerics(self):
        src = "import time\nt0 = time.time()\n"
        assert lint_source(src, "repro/obs/tracer.py") == []
        assert lint_source(src, "repro/hardware/model.py") == []

    def test_unseeded_rng(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_of(lint_source(src, "repro/nn/layers.py")) == [
            "rng"
        ]

    def test_stdlib_random(self):
        src = "import random\nv = random.random()\n"
        assert rules_of(lint_source(src, "repro/core/prefetch.py")) == [
            "rng"
        ]

    def test_seeded_constructor_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_source(src, "repro/nn/layers.py") == []

    def test_float64_upcast_in_hot_path(self):
        src = "def f(x):\n    return x.astype(float)\n"
        assert rules_of(lint_source(src, "repro/core/bucket.py")) == [
            "float64-upcast"
        ]

    def test_float64_fine_off_hot_path(self):
        src = "def f(x):\n    return x.astype(float)\n"
        assert lint_source(src, "repro/analytics/model.py") == []

    def test_writeable_flip(self):
        src = "view.flags.writeable = True\n"
        assert rules_of(lint_source(src, "repro/core/partition.py")) == [
            "writeable-flip"
        ]

    def test_writeable_flip_allowed_in_comm(self):
        src = "view.flags.writeable = True\n"
        assert lint_source(src, "repro/comm/collectives.py") == []

    def test_suppression_comment(self):
        src = "import time\nt = time.time()  # lint: allow-wallclock\n"
        assert lint_source(src, "repro/core/adamish.py") == []

    def test_suppression_is_rule_specific(self):
        src = "import time\nt = time.time()  # lint: allow-rng\n"
        assert rules_of(lint_source(src, "repro/core/x.py")) == [
            "wallclock"
        ]

    def test_swallowed_oserror_in_nvme(self):
        src = "try:\n    f()\nexcept OSError:\n    pass\n"
        assert rules_of(lint_source(src, "repro/nvme/aio.py")) == [
            "swallowed-oserror"
        ]

    def test_swallowed_oserror_tuple_and_alias(self):
        src = "try:\n    f()\nexcept (ValueError, IOError):\n    pass\n"
        assert rules_of(lint_source(src, "repro/core/offload.py")) == [
            "swallowed-oserror"
        ]

    def test_swallowed_oserror_bare_except(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert rules_of(lint_source(src, "repro/nvme/store.py")) == [
            "swallowed-oserror"
        ]

    def test_swallowed_oserror_handled_body_ok(self):
        src = (
            "try:\n    f()\nexcept OSError:\n    count += 1\n"
        )
        assert lint_source(src, "repro/nvme/aio.py") == []

    def test_swallowed_oserror_fine_off_io_modules(self):
        src = "try:\n    f()\nexcept OSError:\n    pass\n"
        assert lint_source(src, "repro/obs/tracer.py") == []

    def test_untraced_sleep_in_instrumented_module(self):
        src = "import time\ndef f():\n    time.sleep(0.01)\n"
        assert rules_of(lint_source(src, "repro/nvme/aio.py")) == [
            "untraced-wait"
        ]

    def test_untraced_spin_loop(self):
        src = "def f(flag):\n    while not flag():\n        pass\n"
        assert rules_of(lint_source(src, "repro/core/engine.py")) == [
            "untraced-wait"
        ]

    def test_sleep_inside_stall_span_ok(self):
        src = (
            "import time\n"
            "from repro.obs.perfscope import stall_span\n"
            "def f():\n"
            "    with stall_span('pinned_wait', owner='pool'):\n"
            "        time.sleep(0.01)\n"
        )
        assert lint_source(src, "repro/nvme/buffers.py") == []

    def test_sleep_inside_attribute_stall_span_ok(self):
        src = (
            "import time\n"
            "import repro.obs.perfscope as perfscope\n"
            "def f():\n"
            "    with perfscope.stall_span('prefetch_miss', owner='m'):\n"
            "        while not done():\n"
            "            time.sleep(0.001)\n"
        )
        assert lint_source(src, "repro/core/prefetch.py") == []

    def test_non_stall_with_does_not_shield(self):
        src = (
            "import time\n"
            "def f(lock):\n"
            "    with lock:\n"
            "        time.sleep(0.01)\n"
        )
        assert rules_of(lint_source(src, "repro/core/bucket.py")) == [
            "untraced-wait"
        ]

    def test_untraced_wait_suppression_comment(self):
        src = (
            "import time\n"
            "def f():\n"
            "    time.sleep(0.01)  # lint: allow-untraced-wait\n"
        )
        assert lint_source(src, "repro/nvme/store.py") == []

    def test_sleep_fine_off_instrumented_modules(self):
        src = "import time\ndef f():\n    time.sleep(0.01)\n"
        assert lint_source(src, "repro/obs/tracer.py") == []
        assert lint_source(src, "repro/sim/executor.py") == []

    # --- rank-divergent-collective ------------------------------------------
    def test_rank_divergent_collective_on_backend_rank(self):
        src = (
            "def f(comm, xs):\n"
            "    if comm.backend.rank == 0:\n"
            "        comm.allgather(xs)\n"
        )
        assert rules_of(lint_source(src, "repro/core/x.py")) == [
            "rank-divergent-collective"
        ]

    def test_rank_divergent_collective_on_is_local(self):
        src = (
            "def f(comm, r, xs):\n"
            "    if comm.backend.is_local(r):\n"
            "        comm.broadcast(xs, root=0)\n"
        )
        assert rules_of(lint_source(src, "repro/core/x.py")) == [
            "rank-divergent-collective"
        ]

    def test_rank_divergent_guard_pattern_conditions_the_rest(self):
        src = (
            "def f(comm, r, xs):\n"
            "    for turn in range(4):\n"
            "        if not comm.backend.is_local(turn):\n"
            "            continue\n"
            "        comm.allgather(xs)\n"
        )
        assert rules_of(lint_source(src, "repro/core/engine2.py")) == [
            "rank-divergent-collective"
        ]

    def test_turn_index_predicates_are_rank_uniform(self):
        # `rank` as a replicated turn index and `owner_rank` metadata are
        # identical on every process — not divergence
        src = (
            "def f(comm, meta, xs, world):\n"
            "    for rank in range(world):\n"
            "        if rank == 0:\n"
            "            comm.allgather(xs)\n"
            "    if meta.owner_rank is None:\n"
            "        comm.broadcast(xs, root=0)\n"
        )
        assert lint_source(src, "repro/core/partition2.py") == []

    def test_rank_divergent_scope_is_spmd_modules_only(self):
        src = (
            "def f(comm, xs):\n"
            "    if comm.backend.rank == 0:\n"
            "        comm.allgather(xs)\n"
        )
        assert lint_source(src, "repro/obs/reporter.py") == []

    def test_rank_divergent_suppression(self):
        src = (
            "def f(comm, xs):\n"
            "    if comm.backend.rank == 0:\n"
            "        comm.allgather(xs)  # lint: allow-rank-divergent-collective\n"
        )
        assert lint_source(src, "repro/core/x.py") == []

    # --- readonly-view-escape ------------------------------------------------
    def test_readonly_view_subscript_store(self):
        src = (
            "def f(buf, comm):\n"
            "    shard = readonly_slice(buf, 0, 8)\n"
            "    shard[:4] = 0\n"
        )
        assert rules_of(lint_source(src, "repro/core/x.py")) == [
            "readonly-view-escape"
        ]

    def test_readonly_view_copy_then_write_ok(self):
        src = (
            "def f(buf):\n"
            "    shard = readonly_slice(buf, 0, 8)\n"
            "    shard = shard.copy()\n"
            "    shard[:4] = 0\n"
        )
        assert lint_source(src, "repro/core/x.py") == []

    def test_readonly_view_copyto_sink(self):
        src = (
            "import numpy as np\n"
            "def f(comm, shards):\n"
            "    out = comm.allgather(shards)\n"
            "    np.copyto(out, 0.0)\n"
        )
        assert rules_of(lint_source(src, "repro/core/x.py")) == [
            "readonly-view-escape"
        ]

    def test_readonly_view_rule_excludes_comm_package(self):
        # repro/comm/ constructs the views; it owns the writeable window
        src = (
            "def f(buf):\n"
            "    shard = readonly_slice(buf, 0, 8)\n"
            "    shard[:4] = 0\n"
        )
        assert lint_source(src, "repro/comm/collectives.py") == []

    # --- shm-use-after-unlink ------------------------------------------------
    def test_shm_use_after_unlink(self):
        src = (
            "def f(ring, data):\n"
            "    ring.unlink()\n"
            "    ring.publish(data)\n"
        )
        assert rules_of(lint_source(src, "repro/comm/x.py")) == [
            "shm-use-after-unlink"
        ]

    def test_shm_buf_access_after_close(self):
        src = (
            "def f(ring):\n"
            "    ring.close()\n"
            "    return ring.buf[0]\n"
        )
        assert rules_of(lint_source(src, "repro/comm/x.py")) == [
            "shm-use-after-unlink"
        ]

    def test_shm_rebind_revives_the_name(self):
        src = (
            "def f(ring, make, data):\n"
            "    ring.unlink()\n"
            "    ring = make()\n"
            "    ring.publish(data)\n"
        )
        assert lint_source(src, "repro/comm/x.py") == []

    def test_shm_one_branch_unlink_does_not_kill(self):
        # only the intersection of branch outcomes is dead afterwards
        src = (
            "def f(ring, cond, data):\n"
            "    if cond:\n"
            "        ring.unlink()\n"
            "    else:\n"
            "        pass\n"
            "    ring.publish(data)\n"
        )
        assert lint_source(src, "repro/comm/x.py") == []

    def test_shm_both_branches_unlink_kills(self):
        src = (
            "def f(ring, cond, data):\n"
            "    if cond:\n"
            "        ring.unlink()\n"
            "    else:\n"
            "        ring.destroy()\n"
            "    ring.publish(data)\n"
        )
        assert rules_of(lint_source(src, "repro/comm/x.py")) == [
            "shm-use-after-unlink"
        ]


class TestLintCorpus:
    """Static half of the deliberate-bug corpus (tests/check_corpus/lint/).

    Each snippet declares ``LINT_AS`` (the module path it pretends to live
    at) and ``EXPECT`` (the rule it must fire); its own source is linted.
    """

    CORPUS = pathlib.Path(__file__).parent / "check_corpus" / "lint"

    def snippets(self):
        return sorted(
            p for p in self.CORPUS.glob("*.py") if p.name != "__init__.py"
        )

    def test_corpus_is_nonempty(self):
        assert self.snippets()

    def test_snippets_fire_their_declared_rule(self):
        for path in self.snippets():
            spec = importlib.util.spec_from_file_location(
                f"lint_corpus_{path.stem}", path
            )
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            found = lint_source(path.read_text(), mod.LINT_AS)
            assert mod.EXPECT in {f.rule for f in found}, path.name


class TestBaseline:
    def f(self, path, line, rule):
        return LintFinding(path, line, rule, "msg")

    def test_budget_absorbs_earliest_lines_first(self):
        findings = [
            self.f("repro/a.py", 30, "rng"),
            self.f("repro/a.py", 10, "rng"),
        ]
        baseline = {"repro/a.py": {"rng": 1}}
        new = apply_baseline(findings, baseline)
        assert [n.line for n in new] == [30]

    def test_budget_is_per_path_and_rule(self):
        findings = [
            self.f("repro/a.py", 1, "rng"),
            self.f("repro/b.py", 1, "rng"),
            self.f("repro/a.py", 2, "wallclock"),
        ]
        baseline = {"repro/a.py": {"rng": 5}}
        new = apply_baseline(findings, baseline)
        assert {(n.path, n.rule) for n in new} == {
            ("repro/b.py", "rng"),
            ("repro/a.py", "wallclock"),
        }

    def test_shipped_baseline_loads(self):
        baseline = load_baseline(default_baseline_path())
        assert isinstance(baseline, dict)
        for rules in baseline.values():
            for count in rules.values():
                assert count > 0


class TestRepoGate:
    def test_repo_is_lint_clean(self):
        report = run_lint()
        assert report.clean, "new lint findings:\n" + "\n".join(
            f.format() for f in report.new_findings
        )

    def test_baseline_has_no_dead_budget(self):
        """Every baseline allowance must match a real finding (no rot)."""
        report = run_lint()
        baseline = load_baseline(default_baseline_path())
        have: dict[tuple[str, str], int] = {}
        for f in report.all_findings:
            have[(f.path, f.rule)] = have.get((f.path, f.rule), 0) + 1
        for path, rules in baseline.items():
            for rule, count in rules.items():
                assert have.get((path, rule), 0) >= count, (
                    f"baseline allows {count}x {rule} in {path} but the"
                    f" code no longer has it; shrink tools/lint_baseline.json"
                )

    def test_every_suppression_suppresses_a_finding(self):
        """A ``# lint: allow-<rule>`` comment must silence a real finding
        of its rule: lint ``src/`` with every suppression neutralised (one
        repo-wide index, as :func:`collect` builds it) and require a
        finding of that rule on each suppression's line."""
        root = pathlib.Path(default_src_root())
        marker, neutral = "# lint: allow-", "# lint: was-allow-"
        sources = {
            str(path.relative_to(root)): path.read_text(encoding="utf-8")
            for path in sorted((root / "repro").rglob("*.py"))
        }
        suppressions = [
            (rel, tok.start[0], tok.string[len(marker):].split()[0])
            for rel, src in sources.items()
            for tok in tokenize.generate_tokens(io.StringIO(src).readline)
            if tok.type == tokenize.COMMENT and tok.string.startswith(marker)
        ]
        neutralised = {
            rel: src.replace(marker, neutral) for rel, src in sources.items()
        }
        index = build_program_index(
            {rel: ast.parse(src) for rel, src in neutralised.items()}
        )
        found = {
            (f.path, f.line, f.rule)
            for rel, src in neutralised.items()
            for f in lint_source(src, rel, index)
        }
        assert suppressions
        dead = [s for s in suppressions if s not in found]
        assert not dead, f"suppressions with no finding to suppress: {dead}"

    def test_repo_tree_is_debt_free(self):
        # the baseline is empty: the shipped tree carries zero findings,
        # suppressed or otherwise beyond inline allows
        assert collect(default_src_root()) == []

    def test_collect_covers_the_tree(self, tmp_path):
        # the walk parses every repro module it finds and lints it
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nseed = time.time()\n")
        findings = collect(str(tmp_path))
        assert [(f.path, f.rule) for f in findings] == [
            ("repro/core/bad.py", "wallclock")
        ]

    def test_cli_launcher(self):
        out = subprocess.run(
            [sys.executable, "tools/lint_repro.py"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "0 new finding(s)" in out.stdout

    def test_cli_update_baseline_roundtrip(self, tmp_path):
        target = tmp_path / "baseline.json"
        out = subprocess.run(
            [
                sys.executable,
                "tools/lint_repro.py",
                "--update-baseline",
                "--baseline",
                str(target),
            ],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        written = json.loads(target.read_text())
        assert written["version"] == 1
        # regenerated baseline matches the shipped one
        shipped = json.loads(
            open(default_baseline_path(), encoding="utf-8").read()
        )
        assert written["allow"] == shipped["allow"]
