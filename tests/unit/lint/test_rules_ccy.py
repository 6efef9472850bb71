"""Concurrency rules (CCY001-004): fork races, handoff, shm, fingerprint."""

from repro.lint import REGISTRY, LintReport, lint_project, lint_source
from repro.lint.diagnostics import Severity


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# CCY001 fork-captured-global-write
# ----------------------------------------------------------------------

WORKER_WRITES_GLOBAL = """\
_CACHE = {}

def _init_worker(scanner):
    _CACHE["scanner"] = scanner
"""


def test_ccy001_flags_worker_write_to_module_global(tmp_path):
    path = _write(tmp_path, "pool.py", WORKER_WRITES_GLOBAL)
    report = lint_source([path], only=("CCY001",))
    assert report.codes() == {"CCY001"}
    d = next(iter(report))
    assert "_CACHE" in d.nodes
    assert "fork-captured" in d.message
    assert str(path) in (d.location or "")


def test_ccy001_reaches_through_helper_calls(tmp_path):
    body = (
        "_STATE = []\n"
        "def _helper(x):\n"
        "    _STATE.append(x)\n"
        "def _scan_one(task):\n"
        "    _helper(task)\n"
    )
    report = lint_source([_write(tmp_path, "pool.py", body)], only=("CCY001",))
    assert report.codes() == {"CCY001"}
    assert "_helper" in next(iter(report)).message


def test_ccy001_flags_initializer_keyword_entry(tmp_path):
    body = (
        "_STATE = {}\n"
        "def _setup(x):\n"
        "    _STATE[0] = x\n"
        "def start(pool_cls):\n"
        "    return pool_cls(initializer=_setup, initargs=(1,))\n"
    )
    report = lint_source([_write(tmp_path, "pool.py", body)], only=("CCY001",))
    assert report.codes() == {"CCY001"}


def test_ccy001_flags_global_rebind(tmp_path):
    body = (
        "_PLAN = None\n"
        "def _init_worker(plan):\n"
        "    global _PLAN\n"
        "    _PLAN = plan\n"
    )
    report = lint_source([_write(tmp_path, "pool.py", body)], only=("CCY001",))
    assert report.codes() == {"CCY001"}
    assert "rebinds" in next(iter(report)).message


def test_ccy001_pragma_suppresses(tmp_path):
    body = (
        "_CACHE = {}\n"
        "def _init_worker(s):\n"
        "    _CACHE['s'] = s  # lint: allow-worker-state\n"
    )
    assert len(lint_source([_write(tmp_path, "pool.py", body)],
                           only=("CCY001",))) == 0


def test_ccy001_local_shadow_is_clean(tmp_path):
    body = (
        "_CACHE = {}\n"
        "def _scan_one(task):\n"
        "    _CACHE = {}\n"
        "    _CACHE['t'] = task\n"
        "    return _CACHE\n"
    )
    assert len(lint_source([_write(tmp_path, "pool.py", body)],
                           only=("CCY001",))) == 0


def test_ccy001_no_worker_entry_means_no_findings(tmp_path):
    body = "_CACHE = {}\ndef install(s):\n    _CACHE['s'] = s\n"
    assert len(lint_source([_write(tmp_path, "mod.py", body)],
                           only=("CCY001",))) == 0


def test_ccy001_test_files_exempt(tmp_path):
    path = _write(tmp_path, "test_pool.py", WORKER_WRITES_GLOBAL)
    assert len(lint_source([path], only=("CCY001",))) == 0


# ----------------------------------------------------------------------
# CCY002 mutation-after-handoff
# ----------------------------------------------------------------------


def test_ccy002_flags_append_after_submit(tmp_path):
    body = (
        "def drive(pool):\n"
        "    tasks = [1, 2]\n"
        "    pool.run(tasks)\n"
        "    tasks.append(3)\n"
    )
    report = lint_source([_write(tmp_path, "mod.py", body)], only=("CCY002",))
    assert report.codes() == {"CCY002"}
    assert "tasks" in next(iter(report)).nodes


def test_ccy002_flags_initargs_then_item_assign(tmp_path):
    body = (
        "def start(pool_cls, plan):\n"
        "    pool_cls(initializer=f, initargs=(plan,))\n"
        "    plan['extra'] = 1\n"
        "def f(p):\n"
        "    return p\n"
    )
    report = lint_source([_write(tmp_path, "mod.py", body)], only=("CCY002",))
    assert report.codes() == {"CCY002"}


def test_ccy002_mutation_before_handoff_is_clean(tmp_path):
    body = (
        "def drive(pool):\n"
        "    tasks = []\n"
        "    tasks.append(1)\n"
        "    pool.run(tasks)\n"
    )
    assert len(lint_source([_write(tmp_path, "mod.py", body)],
                           only=("CCY002",))) == 0


def test_ccy002_rebinding_after_handoff_is_clean(tmp_path):
    body = (
        "def drive(pool):\n"
        "    tasks = [1]\n"
        "    pool.run(tasks)\n"
        "    tasks = [2]\n"
        "    return tasks\n"
    )
    assert len(lint_source([_write(tmp_path, "mod.py", body)],
                           only=("CCY002",))) == 0


def test_ccy002_pragma_suppresses(tmp_path):
    body = (
        "def drive(pool):\n"
        "    tasks = [1]\n"
        "    pool.run(tasks)\n"
        "    tasks.append(2)  # lint: allow-handoff-mutation\n"
    )
    assert len(lint_source([_write(tmp_path, "mod.py", body)],
                           only=("CCY002",))) == 0


# ----------------------------------------------------------------------
# CCY003 shm-missing-cleanup
# ----------------------------------------------------------------------


def test_ccy003_flags_create_without_any_teardown(tmp_path):
    body = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def alloc(n):\n"
        "    return SharedMemory(create=True, size=n)\n"
    )
    report = lint_source([_write(tmp_path, "mod.py", body)], only=("CCY003",))
    messages = " ".join(d.message for d in report)
    assert len(report) == 2
    assert "unlink" in messages
    assert "atexit" in messages


def test_ccy003_unlink_plus_atexit_is_clean(tmp_path):
    body = (
        "import atexit\n"
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def alloc(n):\n"
        "    seg = SharedMemory(create=True, size=n)\n"
        "    atexit.register(close)\n"
        "    return seg\n"
        "def close():\n"
        "    seg.close()\n"
        "    seg.unlink()\n"
    )
    assert len(lint_source([_write(tmp_path, "mod.py", body)],
                           only=("CCY003",))) == 0


def test_ccy003_attach_without_create_is_clean(tmp_path):
    body = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def attach(name):\n"
        "    return SharedMemory(name=name)\n"
    )
    assert len(lint_source([_write(tmp_path, "mod.py", body)],
                           only=("CCY003",))) == 0


def test_ccy003_pragma_suppresses(tmp_path):
    body = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def alloc(n):\n"
        "    return SharedMemory(create=True, size=n)  # lint: allow-shm-lifecycle\n"
    )
    assert len(lint_source([_write(tmp_path, "mod.py", body)],
                           only=("CCY003",))) == 0


# ----------------------------------------------------------------------
# CCY004 fingerprint-drift (project target)
# ----------------------------------------------------------------------


def _run_ccy004(**context):
    # The synthetic-set tests probe the consistency checks in isolation;
    # pinned-field enforcement has its own tests below.
    context.setdefault("pinned_fields", ())
    spec = REGISTRY.get("CCY004")
    report = LintReport()
    report.extend(spec.run(None, context))
    return report


def test_ccy004_live_codebase_is_clean():
    assert lint_project(only=("CCY004",)).ok


def test_ccy004_missing_data_field_is_error():
    report = _run_ccy004(
        data_fields=["force_engine", "tier", "oversample"],
        fingerprint_keys={"force_engine", "tier"},
    )
    assert not report.ok
    assert any("oversample" in d.message for d in report.errors)


def test_ccy004_stale_fingerprint_key_is_warning():
    report = _run_ccy004(
        data_fields=["force_engine", "tier"],
        fingerprint_keys={"force_engine", "tier", "ghost"},
    )
    assert report.ok  # warnings only
    warning = next(iter(report.warnings))
    assert warning.severity is Severity.WARNING
    assert "ghost" in warning.message


def test_ccy004_pinned_field_present_everywhere_is_clean():
    report = _run_ccy004(
        data_fields=["force_engine", "tier", "technology"],
        fingerprint_keys={"force_engine", "tier", "technology"},
        pinned_fields=("technology",),
    )
    assert report.ok


def test_ccy004_pinned_field_dropped_everywhere_is_error():
    # Flipping technology to compare=False AND dropping it from the
    # fingerprint is self-consistent — only the pinned check sees it.
    report = _run_ccy004(
        data_fields=["force_engine", "tier"],
        fingerprint_keys={"force_engine", "tier"},
        pinned_fields=("technology",),
    )
    assert not report.ok
    errors = [d for d in report.errors if "pinned" in d.message]
    assert errors and "technology" in errors[0].message


def test_ccy004_live_codebase_pins_technology():
    # The live introspection path (no context overrides) must see
    # ScanConfig.technology in both sets.
    from dataclasses import fields as dataclass_fields

    from repro.measure.config import ScanConfig
    from repro.obs.ledger import config_fingerprint

    assert "technology" in {f.name for f in dataclass_fields(ScanConfig) if f.compare}
    assert "technology" in config_fingerprint(ScanConfig())
    assert lint_project(only=("CCY004",)).ok
