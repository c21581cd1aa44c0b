"""Worker-process chaos: the supervised pool and its recovery guarantees.

Exercises the real failure modes — SIGKILLed workers, hangs, persistent
errors — against :func:`repro.orchestrate.supervise.run_supervised` and
the campaign runner built on it, and pins the headline property: a store
recovered from injected worker crashes is byte-identical to a clean one.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.faults.process import (
    InjectedWorkerError,
    maybe_inject_worker_fault,
    parse_fault_env,
)
from repro.orchestrate import get_campaign
from repro.orchestrate.runner import run_campaign
from repro.orchestrate.store import ResultsStore
from repro.orchestrate.supervise import (
    QuarantinedCell,
    SupervisionPolicy,
    run_supervised,
)

# Cheap policy for tests: no real backoff sleeps.
FAST = SupervisionPolicy(max_retries=2, backoff_base=0.0)


# ---------------------------------------------------------------------- #
# Top-level workers (process pools pickle them by reference)
# ---------------------------------------------------------------------- #
def _double(value):
    return value * 2


def _claim(marker: str) -> bool:
    """Atomically claim ``marker``; True for exactly one caller ever."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _crash_once(payload):
    marker, value = payload
    if _claim(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _hang_once(payload):
    marker, value = payload
    if _claim(marker):
        time.sleep(60.0)
    return value * 2


def _crash_bad_always(payload):
    if payload == "bad":
        os.kill(os.getpid(), signal.SIGKILL)
    return payload.upper()


def _always_fail(payload):
    raise ValueError(f"cannot process {payload!r}")


# ---------------------------------------------------------------------- #
# run_supervised
# ---------------------------------------------------------------------- #
class _PoolBrokenAtSubmit:
    """``ProcessPoolExecutor`` stand-in that runs cells inline.

    In the first pool, the first cell's worker dies: its future never
    completes, and the next ``submit`` raises ``BrokenProcessPool``.  That
    is the window in which a real pool is already marked broken but has
    not yet failed the futures of its dead worker.
    """

    pools = 0

    def __init__(self, max_workers):
        type(self).pools += 1
        self._broken = type(self).pools == 1
        self._submits = 0
        self._processes = {}

    def submit(self, fn, *args):
        self._submits += 1
        future = Future()
        if not self._broken:
            future.set_result(fn(*args))
        elif self._submits > 1:
            raise BrokenProcessPool("a child process terminated abruptly")
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestRunSupervised:
    def test_happy_path_preserves_order_and_delivers_callbacks(self):
        seen = []
        results, quarantined = run_supervised(
            [1, 2, 3, 4, 5],
            worker=_double,
            max_workers=2,
            policy=FAST,
            on_complete=lambda index, result: seen.append((index, result)),
        )
        assert results == [2, 4, 6, 8, 10]
        assert quarantined == []
        assert sorted(seen) == [(0, 2), (1, 4), (2, 6), (3, 8), (4, 10)]

    def test_sigkilled_worker_recovers_without_losing_cells(self, tmp_path):
        marker = str(tmp_path / "crash.marker")
        payloads = [(marker, v) for v in range(4)]
        results, quarantined = run_supervised(
            payloads, worker=_crash_once, max_workers=2, policy=FAST
        )
        assert results == [0, 2, 4, 6]
        assert quarantined == []
        assert os.path.exists(marker)  # the crash really fired

    def test_hung_worker_trips_timeout_and_cell_retries(self, tmp_path):
        marker = str(tmp_path / "hang.marker")
        payloads = [(marker, v) for v in range(3)]
        policy = SupervisionPolicy(cell_timeout=1.0, max_retries=2, backoff_base=0.0)
        start = time.monotonic()
        results, quarantined = run_supervised(
            payloads, worker=_hang_once, max_workers=2, policy=policy
        )
        assert results == [0, 2, 4]
        assert quarantined == []
        assert time.monotonic() - start < 30.0  # never waited out the hang

    def test_deterministic_crasher_is_quarantined_alone(self, tmp_path):
        policy = SupervisionPolicy(max_retries=1, backoff_base=0.0)
        results, quarantined = run_supervised(
            ["a", "bad", "c", "d"],
            worker=_crash_bad_always,
            max_workers=2,
            policy=policy,
            labels=["a", "bad", "c", "d"],
        )
        assert results == ["A", None, "C", "D"]
        assert [q.label for q in quarantined] == ["bad"]
        assert quarantined[0].attempts == 2  # first try + one retry
        assert "died" in quarantined[0].reason

    def test_pool_broken_at_submit_requeues_uncharged(self, monkeypatch):
        from repro.orchestrate import supervise

        monkeypatch.setattr(_PoolBrokenAtSubmit, "pools", 0)
        monkeypatch.setattr(supervise, "ProcessPoolExecutor", _PoolBrokenAtSubmit)
        # No retries: any charged attempt would quarantine its cell.
        policy = SupervisionPolicy(max_retries=0, backoff_base=0.0)
        results, quarantined = run_supervised([1, 2, 3], _double, 2, policy=policy)
        assert results == [2, 4, 6]
        assert quarantined == []
        assert _PoolBrokenAtSubmit.pools == 2

    def test_persistent_error_quarantines_with_reason(self):
        policy = SupervisionPolicy(max_retries=1, backoff_base=0.0)
        results, quarantined = run_supervised(
            ["x"], worker=_always_fail, max_workers=1, policy=policy
        )
        assert results == [None]
        assert len(quarantined) == 1
        assert isinstance(quarantined[0], QuarantinedCell)
        assert quarantined[0].attempts == 2
        assert "ValueError" in quarantined[0].reason

    def test_input_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            run_supervised([1], worker=_double, max_workers=0)
        with pytest.raises(ValueError, match="one label per payload"):
            run_supervised([1, 2], worker=_double, max_workers=1, labels=["only-one"])


class TestSupervisionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            SupervisionPolicy(cell_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisionPolicy(max_retries=-1)

    def test_backoff_doubles_up_to_the_cap(self):
        policy = SupervisionPolicy(backoff_base=0.1, backoff_cap=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(6) == pytest.approx(2.0)  # capped


# ---------------------------------------------------------------------- #
# Env-driven worker faults (repro.faults.process)
# ---------------------------------------------------------------------- #
class TestFaultEnv:
    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_fault_env("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            parse_fault_env("[1]")
        with pytest.raises(ValueError, match="fault kind"):
            parse_fault_env('{"worker_meltdown": {}}')
        with pytest.raises(ValueError, match="mode"):
            parse_fault_env('{"worker_error": {"mode": "sometimes"}}')
        with pytest.raises(ValueError, match="marker"):
            parse_fault_env('{"worker_crash": {"mode": "once"}}')

    def test_unset_env_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        maybe_inject_worker_fault("cell:anything")

    def test_worker_error_injection_and_label_match(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '{"worker_error": {"mode": "always", "match": "cell:threshold"}}',
        )
        maybe_inject_worker_fault("cell:other")  # filtered out: no fire
        with pytest.raises(InjectedWorkerError, match="cell:threshold"):
            maybe_inject_worker_fault("cell:threshold_formulas")

    def test_once_mode_fires_exactly_once(self, tmp_path, monkeypatch):
        marker = tmp_path / "err.marker"
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '{"worker_error": {"mode": "once", "marker": "%s"}}' % marker,
        )
        with pytest.raises(InjectedWorkerError):
            maybe_inject_worker_fault("cell:x")
        assert marker.exists()
        maybe_inject_worker_fault("cell:x")  # second call: marker claimed


# ---------------------------------------------------------------------- #
# Campaigns under injected chaos
# ---------------------------------------------------------------------- #
class TestCampaignChaos:
    def test_store_recovered_from_crash_is_byte_identical(self, tmp_path, monkeypatch):
        campaign = get_campaign("threshold_formulas")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        clean = ResultsStore(tmp_path / "clean")
        run_campaign(campaign, clean, n_jobs=2)

        marker = tmp_path / "crash.marker"
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '{"worker_crash": {"mode": "once", "marker": "%s"}}' % marker,
        )
        faulted = ResultsStore(tmp_path / "faulted")
        report = run_campaign(
            campaign,
            faulted,
            n_jobs=2,
            policy=SupervisionPolicy(max_retries=2, backoff_base=0.0),
        )
        assert report.complete
        assert report.quarantined == []
        assert marker.exists()  # the SIGKILL actually happened
        assert clean.keys() == faulted.keys()
        for key in clean.keys():
            assert (
                clean._object_path(key).read_bytes()
                == faulted._object_path(key).read_bytes()
            )

    def test_persistent_worker_error_quarantines_not_raises(self, tmp_path, monkeypatch):
        campaign = get_campaign("threshold_formulas")
        monkeypatch.setenv("REPRO_FAULTS", '{"worker_error": {"mode": "always"}}')
        store = ResultsStore(tmp_path / "store")
        report = run_campaign(
            campaign,
            store,
            n_jobs=2,
            policy=SupervisionPolicy(max_retries=0, backoff_base=0.0),
        )
        assert not report.complete
        assert len(report.quarantined) == len(campaign.cell_keys())
        assert "quarantined" in report.describe()
        assert store.keys() == []  # nothing half-written

    def test_montecarlo_broken_pool_falls_back_to_serial(self, tmp_path):
        from repro.analysis.montecarlo import _run_trials

        marker = str(tmp_path / "mc.marker")
        payloads = [(marker, v) for v in range(4)]
        assert _run_trials(_crash_once, payloads, n_jobs=2) == [0, 2, 4, 6]
        assert os.path.exists(marker)


# ---------------------------------------------------------------------- #
# Orchestrate CLI: interruption and supervision flags
# ---------------------------------------------------------------------- #
class TestCliSupervision:
    def test_keyboard_interrupt_exits_130_with_resume_hint(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.orchestrate import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_campaign", interrupted)
        code = cli.main(["run", "threshold_formulas", "--store", str(tmp_path)])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "resume" in err

    def test_cell_timeout_and_retries_flags_build_the_policy(
        self, tmp_path, monkeypatch
    ):
        from repro.orchestrate import cli
        from repro.orchestrate.runner import ExecutionReport

        captured = {}

        def fake_run(campaign, store, **kwargs):
            captured.update(kwargs)
            return ExecutionReport(campaign=campaign.name)

        monkeypatch.setattr(cli, "run_campaign", fake_run)
        code = cli.main(
            [
                "run",
                "threshold_formulas",
                "--store",
                str(tmp_path),
                "--cell-timeout",
                "7.5",
                "--retries",
                "4",
            ]
        )
        assert code == 0
        assert captured["policy"] == SupervisionPolicy(cell_timeout=7.5, max_retries=4)

    def test_no_flags_means_no_policy(self, tmp_path, monkeypatch):
        from repro.orchestrate import cli
        from repro.orchestrate.runner import ExecutionReport

        captured = {}

        def fake_run(campaign, store, **kwargs):
            captured.update(kwargs)
            return ExecutionReport(campaign=campaign.name)

        monkeypatch.setattr(cli, "run_campaign", fake_run)
        assert cli.main(["run", "threshold_formulas", "--store", str(tmp_path)]) == 0
        assert captured["policy"] is None
