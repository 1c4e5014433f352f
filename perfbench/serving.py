"""serve-mixed: a ``repro serve`` daemon under an open-loop request mix.

The model is fitted and factorized in this process (``fit_s``,
``factorize_s``, ``solve_s`` as in the other workloads), checkpointed,
and warm-loaded by a daemon subprocess; spawning the daemon and
warm-loading it is part of set-up.  Then one generator (this process,
two connections) sends single right-hand-side solve requests on a
fixed schedule and, every 1.25 s, a lambda ``update``.  Requests are
timed from when they were due.  The load comes in rounds of four such
update cycles, each round served by a daemon spawned for it from the
same checkpoint and preceded by in-process builds, so that every kind
of sample spans the run.  While the daemon refits a model it
un-registers it, so a solve arriving then is refused as evicted (or
finds no resident model); the generator retries such a solve until it
is answered, still timed from when it was first due, and counts the
retries.  Every answer is checked afterwards against this process's copy
of the same H-matrix, at the lambda of the model fingerprint that
answered it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Callable

import numpy as np

from harness import Samples, Tally, build_solver, median, now, out_path, relative_residuals
from workloads import Problem

#: solve requests per second: about an eighth of the 2-connection
#: closed-loop capacity measured at the commit that added this workload
#: (NOTES.md), so that the queue behind an update drains quickly even
#: while other tenants slow the host.
RATE = 8.0
#: seconds between lambda updates: 10 solve periods, each update due
#: halfway between two solves.  So exactly one solve in ten arrives
#: while an update runs and waits for most of it: request_p95_ms falls
#: in the middle of those stalled solves, and request_p50_ms in the
#: middle of the unstalled ones, not on the edge between them (NOTES.md,
#: Load of serve-mixed).
UPDATE_EVERY = 1.25
CONNECTIONS = 2
#: solves per update cycle.
PER_CYCLE = round(UPDATE_EVERY * RATE)
#: update cycles in one round of load, served by one daemon.
CYCLES_PER_ROUND = 4
#: share of ``--seconds`` the rounds of load last together (at least two
#: rounds); the rest of the run's budget goes to the in-process builds,
#: the daemon spawns and the fresh-process set-ups.
LOAD_SHARE = 0.67
#: in-process model builds (fit/factorize/solve samples) before each
#: round and after the last.
BUILDS_PER_ROUND = 2
PANEL_SOLVES = 6
#: a solve refused because its model is being updated is re-sent after
#: this pause, for at most RETRY_FOR seconds before it counts as failed.
RETRY_PAUSE = 0.01
RETRY_FOR = 10.0


class Daemon:
    """A ``python -m repro serve`` subprocess warm-loaded from a checkpoint."""

    def __init__(self, checkpoint: str) -> None:
        from repro.serve import ServeClient

        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--warm", checkpoint],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = None
            for line in self.proc.stdout:
                if "listening on" in line:
                    port = int(line.rsplit(":", 1)[1])
                    break
            if port is None:
                self.proc.wait(timeout=30)
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            self.port = port
            self.client = ServeClient(port=port)
            self.client.ping()
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise

    def connect(self):
        from repro.serve import ServeClient

        return ServeClient(port=self.port)

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.proc.communicate(timeout=30)
        finally:
            self.client.close()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def measure(p: Problem, seconds: float, tally: Tally, info: dict,
            setup: Callable[[], None]):
    """Rounds of load, each after ``setup()`` and in-process builds.

    The first build is checkpointed; every round's daemon warm-loads
    a fresh copy of that checkpoint (spawn + warm-load timed as set-up;
    a daemon re-checkpoints its model after each update, into its own
    copy), so every round starts from the same model at ``p.lam``, and
    that build is the reference every answer is checked against.
    Returns ``(samples, reference solver)``.
    """
    s = Samples()
    rounds = max(2, round(seconds * LOAD_SHARE / (CYCLES_PER_ROUND * UPDATE_EVERY)))
    ckpt = out_path(f"serve-ckpt-{os.getpid()}")
    spawns = []
    ref = None
    try:
        for _ in range(rounds):
            setup()
            for _ in range(BUILDS_PER_ROUND):
                solver = build_solver(p, s, tally, info, solves=PANEL_SOLVES)
                if ref is None:
                    ref = solver
                    t = now()
                    ref.save_checkpoint(ckpt)
                    info["checkpoint_s"] = now() - t
            served = shutil.copytree(ckpt, f"{ckpt}-round")
            try:
                t = now()
                daemon = Daemon(served)
                spawns.append(now() - t)
                try:
                    run = open_loop(daemon, p, CYCLES_PER_ROUND)
                finally:
                    daemon.stop()
            finally:
                shutil.rmtree(served, ignore_errors=True)
            account(p, ref, run, s, tally, info)
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    for _ in range(BUILDS_PER_ROUND):
        build_solver(p, s, tally, info, solves=PANEL_SOLVES)
    setup()
    info["rounds"] = rounds
    info["setup_extra_s"] = median(spawns)
    return s, ref


def schedule(cycles: int, lams: tuple[float, ...]) -> list[tuple]:
    """``(due, kind, arg, cycle)`` events of ``cycles`` update cycles:
    PER_CYCLE solves at RATE and one update, due halfway between two
    solves, in each."""
    events = [(i / RATE, "solve", i, i // PER_CYCLE) for i in range(cycles * PER_CYCLE)]
    events += [((k + 0.5) * UPDATE_EVERY + 0.5 / RATE, "update", lams[k % len(lams)], k)
               for k in range(cycles)]
    return sorted(events, key=lambda e: e[0])


def _refused_during_update(exc: Exception) -> bool:
    """The daemon's replies while the only model is being refitted: the
    resident was evicted mid-flight, or no model is resident at all."""
    from repro.exceptions import ConfigurationError, ResidentEvictedError

    if isinstance(exc, ResidentEvictedError):
        return True
    return isinstance(exc, ConfigurationError) and (
        "holds 0 residents" in str(exc) or "(0 candidates)" in str(exc)
    )


def _call(send, rec: dict):
    """``send()``, re-sent while the daemon refuses it during an update."""
    give_up = now() + RETRY_FOR
    while True:
        try:
            return send()
        except Exception as exc:
            if not _refused_during_update(exc) or now() > give_up:
                raise
            rec["retries"] += 1
            time.sleep(RETRY_PAUSE)


def open_loop(daemon: Daemon, p: Problem, cycles: int) -> dict:
    """Run ``cycles`` update cycles of the request mix; returns every
    event's record."""
    from repro.exceptions import ReproError

    events = schedule(cycles, p.update_lams)
    lock = threading.Lock()
    state = {"next": 0}
    records: list[dict] = []
    t0 = now() + 0.05

    def worker(client) -> None:
        while True:
            with lock:
                if state["next"] >= len(events):
                    return
                due, kind, arg, cycle = events[state["next"]]
                state["next"] += 1
            wait = t0 + due - now()
            if wait > 0:
                time.sleep(wait)
            rec = {"kind": kind, "due": t0 + due, "cycle": cycle, "ok": True, "retries": 0,
                   "sent": now()}
            try:
                if kind == "solve":
                    rec["col"] = arg % p.singles.shape[1]
                    resp = _call(lambda: client.solve(p.singles[:, rec["col"]], info=True), rec)
                    rec["w"] = resp["w"]
                else:
                    resp = _call(lambda: client.update(lam=arg), rec)
                    rec["report"] = resp["report"]
                    rec["ok"] = resp["report"]["mode"] == "lambda"
            except (ReproError, OSError) as exc:
                rec["ok"], rec["error"] = False, repr(exc)
            rec["done"] = now()
            with lock:
                records.append(rec)

    clients = [daemon.client] + [daemon.connect() for _ in range(CONNECTIONS - 1)]
    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        for c in clients[1:]:
            c.close()
    return {"records": records, "health": daemon.client.health()}


def _lams_in_force(p: Problem, records: list[dict]):
    """For each solve record, the lambdas its answer may be at: the one in
    force when it was first sent, and that of every update that ran
    while it was outstanding."""
    updates = sorted((r for r in records if r["kind"] == "update" and r["ok"]),
                     key=lambda r: r["done"])
    out = []
    for r in records:
        if r["kind"] != "solve":
            continue
        lams = {p.lam}
        for u in updates:
            if u["done"] <= r["sent"]:
                lams = {u["report"]["lam"]}
        lams |= {u["report"]["lam"] for u in updates
                 if u["sent"] < r["done"] and u["done"] > r["sent"]}
        out.append((r, tuple(sorted(lams))))
    return out


def account(p: Problem, solver, run: dict, s: Samples, tally: Tally, info: dict) -> None:
    """Latencies into ``s``, one window per update cycle; every response
    checked for failure and residual; counts summed into ``info["serve"]``.

    The daemon does not say which lambda answered a solve, so an answer
    passes if it solves the system at one of the lambdas in force while
    it was outstanding (one, unless an update overlapped it).
    """
    records = run["records"]
    cycles = 1 + max(r["cycle"] for r in records)
    requests: list[list[float]] = [[] for _ in range(cycles)]
    updates: list[list[float]] = [[] for _ in range(cycles)]
    for r in records:
        tally.record(r["kind"], r["ok"], r.get("error", "update did not refit lambda"))
        if not r["ok"]:
            continue
        if r["kind"] == "solve":
            requests[r["cycle"]].append(r["done"] - r["due"])
            s.lag.append(r["sent"] - r["due"])
        else:
            updates[r["cycle"]].append(r["done"] - r["due"])
    s.request += requests
    s.update += updates
    groups: dict[tuple, list[dict]] = {}
    for r, lams in _lams_in_force(p, [r for r in records if r["ok"]]):
        groups.setdefault(lams, []).append(r)
    for lams, rs in groups.items():
        cols = [r["col"] for r in rs]
        W = np.stack([r["w"] for r in rs], axis=1)
        U = p.singles[:, cols]
        res = np.min([relative_residuals(solver, lam, U, W) for lam in lams], axis=0)
        tally.check_residuals("request", res, p.residual_tol)
    health = run["health"]
    shed = int(health["shed"]) + int(health["coalescer"]["shed_expired"])
    tally.record("admission", shed == 0, f"{shed} requests shed")
    co = health["coalescer"]
    served = info.setdefault("serve", {
        "requests": 0, "batches": 0, "shed": 0, "retries": 0, "overlapped": 0, "updates": [],
    })
    served["requests"] += co["requests"]
    served["batches"] += co["batches"]
    served["shed"] += shed
    served["retries"] += sum(r["retries"] for r in records)
    served["overlapped"] += sum(len(rs) for lams, rs in groups.items() if len(lams) > 1)
    served["updates"] += [r.get("report") for r in records if r["kind"] == "update"]
