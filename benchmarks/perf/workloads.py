"""The benchmark's workloads; run as a child process by ``run.py``.

``python workloads.py NAME --seed N --seconds S --trace 0|1 --t0 T``
sets the workload up, performs operations for about ``S`` seconds (it
starts no operation it expects to end more than half an operation past
them, and always performs one) and prints one JSON report as its last
line of standard output.  ``T`` is the parent's ``time.monotonic()`` at
spawn, so set-up time runs from the moment the child was started.
``--setup-only`` stops after set-up (``run.py`` takes the median of
several set-ups).

Times are reported in reference seconds (``hostspeed.py``): the child
samples the host's speed from its start, and every interval it reports
is scaled by the speed sampled inside it.  The raw wall times are
reported beside them.

Every workload checks its outputs.  The flow inputs are pinned, because
a flow's cost moves by more than the regression bound from one flow
seed to the next: g208 with hardware took 4.9-7.3 s over flow seeds
1-10, and an s27 job 0.05-0.17 s of CPU (31-67 full simulations) over
twenty job seeds.  The flows run at flow seed 1, the configuration
recorded in ``golden.json``, and every server serves the same
:data:`JOB_SEEDS`.  ``--seed`` rotates the sweep order of the Table-6
workloads; the other two do not depend on it.

With ``--trace 1`` the in-process workloads alternate untraced and
traced operations (one in three untraced): the traced ones feed the
per-layer metrics, and the two medians give the tracing overhead.
``serve_s27`` serves its job batches on untraced servers for half the
time and then again on traced servers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

#: The suite of the two Table-6 workloads (paper L_G, flow seed 1).
#: g208 and g344 are left out: with them one cold sweep takes 25-35 s,
#: which does not fit a run.  g208 is covered by ``flow_hw_g208``.
TABLE6_SUITE = ("s27", "g298", "g386")
TABLE6_LG = 2000
HW_CIRCUIT = "g208"
HW_LG = 512
FLOW_SEED = 1
SERVE_CLIENTS = 2
#: The jobs every server is sent, one per job seed, in this order.
#: Every cache write of a job rescans the server's whole artifact cache
#: (``ArtifactCache.put``), so a job's cost grows with the jobs its
#: server served before; the same jobs in the same order on every fresh
#: server make every run measure the same server states, whatever its
#: length.  A shuffled order moved the median latency of a run by 8%
#: (over some 50 jobs of 0.1-1.1 s).
JOB_SEEDS = tuple(range(FLOW_SEED, FLOW_SEED + 10))

#: The workloads, each with its set-up samples per run (the warm set-up
#: is a whole cold sweep, so one).
WORKLOADS: Dict[str, int] = {
    "flow_hw_g208": 5,
    "table6_cold": 5,
    "table6_warm": 1,
    "serve_s27": 5,
}


def time_left(deadline: float, durations: List[float]) -> bool:
    """Whether to start another operation: one as long as the median so
    far would end less than half an operation past ``deadline``.
    Always true before the first."""
    if not durations:
        return True
    return time.monotonic() + statistics.median(durations) / 2 <= deadline


# -- correctness --------------------------------------------------------------


def flow_digest(flow: Any) -> str:
    """Digest of a flow's outputs: Table-6 row, Omega, kept list, T."""
    from repro.sim.values import to_char

    body = {
        "table6": asdict(flow.table6),
        "omega": [str(entry.assignment) for entry in flow.procedure.omega],
        "kept": [str(a) for a in flow.reverse_order.kept],
        "sequence": [
            "".join(to_char(v) for v in row) for row in flow.sequence
        ],
    }
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def flow_problems(
    flow: Any, expected: Optional[str], hardware: bool = False
) -> List[str]:
    """What is wrong with one flow's outputs (empty when correct)."""
    name = flow.table6.circuit
    problems = []
    digest = flow_digest(flow)
    if expected is not None and digest != expected:
        problems.append(f"{name}: digest {digest[:12]} != {expected[:12]}")
    if hardware and flow.tpg_verified is not True:
        problems.append(f"{name}: TPG replay not verified")
    return problems


def load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())["digests"]


# -- in-process workloads ---------------------------------------------------


class FlowHw:
    """``run_full_flow("g208")`` with TPG synthesis, jobs=1, no cache."""

    def __init__(self) -> None:
        from repro import FlowConfig, ProcedureConfig

        self.config = FlowConfig(
            seed=FLOW_SEED,
            procedure=ProcedureConfig(l_g=HW_LG),
            synthesize_hardware=True,
        )
        self.expected = load_golden()["flow_hw_g208"][HW_CIRCUIT]

    def op(self) -> List[Any]:
        from repro import RuntimeContext, run_full_flow

        with RuntimeContext(jobs=1) as rt:
            return [run_full_flow(HW_CIRCUIT, self.config, runtime=rt)]

    def problems(self, flows: List[Any]) -> List[str]:
        return flow_problems(flows[0], self.expected, hardware=True)

    def close(self) -> None:
        pass


class Table6:
    """The Table-6 sweep over :data:`TABLE6_SUITE`, jobs=2.

    Cold: every operation starts from an empty cache directory.  Warm:
    set-up runs one cold sweep, and every operation re-runs the sweep
    against the cache it left.
    """

    def __init__(self, seed: int, warm: bool) -> None:
        from repro import FlowConfig, ProcedureConfig

        self.config = FlowConfig(
            seed=FLOW_SEED, procedure=ProcedureConfig(l_g=TABLE6_LG)
        )
        shift = seed % len(TABLE6_SUITE)
        self.order = TABLE6_SUITE[shift:] + TABLE6_SUITE[:shift]
        self.expected = dict(load_golden()["table6"])
        self.warm = warm
        self.base = tempfile.mkdtemp(prefix="table6-", dir=WORK)
        self.cold_problems: List[str] = []
        if warm:
            cold = self._sweep()
            self.cold_problems = self.problems(cold)
            # Warm rows must equal the cold rows this cache came from.
            self.expected = {
                flow.table6.circuit: flow_digest(flow) for flow in cold
            }

    def _sweep(self) -> List[Any]:
        from repro import RuntimeContext, run_full_flow

        # Cold sweeps get a fresh directory, removed in close() outside
        # the timed region; warm sweeps reuse the one set-up filled.
        if self.warm:
            cache_dir = os.path.join(self.base, "cache")
        else:
            cache_dir = tempfile.mkdtemp(dir=self.base)
        with RuntimeContext(jobs=2, cache_dir=cache_dir) as rt:
            return [
                run_full_flow(name, self.config, runtime=rt)
                for name in self.order
            ]

    def op(self) -> List[Any]:
        return self._sweep()

    def problems(self, flows: List[Any]) -> List[str]:
        out = []
        if [f.table6.circuit for f in flows] != list(self.order):
            out.append(f"sweep order {[f.table6.circuit for f in flows]}")
        for flow in flows:
            out += flow_problems(flow, self.expected.get(flow.table6.circuit))
        return out

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def measure_ops(
    workload: Any, seconds: float, trace: bool, host: HostSpeed
) -> Dict[str, Any]:
    """Run operations for ``seconds``, checking each one's outputs (the
    list of ``FlowResult``s an operation returns)."""
    from instrument import (
        OP_SPAN, add_facts, flow_facts, install, layer_metrics,
    )
    from layers import Recorder

    rec = Recorder() if trace else None
    facts: Dict[str, float] = {}
    windows: Dict[bool, List[Tuple[float, float]]] = {False: [], True: []}
    raw: List[float] = []
    problems: List[str] = []
    failed = attempted = 0
    deadline = time.monotonic() + seconds
    while time_left(deadline, raw):
        # Traced, untraced, traced, ...: a lone operation is traced.
        on = rec is not None and attempted % 3 != 1
        attempted += 1
        if on:
            install(rec)
        t0 = time.monotonic()
        try:
            if on:
                with rec.span(OP_SPAN):
                    out = workload.op()
            else:
                out = workload.op()
            t1 = time.monotonic()
            found = workload.problems(out)
            if on:
                add_facts(facts, flow_facts(out))
        except Exception:
            t1 = time.monotonic()
            found = [traceback.format_exc(limit=3).strip()]
        finally:
            if on:
                rec.unwrap_all()
        windows[on].append((t0, t1))
        raw.append(t1 - t0)
        if found:
            failed += 1
            problems += found
    untraced = [host.ref_seconds(*w) for w in windows[False]]
    traced = [host.ref_seconds(*w) for w in windows[True]]
    report: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "durations": untraced,
        "raw_durations": [t1 - t0 for t0, t1 in windows[False]],
    }
    if rec is not None:
        overhead = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced
            else 0.0
        )
        report["traced_durations"] = traced
        report["layers"] = to_reference(
            layer_metrics(
                rec.dump(), facts, len(traced), overhead_frac=overhead
            ),
            windows[True], host,
        )
    else:
        report["e2e"] = {
            "wall_ref_s": statistics.median(untraced),
            "jobs_per_ref_s": statistics.median(1.0 / d for d in untraced),
        }
    return report


def to_reference(
    layers: Dict[str, float], windows: List[Tuple[float, float]],
    host: HostSpeed,
) -> Dict[str, float]:
    """Per-layer metrics in reference seconds: every time scaled, every
    rate divided, by the host's mean speed over the traced
    ``windows``; the speed itself is ``host.speed``."""
    from instrument import PER_LAYER

    wall = sum(t1 - t0 for t0, t1 in windows)
    speed = sum(host.ref_seconds(*w) for w in windows) / wall if wall else 1.0
    out = {}
    for name, value in layers.items():
        unit = PER_LAYER[name][0]
        if unit == "s":
            value *= speed
        elif unit.endswith("/s"):
            value /= speed
        out[name] = value
    out["host.speed"] = speed
    return out


# -- serve --------------------------------------------------------------------


class Server:
    """A ``repro serve`` child process on an ephemeral port.

    Traced servers start through ``serve_entry.py``, which wraps the
    layers before handing over to the real CLI and writes the recorder
    dump to ``dump`` when the server has drained.
    """

    def __init__(self, state_dir: str, dump: Optional[str] = None) -> None:
        serve_args = ["serve", "--port", "0", "--state-dir", state_dir]
        if dump is None:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            entry = str(HERE / "serve_entry.py")
            cmd = [sys.executable, entry, "--dump", dump, "--"] + serve_args
        self.log_path = os.path.join(state_dir, "server.log")
        os.makedirs(state_dir, exist_ok=True)
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(),
            text=True,
        )
        try:
            self.url = self._await_ready(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, timeout_s: float) -> str:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                marker = "listening on "
                if marker in line:
                    return line.split(marker, 1)[1].split()[0]
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def stop(self) -> int:
        """Drain (SIGTERM) and reap the server; returns its exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return code


def closed_loop(
    url: str, seeds: List[int]
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Two clients, each submitting its next job when the last is done,
    until one job per seed in ``seeds`` has been sent."""
    from repro.errors import RateLimited
    from repro.serve import ServeClient
    from repro.serve.job import JobSpec

    lock = threading.Lock()
    pending = list(reversed(seeds))
    jobs: List[Dict[str, Any]] = []
    problems: List[str] = []

    def client_loop(index: int) -> None:
        client = ServeClient(url, timeout_s=60.0, client_id=f"bench-{index}")
        while True:
            with lock:
                if not pending:
                    return
                seed = pending.pop()
            spec = JobSpec(circuit="s27", seed=seed)
            retries = 0
            t0 = time.monotonic()
            try:
                while True:
                    try:
                        record = client.submit(spec)
                        break
                    except RateLimited as exc:
                        retries += 1
                        time.sleep(max(exc.retry_after_s, 0.01))
                t1 = time.monotonic()
                key = str(record["key"])
                for _ in client.watch(key, timeout_s=120.0):
                    pass
                done = time.monotonic()
            except Exception as exc:
                with lock:
                    problems.append(f"job seed {seed}: {exc}")
                    jobs.append({"seed": seed, "key": None})
                continue
            with lock:
                jobs.append({
                    "seed": seed, "key": key, "submit0": t0, "submit1": t1,
                    "done": done, "retries_429": retries,
                })

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs, problems


def check_served(url: str, jobs: List[Dict[str, Any]]) -> List[str]:
    """Every job is done; the first and last served results equal an
    in-process flow of the same spec, byte for byte (results are the
    canonical bytes of a deterministic flow).  Each job's record
    ``stats`` (runtime counters, stage seconds) is kept on the job."""
    from repro import run_full_flow
    from repro.serve import ServeClient
    from repro.serve.job import JobSpec
    from repro.serve.results import flow_result_payload, render_result

    client = ServeClient(url, timeout_s=60.0)
    problems = []
    ok = [job for job in jobs if job["key"] is not None]
    for job in ok:
        record = client.job(job["key"])
        job["stats"] = record.get("stats", {})
        state = record.get("state")
        if state != "done":
            problems.append(f"job seed {job['seed']}: state {state}")
    for index in sorted({0, len(ok) - 1}) if ok else []:
        job = ok[index]
        spec = JobSpec(circuit="s27", seed=job["seed"])
        local = render_result(
            flow_result_payload(run_full_flow("s27", spec.flow_config()))
        )
        if client.result_bytes(job["key"]) != local:
            problems.append(f"job seed {job['seed']}: served bytes differ")
    return problems


def serve_phase(seeds: List[int], traced: bool, tag: str) -> Dict[str, Any]:
    """One server life: start, serve one job per seed, check, drain."""
    state_dir = tempfile.mkdtemp(prefix=f"serve-{tag}-", dir=WORK)
    dump_path = os.path.join(state_dir, "layers.json") if traced else None
    try:
        server = Server(os.path.join(state_dir, "state"), dump_path)
        ready_at = time.monotonic()
        try:
            jobs, problems = closed_loop(server.url, seeds)
            problems += check_served(server.url, jobs)
        finally:
            code = server.stop()
        if code != 0:
            problems.append(f"server exited with {code}")
        dump = None
        if dump_path is not None:
            dump = json.loads(Path(dump_path).read_text())
        done = [job for job in jobs if job["key"] is not None]
        window = (
            (min(j["submit0"] for j in done), max(j["done"] for j in done))
            if done
            else (ready_at, ready_at)
        )
        return {
            "jobs": jobs, "done": done, "problems": problems, "dump": dump,
            "ready_at": ready_at, "window": window,
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def per_job(
    phases: List[Dict[str, Any]], host: Optional[HostSpeed]
) -> List[float]:
    """Seconds per served job of each server life: its serving window
    (first submit to last job done) over its jobs done; reference
    seconds given a ``host``, else wall seconds."""
    out = []
    for phase in phases:
        if phase["done"]:
            t0, t1 = phase["window"]
            seconds = host.ref_seconds(t0, t1) if host else t1 - t0
            out.append(seconds / len(phase["done"]))
    return out


def measure_serve(
    seconds: float, trace: bool, host: HostSpeed
) -> Dict[str, Any]:
    """Server lives in turn for ``seconds``, each serving its own batch
    of the :data:`JOB_SEEDS` jobs.

    A server life is one operation, timed per job it served.  Single job
    latencies are too spread for a run's median to repeat: they run from
    0.1 to 1.1 s, and the median of some 50 moved by 7-11% from run to
    run where the time per job moved by 2-4%.  Their median is a
    per-layer metric.
    """
    from instrument import (
        EXECUTE_SPAN, job_facts, layer_metrics, serve_metrics,
    )
    from layers import merge_dumps

    # Traced: as many servers untraced and then traced, each half the
    # time, so the two medians differ only by tracing.
    deadline = time.monotonic() + (seconds / 2 if trace else seconds)
    plain: List[Dict[str, Any]] = []
    lives: List[float] = []
    while time_left(deadline, lives):
        t0 = time.monotonic()
        plain.append(serve_phase(list(JOB_SEEDS), False, "plain"))
        lives.append(time.monotonic() - t0)
    traced = [
        serve_phase(list(JOB_SEEDS), True, "traced") for _ in plain if trace
    ]
    jobs = [job for phase in plain + traced for job in phase["jobs"]]
    problems = [p for phase in plain + traced for p in phase["problems"]]
    untraced = per_job(plain, host)
    report: Dict[str, Any] = {
        "attempted": max(len(jobs), len(problems)),
        "failed": len(problems),
        "problems": problems,
        "ready_at": plain[0]["ready_at"],
        "durations": untraced,
        "raw_durations": per_job(plain, None),
    }
    if trace:
        done = [job for phase in traced for job in phase["done"]]
        dump = merge_dumps([phase["dump"] for phase in traced])
        traced_times = per_job(traced, host)
        overhead = (
            statistics.median(traced_times) / statistics.median(untraced) - 1
            if untraced and traced_times
            else 0.0
        )
        report["traced_durations"] = traced_times
        report["layers"] = to_reference(
            layer_metrics(
                dump,
                job_facts(job["stats"] for job in done),
                len(done),
                root=EXECUTE_SPAN,
                serve=serve_metrics(
                    [(phase["dump"], phase["done"]) for phase in traced]
                ),
                overhead_frac=overhead,
            ),
            [phase["window"] for phase in traced], host,
        )
    elif untraced:
        report["e2e"] = {
            "wall_ref_s": statistics.median(untraced),
            "jobs_per_ref_s": statistics.median(1.0 / d for d in untraced),
        }
    return report


def serve_setup_only() -> float:
    """Start and drain a server; returns the moment it was ready."""
    state_dir = tempfile.mkdtemp(prefix="serve-setup-", dir=WORK)
    try:
        server = Server(os.path.join(state_dir, "state"))
        ready_at = time.monotonic()
        server.stop()
        return ready_at
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


# -- entry point --------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment for processes that import the package from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run(
    name: str, seed: int, seconds: float, trace: bool, t0: float,
    setup_only: bool, host: HostSpeed,
) -> Dict[str, Any]:
    import repro  # noqa: F401  (import time is part of set-up)

    WORK.mkdir(exist_ok=True)

    def setup(ready_at: float) -> Dict[str, float]:
        return {
            "setup_s": host.ref_seconds(t0, ready_at),
            "raw_setup_s": ready_at - t0,
        }

    if name == "serve_s27":
        # Set-up ends when the first server answers.
        if setup_only:
            return setup(serve_setup_only())
        report = measure_serve(seconds, trace, host)
        report.update(setup(report.pop("ready_at")))
        return report
    factories: Dict[str, Callable[[], Any]] = {
        "flow_hw_g208": FlowHw,
        "table6_cold": lambda: Table6(seed, warm=False),
        "table6_warm": lambda: Table6(seed, warm=True),
    }
    workload = factories[name]()
    try:
        ready = setup(time.monotonic())
        if setup_only:
            return ready
        report = measure_ops(workload, seconds, trace, host)
        cold = getattr(workload, "cold_problems", [])
        if cold:
            report["problems"] += cold
            report["failed"] += 1
        report.update(ready)
        return report
    finally:
        workload.close()


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    host = HostSpeed()
    host.start()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        report = run(
            args.workload, args.seed, args.seconds, bool(args.trace), t0,
            args.setup_only, host,
        )
    finally:
        host.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
