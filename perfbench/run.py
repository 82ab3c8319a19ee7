"""The textkg benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload triples-replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run of ``run_pipeline`` is a batch job over a whole generated corpus in
a fresh interpreter (``child.py``), repeated for ``--seconds``. Every run's
manifest counts and artifact digests are checked. With ``--trace 0`` the
command reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics. ``--workload
all`` interleaves the three workloads round-robin, ``--seconds`` each. A
report with median, quartiles and sample count goes to stderr; the last line
of stdout is one JSON object with the medians. The exit code is 1 when a run
fails or its output check does, and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from statistics import median

from spans import layer_metrics
from summary import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

END_TO_END = {
    "setup_s": "s",
    "articles_per_s": "1/s",
    "cpu_ms_per_article": "ms",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}
MIN_RUNS = 3  # untraced runs per workload, whatever --seconds says
# child.calibrate() time on the reference host (2 vCPUs, Python 3.11); time metrics
# are scaled to it so that host drift between runs cancels out
CALIBRATION_REFERENCE_S = 0.05
CHILD_TIMEOUT_S = 100


class RunFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _child(*args: str) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"pipeline run exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"pipeline run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_speed(calibrations: list[float]) -> float:
    """Host speed during a run relative to the reference host, from the
    calibrations taken just before and just after it; below 1 when slower."""
    return CALIBRATION_REFERENCE_S / (sum(calibrations) / len(calibrations))


def normalized_times(wall: float, cpu: float, speed: float) -> tuple[float, float]:
    """(wall, cpu) seconds scaled to the reference host. CPU time scales with
    host speed; the rest of the wall time (waiting on the backend) does not."""
    on_cpu = min(cpu, wall)
    return wall - on_cpu * (1.0 - speed), cpu * speed


def source_digest() -> str:
    """Hash of the program and the input generator: what the inputs and the
    reference artifacts depend on."""
    digest = hashlib.sha256()
    for path in [*sorted((SRC / "textkg").rglob("*")), HERE / "workloads.py"]:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(run_dir: Path, base_url: str | None = None) -> tuple[dict[str, str], int]:
    """SHA-256 of every file under run_dir, and their total size in bytes.

    The loopback server's port differs between invocations, so its base URL
    is replaced by a placeholder before hashing, and the manifest is hashed
    without its config_hash; the caller checks config_hash separately.
    """
    digests, size = {}, 0
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        size += len(data)
        name = path.relative_to(run_dir).as_posix()
        if base_url:
            data = data.replace(base_url.encode(), b"<loopback>")
        if name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("config_hash", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[name] = _sha256(data)
    return digests, size


def _quartile_line(name: str, unit: str, values: list[float]) -> str:
    q1, middle, q3 = quartiles(values)
    return f"  {name:<34} {middle:>14.6g} {unit:<6} q1={q1:.6g} q3={q3:.6g} n={len(values)}"


class Workload:
    """One workload's inputs, server, samples and output check."""

    def __init__(self, name: str, seed: int, work: Path):
        import workloads

        self.name, self.seed = name, seed
        self.directory = self._prepare(work / "data", workloads)
        self.expected = json.loads((self.directory / "expected.json").read_text())
        self.articles = self.expected["articles"]
        self.reference_path = work / "digests" / f"{name}-{seed}.json"
        self.reference = (
            json.loads(self.reference_path.read_text()) if self.reference_path.is_file() else None
        )
        self.server: subprocess.Popen | None = None
        self.base_url = None
        if name == "triples-live":
            self._start_server()
            workloads.write_config(self.directory, name, self.base_url)
        self.config = self.directory / "config.json"
        self.workers = json.loads(self.config.read_text()).get("workers", 1)
        self.samples: dict[str, list[float]] = {}
        self.layers: dict[str, list[float]] = {}
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.attempted = self.failed = 0
        self.error: str | None = None

    def _prepare(self, data: Path, workloads) -> Path:
        """Generate the inputs for (workload, seed) once; keep one seed per workload."""
        directory = data / f"{self.name}-{self.seed}"
        if (directory / "expected.json").is_file():
            return directory
        if data.is_dir():
            for stale in data.iterdir():
                if stale.name.rsplit("-", 1)[0].lstrip(".") == self.name:
                    shutil.rmtree(stale)
        staging = data / f".{self.name}-{self.seed}"
        workloads.generate(self.name, self.seed, staging)
        staging.rename(directory)
        return directory

    def _start_server(self) -> None:
        self.server = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "loopback.py"),
                "--fixtures",
                str(self.directory / "fixtures"),
                "--lookup",
                str(self.directory / "lookup.json"),
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.server.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RunFailed("the loopback server did not start")
        self.base_url = f"http://127.0.0.1:{line[1]}"

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    def _server_counters(self) -> dict | None:
        if self.server is None:
            return None
        with urllib.request.urlopen(f"{self.base_url}/__stats", timeout=10) as response:
            return json.loads(response.read())

    def _check(self, result: dict) -> int:
        """Check one run's outputs; returns the bytes written under run_dir."""
        manifest = result["manifest"]
        for stage, counts in self.expected["stages"].items():
            for key, value in counts.items():
                actual = manifest["stages"].get(stage, {}).get(key)
                if actual != value:
                    raise RunFailed(f"manifest {stage}.{key} is {actual!r}, expected {value!r}")
        if manifest.get("config_hash") != _sha256(self.config.read_bytes()):
            raise RunFailed("manifest config_hash does not match the config file")
        digests, size = artifact_digests(self.directory / "run", self.base_url)
        if self.reference is None:
            self.reference = digests
            self.reference_path.parent.mkdir(parents=True, exist_ok=True)
            staging = self.reference_path.with_suffix(".tmp")
            staging.write_text(json.dumps(digests, indent=1, sort_keys=True))
            staging.replace(self.reference_path)
        elif digests != self.reference:
            changed = sorted({name for name, _ in set(digests.items()) ^ set(self.reference.items())})
            shown = ", ".join(changed[:5]) + (f" and {len(changed) - 5} more" if len(changed) > 5 else "")
            raise RunFailed(f"artifacts differ from an earlier run: {shown}")
        return size

    def _operations(self, server: dict | None) -> tuple[int, int]:
        """(attempted, failed) backend generations and lookups of one run.

        Replay runs make exactly the generated number. Against the loopback
        server, a request it never saw failed to connect, and a reply other
        than 200 failed too.
        """
        expected = self.expected["operations"]["generations"] + self.expected["operations"]["lookups"]
        if server is None:
            return expected, 0
        served = server["chat_requests"] + server["lookup_requests"]
        return max(expected, served), server["non_200"] + max(0, expected - served)

    def _server_delta(self, before: dict | None) -> dict | None:
        after = self._server_counters()
        return None if after is None else {key: after[key] - before[key] for key in after}

    def iterate(self, traced: bool) -> None:
        run_dir = self.directory / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        (self.directory / "link_cache.json").unlink(missing_ok=True)
        spans_path = self.directory / "spans.json"
        spans_path.unlink(missing_ok=True)
        before = self._server_counters()
        try:
            result = _child(str(self.config), *(("--spans", str(spans_path)) if traced else ()))
        except RunFailed as exc:
            attempted, _ = self._operations(self._server_delta(before))
            self.attempted += attempted
            self.failed += attempted
            self.error = str(exc)
            return
        self.layers.setdefault("host.calibration_s", []).extend(result["calibration_s"])
        server = self._server_delta(before)
        attempted, failed = self._operations(server)
        try:
            if failed:
                raise RunFailed(f"{failed} of {attempted} backend operations failed")
            size = self._check(result)
            if traced:
                metrics = layer_metrics(json.loads(spans_path.read_text()), result["manifest"], self.workers, server)
        except (RunFailed, ValueError) as exc:
            failed = attempted
            self.error = str(exc)
        self.attempted += attempted
        self.failed += failed
        if self.error:
            return

        if traced:
            self.traced_walls.append(metrics.pop("trace.wall_s"))
            for name, value in metrics.items():
                self.layers.setdefault(name, []).append(value)
            return
        self.untraced_walls.append(result["wall_s"])
        speed = host_speed(result["calibration_s"])
        wall, cpu = normalized_times(result["wall_s"], result["cpu_s"], speed)
        for name, value in (
            ("setup_s", result["setup_s"] * speed),
            ("articles_per_s", self.articles / wall),
            ("cpu_ms_per_article", cpu * 1e3 / self.articles),
            ("peak_rss_mb", result["maxrss_kb"] * 1024 / 1e6),
            ("artifact_mb", size / 1e6),
            ("raw articles_per_s", self.articles / result["wall_s"]),
            ("raw cpu_ms_per_article", result["cpu_s"] * 1e3 / self.articles),
            ("raw setup_s", result["setup_s"]),
        ):
            self.samples.setdefault(name, []).append(value)

    def done(self, trace: bool) -> bool:
        if trace:
            return bool(self.traced_walls) and bool(self.untraced_walls)
        return len(self.untraced_walls) >= MIN_RUNS

    def wants_trace(self, trace: bool) -> bool:
        return trace and len(self.traced_walls) < len(self.untraced_walls)

    def results(self, trace: bool) -> dict[str, tuple[list[float], str]]:
        """Metric name -> (samples, unit) for the requested report."""
        if not trace:
            return {name: (self.samples[name], unit) for name, unit in END_TO_END.items() if name in self.samples}
        units = _per_layer_units()
        results = {name: (self.layers[name], units[name]) for name in units if name in self.layers}
        if self.traced_walls and self.untraced_walls:
            overhead = [wall / median(self.untraced_walls) for wall in self.traced_walls]
            results["trace.overhead_ratio"] = (overhead, units["trace.overhead_ratio"])
        results["error_ratio"] = ([self.failed / self.attempted], units["error_ratio"])
        return results


def _per_layer_units() -> dict[str, str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}


def measure(workloads: list[Workload], seconds: float, trace: bool) -> None:
    """Run the workloads round-robin until each has had its share of time
    and its minimum sample count, or one of them fails."""
    deadline = time.monotonic() + seconds * len(workloads)
    while True:
        for workload in workloads:
            workload.iterate(workload.wants_trace(trace))
            if workload.error:
                return
        if time.monotonic() >= deadline and all(w.done(trace) for w in workloads):
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="textkg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the finally blocks below, which stop the server and children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "textkg" / "__init__.py").is_file():
        print(f"perfbench: no textkg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as generators

    names = list(generators.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in generators.WORKLOADS for name in names):
        parser.error(f"--workload must be one of: all, {', '.join(generators.WORKLOADS)}")

    work = WORK / source_digest()
    if WORK.is_dir():
        for stale in WORK.iterdir():
            if stale != work:
                shutil.rmtree(stale)
    # compile the program's bytecode before the first set-up is timed
    if subprocess.run([sys.executable, "-c", "import textkg"], env=_env()).returncode != 0:
        print("perfbench: textkg does not import", file=sys.stderr)
        return 1
    trace = bool(args.trace)
    opened: list[Workload] = []
    try:
        for name in names:
            opened.append(Workload(name, args.seed, work))
        measure(opened, args.seconds, trace)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for workload in opened:
            workload.close()

    metrics = {}
    for workload in opened:
        print(f"{workload.name} (seed {workload.seed}):", file=sys.stderr)
        if workload.error:
            print(f"  FAILED: {workload.error}", file=sys.stderr)
            continue
        prefix = "" if len(opened) == 1 else f"{workload.name}/"
        for name, (values, unit) in workload.results(trace).items():
            print(_quartile_line(name, unit, values), file=sys.stderr)
            metrics[prefix + name] = {"value": median(values), "unit": unit}
        if not trace:
            print("  diagnostics, not normalized to the reference host:", file=sys.stderr)
            print(_quartile_line("host.calibration_s", "s", workload.layers["host.calibration_s"]), file=sys.stderr)
            for name, unit in END_TO_END.items():
                if f"raw {name}" in workload.samples:
                    print(_quartile_line(f"raw {name}", unit, workload.samples[f"raw {name}"]), file=sys.stderr)
    correct = not any(workload.error for workload in opened)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(w.attempted for w in opened),
                "failed": sum(w.failed for w in opened),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
