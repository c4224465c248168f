"""mubkit benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mubkit is taken from src/.  One
client keeps one op in flight: each op is a fresh child process, timed
from spawn to exit, and the next op starts after its output is checked.
The stream runs whole rounds of ops (see plan.py) until S seconds have
passed.  Checks of outputs run between ops, off the clock.

Times are calibrated.  On a shared host the speed of a CPU changes by a
third or more within seconds, and a run of S seconds sees only part of
that, so raw wall times of the same code differ from run to run by more
than any bound worth setting.  Every child is pinned to one CPU, and
speedometer.py, pinned to the same CPU, takes a tenth of it to time a
fixed chunk of pure-Python work over and over.  Each child's wall time
is scaled by NOMINAL_CHUNK_S over the mean CPU time of the chunks that
ran while it did.  A reported second is thus a second on that CPU when a
chunk takes NOMINAL_CHUNK_S, about its usual time on the 2-CPU Xeon host
the bounds were set on, with the probe's tenth of the CPU included.
Measured there over ten seeds, it took the spread of op_p50_s from 0.06
to 0.20 of the median down to 0.02 to 0.06.  Raw medians and the chunk
times are printed above the result line.

Workloads (the seed picks each op's inputs; the program sees only argv
and files):

  census-d8     `squares search --d 8 --format json`: the heaviest command;
                cover, set typing, materialization and serialization.
  mub-stream    `mub gen` over seeded (type, v1, v2, basis) at d = 4 and 8,
                `mub structure` at d = 8 and the README-default `squares
                gen` / `mub gen`: short ops in pauli and mub, no search.
  verify-files  `squares verify`, `squares classify`, `mub verify` on set-up
                files up to d = 16, negatives (exit 1) and malformed
                documents (exit 2), and the d = 4 census.
  library-d16   library calls in fresh processes: enumerating the
                extraordinary subgroups of F_16 x F_16, and building the
                MUB set of a seeded type I set at d = 16.

With --trace 0 the last line reports, for the timed stream:
  setup_s       median calibrated wall time of the set-ups (plan.py, each
                in a fresh process, three to seven of them): drawing ops
                and writing input files
  ops_per_s     ops completed per second of calibrated op time
  op_p50_s      median calibrated op wall time
  peak_rss_mb   largest peak RSS of any op, from that child's own rusage

With --trace 1 the first ops of the stream (one census, one round of
mub-stream and library-d16, two rounds of verify-files) run twice, plain
and with spans (child.py), in alternating order; the last line reports per-layer self
times and counts.  Times are means per traced op, counts are totals over
the traced ops, so counts repeat exactly for a seed.

Lines before the last give op_tail_s (when a run holds 20 ops or more),
fail_ratio by op kind, and the run's provenance; the per-op records go to
.perfbench/records/.  Probes, run once outside the stream, cover known
defects: their failures are reported there but do not count in `failed`.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from itertools import count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402

WORKLOADS = ("census-d8", "mub-stream", "verify-files", "library-d16")
SETUP_LEAST, SETUP_MOST, SETUP_BUDGET_S = 3, 7, 1.0
PIN_CPU = max(os.sched_getaffinity(0))
NOMINAL_CHUNK_S = 0.00175
TRACE_OPS = {"census-d8": 1, "mub-stream": 20, "verify-files": 20, "library-d16": 3}
LAYERS = ("cli", "gf2n", "phasespace", "squares", "pauli", "mub", "serialize")
TIME_GROUPS = (
    "phasespace.enumerate_s", "squares.search_s", "squares.templates_s", "squares.verify_s",
    "mub.eigenbasis_s", "mub.correspondence_s", "mub.certificate_s", "mub.census_s",
    "serialize.encode_s", "serialize.dump_s", "serialize.decode_s",
)
COUNTS = (
    "gf2n.fields_built", "phasespace.subspaces_scanned", "phasespace.extraordinary_kept",
    "phasespace.subgroups_built", "phasespace.subgroups_distinct", "squares.supersquares_built",
    "squares.sets_found", "squares.predicate_calls", "pauli.operators_built", "pauli.matmuls",
    "mub.unbiased_pairs", "serialize.bytes_out", "serialize.bytes_in",
)
RUN_LIMIT_S = 160  # every child is killed by then, so a run ends within 180 s
NEW_ROUND_LIMIT_S = 110  # no round starts later than this


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MUBKIT_WORKERS"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Every op compiles mubkit afresh, whatever the caller's environment.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    """Runs one child at a time through spawner.py, which reports each
    child's wall time and its own rusage."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, argv: list[str], cwd: str, stderr_path: str) -> dict:
        timeout = max(1.0, RUN_LIMIT_S - (monotonic() - self.started))
        request = {"argv": argv, "cwd": cwd, "stderr": stderr_path, "timeout": timeout,
                   "cpu": PIN_CPU}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process died")
        return json.loads(line)

    def close(self) -> None:
        """Ends the spawner, which kills and reaps a child still running."""
        self.spawner.terminate()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdin.close()
        self.spawner.stdout.close()


class Speedometer:
    """Runs speedometer.py on PIN_CPU, the CPU every child is pinned to,
    and calibrates a child's wall time by the probe's chunks that ran
    while the child did."""

    def __init__(self, workdir: str, until: float) -> None:
        self.path = os.path.join(workdir, "speed.txt")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speedometer.py"), str(PIN_CPU), self.path,
             repr(until)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        self.ends: list[float] = []
        self.chunks: list[float] = []

    def wait_started(self) -> None:
        deadline = monotonic() + 10
        while not (os.path.exists(self.path) and os.path.getsize(self.path)):
            if monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the speedometer did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                rows = sorted(tuple(map(float, line.split())) for line in fh if line.strip())
            self.ends = [t for t, _ in rows]
            self.chunks = [c for _, c in rows]

    def chunk_s(self, start: float, end: float) -> float:
        """Mean CPU time of the chunks that ended in [start, end], or of
        the nearest ones when fewer than two did."""
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.ends), hi + 1)
        if lo >= hi:
            raise RuntimeError("the speedometer recorded no chunks")
        return statistics.fmean(self.chunks[lo:hi])

    def calibrate(self, result: dict) -> tuple[float, float]:
        chunk = self.chunk_s(result["spawned"], result["spawned"] + result["wall_s"])
        return result["wall_s"] * NOMINAL_CHUNK_S / chunk, chunk


class Checker:
    """Checks one op's exit code and output against its expectation.

    Independent checks are cached by output digest: identical bytes get
    the verdict the first copy got."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.expected_kinds: dict[str, list[str]] = {}

    def input_failures(self, inputs: list[dict]) -> list[str]:
        """Set-up documents must pass or fail the independent checks as
        planned, or the expected exit codes would be wrong."""
        out = []
        for item in inputs:
            doc = self._load(item["path"])
            check = {"set": checks.check_set, "square": checks.check_square,
                     "mub": checks.check_mub}[item["doc"]]
            if (not check(doc, item["d"])) != item["valid"]:
                out.append(f"input {item['path']} is not {'valid' if item['valid'] else 'invalid'}")
        return out

    def _load(self, name: str):
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def __call__(self, op: dict, result: dict) -> list[str]:
        data = None
        if op.get("out"):
            path = os.path.join(self.workdir, op["out"])
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                os.remove(path)
        want = op.get("rc", 0)
        if result["timed_out"]:
            return ["timed out"]
        if result["rc"] != want:
            return [f"exit {result['rc']}, expected {want}"]
        if not op.get("out"):
            return []
        if data is None:
            return ["no output file"]
        digest = hashlib.sha256(data).hexdigest()
        check = op["check"]
        failures = []
        if "golden" in check and digest != check["golden"]:
            failures.append("output bytes differ from the golden digest")
        key = (digest, json.dumps(check, sort_keys=True))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self._independent(check, json.loads(data))
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                self.verdicts[key] = [f"output has an unexpected form: {exc!r}"]
        return failures + self.verdicts[key]

    def _independent(self, check: dict, doc) -> list[str]:
        failures = []
        if "census" in check:
            spec = check["census"]
            failures += checks.check_census(doc, spec["d"], spec["counts"])
        if "set" in check:
            failures += checks.check_set(doc, check["set"]["d"])
        if "mub" in check:
            spec = check["mub"]
            failures += checks.check_mub(doc, spec["d"])
            source = doc.get("complete_set", {})
            for key in ("type", "v1", "v2"):
                if key in spec and source.get(key) != spec[key]:
                    failures.append(f"complete_set {key} is {source.get(key)}, asked {spec[key]}")
            triple = doc.get("structure")
            if spec["d"] == 8 and not (
                isinstance(triple, list) and len(triple) == 3 and sum(triple) == 9
            ):
                failures.append(f"structure {triple} is not a census of nine bases")
        if "structure" in check:
            failures += checks.check_structure(doc)
        if "verify" in check and doc.get("pass") is not check["verify"]:
            failures.append(f"verify says pass = {doc.get('pass')}, expected {check['verify']}")
        if "classify" in check:
            name = check["classify"]
            if name not in self.expected_kinds:
                self.expected_kinds[name] = checks.classify_set(self._load(name))
            if doc.get("classifications") != self.expected_kinds[name]:
                failures.append("classifications differ from the independent ones")
        if "enumeration" in check:
            failures += checks.check_enumeration(doc, check["enumeration"]["d"])
        return failures


def op_argv(op: dict, spans: str | None) -> list[str]:
    child = os.path.join(HERE, "child.py")
    trace = ["--trace", spans] if spans else []
    if "lib" in op:
        return [sys.executable, child, *trace, "lib", *op["lib"]]
    if spans:
        return [sys.executable, child, *trace, "cli", *op["cli"]]
    return [sys.executable, "-m", "mubkit.cli", *op["cli"]]


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten values beyond it."""
    n = len(values)
    if n < 20:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def digest_tree(top: str, suffix: str = "") -> str:
    """sha256 over the relative paths and contents of the files under top
    whose names end with suffix."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(suffix):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest_tree(SRC, ".py"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "cpu_model": cpu or platform.processor(),
        "loadavg_start": list(os.getloadavg()),
    }


def set_up(runner: Runner, workload: str, seed: int, workdir: str, least: int):
    """Runs plan.py in fresh processes, at least `least` times and, while
    they have taken under SETUP_BUDGET_S in all, up to SETUP_MOST times;
    returns the spawner's results, the directory to use and any failures."""
    results, dirs, digests, failures = [], [], set(), []
    err = os.path.join(workdir, "setup.err")
    spent = 0.0
    while len(results) < least or (len(results) < SETUP_MOST and spent < SETUP_BUDGET_S):
        d = os.path.join(workdir, f"setup-{len(dirs)}")
        dirs.append(d)
        os.makedirs(d)
        argv = [sys.executable, os.path.join(HERE, "plan.py"), workload, str(seed), d]
        result = runner.spawn(argv, d, err)
        if result["rc"] != 0:
            with open(err, encoding="utf-8") as fh:
                failures.append(f"set-up exited {result['rc']}: {fh.read()[-2000:]}")
            break
        results.append(result)
        spent += result["wall_s"]
        digests.add(digest_tree(d))
    if len(digests) > 1:
        failures.append("set-up is not deterministic for this seed")
    for d in dirs[1:]:
        shutil.rmtree(d, ignore_errors=True)
    return results, dirs[0], failures


def run(args) -> tuple[dict, list[dict]]:
    started = monotonic()
    prov = provenance(args.seed)
    runner = Runner(started)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    records: list[dict] = []
    correct = False
    speedometer = Speedometer(workdir, started + RUN_LIMIT_S + 10)
    setup_results: list[dict] = []
    try:
        speedometer.wait_started()
        setup_results, opdir, failures = set_up(
            runner, args.workload, args.seed, workdir, 1 if args.trace else SETUP_LEAST
        )
        if failures:
            raise RuntimeError("; ".join(failures))
        with open(os.path.join(opdir, "plan.json"), encoding="utf-8") as fh:
            plan = json.load(fh)
        checker = Checker(opdir)
        failures = checker.input_failures(plan["inputs"])
        if failures:
            raise RuntimeError("; ".join(failures))

        spans_path = os.path.join(workdir, "spans.json")
        err_path = os.path.join(workdir, "stderr.txt")

        def execute(op: dict, r: int, traced: bool, stream: bool) -> dict:
            if os.path.exists(spans_path):
                os.remove(spans_path)
            argv = op_argv(op, spans_path if traced else None)
            result = runner.spawn(argv, opdir, err_path)
            fails = checker(op, result)
            if traced and not fails and not os.path.exists(spans_path):
                fails.append("the traced op wrote no spans")
            if fails:
                with open(err_path, encoding="utf-8", errors="replace") as fh:
                    lines = fh.read().strip().splitlines()
                if lines:
                    fails.append("stderr: " + lines[-1])
            rec = {
                "kind": op["kind"],
                "call": ["mubkit", *op["cli"]] if "cli" in op else ["library", *op["lib"]],
                "seed": args.seed,
                "round": r,
                "traced": traced,
                "stream": stream,
                "expected_rc": op.get("rc", 0),
                **{k: result[k] for k in ("rc", "wall_s", "cpu_s", "rss_mb")},
                "ok": not fails,
                "failures": fails,
                "result": result,
            }
            if traced and not fails:
                with open(spans_path, encoding="utf-8") as fh:
                    rec["spans"] = json.load(fh)
                rec["spans"]["startup_s"] = rec["spans"].pop("imported") - result["spawned"]
            records.append(rec)
            return rec

        if args.trace:
            stream = [(r, op) for r, ops in enumerate(plan["rounds"]) for op in ops]
            for i, (r, op) in enumerate(stream[: TRACE_OPS[args.workload]]):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    execute(op, r, traced, True)
        else:
            stream_start = monotonic()
            for r in count():
                now = monotonic()
                if now - stream_start >= args.seconds or now - started > NEW_ROUND_LIMIT_S:
                    break
                for op in plan["rounds"][r % len(plan["rounds"])]:
                    execute(op, r, False, True)
        for op in plan["probes"]:
            execute(op, -1, False, False)
        correct = True
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    finally:
        runner.close()
        speedometer.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    prov["loadavg_end"] = list(os.getloadavg())
    prov["pinned_cpu"] = PIN_CPU
    setups = []
    try:
        for result in setup_results:
            setups.append(speedometer.calibrate(result)[0])
        for rec in records:
            rec["calibrated_s"], rec["chunk_s"] = speedometer.calibrate(rec["result"])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        correct = False
    for rec in records:
        del rec["result"]
    return summarize(args, prov, records, setups, speedometer.chunks, correct), records


def summarize(args, prov, records, setups, chunks, correct) -> dict:
    stream = [r for r in records if r["stream"]]
    by_kind: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for r in records:
        entry = by_kind[r["kind"] if r["stream"] else r["kind"] + " (probe)"]
        entry[0] += not r["ok"]
        entry[1] += 1
    failed = sum(not r["ok"] for r in stream)
    result = {
        "correct": correct and bool(stream) and failed == 0,
        "attempted": len(stream),
        "failed": failed,
    }
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov,
        "fail_ratio": {
            "all": [sum(v[0] for v in by_kind.values()), sum(v[1] for v in by_kind.values())],
            **{k: v for k, v in sorted(by_kind.items())},
        },
    }
    if args.trace:
        metrics = trace_metrics(stream)
    else:
        raw = [r["wall_s"] for r in stream]
        walls = [r.get("calibrated_s", r["wall_s"]) for r in stream]
        metrics = {
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "ops_per_s": (len(walls) / sum(walls) if walls else 0.0, "1/s"),
            "op_p50_s": (statistics.median(walls) if walls else 0.0, "s"),
            "peak_rss_mb": (max((r["rss_mb"] for r in stream), default=0.0), "MB"),
        }
        t = tail(walls)
        report["op_tail_s"] = None if t is None else {"value": t[0], "percentile": t[1]}
        report["op_samples"] = len(walls)
        report["op_raw_p50_s"] = statistics.median(raw) if raw else 0.0
        report["chunk_s"] = [min(chunks), statistics.median(chunks), max(chunks)] if chunks else None
        report["op_cpu_p50_s"] = statistics.median(r["cpu_s"] for r in stream) if stream else 0.0
        report["setup_runs"] = len(setups)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["result"] = result
    return report


def trace_metrics(stream: list[dict]) -> dict:
    """Per-layer figures of the traced ops."""
    traced = [r for r in stream if r["traced"] and "spans" in r]
    plain = [r["wall_s"] for r in stream if not r["traced"]]
    n = len(traced) or 1
    self_s: Counter[str] = Counter()
    incl: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    startup = 0.0
    coverage = []
    for r in traced:
        s = r["spans"]
        self_s.update(s["self_s"])
        incl.update(s["incl_s"])
        counts.update(s["counts"])
        startup += s["startup_s"]
        coverage.append((s["startup_s"] + s["root_s"]) / r["wall_s"])
    metrics = {"cli.startup_s": (startup / n, "s")}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    for group in TIME_GROUPS:
        metrics[group] = (incl[group] / n, "s")
    for name in COUNTS:
        metrics[name] = (counts[name], "bytes" if name.startswith("serialize.bytes") else "count")
    scanned = counts["phasespace.subspaces_scanned"]
    metrics["phasespace.keep_ratio"] = (
        counts["phasespace.extraordinary_kept"] / scanned if scanned else 0.0, "ratio"
    )
    walls = [r["wall_s"] for r in traced]
    metrics["trace.overhead_s"] = (
        statistics.median(walls) - statistics.median(plain) if walls and plain else 0.0, "s"
    )
    metrics["trace.coverage"] = (statistics.median(coverage) if coverage else 0.0, "ratio")
    metrics["trace.ops"] = (len(traced), "count")
    return metrics


def print_report(report: dict, records_path: str) -> None:
    res = report["result"]
    prov = report["provenance"]
    print(f"perfbench {report['workload']} seed={prov['seed']} trace={report['trace']}: "
          f"{res['attempted']} ops, {res['failed']} failed")
    for name, m in res["metrics"].items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    if not report["trace"]:
        t = report["op_tail_s"]
        print(f"  {'op_tail_s':<32} " + ("n/a (fewer than 20 ops)" if t is None else
              f"{t['value']:.6g} s at p{t['percentile']:.1f}") + f", n={report['op_samples']}")
        print(f"  {'op_cpu_p50_s':<32} {report['op_cpu_p50_s']:.6g} s")
        print(f"  {'op_raw_p50_s (uncalibrated)':<32} {report['op_raw_p50_s']:.6g} s")
        if report["chunk_s"]:
            lo, mid, hi = report["chunk_s"]
            print(f"  {'probe chunk min/median/max':<32} {lo:.4g} / {mid:.4g} / {hi:.4g} s "
                  f"(nominal {NOMINAL_CHUNK_S} s, CPU {report['provenance']['pinned_cpu']})")
        print(f"  {'setup runs':<32} {report['setup_runs']}")
    for kind, (bad, total) in report["fail_ratio"].items():
        print(f"  fail_ratio {kind:<21} {bad}/{total} ops/ops")
    print(f"  python {prov['python']}, {prov['nproc']} CPUs ({prov['cpu_model']}), load "
          f"{prov['loadavg_start'][0]:.2f} -> {prov['loadavg_end'][0]:.2f}, "
          f"commit {prov['git_commit']}, src {prov['src_sha256'][:12]}")
    print(f"  records: {os.path.relpath(records_path, ROOT)}")


def terminate(_signum, _frame):
    raise SystemExit(143)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mubkit", "cli.py")):
        print(f"perfbench: no mubkit sources under {SRC}", file=sys.stderr)
        return 2
    report, records = run(args)
    records_dir = os.path.join(ROOT, ".perfbench", "records")
    os.makedirs(records_dir, exist_ok=True)
    path = os.path.join(records_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"report": report, "ops": records}, fh, indent=1)
    print_report(report, path)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
