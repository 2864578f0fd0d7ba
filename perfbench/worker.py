"""One benchmark client in a fresh interpreter.

It imports graphonlab, generates the workload's inputs and prints ``ready``;
``run.py`` times the interval from process start to that line as one set-up
sample. With ``--setup-only`` it stops there. Otherwise it issues the
workload's command through ``graphonlab.cli.main`` in a closed loop: one
warm-up command, then commands back to back until ``--seconds`` have passed.
With ``--trace 1`` the loop alternates untraced and traced commands, so the
tracing overhead and the traced run's output digests are measured in the
same process. After every command the client times a fixed numpy reference
kernel (``Reference``), so that each command's wall time can be read against
the speed the shared host gave the process at that moment. The last stdout
line is a JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import graphonlab
import graphonlab.cli

import tracer as tr
import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GRAPHONLAB_WORKERS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "graphonlab": graphonlab.__version__,
        "vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Reference:
    """A fixed numpy workload that does not touch graphonlab.

    The host is shared: within a minute the same command can take 1.9 s or
    3.3 s, and the whole process slows down together. The kernel mixes what
    the commands spend their time on (BLAS GEMM with the process's own BLAS
    threads, an elementwise tanh, uniform draws, dense vector-matrix
    products), and a block is the median of ``REPS`` repetitions, so a single
    preempted repetition does not count.
    """

    REPS = 5

    def __init__(self):
        import numpy as np

        self.np = np
        self.time_block()  # first touch of the BLAS threads

    def _once(self, a, m, b, u) -> float:
        np = self.np
        t0 = time.perf_counter()
        x = m
        for _ in range(6):
            x = np.tanh(a @ x)
        rng = np.random.default_rng(7)
        for _ in range(8):
            rng.random(out=u)
            u < 0.5
        v = np.full(len(b), 1e-3)
        for _ in range(100):
            v = v @ b
        return time.perf_counter() - t0

    def time_block(self) -> float:
        """Median seconds of one repetition; the arrays live only for the block,
        so they add nothing to the client's resident memory during a command."""
        rng = self.np.random.default_rng(20191029)
        a = rng.random((400, 400))
        m = rng.random((400, 400)) / 400
        b = rng.random((600, 600)) / 600
        u = self.np.empty(250_000)
        return statistics.median(self._once(a, m, b, u) for _ in range(self.REPS))


def run_command(argv: list[str]) -> tuple[object, float, float]:
    """Issue one command; return (exit code, wall s, CPU s of self and children)."""
    sink = io.StringIO()
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = graphonlab.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed command; keep the loop going
        traceback.print_exc(file=sys.stderr)
        rc = "exception"
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    return rc, wall, cpu


def closed_loop(w: workloads.Workload, argv, out_dir, seconds, trace, tracer, kernel):
    """Warm-up command, then commands back to back for ``seconds``.

    Each command's ``ref_s`` is the mean of the reference blocks timed just
    before and just after it; the block before the first command is the one
    after the warm-up.
    """
    commands = []
    ref_before = None
    first_digests = None
    deadline = None
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            with tracer.installed(index):
                rc, wall, cpu = run_command(argv)
        else:
            rc, wall, cpu = run_command(argv)
        ref_after = kernel.time_block()
        ref = ref_after if ref_before is None else (ref_before + ref_after) / 2
        ref_before = ref_after
        check = workloads.check_command(w, rc, out_dir)
        if check.ok:
            if first_digests is None:
                first_digests = check.digests
            elif check.digests != first_digests:
                kind = "traced" if traced else "repeated"
                check.problems.append(f"{kind} CSV digests differ from the first command")
                check.failed_ops = w.ops
        commands.append({
            "index": index, "warmup": index == 0, "traced": traced,
            "rc": rc, "wall_s": wall, "cpu_s": cpu, "ref_s": ref,
            "ops": w.ops, "failed_ops": check.failed_ops, "problems": check.problems,
            "digests": check.digests, "bytes_written": check.bytes_written,
            "chain_products": check.chain_products,
        })
        index += 1
        if deadline is None:
            deadline = time.perf_counter() + seconds  # the warm-up is not timed
        kinds = {c["traced"] for c in commands if not c["warmup"]}
        if time.perf_counter() >= deadline and len(kinds) == (2 if trace else 1):
            return commands, first_digests


def p50_ms(durations) -> float:
    """Median in ms; 0 when the call ran only in pool workers, whose spans stay there."""
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(w, commands, tracer) -> tuple[dict, list]:
    """Per-layer metrics: medians over the traced commands of the run."""
    traced = [c for c in commands if c["traced"]]
    untraced = [c for c in commands if not c["traced"] and not c["warmup"]]
    per_cmd = []
    for c in traced:
        spans = tracer.run_spans(c["index"])
        b = tr.command_breakdown(spans, c["wall_s"])
        wall = c["wall_s"]
        f = b["func_s"]
        n_max = max(w.n_list)
        entry = [s.dur for s in spans if s.name.startswith("sampling.sample") and s.n == n_max]
        rw = [s.dur for s in spans if s.name == "spectral.rw_transition_matrix" and s.n == n_max]
        forward = [s for s in spans if s.name == "gcn.forward"]
        fwd_gflop = sum(2 * s.n**3 * (s.depth - 1) for s in forward) / 1e9
        m = {
            "cli.self_s": b["cli_self_s"],
            "cli.bytes_written": c["bytes_written"],
            "trace.coverage": b["coverage"],
            "sampling.share": b["layer_self_s"]["sampling"] / wall,
            "sampling.call_ms": p50_ms(entry),
            "sampling.sample_coupled.shared.share": f.get("sampling.sample_coupled.shared", 0.0) / wall,
            "sampling.sample_coupled.indep.share": f.get("sampling.sample_coupled.indep", 0.0) / wall,
            "sampling.sample_graph.share": f.get("sampling.sample_graph", 0.0) / wall,
            "sampling.uniforms": sum(
                (2 if s.name.endswith(".indep") else 1) * s.n * (s.n - 1) // 2
                for s in spans if s.name.startswith("sampling.sample")
            ),
            "spectral.share": b["layer_self_s"]["spectral"] / wall,
            "spectral.rw_transition_matrix_ms": p50_ms(rw),
            "spectral.rw_transition_matrix.share": f.get("spectral.rw_transition_matrix", 0.0) / wall,
            "spectral.mixing_time.share": f.get("spectral.mixing_time", 0.0) / wall,
            "spectral.spectral_gap.share": f.get("spectral.spectral_gap", 0.0) / wall,
            "spectral.dense_products": sum(p for _, p in c["chain_products"]),
            "spectral.eigh_calls": sum(1 for s in spans if s.name == "spectral.spectral_gap"),
            "spectral.gflop": sum(2 * n**3 * p for n, p in c["chain_products"]) / 1e9,
            "gcn.share": b["layer_self_s"]["gcn"] / wall,
            "gcn.fast_linear_embedding.share": f.get("gcn.fast_linear_embedding", 0.0) / wall,
            "gcn.forward.share": f.get("gcn.forward", 0.0) / wall,
            "gcn.forward.gflop": fwd_gflop,
            "gcn.forward.gflop_per_s": fwd_gflop / f["gcn.forward"] if forward else 0.0,
            "gcn.layers": sum(s.depth for s in spans if s.depth is not None),
            "gcn.perturb.share": f.get("gcn.perturb", 0.0) / wall,
            "testing.share": b["layer_self_s"]["testing"] / wall,
            "testing.harness_self.share": sum(
                s.self_s for s in spans if s.name in (
                    "testing.embedding_distance_experiment", "testing.monte_carlo_error")
            ) / wall,
            "testing.decide.share": (f.get("testing.nearest_profile_test", 0.0)
                                     + f.get("testing.tv_perturbed", 0.0)) / wall,
            "testing.workers": int(os.environ.get("GRAPHONLAB_WORKERS", "1")),
            "testing.cpu_per_wall": c["cpu_s"] / wall,
            "graphon.share": b["layer_self_s"]["graphon"] / wall,
        }
        per_cmd.append(m)
    # counts repeat exactly from command to command; times and shares vary
    metrics = {k: v if isinstance(v, int) else statistics.median(m[k] for m in per_cmd)
               for k, v in per_cmd[0].items()}
    for k, v in metrics.items():
        if isinstance(v, int) and any(m[k] != v for m in per_cmd):
            print(f"count {k} differs between traced commands", file=sys.stderr)
    traced_rate = statistics.median(workloads.ref_rate(c) for c in traced)
    untraced_rate = statistics.median(workloads.ref_rate(c) for c in untraced)
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    metrics["wall.ops_per_s"] = statistics.median(workloads.ops_rate(c) for c in untraced)
    metrics["wall.ref_ms"] = statistics.median(c["ref_s"] for c in commands) * 1e3
    spans = [s for c in traced for s in tracer.run_spans(c["index"])]
    return metrics, tr.call_table(spans)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    os.makedirs(args.work_dir, exist_ok=True)
    argv = workloads.prepare(w, args.seed, args.work_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = tr.Tracer()
    out_dir = os.path.join(args.work_dir, "out")
    commands, digests = closed_loop(w, argv, out_dir, args.seconds, bool(args.trace),
                                    tracer, Reference())
    record = {
        "env": environment(),
        "graphonlab_file": graphonlab.__file__,
        "commands": commands,
        "digests": digests,
        "maxrss_kb": {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        },
    }
    if args.trace:
        record["layers"], record["calls"] = layer_metrics(w, commands, tracer)
        if args.spans_file:
            with open(args.spans_file, "w") as fh:
                json.dump({"workload": w.name, "seed": args.seed,
                           "spans": tracer.dump()}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
