#!/usr/bin/env python3
"""Lifecycle benchmark: plan_fleet / long_run / edit_rollout.

    python3 lifebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the single-process
benchmark program from source (Release, into .bench_build/lifebench), writes the seeded
.btrx spec to .bench_results/<workload>-seed<N>/spec.btrx, and runs the
program on it for S seconds. The last line of standard output is one JSON
object with the keys correct / attempted / failed / metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The result
directory also receives result.json (every metric plus provenance) and, for
traced runs, trace.json (Chrome trace-event spans) and layers.tsv (self
time per layer).

Exit status: 0 when the correctness gate passed; nonzero when it failed, the
build failed, or the sources are missing (no result line is printed then).
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "lifebench"
RESULTS_DIR = ROOT / ".bench_results"
PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(f"lifebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not (ROOT / "src" / "core" / "btr_system.h").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed")
            return None
    return BUILD_DIR / "lifecycle_bench"


def provenance(program_prov):
    commit = "unknown"
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # The checkout the benchmark runs in need not be a git repository, so a
    # digest of the sources identifies the code as well.
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) + list(HERE.glob("*"))):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    prov = {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count()}
    prov.update(program_prov)
    if prov.get("build_type") != "Release":
        prov["warning"] = "not a Release build: timings are not comparable"
    return prov


def median(values):
    return statistics.median(values)


def end_to_end(d):
    reps = d["reps"]
    sim = d["sim"]
    run_s = median(d["run_samples"])
    expected = sim["expected"]
    return {
        "setup_s": (median(d["setup_samples"]), "s"),
        "run_s": (run_s, "s"),
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "events_per_s": (sim["events"] / run_s, "1/s"),
        "peak_rss_mb": (d["peak_rss_mb"], "MB"),
        "served_frac": (sim["correct"] / (expected + sim["shed"]), "ratio"),
        "sink_miss_frac": (sim["missed"] / expected, "ratio"),
        "recovery_ms_max": (sim["recovery_ms_max"], "sim_ms"),
        "sink_latency_ms_p99": (sim["sink_latency_ms_p99"], "sim_ms"),
    }


def per_layer(d):
    reps = d["reps"]
    sim = d["sim"]
    L = d["layers"]
    wall = median([r["wall_s"] for r in reps])
    edit = median([r["edit_s"] for r in reps])
    traced_wall = median([r["wall_s"] for r in d["traced_reps"]])
    modes = L["planner.modes"]
    plan = median(d["plan_samples"])
    edits = L.get("patch.slices", 0)
    rollouts = sim["rollouts"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "planner.modes": (modes, "count"),
        "planner.schedule_attempts": (L["planner.schedule_attempts"], "count"),
        "planner.attempts_per_mode": (ratio(L["planner.schedule_attempts"], modes), "ratio"),
        "planner.modes_degraded": (L["planner.modes_degraded"], "count"),
        "planner.unique_plans": (L["planner.unique_plans"], "count"),
        "planner.threads_used": (L["planner.threads_used"], "count"),
        "planner.mode_ms_p50": (L["planner.mode_ms_p50"], "ms"),
        "planner.mode_ms_p90": (L["planner.mode_ms_p90"], "ms"),
        "planner.serial_s": (L["planner.serial_s"], "s"),
        "planner.wave_efficiency": (
            ratio(L["planner.serial_s"], plan * L["planner.threads_used"]), "ratio"),
        "plan_s": (plan, "s"),
        "edit_s": (edit, "s"),
        "rebuild.s": (L.get("rebuild.s", 0.0), "s"),
        "rebuild.dirty_modes": (L.get("rebuild.dirty_modes", 0), "count"),
        "rebuild.clean_modes": (L.get("rebuild.clean_modes", 0), "count"),
        "patch.save_s": (L.get("patch.save_s", 0.0), "s"),
        "patch.update_s": (L.get("patch.update_s", 0.0), "s"),
        "patch.slice_bytes_avg": (ratio(L.get("patch.slice_bytes_sum", 0), edits), "bytes"),
        "patch.vs_blob_ratio": (
            ratio(L.get("patch.slice_bytes_sum", 0), L.get("patch.full_bytes_sum", 0)),
            "ratio"),
        "fmt.encode_s": (L.get("fmt.encode_s", 0.0), "s"),
        "fmt.validate_ms_p50": (L["fmt.validate_ms_p50"], "ms"),
        "fmt.map_ms_p50": (L["fmt.map_ms_p50"], "ms"),
        "fmt.image_vs_text_ratio": (
            ratio(L.get("fmt.image_bytes", 0), L.get("fmt.text_bytes", 0)), "ratio"),
        "sim.events": (sim["events"], "count"),
        "sim.simulated_s": (sim["simulated_s"], "sim_s"),
        "sim.auto_vs_1shard": (
            ratio(median([r["run_s"] for r in reps]), L["sim.run_s_1shard"]), "ratio"),
        "net.packets_sent": (L["net.packets_sent"], "count"),
        "net.delivery_ratio": (ratio(L["net.packets_delivered"], L["net.packets_sent"]),
                               "ratio"),
        "net.drops_backlog": (L["net.drops_backlog"], "count"),
        "net.drops_loss": (L["net.drops_loss"], "count"),
        "net.bytes_control": (L["net.bytes_control"], "bytes"),
        "net.link_bytes": (L["net.link_bytes"], "bytes"),
        "dissem.beacons_sent": (L["dissem.beacons_sent"], "count"),
        "dissem.suppressed_ratio": (
            ratio(L["dissem.beacons_suppressed"],
                  L["dissem.beacons_sent"] + L["dissem.beacons_suppressed"]), "ratio"),
        "dissem.chunks_sent": (L["dissem.chunks_sent"], "count"),
        "dissem.resumes": (L["dissem.resumes"], "count"),
        "dissem.fallbacks": (L["dissem.fallbacks"], "count"),
        "runtime.busy_ms": (L["runtime.busy_ms"], "sim_ms"),
        "runtime.crypto_ms": (L["runtime.crypto_ms"], "sim_ms"),
        "runtime.evidence_generated": (L["runtime.evidence_generated"], "count"),
        "runtime.evidence_validated": (L["runtime.evidence_validated"], "count"),
        "runtime.evidence_rejected": (L["runtime.evidence_rejected"], "count"),
        "runtime.evidence_dropped_queue": (L["runtime.evidence_dropped_queue"], "count"),
        "runtime.path_declarations": (L["runtime.path_declarations"], "count"),
        "runtime.mode_switches": (L["runtime.mode_switches"], "count"),
        "install.rollouts": (rollouts, "count"),
        "install.nodes_installed_frac": (
            ratio(L.get("install.nodes_installed", 0), L.get("install.nodes_targeted", 0)),
            "ratio"),
        "install.patch_bytes": (L.get("install.patch_bytes", 0), "bytes"),
        "install.fallbacks": (L.get("install.fallbacks", 0), "count"),
        "rollout_complete_frac": (ratio(sim["rollouts_complete"], rollouts), "ratio"),
        "rollout_ms_p50": (sim["rollout_ms_p50"], "sim_ms"),
        "spec.parse_ms": (median([r["parse_s"] for r in reps]) * 1e3, "ms"),
        "workload.build_ms": (median([r["build_s"] for r in reps]) * 1e3, "ms"),
        "share.plan": (ratio(median([r["plan_s"] for r in reps]), wall), "ratio"),
        "share.edit": (ratio(edit, wall), "ratio"),
        "share.run": (ratio(median([r["run_s"] for r in reps]), wall), "ratio"),
        "trace.overhead_frac": (ratio(traced_wall - wall, wall), "ratio"),
        "ops.failed_frac": (ratio(d["failed"], d["attempted"]), "ratio"),
        "ops.violations": (d["violations"] / len(reps), "count"),
        "ops.stalled_rollouts": (d["stalled_rollouts"] / len(reps), "count"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    program = build()
    if program is None:
        return 2

    out_dir = RESULTS_DIR / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "spec.btrx"
    spec_path.write_text(workloads.generate(args.workload, args.seed))

    cmd = [str(program), "--spec", str(spec_path), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {PROGRAM_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark program exited with {proc.returncode}")
        return 3
    d = json.loads(lines[-1])

    # A run that failed the gate may lack samples or layer counters; it
    # reports no metrics and exits nonzero below.
    if not d["correct"]:
        metrics = {}
    else:
        metrics = per_layer(d) if args.trace else end_to_end(d)
    result = {
        "correct": bool(d["correct"]),
        "attempted": int(d["attempted"]),
        "failed": int(d["failed"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    prov = provenance(d["provenance"])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": d["fingerprint"], "failure": d["failure"],
              "repetitions": len(d["reps"]), "provenance": prov,
              "operations": {k: d[k] for k in ("attempted", "failed", "violations",
                                               "stalled_rollouts")},
              "sim": d["sim"], "reps": d["reps"],
              "samples": {k: d[k] for k in ("setup_samples", "plan_samples",
                                            "run_samples")},
              "result": result}
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    if "self_s" in d:
        rows = sorted(d["self_s"].items(), key=lambda kv: -kv[1])
        (out_dir / "layers.tsv").write_text(
            "layer\tself_s\n" + "".join(f"{k}\t{v:.6f}\n" for k, v in rows))

    if not d["correct"]:
        log(f"correctness gate failed: {d['failure']}")
    print(json.dumps({"provenance": prov, "fingerprint": d["fingerprint"],
                      "repetitions": len(d["reps"]),
                      "spec": str(spec_path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0 if d["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
