"""Seeded .btrx generators for the lifecycle benchmark's three workloads.

Each generator maps a seed to the text of one experiment spec; the same seed
always gives the same text. The program under test only ever sees that text
(it is saved beside the results, so any row replays with
`example_btrsim --spec <file>`).

The seed picks the fault time within a workload period and plan_fleet's
crash victim (a compute node of a mid-platoon vehicle); edit_rollout's edit
script is fixed (see EDIT_SCRIPT_SEED). long_run and edit_rollout fault the
symbolic `critical-primary` (the host of the most critical compute task's
primary replica in the fault-free plan, resolved by the library after
planning), so the fault hits a node that carries work whatever placement the
planner picks.
"""

import random

WORKLOADS = ("plan_fleet", "long_run", "edit_rollout")


def _header(name, scenario, config):
    return ["BTRX 1", f"NAME {name}", f"SCENARIO {scenario}", f"CONFIG {config}"]


def plan_fleet(seed):
    """Convoy, 140 nodes, f=1: planning 141 modes is ~99% of the lifecycle."""
    rng = random.Random(seed)
    lines = _header("plan_fleet", "convoy nodes=140", f"f=1 recovery-us=800000 seed={seed}")
    # Node 2v+1 is vehicle v's compute node; vehicles 20-49 sit mid-platoon,
    # where a crash cuts the ring. 50 Hz convoy: the crash lands anywhere
    # within the 65th of 100 periods. The crash is never recovered, so
    # recovery_ms_max is the 700-720 ms from the crash to the end of the run:
    # Definition 3.1 (R = 800 ms) still holds, and a run that went on past
    # the crash + R would report it VIOLATED. The periods before the crash
    # make Run ~45 ms, so the simulation outweighs its per-call set-up.
    victim = 2 * rng.randrange(20, 50) + 1
    at_us = 1280000 + rng.randrange(20000)
    lines += ["PHASE periods=100",
              f"FAULT node={victim} at-us={at_us} behavior=crash"]
    return lines


def long_run(seed):
    """Avionics, 16 flight computers (20 nodes), f=1, 5000 periods."""
    rng = random.Random(seed)
    lines = _header("long_run", "avionics nodes=16", f"f=1 recovery-us=500000 seed={seed}")
    # 100 Hz avionics: the corruption starts in the first 2 ms of the 101st
    # period.
    at_us = 1000000 + rng.randrange(2000)
    lines += ["PHASE periods=5000",
              f"FAULT node=critical-primary at-us={at_us} behavior=value-corruption"]
    return lines


# The edit script (kinds, links, values, order, times) is drawn once from this
# fixed seed, so every benchmark seed does the same edit work: a script drawn
# per seed moved the misses and Def 3.1 violations by about 40% between
# seeds, beyond the benchmark's bounds. The benchmark seed times the crash.
# This script stalls rollouts and violates Definition 3.1 at the seed commit
# (see README.md).
EDIT_SCRIPT_SEED = 101


def edit_rollout(seed, edit_phases=20):
    """E7-scale avionics under gossip/v4 with a stream of 20 edit phases.

    The stream mixes link-latency remeasures on both backbones with one
    link-remove / link-add pair of backboneB. Each edit is its own phase:
    rebuilt incrementally, diffed into per-node patches, encoded as v4
    images and rolled out over gossip while the data plane keeps running.
    """
    rng = random.Random(seed)
    script = random.Random(EDIT_SCRIPT_SEED)
    lines = _header("edit_rollout", "avionics nodes=8",
                    f"f=2 recovery-us=500000 seed={seed} dissem=gossip wire=v4")
    # The crash lands in the first 2 ms of the 16th period.
    at_us = 150000 + rng.randrange(2000)
    lines += ["PHASE periods=40",
              f"FAULT node=critical-primary at-us={at_us} behavior=crash"]
    pair_at = script.randrange(edit_phases - 1)
    all_nodes = ",".join(str(n) for n in range(12))  # 4 I/O nodes + 8 computers
    i = 0
    while i < edit_phases:
        edit_at = 10000 + script.randrange(20000)
        if i == pair_at:
            lines += ["PHASE periods=30",
                      f"EDIT at-us={edit_at} kind=link-remove link=backboneB",
                      "PHASE periods=30",
                      f"EDIT at-us={edit_at} kind=link-add link=backboneB nodes={all_nodes} "
                      "bw-bps=100000000 prop-us=2"]
            i += 2
            continue
        link = script.choice(("backboneA", "backboneB"))
        prop_us = 1 + script.randrange(5)
        bw = script.choice((50000000, 80000000, 100000000, 120000000))
        lines += ["PHASE periods=30",
                  f"EDIT at-us={edit_at} kind=link-latency link={link} "
                  f"bw-bps={bw} prop-us={prop_us}"]
        i += 1
    return lines


def generate(workload, seed):
    """Returns the .btrx text of `workload` for `seed`."""
    lines = {"plan_fleet": plan_fleet, "long_run": long_run,
             "edit_rollout": edit_rollout}[workload](seed)
    return "\n".join(lines + ["END"]) + "\n"
