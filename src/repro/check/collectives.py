"""The collectives family: every registered collective must deliver.

``check --collectives`` audits 100% of
:func:`repro.collectives.iter_collective_specs` — old and new — on
seeded heterogeneous directories:

* a **per-family delivery/semantics oracle**: after the last event every
  rank holds exactly what the collective promises (fan-out reachability
  for broadcasts/scatters, fan-in accumulation for gathers/reductions,
  gossip closure for all-reduces/barriers, full pair coverage via the
  total-exchange oracle for the exchange patterns);
* **round/volume guarantee caps** for the log-round families:
  ``ceil(log2 P)`` rounds for ``broadcast_log`` / ``allbroadcast`` /
  ``reduction``, ``2 (P-1)`` steps and ``2 (P-1)/P`` per-node volume for
  the ``allreduce`` ring, ``sum(d_a - 1)`` fabric-constrained rounds for
  ``alltoall_direct``;
* **operand-flow replay** over the planner's round annotations: a
  reduction sender ships exactly the partial it holds and never double
  counts; every all-to-all block is held by its sender when sent;
* **differential references**: each new planner's (vectorized) event
  timings must match an independent scalar re-execution of the same
  round structure bit-exactly.

Every schedule also passes the fast one-port checker.  Run it via
``python -m repro.cli check --collectives``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.check.oracle import oracle_violations
from repro.collectives.allreduce import (
    AllreducePlan,
    allreduce_log_tree,
    allreduce_rs_ag,
)
from repro.collectives.direct import (
    DirectExchangePlan,
    alltoall_direct_plan,
    fabric_dims,
    fabric_edges,
)
from repro.collectives.logrounds import (
    RoundEntry,
    RoundPlan,
    allbroadcast_plan,
    broadcast_log_plan,
    log2_rounds,
    reduction_log_plan,
)
from repro.collectives.patterns import allgather_problem, alltoall_problem
from repro.collectives.registry import iter_collective_specs
from repro.directory.factory import make_directory
from repro.directory.service import DirectorySnapshot
from repro.timing.events import Schedule
from repro.timing.validate import ScheduleError, check_schedule
from repro.util.tables import format_table

#: Slack for comparing event times against arrival times.
TIME_TOL = 1e-9


# ---------------------------------------------------------------------------
# Generic per-family delivery audits (schedule-level, payload-free).
# ---------------------------------------------------------------------------


def fanout_violations(schedule: Schedule, *, root: int = 0) -> List[str]:
    """Broadcast/scatter reachability: data flows root -> everyone.

    Walking events in time order, every sender must already have been
    reached when its send starts, and every rank must have been reached
    by the end.
    """
    violations: List[str] = []
    reached: Dict[int, float] = {root: 0.0}
    for event in schedule.events:
        if event.src == event.dst:
            continue
        arrived = reached.get(event.src)
        if arrived is None:
            violations.append(
                f"rank {event.src} sends at {event.start:.6g} without "
                f"ever being reached from root {root}"
            )
        elif event.start < arrived - TIME_TOL:
            violations.append(
                f"rank {event.src} sends at {event.start:.6g} before its "
                f"own data arrives at {arrived:.6g}"
            )
        finish = event.finish
        previous = reached.get(event.dst)
        reached[event.dst] = finish if previous is None else min(
            previous, finish
        )
    missing = sorted(set(range(schedule.num_procs)) - set(reached))
    if missing:
        violations.append(f"ranks never reached from root {root}: {missing}")
    return violations


def _knowledge_closure(schedule: Schedule) -> List[Dict[int, float]]:
    """Per-rank arrival times under transfer-everything semantics.

    Every event forwards everything its sender knew when the send
    started; the return value maps, for each rank, known source rank ->
    earliest arrival time.  This is the *most generous* reading of an
    unannotated schedule, so a rank missing knowledge here is a hard
    delivery failure for any accumulate-style collective.
    """
    n = schedule.num_procs
    known: List[Dict[int, float]] = [{rank: 0.0} for rank in range(n)]
    for event in schedule.events:
        if event.src == event.dst:
            continue
        finish = event.finish
        target = known[event.dst]
        for origin, arrived in known[event.src].items():
            if arrived <= event.start + TIME_TOL:
                previous = target.get(origin)
                if previous is None or finish < previous:
                    target[origin] = finish
    return known


def fanin_violations(schedule: Schedule, *, root: int = 0) -> List[str]:
    """Gather/reduce delivery: the root ends up holding every rank's part."""
    known = _knowledge_closure(schedule)
    missing = sorted(
        set(range(schedule.num_procs)) - set(known[root])
    )
    if missing:
        return [
            f"root {root} never receives contributions from ranks "
            f"{missing}"
        ]
    return []


def gossip_violations(schedule: Schedule) -> List[str]:
    """All-reduce/barrier/all-broadcast closure: everyone hears everyone."""
    known = _knowledge_closure(schedule)
    everyone = set(range(schedule.num_procs))
    violations: List[str] = []
    for rank, arrivals in enumerate(known):
        missing = sorted(everyone - set(arrivals))
        if missing:
            violations.append(
                f"rank {rank} never receives data from ranks {missing}"
            )
    return violations


def port_violations(schedule: Schedule) -> List[str]:
    """One-port validity via :func:`check_schedule`, as a violations list."""
    try:
        check_schedule(schedule)
    except ScheduleError as exc:
        return list(exc.violations) or [str(exc)]
    return []


# ---------------------------------------------------------------------------
# Plan-level oracles over round/payload annotations.
# ---------------------------------------------------------------------------


def round_structure_violations(
    entries: Sequence[RoundEntry],
    num_procs: int,
    *,
    max_rounds: Optional[int] = None,
    exact_rounds: Optional[int] = None,
) -> List[str]:
    """Round indices are sane and each node uses each port once a round."""
    violations: List[str] = []
    rounds = 1 + max((e.round for e in entries), default=-1)
    if exact_rounds is not None and rounds != exact_rounds:
        violations.append(
            f"used {rounds} rounds, the optimal structure takes exactly "
            f"{exact_rounds}"
        )
    if max_rounds is not None and rounds > max_rounds:
        violations.append(
            f"used {rounds} rounds, cap is {max_rounds}"
        )
    seen_send: Set[Tuple[int, int]] = set()
    seen_recv: Set[Tuple[int, int]] = set()
    for entry in entries:
        if entry.round < 0:
            violations.append(f"negative round index {entry.round}")
        if not (0 <= entry.src < num_procs and 0 <= entry.dst < num_procs):
            violations.append(
                f"event {entry.src}->{entry.dst} outside [0, {num_procs})"
            )
            continue
        send_key = (entry.round, entry.src)
        recv_key = (entry.round, entry.dst)
        if send_key in seen_send:
            violations.append(
                f"rank {entry.src} sends twice in round {entry.round}"
            )
        if recv_key in seen_recv:
            violations.append(
                f"rank {entry.dst} receives twice in round {entry.round}"
            )
        seen_send.add(send_key)
        seen_recv.add(recv_key)
    return violations


def block_flow_violations(
    entries: Sequence[RoundEntry],
    initial: Dict[int, Set[Any]],
    required: Dict[int, Set[Any]],
) -> List[str]:
    """Replay payload flow: senders hold what they send, targets get theirs.

    ``initial`` maps rank -> items present at t=0; ``required`` maps
    rank -> items that must have arrived by the end.
    """
    violations: List[str] = []
    arrival: Dict[int, Dict[Any, float]] = {
        rank: {item: 0.0 for item in items}
        for rank, items in initial.items()
    }
    for entry in entries:
        holder = arrival.setdefault(entry.src, {})
        target = arrival.setdefault(entry.dst, {})
        for item in entry.payload:
            at = holder.get(item)
            if at is None:
                violations.append(
                    f"round {entry.round}: {entry.src}->{entry.dst} sends "
                    f"{item!r} the sender never held"
                )
            elif at > entry.start + TIME_TOL:
                violations.append(
                    f"round {entry.round}: {entry.src}->{entry.dst} sends "
                    f"{item!r} at {entry.start:.6g} before it arrives at "
                    f"{at:.6g}"
                )
            finish = entry.finish
            previous = target.get(item)
            if previous is None or finish < previous:
                target[item] = finish
    for rank in sorted(required):
        missing = sorted(
            (item for item in required[rank]
             if item not in arrival.get(rank, {})),
            key=repr,
        )
        if missing:
            violations.append(
                f"rank {rank} never receives {missing[:5]}"
                + (f" (+{len(missing) - 5} more)" if len(missing) > 5 else "")
            )
    return violations


def reduction_flow_violations(
    plan: RoundPlan, *, root: int = 0
) -> List[str]:
    """Operand flow of a halving reduction tree.

    Every sender ships exactly the partial it has accumulated, then
    drops out; no contribution is ever folded twice; the root ends with
    all P contributions and never relinquishes its own.
    """
    n = plan.num_procs
    violations: List[str] = []
    contrib: Dict[int, Set[int]] = {i: {i} for i in range(n)}
    retired: Set[int] = set()
    for entry in plan.entries:
        if entry.src in retired:
            violations.append(
                f"round {entry.round}: rank {entry.src} sends again after "
                f"relinquishing its partial"
            )
        if entry.dst in retired:
            violations.append(
                f"round {entry.round}: retired rank {entry.dst} receives"
            )
        payload = set(entry.payload)
        if payload != contrib[entry.src]:
            violations.append(
                f"round {entry.round}: rank {entry.src} sends "
                f"{sorted(payload)} but holds {sorted(contrib[entry.src])}"
            )
        doubled = payload & contrib[entry.dst]
        if doubled:
            violations.append(
                f"round {entry.round}: contributions {sorted(doubled)} "
                f"folded into rank {entry.dst} twice"
            )
        contrib[entry.dst] |= payload
        retired.add(entry.src)
    if root in retired:
        violations.append(f"root {root} relinquished its partial")
    missing = sorted(set(range(n)) - contrib[root])
    if missing:
        violations.append(
            f"root {root} never accumulates contributions {missing}"
        )
    return violations


def allreduce_flow_violations(plan: AllreducePlan) -> List[str]:
    """Contribution flow of the reduce-scatter + all-gather ring.

    Replays the chunk annotations: after the reduce-scatter half every
    position holds its fully reduced chunk, and at the end every
    position holds every fully reduced chunk.
    """
    n = plan.num_procs
    if n <= 1:
        return []
    violations: List[str] = []
    everyone = set(range(n))
    # sets[k][c]: ranks folded into position k's copy of chunk c
    sets: List[List[Set[int]]] = [
        [{plan.ring[k]} for _ in range(n)] for k in range(n)
    ]
    for index in range(plan.step_index.size):
        step = int(plan.step_index[index])
        position = index % n
        chunk = int(plan.chunk_index[index])
        expected_chunk = (position - step) % n
        if chunk != expected_chunk:
            violations.append(
                f"step {step}: position {position} rotates chunk {chunk}, "
                f"structure says {expected_chunk}"
            )
        receiver = (position + 1) % n
        sets[receiver][chunk] |= sets[position][chunk]
    for position in range(n):
        own = (position + 1) % n
        # the chunk fully reduced at this position after the RS half is
        # the one it received at step n-2 (chunk (position+1) mod n)
        if sets[position][own] != everyone:
            violations.append(
                f"position {position} ends the reduce-scatter half with "
                f"chunk {own} missing contributions "
                f"{sorted(everyone - sets[position][own])}"
            )
        for chunk in range(n):
            missing = everyone - sets[position][chunk]
            if missing:
                violations.append(
                    f"position {position} never receives contributions "
                    f"{sorted(missing)} of chunk {chunk}"
                )
    return violations


def allreduce_volume_violations(
    plan: AllreducePlan, block_bytes: float
) -> List[str]:
    """The bandwidth-optimality cap: 2 (P-1)/P of the block per node."""
    n = plan.num_procs
    if n <= 1:
        return []
    violations: List[str] = []
    if plan.steps != 2 * (n - 1):
        violations.append(
            f"ring used {plan.steps} steps, the optimal structure takes "
            f"exactly {2 * (n - 1)}"
        )
    sent = np.bincount(
        plan.srcs,
        weights=np.full(plan.srcs.size, plan.chunk_bytes),
        minlength=n,
    )
    cap = 2.0 * (n - 1) / n * float(block_bytes)
    worst = float(sent.max()) if sent.size else 0.0
    if worst > cap * (1.0 + 1e-9) + 1e-9:
        violations.append(
            f"per-node volume {worst:.6g} bytes exceeds the "
            f"2(P-1)/P cap {cap:.6g}"
        )
    return violations


def fabric_violations(plan: DirectExchangePlan) -> List[str]:
    """Every direct-connect event must travel a physical fabric link."""
    edges = fabric_edges(plan.topology, plan.num_procs, plan.dims or None)
    violations: List[str] = []
    for entry in plan.entries:
        if (entry.src, entry.dst) not in edges:
            violations.append(
                f"round {entry.round}: {entry.src}->{entry.dst} is not a "
                f"{plan.topology} link"
            )
    cap = sum(d - 1 for d in plan.dims)
    if plan.rounds > cap:
        violations.append(
            f"{plan.rounds} shift rounds exceed the factorization cap "
            f"{cap}"
        )
    return violations


# ---------------------------------------------------------------------------
# Naive scalar reference executors (differential targets).
# ---------------------------------------------------------------------------

Entry = Tuple[int, float, int, int, float]


def reference_broadcast_log(
    snapshot: DirectorySnapshot, size_bytes: float, *, root: int = 0
) -> List[Entry]:
    """Scalar re-execution of the greedy log-round broadcast."""
    n = snapshot.num_procs
    if n == 1:
        return []
    lat = snapshot.latency
    bw = snapshot.bandwidth
    size = float(size_bytes)
    ready = {i: 0.0 for i in range(n)}
    informed = [root]
    uninformed = [i for i in range(n) if i != root]
    entries: List[Entry] = []
    rnd = 0
    while uninformed:
        base = dict(ready)
        count = min(len(informed), len(uninformed))
        taken_s: Set[int] = set()
        taken_r: Set[int] = set()
        picks: List[Tuple[int, int, float]] = []
        for _ in range(count):
            best: Optional[Tuple[int, int, float]] = None
            for si, src in enumerate(informed):
                if si in taken_s:
                    continue
                for ri, dst in enumerate(uninformed):
                    if ri in taken_r:
                        continue
                    done = base[src] + (lat[src, dst] + size / bw[src, dst])
                    if best is None or done < best[2]:
                        best = (si, ri, float(done))
            assert best is not None
            taken_s.add(best[0])
            taken_r.add(best[1])
            picks.append(best)
        newly: List[int] = []
        for si, ri, done in picks:
            src = informed[si]
            dst = uninformed[ri]
            start = base[src]
            entries.append((rnd, start, src, dst, done - start))
            ready[src] = done
            ready[dst] = done
            newly.append(dst)
        informed.extend(newly)
        gone = set(newly)
        uninformed = [u for u in uninformed if u not in gone]
        rnd += 1
    return entries


def reference_allbroadcast(
    snapshot: DirectorySnapshot, block_bytes: float
) -> List[Entry]:
    """Scalar re-execution of the Bruck-style all-broadcast rounds."""
    n = snapshot.num_procs
    if n == 1:
        return []
    block = float(block_bytes)
    ready = [0.0] * n
    entries: List[Entry] = []
    rnd = 0
    shift = 1
    while shift < n:
        count = min(shift, n - shift)
        size = count * block
        previous = list(ready)
        send_finish = [0.0] * n
        recv_finish = [0.0] * n
        for dst in range(n):
            src = (dst + shift) % n
            start = max(previous[src], previous[dst])
            duration = float(snapshot.transfer_time(src, dst, size))
            entries.append((rnd, start, src, dst, duration))
            send_finish[src] = start + duration
            recv_finish[dst] = start + duration
        ready = [max(a, b) for a, b in zip(send_finish, recv_finish)]
        shift <<= 1
        rnd += 1
    return entries


def reference_reduction_log(
    snapshot: DirectorySnapshot,
    block_bytes: float,
    *,
    root: int = 0,
    combine_rate: float = 1e9,
) -> List[Entry]:
    """Scalar re-execution of the greedy halving reduction."""
    n = snapshot.num_procs
    if n == 1:
        return []
    lat = snapshot.latency
    bw = snapshot.bandwidth
    block = float(block_bytes)
    combine = block / float(combine_rate)
    ready = {i: 0.0 for i in range(n)}
    active = list(range(n))
    entries: List[Entry] = []
    rnd = 0
    while len(active) > 1:
        senders = [node for node in active if node != root]
        receivers = list(active)
        base = dict(ready)
        count = len(active) // 2
        dead_rows: Set[int] = set()
        dead_cols: Set[int] = set()
        picks: List[Tuple[int, int, float]] = []
        for _ in range(count):
            best: Optional[Tuple[int, int, float]] = None
            for si, src in enumerate(senders):
                if si in dead_rows:
                    continue
                for ri, dst in enumerate(receivers):
                    if ri in dead_cols or src == dst:
                        continue
                    done = max(base[src], base[dst]) + (
                        lat[src, dst] + block / bw[src, dst]
                    )
                    if best is None or done < best[2]:
                        best = (si, ri, float(done))
            assert best is not None
            si, ri, _ = best
            dead_rows.add(si)
            dead_cols.add(ri)
            for sj, src in enumerate(senders):
                if src == receivers[ri]:
                    dead_rows.add(sj)
            for rj, dst in enumerate(receivers):
                if dst == senders[si]:
                    dead_cols.add(rj)
            picks.append(best)
        removed: Set[int] = set()
        for si, ri, done in picks:
            src = senders[si]
            dst = receivers[ri]
            start = max(base[src], base[dst])
            entries.append((rnd, start, src, dst, done - start))
            ready[dst] = done + combine
            removed.add(src)
        active = [node for node in active if node not in removed]
        rnd += 1
    return entries


def reference_allreduce_rs_ag(
    snapshot: DirectorySnapshot,
    block_bytes: float,
    ring: Sequence[int],
    *,
    combine_rate: float = 1e9,
) -> List[Entry]:
    """Scalar re-execution of the pipelined ring step recurrence."""
    n = len(ring)
    if n == 1:
        return []
    chunk = float(block_bytes) / n
    combine = chunk / float(combine_rate)
    durations = [
        snapshot.latency[ring[k], ring[(k + 1) % n]]
        + chunk / snapshot.bandwidth[ring[k], ring[(k + 1) % n]]
        for k in range(n)
    ]
    send_free = [0.0] * n
    recv_free = [0.0] * n
    prev_finish = [0.0] * n
    entries: List[Entry] = []
    for step in range(2 * (n - 1)):
        starts = []
        for k in range(n):
            if step == 0:
                chunk_ready = 0.0
            else:
                chunk_ready = prev_finish[(k - 1) % n]
                if step <= n - 1:
                    chunk_ready = chunk_ready + combine
            starts.append(max(
                send_free[k], recv_free[(k + 1) % n], chunk_ready
            ))
        finish = [starts[k] + durations[k] for k in range(n)]
        send_free = list(finish)
        recv_free = [finish[(k - 1) % n] for k in range(n)]
        prev_finish = finish
        for k in range(n):
            entries.append((
                step, starts[k], int(ring[k]), int(ring[(k + 1) % n]),
                float(durations[k]),
            ))
    return entries


def reference_alltoall_direct(
    snapshot: DirectorySnapshot,
    message_bytes: float,
    *,
    topology: str = "ring",
    dims=None,
) -> List[Tuple[int, float, int, int, float, Tuple[Any, ...]]]:
    """Block-position re-simulation of the dimension-ordered routing."""
    n = snapshot.num_procs
    extents = fabric_dims(topology, n, dims)
    message = float(message_bytes)
    entries: List[Tuple[int, float, int, int, float, Tuple[Any, ...]]] = []
    if n <= 1:
        return entries
    coords = {
        rank: tuple(np.unravel_index(rank, extents))
        for rank in range(n)
    }
    position: Dict[Tuple[int, int], int] = {}
    available: Dict[Tuple[int, int], float] = {}
    for origin in range(n):
        for dest in range(n):
            if origin != dest:
                position[(origin, dest)] = origin
                available[(origin, dest)] = 0.0
    send_free = [0.0] * n
    recv_free = [0.0] * n
    round_ix = 0
    for axis in range(len(extents)):
        extent = extents[axis]
        if extent < 2:
            continue
        for _ in range(extent - 1):
            moves = []
            for src in range(n):
                payload = sorted(
                    block for block, holder in position.items()
                    if holder == src
                    and coords[block[1]][axis] != coords[src][axis]
                )
                if payload:
                    succ = list(coords[src])
                    succ[axis] = (succ[axis] + 1) % extent
                    dst = int(np.ravel_multi_index(succ, extents))
                    moves.append((src, dst, payload))
            for src, dst, payload in moves:
                data_ready = max(available[block] for block in payload)
                start = max(send_free[src], recv_free[dst], data_ready)
                size = len(payload) * message
                duration = float(snapshot.transfer_time(src, dst, size))
                finish = start + duration
                send_free[src] = finish
                recv_free[dst] = finish
                entries.append((
                    round_ix, start, src, dst, duration, tuple(payload)
                ))
                for block in payload:
                    position[block] = dst
                    available[block] = finish
            round_ix += 1
    return entries


def differential_violations(
    label: str,
    planned: Sequence[Tuple],
    reference: Sequence[Tuple],
    *,
    limit: int = 3,
) -> List[str]:
    """Bit-exact comparison of planner events vs the scalar reference."""
    violations: List[str] = []
    if len(planned) != len(reference):
        return [
            f"{label}: planner emits {len(planned)} events, reference "
            f"{len(reference)}"
        ]
    for index, (ours, theirs) in enumerate(zip(planned, reference)):
        if ours != theirs:
            violations.append(
                f"{label}: event {index} diverges: planner {ours!r} vs "
                f"reference {theirs!r}"
            )
            if len(violations) >= limit:
                violations.append(f"{label}: (stopping after {limit})")
                break
    return violations


# ---------------------------------------------------------------------------
# Per-spec audit dispatch (covers every registry entry).
# ---------------------------------------------------------------------------

_FANOUT = frozenset((
    "broadcast_binomial", "broadcast_fnf", "broadcast_log",
    "scatter_direct", "scatter_tree",
))
_FANIN = frozenset((
    "gather_direct", "gather_tree", "reduce_direct", "reduce_tree",
    "reduction",
))
_GOSSIP = frozenset((
    "allreduce_ring", "allreduce_tree", "allreduce",
    "barrier_dissemination", "barrier_tournament",
    "allbroadcast", "alltoall_direct",
))
_PROBLEM_BUILDERS = {
    "allgather": allgather_problem,
    "alltoall": alltoall_problem,
}

#: The dissemination barrier's signal model (see
#: :mod:`repro.collectives.barrier`) deliberately lets a node's round
#: ``k+1`` signal arrive while its round ``k`` signal is still in
#: flight — signals notify, they do not occupy the receive port.  Its
#: schedules therefore skip the one-port audit (delivery still must
#: hold).
_PORT_EXEMPT = frozenset(("barrier_dissemination",))


def audit_collective(
    name: str,
    schedule: Schedule,
    snapshot: DirectorySnapshot,
    size_bytes: float,
) -> List[str]:
    """Family-appropriate delivery audit + one-port validity.

    Every name in :func:`iter_collective_specs` maps to exactly one
    audit; an unregistered name raises so new registry entries cannot
    silently skip the battery.
    """
    violations = [] if name in _PORT_EXEMPT else port_violations(schedule)
    if name in _FANOUT:
        violations += fanout_violations(schedule, root=0)
    elif name in _FANIN:
        violations += fanin_violations(schedule, root=0)
    elif name in _GOSSIP:
        violations += gossip_violations(schedule)
    elif name in _PROBLEM_BUILDERS:
        problem = _PROBLEM_BUILDERS[name](snapshot, size_bytes)
        violations += oracle_violations(problem, schedule)
    else:
        raise KeyError(
            f"collective {name!r} has no registered audit family"
        )
    return violations


# ---------------------------------------------------------------------------
# The new-family guarantee battery (round caps + operand flow + reference).
# ---------------------------------------------------------------------------


def check_broadcast_log(
    snapshot: DirectorySnapshot, size_bytes: float, *, root: int = 0
) -> List[str]:
    n = snapshot.num_procs
    plan = broadcast_log_plan(snapshot, size_bytes, root=root)
    violations = port_violations(plan.schedule)
    violations += round_structure_violations(
        plan.entries, n, exact_rounds=log2_rounds(n)
    )
    violations += block_flow_violations(
        plan.entries,
        initial={root: {root}},
        required={rank: {root} for rank in range(n)},
    )
    if len(plan.entries) != n - 1 and n > 1:
        violations.append(
            f"broadcast used {len(plan.entries)} messages, expected "
            f"{n - 1} (each rank receives exactly once)"
        )
    planned = [
        (e.round, e.start, e.src, e.dst, e.duration) for e in plan.entries
    ]
    violations += differential_violations(
        "broadcast_log", planned,
        reference_broadcast_log(snapshot, size_bytes, root=root),
    )
    return violations


def check_allbroadcast(
    snapshot: DirectorySnapshot, block_bytes: float
) -> List[str]:
    n = snapshot.num_procs
    plan = allbroadcast_plan(snapshot, block_bytes)
    violations = port_violations(plan.schedule)
    violations += round_structure_violations(
        plan.entries, n, exact_rounds=log2_rounds(n)
    )
    everyone = set(range(n))
    violations += block_flow_violations(
        plan.entries,
        initial={rank: {rank} for rank in range(n)},
        required={rank: everyone for rank in range(n)},
    )
    planned = [
        (e.round, e.start, e.src, e.dst, e.duration) for e in plan.entries
    ]
    violations += differential_violations(
        "allbroadcast", planned,
        reference_allbroadcast(snapshot, block_bytes),
    )
    return violations


def check_reduction(
    snapshot: DirectorySnapshot,
    block_bytes: float,
    *,
    root: int = 0,
    combine_rate: float = 1e9,
) -> List[str]:
    n = snapshot.num_procs
    plan = reduction_log_plan(
        snapshot, block_bytes, root=root, combine_rate=combine_rate
    )
    violations = port_violations(plan.schedule)
    violations += round_structure_violations(
        plan.entries, n, exact_rounds=log2_rounds(n)
    )
    violations += reduction_flow_violations(plan, root=root)
    planned = [
        (e.round, e.start, e.src, e.dst, e.duration) for e in plan.entries
    ]
    violations += differential_violations(
        "reduction", planned,
        reference_reduction_log(
            snapshot, block_bytes, root=root, combine_rate=combine_rate
        ),
    )
    return violations


def check_allreduce(
    snapshot: DirectorySnapshot,
    block_bytes: float,
    *,
    combine_rate: float = 1e9,
) -> List[str]:
    n = snapshot.num_procs
    plan = allreduce_rs_ag(
        snapshot, block_bytes, combine_rate=combine_rate
    )
    violations = port_violations(plan.schedule)
    violations += allreduce_flow_violations(plan)
    violations += allreduce_volume_violations(plan, block_bytes)
    planned = list(zip(
        plan.step_index.tolist(),
        plan.starts.tolist(),
        plan.srcs.tolist(),
        plan.dsts.tolist(),
        plan.durations.tolist(),
    ))
    violations += differential_violations(
        "allreduce", planned,
        reference_allreduce_rs_ag(
            snapshot, block_bytes, plan.ring, combine_rate=combine_rate
        ),
    )
    # tree variant: log-round reduce + broadcast composition
    tree = allreduce_log_tree(
        snapshot, block_bytes, combine_rate=combine_rate
    )
    violations += port_violations(tree.schedule)
    violations += round_structure_violations(
        tree.entries, n, max_rounds=2 * log2_rounds(n)
    )
    violations += [
        f"allreduce tree: {v}"
        for v in gossip_violations(tree.schedule)
    ]
    if n > 1 and tree.rounds != 2 * log2_rounds(n):
        violations.append(
            f"allreduce tree used {tree.rounds} rounds, expected "
            f"{2 * log2_rounds(n)}"
        )
    return violations


def check_alltoall_direct(
    snapshot: DirectorySnapshot,
    message_bytes: float,
    *,
    topology: str = "ring",
    dims=None,
) -> List[str]:
    n = snapshot.num_procs
    plan = alltoall_direct_plan(
        snapshot, message_bytes, topology=topology, dims=dims
    )
    violations = port_violations(plan.schedule)
    violations += fabric_violations(plan)
    blocks = {
        (origin, dest)
        for origin in range(n) for dest in range(n) if origin != dest
    }
    violations += block_flow_violations(
        plan.entries,
        initial={
            rank: {block for block in blocks if block[0] == rank}
            for rank in range(n)
        },
        required={
            rank: {block for block in blocks if block[1] == rank}
            for rank in range(n)
        },
    )
    planned = [
        (e.round, e.start, e.src, e.dst, e.duration, e.payload)
        for e in plan.entries
    ]
    violations += differential_violations(
        f"alltoall_direct[{topology}]", planned,
        reference_alltoall_direct(
            snapshot, message_bytes, topology=topology, dims=dims
        ),
    )
    return violations


# ---------------------------------------------------------------------------
# The battery.
# ---------------------------------------------------------------------------

#: Directory specs the battery draws heterogeneous instances from.
DEFAULT_DIRECTORIES = ("static", "noisy:sigma=0.3")

#: Processor counts for the registry-wide sweep.
DEFAULT_P_VALUES = (1, 2, 3, 8, 16)


@dataclass
class CollectivesCheckReport:
    """Outcome of the collectives family run."""

    cases: int = 0
    covered: Tuple[str, ...] = ()
    failures: List[Tuple[str, List[str]]] = field(default_factory=list)
    stats: List[List[object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _snapshot_for(
    directory: str, num_procs: int, seed: int
) -> DirectorySnapshot:
    return make_directory(
        directory, num_procs=num_procs, rng=seed
    ).snapshot()


def run_collectives_check(
    *,
    size_bytes: float = 64 * 1024.0,
    p_values: Sequence[int] = DEFAULT_P_VALUES,
    seeds: Sequence[int] = (0,),
    directories: Sequence[str] = DEFAULT_DIRECTORIES,
) -> CollectivesCheckReport:
    """Audit every registered collective plus the log-round guarantees."""
    report = CollectivesCheckReport()
    specs = list(iter_collective_specs())
    report.covered = tuple(spec.name for spec in specs)

    # 1. registry-wide delivery sweep: every spec, default options
    for spec in specs:
        for directory in directories:
            for p in p_values:
                for seed in seeds:
                    snapshot = _snapshot_for(directory, p, seed)
                    label = (
                        f"{spec.name}[P={p},{directory},seed={seed}]"
                    )
                    report.cases += 1
                    size = 0.0 if spec.family == "barrier" else size_bytes
                    try:
                        result = spec.fn(snapshot, size)
                        violations = audit_collective(
                            spec.name, result.schedule, snapshot, size
                        )
                        if (
                            result.completion_time
                            < result.schedule.completion_time - TIME_TOL
                        ):
                            violations.append(
                                f"completion_time "
                                f"{result.completion_time:.6g} below the "
                                f"schedule's last finish "
                                f"{result.schedule.completion_time:.6g}"
                            )
                    except Exception as exc:  # noqa: BLE001 — report, don't crash
                        violations = [f"raised {type(exc).__name__}: {exc}"]
                    if violations:
                        report.failures.append((label, violations))

    # 2. log-round guarantee battery on the new families
    battery: List[Tuple[str, Callable[[DirectorySnapshot], List[str]]]] = [
        ("broadcast_log", lambda s: check_broadcast_log(s, size_bytes)),
        ("allbroadcast", lambda s: check_allbroadcast(s, size_bytes)),
        ("reduction", lambda s: check_reduction(s, size_bytes)),
        ("allreduce", lambda s: check_allreduce(s, size_bytes)),
        (
            "alltoall_direct[ring]",
            lambda s: check_alltoall_direct(s, size_bytes, topology="ring"),
        ),
        (
            "alltoall_direct[torus]",
            lambda s: check_alltoall_direct(s, size_bytes, topology="torus"),
        ),
    ]
    guarantee_ps = tuple(p for p in p_values if p > 1) + (64,)
    for name, checker in battery:
        for directory in directories:
            for p in guarantee_ps:
                for seed in seeds:
                    snapshot = _snapshot_for(directory, p, seed)
                    label = f"{name}[P={p},{directory},seed={seed}]"
                    report.cases += 1
                    try:
                        violations = checker(snapshot)
                    except Exception as exc:  # noqa: BLE001
                        violations = [f"raised {type(exc).__name__}: {exc}"]
                    if violations:
                        report.failures.append((label, violations))
    # hypercube needs a power-of-two P
    for directory in directories:
        for p in (2, 8, 64):
            for seed in seeds:
                snapshot = _snapshot_for(directory, p, seed)
                label = f"alltoall_direct[hypercube][P={p},{directory}]"
                report.cases += 1
                try:
                    violations = check_alltoall_direct(
                        snapshot, size_bytes, topology="hypercube"
                    )
                except Exception as exc:  # noqa: BLE001
                    violations = [f"raised {type(exc).__name__}: {exc}"]
                if violations:
                    report.failures.append((label, violations))

    # 3. headline stats at the largest sweep size
    p_stat = max(guarantee_ps)
    snapshot = _snapshot_for(directories[0], p_stat, seeds[0])
    for name, rounds, completion, events in _headline_rows(
        snapshot, size_bytes
    ):
        report.stats.append([name, p_stat, rounds, events, completion])
    return report


def _headline_rows(snapshot: DirectorySnapshot, size_bytes: float):
    plan = broadcast_log_plan(snapshot, size_bytes)
    yield (
        "broadcast_log", plan.rounds, plan.completion_time,
        len(plan.entries),
    )
    plan = allbroadcast_plan(snapshot, size_bytes)
    yield (
        "allbroadcast", plan.rounds, plan.completion_time,
        len(plan.entries),
    )
    plan = reduction_log_plan(snapshot, size_bytes)
    yield (
        "reduction", plan.rounds, plan.completion_time, len(plan.entries)
    )
    ar = allreduce_rs_ag(snapshot, size_bytes)
    yield ("allreduce", ar.steps, ar.completion_time, ar.starts.size)
    dp = alltoall_direct_plan(snapshot, size_bytes, topology="torus")
    yield (
        "alltoall_direct", dp.rounds, dp.completion_time, len(dp.entries)
    )


def render_collectives_check(report: CollectivesCheckReport) -> str:
    """Human-readable collectives family report."""
    lines = [
        f"collectives family: {report.cases} cases over "
        f"{len(report.covered)} registered collectives"
    ]
    if report.stats:
        lines.append(format_table(
            ["collective", "P", "rounds", "events", "completion (s)"],
            report.stats,
            precision=4,
            title="log-round families at the largest sweep size",
        ))
    if report.ok:
        lines.append(
            "PASS: delivery, round caps, operand flow and differential "
            "references all hold"
        )
    else:
        lines.append(f"FAIL: {len(report.failures)} case(s) violated")
        for label, violations in report.failures[:10]:
            lines.append(f"  {label}:")
            for violation in violations[:5]:
                lines.append(f"    - {violation}")
            if len(violations) > 5:
                lines.append(f"    (+{len(violations) - 5} more)")
        if len(report.failures) > 10:
            lines.append(f"  (+{len(report.failures) - 10} more cases)")
    return "\n".join(lines)
