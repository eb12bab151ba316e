#!/usr/bin/env python3
"""Guard against combination-engine performance regressions.

Nine checks:

1. Compares a freshly measured benchmark run against the committed
   BENCH_results.json and fails if any fully-optimised (s1+s2+s3+s4)
   row of the B-SCALE or B-DIV experiments at scale <= 2 got more than
   3x slower.  The generous factor absorbs CI machine noise; the point
   is to catch the combination phase falling back to quadratic padding,
   which shows up as a 100x+ cliff, not a 2x wobble.  When both the
   baseline row and the new row carry a wall_ms_p95 column (nearest-rank
   order statistics of the raw pass times), the p95 is held to the
   same 3x / absolute-bound rules — a tail-latency cliff fails the
   gate even if the median survived.

2. The B-PREP experiment of the NEW run alone: for every (query, scale)
   pair, the prepared row (one Session.prepare, N plan-cache-hit
   executions) must be strictly cheaper than the cold row (N one-shot
   runs, each re-entering the full planning pipeline).  Both sides are
   medians of several passes measured back to back in one process, so
   machine speed cancels out of the comparison.

3. The B-PAR experiment of the NEW run alone: for every (query, scale)
   pair, no jobs>1 row may be more than 1.2x slower than the jobs=1
   row.  Parallel execution is allowed to not help (CI runners may
   expose a single core, where chunking is pure overhead), but it must
   never be catastrophically slower than the serial engine it wraps.
   Rows whose serial median is under 5 ms are skipped as timer noise.

4. The B-INDEX experiment of the NEW run alone: for every (query,
   scale) pair, the indexed leg (secondary-index probes) must not be
   slower than the scan leg (heap scans, use_index=false); rows whose
   scan median is under 5 ms are held only to an absolute 5 ms bound
   (timer noise).  At the largest scale clearing the noise floor, the
   scan must cost at least 3x the probe — the selective restriction is
   exactly where access-path selection must win.  Percentile columns
   are optional everywhere: the harness omits wall_ms_p95/p99 when a
   cell was measured with a single pass, and every p95 guard here
   compares only when both sides carry the column.

5. B-TRAFFIC, baseline vs new, only when BOTH runs carry rows (older
   baselines predate the traffic experiment).  Rows are keyed by
   (strategy, pass) — the A-B-A-B interleave records two closed-loop
   and two open-loop passes.  Each new row's achieved throughput must
   stay above a third of the baseline's, and its p95 latency is held
   to the shared 3x / absolute-bound rule.  Thirds, not tenths: the
   traffic driver multiplexes client domains over whatever cores the
   CI runner exposes, so absolute throughput is machine-relative and
   only a cliff — scheduler convoy, lost concurrency, accidental
   serialization — should fail the gate.

6. B-IDX, baseline vs new, only when the new run carries rows.  The
   experiment counts relation scans of the existential and universal
   queries without and with permanent indexes (the scans and scans_ix
   columns).  Scan counts are deterministic, so every row must equal
   the committed baseline's exactly, and both runs must cover the same
   (query, strategy) cells.

7. B-ORDER, baseline vs new, only when the new run carries rows.  For
   every (query, scale, engine) cell the largest n-tuple relation built
   (max_ntuple) and the relation scans are deterministic, so both must
   equal the committed baseline's exactly, and both runs must cover the
   same cells up to the new run's largest scale (a --max-scale run
   covers a prefix of the baseline's scales).  max_ntuple is the
   union's cardinality whichever way the engine builds the union.

8. B-WRITE of the NEW run alone: the p50 commit latency of a one-row
   upsert on the largest relation must be at most 3x the p50 on the
   smallest (1e5 vs 1e2 rows in the full run; CI runs up to 1e4).  A
   write costs O(log n), so the figure should be flat in relation size;
   a write that copies its relation grows with it and fails.  Both
   sides are medians of commits interleaved round by round in one
   process, so disk and machine speed cancel out.

9. B-EMPTY of the NEW run alone: every leg (cold populated, cold
   empty, and one session's cached plan through papers populated,
   cleared and refilled) must agree with the naive evaluator.  A cached
   plan kept across an emptiness flip gives wrong answers, not slow
   ones, so a single disagreeing row fails the gate.

Usage: check_bench_regression.py BASELINE.json NEW.json
"""

import json
import sys

EXPERIMENTS = {"B-SCALE", "B-DIV"}
STRATEGY = "s1+s2+s3+s4"
MAX_SCALE = 2
FACTOR = 3.0


def key_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", doc if isinstance(doc, list) else []):
        if (
            r.get("experiment") in EXPERIMENTS
            and r.get("strategy") == STRATEGY
            and r.get("scale", 0) <= MAX_SCALE
        ):
            rows[(r["experiment"], r.get("query", ""), r["scale"])] = (
                r["wall_ms"],
                r.get("wall_ms_p95"),
            )
    return rows


def exceeds(base_ms, new_ms):
    """The shared 3x rule: sub-millisecond baselines are timer noise and
    are held to an absolute bound instead of a ratio."""
    if base_ms < 1.0:
        return new_ms > FACTOR * max(base_ms, 1.0)
    return new_ms > FACTOR * base_ms


def prep_rows(path):
    """B-PREP rows of one run: {(query, scale): {strategy: wall_ms}}."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", doc if isinstance(doc, list) else []):
        if r.get("experiment") == "B-PREP":
            rows.setdefault((r.get("query", ""), r.get("scale", 0)), {})[
                r.get("strategy")
            ] = r["wall_ms"]
    return rows


def check_prepared(path):
    """Prepared executions must beat cold runs, within the new run."""
    rows = prep_rows(path)
    if not rows:
        print("B-PREP: no rows in the new run, skipping the prepared check")
        return []
    failed = []
    for (query, scale), cells in sorted(rows.items()):
        if "cold" not in cells or "prepared" not in cells:
            failed.append((query, scale))
            print(f"B-PREP   {query:22s} scale={scale}  missing cold/prepared row")
            continue
        cold, prepared = cells["cold"], cells["prepared"]
        ok = prepared < cold
        print(
            f"B-PREP   {query:22s} scale={scale}  "
            f"cold={cold:9.2f}ms  prepared={prepared:9.2f}ms  "
            f"{'ok' if ok else 'NOT CHEAPER'}"
        )
        if not ok:
            failed.append((query, scale))
    return failed


PAR_FACTOR = 1.2
PAR_NOISE_FLOOR_MS = 5.0


def par_rows(path):
    """B-PAR rows of one run: {(query, scale): {jobs: wall_ms}}."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", doc if isinstance(doc, list) else []):
        if r.get("experiment") == "B-PAR":
            rows.setdefault((r.get("query", ""), r.get("scale", 0)), {})[
                r.get("jobs", 1)
            ] = r["wall_ms"]
    return rows


def check_parallel(path):
    """jobs>1 must stay within PAR_FACTOR of jobs=1, within the new run."""
    rows = par_rows(path)
    if not rows:
        print("B-PAR: no rows in the new run, skipping the parallel check")
        return []
    failed = []
    for (query, scale), cells in sorted(rows.items()):
        if 1 not in cells:
            failed.append((query, scale))
            print(f"B-PAR    {query:22s} scale={scale}  missing jobs=1 row")
            continue
        serial = cells[1]
        if serial < PAR_NOISE_FLOOR_MS:
            print(
                f"B-PAR    {query:22s} scale={scale}  "
                f"serial={serial:9.2f}ms  below noise floor, skipped"
            )
            continue
        for jobs, ms in sorted(cells.items()):
            if jobs == 1:
                continue
            ok = ms <= PAR_FACTOR * serial
            print(
                f"B-PAR    {query:22s} scale={scale}  jobs={jobs}  "
                f"serial={serial:9.2f}ms  parallel={ms:9.2f}ms  "
                f"{'ok' if ok else 'TOO SLOW'}"
            )
            if not ok:
                failed.append((query, scale, jobs))
    return failed


INDEX_NOISE_FLOOR_MS = 5.0
INDEX_FACTOR = 3.0
INDEX_FALLBACK_SLACK = 1.25


def index_rows(path):
    """B-INDEX rows of one run: {(query, scale): {strategy: row dict}}."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", doc if isinstance(doc, list) else []):
        if r.get("experiment") == "B-INDEX":
            rows.setdefault((r.get("query", ""), r.get("scale", 0)), {})[
                r.get("strategy")
            ] = r
    return rows


def check_index(path):
    """Secondary-index probes must beat heap scans, within the new run.

    Two rules over the indexed/scan leg pairs, both legs prepared
    executions of the same plan against the same database so machine
    speed cancels out: (1) at every scale the indexed leg must not
    lose to the scan leg (5 ms noise floor on the scan side — tiny
    relations are timer noise); (2) at the largest scale whose scan
    clears the noise floor, the scan must cost at least INDEX_FACTOR
    times the probe — the selective restriction is the index's home
    ground, and losing the 3x there means access-path selection broke.

    A pair whose indexed leg reports the "scan" access path is a
    fallback: an order restriction too unselective for the
    index, priced by walking part of it and then run as a heap scan.
    Its rule is that the indexed leg costs at most INDEX_FALLBACK_SLACK
    times the scan leg (plus the noise floor): pricing the span must
    stay small beside the scan it decides on."""
    rows = index_rows(path)
    if not rows:
        print("B-INDEX: no rows in the new run, skipping the index check")
        return []
    failed = []
    by_query = {}
    for (query, scale), cells in sorted(rows.items()):
        if "indexed" not in cells or "scan" not in cells:
            failed.append((query, scale))
            print(f"B-INDEX  {query:22s} scale={scale}  missing indexed/scan row")
            continue
        indexed, scan = cells["indexed"]["wall_ms"], cells["scan"]["wall_ms"]
        if cells["indexed"].get("access_path") == "scan":
            ok = indexed <= INDEX_FALLBACK_SLACK * scan + INDEX_NOISE_FLOOR_MS
            print(
                f"B-INDEX  {query:22s} scale={scale}  "
                f"scan={scan:9.3f}ms  fallback={indexed:9.3f}ms  "
                f"{'ok' if ok else 'FALLBACK TOO DEAR'}"
            )
            if not ok:
                failed.append((query, scale))
            continue
        if scan < INDEX_NOISE_FLOOR_MS:
            ok = indexed <= scan + INDEX_NOISE_FLOOR_MS
            print(
                f"B-INDEX  {query:22s} scale={scale}  "
                f"scan={scan:9.3f}ms  indexed={indexed:9.3f}ms  "
                f"{'ok (below noise floor)' if ok else 'SLOWER THAN SCAN'}"
            )
            if not ok:
                failed.append((query, scale))
            continue
        by_query.setdefault(query, []).append((scale, indexed, scan))
        ok = indexed <= scan
        print(
            f"B-INDEX  {query:22s} scale={scale}  "
            f"scan={scan:9.3f}ms  indexed={indexed:9.3f}ms  "
            f"({scan / max(indexed, 0.001):6.1f}x)  "
            f"{'ok' if ok else 'SLOWER THAN SCAN'}"
        )
        if not ok:
            failed.append((query, scale))
    for query, points in sorted(by_query.items()):
        scale, indexed, scan = max(points)
        ok = scan >= INDEX_FACTOR * indexed
        print(
            f"B-INDEX  {query:22s} largest scale={scale}  "
            f"probe wins {scan / max(indexed, 0.001):6.1f}x  "
            f"{'ok' if ok else f'BELOW {INDEX_FACTOR}x'}"
        )
        if not ok:
            failed.append((query, scale, "factor"))
    return failed


TRAFFIC_THROUGHPUT_FLOOR = 3.0


def traffic_rows(path):
    """B-TRAFFIC rows of one run: {(query, strategy, pass): row dict}."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", doc if isinstance(doc, list) else []):
        if r.get("experiment") == "B-TRAFFIC":
            rows[(r.get("query", ""), r.get("strategy", ""), r.get("pass", 0))] = r
    return rows


def check_traffic(baseline_path, new_path):
    """Achieved-throughput floor and p95 ceiling, baseline vs new.

    Applies only when both runs carry B-TRAFFIC rows; a baseline that
    predates the traffic experiment silently passes."""
    baseline = traffic_rows(baseline_path)
    new = traffic_rows(new_path)
    if not baseline or not new:
        print("B-TRAFFIC: rows missing on one side, skipping the traffic check")
        return []
    failed = []
    for key, base in sorted(baseline.items()):
        if key not in new:
            continue
        query, strategy, pass_ = key
        row = new[key]
        base_rps = base.get("achieved_rps")
        new_rps = row.get("achieved_rps")
        status = "ok"
        if base_rps is not None and new_rps is not None:
            if new_rps < base_rps / TRAFFIC_THROUGHPUT_FLOOR:
                status = "THROUGHPUT CLIFF"
        base_p95, new_p95 = base.get("wall_ms_p95"), row.get("wall_ms_p95")
        p95_note = ""
        if base_p95 is not None and new_p95 is not None:
            p95_note = f"  p95={base_p95:7.2f}->{new_p95:7.2f}ms"
            if exceeds(base_p95, new_p95):
                status = "P95 REGRESSION" if status == "ok" else status
        print(
            f"B-TRAFFIC {query:16s} {strategy:7s} pass={pass_}  "
            f"rps={base_rps:7.1f}->{new_rps:7.1f}{p95_note}  {status}"
        )
        if status != "ok":
            failed.append(key)
    return failed


def idx_rows(path):
    """B-IDX rows of one run: {(query, strategy): (scans, scans_ix)}."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", doc if isinstance(doc, list) else []):
        if r.get("experiment") == "B-IDX":
            rows[(r.get("query", ""), r.get("strategy", ""))] = (
                r.get("scans"),
                r.get("scans_ix"),
            )
    return rows


def check_permanent_indexes(baseline_path, new_path):
    """Scan counts with and without permanent indexes, baseline vs new."""
    new = idx_rows(new_path)
    if not new:
        print("B-IDX: no rows in the new run, skipping the scan-count check")
        return []
    baseline = idx_rows(baseline_path)
    failed = []
    for key in sorted(set(baseline) | set(new)):
        query, strategy = key
        base, row = baseline.get(key), new.get(key)
        ok = base is not None and base == row
        print(
            f"B-IDX    {query:12s} {strategy:8s}  "
            f"baseline={base}  new={row}  {'ok' if ok else 'COUNTS DIFFER'}"
        )
        if not ok:
            failed.append(key)
    return failed


def order_rows(path):
    """B-ORDER rows of one run: {(query, scale, engine): (max_ntuple, scans)}."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", doc if isinstance(doc, list) else []):
        if r.get("experiment") == "B-ORDER":
            rows[(r.get("query", ""), r.get("scale", 0), r.get("strategy", ""))] = (
                r.get("max_ntuple"),
                r.get("scans"),
            )
    return rows


def check_order_counts(baseline_path, new_path):
    """B-ORDER max_ntuple and scan counts, baseline vs new."""
    new = order_rows(new_path)
    if not new:
        print("B-ORDER: no rows in the new run, skipping the count check")
        return []
    top = max(scale for _, scale, _ in new)
    baseline = {k: v for k, v in order_rows(baseline_path).items() if k[1] <= top}
    failed = []
    for key in sorted(set(baseline) | set(new)):
        query, scale, engine = key
        base, row = baseline.get(key), new.get(key)
        ok = base is not None and base == row
        print(
            f"B-ORDER  {query:12s} scale={scale} {engine:11s}  "
            f"baseline={base}  new={row}  {'ok' if ok else 'COUNTS DIFFER'}"
        )
        if not ok:
            failed.append(key)
    return failed


WRITE_FACTOR = 3.0


def check_write_scaling(path):
    """B-WRITE p50 at the largest relation vs the smallest, new run only."""
    with open(path) as f:
        doc = json.load(f)
    rows = {
        r.get("scale", 0): r.get("wall_ms_p50", r.get("wall_ms"))
        for r in doc.get("results", doc if isinstance(doc, list) else [])
        if r.get("experiment") == "B-WRITE"
    }
    if len(rows) < 2:
        print("B-WRITE: fewer than two sizes in the new run, skipping the scaling check")
        return []
    small, large = min(rows), max(rows)
    ok = rows[large] <= WRITE_FACTOR * rows[small]
    print(
        f"B-WRITE  p50 at {large} rows = {rows[large]:.3f} ms, at {small} rows = "
        f"{rows[small]:.3f} ms  (ratio {rows[large] / rows[small]:.2f}, "
        f"limit {WRITE_FACTOR}x)  {'ok' if ok else 'GROWS WITH RELATION SIZE'}"
    )
    return [] if ok else [(small, large)]


def check_empty_agreement(path):
    """B-EMPTY rows of the new run that disagree with the naive evaluator."""
    with open(path) as f:
        doc = json.load(f)
    rows = [
        r
        for r in doc.get("results", doc if isinstance(doc, list) else [])
        if r.get("experiment") == "B-EMPTY"
    ]
    if not rows:
        print("B-EMPTY: no rows in the new run, skipping the agreement check")
        return []
    failed = []
    for r in rows:
        ok = r.get("agrees_naive") is True
        print(
            f"B-EMPTY  {r.get('leg', '?'):16s} rows={r.get('rows')}  "
            f"cache={r.get('cache')}  {'ok' if ok else 'DISAGREES WITH NAIVE'}"
        )
        if not ok:
            failed.append(r.get("leg"))
    return failed


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    baseline = key_rows(sys.argv[1])
    new = key_rows(sys.argv[2])
    compared = 0
    failed = []
    for key, (base_ms, base_p95) in sorted(baseline.items()):
        if key not in new:
            continue
        compared += 1
        new_ms, new_p95 = new[key]
        status = "ok"
        if exceeds(base_ms, new_ms):
            status = "REGRESSION"
        # Tail latency, when both runs recorded it (older baselines
        # predate the percentile columns).
        p95_note = ""
        if base_p95 is not None and new_p95 is not None:
            p95_note = f"  p95={base_p95:8.2f}->{new_p95:8.2f}ms"
            if exceeds(base_p95, new_p95):
                status = "P95 REGRESSION" if status == "ok" else status
        exp, query, scale = key
        print(
            f"{exp:8s} {query:16s} scale={scale}  "
            f"baseline={base_ms:9.2f}ms  new={new_ms:9.2f}ms{p95_note}  {status}"
        )
        if status != "ok":
            failed.append(key)
    if compared == 0 and new:
        sys.exit("no comparable benchmark rows found -- wrong files?")
    if compared == 0:
        # A run restricted to the within-run experiments (e.g. --only
        # B-PAR) carries no baseline-comparable rows; that is fine.
        print("B-SCALE/B-DIV: no rows in the new run, skipping the baseline comparison")
    prep_failed = check_prepared(sys.argv[2])
    par_failed = check_parallel(sys.argv[2])
    index_failed = check_index(sys.argv[2])
    traffic_failed = check_traffic(sys.argv[1], sys.argv[2])
    idx_failed = check_permanent_indexes(sys.argv[1], sys.argv[2])
    order_failed = check_order_counts(sys.argv[1], sys.argv[2])
    write_failed = check_write_scaling(sys.argv[2])
    empty_failed = check_empty_agreement(sys.argv[2])
    if failed:
        sys.exit(f"{len(failed)}/{compared} rows regressed beyond {FACTOR}x")
    if prep_failed:
        sys.exit(
            f"{len(prep_failed)} B-PREP rows where prepared execution "
            "was not cheaper than cold runs"
        )
    if par_failed:
        sys.exit(
            f"{len(par_failed)} B-PAR rows where jobs>1 was more than "
            f"{PAR_FACTOR}x slower than the serial engine"
        )
    if index_failed:
        sys.exit(
            f"{len(index_failed)} B-INDEX rows where the secondary-index "
            "probe did not beat the heap scan"
        )
    if traffic_failed:
        sys.exit(
            f"{len(traffic_failed)} B-TRAFFIC rows lost more than "
            f"{TRAFFIC_THROUGHPUT_FLOOR}x throughput or regressed p95"
        )
    if idx_failed:
        sys.exit(
            f"{len(idx_failed)} B-IDX rows whose scan counts differ from "
            "the committed baseline"
        )
    if order_failed:
        sys.exit(
            f"{len(order_failed)} B-ORDER cells whose max_ntuple or scan "
            "counts differ from the committed baseline"
        )
    if write_failed:
        sys.exit(
            f"B-WRITE upsert p50 at the largest relation exceeds "
            f"{WRITE_FACTOR}x the smallest"
        )
    if empty_failed:
        sys.exit(
            f"{len(empty_failed)} B-EMPTY legs whose answer differs from "
            "the naive evaluator"
        )
    if compared:
        print(f"all {compared} rows within {FACTOR}x of baseline")


if __name__ == "__main__":
    main()
